"""Outer bundle iteration: configuration guards, a scripted scalar-problem
step oracle, aggregate bookkeeping, variant equivalences, and the driver."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import specbundle.bundle as bundle
import specbundle.model as model
from specbundle import (ConstraintMap, IterationRecord, LowRankFactors,
                        SdpProblem, SolverConfig, run, sketch_init,
                        sketch_reconstruct)
from specbundle.bench import (build_completion, build_maxcut, gen_completion, gen_er_graph,
                              write_trace)
from specbundle.bench.problems import triangle_graph
from specbundle.bundle import (BundleState, _finished_aggregate, init_state,
                               is_descent_step, membership_certificates, step,
                               stopping_metric, subgradient_at)
from specbundle.linops import symmetrize
from specbundle.model import Aggregate, dual_objective
from specbundle.sketch import SketchState

from conftest import rand_problem


# -- configuration -----------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(variant="steepest"),
    dict(beta=0.0),
    dict(beta=1.0),
    dict(rho=0.0),
    dict(rho=-1.0),
    dict(rbar=0),
    dict(storage="dense"),
    dict(max_iters=0),
    dict(inner_max_iter=0, rbar=2),
    dict(sketch_rank=0, storage="compressed"),
    dict(sketch_rank=2),
    dict(rbar=2.5),
    dict(rbar=True),
    dict(max_iters=2.5),
    dict(inner_max_iter=60.0),
    dict(seed=-1),
    dict(seed=0.5),
    dict(sketch_rank=2.5, storage="compressed"),
    dict(sketch_rank=False, storage="compressed"),
    dict(target_gap="0.1"),
    dict(target_gap=float("nan")),
    dict(target_gap=-1.0),
    dict(target_gap=float("inf")),
    dict(rho=float("inf")),
    dict(rho=float("nan")),
    dict(rho=True),
    dict(beta="0.5"),
    dict(beta=float("nan")),
    dict(check_invariants="no"),
    dict(check_invariants=1),
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        SolverConfig(**kw).validate()


def test_config_names_a_non_integer_size_and_accepts_numpy_integers():
    for name in ("rbar", "max_iters", "inner_max_iter", "seed"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SolverConfig(**{name: 3.0}).validate()
    with pytest.raises(ValueError, match="^seed must be nonnegative"):
        SolverConfig(seed=-1).validate()
    cfg = SolverConfig(rbar=np.int64(2), max_iters=np.int64(3), inner_max_iter=np.int64(60),
                       seed=np.int64(1), storage="compressed", sketch_rank=np.int64(2))
    assert cfg.validate() is cfg


@pytest.mark.parametrize("name,value,message", [
    ("target_gap", "0.1", "target_gap must be a finite real number"),
    ("target_gap", float("nan"), "target_gap must be a finite real number"),
    ("target_gap", -1.0, "target_gap must be nonnegative"),
    ("rho", float("inf"), "rho must be a finite real number"),
    ("beta", "0.5", "beta must be a finite real number"),
    ("beta", False, "beta must be a finite real number"),
    ("check_invariants", "no", "check_invariants must be a bool"),
    ("variant", "bogus", "variant must be one of ('block', 'hr', 'hybrid')"),
    ("variant", 3, "variant must be a string"),
    ("storage", "disk", "storage must be one of ('explicit', 'compressed')"),
    ("beta", 0.0, "beta must be in (0, 1)"),
    ("beta", 1.0, "beta must be in (0, 1)"),
    ("rho", 0.0, "rho must be positive"),
    ("rho", -1.0, "rho must be positive"),
    ("rbar", 0, "rbar must be positive"),
    ("max_iters", 0, "max_iters must be positive"),
    ("inner_max_iter", 0, "inner_max_iter must be positive"),
    ("sketch_rank", 0, "sketch_rank must be positive"),
    ("sketch_rank", 2.0, "sketch_rank must be an integer"),
    ("seed", -1, "seed must be nonnegative"),
])
def test_config_names_a_bad_real_or_flag(name, value, message):
    # every rule of SolverConfig's table names its field first
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        SolverConfig(**{name: value}).validate()


def test_config_accepts_numpy_reals_and_bools():
    cfg = SolverConfig(beta=np.float64(0.5), rho=np.float32(2.0), target_gap=np.float64(1e-3),
                       check_invariants=np.bool_(True))
    assert cfg.validate() is cfg
    assert SolverConfig(rho=2, target_gap=0).validate().rho == 2


def test_descent_test_cases():
    # threshold at f_ref - beta * (f_ref - model) = 10 - 0.25 * 2 = 9.5
    assert is_descent_step(10.0, 9.0, 8.0, 0.25)
    assert not is_descent_step(10.0, 9.8, 8.0, 0.25)
    assert is_descent_step(10.0, 9.5, 8.0, 0.25)


def test_init_state_basics():
    rng = np.random.default_rng(0)
    prob = rand_problem(rng, n=6, m=4)
    cfg = SolverConfig(rbar=3)
    st = init_state(prob, cfg)
    assert st.t == 0
    assert np.array_equal(st.y, np.zeros(4))
    assert np.array_equal(st.z, st.y)
    assert st.V.shape == (6, 3)
    assert np.abs(st.V.T @ st.V - np.eye(3)).max() <= 1e-10
    assert st.agg.is_zero
    assert abs(st.F_y - dual_objective(prob, st.y)) <= 1e-12 * (1 + abs(st.F_y))
    # bundle width cannot exceed the matrix order
    st_wide = init_state(prob, SolverConfig(rbar=10))
    assert st_wide.V.shape == (6, 6)
    with pytest.raises(ValueError):
        init_state(prob, cfg, y0=np.zeros(3))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_run_names_a_non_finite_start(bad):
    # refused by name before the first eigensolve sees it
    prob = rand_problem(np.random.default_rng(0), n=6, m=4)
    with pytest.raises(ValueError, match=rf"^y0\[2\] must be a finite real number, got {bad}$"):
        run(prob, SolverConfig(max_iters=2), y0=np.array([0.0, 1.0, bad, 0.0]))


def test_run_names_an_alpha_whose_start_value_overflows():
    # F(0) = alpha * lambda_max(L) = 3e308 overflows before any step, and
    # would otherwise surface as numpy's message from the next eigensolve
    prob = build_maxcut(triangle_graph(), alpha=1e308)
    with pytest.raises(ValueError, match=r"^F\(y0\) = inf is not finite: alpha = 1e\+308 "):
        run(prob, SolverConfig(max_iters=3))


# -- scripted scalar-problem step oracle --------------------------------------

def _scalar_setup(a=1.5, c=-0.8, b0=1.0, alpha=3.0, y0=0.4, xbar=0.6):
    amap = ConstraintMap.from_triples(1, [[(0, 0, a)]])
    prob = SdpProblem(C=np.array([[c]]), A=amap, b=np.array([b0]), alpha=alpha)
    agg = Aggregate(AX=np.array([a * xbar]), CX=c * xbar, tr=xbar,
                    X=np.array([[xbar]]))
    lam1 = a * y0 - c
    F_y = -b0 * y0 + alpha * max(lam1, 0.0)
    state = BundleState(t=0, y=np.array([y0]), z=np.array([y0]),
                        V=np.array([[1.0]]), agg=agg, F_y=F_y, lam1_y=lam1)
    return prob, state, (a, c, b0, alpha, y0, xbar)


def _scalar_oracle(params, rho, beta):
    """Independent single-step computation for the 1x1 problem: subproblem by
    grid refinement over the feasible triangle, then the outer update."""
    a, c, b0, alpha, y0, xbar = params
    AXb, CXb = a * xbar, c * xbar
    c_eta = CXb - AXb * y0
    g2 = c - a * y0

    def f(e, s):
        r = b0 - e * AXb - s * a
        return b0 * y0 + e * c_eta + s * g2 + 0.5 / rho * r * r

    lo_e, hi_e, lo_s, hi_s = 0.0, 1.0, 0.0, alpha
    best = (np.inf, 0.0, 0.0)
    for _ in range(45):
        es = np.linspace(lo_e, hi_e, 17)
        ss = np.linspace(lo_s, hi_s, 17)
        E, S = np.meshgrid(es, ss, indexing="ij")
        mask = alpha * E + S <= alpha + 1e-12
        vals = np.where(mask, f(E, S), np.inf)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[i, j] < best[0]:
            best = (vals[i, j], E[i, j], S[i, j])
        we, ws = (hi_e - lo_e) / 4.0, (hi_s - lo_s) / 4.0
        lo_e, hi_e = max(0.0, best[1] - we), min(1.0, best[1] + we)
        lo_s, hi_s = max(0.0, best[2] - ws), min(alpha, best[2] + ws)
    fstar, eta, s = best

    X_t = eta * xbar + s
    AX, CX, tr = a * X_t, c * X_t, X_t
    z = y0 + (b0 - AX) / rho
    F_z = -b0 * z + alpha * max(a * z - c, 0.0)
    model_at_z = -fstar - 0.5 * rho * (z - y0) ** 2
    F_y = -b0 * y0 + alpha * max(a * y0 - c, 0.0)
    descent = F_z <= F_y - beta * (F_y - model_at_z)
    y_new = z if descent else y0
    agg_AX, agg_CX, agg_tr = (a * alpha, c * alpha, alpha) if tr > 1e-12 * alpha \
        else (0.0, 0.0, 0.0)
    return dict(fstar=fstar, z=z, F_z=F_z, model_at_z=model_at_z,
                descent=descent, feas=abs(b0 - AX), pval=CX,
                dval=b0 * y_new, step=abs(z - y0), X_t=X_t,
                agg=(agg_AX, agg_CX, agg_tr),
                lammin=-(a * y_new - c))


@pytest.mark.parametrize("variant", ["block", "hr", "hybrid"], ids=lambda v: f"step_{v}")
@pytest.mark.parametrize("rho,beta", [(1.0, 0.25), (0.3, 0.6), (4.0, 0.1)])
def test_scalar_step_matches_oracle(variant, rho, beta):
    prob, state, params = _scalar_setup()
    cfg = SolverConfig(variant=variant, rho=rho, beta=beta, rbar=1)
    new_state, rec, info = step(prob, cfg, state)
    want = _scalar_oracle(params, rho, beta)

    tol = 1e-7
    assert abs(rec.F_z - want["F_z"]) <= tol * (1 + abs(want["F_z"]))
    assert abs(rec.Fbar_z - want["model_at_z"]) <= tol * (1 + abs(want["model_at_z"]))
    assert rec.descent == want["descent"]
    assert abs(rec.feas - want["feas"]) <= tol
    assert abs(rec.pval - want["pval"]) <= tol
    assert abs(rec.dval - want["dval"]) <= tol
    assert abs(rec.step - want["step"]) <= tol
    assert abs(rec.lammin - want["lammin"]) <= tol
    assert rec.gaps == (0.0,)

    assert abs(new_state.z[0] - want["z"]) <= tol
    assert abs(info.X_t[0, 0] - want["X_t"]) <= tol
    aAX, aCX, atr = want["agg"]
    assert abs(new_state.agg.AX[0] - aAX) <= tol
    assert abs(new_state.agg.CX - aCX) <= tol
    assert abs(new_state.agg.tr - atr) <= tol
    assert np.array_equal(new_state.V, np.array([[1.0]]))


def test_null_step_keeps_reference():
    # a narrow bundle plus a long proximal step overshoots, and a beta close
    # to 1 turns the overshoot into a null step; the reference must not move
    rng = np.random.default_rng(20)
    for _ in range(40):
        prob = rand_problem(rng, n=5, m=3)
        cfg = SolverConfig(rho=1e-6, beta=0.99, rbar=1)
        state = init_state(prob, cfg, y0=rng.normal(size=3))
        new_state, rec, _ = step(prob, cfg, state)
        if rec.descent:
            continue
        assert np.array_equal(new_state.y, state.y)
        assert new_state.F_y == state.F_y
        assert new_state.lam1_y == state.lam1_y
        assert new_state.descent_steps == 0
        # the exploration point still moves to the rejected candidate
        assert not np.array_equal(new_state.z, state.z)
        return
    pytest.fail("never drew a null step")


# -- aggregate bookkeeping over random steps ----------------------------------

@pytest.mark.parametrize("variant", ["block", "hr", "hybrid"])
def test_aggregate_caches_consistent_over_random_steps(variant):
    rng = np.random.default_rng(1)
    for trial in range(7):
        prob = rand_problem(rng, n=6, m=4)
        cfg = SolverConfig(variant=variant, rbar=2, rho=float(rng.uniform(0.5, 2)))
        state = init_state(prob, cfg, y0=rng.normal(size=4))
        for _ in range(3):
            state, rec, info = step(prob, cfg, state)
            agg = state.agg
            assert agg.tr == prob.alpha or agg.tr == 0.0
            if agg.tr > 0.0:
                assert abs(np.trace(agg.X) - agg.tr) <= 1e-9 * prob.alpha
                AX = prob.A.apply(agg.X)
                assert np.abs(AX - agg.AX).max() <= 1e-9 * (1 + np.abs(AX).max())
                CX = float(np.sum(prob.C * agg.X))
                assert abs(CX - agg.CX) <= 1e-9 * (1 + abs(CX))
                assert scipy.linalg.eigvalsh(agg.X).min() >= -1e-8 * prob.alpha
            V = state.V
            assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-9
            assert len(rec.gaps) == cfg.rbar
            # candidate kept for warm starting the next subproblem
            assert state.warm is not None


def test_candidate_trace_respects_budget():
    rng = np.random.default_rng(2)
    for trial in range(15):
        prob = rand_problem(rng, n=5, m=3)
        cfg = SolverConfig(variant=["block", "hr", "hybrid"][trial % 3], rbar=2)
        state = init_state(prob, cfg)
        for _ in range(4):
            state, rec, info = step(prob, cfg, state)
            assert info.tr_raw <= prob.alpha + 1e-8
            assert np.trace(info.X_t) <= prob.alpha + 1e-8


# -- the primal record ---------------------------------------------------------

def test_explicit_block_record_is_scaled_candidate():
    rng = np.random.default_rng(14)
    prob = rand_problem(rng, n=7, m=4)
    cfg = SolverConfig(rbar=2)
    state = init_state(prob, cfg, y0=rng.normal(size=4))
    for _ in range(4):
        prev = state
        state, _, info = step(prob, cfg, prev)
        sol, V = info.sol, prev.V
        want = symmetrize(sol.eta * prev.agg.X + (V @ sol.S) @ V.T)
        assert info.X_t.tobytes() == want.tobytes()
        if not state.agg.is_zero:
            assert (state.agg.X.tobytes()
                    == (want * (prob.alpha / sol.tr)).tobytes())
    assert not prev.agg.is_zero


@pytest.mark.parametrize("variant,calls", [("block", 1), ("hr", 2)])
def test_compressed_step_sketch_update_calls(variant, calls, monkeypatch):
    # block folds the whole candidate into the aggregate, so its record is
    # the candidate's rescaled; hr folds only part of S and needs both
    rng = np.random.default_rng(15)
    prob = rand_problem(rng, n=7, m=4)
    cfg = SolverConfig(variant=variant, rbar=2, storage="compressed", sketch_rank=2)
    state = init_state(prob, cfg, y0=rng.normal(size=4))
    seen = []
    real = bundle.sketch_update

    def counting(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(bundle, "sketch_update", counting)
    new, _, info = step(prob, cfg, state)
    assert len(seen) == calls
    assert isinstance(info.X_t, SketchState)
    assert isinstance(new.agg.X, SketchState)


def test_zero_trace_reset_leaves_zeros():
    rng = np.random.default_rng(16)
    prob = rand_problem(rng, n=5, m=3)
    X = -np.abs(rng.normal(size=(5, 5)))
    agg = _finished_aggregate(prob, np.ones(3), 1.0, 0.0, X)
    assert agg.is_zero and agg.CX == 0.0
    assert agg.X.tobytes() == np.zeros((5, 5)).tobytes()
    sk = sketch_init(5, 2, seed=0)
    sk = bundle.sketch_update(sk, 1.0, rng.normal(size=(5, 2)), np.eye(2))
    agg = _finished_aggregate(prob, np.ones(3), 1.0, 0.0, sk)
    assert isinstance(agg.X, SketchState)
    assert not agg.X.Yc.any() and not agg.X.Yr.any()
    assert agg.X.Psi is sk.Psi and agg.X.Phi is sk.Phi


# -- variant equivalences ------------------------------------------------------

def test_hybrid_keep_zero_matches_block():
    # at rbar=1 hybrid recycles nothing (r_p = 0), so it is the block rule:
    # the same arithmetic, bit for bit
    rng = np.random.default_rng(3)
    prob = rand_problem(rng, n=6, m=4)
    y0 = rng.normal(size=4)
    cfg_b = SolverConfig(variant="block", rbar=1, rho=1.2)
    cfg_h = SolverConfig(variant="hybrid", rbar=1, rho=1.2)
    sb = init_state(prob, cfg_b, y0=y0.copy())
    sh = init_state(prob, cfg_h, y0=y0.copy())
    for _ in range(6):
        sb, rb, ib = step(prob, cfg_b, sb)
        sh, rh, ih = step(prob, cfg_h, sh)
        assert repr(rb) == repr(rh)
        assert sb.V.tobytes() == sh.V.tobytes()
        assert sb.agg.AX.tobytes() == sh.agg.AX.tobytes()
        assert ib.X_t.tobytes() == ih.X_t.tobytes()
        assert ih.kept.shape == (6, 0) and ih.lam_keep.shape == (0,)


def test_hr_equals_hybrid_at_width_one():
    rng = np.random.default_rng(4)
    prob = rand_problem(rng, n=5, m=3)
    y0 = rng.normal(size=3)
    cfg_hr = SolverConfig(variant="hr", rbar=1, rho=0.8)
    cfg_hy = SolverConfig(variant="hybrid", rbar=1, rho=0.8)
    s1, r1, _ = step(prob, cfg_hr, init_state(prob, cfg_hr, y0=y0.copy()))
    s2, r2, _ = step(prob, cfg_hy, init_state(prob, cfg_hy, y0=y0.copy()))
    assert r1.F_z == r2.F_z
    assert np.array_equal(s1.V, s2.V)
    assert np.array_equal(s1.agg.AX, s2.agg.AX)


# -- descent bookkeeping --------------------------------------------------------

@pytest.mark.parametrize("variant", ["block", "hr", "hybrid"])
def test_reference_objective_monotone(variant):
    rng = np.random.default_rng(5)
    prob = rand_problem(rng, n=6, m=4)
    cfg = SolverConfig(variant=variant, rbar=2, rho=1.0, max_iters=25)
    res = run(prob, cfg)
    f_ref = [rec.F_y for rec in res.records]
    for a, b in zip(f_ref, f_ref[1:]):
        assert b <= a + 1e-12 * (1 + abs(a))
    for rec in res.records:
        # the model value never exceeds the candidate objective
        assert rec.Fbar_z <= rec.F_z + 1e-8 * (1 + abs(rec.F_z))
        if rec.descent:
            drop_needed = cfg.beta * (rec.F_y - rec.Fbar_z)
            assert rec.F_z <= rec.F_y - drop_needed + 1e-10 * (1 + abs(rec.F_y))
    assert res.stats.descent_steps == sum(r.descent for r in res.records)


def test_warm_start_width_mismatch_is_discarded():
    rng = np.random.default_rng(6)
    prob = rand_problem(rng, n=6, m=4)
    cfg = SolverConfig(variant="hr", rbar=3)
    state = init_state(prob, cfg)
    # poison the warm start with an incompatible block size
    state.warm = (0.5, np.eye(2) * 0.1)
    state2, rec, _ = step(prob, cfg, state)
    assert np.isfinite(rec.F_z)
    assert state2.warm[1].shape == (3, 3)


# -- diagnostics ----------------------------------------------------------------

@pytest.mark.parametrize("storage", ["explicit", "compressed"])
def test_membership_detects_doctored_record(storage):
    # the certificate rebuilds the record through the step's own update, so
    # a rank-one edit of X_t of Frobenius size 1e-6 alpha shows in both
    # storages (the sketch's error is its probe estimate of that size)
    rng = np.random.default_rng(7)
    prob = rand_problem(rng, n=6, m=4)
    cfg = SolverConfig(variant="hr", rbar=2, storage=storage,
                       sketch_rank=2 if storage == "compressed" else None)
    state = init_state(prob, cfg)
    for _ in range(3):
        state, _, info = step(prob, cfg, state)
    assert not state.agg.is_zero and info.kept.shape[1] == 1
    err, feas = membership_certificates(prob, state, info)
    assert err < 1e-13 and feas < 1e-13
    u = rng.normal(size=(6, 1))
    u /= np.linalg.norm(u)
    edit = bundle._record_update(info.X_t, 1.0, u, np.array([[1e-6 * prob.alpha]]))
    err, _ = membership_certificates(prob, state, replace(info, X_t=edit))
    assert 1e-8 < err < 1e-5


def test_compressed_membership_matches_explicit_twin():
    # under compressed storage the certificate runs on the sketches; its
    # error is of the explicit run's order, not a skipped 0.0
    prob = build_maxcut(gen_er_graph(30, 0.2, 0))
    errs = {}
    for storage in ("explicit", "compressed"):
        cfg = SolverConfig(variant="hr", rbar=3, max_iters=25, storage=storage,
                           sketch_rank=3 if storage == "compressed" else None,
                           check_invariants=True)
        rep = run(prob, cfg).stats.invariants
        assert rep.checked == 25 and rep.membership_feas <= 1e-8
        errs[storage] = rep.membership_err
    assert 0.0 < errs["compressed"] <= 1e-8
    assert errs["explicit"] / 10 <= errs["compressed"] <= 10 * errs["explicit"]


def test_subgradient_branches():
    rng = np.random.default_rng(8)
    prob = rand_problem(rng, n=5, m=3)
    v = rng.normal(size=5)
    v /= np.linalg.norm(v)
    g = subgradient_at(prob, 2.0, v)
    want = -prob.b + prob.alpha * prob.A.apply(np.outer(v, v))
    assert np.abs(g - want).max() <= 1e-10 * (1 + np.abs(want).max())
    g0 = subgradient_at(prob, -1.0, v)
    assert np.array_equal(g0, -prob.b)
    g0[0] += 1.0
    assert g0[0] != -prob.b[0]  # returned a copy


def test_subgradient_is_bitwise_the_congruence_form():
    # the form subgradient_at replaced: the 1 x 1 congruence of v
    rng = np.random.default_rng(9)
    for _ in range(30):
        prob = rand_problem(rng, n=7, m=int(rng.integers(1, 12)))
        v = rng.normal(size=7)
        v[rng.random(7) < 0.3] = -0.0
        want = -prob.b + prob.alpha * prob.A.congruence(v[:, None])[:, 0, 0]
        assert subgradient_at(prob, 1.5, v).tobytes() == want.tobytes()


def test_stopping_metric_formula():
    rec = IterationRecord(t=1, F_y=0.0, F_z=0.0, Fbar_z=0.0, descent=True,
                          feas=0.3, lammin=-0.2, pval=1.0, dval=1.5,
                          step=0.0, gaps=(0.0,), inner_res=0.0)
    got = stopping_metric(rec, norm_b=2.0)
    want = max(0.3 / 3.0, 0.5 / 2.5, 0.2)
    assert got == want
    # dual infeasibility clamps at zero when lammin is positive
    rec2 = IterationRecord(t=1, F_y=0.0, F_z=0.0, Fbar_z=0.0, descent=True,
                           feas=0.0, lammin=0.7, pval=1.0, dval=1.0,
                           step=0.0, gaps=(0.0,), inner_res=0.0)
    assert stopping_metric(rec2, norm_b=0.0) == 0.0


# -- driver -----------------------------------------------------------------------

def test_run_stops_at_iteration_budget():
    rng = np.random.default_rng(9)
    prob = rand_problem(rng, n=6, m=4)
    cfg = SolverConfig(rbar=2, max_iters=5)
    res = run(prob, cfg)
    assert res.stats.stop_reason == "max_iters"
    assert res.stats.iterations == len(res.records) == 5
    assert res.primal is not None and res.primal.shape == (6, 6)


@pytest.mark.parametrize("variant", ["block", "hr", "hybrid"])
def test_run_scalar_fixed_point_stops_immediately(variant):
    amap = ConstraintMap.from_triples(1, [[(0, 0, 1.0)]])
    prob = SdpProblem(C=np.array([[-2.0]]), A=amap, b=np.array([1.0]), alpha=4.0)
    cfg = SolverConfig(variant=variant, rbar=1, rho=1.0, target_gap=1e-10)
    res = run(prob, cfg, y0=np.array([-2.0]))
    assert res.stats.stop_reason == "target_gap"
    assert res.stats.iterations == 1
    assert res.records[-1].step <= 1e-8
    assert res.records[-1].descent
    assert abs(res.state.F_y - 2.0) <= 1e-12


def test_run_all_null_steps_warns_and_reports_last_candidate():
    rng = np.random.default_rng(11)
    for _ in range(30):
        prob = rand_problem(rng, n=6, m=4)
        cfg = SolverConfig(rbar=2, rho=1e-6, beta=0.999, max_iters=1)
        res = run(prob, cfg, y0=rng.normal(size=4))
        if res.stats.descent_steps == 0:
            assert any("no descent step" in w for w in res.stats.warnings)
            assert res.primal is not None
            return
    pytest.fail("never drew a run without descent steps")


def test_run_collects_invariant_telemetry():
    rng = np.random.default_rng(12)
    prob = rand_problem(rng, n=6, m=4)
    for variant in ("block", "hr"):
        cfg = SolverConfig(variant=variant, rbar=2, max_iters=10,
                           check_invariants=True)
        res = run(prob, cfg)
        rep = res.stats.invariants
        assert rep is not None
        assert rep.checked == res.stats.iterations
        d = rep.as_dict()
        assert list(d) == [f.name for f in fields(bundle.InvariantReport)]
        assert d["checked"] == rep.checked
        assert rep.simple_minus_model <= 1e-7
        assert rep.model_minus_f <= 1e-7
        assert rep.membership_err <= 1e-8
        assert rep.membership_feas <= 1e-8


# -- the dominance probes' objective bracket ------------------------------------

_BRACKET_SIDES = {
    "negative": lambda u, v: (-v, -u),
    "positive": lambda u, v: (u, v),
    "across": lambda u, v: (-u, v),
}


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(_BRACKET_SIDES)),
       st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=-1e6, max_value=1e6))
def test_largest_ratio_bounds_the_ratio_across_the_bracket(side, a, b, c, mv):
    lo, hi = _BRACKET_SIDES[side](min(a, b), max(a, b))
    grid = np.linspace(lo, hi, 2001).tolist() + [lo, hi] + ([0.0] if lo <= 0.0 <= hi else [])
    # the probe's two numerators: sv - mv, constant in F, and mv - F
    for num in (lambda F: c, lambda F: mv - F):
        bound = bundle._largest_ratio(num, lo, hi)
        assert all(num(F) / (1.0 + abs(F)) <= bound for F in grid)


def _counted_probe_eigensolves(monkeypatch):
    """Count the ``model.objective_with_spectrum`` calls, a name the
    benchmark's tracer wraps, made under ``check_model_dominance``: the
    probes' eigensolves.  Returns the one-element list it counts in."""
    inner, check = model.objective_with_spectrum, bundle.check_model_dominance
    depth, calls = [0], [0]

    def counted(*args):
        calls[0] += depth[0]
        return inner(*args)

    def checked(*args):
        depth[0] += 1
        try:
            return check(*args)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(model, "objective_with_spectrum", counted)
    monkeypatch.setattr(bundle, "check_model_dominance", checked)
    return calls


@pytest.mark.parametrize("build, cfg, want_solved", [
    (lambda: build_completion(gen_completion(50, 3, 0.3, 0)),
     SolverConfig(variant="block", rbar=3, rho=5.0, max_iters=40, check_invariants=True), 18),
    # three of the small seed-trace runs
    (lambda: build_maxcut(gen_er_graph(30, 0.2, 0)),
     SolverConfig(variant="block", rbar=3, max_iters=60, inner_max_iter=60,
                  check_invariants=True), 10),
    (lambda: build_maxcut(gen_er_graph(30, 0.2, 0)),
     SolverConfig(variant="hr", rbar=3, max_iters=60, inner_max_iter=60,
                  check_invariants=True), 12),
    (lambda: build_completion(gen_completion(8, 2, 0.5, 0)),
     SolverConfig(variant="block", rbar=3, max_iters=60, inner_max_iter=60,
                  check_invariants=True), 22),
], ids=["completion-50", "maxcut-30-block", "maxcut-30-hr", "completion-8-block"])
def test_skipped_probes_keep_every_bit(build, cfg, want_solved, monkeypatch):
    """Probes whose bracket (spanned by V and the transpose of the V^T D
    that ``model_value`` formed) rules them out skip their eigensolve;
    the invariant report and the records equal, by ``repr``, those of a
    run in which every probe solves.  The probes that solve, counted
    through the name the tracer wraps, are pinned."""
    prob = build()
    calls = _counted_probe_eigensolves(monkeypatch)
    res = run(prob, cfg)
    solved = calls[0]
    monkeypatch.setattr(bundle, "_probe_cannot_move", lambda *args: False)
    calls[0] = 0
    full = run(prob, cfg)
    probes = 10 * full.stats.iterations
    assert calls[0] == probes
    assert repr(res.stats.invariants.as_dict()) == repr(full.stats.invariants.as_dict())
    assert [repr(r) for r in res.records] == [repr(r) for r in full.records]
    # most probes skip their eigensolve
    assert solved == want_solved


def test_probes_above_the_dense_order_all_solve(monkeypatch):
    prob = build_maxcut(gen_er_graph(401, 0.02, 0))
    assert prob.n > model._SPARSE_ABOVE_N
    calls = _counted_probe_eigensolves(monkeypatch)
    res = run(prob, SolverConfig(rbar=2, rho=1.0, max_iters=2, check_invariants=True))
    assert res.stats.iterations == 2
    assert calls[0] == 20


def test_run_compressed_storage_produces_factors():
    rng = np.random.default_rng(13)
    prob = rand_problem(rng, n=8, m=4)
    cfg = SolverConfig(rbar=2, max_iters=8, storage="compressed", sketch_rank=3)
    res = run(prob, cfg)
    assert isinstance(res.primal, LowRankFactors)
    dense = res.primal.dense()
    assert dense.shape == (8, 8)


@pytest.mark.parametrize("storage", ["explicit", "compressed"])
def test_run_primal_is_last_descent_record(storage):
    # one primal field for both storage modes: the last descent step's
    # record, reconstructed as factors when it is a sketch
    rng = np.random.default_rng(17)
    prob = rand_problem(rng, n=8, m=4)
    cfg = SolverConfig(variant="hr", rbar=2, max_iters=8, storage=storage,
                       sketch_rank=3 if storage == "compressed" else None)
    state, want = init_state(prob, cfg), None
    for _ in range(cfg.max_iters):
        state, rec, info = step(prob, cfg, state)
        if rec.descent:
            want = info.X_t
    assert want is not None
    res = run(prob, cfg)
    if storage == "explicit":
        assert res.primal.tobytes() == want.tobytes()
    else:
        assert isinstance(res.primal, LowRankFactors)
        want = sketch_reconstruct(want)
        for name in ("left", "weights", "right"):
            assert getattr(res.primal, name).tobytes() == getattr(want, name).tobytes()


# -- the Lanczos path (order above model._SPARSE_ABOVE_N) --------------------------

def _lanczos_problem():
    return build_maxcut(gen_er_graph(450, 0.02, 0))


def _write_lanczos_trace(path):
    """Trace of a 20-step compressed block solve on max-cut ER n=450."""
    cfg = SolverConfig(rbar=2, rho=1.0, max_iters=20, storage="compressed", sketch_rank=5)
    res = run(_lanczos_problem(), cfg)
    assert res.stats.warnings == []
    write_trace(str(path), res.records, cfg.rbar)


def test_lanczos_traces_are_deterministic(tmp_path):
    # the Lanczos start vector is fixed: two solves in this process and one
    # in a fresh process write the same bytes
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(bundle.__file__))
    script = (f"import sys; sys.path[:0] = [{src!r}, {here!r}]; "
              "from test_bundle import _write_lanczos_trace; "
              "_write_lanczos_trace(sys.argv[1])")
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "fresh.csv")],
                   check=True, timeout=600)
    for name in ("a.csv", "b.csv"):
        _write_lanczos_trace(tmp_path / name)
    want = (tmp_path / "fresh.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == want
    assert (tmp_path / "b.csv").read_bytes() == want


def test_invariant_diagnostics_build_no_dense_slack_above_the_threshold(monkeypatch):
    def refuse(self, C, y):
        raise AssertionError("dense slack built")
    monkeypatch.setattr(ConstraintMap, "slack", refuse)
    cfg = SolverConfig(rbar=2, rho=1.0, max_iters=5, storage="compressed",
                       sketch_rank=5, check_invariants=True)
    res = run(_lanczos_problem(), cfg)
    assert res.stats.iterations == 5 and res.stats.invariants.checked == 5


def test_maxcut_at_order_5000_runs_in_a_tenth_of_one_dense_matrix():
    # set-up and a 3-step compressed solve peaked at 11.2 MB, where one
    # n x n float64 array is 200 MB
    g = gen_er_graph(5000, 0.002, 0)
    tracemalloc.start()
    try:
        res = run(build_maxcut(g), SolverConfig(rbar=2, max_iters=3, storage="compressed",
                                                sketch_rank=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.stats.iterations == 3
    assert peak < 20e6


def test_dense_path_never_loads_scipy_sparse():
    src = os.path.dirname(os.path.dirname(bundle.__file__))
    script = (f"import sys; sys.path.insert(0, {src!r}); "
              "from specbundle import SolverConfig, run; "
              "from specbundle.bench import build_maxcut, gen_er_graph; "
              "run(build_maxcut(gen_er_graph(30, 0.2, 0)), SolverConfig(rbar=2, max_iters=5)); "
              "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], check=True, timeout=600,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("fault", ["no_convergence", "residual"])
def test_failed_lanczos_solve_is_redone_densely_with_a_warning(fault, monkeypatch):
    import scipy.sparse.linalg as spla

    eigsh = spla.eigsh

    def faulty(M, k, **kw):
        if fault == "no_convergence":
            raise spla.ArpackNoConvergence("ARPACK error -1: injected",
                                           np.zeros(0), np.zeros((M.shape[0], 0)))
        vals, vecs = eigsh(M, k, **kw)
        return vals + 1e-3, vecs          # Ritz values off by far more than the tolerance

    cfg = SolverConfig(rbar=2, rho=1.0, max_iters=4)
    with monkeypatch.context() as mp:
        mp.setattr(model, "_SPARSE_ABOVE_N", 10 ** 9)
        dense = run(_lanczos_problem(), cfg)     # built and solved dense
    monkeypatch.setattr(spla, "eigsh", faulty)
    res = run(_lanczos_problem(), cfg)
    notes = [w for w in res.stats.warnings if "redone densely" in w]
    assert [w.split(":")[0] for w in notes] == [f"iteration {t}" for t in range(5)]
    want = "ARPACK did not converge" if fault == "no_convergence" else "top Ritz residual"
    assert all(want in w for w in notes)
    for got, ref in zip(res.records, dense.records):
        assert abs(got.F_z - ref.F_z) <= 1e-12 * abs(ref.F_z)
        assert got.descent == ref.descent


def test_arpack_error_is_redone_densely_with_a_warning():
    # at y0 = 0 the slack is the zero matrix, which maps ARPACK's start
    # vector to zero (ARPACK error -9); the zero matrix's eigenbasis is not
    # unique, so the run is not compared with the dense one
    n = model._SPARSE_ABOVE_N + 1
    A = ConstraintMap.from_triples(n, [[(i, i, 1.0)] for i in range(n)])
    prob = SdpProblem(C=np.zeros((n, n)), A=A, b=np.ones(n), alpha=2.0 * n)
    res = run(prob, SolverConfig(rbar=2, max_iters=3))
    assert res.stats.iterations == 3
    assert any(w.startswith("iteration 0: ") and "ARPACK failed" in w and "redone densely" in w
               for w in res.stats.warnings)
