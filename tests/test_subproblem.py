"""Subproblem solver checks: projections against an enumeration oracle,
the width-1 solver against grid refinement, APG against both."""

import dataclasses
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from specbundle import linops, subproblem
from specbundle import (ConstraintMap, SdpProblem, SolverConfig, run,
                        project_simplex_hull, solve_inner_apg, solve_subproblem)
from specbundle.bench import build_maxcut, gen_er_graph, write_trace
from specbundle.model import model_value, zero_aggregate
from specbundle.subproblem import (InnerProblem, project_psd_simplex_hull,
                                   solve_inner_rank1)

from conftest import (grid_min_rank1, grid_min_rank2, project_hull_oracle,
                      rand_setup, symm)


# -- projection onto the nonnegative simplex hull ---------------------------

def test_project_hull_feasible_point_unchanged():
    v = np.array([0.2, 0.3])
    assert np.array_equal(project_simplex_hull(v), v)


def test_project_hull_all_negative_goes_to_origin():
    assert np.array_equal(project_simplex_hull(np.array([-1.0, -2.0])),
                          np.zeros(2))


def test_project_hull_frozen_case():
    got = project_simplex_hull(np.array([0.9, 0.8]))
    assert np.abs(got - np.array([0.55, 0.45])).max() <= 1e-12


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_project_hull_matches_enumeration(vals):
    v = np.array(vals, dtype=float)
    got = project_simplex_hull(v)
    want = project_hull_oracle(v)
    assert np.abs(got - want).max() <= 1e-10
    assert got.min() >= 0.0
    assert got.sum() <= 1.0 + 1e-12


def test_project_hull_random_scales():
    rng = np.random.default_rng(0)
    for _ in range(150):
        k = int(rng.integers(1, 9))
        v = rng.normal(size=k) * rng.choice([0.1, 1.0, 10.0])
        got = project_simplex_hull(v)
        want = project_hull_oracle(v)
        assert np.abs(got - want).max() <= 1e-10


# -- joint (eta, S) projection ----------------------------------------------

def test_psd_hull_projection_feasible_fixed_point():
    eta, S = project_psd_simplex_hull(0.3, np.diag([0.2, 0.1]))
    assert abs(eta - 0.3) <= 1e-14
    assert np.abs(S - np.diag([0.2, 0.1])).max() <= 1e-14


def test_psd_hull_projection_clips_negative_eigenvalue():
    eta, S = project_psd_simplex_hull(0.0, np.diag([0.5, -3.0]))
    assert eta == 0.0
    assert np.abs(S - np.diag([0.5, 0.0])).max() <= 1e-14


def test_psd_hull_projection_matches_spectral_oracle():
    rng = np.random.default_rng(1)
    for _ in range(80):
        p = int(rng.integers(1, 5))
        eta0 = float(rng.normal())
        S0 = symm(rng.normal(size=(p, p)) * rng.choice([0.3, 1.0, 3.0]))
        eta, S = project_psd_simplex_hull(eta0, S0)
        lam, Q = scipy.linalg.eigh(S0)
        x = project_hull_oracle(np.concatenate([[eta0], lam]))
        S_want = symm((Q * x[1:]) @ Q.T)
        assert abs(eta - x[0]) <= 1e-10
        assert np.abs(S - S_want).max() <= 1e-10


def test_psd_hull_projection_variational_inequality():
    # <x0 - P(x0), w - P(x0)> <= 0 for every feasible w
    rng = np.random.default_rng(2)
    for _ in range(40):
        p = int(rng.integers(1, 4))
        eta0 = float(rng.normal() * 2.0)
        S0 = symm(rng.normal(size=(p, p)) * 2.0)
        pe, pS = project_psd_simplex_hull(eta0, S0)
        for _ in range(10):
            B = rng.normal(size=(p, p))
            W = B @ B.T
            we = float(rng.uniform(0.0, 1.0))
            scale = rng.uniform(0.0, 1.0) / max(1.0, we + np.trace(W))
            we, W = we * scale, W * scale
            ip = (eta0 - pe) * (we - pe) + np.sum((S0 - pS) * (W - pS))
            assert ip <= 1e-10


def test_psd_hull_projection_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(40):
        p = int(rng.integers(1, 5))
        eta, S = project_psd_simplex_hull(float(rng.normal()),
                                          symm(rng.normal(size=(p, p))))
        eta2, S2 = project_psd_simplex_hull(eta, S)
        assert abs(eta2 - eta) <= 1e-10
        assert np.abs(S2 - S).max() <= 1e-10


# -- inner objective value and gradient -------------------------------------

def test_inner_value_at_origin():
    rng = np.random.default_rng(4)
    for _ in range(20):
        prob, agg, V, y, rho = rand_setup(rng)
        ip = InnerProblem.build(prob, agg, V, y, rho)
        want = float(prob.b @ y) + float(prob.b @ prob.b) / (2.0 * rho)
        got = ip.value(0.0, np.zeros((2, 2)))
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_inner_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(25):
        prob, agg, V, y, rho = rand_setup(rng)
        ip = InnerProblem.build(prob, agg, V, y, rho)
        eta = float(rng.uniform(0.0, 0.5))
        S = symm(rng.normal(size=(2, 2)))
        de, dS = ip.gradient(eta, S)
        delta = float(rng.normal())
        D = symm(rng.normal(size=(2, 2)))
        want = delta * de + float(np.sum(dS * D))
        got = (ip.value(eta + h * delta, S + h * D)
               - ip.value(eta - h * delta, S - h * D)) / (2.0 * h)
        assert abs(got - want) <= 1e-5 * (1.0 + abs(want))


def test_inner_value_quadratic_identity():
    # for a quadratic q: q(2x) - 2 q(x) + q(0) equals the Hessian form x'Hx,
    # here (1/rho) ||eta A(Xbar) + sum_k <T_k, S> e_k||^2
    rng = np.random.default_rng(6)
    for _ in range(25):
        prob, agg, V, y, rho = rand_setup(rng)
        ip = InnerProblem.build(prob, agg, V, y, rho)
        eta = float(rng.uniform(0.0, 1.0))
        S = symm(rng.normal(size=(2, 2)))
        L = eta * ip.AX + np.tensordot(ip.T, S, axes=([1, 2], [0, 1]))
        want = float(L @ L) / rho
        got = (ip.value(2 * eta, 2 * S) - 2 * ip.value(eta, S)
               + ip.value(0.0, np.zeros((2, 2))))
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


# -- width-1 exact solve -----------------------------------------------------

def _rank1_ip(y, rho, b, alpha, AX, c_eta, t, g2, const=0.0):
    m = len(b)
    return InnerProblem(y=np.asarray(y, float), rho=float(rho),
                        V=np.ones((2, 1)) / np.sqrt(2.0),
                        b=np.asarray(b, float), alpha=float(alpha),
                        AX=np.asarray(AX, float), c_eta=float(c_eta),
                        T=np.asarray(t, float).reshape(m, 1, 1),
                        VCV=np.zeros((1, 1)),
                        G2=np.array([[float(g2)]]), const=float(const))


def test_rank1_vertex_solution():
    # both partial slopes positive at the origin, so the corner wins
    ip = _rank1_ip(y=[0.0], rho=1.0, b=[0.0], alpha=2.0,
                   AX=[1.0], c_eta=3.0, t=[1.0], g2=4.0)
    eta, S, info = solve_inner_rank1(ip)
    assert eta == 0.0 and S[0, 0] == 0.0
    assert info.converged and info.iterations == 0


def test_rank1_interior_separable():
    # orthogonal AX and A(vv') decouple the two variables
    ip = _rank1_ip(y=[0.0, 0.0], rho=1.0, b=[0.3, 0.5], alpha=1.0,
                   AX=[1.0, 0.0], c_eta=0.1, t=[0.0, 1.0], g2=0.2)
    eta, S, _ = solve_inner_rank1(ip)
    assert abs(eta - 0.2) <= 1e-12
    assert abs(S[0, 0] - 0.3) <= 1e-12


def _rank1_degenerate_ips(rng):
    """Width-1 problems whose faces are singular or flat."""
    prob, agg, V, y, rho = rand_setup(rng, p=1, with_agg=False)
    yield InnerProblem.build(prob, agg, V, y, rho)          # A(Xbar) = 0
    AX = rng.normal(size=4)
    a = 3.0
    kw = dict(y=np.zeros(4), rho=1.3, b=4.0 * AX, alpha=a, AX=AX)
    yield _rank1_ip(**kw, c_eta=0.4, t=np.zeros(4), g2=-0.7)      # A(v v^T) = 0
    # A(Xbar) parallel to A(v v^T): the 2x2 face system is singular
    yield _rank1_ip(**kw, c_eta=0.4, t=-2.0 * AX, g2=-0.7)
    # A(Xbar) = alpha A(v v^T): no curvature along alpha*eta + s = alpha,
    # where the slope in eta is c_eta - alpha*g2
    g2 = -0.2
    for slope in (0.5, -0.5):
        yield _rank1_ip(**kw, c_eta=slope + a * g2, t=AX / a, g2=g2)


def test_rank1_matches_grid_refinement():
    rng = np.random.default_rng(7)
    random_ips = (InnerProblem.build(*rand_setup(rng, p=1)) for _ in range(25))
    for ip in (*random_ips, *_rank1_degenerate_ips(rng)):
        eta, S, _ = solve_inner_rank1(ip)
        f = ip.value(eta, S)
        f_grid, eta_g, s_g = grid_min_rank1(ip)
        assert f <= f_grid + 1e-8 * (1.0 + abs(f_grid))
        assert abs(f - f_grid) <= 1e-8 * (1.0 + abs(f_grid))


def test_rank1_rejects_wider_bundles():
    rng = np.random.default_rng(8)
    prob, agg, V, y, rho = rand_setup(rng, p=2)
    ip = InnerProblem.build(prob, agg, V, y, rho)
    with pytest.raises(ValueError):
        solve_inner_rank1(ip)


# -- accelerated projected gradient ------------------------------------------

def _quadratic_coefficients(ip):
    """(D, c) of the width-2 subproblem quadratic in the coordinates
    u = (eta, s11, s12, s22): const + c.u + ||b - D u||^2 / (2 rho)."""
    D = np.column_stack([ip.AX, ip.T[:, 0, 0], 2.0 * ip.T[:, 0, 1],
                         ip.T[:, 1, 1]])
    c = np.array([ip.c_eta, ip.G2[0, 0], 2.0 * ip.G2[0, 1], ip.G2[1, 1]])
    return D, c


def _unconstrained_minimizer(ip):
    """Normal-equations solve of the subproblem quadratic in the coordinates
    of ``_quadratic_coefficients``; returns None when any constraint is
    nearly active, so callers can skip non-interior draws."""
    D, c = _quadratic_coefficients(ip)
    H = D.T @ D
    if np.linalg.cond(H) > 1e10:
        return None
    u = np.linalg.solve(H, D.T @ ip.b - ip.rho * c)
    eta = u[0]
    S = np.array([[u[1], u[2]], [u[2], u[3]]])
    lam = scipy.linalg.eigvalsh(S)
    margin = 0.02
    if eta < margin or lam.min() < margin:
        return None
    if ip.alpha * eta + np.trace(S) > ip.alpha - margin:
        return None
    return eta, S


def test_apg_reaches_interior_optimum():
    # each problem is built around an interior point u: with m = 4
    # constraints D is square, and b = D u + rho D^{-T} c makes u the
    # stationary point of the quadratic; eta <= 0.4 and eig(S) <= 0.25 alpha
    # keep alpha eta + tr S <= 0.9 alpha, inside the trace cap
    rng = np.random.default_rng(9)
    found = 0
    while found < 8:
        prob, agg, V, y, rho = rand_setup(rng)
        D, c = _quadratic_coefficients(InnerProblem.build(prob, agg, V, y, rho))
        if np.linalg.cond(D) > 1e8:
            continue
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        S0 = (Q * rng.uniform(0.1, 0.25, size=2) * prob.alpha) @ Q.T
        u = np.array([rng.uniform(0.1, 0.4), S0[0, 0], S0[0, 1], S0[1, 1]])
        b = D @ u + rho * np.linalg.solve(D.T, c)
        ip = InnerProblem.build(dataclasses.replace(prob, b=b), agg, V, y, rho)
        opt = _unconstrained_minimizer(ip)
        if opt is None:
            continue
        found += 1
        eta_u, S_u = opt
        eta, S, info = solve_inner_apg(ip)
        assert info.converged
        f_u = ip.value(eta_u, S_u)
        f = ip.value(eta, S)
        assert abs(f - f_u) <= 1e-9 * (1.0 + abs(f_u))
        assert abs(eta - eta_u) <= 1e-6
        assert np.abs(S - S_u).max() <= 1e-6


def test_apg_agrees_with_rank1_closed_form():
    rng = np.random.default_rng(10)
    for _ in range(20):
        prob, agg, V, y, rho = rand_setup(rng, p=1)
        ip = InnerProblem.build(prob, agg, V, y, rho)
        eta_c, S_c, _ = solve_inner_rank1(ip)
        f_c = ip.value(eta_c, S_c)
        eta, S, info = solve_inner_apg(ip)
        assert info.converged
        f = ip.value(eta, S)
        assert abs(f - f_c) <= 1e-8 * (1.0 + abs(f_c))


def test_apg_agrees_with_grid_refinement():
    rng = np.random.default_rng(11)
    for _ in range(12):
        prob, agg, V, y, rho = rand_setup(rng)
        ip = InnerProblem.build(prob, agg, V, y, rho)
        eta, S, info = solve_inner_apg(ip)
        assert info.converged
        f = ip.value(eta, S)
        f_grid = grid_min_rank2(ip)
        assert abs(f - f_grid) <= 1e-6 * (1.0 + abs(f_grid))


def test_apg_warm_start_shortens_run():
    rng = np.random.default_rng(12)
    prob, agg, V, y, rho = rand_setup(rng)
    ip = InnerProblem.build(prob, agg, V, y, rho)
    eta, S, info_cold = solve_inner_apg(ip)
    assert info_cold.converged
    eta2, S2, info_warm = solve_inner_apg(ip, warm=(eta, S))
    assert info_warm.converged
    assert info_warm.iterations <= max(5, info_cold.iterations // 2)
    assert abs(ip.value(eta2, S2) - ip.value(eta, S)) <= 1e-9 * (
        1.0 + abs(ip.value(eta, S)))


def test_apg_iteration_cap_reports_unconverged():
    # pick a draw the deterministic cold start needs many iterations on
    rng = np.random.default_rng(13)
    while True:
        prob, agg, V, y, rho = rand_setup(rng)
        ip = InnerProblem.build(prob, agg, V, y, rho)
        _, _, info_full = solve_inner_apg(ip)
        if info_full.converged and info_full.iterations > 10:
            break
    _, _, info = solve_inner_apg(ip, max_iter=1)
    assert not info.converged
    assert info.iterations == 1


# -- full subproblem ----------------------------------------------------------

def test_subproblem_large_rho_pins_candidate():
    rng = np.random.default_rng(14)
    prob, agg, V, y, _ = rand_setup(rng)
    sol = solve_subproblem(prob, agg, V, y, rho=1e12)
    assert np.linalg.norm(sol.z - y) <= 1e-6


def test_subproblem_scalar_problem_matches_grid():
    amap = ConstraintMap.from_triples(1, [[(0, 0, 1.0)]])
    prob = SdpProblem(C=np.array([[-2.0]]), A=amap, b=np.array([1.0]),
                      alpha=4.0)
    agg = zero_aggregate(prob)
    V = np.array([[1.0]])
    y = np.array([0.7])
    sol = solve_subproblem(prob, agg, V, y, rho=1.3)
    f_grid, _, _ = grid_min_rank1(sol.ip)
    assert abs(sol.value - f_grid) <= 1e-9 * (1.0 + abs(f_grid))


def test_subproblem_candidate_identity_and_feasibility():
    rng = np.random.default_rng(15)
    for _ in range(30):
        prob, agg, V, y, rho = rand_setup(rng)
        sol = solve_subproblem(prob, agg, V, y, rho)
        # z = y + (b - A(X)) / rho holds by construction, to roundoff
        lhs = -prob.b + sol.AX + rho * (sol.z - y)
        assert np.abs(lhs).max() <= 1e-9 * (1.0 + np.abs(prob.b).max())
        # weights stay in the scaled hull
        assert sol.eta >= -1e-12
        assert scipy.linalg.eigvalsh(sol.S).min() >= -1e-8
        assert prob.alpha * sol.eta + np.trace(sol.S) <= prob.alpha + 1e-8


def test_subproblem_model_value_consistency():
    # the reported model value at z agrees with re-evaluating the model
    rng = np.random.default_rng(16)
    for _ in range(30):
        prob, agg, V, y, rho = rand_setup(rng)
        sol = solve_subproblem(prob, agg, V, y, rho)
        mv = model_value(prob, agg, V, sol.z)
        assert abs(mv - sol.model_at_z) <= 1e-7 * (1.0 + abs(mv))


def test_subproblem_width1_converged_flag_and_residual():
    rng = np.random.default_rng(17)
    prob, agg, V, y, rho = rand_setup(rng, p=1)
    sol = solve_subproblem(prob, agg, V, y, rho)
    assert sol.converged
    assert sol.residual <= 1e-7


# -- fast-path primitives against the library calls they replace ---------------
#
# The inner solver's results must not move by a bit (the outer trajectory
# amplifies last-bit changes), so each primitive is compared with
# np.array_equal against the library call it stands in for.  A numpy or
# scipy upgrade that changes eigh's workspace query or tensordot's internal
# product fails here first.

def _symmetric_cases(rng, p):
    """PSD, rank-deficient, repeated-eigenvalue and indefinite matrices."""
    B = rng.standard_normal((p, p))
    F = rng.standard_normal((p, max(p // 2, 1)))
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    lam = np.sort(rng.uniform(-1.0, 1.0, p))
    lam[:(p + 1) // 2] = lam[0]
    return [symm(B @ B.T), symm(F @ F.T), symm((Q * lam) @ Q.T), symm(B),
            np.zeros((p, p)), np.eye(p)]


def test_eigh_fast_path_bitwise_equals_scipy():
    rng = np.random.default_rng(30)
    linops._syevr_work.cache_clear()
    # widths 40 and 70 are past LAPACK's blocking crossover, where a
    # workspace size other than scipy's changes the bits
    for p in [*range(1, 9), 40, 70]:
        for _ in range(2):          # cold, then warm workspace cache
            for A in _symmetric_cases(rng, p):
                w, v = linops._eigh(A)
                w_ref, v_ref = scipy.linalg.eigh(A)
                assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
                assert v.flags.f_contiguous == v_ref.flags.f_contiguous


def test_contractions_bitwise_equal_tensordot():
    rng = np.random.default_rng(31)
    for p in range(1, 6):
        prob, agg, V, y, rho = rand_setup(rng, n=8, m=7, p=p)
        ip = InnerProblem.build(prob, agg, V, y, rho)
        G2_ref = symm(ip.VCV - np.tensordot(y, ip.T, axes=1))
        assert np.array_equal(ip.G2, G2_ref)
        S = symm(rng.standard_normal((p, p)))
        # C-ordered, Fortran-ordered and strided operands
        for Sx in (S, np.asfortranarray(S), np.kron(S, np.ones((2, 2)))[::2, ::2]):
            assert np.array_equal(ip.apply(Sx),
                                  np.tensordot(ip.T, Sx, axes=([1, 2], [0, 1])))
        r = rng.standard_normal(prob.m)
        assert np.array_equal(ip.adjoint(r), np.tensordot(r, ip.T, axes=1))


def test_face_solve_reuse_bitwise_equals_second_lstsq():
    rng = np.random.default_rng(32)
    for q in range(1, 12):
        D = rng.standard_normal((q + 3, q))
        H = D.T @ D / 0.7
        rhs = rng.standard_normal(q)
        solves, s_min = subproblem._face_solves(H, rhs)
        x_ref, _, _, s_ref = np.linalg.lstsq(H, rhs, rcond=None)
        assert len(solves) == 1
        assert np.array_equal(solves[0], x_ref)
        assert s_min == s_ref[-1] > 0.0
    # rank-deficient: the truncated and the exact solve are both kept
    D = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
    H = D.T @ D
    rhs = rng.standard_normal(4)
    (truncated, exact), s_min = subproblem._face_solves(H, rhs)
    assert s_min == 0.0
    assert np.array_equal(truncated, np.linalg.lstsq(H, rhs, rcond=1e-10)[0])
    assert np.array_equal(exact, np.linalg.lstsq(H, rhs, rcond=None)[0])


def _lstsq_systems(rng):
    """Square systems of order 1-30, a third of them rank-deficient."""
    for k in range(300):
        q = int(rng.integers(1, 31))
        r = int(rng.integers(0, q)) if k % 3 == 0 else q
        D = rng.standard_normal((q + 2, r)) @ rng.standard_normal((r, q))
        yield D.T @ D / 0.7, rng.standard_normal(q)


def test_lstsq_bitwise_equals_numpy():
    rng = np.random.default_rng(34)
    subproblem._gelsd_work.cache_clear()
    for H, rhs in _lstsq_systems(rng):
        for rcond in (1e-10, 1e-12, None):
            x, rank, s = subproblem._lstsq(H, rhs, rcond)
            x_ref, _, rank_ref, s_ref = np.linalg.lstsq(H, rhs, rcond=rcond)
            assert x.tobytes() == x_ref.tobytes()
            assert rank == rank_ref
            assert s.tobytes() == s_ref.tobytes()


def test_lstsq_non_finite_input():
    # a non-finite right-hand side gives NaNs, as np.linalg.lstsq does
    rhs = np.array([1.0, np.nan, 2.0])
    x = subproblem._lstsq(np.eye(3), rhs, None)[0]
    assert np.isnan(x).all() and np.isnan(np.linalg.lstsq(np.eye(3), rhs)[0]).all()
    # a non-finite matrix raises np.linalg.lstsq's error before LAPACK
    # sees it; on some of these np.linalg.lstsq itself never returns
    for bad in (np.nan, np.inf, -np.inf):
        H = np.eye(3)
        H[0, 1] = bad
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            subproblem._lstsq(H, np.ones(3), None)


def _face_polish_reference(ip, e, Ss):
    """The face ladder with every face's index data and columns built
    afresh and W symmetrized from its upper triangle."""
    a, p = ip.alpha, ip.width
    lam, Q = linops._eigh(symm(Ss))
    Qo = Q[:, np.argsort(lam)[::-1]]
    TFull = np.matmul(Qo.T, np.matmul(ip.T, Qo))
    G2Full = symm(Qo.T @ ip.G2 @ Qo)
    out = []
    for keep in range(p, -1, -1):
        for eta_free in (True, False) if e <= 0.5 else (True,):
            if keep == 0 and not eta_free:
                out.append((0.0, np.zeros((p, p))))
                continue
            iu, ju = np.triu_indices(keep)
            fac = np.where(iu == ju, 1.0, 2.0)
            cols, lin, tvec = [], [], []
            if eta_free:
                cols, lin, tvec = [ip.AX[:, None]], [[ip.c_eta]], [[a]]
            if keep:
                cols.append(TFull[:, iu, ju] * fac)
                lin.append(G2Full[iu, ju] * fac)
                tvec.append(np.where(iu == ju, 1.0, 0.0))
            D, lin, tvec = (np.concatenate(cols, axis=1), np.concatenate(lin),
                            np.concatenate(tvec))
            H, rhs = D.T @ D / ip.rho, D.T @ ip.b / ip.rho - lin
            q = H.shape[0]
            K = np.zeros((q + 1, q + 1))
            K[:q, :q], K[:q, q], K[q, :q] = H, tvec, tvec
            kkt = np.linalg.lstsq(K, np.concatenate([rhs, [a]]), rcond=1e-12)[0][:q]
            sols = [u for u in subproblem._face_solves(H, rhs)[0]
                    if float(np.abs(u).max(initial=0.0)) <= 1e10]
            for u in [*sols, kkt]:
                if not np.all(np.isfinite(u)):
                    continue
                W = np.zeros((keep, keep))
                W[iu, ju] = u[1:] if eta_free else u
                W = symm(W + np.triu(W, 1).T)
                U = Qo[:, :keep]
                S = (U @ W) @ U.T if keep else np.zeros((p, p))
                out.append(project_psd_simplex_hull(float(u[0]) if eta_free else 0.0, S / a))
    return out


def test_face_ladder_bitwise_equals_per_face_construction():
    rng = np.random.default_rng(33)
    for p in range(1, 7):
        prob, agg, V, y, rho = rand_setup(rng, n=9, m=8, p=p)
        ip = InnerProblem.build(prob, agg, V, y, rho)
        for e in (0.2, 0.8):
            F = rng.standard_normal((p, p))
            Ss = symm(F @ F.T)
            Ss *= (1.0 - e) / np.trace(Ss)
            got_e, got_S = subproblem._face_polish(ip, e, Ss)
            want = _face_polish_reference(ip, e, Ss)
            assert got_e.shape == (len(want),) and got_S.shape == (len(want), p, p)
            # bytes, not values: a zero's sign must match too
            for ge, gS, (we, wS) in zip(got_e, got_S, want):
                assert np.float64(ge).tobytes() == np.float64(we).tobytes()
                assert gS.tobytes() == wS.tobytes()


# -- value bounds and the pruned face ladder ---------------------------------
#
# With a cap f_cap the ladder stops each chain of faces at its first face
# whose value bound, less its margin, exceeds the cap.  The candidates it
# leaves out would all have scored above the cap, where ``try_polish``
# skips them, so the ones it keeps are the same, bit for bit.

def _bound_case(rng, q, m):
    """Data of one face-shaped quadratic const + lin.v + ||b - D v||^2 /
    (2 rho) under the cap tvec.v <= alpha: the scalars as an object that
    ``_value_bound`` reads, then D, lin, tvec, H and rhs."""
    ip = SimpleNamespace(b=rng.normal(size=m), const=float(rng.normal(0.0, 10.0)),
                         rho=float(rng.uniform(0.3, 3.0)), alpha=float(rng.uniform(0.5, 4.0)))
    D = rng.normal(size=(m, q)) * rng.uniform(0.1, 3.0, q)
    lin = rng.normal(size=q)
    tvec = rng.uniform(0.0, 2.0, q)
    H = D.T @ D / ip.rho
    return ip, D, lin, tvec, H, D.T @ ip.b / ip.rho - lin


def _capped_min(ip, D, lin, tvec, H, rhs):
    """The constrained minimizer, its multiplier and its value, in closed
    form: the free minimizer, or else the one on the cap."""
    v = np.linalg.solve(H, rhs)
    mu = 0.0
    if tvec @ v > ip.alpha:
        w = np.linalg.solve(H, tvec)
        mu = (tvec @ v - ip.alpha) / (tvec @ w)
        v = v - mu * w
    r = ip.b - D @ v
    return v, mu, ip.const + lin @ v + 0.5 / ip.rho * (r @ r)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_value_bound_holds_at_any_trial_point(seed):
    """The bound is below the capped minimum from any trial point and any
    multiplier >= 0, not only from a solve's, and meets it at the
    minimizer and its multiplier."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 8))
    ip, D, lin, tvec, H, rhs = _bound_case(rng, q, int(rng.integers(q, q + 10)))
    s_min = float(np.linalg.svd(H, compute_uv=False)[-1])
    v, mu, f_min = _capped_min(ip, D, lin, tvec, H, rhs)
    tight = subproblem._value_bound(ip, D, lin, H, rhs, tvec, v, mu, s_min)
    assert tight <= f_min
    assert tight >= f_min - 1e-6 * (1.0 + abs(f_min))
    for scale in (1e-6, 1e-2, 1.0, 30.0):
        u = v + scale * rng.normal(size=q)
        for m in (0.0, mu, float(rng.exponential(1.0))):
            assert subproblem._value_bound(ip, D, lin, H, rhs, tvec, u, m, s_min) <= f_min


def _face_outputs(ip, e, Ss, f_cap):
    """The ladder's candidates at (e, Ss) under ``f_cap`` and, in ladder
    order, each face it solved as a pair: whether eta is free on it, and
    what it returned (None when pruned)."""
    seen = []
    inner = subproblem._face_candidates

    def record(ip, U, DS, linS, eta_free, f_cap):
        seen.append((eta_free, inner(ip, U, DS, linS, eta_free, f_cap)))
        return seen[-1][1]
    subproblem._face_candidates = record
    try:
        E, S = subproblem._face_polish(ip, e, Ss, f_cap)
    finally:
        subproblem._face_candidates = inner
    return E, S, seen


def _random_ladder(seed):
    """(ip, e, Ss) of a random ladder: widths 1-5, and m from 2 (every
    face but the smallest rank-deficient) to 30."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 6))
    prob, agg, V, y, rho = rand_setup(rng, n=9, m=int(rng.choice([2, 4, 9, 30])), p=p)
    ip = InnerProblem.build(prob, agg, V, y, rho)
    e = float(rng.choice([0.0, 0.2, 0.45, 0.8]))
    F = rng.normal(size=(p, p)) * rng.uniform(0.0, 1.0, p)
    Ss = symm(F @ F.T)
    Ss *= (1.0 - e) * rng.uniform(0.5, 1.0) / max(np.trace(Ss), 1e-300)
    return ip, e, Ss


@pytest.fixture(scope="module")
def solve_ladders():
    """(ip, e, Ss) of every ladder that ``try_polish`` builds in a small
    block solve (max-cut ER n=30, rbar=3, 20 steps)."""
    ladders = []
    inner = subproblem._face_polish

    def record(ip, e, Ss, f_cap=None):
        ladders.append((ip, e, Ss))
        return inner(ip, e, Ss, f_cap)
    subproblem._face_polish = record
    try:
        run(build_maxcut(gen_er_graph(30, 0.2, 0)), SolverConfig(rbar=3, max_iters=20))
    finally:
        subproblem._face_polish = inner
    return ladders


def _check_bounds_below_candidates(ip, e, Ss):
    """With an infinite cap (every bound formed, nothing pruned) the
    ladder is the uncapped one, and every face's bound is at most the
    score of each of its projected candidates.  Returns the number of
    faces with a bound."""
    E, S, faces = _face_outputs(ip, e, Ss, np.inf)
    E0, S0 = subproblem._face_polish(ip, e, Ss)
    assert E.tobytes() == E0.tobytes() and S.tobytes() == S0.tobytes()
    bounded = 0
    for _, (face_e, face_S, bound) in faces:
        if bound == -np.inf:
            continue
        bounded += 1
        P_e, P_S = project_psd_simplex_hull(face_e, face_S)
        assert (subproblem._score(ip, P_e, P_S, -np.inf)[0] >= bound).all()
    return bounded


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_face_bounds_are_below_every_candidate_score(seed):
    _check_bounds_below_candidates(*_random_ladder(seed))


def test_face_bounds_are_below_every_candidate_score_on_solve_ladders(solve_ladders):
    """Near a solve's iterates a face's own minimizer is often feasible and
    scores within a few ulps of its bound, so this is where a margin that
    is too thin shows."""
    bounded = sum(_check_bounds_below_candidates(*ladder) for ladder in solve_ladders)
    assert bounded > 500


def _kept(ip, E, S, f_cap):
    """The bytes of the candidates that score at most ``f_cap``, in order,
    and of their scores and residuals: what ``try_polish`` reads."""
    F, R = subproblem._score(ip, E, S, f_cap)
    low = ~(F > f_cap)
    return E[low].tobytes(), S[low].tobytes(), F[low].tobytes(), R[low].tobytes()


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_pruned_ladder_keeps_every_candidate_at_or_below_the_cap(seed):
    """At every cap from below the lowest candidate score to above the
    highest, the pruned ladder keeps, bit for bit and in order, each
    candidate of the full ladder that scores at most the cap."""
    ip, e, Ss = _random_ladder(seed)
    E0, S0 = subproblem._face_polish(ip, e, Ss)
    F0 = subproblem._score(ip, E0, S0, -np.inf)[0]
    for f_cap in [F0.min() - 1.0, *np.unique(F0).tolist(), F0.max() + 1.0]:
        E, S, faces = _face_outputs(ip, e, Ss, f_cap)
        _check_chains_stop(faces)
        assert _kept(ip, E, S, f_cap) == _kept(ip, E0, S0, f_cap)


def _check_chains_stop(faces):
    """No face is solved after a pruned eta-free face, and no eta-clamped
    face after a pruned eta-clamped one.  Returns the pruned count."""
    stopped = {True: False, False: False}
    for eta_free, out in faces:
        assert not stopped[True] and not stopped[eta_free]
        stopped[eta_free] = out is None
    return sum(out is None for _, out in faces)


def test_pruned_ladders_of_a_solve_keep_their_candidates(solve_ladders):
    """The same on a solve's ladders, at each of a ladder's candidates'
    scores; and each pruned face stops its chains."""
    pruned = 0
    for ip, e, Ss in solve_ladders[::4]:
        E0, S0 = subproblem._face_polish(ip, e, Ss)
        F0 = subproblem._score(ip, E0, S0, -np.inf)[0]
        for f_cap in np.unique(F0).tolist():
            E, S, faces = _face_outputs(ip, e, Ss, f_cap)
            pruned += _check_chains_stop(faces)
            assert _kept(ip, E, S, f_cap) == _kept(ip, E0, S0, f_cap)
    assert pruned > 100


def _counted_faces(monkeypatch):
    """Route the ladder's face solves through a counter; returns the
    two-element list [faces solved, faces pruned] it counts in."""
    counts = [0, 0]
    inner = subproblem._face_candidates

    def counted(*args):
        out = inner(*args)
        counts[0] += 1
        counts[1] += out is None
        return out
    monkeypatch.setattr(subproblem, "_face_candidates", counted)
    return counts


def _unpruned(monkeypatch):
    """Turn pruning off: the ladder drops the cap it is given."""
    inner = subproblem._face_polish
    monkeypatch.setattr(subproblem, "_face_polish",
                        lambda ip, e, Ss, f_cap=None: inner(ip, e, Ss))


def test_fixed_solve_prunes_a_pinned_share_of_faces(monkeypatch):
    """Max-cut ER n=30 at rbar=3, a seed-trace run: its ladders solve 818
    of the 1,395 faces that the full ladders solve, and 321 of the 818
    settle by their bounds; the records keep their bits."""
    prob = build_maxcut(gen_er_graph(30, 0.2, 0))
    cfg = SolverConfig(variant="block", rbar=3, max_iters=60, inner_max_iter=60)
    counts = _counted_faces(monkeypatch)
    res = run(prob, cfg)
    solved, pruned = counts
    _unpruned(monkeypatch)
    counts[:] = [0, 0]
    full = run(prob, cfg)
    assert [repr(r) for r in res.records] == [repr(r) for r in full.records]
    assert counts[1] == 0
    assert 0.55 * counts[0] < solved < 0.62 * counts[0]
    assert 0.2 * counts[0] < pruned < 0.25 * counts[0]


def test_rotated_stack_bitwise_equals_stacked_matmul():
    """``_rotated``'s two GEMMs give the stacked ``Q^T T_k Q`` of the form
    ``_face_polish`` replaced, 2m stacked p x p products, bit for bit on
    2,000 random draws (p = 1..8, m up to 6,600)."""
    rng = np.random.default_rng(37)
    for k in range(2000):
        p = k % 8 + 1
        m = int(rng.choice([1, 2, 7, 50, 200, 1000, 6600]))
        A = rng.normal(size=(m, p, p))
        T = A + A.transpose(0, 2, 1)
        if k % 3 == 0:              # zero rows and columns, as sparse maps give
            zero = rng.random(p) < 0.3
            T[:, zero] = T[:, :, zero] = 0.0
        lam, Q = linops._eigh(symm(rng.normal(size=(p, p))))
        Qo = Q[:, np.argsort(lam)[::-1]]         # as _face_polish orders it
        want = np.matmul(Qo.T, np.matmul(T, Qo))
        assert subproblem._rotated(T, Qo).tobytes() == want.tobytes()


def _hull_oracle(v):
    """The simplex-hull projection of one vector, as it was written before
    the projections took stacks."""
    w = np.maximum(v, 0.0)
    if w.sum() <= 1.0:
        return w
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    k = np.nonzero(u - shifted / np.arange(1, v.size + 1) > 0.0)[0][-1]
    return np.maximum(v - shifted[k] / (k + 1), 0.0)


def _psd_hull_oracle(eta0, S0):
    """The (eta, S) projection of one pair, written per matrix."""
    lam, Q = linops._eigh(symm(S0))
    x = _hull_oracle(np.concatenate([[float(eta0)], lam]))
    return float(x[0]), symm((Q * x[1:]) @ Q.T)


def _projection_stacks(rng):
    """Stacks with ties, signed zeros, and rows on both sides of the cap."""
    for k in range(2000):
        p, c = k % 8 + 1, int(rng.integers(1, 10))
        E = rng.normal(size=c) * rng.choice([0.01, 0.3, 1.0, 3.0])
        S = rng.normal(size=(c, p, p)) * rng.choice([0.01, 0.1, 0.3, 1.0, 3.0])
        if k % 5 == 0:       # ties among eigenvalues and with eta
            E, S = np.round(E, 1), np.round(S, 1)
        if k % 7 == 0:
            E[0], S[0] = -0.0, -0.0
        if k % 11 == 0:
            S[:, 0, 0] = -0.0
        yield E, S


def test_stacked_projection_bitwise_equals_per_matrix_oracle():
    rng = np.random.default_rng(35)
    rows = {True: 0, False: 0}
    for E, S in _projection_stacks(rng):
        got_e, got_S = project_psd_simplex_hull(E, S)
        assert got_e.shape == E.shape and got_S.shape == S.shape
        for i in range(len(E)):
            want_e, want_S = _psd_hull_oracle(E[i], S[i])
            rows[bool(want_e + np.trace(want_S) < 1.0 - 1e-9)] += 1
            assert np.float64(got_e[i]).tobytes() == np.float64(want_e).tobytes()
            assert got_S[i].tobytes() == want_S.tobytes()
        one_e, one_S = project_psd_simplex_hull(E[0], S[0])
        assert np.float64(one_e).tobytes() == np.float64(got_e[0]).tobytes()
        assert one_S.tobytes() == got_S[0].tobytes()
        v = np.concatenate([E[:1], S[0, 0]])
        assert project_simplex_hull(v).tobytes() == _hull_oracle(v).tobytes()
    # both branches of the simplex step were exercised
    assert min(rows.values()) > 1000


def test_stacked_scores_bitwise_equal_single_point():
    """``_score`` uses only stacked forms that reproduce the single-point
    operations.  On 2,000 random draws (p = 1..8, m up to 200, more than
    this test makes) these matched every time: ``np.matmul(T2, S.reshape(c, p*p, 1))``,
    ``np.matmul(R[:, None, :], AX[:, None])``, ``np.matmul(R[:, None, :],
    R[:, :, None])``, ``np.matmul(R[:, None, :], T2)``, ``sum(axis=(1, 2))``,
    ``cumsum(axis=1)`` and stacked p x p ``matmul``.  These did not:
    ``T2 @ S.T`` (gemm), ``R @ AX`` (gemv), ``einsum('ij,ij->i', R, R)`` and
    numpy's batched ``eigh`` (syevd).  The scalar square stays a Python
    ``**``, whose ``pow`` can round differently from ``x * x``."""
    rng = np.random.default_rng(36)
    for k in range(300):
        p = k % 6 + 1
        prob, agg, V, y, rho = rand_setup(rng, n=9, m=8, p=p)
        ip = InnerProblem.build(prob, agg, V, y, rho)
        c = int(rng.integers(1, 12))
        E, S = project_psd_simplex_hull(rng.uniform(-0.5, 1.0, c),
                                        rng.normal(size=(c, p, p)))
        f = [ip.value(e, ip.alpha * s) for e, s in zip(E.tolist(), S)]
        f_cap = float(np.median(f))
        F, R = subproblem._score(ip, E, S, f_cap)
        assert F.tobytes() == np.array(f).tobytes()
        for e, s, fe, re in zip(E.tolist(), S, f, R):
            if fe > f_cap:
                assert np.isnan(re)
            else:
                want = subproblem._stationarity_residual(ip, e, s)
                assert np.float64(re).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("project, args", [
    (project_simplex_hull, ([np.nan, 0.5],)),
    (project_simplex_hull, ([np.inf, 0.2],)),
    (project_psd_simplex_hull, (np.nan, np.eye(2))),
    (project_psd_simplex_hull, (np.array([0.1, np.inf]), np.zeros((2, 2, 2)))),
])
def test_hull_projection_rejects_non_finite_vector_entries(project, args):
    with pytest.raises(ValueError, match="infs or NaNs"):
        project(*args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hull_projection_rejects_non_finite(bad):
    S = np.eye(3)
    S[1, 2] = S[2, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        project_psd_simplex_hull(0.2, S)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_subproblem_rejects_non_finite(p, bad):
    rng = np.random.default_rng(33)
    prob, agg, V, y, rho = rand_setup(rng, p=p)
    y = y.copy()
    y[0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_subproblem(prob, agg, V, y, rho)


def _write_traces(out_dir):
    """Traces of a small max-cut solve with block and with hr."""
    prob = build_maxcut(gen_er_graph(40, 0.15, 3))
    for variant in ("block", "hr"):
        res = run(prob, SolverConfig(variant=variant, rbar=4, rho=0.5, max_iters=25))
        write_trace(os.path.join(out_dir, f"{variant}.csv"), res.records, 4)


def test_traces_do_not_depend_on_workspace_cache_state(tmp_path):
    # a fresh process starts with an empty dsyevr workspace cache; this
    # one has it filled by the first in-process run at the latest
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(subproblem.__file__))
    script = (f"import sys; sys.path[:0] = [{src!r}, {here!r}]; "
              "from test_subproblem import _write_traces; _write_traces(sys.argv[1])")
    subprocess.run([sys.executable, "-c", script, str(cold)], check=True, timeout=600)
    for _ in range(2):
        _write_traces(str(warm))
        assert linops._syevr_work.cache_info().currsize > 0
        for variant in ("block", "hr"):
            assert ((cold / f"{variant}.csv").read_bytes()
                    == (warm / f"{variant}.csv").read_bytes())


def test_subproblem_of_a_1d_basis_is_that_of_its_column():
    """A 1-d basis goes through ``InnerProblem.build`` as one column."""
    rng = np.random.default_rng(44)
    prob, agg, V, y, rho = rand_setup(rng, n=7, m=5, p=1)
    got = solve_subproblem(prob, agg, V[:, 0].copy(), y, rho)
    want = solve_subproblem(prob, agg, V, y, rho)
    assert got.ip.V.shape == (7, 1)
    for name in ("eta", "S", "z", "AX", "CX", "tr", "value", "model_at_z", "residual"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()


def test_lapack_failures_in_the_face_solves_raise(monkeypatch):
    """A failed dgelsd, or a failed workspace query for it, raises with its
    own message."""
    subproblem._gelsd_work.cache_clear()
    monkeypatch.setattr(subproblem, "dgelsd_lwork", lambda *args: (1, 1, -4))
    with pytest.raises(ValueError, match=r"^dgelsd workspace query failed: -4$"):
        subproblem._lstsq(np.eye(3), np.ones(3), None)
    monkeypatch.undo()
    subproblem._gelsd_work.cache_clear()
    monkeypatch.setattr(subproblem, "dgelsd",
                        lambda H, rhs, *args: (rhs.copy(), np.ones(len(rhs)), len(rhs), 2))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^SVD did not converge in Linear Least Squares$"):
        subproblem._lstsq(np.eye(3), np.ones(3), None)
