"""The digest manifest of ``tools/seed_traces.py`` on directories of fake
files: no solve runs here."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load():
    """Import the script, then undo what its import does to this process's
    environment and path (it pins BLAS threads and puts src/ and perfbench/
    first, as a script run needs)."""
    env = {k: os.environ.get(k) for k in _BLAS_VARS}
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "seed_traces", Path(__file__).resolve().parent.parent / "tools" / "seed_traces.py")
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = path
        for k, v in env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return mod


seed_traces = _load()

ENV = {"numpy": "1.0", "scipy": "1.0", "blas": "fake 0.1", "openblas_cores": {"lib.so": "Core"}}


@pytest.fixture
def outdir(tmp_path):
    out = tmp_path / "out"
    (out / "small").mkdir(parents=True)
    (out / "a.csv").write_text("t,F_y\n1,2.5\n")
    (out / "a.json").write_text('{"x": 1}\n')
    (out / "small" / "b.csv").write_text("t,F_y\n1,3.5\n")
    return out


def test_written_manifest_matches_its_own_files(outdir, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    seed_traces.write_manifest(outdir, manifest, ENV)
    data = json.loads(manifest.read_text())
    assert data["environment"] == ENV
    assert sorted(data["files"]) == ["a.csv", "a.json", "small/b.csv"]
    assert all(len(h) == 64 for h in data["files"].values())
    assert seed_traces.check_manifest(outdir, manifest, ENV) == 0
    assert capsys.readouterr().out == f"3 files, 0 not as in {manifest}\n"


def test_check_names_each_changed_missing_and_extra_file(outdir, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    seed_traces.write_manifest(outdir, manifest, ENV)
    (outdir / "a.csv").write_text("t,F_y\n1,2.5000000000000004\n")   # one ulp
    (outdir / "small" / "b.csv").unlink()
    (outdir / "small" / "c.json").write_text("{}\n")
    assert seed_traces.check_manifest(outdir, manifest, ENV) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["differs: a.csv", "missing: small/b.csv", "extra: small/c.json"]
    assert lines[3] == f"3 files, 3 not as in {manifest}"


def test_check_refuses_another_environment(outdir, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    seed_traces.write_manifest(outdir, manifest, ENV)
    (outdir / "a.csv").write_text("changed\n")
    other = {**ENV, "openblas_cores": {"lib.so": "Haswell"}}
    assert seed_traces.check_manifest(outdir, manifest, other) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "environment differs" in captured.err and "Haswell" in captured.err


def test_environment_names_the_libraries_and_their_cores():
    env = seed_traces.environment()
    assert sorted(env) == ["blas", "numpy", "openblas_cores", "scipy"]
    assert all(isinstance(core, str) and core for core in env["openblas_cores"].values())


def test_committed_manifest_lists_every_seed_trace():
    manifest = Path(__file__).resolve().parent.parent / "tools" / "seed_traces.manifest.json"
    files = json.loads(manifest.read_text())["files"]
    assert len(files) == 66
    assert sum(k.startswith("small/") for k in files) == 32
    assert sum(k.startswith("lanczos/") for k in files) == 2


def test_main_refuses_another_environment_before_solving(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"environment": ENV, "files": {}}))
    out = tmp_path / "out"
    assert seed_traces.main([str(out), "--check", str(manifest)]) == 2
    assert not out.exists()
    assert "environment differs" in capsys.readouterr().err
