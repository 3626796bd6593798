"""The runner side of a cell and its split from the parent's references."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparkbench import harness
from sparkbench.harness import (
    BENCHMARKS,
    BenchConfig,
    TimingPolicy,
    execute_cell,
    run_cell_subprocess,
    run_suite,
)
from sparkbench.matio import gen_spd, matrix_path, write_matrix_market

FAST = TimingPolicy(warmup_runs=0, measured_runs=3, aggregator="min")
SRC = Path(harness.__file__).resolve().parent.parent


@pytest.fixture()
def tiny_data(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    write_matrix_market(matrix_path(data, "tiny"), gen_spd(40, seed=21),
                        symmetry="symmetric")
    return data


def _other_interpreter(minor):
    """A pyenv-managed CPython 3.<minor> that is not this interpreter."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    for exe in sorted(root.glob(f"3.{minor}.*/bin/python")):
        if exe.is_file() and exe.resolve() != Path(sys.executable).resolve():
            return exe
    return None


def test_runner_imports_neither_numpy_nor_scipy():
    code = ("import sparkbench._runner, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    env = dict(os.environ, PYTHONPATH=os.fspath(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_runner_env_puts_the_package_first(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["/a", "/b"]))
    assert harness._runner_env()["PYTHONPATH"].split(os.pathsep) == [
        os.fspath(SRC), "/a", "/b"]
    monkeypatch.delenv("PYTHONPATH")
    assert harness._runner_env()["PYTHONPATH"] == os.fspath(SRC)


def test_other_interpreter_gates_without_numpy(tiny_data, tmp_path, monkeypatch):
    exe = _other_interpreter(12)
    if exe is None:
        pytest.skip("no pyenv-managed CPython 3.12 to run cells under")
    # the child finds sparkbench only through the PYTHONPATH the harness sets
    monkeypatch.delenv("PYTHONPATH", raising=False)
    configs = [BenchConfig("base"), BenchConfig("py312", "", os.fspath(exe))]
    outcomes = run_suite(configs, ["TRMAT", "DSOLVE", "ASM"], ["tiny"], FAST,
                         tiny_data, tmp_path / "results")
    assert [(c, b, s) for c, b, _, s in outcomes if c == "py312"] == [
        ("py312", "TRMAT", "ok"), ("py312", "DSOLVE", "ok"), ("py312", "ASM", "ok")]


def test_dsolve_digest_is_the_same_in_a_subprocess(tiny_data):
    local = execute_cell("DSOLVE", "tiny", tiny_data, FAST)
    spawned = run_cell_subprocess("DSOLVE", "tiny", BenchConfig("base"), FAST,
                                  tiny_data)
    assert local["ok"] and spawned["ok"]
    assert spawned["checksums"] == local["checksums"]
    assert spawned["ref_checksums"] == local["ref_checksums"]


def test_run_suite_computes_each_reference_once(tiny_data, tmp_path, monkeypatch):
    calls = []
    for name, bench in list(BENCHMARKS.items()):
        def counted(op, _name=name, _ref=bench.reference):
            calls.append(_name)
            return _ref(op)
        monkeypatch.setitem(BENCHMARKS, name,
                            dataclasses.replace(bench, reference=counted))
    write_matrix_market(matrix_path(tiny_data, "tiny2"), gen_spd(30, seed=5),
                        symmetry="symmetric")
    loads = []
    load = harness.load_matrix
    monkeypatch.setattr(harness, "load_matrix",
                        lambda d, n: loads.append(n) or load(d, n))
    outcomes = run_suite([BenchConfig("base"), BenchConfig("opt1", "-O")],
                         ["SPMATVEC", "DSOLVE", "ASM", "MPERM"], ["tiny", "tiny2"],
                         FAST, tiny_data, tmp_path / "results")
    assert len(outcomes) == 14
    assert all(s == "ok" for *_, s in outcomes), outcomes
    assert sorted(calls) == sorted(["SPMATVEC", "DSOLVE", "MPERM"] * 2 + ["ASM"])
    assert loads == ["tiny", "tiny2"]


def test_missing_matrix_fails_its_cells_only(tiny_data, tmp_path):
    root = tmp_path / "results"
    outcomes = run_suite([BenchConfig("base")], ["TRMAT", "ASM"], ["ghost"],
                         FAST, tiny_data, root)
    assert [(b, s) for _, b, _, s in outcomes] == [
        ("TRMAT", "failed: HarnessError"), ("ASM", "ok")]
    err = (root / "base" / "TRMAT__ghost.err").read_text()
    assert "not found" in err
