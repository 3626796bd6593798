"""The runner side of a cell and its split from the parent's references."""

import dataclasses
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparkbench import harness
from sparkbench.cells import measure, read_csr
from sparkbench.core import CsrMatrix
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


def _numpy_scipy_after_import(module):
    code = (f"import {module}, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    env = dict(os.environ, PYTHONPATH=os.fspath(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_runner_imports_neither_numpy_nor_scipy():
    assert _numpy_scipy_after_import("sparkbench._runner") == "[]"


def test_cli_imports_neither_numpy_nor_scipy():
    # gen and inspect need neither; the commands that do import harness
    assert _numpy_scipy_after_import("sparkbench.cli") == "[]"


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


@pytest.mark.parametrize("enabled", [True, False])
def test_measure_restores_the_callers_gc_state(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        measure("ASM", None, 0, 3)
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0
    finally:
        (gc.enable if was else gc.disable)()


def test_measure_leaves_nothing_frozen_when_run_raises(monkeypatch):
    def boom(state):
        assert gc.get_freeze_count() > 0
        raise RuntimeError("kernel failed")
    monkeypatch.setitem(BENCHMARKS, "ASM",
                        dataclasses.replace(BENCHMARKS["ASM"], run=boom))
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="kernel failed"):
        measure("ASM", None, 0, 3)
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, 1e-310]))


@st.composite
def csr_matrices(draw):
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(0, 6))
    row_ptr, col_ind = [0], []
    for _ in range(n_rows):
        cols = draw(st.lists(st.integers(0, max(n_cols - 1, 0)), unique=True,
                             max_size=n_cols)) if n_cols else []
        col_ind += sorted(cols)
        row_ptr.append(len(col_ind))
    values = draw(st.lists(_FLOATS, min_size=len(col_ind), max_size=len(col_ind)))
    return CsrMatrix(n_rows, n_cols, row_ptr, col_ind, values)


@settings(max_examples=150, deadline=None)
@given(m=csr_matrices())
@example(m=CsrMatrix(3, 2, [0, 2, 2, 3], [0, 1, 1], [-0.0, 5e-324, -1e-310]))
def test_raw_csr_round_trip(m, tmp_path_factory):
    d = tmp_path_factory.mktemp("csr")
    harness._write_matrix(m, d, "m")
    back = read_csr(d, "m")
    assert (back.n_rows, back.n_cols) == (m.n_rows, m.n_cols)
    assert back.row_ptr == m.row_ptr and back.col_ind == m.col_ind
    assert [v.hex() for v in back.values] == [v.hex() for v in m.values]
    assert all(type(v) is int for v in back.row_ptr + back.col_ind
               + [back.n_rows, back.n_cols])
    assert all(type(v) is float for v in back.values)


def test_no_cell_parses_matrix_market_text(tiny_data):
    with harness.prepare(["TRMAT", "PCG"], ["tiny"], tiny_data) as prep:
        (tiny_data / "tiny.mtx").unlink()
        for name in ("TRMAT", "PCG"):
            payload = run_cell_subprocess(name, "tiny", BenchConfig("base"),
                                          FAST, prep)
            assert payload["ok"], payload
