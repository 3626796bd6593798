"""The runner side of a cell and its split from the parent's references."""

import dataclasses
import dis
import gc
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from conftest import csr_matrices, other_interpreter
from sparkbench import arr_kernels, cells, core, harness, ptr_kernels
from sparkbench.cells import Cell, read_csr
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


def _loaded_after_import(module, roots=("numpy", "scipy")):
    """The modules in or under ``roots`` that importing ``module`` loads."""
    code = (f"import {module}, sys; print(sorted(m for m in sys.modules "
            f"if m in {roots!r} or m.split('.')[0] in {roots!r}))")
    env = dict(os.environ, PYTHONPATH=os.fspath(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_runner_imports_neither_numpy_nor_scipy():
    assert _loaded_after_import("sparkbench._runner") == "[]"
    # nor the dense reference code: references are the parent's business
    assert _loaded_after_import("sparkbench._runner", ("sparkbench.oracles",)) == "[]"
    # nor the parent's own modules
    assert _loaded_after_import(
        "sparkbench._runner", ("sparkbench.patterns", "sparkbench.harness")) == "[]"


def test_cli_imports_neither_numpy_nor_scipy():
    # only run and verify import harness, when they are called
    assert _loaded_after_import("sparkbench.cli") == "[]"
    # aggregate and report import results, which needs neither
    assert _loaded_after_import("sparkbench.results") == "[]"


def test_isolated_configurations_find_the_package(tiny_data, tmp_path, monkeypatch):
    # -I and -E ignore PYTHONPATH: the runner's command puts the package
    # on sys.path itself
    monkeypatch.delenv("PYTHONPATH", raising=False)
    configs = [BenchConfig("base"), BenchConfig("iso", "-I"), BenchConfig("noenv", "-E")]
    outcomes = run_suite(configs, ["TRMAT", "ASM"], ["tiny"], FAST, tiny_data,
                         tmp_path / "results")
    assert [(c, s) for c, _, _, s in outcomes] == [
        (c.id, "ok") for c in configs for _ in range(2)]


def test_other_interpreter_gates_without_numpy(tiny_data, tmp_path, monkeypatch):
    exe = other_interpreter(12)
    if exe is None:
        pytest.skip("no pyenv-managed CPython 3.12 to run cells under")
    # the child finds sparkbench only through the path the harness puts first
    monkeypatch.delenv("PYTHONPATH", raising=False)
    configs = [BenchConfig("base"), BenchConfig("py312", "", os.fspath(exe))]
    outcomes = run_suite(configs, ["TRMAT", "DSOLVE", "ASM"], ["tiny"], FAST,
                         tiny_data, tmp_path / "results")
    assert [(c, b, s) for c, b, _, s in outcomes if c == "py312"] == [
        ("py312", "TRMAT", "ok"), ("py312", "DSOLVE", "ok"), ("py312", "ASM", "ok")]


def test_dsolve_digest_is_the_same_in_a_subprocess(tiny_data):
    local = execute_cell("DSOLVE", "tiny", tiny_data, FAST)
    with harness.prepare(["DSOLVE"], ["tiny"], tiny_data) as prep:
        spawned = run_cell_subprocess("DSOLVE", "tiny", BenchConfig("base"),
                                      FAST, prep)
    assert spawned["checksums"] == local["checksums"]
    assert spawned["ref_checksums"] == local["ref_checksums"]


def test_run_suite_computes_each_reference_once(tiny_data, tmp_path, monkeypatch):
    log = tmp_path / "calls"
    for name, bench in list(BENCHMARKS.items()):
        def counted(op, _name=name, _ref=bench.reference):
            # with the process id, so a reference made elsewhere would show
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{_name} {os.getpid()}\n")
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
    calls = [line.split() for line in log.read_text(encoding="ascii").splitlines()]
    assert sorted(n for n, _ in calls) == sorted(["SPMATVEC", "DSOLVE", "MPERM"] * 2
                                                 + ["ASM"])
    assert {pid for _, pid in calls} == {str(os.getpid())}
    assert loads == ["tiny", "tiny2"]


def test_missing_matrix_fails_its_cells_only(tiny_data, tmp_path):
    root = tmp_path / "results"
    outcomes = run_suite([BenchConfig("base")], ["TRMAT", "ASM"], ["ghost"],
                         FAST, tiny_data, root)
    assert [(b, s) for _, b, _, s in outcomes] == [
        ("TRMAT", "failed: HarnessError"), ("ASM", "ok")]
    err = (root / "base" / "TRMAT__ghost.err").read_text()
    assert "not found" in err


@pytest.fixture()
def asm_cell():
    """ASM's cell on the input the parent hands over, not yet entered."""
    with harness.prepare(["ASM"], [], None) as prep:
        yield Cell(**prep.job("ASM", "none"))


@pytest.mark.parametrize("enabled", [True, False])
def test_measure_restores_the_callers_gc_state(enabled, asm_cell):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with asm_cell as cell:
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() > 0
            assert len(cell.run(3)) == 3
            cell.digest()
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0
    finally:
        (gc.enable if was else gc.disable)()


def test_measure_leaves_nothing_frozen_when_run_raises(monkeypatch, asm_cell):
    def boom(*args):
        assert gc.get_freeze_count() > 0
        raise RuntimeError("kernel failed")
    monkeypatch.setitem(BENCHMARKS, "ASM",
                        dataclasses.replace(BENCHMARKS["ASM"], run=boom))
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="kernel failed"):
        with asm_cell as cell:
            cell.run(3)
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_a_cell_whose_setup_raises_restores_the_collector(monkeypatch, asm_cell):
    def boom(*args):
        assert not gc.isenabled()
        raise RuntimeError("setup failed")
    monkeypatch.setitem(BENCHMARKS, "ASM",
                        dataclasses.replace(BENCHMARKS["ASM"], setup=boom))
    with pytest.raises(RuntimeError, match="setup failed"):
        with asm_cell:
            pass
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


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
            run_cell_subprocess(name, "tiny", BenchConfig("base"), FAST, prep)


def test_the_runner_returns_only_run_times_and_checksums(tiny_data):
    with harness.prepare(["TRMAT"], ["tiny"], tiny_data, [BenchConfig("base")]) as prep:
        proc = prep.runner(BenchConfig("base"))._proc
        proc.stdin.write(f"open {json.dumps(prep.job('TRMAT', 'tiny'))}\n"
                         "run 2\nrun 3\ndigest\n")
        proc.stdin.flush()
        replies = [json.loads(proc.stdout.readline()) for _ in range(4)]
    assert replies[0] == "ready"
    assert [len(r) for r in replies[1:3]] == [2, 3]
    assert all(type(s) is float for s in replies[1] + replies[2])
    assert replies[3].keys() == {"row_ptr", "col_ind", "values"}


# --- the default configurations are A/A controls -----------------------------

def _functions(code):
    """The code of every function under ``code``, keyed by where it starts;
    class bodies are walked, not returned."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield (const.co_firstlineno, const.co_name), const
            yield from _functions(const)


def _instructions(code):
    """``code``'s instructions without NOPs, jump targets and nested code
    objects' identity (only their names)."""
    jumps = set(dis.hasjrel) | set(dis.hasjabs)
    return [(ins.opname, None if ins.opcode in jumps
             else ins.argval.co_name if isinstance(ins.argval, types.CodeType)
             else ins.argval)
            for ins in dis.get_instructions(code)
            if ins.opname not in ("NOP", "EXTENDED_ARG")]


@pytest.mark.parametrize("module", [ptr_kernels, arr_kernels, core, cells],
                         ids=lambda module: module.__name__)
def test_opt1_and_opt2_compile_the_same_code_as_base(module):
    # no assert and no __debug__, so -O and -OO time base's bytecode: their
    # speedups over base are the noise floor, not results
    source = Path(module.__file__).read_text(encoding="utf-8")
    base, opt1, opt2 = (
        dict(_functions(compile(source, module.__file__, "exec", optimize=level)))
        for level in (0, 1, 2))
    assert base.keys() == opt1.keys() == opt2.keys() and base
    for where, code in base.items():
        assert opt1[where].co_code == code.co_code, where
        # -OO drops docstrings: a NOP is left where each was, shifting jumps
        assert _instructions(opt2[where]) == _instructions(code), where
