"""Each kernel's access patterns and family, counted from its code."""

import dataclasses
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import other_interpreter
from sparkbench import patterns, ptr_kernels, results
from sparkbench.cells import BENCHMARKS
from sparkbench.core import CsrMatrix, csr_to_linked

ROOT = Path(__file__).resolve().parent.parent

# benchmark: (family, walks, indirect, depth, loaded_bounds, ifs)
TABLE = {
    "SPMATVEC": ("pointer", 1, 1, 1, 0, 0),
    "SPMATMAT": ("pointer", 1, 1, 1, 0, 0),
    "JACIT": ("pointer", 2, 2, 1, 0, 0),
    "DSOLVE": ("pointer", 2, 4, 1, 0, 0),
    "PCG": ("pointer", 2, 1, 1, 0, 1),
    "ASM": ("array", 0, 6, 2, 0, 0),
    "TRMAT": ("array", 0, 5, 2, 1, 0),
    "CMCK": ("array", 0, 6, 1, 1, 2),
    "MPERM": ("array", 0, 6, 3, 1, 0),
}


def rows(table):
    return {name: tuple(row[c] for c in patterns.COLUMNS) for name, row in table.items()}


def test_the_table_is_pinned():
    assert rows(patterns.table()) == TABLE


def test_a_kernel_is_a_pointer_kernel_exactly_when_it_walks_a_chain():
    for name, row in patterns.table().items():
        assert (row["family"] == "pointer") == (row["walks"] > 0), name
        assert BENCHMARKS[name].family == row["family"], name


def run_python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True)


def test_results_alone_derives_each_family_without_harness_or_numpy():
    out = run_python(
        "import json, sys\n"
        "from sparkbench import results\n"
        "families = {n: b.family for n, b in results.BENCHMARKS.items()}\n"
        "loaded = [m for m in ('sparkbench.harness', 'numpy') if m in sys.modules]\n"
        "print(json.dumps([families, loaded]))\n")
    assert out.returncode == 0, out.stderr
    families, loaded = json.loads(out.stdout)
    assert families == {name: row["family"] for name, row in patterns.table().items()}
    assert loaded == []


# the command line under an ``inspect`` that refuses to hand out source
NO_SOURCE = """\
import inspect, runpy
def refuse(fn):
    raise AssertionError(f"read the source of {fn.__qualname__}")
inspect.getsource = refuse
runpy.run_module("sparkbench.cli", run_name="__main__")
"""


def test_aggregate_reads_no_kernel_source(tmp_path):
    for cid, seconds in [("base", 0.5), ("opt1", 0.25)]:
        results.write_time_file(results.time_file_path(tmp_path, cid, "SPMATVEC", "tiny"), {
            "benchmark": "SPMATVEC", "matrix": "tiny", "config": cid, "seconds": seconds,
            "aggregator": "median", "warmup_runs": 0, "measured_runs": 3,
            "runs": [seconds] * 3, "checksums": {"y": 1.0}, "ref_checksums": {"y": 1.0}})
    dat = tmp_path / "spark.dat"
    agg = run_python(NO_SOURCE, "aggregate", "--results-dir", tmp_path, "--out", dat)
    assert agg.returncode == 0, agg.stderr
    assert dat.read_text() == ("base SPMATVEC tiny 0.500000 0.500000\n"
                               "opt1 SPMATVEC tiny 0.500000 0.250000\n")
    # report does read it, for the chart's families and patterns.csv
    rep = run_python(NO_SOURCE, "report", "--spark-dat", dat, "--out-dir", tmp_path)
    assert rep.returncode != 0
    assert "AssertionError: read the source of " in rep.stderr


def test_a_process_walks_each_kernel_once(tmp_path):
    dat = tmp_path / "spark.dat"
    dat.write_text("base SPMATVEC tiny 0.5 0.5\nopt1 SPMATVEC tiny 0.5 0.25\n"
                   "base ASM none 0.5 0.5\nopt1 ASM none 0.5 0.4\n")
    # what importing harness, reading every family and a report walk, against
    # what one table walks from a cleared cache
    out = run_python(
        "import inspect, json, sys\n"
        "walked, getsource = [], inspect.getsource\n"
        "def counting(fn):\n"
        "    walked.append(f'{fn.__module__}.{fn.__qualname__}')\n"
        "    return getsource(fn)\n"
        "inspect.getsource = counting\n"
        "from sparkbench import harness, patterns\n"
        "[b.family for b in harness.BENCHMARKS.values()]\n"
        "harness.report(sys.argv[1], sys.argv[2])\n"
        "process = list(walked)\n"
        "walked.clear()\n"
        "patterns._row.cache_clear()\n"
        "patterns.table()\n"
        "print(json.dumps([process, walked]))\n", dat, tmp_path / "report")
    assert out.returncode == 0, out.stderr
    process, once = json.loads(out.stdout)
    assert "sparkbench.ptr_kernels.spmatvec" in once
    assert process == once
    assert (tmp_path / "report" / "tiny.svg").exists()


def test_the_table_counts_the_unwrapped_run():
    def wrapper(*args):
        return ptr_kernels.spmatvec(*args)
    wrapper.__wrapped__ = ptr_kernels.spmatvec
    bench = dataclasses.replace(BENCHMARKS["SPMATVEC"], run=wrapper)
    assert rows(patterns.table({"SPMATVEC": bench})) == {"SPMATVEC": TABLE["SPMATVEC"]}


WALK = """\
        e = first[row]
        acc = 0.0
        while e is not None:
            acc += e.value * right[e.col]
            e = e.next_in_row
"""
INDEX_LOOP = """\
        chain = list(left.row_elements(row))
        acc = 0.0
        for k in range(len(chain)):
            acc += chain[k].value * right[chain[k].col]
"""


def test_an_index_loop_in_place_of_spmatvecs_walk_changes_its_row(tmp_path, monkeypatch):
    source = inspect.getsource(ptr_kernels)
    assert source.count(WALK) == 1
    path = tmp_path / "mutant.py"
    path.write_text(source.replace(WALK, INDEX_LOOP))
    spec = importlib.util.spec_from_file_location("sparkbench.mutant", path)
    mutant = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mutant)
    spec.loader.exec_module(mutant)
    # the same product, without a chain walk of its own
    m = CsrMatrix.from_triples(3, 3, [(0, 0, 2.0), (0, 2, 1.0), (2, 1, -1.5)])
    x = [1.0, 2.0, 3.0]
    assert mutant.spmatvec(csr_to_linked(m), x) == ptr_kernels.spmatvec(csr_to_linked(m), x)
    bench = dataclasses.replace(BENCHMARKS["SPMATVEC"], run=mutant.spmatvec)
    assert rows(patterns.table({"SPMATVEC": bench})) == {
        "SPMATVEC": ("array", 0, 1, 1, 0, 0)}


@pytest.mark.parametrize("minor", [10, 12, 13])
def test_the_table_is_the_same_under_other_interpreters(minor):
    exe = other_interpreter(minor)
    if exe is None:
        pytest.skip(f"no pyenv-managed CPython 3.{minor}")
    code = ("import json; from sparkbench import patterns; "
            "print(json.dumps(patterns.table()))")
    out = subprocess.run([os.fspath(exe), "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.fspath(ROOT / "src")))
    assert json.loads(out.stdout) == patterns.table()


def test_readmes_kernel_tables_are_the_derived_ones():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    pointer, array = (text.index(f"{family} family (") for family in
                      ("Pointer-traversal", "Indirection-array"))
    found = {}
    for family, section in [("pointer", text[pointer:array]),
                            ("array", text[array:text.index("\n## ", array)])]:
        header = next(line for line in section.splitlines() if line.startswith("| name |"))
        assert header.split("|")[3:-1] == [f" {c} " for c in patterns.COLUMNS[1:]]
        for line in section.splitlines():
            cells = [c.strip() for c in line.split("|")[1:-1]]
            if cells and cells[0] in BENCHMARKS:
                found[cells[0]] = (family, *map(int, cells[2:]))
    assert found == rows(patterns.table())


def test_report_writes_the_table(tmp_path):
    dat = tmp_path / "spark.dat"
    dat.write_text("")
    results.report(dat, tmp_path / "report")
    assert (tmp_path / "report" / "patterns.csv").read_text(encoding="ascii") == (
        "benchmark,family,walks,indirect,depth,loaded_bounds,ifs\n"
        + "".join(f"{name},{','.join(map(str, row))}\n" for name, row in TABLE.items()))
