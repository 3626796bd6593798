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
# importing harness fills in each registry entry's family
from sparkbench import harness, patterns, ptr_kernels, results  # noqa: F401
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
    assert rows(results.PATTERNS) == TABLE


def test_a_kernel_is_a_pointer_kernel_exactly_when_it_walks_a_chain():
    for name, row in patterns.table().items():
        assert (row["family"] == "pointer") == (row["walks"] > 0), name
        assert BENCHMARKS[name].family == row["family"], name


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
