"""Runner side of a benchmark cell: setup, timed runs and digest.

A cell's interpreter imports this module, the kernel modules, ``core``
and ``matio`` and nothing else outside the standard library, so any
Python 3.10+ interpreter can run a cell without numpy or scipy. The
references a digest is gated against are computed by the parent
(``harness``), which fills in each registry entry's ``reference``.

A cell parses no Matrix Market text and builds nothing the parent has
built for its references. Its input is a set of raw arrays the parent
wrote into an input directory (``INPUT_PARTS`` names the arrays of each
kind and their ``array`` typecodes; a benchmark's ``inputs`` name its
kinds): the matrix's CSR arrays, handed to setup as a ``CsrMatrix`` of
plain lists, DSOLVE's LU factor of the matrix, whose rows setup reads
from the files one at a time, MPERM's Cuthill-McKee ordering of it, or
ASM's mesh with its assembly's pattern and slots; the last two are
by-products of the references that gate CMCK and ASM. A ``Cell`` is
opened on that directory, never on the matrix directory.

The one exception is the symmetrized matrix: CMCK's and MPERM's setups
call ``symmetrize_lower``, though the parent builds the same matrix as
``_Operands.sym``. It stays that way because the result's layout is part
of what MPERM is timed on: ``symmetrize_lower`` puts one float object
behind both entries of a mirrored pair, while arrays read back with
``tolist`` give one per entry. Handed the parent's symmetrized arrays
instead, MPERM's kernel read 7.56 -> 8.38 ms on sherman3 and 3.28 ->
3.46 ms on spd2000s1 (2-vCPU host, Python 3.11, medians of 5 timed calls
over 6 alternating rounds), with identical digests; CMCK's did not move.

A ``Cell`` holds one cell from setup to digest, so that the runner's
child can answer the parent between phases (see ``_runner``); no other
process makes one. Setup runs with the cyclic garbage collector paused,
and the heap it built is frozen while the kernel runs, so a collection
during a timed run never rescans the cell's storage.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from . import matio
from .arr_kernels import _cmck_order, _mperm_fill, _sort_rows, asm_numeric, trmat
from .core import (
    CsrMatrix,
    ParameterError,
    Permutation,
    SparkBenchError,
    build_ortho,
    csr_to_linked,
)
from .matio import TriMesh, symmetrize_lower
from .ptr_kernels import (
    JacobiParams,
    PcgParams,
    dsolve,
    jacit,
    pcg,
    spmatmat,
    spmatvec,
)


class HarnessError(SparkBenchError):
    """Configuration, input or result-tree problem in the harness."""


# Fixed workloads. Timed work must not depend on anything but the input
# matrix, so these are constants of the harness contract.
SPMATMAT_COLS = 8
PCG_TIMED_ITERATIONS = 30
PCG_TOLERANCE = 1e-300
ASM_MESH = (160, 160)
# Each solver's right-hand side is a probe vector with its own salt.
RHS_SALT = {"JACIT": 1, "DSOLVE": 2, "PCG": 3}

CORRUPT_ENV = "SPARKBENCH_CORRUPT"

# The arrays of a cell's input, native-endian int64 / float64: a matrix
# ("csr") is its shape (rows, columns) and CSR arrays; DSOLVE's input
# ("lu") is the merged LU factor of its matrix, the CSR arrays of the
# combined factor plus the row and column maps; MPERM's ordering
# ("perm") is a Permutation's two maps; ASM's input ("asm", matrix
# "none") is the mesh's node coordinates and element corners, row-major,
# the CSR structure of its assembly's pattern and the 9 slots of each
# element.
INPUT_PARTS = {
    "csr": {"shape": "q", "row_ptr": "q", "col_ind": "q", "values": "d"},
    "lu": {"row_ptr": "q", "col_ind": "q", "values": "d",
           "row_map": "q", "col_map": "q"},
    "perm": {"forward": "q", "inverse": "q"},
    "asm": {"nodes": "d", "elements": "q", "row_ptr": "q", "col_ind": "q",
            "slots": "q"},
}


@dataclass
class TimingPolicy:
    warmup_runs: int = 3
    measured_runs: int = 7
    aggregator: str = "median"

    def __post_init__(self):
        if self.warmup_runs < 0:
            raise ParameterError("warmup_runs must be non-negative")
        if self.measured_runs < 3:
            raise ParameterError("measured_runs must be at least 3")
        if self.aggregator not in ("median", "min"):
            raise ParameterError(f"unknown aggregator {self.aggregator!r}")

    def aggregate(self, runs: list) -> float:
        if self.aggregator == "median":
            return statistics.median(runs)
        return min(runs)

    @classmethod
    def parse(cls, text: str) -> "TimingPolicy":
        """Parse the CLI form 'warmups,runs,aggregator'."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ParameterError(f"policy {text!r} is not 'warmups,runs,agg'")
        try:
            warmups, runs = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParameterError(
                f"policy {text!r}: warmups and runs must be integers") from None
        return cls(warmups, runs, parts[2])


# --- deterministic operands and checksums ---------------------------------

def probe_vector(n: int, salt: int = 0) -> list:
    """Deterministic dense vector with entries in [1, 2)."""
    return [1.0 + ((i * 31 + salt * 17) % 97) / 97.0 for i in range(n)]


def probe_dense(n: int, k: int) -> list:
    return [[1.0 + ((i + 13 * c) % 53) / 53.0 for c in range(k)]
            for i in range(n)]


def _weight(i: int) -> float:
    return 0.5 + ((i * 2654435761) & 0xFFFFF) / 2097152.0


def weighted_checksum(values) -> float:
    """Order-sensitive digest: sum of entries under a fixed weight ramp."""
    acc = 0.0
    for i, v in enumerate(values):
        acc += _weight(i) * float(v)
    return acc


def pcg_params() -> PcgParams:
    """A fixed iteration count: the tolerance is never reached."""
    return PcgParams(max_iterations=PCG_TIMED_ITERATIONS, tolerance=PCG_TOLERANCE)


# --- per-benchmark setup and digest -----------------------------------------

def _setup_dsolve(factor):
    """Orthogonal storage built from the factor's rows as ``read_factor``
    streams them, and the right-hand side."""
    n = len(factor["row_map"])
    return (build_ortho(n, factor["rows"], factor["row_map"], factor["col_map"]),
            probe_vector(n, salt=RHS_SALT["DSOLVE"]))


def _digest_pcg(result):
    x, iterations, _ = result
    return {"x": weighted_checksum(x), "iterations": float(iterations)}


def _rows(values, width: int) -> list:
    """A flat array as a list of ``width``-tuples."""
    it = iter(values.tolist())
    return list(zip(*[it] * width))


def _setup_asm(asm):
    """The mesh, an all-zero matrix on its assembly's pattern and each
    element's slots into it: what ``asm_symbolic`` makes of the mesh,
    taken from the parent's reference assembly."""
    nodes = _rows(asm["nodes"], 2)
    col_ind = asm["col_ind"].tolist()
    pattern = CsrMatrix(len(nodes), len(nodes), asm["row_ptr"].tolist(), col_ind,
                        [0.0] * len(col_ind))
    return TriMesh(nodes, _rows(asm["elements"], 3)), pattern, _rows(asm["slots"], 9)


def _run_asm(mesh, pattern, slots):
    """ASM's timed body: the numeric phase into a fresh copy of the
    all-zero pattern."""
    k = CsrMatrix(pattern.n_rows, pattern.n_cols, pattern.row_ptr,
                  pattern.col_ind, pattern.values.copy())
    asm_numeric(mesh, k, slots)
    return k


def _digest_csr(row_ptr, col_ind, values):
    return {"row_ptr": weighted_checksum(row_ptr),
            "col_ind": weighted_checksum(col_ind),
            "values": weighted_checksum(values)}


def _setup_mperm(m, perm):
    """The symmetrized matrix and the parent's reference Cuthill-McKee
    ordering of it, the one CMCK's cells are gated against."""
    return symmetrize_lower(m), Permutation(perm["forward"].tolist(),
                                            perm["inverse"].tolist())


def _digest_mperm(result):
    _sort_rows(*result)
    return _digest_csr(*result)


@dataclass(frozen=True)
class Benchmark:
    """A runnable kernel entry: setup, kernel, digest and reference.

    ``setup`` turns the cell's input, one argument per kind in
    ``inputs``, into the kernel's positional arguments, ``run`` is the
    kernel (the one call a timed run makes) and ``digest`` maps its
    result to named checksums. ``harness`` fills in ``reference``, which
    the runner never calls.
    """

    name: str
    setup: callable
    run: callable
    digest: callable
    reference: callable = None
    inputs: tuple = ("csr",)

    @property
    def family(self) -> str:
        """``patterns``' family of ``run``; a runner never imports ``patterns``."""
        from . import patterns
        return patterns.row(self.run)["family"]

    @property
    def needs_matrix(self) -> bool:
        """Whether a cell takes an input matrix: every kind but ASM's mesh does."""
        return any(kind != "asm" for kind in self.inputs)


BENCHMARKS = {b.name: b for b in [
    Benchmark("SPMATVEC",
              lambda m: (csr_to_linked(m), probe_vector(m.n_rows)),
              spmatvec, lambda y: {"y": weighted_checksum(y)}),
    Benchmark("SPMATMAT",
              lambda m: (csr_to_linked(m), probe_dense(m.n_rows, SPMATMAT_COLS)),
              spmatmat,
              lambda y: {"y": weighted_checksum(v for row in y for v in row)}),
    Benchmark("JACIT",
              lambda m: (csr_to_linked(m), probe_vector(m.n_rows, RHS_SALT["JACIT"]),
                         [0.0] * m.n_rows, JacobiParams()),
              jacit, lambda x: {"x": weighted_checksum(x)}),
    Benchmark("DSOLVE", _setup_dsolve, dsolve,
              lambda x: {"x": weighted_checksum(x)}, inputs=("lu",)),
    Benchmark("PCG",
              lambda m: (csr_to_linked(m), probe_vector(m.n_rows, RHS_SALT["PCG"]),
                         pcg_params()),
              pcg, _digest_pcg),
    Benchmark("ASM", _setup_asm, _run_asm,
              lambda k: {"values": weighted_checksum(k.values)}, inputs=("asm",)),
    Benchmark("TRMAT", lambda m: (m,), trmat,
              lambda t: _digest_csr(t.row_ptr, t.col_ind, t.values)),
    Benchmark("CMCK", lambda m: (symmetrize_lower(m),), _cmck_order,
              lambda p: {"forward": weighted_checksum(p.forward)}),
    Benchmark("MPERM", _setup_mperm, _mperm_fill, _digest_mperm,
              inputs=("csr", "perm")),
]}

BENCHMARK_ORDER = list(BENCHMARKS)


# --- cell inputs ---------------------------------------------------------------

def check_cell(benchmark: str, matrix: str) -> None:
    """Reject an unknown benchmark or a matrix name it cannot take."""
    if benchmark not in BENCHMARKS:
        raise HarnessError(f"unknown benchmark {benchmark!r}")
    if BENCHMARKS[benchmark].needs_matrix:
        if matrix == "none":
            raise HarnessError(f"{benchmark} requires a matrix input")
    elif matrix != "none":
        raise HarnessError(f"{benchmark} takes no matrix; use 'none'")


def matrix_file(data_dir, name: str) -> Path:
    path = matio.matrix_path(data_dir, name)
    if not path.exists():
        raise HarnessError(
            f"matrix {name!r} not found at {path}; run the gen command first")
    return path


def admit_matrix(path) -> tuple:
    """``read_matrix_market(path)``, admitted as a benchmark input: a
    stored nan or inf raises ``HarnessError`` naming the matrix and its
    first such entry, 1-based, since no checksum can gate a kernel's
    result on it. ``inspect``, ``run`` and ``verify`` read inputs here."""
    m, meta = matio.read_matrix_market(path)
    for k, v in enumerate(m.values):
        if not math.isfinite(v):
            i, j = bisect_right(m.row_ptr, k), m.col_ind[k] + 1
            raise HarnessError(
                f"matrix {meta.name}: entry ({i}, {j}) is {v!r}, not finite")
    return m, meta


def input_path(input_dir, matrix: str, kind: str, part: str) -> Path:
    return Path(input_dir) / f"{matrix}.{kind}.{part}"


def _read_part(input_dir, matrix: str, kind: str, part: str) -> array:
    arr = array(INPUT_PARTS[kind][part])
    arr.frombytes(input_path(input_dir, matrix, kind, part).read_bytes())
    return arr


def read_input(input_dir, matrix: str, kind: str) -> dict:
    """The ``INPUT_PARTS[kind]`` arrays the parent wrote for ``matrix``."""
    return {part: _read_part(input_dir, matrix, kind, part)
            for part in INPUT_PARTS[kind]}


def read_factor(input_dir, matrix: str) -> dict:
    """DSOLVE's input: the factor's ``row_ptr``, ``row_map`` and
    ``col_map`` read whole, and under ``rows`` an iterator over its rows
    that reads ``col_ind`` and ``values`` from their files one row at a
    time, so neither part is ever held whole.

    A ``col_ind`` or ``values`` file that does not hold exactly
    ``row_ptr[-1]`` entries raises ``HarnessError`` naming it.
    """
    factor = {part: _read_part(input_dir, matrix, "lu", part)
              for part in ("row_ptr", "row_map", "col_map")}
    nnz = factor["row_ptr"][-1]
    for part in ("col_ind", "values"):
        path = input_path(input_dir, matrix, "lu", part)
        size, need = path.stat().st_size, nnz * array(INPUT_PARTS["lu"][part]).itemsize
        if size != need:
            raise HarnessError(f"factor part {path.name} has {size} bytes; "
                               f"row_ptr's {nnz} entries need {need}")
    factor["rows"] = _factor_rows(input_dir, matrix, factor["row_ptr"])
    return factor


def _factor_rows(input_dir, matrix: str, row_ptr):
    """Each factor row as (col, value) pairs, read from the ``col_ind``
    and ``values`` files into one buffer per part, sized to the longest
    row. A row is valid only until the next one is drawn."""
    width = max((b - a for a, b in zip(row_ptr, row_ptr[1:])), default=0)
    cols = memoryview(array(INPUT_PARTS["lu"]["col_ind"], [0]) * width)
    values = memoryview(array(INPUT_PARTS["lu"]["values"], [0]) * width)
    with (open(input_path(input_dir, matrix, "lu", "col_ind"), "rb") as col_file,
          open(input_path(input_dir, matrix, "lu", "values"), "rb") as value_file):
        for a, b in zip(row_ptr, row_ptr[1:]):
            row_cols, row_values = cols[:b - a], values[:b - a]
            col_file.readinto(row_cols)
            value_file.readinto(row_values)
            yield zip(row_cols, row_values)


def read_csr(input_dir, matrix: str) -> CsrMatrix:
    """The matrix the parent wrote, as plain lists of ints and floats."""
    a = read_input(input_dir, matrix, "csr")
    n_rows, n_cols = a["shape"]
    return CsrMatrix(n_rows, n_cols, a["row_ptr"].tolist(),
                     a["col_ind"].tolist(), a["values"].tolist())


def load_input(benchmark: str, matrix: str, input_dir) -> tuple:
    """What the benchmark's setup takes, one value per kind of its
    ``inputs``: the matrix as a ``CsrMatrix``, DSOLVE's factor as
    ``read_factor`` streams it, any other kind as arrays."""
    check_cell(benchmark, matrix)
    readers = {"csr": read_csr, "lu": read_factor}
    return tuple(readers[kind](input_dir, matrix) if kind in readers
                 else read_input(input_dir, matrix, kind)
                 for kind in BENCHMARKS[benchmark].inputs)


# --- measurement -----------------------------------------------------------------

class Cell:
    """One (benchmark, matrix) cell, held by a runner's child from setup to
    digest: every kernel call the parent gates, in a grid or in
    ``verify``, is made by a ``Cell``. Making one loads the arrays the
    parent wrote into ``input_dir`` and runs setup; ``run(n)`` makes ``n``
    kernel calls back to back and returns their seconds, and ``digest()``
    the checksums of the last call's result, not gated.

    Only the kernel call sits between clock reads. Setup runs with the
    cyclic collector paused, since building a storage heap of a million
    nodes would otherwise cross generation thresholds that rescan it.
    The heap is then frozen, not collected, and the collector turned on,
    so the timed runs collect what they allocate without scanning it. The
    child exits after the digest, so nothing is unfrozen. A test hook
    (CORRUPT_ENV naming the benchmark) falsifies the digest so the
    parent's gate has a wrong answer to reject.
    """

    def __init__(self, benchmark: str, matrix: str, input_dir):
        self.benchmark = benchmark
        cell_input = load_input(benchmark, matrix, input_dir)
        gc.disable()
        self._args = BENCHMARKS[benchmark].setup(*cell_input)
        # Frozen before the collector is back on: freezing resets the
        # young generation's count, so no collection scans the new heap.
        gc.freeze()
        gc.enable()

    def run(self, n: int) -> list:
        run, args, runs = BENCHMARKS[self.benchmark].run, self._args, []
        for _ in range(n):
            t0 = time.perf_counter_ns()
            self._result = run(*args)
            t1 = time.perf_counter_ns()
            runs.append((t1 - t0) / 1e9)
        return runs

    def digest(self) -> dict:
        got = BENCHMARKS[self.benchmark].digest(self._result)
        if os.environ.get(CORRUPT_ENV) == self.benchmark:
            got = {k: v + 1.0 for k, v in got.items()}
        return got
