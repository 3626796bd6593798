"""Runner side of a benchmark cell: setup, timed runs and digest.

A cell's interpreter imports this module, the kernel modules, ``core``
and ``matio`` and nothing else outside the standard library, so any
Python 3.10+ interpreter can run a cell without numpy or scipy. The
references a digest is gated against are computed by the parent
(``harness``), which fills in each registry entry's ``reference``.

A cell parses no Matrix Market text. Its input is a set of raw arrays
the parent wrote into an input directory from the one parse it made
for the references (``INPUT_PARTS`` names the arrays of each kind and
their ``array`` typecodes): the matrix's CSR arrays, handed to setup as
a ``CsrMatrix`` of plain lists, or for DSOLVE the LU factor of the
matrix, or nothing for ASM. A job names that directory, never the
matrix directory.

Setup runs with the cyclic garbage collector paused, and the heap it
built is frozen while the kernel runs, so a collection during a timed
run never rescans the cell's storage.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from . import matio
from .arr_kernels import _mperm_fill, asm_numeric, asm_symbolic, cmck, trmat
from .core import (
    CsrMatrix,
    ParameterError,
    SparkBenchError,
    build_ortho,
    csr_to_linked,
)
from .matio import gen_tri_mesh, symmetrize_lower
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
# combined factor plus the row and column maps.
INPUT_PARTS = {
    "csr": {"shape": "q", "row_ptr": "q", "col_ind": "q", "values": "d"},
    "lu": {"row_ptr": "q", "col_ind": "q", "values": "d",
           "row_map": "q", "col_map": "q"},
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
        return cls(int(parts[0]), int(parts[1]), parts[2])


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


# --- per-benchmark setup / run / digest ------------------------------------

def _setup_spmatvec(m):
    return {"linked": csr_to_linked(m), "x": probe_vector(m.n_rows)}


def _setup_spmatmat(m):
    return {"linked": csr_to_linked(m),
            "B": probe_dense(m.n_rows, SPMATMAT_COLS)}


def _setup_jacit(m):
    n = m.n_rows
    return {"linked": csr_to_linked(m),
            "b": probe_vector(n, salt=RHS_SALT["JACIT"]),
            "x0": [0.0] * n, "params": JacobiParams()}


def _setup_dsolve(factor):
    row_ptr, col_ind, values = factor["row_ptr"], factor["col_ind"], factor["values"]
    n = len(factor["row_map"])
    # build_ortho walks each row once, so lazy rows spare the cell one
    # (col, value) tuple per factor entry held at the same time.
    rows = [zip(col_ind[row_ptr[i]:row_ptr[i + 1]],
                values[row_ptr[i]:row_ptr[i + 1]]) for i in range(n)]
    return {"ortho": build_ortho(n, rows, factor["row_map"], factor["col_map"]),
            "rhs": probe_vector(n, salt=RHS_SALT["DSOLVE"])}


def _setup_pcg(m):
    return {"linked": csr_to_linked(m),
            "b": probe_vector(m.n_rows, salt=RHS_SALT["PCG"]),
            "params": pcg_params()}


def _digest_pcg(state, result):
    x, iterations, _ = result
    return {"x": weighted_checksum(x), "iterations": float(iterations)}


def _setup_asm(_unused):
    mesh = gen_tri_mesh(*ASM_MESH)
    k, slots = asm_symbolic(mesh)
    return {"mesh": mesh, "row_ptr": k.row_ptr, "col_ind": k.col_ind,
            "slots": slots, "n": k.n_rows, "zeros": [0.0] * k.nnz}


def _run_asm(state):
    k = CsrMatrix(state["n"], state["n"], state["row_ptr"],
                  state["col_ind"], state["zeros"].copy())
    asm_numeric(state["mesh"], k, state["slots"])
    return k


def _digest_trmat(state, result):
    return {"row_ptr": weighted_checksum(result.row_ptr),
            "col_ind": weighted_checksum(result.col_ind),
            "values": weighted_checksum(result.values)}


def _run_cmck(state):
    return cmck(state["sym"], check_pattern=False)


def _setup_mperm(m):
    sym = symmetrize_lower(m)
    return {"sym": sym, "perm": cmck(sym, check_pattern=False)}


def _run_mperm(state):
    return _mperm_fill(state["sym"], state["perm"])


def _digest_mperm(state, result):
    iao, jao, ao = result
    n = state["sym"].n_rows
    js = list(jao)
    vs = list(ao)
    for ii in range(n):
        lo, hi = iao[ii], iao[ii + 1]
        if hi - lo > 1:
            seg = sorted(zip(js[lo:hi], vs[lo:hi]))
            for k, (c, v) in enumerate(seg, start=lo):
                js[k] = c
                vs[k] = v
    return {"row_ptr": weighted_checksum(iao),
            "col_ind": weighted_checksum(js),
            "values": weighted_checksum(vs)}


@dataclass(frozen=True)
class Benchmark:
    """A runnable kernel entry: setup, timed body, digest and reference.

    ``reference`` is filled in by ``harness``; the runner never calls
    it. A ``factored`` benchmark's input is the LU factor of its matrix.
    """

    name: str
    family: str
    needs_matrix: bool
    setup: callable
    run: callable
    digest: callable
    reference: callable = None
    factored: bool = False


def _simple_digest(key):
    def digest(state, result):
        if key == "flat":
            return {"y": weighted_checksum(
                v for row in result for v in row)}
        return {key: weighted_checksum(result)}
    return digest


BENCHMARKS = {b.name: b for b in [
    Benchmark("SPMATVEC", "pointer", True, _setup_spmatvec,
              lambda s: spmatvec(s["linked"], s["x"]), _simple_digest("y")),
    Benchmark("SPMATMAT", "pointer", True, _setup_spmatmat,
              lambda s: spmatmat(s["linked"], s["B"]), _simple_digest("flat")),
    Benchmark("JACIT", "pointer", True, _setup_jacit,
              lambda s: jacit(s["linked"], s["b"], s["x0"], s["params"]),
              _simple_digest("x")),
    Benchmark("DSOLVE", "pointer", True, _setup_dsolve,
              lambda s: dsolve(s["ortho"], s["rhs"]), _simple_digest("x"),
              factored=True),
    Benchmark("PCG", "pointer", True, _setup_pcg,
              lambda s: pcg(s["linked"], s["b"], s["params"]), _digest_pcg),
    Benchmark("ASM", "array", False, _setup_asm, _run_asm,
              lambda s, r: {"values": weighted_checksum(r.values)}),
    Benchmark("TRMAT", "array", True, lambda m: {"m": m},
              lambda s: trmat(s["m"]), _digest_trmat),
    Benchmark("CMCK", "array", True, lambda m: {"sym": symmetrize_lower(m)},
              _run_cmck, lambda s, r: {"forward": weighted_checksum(r.forward)}),
    Benchmark("MPERM", "array", True, _setup_mperm, _run_mperm, _digest_mperm),
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


def input_path(input_dir, matrix: str, kind: str, part: str) -> Path:
    return Path(input_dir) / f"{matrix}.{kind}.{part}"


def read_input(input_dir, matrix: str, kind: str) -> dict:
    """The ``INPUT_PARTS[kind]`` arrays the parent wrote for ``matrix``."""
    out = {}
    for part, code in INPUT_PARTS[kind].items():
        arr = array(code)
        arr.frombytes(input_path(input_dir, matrix, kind, part).read_bytes())
        out[part] = arr
    return out


def read_csr(input_dir, matrix: str) -> CsrMatrix:
    """The matrix the parent wrote, as plain lists of ints and floats."""
    a = read_input(input_dir, matrix, "csr")
    n_rows, n_cols = a["shape"]
    return CsrMatrix(n_rows, n_cols, a["row_ptr"].tolist(),
                     a["col_ind"].tolist(), a["values"].tolist())


def load_input(benchmark: str, matrix: str, input_dir):
    """What the benchmark's setup takes: None, the matrix, or its factor."""
    check_cell(benchmark, matrix)
    bench = BENCHMARKS[benchmark]
    if not bench.needs_matrix:
        return None
    if bench.factored:
        return read_input(input_dir, matrix, "lu")
    return read_csr(input_dir, matrix)


# --- measurement -----------------------------------------------------------------

def measure(benchmark: str, cell_input, warmup_runs: int,
            measured_runs: int) -> tuple:
    """Set up, run and digest one cell; returns (run seconds, checksums).

    Setup and digest are untimed; only the kernel call sits between
    clock reads. Setup runs with the cyclic collector paused, since
    building a storage heap of a million nodes would otherwise cross
    generation thresholds that rescan it. The heap is then frozen, not
    collected, so the timed runs collect what they allocate without
    scanning it. The caller's collector state is restored and nothing
    stays frozen when this returns or raises. A test hook
    (CORRUPT_ENV naming the benchmark) falsifies the digest so the
    parent's gate has a wrong answer to reject.
    """
    bench = BENCHMARKS[benchmark]
    enabled = gc.isenabled()
    gc.disable()
    try:
        state = bench.setup(cell_input)
        # Frozen before the collector is back on: freezing resets the
        # young generation's count, so no collection scans the new heap.
        gc.freeze()
        if enabled:
            gc.enable()
        for _ in range(warmup_runs):
            bench.run(state)
        runs = []
        result = None
        for _ in range(measured_runs):
            t0 = time.perf_counter_ns()
            result = bench.run(state)
            t1 = time.perf_counter_ns()
            runs.append((t1 - t0) / 1e9)
        got = bench.digest(state, result)
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
    if os.environ.get(CORRUPT_ENV) == benchmark:
        got = {k: v + 1.0 for k, v in got.items()}
    return runs, got


def run_job(job: dict) -> dict:
    """Run the cell a job describes; the payload is not yet gated.

    A job is {benchmark, matrix, input_dir, policy}: ``input_dir``
    holds the arrays the parent wrote (see ``INPUT_PARTS``), and the
    policy is a dict of ``TimingPolicy`` fields.
    """
    policy = TimingPolicy(**job["policy"])
    cell_input = load_input(job["benchmark"], job["matrix"], job["input_dir"])
    runs, got = measure(job["benchmark"], cell_input, policy.warmup_runs,
                        policy.measured_runs)
    med, mn = statistics.median(runs), min(runs)
    return {
        "benchmark": job["benchmark"],
        "matrix": job["matrix"],
        "seconds": policy.aggregate(runs),
        "runs": runs,
        "aggregator": policy.aggregator,
        "warmup_runs": policy.warmup_runs,
        "measured_runs": policy.measured_runs,
        "dispersion_ok": not (policy.measured_runs >= 5 and mn > 0
                              and med / mn > 1.5),
        "checksums": got,
    }
