"""Benchmark harness, parent side: references, gate, grids and verify.

Runs benchmark x matrix x configuration grids. Every cell executes in a
fresh process under the configuration's interpreter and flag set: a
child that the configuration's runner (``_runner``, one per
configuration id and run, started and held by ``Prepared``) forks for
it. The parent writes the child one line at a time, each after the last
one's reply (``_Runner``): ``open``, whose reply is ``ready``, a ``run``
count for the warmups and one for the measured runs, and ``digest``. The
child's ``cells.Cell`` performs its setup untimed, times only the kernel
invocation and answers with the run times and a checksum of the kernel's
result. The parent admits the cell only if that checksum matches an
independently computed reference, and only then builds the cell's record
and its seconds, which ``results`` writes into the results tree.

The references live here, not in the dense oracle module: they must
scale to the full-size inputs, so they use numpy/scipy, share no code
with the kernels and never run in a cell's interpreter. Kernels run in
this process only on ``verify_fixtures``' small fixtures: every gate,
a grid's or ``verify_matrix``'s, runs in a runner's child. A grid reads
each matrix once, before its first cell; ``Prepared`` makes the
references from that read and hands the cells its CSR arrays and what
the references build on the way (DSOLVE's LU factor, the Cuthill-McKee
order that gates CMCK and is MPERM's ordering, ASM's mesh with its
assembly's pattern and slots) as raw arrays. ``verify_matrix`` prepares
through it too, so the parent never builds a kernel's storage.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from collections import deque
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import matio
from .cells import (
    ASM_MESH,
    BENCHMARK_ORDER,
    BENCHMARKS,
    CORRUPT_ENV,  # perfbench's tests read it through harness
    INPUT_PARTS,
    RHS_SALT,
    SPMATMAT_COLS,
    HarnessError,
    TimingPolicy,
    admit_matrix,
    check_cell,
    input_path,
    matrix_file,
    pcg_params,
    probe_dense,
    probe_vector,
    weighted_checksum,
)
from .core import CsrMatrix, ParameterError, Permutation
from .matio import gen_tri_mesh, read_matrix_market, symmetrize_lower
from .ptr_kernels import JacobiParams, PcgParams
from .results import _check_name, time_file_path, write_time_file
# perfbench and the acceptance tests read these through harness
from .results import BenchRecord, aggregate, parse_time_file, report  # noqa: F401


class OracleMismatchError(HarnessError):
    """A kernel result failed its admission checksum; no record emitted."""


_GATE_RTOL = 1e-6
# The directory holding the sparkbench package, put first on a runner's
# sys.path so that any interpreter, under any flags, imports this copy.
_PACKAGE_ROOT = os.fspath(Path(__file__).resolve().parent.parent)


@dataclass
class BenchConfig:
    """One build configuration: an interpreter and its flag string.

    ``id`` names the configuration ("base" is the reference everything
    is ratioed against); ``build_flags`` is passed to the interpreter
    verbatim (the CFLAGS analog) and ``compiler_override`` replaces the
    interpreter executable itself (the CC analog).
    """

    id: str
    build_flags: str = ""
    compiler_override: str = None

    def __post_init__(self):
        _check_name("config id", self.id)


# --- checksums and the gate ---------------------------------------------------

def _np_checksum(arr) -> float:
    arr = np.asarray(arr, dtype=np.float64).ravel()
    idx = np.arange(arr.size, dtype=np.int64)
    w = 0.5 + ((idx * 2654435761) & 0xFFFFF) / 2097152.0
    return float(np.dot(w, arr))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _checksums_match(got: dict, want: dict) -> bool:
    """Same keys, every value finite and each within ``_GATE_RTOL`` of its
    reference."""
    return set(got) == set(want) and all(
        math.isfinite(a) and math.isfinite(want[k]) and _close(a, want[k], _GATE_RTOL)
        for k, a in got.items())


def _admit(benchmark: str, matrix: str, policy: TimingPolicy, payload: dict,
           ref: dict) -> dict:
    """The record of a cell whose runner payload matches its reference.

    A payload is the runner's {runs, checksums}; the record adds the
    cell's names, the policy and its aggregate of the runs. A mismatch
    raises ``OracleMismatchError`` and yields no record.
    """
    got, runs = payload["checksums"], payload["runs"]
    if not _checksums_match(got, ref):
        raise OracleMismatchError("oracle checksum mismatch: " + json.dumps(
            {"got": got, "want": ref}, sort_keys=True))
    return {"benchmark": benchmark, "matrix": matrix, **dataclasses.asdict(policy),
            "seconds": policy.aggregate(runs), "runs": runs, "checksums": got,
            "ref_checksums": ref}


def _scipy_csr(m: CsrMatrix):
    return sp.csr_matrix(
        (np.asarray(m.values, dtype=np.float64),
         np.asarray(m.col_ind, dtype=np.int64),
         np.asarray(m.row_ptr, dtype=np.int64)),
        shape=(m.n_rows, m.n_cols))


# --- references ---------------------------------------------------------------

class _Operands:
    """One matrix's operands for the references and the cells' inputs,
    each built on first use; ``m`` is None for matrix "none" (ASM).
    ``perm`` and ``asm`` are cell inputs too: their attributes are the
    ``INPUT_PARTS`` of their kind."""

    def __init__(self, m: CsrMatrix):
        self.m = m

    @property
    def n(self):
        return self.m.n_rows

    @cached_property
    def csr(self):
        return _scipy_csr(self.m)

    @cached_property
    def lu(self):
        return splu(self.csr.tocsc())

    @cached_property
    def sym(self):
        return symmetrize_lower(self.m)

    @cached_property
    def perm(self):
        """The reference Cuthill-McKee order of ``sym``: CMCK's gate and
        MPERM's ordering."""
        sym = self.sym
        return Permutation(_reference_cm(sym.n_rows, sym.row_ptr, sym.col_ind))

    @cached_property
    def asm(self):
        """ASM's mesh as ``nodes`` and ``elements``, its stiffness matrix
        assembled with scipy's duplicate summing (pattern ``row_ptr`` and
        ``col_ind``, sorted by column, and ``values``) and each element's
        9 ``slots`` into that pattern, row-major over its local matrix."""
        mesh = gen_tri_mesh(*ASM_MESH)
        nodes = np.asarray(mesh.nodes, dtype=np.float64)
        elems = np.asarray(mesh.elements, dtype=np.int64)
        p1 = nodes[elems[:, 0]]
        p2 = nodes[elems[:, 1]]
        p3 = nodes[elems[:, 2]]
        det = ((p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
               - (p3[:, 0] - p1[:, 0]) * (p2[:, 1] - p1[:, 1]))
        area = np.abs(det) / 2.0
        bb = np.stack([p2[:, 1] - p3[:, 1], p3[:, 1] - p1[:, 1],
                       p1[:, 1] - p2[:, 1]], axis=1)
        cc = np.stack([p3[:, 0] - p2[:, 0], p1[:, 0] - p3[:, 0],
                       p2[:, 0] - p1[:, 0]], axis=1)
        kloc = (np.einsum("ei,ej->eij", bb, bb) + np.einsum("ei,ej->eij", cc, cc))
        kloc /= (4.0 * area)[:, None, None]
        rows = np.repeat(elems, 3, axis=1)
        cols = np.tile(elems, (1, 3))
        n = len(nodes)
        k = sp.coo_matrix((kloc.ravel(), (rows.ravel(), cols.ravel())),
                          shape=(n, n)).tocsr()
        k.sort_indices()
        keys = np.repeat(np.arange(n), np.diff(k.indptr)) * n + k.indices
        return SimpleNamespace(nodes=nodes, elements=elems, row_ptr=k.indptr,
                               col_ind=k.indices, values=k.data,
                               slots=np.searchsorted(keys, rows * n + cols))


def _ref_spmatvec(op):
    y = op.csr @ np.asarray(probe_vector(op.n))
    return {"y": _np_checksum(y)}


def _ref_spmatmat(op):
    y = op.csr @ np.asarray(probe_dense(op.n, SPMATMAT_COLS))
    return {"y": _np_checksum(y)}


def _ref_jacit(op):
    a = op.csr
    d = a.diagonal()
    if np.any(d == 0.0):
        raise HarnessError("zero diagonal in jacit input")
    b = np.asarray(probe_vector(op.n, salt=RHS_SALT["JACIT"]))
    x = np.zeros(op.n)
    for _ in range(JacobiParams().iterations):
        x = (b - (a @ x - d * x)) / d
    return {"x": _np_checksum(x)}


def _write_input(input_dir, matrix: str, kind: str, parts: dict) -> None:
    """Write the ``INPUT_PARTS[kind]`` arrays a cell reads for ``matrix``."""
    for part, code in INPUT_PARTS[kind].items():
        np.asarray(parts[part], dtype=code).tofile(
            input_path(input_dir, matrix, kind, part))


def _write_matrix(m: CsrMatrix, input_dir, matrix: str) -> None:
    _write_input(input_dir, matrix, "csr", {
        "shape": [m.n_rows, m.n_cols], "row_ptr": m.row_ptr,
        "col_ind": m.col_ind, "values": m.values})


def _write_factor(lu_obj, input_dir, matrix: str) -> None:
    """Write a sparse LU object's merged factors as DSOLVE's input arrays.

    The unit diagonal of L is dropped (it is implicit in the solve) and
    U keeps its explicit diagonal. Both factors land in one matrix whose
    row map and column map are the inverses of the factorization's row
    and column permutations, so that the solve's gather phase applies
    the row permutation and the scatter phase undoes the column one.
    Explicit zeros are dropped except on the diagonal, which every row
    must keep.
    """
    n = lu_obj.shape[0]
    combined = ((lu_obj.L - sp.identity(n, format="csc")) + lu_obj.U).tocsr()
    combined.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(combined.indptr))
    diag = combined.indices == rows
    missing = np.ones(n, dtype=bool)
    missing[rows[diag]] = False
    if missing.any():
        raise HarnessError(f"factor row {int(np.argmax(missing))} lost its diagonal")
    keep = diag | (combined.data != 0.0)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=row_ptr[1:])
    inv_r = np.empty(n, dtype=np.int64)
    inv_r[lu_obj.perm_r] = np.arange(n)
    inv_c = np.empty(n, dtype=np.int64)
    inv_c[lu_obj.perm_c] = np.arange(n)
    _write_input(input_dir, matrix, "lu", {
        "row_ptr": row_ptr, "col_ind": combined.indices[keep],
        "values": combined.data[keep], "row_map": inv_r, "col_map": inv_c})


def _ref_dsolve(op):
    x = op.lu.solve(np.asarray(probe_vector(op.n, salt=RHS_SALT["DSOLVE"])))
    return {"x": _np_checksum(x)}


def _ref_pcg(op):
    a = op.csr
    d = a.diagonal()
    if np.any(d == 0.0):
        raise HarnessError("zero diagonal in pcg input")
    b = np.asarray(probe_vector(op.n, salt=RHS_SALT["PCG"]))
    params = pcg_params()
    b_norm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    used = 0
    for it in range(1, params.max_iterations + 1):
        q = a @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        used = it
        if float(np.linalg.norm(r)) / b_norm <= params.tolerance:
            break
        z = r / d
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return {"x": _np_checksum(x), "iterations": float(used)}


def _ref_asm(op):
    return {"values": _np_checksum(op.asm.values)}


def _ref_trmat(op):
    t = op.csr.transpose().tocsr()
    t.sort_indices()
    return {"row_ptr": _np_checksum(t.indptr), "col_ind": _np_checksum(t.indices),
            "values": _np_checksum(t.data)}


def _reference_cm(n, ia, ja):
    """Independent Cuthill-McKee with the same tie-break rules.

    Queue-based rather than window-based; used only to gate the kernel.
    """
    deg = [max(0, ia[i + 1] - ia[i] - 1) for i in range(n)]
    seed_order = sorted(range(n), key=lambda v: (deg[v], v))
    seen = [False] * n
    order = []
    for s in seed_order:
        if seen[s]:
            continue
        seen[s] = True
        q = deque([s])
        while q:
            v = q.popleft()
            order.append(v)
            nbrs = sorted(
                (ja[k] for k in range(ia[v], ia[v + 1])
                 if ja[k] != v and not seen[ja[k]]),
                key=lambda u: (deg[u], u))
            for u in nbrs:
                seen[u] = True
                q.append(u)
    forward = [0] * n
    for new, old in enumerate(order):
        forward[old] = new
    return forward


def _ref_cmck(op):
    return {"forward": weighted_checksum(op.perm.forward)}


def _ref_mperm(op):
    """Permute by the reference ordering, which is MPERM's input."""
    inv = np.asarray(op.perm.inverse, dtype=np.int64)
    b = _scipy_csr(op.sym)[inv][:, inv].tocsr()
    b.sort_indices()
    return {"row_ptr": _np_checksum(b.indptr), "col_ind": _np_checksum(b.indices),
            "values": _np_checksum(b.data)}


BENCHMARKS.update({name: dataclasses.replace(BENCHMARKS[name], reference=ref)
                   for name, ref in [
                       ("SPMATVEC", _ref_spmatvec), ("SPMATMAT", _ref_spmatmat),
                       ("JACIT", _ref_jacit), ("DSOLVE", _ref_dsolve),
                       ("PCG", _ref_pcg), ("ASM", _ref_asm), ("TRMAT", _ref_trmat),
                       ("CMCK", _ref_cmck), ("MPERM", _ref_mperm)]})


def __getattr__(name):
    """``POINTER_BENCHMARKS`` and ``ARRAY_BENCHMARKS``, read from the
    kernels' code when asked for, not at every import of this module."""
    family = {"POINTER_BENCHMARKS": "pointer", "ARRAY_BENCHMARKS": "array"}.get(name)
    if family is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return [n for n, b in BENCHMARKS.items() if b.family == family]


# --- prepared inputs ------------------------------------------------------------

def _prepare_input(name: str, op: _Operands, input_dir, matrix: str) -> dict:
    """Benchmark ``name``'s reference on ``op``; writes every input its
    cells read other than the matrix's CSR arrays. DSOLVE's factor is
    dropped from ``op`` once it is written."""
    bench = BENCHMARKS[name]
    ref = bench.reference(op)
    for kind in bench.inputs:
        if kind == "lu":
            _write_factor(op.lu, input_dir, matrix)
            del op.lu
        elif kind != "csr":
            _write_input(input_dir, matrix, kind, vars(getattr(op, kind)))
    return ref


def _outcome(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


class Prepared:
    """The parent's inputs and runners for the cells of one run; a
    context manager.

    ``loaded`` maps each matrix name to its ``CsrMatrix``, or to the
    exception loading it raised. The constructor writes each matrix's
    CSR arrays, then starts one runner per entry of ``configs``, so each
    imports while this process makes the references and inputs. DSOLVE's
    come first, before ASM's mesh and the other references grow this
    process: its sparse LU factor, the largest operand, is dropped as
    soon as its arrays are written.

    ``refs`` maps (benchmark, matrix) to its reference checksums, or to
    the exception preparing them raised; that cell then fails with it.
    ``input_dir`` holds the arrays the cells read: each matrix's CSR
    arrays and whatever else a benchmark's ``inputs`` name. It is a
    temporary directory, removed when the ``with`` block exits or the
    constructor raises, so nothing outlives the run. Nor do the runners:
    the exit closes and reaps each one.
    """

    def __init__(self, benchmarks: list, loaded: dict, configs=()):
        self.refs = {}
        self._runners = {}
        # If preparing raises, this unwinds it; else pop_all keeps it for __exit__.
        with ExitStack() as self._exit:
            self.input_dir = Path(self._exit.enter_context(
                tempfile.TemporaryDirectory(prefix="sparkbench-")))
            by_matrix = [b for b in benchmarks if BENCHMARKS[b].needs_matrix]
            cells = [(b, "none", _Operands(None))
                     for b in benchmarks if b not in by_matrix]
            for matrix, m in loaded.items():
                if isinstance(m, Exception):
                    self.refs.update({(b, matrix): m for b in by_matrix})
                else:
                    _write_matrix(m, self.input_dir, matrix)
                    op = _Operands(m)
                    cells += [(b, matrix, op) for b in by_matrix]
            for config in configs:
                with suppress(OSError):  # its cells fail when they start it again
                    self.runner(config)
            for name, matrix, op in sorted(cells, key=lambda c: c[0] != "DSOLVE"):
                self.refs[(name, matrix)] = _outcome(_prepare_input, name, op,
                                                     self.input_dir, matrix)
            self._exit = self._exit.pop_all()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._exit.close()

    def runner(self, config: BenchConfig) -> "_Runner":
        """The configuration's runner; a new one if it has none, or its
        last one died or is still in a cell."""
        runner = self._runners.get(config.id)
        if runner is None or not runner.idle():
            runner = self._runners[config.id] = _Runner(config)
            self._exit.callback(runner.close)
        return runner

    def reference(self, benchmark: str, matrix: str) -> dict:
        """The cell's reference checksums; raises what preparing them
        raised."""
        ref = self.refs[(benchmark, matrix)]
        if isinstance(ref, Exception):
            raise ref
        return ref

    def job(self, benchmark: str, matrix: str) -> dict:
        """A cell's ``open`` argument and ``Cell``'s keywords."""
        return {"benchmark": benchmark, "matrix": matrix,
                "input_dir": os.fspath(self.input_dir)}


def load_matrix(data_dir, name: str) -> CsrMatrix:
    return admit_matrix(matrix_file(data_dir, name))[0]


def prepare(benchmarks: list, matrices: list, data_dir, configs=()) -> Prepared:
    """``Prepared`` inputs for every cell of a grid, and a runner per
    configuration; each matrix is read once, and only if a benchmark
    needs it."""
    needed = any(BENCHMARKS[b].needs_matrix for b in benchmarks)
    loaded = {mat: _outcome(load_matrix, data_dir, mat) for mat in matrices if needed}
    return Prepared(benchmarks, loaded, configs)


# --- cells ----------------------------------------------------------------------

def execute_cell(benchmark: str, matrix: str, data_dir, policy: TimingPolicy) -> dict:
    """Run and gate one (benchmark, matrix) cell as a grid does, in a
    child of a ``base`` runner. Returns ``run_cell_subprocess``' record;
    a rejected cell raises ``OracleMismatchError``.
    """
    check_cell(benchmark, matrix)
    base = DEFAULT_CONFIGS[0]
    with prepare([benchmark], [matrix], data_dir, [base]) as prep:
        return run_cell_subprocess(benchmark, matrix, base, policy, prep)


def _runner_command(config: BenchConfig) -> list:
    interp = config.compiler_override or sys.executable
    return [interp, *shlex.split(config.build_flags), "-c",
            f"import sys; sys.path.insert(0, {_PACKAGE_ROOT!r}); "
            "import sparkbench._runner; sys.exit(sparkbench._runner.main())"]


def _floats(values) -> bool:
    return all(type(v) is float for v in values)


class _Runner:
    """A configuration's runner process (``sparkbench._runner``), held a
    step at a time: ``open`` writes a cell's ``open`` line and ``ready``
    reads its child's answer; ``run`` and ``digest`` write one line each
    and return its reply. The runner and its children write their stderr
    to one anonymous file, so nothing they write there can block them; a
    failed cell's tail is read from where the file ended at its ``open``.
    """

    def __init__(self, config: BenchConfig):
        self._config, self._err_start, self._job = config.id, 0, None
        self._err = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                _runner_command(config), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=self._err, text=True)
        except BaseException:
            self._err.close()
            raise

    def idle(self) -> bool:
        """Alive, and holding no cell that ``open`` began."""
        return self._job is None and self._proc.poll() is None

    def open(self, job: dict) -> None:
        """Begin the cell ``job``: write its ``open`` line, not waiting."""
        self._job, self._err_start = job, os.fstat(self._err.fileno()).st_size
        self._write(f"open {json.dumps(job)}")

    def ready(self) -> None:
        """Read the child's ``"ready"``: the cell is set up."""
        self._reply(lambda r: r == "ready")

    def run(self, n: int) -> list:
        """The seconds of the child's next ``n`` kernel calls."""
        self._write(f"run {n}")
        return self._reply(lambda r: isinstance(r, list) and len(r) == n and _floats(r))

    def digest(self) -> dict:
        """The checksums of the cell's result; the cell is done."""
        self._write("digest")
        checksums = self._reply(lambda r: isinstance(r, dict) and _floats(r.values()))
        self._job = None
        return checksums

    def _write(self, line: str) -> None:
        with suppress(OSError):  # the next reply finds the runner dead
            print(line, file=self._proc.stdin, flush=True)

    def _reply(self, check):
        """The next reply, if ``check`` accepts it. Any other closes the
        runner and raises ``HarnessError``: the cell, the configuration, the
        exit status (the child's {"exit": status}, else the runner's; 0
        reads "no payload"), then the last line and tail of its stderr."""
        try:
            reply = json.loads(self._proc.stdout.readline())
        except (OSError, ValueError):
            reply = None
        if check(reply):
            return reply
        status, stderr = self.close()
        if isinstance(reply, dict):
            status = reply.get("exit", status)
        tail = stderr.strip()[-500:]
        last = tail.splitlines()[-1] if tail else "no output on stderr"
        status = f"exit status {status}" if status else "no payload"
        raise HarnessError(f"runner failed for {self._job['benchmark']}/"
                           f"{self._job['matrix']} under {self._config} "
                           f"({status}): {last}\n{tail}")

    def close(self) -> tuple:
        """Close the runner's stdin and reap it; returns (exit status, stderr
        since the last ``open``). Closing again returns the same."""
        if not self._err.closed:
            self._proc.communicate()
            self._err.seek(self._err_start)
            self._stderr = self._err.read().decode(errors="replace")
            self._err.close()
        return self._proc.returncode, self._stderr


def run_cell_subprocess(benchmark: str, matrix: str, config: BenchConfig,
                        policy: TimingPolicy, prep: Prepared) -> dict:
    """One cell's record, run in a child of the configuration's runner.

    ``prep`` is the ``Prepared`` inputs of the run the cell belongs to:
    it holds the runner, the cell reads its arrays and is gated against
    its reference. The record is ``_admit``'s plus the configuration id.
    A child or runner that fails raises ``_Runner``'s ``HarnessError``.
    """
    ref = prep.reference(benchmark, matrix)
    runner = prep.runner(config)
    runner.open(prep.job(benchmark, matrix))
    runner.ready()
    runner.run(policy.warmup_runs)
    payload = {"runs": runner.run(policy.measured_runs), "checksums": runner.digest()}
    return {**_admit(benchmark, matrix, policy, payload, ref), "config": config.id}


def run_suite(configs: list, benchmarks: list, matrices: list,
              policy: TimingPolicy, data_dir, results_root) -> list:
    """Run the whole grid, config-major, writing the results tree.

    The references are prepared once, before the first cell. Cells
    failing setup or the admission gate produce a .err file instead of
    a .time file and the suite continues. Returns a list of (config id,
    benchmark, matrix, status string) tuples in run order. Before it
    reads anything, it rejects a repeated configuration id, benchmark or
    matrix, and a matrix name that breaks the config-id rule.
    """
    results_root = Path(results_root)
    ids = [c.id for c in configs]
    for kind, names in (("configuration id", ids), ("benchmark", benchmarks),
                        ("matrix", matrices)):
        repeated = [n for i, n in enumerate(names) if n in names[:i]]
        if repeated:
            raise HarnessError(f"duplicate {kind} {repeated[0]!r}")
    if "base" not in ids and not (results_root / "base").exists():
        raise HarnessError(
            "reference configuration 'base' is neither in the config list "
            "nor already measured on disk")
    for name in benchmarks:
        if name not in BENCHMARKS:
            raise HarnessError(f"unknown benchmark {name!r}")
    for name in matrices:
        _check_name("matrix name", name)

    outcomes = []
    with prepare(benchmarks, matrices, data_dir, configs) as prep:
        for config in configs:
            (results_root / config.id).mkdir(parents=True, exist_ok=True)
            for name in benchmarks:
                cell_inputs = matrices if BENCHMARKS[name].needs_matrix else ["none"]
                for mat in cell_inputs:
                    outcomes.append((config.id, name, mat, _record_cell(
                        results_root, name, mat, config, policy, prep)))
    return outcomes


def _record_cell(results_root, name, mat, config, policy, prep) -> str:
    """Run one grid cell and write its .time or .err file; returns its status."""
    tpath = time_file_path(results_root, config.id, name, mat)
    epath = tpath.with_suffix(".err")
    try:
        write_time_file(tpath, run_cell_subprocess(name, mat, config, policy, prep))
        epath.unlink(missing_ok=True)
        return "ok"
    except Exception as exc:
        epath.parent.mkdir(parents=True, exist_ok=True)
        epath.write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")
        tpath.unlink(missing_ok=True)
        return f"failed: {type(exc).__name__}"


# --- verification driver ----------------------------------------------------

def _vec_close(got, want, tol: float) -> bool:
    return len(got) == len(want) and all(
        _close(a, b, tol) for a, b in zip(got, want))


def _dominant_fixture(rng) -> CsrMatrix:
    """Random banded matrix with a strictly dominant diagonal."""
    n = rng.randint(2, 24)
    bands = []
    for _ in range(rng.randint(1, 4)):
        off = rng.randint(1 - n, n - 1)
        if off != 0:
            bands.append((off, rng.uniform(0.3, 1.0), (-1.0, 1.0)))
    m = matio.gen_banded(n, bands, seed=rng.randint(0, 1 << 30))
    return matio._dominant(n, {(i, j): v for i, j, v in m.triples() if i != j})


def _failure(where, exc) -> str:
    """The one-line failure text of a check that raised at ``where``."""
    return f"{where}: {type(exc).__name__}: {exc}".splitlines()[0]


def verify_fixtures(seed: int = 2024, count: int = 40) -> list:
    """Check every kernel against its oracle on small seeded fixtures.

    Returns (label, ok, detail) tuples in a fixed order. Each label has its
    items and a check that returns one item's failure text or None; a label
    fails with its first failure, and a check that raises fails only its
    own label. The output is a pure function of the arguments. A count
    below 1 raises ``ParameterError``: no fixture, no pass.
    """
    if count < 1:
        raise ParameterError(f"fixture count must be at least 1, got {count}")
    import random

    # imported when called, so a patch on these modules reaches the checks
    from . import oracles
    from .arr_kernels import asm_assemble, bandwidth, cmck, mperm, trmat
    from .core import csr_to_linked, csr_to_ortho, linked_to_csr, ortho_to_csr
    from .matio import gen_arrow, gen_spd
    from .ptr_kernels import (dsolve, jacit, lu_factor_for_dsolve, pcg, spmatmat,
                              spmatvec)

    rng = random.Random(seed)
    fixtures = ("fixtures", [(f"fixture {t}", (t, _dominant_fixture(rng)))
                             for t in range(count)])
    trials = ("fixtures", [(f"trial {t}", (t, gen_spd(rng.randint(6, 40),
                                                      seed=rng.randint(0, 1 << 30))))
                           for t in range(10)])
    meshes = ("meshes", [(f"mesh {nx}x{ny}", (nx, ny))
                         for nx, ny in [(2, 2), (3, 2), (4, 4), (5, 3)]])
    sizes = ("sizes", [(f"n={n}", (n,)) for n in (50, 120)])

    # one check per label: the failure text for one item, or None
    def conversions(where, t, m):
        if linked_to_csr(csr_to_linked(m)) != m:
            return f"{where}: linked round trip differs"
        if ortho_to_csr(csr_to_ortho(m)) != m:
            return f"{where}: orthogonal round trip differs"
    def matvec(where, t, m):
        x = probe_vector(m.n_rows, salt=t)
        if not _vec_close(spmatvec(csr_to_linked(m), x),
                          oracles.dense_matvec(oracles.dense_of(m), x), 1e-12):
            return f"{where}: product differs"
    def matmat(where, t, m):
        bmat = probe_dense(m.n_rows, 1 + t % 4)
        got = spmatmat(csr_to_linked(m), bmat)
        want = oracles.dense_matmat(oracles.dense_of(m), bmat)
        if not all(_vec_close(g, w, 1e-12) for g, w in zip(got, want)):
            return f"{where}: product differs"
    def sweeps(where, t, m):
        rhs, dense = probe_vector(m.n_rows, salt=t + 1), oracles.dense_of(m)
        xj = jacit(csr_to_linked(m), rhs, [0.0] * m.n_rows, JacobiParams(iterations=3))
        xd = [0.0] * m.n_rows
        for _ in range(3):
            xd = oracles.dense_jacobi_sweep(dense, rhs, xd)
        if not _vec_close(xj, xd, 1e-12):
            return f"{where}: sweeps diverge from oracle"
    def solve(where, t, m):
        rhs, dense = probe_vector(m.n_rows, salt=t + 1), oracles.dense_of(m)
        xs = dsolve(lu_factor_for_dsolve(m), rhs)
        ax = oracles.dense_matvec(dense, xs)
        if any(abs(a - b) > 1e-9 * max(1.0, abs(b)) for a, b in zip(ax, rhs)):
            return f"{where}: residual too large"
        if not _vec_close(xs, oracles.dense_lu_solve(dense, rhs), 1e-9):
            return f"{where}: solution differs from oracle"
    def transpose(where, t, m):
        tr = trmat(m)
        if tr != oracles.csr_of(oracles.dense_transpose(oracles.dense_of(m))):
            return f"{where}: transpose differs"
        if trmat(tr) != m:
            return f"{where}: double transpose not identity"
    def ordering(where, t, m):
        op = _Operands(m)
        if cmck(op.sym).forward != op.perm.forward:
            return f"{where}: order differs from the reference"
    def permute(where, t, m):
        op = _Operands(m)
        got = mperm(op.sym, op.perm, probe_vector(m.n_rows, salt=t + 1))[0]
        if got != oracles.csr_of(oracles.dense_permute_sym(oracles.dense_of(op.sym),
                                                            op.perm.forward)):
            return f"{where}: permuted matrix differs"
    def file_round_trip(where, t, m):
        with tempfile.TemporaryDirectory() as tmp:
            matio.write_matrix_market(Path(tmp) / "rt.mtx", m)
            if read_matrix_market(Path(tmp) / "rt.mtx")[0] != m:
                return f"{where}: file round trip differs"
    def residual(where, t, spd):
        b = probe_vector(spd.n_rows, salt=t)
        xsol, used, rel = pcg(csr_to_linked(spd), b, PcgParams())
        ax = oracles.dense_matvec(oracles.dense_of(spd), xsol)
        num = math.sqrt(sum((a - bb) ** 2 for a, bb in zip(ax, b)))
        den = math.sqrt(sum(bb * bb for bb in b))
        if abs(rel - num / den) > 1e-10 * max(1.0, rel):
            return f"{where}: reported residual {rel} vs recomputed {num / den}"
        if used < PcgParams().max_iterations and rel > PcgParams().tolerance:
            return f"{where}: stopped early above tolerance"
    def assembly(where, nx, ny):
        mesh = gen_tri_mesh(nx, ny)
        got, want = oracles.dense_of(asm_assemble(mesh)), oracles.dense_assemble(mesh)
        diff = max(abs(a - b) for a, b in zip(got.cells, want.cells))
        if diff > 1e-12:
            return f"{where}: max deviation {diff}"
    def band(where, n):
        def widths(m):
            sym = symmetrize_lower(m)
            fwd = cmck(sym).forward
            return bandwidth(sym), bandwidth(CsrMatrix.from_triples(
                n, n, [(fwd[i], fwd[j], v) for i, j, v in sym.triples()]))
        bw0, bw1 = widths(matio.gen_pentadiagonal(n, seed=n))
        if bw1 > bw0:
            return f"banded {where}: bandwidth grew {bw0} -> {bw1}"
        aw0, aw1 = widths(gen_arrow(n, seed=n))
        if aw1 >= aw0:
            return f"arrow {where}: bandwidth not reduced {aw0} -> {aw1}"

    results = []
    for label, (noun, items), check in [
            ("conversions", fixtures, conversions), ("spmatvec", fixtures, matvec),
            ("spmatmat", fixtures, matmat), ("jacit", fixtures, sweeps),
            ("dsolve", fixtures, solve), ("trmat", fixtures, transpose),
            ("cmck", fixtures, ordering), ("mperm", fixtures, permute),
            ("matrixmarket", fixtures, file_round_trip), ("pcg", trials, residual),
            ("asm", meshes, assembly), ("cmck_bandwidth", sizes, band)]:
        why = None
        for where, item in items:
            try:
                why = check(where, *item)
            except Exception as exc:
                why = _failure(where, exc)
            if why:
                break
        results.append((label, not why, why or f"{len(items)} {noun}"))
    return results


def verify_matrix(data_dir, name: str) -> tuple:
    """Gate every matrix-driven kernel once, with no warmup, on one read of
    a full-size input, against the admission checksums (the oracle
    module's dense routines do not scale this far). Every gate runs in a
    runner's child, as a grid's cell does. ``Prepared`` makes the inputs
    while one ``base`` runner imports. DSOLVE's ``open`` goes to that
    runner first, so its child builds the storage of a node per factor
    entry while the other seven kernels are gated one at a time in a
    second ``base`` runner, started on first use; DSOLVE's ``ready``,
    ``run`` and ``digest`` come last. A child that fails ends its
    runner, so the next kernel starts another. The detail keeps
    ``BENCHMARK_ORDER``, one line per failing kernel. Returns (label,
    ok, detail) where ok is None when the matrix file has not been
    generated, and False when it is unreadable or stores nan or inf.
    """
    path = matio.matrix_path(data_dir, name)
    label = f"scale:{name}"
    if not path.exists():
        return label, None, "not generated; skipped"
    try:
        m, meta = admit_matrix(path)
    except (matio.MatrixMarketError, OSError, HarnessError) as exc:
        return label, False, f"{type(exc).__name__}: {exc}"
    problems = []
    if name in matio.TABLE1_EXPECTED:
        rep = matio.validate_characteristics(meta, matio.TABLE1_EXPECTED[name])
        problems.extend(rep.failures)
    benches = [b for b in BENCHMARK_ORDER if BENCHMARKS[b].needs_matrix]
    base = DEFAULT_CONFIGS[0]
    failed = {}
    with Prepared(benches, {name: m}, [base]) as prep:
        dsolve = prep.runner(base)
        if not isinstance(prep.refs[("DSOLVE", name)], Exception):
            dsolve.open(prep.job("DSOLVE", name))
        for bname in sorted(benches, key=lambda b: b == "DSOLVE"):
            try:
                ref = prep.reference(bname, name)
                # a second runner while ``dsolve`` holds DSOLVE's cell
                runner = dsolve if bname == "DSOLVE" else prep.runner(base)
                if bname != "DSOLVE":
                    runner.open(prep.job(bname, name))
                runner.ready()
                runner.run(1)
                if not _checksums_match(runner.digest(), ref):
                    failed[bname] = f"{bname}: checksum mismatch"
            except Exception as exc:
                failed[bname] = _failure(bname, exc)
    problems.extend(failed[b] for b in benches if b in failed)
    if problems:
        return label, False, "; ".join(problems)
    return label, True, f"{len(benches)} kernel gates"


# --- configuration files ---------------------------------------------------

DEFAULT_CONFIGS = [
    BenchConfig("base", "", None),
    BenchConfig("opt1", "-O", None),
    BenchConfig("opt2", "-OO", None),
]


def parse_config_file(path) -> list:
    """Read configuration blocks of ``id``/``cflags``/``cc`` lines.

    Each block starts with an ``id`` line; ``cflags`` and ``cc`` are
    optional within a block. Blank lines and '#' comments are ignored.
    A ``cflags`` line is split here as a cell's command line splits it,
    so one that cannot be split fails the file, not every cell.
    """
    configs = []
    for lineno, raw in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        where = f"{path}:{lineno}"
        if key not in ("id", "cflags", "cc"):
            raise HarnessError(f"{where}: unknown key {key!r}")
        if key != "id" and not configs:
            raise HarnessError(f"{where}: {key} before id")
        try:
            if key == "id":
                configs.append(BenchConfig(rest))
            elif key == "cflags":
                shlex.split(rest)
                configs[-1].build_flags = rest
            else:
                configs[-1].compiler_override = rest or None
        except (ParameterError, ValueError) as exc:
            raise HarnessError(f"{where}: {exc}") from None
    if not configs:
        raise HarnessError(f"{path}: no configurations defined")
    return configs
