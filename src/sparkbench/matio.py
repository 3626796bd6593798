"""Matrix ingestion, validation and synthetic input generation.

Reads Matrix Market coordinate files into CSR, checks them against the
expected characteristics of the five named collection matrices, mirrors
lower triangles for the ordering kernels, and generates and writes every
deterministic input ``gen`` makes: stand-ins, synthetic families, meshes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .core import (
    CsrMatrix,
    DimensionError,
    GeometryError,
    ParameterError,
    SparkBenchError,
)


class MatrixMarketError(SparkBenchError):
    """Malformed Matrix Market input; message carries file and line."""


@dataclass
class MatrixMeta:
    """Characteristics of an ingested matrix as stored on disk.

    ``entries`` counts STORED entries, before any symmetric mirroring,
    so it is comparable with published collection counts. ``symmetry``
    is one of "none", "structural" (pattern symmetric, values not) or
    "symmetric".
    """

    name: str
    n_rows: int
    n_cols: int
    entries: int
    symmetry: str

    def __post_init__(self):
        if self.entries < 0:
            raise ParameterError("negative entry count")
        if self.symmetry not in ("none", "structural", "symmetric"):
            raise ParameterError(f"unknown symmetry class {self.symmetry!r}")


@dataclass
class TriMesh:
    """Plane triangulation: node coordinates plus 3-node connectivity rows."""

    nodes: list
    elements: list

    def validate(self) -> None:
        n = len(self.nodes)
        for ei, tri in enumerate(self.elements):
            if len(tri) != 3:
                raise GeometryError(f"element {ei} is not a triangle")
            a, b, c = tri
            for v in tri:
                if not (0 <= v < n):
                    raise GeometryError(f"element {ei} references node {v}")
            (x1, y1), (x2, y2), (x3, y3) = (self.nodes[a], self.nodes[b],
                                            self.nodes[c])
            det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
            if det <= 0.0:
                raise GeometryError(
                    f"element {ei} has non-positive signed area {det / 2.0}")


@dataclass
class ValidationReport:
    """Outcome of comparing observed matrix characteristics to expected."""

    name: str
    failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list:
        out = []
        for w in self.warnings:
            out.append(f"warning: {w}")
        for f in self.failures:
            out.append(f"FAIL: {f}")
        if not out:
            out.append("ok")
        return out


# Expected characteristics of the five collection matrices, in the
# published order: dimensions, stored entries, symmetry class.
TABLE1_EXPECTED = {
    "add32": MatrixMeta("add32", 4960, 4960, 23884, "none"),
    "utm5940": MatrixMeta("utm5940", 5940, 5940, 83842, "none"),
    "sherman3": MatrixMeta("sherman3", 5005, 5005, 20033, "structural"),
    "codecs4812.dc": MatrixMeta("codecs4812.dc", 4812, 4812, 45192, "none"),
    "bcsstk13": MatrixMeta("bcsstk13", 2003, 2003, 42943, "symmetric"),
}

MATRIX_NAMES = list(TABLE1_EXPECTED)


def _matrix_name_from_path(path) -> str:
    name = Path(path).name
    if name.endswith(".mtx"):
        name = name[:-4]
    return name


def read_matrix_market(path) -> tuple:
    """Read a Matrix Market coordinate file.

    Returns (CsrMatrix, MatrixMeta). Symmetric-tagged files must store
    only the lower triangle; their off-diagonal entries are mirrored
    into the upper triangle of the returned matrix, while the metadata
    keeps the stored count. Pattern and complex fields are rejected
    because every kernel needs real values.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline()
            lineno = 1
            parts = header.strip().split()
            if len(parts) != 5 or parts[0] != "%%MatrixMarket":
                raise MatrixMarketError(f"{path}:1: not a Matrix Market header")
            _, obj, fmt, fieldkind, symkind = (p.lower() for p in parts)
            if obj != "matrix" or fmt != "coordinate":
                raise MatrixMarketError(
                    f"{path}:1: only coordinate matrices are supported")
            if fieldkind not in ("real", "integer"):
                raise MatrixMarketError(
                    f"{path}:1: field {fieldkind!r} unsupported (values required)")
            if symkind not in ("general", "symmetric"):
                raise MatrixMarketError(
                    f"{path}:1: symmetry {symkind!r} unsupported")

            size_line = None
            for line in fh:
                lineno += 1
                s = line.strip()
                if not s or s.startswith("%"):
                    continue
                size_line = s
                break
            if size_line is None:
                raise MatrixMarketError(f"{path}:{lineno}: missing size line")
            try:
                n_rows, n_cols, declared = (int(t) for t in size_line.split())
                if min(n_rows, n_cols, declared) < 0:
                    raise ValueError
            except ValueError:
                raise MatrixMarketError(
                    f"{path}:{lineno}: bad size line {size_line!r}") from None
            if symkind == "symmetric" and n_rows != n_cols:
                raise MatrixMarketError(
                    f"{path}:{lineno}: symmetric matrix is not square ({size_line!r})")

            symmetric = symkind == "symmetric"
            rows = [{} for _ in range(n_rows)]
            stored = 0
            for line in fh:
                lineno += 1
                s = line.strip()
                if not s or s.startswith("%"):
                    continue
                toks = s.split()
                if len(toks) != 3:
                    raise MatrixMarketError(
                        f"{path}:{lineno}: expected 'row col value', got {s!r}")
                try:
                    r = int(toks[0]) - 1
                    c = int(toks[1]) - 1
                    v = float(toks[2].replace("D", "E").replace("d", "e"))
                except ValueError:
                    raise MatrixMarketError(
                        f"{path}:{lineno}: bad entry {s!r}") from None
                if not (0 <= r < n_rows and 0 <= c < n_cols):
                    raise MatrixMarketError(
                        f"{path}:{lineno}: index ({r + 1}, {c + 1}) out of range")
                # first: an upper position may hold a mirrored lower entry
                if symmetric and c > r:
                    raise MatrixMarketError(
                        f"{path}:{lineno}: upper-triangle entry in symmetric file")
                row = rows[r]
                if c in row:
                    raise MatrixMarketError(
                        f"{path}:{lineno}: duplicate entry ({r + 1}, {c + 1})")
                row[c] = v
                if symmetric:
                    rows[c][r] = v
                stored += 1
            if stored != declared:
                raise MatrixMarketError(
                    f"{path}: size line declares {declared} entries, found {stored}")
    except UnicodeDecodeError as exc:
        raise MatrixMarketError(
            f"{path}: byte {exc.object[exc.start]:#04x} is not ASCII") from None

    symmetry = "symmetric" if symmetric else _rows_symmetry(n_cols, rows)
    meta = MatrixMeta(_matrix_name_from_path(path), n_rows, n_cols,
                      stored, symmetry)
    return CsrMatrix.from_rows(n_cols, rows), meta


def write_matrix_market(path, m: CsrMatrix, symmetry: str = "general") -> None:
    """Write CSR to a Matrix Market coordinate file, 1-based, %.17g values.

    With symmetry="symmetric" only entries on or below the diagonal are
    written; the caller is responsible for the matrix actually being
    symmetric.
    """
    if symmetry not in ("general", "symmetric"):
        raise ParameterError(f"unsupported symmetry {symmetry!r}")
    lower = symmetry == "symmetric"
    row_ptr, col_ind, values = m.row_ptr, m.col_ind, m.values
    lines = []
    for i in range(m.n_rows):
        a, b = row_ptr[i], row_ptr[i + 1]
        last = i if lower else m.n_cols
        head = f"{i + 1} "
        lines += [f"{head}{c + 1} {v:.17g}\n"
                  for c, v in zip(col_ind[a:b], values[a:b]) if c <= last]
    with open(os.fspath(path), "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n")
        fh.write(f"{m.n_rows} {m.n_cols} {len(lines)}\n")
        fh.writelines(lines)


def _rows_symmetry(n_cols: int, rows: list) -> str:
    """Classify a matrix given as one ``{column: value}`` dict per row as
    symmetric, structural or none."""
    if len(rows) != n_cols:
        return "none"
    value_sym = True
    for i, row in enumerate(rows):
        for j, v in row.items():
            w = rows[j].get(i)
            if w is None:
                return "none"
            if w != v and j != i:
                value_sym = False
    return "symmetric" if value_sym else "structural"


def detect_symmetry(m: CsrMatrix) -> str:
    """Classify a square matrix as symmetric, structural or none."""
    rows = [dict(zip(m.col_ind[a:b], m.values[a:b]))
            for a, b in zip(m.row_ptr, m.row_ptr[1:])]
    return _rows_symmetry(m.n_cols, rows)


def symmetrize_lower(m: CsrMatrix) -> CsrMatrix:
    """Mirror the lower triangle into the upper one.

    The result is lower(m) union transpose(lower(m)) with the diagonal
    kept as stored; any upper-triangle values of the input are
    discarded. Output equals its own transpose, pattern and values.
    """
    if not m.is_square:
        raise DimensionError("symmetrize_lower requires a square matrix")
    triples = []
    for r, c, v in m.triples():
        if r > c:
            triples.append((r, c, v))
            triples.append((c, r, v))
        elif r == c:
            triples.append((r, c, v))
    return CsrMatrix.from_triples(m.n_rows, m.n_cols, triples)


def validate_characteristics(meta: MatrixMeta,
                             expected: MatrixMeta) -> ValidationReport:
    """Compare observed characteristics to expected ones.

    Dimension and symmetry mismatches fail the report; a stored-entry
    count mismatch only warns, because public copies of collection
    matrices differ in explicit-zero bookkeeping.
    """
    report = ValidationReport(meta.name)
    if (meta.n_rows, meta.n_cols) != (expected.n_rows, expected.n_cols):
        report.failures.append(
            f"dimensions {meta.n_rows}x{meta.n_cols}, "
            f"expected {expected.n_rows}x{expected.n_cols}")
    if meta.symmetry != expected.symmetry:
        report.failures.append(
            f"symmetry {meta.symmetry}, expected {expected.symmetry}")
    if meta.entries != expected.entries:
        report.warnings.append(
            f"stored entries {meta.entries}, expected {expected.entries}")
    return report


def gen_banded(n: int, bands: list, seed: int) -> CsrMatrix:
    """Deterministic banded matrix generator.

    ``bands`` is a list of (offset, density, (lo, hi)) descriptors. The
    main diagonal is always fully populated regardless of the band list;
    off-diagonal band positions are kept with probability ``density``.
    """
    if n <= 0:
        raise ParameterError("n must be positive")
    for off, density, _ in bands:
        if not (-n < off < n):
            raise ParameterError(f"band offset {off} outside (-{n}, {n})")
        if not (0.0 <= density <= 1.0):
            raise ParameterError(f"band density {density} outside [0, 1]")
    rng = random.Random(seed)
    entries = {}
    for i in range(n):
        entries[(i, i)] = rng.uniform(-1.0, 1.0)
    for off, density, vrange in bands:
        lo, hi = vrange
        start = max(0, -off)
        stop = min(n, n - off)
        for i in range(start, stop):
            if rng.random() < density:
                entries[(i, i + off)] = rng.uniform(lo, hi)
    return CsrMatrix.from_triples(
        n, n, [(r, c, v) for (r, c), v in entries.items()])


def gen_spd(n: int, seed: int) -> CsrMatrix:
    """Deterministic sparse symmetric positive definite matrix.

    A few random strictly-lower entries per row are mirrored and the
    diagonal is boosted to one plus the row absolute sum, which makes
    the matrix strictly diagonally dominant with a positive diagonal,
    hence SPD.
    """
    if n <= 0:
        raise ParameterError("n must be positive")
    rng = random.Random(seed)
    rows = [{} for _ in range(n)]
    absum = [0.0] * n
    for i in range(1, n):
        k = rng.randint(1, min(4, i))
        for j in rng.sample(range(i), k):
            v = rng.uniform(-1.0, 1.0)
            rows[i][j] = v
            rows[j][i] = v
            absum[i] += abs(v)
            absum[j] += abs(v)
    return _with_diagonal(rows, absum)


def gen_arrow(n: int, seed: int) -> CsrMatrix:
    """Arrow matrix: dense first row and column plus the diagonal.

    The worst case for bandwidth as labeled, and the classic fixture on
    which a breadth-first reordering must strictly shrink it.
    """
    if n <= 0:
        raise ParameterError("n must be positive")
    rng = random.Random(seed)
    triples = []
    for i in range(n):
        triples.append((i, i, 1.0 + rng.random()))
    for j in range(1, n):
        v = rng.uniform(-1.0, 1.0)
        triples.append((0, j, v))
        triples.append((j, 0, v))
    return CsrMatrix.from_triples(n, n, triples)


def gen_pentadiagonal(n: int, seed: int) -> CsrMatrix:
    """The ``banded`` family: the diagonal plus full bands at offsets -2,
    -1, 1 and 2, those an order-n matrix has."""
    bands = [(off, 1.0, (-1.0, 1.0)) for off in (-2, -1, 1, 2) if abs(off) < n]
    return gen_banded(n, bands, seed)


def gen_tri_mesh(nx: int, ny: int) -> TriMesh:
    """Structured triangulation of the rectangle [0, nx] x [0, ny].

    (nx+1)(ny+1) nodes on the integer grid; each unit cell splits into
    two counter-clockwise triangles, 2*nx*ny in total.
    """
    if nx < 1 or ny < 1:
        raise ParameterError("nx and ny must be at least 1")
    nodes = []
    for y in range(ny + 1):
        for x in range(nx + 1):
            nodes.append((float(x), float(y)))
    elements = []
    stride = nx + 1
    for y in range(ny):
        for x in range(nx):
            ll = y * stride + x
            lr = ll + 1
            ul = ll + stride
            ur = ul + 1
            elements.append((ll, lr, ur))
            elements.append((ll, ur, ul))
    mesh = TriMesh(nodes, elements)
    mesh.validate()
    return mesh


def write_mesh(path, mesh: TriMesh) -> None:
    with open(os.fspath(path), "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"nodes {len(mesh.nodes)} elements {len(mesh.elements)}\n")
        for x, y in mesh.nodes:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.elements:
            fh.write(f"{a} {b} {c}\n")


def _with_diagonal(rows, absum) -> CsrMatrix:
    """CSR from per-row ``{column: value}`` dicts that hold no diagonal
    entry; row ``i`` gains ``1 + absum[i]`` on its diagonal."""
    for i, row in enumerate(rows):
        row[i] = 1.0 + absum[i]
    return CsrMatrix.from_rows(len(rows), rows)


def _dominant(n, off) -> CsrMatrix:
    """The off-diagonal entries ``off`` plus a diagonal making the matrix
    strictly dominant both ways: each |v| adds to its row's and its
    column's sum in ``off``'s order."""
    rows = [{} for _ in range(n)]
    absum = [0.0] * n
    for (i, j), v in off.items():
        rows[i][j] = v
        absum[i] += abs(v)
        absum[j] += abs(v)
    return _with_diagonal(rows, absum)


# The stand-in builders below draw what ``randrange(n)`` and ``randint(-band,
# band)`` would, each inline as ``Random._randbelow_with_getrandbits`` does:
# ``r = getrandbits(n.bit_length())`` until ``r < n``; ``-1 + 2 * random()``
# is ``uniform(-1, 1)``. An entry goes into its row's dict as it is drawn, and
# its |v| into its row's and its column's sums, each in the order ``_dominant``
# adds them for the entries in draw order: float sums depend on that order,
# and ``tests/test_matio.py`` pins the bytes.

def _standin_scatter(meta, rng, band) -> CsrMatrix:
    """Full diagonal plus (entries - n) unique off-diagonal entries."""
    n = meta.n_rows
    bits, rnd = rng.getrandbits, rng.random
    kn, width = n.bit_length(), 2 * band + 1
    kw = width.bit_length()
    rows = [{} for _ in range(n)]
    absum = [0.0] * n
    todo = meta.entries - n
    while todo:
        i = bits(kn)
        while i >= n:
            i = bits(kn)
        d = bits(kw)
        while d >= width:
            d = bits(kw)
        j = i + d - band
        row = rows[i]
        if d == band or not 0 <= j < n or j in row:
            continue
        v = -1 + 2 * rnd()
        row[j] = v
        a = abs(v)
        absum[i] += a
        absum[j] += a
        todo -= 1
    return _with_diagonal(rows, absum)


def _standin_sherman3(meta, rng) -> CsrMatrix:
    """(entries - n) / 2 unique pairs (i, j), j - i in [1, 50], each with
    its own upper and lower value."""
    n = meta.n_rows
    bits, rnd = rng.getrandbits, rng.random
    m = n - 1
    km = m.bit_length()
    rows = [{} for _ in range(n)]
    absum = [0.0] * n
    todo = (meta.entries - n) // 2
    while todo:
        i = bits(km)
        while i >= m:
            i = bits(km)
        d = bits(6)
        while d >= 50:
            d = bits(6)
        j = i + 1 + d
        row = rows[i]
        if j >= n or j in row:
            continue
        up = -1 + 2 * rnd()
        lo = -1 + 2 * rnd()
        row[j] = up
        rows[j][i] = lo
        absum[i] += abs(up)
        absum[j] += abs(up)
        absum[j] += abs(lo)
        absum[i] += abs(lo)
        todo -= 1
    return _with_diagonal(rows, absum)


def _standin_bcsstk13(meta, rng) -> CsrMatrix:
    """(entries - n) unique lower entries within 300 of the diagonal,
    mirrored."""
    n = meta.n_rows
    bits, rnd = rng.getrandbits, rng.random
    m = n - 1
    km = m.bit_length()
    rows = [{} for _ in range(n)]
    absum = [0.0] * n
    todo = meta.entries - n
    while todo:
        i = bits(km)
        while i >= m:
            i = bits(km)
        i += 1
        w = i if i < 300 else 300
        kw = w.bit_length()
        d = bits(kw)
        while d >= w:
            d = bits(kw)
        j = i - 1 - d
        row = rows[i]
        if j in row:
            continue
        v = -1 + 2 * rnd()
        row[j] = v
        rows[j][i] = v
        a = abs(v)
        absum[i] += a
        absum[j] += a
        absum[j] += a
        absum[i] += a
        todo -= 1
    return _with_diagonal(rows, absum)


# Each stand-in's generator seed, builder and the symmetry it is written
# with. A builder reads the order and the stored-entry count from the
# name's ``TABLE1_EXPECTED`` entry.
_STANDINS = {
    "add32": (101, partial(_standin_scatter, band=40), "general"),
    "utm5940": (102, partial(_standin_scatter, band=104), "general"),
    "sherman3": (103, _standin_sherman3, "general"),
    "codecs4812.dc": (104, partial(_standin_scatter, band=80), "general"),
    "bcsstk13": (105, _standin_bcsstk13, "symmetric"),
}


def gen_standin(name: str) -> tuple:
    """Build the deterministic stand-in for one named collection matrix.

    The genuine collection files are not redistributable with this
    package, so each is replaced by a synthetic matrix reproducing its
    published dimensions, stored-entry count and symmetry class, with a
    diagonally dominant diagonal so the iterative kernels stay finite.
    Returns (CsrMatrix, symmetry tag to write with).
    """
    if name not in _STANDINS:
        raise ParameterError(f"unknown matrix name {name!r}")
    seed, build, symmetry = _STANDINS[name]
    return build(TABLE1_EXPECTED[name], random.Random(seed)), symmetry


def matrix_path(data_dir, name: str) -> Path:
    return Path(data_dir) / f"{name}.mtx"


# Each synthetic family by its ``gen`` flag: what it is, its (n, seed)
# generator and its symmetry tag. A generator looks its function up when it
# runs, so a wrapper installed on this module after import sees the call.
FAMILIES = {
    "spd": ("a random SPD matrix",
            lambda n, seed: gen_spd(n, seed), "symmetric"),
    "banded": ("a random banded matrix",
               lambda n, seed: gen_pentadiagonal(n, seed), "general"),
    "arrow": ("an arrowhead matrix",
              lambda n, seed: gen_arrow(n, seed), "general"),
}


def _build_then_write(data_dir, files) -> list:
    """Build, then write, each ``(path, build, write)`` of ``files``, a
    path in ``data_dir``, as ``write(path, *build())``; returns the paths.

    Every file's content is built before the directory is made and the
    first file written, so a build that raises leaves nothing behind.
    """
    built = [(path, write, build()) for path, build, write in files]
    Path(data_dir).mkdir(parents=True, exist_ok=True)
    for path, write, content in built:
        write(path, *content)
    return [path for path, _, _ in built]


def _family(name, n, seed) -> tuple:
    _, generate, symmetry = FAMILIES[name]
    return generate(n, seed), symmetry


def write_families(data_dir, orders: dict, seed: int, mesh) -> list:
    """Write ``<name><n>s<seed>.mtx`` for each (name, n) in ``orders``, then,
    given ``mesh = (nx, ny)``, ``mesh<nx>x<ny>.txt``; returns the paths.

    An order or a mesh size that fails leaves nothing behind.
    """
    files = [(matrix_path(data_dir, f"{name}{n}s{seed}"),
              partial(_family, name, n, seed), write_matrix_market)
             for name, n in orders.items()]
    if mesh is not None:
        files.append((Path(data_dir, f"mesh{mesh[0]}x{mesh[1]}.txt"),
                      lambda: (gen_tri_mesh(*mesh),), write_mesh))
    return _build_then_write(data_dir, files)


def gen_all_standins(data_dir) -> list:
    """Write every stand-in's .mtx into data_dir, in ``MATRIX_NAMES``
    order; returns the paths.

    All five are built, in this process, before the first is written, so
    a stand-in that raises leaves no file behind.
    """
    return _build_then_write(data_dir, [
        (matrix_path(data_dir, name), partial(gen_standin, name),
         write_matrix_market) for name in MATRIX_NAMES])
