"""Sparse storage schemes shared by all kernels.

Three representations of the same mathematical object:

* ``LinkedRowMatrix``: compressed row storage where each row is a singly
  linked chain of individually heap-allocated elements. Walking a chain is
  a pointer chase; the column index of each node indexes dense operands.
* ``OrthoLinkedMatrix``: every element sits in both a row chain and a
  column chain, so the matrix can be traversed row-wise and column-wise.
  Carries internal/external permutation maps and direct diagonal links.
* ``CsrMatrix``: array form of compressed row storage (row offsets,
  column indices, values), the substrate for the indirection-array
  kernels.

Dense operands are plain Python containers: a vector is a list of floats
and a dense matrix is a list of per-row lists, so a 2-D access costs two
indirections (row table, then row).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


class SparkBenchError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SparkBenchError):
    """Operand shapes do not agree, or a square matrix was required."""


class ParameterError(SparkBenchError):
    """An argument is outside its documented domain."""


class SingularMatrixError(SparkBenchError):
    """A zero (or numerically zero) pivot or diagonal was encountered."""


class PermutationError(SparkBenchError):
    """An index array is not a valid permutation for the operand."""


class GeometryError(SparkBenchError):
    """A mesh element is degenerate."""


class SymmetryError(SparkBenchError):
    """An operation required a (structurally) symmetric matrix."""


class DivergenceError(SparkBenchError):
    """An iteration produced non-finite values."""


DenseVector = list  # list[float]
DenseMatrix = list  # list[list[float]]


class SparseElement:
    """One stored matrix entry, allocated as its own heap node.

    ``row`` and ``next_in_col`` are populated only in orthogonal storage;
    row-linked matrices leave them ``None``.
    """

    __slots__ = ("value", "col", "row", "next_in_row", "next_in_col")

    def __init__(self, value: float, col: int, row: Optional[int] = None):
        self.value = value
        self.col = col
        self.row = row
        self.next_in_row: Optional[SparseElement] = None
        self.next_in_col: Optional[SparseElement] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"SparseElement({self.value!r}, col={self.col}, row={self.row})"


@dataclass
class CsrMatrix:
    """Compressed sparse row storage backed by plain arrays.

    ``row_ptr`` has length ``n_rows + 1`` with ``row_ptr[0] == 0`` and
    ``row_ptr[-1] == nnz``; column indices are strictly increasing within
    each row (duplicates are rejected at construction).
    """

    n_rows: int
    n_cols: int
    row_ptr: list
    col_ind: list
    values: list

    @property
    def nnz(self) -> int:
        return len(self.col_ind)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @classmethod
    def from_triples(cls, n_rows: int, n_cols: int,
                     triples: Iterable[tuple]) -> "CsrMatrix":
        """Build a CSR matrix from (row, col, value) triples in any order.

        The triples sort as whole tuples: a value only breaks a tie between
        two entries at one position, and such a pair raises anyway.
        """
        entries = sorted(triples)
        row_ptr = [0] * (n_rows + 1)
        col_ind = []
        values = []
        prev = None
        for r, c, v in entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ParameterError(f"entry ({r}, {c}) outside {n_rows}x{n_cols}")
            if prev == (r, c):
                raise ParameterError(f"duplicate entry at ({r}, {c})")
            prev = (r, c)
            row_ptr[r + 1] += 1
            col_ind.append(c)
            values.append(float(v))
        for i in range(n_rows):
            row_ptr[i + 1] += row_ptr[i]
        return cls(n_rows, n_cols, row_ptr, col_ind, values)

    def triples(self) -> Iterator[tuple]:
        """Yield (row, col, value) in row-major order."""
        for i in range(self.n_rows):
            for k in range(self.row_ptr[i], self.row_ptr[i + 1]):
                yield i, self.col_ind[k], self.values[k]

    def validate(self) -> None:
        """Raise if any structural invariant is violated."""
        if self.n_rows < 0 or self.n_cols < 0:
            raise DimensionError("negative dimension")
        if len(self.row_ptr) != self.n_rows + 1:
            raise ParameterError("row_ptr length must be n_rows + 1")
        if self.row_ptr[0] != 0:
            raise ParameterError("row_ptr[0] must be 0")
        if self.row_ptr[-1] != len(self.col_ind) or len(self.col_ind) != len(self.values):
            raise ParameterError("row_ptr[-1], col_ind and values lengths disagree")
        for i in range(self.n_rows):
            if self.row_ptr[i] > self.row_ptr[i + 1]:
                raise ParameterError(f"row_ptr decreases at row {i}")
            prev_col = -1
            for k in range(self.row_ptr[i], self.row_ptr[i + 1]):
                c = self.col_ind[k]
                if not (0 <= c < self.n_cols):
                    raise ParameterError(f"column index {c} out of range in row {i}")
                if c <= prev_col:
                    raise ParameterError(f"columns not strictly increasing in row {i}")
                prev_col = c


class LinkedRowMatrix:
    """Square sparse matrix whose rows are singly linked element chains.

    Every element is an individually allocated node, created in row-major
    order; chains are the pointer-chasing substrate the pointer kernels
    traverse.
    """

    def __init__(self, size: int):
        if size < 0:
            raise DimensionError("negative size")
        self.size = size
        self.first_in_row: list = [None] * size

    def row_elements(self, i: int) -> Iterator[SparseElement]:
        e = self.first_in_row[i]
        while e is not None:
            yield e
            e = e.next_in_row


class OrthoLinkedMatrix(LinkedRowMatrix):
    """Sparse matrix with orthogonal (row and column) element chains.

    Both chain families visit the same element set. ``diag[i]`` links the
    diagonal element of row i directly; every diagonal element exists by
    construction. The two maps translate internal (storage) indices to
    external (caller) indices for the gather/scatter phases.
    """

    def __init__(self, size: int):
        super().__init__(size)
        self.first_in_col: list = [None] * size
        self.int_to_ext_row_map: list = list(range(size))
        self.int_to_ext_col_map: list = list(range(size))
        self.diag: list = [None] * size


@dataclass
class Permutation:
    """A relabeling of [0, n): ``forward[old] = new`` and its inverse."""

    forward: list
    inverse: list = field(default=None)

    def __post_init__(self):
        n = len(self.forward)
        if sorted(self.forward) != list(range(n)):
            raise PermutationError("forward is not a bijection on [0, n)")
        if self.inverse is None:
            inv = [0] * n
            for old, new in enumerate(self.forward):
                inv[new] = old
            self.inverse = inv
        else:
            if len(self.inverse) != n:
                raise PermutationError("inverse and forward differ in length")
            for old, new in enumerate(self.forward):
                if self.inverse[new] != old:
                    raise PermutationError("inverse does not invert forward")

    @property
    def n(self) -> int:
        return len(self.forward)


def csr_to_linked(m: CsrMatrix) -> LinkedRowMatrix:
    """Build row-linked storage from a CSR matrix.

    Nodes are allocated one by one in row-major order, one per entry and
    nothing else in between, which fixes a deterministic heap layout
    baseline for the pointer kernels. Each node is made with
    ``object.__new__`` and its five slots are stored directly, which skips
    the per-node ``__init__`` call but allocates the same objects.
    """
    if not m.is_square:
        raise DimensionError(f"linked storage requires a square matrix, got "
                             f"{m.n_rows}x{m.n_cols}")
    m.validate()
    out = LinkedRowMatrix(m.n_rows)
    first_in_row = out.first_in_row
    row_ptr, col_ind, values = m.row_ptr, m.col_ind, m.values
    new, node = object.__new__, SparseElement
    for i in range(m.n_rows):
        prev = None
        for k in range(row_ptr[i], row_ptr[i + 1]):
            e = new(node)
            e.value = values[k]
            e.col = col_ind[k]
            e.row = None
            e.next_in_row = None
            e.next_in_col = None
            if prev is None:
                first_in_row[i] = e
            else:
                prev.next_in_row = e
            prev = e
    return out


def linked_to_csr(m: LinkedRowMatrix) -> CsrMatrix:
    """Exact inverse of :func:`csr_to_linked`; on orthogonal storage, its
    row-chain contents as CSR."""
    row_ptr = [0] * (m.size + 1)
    col_ind = []
    values = []
    for i in range(m.size):
        for e in m.row_elements(i):
            col_ind.append(e.col)
            values.append(e.value)
        row_ptr[i + 1] = len(col_ind)
    return CsrMatrix(m.size, m.size, row_ptr, col_ind, values)


def build_ortho(size: int, rows: Iterable, row_map: list, col_map: list) -> OrthoLinkedMatrix:
    """Assemble orthogonal storage from rows of (col, value) pairs.

    ``rows`` yields the ``size`` rows in order, each sorted by column and
    holding the diagonal entry; it is walked once, one row at a time, so
    it may read each row only when the build reaches it. Elements are
    allocated row-major, one per entry, with no other node in between,
    as :func:`csr_to_linked` does; a row that makes its column ints and
    value floats as it is walked also allocates those between the nodes.
    Column chains are threaded in the same pass, so they come out sorted
    by row. A node's links are set only by its successor, or, at the end
    of its row or of the build, to ``None``.
    """
    out = OrthoLinkedMatrix(size)
    out.int_to_ext_row_map = list(row_map)
    out.int_to_ext_col_map = list(col_map)
    first_in_row, first_in_col, diag = out.first_in_row, out.first_in_col, out.diag
    col_tails: list = [None] * size
    new, node = object.__new__, SparseElement
    built = 0
    for i, row in enumerate(rows):
        if i == size:
            raise DimensionError(f"more than {size} rows")
        prev = None
        for c, v in row:
            e = new(node)
            e.value = v
            e.col = c
            e.row = i
            if prev is None:
                first_in_row[i] = e
            else:
                prev.next_in_row = e
            prev = e
            tail = col_tails[c]
            if tail is None:
                first_in_col[c] = e
            else:
                tail.next_in_col = e
            col_tails[c] = e
            if c == i:
                diag[i] = e
        if diag[i] is None:
            raise SingularMatrixError(f"row {i} has no diagonal element")
        prev.next_in_row = None
        built = i + 1
    if built != size:
        raise DimensionError(f"{built} rows for size {size}")
    for tail in col_tails:  # every column holds its diagonal
        tail.next_in_col = None
    return out


def csr_to_ortho(m: CsrMatrix) -> OrthoLinkedMatrix:
    """Build orthogonal storage from a CSR matrix.

    Structurally missing diagonal entries are inserted with value 0.0 so
    that the diagonal links are always populated (the triangular solve
    divides by them). Both permutation maps start as the identity.
    """
    if not m.is_square:
        raise DimensionError(f"orthogonal storage requires a square matrix, got "
                             f"{m.n_rows}x{m.n_cols}")
    m.validate()
    rows = []
    for i in range(m.n_rows):
        row = []
        seen_diag = False
        for k in range(m.row_ptr[i], m.row_ptr[i + 1]):
            c = m.col_ind[k]
            if c == i:
                seen_diag = True
            elif c > i and not seen_diag:
                row.append((i, 0.0))
                seen_diag = True
            row.append((c, m.values[k]))
        if not seen_diag:
            row.append((i, 0.0))
        rows.append(row)
    return build_ortho(m.n_rows, rows, list(range(m.n_rows)), list(range(m.n_rows)))


ortho_to_csr = linked_to_csr


def dense_matrix_dims(m: list) -> tuple:
    """(n_rows, n_cols) of a list-of-rows dense matrix; checks rectangularity."""
    n_rows = len(m)
    if n_rows == 0:
        return 0, 0
    n_cols = len(m[0])
    for row in m:
        if len(row) != n_cols:
            raise DimensionError("ragged dense matrix")
    return n_rows, n_cols
