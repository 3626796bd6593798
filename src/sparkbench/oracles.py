"""Dense brute-force reference implementations.

Everything in this module exists to check the sparse kernels from the
outside: straightforward textbook routines over a flat dense block,
sharing no code with the kernel modules. None of it is ever timed.

The dense container here is deliberately different from the kernels'
list-of-rows matrices: one contiguous row-major block, addressed by
index arithmetic.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    CsrMatrix,
    DimensionError,
    GeometryError,
    ParameterError,
    SingularMatrixError,
)

_SIZE_GUARD = 4096
_PIVOT_TINY = 1e-300


class DenseSquare:
    """n x n dense matrix in one contiguous row-major block."""

    __slots__ = ("n", "cells")

    def __init__(self, n: int, cells: Optional[list] = None):
        if n < 0:
            raise DimensionError("negative dimension")
        self.n = n
        if cells is None:
            self.cells = [0.0] * (n * n)
        else:
            if len(cells) != n * n:
                raise DimensionError("cell block does not match n*n")
            self.cells = list(cells)

    def at(self, i: int, j: int) -> float:
        return self.cells[i * self.n + j]

    def put(self, i: int, j: int, v: float) -> None:
        self.cells[i * self.n + j] = v

    @classmethod
    def from_rows(cls, rows: list) -> "DenseSquare":
        n = len(rows)
        cells = []
        for r in rows:
            if len(r) != n:
                raise DimensionError("from_rows requires a square row list")
            cells.extend(float(v) for v in r)
        return cls(n, cells)

    def rows(self) -> list:
        n = self.n
        return [self.cells[i * n:(i + 1) * n] for i in range(n)]

    def copy(self) -> "DenseSquare":
        return DenseSquare(self.n, self.cells)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DenseSquare)
                and self.n == other.n and self.cells == other.cells)


def dense_of(m: CsrMatrix) -> DenseSquare:
    """Densify a CSR matrix.

    Absent entries become 0.0; explicitly stored zeros are
    indistinguishable from absent ones afterwards. Guarded against
    accidental densification of large inputs.
    """
    if not m.is_square:
        raise DimensionError("dense_of requires a square matrix")
    n = m.n_rows
    if n > _SIZE_GUARD:
        raise ParameterError(f"refusing to densify n={n} > {_SIZE_GUARD}")
    out = DenseSquare(n)
    for i, j, v in m.triples():
        out.cells[i * n + j] = v
    return out


def csr_of(d: DenseSquare) -> CsrMatrix:
    """Sparsify a dense block, dropping exact zeros."""
    n = d.n
    row_ptr = [0] * (n + 1)
    col_ind = []
    values = []
    for i in range(n):
        base = i * n
        for j in range(n):
            v = d.cells[base + j]
            if v != 0.0:
                col_ind.append(j)
                values.append(v)
        row_ptr[i + 1] = len(col_ind)
    return CsrMatrix(n, n, row_ptr, col_ind, values)


def dense_matvec(a: DenseSquare, x: list) -> list:
    if len(x) != a.n:
        raise DimensionError("vector length does not match matrix")
    n = a.n
    out = [0.0] * n
    for i in range(n):
        base = i * n
        acc = 0.0
        for j in range(n):
            acc += a.cells[base + j] * x[j]
        out[i] = acc
    return out


def dense_matmat(a: DenseSquare, b_rows: list) -> list:
    """a (n x n) times a list-of-rows dense matrix (n x k)."""
    n = a.n
    if len(b_rows) != n:
        raise DimensionError("row count of right operand does not match")
    k = len(b_rows[0]) if n else 0
    out = [[0.0] * k for _ in range(n)]
    for i in range(n):
        base = i * n
        row_out = out[i]
        for c in range(k):
            acc = 0.0
            for j in range(n):
                acc += a.cells[base + j] * b_rows[j][c]
            row_out[c] = acc
    return out


def dense_transpose(a: DenseSquare) -> DenseSquare:
    n = a.n
    out = DenseSquare(n)
    for i in range(n):
        for j in range(n):
            out.cells[j * n + i] = a.cells[i * n + j]
    return out


def dense_permute_sym(a: DenseSquare, forward: list) -> DenseSquare:
    """B with B[forward[i]][forward[j]] = A[i][j]."""
    n = a.n
    if sorted(forward) != list(range(n)):
        raise ParameterError("forward is not a permutation of [0, n)")
    out = DenseSquare(n)
    for i in range(n):
        fi = forward[i] * n
        base = i * n
        for j in range(n):
            out.cells[fi + forward[j]] = a.cells[base + j]
    return out


def dense_jacobi_sweep(a: DenseSquare, b: list, x: list) -> list:
    """One simultaneous-update Jacobi sweep: all updates read the old x."""
    n = a.n
    if len(b) != n or len(x) != n:
        raise DimensionError("operand lengths do not match")
    out = [0.0] * n
    for i in range(n):
        base = i * n
        d = a.cells[base + i]
        if d == 0.0:
            raise SingularMatrixError(f"zero diagonal at row {i}")
        acc = b[i]
        for j in range(n):
            if j != i:
                acc -= a.cells[base + j] * x[j]
        out[i] = acc / d
    return out


def dense_lu_factor(a: DenseSquare) -> tuple:
    """Doolittle LU with partial pivoting.

    Returns (lu, row_map) where lu packs unit-lower L (implicit diagonal)
    below the diagonal and U on and above it, and row_map[i] is the
    original row index that ended up in position i, so that L*U equals A
    with its rows taken in row_map order.
    """
    n = a.n
    lu = a.copy()
    row_map = list(range(n))
    c = lu.cells
    for k in range(n):
        p = k
        best = abs(c[k * n + k])
        for i in range(k + 1, n):
            m = abs(c[i * n + k])
            if m > best:
                best = m
                p = i
        if best < _PIVOT_TINY:
            raise SingularMatrixError(f"pivot {best!r} at column {k}")
        if p != k:
            kb, pb = k * n, p * n
            c[kb:kb + n], c[pb:pb + n] = c[pb:pb + n], c[kb:kb + n]
            row_map[k], row_map[p] = row_map[p], row_map[k]
        piv = c[k * n + k]
        for i in range(k + 1, n):
            f = c[i * n + k] / piv
            c[i * n + k] = f
            if f != 0.0:
                ib, kb = i * n, k * n
                for j in range(k + 1, n):
                    c[ib + j] -= f * c[kb + j]
    return lu, row_map


def dense_lu_solve(a: DenseSquare, b: list) -> list:
    """Solve a x = b via LU factorization plus two substitutions."""
    n = a.n
    if len(b) != n:
        raise DimensionError("rhs length does not match matrix")
    lu, row_map = dense_lu_factor(a)
    c = lu.cells
    y = [b[row_map[i]] for i in range(n)]
    for i in range(n):
        base = i * n
        acc = y[i]
        for j in range(i):
            acc -= c[base + j] * y[j]
        y[i] = acc
    for i in range(n - 1, -1, -1):
        base = i * n
        acc = y[i]
        for j in range(i + 1, n):
            acc -= c[base + j] * y[j]
        y[i] = acc / c[base + i]
    return y


def dense_direct_solve(a: DenseSquare, b: list) -> list:
    """Solve a x = b by Gaussian elimination with partial pivoting.

    Works on an augmented copy and never forms L, so it is an
    independent path from dense_lu_solve (the two cross-check each
    other).
    """
    n = a.n
    if len(b) != n:
        raise DimensionError("rhs length does not match matrix")
    aug = [a.cells[i * n:(i + 1) * n] + [float(b[i])] for i in range(n)]
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(aug[r][k]))
        if abs(aug[p][k]) < _PIVOT_TINY:
            raise SingularMatrixError(f"pivot at column {k} is numerically zero")
        if p != k:
            aug[k], aug[p] = aug[p], aug[k]
        pivot_row = aug[k]
        piv = pivot_row[k]
        for i in range(k + 1, n):
            f = aug[i][k] / piv
            if f != 0.0:
                row = aug[i]
                for j in range(k, n + 1):
                    row[j] -= f * pivot_row[j]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n]
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    return x


def dense_assemble(mesh) -> DenseSquare:
    """Assemble the global stiffness matrix of a triangular mesh, densely.

    The per-element matrix is derived from scratch: for each local node
    the linear shape function N(x, y) = alpha + beta*x + gamma*y is found
    by solving the 3x3 interpolation system, and the entry is the dot
    product of shape-function gradients integrated over the element
    (gradients are constant, so that is just a product with the area).
    This is a different derivation from the coordinate-difference formula
    used by the kernel under test.
    """
    n = len(mesh.nodes)
    if n > _SIZE_GUARD:
        raise ParameterError(f"refusing dense assembly for {n} nodes")
    out = DenseSquare(n)
    for ei, (na, nb, nc) in enumerate(mesh.elements):
        pts = [mesh.nodes[na], mesh.nodes[nb], mesh.nodes[nc]]
        (x1, y1), (x2, y2), (x3, y3) = pts
        det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if det == 0.0:
            raise GeometryError(f"degenerate element {ei}")
        area = abs(det) / 2.0
        vandermonde = DenseSquare.from_rows(
            [[1.0, x, y] for (x, y) in pts])
        grads = []
        for local in range(3):
            rhs = [0.0, 0.0, 0.0]
            rhs[local] = 1.0
            coef = dense_direct_solve(vandermonde, rhs)
            grads.append((coef[1], coef[2]))
        glob = (na, nb, nc)
        for li in range(3):
            gi = glob[li]
            bi, ci = grads[li]
            for lj in range(3):
                gj = glob[lj]
                bj, cj = grads[lj]
                out.cells[gi * n + gj] += (bi * bj + ci * cj) * area
    return out
