"""Pointer-traversal kernels over linked sparse storage.

Five benchmark kernels whose defining cost is chasing element chains:

* ``spmatvec``: sparse matrix times dense vector, chain walk innermost.
* ``spmatmat``: sparse matrix times dense matrix; here the chain walk is
  the outer loop and a regular dense-column loop sits innermost.
* ``jacit``: Jacobi iteration where each row is walked by two
  consecutive while-loops split at the diagonal, the first terminating
  on a data-dependent column comparison.
* ``dsolve``: forward/backward substitution on a combined LU factor held
  in orthogonal storage, with gather and scatter through permutation
  maps around the substitutions.
* ``pcg``: conjugate gradient with a diagonal preconditioner, built on
  spmatvec plus dense dot products.

Factorization itself is setup, not a kernel: ``lu_factor_for_dsolve``
produces the combined factor via the dense reference path and is never
timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    CsrMatrix,
    DenseMatrix,
    DenseVector,
    DimensionError,
    DivergenceError,
    LinkedRowMatrix,
    OrthoLinkedMatrix,
    ParameterError,
    SingularMatrixError,
    build_ortho,
    dense_matrix_dims,
)


@dataclass
class JacobiParams:
    """Sweep count for jacit."""

    iterations: int = 100

    def __post_init__(self):
        if self.iterations < 1:
            raise ParameterError("iterations must be at least 1")


@dataclass
class PcgParams:
    max_iterations: int = 1000
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be at least 1")
        if not self.tolerance > 0.0:
            raise ParameterError("tolerance must be positive")


def spmatvec(left: LinkedRowMatrix, right: DenseVector) -> DenseVector:
    """result[r] = sum over the row-r chain of value * right[col].

    The chain walk is the innermost loop; rows with empty chains yield
    exactly 0.0.
    """
    n = left.size
    if len(right) != n:
        raise DimensionError(f"vector length {len(right)} != matrix size {n}")
    first = left.first_in_row
    out = [0.0] * n
    for row in range(n):
        e = first[row]
        acc = 0.0
        while e is not None:
            acc += e.value * right[e.col]
            e = e.next_in_row
        out[row] = acc
    return out


def spmatmat(left: LinkedRowMatrix, right: DenseMatrix) -> DenseMatrix:
    """Sparse matrix times dense matrix.

    The loop nest is row, then chain, then dense column: each visited
    element is applied to a whole row of the right operand, so the
    pointer traversal is the outer loop and the innermost loop is
    regular. Restricted to one dense column this performs exactly the
    spmatvec sums in the same order.
    """
    n = left.size
    r_rows, r_cols = dense_matrix_dims(right)
    if r_rows != n:
        raise DimensionError(f"right operand has {r_rows} rows, expected {n}")
    first = left.first_in_row
    out = [[0.0] * r_cols for _ in range(n)]
    cols = range(r_cols)
    for row in range(n):
        out_row = out[row]
        e = first[row]
        while e is not None:
            v = e.value
            right_row = right[e.col]
            for c in cols:
                out_row[c] += v * right_row[c]
            e = e.next_in_row
    return out


def jacit(a: LinkedRowMatrix, b: DenseVector, x0: DenseVector,
          p: JacobiParams) -> DenseVector:
    """Jacobi iteration with double buffering.

    Each sweep walks every row chain in two consecutive while-loops: the
    first consumes elements with col < i (its exit condition depends on
    loaded data), the diagonal is taken between the loops, and the
    second consumes the rest. All updates of one sweep read the previous
    sweep's buffer. Runs exactly p.iterations sweeps.
    """
    n = a.size
    if len(b) != n or len(x0) != n:
        raise DimensionError("operand lengths do not match matrix size")
    first = a.first_in_row
    x_old = list(x0)
    x_new = [0.0] * n
    for _ in range(p.iterations):
        for i in range(n):
            acc = b[i]
            e = first[i]
            while e is not None and e.col < i:
                acc -= e.value * x_old[e.col]
                e = e.next_in_row
            if e is None or e.col != i:
                raise SingularMatrixError(f"row {i} has no diagonal element")
            diag = e.value
            if diag == 0.0:
                raise SingularMatrixError(f"zero diagonal value at row {i}")
            e = e.next_in_row
            while e is not None:
                acc -= e.value * x_old[e.col]
                e = e.next_in_row
            x_new[i] = acc / diag
        x_old, x_new = x_new, x_old
    return x_old


def dsolve(lu: OrthoLinkedMatrix, rhs: DenseVector) -> DenseVector:
    """Solve L U x = P rhs on a combined factor, with gather and scatter.

    Four phases:

    1. gather: intermediate[i] = rhs[int_to_ext_row_map[i]]
    2. forward substitution on the unit-lower factor, walking column
       chains downward from each diagonal element
    3. backward substitution on the upper factor, walking row chains
       rightward from each diagonal element and dividing by it, in place
       on the intermediate vector
    4. scatter: solution[int_to_ext_col_map[i]] = intermediate[i]
    """
    n = lu.size
    if len(rhs) != n:
        raise DimensionError(f"rhs length {len(rhs)} != matrix size {n}")
    row_map = lu.int_to_ext_row_map
    col_map = lu.int_to_ext_col_map
    diag = lu.diag

    intermediate = [0.0] * n
    for i in range(n):
        intermediate[i] = rhs[row_map[i]]

    for j in range(n):
        cj = intermediate[j]
        e = diag[j].next_in_col
        while e is not None:
            intermediate[e.row] -= e.value * cj
            e = e.next_in_col

    for i in range(n - 1, -1, -1):
        acc = intermediate[i]
        e = diag[i].next_in_row
        while e is not None:
            acc -= e.value * intermediate[e.col]
            e = e.next_in_row
        d = diag[i].value
        if d == 0.0:
            raise SingularMatrixError(f"zero upper-factor diagonal at row {i}")
        intermediate[i] = acc / d

    solution = [0.0] * n
    for i in range(n):
        solution[col_map[i]] = intermediate[i]
    return solution


def lu_factor_for_dsolve(m: CsrMatrix) -> OrthoLinkedMatrix:
    """Factor a matrix into the combined LU structure dsolve consumes.

    Setup only, never timed. The factorization runs on the dense
    reference path (partial pivoting); the unit-lower factor's
    strictly-lower entries and the full upper factor are merged into one
    orthogonal matrix. int_to_ext_row_map records the pivot row order
    (position i holds original row row_map[i]); the column map is the
    identity. Exact zeros are dropped, except diagonal elements which
    are always kept.
    """
    # imported here so that a cell's runner loads no reference code
    from .oracles import dense_lu_factor, dense_of
    if not m.is_square:
        raise DimensionError("factorization requires a square matrix")
    lu, row_map = dense_lu_factor(dense_of(m))
    n = lu.n
    rows = []
    for i in range(n):
        base = i * n
        row = []
        for j in range(n):
            v = lu.cells[base + j]
            if v != 0.0 or j == i:
                row.append((j, v))
        rows.append(row)
    return build_ortho(n, rows, row_map, list(range(n)))


def _dot(u: list, v: list) -> float:
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def pcg(a: LinkedRowMatrix, b: DenseVector, p: PcgParams) -> tuple:
    """Preconditioned conjugate gradient with the diagonal preconditioner.

    Starts from x = 0 and stops when the iterate's relative residual
    drops to p.tolerance or p.max_iterations is reached. The matrix is
    touched only through spmatvec, so every iteration pays one full
    chain traversal; everything else is dense dot products and axpys.

    Returns (x, iterations_used, relative residual) where the
    final residual is recomputed from scratch with one extra spmatvec,
    not taken from the recurrence.
    """
    n = a.size
    if len(b) != n:
        raise DimensionError(f"rhs length {len(b)} != matrix size {n}")
    diag = [0.0] * n
    for i in range(n):
        e = a.first_in_row[i]
        while e is not None and e.col < i:
            e = e.next_in_row
        if e is None or e.col != i or e.value == 0.0:
            raise SingularMatrixError(
                f"diagonal preconditioner undefined at row {i}")
        diag[i] = e.value

    b_norm = math.sqrt(_dot(b, b))
    x = [0.0] * n
    if b_norm == 0.0:
        return x, 0, 0.0

    r = list(b)
    z = [r[i] / diag[i] for i in range(n)]
    d = list(z)
    rz = _dot(r, z)
    iterations_used = 0
    for it in range(1, p.max_iterations + 1):
        q = spmatvec(a, d)
        dq = _dot(d, q)
        if dq == 0.0 or not math.isfinite(dq):
            raise DivergenceError(f"search direction broke down at step {it}")
        alpha = rz / dq
        for i in range(n):
            x[i] += alpha * d[i]
            r[i] -= alpha * q[i]
        iterations_used = it
        rel = math.sqrt(_dot(r, r)) / b_norm
        if not math.isfinite(rel):
            raise DivergenceError(f"residual became non-finite at step {it}")
        if rel <= p.tolerance:
            break
        for i in range(n):
            z[i] = r[i] / diag[i]
        rz_new = _dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        for i in range(n):
            d[i] = z[i] + beta * d[i]

    final = spmatvec(a, x)
    acc = 0.0
    for i in range(n):
        t = b[i] - final[i]
        acc += t * t
    return x, iterations_used, math.sqrt(acc) / b_norm
