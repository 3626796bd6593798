"""Dense reference routines: frozen values and cross-checks.

The dense path is the measuring stick for every sparse kernel, so it is
pinned here against hand-computed numbers and against a second,
structurally different elimination routine.
"""

import random

import pytest

from sparkbench.core import CsrMatrix, ParameterError, SingularMatrixError
from sparkbench.matio import gen_tri_mesh
from sparkbench.oracles import (
    DenseSquare,
    csr_of,
    dense_assemble,
    dense_direct_solve,
    dense_jacobi_sweep,
    dense_lu_factor,
    dense_lu_solve,
    dense_matmat,
    dense_matvec,
    dense_of,
    dense_permute_sym,
    dense_transpose,
)


def rand_dense(rng, n):
    d = DenseSquare(n)
    for i in range(n):
        s = 0.0
        for j in range(n):
            if i != j:
                v = rng.uniform(-1, 1)
                d.put(i, j, v)
                s += abs(v)
        d.put(i, i, 1.0 + s)
    return d


def test_dense_square_layout():
    d = DenseSquare.from_rows([[1.0, 2.0], [3.0, 4.0]])
    assert d.cells == [1.0, 2.0, 3.0, 4.0]
    assert d.at(1, 0) == 3.0
    d.put(1, 0, 9.0)
    assert d.rows() == [[1.0, 2.0], [9.0, 4.0]]
    assert d == d.copy()


def test_dense_of_rejects_large():
    n = 5000
    m = CsrMatrix(n, n, [0] * (n + 1), [], [])
    with pytest.raises(ParameterError):
        dense_of(m)


def test_matvec_hand_computed():
    d = DenseSquare.from_rows([[2.0, 0.0], [1.0, 3.0]])
    assert dense_matvec(d, [1.0, 2.0]) == [2.0, 7.0]


def test_matmat_hand_computed():
    d = DenseSquare.from_rows([[1.0, 2.0], [0.0, 1.0]])
    b = [[1.0, 0.0], [2.0, 1.0]]
    assert dense_matmat(d, b) == [[5.0, 2.0], [2.0, 1.0]]


def test_transpose_and_permute():
    d = DenseSquare.from_rows([[1.0, 2.0], [3.0, 4.0]])
    assert dense_transpose(d).rows() == [[1.0, 3.0], [2.0, 4.0]]
    # forward [1, 0] swaps the two indices symmetrically
    assert dense_permute_sym(d, [1, 0]).rows() == [[4.0, 3.0], [2.0, 1.0]]


def test_jacobi_sweep_hand_computed():
    d = DenseSquare.from_rows([[4.0, 1.0], [1.0, 3.0]])
    x1 = dense_jacobi_sweep(d, [1.0, 2.0], [0.0, 0.0])
    assert x1 == [0.25, 2.0 / 3.0]
    x2 = dense_jacobi_sweep(d, [1.0, 2.0], x1)
    assert x2 == [(1.0 - 2.0 / 3.0) / 4.0, (2.0 - 0.25) / 3.0]


def test_jacobi_sweep_zero_diagonal():
    d = DenseSquare.from_rows([[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        dense_jacobi_sweep(d, [1.0, 1.0], [0.0, 0.0])


def test_lu_solve_frozen_2x2():
    # A = [[4, 1], [1, 3]], b = [1, 2]; exact solution (1/11, 7/11)
    d = DenseSquare.from_rows([[4.0, 1.0], [1.0, 3.0]])
    x = dense_lu_solve(d, [1.0, 2.0])
    assert abs(x[0] - 0.09090909090909091) < 1e-15
    assert abs(x[1] - 0.6363636363636364) < 1e-15


def test_lu_factor_reconstructs_permuted_rows():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 12)
        a = rand_dense(rng, n)
        lu, row_map = dense_lu_factor(a.copy())
        assert sorted(row_map) == list(range(n))
        # multiply L (unit lower, stored strictly below) by U (upper)
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(min(i, j) + 1):
                    lik = lu.at(i, k) if k < i else 1.0
                    acc += lik * lu.at(k, j)
                assert abs(acc - a.at(row_map[i], j)) < 1e-10


def test_lu_factor_pivots():
    # leading entry zero forces a row swap
    d = DenseSquare.from_rows([[0.0, 1.0], [2.0, 0.0]])
    lu, row_map = dense_lu_factor(d)
    assert row_map == [1, 0]
    x = dense_lu_solve(DenseSquare.from_rows([[0.0, 1.0], [2.0, 0.0]]),
                       [3.0, 4.0])
    assert abs(x[0] - 2.0) < 1e-14 and abs(x[1] - 3.0) < 1e-14


def test_lu_factor_singular():
    d = DenseSquare.from_rows([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        dense_lu_factor(d)


def test_two_solvers_agree():
    # LU with pivoting against straight augmented elimination
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 15)
        a = rand_dense(rng, n)
        b = [rng.uniform(-3, 3) for _ in range(n)]
        x1 = dense_lu_solve(a.copy(), b)
        x2 = dense_direct_solve(a.copy(), b)
        assert all(abs(p - q) <= 1e-9 * max(1.0, abs(p), abs(q))
                   for p, q in zip(x1, x2))


def test_assemble_unit_grid_is_five_point_stencil():
    # Linear elements on a right-triangle unit grid reproduce the classic
    # finite difference Laplacian: 4 on the diagonal, -1 to each grid
    # neighbor, 0 to the diagonal neighbors.
    k = dense_assemble(gen_tri_mesh(2, 2))
    center = 4  # node (1, 1) on the 3x3 node grid
    assert abs(k.at(center, center) - 4.0) < 1e-12
    for nb in (1, 3, 5, 7):
        assert abs(k.at(center, nb) + 1.0) < 1e-12
    for far in (0, 2, 6, 8):
        assert abs(k.at(center, far)) < 1e-12
    # stiffness matrices of this form are symmetric with zero row sums
    n = k.n
    for i in range(n):
        assert abs(sum(k.at(i, j) for j in range(n))) < 1e-12
        for j in range(i):
            assert abs(k.at(i, j) - k.at(j, i)) < 1e-12


def test_csr_of_drops_zeros():
    d = DenseSquare.from_rows([[1.0, 0.0], [0.0, 2.0]])
    m = csr_of(d)
    assert list(m.triples()) == [(0, 0, 1.0), (1, 1, 2.0)]
