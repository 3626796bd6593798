"""Pointer-traversal kernels against the dense reference path.

The expected numbers for the fixed fixtures were computed with the
dense oracle routines and frozen; the sweep-by-sweep and solve
comparisons re-derive them on every run.
"""

import math
import random

import pytest

from sparkbench.core import (
    CsrMatrix,
    DimensionError,
    DivergenceError,
    ParameterError,
    SingularMatrixError,
    build_ortho,
    csr_to_linked,
)
from sparkbench.matio import gen_spd
from sparkbench.oracles import (
    dense_jacobi_sweep,
    dense_lu_solve,
    dense_matmat,
    dense_matvec,
    dense_of,
)
from sparkbench.ptr_kernels import (
    JacobiParams,
    PcgParams,
    dsolve,
    jacit,
    lu_factor_for_dsolve,
    pcg,
    spmatmat,
    spmatvec,
)


def dominant_random(rng, n=None):
    n = n or rng.randint(2, 24)
    triples = []
    for i in range(n):
        row_abs = 0.0
        for j in rng.sample(range(n), rng.randint(0, min(n - 1, 3))):
            if j != i:
                v = rng.uniform(-1, 1)
                triples.append((i, j, v))
                row_abs += abs(v)
        triples.append((i, i, 1.0 + row_abs))
    return CsrMatrix.from_triples(n, n, triples)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def vec_close(xs, ys, tol=1e-12):
    return len(xs) == len(ys) and all(close(a, b, tol) for a, b in zip(xs, ys))


# --- spmatvec / spmatmat ---------------------------------------------------

def test_spmatvec_hand_computed():
    m = CsrMatrix.from_triples(3, 3, [(0, 0, 2.0), (0, 2, 1.0), (2, 1, 4.0)])
    y = spmatvec(csr_to_linked(m), [1.0, 2.0, 3.0])
    assert y == [5.0, 0.0, 8.0]


def test_spmatvec_empty_row_is_exact_zero():
    m = CsrMatrix(2, 2, [0, 0, 1], [0], [3.0])
    y = spmatvec(csr_to_linked(m), [5.0, 7.0])
    assert y[0] == 0.0 and math.copysign(1.0, y[0]) == 1.0


def test_spmatvec_rejects_wrong_length():
    m = CsrMatrix.from_triples(2, 2, [(0, 0, 1.0)])
    with pytest.raises(DimensionError):
        spmatvec(csr_to_linked(m), [1.0])


def test_spmatvec_matches_oracle():
    rng = random.Random(41)
    for _ in range(50):
        m = dominant_random(rng)
        x = [rng.uniform(-2, 2) for _ in range(m.n_rows)]
        assert vec_close(spmatvec(csr_to_linked(m), x),
                         dense_matvec(dense_of(m), x))


def test_spmatmat_matches_oracle():
    rng = random.Random(42)
    for _ in range(30):
        m = dominant_random(rng)
        k = rng.randint(1, 5)
        b = [[rng.uniform(-2, 2) for _ in range(k)] for _ in range(m.n_rows)]
        got = spmatmat(csr_to_linked(m), b)
        want = dense_matmat(dense_of(m), b)
        assert all(vec_close(g, w) for g, w in zip(got, want))


def test_spmatmat_single_column_equals_spmatvec():
    rng = random.Random(43)
    m = dominant_random(rng, 12)
    lk = csr_to_linked(m)
    x = [rng.uniform(-1, 1) for _ in range(12)]
    col = spmatmat(lk, [[v] for v in x])
    assert [r[0] for r in col] == spmatvec(lk, x)


# --- jacit ------------------------------------------------------------------

def test_jacit_frozen_2x2():
    # A = [[4, 1], [1, 3]], b = [1, 2], x0 = 0, five sweeps.
    m = CsrMatrix.from_triples(2, 2, [(0, 0, 4.0), (0, 1, 1.0),
                                      (1, 0, 1.0), (1, 1, 3.0)])
    x = jacit(csr_to_linked(m), [1.0, 2.0], [0.0, 0.0],
              JacobiParams(iterations=5))
    assert x == [0.0920138888888889, 0.6365740740740741]


def test_jacit_matches_oracle_sweeps():
    rng = random.Random(44)
    for _ in range(30):
        m = dominant_random(rng)
        n = m.n_rows
        b = [rng.uniform(-2, 2) for _ in range(n)]
        sweeps = rng.randint(1, 6)
        got = jacit(csr_to_linked(m), b, [0.0] * n,
                    JacobiParams(iterations=sweeps))
        want = [0.0] * n
        d = dense_of(m)
        for _ in range(sweeps):
            want = dense_jacobi_sweep(d, b, want)
        assert vec_close(got, want)


def test_jacit_converges_on_dominant_input():
    m = gen_spd(30, seed=9)
    n = 30
    b = [1.0] * n
    x = jacit(csr_to_linked(m), b, [0.0] * n, JacobiParams(iterations=200))
    resid = [g - 1.0 for g in dense_matvec(dense_of(m), x)]
    assert max(abs(r) for r in resid) < 1e-6


def test_jacit_requires_diagonal():
    m = CsrMatrix.from_triples(2, 2, [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0)])
    with pytest.raises(SingularMatrixError):
        jacit(csr_to_linked(m), [1.0, 1.0], [0.0, 0.0], JacobiParams())
    z = CsrMatrix.from_triples(2, 2, [(0, 0, 0.0), (0, 1, 1.0), (1, 1, 2.0)])
    with pytest.raises(SingularMatrixError):
        jacit(csr_to_linked(z), [1.0, 1.0], [0.0, 0.0], JacobiParams())


def test_jacobi_params_validation():
    with pytest.raises(ParameterError):
        JacobiParams(iterations=0)


def test_jacit_does_not_mutate_x0():
    m = CsrMatrix.from_triples(2, 2, [(0, 0, 2.0), (1, 1, 2.0)])
    x0 = [1.0, 1.0]
    jacit(csr_to_linked(m), [4.0, 4.0], x0, JacobiParams(iterations=3))
    assert x0 == [1.0, 1.0]


# --- dsolve -----------------------------------------------------------------

def test_dsolve_identity_factor():
    m = CsrMatrix.from_triples(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
    lu = lu_factor_for_dsolve(m)
    assert dsolve(lu, [3.0, 4.0]) == [3.0, 4.0]


def test_dsolve_applies_row_permutation():
    # [[0, 2], [3, 0]] requires a pivot swap; solution of b = (2, 3) is (1, 1)
    m = CsrMatrix.from_triples(2, 2, [(0, 1, 2.0), (1, 0, 3.0)])
    lu = lu_factor_for_dsolve(m)
    assert lu.int_to_ext_row_map == [1, 0]
    x = dsolve(lu, [2.0, 3.0])
    assert vec_close(x, [1.0, 1.0], 1e-14)


def test_dsolve_matches_oracle():
    rng = random.Random(45)
    for _ in range(40):
        m = dominant_random(rng)
        n = m.n_rows
        b = [rng.uniform(-2, 2) for _ in range(n)]
        x = dsolve(lu_factor_for_dsolve(m), b)
        assert vec_close(x, dense_lu_solve(dense_of(m), b), 1e-9)
        ax = dense_matvec(dense_of(m), x)
        assert all(abs(p - q) <= 1e-9 * max(1.0, abs(q))
                   for p, q in zip(ax, b))


def test_dsolve_zero_upper_diagonal():
    rows = [[(0, 1.0), (1, 1.0)], [(0, 1.0), (1, 0.0)]]
    lu = build_ortho(2, rows, [0, 1], [0, 1])
    with pytest.raises(SingularMatrixError):
        dsolve(lu, [1.0, 1.0])


def test_dsolve_scatters_through_column_map():
    # same factor, column map swapped: the solution comes out permuted
    rows = [[(0, 2.0), (1, 0.0)], [(0, 0.0), (1, 4.0)]]
    plain = build_ortho(2, [list(r) for r in rows], [0, 1], [0, 1])
    swapped = build_ortho(2, [list(r) for r in rows], [0, 1], [1, 0])
    a = dsolve(plain, [2.0, 4.0])
    b = dsolve(swapped, [2.0, 4.0])
    assert a == [1.0, 1.0]
    assert b == [1.0, 1.0]
    c = dsolve(build_ortho(2, [list(r) for r in rows], [0, 1], [1, 0]),
               [2.0, 8.0])
    assert c == [2.0, 1.0]


# --- pcg --------------------------------------------------------------------

def test_pcg_params_validation():
    with pytest.raises(ParameterError):
        PcgParams(max_iterations=0)
    with pytest.raises(ParameterError):
        PcgParams(tolerance=0.0)


def test_pcg_zero_rhs_short_circuits():
    m = gen_spd(10, seed=2)
    x, used, rel = pcg(csr_to_linked(m), [0.0] * 10, PcgParams())
    assert x == [0.0] * 10 and used == 0 and rel == 0.0


def test_pcg_converges_and_reports_true_residual():
    rng = random.Random(46)
    for t in range(15):
        n = rng.randint(5, 40)
        m = gen_spd(n, seed=100 + t)
        b = [rng.uniform(-2, 2) for _ in range(n)]
        x, used, rel = pcg(csr_to_linked(m), b, PcgParams())
        assert rel <= 1e-10
        assert 0 < used <= 1000
        ax = dense_matvec(dense_of(m), x)
        num = math.sqrt(sum((p - q) ** 2 for p, q in zip(ax, b)))
        den = math.sqrt(sum(q * q for q in b))
        assert abs(rel - num / den) <= 1e-10 * max(1.0, rel)


def test_pcg_respects_iteration_cap():
    m = gen_spd(30, seed=3)
    b = [1.0] * 30
    x, used, rel = pcg(csr_to_linked(m), b,
                       PcgParams(max_iterations=2, tolerance=1e-300))
    assert used == 2
    assert rel > 0.0 and math.isfinite(rel)


def test_pcg_breakdown_raises():
    # symmetric indefinite: the very first search direction has p.q = 0
    m = CsrMatrix.from_triples(2, 2, [(0, 0, 1.0), (1, 1, -1.0)])
    with pytest.raises(DivergenceError):
        pcg(csr_to_linked(m), [1.0, 1.0], PcgParams())


def test_pcg_requires_nonzero_diagonal():
    m = CsrMatrix.from_triples(2, 2, [(0, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(SingularMatrixError):
        pcg(csr_to_linked(m), [1.0, 1.0], PcgParams())
