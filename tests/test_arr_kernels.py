"""Indirection-array kernels: assembly, transposition, reordering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FLOATS, csr_matrices
from sparkbench.arr_kernels import (
    asm_assemble,
    asm_numeric,
    asm_symbolic,
    bandwidth,
    cmck,
    local_stiffness,
    mperm,
    trmat,
    _mperm_fill,
)
from sparkbench.core import (
    CsrMatrix,
    DimensionError,
    GeometryError,
    Permutation,
    PermutationError,
    SymmetryError,
)
from sparkbench.matio import (detect_symmetry, gen_arrow, gen_pentadiagonal, gen_tri_mesh,
                              symmetrize_lower)
from sparkbench.oracles import (
    csr_of,
    dense_assemble,
    dense_of,
    dense_permute_sym,
    dense_transpose,
)


def sym_random(rng, n=None):
    n = n or rng.randint(2, 20)
    triples = {}
    for i in range(n):
        triples[(i, i)] = rng.uniform(0.5, 2.0)
        for j in rng.sample(range(i), min(i, rng.randint(0, 3))):
            v = rng.uniform(-1, 1)
            triples[(i, j)] = v
            triples[(j, i)] = v
    return CsrMatrix.from_triples(
        n, n, [(i, j, v) for (i, j), v in triples.items()])


@st.composite
def symmetric_patterns(draw):
    """Up to 30x30 with a symmetric pattern, diagonals optional."""
    n = draw(st.integers(1, 30))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=45))
    cells = edges | {(j, i) for i, j in edges}
    return CsrMatrix.from_triples(n, n, [(i, j, 1.0) for i, j in cells])


def _components(m):
    """Connected components of a symmetric pattern, as sets of nodes."""
    seen = [False] * m.n_rows
    out = []
    for s in range(m.n_rows):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = {s}, [s]
        while stack:
            v = stack.pop()
            for k in range(m.row_ptr[v], m.row_ptr[v + 1]):
                u = m.col_ind[k]
                if not seen[u]:
                    seen[u] = True
                    comp.add(u)
                    stack.append(u)
        out.append(comp)
    return out


# --- element assembly -------------------------------------------------------

def test_local_stiffness_unit_right_triangle():
    k = local_stiffness((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert k == [[1.0, -0.5, -0.5],
                 [-0.5, 0.5, 0.0],
                 [-0.5, 0.0, 0.5]]


def test_local_stiffness_translation_invariant():
    a = local_stiffness((0.0, 0.0), (2.0, 0.0), (0.0, 3.0))
    b = local_stiffness((5.0, -1.0), (7.0, -1.0), (5.0, 2.0))
    for ra, rb in zip(a, b):
        for va, vb in zip(ra, rb):
            assert abs(va - vb) < 1e-12


def test_local_stiffness_degenerate_triangle():
    with pytest.raises(GeometryError):
        local_stiffness((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))


def test_asm_symbolic_pattern_covers_shared_nodes():
    mesh = gen_tri_mesh(2, 1)
    k, slots = asm_symbolic(mesh)
    assert k.n_rows == len(mesh.nodes)
    assert len(slots) == len(mesh.elements)
    assert all(len(s) == 9 for s in slots)
    cols = {(i, j) for i, j, _ in k.triples()}
    for tri in mesh.elements:
        for a in tri:
            for b in tri:
                assert (a, b) in cols


def test_asm_numeric_adds_into_slots():
    mesh = gen_tri_mesh(1, 1)
    k, slots = asm_symbolic(mesh)
    asm_numeric(mesh, k, slots)
    once = [v for v in k.values]
    asm_numeric(mesh, k, slots)
    assert k.values == [2.0 * v for v in once]


def test_assemble_matches_oracle():
    for nx, ny in [(1, 1), (2, 2), (3, 2), (4, 5)]:
        mesh = gen_tri_mesh(nx, ny)
        got = dense_of(asm_assemble(mesh))
        want = dense_assemble(mesh)
        diff = max(abs(a - b) for a, b in zip(got.cells, want.cells))
        assert diff <= 1e-12


def test_assemble_unit_grid_center_row():
    k = asm_assemble(gen_tri_mesh(2, 2))
    vals = {(i, j): v for i, j, v in k.triples()}
    assert abs(vals[(4, 4)] - 4.0) < 1e-12
    for nb in (1, 3, 5, 7):
        assert abs(vals[(4, nb)] + 1.0) < 1e-12


# --- trmat -------------------------------------------------------------------

def test_trmat_hand_computed():
    m = CsrMatrix.from_triples(2, 3, [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    t = trmat(m)
    assert (t.n_rows, t.n_cols) == (3, 2)
    assert t.row_ptr == [0, 1, 2, 3]
    assert list(t.triples()) == [(0, 0, 1.0), (1, 1, 3.0), (2, 0, 2.0)]


def test_trmat_empty():
    t = trmat(CsrMatrix(2, 2, [0, 0, 0], [], []))
    assert t.row_ptr == [0, 0, 0] and t.col_ind == [] and t.values == []


@settings(max_examples=100, deadline=None)
@given(m=csr_matrices())
def test_trmat_is_involution(m):
    assert trmat(trmat(m)) == m


def test_trmat_matches_oracle():
    rng = random.Random(8)
    for _ in range(20):
        m = sym_random(rng)
        # break symmetry so the transpose is distinguishable
        m = CsrMatrix.from_triples(
            m.n_rows, m.n_cols,
            [(i, j, v * (1.0 + 0.1 * j)) for i, j, v in m.triples()])
        t = trmat(m)
        want = csr_of(dense_transpose(dense_of(m)))
        assert t.row_ptr == want.row_ptr
        assert t.col_ind == want.col_ind
        assert all(abs(a - b) < 1e-15 for a, b in zip(t.values, want.values))


def test_trmat_output_columns_sorted():
    rng = random.Random(9)
    for _ in range(20):
        m = sym_random(rng)
        trmat(m).validate()


# --- bandwidth and cmck ------------------------------------------------------

def test_bandwidth_examples():
    d = CsrMatrix.from_triples(3, 3, [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)])
    assert bandwidth(d) == 0
    m = CsrMatrix.from_triples(3, 3, [(0, 2, 1.0), (1, 1, 1.0)])
    assert bandwidth(m) == 2
    with pytest.raises(DimensionError):
        bandwidth(CsrMatrix(1, 2, [0, 1], [1], [1.0]))


def test_cmck_rejects_asymmetric_pattern():
    m = CsrMatrix.from_triples(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
    with pytest.raises(SymmetryError):
        cmck(m)
    # symmetrized, the same matrix passes the check
    p = cmck(symmetrize_lower(m))
    assert sorted(p.forward) == [0, 1]


@settings(max_examples=200, deadline=None)
@given(m=csr_matrices(square=True), mirror=st.booleans())
def test_cmck_refuses_exactly_what_detect_symmetry_calls_none(m, mirror):
    cells = {(i, j): v for i, j, v in m.triples()}
    if mirror:  # each entry's transpose added, with a value of its own
        cells.update({(j, i): 2.0 * v + 1.0 for (i, j), v in list(cells.items())
                      if (j, i) not in cells})
        m = CsrMatrix.from_triples(m.n_rows, m.n_cols,
                                   [(i, j, v) for (i, j), v in cells.items()])
    assert (detect_symmetry(m) == "none") == (cells.keys() != {(j, i) for i, j in cells})
    if detect_symmetry(m) == "none":
        with pytest.raises(SymmetryError):
            cmck(m)
    else:
        assert sorted(cmck(m).forward) == list(range(m.n_rows))


def test_cmck_path_graph_is_identity_up_to_direction():
    # 0-1-2-3 chain: both endpoints have degree 1, the lower index seeds
    m = symmetrize_lower(CsrMatrix.from_triples(4, 4, [
        (0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0),
        (1, 0, 1.0), (2, 1, 1.0), (3, 2, 1.0)]))
    p = cmck(m)
    assert p.forward == [0, 1, 2, 3]


def test_cmck_star_puts_hub_second():
    # hub 0 touches all leaves; leaves have degree 1 so the first leaf
    # seeds, the hub is its only neighbor, then the remaining leaves
    n = 6
    m = symmetrize_lower(gen_arrow(n, seed=1))
    p = cmck(m)
    assert p.forward[1] == 0  # leaf 1 is the seed
    assert p.forward[0] == 1  # hub comes right after


def test_cmck_tie_breaks_by_degree_then_index():
    # node 0 neighbors: 3 (degree 1), 1 (degree 2), 2 (degree 2).
    # BFS from 0 must label 3 first, then 1 before 2.
    triples = [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0),
               (4, 4, 1.0),
               (1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0),
               (4, 1, 1.0), (4, 2, 1.0)]
    m = symmetrize_lower(CsrMatrix.from_triples(5, 5, triples))
    p = cmck(m)
    # seed: minimum degree is 1 (node 3), scanned in index order
    assert p.forward[3] == 0
    assert p.forward[0] == 1
    assert p.forward[1] == 2
    assert p.forward[2] == 3
    assert p.forward[4] == 4


def test_cmck_components_stay_contiguous():
    # two disjoint edges plus an isolated vertex
    triples = [(i, i, 1.0) for i in range(5)]
    triples += [(1, 0, 1.0), (4, 3, 1.0)]
    m = symmetrize_lower(CsrMatrix.from_triples(5, 5, triples))
    p = cmck(m)
    assert sorted(p.forward) == list(range(5))
    # the isolated vertex has the smallest degree and is labeled first
    assert p.forward[2] == 0
    labels_a = sorted([p.forward[0], p.forward[1]])
    labels_b = sorted([p.forward[3], p.forward[4]])
    assert labels_a[1] - labels_a[0] == 1
    assert labels_b[1] - labels_b[0] == 1


@settings(max_examples=100, deadline=None)
@given(m=symmetric_patterns())
def test_cmck_is_a_bijection_keeping_components_contiguous(m):
    forward = cmck(m).forward
    assert sorted(forward) == list(range(m.n_rows))
    for comp in _components(m):
        labels = [forward[v] for v in comp]
        assert max(labels) - min(labels) + 1 == len(comp)


def test_cmck_reduces_arrow_bandwidth():
    for n in (20, 60):
        m = symmetrize_lower(gen_arrow(n, seed=n))
        p = cmck(m)
        permuted, _ = mperm(m, p, [0.0] * n)
        assert bandwidth(permuted) < bandwidth(m)


def test_cmck_keeps_banded_bandwidth():
    for n in (20, 60):
        m = symmetrize_lower(gen_pentadiagonal(n, seed=n))
        p = cmck(m)
        permuted, _ = mperm(m, p, [0.0] * n)
        assert bandwidth(permuted) <= bandwidth(m)


# --- mperm -------------------------------------------------------------------

def test_mperm_hand_worked_3x3():
    # A = [[10, 1, 0], [1, 20, 2], [0, 2, 30]], forward p = [2, 0, 1]:
    # old row/col i lands at new index p[i], so B[p[i]][p[j]] = A[i][j].
    m = CsrMatrix.from_triples(3, 3, [
        (0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 20.0),
        (1, 2, 2.0), (2, 1, 2.0), (2, 2, 30.0)])
    p = Permutation([2, 0, 1])
    b_mat, b_vec = mperm(m, p, [7.0, 8.0, 9.0])
    got = {(i, j): v for i, j, v in b_mat.triples()}
    assert got == {(2, 2): 10.0, (2, 0): 1.0, (0, 2): 1.0, (0, 0): 20.0,
                   (0, 1): 2.0, (1, 0): 2.0, (1, 1): 30.0}
    assert b_vec == [8.0, 9.0, 7.0]


def test_mperm_fill_emits_source_order_then_gets_sorted():
    m = CsrMatrix.from_triples(2, 2, [(0, 0, 1.0), (0, 1, 2.0),
                                      (1, 0, 3.0), (1, 1, 4.0)])
    p = Permutation([1, 0])
    iao, jao, ao = _mperm_fill(m, p)
    assert iao == [0, 2, 4]
    # new row 0 is old row 1; its entries arrive in old-column order,
    # which lands the new columns unsorted
    assert jao[0:2] == [1, 0] and ao[0:2] == [3.0, 4.0]
    sorted_m, _ = mperm(m, p, [0.0, 0.0])
    sorted_m.validate()
    assert list(sorted_m.triples()) == [(0, 0, 4.0), (0, 1, 3.0),
                                        (1, 0, 2.0), (1, 1, 1.0)]


def test_mperm_matches_oracle():
    rng = random.Random(10)
    for _ in range(30):
        m = sym_random(rng)
        n = m.n_rows
        p = cmck(m)
        b = [rng.uniform(-1, 1) for _ in range(n)]
        got_m, got_b = mperm(m, p, b)
        want = csr_of(dense_permute_sym(dense_of(m), p.forward))
        assert got_m.row_ptr == want.row_ptr
        assert got_m.col_ind == want.col_ind
        assert got_m.values == want.values
        for i in range(n):
            assert got_b[p.forward[i]] == b[i]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mperm_then_inverse_gives_the_input_back(data):
    m = data.draw(csr_matrices(square=True))
    n = m.n_rows
    p = Permutation(data.draw(st.permutations(range(n))))
    b = data.draw(st.lists(FLOATS, min_size=n, max_size=n))
    pm, pb = mperm(m, p, b)
    pm.validate()  # rows sorted: the round trip alone restores any row order
    back_m, back_b = mperm(pm, Permutation(p.inverse, p.forward), pb)
    assert back_m == m
    assert back_b == b


def test_mperm_identity_is_noop():
    rng = random.Random(11)
    m = sym_random(rng, 8)
    got, _ = mperm(m, Permutation(list(range(8))), [0.0] * 8)
    assert got.row_ptr == m.row_ptr
    assert got.col_ind == m.col_ind
    assert got.values == m.values


def test_mperm_rejects_size_mismatch():
    m = sym_random(random.Random(12), 6)
    with pytest.raises(PermutationError):
        mperm(m, Permutation(list(range(5))), [0.0] * 6)
    with pytest.raises(DimensionError):
        mperm(m, Permutation(list(range(6))), [0.0] * 5)
