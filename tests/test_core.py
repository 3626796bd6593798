"""Storage schemes, conversions and their structural invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FLOATS, build_with_gc_off, col_elements, csr_matrices,
                      hex_csr, row_major)
from sparkbench.core import (
    CsrMatrix,
    DimensionError,
    ParameterError,
    Permutation,
    PermutationError,
    SingularMatrixError,
    SparseElement,
    build_ortho,
    csr_to_linked,
    csr_to_ortho,
    dense_matrix_dims,
    linked_to_csr,
    ortho_to_csr,
)


def small_csr():
    # [[1, 0, 2],
    #  [0, 3, 0],
    #  [4, 0, 5]]
    return CsrMatrix(3, 3, [0, 2, 3, 5], [0, 2, 1, 0, 2],
                     [1.0, 2.0, 3.0, 4.0, 5.0])


def random_csr(rng, n=None, allow_empty_diag=False):
    n = n or rng.randint(2, 20)
    triples = []
    for i in range(n):
        cols = rng.sample(range(n), rng.randint(1, min(n, 4)))
        for j in cols:
            if i == j and allow_empty_diag and rng.random() < 0.5:
                continue
            triples.append((i, j, rng.uniform(-2, 2)))
    seen = set()
    unique = []
    for i, j, v in triples:
        if (i, j) not in seen:
            seen.add((i, j))
            unique.append((i, j, v))
    return CsrMatrix.from_triples(n, n, unique)


def test_sparse_element_has_no_dict():
    e = csr_to_linked(small_csr()).first_in_row[0]
    slots = _slots(e)  # raises on a slot the builder left unset
    assert (slots["value"], slots["col"], slots["row"], slots["next_in_col"]) == \
        (1.0, 0, None, None)
    assert slots["next_in_row"].col == 2
    assert not hasattr(e, "__dict__")
    with pytest.raises(AttributeError):
        e.extra = 1


def test_from_triples_sorts_row_major():
    m = CsrMatrix.from_triples(2, 3, [(1, 2, 6.0), (0, 1, 2.0), (1, 0, 4.0)])
    assert m.row_ptr == [0, 1, 3]
    assert m.col_ind == [1, 0, 2]
    assert m.values == [2.0, 4.0, 6.0]
    assert m.nnz == 3
    assert list(m.triples()) == [(0, 1, 2.0), (1, 0, 4.0), (1, 2, 6.0)]


def test_from_triples_rejects_duplicates():
    with pytest.raises(ParameterError):
        CsrMatrix.from_triples(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])


@st.composite
def shuffled_entries(draw):
    """(n_rows, n_cols, triples): distinct positions in any order."""
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    cells = sorted(draw(st.sets(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        max_size=40))) if n_rows and n_cols else []
    values = draw(st.lists(FLOATS, min_size=len(cells), max_size=len(cells)))
    triples = [(i, j, v) for (i, j), v in zip(cells, values)]
    return n_rows, n_cols, draw(st.permutations(triples))


def _row_major_csr(n_rows, n_cols, triples):
    """CSR built row by row, from each row's entries sorted by column."""
    rows = [sorted((j, v) for r, j, v in triples if r == i) for i in range(n_rows)]
    row_ptr = [0]
    for row in rows:
        row_ptr.append(row_ptr[-1] + len(row))
    return CsrMatrix(n_rows, n_cols, row_ptr, [j for row in rows for j, _ in row],
                     [v for row in rows for _, v in row])


@settings(max_examples=100, deadline=None)
@given(case=shuffled_entries())
def test_from_triples_in_any_order_is_the_row_major_csr(case):
    m = CsrMatrix.from_triples(*case)
    assert hex_csr(m) == hex_csr(_row_major_csr(*case))
    m.validate()


@settings(max_examples=100, deadline=None)
@given(case=shuffled_entries(), data=st.data())
def test_from_triples_rejects_a_repeat_or_an_entry_out_of_range(case, data):
    n_rows, n_cols, triples = case
    if triples:
        i, j, _ = data.draw(st.sampled_from(triples))
        again = data.draw(st.permutations(triples + [(i, j, 1.0)]))
        with pytest.raises(ParameterError, match="duplicate"):
            CsrMatrix.from_triples(n_rows, n_cols, again)
    outside = data.draw(st.sampled_from(
        [(-1, 0), (n_rows, 0), (0, -1), (0, n_cols)]))
    bad = data.draw(st.permutations(triples + [(*outside, 1.0)]))
    with pytest.raises(ParameterError, match="outside"):
        CsrMatrix.from_triples(n_rows, n_cols, bad)
    negative = data.draw(st.sampled_from([(-1 - n_rows, n_cols), (n_rows, -1 - n_cols)]))
    with pytest.raises(DimensionError, match="negative"):
        CsrMatrix.from_triples(*negative, triples)


def test_validate_catches_bad_structure():
    with pytest.raises(ParameterError):
        CsrMatrix(2, 2, [0, 1], [0], [1.0]).validate()
    with pytest.raises(ParameterError):
        CsrMatrix(2, 2, [0, 2, 2], [1, 0], [1.0, 2.0]).validate()
    with pytest.raises(ParameterError):
        CsrMatrix(1, 1, [0, 1], [3], [1.0]).validate()
    small_csr().validate()


def test_csr_to_linked_orders_rows():
    lk = csr_to_linked(small_csr())
    assert lk.size == 3
    row0 = list(lk.row_elements(0))
    assert [(e.col, e.value) for e in row0] == [(0, 1.0), (2, 2.0)]
    assert [(e.col, e.value) for e in lk.row_elements(1)] == [(1, 3.0)]
    assert len(row_major(lk)) == 5


def test_csr_to_linked_rejects_rectangular():
    with pytest.raises(DimensionError):
        csr_to_linked(CsrMatrix(1, 2, [0, 1], [1], [1.0]))


def test_linked_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        m = random_csr(rng)
        back = linked_to_csr(csr_to_linked(m))
        assert back.row_ptr == m.row_ptr
        assert back.col_ind == m.col_ind
        assert back.values == m.values


def test_empty_rows_survive_conversion():
    m = CsrMatrix(3, 3, [0, 0, 1, 1], [2], [7.0])
    lk = csr_to_linked(m)
    assert list(lk.row_elements(0)) == []
    assert linked_to_csr(lk).row_ptr == [0, 0, 1, 1]


def test_ortho_inserts_zero_diagonal():
    # row 1 has no diagonal entry; conversion must create an explicit one
    m = CsrMatrix.from_triples(2, 2, [(0, 0, 1.0), (1, 0, 2.0)])
    o = csr_to_ortho(m)
    assert o.diag[1] is not None
    assert o.diag[1].value == 0.0 and o.diag[1].col == 1
    back = ortho_to_csr(o)
    assert list(back.triples()) == [(0, 0, 1.0), (1, 0, 2.0), (1, 1, 0.0)]


def test_ortho_column_chains():
    o = csr_to_ortho(small_csr())
    col0 = [(e.row, e.value) for e in col_elements(o, 0)]
    assert col0 == [(0, 1.0), (2, 4.0)]
    col2 = [(e.row, e.value) for e in col_elements(o, 2)]
    assert col2 == [(0, 2.0), (2, 5.0)]
    assert o.int_to_ext_row_map == [0, 1, 2]
    assert o.int_to_ext_col_map == [0, 1, 2]
    assert all(o.diag[i] is not None for i in range(3))


def test_ortho_round_trip_many():
    rng = random.Random(6)
    for _ in range(30):
        m = random_csr(rng)
        back = ortho_to_csr(csr_to_ortho(m))
        want = {(i, j): v for i, j, v in m.triples()}
        got = {(i, j): v for i, j, v in back.triples()}
        for key, v in want.items():
            assert got[key] == v
        # anything added by the conversion is an explicit zero diagonal
        for (i, j), v in got.items():
            if (i, j) not in want:
                assert i == j and v == 0.0


@settings(max_examples=100, deadline=None)
@given(m=csr_matrices(square=True))
def test_linked_round_trip_is_the_identity(m):
    assert hex_csr(linked_to_csr(csr_to_linked(m))) == hex_csr(m)


@settings(max_examples=100, deadline=None)
@given(m=csr_matrices(square=True))
def test_ortho_round_trip_adds_only_missing_zero_diagonals(m):
    has_diag = {i for i, j, _ in m.triples() if i == j}
    want = CsrMatrix.from_triples(m.n_rows, m.n_cols, [
        *m.triples(), *((i, i, 0.0) for i in range(m.n_rows) if i not in has_diag)])
    assert hex_csr(ortho_to_csr(csr_to_ortho(m))) == hex_csr(want)


@settings(max_examples=100, deadline=None)
@given(m=csr_matrices(square=True))
def test_ortho_column_chains_visit_the_row_entries(m):
    o = csr_to_ortho(m)
    by_row = [e for i in range(o.size) for e in o.row_elements(i)]
    by_col = [e for j in range(o.size) for e in col_elements(o, j)]
    assert len({id(e) for e in by_row}) == len(by_row) == len(by_col)
    assert {id(e) for e in by_row} == {id(e) for e in by_col}
    for i in range(o.size):
        assert all(e.row == i for e in o.row_elements(i))
        col = list(col_elements(o, i))
        assert all(e.col == i for e in col)
        assert all(a.row < b.row for a, b in zip(col, col[1:]))
        assert o.diag[i] in col and o.diag[i].row == i


@pytest.mark.parametrize("build", [csr_to_linked, csr_to_ortho])
@settings(max_examples=100, deadline=None)
@given(m=csr_matrices(square=True))
def test_builders_allocate_one_node_per_entry_row_major(build, m):
    # heap layout biases a pointer kernel, so the allocation order is a contract
    out, allocated = build_with_gc_off(build, m)
    assert [id(e) for e in allocated] == [id(e) for e in row_major(out)]


def _slots(e):
    """A node's slots by name; an unset slot raises AttributeError."""
    return {s: getattr(e, s) for s in SparseElement.__slots__}


@settings(max_examples=100, deadline=None)
@given(m=csr_matrices(square=True))
def test_builders_set_every_slot_of_every_node(m):
    for e in row_major(csr_to_linked(m)):
        slots = _slots(e)
        assert slots["row"] is None and slots["next_in_col"] is None
    o = csr_to_ortho(m)
    for i in range(o.size):
        assert all(_slots(e)["row"] == i for e in o.row_elements(i))
        assert o.diag[i].col == i


def _chain(first, link):
    """The nodes from ``first`` along ``link`` to the ``None`` that ends
    the chain, reading every slot of each."""
    out = []
    while first is not None:
        out.append(first)
        first = _slots(first)[link]
    return out


@settings(max_examples=100, deadline=None)
@given(m=csr_matrices(square=True))
def test_ortho_chains_end_in_none_and_hold_the_csr_entries(m):
    # build_ortho writes a chain's None only once its row or the build ends
    o = csr_to_ortho(m)
    want = sorted((i, j, v.hex()) for i, j, v in ortho_to_csr(o).triples())
    for first, link in ((o.first_in_row, "next_in_row"), (o.first_in_col, "next_in_col")):
        nodes = [e for head in first for e in _chain(head, link)]
        assert sorted((e.row, e.col, e.value.hex()) for e in nodes) == want


def test_build_ortho_custom_maps():
    rows = [[(0, 2.0), (1, 1.0)], [(1, 3.0)]]
    o = build_ortho(2, rows, [1, 0], [0, 1])
    assert o.int_to_ext_row_map == [1, 0]
    assert [(e.col, e.value) for e in o.row_elements(0)] == [(0, 2.0), (1, 1.0)]


def test_build_ortho_requires_diagonal():
    with pytest.raises(SingularMatrixError):
        build_ortho(2, [[(1, 5.0)], [(1, 1.0)]], [0, 1], [0, 1])


@pytest.mark.parametrize("rows", [[[(0, 1.0)]],
                                  [[(0, 1.0)], [(1, 1.0)], [(2, 1.0)]]])
def test_build_ortho_takes_exactly_size_rows(rows):
    with pytest.raises(DimensionError, match="rows"):
        build_ortho(2, iter(rows), [0, 1], [0, 1])


def test_permutation_builds_inverse():
    p = Permutation([2, 0, 1])
    assert p.inverse == [1, 2, 0]
    assert p.n == 3


def test_permutation_rejects_bad_maps():
    with pytest.raises(PermutationError):
        Permutation([0, 0, 1])
    with pytest.raises(PermutationError):
        Permutation([0, 3, 1])
    with pytest.raises(PermutationError):
        Permutation([1, 0], inverse=[0, 1])
    with pytest.raises(PermutationError):
        Permutation([1, 0], inverse=[1, 0, 7])


def test_dense_helpers():
    assert dense_matrix_dims([[1.0, 2.0], [3.0, 4.0]]) == (2, 2)
    with pytest.raises(DimensionError):
        dense_matrix_dims([[1.0], [1.0, 2.0]])
