"""Shared test setup: the sources on the path, a small matrix directory,
the hypothesis strategy for CSR matrices, other installed interpreters
and the helpers that check a builder's node allocation order."""

import gc
import itertools
import os
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

SRC = Path(__file__).resolve().parent.parent / "src"

sys.path.insert(0, str(SRC))
# the CLI tests run ``python -m sparkbench.cli`` in a child, which needs the sources too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

from sparkbench.core import CsrMatrix, SparseElement  # noqa: E402
from sparkbench.matio import gen_spd, matrix_path, write_matrix_market  # noqa: E402


def other_interpreter(minor):
    """A pyenv-managed CPython 3.<minor> that is not this interpreter."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    for exe in sorted(root.glob(f"3.{minor}.*/bin/python")):
        if exe.is_file() and exe.resolve() != Path(sys.executable).resolve():
            return exe
    return None


def raising_on_second_call(kernel):
    """``kernel``, but raising IndexError, with a two-line message, on its
    second call: in ``verify_fixtures`` that is fixture 1."""
    calls = itertools.count(1)

    def wrapped(*args):
        if next(calls) == 2:
            raise IndexError("list index out of range\nsecond line")
        return kernel(*args)
    return wrapped


@pytest.fixture()
def tiny_data(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    write_matrix_market(matrix_path(data, "tiny"), gen_spd(40, seed=21),
                        symmetry="symmetric")
    return data


# Any non-NaN float, with signed zero and subnormals drawn often.
FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, 1e-310]))


@st.composite
def csr_matrices(draw, square=False):
    """Up to 30x30 with any pattern, empty rows and columns included."""
    n_rows = draw(st.integers(0, 30))
    n_cols = n_rows if square else draw(st.integers(0, 30))
    cells = sorted(draw(st.sets(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        max_size=90))) if n_rows and n_cols else []
    values = draw(st.lists(FLOATS, min_size=len(cells), max_size=len(cells)))
    return CsrMatrix.from_triples(
        n_rows, n_cols, [(i, j, v) for (i, j), v in zip(cells, values)])


def hex_csr(m):
    """A CSR matrix as a comparable tuple whose values keep their sign and bits."""
    return (m.n_rows, m.n_cols, m.row_ptr, m.col_ind, [v.hex() for v in m.values])


def build_with_gc_off(build, m):
    """``build(m)`` and the SparseElements it allocated, oldest first.

    Collecting the youngest generation empties it; with the GC off it
    then lists what the build allocated, in order.
    """
    was = gc.isenabled()
    gc.collect(0)
    gc.disable()
    try:
        out = build(m)
        young = gc.get_objects(generation=0)
    finally:
        if was:
            gc.enable()
    return out, [o for o in young if type(o) is SparseElement]


def row_major(storage):
    return [e for i in range(storage.size) for e in storage.row_elements(i)]


def col_elements(ortho, j):
    """Column ``j``'s chain of an orthogonal storage, top to bottom."""
    e = ortho.first_in_col[j]
    while e is not None:
        yield e
        e = e.next_in_col
