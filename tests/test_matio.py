"""Matrix Market ingestion, generators and characteristic validation."""

import hashlib
import random
import subprocess

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import csr_matrices, hex_csr, other_interpreter
from sparkbench.cli import main
from sparkbench.core import CsrMatrix
from sparkbench.matio import (
    MATRIX_NAMES,
    TABLE1_EXPECTED,
    MatrixMarketError,
    MatrixMeta,
    detect_symmetry,
    gen_all_standins,
    gen_arrow,
    gen_banded,
    gen_spd,
    gen_standin,
    gen_tri_mesh,
    matrix_path,
    read_matrix_market,
    symmetrize_lower,
    validate_characteristics,
    write_matrix_market,
    write_mesh,
)


def write_text(tmp_path, body, name="m.mtx"):
    p = tmp_path / name
    p.write_text(body, encoding="ascii")
    return p


def test_read_minimal_general(tmp_path):
    p = write_text(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "% a comment",
        "",
        "2 3 3",
        "1 1 1.5",
        "2 3 -2",
        "1 2 3e-1",
    ]) + "\n")
    m, meta = read_matrix_market(p)
    assert (m.n_rows, m.n_cols) == (2, 3)
    assert list(m.triples()) == [(0, 0, 1.5), (0, 1, 0.3), (1, 2, -2.0)]
    assert meta.entries == 3
    assert meta.name == "m"


def test_read_fortran_exponent(tmp_path):
    p = write_text(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "1 1 1",
        "1 1 1.5D+01",
    ]) + "\n")
    m, _ = read_matrix_market(p)
    assert m.values == [15.0]


def test_read_symmetric_mirrors_lower(tmp_path):
    p = write_text(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate real symmetric",
        "2 2 2",
        "1 1 4.0",
        "2 1 7.0",
    ]) + "\n")
    m, meta = read_matrix_market(p)
    assert list(m.triples()) == [(0, 0, 4.0), (0, 1, 7.0), (1, 0, 7.0)]
    assert meta.entries == 2
    assert meta.symmetry == "symmetric"


@pytest.mark.parametrize("body,fragment", [
    ("%%MatrixMarket matrix array real general\n1 1 1\n1 1 1\n", "coordinate"),
    ("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n",
     "pattern"),
    ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
     "complex"),
    ("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1\n",
     "skew"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 1 2\n",
     "duplicate"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
     "declares"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
     "out of range"),
    ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 5\n",
     "upper"),
    ("not a header\n1 1 1\n1 1 1\n", "header"),
    ("%%MatrixMarket matrix coordinate real general\n-2 2 0\n",
     "m.mtx:2: bad size line '-2 2 0'"),
    ("%%MatrixMarket matrix coordinate real general\n2 -2 0\n",
     "m.mtx:2: bad size line '2 -2 0'"),
    ("%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n",
     "m.mtx:2: symmetric matrix is not square ('3 2 1')"),
])
def test_read_rejects_malformed(tmp_path, body, fragment):
    p = write_text(tmp_path, body)
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(p)
    assert fragment.lower() in str(err.value).lower()


def test_error_messages_carry_position(tmp_path):
    p = write_text(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 1",
        "1 1 not-a-number",
    ]) + "\n")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(p)
    assert ":3" in str(err.value)


def test_read_rejects_a_byte_that_is_not_ascii(tmp_path):
    p = tmp_path / "m.mtx"
    p.write_bytes("%%MatrixMarket matrix coordinate real general\n"
                  "% café\n1 1 1\n1 1 1.0\n".encode("utf-8"))
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(p)
    assert str(err.value) == f"{p}: byte 0xc3 is not ASCII"


def test_write_read_round_trip(tmp_path):
    rng = random.Random(3)
    for t in range(15):
        n = rng.randint(1, 12)
        triples = [(i, j, rng.uniform(-1e3, 1e3))
                   for i in range(n) for j in range(n) if rng.random() < 0.4]
        if not triples:
            triples = [(0, 0, 1.0)]
        m = CsrMatrix.from_triples(n, n, triples)
        p = tmp_path / f"t{t}.mtx"
        write_matrix_market(p, m)
        back, meta = read_matrix_market(p)
        assert list(back.triples()) == list(m.triples())
        assert meta.entries == m.nnz


def _write_then_read(d, m, symmetry, fortran):
    p = d / "m.mtx"
    write_matrix_market(p, m, symmetry=symmetry)
    if fortran:
        header, size, *entries = p.read_text().splitlines()
        p.write_text("\n".join([header, size, *(e.replace("e", "D") for e in entries)])
                     + "\n")
    return read_matrix_market(p)


_EXPONENTS = CsrMatrix(2, 2, [0, 1, 3], [1, 0, 1], [1e-310, -2.5e300, 5e-324])


@settings(max_examples=100, deadline=None)
@given(m=csr_matrices(), fortran=st.booleans())
@example(m=_EXPONENTS, fortran=True)
def test_general_write_then_read_gives_the_input_back(m, fortran, tmp_path_factory):
    back, meta = _write_then_read(tmp_path_factory.mktemp("mm"), m, "general", fortran)
    assert hex_csr(back) == hex_csr(m)
    assert meta.entries == m.nnz


@settings(max_examples=100, deadline=None)
@given(m=csr_matrices(square=True).map(symmetrize_lower), fortran=st.booleans())
@example(m=symmetrize_lower(_EXPONENTS), fortran=True)
def test_symmetric_write_then_read_gives_the_input_back(m, fortran, tmp_path_factory):
    back, meta = _write_then_read(tmp_path_factory.mktemp("mm"), m, "symmetric",
                                  fortran)
    assert hex_csr(back) == hex_csr(m)
    assert meta.entries == sum(1 for i, j, _ in m.triples() if i >= j)
    assert meta.symmetry == "symmetric"


def test_write_symmetric_keeps_lower_only(tmp_path):
    m = CsrMatrix.from_triples(
        2, 2, [(0, 0, 1.0), (0, 1, 5.0), (1, 0, 5.0), (1, 1, 2.0)])
    p = tmp_path / "s.mtx"
    write_matrix_market(p, m, symmetry="symmetric")
    text = p.read_text()
    assert not any(line.startswith("1 2 ") for line in text.splitlines()[2:])
    back, meta = read_matrix_market(p)
    assert list(back.triples()) == list(m.triples())
    assert meta.entries == 3


def test_detect_symmetry_classes():
    sym = CsrMatrix.from_triples(2, 2, [(0, 1, 2.0), (1, 0, 2.0)])
    struct = CsrMatrix.from_triples(2, 2, [(0, 1, 2.0), (1, 0, 3.0)])
    none = CsrMatrix.from_triples(2, 2, [(0, 1, 2.0)])
    assert detect_symmetry(sym) == "symmetric"
    assert detect_symmetry(struct) == "structural"
    assert detect_symmetry(none) == "none"


def test_symmetrize_lower():
    m = CsrMatrix.from_triples(
        3, 3, [(0, 0, 1.0), (0, 2, 9.0), (2, 0, 4.0), (1, 1, 2.0)])
    s = symmetrize_lower(m)
    got = {(i, j): v for i, j, v in s.triples()}
    # the upper entry 9.0 is discarded; the lower 4.0 is mirrored
    assert got == {(0, 0): 1.0, (1, 1): 2.0, (2, 0): 4.0, (0, 2): 4.0}
    assert detect_symmetry(s) == "symmetric"


def test_validate_characteristics_outcomes():
    expected = MatrixMeta("x", 10, 10, 30, "none")
    ok = validate_characteristics(MatrixMeta("x", 10, 10, 30, "none"), expected)
    assert ok.passed and not ok.warnings
    assert ok.lines() == ["ok"]
    warn = validate_characteristics(MatrixMeta("x", 10, 10, 29, "none"), expected)
    assert warn.passed and len(warn.warnings) == 1
    bad = validate_characteristics(MatrixMeta("x", 9, 10, 30, "structural"),
                                   expected)
    assert not bad.passed and len(bad.failures) == 2


def test_gen_banded_structure():
    m = gen_banded(10, [(1, 1.0, (-1.0, 1.0)), (-3, 0.5, (0.0, 2.0))], seed=4)
    entries = {(i, j) for i, j, _ in m.triples()}
    for i in range(10):
        assert (i, i) in entries
    for i, j, _ in m.triples():
        assert j - i in (0, 1, -3)
    for i in range(9):
        assert (i, i + 1) in entries
    # identical seed, identical matrix
    m2 = gen_banded(10, [(1, 1.0, (-1.0, 1.0)), (-3, 0.5, (0.0, 2.0))], seed=4)
    assert list(m2.triples()) == list(m.triples())


def test_gen_spd_is_spd():
    for seed in (1, 2, 3):
        m = gen_spd(25, seed=seed)
        assert detect_symmetry(m) == "symmetric"
        vals = {(i, j): v for i, j, v in m.triples()}
        for i in range(25):
            off = sum(abs(v) for (r, c), v in vals.items() if r == i and c != i)
            assert vals[(i, i)] > off  # Gershgorin: strictly dominant


def test_gen_arrow_shape():
    m = gen_arrow(8, seed=1)
    entries = {(i, j) for i, j, _ in m.triples()}
    for k in range(8):
        assert (0, k) in entries and (k, 0) in entries and (k, k) in entries


def test_gen_tri_mesh_geometry():
    mesh = gen_tri_mesh(3, 2)
    assert len(mesh.nodes) == 4 * 3
    assert len(mesh.elements) == 2 * 3 * 2
    mesh.validate()
    for a, b, c in mesh.elements:
        (x1, y1), (x2, y2), (x3, y3) = (mesh.nodes[a], mesh.nodes[b],
                                        mesh.nodes[c])
        det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        assert det > 0.0


def test_write_mesh_text(tmp_path):
    p = tmp_path / "m.txt"
    write_mesh(p, gen_tri_mesh(1, 1))
    assert p.read_bytes() == (b"nodes 4 elements 2\n0 0\n1 0\n0 1\n1 1\n"
                              b"0 1 3\n0 3 2\n")


def test_standins_match_published_characteristics(tmp_path):
    for name in MATRIX_NAMES:
        m, tag = gen_standin(name)
        expected = TABLE1_EXPECTED[name]
        assert (m.n_rows, m.n_cols) == (expected.n_rows, expected.n_cols)
        if tag == "symmetric":
            stored = sum(1 for i, j, _ in m.triples() if i >= j)
        else:
            stored = m.nnz
        assert stored == expected.entries


def test_standins_written_files_validate(tmp_path):
    paths = gen_all_standins(tmp_path)
    assert [p.name for p in paths] == [f"{n}.mtx" for n in MATRIX_NAMES]
    for name in MATRIX_NAMES:
        m, meta = read_matrix_market(matrix_path(tmp_path, name))
        report = validate_characteristics(meta, TABLE1_EXPECTED[name])
        assert report.passed, report.failures
        assert not report.warnings, report.warnings
        m.validate()


# sha256 of every file ``gen`` writes by default, and of ``gen --spd 2000
# --seed 1``: any change to a generator's stream, to a sort or to the writer
# shows here.
GENERATED_SHA256 = {
    "add32.mtx": "76094d06ca717bf5e42d736a3bee7c039ffc89d3a116295f787805c8e36318bf",
    "utm5940.mtx": "2e190e355cb348b2e508a5a9daef0808f749a2d5cdf022094fb0d11a618fe586",
    "sherman3.mtx": "2d065661678a3a449dbe0da8b1d06baa5487e18d3f0c8f057e68a288858a439b",
    "codecs4812.dc.mtx":
        "036c512c44d096f667e77bf71d12a80787271c0f6b5e9acaa73f2850fcb74122",
    "bcsstk13.mtx": "bba95ad9b22917506630c2c817979d66973bf8ec6ae4def6beed3faef31e1dea",
    "spd2000s1.mtx": "82694212d53da3705382a9350edee0d276f618061eb2826344d5c08c4157d823",
}

# sha256 of every file ``gen --spd 12 --banded 10 --arrow 8 --mesh 2 2
# --seed 3`` writes: the synthetic families' generators and writers.
FAMILY_SHA256 = {
    "spd12s3.mtx": "99863228f01ea85559c2977ea15fcbe5a083d1263b1fa121177db37c50feee42",
    "banded10s3.mtx":
        "cd0b29364fc873732409b59316d9922a43f00cbe0ac2ea67eacba5340007c9f6",
    "arrow8s3.mtx": "86c33f8e9c5e00cc5810c07eaaa4d459901e9e5ff100164c52040c417d8ebdc7",
    "mesh2x2.txt": "f6fec0d692a029d51b6b98791d1832e6f646accfacda4068ac48ee5df8e04432",
}


def sha256_of(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_standins_are_deterministic(tmp_path):
    a, _ = gen_standin("add32")
    b, _ = gen_standin("add32")
    assert a.col_ind == b.col_ind and a.values == b.values
    paths = gen_all_standins(tmp_path)
    spd = matrix_path(tmp_path, "spd2000s1")
    write_matrix_market(spd, gen_spd(2000, seed=1), symmetry="symmetric")
    assert sha256_of([*paths, spd]) == GENERATED_SHA256


def test_synthetic_families_are_deterministic(tmp_path):
    assert main(["gen", "--data-dir", str(tmp_path), "--spd", "12",
                 "--banded", "10", "--arrow", "8", "--mesh", "2", "2",
                 "--seed", "3"]) == 0
    assert sha256_of(tmp_path.iterdir()) == FAMILY_SHA256


def test_generated_bytes_are_the_same_under_python312(tmp_path):
    exe = other_interpreter(12)
    if exe is None:
        pytest.skip("no pyenv-managed CPython 3.12 to generate under")
    for extra in ([], ["--spd", "2000", "--seed", "1"]):
        subprocess.run([exe, "-m", "sparkbench.cli", "gen", "--data-dir",
                        tmp_path, *extra], check=True, stdout=subprocess.DEVNULL)
    assert sha256_of(tmp_path.iterdir()) == GENERATED_SHA256


def test_matrix_path_naming(tmp_path):
    assert matrix_path(tmp_path, "codecs4812.dc").name == "codecs4812.dc.mtx"
