"""Harness engine: records, timing policy, gates, aggregation, report."""

import dataclasses
import gc
import itertools
import math
import re
import shlex
import subprocess
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FLOATS, build_with_gc_off, col_elements, csr_matrices,
                      raising_on_second_call, row_major)
from sparkbench import arr_kernels, cells, core, harness, matio, ptr_kernels
from sparkbench.cells import INPUT_PARTS, input_path, load_input, read_input
from sparkbench.core import CsrMatrix, ParameterError, Permutation, build_ortho
from sparkbench.harness import (
    BENCHMARKS,
    BENCHMARK_ORDER,
    ARRAY_BENCHMARKS,
    POINTER_BENCHMARKS,
    BenchConfig,
    HarnessError,
    OracleMismatchError,
    TimingPolicy,
    _admit,
    _checksums_match,
    _record_cell,
    _reference_cm,
    _scipy_csr,
    _write_factor,
    execute_cell,
    parse_config_file,
    prepare,
    probe_vector,
    run_suite,
    verify_fixtures,
    verify_matrix,
    weighted_checksum,
)
from sparkbench.matio import gen_spd, matrix_path, symmetrize_lower, write_matrix_market
from sparkbench.results import (
    BenchRecord,
    _TIME_KEYS,
    aggregate,
    parse_spark_dat,
    parse_time_file,
    report,
    speedup,
    time_file_path,
    write_time_file,
)
from sparkbench.arr_kernels import cmck
from sparkbench.ptr_kernels import dsolve


FAST = TimingPolicy(warmup_runs=0, measured_runs=3, aggregator="min")


# --- records and policy ------------------------------------------------------

def test_record_line_round_trip():
    rec = BenchRecord("opt", "SPMATVEC", "add32", 0.5, 0.25)
    line = rec.format_line()
    assert line == "opt SPMATVEC add32 0.500000 0.250000"
    back = BenchRecord.parse_line(line)
    assert back == rec
    assert back.format_line() == line
    assert speedup(back) == 2.0


@pytest.mark.parametrize("line", [
    "opt SPMATVEC add32 0.5",
    "opt SPMATVEC add32 0.5 0.25 extra",
    "opt SPMATVEC add32 0.5  0.25",
    " opt SPMATVEC add32 0.5 0.25",
    "opt SPMATVEC add32 0.5 0.25 ",
    "opt SPMATVEC add32 x 0.25",
])
def test_record_parse_rejects_malformed(line):
    with pytest.raises(HarnessError):
        BenchRecord.parse_line(line)


def test_record_rejects_bad_fields():
    for bad in ("a b", "a&b", "a/b", ".hidden"):
        with pytest.raises(ParameterError):
            BenchRecord(bad, "X", "m", 1.0, 1.0)
        with pytest.raises(ParameterError):
            BenchRecord("a", bad, "m", 1.0, 1.0)
        with pytest.raises(ParameterError):
            BenchRecord("a", "X", bad, 1.0, 1.0)
    with pytest.raises(ParameterError):
        BenchRecord("a", "X", "m", 0.0, 1.0)


def test_policy_validation_and_parse():
    p = TimingPolicy.parse("2,5,min")
    assert (p.warmup_runs, p.measured_runs, p.aggregator) == (2, 5, "min")
    assert TimingPolicy().aggregator == "median"
    with pytest.raises(ParameterError):
        TimingPolicy(measured_runs=2)
    with pytest.raises(ParameterError):
        TimingPolicy(warmup_runs=-1)
    with pytest.raises(ParameterError):
        TimingPolicy(aggregator="mean")
    with pytest.raises(ParameterError):
        TimingPolicy.parse("3,7")
    with pytest.raises(ParameterError):
        TimingPolicy.parse("x,3,median")


def test_policy_aggregates():
    runs = [3.0, 1.0, 2.0]
    assert TimingPolicy(aggregator="median").aggregate(runs) == 2.0
    assert TimingPolicy(aggregator="min").aggregate(runs) == 1.0


def test_config_validation():
    assert BenchConfig("base").build_flags == ""
    with pytest.raises(ParameterError):
        BenchConfig("has space")


@pytest.mark.parametrize("bad", ["a/b", "a,b", "a&b", ".hidden", ".."])
def test_config_id_is_a_safe_name(bad):
    # an id is a results directory, a CSV field and text in an SVG chart
    with pytest.raises(ParameterError, match="config id"):
        BenchConfig(bad)
    assert BenchConfig("py3.12-c++_O2").id == "py3.12-c++_O2"


# --- checksums ---------------------------------------------------------------

def test_weighted_checksum_is_order_sensitive():
    a = weighted_checksum([1.0, 2.0, 3.0])
    b = weighted_checksum([3.0, 2.0, 1.0])
    assert a != b


def test_checksum_match_tolerance():
    assert _checksums_match({"x": 1.0}, {"x": 1.0 + 5e-7})
    assert not _checksums_match({"x": 1.0}, {"x": 1.0 + 5e-6})
    assert not _checksums_match({"x": 1.0}, {"y": 1.0})
    assert not _checksums_match({"x": float("nan")}, {"x": float("nan")})


GATE_KEYS = st.sampled_from(["x", "y", "values"])
FINITE = st.floats(min_value=-1e300, max_value=1e300)


@given(want=st.dictionaries(GATE_KEYS, FINITE, min_size=1), data=st.data())
def test_checksums_match_accepts_under_half_the_gate_tolerance(want, data):
    half = harness._GATE_RTOL / 2
    rel = st.floats(-half, half, exclude_min=True, exclude_max=True)
    got = {k: v * (1.0 + data.draw(rel)) for k, v in want.items()}
    assert _checksums_match(got, want) and _checksums_match(want, got)


@given(want=st.dictionaries(GATE_KEYS, FINITE, min_size=1), data=st.data())
def test_checksums_match_rejects_other_keys_and_non_finite_values(want, data):
    key = data.draw(st.sampled_from(sorted(want)))
    bad = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    for got in ({**want, "extra": 0.0}, {k: v for k, v in want.items() if k != key},
                {**want, key: bad}):
        assert not _checksums_match(got, want) and not _checksums_match(want, got)


NEAR_ONE = st.one_of(st.floats(), st.sampled_from(
    [0.0, 1.0, 1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 2e-6, 1e6, 1e6 + 1.0, 1e6 + 2.0]))


@given(got=st.dictionaries(GATE_KEYS, NEAR_ONE), want=st.dictionaries(GATE_KEYS, NEAR_ONE))
def test_checksums_match_is_symmetric(got, want):
    assert _checksums_match(got, want) == _checksums_match(want, got)


def test_registry_shape():
    assert BENCHMARK_ORDER == ["SPMATVEC", "SPMATMAT", "JACIT", "DSOLVE",
                               "PCG", "ASM", "TRMAT", "CMCK", "MPERM"]
    assert POINTER_BENCHMARKS == BENCHMARK_ORDER[:5]
    assert ARRAY_BENCHMARKS == BENCHMARK_ORDER[5:]
    assert not BENCHMARKS["ASM"].needs_matrix
    assert all(BENCHMARKS[n].needs_matrix
               for n in BENCHMARK_ORDER if n != "ASM")


# --- cells -------------------------------------------------------------------

def test_execute_cell_measures_and_gates(tiny_data):
    payload = execute_cell("SPMATVEC", "tiny", tiny_data, FAST)
    assert len(payload["runs"]) == 3
    assert payload["seconds"] == min(payload["runs"])
    assert payload["checksums"].keys() == payload["ref_checksums"].keys()


def test_execute_cell_runs_its_kernel_in_a_fresh_runner(tiny_data, monkeypatch):
    # the patch lives in this process only; the runner imports its own kernels
    def broken(*args):
        raise AssertionError("the parent ran the kernel")
    monkeypatch.setitem(cells.BENCHMARKS, "SPMATVEC",
                        dataclasses.replace(cells.BENCHMARKS["SPMATVEC"], run=broken))
    record = execute_cell("SPMATVEC", "tiny", tiny_data, FAST)
    assert (record["config"], len(record["runs"])) == ("base", 3)
    assert _checksums_match(record["checksums"], record["ref_checksums"])


def test_execute_cell_rejects_mismatched_shapes(tiny_data):
    with pytest.raises(HarnessError):
        execute_cell("NOSUCH", "tiny", tiny_data, FAST)
    with pytest.raises(HarnessError):
        execute_cell("SPMATVEC", "none", tiny_data, FAST)
    with pytest.raises(HarnessError):
        execute_cell("ASM", "tiny", tiny_data, FAST)
    with pytest.raises(HarnessError):
        execute_cell("SPMATVEC", "missing", tiny_data, FAST)


def test_corruption_hook_fails_gate(tiny_data, monkeypatch):
    monkeypatch.setenv("SPARKBENCH_CORRUPT", "SPMATVEC")
    with pytest.raises(OracleMismatchError, match="mismatch"):
        execute_cell("SPMATVEC", "tiny", tiny_data, FAST)
    # other benchmarks are unaffected by the hook
    execute_cell("TRMAT", "tiny", tiny_data, FAST)


def test_every_benchmark_gates_green(tiny_data):
    for name in BENCHMARK_ORDER:
        execute_cell(name, "none" if name == "ASM" else "tiny", tiny_data, FAST)


def test_admit_builds_the_record_of_a_matching_payload():
    policy = TimingPolicy(1, 3, "median")
    payload = {"runs": [3.0, 1.0, 2.0], "checksums": {"y": 1.0 + 5e-7}}
    assert _admit("TRMAT", "tiny", policy, payload, {"y": 1.0}) == {
        "benchmark": "TRMAT", "matrix": "tiny", "warmup_runs": 1,
        "measured_runs": 3, "aggregator": "median", "seconds": 2.0,
        "runs": [3.0, 1.0, 2.0], "checksums": {"y": 1.0 + 5e-7},
        "ref_checksums": {"y": 1.0}}
    payload["checksums"] = {"y": 1.5}
    with pytest.raises(OracleMismatchError,
                       match=re.escape('oracle checksum mismatch: {"got": {"y": 1.5}')):
        _admit("TRMAT", "tiny", policy, payload, {"y": 1.0})


def test_a_recorded_cell_holds_the_time_keys_and_the_parents_seconds(tiny_data,
                                                                     tmp_path):
    root = tmp_path / "results"
    policy = TimingPolicy(0, 5, "median")
    outcomes = run_suite([BenchConfig("base")], ["TRMAT", "CMCK", "ASM"], ["tiny"],
                         policy, tiny_data, root)
    assert [s for *_, s in outcomes] == ["ok"] * 3
    for _, name, mat, _ in outcomes:
        d = parse_time_file(time_file_path(root, "base", name, mat))
        assert sorted(d) == sorted(_TIME_KEYS)
        assert "dispersion_ok" not in d
        assert d["seconds"] == policy.aggregate(d["runs"])


# --- dsolve setup at harness scale --------------------------------------------

def test_splu_merge_solves(tmp_path):
    from scipy.sparse.linalg import splu
    m = gen_spd(60, seed=31)
    lu_obj = splu(_scipy_csr(m).tocsc())
    _write_factor(lu_obj, tmp_path, "m")
    ortho = BENCHMARKS["DSOLVE"].setup(*load_input("DSOLVE", "m", tmp_path))[0]
    rhs = probe_vector(60)
    x = dsolve(ortho, rhs)
    want = lu_obj.solve(np.asarray(rhs))
    assert max(abs(a - b) for a, b in zip(x, want)) < 1e-9


def test_factor_keeps_diagonals_and_drops_zeros(tmp_path):
    from types import SimpleNamespace

    import scipy.sparse as sp
    # U stores an explicit zero at (0, 1); the merged factor drops it
    upper = sp.csc_matrix(([2.0, 0.0, 1.0, 3.0, 4.0],
                           ([0, 0, 0, 1, 2], [0, 1, 2, 1, 2])), shape=(3, 3))
    lower = sp.csc_matrix(np.array([[1.0, 0.0, 0.0],
                                    [0.5, 1.0, 0.0],
                                    [0.0, 0.0, 1.0]]))
    perm = np.array([2, 0, 1])
    lu_obj = SimpleNamespace(shape=(3, 3), L=lower, U=upper, perm_r=perm,
                             perm_c=np.arange(3))
    _write_factor(lu_obj, tmp_path, "f")
    f = read_input(tmp_path, "f", "lu")
    assert list(f["row_ptr"]) == [0, 2, 4, 5]
    assert list(f["col_ind"]) == [0, 2, 0, 1, 2]
    assert list(f["values"]) == [2.0, 1.0, 0.5, 3.0, 4.0]
    assert list(f["row_map"]) == [1, 2, 0]
    assert list(f["col_map"]) == [0, 1, 2]

    singular = sp.csc_matrix(np.array([[2.0, 0.0, 1.0],
                                       [0.0, 0.0, 0.0],
                                       [0.0, 0.0, 4.0]]))
    lu_obj.U = singular
    with pytest.raises(HarnessError, match="factor row 1 lost its diagonal"):
        _write_factor(lu_obj, tmp_path, "g")


@st.composite
def factors(draw):
    """A merged factor's ``lu`` parts: sorted rows that each hold their
    diagonal, and two permutation maps."""
    n = draw(st.integers(1, 12))
    rows = [sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)) | {i})
            for i in range(n)]
    col_ind = [c for row in rows for c in row]
    return {"row_ptr": [0, *itertools.accumulate(map(len, rows))],
            "col_ind": col_ind,
            "values": draw(st.lists(FLOATS, min_size=len(col_ind),
                                    max_size=len(col_ind))),
            "row_map": draw(st.permutations(range(n))),
            "col_map": draw(st.permutations(range(n)))}


def _ortho_state(o):
    """Row chains (column, value bits, is the diagonal link), column
    chains as rows, and both maps."""
    return ([[(e.col, e.value.hex(), e is o.diag[i]) for e in o.row_elements(i)]
             for i in range(o.size)],
            [[e.row for e in col_elements(o, j)] for j in range(o.size)],
            o.int_to_ext_row_map, o.int_to_ext_col_map)


@settings(max_examples=100, deadline=None)
@given(f=factors())
def test_dsolve_setup_streams_the_factor_into_row_major_nodes(f):
    # the path a cell runs: the lu parts on disk, load_input, then setup
    with tempfile.TemporaryDirectory() as d:
        harness._write_input(d, "m", "lu", f)
        out, allocated = build_with_gc_off(
            lambda d: BENCHMARKS["DSOLVE"].setup(*load_input("DSOLVE", "m", d))[0], d)
    assert [id(e) for e in allocated] == [id(e) for e in row_major(out)]
    ptr = f["row_ptr"]
    rows = [list(zip(f["col_ind"][a:b], f["values"][a:b]))
            for a, b in zip(ptr, ptr[1:])]
    want = build_ortho(len(rows), rows, f["row_map"], f["col_map"])
    assert _ortho_state(out) == _ortho_state(want)


def test_dsolve_setup_peaks_near_the_storage_it_keeps(tmp_path):
    # the factor's col_ind and values are streamed, never held whole
    m, _ = matio.gen_standin("sherman3")
    _write_factor(harness._Operands(m).lu, tmp_path, "sherman3")
    was = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        args = BENCHMARKS["DSOLVE"].setup(*load_input("DSOLVE", "sherman3", tmp_path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was:
            gc.enable()
    assert args[0].size == m.n_rows
    assert peak <= 1.05 * kept, (peak, kept)


def _short_factor(monkeypatch, part):
    """Make ``Prepared`` write the factor without ``part``'s last entry."""
    def write_short(lu_obj, input_dir, matrix):
        _write_factor(lu_obj, input_dir, matrix)
        path = input_path(input_dir, matrix, "lu", part)
        path.write_bytes(path.read_bytes()[:-8])
    monkeypatch.setattr(harness, "_write_factor", write_short)


@pytest.mark.parametrize("part", ["col_ind", "values"])
def test_a_short_factor_part_fails_the_dsolve_cell(tiny_data, tmp_path, monkeypatch,
                                                   part):
    _short_factor(monkeypatch, part)
    root = tmp_path / "results"
    outcomes = run_suite([BenchConfig("base")], ["DSOLVE"], ["tiny"], FAST,
                         tiny_data, root)
    assert [s for *_, s in outcomes] == ["failed: HarnessError"]
    err = time_file_path(root, "base", "DSOLVE", "tiny").with_suffix(".err")
    assert f"cells.HarnessError: factor part tiny.lu.{part} has" in err.read_text()


@st.composite
def _components(draw):
    """A symmetric pattern of several components under a random relabeling.
    Each component is a ring (a lone node when its size is 1) with a few
    chords, so many degrees tie; the diagonal is there or not."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    n = sum(sizes)
    label = draw(st.permutations(range(n)))
    edges, start = set(), 0
    for size in sizes:
        ring = range(start, start + size)
        edges |= {(v, start + (v - start + 1) % size) for v in ring if size > 1}
        edges |= draw(st.sets(st.tuples(st.sampled_from(ring), st.sampled_from(ring)),
                              max_size=size // 2))
        start += size
    if draw(st.booleans()):
        edges |= {(v, v) for v in range(n)}
    pairs = {(label[i], label[j]) for i, j in edges}
    return CsrMatrix.from_triples(n, n, [(i, j, 1.0) for i, j in
                                         pairs | {(j, i) for i, j in pairs}])


# MPERM's input is the reference order, and the grid's CMCK gate and
# verify's cmck label compare the kernel with it: this keeps it the order
# the kernel computes, on any pattern (empty rows, no diagonal) and on
# several components with many ties in degree.
@given(m=st.one_of(csr_matrices(square=True).map(symmetrize_lower), _components()))
def test_reference_cm_agrees_with_kernel(m):
    assert _reference_cm(m.n_rows, m.row_ptr, m.col_ind) == cmck(m).forward


_KERNELS = {
    arr_kernels: ["cmck", "asm_symbolic", "asm_numeric", "trmat", "_mperm_fill"],
    ptr_kernels: ["spmatvec", "spmatmat", "jacit", "dsolve", "pcg"]}


def test_preparation_calls_no_kernel(tiny_data, tmp_path, monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("the parent called a kernel")
    for module, names in _KERNELS.items():
        for name in names:
            monkeypatch.setattr(module, name, kernel)
            monkeypatch.setattr(harness, name, kernel, raising=False)
    benches = ["ASM", "CMCK", "MPERM", "TRMAT"]
    with prepare(benches, ["tiny"], tiny_data) as prep:
        assert {k: r for k, r in prep.refs.items() if isinstance(r, Exception)} == {}
    # the runners are other interpreters, which the patches do not reach
    outcomes = run_suite([BenchConfig("base")], benches, ["tiny"], FAST, tiny_data,
                         tmp_path / "results")
    assert [s for *_, s in outcomes] == ["ok"] * len(benches)


def test_cells_get_what_the_kernels_would_build(tiny_data):
    m, symmetry = matio.gen_standin("sherman3")
    write_matrix_market(matrix_path(tiny_data, "sherman3"), m, symmetry=symmetry)
    with prepare(["ASM", "MPERM"], ["tiny", "sherman3"], tiny_data) as prep:
        asm = read_input(prep.input_dir, "none", "asm")
        mesh = matio.gen_tri_mesh(*cells.ASM_MESH)
        pattern, slots = arr_kernels.asm_symbolic(mesh)
        assert asm["nodes"].tolist() == [c for node in mesh.nodes for c in node]
        assert asm["elements"].tolist() == [c for e in mesh.elements for c in e]
        assert asm["row_ptr"].tolist() == pattern.row_ptr
        assert asm["col_ind"].tolist() == pattern.col_ind
        assert asm["slots"].tolist() == [s for e in slots for s in e]
        for name in ("tiny", "sherman3"):
            perm = read_input(prep.input_dir, name, "perm")
            want = cmck(symmetrize_lower(harness.load_matrix(tiny_data, name)))
            assert perm["forward"].tolist() == want.forward, name
            assert perm["inverse"].tolist() == want.inverse, name


# --- results tree and aggregation ---------------------------------------------

def make_payload(config, bench, matrix, seconds):
    return {
        "benchmark": bench, "matrix": matrix, "config": config, "ok": True,
        "error": None, "seconds": seconds, "runs": [seconds] * 3,
        "aggregator": "median", "warmup_runs": 0, "measured_runs": 3,
        "dispersion_ok": True, "checksums": {"y": 1.0},
        "ref_checksums": {"y": 1.0},
    }


def test_time_file_round_trip(tmp_path):
    path = time_file_path(tmp_path, "base", "SPMATVEC", "add32")
    assert path == tmp_path / "base" / "SPMATVEC__add32.time"
    write_time_file(path, make_payload("base", "SPMATVEC", "add32", 0.125))
    d = parse_time_file(path)
    assert d["benchmark"] == "SPMATVEC"
    assert d["matrix"] == "add32"
    assert d["seconds"] == 0.125
    assert d["runs"] == [0.125] * 3


GOLDEN = (
    "base ASM none 2.000000 2.000000\n"
    "base SPMATVEC add32 0.500000 0.500000\n"
    "base TRMAT add32 0.125000 0.125000\n"
    "fast ASM none 2.000000 1.000000\n"
    "fast SPMATVEC add32 0.500000 0.250000\n"
    "fast TRMAT add32 0.125000 0.100000\n"
)


def golden_tree(root):
    cells = [("base", "SPMATVEC", "add32", 0.5),
             ("base", "TRMAT", "add32", 0.125),
             ("base", "ASM", "none", 2.0),
             ("fast", "SPMATVEC", "add32", 0.25),
             ("fast", "TRMAT", "add32", 0.1),
             ("fast", "ASM", "none", 1.0)]
    for cid, bench, mat, sec in cells:
        write_time_file(time_file_path(root, cid, bench, mat),
                        make_payload(cid, bench, mat, sec))


def test_aggregate_golden_bytes(tmp_path):
    root = tmp_path / "results"
    golden_tree(root)
    out, warnings = aggregate(root)
    assert out == tmp_path / "exp" / "data" / "spark.dat"
    assert warnings == []
    assert out.read_bytes() == GOLDEN.encode("ascii")
    # byte-for-byte stable across repeated aggregation
    out2, _ = aggregate(root)
    assert out2.read_bytes() == GOLDEN.encode("ascii")
    records = parse_spark_dat(out)
    assert len(records) == 6
    assert all(r.format_line() + "\n" in GOLDEN for r in records)


def test_aggregate_skips_cells_without_base(tmp_path):
    root = tmp_path / "results"
    golden_tree(root)
    write_time_file(time_file_path(root, "fast", "CMCK", "add32"),
                    make_payload("fast", "CMCK", "add32", 0.5))
    out, warnings = aggregate(root)
    assert len(warnings) == 1 and "CMCK" in warnings[0]
    assert "CMCK" not in out.read_text()


def test_aggregate_pairs_only_cells_measured_under_one_policy(tmp_path):
    root = tmp_path / "results"
    for cid, policy, sec in (("base", TimingPolicy(1, 3, "median"), 0.0078),
                             ("opt1", TimingPolicy(0, 3, "min"), 0.0071)):
        write_time_file(time_file_path(root, cid, "TRMAT", "sherman3"), {
            **make_payload(cid, "TRMAT", "sherman3", sec),
            **dataclasses.asdict(policy)})
    out, warnings = aggregate(root)
    assert out.read_text() == "base TRMAT sherman3 0.007800 0.007800\n"
    assert warnings == [
        "policy differs from base for TRMAT sherman3 (warmup_runs 0 vs 1, "
        "aggregator 'min' vs 'median'); skipping opt1"]


@pytest.mark.parametrize("checksums, keys", [
    ({"y": math.nextafter(1.0, 2.0)}, "y"),
    ({"y": 1.0, "z": 0.0}, "z"),
])
def test_aggregate_warns_when_checksums_differ_from_base_in_any_bit(
        tmp_path, checksums, keys):
    root = tmp_path / "results"
    for cid, sec in (("base", 0.0078), ("opt1", 0.0071)):
        write_time_file(time_file_path(root, cid, "TRMAT", "sherman3"),
                        make_payload(cid, "TRMAT", "sherman3", sec))
    opt1 = time_file_path(root, "opt1", "TRMAT", "sherman3")
    write_time_file(opt1, {**parse_time_file(opt1), "checksums": checksums})
    out, warnings = aggregate(root)
    # still paired
    assert out.read_text() == ("base TRMAT sherman3 0.007800 0.007800\n"
                               "opt1 TRMAT sherman3 0.007800 0.007100\n")
    assert warnings == [f"checksums {keys} of TRMAT sherman3 under opt1 "
                        "differ in their bits from base's"]


def test_aggregate_skips_a_time_file_whose_checksums_are_not_an_object(tmp_path):
    root = tmp_path / "results"
    golden_tree(root)
    bad = time_file_path(root, "fast", "TRMAT", "add32")
    write_time_file(bad, {**make_payload("fast", "TRMAT", "add32", 0.1),
                          "checksums": [1.0]})
    out, warnings = aggregate(root)
    assert len(warnings) == 1 and str(bad) in warnings[0]
    assert out.read_text() == GOLDEN.replace(
        "fast TRMAT add32 0.125000 0.100000\n", "")


def test_time_file_write_leaves_no_temporary(tmp_path):
    path = time_file_path(tmp_path, "base", "SPMATVEC", "add32")
    write_time_file(path, make_payload("base", "SPMATVEC", "add32", 0.5))
    write_time_file(path, make_payload("base", "SPMATVEC", "add32", 0.25))
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    assert parse_time_file(path)["seconds"] == 0.25


def test_aggregate_skips_truncated_time_file(tmp_path):
    root = tmp_path / "results"
    golden_tree(root)
    cut = time_file_path(root, "fast", "TRMAT", "add32")
    text = cut.read_text()
    for size in (0, text.index("seconds"), text.index("ref_checksum"),
                 len(text) - 3):
        cut.write_text(text[:size])
        with pytest.raises(HarnessError):
            parse_time_file(cut)
        out, warnings = aggregate(root)
        assert len(warnings) == 1 and str(cut) in warnings[0]
        assert out.read_text() == GOLDEN.replace(
            "fast TRMAT add32 0.125000 0.100000\n", "")


@pytest.mark.parametrize("seconds", [float("nan"), 0.0, -1.0])
def test_aggregate_skips_time_file_without_positive_seconds(tmp_path, seconds):
    root = tmp_path / "results"
    golden_tree(root)
    bad = time_file_path(root, "fast", "TRMAT", "add32")
    write_time_file(bad, make_payload("fast", "TRMAT", "add32", seconds))
    out, warnings = aggregate(root)
    assert len(warnings) == 1 and str(bad) in warnings[0]
    assert out.read_text() == GOLDEN.replace(
        "fast TRMAT add32 0.125000 0.100000\n", "")


def test_aggregate_skips_a_cell_whose_names_break_the_rule(tmp_path):
    root = tmp_path / "results"
    golden_tree(root)
    for bench, mat, sec in (("SPMATVEC", "add32", 0.25), ("ASM", "none", 1.0)):
        write_time_file(time_file_path(root, "my run", bench, mat),
                        make_payload("my run", bench, mat, sec))
    out, warnings = aggregate(root)
    assert len(warnings) == 2
    assert all("config id 'my run'" in w for w in warnings)
    assert out.read_bytes() == GOLDEN.encode("ascii")


@pytest.mark.parametrize("key", ["benchmark", "matrix"])
def test_aggregate_skips_a_time_file_whose_names_are_not_strings(tmp_path, key):
    root = tmp_path / "results"
    golden_tree(root)
    for cid in ("base", "fast"):
        payload = make_payload(cid, "TRMAT", "add32", 0.125)
        payload[key] = 5
        write_time_file(time_file_path(root, cid, "TRMAT", "add32"), payload)
    out, warnings = aggregate(root)
    assert len(warnings) == 2 and all("malformed" in w for w in warnings)
    assert out.read_text() == "".join(
        line + "\n" for line in GOLDEN.splitlines() if "TRMAT" not in line)


def test_aggregate_requires_base_dir(tmp_path):
    root = tmp_path / "results"
    (root / "fast").mkdir(parents=True)
    with pytest.raises(HarnessError):
        aggregate(root)


def test_run_suite_continues_after_failures(tiny_data, tmp_path, monkeypatch):
    monkeypatch.setenv("SPARKBENCH_CORRUPT", "CMCK")
    root = tmp_path / "results"
    outcomes = run_suite([BenchConfig("base")], ["TRMAT", "CMCK"], ["tiny"],
                         FAST, tiny_data, root)
    status = {(b, s.split(":")[0]) for _, b, _, s in outcomes}
    assert ("TRMAT", "ok") in status
    assert ("CMCK", "failed") in status
    assert time_file_path(root, "base", "TRMAT", "tiny").exists()
    assert not time_file_path(root, "base", "CMCK", "tiny").exists()
    assert time_file_path(root, "base", "CMCK", "tiny").with_suffix(
        ".err").exists()


def test_only_a_gate_rejection_is_an_oracle_mismatch(tiny_data, tmp_path,
                                                      monkeypatch):
    root = tmp_path / "results"
    err = time_file_path(root, "base", "TRMAT", "tiny").with_suffix(".err")
    with prepare(["TRMAT"], ["tiny"], tiny_data) as prep:
        monkeypatch.setenv("SPARKBENCH_CORRUPT", "TRMAT")
        assert _record_cell(root, "TRMAT", "tiny", BenchConfig("base"), FAST,
                            prep) == "failed: OracleMismatchError"
        assert err.read_text().startswith(
            "OracleMismatchError: oracle checksum mismatch")
        monkeypatch.delenv("SPARKBENCH_CORRUPT")
        # the runner fails before any gate can run
        (prep.input_dir / "tiny.csr.values").unlink()
        assert _record_cell(root, "TRMAT", "tiny", BenchConfig("base"), FAST,
                            prep) == "failed: HarnessError"
    first = err.read_text().splitlines()[0]
    assert first.startswith("HarnessError: runner failed for TRMAT/tiny under "
                            "base (exit status 1): FileNotFoundError: ")


def test_a_runner_dying_without_output_fails_only_its_cells(tiny_data, tmp_path):
    root = tmp_path / "results"
    outcomes = run_suite([BenchConfig("base"),
                          BenchConfig("dies", '-c "raise SystemExit(3)"')],
                         ["TRMAT", "ASM"], ["tiny"], FAST, tiny_data, root)
    assert [(c, b, s) for c, b, _, s in outcomes] == [
        ("base", "TRMAT", "ok"), ("base", "ASM", "ok"),
        ("dies", "TRMAT", "failed: HarnessError"),
        ("dies", "ASM", "failed: HarnessError")]
    for name, mat in (("TRMAT", "tiny"), ("ASM", "none")):
        assert parse_time_file(time_file_path(root, "base", name, mat))["seconds"] > 0
        err = time_file_path(root, "dies", name, mat).with_suffix(".err")
        first = err.read_text().splitlines()[0]
        assert "under dies" in first and "exit status 3" in first
        assert not time_file_path(root, "dies", name, mat).exists()


def test_a_runner_exiting_without_a_payload_fails_only_its_cells(tiny_data,
                                                                  tmp_path):
    root = tmp_path / "results"
    outcomes = run_suite([BenchConfig("base"), BenchConfig("quiet", "-c pass")],
                         ["TRMAT", "ASM"], ["tiny"], FAST, tiny_data, root)
    assert [(c, b, s) for c, b, _, s in outcomes] == [
        ("base", "TRMAT", "ok"), ("base", "ASM", "ok"),
        ("quiet", "TRMAT", "failed: HarnessError"),
        ("quiet", "ASM", "failed: HarnessError")]
    for name, mat in (("TRMAT", "tiny"), ("ASM", "none")):
        assert parse_time_file(time_file_path(root, "base", name, mat))["seconds"] > 0
        err = time_file_path(root, "quiet", name, mat).with_suffix(".err")
        assert err.read_text().splitlines()[0] == (
            f"HarnessError: runner failed for {name}/{mat} under quiet "
            "(no payload): no output on stderr")
        assert not time_file_path(root, "quiet", name, mat).exists()


@pytest.fixture()
def started(monkeypatch):
    """Every process the harness starts, in start order."""
    procs = []
    popen = subprocess.Popen

    def start(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]
    monkeypatch.setattr(harness.subprocess, "Popen", start)
    return procs


def test_a_run_starts_one_runner_per_configuration(tiny_data, tmp_path, started):
    configs = [BenchConfig("base"), BenchConfig("opt1", "-O")]
    outcomes = run_suite(configs, ["TRMAT", "CMCK", "ASM"], ["tiny"], FAST,
                         tiny_data, tmp_path / "results")
    assert [s for *_, s in outcomes] == ["ok"] * 6
    assert [p.args for p in started] == [harness._runner_command(c) for c in configs]


def test_a_copy_of_a_configuration_gets_its_own_runner(tiny_data, tmp_path, started):
    # an A/A control must not fork from the zygote of the run it is compared to
    configs = [BenchConfig("base"), BenchConfig("copy")]
    outcomes = run_suite(configs, ["TRMAT"], ["tiny"], FAST, tiny_data,
                         tmp_path / "results")
    assert [s for *_, s in outcomes] == ["ok"] * 2
    assert [p.args for p in started] == [harness._runner_command(c) for c in configs]


@pytest.fixture()
def started_before_references(monkeypatch, started):
    """How many processes had started each time TRMAT's reference ran."""
    seen = []
    bench = BENCHMARKS["TRMAT"]

    def reference(op):
        seen.append(len(started))
        return bench.reference(op)
    monkeypatch.setitem(BENCHMARKS, "TRMAT",
                        dataclasses.replace(bench, reference=reference))
    return seen


def test_runners_start_before_the_references_are_made(tiny_data, tmp_path,
                                                      started_before_references):
    run_suite([BenchConfig("base"), BenchConfig("opt1", "-O")], ["TRMAT"], ["tiny"],
              FAST, tiny_data, tmp_path / "results")
    assert started_before_references == [2]


def test_verify_matrix_starts_its_runner_before_the_references(
        tiny_data, started_before_references):
    assert verify_matrix(tiny_data, "tiny")[1]
    assert started_before_references == [1]


def test_no_runner_outlives_prepare(tiny_data, started):
    with pytest.raises(RuntimeError, match="stop"):
        with prepare(["TRMAT", "DSOLVE"], ["tiny"], tiny_data) as prep:
            # every reference is made in this process: prepare with no
            # configuration starts no process, and a cell starts its runner
            assert started == []
            for config in (BenchConfig("base"), BenchConfig("opt1", "-O")):
                harness.run_cell_subprocess("TRMAT", "tiny", config, FAST, prep)
            assert all(p.poll() is None for p in started)
            raise RuntimeError("stop")
    assert len(started) == 2
    assert all(p.poll() is not None for p in started)


class Stop(BaseException):
    """Raised past every ``except Exception`` in the harness."""


def test_no_runner_outlives_a_prepare_that_raises(tiny_data, monkeypatch, started):
    def stop(op):
        raise Stop
    monkeypatch.setitem(BENCHMARKS, "ASM",
                        dataclasses.replace(BENCHMARKS["ASM"], reference=stop))
    with pytest.raises(Stop):
        prepare(["DSOLVE", "ASM"], ["tiny"], tiny_data, [BenchConfig("base")])
    # the runner started before the references, and the unwinding reaped it
    assert len(started) == 1 and started[0].poll() is not None


def test_no_runner_outlives_verify_matrix(tiny_data, monkeypatch, started):
    assert verify_matrix(tiny_data, "tiny")[1]
    # DSOLVE's gate ran in a child of one base runner, reaped on return
    assert [p.args for p in started] == [harness._runner_command(BenchConfig("base"))]
    assert started[0].poll() is not None

    def stop(*args, **kwargs):
        raise Stop
    # an in-process gate stops while DSOLVE's child may still be running
    monkeypatch.setattr(harness, "Cell", stop)
    with pytest.raises(Stop):
        verify_matrix(tiny_data, "tiny")
    assert len(started) == 2
    assert started[1].poll() is not None


def test_verify_matrix_never_builds_dsolves_storage_in_this_process(tiny_data,
                                                                   monkeypatch):
    # the runner's child is a fresh interpreter: the patch reaches only
    # this process
    def build_ortho(*args):
        raise AssertionError("DSOLVE's storage built in the parent")
    monkeypatch.setattr(cells, "build_ortho", build_ortho)
    assert verify_matrix(tiny_data, "tiny") == ("scale:tiny", True, "8 kernel gates")


def test_verify_matrix_gives_one_line_for_a_failing_dsolve_child(tiny_data,
                                                                monkeypatch):
    _short_factor(monkeypatch, "values")
    label, ok, detail = verify_matrix(tiny_data, "tiny")
    assert (label, ok) == ("scale:tiny", False)
    assert detail.startswith(
        "DSOLVE: HarnessError: runner failed for DSOLVE/tiny under base "
        "(exit status 1): sparkbench.cells.HarnessError: factor part "
        "tiny.lu.values has"), detail
    assert "\n" not in detail


# A runner whose children print a line to stdout before each ``run``.
STRAY_PRINT = ("import sparkbench._runner as r; run = r.Cell.run; "
               "r.Cell.run = lambda c, n: print('Traceback (stray)') or run(c, n); "
               "r.main()")


def test_a_dead_child_fails_only_its_cell(tiny_data, tmp_path, started):
    root = tmp_path / "results"
    # each passing cell writes to the stderr its runner's children share
    base = BenchConfig("base", "-c " + shlex.quote(STRAY_PRINT))
    with prepare(["DSOLVE", "TRMAT"], ["tiny"], tiny_data) as prep:
        (prep.input_dir / "tiny.lu.values").unlink()
        assert [_record_cell(root, name, "tiny", base, FAST, prep)
                for name in ("TRMAT", "DSOLVE", "TRMAT")] == [
            "ok", "failed: HarnessError", "ok"]
        # a cell's stderr is its own child's: one traceback, no stray print
        runner = prep.runner(base)
        with pytest.raises(HarnessError, match="exit status 1"):
            runner.run(prep.job("DSOLVE", "tiny"), 0, 3)
        stderr = runner.close()[1]
        assert (stderr.count("Traceback"), "stray" in stderr) == (1, False)
    # the failure ended the runner, and the next cell started another
    assert len(started) == 2
    err = time_file_path(root, "base", "DSOLVE", "tiny").with_suffix(".err")
    assert err.read_text().startswith(
        "HarnessError: runner failed for DSOLVE/tiny under base (exit status 1): "
        "FileNotFoundError: ")


# A runner whose first child to reach a second ``run`` line kills itself
# there, after answering the first; ``{flag}`` marks that it happened.
KILL_ONCE = """import os, signal, sparkbench._runner as r
run = r.Cell.run
def run_or_die(cell, n, seen=[]):
    seen.append(n)
    if len(seen) == 2 and not os.path.exists({flag!r}):
        open({flag!r}, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return run(cell, n)
r.Cell.run = run_or_die
r.main()
"""


def test_a_child_killed_between_two_runs_fails_only_its_cell(tiny_data, tmp_path,
                                                             started):
    root = tmp_path / "results"
    flag = tmp_path / "killed"
    killed = BenchConfig("killed", "-c " + shlex.quote(KILL_ONCE.format(flag=str(flag))))
    outcomes = run_suite([BenchConfig("base"), killed], ["TRMAT", "CMCK"], ["tiny"],
                         FAST, tiny_data, root)
    assert flag.exists()
    assert [(c, b, s) for c, b, _, s in outcomes] == [
        ("base", "TRMAT", "ok"), ("base", "CMCK", "ok"),
        ("killed", "TRMAT", "failed: HarnessError"), ("killed", "CMCK", "ok")]
    err = time_file_path(root, "killed", "TRMAT", "tiny").with_suffix(".err")
    assert err.read_text().splitlines()[0] == (
        "HarnessError: runner failed for TRMAT/tiny under killed "
        "(exit status -9): no output on stderr")
    # the kill ended the runner; CMCK ran in a new one
    assert [p.args for p in started] == [
        harness._runner_command(c) for c in (BenchConfig("base"), killed, killed)]


# --- the factorization ----------------------------------------------------------

def _singular(monkeypatch):
    """Make every factorization in this process fail."""
    def splu(a):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(harness, "splu", splu)


def test_a_failing_factorization_fails_only_the_dsolve_cells(tiny_data, tmp_path,
                                                             monkeypatch):
    _singular(monkeypatch)
    root = tmp_path / "results"
    outcomes = run_suite([BenchConfig("base")], ["DSOLVE", "TRMAT"], ["tiny"], FAST,
                         tiny_data, root)
    assert [(b, s) for _, b, _, s in outcomes] == [
        ("DSOLVE", "failed: RuntimeError"), ("TRMAT", "ok")]
    err = time_file_path(root, "base", "DSOLVE", "tiny").with_suffix(".err")
    assert err.read_text().startswith("RuntimeError: Factor is exactly singular")


def test_verify_matrix_names_a_failing_factorization(tiny_data, monkeypatch):
    _singular(monkeypatch)
    assert verify_matrix(tiny_data, "tiny") == (
        "scale:tiny", False, "DSOLVE: RuntimeError: Factor is exactly singular")


def test_a_failing_factorization_fails_only_its_matrixs_dsolve_cell(
        tiny_data, tmp_path, monkeypatch):
    factor = harness.splu

    def splu(a):
        if a.shape[0] == 30:
            raise RuntimeError("Factor is exactly singular")
        return factor(a)
    monkeypatch.setattr(harness, "splu", splu)
    write_matrix_market(matrix_path(tiny_data, "tiny2"), gen_spd(30, seed=5),
                        symmetry="symmetric")
    root = tmp_path / "results"
    outcomes = run_suite([BenchConfig("base")], ["DSOLVE", "TRMAT", "ASM"],
                         ["tiny", "tiny2"], FAST, tiny_data, root)
    assert [(b, m, s) for _, b, m, s in outcomes] == [
        ("DSOLVE", "tiny", "ok"), ("DSOLVE", "tiny2", "failed: RuntimeError"),
        ("TRMAT", "tiny", "ok"), ("TRMAT", "tiny2", "ok"), ("ASM", "none", "ok")]
    err = time_file_path(root, "base", "DSOLVE", "tiny2").with_suffix(".err")
    assert err.read_text().startswith("RuntimeError: Factor is exactly singular")


def test_prepare_writes_the_in_process_factor_and_reference(tiny_data, tmp_path):
    op = harness._Operands(harness.load_matrix(tiny_data, "tiny"))
    _write_factor(op.lu, tmp_path, "tiny")
    want = {k: v.hex() for k, v in harness._ref_dsolve(op).items()}
    with prepare(["DSOLVE"], ["tiny"], tiny_data) as prep:
        got = {k: v.hex() for k, v in prep.reference("DSOLVE", "tiny").items()}
        for part in INPUT_PARTS["lu"]:
            assert (input_path(prep.input_dir, "tiny", "lu", part).read_bytes()
                    == input_path(tmp_path, "tiny", "lu", part).read_bytes()), part
    assert got == want


def test_a_missing_interpreter_fails_only_its_configuration(tiny_data, tmp_path):
    configs = [BenchConfig("base"),
               BenchConfig("ghost", "", str(tmp_path / "no-such-python"))]
    outcomes = run_suite(configs, ["TRMAT", "ASM"], ["tiny"], FAST, tiny_data,
                         tmp_path / "results")
    assert [(c, s) for c, _, _, s in outcomes] == [
        ("base", "ok"), ("base", "ok"),
        ("ghost", "failed: FileNotFoundError"), ("ghost", "failed: FileNotFoundError")]


def test_a_childs_stray_stdout_leaves_its_cell_ok(tiny_data):
    chatty = BenchConfig("chatty", "-c " + shlex.quote(STRAY_PRINT))
    with prepare(["TRMAT"], ["tiny"], tiny_data, [chatty]) as prep:
        record = harness.run_cell_subprocess("TRMAT", "tiny", chatty, FAST, prep)
        # the child's stdout is the runner's stderr: one print per run line
        assert prep.runner(chatty).close() == (0, "Traceback (stray)\n" * 2)
    assert len(record["runs"]) == 3


@pytest.mark.parametrize("script", [
    # a runner that answers with text and exits
    "print('not a reply')",
    # a runner that answers with text and waits for more input
    "import sys; print('not a reply', flush=True); sys.stdin.read()",
])
def test_stray_stdout_fails_the_cell_as_no_payload(tiny_data, tmp_path, script):
    root = tmp_path / "results"
    outcomes = run_suite([BenchConfig("base"),
                          BenchConfig("chatty", "-c " + shlex.quote(script))],
                         ["TRMAT", "ASM"], ["tiny"], FAST, tiny_data, root)
    assert [s for *_, s in outcomes] == ["ok", "ok"] + ["failed: HarnessError"] * 2
    for name, mat in (("TRMAT", "tiny"), ("ASM", "none")):
        err = time_file_path(root, "chatty", name, mat).with_suffix(".err")
        assert err.read_text().splitlines()[0] == (
            f"HarnessError: runner failed for {name}/{mat} under chatty "
            "(no payload): no output on stderr")


def test_run_suite_requires_base(tiny_data, tmp_path):
    with pytest.raises(HarnessError):
        run_suite([BenchConfig("other")], ["TRMAT"], ["tiny"], FAST,
                  tiny_data, tmp_path / "results")
    with pytest.raises(HarnessError):
        run_suite([BenchConfig("base"), BenchConfig("base")], ["TRMAT"],
                  ["tiny"], FAST, tiny_data, tmp_path / "results")


# --- reporting -----------------------------------------------------------------

def test_report_csv_and_charts(tmp_path):
    root = tmp_path / "results"
    golden_tree(root)
    dat, _ = aggregate(root)
    csv_path, svg_paths, notices = report(dat, tmp_path / "report")
    assert notices == []
    assert csv_path.read_text() == (
        "id,benchmark,matrix,speedup\n"
        "fast,ASM,none,2.000000\n"
        "fast,SPMATVEC,add32,2.000000\n"
        "fast,TRMAT,add32,1.250000\n")
    names = sorted(p.name for p in svg_paths)
    assert names == ["add32.svg", "none.svg"]
    svg = (tmp_path / "report" / "add32.svg").read_text()
    assert "speedups on add32" in svg
    assert "SPMATVEC" in svg and "TRMAT" in svg
    assert "fast" in svg
    assert "1.00" in svg  # unity gridline label
    # deterministic output
    report(dat, tmp_path / "report2")
    assert (tmp_path / "report2" / "add32.svg").read_text() == svg


def test_report_empty_input(tmp_path):
    dat = tmp_path / "spark.dat"
    dat.write_text("")
    csv_path, svg_paths, notices = report(dat, tmp_path / "report")
    assert csv_path.read_text() == "id,benchmark,matrix,speedup\n"
    assert svg_paths == [] and len(notices) == 1


def test_report_charts_an_unregistered_benchmark_as_other_kernels(tmp_path):
    dat = tmp_path / "spark.dat"
    dat.write_text("".join(
        f"{cid} {bench} m 1.000000 {sec}\n"
        for cid, sec in (("base", "1.000000"), ("fast", "0.500000"))
        for bench in ("FOO", "SPMATVEC", "TRMAT")))
    _, svg_paths, notices = report(dat, tmp_path / "report")
    assert notices == ["not registered kernels, charted as other kernels: FOO"]
    svg = svg_paths[0].read_text()
    x = {text: float(at) for at, text in
         re.findall(r'<text x="([0-9.]+)"[^>]*>([^<]+)<', svg)}
    # each family's label sits under its own kernels, FOO's group last
    assert x["SPMATVEC"] == x["pointer-traversal kernels"]
    assert x["TRMAT"] == x["indirection-array kernels"]
    assert x["FOO"] == x["other kernels"] > x["TRMAT"]
    assert svg.count('stroke-dasharray="3 3"') == 2


# --- config files ----------------------------------------------------------------

def test_parse_config_file(tmp_path):
    p = tmp_path / "bench.cfg"
    p.write_text("\n".join([
        "# reference first",
        "id base",
        "",
        "id opt",
        "cflags -O",
        "id alt",
        "cc python3",
        "cflags -OO",
    ]) + "\n")
    configs = parse_config_file(p)
    assert [c.id for c in configs] == ["base", "opt", "alt"]
    assert configs[1].build_flags == "-O"
    assert configs[2].compiler_override == "python3"
    assert configs[2].build_flags == "-OO"


def test_parse_config_file_rejects_stray_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("cflags -O\n")
    with pytest.raises(HarnessError):
        parse_config_file(p)
    p.write_text("id x\nbogus 1\n")
    with pytest.raises(HarnessError):
        parse_config_file(p)
    p.write_text("# nothing\n")
    with pytest.raises(HarnessError):
        parse_config_file(p)


def test_parse_config_file_rejects_flags_that_cannot_be_split(tmp_path):
    # otherwise every cell of the configuration fails with a bare ValueError
    p = tmp_path / "bad.cfg"
    p.write_text('id base\nid bad\ncflags -c "import x\n')
    with pytest.raises(HarnessError,
                       match=re.escape(f"{p}:3: No closing quotation")):
        parse_config_file(p)


def test_parse_config_file_names_the_line_of_a_bad_id(tmp_path):
    p = tmp_path / "bench.cfg"
    p.write_text("id base\nid a&b\n")
    with pytest.raises(HarnessError, match=re.escape(f"{p}:2: config id 'a&b'")):
        parse_config_file(p)


# --- verification driver -----------------------------------------------------------

def test_verify_fixtures_all_pass():
    results = verify_fixtures(seed=2024, count=10)
    assert all(ok for _, ok, _ in results), results
    labels = [label for label, _, _ in results]
    assert "spmatvec" in labels and "pcg" in labels and "asm" in labels
    # deterministic: identical output for identical seed
    assert verify_fixtures(seed=2024, count=10) == results


def test_verify_fixtures_fails_a_wrong_transpose(monkeypatch):
    trmat = arr_kernels.trmat

    def shifted(m):
        t = trmat(m)
        return dataclasses.replace(t, values=[v + 1.0 for v in t.values])

    monkeypatch.setattr(arr_kernels, "trmat", shifted)
    results = verify_fixtures(seed=2024, count=3)
    assert ("trmat", False, "fixture 0: transpose differs") in results
    assert all(ok for label, ok, _ in results if label != "trmat"), results


def test_verify_fixtures_fails_a_misreported_pcg_residual(monkeypatch):
    pcg = ptr_kernels.pcg

    def misreported(*args):
        x, used, rel = pcg(*args)
        return x, used, 2.0 * rel + 1e-3

    monkeypatch.setattr(ptr_kernels, "pcg", misreported)
    results = {label: (ok, detail) for label, ok, detail
               in verify_fixtures(seed=2024, count=3)}
    ok, detail = results.pop("pcg")
    assert not ok and detail.startswith("trial 0: reported residual "), detail
    assert all(ok for ok, _ in results.values()), results


def _shifted(m):
    return dataclasses.replace(m, values=[v + 1.0 for v in m.values])


def _plus_one(x):
    return [v + 1.0 for v in x]


# (module, function, wrapper of the real function, the failures it causes)
_BREAKS = [
    (core, "linked_to_csr", lambda f: lambda lk: _shifted(f(lk)),
     [("conversions", False, "fixture 0: linked round trip differs")]),
    # pcg multiplies through spmatvec, so its residual check fails too
    (ptr_kernels, "spmatvec", lambda f: lambda *a: _plus_one(f(*a)),
     [("spmatvec", False, "fixture 0: product differs"),
      ("pcg", False, "trial 0: reported residual 11.93124348036075 "
                     "vs recomputed 12.582877766311597")]),
    (ptr_kernels, "spmatmat", lambda f: lambda *a: [_plus_one(r) for r in f(*a)],
     [("spmatmat", False, "fixture 0: product differs")]),
    (ptr_kernels, "jacit", lambda f: lambda *a: _plus_one(f(*a)),
     [("jacit", False, "fixture 0: sweeps diverge from oracle")]),
    (ptr_kernels, "dsolve", lambda f: lambda *a: _plus_one(f(*a)),
     [("dsolve", False, "fixture 0: residual too large")]),
    (arr_kernels, "mperm", lambda f: lambda *a: (_shifted(f(*a)[0]), f(*a)[1]),
     [("mperm", False, "fixture 0: permuted matrix differs")]),
    (matio, "write_matrix_market",
     lambda f: lambda p, m, **kw: f(p, _shifted(m), **kw),
     [("matrixmarket", False, "fixture 0: file round trip differs")]),
    (arr_kernels, "asm_assemble", lambda f: lambda mesh: _shifted(f(mesh)),
     [("asm", False, "mesh 2x2: max deviation 1.0")]),
    # the identity order is a permutation, but not the reference order
    (arr_kernels, "cmck", lambda f: lambda m, *a: Permutation(list(range(m.n_rows))),
     [("cmck", False, "fixture 2: order differs from the reference"),
      ("cmck_bandwidth", False, "arrow n=50: bandwidth not reduced 49 -> 49")]),
]


@pytest.mark.parametrize("module, name, wrap, failures", _BREAKS,
                         ids=[name for _, name, _, _ in _BREAKS])
def test_verify_fixtures_names_the_first_failure_of_a_broken_kernel(
        module, name, wrap, failures, monkeypatch):
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    results = verify_fixtures(seed=2024, count=3)
    assert [r for r in results if not r[1]] == failures
    assert len(results) == 12


def test_verify_fixtures_fails_only_the_label_of_a_raising_kernel(monkeypatch):
    monkeypatch.setattr(ptr_kernels, "spmatmat",
                        raising_on_second_call(ptr_kernels.spmatmat))
    results = verify_fixtures(seed=2024, count=3)
    assert [r for r in results if not r[1]] == [
        ("spmatmat", False, "fixture 1: IndexError: list index out of range")]
    assert len(results) == 12


# MPERM permutes by the reference order, so a broken CMCK cannot fail it
@pytest.mark.parametrize("name, labels", [("cmck", ["cmck", "cmck_bandwidth"]),
                                          ("mperm", ["mperm"])])
def test_verify_fixtures_fails_only_the_labels_of_a_raising_ordering_kernel(
        name, labels, monkeypatch):
    def broken(*args):
        raise RuntimeError(f"{name} is broken")
    monkeypatch.setattr(arr_kernels, name, broken)
    results = verify_fixtures(seed=2024, count=3)
    assert [label for label, ok, _ in results if not ok] == labels


def test_verify_fixtures_checks_cmck_on_the_banded_family(monkeypatch):
    family, calls = matio.gen_pentadiagonal, []

    def spy(n, seed):
        calls.append((n, seed))
        return family(n, seed)

    monkeypatch.setattr(matio, "gen_pentadiagonal", spy)
    results = verify_fixtures(seed=2024, count=3)
    assert calls == [(50, 50), (120, 120)]
    assert ("cmck_bandwidth", True, "2 sizes") in results


def test_verify_matrix_gates_every_matrix_kernel(tiny_data):
    assert verify_matrix(tiny_data, "tiny") == ("scale:tiny", True, "8 kernel gates")


def test_verify_matrix_names_a_corrupted_kernel(tiny_data, monkeypatch):
    monkeypatch.setenv("SPARKBENCH_CORRUPT", "DSOLVE")
    assert verify_matrix(tiny_data, "tiny") == (
        "scale:tiny", False, "DSOLVE: checksum mismatch")


def test_verify_matrix_reports_in_benchmark_order(tiny_data, monkeypatch):
    # DSOLVE is gated last, yet its problem comes before PCG's
    _singular(monkeypatch)
    monkeypatch.setenv("SPARKBENCH_CORRUPT", "PCG")
    assert verify_matrix(tiny_data, "tiny")[2] == (
        "DSOLVE: RuntimeError: Factor is exactly singular; PCG: checksum mismatch")
