"""Harness engine: records, timing policy, gates, aggregation, report."""

import random

import numpy as np
import pytest

from sparkbench.cells import read_input
from sparkbench.core import CsrMatrix, ParameterError
from sparkbench.harness import (
    BENCHMARKS,
    BENCHMARK_ORDER,
    ARRAY_BENCHMARKS,
    POINTER_BENCHMARKS,
    BenchConfig,
    BenchRecord,
    HarnessError,
    OracleMismatchError,
    TimingPolicy,
    _checksums_match,
    _reference_cm,
    _scipy_csr,
    _write_factor,
    aggregate,
    execute_cell,
    parse_config_file,
    parse_spark_dat,
    parse_time_file,
    probe_vector,
    report,
    run_benchmark,
    run_suite,
    speedup,
    time_file_path,
    verify_fixtures,
    weighted_checksum,
    write_time_file,
)
from sparkbench.matio import (
    gen_spd,
    matrix_path,
    symmetrize_lower,
    write_matrix_market,
)
from sparkbench.arr_kernels import cmck
from sparkbench.ptr_kernels import dsolve


@pytest.fixture()
def tiny_data(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    m = gen_spd(40, seed=21)
    write_matrix_market(matrix_path(data, "tiny"), m, symmetry="symmetric")
    return data


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
    with pytest.raises(ParameterError):
        BenchRecord("a b", "X", "m", 1.0, 1.0)
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


def test_policy_aggregates():
    runs = [3.0, 1.0, 2.0]
    assert TimingPolicy(aggregator="median").aggregate(runs) == 2.0
    assert TimingPolicy(aggregator="min").aggregate(runs) == 1.0


def test_config_validation():
    assert BenchConfig("base").build_flags == ""
    with pytest.raises(ParameterError):
        BenchConfig("has space")


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
    assert payload["ok"]
    assert len(payload["runs"]) == 3
    assert payload["seconds"] == min(payload["runs"])
    assert payload["checksums"].keys() == payload["ref_checksums"].keys()


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
    payload = execute_cell("SPMATVEC", "tiny", tiny_data, FAST)
    assert not payload["ok"]
    assert "mismatch" in payload["error"]
    # other benchmarks are unaffected by the hook
    assert execute_cell("TRMAT", "tiny", tiny_data, FAST)["ok"]


def test_every_benchmark_gates_green(tiny_data):
    for name in BENCHMARK_ORDER:
        mat = "none" if name == "ASM" else "tiny"
        payload = execute_cell(name, mat, tiny_data, FAST)
        assert payload["ok"], (name, payload["error"])


def test_run_benchmark_subprocess(tiny_data):
    seconds = run_benchmark("TRMAT", "tiny", BenchConfig("base"), FAST,
                            tiny_data)
    assert seconds > 0.0


def test_run_benchmark_subprocess_rejects_corrupt(tiny_data, monkeypatch):
    monkeypatch.setenv("SPARKBENCH_CORRUPT", "TRMAT")
    with pytest.raises(OracleMismatchError):
        run_benchmark("TRMAT", "tiny", BenchConfig("base"), FAST, tiny_data)


# --- dsolve setup at harness scale --------------------------------------------

def test_splu_merge_solves(tmp_path):
    from scipy.sparse.linalg import splu
    m = gen_spd(60, seed=31)
    lu_obj = splu(_scipy_csr(m).tocsc())
    _write_factor(lu_obj, tmp_path, "m")
    ortho = BENCHMARKS["DSOLVE"].setup(read_input(tmp_path, "m", "lu"))["ortho"]
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


def test_reference_cm_agrees_with_kernel():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 30)
        triples = {(i, i): 1.0 for i in range(n)}
        for i in range(n):
            for j in rng.sample(range(i), min(i, rng.randint(0, 3))):
                triples[(i, j)] = 1.0
                triples[(j, i)] = 1.0
        m = symmetrize_lower(CsrMatrix.from_triples(
            n, n, [(i, j, v) for (i, j), v in triples.items()]))
        fwd = _reference_cm(n, m.row_ptr, m.col_ind)
        assert fwd == cmck(m).forward


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


# --- verification driver -----------------------------------------------------------

def test_verify_fixtures_all_pass():
    results = verify_fixtures(seed=2024, count=10)
    assert all(ok for _, ok, _ in results), results
    labels = [label for label, _, _ in results]
    assert "spmatvec" in labels and "pcg" in labels and "asm" in labels
    # deterministic: identical output for identical seed
    assert verify_fixtures(seed=2024, count=10) == results
