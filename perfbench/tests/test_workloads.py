"""The benchmark's correctness checks against real sparkbench runs."""

from sparkbench import harness, matio

import layers
import probes
import workloads


def _small_input(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    matio.write_matrix_market(matio.matrix_path(data, "spd300s3"),
                              matio.gen_spd(300, seed=3), symmetry="symmetric")
    return data


def test_clean_cells_pass_every_check(tmp_path):
    data = _small_input(tmp_path)
    unit = workloads.run_grid(data, tmp_path / "out", ["SPMATVEC", "TRMAT"],
                              ["spd300s3"], "0,3,median")
    assert (unit.attempted, unit.failed, unit.problems) == (4, 0, [])
    assert unit.kernel_s > 0
    assert set(unit.cells) == set(workloads.expected_cells(["SPMATVEC", "TRMAT"],
                                                           ["spd300s3"]))


def test_a_corrupted_gate_counts_as_failed(tmp_path, monkeypatch):
    data = _small_input(tmp_path)
    monkeypatch.setenv(harness.CORRUPT_ENV, "SPMATVEC")
    unit = workloads.run_grid(data, tmp_path / "out", ["SPMATVEC"], ["spd300s3"],
                              "0,3,median")
    assert unit.attempted == unit.failed == 2
    assert all(".err" in p for p in unit.problems)


def test_a_tampered_spark_dat_counts_as_failed(tmp_path):
    data = _small_input(tmp_path)
    out = tmp_path / "out"
    workloads.run_grid(data, out, ["SPMATVEC"], ["spd300s3"], "0,3,median")
    dat = out / "exp" / "data" / "spark.dat"
    lines = dat.read_text().splitlines()
    fields = lines[1].split(" ")
    fields[3] = f"{float(fields[3]) * 2:.6f}"
    dat.write_text("\n".join([lines[0], " ".join(fields)]) + "\n")
    problems, _ = workloads.check_cells(
        out / "results", dat, workloads.expected_cells(["SPMATVEC"], ["spd300s3"]))
    assert list(problems) == [tuple(fields[:3])]


def test_verify_counts_every_check_that_is_not_a_pass(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    missing = workloads.run_verify(data, 3)
    assert missing.failed == 1 and missing.attempted > 1
    assert missing.problems == [f"SKIP scale:{workloads.spd_name(3)}: "
                                "not generated; skipped"]
    matio.write_matrix_market(matio.matrix_path(data, workloads.spd_name(3)),
                              matio.gen_spd(300, seed=3), symmetry="symmetric")
    clean = workloads.run_verify(data, 3)
    assert (clean.attempted, clean.failed, clean.problems) == (missing.attempted, 0, [])


def test_two_seeds_give_different_inputs_that_both_gate(tmp_path):
    contents = []
    for seed in (1, 2):
        data = tmp_path / f"s{seed}"
        workloads.gen_inputs(data, seed, standins=False)
        name = workloads.spd_name(seed)
        contents.append(matio.matrix_path(data, name).read_bytes())
        label, ok, detail = harness.verify_matrix(data, name)
        assert ok is True, detail
    assert contents[0] != contents[1]


def test_undo_restores_every_probe():
    before = dict(harness.BENCHMARKS), harness.run_cell_subprocess, harness._runner_command
    patches = probes.install(probes.Tracer(), full=True, spans_file="unused")
    assert harness.run_cell_subprocess is not before[1]
    patches.undo()
    after = dict(harness.BENCHMARKS), harness.run_cell_subprocess, harness._runner_command
    assert all(before[0][k] is after[0][k] for k in before[0])
    assert before[1:] == after[1:]


def test_layer_names_follow_the_registry():
    assert list(layers.FAMILY) == harness.BENCHMARK_ORDER
    assert layers.POINTER == harness.POINTER_BENCHMARKS
    assert layers.ARRAY == harness.ARRAY_BENCHMARKS
