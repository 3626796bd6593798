import json

import pytest

import layers
import run
from conftest import BENCH
from workloads import Unit


def _span(sid, name, start, end, parent=None, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "attrs": attrs}


def test_verify_cells_are_verify_matrix_calls_and_kernels_its_run_phases():
    spans = [_span("m1", "harness.verify_matrix", 0, 10, matrix="add32"),
             _span("s", "harness.setup.TRMAT", 0, 1, "m1"),
             _span("k", "arr_kernels.run.TRMAT", 3, 6, "m1"),
             _span("m2", "harness.verify_matrix", 10, 12, matrix="utm5940"),
             _span("k2", "arr_kernels.run.TRMAT", 10, 12, "m2")]
    assert sorted(layers.cell_walls(spans)) == [2, 10]
    assert layers.kernel_seconds(spans) == 5


def test_subprocess_cells_are_the_parent_side_spans():
    spans = [_span("c", "harness.cell", 0, 2), _span("k", "ptr_kernels.run.PCG", 1, 2, "c")]
    assert layers.cell_walls(spans) == [2]


def test_per_layer_joins_runner_spans_to_their_cell():
    spans = [
        _span("c", "harness.cell", 0.0, 1.0, bench="JACIT", matrix="spd2000s7"),
        _span("x.1", "runner.spawn", 0.0, 0.1, "c"),
        _span("x.2", "runner.import", 0.1, 0.4, "c"),
        _span("x.3", "runner.main", 0.4, 0.9, "c"),
        _span("x.4", "harness.execute_cell", 0.4, 0.9, "x.3", bench="JACIT",
              matrix="spd2000s7"),
        _span("x.5", "matio.read_matrix_market", 0.4, 0.5, "x.4",
              entries=1000, matrix="spd2000s7"),
        _span("x.6", "ptr_kernels.run.JACIT", 0.6, 0.61, "x.4", bench="JACIT"),
        _span("x.7", "ptr_kernels.run.JACIT", 0.61, 0.63, "x.4", bench="JACIT"),
        _span("x.8", "ptr_kernels.run.JACIT", 0.63, 0.66, "x.4", bench="JACIT"),
        _span("x.9", "harness.gate", 0.7, 0.71, "x.4", ok=False),
        _span("s", "setup", 5.0, 7.0, setup=True),
        _span("y.1", "matio.gen_spd", 5.5, 6.0, "s"),
        _span("y.2", "matio.write_matrix_market", 5.9, 6.5, "s"),
        _span("z", "matio.write_matrix_market", 8.0, 9.0),
    ]
    out = layers.per_layer(spans, [Unit(wall=2.0, attempted=1, failed=0)],
                           [Unit(wall=2.5, attempted=1, failed=0)])
    assert set(out) == set(layers.NAMES)
    assert out["runner.spawn_s"] == pytest.approx(0.1)
    assert out["runner.import_s"] == pytest.approx(0.3)
    assert out["runner.cells"] == 1
    assert out["harness.cell_self_s"] == pytest.approx(0.1)
    assert out["matio.entries_read"] == 1000
    assert out["ptr_kernels.run_s.JACIT"] == pytest.approx(0.06)
    assert out["ptr_kernels.ns_per_entry.JACIT.spd2000"] == pytest.approx(20e-3 / 1000 * 1e9)
    assert out["harness.gate_checks"] == out["harness.gate_mismatches"] == 1
    assert out["matio.gen_s"] == pytest.approx(1.0)
    assert out["trace.overhead_s"] == pytest.approx(0.5)
    assert out["trace.overhead_frac"] == pytest.approx(0.25)
    assert out["ptr_kernels.run_s.PCG"] == 0.0


def test_benchmark_json_lists_exactly_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, layers.UNITS[n]) for n in layers.NAMES]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
