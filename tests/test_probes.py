"""The sparkbench names the benchmark's probes (perfbench/probes.py) patch.

The benchmark's own tests are not collected here, so this loads its
probe module by path and installs and undoes its fullest probe set.
"""

import importlib.util
import inspect
import os
from pathlib import Path

from sparkbench import cli, harness

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def _probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_full_probe_set_installs_and_undoes(tmp_path):
    probes = _probes()
    names = ["run_cell_subprocess", "_runner_command", "load_matrix", "execute_cell",
             "verify_matrix", "verify_fixtures", "_checksums_match"]
    before = {n: getattr(harness, n) for n in names}
    env = os.environ.get(probes.SPANS_ENV)
    tracer = probes.Tracer()
    patches = probes.install(tracer, full=True, spans_file=tmp_path / "spans.jsonl")
    assert all(getattr(harness, n) is not before[n] for n in names)
    # gen's family table looks its generator up when it runs
    assert cli.main(["gen", "--data-dir", str(tmp_path), "--spd", "4"]) == 0
    patches.undo()
    assert {"matio.gen_spd", "matio.write_matrix_market"} <= {
        s["name"] for s in tracer.spans}
    assert {n: getattr(harness, n) for n in names} == before
    assert os.environ.get(probes.SPANS_ENV) == env
    # the probe calls a cell with five positional arguments
    params = inspect.signature(harness.run_cell_subprocess).parameters.values()
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 5


def test_the_light_probe_set_sees_every_reference_in_this_process(tiny_data):
    probes = _probes()
    tracer = probes.Tracer()
    patches = probes.install(tracer, full=False)
    try:
        with harness.prepare(["DSOLVE"], ["tiny"], tiny_data):
            pass
    finally:
        patches.undo()
    assert [s["name"] for s in tracer.spans] == ["harness.reference.DSOLVE"]
