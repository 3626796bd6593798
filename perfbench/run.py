"""sparkbench's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. The seed picks the generated
SPD input (``gen --spd 2000 --seed S``) and the ``verify_fixtures``
seed. Set-up generates the inputs three times and reports the median.
The workload then runs a fixed number of whole units, as many as fit
in ``--seconds`` at a unit's nominal length, so every run of a workload
has the same samples. Every cell's output is checked: one ``.time``
file and no ``.err`` per cell, one matching ``spark.dat`` line per
cell, and every ``verify`` check a PASS. The last line of stdout is one JSON
object: the end-to-end metrics with ``--trace 0``, and with
``--trace 1`` the per-layer metrics of a traced run, which follows an
untraced one so the tracing overhead can be reported.

Everything the run writes goes under ``.bench_build/`` in the checkout.
Bytecode is cached there too (``PYTHONPYCACHEPREFIX``), so cells cost
the same whatever the caller's ``PYTHONDONTWRITEBYTECODE``.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import metrics
import probes
import workloads
from workloads import spd_name

SETUP_REPS = 3
# Workloads that read the generated stand-ins, not only the seeded SPD.
STANDINS = {"grid"}
DEADLINE_S = 170

# One unit of each workload: (seed, data dir, output dir) -> workloads.Unit.
# Why these two: see BENCHMARK.json and README.md.
WORKLOADS = {
    "grid": lambda seed, data, out: workloads.run_grid(
        data, out, list(layers.FAMILY), ["sherman3", spd_name(seed)], "1,3,median"),
    "verify": lambda seed, data, out: workloads.run_verify(data, seed),
}
# Nominal seconds of one unit on a 2-vCPU host; a run measures
# round(seconds / UNIT_S) units, at least one.
UNIT_S = {"grid": 30.0, "verify": 3.5}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cell_p50_s", "s"),
              ("cell_tail_s", "s"), ("peak_rss_mb", "MB")]


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")



def environment(root):
    """Interpreter, CPUs, load and commit; ``under_load`` when the 1-minute
    load average already reaches the CPU count."""
    load = Path("/proc/loadavg").read_text().split()
    nproc = len(os.sched_getaffinity(0))
    return {"python": sys.executable, "version": sys.version.split()[0],
            "nproc": nproc, "cpu_count": os.cpu_count(),
            "loadavg": " ".join(load[:4]), "commit": _commit(root),
            "under_load": float(load[0]) >= nproc}


def _commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _prepare(root):
    """Make sparkbench importable here and in every child, bytecode under build."""
    src = root / "src"
    prefix = root / ".bench_build" / "pycache"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.fspath(src), os.environ.get("PYTHONPATH")]))
    os.environ["PYTHONPYCACHEPREFIX"] = os.fspath(prefix)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.pycache_prefix = os.fspath(prefix)
    sys.dont_write_bytecode = False
    sys.path.insert(0, os.fspath(src))
    for flags in ([], ["-O"]):
        subprocess.run([sys.executable, *flags, "-c", "import sparkbench._runner"],
                       check=True)


def unit_count(name, seconds):
    return max(1, round(seconds / UNIT_S[name]))


def _measure(name, seed, data, out, count, tracer, full=False, spans_file=None):
    """``count`` units with probes recording into ``tracer``; returns the units."""
    patches = probes.install(tracer, full, spans_file)
    try:
        return [WORKLOADS[name](seed, data, out / f"unit{i}") for i in range(count)]
    finally:
        patches.undo()


def end_to_end(units, tracer, setup_times):
    cells = layers.cell_walls(tracer.spans)
    tail, pct, n = metrics.tail(cells)
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    kernel = [u.kernel_s for u in units]
    if not any(u.cells for u in units):
        kernel = [layers.kernel_seconds(tracer.spans) / len(units)]
    values = {
        "wall_s": statistics.median(u.wall for u in units),
        "setup_s": statistics.median(setup_times),
        "cell_p50_s": statistics.median(cells),
        "cell_tail_s": tail,
        "peak_rss_mb": max(usage) / 1024.0,
    }
    info = {"cells": n, "tail_percentile": pct, "units": len(units),
            "kernel_s": statistics.median(kernel),
            "setup_runs": setup_times}
    return values, info


def _traced(args, work, data):
    """Traced set-up, then untraced and traced units in turn, each kind in
    half the seconds; per-layer metrics."""
    spans_file = work / "spans.jsonl"
    work.mkdir(parents=True)
    setup = probes.Tracer()
    with setup.open("setup", {"setup": True}):
        env = dict(os.environ, **{probes.SPANS_ENV: os.fspath(spans_file),
                                  probes.PARENT_ENV: setup.current})
        workloads.gen_inputs(data, args.seed, args.workload in STANDINS, env=env,
                             command=(os.fspath(probes.TRACED_PY), "cli"))
    tracer = probes.Tracer()
    plain, traced = [], []
    # Untraced and traced units alternate, so the host's drift over the run
    # falls on both alike and the overhead is not a difference of two stretches.
    for i in range(unit_count(args.workload, args.seconds / 2)):
        plain += _measure(args.workload, args.seed, data, work / "untraced" / str(i),
                          1, probes.Tracer())
        traced += _measure(args.workload, args.seed, data, work / "traced" / str(i),
                           1, tracer, full=True, spans_file=spans_file)
    tracer.spans.extend(setup.spans)
    tracer.append_to(spans_file)
    spans = [json.loads(ln) for ln in spans_file.read_text().splitlines()]
    info = {"spans": len(spans), "top_self_s": layers.top_self_times(spans)}
    return layers.per_layer(spans, plain, traced), info, plain + traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sparkbench" / "harness.py").is_file():
        print(f"perfbench: no sparkbench sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)

    work = root / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    env = {"before": environment(root)}
    if env["before"]["under_load"]:
        print(f"perfbench: started under load ({env['before']['loadavg']})",
              file=sys.stderr)
    _prepare(root)

    if args.trace:
        values, info, units = _traced(args, work, data)
    else:
        setup_times = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(data, ignore_errors=True)
            setup_times.append(workloads.gen_inputs(
                data, args.seed, args.workload in STANDINS))
        tracer = probes.Tracer()
        units = _measure(args.workload, args.seed, data, work / "untraced",
                         unit_count(args.workload, args.seconds), tracer)
        values, info = end_to_end(units, tracer, setup_times)
        info.update(layers.noise(units))

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    info["failed_frac"] = metrics.failed_frac(failed, attempted)
    env["after"] = environment(root)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "metrics": values, "info": info,
              "problems": [p for u in units for p in u.problems]}
    records = root / ".bench_build" / "perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    units_of = dict(END_TO_END) if not args.trace else layers.UNITS
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units_of[name]}")
    for name, value in info.items():
        if isinstance(value, (int, float)):
            print(f"{args.workload} {name} = {value:.6g}")
        elif isinstance(value, dict):
            for key, v in value.items():
                print(f"{args.workload} {name} {key} = {v:.6g}")
    for p in record["problems"]:
        print(f"FAILED {p}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in values.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Deadline as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(3)
