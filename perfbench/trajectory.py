"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/trajectory.py --seeds 1-10 [--workloads grid verify]
        [--trace-seed 11] [--out perfbench/BENCH_<tag>.json]

Runs ``run.py`` once per (workload, seed), one run at a time, from the
current directory. For every end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound from BENCHMARK.json;
the noise-floor readings ``run_cv`` and ``aa_log_spread`` and the
failure fraction are summarised the same way. ``--trace-seed`` adds one
traced run per workload whose per-layer metrics are stored as read.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
INFO = ["failed_frac", "run_cv", "aa_log_spread", "kernel_s"]


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((Path(".bench_build/perfbench/records")
                         / f"{workload}-s{seed}-t{trace}.json").read_text())
    return result, record


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": metrics.quartile_spread(values) if med else 0.0,
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"command": spec["command"], "run_seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in names:
        runs = [run_once(workload, s, spec["run_seconds"], 0)
                for s in _seeds(args.seeds)]
        if not all(r["correct"] for r, _ in runs):
            raise SystemExit(f"{workload}: a run was not correct")
        first = runs[0][1]["env"]["before"]
        entry = {"seeds": _seeds(args.seeds),
                 "env": {"version": first["version"], "nproc": first["nproc"],
                         "commit": first["commit"],
                         "loadavg_before": [rec["env"]["before"]["loadavg"]
                                            for _, rec in runs],
                         "under_load_runs": sum(rec["env"]["before"]["under_load"]
                                                for _, rec in runs)},
                 "end_to_end": {}, "info": {}}
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r, _ in runs])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] < bound / 3 else (
                "WIDE" if s["spread"] < bound else "OVER")
            print(f"{workload:8s} {name:12s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} "
                  f"spread {s['spread']:.4f} bound {bound} {flag}", flush=True)
        for name in INFO:
            s = summarise([rec["info"][name] for _, rec in runs])
            entry["info"][name] = s
            print(f"{workload:8s} {name:12s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f}", flush=True)
        if args.trace_seed is not None:
            result, rec = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  "metrics": {k: v["value"] for k, v in
                                              result["metrics"].items()},
                                  "top_self_s": rec["info"]["top_self_s"]}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
