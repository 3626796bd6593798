"""The workloads and the correctness checks on what they produce.

Each workload runs in the calling process through sparkbench's CLI
entry point and harness functions; grid cells are the only other
process, one at a time, as ``run_suite`` starts them. A unit returns a
``Unit``; the caller's tracer holds the cell spans.
"""

import contextlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

CONFIGS = ["base", "opt1"]
SPD_ORDER = 2000


def spd_name(seed):
    return f"spd{SPD_ORDER}s{seed}"


@dataclass
class Unit:
    """One execution of a workload's commands."""

    wall: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    kernel_s: float = 0.0
    # (config, bench, matrix) -> (seconds, runs) from the .time files
    cells: dict = field(default_factory=dict)


def gen_inputs(data_dir, seed, standins=True, command=("-m", "sparkbench.cli"),
               env=None):
    """Write the seed's SPD matrix, and the stand-ins when asked; returns
    wall seconds."""
    data_dir = Path(data_dir)
    t0 = time.perf_counter()
    gens = [["--spd", str(SPD_ORDER), "--seed", str(seed)]]
    if standins:
        gens.insert(0, [])
    for extra in gens:
        subprocess.run([sys.executable, *command, "gen", "--data-dir",
                        os.fspath(data_dir), *extra],
                       check=True, stdout=subprocess.DEVNULL, env=env)
    return time.perf_counter() - t0


def _cli(argv, log):
    from sparkbench import cli
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "a", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        return cli.main([os.fspath(a) for a in argv])


def expected_cells(benches, matrices):
    from sparkbench.harness import BENCHMARKS
    return [(c, b, m) for c in CONFIGS for b in benches
            for m in (matrices if BENCHMARKS[b].needs_matrix else ["none"])]


def check_cells(results, spark_dat, expected):
    """Violations per cell: a missing or malformed .time file, a .err file,
    or a spark.dat line that is missing, repeated or disagrees with the
    .time files. Returns (problems by cell, parsed .time files by cell).
    """
    from sparkbench import harness
    problems = {cell: [] for cell in expected}
    parsed = {}
    for cell in expected:
        tpath = harness.time_file_path(results, *cell)
        if tpath.with_suffix(".err").exists():
            problems[cell].append("has a .err file")
        try:
            parsed[cell] = harness.parse_time_file(tpath)
        except (OSError, harness.HarnessError) as exc:
            problems[cell].append(f"no valid .time file ({exc})")
    lines = {}
    if Path(spark_dat).exists():
        for line in Path(spark_dat).read_text(encoding="ascii").splitlines():
            key = tuple(line.split(" ")[:3])
            lines.setdefault(key, []).append(line)
    for cell in expected:
        got = lines.get(cell, [])
        if len(got) != 1:
            problems[cell].append(f"{len(got)} spark.dat lines")
            continue
        base = parsed.get(("base",) + cell[1:])
        if cell not in parsed or base is None:
            continue
        want = (f"{cell[0]} {cell[1]} {cell[2]} {base['seconds']:.6f} "
                f"{parsed[cell]['seconds']:.6f}")
        if got[0] != want:
            problems[cell].append(f"spark.dat line {got[0]!r}, want {want!r}")
    extra = set(lines) - set(expected)
    if extra:
        problems.setdefault(("spark.dat",), []).append(
            f"lines for cells not run: {sorted(extra)}")
    return {c: p for c, p in problems.items() if p}, parsed


def run_grid(data_dir, out, benches, matrices, policy):
    """``run`` -> ``aggregate`` -> ``report`` over base and opt1."""
    out = Path(out)
    results = out / "results"
    spark_dat = out / "exp" / "data" / "spark.dat"
    log = out / "cli.log"
    t0 = time.perf_counter()
    _cli(["run", "--data-dir", data_dir, "--results-dir", results,
          "--config", *CONFIGS, "--bench", *benches, "--matrix", *matrices,
          "--policy", policy], log)
    _cli(["aggregate", "--results-dir", results], log)
    _cli(["report", "--spark-dat", spark_dat, "--out-dir", out / "exp" / "report"],
         log)
    wall = time.perf_counter() - t0
    expected = expected_cells(benches, matrices)
    problems, parsed = check_cells(results, spark_dat, expected)
    return Unit(wall=wall, attempted=len(expected),
                failed=min(len(problems), len(expected)),
                problems=[f"{' '.join(c)}: {'; '.join(p)}"
                          for c, p in problems.items()],
                kernel_s=sum(d["seconds"] for d in parsed.values()),
                cells={c: (d["seconds"], d["runs"]) for c, d in parsed.items()})


def run_verify(data_dir, seed):
    """``verify_fixtures(seed)`` plus ``verify_matrix`` on the SPD input.

    Both are the functions ``sparkbench verify`` calls, run in this
    process. Every result that is not a PASS counts as one failed check.
    """
    from sparkbench import harness
    t0 = time.perf_counter()
    results = harness.verify_fixtures(seed=seed)
    results.append(harness.verify_matrix(data_dir, spd_name(seed)))
    wall = time.perf_counter() - t0
    problems = [f"{'FAIL' if ok is False else 'SKIP'} {label}: {detail}"
                for label, ok, detail in results if ok is not True]
    return Unit(wall=wall, attempted=len(results), failed=len(problems),
                problems=problems)
