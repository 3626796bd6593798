"""Command line front end.

Thin argument-parsing shell over the library: every subcommand parses
flags, calls one library entry point and formats its result. Exit codes:
0 on success, 1 when validation or verification fails, 2 on usage
errors (argparse's own convention).

The parent-side ``harness`` (numpy and scipy) is imported only by
``run`` and ``verify``; ``gen``, ``inspect``, ``aggregate`` and
``report`` start without numpy and scipy, the last two through
``results``.
"""

import argparse
import sys

from . import matio
from .cells import BENCHMARK_ORDER, BENCHMARKS, TimingPolicy, matrix_file
from .core import SparkBenchError
from .matio import MATRIX_NAMES, TABLE1_EXPECTED, read_matrix_market


def _policy(args) -> TimingPolicy:
    if args.policy is None:
        return TimingPolicy()
    return TimingPolicy.parse(args.policy)


def cmd_gen(args) -> int:
    orders = {name: getattr(args, name) for name in matio.FAMILIES
              if getattr(args, name) is not None}
    if orders or args.mesh is not None:
        written = matio.write_families(args.data_dir, orders, args.seed,
                                       args.mesh)
    else:
        written = matio.gen_all_standins(args.data_dir)
    for p in written:
        print(p)
    return 0


def cmd_run(args) -> int:
    from . import harness
    if args.config_file:
        configs = harness.parse_config_file(args.config_file)
    else:
        configs = list(harness.DEFAULT_CONFIGS)
    if args.config:
        by_id = {c.id: c for c in configs}
        missing = [cid for cid in args.config if cid not in by_id]
        if missing:
            raise SparkBenchError(
                f"unknown config ids {missing}; defined: {sorted(by_id)}")
        configs = [by_id[cid] for cid in args.config]
    benchmarks = args.bench or BENCHMARK_ORDER
    matrices = args.matrix or MATRIX_NAMES

    if any(BENCHMARKS[b].needs_matrix for b in benchmarks):
        for name in matrices:
            matrix_file(args.data_dir, name)

    outcomes = harness.run_suite(configs, benchmarks, matrices, _policy(args),
                                 args.data_dir, args.results_dir)
    failed = 0
    for cid, bench, mat, status in outcomes:
        print(f"{cid} {bench} {mat}: {status}")
        if status != "ok":
            failed += 1
    print(f"{len(outcomes) - failed}/{len(outcomes)} cells measured")
    return 0 if failed == 0 else 1


def cmd_aggregate(args) -> int:
    from . import results
    path, warnings = results.aggregate(args.results_dir, args.out)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(path)
    return 0


def cmd_report(args) -> int:
    from . import results
    csv_path, svg_paths, notices = results.report(args.spark_dat, args.out_dir)
    for n in notices:
        print(f"notice: {n}", file=sys.stderr)
    print(csv_path)
    for p in svg_paths:
        print(p)
    return 0


def cmd_verify(args) -> int:
    from . import harness
    results = harness.verify_fixtures(seed=args.seed, count=args.fixtures)
    for name in MATRIX_NAMES:
        results.append(harness.verify_matrix(args.data_dir, name))
    failed = 0
    for label, ok, detail in results:
        if ok is None:
            print(f"SKIP {label}: {detail}")
        elif ok:
            print(f"PASS {label} ({detail})")
        else:
            print(f"FAIL {label}: {detail}")
            failed += 1
    passed = sum(1 for _, ok, _ in results if ok)
    print(f"verify: {passed} passed, {failed} failed, "
          f"{sum(1 for _, ok, _ in results if ok is None)} skipped")
    return 0 if failed == 0 else 1


def cmd_inspect(args) -> int:
    m, meta = read_matrix_market(args.path)
    print(f"{meta.name}: {meta.n_rows} x {meta.n_cols}, "
          f"{meta.entries} entries, symmetry {meta.symmetry}")
    if meta.name in TABLE1_EXPECTED:
        rep = matio.validate_characteristics(meta, TABLE1_EXPECTED[meta.name])
        for line in rep.lines():
            print(line)
        if not rep.passed:
            return 1
    else:
        print("no published characteristics on record for this name")
    m.validate()
    print("structure: ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparkbench",
        description="Sparse-kernel benchmark suite: run, aggregate, report.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark grid")
    p_run.add_argument("--config", nargs="+", metavar="ID",
                       help="configuration ids to run (default: all defined)")
    p_run.add_argument("--config-file", metavar="PATH",
                       help="configuration definition file (id/cflags/cc lines)")
    p_run.add_argument("--bench", nargs="+", choices=BENCHMARK_ORDER,
                       metavar="NAME", help="benchmarks (default: all)")
    p_run.add_argument("--matrix", nargs="+", metavar="NAME",
                       help="matrix names (default: the five standard inputs)")
    p_run.add_argument("--data-dir", default="data")
    p_run.add_argument("--results-dir", default="results")
    p_run.add_argument("--policy", metavar="W,R,AGG",
                       help="warmups,measured runs,aggregator (default 3,7,median)")
    p_run.set_defaults(func=cmd_run)

    p_agg = sub.add_parser("aggregate", help="fold results into spark.dat")
    p_agg.add_argument("--results-dir", default="results")
    p_agg.add_argument("--out", default=None,
                       help="output path (default: <results>/../exp/data/spark.dat)")
    p_agg.set_defaults(func=cmd_aggregate)

    p_rep = sub.add_parser("report", help="charts and CSV from spark.dat")
    p_rep.add_argument("--spark-dat", default="exp/data/spark.dat")
    p_rep.add_argument("--out-dir", default="exp/report")
    p_rep.set_defaults(func=cmd_report)

    p_ver = sub.add_parser("verify",
                           help="check kernels against their oracles")
    p_ver.add_argument("--data-dir", default="data")
    p_ver.add_argument("--seed", type=int, default=2024)
    p_ver.add_argument("--fixtures", type=int, default=40)
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="write synthetic inputs to data/")
    p_gen.add_argument("--data-dir", default="data")
    p_gen.add_argument("--seed", type=int, default=7)
    for flag, (what, _, _) in matio.FAMILIES.items():
        p_gen.add_argument(f"--{flag}", type=int, metavar="N",
                           help=f"write {what} of order N instead of "
                                "the stand-ins")
    p_gen.add_argument("--mesh", type=int, nargs=2, metavar=("NX", "NY"),
                       help="write a triangular grid mesh instead of "
                            "the stand-ins")
    p_gen.set_defaults(func=cmd_gen)

    p_ins = sub.add_parser("inspect", help="print a matrix file's characteristics")
    p_ins.add_argument("path")
    p_ins.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SparkBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
