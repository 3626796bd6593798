"""Traced stand-in for a sparkbench process the benchmark spawns.

    traced.py runner            # in place of python -m sparkbench._runner
    traced.py cli ARGS...       # in place of python -m sparkbench.cli ARGS...

Times the interpreter spawn (from the parent's clock reading, passed in
the environment) and the import, wraps the layers, runs the real entry
point and appends its spans to the spans file when it exits. Writes
nothing to stdout: the runner's payload is its only output there.
"""

import os
import sys
import time

T_START = time.perf_counter()

import probes  # noqa: E402  (the script's directory is on sys.path)


def main(argv):
    tracer = probes.Tracer(parent=os.environ.get(probes.PARENT_ENV))
    kind, rest = argv[0], argv[1:]
    spawn_t0 = os.environ.get(probes.SPAWN_ENV)
    if spawn_t0 is not None:
        tracer.record(f"{kind}.spawn", float(spawn_t0), T_START, tracer.current)
    t0 = time.perf_counter()
    if kind == "runner":
        import sparkbench._runner as entry
    elif kind == "cli":
        import sparkbench.cli as entry
    else:
        raise SystemExit(f"traced.py: unknown entry {kind!r}")
    tracer.record(f"{kind}.import", t0, time.perf_counter(), tracer.current)
    probes.install_child(tracer)
    try:
        with tracer.open(f"{kind}.main"):
            if kind == "runner":
                return entry.main()
            return entry.main(rest)
    finally:
        tracer.append_to(os.environ[probes.SPANS_ENV])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
