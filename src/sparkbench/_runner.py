"""Subprocess entry point for benchmark cells.

Reads one JSON job from stdin ({benchmark, matrix, input_dir, policy}),
runs the cell in this interpreter, and writes the result payload as
JSON on stdout: the run times and the digest, which the parent gates
against its reference. The cell's input is the raw arrays the parent
wrote into ``input_dir`` (the matrix's CSR arrays, or DSOLVE's factor);
the job names no matrix directory and the cell parses no Matrix Market
file. Exit status 0 means the cell ran; anything else means no usable
measurement. Nothing but the payload may be printed on stdout. Only the
runner side (``cells``) is imported, so the interpreter needs no numpy
or scipy.
"""

import json
import sys

from .cells import run_job


def main() -> int:
    job = json.load(sys.stdin)
    try:
        payload = run_job(job)
    except Exception as exc:
        json.dump({"ok": False, "benchmark": job.get("benchmark"),
                   "matrix": job.get("matrix"),
                   "error": f"{type(exc).__name__}: {exc}"}, sys.stdout)
        sys.stdout.write("\n")
        return 1
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
