"""Subprocess entry point for benchmark cells.

Reads one JSON job from stdin (see ``cells.run_job``), runs the cell in
this interpreter, and writes the result payload as JSON on stdout: the
run times and the digest, nothing else. The parent aggregates the runs
and gates the digest against its reference. The cell's input is the
raw arrays the parent wrote into ``input_dir`` (the matrix's CSR
arrays, or DSOLVE's factor); the job names no matrix directory and the
cell parses no Matrix Market file. A failing cell exits nonzero with
its traceback on stderr. Nothing but the payload may be printed on
stdout. Only the runner side (``cells``) is imported, so the
interpreter needs no numpy or scipy.
"""

import json
import sys

from .cells import run_job


def main() -> int:
    json.dump(run_job(json.load(sys.stdin)), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
