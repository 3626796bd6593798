"""Runner process of one configuration: it forks a child per cell.

The harness starts one runner per configuration, in that
configuration's interpreter and flags, and keeps it for the whole run.
The runner imports ``cells`` once and freezes its heap, so a child
starts without an interpreter spawn or an import and its collector
never scans, or copies, what the runner built.

Each line on stdin is one JSON job (see ``cells.run_job``). For each,
the runner forks a child, which runs the cell and writes its payload
(the run times and the digest, nothing else) as one JSON line on its
stdout; the parent aggregates the runs and gates the digest against its
reference. The cell's input is the raw arrays the parent wrote into
``input_dir``; the job names no matrix directory and the cell parses no
Matrix Market file. A failing child exits nonzero with its traceback on
stderr. The runner captures the child's stdout and stderr in files,
waits for it and answers with one JSON line of its own, {status,
stdout, stderr}, where status is the child's exit status. So whatever a
child prints, the runner's stdout carries one reply per job and
nothing else.

Only the runner side (``cells``) is imported, so the interpreter needs
no numpy or scipy. Forking needs POSIX ``os.fork``.
"""

import gc
import json
import os
import sys
import tempfile
import traceback

from .cells import run_job


def _child(line: str, out, err) -> None:
    """Run one job in a forked child with its output in ``out``/``err``;
    never returns."""
    status = 1
    try:
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
        print(json.dumps(run_job(json.loads(line))), flush=True)
        status = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def main() -> int:
    gc.freeze()
    for line in sys.stdin:
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            pid = os.fork()
            if pid == 0:
                _child(line, out, err)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            out.seek(0)
            err.seek(0)
            reply = {"status": status,
                     "stdout": out.read().decode(errors="replace"),
                     "stderr": err.read().decode(errors="replace")}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
