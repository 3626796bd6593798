"""Runner process of one configuration: it forks a child per cell.

The harness starts one runner per configuration, in that
configuration's interpreter and flags, and keeps it for the whole run.
The runner imports ``cells`` once and freezes its heap, so a child
starts without an interpreter spawn or an import and its collector
never scans, or copies, what the runner built.

Each line from the parent is a verb and an optional JSON argument. The
runner reads an ``open`` line, {benchmark, matrix, input_dir}, and forks
a child that opens a ``cells.Cell`` on it and answers with JSON lines:
"ready" once set up, the seconds of each ``run N`` line, then, for
``digest``, the checksums, and exits. Until then the runner reads
nothing: the child reads the cell's lines from the stdin both read
unbuffered, and replies on a duplicate of the runner's stdout, its own
stdout pointed at its stderr, so the runner's stdout carries only
replies. A child that fails exits nonzero with its traceback on the
stderr it shares with the runner, which replies {"exit": status} and
exits.

Only the runner side (``cells``) is imported, so the interpreter needs
no numpy or scipy. Forking needs POSIX ``os.fork``.
"""

import gc
import json
import os
import sys
import traceback

from .cells import Cell


def _read(stdin) -> tuple:
    """The next line on ``stdin`` as (verb, argument or None)."""
    verb, _, arg = stdin.readline().decode().strip().partition(" ")
    return verb, json.loads(arg) if arg else None


def _child(cell: dict, stdin) -> None:
    """Hold one cell's conversation in a forked child; never returns."""
    status = 1
    try:
        replies = os.fdopen(os.dup(1), "w")
        # fd 1 for what libraries write, sys.stdout to keep prints in order
        os.dup2(2, 1)
        sys.stdout = sys.stderr
        with Cell(**cell) as opened:
            print('"ready"', file=replies, flush=True)
            verb, arg = _read(stdin)
            while verb == "run":
                print(json.dumps(opened.run(arg)), file=replies, flush=True)
                verb, arg = _read(stdin)
            if verb != "digest":
                raise ValueError(f"expected run or digest, got {verb!r}")
            print(json.dumps(opened.digest()), file=replies, flush=True)
        status = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def main() -> int:
    gc.freeze()
    stdin = open(0, "rb", buffering=0, closefd=False)
    while True:
        verb, cell = _read(stdin)
        if not verb:
            return 0
        if verb != "open":
            raise ValueError(f"expected open, got {verb!r}")
        pid = os.fork()
        if pid == 0:
            _child(cell, stdin)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:
            print(json.dumps({"exit": status}), flush=True)
            return 1
