"""Spans around calls into sparkbench's modules, recorded from outside src/.

A ``Tracer`` keeps spans in memory; ``install`` swaps sparkbench
functions for wrappers that open a span per call and returns a
``Patches`` whose ``undo`` puts the originals back. Two probe sets:

* ``light``: only the cell boundaries the end-to-end metrics need
  (``harness.run_cell_subprocess`` and the per-benchmark phases that
  ``verify_matrix`` calls in-process). Two clock reads per probe.
* ``full``: every layer, and cells spawn ``traced.py`` in place of
  ``sparkbench._runner`` so the runner's own calls are traced too.

Spans crossing a process boundary are joined through environment
variables that the runner inherits: the spans file, the parent span id
and the parent's clock reading at spawn. ``time.perf_counter`` reads
CLOCK_MONOTONIC on Linux, which all processes share.
"""

import dataclasses
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SPANS_ENV = "PERFBENCH_SPANS"
PARENT_ENV = "PERFBENCH_PARENT"
SPAWN_ENV = "PERFBENCH_SPAWN_T0"
TRACED_PY = Path(__file__).resolve().parent / "traced.py"


class Tracer:
    def __init__(self, parent=None):
        self.spans = []
        self._stack = [parent]
        self._next = 0

    def _new_id(self):
        self._next += 1
        return f"{os.getpid()}.{self._next}"

    def record(self, name, start, end, parent):
        self.spans.append({"id": self._new_id(), "name": name, "start": start,
                           "end": end, "parent": parent, "attrs": {}})

    @contextmanager
    def open(self, name, attrs=None):
        """Span around the block; yields its attrs dict for late additions."""
        sid = self._new_id()
        attrs = dict(attrs or {})
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start,
                               "end": end, "parent": parent, "attrs": attrs})

    @property
    def current(self):
        return self._stack[-1]

    def wrap(self, fn, name, attrs=None, result=None):
        """``fn`` inside a span; ``attrs(*args)`` and ``result(out)`` add attributes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.open(name, attrs(*args, **kwargs) if attrs else None) as a:
                out = fn(*args, **kwargs)
                if result:
                    a.update(result(out))
                return out
        return wrapper

    def append_to(self, path):
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _restore_env(environ, key, old):
    if old is None:
        environ.pop(key, None)
    else:
        environ[key] = old


class Patches:
    def __init__(self):
        self._undo = []

    def setattr(self, obj, name, value):
        self._undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def setitem(self, mapping, key, value):
        self._undo.append((type(mapping).__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def setenv(self, key, value):
        self._undo.append((_restore_env, os.environ, key, os.environ.get(key)))
        os.environ[key] = value

    def replace_everywhere(self, fn, wrapper):
        """Rebind ``fn`` in every loaded sparkbench module that imported it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "sparkbench" or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self.setattr(mod, attr, wrapper)

    def undo(self):
        while self._undo:
            op, obj, key, old = self._undo.pop()
            op(obj, key, old)


def _bench_phases(tracer, patches, harness):
    for name, bench in list(harness.BENCHMARKS.items()):
        kernel_mod = "ptr_kernels" if bench.family == "pointer" else "arr_kernels"
        tag = {"bench": name}
        patches.setitem(harness.BENCHMARKS, name, dataclasses.replace(
            bench,
            setup=tracer.wrap(bench.setup, f"harness.setup.{name}", lambda *a: tag),
            reference=tracer.wrap(bench.reference, f"harness.reference.{name}",
                                  lambda *a: tag),
            run=tracer.wrap(bench.run, f"{kernel_mod}.run.{name}", lambda *a: tag),
            digest=tracer.wrap(bench.digest, f"harness.digest.{name}",
                               lambda *a: tag)))


def install(tracer, full, spans_file=None):
    """Wrap sparkbench's public functions; returns the Patches to undo."""
    from sparkbench import harness
    patches = Patches()
    _bench_phases(tracer, patches, harness)

    def matrix_arg(data_dir, name, *rest):
        return {"matrix": name}

    patches.replace_everywhere(harness.verify_matrix, tracer.wrap(
        harness.verify_matrix, "harness.verify_matrix", matrix_arg))

    orig_cell = harness.run_cell_subprocess

    def cell(benchmark, matrix, config, policy, data_dir):
        with tracer.open("harness.cell", {"bench": benchmark, "matrix": matrix,
                                          "config": config.id}):
            if not full:
                return orig_cell(benchmark, matrix, config, policy, data_dir)
            os.environ[PARENT_ENV] = tracer.current
            os.environ[SPAWN_ENV] = repr(time.perf_counter())
            try:
                return orig_cell(benchmark, matrix, config, policy, data_dir)
            finally:
                del os.environ[PARENT_ENV], os.environ[SPAWN_ENV]

    patches.replace_everywhere(orig_cell, cell)
    if not full:
        return patches

    patches.setenv(SPANS_ENV, os.fspath(spans_file))
    orig_command = harness._runner_command

    def traced_command(config):
        cmd = orig_command(config)
        return cmd[:-2] + [os.fspath(TRACED_PY), "runner"]

    patches.setattr(harness, "_runner_command", traced_command)
    _wrap_layers(tracer, patches)
    return patches


def install_child(tracer):
    """Full probes inside a process started through traced.py."""
    from sparkbench import harness
    patches = Patches()
    _bench_phases(tracer, patches, harness)
    _wrap_layers(tracer, patches)
    return patches


def _wrap_layers(tracer, patches):
    from sparkbench import core, harness, matio

    def read_result(out):
        m, meta = out
        return {"entries": m.nnz, "matrix": meta.name}

    table = [
        (matio.read_matrix_market, "matio.read_matrix_market", None, read_result),
        (matio.write_matrix_market, "matio.write_matrix_market", None, None),
        (matio.gen_all_standins, "matio.gen_all_standins", None, None),
        (matio.gen_spd, "matio.gen_spd", None, None),
        (core.build_ortho, "core.build_ortho", None, None),
        (harness.load_matrix, "harness.load_matrix", None, None),
        (harness.execute_cell, "harness.execute_cell",
         lambda b, m, *rest: {"bench": b, "matrix": m}, None),
        (harness.write_time_file, "harness.write_time_file", None, None),
        (harness.run_suite, "harness.run_suite", None, None),
        (harness.aggregate, "harness.aggregate", None, None),
        (harness.report, "harness.report", None, None),
        (harness.verify_fixtures, "harness.verify_fixtures", None, None),
        (harness._checksums_match, "harness.gate", None,
         lambda ok: {"ok": bool(ok)}),
    ]
    for fn, name, attrs, result in table:
        patches.replace_everywhere(fn, tracer.wrap(fn, name, attrs, result))
