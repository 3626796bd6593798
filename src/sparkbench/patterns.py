"""Each benchmark's access patterns, counted from its kernel's code.

The paper tells its kernels apart by four access patterns: pointer
traversals, indirection arrays, dynamic loop bounds and run-time
dependent if-conditions, graded by how many indirections and how much
control flow they stack. ``table`` counts them with an ``ast`` walk of
each benchmark's ``run`` and, once each, of every ``ptr_kernels``,
``arr_kernels`` and ``cells`` function it calls, directly or not:

* ``walks``: ``while`` loops whose test holds ``<expr> is not None``,
  each a pointer chain followed to its end;
* ``indirect``: subscripts whose index is a load, and ``depth`` the
  deepest load behind one such index;
* ``loaded_bounds``: ``range`` loops with a bound that is a load;
* ``ifs``: ``if`` statements, but for guards: an ``if`` with no
  ``else`` whose body is a single ``raise`` or ``return`` checks an
  argument or a precondition, not a run-time dependent condition.

A load is a subscript, a field of a load (``e.col`` of a node ``e``
taken from a list), or a name whose latest binding, in source order, is
one: assigned from a load, or an item of a loop over a list. A
subscript's depth is one more than its container's or its index's,
whichever is deeper; a field has its object's depth and a name its
binding's. So TRMAT's ``c = ja[k]; pos = offsets[c]; jao[pos]`` is an
indirect subscript of depth 2. A ``range`` loop's index, a field of a
parameter (``m.n_rows``) and a call's result are not loads.

``family`` is ``"pointer"`` exactly when the kernel walks a chain, and
``"array"`` otherwise; ``cells.Benchmark.family`` reads it from ``row``,
which keeps each kernel's row, so a process walks a kernel's code once.
Only the parent imports this module, never a cell's runner.
"""

import ast
import functools
import inspect

from . import cells

COLUMNS = ("family", "walks", "indirect", "depth", "loaded_bounds", "ifs")

# the modules whose functions a kernel's count takes in
_WALKED = {f"{cells.__package__}.{m}" for m in ("ptr_kernels", "arr_kernels", "cells")}


def _is_range(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "range")


def _is_none_test(node) -> bool:
    """``node`` is ``<expr> is not None``."""
    return (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.IsNot)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None)


class _Counter(ast.NodeVisitor):
    """The counts over every function it visits; what it learns of one
    function's names, and the names it calls, it forgets at the next."""

    def __init__(self):
        self.counts = dict.fromkeys(COLUMNS[1:], 0)
        self.env = {}  # name -> depth of its latest binding
        self.ranges = {}  # name -> the range(...) call it is bound to
        self.called = []  # names the function calls

    def depth(self, node) -> int:
        """``node``'s load depth: 0 when it is not a load."""
        if isinstance(node, ast.Subscript):
            return 1 + max(self.depth(node.value), self.depth(node.slice))
        if isinstance(node, ast.Name):
            return self.env.get(node.id, 0)
        if isinstance(node, (ast.Call, ast.Lambda)):
            return 0
        return max((self.depth(c) for c in ast.iter_child_nodes(node)
                    if isinstance(c, ast.expr)), default=0)

    def bind(self, target, depth: int, value=None) -> None:
        """Give ``target``'s names ``depth``; a subscript or field target is
        visited, not bound. ``value`` is the one expression bound, if known."""
        if isinstance(target, ast.Name):
            self.env[target.id] = depth
            if _is_range(value):
                self.ranges[target.id] = value
            else:
                self.ranges.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for t in target.elts:
                self.bind(t, depth)
        else:
            self.visit(target)

    def visit_FunctionDef(self, node):
        self.env, self.ranges, self.called = {}, {}, []
        self.generic_visit(node)

    def visit_Assign(self, node):
        value = node.value
        self.visit(value)
        for target in node.targets:
            if (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                    and len(target.elts) == len(value.elts)):
                depths = [self.depth(v) for v in value.elts]
                for t, v, d in zip(target.elts, value.elts, depths):
                    self.bind(t, d, v)
            else:
                self.bind(target, self.depth(value), value)

    def _loop(self, target, it) -> None:
        """Bind a loop's target over ``it``; count a range with a loaded bound."""
        self.visit(it)
        bound = it if _is_range(it) else (
            self.ranges.get(it.id) if isinstance(it, ast.Name) else None)
        if bound is not None:
            self.counts["loaded_bounds"] += any(self.depth(a) for a in bound.args)
            self.bind(target, 0)
        elif (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
              and it.func.id == "enumerate" and isinstance(target, ast.Tuple)):
            self.bind(target.elts[0], 0)
            self.bind(target.elts[1], 1 + self.depth(it.args[0]))
        else:
            self.bind(target, 1 + self.depth(it))

    def visit_For(self, node):
        self._loop(node.target, node.iter)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_ListComp(self, node):
        for gen in node.generators:
            self._loop(gen.target, gen.iter)
            for cond in gen.ifs:
                self.visit(cond)
        self.visit(node.elt)

    visit_SetComp = visit_GeneratorExp = visit_ListComp

    def visit_While(self, node):
        self.counts["walks"] += any(_is_none_test(n) for n in ast.walk(node.test))
        self.generic_visit(node)

    def visit_If(self, node):
        guard = (not node.orelse and len(node.body) == 1
                 and isinstance(node.body[0], (ast.Raise, ast.Return)))
        self.counts["ifs"] += not guard
        self.generic_visit(node)

    def visit_Subscript(self, node):
        depth = self.depth(node.slice)
        if depth:
            self.counts["indirect"] += 1
            self.counts["depth"] = max(self.counts["depth"], depth)
        self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name):
            self.called.append(node.func.id)
        self.generic_visit(node)


@functools.cache
def _row(run) -> dict:
    """One kernel's row: ``run``'s counts plus those of every kernel-module
    function it calls, each counted once."""
    counter = _Counter()
    todo, seen = [run], set()
    while todo:
        fn = todo.pop(0)
        if fn in seen:
            continue
        seen.add(fn)
        counter.visit(ast.parse(inspect.getsource(fn)))
        todo += [f for f in map(fn.__globals__.get, counter.called)
                 if inspect.isfunction(f) and f.__module__ in _WALKED]
    row = counter.counts
    return {"family": "pointer" if row["walks"] else "array", **row}


def row(run) -> dict:
    """Kernel ``run``'s row (``COLUMNS``), counted on the unwrapped kernel."""
    return dict(_row(inspect.unwrap(run)))


def table(benchmarks=cells.BENCHMARKS) -> dict:
    """Each benchmark's row, in registry order."""
    return {name: row(bench.run) for name, bench in benchmarks.items()}


def csv(rows: dict) -> str:
    """``table``'s rows as CSV text, one line per benchmark under a header."""
    lines = [("benchmark",) + COLUMNS]
    lines += [(name, *(row[c] for c in COLUMNS)) for name, row in rows.items()]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)
