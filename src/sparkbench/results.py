"""The results tree, spark.dat and the report: parent-side, without numpy.

Cell results land in ``results/<config>/<benchmark>__<matrix>.time``;
the aggregator folds the tree into the space-separated ``spark.dat``
with one ``id benchmark matrix reftime time`` line per cell, and the
reporter turns that into per-matrix speedup charts, grouped by each
kernel's ``Benchmark.family``, plus a CSV and ``patterns.table``; only
``report`` reads the kernels' code for them. This module imports only the
standard library, ``cells``, ``core`` and ``patterns``, so ``sparkbench
aggregate`` and ``report`` start without numpy and scipy and run under
any interpreter that runs a cell.
"""

import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

from . import patterns
from .cells import BENCHMARK_ORDER, BENCHMARKS, HarnessError
from .core import ParameterError

# A config id, benchmark or matrix name is a path segment and a field of
# spark.dat, the CSV and the SVGs.
_SAFE_NAME = re.compile(r"[A-Za-z0-9_+-][A-Za-z0-9._+-]*")


def _check_name(kind: str, name: str) -> None:
    if not _SAFE_NAME.fullmatch(name):
        raise ParameterError(
            f"{kind} {name!r} must be letters, digits, '.', '_', '-' "
            "and '+', not starting with '.'")


@dataclass
class BenchRecord:
    """One aggregated measurement: a line of spark.dat."""

    id: str
    benchmark: str
    matrix: str
    reftime: float
    time: float

    def __post_init__(self):
        _check_name("config id", self.id)
        _check_name("benchmark", self.benchmark)
        _check_name("matrix name", self.matrix)
        if not (self.reftime > 0.0 and self.time > 0.0):
            raise ParameterError("reftime and time must be positive")

    def format_line(self) -> str:
        return (f"{self.id} {self.benchmark} {self.matrix} "
                f"{self.reftime:.6f} {self.time:.6f}")

    @classmethod
    def parse_line(cls, line: str) -> "BenchRecord":
        if line != line.strip():
            raise HarnessError(f"stray whitespace in record line {line!r}")
        parts = line.split(" ")
        if len(parts) != 5 or "" in parts:
            raise HarnessError(f"expected 5 single-space fields, got {line!r}")
        try:
            reftime = float(parts[3])
            tm = float(parts[4])
        except ValueError:
            raise HarnessError(f"bad time field in {line!r}") from None
        return cls(parts[0], parts[1], parts[2], reftime, tm)


def speedup(record: BenchRecord) -> float:
    """reftime / time; 1.0 is parity with the reference configuration."""
    return record.reftime / record.time


# --- the results tree -------------------------------------------------------------

def time_file_path(results_root, config_id: str, benchmark: str,
                   matrix: str) -> Path:
    return Path(results_root) / config_id / f"{benchmark}__{matrix}.time"


_TIME_KEYS = ("benchmark", "matrix", "config", "seconds", "aggregator",
              "warmup_runs", "measured_runs", "runs", "checksums",
              "ref_checksums")
# a speedup compares two cells only if both were timed under these
_POLICY_KEYS = ("warmup_runs", "measured_runs", "aggregator")


def write_time_file(path, record: dict) -> None:
    """Write a cell's .time file, the ``_TIME_KEYS`` of its record as one
    JSON object, whole or not at all.

    The text goes to a temporary file beside it that is then renamed
    into place, so a crash never leaves a truncated .time file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({k: record[k] for k in _TIME_KEYS}, sort_keys=True)
                   + "\n", encoding="ascii", newline="\n")
    os.replace(tmp, path)


def parse_time_file(path) -> dict:
    """Read a .time file; text that is not such a JSON object, a missing
    key, a cut last line, names that are not strings or seconds that are
    not finite and positive make it malformed."""
    try:
        text = Path(path).read_text(encoding="ascii")
        out = json.loads(text)
        ok = (text.endswith("\n") and all(k in out for k in _TIME_KEYS)
              and isinstance(out["benchmark"], str) and isinstance(out["matrix"], str)
              and math.isfinite(out["seconds"]) and out["seconds"] > 0)
    except (ValueError, TypeError):
        ok = False
    if not ok:
        raise HarnessError(f"malformed time file {path}")
    return out


def aggregate(results_root, out_path=None) -> tuple:
    """Fold the results tree into spark.dat.

    One line per measured cell: ``id benchmark matrix reftime time``,
    single spaces, %.6f seconds, sorted by (id, benchmark, matrix), LF
    line endings. reftime is the base configuration's seconds for the
    same (benchmark, matrix); cells without a base measurement are
    skipped with a warning, and so are a malformed .time file, a cell
    measured under another timing policy than its base cell (warmups,
    measured runs or aggregator) and a cell whose names break the
    config-id rule. Returns (path written, warnings).
    """
    results_root = Path(results_root)
    if not (results_root / "base").is_dir():
        raise HarnessError(f"no base results under {results_root}")
    cells = {}
    warnings = []
    for cfg_dir in sorted(p for p in results_root.iterdir() if p.is_dir()):
        for tf in sorted(cfg_dir.glob("*.time")):
            try:
                d = parse_time_file(tf)
            except HarnessError as exc:
                warnings.append(f"{exc}; skipping it")
                continue
            cells[(cfg_dir.name, d["benchmark"], d["matrix"])] = d
    base = {(b, m): d for (i, b, m), d in cells.items() if i == "base"}
    lines = []
    for (cid, bench, mat), d in sorted(cells.items()):
        ref = base.get((bench, mat))
        if ref is None:
            warnings.append(f"no base measurement for {bench} {mat}; "
                            f"skipping {cid}")
            continue
        differ = [f"{k} {d[k]!r} vs {ref[k]!r}"
                  for k in _POLICY_KEYS if d[k] != ref[k]]
        if differ:
            warnings.append(f"policy differs from base for {bench} {mat} "
                            f"({', '.join(differ)}); skipping {cid}")
            continue
        try:
            lines.append(BenchRecord(cid, bench, mat, ref["seconds"],
                                     d["seconds"]).format_line())
        except ParameterError as exc:
            warnings.append(f"{exc}; skipping {cid} {bench} {mat}")
    if out_path is None:
        out_path = results_root.parent / "exp" / "data" / "spark.dat"
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("".join(line + "\n" for line in lines),
                        encoding="ascii", newline="\n")
    return out_path, warnings


def parse_spark_dat(path) -> list:
    records = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if line:
            records.append(BenchRecord.parse_line(line))
    return records


# --- reporting -------------------------------------------------------------

_PALETTE = ["#4878a8", "#b85c48", "#58915b", "#8868a0", "#a88a3c", "#5b8a8f"]


def _nice_ceiling(v: float) -> float:
    for step in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        for mult in range(1, 41):
            if step * mult >= v:
                return step * mult
    return v


def _bar_chart_svg(title: str, bench_names: list, series: list,
                   values: dict) -> str:
    """Grouped speedup bars, one group per benchmark, one bar per config.

    Pointer-family and array-family benchmarks are visually separated so
    the two families can be compared at a glance. Pure function of its
    inputs.
    """
    bar_w = 16
    group_pad = 24
    group_w = max(56, len(series) * bar_w + group_pad)
    margin_l, margin_r, margin_t, margin_b = 64, 150, 46, 78
    plot_w = group_w * len(bench_names)
    plot_h = 300
    width = margin_l + plot_w + margin_r
    height = margin_t + plot_h + margin_b

    vmax = max([values.get((b, s), 0.0) for b in bench_names for s in series]
               + [1.0])
    y_top = _nice_ceiling(max(1.25, vmax * 1.1))

    def ypix(v):
        return margin_t + plot_h - (v / y_top) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{margin_l}" y="24" font-family="sans-serif" '
        f'font-size="15" fill="#222222">{title}</text>',
    ]

    tick_step = y_top / 5.0
    for t in range(6):
        v = tick_step * t
        y = ypix(v)
        parts.append(f'<line x1="{margin_l}" y1="{y:.2f}" '
                     f'x2="{margin_l + plot_w}" y2="{y:.2f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{y + 4:.2f}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="#555555" text-anchor="end">{v:.2f}</text>')
    uy = ypix(1.0)
    parts.append(f'<line x1="{margin_l}" y1="{uy:.2f}" '
                 f'x2="{margin_l + plot_w}" y2="{uy:.2f}" '
                 f'stroke="#888888" stroke-width="1.2" stroke-dasharray="6 3"/>')
    parts.append(f'<text x="{margin_l + plot_w + 6}" y="{uy + 4:.2f}" '
                 f'font-family="sans-serif" font-size="11" '
                 f'fill="#555555">1.00</text>')

    families = [BENCHMARKS[b].family if b in BENCHMARKS else "array"
                for b in bench_names]
    for gi, bench in enumerate(bench_names):
        gx = margin_l + gi * group_w
        bx = gx + (group_w - len(series) * bar_w) / 2.0
        for si, sid in enumerate(series):
            v = values.get((bench, sid))
            if v is None:
                continue
            y = ypix(v)
            h = margin_t + plot_h - y
            parts.append(
                f'<rect x="{bx + si * bar_w:.2f}" y="{y:.2f}" '
                f'width="{bar_w - 2}" height="{h:.2f}" '
                f'fill="{_PALETTE[si % len(_PALETTE)]}"/>')
        parts.append(
            f'<text x="{gx + group_w / 2:.2f}" y="{margin_t + plot_h + 16}" '
            f'font-family="sans-serif" font-size="11" fill="#222222" '
            f'text-anchor="middle">{bench}</text>')
        if gi + 1 < len(bench_names) and families[gi] != families[gi + 1]:
            sx = margin_l + (gi + 1) * group_w
            parts.append(f'<line x1="{sx}" y1="{margin_t}" x2="{sx}" '
                         f'y2="{margin_t + plot_h + 24}" stroke="#aaaaaa" '
                         f'stroke-width="1" stroke-dasharray="3 3"/>')

    spans = {}
    for fam, gi in zip(families, range(len(bench_names))):
        spans.setdefault(fam, [gi, gi])[1] = gi
    for fam, (lo, hi) in sorted(spans.items()):
        cx = margin_l + (lo + hi + 1) * group_w / 2.0
        label = {"pointer": "pointer-traversal kernels",
                 "array": "indirection-array kernels"}.get(fam, fam)
        parts.append(f'<text x="{cx:.2f}" y="{margin_t + plot_h + 38}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="#777777" text-anchor="middle">{label}</text>')

    lx = margin_l + plot_w + 24
    for si, sid in enumerate(series):
        ly = margin_t + 10 + si * 20
        parts.append(f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" '
                     f'fill="{_PALETTE[si % len(_PALETTE)]}"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12" fill="#222222">{sid}</text>')

    parts.append(f'<text x="{margin_l}" y="{height - 10}" '
                 f'font-family="sans-serif" font-size="11" fill="#777777">'
                 f'speedup = reference time / configuration time; dashed line '
                 f'is parity with base</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def report(spark_dat, out_dir) -> tuple:
    """Emit speedups.csv, one grouped-bar SVG per matrix and
    patterns.csv, each kernel's access patterns (``patterns.table``).

    Returns (csv path, list of svg paths, notices). Empty input yields a
    header-only CSV and a notice instead of charts.
    """
    records = parse_spark_dat(spark_dat)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    non_base = [r for r in records if r.id != "base"]

    csv_path = out_dir / "speedups.csv"
    csv_lines = ["id,benchmark,matrix,speedup"]
    for r in non_base:
        csv_lines.append(f"{r.id},{r.benchmark},{r.matrix},{speedup(r):.6f}")
    csv_path.write_text("".join(line + "\n" for line in csv_lines),
                        encoding="ascii", newline="\n")
    (out_dir / "patterns.csv").write_text(patterns.csv(patterns.table()),
                                          encoding="ascii", newline="\n")

    notices = []
    if not non_base:
        notices.append("no non-base records; nothing to chart")
        return csv_path, [], notices

    series = sorted({r.id for r in non_base})
    matrices = sorted({r.matrix for r in non_base})
    svg_paths = []
    for mat in matrices:
        rows = [r for r in non_base if r.matrix == mat]
        present = {r.benchmark for r in rows}
        bench_names = [b for b in BENCHMARK_ORDER if b in present]
        bench_names += sorted(present - set(bench_names))
        values = {(r.benchmark, r.id): speedup(r) for r in rows}
        svg = _bar_chart_svg(f"speedups on {mat}", bench_names, series, values)
        path = out_dir / f"{mat}.svg"
        path.write_text(svg, encoding="ascii", newline="\n")
        svg_paths.append(path)
    return csv_path, svg_paths, notices
