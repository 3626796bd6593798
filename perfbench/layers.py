"""Per-layer metrics derived from spans and from the tool's .time files.

Layer names follow sparkbench's modules. A span is a dict with ``id``,
``name``, ``start``, ``end``, ``parent`` and ``attrs``; the probes in
``probes.py`` name them ``<module>.<function>`` or, for the benchmark
registry's phases, ``harness.setup.<BENCH>``, ``harness.reference.<BENCH>``,
``<kernel module>.run.<BENCH>`` and ``harness.digest.<BENCH>``.
"""

import statistics
from collections import defaultdict

import metrics

POINTER = ["SPMATVEC", "SPMATMAT", "JACIT", "DSOLVE", "PCG"]
ARRAY = ["ASM", "TRMAT", "CMCK", "MPERM"]
FAMILY = {**{b: "ptr_kernels" for b in POINTER}, **{b: "arr_kernels" for b in ARRAY}}
# Matrices with a per-entry kernel cost; the seeded SPD input is reported
# under its seed-free name so the metric names stay fixed.
NS_MATRICES = ["sherman3", "spd2000"]
GEN_SPANS = {"matio.gen_all_standins", "matio.gen_spd", "matio.write_matrix_market"}

NAMES = [
    "runner.spawn_s", "runner.import_s", "runner.cells", "harness.cell_self_s",
    "matio.read_s", "matio.read_calls", "matio.entries_read", "matio.gen_s",
    *[f"harness.setup_s.{b}" for b in FAMILY], "core.build_ortho_s",
    "harness.reference_s", "harness.reference_calls", "harness.digest_s",
    "harness.gate_checks", "harness.gate_mismatches",
    *[f"{FAMILY[b]}.run_s.{b}" for b in FAMILY],
    *[f"{FAMILY[b]}.ns_per_entry.{b}.{m}" for b in FAMILY if b != "ASM"
      for m in NS_MATRICES],
    "harness.run_cv", "harness.aa_log_spread",
    "harness.write_s", "harness.aggregate_s", "harness.report_s",
    "harness.verify_fixtures_s", "harness.verify_matrix_s",
    "trace.overhead_s", "trace.overhead_frac", "trace.spans",
]


def _unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if ".ns_per_entry." in name:
        return "ns"
    if name in ("harness.run_cv", "harness.aa_log_spread", "trace.overhead_frac"):
        return "ratio"
    return "count"


UNITS = {n: _unit(n) for n in NAMES}


def _dur(s):
    return s["end"] - s["start"]


def _ancestor_attr(span, by_id, key):
    while span is not None:
        if key in span["attrs"]:
            return span["attrs"][key]
        span = by_id.get(span["parent"])
    return None


def _matrix_alias(name):
    return "spd2000" if name and name.startswith("spd2000s") else name


def _phase(name):
    """(phase, bench) of a registry-phase span name, else None."""
    parts = name.split(".")
    if len(parts) == 3 and parts[2] in FAMILY and parts[1] in (
            "setup", "reference", "run", "digest"):
        return parts[1], parts[2]
    return None


def cell_walls(spans):
    """Per-cell wall seconds.

    Grid cells are ``harness.cell`` spans, spawn to payload on the
    parent's side. ``verify`` starts no cells; there a cell is one
    ``verify_matrix`` call, which gates every matrix kernel once on one
    matrix.
    """
    for name in ("harness.cell", "harness.verify_matrix"):
        cells = [_dur(s) for s in spans if s["name"] == name]
        if cells:
            return cells
    return []


def kernel_seconds(spans):
    return sum(_dur(s) for s in spans
               if (_phase(s["name"]) or ("",))[0] == "run")


def noise(units):
    """Median per-cell CV of the measured runs, and the base/opt1 A/A spread."""
    cvs, spreads = [], []
    for u in units:
        if not u.cells:
            continue
        cvs.extend(metrics.cv(runs) for _, runs in u.cells.values())
        by_cfg = defaultdict(dict)
        for (cfg, bench, mat), (sec, _) in u.cells.items():
            by_cfg[cfg][(bench, mat)] = sec
        spreads.append(metrics.aa_log_spread(by_cfg["base"], by_cfg["opt1"]))
    if not cvs:
        return {"run_cv": 0.0, "aa_log_spread": 0.0}
    return {"run_cv": statistics.median(cvs),
            "aa_log_spread": statistics.median(spreads)}


def top_self_times(spans, k=10):
    """The ``k`` span names with the most self time, in seconds."""
    own = metrics.self_times(spans)
    total = defaultdict(float)
    for s in spans:
        total[s["name"]] += own[s["id"]]
    return dict(sorted(total.items(), key=lambda kv: -kv[1])[:k])


def per_layer(spans, plain_units, traced_units):
    """Every metric in ``NAMES``; layers a workload does not reach read 0.

    Sums and counts are per traced unit, except ``matio.gen_s``, which
    covers the one traced set-up. ``trace.*`` compares the traced units'
    wall time with the untraced units' of the same run.
    """
    by_id = {s["id"]: s for s in spans}
    out = dict.fromkeys(NAMES, 0.0)
    per = 1.0 / len(traced_units)
    own = metrics.self_times(spans)
    kernel_runs = defaultdict(list)
    entries = {}

    def add(name, value):
        out[name] += value * per

    for s in spans:
        name, d = s["name"], _dur(s)
        ph = _phase(name)
        if ph:
            kind, bench = ph
            if kind == "run":
                add(f"{FAMILY[bench]}.run_s.{bench}", d)
                mat = _matrix_alias(_ancestor_attr(s, by_id, "matrix"))
                kernel_runs[(bench, mat)].append(d)
            elif kind == "setup":
                add(f"harness.setup_s.{bench}", d)
            elif kind == "reference":
                add("harness.reference_s", d)
                add("harness.reference_calls", 1)
            else:
                add("harness.digest_s", d)
        elif name == "runner.spawn":
            add("runner.spawn_s", d)
        elif name == "runner.import":
            add("runner.import_s", d)
        elif name == "runner.main":
            add("runner.cells", 1)
        elif name == "harness.cell":
            add("harness.cell_self_s", own[s["id"]])
        elif name == "matio.read_matrix_market":
            add("matio.read_s", d)
            add("matio.read_calls", 1)
            add("matio.entries_read", s["attrs"]["entries"])
            entries[_matrix_alias(s["attrs"]["matrix"])] = s["attrs"]["entries"]
        elif name == "core.build_ortho":
            add("core.build_ortho_s", d)
        elif name == "harness.gate":
            add("harness.gate_checks", 1)
            add("harness.gate_mismatches", 0 if s["attrs"]["ok"] else 1)
        elif name in ("harness.write_time_file", "harness.aggregate", "harness.report",
                      "harness.verify_fixtures", "harness.verify_matrix"):
            short = name.split(".")[1].replace("_time_file", "")
            add(f"harness.{short}_s", d)

    out["matio.gen_s"] = metrics.covered(
        [(s["start"], s["end"]) for s in spans if s["name"] in GEN_SPANS
         and _ancestor_attr(s, by_id, "setup")])
    for (bench, mat), runs in kernel_runs.items():
        key = f"{FAMILY[bench]}.ns_per_entry.{bench}.{mat}"
        if key in out and entries.get(mat):
            out[key] = statistics.median(runs) / entries[mat] * 1e9
    out.update({f"harness.{k}": v for k, v in noise(plain_units).items()})
    plain = statistics.median(u.wall for u in plain_units)
    traced = statistics.median(u.wall for u in traced_units)
    out["trace.overhead_s"] = traced - plain
    out["trace.overhead_frac"] = (traced - plain) / plain
    out["trace.spans"] = len(spans) * per
    return out
