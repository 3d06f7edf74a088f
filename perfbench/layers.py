"""Per-layer metrics from the spans of traced ops.

Every op is one process.  Its root span ``op`` runs from spawn to exit and
belongs to the ``cli`` layer; ``cli.startup`` runs from spawn to the first
losnet call; the spans written by ``trace_op.py`` nest below.  A span's self
time is its duration minus its children's, so the self times of one op add
up to its wall time exactly (integer nanoseconds).

Times are milliseconds per traced op (the mean over the run).  Counts are
per cycle, one pass over the workload's ops, and must repeat exactly from
cycle to cycle.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

LAYERS = ("cli", "io", "narrow", "decomp", "semionline", "adssched", "oracle", "core")

# Per-op time: the self time of these spans, summed.  Together they cover
# every nanosecond of a traced op.
TIME_OF_SPANS = {
    "cli.startup_ms": ("cli.startup",),
    "cli.self_ms": ("op", "cli.main"),
    "io.parse_ms": ("io.parse",),
    "io.serialize_ms": ("io.serialize",),
    "narrow.build_array_ms": ("narrow.build_array",),
    "narrow.setup_ms": ("narrow.setup",),
    "narrow.push_ms": ("narrow.push",),
    "narrow.unwind_ms": ("narrow.unwind",),
    "narrow.solve_self_ms": ("narrow.solve",),
    "decomp.self_ms": ("decomp.solve", "decomp.make_blocks"),
    "semionline.self_ms": ("semionline.solve",),
    "adssched.solve_ms": ("adssched.solve",),
    "oracle.verify_ms": ("oracle.verify",),
    "oracle.verify_ads_ms": ("oracle.verify_ads",),
    "core.set_weight_ms": ("core.set_weight",),
}

# Per-cycle count: the calls of this span.
CALLS_OF_SPANS = {
    "narrow.build_array.calls": "narrow.build_array",
    "narrow.setup.calls": "narrow.setup",
    "narrow.columns": "narrow.push",
    "decomp.make_blocks.calls": "decomp.make_blocks",
    "core.set_weight.calls": "core.set_weight",
}

# Names trace_op could not wrap or read, and the metrics that need them.
NEEDS = {
    "losnet.narrow.NarrowDp.__init__": ("narrow.setup.calls", "narrow.windows"),
    "narrow.setup:count": ("narrow.windows",),
    "losnet.narrow.NarrowDp.push_column": (
        "narrow.columns", "narrow.push_us_per_column", "narrow.column_mismatches"
    ),
    "losnet.narrow.solve_exact_narrow": (
        "decomp.narrow_calls", "narrow.long_extent", "narrow.column_mismatches"
    ),
    "narrow.solve:count": ("narrow.long_extent", "narrow.column_mismatches"),
    "semionline.solve:count": ("narrow.long_extent", "narrow.column_mismatches"),
    "losnet.decomp.make_blocks": ("decomp.make_blocks.calls", "decomp.kept_ratio"),
    "decomp.make_blocks:count": ("decomp.kept_ratio",),
    "on_phase": ("semionline.phases", "semionline.phase_ms.p50"),
}


def self_times(spans: list[list], spawn: int, exit_: int) -> list[tuple[str, int]]:
    """(span name, self ns) for the root, startup and every recorded span."""
    child_ns = [0] * len(spans)
    top_ns = 0
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
        else:
            top_ns += end - start
    first_call = spans[0][1] if spans else exit_
    out = [("cli.startup", first_call - spawn), ("op", exit_ - first_call - top_ns)]
    out.extend((s[0], s[2] - s[1] - child_ns[i]) for i, s in enumerate(spans))
    return out


def _strips_kept(extents, omega: int, cells, parity: str) -> int:
    """Non-empty width-(omega-1) strips of the parity strip2 returned."""
    long_axis = max(range(len(extents)), key=lambda a: (extents[a], -a))
    k = omega - 1
    want = 1 if parity == "odd" else 0
    strips = {tuple((c[a] - 1) // k for a in range(len(c)) if a != long_axis) for c in cells}
    return sum(1 for s in strips if sum(s) % 2 == want)


def ads_windows(clients: int, omega: int, cap: int) -> int:
    """Schedule stencils: each client empty or in one of omega columns, at
    most ``cap`` clients per column (counted here by brute force)."""
    total = 0
    for code in range((omega + 1) ** clients):
        per_col = [0] * (omega + 1)
        for _ in range(clients):
            code, pos = divmod(code, omega + 1)
            per_col[pos] += 1
        total += all(n <= cap for n in per_col[1:])
    return total


def op_record(trace: dict, spawn: int, exit_: int, op, sol: dict, parsed) -> tuple[dict, dict]:
    """(times in ns, counts) of one traced op.

    ``op`` is the workload's op, ``sol`` the printed solution and ``parsed``
    the input as ``check.py`` parsed it.
    """
    spans = trace["spans"]
    times: dict[str, object] = {}
    counts: dict[str, object] = {}
    selfs = self_times(spans, spawn, exit_)
    for metric, names in TIME_OF_SPANS.items():
        times[metric] = sum(ns for name, ns in selfs if name in names)
    # Self times cover the op exactly unless a child span lies outside its parent.
    counts["trace.self_sum_errors"] = int(sum(ns for _, ns in selfs) != exit_ - spawn) + sum(
        1 for _, ns in selfs if ns < 0
    )
    for metric, name in CALLS_OF_SPANS.items():
        counts[metric] = sum(1 for s in spans if s[0] == name)
    for layer in LAYERS:
        counts[f"{layer}.failed"] = sum(1 for s in spans if s[4] and s[0].split(".")[0] == layer)
    counts["narrow.windows"] = sum(s[5] or 0 for s in spans if s[0] == "narrow.setup")
    # Linear in the long extent: every DP run pushes exactly n columns.
    runs = {i: 0 for i, s in enumerate(spans) if s[0] in ("narrow.solve", "semionline.solve")}
    for s in spans:
        if s[0] == "narrow.push":
            parent = s[3]
            while parent >= 0 and parent not in runs:
                parent = spans[parent][3]
            if parent >= 0:
                runs[parent] += 1
    counts["narrow.long_extent"] = sum(spans[i][5] or 0 for i in runs)
    counts["narrow.column_mismatches"] = sum(1 for i, pushed in runs.items() if pushed != spans[i][5])
    solves = [s for s in spans if s[0] == "narrow.solve"]
    decomp_solves = [s for s in solves if s[3] >= 0 and spans[s[3]][0].startswith("decomp.")]
    counts["decomp.narrow_calls"] = len(decomp_solves)
    meta = sol.get("meta", {})
    if op.algo == "strip2":
        counts["decomp.parts_solved"] = len(decomp_solves)
        counts["decomp.parts_kept"] = _strips_kept(op.extents, *parsed, meta.get("parity", ""))
    elif op.algo == "ptas":
        top = [
            s
            for s in spans
            if s[0] == "decomp.make_blocks" and s[3] >= 0 and spans[s[3]][0] == "decomp.solve"
        ]
        counts["decomp.parts_solved"] = sum(s[5] or 0 for s in top)
        counts["decomp.parts_kept"] = sum(1 for w in meta.get("block_weights", ()) if Fraction(w))
        if "h" in meta:
            counts["decomp.shift_combinations"] = (meta["h"] + 1) ** (len(op.extents) - 1)
    elif op.algo == "semionline":
        counts["semionline.lookahead_max"] = meta.get("lookahead_max_used", 0)
        counts["semionline.lookahead_limit"] = meta.get("lookahead_limit") or 0
        start = next((s[1] for s in spans if s[0] == "semionline.solve"), None)
        if start is not None and "on_phase" not in trace["absent"]:
            phases = trace["phases"]
            counts["semionline.phases"] = len(phases)
            stamps = [start, *phases]
            times["semionline.phase_gaps"] = [b - a for a, b in zip(stamps, stamps[1:])]
    if op.algo == "adssched":
        header = parsed[0]
        counts["adssched.slots"] = header["times"]
        counts["adssched.windows"] = ads_windows(header["clients"], header["omega"], header["l"])
    else:
        m = len(sol["vertices"])
        counts["oracle.verify.pairs"] = m * (m - 1) // 2
    counts["io.parse.vertices"] = len(parsed[1])
    return times, counts


# Counts a workload may not produce at all; they then read 0.
COUNTS = (
    *CALLS_OF_SPANS,
    *(f"{layer}.failed" for layer in LAYERS),
    "narrow.windows", "narrow.long_extent", "narrow.column_mismatches",
    "decomp.narrow_calls", "decomp.shift_combinations",
    "semionline.phases", "semionline.lookahead_max", "semionline.lookahead_limit",
    "adssched.slots", "adssched.windows", "oracle.verify.pairs", "io.parse.vertices",
)

# Counts reported as a maximum over the cycle instead of a sum.
MAX_COUNTS = ("semionline.lookahead_max", "semionline.lookahead_limit")


def cycle_counts(records: list[dict]) -> dict:
    """Counts of one cycle from its ops' count records."""
    out: dict[str, int] = {}
    for rec in records:
        for key, value in rec.items():
            if key in MAX_COUNTS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def summarize(times: list[dict], counts: list[dict], cycle: dict, absent: set[str]) -> dict:
    """Per-layer metrics of a run from every traced op's times and counts
    and the counts of one cycle: mean ms per traced op, counts per cycle."""
    n = len(times)
    out: dict[str, float] = {}
    for metric in TIME_OF_SPANS:
        out[metric] = sum(t[metric] for t in times) / n / 1e6
    gaps = [g for t in times for g in t.get("semionline.phase_gaps", ())]
    out["semionline.phase_ms.p50"] = statistics.median(gaps) / 1e6 if gaps else 0.0
    columns = sum(c.get("narrow.columns", 0) for c in counts)
    push_ns = sum(t["narrow.push_ms"] for t in times)
    out["narrow.push_us_per_column"] = push_ns / columns / 1e3 if columns else 0.0
    out.update(dict.fromkeys(COUNTS, 0))
    out.update(cycle)
    solved = out.pop("decomp.parts_solved", 0)
    kept = out.pop("decomp.parts_kept", 0)
    out["decomp.kept_ratio"] = kept / solved if solved else 0.0
    for wrapped, metrics in NEEDS.items():
        if wrapped in absent:
            for metric in metrics:
                out.pop(metric, None)
    return out
