"""Independent ground truth: exhaustive solvers and the solution verifier.

Everything here is deliberately simple enough to trust by inspection.  The
exact solvers carry hard size caps and refuse larger inputs outright; the
verifier works at any scale: it buckets the solution by line of sight, so
its cost is O(d |S| log |S|) in the solution size |S| plus the number of
adjacent pairs it reports, and never depends on the instance size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .core import Coords, LosInstance, Solution, are_adjacent
from .errors import CapacityError
from .narrow import FeasibleWindow, normalize_rows

if TYPE_CHECKING:
    from .adssched import AdsInstance

BRUTE_MIS_CAP = 24
EXHAUSTIVE_MIS_CAP = 20
BRUTE_WINDOWS_CAP = 10**6
BRUTE_WINDOWS_GRID_CAP = 2**20
BRUTE_ADS_CAP = 20


def brute_mis(inst: LosInstance, cap: int = BRUTE_MIS_CAP) -> Solution:
    """Exact maximum-weight independent set by include/exclude search.

    Depth-first over vertices in lexicographic order, include branch first,
    pruned by current weight plus total remaining weight.  Keeping only
    strictly better solutions makes the first optimum found the final one,
    which is the lexicographically smallest vertex list among the optima.
    """
    m = len(inst)
    if m > cap:
        raise CapacityError(f"brute_mis handles at most {cap} vertices, got {m}")
    coords = inst.coords_sorted()
    weights = [inst.vertices[c] for c in coords]
    omega = inst.params.omega
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if are_adjacent(coords[i], coords[j], omega):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    suffix = [Fraction(0)] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    best_weight = Fraction(0)
    best_list: list[int] = []
    explored = 0

    def dfs(i: int, chosen_mask: int, chosen: list[int], weight: Fraction) -> None:
        nonlocal best_weight, best_list, explored
        explored += 1
        if weight + suffix[i] <= best_weight:
            return
        if i == m:
            if weight > best_weight:
                best_weight = weight
                best_list = list(chosen)
            return
        if not (adj[i] & chosen_mask):
            chosen.append(i)
            dfs(i + 1, chosen_mask | (1 << i), chosen, weight + weights[i])
            chosen.pop()
        dfs(i + 1, chosen_mask, chosen, weight)

    dfs(0, 0, [], Fraction(0))
    picked = tuple(coords[i] for i in best_list)
    return Solution("brute", picked, best_weight, {"explored": explored})


def exhaustive_mis(inst: LosInstance, cap: int = EXHAUSTIVE_MIS_CAP) -> Solution:
    """Second, dumber oracle: plain power-set enumeration over all vertices."""
    m = len(inst)
    if m > cap:
        raise CapacityError(
            f"exhaustive_mis handles at most {cap} vertices, got {m}"
        )
    coords = inst.coords_sorted()
    weights = [inst.vertices[c] for c in coords]
    omega = inst.params.omega
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if are_adjacent(coords[i], coords[j], omega):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    indep = bytearray(1 << m)
    indep[0] = 1
    best_weight = Fraction(0)
    best_list: list[Coords] = []
    for mask in range(1, 1 << m):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        ok = indep[rest] and not (adj[i] & rest)
        indep[mask] = 1 if ok else 0
        if not ok:
            continue
        w = Fraction(0)
        mm = mask
        while mm:
            lb = mm & -mm
            w += weights[lb.bit_length() - 1]
            mm ^= lb
        if w > best_weight:
            best_weight = w
            best_list = [coords[b] for b in _bits(mask)]
        elif w == best_weight and best_weight > 0:
            cand = [coords[b] for b in _bits(mask)]
            if cand < best_list:
                best_list = cand
    return Solution("exhaustive", tuple(best_list), best_weight, {})


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_adssched(ads: AdsInstance, cap: int = BRUTE_ADS_CAP) -> Solution:
    """Exact schedule by exhaustive include/exclude over (slot, client) cells.

    Cells are visited slot-major so the per-client gap check only needs each
    client's latest pick.  Pruning by remaining available weight keeps the
    search exhaustive-exact while skipping hopeless branches.
    """
    k, n = ads.k_clients, ads.n_times
    if k * n > cap:
        raise CapacityError(
            f"brute_adssched handles at most {cap} cells, got {k * n}"
        )
    cells = [
        (t, c)
        for t in range(1, n + 1)
        for c in range(1, k + 1)
        if ads.available[c - 1][t - 1]
    ]
    m = len(cells)
    suffix = [Fraction(0)] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ads.weight_at(cells[i][1], cells[i][0])

    best_weight = Fraction(0)
    best_picks: list[tuple[int, int]] = []

    def dfs(
        i: int,
        weight: Fraction,
        last: list[int],
        counts: list[int],
        picks: list[tuple[int, int]],
    ) -> None:
        nonlocal best_weight, best_picks
        if weight + suffix[i] <= best_weight:
            return
        if i == m:
            if weight > best_weight:
                best_weight = weight
                best_picks = list(picks)
            return
        t, c = cells[i]
        if counts[t] < ads.l and (last[c] == 0 or t - last[c] >= ads.omega):
            saved = last[c]
            last[c] = t
            counts[t] += 1
            picks.append((c, t))
            dfs(i + 1, weight + ads.weight_at(c, t), last, counts, picks)
            picks.pop()
            counts[t] -= 1
            last[c] = saved
        dfs(i + 1, weight, last, counts, picks)

    dfs(0, Fraction(0), [0] * (k + 1), [0] * (n + 1), [])
    return Solution(
        "brute-adssched",
        tuple(sorted(best_picks)),
        best_weight,
        {"clients": k, "times": n, "omega": ads.omega, "l": ads.l},
    )


def brute_windows(
    row_spec, omega: int, cap: int = BRUTE_WINDOWS_CAP
) -> set[FeasibleWindow]:
    """Oracle window enumeration: filter every 0/1 grid by the witness rules.

    A grid survives when (a) no row holds two entries (any two columns of a
    width-omega grid are less than omega apart) and (b) entries sharing a
    column sit in rows that either do not share a line of sight or differ by
    at least omega.  ``row_spec`` is extents or an explicit arrangement.
    """
    rows = normalize_rows(row_spec)
    size = (omega + 1) ** len(rows)
    if size > cap:
        raise CapacityError(
            f"(omega+1)^rows = {size} exceeds oracle cap {cap}"
        )
    ncells = len(rows) * omega
    if 2**ncells > BRUTE_WINDOWS_GRID_CAP:
        raise CapacityError(
            f"2^(rows*omega) = {2 ** ncells} exceeds grid cap {BRUTE_WINDOWS_GRID_CAP}"
        )
    out: set[FeasibleWindow] = set()
    for bits in itertools.product((0, 1), repeat=ncells):
        entries = [
            (r, c)
            for r in range(len(rows))
            for c in range(1, omega + 1)
            if bits[r * omega + (c - 1)]
        ]
        ok = True
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                (r1, c1), (r2, c2) = entries[a], entries[b]
                if r1 == r2 and c1 != c2 and abs(c1 - c2) < omega:
                    ok = False
                elif c1 == c2 and are_adjacent(rows[r1], rows[r2], omega):
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        positions = [0] * len(rows)
        for r, c in entries:
            positions[r] = c
        out.add(FeasibleWindow(rows, omega, tuple(positions)))
    return out


@dataclass
class VerifyReport:
    """Recomputed independence and weight of a claimed solution.

    ``independent`` is True exactly when ``violations`` is empty; weight
    mismatches and unknown coordinates count as violations, so a clean
    report certifies the full solution record, not just pairwise gaps.
    """

    independent: bool
    weight_claimed: Fraction
    weight_recomputed: Fraction
    violations: list[str]


def verify(inst: LosInstance, sol: Solution) -> VerifyReport:
    """Recheck a solution against an instance, exactly; never raises on bad
    solutions: problems are reported as violations."""
    violations: list[str] = []
    known: list[Coords] = []
    seen: set[Coords] = set()
    for c in sol.vertices:
        c = tuple(c)
        if c in seen:
            violations.append(f"duplicate coordinate {c}")
            continue
        seen.add(c)
        if c not in inst:
            violations.append(f"unknown coordinate {c}")
        else:
            known.append(c)
    for i, j in _adjacent_pairs(known, inst.params.omega):
        violations.append(f"adjacent pair {known[i]} {known[j]}")
    recomputed = sum((inst.weight_of(c) for c in known), Fraction(0))
    if recomputed != sol.total_weight:
        violations.append(
            f"weight mismatch: claimed {sol.total_weight}, recomputed {recomputed}"
        )
    return VerifyReport(not violations, sol.total_weight, recomputed, violations)


def _adjacent_pairs(known: list[Coords], omega: int) -> list[tuple[int, int]]:
    """Index pairs i < j of adjacent coordinates, ascending.

    Per axis, the coordinates are grouped by their other positions (one
    line of sight per group) and sorted along the axis; each one is paired
    forward only while the gap stays below omega.  ``known`` holds distinct
    coordinates of one dimension, so every adjacent pair is found on exactly
    one axis.
    """
    pairs: list[tuple[int, int]] = []
    dim = len(known[0]) if known else 0
    for axis in range(dim):
        lines: dict[Coords, list[tuple[int, int]]] = {}
        for i, c in enumerate(known):
            lines.setdefault(c[:axis] + c[axis + 1 :], []).append((c[axis], i))
        for line in lines.values():
            if len(line) < 2:
                continue
            line.sort()
            for a, (x, i) in enumerate(line):
                for b in range(a + 1, len(line)):
                    y, j = line[b]
                    if y - x >= omega:
                        break
                    pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def verify_ads(ads: AdsInstance, sol: Solution) -> VerifyReport:
    """Structural recheck of a schedule: availability, gaps, capacity, weight."""
    violations: list[str] = []
    picks: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for v in sol.vertices:
        if len(v) != 2:
            violations.append(f"bad pick {v!r}")
            continue
        c, t = int(v[0]), int(v[1])
        if (c, t) in seen:
            violations.append(f"duplicate pick ({c}, {t})")
            continue
        seen.add((c, t))
        if not (1 <= c <= ads.k_clients and 1 <= t <= ads.n_times):
            violations.append(f"pick ({c}, {t}) out of range")
        elif not ads.available[c - 1][t - 1]:
            violations.append(f"pick ({c}, {t}) not available")
        else:
            picks.append((c, t))
    by_client: dict[int, list[int]] = {}
    by_time: dict[int, int] = {}
    for c, t in picks:
        by_client.setdefault(c, []).append(t)
        by_time[t] = by_time.get(t, 0) + 1
    for c, times in by_client.items():
        times.sort()
        for a, b in zip(times, times[1:]):
            if b - a < ads.omega:
                violations.append(f"client {c} gap {b - a} < {ads.omega}")
    for t, count in sorted(by_time.items()):
        if count > ads.l:
            violations.append(f"slot {t} holds {count} > l={ads.l}")
    recomputed = sum((ads.weight_at(c, t) for c, t in picks), Fraction(0))
    if recomputed != sol.total_weight:
        violations.append(
            f"weight mismatch: claimed {sol.total_weight}, recomputed {recomputed}"
        )
    return VerifyReport(not violations, sol.total_weight, recomputed, violations)
