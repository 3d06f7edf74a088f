"""Independent ground truth: the exact solution verifiers.

Everything here is deliberately simple enough to trust by inspection.  The
verifier works at any scale: it buckets the solution by line of sight
(``core.adjacent_pairs``, which ``core.is_independent`` shares), so its
cost is O(d |S| log |S|) in the solution size |S| plus the number of
adjacent pairs it reports, and never depends on the instance size.  The
solvers do not use that pair finder, and the exhaustive solvers the tests
compare against live in ``losnet.brute``.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Coords, LosInstance, Record, Solution, adjacent_pairs

TYPE_CHECKING = False  # ``typing.TYPE_CHECKING``, without importing ``typing``
if TYPE_CHECKING:
    from .adssched import AdsInstance


class VerifyReport(Record):
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
    for i, j in adjacent_pairs(known, inst.params.omega):
        violations.append(f"adjacent pair {known[i]} {known[j]}")
    recomputed = sum((inst.weight_of(c) for c in known), Fraction(0))
    return _report(sol, recomputed, violations)


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
    return _report(sol, recomputed, violations)


def _report(sol: Solution, recomputed: Fraction, violations: list[str]) -> VerifyReport:
    """The report on ``sol``: ``violations``, plus a weight mismatch when its
    claimed weight is not ``recomputed``."""
    if recomputed != sol.total_weight:
        violations.append(
            f"weight mismatch: claimed {sol.total_weight}, recomputed {recomputed}"
        )
    return VerifyReport(not violations, sol.total_weight, recomputed, violations)
