"""Airing-schedule optimization with per-client gaps and per-slot capacity.

An instance has k clients and n time slots.  Each client is available at a
subset of slots; a schedule picks (client, slot) pairs so that the same
client's picks are at least ``omega`` slots apart and no slot serves more
than ``l`` clients.  The goal is the maximum number (or total weight) of
picks.

This is the same column DP as the independent-set solver with one change:
rows (clients) never constrain each other pairwise, only through the shared
per-column capacity ``l``, so the schedule runs on ``NarrowDp`` itself with
that capacity.  Its window budget therefore bounds the schedule windows,
counted with the capacity (``count_ads_windows``), not the raw (omega+1)^k
stencils.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .core import FrozenRecord, Solution, parse_rational
from .errors import ValidationError
from .narrow import NarrowDp
from .narrow import count_windows as count_ads_windows  # the schedule windows


class AdsInstance(FrozenRecord):
    """Availability matrix plus gap and capacity parameters.

    ``available[c][t]`` is 1 when client c+1 may air at slot t+1.  Optional
    weights (keyed by 1-based (client, slot)) default to 1; a capacity above
    ``k_clients`` is legal and simply never binds.
    """

    k_clients: int
    n_times: int
    omega: int
    l: int
    available: tuple[tuple[int, ...], ...]
    weights: Mapping[tuple[int, int], Fraction]

    def __init__(
        self,
        k_clients: int,
        n_times: int,
        omega: int,
        l: int,
        available,
        weights: Mapping[tuple[int, int], Fraction] | None = None,
    ) -> None:
        if k_clients < 1:
            raise ValidationError(f"need k_clients >= 1, got {k_clients}")
        if n_times < 1:
            raise ValidationError(f"need n_times >= 1, got {n_times}")
        if omega < 2:
            raise ValidationError(f"omega must be >= 2, got {omega}")
        if l < 1:
            raise ValidationError(f"capacity l must be >= 1, got {l}")
        rows = tuple(tuple(int(x) for x in row) for row in available)
        if len(rows) != k_clients or any(len(row) != n_times for row in rows):
            raise ValidationError(f"availability must be {k_clients}x{n_times}")
        if any(x not in (0, 1) for row in rows for x in row):
            raise ValidationError("availability entries must be 0/1")
        checked = {}
        for (c, t), w in dict(weights or {}).items():
            w = parse_rational(w, "weight")
            if not (1 <= c <= k_clients and 1 <= t <= n_times):
                raise ValidationError(f"weight for out-of-range pair ({c}, {t})")
            if not rows[c - 1][t - 1]:
                raise ValidationError(
                    f"weight given for unavailable pair ({c}, {t})"
                )
            if w <= 0:
                raise ValidationError(f"weight must be positive, got {w}")
            checked[(c, t)] = w
        super().__init__(k_clients, n_times, omega, l, rows, checked)

    def weight_at(self, client: int, time: int) -> Fraction:
        return self.weights.get((client, time), Fraction(1))


def _client_rows(k_clients: int) -> tuple[tuple[int, int], ...]:
    """DP rows of the clients: client c is row (c, c).  Diagonal rows differ
    in two coordinates, so no two share a line of sight and only the column
    capacity constrains them."""
    return tuple((c, c) for c in range(1, k_clients + 1))


def solve_adssched(ads: AdsInstance, budget: int | None = None) -> Solution:
    """Optimal airing schedule via the column DP.

    One ``NarrowDp`` row per client, capacity ``l``: a window records each
    client's latest pick inside the trailing ``omega`` slots, and each slot
    places up to ``l`` newly-freed available clients.  Chaining,
    tie-breaking, retrieval and the budget check are the independent-set
    DP's own.
    """
    k, n, omega, cap = ads.k_clients, ads.n_times, ads.omega, ads.l
    dp = NarrowDp(_client_rows(k), omega, budget, capacity=cap)
    for t in range(1, n + 1):
        dp.push_column(
            {c: ads.weight_at(c + 1, t) for c in range(k) if ads.available[c][t - 1]}
        )
    weight = dp.best_weight
    picks = [(row[0], t) for row, t in dp.placements()]
    resum = sum((ads.weight_at(c, t) for c, t in picks), Fraction(0))
    if resum != weight:
        raise RuntimeError(f"schedule re-sum {resum} != table weight {weight}")
    meta = {"clients": k, "times": n, "omega": omega, "l": cap}
    return Solution("adssched", tuple(sorted(picks)), weight, meta)
