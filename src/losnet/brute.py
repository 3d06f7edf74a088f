"""Exhaustive oracles: exact solvers simple enough to trust by inspection.

The tests compare every solver against these.  Each one carries a hard size
cap and refuses larger inputs outright (``CapacityError``); none of them is
fast, and ``losnet solve`` loads this module only for ``solve brute``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from fractions import Fraction

from .core import Coords, LosInstance, Solution, are_adjacent
from .errors import CapacityError, ValidationError

TYPE_CHECKING = False  # ``typing.TYPE_CHECKING``, without importing ``typing``
if TYPE_CHECKING:
    from .adssched import AdsInstance

BRUTE_MIS_CAP = 24
EXHAUSTIVE_MIS_CAP = 20
BRUTE_WINDOWS_CAP = 10**6
BRUTE_WINDOWS_GRID_CAP = 2**20
BRUTE_ADS_CAP = 20


def _adjacency(coords: list[Coords], omega: int) -> list[int]:
    """Per vertex, the bitmask of the vertices ``are_adjacent`` to it."""
    adj = [0] * len(coords)
    for i, j in itertools.combinations(range(len(coords)), 2):
        if are_adjacent(coords[i], coords[j], omega):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


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
    adj = _adjacency(coords, inst.params.omega)
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
    adj = _adjacency(coords, inst.params.omega)
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


def normalize_rows(row_spec) -> tuple[Coords, ...]:
    """Row vectors from either per-axis extents or an explicit arrangement.

    A tuple of ints is a box of extents (rows are its full cross-product,
    lexicographic: row r is the row ``build_array`` indexes r); a tuple of
    int-tuples is taken literally, sorted lexicographically.  Refusals name
    no value of the spec, which may be too long to print.
    """
    spec = tuple(row_spec)
    if not spec:
        raise ValidationError("row specification must be non-empty")
    if all(isinstance(e, int) for e in spec):
        if any(e < 1 for e in spec):
            raise ValidationError("extents must be positive")
        return tuple(itertools.product(*(range(1, e + 1) for e in spec)))
    rows = tuple(tuple(int(c) for c in r) for r in spec)
    width = len(rows[0])
    if width < 1 or any(len(r) != width for r in rows):
        raise ValidationError("rows must share a positive dimension")
    if any(c < 1 for r in rows for c in r):
        raise ValidationError("row coordinates must be >= 1")
    ordered = tuple(sorted(rows))
    if len(set(ordered)) != len(ordered):
        raise ValidationError("duplicate rows")
    return ordered


def brute_windows(
    row_spec, omega: int, cap: int = BRUTE_WINDOWS_CAP
) -> set[tuple[int, ...]]:
    """Oracle window enumeration: filter every 0/1 grid by the witness rules.

    A grid survives when (a) no row holds two entries (any two columns of a
    width-omega grid are less than omega apart) and (b) entries sharing a
    column sit in rows that either do not share a line of sight or differ by
    at least omega.  ``row_spec`` is extents or an explicit arrangement.
    Each window is its positions, as ``NarrowDp.windows`` gives them: per
    row index, 0 when empty, else the 1-based column of its entry, where row
    r is the r-th row of ``normalize_rows(row_spec)``.  For a box that is
    the row index of ``build_array``, so the windows equal those of a
    ``NarrowDp`` given ``box_conflicts`` masks.
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
    out: set[tuple[int, ...]] = set()
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
        out.add(tuple(positions))
    return out
