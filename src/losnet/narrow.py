"""Exact dynamic program for maximum-weight independent sets on narrow instances.

A narrow instance is flattened into column-major form: columns run along the
long axis, rows enumerate the (d-1)-dimensional cross-section.  The DP sweeps
columns left to right.  Its state is a *feasible window*: a 0/1 stencil of the
trailing ``omega`` columns that some independent placement can realize.  Two
windows chain when the tail of the first equals the head of the second, so
each step extends the best chain by one column and charges exactly the weight
picked up in the newly exposed column.

The DP knows no geometry: ``NarrowDp`` takes a row count and each row's
conflict mask, and returns placements as (row index, column).  A box
cross-section's masks come from its extents (``box_conflicts``), by the row
index ``build_array`` stores cells under and ``NarrowArray.coords_of`` maps
back.

A column step has two parts.  First every live window shifts left one
column (its oldest column drops out); windows that shift to the same form
merge, keeping the best.  Then the column's occupied rows are offered one at
a time: each entry may also place the row in the new last column, if the
row is free, no conflicting row is placed there and the column is below its
capacity.  A step therefore costs live windows x occupied rows; no table of
transitions is built.  Windows are packed into one int per window, and the
predecessors of a column are keyed by the shifted window, which every
window of that column maps back to by clearing its newest column.

The table runs on Python ints, the weights scaled by the least common
multiple of their denominators; answers come back exact, as an ``int``
while every weight pushed is one and as a ``Fraction`` otherwise.

A per-column capacity, the most entries one column may hold, is the one
knob that adapts the DP to other problems: airing schedules (``adssched``)
run it over client rows with no conflicts and capacity ``l``.  The
independent-set DP's capacity is its row count, which never binds.

The number of windows is exponential in the row count, so ``NarrowDp``
refuses (``CapacityError``, ``check_window_budget``) rather than degrade
when the windows of its shape, counted by ``count_windows``, exceed its
budget.  It asks for its conflict masks only after that check, and
``build_array`` builds nothing row-sized.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping
from fractions import Fraction
from numbers import Rational

from .core import Coords, InstanceParams, LosInstance, Solution, resolve_long_axis, shown
from .errors import CapacityError

DEFAULT_WINDOW_BUDGET = 10_000_000


@functools.lru_cache(maxsize=None)
def box_conflicts(extents: tuple[int, ...], omega: int) -> tuple[int, ...]:
    """Per row of a box cross-section, by row index, the bitmask of rows it
    conflicts with: rows that differ along one axis only, by less than
    omega, share a line of sight and may never occupy one window column.
    Cached per shape."""
    strides = [math.prod(extents[a + 1 :]) for a in range(len(extents))]
    masks = []
    for r in range(math.prod(extents)):
        m = 0
        for e, s in zip(extents, strides):
            c = r // s % e
            for other in range(max(0, c - omega + 1), min(e, c + omega)):
                m |= 1 << (r + (other - c) * s)
        masks.append(m & ~(1 << r))
    return tuple(masks)


def count_windows(
    nrows: int, omega: int, capacity: int, stop: int | None = None
) -> int:
    """Windows of ``nrows`` rows that never conflict, at most ``capacity``
    entries per column: the windows of an airing schedule, and a bound on the
    windows of any independent-set shape with that many rows.

    Counted column by column: ``ways[u]`` is the number of fillings of the
    columns so far that place u distinct rows, and a column takes any s <=
    ``capacity`` of the rows still free.  At capacity >= ``nrows`` that is
    (omega+1)^nrows, multiplied up directly.  With ``stop`` the count ends as
    soon as it passes ``stop`` and returns a value above it, so no integer
    far beyond ``stop`` is built.
    """
    if capacity >= nrows:
        count = 1
        for _ in range(nrows):
            count *= omega + 1
            if stop is not None and count > stop:
                break
        return count
    ways = [1] + [0] * nrows
    for _ in range(omega):
        nxt = []
        for u in range(nrows + 1):
            n = sum(
                ways[u - s] * math.comb(nrows - u + s, s)
                for s in range(min(capacity, u) + 1)
            )
            # ways[u] carries into every later column (s = 0) and into the
            # total, so the count has already passed ``stop``.
            if stop is not None and n > stop:
                return n
            nxt.append(n)
        ways = nxt
    return sum(ways)


def check_window_budget(
    nrows: int, omega: int, budget: int | None = None, capacity: int | None = None
) -> int:
    """The capacity a DP of ``nrows`` rows runs at (``capacity``, at most the
    row count; default the row count), once its windows are known to fit
    ``budget``; refused (``CapacityError``) otherwise.  Counts only."""
    capacity = nrows if capacity is None else min(capacity, nrows)
    if budget is None:
        budget = DEFAULT_WINDOW_BUDGET
    if count_windows(nrows, omega, capacity, budget) > budget:
        raise CapacityError(
            f"window count exceeds budget {shown(budget)} (rows={shown(nrows)}, "
            f"omega={shown(omega)}, capacity={shown(capacity)})"
        )
    return capacity


@functools.lru_cache(maxsize=None)
def _windows(
    nrows: int, omega: int, conflicts: tuple[int, ...], capacity: int
) -> tuple[tuple[int, ...], ...]:
    """Positions of every window of one shape, ascending: no two conflicting
    rows and at most ``capacity`` rows in one column."""
    out: list[tuple[int, ...]] = []
    positions = [0] * nrows
    col_masks = [0] * (omega + 1)

    def rec(r: int) -> None:
        if r == nrows:
            out.append(tuple(positions))
            return
        bit = 1 << r
        for p in range(omega + 1):
            if p and (
                col_masks[p] & conflicts[r] or col_masks[p].bit_count() >= capacity
            ):
                continue
            positions[r] = p
            if p:
                col_masks[p] |= bit
            rec(r + 1)
            if p:
                col_masks[p] &= ~bit

    rec(0)
    return tuple(out)


class NarrowArray:
    """Column-major view of a validated ``LosInstance``, built by
    ``build_array``.

    Columns 1..n run along ``long_axis``; ``omega`` implicit all-zero
    columns -(omega-1)..0 precede them so the DP can start from the empty
    window.  The shape is read from the instance's ``InstanceParams``: ``n``
    is the long extent and ``row_extents`` the others, in axis order, with
    ``nrows`` rows in all.  Only the instance's cells are stored, keyed by
    row index: the rank of the row's coordinates among the other axes',
    last axis fastest, computed arithmetically both ways.
    """

    __slots__ = ("row_extents", "nrows", "omega", "n", "long_axis", "_cols")

    def __init__(
        self,
        params: InstanceParams,
        long_axis: int,
        cols: dict[int, dict[int, Rational]],
    ) -> None:
        extents = list(params.extents)
        self.n = extents.pop(long_axis)
        self.row_extents = tuple(extents)
        self.nrows = math.prod(extents)
        self.omega = params.omega
        self.long_axis = long_axis
        self._cols = cols

    def conflicts(self) -> tuple[int, ...]:
        """The DP's conflict mask of every row (``box_conflicts``)."""
        return box_conflicts(self.row_extents, self.omega)

    def column(self, j: int) -> dict[int, Rational]:
        """Occupied row-index -> weight map of column j ({} off the grid)."""
        return dict(self._cols.get(j, {}))

    def coords_of(self, r: int, j: int) -> Coords:
        """Instance coordinates of cell (row index r, column j)."""
        c = []
        for e in reversed(self.row_extents):
            r, x = divmod(r, e)
            c.append(x + 1)
        c.reverse()
        c.insert(self.long_axis, j)
        return tuple(c)


def build_array(inst: LosInstance, long_axis: int | None = None) -> NarrowArray:
    """Flatten ``inst`` into column-major form along ``long_axis``: the one
    way to build a ``NarrowArray``.

    Any instance embeds; the induced row count is the product of the other
    extents, and the window budget of the ``NarrowDp`` that solves the array
    is what limits solvability; the array itself builds no row.
    """
    p = inst.params
    long_axis = resolve_long_axis(p, long_axis)
    # ``inst`` validated its cells (positive weights inside the box, one per
    # coordinate), so they go into the columns unchecked, at the row's rank
    # among the other axes' coordinates.
    row_axes = [a for a in range(p.d) if a != long_axis]
    extents = [p.extents[a] for a in row_axes]
    strides = [(a, math.prod(extents[i + 1 :])) for i, a in enumerate(row_axes)]
    cols: dict[int, dict[int, Rational]] = {}
    for coords, w in inst.vertices.items():
        j = coords[long_axis]
        col = cols.get(j)
        if col is None:
            col = cols[j] = {}
        col[sum([(coords[a] - 1) * s for a, s in strides])] = w
    return NarrowArray(p, long_axis, cols)


class NarrowDp:
    """Incremental column-at-a-time evaluator of the window DP.

    Built from a row count, omega and a zero-argument callable that returns
    each row's conflict mask (bit b of mask r set when rows r and b may not
    share a window column); the callable runs only once the budget check
    passed.  ``box_conflicts`` gives a box cross-section's masks, and rows
    with no conflicts have all-zero masks.

    Push columns left to right, each a row index -> weight map; after each
    push the table holds, per feasible window, the best weight of an
    independent placement of the pushed prefix whose trailing stencil is that
    window.  Weights are kept only for the newest column (rolling);
    per-column predecessor keys and the per-column argmax are kept so any
    prefix's winning placement can be unwound without re-solving.

    A push shifts every live window left one column, merging windows that
    shift to the same form, then offers the column's occupied rows one at a
    time for the new last column (see the module docstring).  Windows live
    in the table as packed ints: ``omega.bit_length()`` bits per row, row 0
    most significant, so int order is the order of the position tuples.
    Each column's predecessors are keyed by the shifted window, which a
    window of that column maps back to by clearing its entries at ``omega``.
    The public methods return position tuples: per row index, 0 for an empty
    row, else the window column of its entry.

    The table holds Python ints: weights scaled by the least common multiple
    of the denominators pushed so far.  A column that brings a new
    denominator multiplies the live table up to the new scale, so streamed
    columns need no pass over the input first.  Only the per-column best is
    converted back, and only when it is read: at scale 1 it is the ``int``
    itself, else a ``Fraction``.  Comparisons of scaled ints order exactly as
    the rationals do.

    ``capacity`` caps the entries of one column (default: the row count,
    which never binds).  The evaluator refuses when ``count_windows`` of its
    row count, omega and capacity exceeds ``budget`` (``check_window_budget``),
    before anything as large as the row count is built.  ``windows`` (the
    positions of every feasible window) is built only when it is read, once
    per (row count, omega, masks, capacity) shape and process.

    Determinism: shifted windows merge toward the smallest source window on
    equal weights, and the per-column argmax is the smallest window of the
    best weight.
    """

    def __init__(
        self,
        nrows: int,
        omega: int,
        conflicts: Callable[[], tuple[int, ...]],
        budget: int | None = None,
        capacity: int | None = None,
    ) -> None:
        self.omega = int(omega)
        self._capacity = check_window_budget(nrows, self.omega, budget, capacity)
        self._conflicts = conflicts()
        bits = self._bits = self.omega.bit_length()
        # Bit offset of each row's field, and per field its lowest bit, its
        # highest bit and the bits below the highest.
        self._at = tuple(bits * (nrows - 1 - r) for r in range(nrows))
        self._low = sum(1 << at for at in self._at)
        self._high = self._low << (bits - 1)
        self._below = self._high - self._low
        self._scale = 1
        self._cur: dict[int, int] = {0: 0}
        self._preds: list[dict[int, int]] = []
        # Per column: (best scaled weight, its scale, argmax window).
        self._bests: list[tuple[int, int, int]] = []

    # -- packed windows -------------------------------------------------------

    def _unpack(self, key: int) -> tuple[int, ...]:
        field = (1 << self._bits) - 1
        return tuple((key >> at) & field for at in self._at)

    def _placed(self, key: int) -> int:
        """The lowest bit of every field of ``key`` that holds omega."""
        z = key ^ (self._low * self.omega)
        below = self._below
        nonzero = ((((z & below) + below) | z) & self._high) >> (self._bits - 1)
        return self._low ^ nonzero

    # -- column pushing -------------------------------------------------------

    @property
    def windows(self) -> tuple[tuple[int, ...], ...]:
        """Positions of every feasible window, ascending."""
        return _windows(len(self._at), self.omega, self._conflicts, self._capacity)

    @property
    def columns_pushed(self) -> int:
        return len(self._bests)

    def push_column(self, col: Mapping[int, Rational]) -> None:
        """Advance the table by one column (row index -> weight of its cells)."""
        scale = self._scale
        for w in col.values():
            den = w.denominator
            if scale % den:
                grown = scale // math.gcd(scale, den) * den
                factor = grown // scale
                self._cur = {key: v * factor for key, v in self._cur.items()}
                scale = self._scale = grown
        cur = self._cur
        below, high, top = self._below, self._high, self._bits - 1
        # Shift: drop the oldest column, i.e. subtract one from each nonzero
        # field (adding ``below`` carries into a field's highest bit exactly
        # when a lower bit is set; ``_placed`` uses the same test).  On equal
        # weights the smallest source wins, so sources are visited in
        # ascending order.
        shifted: dict[int, int] = {}
        pred: dict[int, int] = {}
        for key in sorted(cur):
            v = cur[key]
            s = key - (((((key & below) + below) | key) & high) >> top)
            prev = shifted.get(s)
            if prev is None or v > prev:
                shifted[s] = v
                pred[s] = key
        # Place: each occupied row may enter the new last column of every
        # entry where it is free, unblocked and within the capacity.  An
        # entry's placed rows tell its window apart, so nothing collides.
        entries = [(s, v, 0) for s, v in shifted.items()]
        cap, field = self._capacity, (1 << self._bits) - 1
        for r in sorted(col):
            at = self._at[r]
            here, put = field << at, self.omega << at
            bit, blocked = 1 << r, self._conflicts[r]
            gain = col[r].numerator * (scale // col[r].denominator)
            entries += [
                (key | put, v + gain, placed | bit)
                for key, v, placed in entries
                if not (key & here or placed & blocked) and placed.bit_count() < cap
            ]
        nxt = {key: v for key, v, _ in entries}
        self._cur = nxt
        self._preds.append(pred)
        best = max(nxt.values())
        best_key = min(key for key, v in nxt.items() if v == best)
        self._bests.append((best, scale, best_key))

    # -- retrieval -------------------------------------------------------------

    def best_at(self, layer: int | None = None) -> tuple[Rational, tuple[int, ...]]:
        """(best weight, argmax window positions) after ``layer`` columns."""
        if layer is None:
            layer = self.columns_pushed
        if layer == 0:
            return 0, self._unpack(0)
        best, scale, key = self._bests[layer - 1]
        return best if scale == 1 else Fraction(best, scale), self._unpack(key)

    @property
    def best_weight(self) -> Rational:
        return self.best_at()[0]

    def placements(self, layer: int | None = None) -> list[tuple[int, int]]:
        """(row index, 1-based column) placements of the winner through
        ``layer``, by column, then row.

        Unwinds the predecessor chain from the argmax window W_layer down
        to W_1, newest first; each visited window contributes the rows
        sitting in its last column, and its predecessor is the one recorded
        for its shifted form, the window with its entries at omega cleared.
        """
        if layer is None:
            layer = self.columns_pushed
        if layer == 0:
            return []
        key = self._bests[layer - 1][2]
        out: list[tuple[int, int]] = []
        for j in range(layer, 0, -1):
            placed = self._placed(key)
            for r, at in enumerate(self._at):
                if placed >> at & 1:
                    out.append((r, j))
            key = self._preds[j - 1][key - placed * self.omega]
        if key:
            raise RuntimeError("predecessor chain did not close on the empty window")
        out.reverse()
        return out


def solve_exact_narrow(
    inst: LosInstance,
    long_axis: int | None = None,
    budget: int | None = None,
) -> Solution:
    """Exact MIS of an instance via the narrow-array DP along ``long_axis``.

    Runs the window DP over all n columns, unwinds the predecessor chain of
    the final argmax, and re-sums the emitted vertices against the instance
    as an internal consistency check.
    """
    array = build_array(inst, long_axis)
    dp = NarrowDp(array.nrows, array.omega, array.conflicts, budget)
    for j in range(1, array.n + 1):
        dp.push_column(array.column(j))
    weight = dp.best_weight
    coords = sorted(array.coords_of(r, j) for r, j in dp.placements())
    # A vertex the instance does not hold counts 0 and fails the check.
    cells = inst.vertices
    resum = sum(cells.get(c, 0) for c in coords)
    if resum != weight:
        raise RuntimeError(
            f"DP placements re-sum to {resum}, table says {weight}"
        )
    meta = {
        "long_axis": array.long_axis,
        "rows": array.nrows,
        "n": array.n,
        "windows": len(dp.windows),
    }
    return Solution("exact-narrow", tuple(coords), weight, meta)
