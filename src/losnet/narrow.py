"""Exact dynamic program for maximum-weight independent sets on narrow instances.

A narrow instance is flattened into column-major form: columns run along the
long axis, rows enumerate the (d-1)-dimensional cross-section.  The DP sweeps
columns left to right.  Its state is a *feasible window*: a 0/1 stencil of the
trailing ``omega`` columns that some independent placement can realize.  Two
windows chain when the tail of the first equals the head of the second, so
each step extends the best chain by one column and charges exactly the weight
picked up in the newly exposed column.

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
run it over mutually non-conflicting client rows with capacity ``l``.  The
independent-set DP's capacity is its row count, which never binds.

The number of windows is exponential in the row count, so ``NarrowDp``
refuses (``CapacityError``) rather than degrade when the windows of its
shape, counted by ``count_windows``, exceed its budget.  It builds a box's
rows only after that check, and ``NarrowArray`` builds none.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from numbers import Rational

from .core import (
    Coords,
    FrozenRecord,
    InstanceParams,
    LosInstance,
    Solution,
    are_adjacent,
    check_cell,
    resolve_long_axis,
)
from .errors import CapacityError, ValidationError

DEFAULT_WINDOW_BUDGET = 10_000_000

# Row position encoding inside a window: 0 = empty row, 1..omega = the
# window column holding the row's single entry.
NONE_POS = 0


@functools.lru_cache(maxsize=None)
def rows_for(row_extents: tuple[int, ...]) -> tuple[Coords, ...]:
    """All row vectors of a box cross-section, lexicographic order (cached)."""
    return tuple(itertools.product(*(range(1, e + 1) for e in row_extents)))


def normalize_rows(row_spec) -> tuple[Coords, ...]:
    """Row vectors from either per-axis extents or an explicit arrangement.

    A tuple of ints is a box of extents (rows are its full cross-product);
    a tuple of int-tuples is taken literally, sorted lexicographically.
    Arrangements let callers reason about sparse cross-sections, e.g. two
    rows that differ in two coordinates and therefore never interact.
    """
    spec = tuple(row_spec)
    if not spec:
        raise ValidationError("row specification must be non-empty")
    if all(isinstance(e, int) for e in spec):
        if any(e < 1 for e in spec):
            raise ValidationError(f"extents must be positive, got {spec}")
        return rows_for(spec)
    rows = tuple(tuple(int(c) for c in r) for r in spec)
    width = len(rows[0])
    if width < 1 or any(len(r) != width for r in rows):
        raise ValidationError(f"rows must share a positive dimension: {rows}")
    if any(c < 1 for r in rows for c in r):
        raise ValidationError(f"row coordinates must be >= 1: {rows}")
    ordered = tuple(sorted(rows))
    if len(set(ordered)) != len(ordered):
        raise ValidationError(f"duplicate rows in {rows}")
    return ordered


@functools.lru_cache(maxsize=None)
def _row_structure(
    rows: tuple[Coords, ...], omega: int
) -> tuple[int, ...]:
    """Per row, the bitmask of rows it conflicts with: rows that share a line
    of sight less than omega apart may never occupy the same window column."""
    masks = []
    for a, ra in enumerate(rows):
        m = 0
        for b, rb in enumerate(rows):
            if are_adjacent(ra, rb, omega):
                m |= 1 << b
        masks.append(m)
    return tuple(masks)


class FeasibleWindow(FrozenRecord):
    """Width-``omega`` 0/1 stencil admitting an independent witness.

    ``positions[r]`` is 0 when row r is empty, else the 1-based window column
    of its single entry (two entries in one row would sit less than omega
    apart inside the window, so one per row is structural).  Feasibility
    additionally requires that no two conflicting rows share a column.

    ``rows`` are lexicographically sorted, and windows order by their
    positions: the order of ``NarrowDp``'s packed windows.
    """

    rows: tuple[Coords, ...]
    omega: int
    positions: tuple[int, ...]

    def __init__(self, rows, omega: int, positions: Iterable[int]) -> None:
        rows = normalize_rows(rows)
        positions = tuple(positions)
        if omega < 2:
            raise ValidationError(f"omega must be >= 2, got {omega}")
        conflicts = _row_structure(rows, omega)
        if len(positions) != len(rows):
            raise ValidationError(
                f"expected {len(rows)} row positions, got {len(positions)}"
            )
        col_masks: dict[int, int] = {}
        for r, p in enumerate(positions):
            if not 0 <= p <= omega:
                raise ValidationError(f"position {p} out of range 0..{omega}")
            if p:
                if col_masks.get(p, 0) & conflicts[r]:
                    raise ValidationError(
                        f"no witness: conflicting rows share column {p}"
                    )
                col_masks[p] = col_masks.get(p, 0) | (1 << r)
        super().__init__(rows, omega, positions)

    @classmethod
    def zero(cls, row_spec, omega: int) -> "FeasibleWindow":
        rows = normalize_rows(row_spec)
        return cls(rows, omega, (NONE_POS,) * len(rows))

    def as_grid(self) -> tuple[tuple[int, ...], ...]:
        """Rows x omega 0/1 grid (handy for array-level comparisons)."""
        return tuple(
            tuple(1 if p == c else 0 for c in range(1, self.omega + 1))
            for p in self.positions
        )

    def __lt__(self, other: "FeasibleWindow") -> bool:
        return self.positions < other.positions


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
    nrows: int, omega: int, capacity: int, budget: int | None
) -> None:
    """Refuse when ``count_windows`` exceeds ``budget`` (default
    ``DEFAULT_WINDOW_BUDGET``)."""
    if budget is None:
        budget = DEFAULT_WINDOW_BUDGET
    if count_windows(nrows, omega, capacity, budget) > budget:
        raise CapacityError(
            f"window count exceeds budget {budget} "
            f"(rows={nrows}, omega={omega}, capacity={capacity})"
        )


def enumerate_windows(
    row_spec, omega: int, budget: int | None = None
) -> list[FeasibleWindow]:
    """All feasible windows for the given cross-section, ascending.

    ``row_spec`` is either per-axis extents or an explicit row arrangement
    (see ``normalize_rows``).  Refuses as ``NarrowDp`` does, when
    (omega+1)^rows exceeds ``budget``.
    """
    rows = normalize_rows(row_spec)
    check_window_budget(len(rows), omega, len(rows), budget)
    return [
        FeasibleWindow(rows, omega, pos) for pos in _windows(rows, omega, len(rows))
    ]


def _enumerate_windows(
    nrows: int, omega: int, conflicts: tuple[int, ...], capacity: int
) -> list[tuple[int, ...]]:
    """Positions of every window, ascending: no two conflicting rows and at
    most ``capacity`` rows in one column."""
    out: list[tuple[int, ...]] = []
    positions = [NONE_POS] * nrows
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
        positions[r] = NONE_POS

    rec(0)
    return out


@functools.lru_cache(maxsize=None)
def _windows(
    rows: tuple[Coords, ...], omega: int, capacity: int
) -> tuple[tuple[int, ...], ...]:
    """Every feasible window of one (rows, omega, capacity) shape, ascending."""
    return tuple(
        _enumerate_windows(len(rows), omega, _row_structure(rows, omega), capacity)
    )


def consistent(w1: FeasibleWindow, w2: FeasibleWindow) -> bool:
    """Tail of ``w1`` equals head of ``w2``: the legal DP chaining relation.

    Per row with positions (a, b): dropping w1's first column leaves an entry
    at a-1 when a >= 2 and nothing otherwise; dropping w2's last column
    leaves an entry at b when b <= omega-1 and nothing otherwise.  The two
    leftovers must be literally equal.
    """
    if w1.rows != w2.rows or w1.omega != w2.omega:
        raise ValidationError("window shape mismatch")
    om = w1.omega
    for a, b in zip(w1.positions, w2.positions):
        if a >= 2:
            if b != a - 1:
                return False
        elif 1 <= b <= om - 1:
            return False
    return True


class NarrowArray:
    """Weight table of a narrow instance.

    Columns 1..n run along the long axis; ``omega`` implicit all-zero columns
    -(omega-1)..0 precede them so the DP can start from the empty window.
    Only positive cells are stored, keyed by row index: the row's rank in
    ``rows`` (lexicographic, built when first read), computed arithmetically.
    ``cells`` maps (row, column) to a weight; each is checked by
    ``core.check_cell`` at its instance coordinates, as ``LosInstance``
    checks its own.
    """

    __slots__ = ("row_extents", "omega", "n", "long_axis", "_cols")

    def __init__(
        self,
        row_extents: Iterable[int],
        omega: int,
        n: int,
        cells: Mapping[tuple[Coords, int], Rational] | None = None,
        long_axis: int = 0,
    ) -> None:
        self.row_extents = tuple(int(e) for e in row_extents)
        if any(e < 1 for e in self.row_extents) or not self.row_extents:
            raise ValidationError(f"bad row extents {self.row_extents}")
        if omega < 2:
            raise ValidationError(f"omega must be >= 2, got {omega}")
        if n < 0:
            raise ValidationError(f"column count must be >= 0, got {n}")
        self.omega = int(omega)
        self.n = int(n)
        self.long_axis = int(long_axis)
        self._cols: dict[int, dict[int, Rational]] = {}
        if cells:  # n may be 0, which no ``InstanceParams`` admits
            extents = list(self.row_extents)
            extents.insert(self.long_axis, self.n)
            params = InstanceParams(len(extents), extents, self.omega)
            for (row, j), w in cells.items():
                coords, w = check_cell(params, self, self.coords_of(row, j), w)
                self.put(coords, w)

    @property
    def rows(self) -> tuple[Coords, ...]:
        """Every row vector, in index order."""
        return rows_for(self.row_extents)

    def _index(self, row) -> int | None:
        """Index of ``row``; None when it lies outside ``row_extents``."""
        if len(row) != len(self.row_extents):
            return None
        index = 0
        for c, e in zip(row, self.row_extents):
            if not 1 <= c <= e:
                return None
            index = index * e + c - 1
        return index

    def weight(self, row: Coords, j: int) -> Rational:
        """Cell weight; 0 for empty cells and for the padding columns j <= 0."""
        row = tuple(row)
        ridx = self._index(row)
        if ridx is None:
            raise ValidationError(f"row {row} outside extents {self.row_extents}")
        if not -(self.omega - 1) <= j <= self.n:
            raise ValidationError(
                f"column {j} outside {-(self.omega - 1)}..{self.n}"
            )
        if j <= 0:
            return Fraction(0)
        return self._cols.get(j, {}).get(ridx, Fraction(0))

    def column(self, j: int) -> dict[int, Rational]:
        """Occupied row-index -> weight map of column j ({} off the grid)."""
        if j <= 0:
            return {}
        return dict(self._cols.get(j, {}))

    def weights(self) -> list[Rational]:
        """Weights of the stored cells."""
        return [w for col in self._cols.values() for w in col.values()]

    def coords_of(self, row: Coords, j: int) -> Coords:
        """Instance coordinates of cell (row, j): j re-inserted at long_axis."""
        c = list(row)
        c.insert(self.long_axis, j)
        return tuple(c)

    def _cell(self, coords: Coords) -> tuple[int | None, int]:
        """(row index or None, column) of instance coordinates ``coords``."""
        row = list(coords)
        j = row.pop(self.long_axis)
        return self._index(row), j

    def __contains__(self, coords: Coords) -> bool:
        """Whether a cell is stored at instance coordinates ``coords``."""
        ridx, j = self._cell(coords)
        return ridx is not None and ridx in self._cols.get(j, ())

    def put(self, coords: Coords, w: Rational) -> None:
        """Store weight ``w`` at instance coordinates ``coords``, unchecked:
        ``core.check_cell`` refuses what does not belong in the box."""
        ridx, j = self._cell(coords)
        self._cols.setdefault(j, {})[ridx] = w

    def drop_through(self, j: int) -> None:
        """Forget the cells of columns 1..j."""
        for c in [c for c in self._cols if c <= j]:
            del self._cols[c]


def build_array(inst: LosInstance, long_axis: int | None = None) -> NarrowArray:
    """Flatten ``inst`` into column-major form along ``long_axis``.

    Any instance embeds; the induced row count is the product of the other
    extents, and the window budget of the ``NarrowDp`` that solves the array
    is what limits solvability; the array itself builds no row.
    """
    p = inst.params
    long_axis = resolve_long_axis(p, long_axis)
    row_axes = [a for a in range(p.d) if a != long_axis]
    array = NarrowArray(
        [p.extents[a] for a in row_axes],
        p.omega,
        p.extents[long_axis],
        long_axis=long_axis,
    )
    # ``inst`` validated its cells (positive weights inside the box, one per
    # coordinate), so they go into the columns unchecked, at the
    # index ``NarrowArray._index`` computes.
    extents = array.row_extents
    strides = [(a, math.prod(extents[i + 1 :])) for i, a in enumerate(row_axes)]
    cols = array._cols
    for coords, w in inst.vertices.items():
        j = coords[long_axis]
        col = cols.get(j)
        if col is None:
            col = cols[j] = {}
        col[sum([(coords[a] - 1) * s for a, s in strides])] = w
    return array


class NarrowDp:
    """Incremental column-at-a-time evaluator of the window DP.

    Push columns left to right; after each push the table holds, per feasible
    window, the best weight of an independent placement of the pushed prefix
    whose trailing stencil is that window.  Weights are kept only for the
    newest column (rolling; ``table()`` reads them); per-column predecessor
    keys and the per-column argmax are kept so any prefix's winning placement
    can be unwound without re-solving.

    A push shifts every live window left one column, merging windows that
    shift to the same form, then offers the column's occupied rows one at a
    time for the new last column (see the module docstring).  Windows live
    in the table as packed ints: ``omega.bit_length()`` bits per row, row 0
    most significant, so int order is the order of the position tuples.
    Each column's predecessors are keyed by the shifted window, which a
    window of that column maps back to by clearing its entries at ``omega``.
    The public methods take and return position tuples.

    The table holds Python ints: weights scaled by the least common multiple
    of the denominators pushed so far.  A column that brings a new
    denominator multiplies the live table up to the new scale, so streamed
    columns need no pass over the input first.  Only the per-column best is
    converted back, and only when it is read: at scale 1 it is the ``int``
    itself, else a ``Fraction``.  Comparisons of scaled ints order exactly as
    the rationals do.

    ``capacity`` caps the entries of one column (default: the row count,
    which never binds).  The evaluator refuses when ``count_windows`` of its
    rows, omega and capacity exceeds ``budget``; a box's rows are counted
    from its extents and built only after that check.  ``windows`` (the
    positions of every feasible window) is built only when it is read, once
    per (rows, omega, capacity) shape and process.

    Determinism: shifted windows merge toward the smallest source window on
    equal weights, and the per-column argmax is the smallest window of the
    best weight.
    """

    def __init__(
        self,
        row_spec,
        omega: int,
        budget: int | None = None,
        capacity: int | None = None,
    ) -> None:
        spec = tuple(row_spec)
        # A well-formed box is counted from its extents and built after the
        # check; anything else goes through ``normalize_rows``, which
        # refuses a malformed spec.
        box = spec and all(isinstance(e, int) and e >= 1 for e in spec)
        rows = None if box else normalize_rows(spec)
        nrows = math.prod(spec) if box else len(rows)
        self.omega = int(omega)
        self._capacity = nrows if capacity is None else min(capacity, nrows)
        check_window_budget(nrows, self.omega, self._capacity, budget)
        self.rows = rows or rows_for(spec)
        self._conflicts = _row_structure(self.rows, self.omega)
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

    def _pack(self, positions: tuple[int, ...]) -> int:
        return sum(p << at for p, at in zip(positions, self._at))

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
        return _windows(self.rows, self.omega, self._capacity)

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

    def pred_at(self, layer: int, positions: tuple[int, ...]) -> tuple[int, ...]:
        """Predecessor of a window at ``layer``: the one recorded for its
        shifted form, which is the window with its entries at omega cleared."""
        key = self._pack(positions)
        shifted = key - self._placed(key) * self.omega
        return self._unpack(self._preds[layer - 1][shifted])

    def table(self) -> dict[tuple[int, ...], Fraction]:
        """The newest layer: positions of each live window -> its best weight."""
        scale = self._scale
        return {self._unpack(key): Fraction(v, scale) for key, v in self._cur.items()}

    def _chain(self, layer: int) -> list[tuple[int, int]]:
        """(packed window, ``_placed`` of it) of the winning windows W_layer,
        ..., W_1, newest first; see ``pred_at``."""
        key = self._bests[layer - 1][2]
        chain = []
        for j in range(layer, 0, -1):
            placed = self._placed(key)
            chain.append((key, placed))
            key = self._preds[j - 1][key - placed * self.omega]
        if key:
            raise RuntimeError("predecessor chain did not close on the empty window")
        return chain

    def placements(self, layer: int | None = None) -> list[tuple[Coords, int]]:
        """(row vector, 1-based column) placements of the winner through ``layer``.

        Unwinds the predecessor chain from the argmax window; each visited
        window contributes the rows sitting in its last column.
        """
        if layer is None:
            layer = self.columns_pushed
        if layer == 0:
            return []
        out: list[tuple[Coords, int]] = []
        for j, (_, placed) in zip(range(layer, 0, -1), self._chain(layer)):
            for r, at in enumerate(self._at):
                if placed >> at & 1:
                    out.append((self.rows[r], j))
        out.reverse()
        return out

    def window_chain(self, layer: int | None = None) -> list[FeasibleWindow]:
        """The winning window sequence W_1..W_layer (consistency-checkable)."""
        if layer is None:
            layer = self.columns_pushed
        if layer == 0:
            return []
        return [
            FeasibleWindow(self.rows, self.omega, self._unpack(key))
            for key, _ in reversed(self._chain(layer))
        ]


def successors(
    w: FeasibleWindow, array: NarrowArray, j: int
) -> list[FeasibleWindow]:
    """All feasible windows chainable after ``w`` and supported at column j,
    ascending.

    Support means every entry of the successor sits on an occupied cell of
    the array columns j-omega+1..j (entries are placements, so they may only
    land where vertices exist).  These are the DP's own transitions: one
    ``push_column`` from ``w`` alone, or none when an entry ``w`` carries
    over sits on an empty cell.
    """
    rows = array.rows
    if w.rows != rows or w.omega != array.omega:
        raise ValidationError("window/array shape mismatch")
    if not 1 <= j <= array.n:
        raise ValidationError(f"column {j} outside 1..{array.n}")
    omega = array.omega
    for r, p in enumerate(w.positions):
        if p >= 2 and array.weight(rows[r], j - omega + p - 1) == 0:
            return []
    dp = NarrowDp(array.row_extents, omega)
    dp._cur = {dp._pack(w.positions): 0}
    dp.push_column(array.column(j))
    return [FeasibleWindow(rows, omega, dp._unpack(key)) for key in sorted(dp._cur)]


def solve_mis_narrow(array: NarrowArray, budget: int | None = None) -> Solution:
    """Maximum-weight independent set of a narrow array, exactly.

    Runs the window DP over all n columns, unwinds the predecessor chain of
    the final argmax, and re-sums the emitted placements against the array as
    an internal consistency check.
    """
    dp = NarrowDp(array.row_extents, array.omega, budget)
    for j in range(1, array.n + 1):
        dp.push_column(array.column(j))
    placements = dp.placements()
    weight = dp.best_weight
    # Placements name rows of the array and columns 1..n, so the cells are
    # read directly by row index, without ``weight``'s column checks; an
    # empty cell counts 0 and fails the check.
    index, cols = array._index, array._cols
    resum = sum(cols.get(j, {}).get(index(row), 0) for row, j in placements)
    if resum != weight:
        raise RuntimeError(
            f"DP placements re-sum to {resum}, table says {weight}"
        )
    coords = sorted(array.coords_of(row, j) for row, j in placements)
    meta = {
        "long_axis": array.long_axis,
        "rows": len(dp.rows),
        "n": array.n,
        "windows": len(dp.windows),
    }
    return Solution("exact-narrow", tuple(coords), weight, meta)


def solve_exact_narrow(
    inst: LosInstance,
    long_axis: int | None = None,
    budget: int | None = None,
) -> Solution:
    """Exact MIS of an instance via the narrow-array DP along ``long_axis``."""
    return solve_mis_narrow(build_array(inst, long_axis), budget)
