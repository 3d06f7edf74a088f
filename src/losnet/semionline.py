"""Phase-structured semi-online solver with bounded look-ahead.

Columns of a narrow instance arrive left to right.  A phase anchors at the
first unconsumed column, solves it alone, then repeatedly extends the exact
DP by ``omega`` columns per round while each round grows the best weight by
a factor of at least 1+epsilon.  The first round that fails the growth test
ends the phase: the set from the last good round is kept, and the freshly
examined block of ``omega`` columns is discarded as a separator, making
consecutive phases non-adjacent by construction.

For unit weights the growth test and the per-round gain cap together bound
the rounds per phase, hence the look-ahead any phase needs; the union of the
kept sets is within a factor 1+epsilon of the offline optimum.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from fractions import Fraction
from os import PathLike

from .core import Coords, LosInstance, Record, Solution
from .errors import ValidationError
from .io import LOSN_HEADER, content_lines, parse_losn_params, parse_vertex_line
from .narrow import (
    NarrowArray,
    NarrowDp,
    build_array,
    check_instance_budget,
    check_window_budget,
    rows_for,
)

# (ln 2)^2 as the exact value of its float, so the round cap needs no float
# division (a float 1/epsilon overflows or divides by zero for a tiny epsilon).
_LOG2_SQ = Fraction(math.log(2) ** 2)


def max_lookahead(k: int, d: int, epsilon: Fraction, omega: int) -> int:
    """Worst-case column span a phase may hold before it must stop.

    The per-phase round count is capped by
    ceil((1 + 1/epsilon) * k^(d-1) / (ln 2)^2); each round spans omega
    columns and the discarded separator adds one more omega.  The constant
    is a documented contract used to size stream buffers, not a tight bound.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if k < 1 or d < 2 or omega < 2:
        raise ValidationError(
            f"need k >= 1, d >= 2, omega >= 2; got k={k}, d={d}, omega={omega}"
        )
    rounds = math.ceil((1 + 1 / epsilon) * k ** (d - 1) / _LOG2_SQ)
    return rounds * omega + omega


def _growth_cap(epsilon: Fraction, ratio: Fraction) -> int:
    """Smallest c >= 0 with (1+epsilon)^c >= ratio.

    A tiny epsilon makes c huge, so (1+epsilon)^c is never built whole: the
    powers (1+epsilon)^(2^i) are squared up until one reaches ``ratio``, then
    c-1 is assembled from its top bit down, keeping each bit while the
    product stays below ``ratio``.  Every comparison is exact, made on lower
    and upper bounds of ``prec`` bits; when the bounds straddle ``ratio`` the
    search reruns at twice the precision.  Bounds that fit in ``prec`` bits
    are the exact values, so the reruns end.
    """
    if ratio <= 1:
        return 0
    prec = 64 + (1 + epsilon).denominator.bit_length()
    while (c := _growth_cap_at(1 + epsilon, ratio, prec)) is None:
        prec *= 2
    return c


def _growth_cap_at(grow: Fraction, ratio: Fraction, prec: int) -> int | None:
    def mul(x, y):
        return _bound(x[0] * y[0], prec, False), _bound(x[1] * y[1], prec, True)

    def below(x) -> bool | None:  # None: the bounds straddle ratio
        return True if x[1] < ratio else False if x[0] >= ratio else None

    powers = [mul((grow, grow), (1, 1))]
    while b := below(powers[-1]):
        powers.append(mul(powers[-1], powers[-1]))
    if b is None:
        return None
    acc, below_count = (1, 1), 0
    for i in reversed(range(len(powers))):
        cand = mul(acc, powers[i])
        if (b := below(cand)) is None:
            return None
        if b:
            acc, below_count = cand, below_count + (1 << i)
    return below_count + 1


def _bound(x: Fraction, prec: int, up: bool) -> Fraction:
    """``x`` when it fits in ``prec`` bits, else ``x`` rounded to a
    ``prec``-bit binary mantissa, up or down."""
    n, d = x.numerator, x.denominator
    if max(n.bit_length(), d.bit_length()) <= prec:
        return x
    shift = prec - n.bit_length() + d.bit_length()
    num, den = (n << shift, d) if shift >= 0 else (n, d << -shift)
    m = -(-num // den) if up else num // den
    return Fraction(m, 1 << shift) if shift >= 0 else Fraction(m << -shift)


class _StreamBase:
    """Column metering shared by all stream sources.

    Columns are revealed in increasing order and consumed in blocks; a
    consumed column is gone for good.  ``lookahead()`` is the span currently
    held: revealed but not yet consumed.
    """

    row_extents: tuple[int, ...]
    omega: int
    n: int
    long_axis: int

    def __init__(self) -> None:
        self.cursor = 1
        self.max_revealed = 0

    def _column(self, j: int) -> dict[int, Fraction]:  # pragma: no cover
        raise NotImplementedError

    def reveal(self, j: int) -> dict[int, Fraction]:
        """Occupied row-index -> weight map of column j (marks it revealed)."""
        if j < self.cursor:
            raise ValidationError(f"column {j} was already consumed")
        if not 1 <= j <= self.n:
            raise ValidationError(f"column {j} outside 1..{self.n}")
        if j > self.max_revealed:
            self.max_revealed = j
        return self._column(j)

    def consume_through(self, j: int) -> None:
        self.cursor = max(self.cursor, min(j, self.n) + 1)

    def lookahead(self) -> int:
        return max(0, self.max_revealed - self.cursor + 1)

    @property
    def exhausted(self) -> bool:
        return self.cursor > self.n

    def coords_of(self, row: Coords, j: int) -> Coords:
        c = list(row)
        c.insert(self.long_axis, j)
        return tuple(c)

    def totals(self) -> tuple[Fraction, Fraction | None, bool] | None:
        """(total weight, min weight or None, all-unit?) when known upfront."""
        return None


class ColumnStream(_StreamBase):
    """In-memory stream over a narrow array."""

    def __init__(self, array: NarrowArray) -> None:
        super().__init__()
        self._array = array
        self.row_extents = array.row_extents
        self.omega = array.omega
        self.n = array.n
        self.long_axis = array.long_axis

    @classmethod
    def from_instance(
        cls, inst: LosInstance, long_axis: int | None = None
    ) -> "ColumnStream":
        return cls(build_array(inst, long_axis))

    def _column(self, j: int) -> dict[int, Fraction]:
        return self._array.column(j)

    def totals(self) -> tuple[Fraction, Fraction | None, bool]:
        weights = [
            w for jj in range(1, self.n + 1) for w in self._array.column(jj).values()
        ]
        if not weights:
            return Fraction(0), None, True
        total = sum(weights, Fraction(0))
        return total, min(weights), all(w == 1 for w in weights)


class FileColumnStream(_StreamBase):
    """Lazy stream over a .losn file, read in column order along axis 0.

    The format sorts vertices lexicographically, so a single forward pass
    yields columns in increasing order; only the look-ahead span is ever
    buffered.  Totals are unknown upfront (that is the point).  The
    cross-section's rows are built on the first read, after
    ``solve_semionline`` has checked their count against the window budget.
    """

    def __init__(self, path: str | PathLike[str]) -> None:
        super().__init__()
        self._lines = self._line_iter(path)
        first = next(self._lines, None)
        if first != LOSN_HEADER:
            raise ValidationError(f"expected first line {LOSN_HEADER!r}")
        header = next(self._lines, None)
        if header is None:
            raise ValidationError("missing losn parameter line")
        self._params = parse_losn_params(header)
        self.long_axis = 0
        self.omega = self._params.omega
        self.n = self._params.extents[0]
        self.row_extents = tuple(self._params.extents[1:])
        self._rows: dict[Coords, int] | None = None
        self._buffer: dict[int, dict[int, Fraction]] = {}
        self._pending: tuple[int, int, Fraction] | None = None
        self._last_col = 0
        self._drained = False

    @staticmethod
    def _line_iter(path: str | PathLike[str]) -> Iterator[str]:
        with open(path, encoding="utf-8") as fh:
            yield from content_lines(fh)

    def _pull_through(self, j: int) -> None:
        if self._pending is not None:
            col, ridx, w = self._pending
            if col > j:
                return
            self._buffer.setdefault(col, {})[ridx] = w
            self._pending = None
        if self._rows is None:
            self._rows = {row: i for i, row in enumerate(rows_for(self.row_extents))}
        while not self._drained:
            line = next(self._lines, None)
            if line is None:
                self._drained = True
                return
            coords, w = parse_vertex_line(line, self._params)
            col = coords[0]
            row = coords[1:]
            if row not in self._rows:
                raise ValidationError(f"vertex row {row} outside extents")
            if not 1 <= col <= self.n:
                raise ValidationError(f"vertex column {col} outside 1..{self.n}")
            if col < self._last_col:
                raise ValidationError("vertex lines not sorted by column")
            self._last_col = col
            ridx = self._rows[row]
            if col > j:
                self._pending = (col, ridx, w)
                return
            self._buffer.setdefault(col, {})[ridx] = w

    def _column(self, j: int) -> dict[int, Fraction]:
        self._pull_through(j)
        return dict(self._buffer.get(j, {}))

    def consume_through(self, j: int) -> None:
        super().consume_through(j)
        for col in [c for c in self._buffer if c < self.cursor]:
            del self._buffer[col]


class PhaseState(Record):
    """Outcome of one phase: anchor column, stopping round, and kept set."""

    _fields = (
        "j0",
        "r",
        "current_weight",
        "best_set",
        "stopped",
        "lookahead_used",
        "degenerate",
    )

    def __init__(
        self,
        j0: int,
        r: int,
        current_weight: Fraction,
        best_set: tuple[Coords, ...],
        stopped: bool,
        lookahead_used: int,
        degenerate: bool = False,
    ) -> None:
        self.j0 = j0
        self.r = r
        self.current_weight = current_weight
        self.best_set = best_set
        self.stopped = stopped
        self.lookahead_used = lookahead_used
        self.degenerate = degenerate


def run_phase(
    stream: _StreamBase,
    epsilon: Fraction,
    budget: int | None = None,
    debug_resolve: bool = False,
) -> PhaseState | None:
    """Run one phase from the stream's cursor; None when exhausted.

    An empty anchor column ends the phase immediately and advances a single
    column: the growth test cannot fire on weight zero, and skipping an
    empty column forfeits nothing.  With ``debug_resolve`` the kept set is
    re-derived by a from-scratch solve and must match the incremental table.
    """
    if stream.exhausted:
        return None
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValidationError(f"epsilon must be positive, got {eps}")
    j0 = stream.cursor
    omega = stream.omega
    dp = NarrowDp(stream.row_extents, omega, budget)
    seen: list[dict[int, Fraction]] = []

    def push(j: int) -> None:
        col = stream.reveal(j)
        seen.append(col)
        dp.push_column(col)

    push(j0)
    w_prev = dp.best_weight
    if w_prev == 0:
        la = stream.max_revealed - j0 + 1
        stream.consume_through(j0)
        return PhaseState(j0, 0, Fraction(0), (), True, la, degenerate=True)

    r = 0
    while True:
        target_end = j0 + (r + 1) * omega - 1
        if target_end > stream.n:
            # Stream ends mid-round: keep the best set over every column the
            # phase could see; nothing follows, so no separator is needed.
            for j in range(j0 + dp.columns_pushed, stream.n + 1):
                push(j)
            weight = dp.best_weight
            coords = tuple(
                stream.coords_of(row, j0 + lj - 1) for row, lj in dp.placements()
            )
            la = stream.max_revealed - j0 + 1
            stream.consume_through(stream.n)
            return PhaseState(j0, r, weight, coords, False, la)
        for j in range(j0 + dp.columns_pushed, target_end + 1):
            push(j)
        w_next = dp.best_weight
        if w_next < (1 + eps) * w_prev:
            keep_layer = r * omega if r >= 1 else 1
            weight, _ = dp.best_at(keep_layer)
            coords = tuple(
                stream.coords_of(row, j0 + lj - 1)
                for row, lj in dp.placements(keep_layer)
            )
            if debug_resolve:
                _check_against_fresh_solve(
                    stream, dp, seen, keep_layer, weight, budget
                )
            la = stream.max_revealed - j0 + 1
            stream.consume_through(target_end)
            return PhaseState(j0, r, weight, coords, True, la)
        w_prev = w_next
        r += 1


def _check_against_fresh_solve(
    stream: _StreamBase,
    dp: NarrowDp,
    seen: list[dict[int, Fraction]],
    keep_layer: int,
    weight: Fraction,
    budget: int | None,
) -> None:
    fresh = NarrowDp(stream.row_extents, stream.omega, budget)
    for col in seen[:keep_layer]:
        fresh.push_column(col)
    fresh_weight, _ = fresh.best_at(keep_layer)
    if fresh_weight != weight or fresh.placements(keep_layer) != dp.placements(
        keep_layer
    ):
        raise RuntimeError("incremental phase DP disagrees with fresh solve")


def solve_semionline(
    source: _StreamBase | NarrowArray | LosInstance,
    epsilon: Fraction,
    long_axis: int | None = None,
    budget: int | None = None,
    on_phase: Callable[[PhaseState], None] | None = None,
    debug_resolve: bool = False,
) -> Solution:
    """Union of all phase outputs over the stream.

    Phases never overlap and are separated by discarded omega-wide blocks,
    so the union stays independent.  For unit weights the total is within a
    factor 1+epsilon of the offline optimum, and the recorded per-phase
    look-ahead stays within the contract buffer, which is checked here.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValidationError(f"epsilon must be positive, got {eps}")
    if isinstance(source, LosInstance):
        check_instance_budget(source, long_axis, budget)
        stream: _StreamBase = ColumnStream.from_instance(source, long_axis)
    elif isinstance(source, NarrowArray):
        stream = ColumnStream(source)
    else:
        stream = source
        # Refuse from the row count alone, before the stream or a phase's
        # ``NarrowDp`` builds the rows.
        nrows = math.prod(stream.row_extents)
        check_window_budget(nrows, stream.omega, nrows, budget)

    totals = stream.totals()
    if totals is None:
        limit: int | None = None
    else:
        total, wmin, unit = totals
        if total == 0:
            limit = stream.omega
        elif unit:
            k = max(stream.row_extents) if stream.row_extents else 1
            limit = max_lookahead(k, len(stream.row_extents) + 1, eps, stream.omega)
        else:
            assert wmin is not None
            limit = (_growth_cap(eps, total / wmin) + 1) * stream.omega

    coords: list[Coords] = []
    total_weight = Fraction(0)
    phases = 0
    max_used = 0
    while True:
        ph = run_phase(stream, eps, budget=budget, debug_resolve=debug_resolve)
        if ph is None:
            break
        if limit is not None and ph.lookahead_used > limit:
            raise RuntimeError(
                f"phase look-ahead {ph.lookahead_used} exceeded buffer {limit}"
            )
        if on_phase is not None:
            on_phase(ph)
        coords.extend(ph.best_set)
        total_weight += ph.current_weight
        phases += 1
        max_used = max(max_used, ph.lookahead_used)
    meta = {
        "epsilon": str(eps),
        "phases": phases,
        "lookahead_limit": limit,
        "lookahead_max_used": max_used,
    }
    return Solution("semionline", tuple(sorted(coords)), total_weight, meta)
