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

Columns come from one stream class, ``ColumnStream``, over a ``NarrowArray``;
``FileColumnStream`` fills its array from a .losn file as columns are
revealed and empties it as they are consumed.  Each phase runs one
``NarrowDp`` over the columns it reveals; the first one refuses a
cross-section whose windows exceed the budget.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from os import PathLike

from .core import Coords, LosInstance, Record, Solution, check_cell, check_epsilon
from .errors import ValidationError
from .io import content_lines, parse_vertex_line, read_losn_header, read_lines
from .narrow import NarrowArray, NarrowDp, build_array

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
    epsilon = check_epsilon(epsilon)
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
    and upper bounds m * 2^e kept as integer pairs whose mantissas m have
    ``prec`` bits; when the bounds straddle ``ratio`` the search reruns at
    twice the precision.  The bounds close in on every power, so only a
    power equal to ``ratio`` could straddle it for good; that case is
    looked for first, with integers.
    """
    if ratio <= 1:
        return 0
    grow = 1 + epsilon
    n, d = grow.numerator, grow.denominator
    c, power = 0, 1
    while power < ratio.numerator:
        c, power = c + 1, power * n
    if power == ratio.numerator and d**c == ratio.denominator:
        return c
    # Each squaring doubles the bounds' relative error, and reaching ratio
    # takes about log2(1/epsilon) squarings; the powers must still be told
    # apart to within a factor 1+epsilon.
    prec = 64 + 2 * d.bit_length()
    while (c := _growth_cap_at(grow, ratio, prec)) is None:
        prec *= 2
    return c


def _growth_cap_at(grow: Fraction, ratio: Fraction, prec: int) -> int | None:
    p, q = ratio.numerator, ratio.denominator

    def mul(x, y):  # bounds (lo, hi, e) of [lo * 2^e, hi * 2^e]
        lo, hi, e = x[0] * y[0], x[1] * y[1], x[2] + y[2]
        s = max(hi.bit_length() - prec, 0)
        return lo >> s, -(-hi >> s), e + s

    def below(x) -> bool | None:  # None: the bounds straddle ratio
        lo, hi, e = x  # m * 2^e < p/q exactly when m * q * 2^e < p
        if e >= 0:
            lo, hi, r = lo * q << e, hi * q << e, p
        else:
            lo, hi, r = lo * q, hi * q, p << -e
        return True if hi < r else False if lo >= r else None

    s = prec + grow.denominator.bit_length()
    lo, rest = divmod(grow.numerator << s, grow.denominator)
    powers = [mul((lo, lo + (rest > 0), -s), (1, 1, 0))]
    while b := below(powers[-1]):
        powers.append(mul(powers[-1], powers[-1]))
    if b is None:
        return None
    acc, below_count = (1, 1, 0), 0
    for i in reversed(range(len(powers))):
        cand = mul(acc, powers[i])
        if (b := below(cand)) is None:
            return None
        if b:
            acc, below_count = cand, below_count + (1 << i)
    return below_count + 1


class ColumnStream:
    """Columns of a narrow array, revealed in increasing order.

    Columns are consumed in blocks; a consumed column is gone for good.
    ``lookahead()`` is the span currently held: revealed but not yet
    consumed.  ``array`` holds the shape and the cells, and its ``coords_of``
    maps a cell back to instance coordinates.
    """

    def __init__(self, array: NarrowArray) -> None:
        self.array = array
        self.n = array.n
        self.cursor = 1
        self.max_revealed = 0

    @classmethod
    def from_instance(
        cls, inst: LosInstance, long_axis: int | None = None
    ) -> "ColumnStream":
        return cls(build_array(inst, long_axis))

    def _column(self, j: int) -> dict[int, Fraction]:
        return self.array.column(j)

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

    def totals(self) -> tuple[Fraction, Fraction | None, bool] | None:
        """(total weight, min weight or None, all-unit?) when known upfront."""
        weights = self.array.weights()
        if not weights:
            return Fraction(0), None, True
        total = sum(weights, Fraction(0))
        return total, min(weights), all(w == 1 for w in weights)


class FileColumnStream(ColumnStream):
    """Lazy stream over a .losn file, read in column order along axis 0.

    The format sorts vertices lexicographically, so a single forward pass
    yields columns in increasing order; the array holds only the columns not
    yet consumed, up to the first cell past the newest revealed column.
    Totals are unknown upfront (that is the point).  The array builds no
    rows, so a phase's ``NarrowDp`` refuses a huge cross-section at no cost.

    The file is refused as ``load_instance`` refuses it, with the same
    messages, but at the faulty line; vertex lines out of column order are
    refused as well.
    """

    def __init__(self, path: str | PathLike[str]) -> None:
        self._lines = content_lines(read_lines(path))
        self._params = params = read_losn_header(self._lines)
        n, *row_extents = params.extents
        super().__init__(NarrowArray(row_extents, params.omega, n))
        self._last_col = 0

    def _column(self, j: int) -> dict[int, Fraction]:
        array, params = self.array, self._params
        while self._last_col <= j and (line := next(self._lines, None)) is not None:
            coords, w = parse_vertex_line(line, params)
            coords, w = check_cell(params, array, coords, w)
            if coords[0] < self._last_col:
                raise ValidationError("vertex lines not sorted by column")
            self._last_col = coords[0]
            array.put(coords, w)
        return array.column(j)

    def consume_through(self, j: int) -> None:
        super().consume_through(j)
        self.array.drop_through(self.cursor - 1)

    def totals(self) -> None:
        return None


class PhaseState(Record):
    """Outcome of one phase: anchor column, stopping round, and kept set."""

    j0: int
    r: int
    current_weight: Fraction
    best_set: tuple[Coords, ...]
    stopped: bool
    lookahead_used: int
    degenerate: bool = False


def run_phase(
    stream: ColumnStream,
    epsilon: Fraction,
    budget: int | None = None,
) -> PhaseState | None:
    """Run one phase from the stream's cursor; None when exhausted.

    An empty anchor column ends the phase immediately and advances a single
    column: the growth test cannot fire on weight zero, and skipping an
    empty column forfeits nothing.
    """
    if stream.exhausted:
        return None
    eps = check_epsilon(epsilon)
    j0 = stream.cursor
    omega = stream.array.omega
    dp = NarrowDp(stream.array.row_extents, omega, budget)

    def push_through(end: int) -> None:
        for j in range(j0 + dp.columns_pushed, end + 1):
            dp.push_column(stream.reveal(j))

    push_through(j0)
    w_prev = dp.best_weight
    degenerate = w_prev == 0
    # The phase keeps the set of its first ``keep`` columns and consumes
    # through column ``end``.
    r, keep, end, stopped = 0, 1, j0, True
    while not degenerate:
        end = j0 + (r + 1) * omega - 1
        if end > stream.n:
            # Stream ends mid-round: keep the best set over every column the
            # phase could see; nothing follows, so no separator is needed.
            end, stopped = stream.n, False
            push_through(end)
            keep = dp.columns_pushed
            break
        push_through(end)
        if dp.best_weight < (1 + eps) * w_prev:
            keep = max(r * omega, 1)
            break
        w_prev = dp.best_weight
        r += 1
    weight, _ = dp.best_at(keep)
    coords = tuple(
        stream.array.coords_of(row, j0 + lj - 1) for row, lj in dp.placements(keep)
    )
    lookahead_used = stream.max_revealed - j0 + 1
    stream.consume_through(end)
    return PhaseState(j0, r, weight, coords, stopped, lookahead_used, degenerate)


def solve_semionline(
    source: ColumnStream | NarrowArray | LosInstance,
    epsilon: Fraction,
    long_axis: int | None = None,
    budget: int | None = None,
    on_phase: Callable[[PhaseState], None] | None = None,
) -> Solution:
    """Union of all phase outputs over the stream.

    Phases never overlap and are separated by discarded omega-wide blocks,
    so the union stays independent.  For unit weights the total is within a
    factor 1+epsilon of the offline optimum, and the recorded per-phase
    look-ahead stays within the contract buffer, which is checked here.
    A cross-section whose windows exceed ``budget`` is refused by the first
    phase's ``NarrowDp``, before any row is built.
    """
    eps = check_epsilon(epsilon)
    if isinstance(source, LosInstance):
        stream = ColumnStream.from_instance(source, long_axis)
    elif isinstance(source, NarrowArray):
        stream = ColumnStream(source)
    else:
        stream = source

    row_extents, omega = stream.array.row_extents, stream.array.omega
    totals = stream.totals()
    if totals is None:
        limit: int | None = None
    else:
        total, wmin, unit = totals
        if total == 0:
            limit = omega
        elif unit:
            limit = max_lookahead(max(row_extents), len(row_extents) + 1, eps, omega)
        else:
            assert wmin is not None
            limit = (_growth_cap(eps, total / wmin) + 1) * omega

    coords: list[Coords] = []
    total_weight = Fraction(0)
    phases = 0
    max_used = 0
    while True:
        ph = run_phase(stream, eps, budget=budget)
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
