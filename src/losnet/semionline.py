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

Columns come from a ``ColumnStream`` over an in-memory ``NarrowArray``,
which ``build_array`` builds from a ``LosInstance``; its reveal/consume
accounting records the look-ahead each phase uses.  Each phase runs one
``NarrowDp`` over the columns it reveals; the first one refuses a
cross-section whose windows exceed the budget.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from numbers import Rational

from .core import Coords, LosInstance, Record, Solution, check_digits, check_epsilon
from .errors import ValidationError
from .narrow import NarrowArray, NarrowDp, build_array

# (ln 2)^2 as the exact value of its float, so the round cap needs no float
# division (a float 1/epsilon overflows or divides by zero for a tiny epsilon).
_LOG2_SQ = Fraction(math.log(2) ** 2)


def max_lookahead(k: int, d: int, epsilon: Fraction, omega: int) -> int:
    """Worst-case column span a phase may hold before it must stop.

    The per-phase round count is capped by
    ceil((1 + 1/epsilon) * k^(d-1) / (ln 2)^2); each round spans omega
    columns and the discarded separator adds one more omega.  The constant
    is a documented contract each phase is checked against, not a tight bound.
    """
    epsilon = check_epsilon(epsilon)
    if k < 1 or d < 2 or omega < 2:
        raise ValidationError(
            f"need k >= 1, d >= 2, omega >= 2; got k={k}, d={d}, omega={omega}"
        )
    rounds = math.ceil((1 + 1 / epsilon) * k ** (d - 1) / _LOG2_SQ)
    return rounds * omega + omega


def _ln(p: int, q: int, prec: int) -> tuple[int, int]:
    """(lo, err) with lo <= 2^prec * ln(p/q) <= lo + err, for p >= q >= 1.

    With p/q = 2^e * m, m in [1, 2), ln(p/q) = 2 atanh(y) + 2e atanh(1/3),
    where y = (m-1)/(m+1) < 1/3 (ln 2 = 2 atanh(1/3)).  Each series
    2 atanh(num/den) = sum 2 y^(2k+1)/(2k+1) is summed in units of
    2^-prec, every term floored and stepped on y's exact numerator and
    denominator, up to its first term that floors to 0.  A floored term is
    off by less than 2.2 units and the dropped tail by less than 1.3, so a
    series of K terms is off by at most 3K + 2.
    """

    def atanh2(num: int, den: int) -> tuple[int, int]:
        t, num2, den2 = (num << (prec + 1)) // den, num * num, den * den
        total = k = 0
        while term := t // (2 * k + 1):
            total, k, t = total + term, k + 1, t * num2 // den2
        return total, 3 * k + 2

    e = p.bit_length() - q.bit_length()
    if p < q << e:
        e -= 1
    lo, err = atanh2(p - (q << e), p + (q << e))
    lo2, err2 = atanh2(1, 3)
    return lo + e * lo2, err + e * err2


def _growth_cap(epsilon: Fraction, ratio: Fraction) -> int:
    """Smallest c >= 0 with (1+epsilon)^c >= ratio, which is
    ceil(ln ratio / ln(1+epsilon)).

    A ratio that is an exact power of 1+epsilon is found with integers.  For
    any other ratio the quotient is not an integer, so c is its floor + 1,
    read once ``_ln``'s bounds on the quotient share a floor; the precision
    doubles until they do.  ln(1+epsilon) can be as small as epsilon, so it
    is bounded at twice the precision.
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
    prec = 64 + d.bit_length()
    while True:
        a, ea = _ln(ratio.numerator, ratio.denominator, prec)
        b, eb = _ln(n, d, 2 * prec)
        c = (a << prec) // (b + eb)
        if c == ((a + ea) << prec) // b:
            return c + 1
        prec *= 2


class ColumnStream:
    """Columns of a narrow array, revealed in increasing order.

    Columns are consumed in blocks; a consumed column is gone for good.
    ``lookahead()`` is the span currently held: revealed but not yet
    consumed.  ``array`` holds the shape and the cells, and its ``coords_of``
    maps a cell back to instance coordinates.
    """

    def __init__(self, array: NarrowArray) -> None:
        self.array = array
        self.cursor = 1
        self.max_revealed = 0

    @classmethod
    def from_instance(
        cls, inst: LosInstance, long_axis: int | None = None
    ) -> "ColumnStream":
        return cls(build_array(inst, long_axis))

    def reveal(self, j: int) -> dict[int, Rational]:
        """Occupied row-index -> weight map of column j (marks it revealed)."""
        if j < self.cursor:
            raise ValidationError(f"column {j} was already consumed")
        if not 1 <= j <= self.array.n:
            raise ValidationError(f"column {j} outside 1..{self.array.n}")
        if j > self.max_revealed:
            self.max_revealed = j
        return self.array.column(j)

    def consume_through(self, j: int) -> None:
        self.cursor = max(self.cursor, min(j, self.array.n) + 1)

    def lookahead(self) -> int:
        return max(0, self.max_revealed - self.cursor + 1)

    @property
    def exhausted(self) -> bool:
        return self.cursor > self.array.n

    def totals(self) -> tuple[Rational, Rational | None, bool]:
        """(total weight, min weight or None, all-unit?), always known upfront."""
        weights = self.array.weights()
        if not weights:
            return 0, None, True
        return sum(weights), min(weights), all(w == 1 for w in weights)


class PhaseState(Record):
    """Outcome of one phase: anchor column, stopping round, and kept set."""

    j0: int
    r: int
    current_weight: Rational
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
    # The growth test compares cross products, so integer weights stay int.
    grow = 1 + check_epsilon(epsilon)
    j0 = stream.cursor
    n, omega = stream.array.n, stream.array.omega
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
        if end > n:
            # Stream ends mid-round: keep the best set over every column the
            # phase could see; nothing follows, so no separator is needed.
            end, stopped = n, False
            push_through(end)
            keep = dp.columns_pushed
            break
        push_through(end)
        if dp.best_weight * grow.denominator < grow.numerator * w_prev:
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
    source: ColumnStream | LosInstance,
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
    else:
        stream = source

    row_extents, omega = stream.array.row_extents, stream.array.omega
    total, wmin, unit = stream.totals()
    if total == 0:
        limit = omega
    elif unit:
        limit = max_lookahead(max(row_extents), len(row_extents) + 1, eps, omega)
    else:
        assert wmin is not None
        limit = (_growth_cap(eps, Fraction(total, wmin)) + 1) * omega
    check_digits(limit, "epsilon too small: the look-ahead limit")

    coords: list[Coords] = []
    total_weight = 0
    phases = 0
    max_used = 0
    while True:
        ph = run_phase(stream, eps, budget=budget)
        if ph is None:
            break
        if ph.lookahead_used > limit:
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
