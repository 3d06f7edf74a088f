"""The shift-then-place column step of ``NarrowDp`` against a reference.

The reference is the column DP as it ran before the step was split: per
source window and column occupancy it lists every successor at once (every
conflict-free set of the freed occupied rows within the capacity) and keeps,
per successor window, the best source.  Both must agree on every layer's
best, weight table, predecessors and unwound placements.
"""

import math
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
from hypothesis import example, given, settings

from losnet import normalize_rows
from dp_reference import dp_of, pairwise_conflicts, pred_at, table


class ReferenceDp:
    """Column DP over whole transitions, with positions-tuple keys."""

    def __init__(self, row_spec, omega, capacity=None):
        rows = normalize_rows(row_spec)
        self.omega = omega
        nrows = len(rows)
        self.capacity = nrows if capacity is None else min(capacity, nrows)
        self.conflicts = pairwise_conflicts(rows, omega)
        self.zero = (0,) * nrows
        self.scale = 1
        self.cur = {self.zero: 0}
        self.preds = []
        self.bests = []
        self.weights = []

    def indep_submasks(self, avail, cap):
        """Conflict-free submasks of ``avail`` with at most ``cap`` rows."""
        cap = min(cap, avail.bit_count())
        if cap == 0:
            return (0,)
        low = avail & -avail
        r = low.bit_length() - 1
        rest = avail & (avail - 1)
        without = self.indep_submasks(rest, cap)
        with_r = tuple(
            low | s for s in self.indep_submasks(rest & ~self.conflicts[r], cap - 1)
        )
        return without + with_r

    def successors(self, wpos, occ_mask):
        shifted = tuple(p - 1 if p >= 2 else 0 for p in wpos)
        elig = occ_mask
        for r, p in enumerate(shifted):
            if p:
                elig &= ~(1 << r)
        out = []
        for smask in self.indep_submasks(elig, self.capacity):
            spos = list(shifted)
            for r in range(len(spos)):
                if smask >> r & 1:
                    spos[r] = self.omega
            out.append((tuple(spos), smask))
        return out

    def push_column(self, col):
        occ_mask = 0
        for ridx, w in col.items():
            occ_mask |= 1 << ridx
            den = w.denominator
            if self.scale % den:
                grown = self.scale // math.gcd(self.scale, den) * den
                factor = grown // self.scale
                self.cur = {pos: v * factor for pos, v in self.cur.items()}
                self.scale = grown
        icol = {
            ridx: w.numerator * (self.scale // w.denominator) for ridx, w in col.items()
        }
        nxt, pred = {}, {}
        for wpos in sorted(self.cur):
            base = self.cur[wpos]
            for spos, smask in self.successors(wpos, occ_mask):
                cand = base + sum(icol[r] for r in icol if smask >> r & 1)
                prev = nxt.get(spos)
                if prev is None or cand > prev:
                    nxt[spos] = cand
                    pred[spos] = wpos
        self.cur = nxt
        self.preds.append(pred)
        best = max(nxt.values())
        best_pos = min(pos for pos, v in nxt.items() if v == best)
        self.bests.append((Fraction(best, self.scale), best_pos))
        self.weights.append({pos: Fraction(v, self.scale) for pos, v in nxt.items()})

    def placements(self, layer):
        _, pos = self.bests[layer - 1]
        out = []
        for j in range(layer, 0, -1):
            for r, p in reversed(list(enumerate(pos))):
                if p == self.omega:
                    out.append((r, j))
            pos = self.preds[j - 1][pos]
        assert pos == self.zero
        out.reverse()
        return out


def assert_same_tables(row_spec, omega, capacity, columns):
    dp = dp_of(row_spec, omega, capacity=capacity)
    ref = ReferenceDp(row_spec, omega, capacity)
    for layer, col in enumerate(columns, 1):
        dp.push_column(col)
        ref.push_column(col)
        assert dp.best_at(layer) == ref.bests[layer - 1], layer
        assert table(dp) == ref.weights[layer - 1], layer
        for pos in ref.weights[layer - 1]:
            assert pred_at(dp, layer, pos) == ref.preds[layer - 1][pos], (layer, pos)
        assert dp.placements(layer) == ref.placements(layer), layer


@st.composite
def dp_cases(draw):
    """Rows (a d=2..4 box or an explicit arrangement), omega, a capacity and
    a few columns of ``Fraction(a, b)`` weights with b <= 4."""
    if draw(st.booleans()):
        d = draw(st.integers(2, 4))
        row_spec = tuple(draw(st.integers(1, (5, 3, 2)[d - 2])) for _ in range(d - 1))
        nrows = math.prod(row_spec)
    else:
        width = draw(st.integers(1, 3))
        box = list(product(range(1, 4), repeat=width))
        row_spec = tuple(draw(st.lists(
            st.sampled_from(box), min_size=1, max_size=6, unique=True
        )))
        nrows = len(row_spec)
    omega = draw(st.integers(2, 4))
    capacity = draw(st.integers(1, nrows))
    weight = st.builds(Fraction, st.integers(1, 5), st.integers(1, 4))
    columns = draw(st.lists(
        st.dictionaries(st.integers(0, nrows - 1), weight), min_size=1, max_size=8
    ))
    return row_spec, omega, capacity, columns


DIAGONAL = ((1, 1), (2, 2), (3, 3))
L_SHAPE = ((1, 1), (2, 1), (3, 1), (3, 2), (3, 3))
SEVEN_ROWS = (
    (7,), 3, 7,
    [
        {r: Fraction(r % 3 + 1, j % 4 + 1) for r in range(7) if (r + j) % 3}
        for j in range(8)
    ],
)


@given(dp_cases())
@example((DIAGONAL, 2, 2, [{0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(3, 4)}] * 4))
@example((L_SHAPE, 3, 5, [{r: Fraction(r + 1, 3) for r in range(5)}] * 5))
@example(SEVEN_ROWS)
@settings(max_examples=150, deadline=None)
def test_column_step_matches_reference(case):
    assert_same_tables(*case)


# Rows 0 and 2 of one 3-row column, both placed: the array of
# ``LosInstance(InstanceParams(2, (1, 3), 2), {(1, 1): 1, (1, 3): 1})`` along
# axis 0, whose placements are [(0, 1), (2, 1)].
TWO_IN_ONE_COLUMN = ((3,), 2, 3, [{0: Fraction(1), 2: Fraction(1)}])


@given(dp_cases())
@example(TWO_IN_ONE_COLUMN)
@settings(max_examples=100, deadline=None)
def test_placements_sorted_by_column_then_row(case):
    row_spec, omega, capacity, columns = case
    dp = dp_of(row_spec, omega, capacity=capacity)
    for col in columns:
        dp.push_column(col)
    for layer in range(len(columns) + 1):
        out = dp.placements(layer)  # (row, column) pairs
        assert out == sorted(out, key=lambda rj: (rj[1], rj[0])), layer

