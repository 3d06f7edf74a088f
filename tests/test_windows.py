"""The feasible windows of ``NarrowDp`` and the windows its pushes reach,
against the exhaustive filter ``brute_windows`` and the literal chaining
oracle ``tail_equals_head``.  A window is its position tuple: per row, 0
when empty, else the 1-based window column of its entry."""

import math
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from losnet import (
    CapacityError,
    GenConfig,
    InstanceParams,
    NarrowDp,
    ValidationError,
    are_adjacent,
    brute_windows,
    build_array,
    generate,
)
from losnet.narrow import normalize_rows
from conftest import as_grid, cells_inst, oracle_windows, tail_equals_head


class TestEnumerate:
    def test_single_row_count(self):
        # One row: empty or one of omega columns.
        assert len(NarrowDp((1,), 3).windows) == 4

    def test_two_conflicting_rows_omega2(self):
        # Derived by the brute filter: 7 windows.
        oracle = brute_windows((2,), 2)
        assert len(oracle) == 7
        assert set(NarrowDp((2,), 2).windows) == oracle

    def test_two_conflicting_rows_omega3(self):
        # Rows 1,2 share a line of sight with gap 1 < 3: never one column.
        oracle = brute_windows((2,), 3)
        assert len(oracle) == 13
        assert set(NarrowDp((2,), 3).windows) == oracle

    def test_non_los_pair_unconstrained(self):
        # Two rows differing in two coordinates never interact.
        arr = ((1, 1), (2, 2))
        for omega in (2, 3, 4):
            ws = NarrowDp(arr, omega).windows
            assert len(ws) == (omega + 1) ** 2
            assert set(ws) == brute_windows(arr, omega)

    def test_ascending_key_order(self):
        ws = NarrowDp((2,), 3).windows
        assert list(ws) == sorted(ws)

    def test_matches_oracle_on_boxes(self):
        for spec in [(1,), (2,), (3,), (1, 2), (2, 2)]:
            for omega in (2, 3):
                assert set(NarrowDp(spec, omega).windows) == brute_windows(
                    spec, omega
                ), (spec, omega)

    def test_budget_refusal(self):
        with pytest.raises(CapacityError, match="budget"):
            NarrowDp((3, 3), 4, budget=100)

    def test_row_spec_validation(self):
        with pytest.raises(ValidationError):
            NarrowDp((), 3)
        with pytest.raises(ValidationError):
            NarrowDp(((1, 1), (1, 1)), 3)
        with pytest.raises(ValidationError):
            NarrowDp(((1, 1), (1,)), 3)


WINDOW_SHAPES = [
    pytest.param(spec, omega, id=f"{spec}-omega={omega}")
    for specs, omegas in [
        ([(1,), (3,), (2, 2), (2, 3), ((1, 1), (2, 2)), ((1, 1), (1, 3), (2, 1))], range(2, 6)),
        ([(1,), ((2, 5),)], (255, 256, 300)),
    ]
    for spec in specs
    for omega in omegas
]


@pytest.mark.parametrize("spec, omega", WINDOW_SHAPES)
def test_windows_order_by_positions(spec, omega):
    # The windows ascend by their positions, and so do their packed ints,
    # at every omega the DP solves: ``omega.bit_length()`` bits per row
    # grows from 8 to 9 at omega=256.  Each is a feasible window: positions
    # in 0..omega, and no two conflicting rows in one column.
    dp = NarrowDp(spec, omega)
    ws = dp.windows
    assert list(ws) == sorted(set(ws)) == sorted(ws, key=dp._pack)
    rows = normalize_rows(spec)
    for w in ws:
        assert all(0 <= p <= omega for p in w)
        for a, b in product(range(len(rows)), repeat=2):
            if a < b and w[a] and w[a] == w[b]:
                assert not are_adjacent(rows[a], rows[b], omega), w
    if len(rows) == 1:
        assert len(ws) == omega + 1


class TestFeasibleWindow:
    def test_rejects_conflicting_rows_in_one_column(self):
        # Rows 1 and 2 conflict at omega=3, so no window puts both in column 2.
        assert (2, 2) not in NarrowDp((2,), 3).windows
        assert (2, 2) not in brute_windows((2,), 3)

    def test_key_equality_iff_same_window(self):
        ws = NarrowDp((2,), 3).windows
        assert len(set(ws)) == len(ws)

    def test_as_grid(self):
        assert as_grid((2, 0), 3) == ((0, 1, 0), (0, 0, 0))


class TestConsistent:
    """Windows chain when the tail of the first equals the head of the
    second: the oracle on hand cases, and the DP's predecessors against it."""

    def test_zero_with_zero(self):
        assert tail_equals_head((0, 0), (0, 0), 3)

    def test_entry_shifts_left(self):
        assert tail_equals_head((2,), (1,), 3)

    def test_falling_off_needs_empty_head(self):
        assert tail_equals_head((1,), (3,), 3)
        assert tail_equals_head((1,), (0,), 3)
        assert not tail_equals_head((1,), (1,), 3)
        assert not tail_equals_head((1,), (2,), 3)

    def test_matches_array_equality_oracle_exhaustively(self):
        # Full columns make every feasible window live from column omega on;
        # each one's recorded predecessor is live one column earlier and
        # chains to it.
        for spec in [(1,), (2,), ((1, 1), (2, 2))]:
            for omega in (2, 3):
                dp = NarrowDp(spec, omega)
                full = {r: 1 for r in range(len(dp.rows))}
                previous = {(0,) * len(dp.rows)}
                for layer in range(1, omega + 3):
                    dp.push_column(full)
                    live = set(dp.table())
                    if layer >= omega:
                        assert live == set(dp.windows), (spec, omega, layer)
                    for w in live:
                        pred = dp.pred_at(layer, w)
                        assert pred in previous, (spec, omega, pred, w)
                        assert tail_equals_head(pred, w, omega), (spec, omega, pred, w)
                    previous = live


def reached(previous, array, j):
    """Oracle of one push: the windows of ``brute_windows`` whose head
    equals the tail of a window in ``previous`` (``tail_equals_head`` as a
    set lookup) and whose every entry sits on an occupied cell of columns
    j-omega+1..j."""
    omega = array.omega
    tails = {tuple(row[1:] for row in as_grid(w, omega)) for w in previous}
    return {
        w
        for w in oracle_windows(array.rows, omega)
        if tuple(row[:-1] for row in as_grid(w, omega)) in tails
        and all(r in array.column(j - omega + p) for r, p in enumerate(w) if p)
    }


def full_array(row_extents, omega, n):
    cells = {
        (row, j): Fraction(1)
        for row in product(*(range(1, e + 1) for e in row_extents))
        for j in range(1, n + 1)
    }
    return build_array(cells_inst(row_extents, omega, n, cells), 0)


class TestSuccessors:
    """The windows a push reaches from the live ones: the oracle's
    supported windows that chain after one of them."""

    def push_one(self, array):
        dp = NarrowDp(array.rows, array.omega)
        dp.push_column(array.column(1))
        return set(dp.table())

    def test_zero_window_over_empty_range(self):
        array = build_array(cells_inst((2,), 2, 4, {}), 0)
        assert self.push_one(array) == {(0, 0)}

    def test_single_row_place_or_skip(self):
        array = build_array(cells_inst((1,), 2, 3, {((1,), 1): 1}), 0)
        assert self.push_one(array) == {(0,), (2,)}

    def test_conflicting_pair_full_occupancy(self):
        # Rows 1,2 conflict at omega=2: both cannot enter the new column.
        array = full_array((2,), 2, 4)
        succ = self.push_one(array)
        assert succ == reached({(0, 0)}, array, 1)
        assert succ == {(0, 0), (2, 0), (0, 2)}

    def test_non_los_pair_full_occupancy(self):
        # Rows differing in two coordinates may both enter the new column,
        # so the empty window has 4 successors: skip, either row, or both.
        rows = ((1, 1), (2, 2))
        array = build_array(cells_inst((2, 2), 2, 4, {(r, 1): 1 for r in rows}), 0)
        succ = self.push_one(array)
        assert succ == reached({(0,) * 4}, array, 1)
        assert sorted(w.count(2) for w in succ) == [0, 1, 1, 2]

    def test_matches_oracle_on_random_supports(self):
        # Every column of generated arrays, so carried-over entries land on
        # empty cells too (where no window survives).  The four- and
        # five-row shapes offer up to four occupied rows to one column; at
        # omega=2 rows 1, 3 and 5 enter one column together.
        most_placed = 0
        for extents, omega in (
            ((6, 2), 3), ((6, 3), 2), ((5, 2, 2), 3), ((6, 4), 3), ((4, 5), 2)
        ):
            for seed in range(2):
                cfg = GenConfig(
                    InstanceParams(len(extents), extents, omega),
                    Fraction(1, 2), "const:1", seed,
                )
                array = build_array(generate(cfg), 0)
                dp = NarrowDp(array.rows, omega)
                live = {(0,) * len(array.rows)}
                for j in range(1, array.n + 1):
                    dp.push_column(array.column(j))
                    expected = reached(live, array, j)
                    live = set(dp.table())
                    assert live == expected, (extents, omega, seed, j)
                    most_placed = max([most_placed] + [w.count(omega) for w in live])
        assert most_placed >= 3


# ``brute_windows`` filters all 2^(rows*omega) grids; 12 cells keep each
# shape's filter within a few milliseconds.
BRUTE_CELLS = 12


@st.composite
def window_shapes(draw):
    """An omega in 2..5 and rows: a d=2..4 box or an explicit arrangement,
    at most ``BRUTE_CELLS // omega`` of them."""
    omega = draw(st.integers(2, 5))
    most = BRUTE_CELLS // omega
    if draw(st.booleans()):
        d = draw(st.integers(2, 4))
        spec = []
        for _ in range(d - 1):
            spec.append(draw(st.integers(1, most // math.prod(spec))))
        return tuple(spec), omega
    width = draw(st.integers(1, 3))
    universe = list(product(range(1, 4), repeat=width))
    rows = draw(st.lists(
        st.sampled_from(universe), min_size=1, max_size=most, unique=True
    ))
    return tuple(rows), omega


@given(window_shapes())
@settings(max_examples=80, deadline=None)
def test_windows_match_brute_filter(shape):
    spec, omega = shape
    assert NarrowDp(spec, omega).windows == tuple(sorted(brute_windows(spec, omega)))
