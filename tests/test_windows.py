from fractions import Fraction

import pytest

from losnet import (
    CapacityError,
    FeasibleWindow,
    NarrowArray,
    ValidationError,
    brute_windows,
    consistent,
    enumerate_windows,
    successors,
)
from losnet.narrow import normalize_rows


def keys_sorted(windows):
    return [w.key for w in windows]


class TestEnumerate:
    def test_single_row_count(self):
        # One row: empty or one of omega columns.
        ws = enumerate_windows((1,), 3)
        assert len(ws) == 4

    def test_two_conflicting_rows_omega2(self):
        # Derived by the brute filter: 7 windows.
        oracle = brute_windows((2,), 2)
        assert len(oracle) == 7
        assert set(enumerate_windows((2,), 2)) == oracle

    def test_two_conflicting_rows_omega3(self):
        # Rows 1,2 share a line of sight with gap 1 < 3: never one column.
        oracle = brute_windows((2,), 3)
        assert len(oracle) == 13
        assert set(enumerate_windows((2,), 3)) == oracle

    def test_non_los_pair_unconstrained(self):
        # Two rows differing in two coordinates never interact.
        arr = ((1, 1), (2, 2))
        for omega in (2, 3, 4):
            ws = enumerate_windows(arr, omega)
            assert len(ws) == (omega + 1) ** 2
            assert set(ws) == brute_windows(arr, omega)

    def test_ascending_key_order(self):
        ws = enumerate_windows((2,), 3)
        assert keys_sorted(ws) == sorted(keys_sorted(ws))

    def test_matches_oracle_on_boxes(self):
        for spec in [(1,), (2,), (3,), (1, 2), (2, 2)]:
            for omega in (2, 3):
                assert set(enumerate_windows(spec, omega)) == brute_windows(
                    spec, omega
                ), (spec, omega)

    def test_budget_refusal(self):
        with pytest.raises(CapacityError, match="budget"):
            enumerate_windows((3, 3), 4, budget=100)

    def test_row_spec_validation(self):
        with pytest.raises(ValidationError):
            enumerate_windows((), 3)
        with pytest.raises(ValidationError):
            enumerate_windows(((1, 1), (1, 1)), 3)
        with pytest.raises(ValidationError):
            enumerate_windows(((1, 1), (1,)), 3)


class TestFeasibleWindow:
    def test_rejects_conflicting_rows_in_one_column(self):
        with pytest.raises(ValidationError, match="witness"):
            FeasibleWindow(normalize_rows((2,)), 3, (2, 2))

    def test_key_equality_iff_same_window(self):
        ws = enumerate_windows((2,), 3)
        keys = {w.key for w in ws}
        assert len(keys) == len(ws)

    def test_as_grid(self):
        w = FeasibleWindow(normalize_rows((2,)), 3, (2, 0))
        assert w.as_grid() == ((0, 1, 0), (0, 0, 0))


def tail_equals_head(w1, w2):
    """Literal array-level consistency oracle."""
    g1, g2 = w1.as_grid(), w2.as_grid()
    tail = tuple(row[1:] for row in g1)
    head = tuple(row[:-1] for row in g2)
    return tail == head


class TestConsistent:
    def test_zero_with_zero(self):
        z = FeasibleWindow.zero((2,), 3)
        assert consistent(z, z)

    def test_entry_shifts_left(self):
        rows = normalize_rows((1,))
        w1 = FeasibleWindow(rows, 3, (2,))
        w2 = FeasibleWindow(rows, 3, (1,))
        assert consistent(w1, w2)

    def test_falling_off_needs_empty_head(self):
        rows = normalize_rows((1,))
        w1 = FeasibleWindow(rows, 3, (1,))
        assert consistent(w1, FeasibleWindow(rows, 3, (3,)))
        assert consistent(w1, FeasibleWindow(rows, 3, (0,)))
        assert not consistent(w1, FeasibleWindow(rows, 3, (1,)))
        assert not consistent(w1, FeasibleWindow(rows, 3, (2,)))

    def test_matches_array_equality_oracle_exhaustively(self):
        for spec in [(1,), (2,), ((1, 1), (2, 2))]:
            for omega in (2, 3):
                ws = enumerate_windows(spec, omega)
                for a in ws:
                    for b in ws:
                        assert consistent(a, b) == tail_equals_head(a, b), (
                            spec,
                            omega,
                            a.positions,
                            b.positions,
                        )

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            consistent(FeasibleWindow.zero((1,), 2), FeasibleWindow.zero((2,), 2))


def oracle_successors(w, array, j):
    """Filter the full window set by consistency plus support."""
    out = []
    for cand in enumerate_windows(array.rows, array.omega):
        if not consistent(w, cand):
            continue
        if all(
            array.weight(array.rows[r], j - array.omega + p) > 0
            for r, p in enumerate(cand.positions)
            if p
        ):
            out.append(cand)
    return out


def full_array(row_extents, omega, n):
    cells = {}
    from itertools import product

    for row in product(*(range(1, e + 1) for e in row_extents)):
        for j in range(1, n + 1):
            cells[(row, j)] = Fraction(1)
    return NarrowArray(row_extents, omega, n, cells)


class TestSuccessors:
    def test_zero_window_over_empty_range(self):
        array = NarrowArray((2,), 2, 4, {})
        z = FeasibleWindow.zero((2,), 2)
        assert successors(z, array, 2) == [z]

    def test_single_row_place_or_skip(self):
        array = NarrowArray((1,), 2, 3, {((1,), 2): Fraction(1)})
        z = FeasibleWindow.zero((1,), 2)
        succ = successors(z, array, 2)
        assert len(succ) == 2
        assert {s.positions for s in succ} == {(0,), (2,)}

    def test_conflicting_pair_full_occupancy(self):
        # Rows 1,2 conflict at omega=2: both cannot enter the new column.
        array = full_array((2,), 2, 4)
        z = FeasibleWindow.zero((2,), 2)
        succ = successors(z, array, 2)
        oracle = oracle_successors(z, array, 2)
        assert sorted(succ) == sorted(oracle)
        assert len(succ) == 3
        assert {s.positions for s in succ} == {(0, 0), (2, 0), (0, 2)}

    def test_non_los_pair_full_occupancy(self):
        # Rows differing in two coordinates may both enter the new column,
        # so the empty window has 4 successors: skip, either row, or both.
        rows = ((1, 1), (2, 2))
        cells = {(r, j): Fraction(1) for r in rows for j in range(1, 5)}
        array = NarrowArray((2, 2), 2, 4, cells)
        zbox = FeasibleWindow.zero(array.rows, 2)
        succ = successors(zbox, array, 2)
        oracle = oracle_successors(zbox, array, 2)
        assert sorted(succ) == sorted(oracle)
        placed = [
            sum(1 for p in s.positions if p == 2)
            for s in succ
            if all(p in (0, 2) for p in s.positions)
        ]
        assert sorted(placed) == [0, 1, 1, 2]

    def test_matches_oracle_on_random_supports(self):
        from losnet import GenConfig, InstanceParams, build_array, generate

        # Every window at every column, so carried-over entries land on
        # empty cells too (where the DP's transitions say: no successor).
        # The four- and five-row shapes offer up to four occupied rows to one
        # column; at omega=2 rows 1, 3 and 5 enter one column together.
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
                for w in enumerate_windows(array.rows, omega):
                    for j in range(1, array.n + 1):
                        succ = successors(w, array, j)
                        assert succ == oracle_successors(w, array, j)
                        most_placed = max(
                            [most_placed]
                            + [s.positions.count(omega) for s in succ]
                        )
        assert most_placed >= 3
