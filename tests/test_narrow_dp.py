from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from losnet import (
    CapacityError,
    GenConfig,
    InstanceParams,
    NarrowArray,
    NarrowDp,
    ValidationError,
    brute_mis,
    build_array,
    consistent,
    enumerate_windows,
    generate,
    is_independent,
    solve_exact_narrow,
    solve_mis_narrow,
    solve_semionline,
    successors,
    verify,
)
from losnet import narrow
from losnet.narrow import FeasibleWindow, count_windows
from conftest import make_inst, small_instances, unit_inst


def no_rows(row_extents):
    raise AssertionError(f"rows built for extents {row_extents}")


class TestRowIndex:
    """A row's index is its lexicographic rank, computed from the extents."""

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_index_is_position_in_rows(self, extents):
        array = NarrowArray(extents, 3, 1)
        rows = array.rows
        for row in rows:
            assert array._index(row) == rows.index(row)
            for axis, e in enumerate(extents):
                for bad in (0, e + 1):
                    assert array._index(row[:axis] + (bad,) + row[axis + 1 :]) is None
            assert array._index(row + (1,)) is None
            assert array._index(row[:-1]) is None

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_build_array_matches_checked_cells(self, inst):
        p = inst.params
        for axis in range(p.d):
            built = build_array(inst, axis)
            cells = {
                (c[:axis] + c[axis + 1 :], c[axis]): w for c, w in inst.vertices.items()
            }
            checked = NarrowArray(
                built.row_extents, p.omega, p.extents[axis], cells, long_axis=axis
            )
            assert built.row_extents == p.extents[:axis] + p.extents[axis + 1 :]
            for j in range(1, p.extents[axis] + 1):
                assert built.column(j) == checked.column(j)

    @pytest.mark.parametrize(
        "cells, message",
        [
            ({((2,), 3): 0}, "vertex weight must be positive, got 0 at (2, 3)"),
            ({((3,), 1): 1}, "coordinates (3, 1) outside box extents=(2, 4)"),
            ({((1,), 5): 1}, "coordinates (1, 5) outside box extents=(2, 4)"),
            ({((1, 1), 2): 1}, "coordinates (1, 2, 1) outside box extents=(2, 4)"),
        ],
        ids=["weight", "row", "column", "row-length"],
    )
    def test_cells_refused_as_instance_cells(self, cells, message):
        # Long axis 1: a cell (row, j) sits at instance coordinates (row, j).
        with pytest.raises(ValidationError) as info:
            NarrowArray((2,), 3, 4, cells, long_axis=1)
        assert str(info.value) == message

    def test_huge_cross_section_builds_no_rows(self, monkeypatch):
        monkeypatch.setattr(narrow, "rows_for", no_rows)
        array = NarrowArray((10**6, 10**6), 3, 5, {((10**6, 2), 4): 7})
        assert array.weight((10**6, 2), 4) == 7
        assert (4, 10**6, 2) in array
        array.put((5, 1, 10**6), Fraction(2))
        assert array.column(5) == {10**6 - 1: 2}
        inst = make_inst((10**6, 10**6), 3, {(1, 10**6): 1})
        assert build_array(inst, 0).column(1) == {10**6 - 1: 1}


class TestBuildArray:
    def test_empty_instance_shape(self):
        inst = make_inst((3, 1), 2, {})
        a = build_array(inst, 0)
        assert a.n + a.omega == 5
        assert a.n == 3
        assert sum(a.weights()) == 0

    def test_single_vertex(self):
        inst = make_inst((5, 1), 2, {(4, 1): 2})
        a = build_array(inst, 0)
        assert a.weight((1,), 4) == 2
        assert sum(a.column(4).values()) == 2
        assert sum(a.weights()) == 2
        assert a.weight((1,), 3) == 0
        assert a.weight((1,), 0) == 0  # padding column

    def test_8x4_layout_shape(self):
        # An 8-long, 4-wide box at omega=4: four rows, 8+4 columns, and the
        # nonzero cells are exactly the occupied grid cells.
        cfg = GenConfig(InstanceParams(2, (8, 4), 4), Fraction(1, 2), "const:1", 3)
        inst = generate(cfg)
        a = build_array(inst, 0)
        assert len(a.rows) == 4
        assert a.n + a.omega == 12
        for j in range(1, 9):
            for row in a.rows:
                expected = inst.vertices.get((j, row[0]), Fraction(0))
                assert a.weight(row, j) == expected

    def test_long_axis_permutation(self):
        inst = make_inst((2, 6), 3, {(1, 4): 3, (2, 1): 1})
        a = build_array(inst, 1)
        assert a.n == 6
        assert a.row_extents == (2,)
        assert a.weight((1,), 4) == 3
        assert a.coords_of((1,), 4) == (1, 4)
        assert a.coords_of((2,), 1) == (2, 1)

    def test_default_long_axis_is_widest(self):
        inst = make_inst((2, 9), 3, {(1, 4): 1})
        assert build_array(inst).long_axis == 1

    def test_padding_cells_zero_and_bounds(self):
        a = NarrowArray((2,), 3, 4, {((1,), 2): Fraction(1)})
        assert a.weight((1,), -2) == 0
        with pytest.raises(ValidationError):
            a.weight((1,), -3)
        with pytest.raises(ValidationError):
            a.weight((3,), 1)


def reference_dp(array: NarrowArray):
    """Literal table-filling oracle: for each column and window, maximize
    over consistent supported predecessors; quadratic in the window count."""
    windows = enumerate_windows(array.rows, array.omega)
    omega = array.omega

    def supported(w, j):
        return all(
            array.weight(array.rows[r], j - omega + p) > 0
            for r, p in enumerate(w.positions)
            if p
        )

    zero = next(w for w in windows if not any(w.positions))
    table = {zero: Fraction(0)}
    for j in range(1, array.n + 1):
        nxt = {}
        for w in windows:
            if not supported(w, j):
                continue
            best = None
            for wp, val in table.items():
                if consistent(wp, w) and (best is None or val > best):
                    best = val
            if best is None:
                continue
            gain = sum(
                (
                    array.weight(array.rows[r], j)
                    for r, p in enumerate(w.positions)
                    if p == omega
                ),
                Fraction(0),
            )
            nxt[w] = best + gain
        table = nxt
    return max(table.values()) if table else Fraction(0)


class TestSolveNarrow:
    def test_unit_path_takes_every_other(self):
        inst = unit_inst((5, 1), 2, [(j, 1) for j in range(1, 6)])
        sol = solve_exact_narrow(inst, 0)
        assert sol.total_weight == 3  # ceil(5/2)

    def test_weighted_singleton(self):
        inst = make_inst((4, 2), 2, {(3, 2): Fraction(5, 2)})
        sol = solve_exact_narrow(inst)
        assert sol.total_weight == Fraction(5, 2)
        assert sol.vertices == ((3, 2),)

    def test_full_2x6_omega3(self):
        inst = unit_inst((6, 2), 3, [(j, i) for j in range(1, 7) for i in (1, 2)])
        sol = solve_exact_narrow(inst, 0)
        oracle = brute_mis(inst)
        assert sol.total_weight == oracle.total_weight == 4

    def test_empty_columns_allowed(self):
        a = NarrowArray((2,), 3, 0, {})
        sol = solve_mis_narrow(a)
        assert sol.total_weight == 0
        assert sol.vertices == ()

    def test_omega_larger_than_n(self):
        inst = unit_inst((3, 1), 5, [(1, 1), (2, 1), (3, 1)])
        sol = solve_exact_narrow(inst, 0)
        assert sol.total_weight == 1  # everything pairwise adjacent

    def test_single_cell_cross_section(self):
        inst = unit_inst((7, 1), 3, [(j, 1) for j in range(1, 8)])
        sol = solve_exact_narrow(inst, 0)
        assert sol.total_weight == 3  # 1-d spacing: ceil(7/3)

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_oracle(self, inst):
        sol = solve_exact_narrow(inst, 0)
        oracle = brute_mis(inst)
        assert sol.total_weight == oracle.total_weight
        assert is_independent(inst, sol.vertices)
        assert verify(inst, sol).independent

    @given(small_instances(max_n=6, max_vertices=10))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_table_oracle(self, inst):
        a = build_array(inst, 0)
        assert solve_mis_narrow(a).total_weight == reference_dp(a)

    def test_deterministic_output(self):
        cfg = GenConfig(InstanceParams(2, (9, 3), 3), Fraction(1, 2), "uniform:1:5", 5)
        inst = generate(cfg)
        a = solve_exact_narrow(inst, 0)
        b = solve_exact_narrow(inst, 0)
        assert a == b


class TestDpTableInvariants:
    def make_dp(self, inst):
        """The array, the DP pushed through every column, and the table
        read after each push (``tables[j - 1]`` after column j)."""
        a = build_array(inst, 0)
        dp = NarrowDp(a.rows, a.omega)
        tables = []
        for j in range(1, a.n + 1):
            dp.push_column(a.column(j))
            tables.append(dp.table())
        return a, dp, tables

    def test_consistency_chain(self):
        cfg = GenConfig(InstanceParams(2, (10, 2), 3), Fraction(3, 5), "uniform:1:5", 9)
        inst = generate(cfg)
        a, dp, _ = self.make_dp(inst)
        chain = dp.window_chain()
        assert len(chain) == a.n
        from losnet import FeasibleWindow

        prev = FeasibleWindow.zero(a.rows, a.omega)
        for w in chain:
            assert consistent(prev, w)
            prev = w
        # the emitted placements reproduce the reported weight
        resum = sum(
            (a.weight(row, j) for row, j in dp.placements()), Fraction(0)
        )
        assert resum == dp.best_weight

    def test_consistency_chain_past_omega_255(self):
        cfg = GenConfig(InstanceParams(2, (300, 1), 256), Fraction(1, 2), "uniform:1:5", 1)
        a, dp, _ = self.make_dp(generate(cfg))
        chain = dp.window_chain()
        assert len(chain) == 300
        prev = FeasibleWindow.zero(a.rows, a.omega)
        for w in chain:
            assert consistent(prev, w)
            prev = w

    def test_monotone_extension(self):
        cfg = GenConfig(InstanceParams(2, (8, 2), 3), Fraction(3, 5), "const:1", 4)
        inst = generate(cfg)
        a, _, tables = self.make_dp(inst)
        from losnet import FeasibleWindow

        prev_layer = {(0,) * len(a.rows): Fraction(0)}
        for layer in tables:
            for pos, val in layer.items():
                w = FeasibleWindow(a.rows, a.omega, pos)
                preds = [
                    pv
                    for ppos, pv in prev_layer.items()
                    if consistent(FeasibleWindow(a.rows, a.omega, ppos), w)
                ]
                assert preds, "every stored window must have a predecessor"
                assert val >= max(preds)
            prev_layer = layer

    def test_budget_checked_after_shared_cache_filled(self):
        # The windows of a (rows, omega) shape are shared across evaluators;
        # a smaller budget must still refuse once a larger one built them.
        dp = NarrowDp((3, 3), 4, budget=10**7)
        assert len(dp.windows) > 100
        with pytest.raises(CapacityError):
            NarrowDp((3, 3), 4, budget=100)

    def test_rescaled_table_matches_fraction_weights(self):
        # Each column brings a new denominator, so the integer table is
        # multiplied up several times mid-run.
        inst = make_inst(
            (6, 2), 3,
            {(1, 1): Fraction(1, 2), (2, 2): Fraction(2, 3), (3, 1): Fraction(3, 4),
             (4, 2): Fraction(4, 5), (5, 1): Fraction(5, 7), (6, 2): 3},
        )
        _, dp, tables = self.make_dp(inst)
        assert dp.best_weight == brute_mis(inst).total_weight
        assert all(
            isinstance(v, Fraction) for table in tables for v in table.values()
        )

    def test_every_pred_entry_is_consistent_with_its_window(self):
        cfg = GenConfig(InstanceParams(2, (9, 2), 3), Fraction(3, 5), "uniform:1:5", 12)
        inst = generate(cfg)
        a, dp, tables = self.make_dp(inst)
        from losnet import FeasibleWindow

        for j, table in enumerate(tables, 1):
            for pos in table:
                pred = dp.pred_at(j, pos)
                assert consistent(
                    FeasibleWindow(a.rows, a.omega, pred),
                    FeasibleWindow(a.rows, a.omega, pos),
                )


class TestWindowBudget:
    """One count, ``count_windows``, and one refusal for every evaluator."""

    def test_full_capacity_count_is_raw_stencils(self):
        for k in range(1, 9):
            for omega in range(2, 7):
                for cap in (k, k + 1, k + 2):
                    assert count_windows(k, omega, cap) == (omega + 1) ** k
                # The recurrence misses exactly the omega windows that put
                # all k rows in one column.
                assert count_windows(k, omega, k - 1) + omega == (omega + 1) ** k

    def test_counting_stops_past_the_limit(self):
        assert 10**6 < count_windows(10**6, 3, 10**6, stop=10**6) <= 4 * 10**6
        assert 100 < count_windows(10**4, 3, 2, stop=100) <= 10**4

    @pytest.mark.parametrize(
        "rows, omega, cap",
        [
            ((5,), 3, 1),
            ((3, 2), 2, 2),
            (((1, 1), (2, 2), (3, 3), (4, 4)), 4, 3),
            ((4,), 3, None),
        ],
    )
    def test_budget_edge_with_capacity(self, rows, omega, cap):
        nrows = len(narrow.normalize_rows(rows))
        count = count_windows(nrows, omega, nrows if cap is None else cap)
        NarrowDp(rows, omega, budget=count, capacity=cap)
        with pytest.raises(CapacityError, match="budget"):
            NarrowDp(rows, omega, budget=count - 1, capacity=cap)

    def test_box_budget_edge(self):
        NarrowDp((3, 3), 4, budget=5**9)
        with pytest.raises(CapacityError) as err:
            NarrowDp((3, 3), 4, budget=5**9 - 1)
        for part in ("rows=9", "omega=4", "capacity=9", f"budget {5**9 - 1}"):
            assert part in str(err.value)

    def test_successors_held_to_default_budget(self):
        # 4^12 windows exceed the default budget, as for enumerate_windows.
        array = NarrowArray((12,), 3, 1)
        with pytest.raises(CapacityError):
            successors(FeasibleWindow.zero((12,), 3), array, 1)
        with pytest.raises(CapacityError):
            enumerate_windows((12,), 3)

    def test_box_counted_before_its_rows_are_built(self, monkeypatch):
        monkeypatch.setattr(narrow, "rows_for", no_rows)
        with pytest.raises(CapacityError, match="rows=1000000"):
            NarrowDp((10**6,), 3)
        # A malformed spec is refused before any count.
        with pytest.raises(ValidationError, match="extents must be positive"):
            NarrowDp((10**6, 0), 3)

    def test_refused_before_rows_are_built(self, monkeypatch):
        def no_rows(row_extents):
            raise AssertionError(f"rows built for extents {row_extents}")

        monkeypatch.setattr(narrow, "rows_for", no_rows)
        inst = make_inst((10**6, 10**6), 3, {(1, 1): 1})
        with pytest.raises(CapacityError, match="rows=1000000"):
            solve_exact_narrow(inst)
        with pytest.raises(CapacityError, match="rows=1000000"):
            solve_semionline(inst, Fraction(1))


def test_solution_induces_array_of_equal_sum():
    # The chosen vertices, written back as an array, sum to the solution
    # weight: the array view and the vertex view agree.
    cfg = GenConfig(InstanceParams(2, (8, 4), 4), Fraction(1, 2), "uniform:1:5", 3)
    inst = generate(cfg)
    sol = solve_exact_narrow(inst, 0)
    chosen = NarrowArray(
        (4,),
        4,
        8,
        {((c[1],), c[0]): inst.weight_of(c) for c in sol.vertices},
    )
    assert sum(chosen.weights()) == sol.total_weight


def test_runtime_grows_linearly_quickcheck():
    # Thorough version lives in the acceptance suite; this is a smoke bound.
    import time

    def t(n):
        cfg = GenConfig(InstanceParams(2, (n, 2), 3), Fraction(1, 2), "const:1", 1)
        inst = generate(cfg)
        t0 = time.perf_counter()
        solve_exact_narrow(inst, 0)
        return time.perf_counter() - t0

    t(200)  # warm caches
    assert t(800) < 25 * t(200) + 0.05
