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
    brute_mis,
    build_array,
    generate,
    is_independent,
    solve_exact_narrow,
    solve_semionline,
    verify,
)
from losnet import narrow
from losnet.narrow import count_windows
from conftest import (
    cells_inst,
    make_inst,
    oracle_windows,
    small_instances,
    tail_equals_head,
    unit_inst,
)


def no_rows(row_extents):
    raise AssertionError(f"rows built for extents {row_extents}")


class TestRowIndex:
    """A row's index is its lexicographic rank, computed from the extents."""

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_index_is_position_in_rows(self, extents, axis):
        axis = min(axis, len(extents))
        # Every cell of column 1 is occupied, weighing its row's rank + 1.
        rows = tuple(product(*(range(1, e + 1) for e in extents)))
        cells = {(row, 1): r + 1 for r, row in enumerate(rows)}
        array = build_array(cells_inst(extents, 3, 1, cells, axis), axis)
        assert array.rows == rows
        assert array.column(1) == {r: r + 1 for r in range(len(rows))}

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_build_array_maps_back_to_instance(self, inst):
        # Along every axis, each stored cell (r, j) maps back through
        # ``coords_of(rows[r], j)`` to a vertex of the same weight, and every
        # vertex is stored exactly once.
        p = inst.params
        for axis in range(p.d):
            array = build_array(inst, axis)
            assert (array.long_axis, array.omega) == (axis, p.omega)
            assert array.n == p.extents[axis]
            assert array.row_extents == p.extents[:axis] + p.extents[axis + 1 :]
            mapped = {
                array.coords_of(array.rows[r], j): w
                for j in range(1, array.n + 1)
                for r, w in array.column(j).items()
            }
            assert mapped == dict(inst.vertices)
            assert len(array.weights()) == len(inst)

    def test_huge_cross_section_builds_no_rows(self, monkeypatch):
        monkeypatch.setattr(narrow, "rows_for", no_rows)
        inst = make_inst((10**6, 10**6), 3, {(1, 10**6): 1})
        assert build_array(inst, 0).column(1) == {10**6 - 1: 1}
        assert build_array(inst, 1).column(10**6) == {0: 1}


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
        assert a.column(4) == {0: 2}
        assert sum(a.weights()) == 2
        assert a.column(3) == {}
        assert a.column(0) == {}  # padding column

    def test_8x4_layout_shape(self):
        # An 8-long, 4-wide box at omega=4: four rows, 8+4 columns, and the
        # nonzero cells are exactly the occupied grid cells.
        cfg = GenConfig(InstanceParams(2, (8, 4), 4), Fraction(1, 2), "const:1", 3)
        inst = generate(cfg)
        a = build_array(inst, 0)
        assert len(a.rows) == 4
        assert a.n + a.omega == 12
        for j in range(1, 9):
            for r, row in enumerate(a.rows):
                assert a.column(j).get(r) == inst.vertices.get((j, row[0]))

    def test_long_axis_permutation(self):
        inst = make_inst((2, 6), 3, {(1, 4): 3, (2, 1): 1})
        a = build_array(inst, 1)
        assert a.n == 6
        assert a.row_extents == (2,)
        assert a.column(4) == {0: 3}
        assert a.coords_of((1,), 4) == (1, 4)
        assert a.coords_of((2,), 1) == (2, 1)

    def test_default_long_axis_is_widest(self):
        inst = make_inst((2, 9), 3, {(1, 4): 1})
        assert build_array(inst).long_axis == 1

    def test_padding_cells_zero_and_bounds(self):
        # The omega - 1 padding columns, and the columns past n, read empty.
        a = build_array(cells_inst((2,), 3, 4, {((1,), 2): 1}), 0)
        assert a.column(2) == {0: 1}
        for j in (-2, -1, 0, 5):
            assert a.column(j) == {}


def reference_dp(array):
    """Literal table-filling oracle over the windows of ``brute_windows``:
    for each column and window, maximize over the supported predecessors
    whose tail equals its head; quadratic in the window count."""
    omega = array.omega
    windows = oracle_windows(array.rows, omega)

    def supported(w, j):
        return all(r in array.column(j - omega + p) for r, p in enumerate(w) if p)

    table = {(0,) * len(array.rows): Fraction(0)}
    for j in range(1, array.n + 1):
        nxt = {}
        for w in windows:
            if not supported(w, j):
                continue
            best = None
            for wp, val in table.items():
                if tail_equals_head(wp, w, omega) and (best is None or val > best):
                    best = val
            if best is None:
                continue
            column = array.column(j)
            gain = sum(
                (column.get(r, 0) for r, p in enumerate(w) if p == omega), Fraction(0)
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

    # At most 3 rows in 2-D and 4 in 3-D, so that ``brute_windows`` filters
    # at most 2^16 grids per shape.
    @given(st.one_of(
        small_instances(max_n=6, max_d=2, max_vertices=10),
        small_instances(max_n=6, max_k=2, max_vertices=10),
    ))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_table_oracle(self, inst):
        assert solve_exact_narrow(inst, 0).total_weight == reference_dp(
            build_array(inst, 0)
        )

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

    def assert_chain(self, a, dp):
        """The winning windows W_0..W_n, unwound through ``pred_at`` from
        ``best_at``, start empty, are feasible and chain tail to head."""
        windows = set(dp.windows)
        _, w = dp.best_at()
        chain = [w]
        for j in range(a.n, 0, -1):
            w = dp.pred_at(j, w)
            chain.append(w)
        chain.reverse()
        assert len(chain) == a.n + 1
        assert chain[0] == (0,) * len(a.rows)
        assert windows.issuperset(chain)
        for prev, w in zip(chain, chain[1:]):
            assert tail_equals_head(prev, w, a.omega), (prev, w)

    def test_consistency_chain(self):
        cfg = GenConfig(InstanceParams(2, (10, 2), 3), Fraction(3, 5), "uniform:1:5", 9)
        inst = generate(cfg)
        a, dp, _ = self.make_dp(inst)
        self.assert_chain(a, dp)
        # the emitted placements reproduce the reported weight
        resum = sum(inst.vertices[a.coords_of(row, j)] for row, j in dp.placements())
        assert resum == dp.best_weight

    def test_consistency_chain_past_omega_255(self):
        cfg = GenConfig(InstanceParams(2, (300, 1), 256), Fraction(1, 2), "uniform:1:5", 1)
        a, dp, _ = self.make_dp(generate(cfg))
        assert a.n == 300
        self.assert_chain(a, dp)

    def test_monotone_extension(self):
        cfg = GenConfig(InstanceParams(2, (8, 2), 3), Fraction(3, 5), "const:1", 4)
        inst = generate(cfg)
        a, _, tables = self.make_dp(inst)
        prev_layer = {(0,) * len(a.rows): Fraction(0)}
        for layer in tables:
            for pos, val in layer.items():
                preds = [
                    pv
                    for ppos, pv in prev_layer.items()
                    if tail_equals_head(ppos, pos, a.omega)
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
        layers = [{(0,) * len(a.rows): Fraction(0)}] + tables
        for j, table in enumerate(tables, 1):
            for pos in table:
                pred = dp.pred_at(j, pos)
                assert pred in layers[j - 1]
                assert tail_equals_head(pred, pos, a.omega)


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

    def test_default_budget_edge(self):
        # 4^11 windows fit the default budget of 10^7, and 4^12 exceed it.
        NarrowDp((11,), 3)
        with pytest.raises(CapacityError, match="budget 10000000"):
            NarrowDp((12,), 3)

    def test_box_counted_before_its_rows_are_built(self, monkeypatch):
        monkeypatch.setattr(narrow, "rows_for", no_rows)
        with pytest.raises(CapacityError, match="rows=1000000"):
            NarrowDp((10**6,), 3)
        # A malformed spec is refused before any count.
        with pytest.raises(ValidationError, match="extents must be positive"):
            NarrowDp((10**6, 0), 3)

    def test_counts_too_long_to_print_named_by_their_digit_bound(self, monkeypatch):
        monkeypatch.setattr(narrow, "rows_for", no_rows)
        big = "int of more than 4300 digits"
        with pytest.raises(CapacityError) as err:
            NarrowDp((10**4000, 10**4000), 3, budget=10**5000)
        assert str(err.value) == (
            f"window count exceeds budget {big} (rows={big}, omega=3, capacity={big})"
        )

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
    chosen = make_inst((8, 4), 4, {c: inst.weight_of(c) for c in sol.vertices})
    assert sum(build_array(chosen, 0).weights()) == sol.total_weight


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
