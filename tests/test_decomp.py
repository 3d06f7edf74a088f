import time
from fractions import Fraction
from itertools import product
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from losnet import decomp

from losnet import (
    GenConfig,
    InstanceParams,
    LosInstance,
    Solution,
    ValidationError,
    brute_mis,
    generate,
    is_independent,
    make_blocks,
    ptas_shift_count,
    solve_exact_narrow,
    solve_ptas,
    solve_strip2,
    verify,
)
from conftest import make_inst, small_instances, unit_inst


def strip_of(coords, k, cut_axes):
    """A vertex's strip index: (coordinate-1)//k on each cut axis."""
    return tuple((coords[a] - 1) // k for a in cut_axes)


def union_weights(sol):
    """``solve_strip2``'s (odd, even) union weights and its strip count."""
    meta = sol.meta
    return meta["odd_weight"], meta["even_weight"], meta["strips"]


class TestStripIndex:
    """``solve_strip2`` puts a vertex in strip (coordinate-1)//k on each
    non-long axis, of parity the index sum mod 2; a lone vertex shows its
    strip's parity in the union it lands in."""

    def test_row4_k3(self):
        sol = solve_strip2(make_inst((9, 6), 4, {(9, 4): 1}), 0)
        assert union_weights(sol) == ("1", "0", 1)  # strip (1,): odd

    def test_d3_rows(self):
        sol = solve_strip2(make_inst((5, 2, 3), 3, {(5, 1, 3): 1}), 0)
        assert union_weights(sol) == ("1", "0", 1)  # strip (0, 1): odd

    def test_row3_k3_still_first_strip(self):
        sol = solve_strip2(make_inst((9, 6), 4, {(9, 3): 1}), 0)
        assert union_weights(sol) == ("0", "1", 1)  # strip (0,): even

    def test_parity_follows_index(self):
        # Strips (1, 0) and (1, 1): odd and even, each solved on its own.
        inst = make_inst((1, 4, 4), 3, {(1, 3, 1): 1, (1, 3, 3): 2})
        assert union_weights(solve_strip2(inst, 0)) == ("1", "2", 2)


class TestParityCut:
    """The odd and even unions of ``solve_strip2``."""

    def test_everything_in_strip_zero(self):
        inst = unit_inst((6, 2), 3, [(1, 1), (4, 2)])
        assert union_weights(solve_strip2(inst, 0)) == ("0", "2", 1)

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_long_axis_outside_the_box(self, axis):
        inst = unit_inst((6, 2), 3, [(1, 1)])
        with pytest.raises(ValidationError, match=f"long axis {axis} outside 0..1"):
            solve_strip2(inst, axis)

    def test_alternating_rows_k1(self):
        inst = unit_inst((4, 4), 2, [(1, r) for r in range(1, 5)])
        sol = solve_strip2(inst, 0)
        assert union_weights(sol) == ("2", "2", 4)
        assert sol.vertices == ((1, 1), (1, 3))  # the tie goes to even

    @given(small_instances())
    @settings(max_examples=40)
    def test_partition(self, inst):
        # The strips partition the vertices, so the two unions of per-strip
        # optima together bound the optimum; the answer is one of them.
        k = inst.params.omega - 1
        cut = [a for a in range(inst.params.d) if a != 0]
        sol = solve_strip2(inst, 0)
        odd, even, strips = union_weights(sol)
        assert strips == len({strip_of(c, k, cut) for c in inst.vertices})
        assert brute_mis(inst).total_weight <= Fraction(odd) + Fraction(even)
        parity = 1 if sol.meta["parity"] == "odd" else 0
        assert all(sum(strip_of(c, k, cut)) % 2 == parity for c in sol.vertices)

    @given(small_instances())
    @settings(max_examples=40)
    def test_same_parity_strips_never_adjacent(self, inst):
        from losnet import are_adjacent

        k = inst.params.omega - 1
        cut = [a for a in range(inst.params.d) if a != 0]
        coords = inst.coords_sorted()
        for i, a in enumerate(coords):
            for b in coords[i + 1 :]:
                sa, sb = strip_of(a, k, cut), strip_of(b, k, cut)
                if sa != sb and sum(sa) % 2 == sum(sb) % 2:
                    assert not are_adjacent(a, b, inst.params.omega)


class TestStrip2:
    def test_single_strip_is_exact(self):
        cfg = GenConfig(InstanceParams(2, (9, 2), 3), Fraction(3, 5), "uniform:1:5", 2)
        inst = generate(cfg)  # rows fit inside one width-2 strip
        assert (
            solve_strip2(inst, 0).total_weight
            == solve_exact_narrow(inst, 0).total_weight
        )

    def test_empty_instance(self):
        inst = make_inst((6, 4), 3, {})
        sol = solve_strip2(inst, 0)
        assert sol.total_weight == 0
        assert sol.meta["parity"] == "even"  # tie goes to even

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_long_axis_checked_without_a_strip_to_solve(self, axis):
        with pytest.raises(ValidationError, match=f"long axis {axis} outside 0..1"):
            solve_strip2(make_inst((6, 4), 3, {}), axis)

    def test_ratio_on_random_pool(self):
        for seed in range(25):
            cfg = GenConfig(
                InstanceParams(2, (7, 4), 3), Fraction(1, 2), "uniform:1:5", seed
            )
            inst = generate(cfg)
            if len(inst) > 18:
                continue
            sol = solve_strip2(inst, 0)
            opt = brute_mis(inst).total_weight
            assert 2 * sol.total_weight >= opt
            assert verify(inst, sol).independent

    def test_large_instance_output_independent(self):
        cfg = GenConfig(InstanceParams(2, (300, 5), 3), Fraction(2, 5), "const:1", 8)
        inst = generate(cfg)
        sol = solve_strip2(inst, 0)
        assert is_independent(inst, sol.vertices)
        assert sol.meta["strips"] >= 2


class TestMakeBlocks:
    def test_worked_layout(self):
        inst = make_inst((12, 1), 3, {})
        dec = make_blocks(inst, h=2, shift=1, axis=0)
        assert [(p.lo, p.hi) for p in dec.blocks] == [(1, 2), (5, 8), (11, 12)]
        assert [(p.lo, p.hi) for p in dec.boundary] == [(3, 4), (9, 10)]

    def test_shift_zero_boundary_first(self):
        inst = make_inst((12, 1), 3, {})
        dec = make_blocks(inst, h=2, shift=0, axis=0)
        assert dec.boundary[0].lo == 1

    def test_partition_of_vertices(self):
        cfg = GenConfig(InstanceParams(2, (11, 3), 3), Fraction(3, 5), "const:1", 6)
        inst = generate(cfg)
        dec = make_blocks(inst, h=3, shift=2, axis=0)
        parts = [v for p in dec.blocks + dec.boundary for v in p.vertices]
        assert sorted(parts) == inst.coords_sorted()

    def test_each_strip_boundary_for_exactly_one_shift(self):
        # Exhaustive: every width-k strip lands in the discarded set for
        # exactly one shift in 0..h; k = omega-1 comes from the instance.
        for extent in range(1, 61, 7):
            for k in (1, 2, 3):
                for h in (1, 2, 4):
                    inst = make_inst((extent, 1), k + 1, {})
                    hits = {}
                    for shift in range(h + 1):
                        dec = make_blocks(inst, h, shift, 0)
                        for p in dec.boundary:
                            for c in range(p.lo, p.hi + 1):
                                strip = (c - 1) // k
                                hits.setdefault(strip, set()).add(shift)
                    for strip, shifts in hits.items():
                        assert len(shifts) == 1, (extent, k, h, strip, shifts)
                    # every strip appears
                    assert len(hits) == (extent + k - 1) // k

    def test_validation(self):
        inst = make_inst((5, 1), 2, {})
        with pytest.raises(ValidationError):
            make_blocks(inst, h=0, shift=0, axis=0)
        with pytest.raises(ValidationError):
            make_blocks(inst, h=2, shift=3, axis=0)


class TestPtasShiftCount:
    def test_two_dimensional_is_inverse_epsilon(self):
        assert ptas_shift_count(Fraction(1), 2) == 1
        assert ptas_shift_count(Fraction(1, 2), 2) == 2
        assert ptas_shift_count(Fraction(1, 4), 2) == 4
        assert ptas_shift_count(Fraction(1, 3), 2) == 3

    def test_d3_formula_arithmetic(self):
        # (1+eps) = 1.21 at d=3 makes the per-axis slack exactly 0.1,
        # so h = 10.
        assert ptas_shift_count(Fraction(21, 100), 3) == 10

    def test_requires_positive_epsilon(self):
        with pytest.raises(ValidationError):
            ptas_shift_count(Fraction(0), 2)

    @staticmethod
    def doubling(eps, d):
        """The former search: double h past the answer, then bisect."""

        def too_small(h):
            return (1 + Fraction(1, h)) ** (d - 1) > 1 + eps

        hi = 1
        while too_small(hi):
            hi *= 2
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if too_small(mid) else (lo, mid)
        return hi

    @given(
        st.fractions(min_value=Fraction(1, 10**6), max_value=10),
        st.integers(min_value=2, max_value=7),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_doubling_search(self, eps, d):
        if eps > 0:
            assert ptas_shift_count(eps, d) == self.doubling(eps, d)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 40, 100])
    def test_matches_doubling_search_at_powers_of_ten(self, k):
        for d in range(2, 8):
            eps = Fraction(1, 10**k)
            assert ptas_shift_count(eps, d) == self.doubling(eps, d), (k, d)

    def test_tiny_epsilon_is_fast(self):
        started = time.perf_counter()
        assert ptas_shift_count(Fraction(1, 10**4000), 2) == 10**4000
        assert ptas_shift_count(Fraction(1, 10**4000), 4) > 3 * 10**4000
        assert time.perf_counter() - started < 0.5

    def test_matches_linear_search(self):
        def linear(eps, d):
            h = 1
            while (1 + Fraction(1, h)) ** (d - 1) > 1 + eps:
                h += 1
            return h

        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
                    Fraction(3, 10), Fraction(1, 100), Fraction(7, 3)):
            for d in (2, 3, 4):
                assert ptas_shift_count(eps, d) == linear(eps, d), (eps, d)


class TestPtas:
    def test_tiny_epsilon_returns_optimum(self):
        # h is about 10^9 here; only the shifts up to ceil(extent/k) differ.
        cfg = GenConfig(InstanceParams(2, (7, 4), 3), Fraction(1, 2), "uniform:1:5", 2)
        inst = generate(cfg)
        sol = solve_ptas(inst, Fraction(1, 10**9), 0)
        assert sol.meta["h"] == 10**9
        assert sol.total_weight == brute_mis(inst).total_weight

    def test_instance_inside_one_block_exact(self):
        cfg = GenConfig(InstanceParams(2, (10, 2), 3), Fraction(3, 5), "uniform:1:5", 4)
        inst = generate(cfg)
        exact = solve_exact_narrow(inst, 0).total_weight
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
            assert solve_ptas(inst, eps, 0).total_weight == exact

    def test_ratio_d2(self):
        for seed in range(15):
            cfg = GenConfig(
                InstanceParams(2, (12, 4), 3), Fraction(1, 2), "const:1", seed
            )
            inst = generate(cfg)
            if len(inst) > 20:
                continue
            opt = brute_mis(inst).total_weight
            for eps in (Fraction(1), Fraction(1, 4)):
                sol = solve_ptas(inst, eps, 0)
                assert sol.total_weight * (1 + eps) >= opt
                assert verify(inst, sol).independent

    def test_ratio_d3(self):
        for seed in range(8):
            cfg = GenConfig(
                InstanceParams(3, (6, 2, 2), 2), Fraction(2, 5), "const:1", seed
            )
            inst = generate(cfg)
            if len(inst) > 16:
                continue
            opt = brute_mis(inst).total_weight
            for eps in (Fraction(1), Fraction(1, 2)):
                sol = solve_ptas(inst, eps, 0)
                assert sol.total_weight * (1 + eps) >= opt
                assert is_independent(inst, sol.vertices)

    def test_meta_records_parameters(self):
        cfg = GenConfig(InstanceParams(2, (12, 3), 3), Fraction(1, 2), "const:1", 1)
        inst = generate(cfg)
        sol = solve_ptas(inst, Fraction(1, 2), 0)
        assert sol.meta["h"] == 2
        assert "shift" in sol.meta
        assert sol.meta["blocks"] == len(sol.meta["block_weights"])

    def test_epsilon_validated(self):
        inst = make_inst((4, 2), 2, {})
        with pytest.raises(ValidationError):
            solve_ptas(inst, Fraction(-1, 2), 0)


@st.composite
def grids_2d(draw):
    """d=2 instances up to 30x12, omega 2..5, ``Fraction(a, b)`` weights."""
    extents = (draw(st.integers(1, 30)), draw(st.integers(1, 12)))
    cell = st.tuples(st.integers(1, extents[0]), st.integers(1, extents[1]))
    weight = st.builds(Fraction, st.integers(1, 9), st.integers(1, 6))
    cells = draw(st.dictionaries(cell, weight, max_size=40))
    return LosInstance(InstanceParams(2, extents, draw(st.integers(2, 5))), cells)


class TestStrip2IsPtasAtEpsilonOne:
    """In 2-D, ``solve_ptas`` at epsilon=1 has h=1: shift 0's blocks are the
    odd strips and shift 1's the even strips, strip2's two unions."""

    @given(grids_2d())
    @settings(max_examples=100, deadline=None)
    def test_same_weight_and_vertices(self, inst):
        for long_axis in (0, 1):
            strip2 = solve_strip2(inst, long_axis)
            ptas = solve_ptas(inst, Fraction(1), long_axis)
            assert strip2.total_weight == ptas.total_weight
            if strip2.meta["odd_weight"] == strip2.meta["even_weight"]:
                # On a tie strip2 keeps the even strips, the PTAS shift 0 (odd).
                assert (strip2.meta["parity"], ptas.meta["shift"]) == ("even", 0)
            else:
                assert strip2.vertices == ptas.vertices


# -- reference slicing ---------------------------------------------------------


def reference_subinstance(inst, ranges):
    """Restrict ``inst`` to per-axis ranges by scanning every vertex and
    rebuilding a validated instance: what strips and blocks were built from
    before they became slices of the caller's groups."""
    p = inst.params
    extents, offsets = [], []
    for a in range(p.d):
        lo, hi = ranges.get(a, (1, p.extents[a]))
        extents.append(hi - lo + 1)
        offsets.append(lo - 1)
    cells = {}
    for coords, w in inst.vertices.items():
        if all(
            ranges.get(a, (1, p.extents[a]))[0]
            <= coords[a]
            <= ranges.get(a, (1, p.extents[a]))[1]
            for a in range(p.d)
        ):
            cells[tuple(c - o for c, o in zip(coords, offsets))] = w
    sub = LosInstance(InstanceParams(p.d, tuple(extents), p.omega), cells)
    return sub, tuple(offsets)


def reference_block_members(inst, dec):
    """Part members by scanning every segment for every vertex."""
    segments = sorted(dec.blocks + dec.boundary, key=lambda part: part.lo)
    members = {(part.lo, part.hi): [] for part in segments}
    for coords in sorted(inst.vertices):
        for part in segments:
            if part.lo <= coords[dec.axis] <= part.hi:
                members[(part.lo, part.hi)].append(coords)
                break
    return members


@st.composite
def sliceable_instances(draw):
    """Sparse d=2..4 instances with Fraction(a, b) weights: wide enough on
    the cut axes that some strips and blocks hold no vertex."""
    d = draw(st.integers(2, 4))
    cut_max = 6 if d == 2 else 4 if d == 3 else 3
    extents = (draw(st.integers(1, 8)),) + tuple(
        draw(st.integers(1, cut_max)) for _ in range(d - 1)
    )
    omega = draw(st.integers(2, 4))
    cells = list(product(*(range(1, e + 1) for e in extents)))
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=10))
    weights = {
        c: Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 6))) for c in chosen
    }
    return LosInstance(InstanceParams(d, extents, omega), weights)


class TestSlicing:
    @given(sliceable_instances(), st.sampled_from([Fraction(1), Fraction(1, 2)]))
    @settings(max_examples=150, deadline=None)
    def test_parts_equal_reference_subinstances(self, inst, epsilon):
        built = []
        real_slice = decomp._slice

        def recording_slice(parent, ranges, members):
            members = list(members)
            sub, offsets = real_slice(parent, ranges, members)
            built.append((parent, dict(ranges), sub, offsets))
            return sub, offsets

        def no_solve(sub, long_axis=None, budget=None):
            # Slicing is under test here, not the exact solver, whose window
            # budget the tall d=4 blocks would exceed.
            return Solution("exact-narrow", (), Fraction(0))

        with mock.patch.object(decomp, "_slice", recording_slice), mock.patch.object(
            decomp, "solve_exact_narrow", no_solve
        ):
            solve_strip2(inst, 0)
            strips = len(built)
            solve_ptas(inst, epsilon, 0)
        assert sum(len(sub) for _, _, sub, _ in built[:strips]) == len(inst)
        for parent, ranges, sub, offsets in built:
            assert (sub, offsets) == reference_subinstance(parent, ranges)

    @given(
        sliceable_instances(),
        st.integers(1, 4),
        st.integers(0, 4),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_members_equal_segment_scan(self, inst, h, shift, data):
        # k = omega-1, so the drawn omega of 2..4 gives strips of width 1..3.
        shift = min(shift, h)
        axis = data.draw(st.integers(0, inst.params.d - 1))
        dec = make_blocks(inst, h, shift, axis)
        members = reference_block_members(inst, dec)
        for part in dec.blocks + dec.boundary:
            assert list(part.vertices) == members[(part.lo, part.hi)]
