from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from losnet import (
    CapacityError,
    InstanceParams,
    LosInstance,
    Solution,
    are_adjacent,
    brute_mis,
    brute_windows,
    exhaustive_mis,
    is_independent,
    ValidationError,
    verify,
)
from losnet.oracle import VerifyReport
from conftest import make_inst, small_instances, unit_inst


class TestBruteMis:
    def test_empty(self):
        inst = make_inst((4, 2), 2, {})
        sol = brute_mis(inst)
        assert sol.total_weight == 0 and sol.vertices == ()

    def test_two_adjacent_picks_heavier(self):
        inst = make_inst((4, 1), 3, {(1, 1): 1, (2, 1): 3})
        sol = brute_mis(inst)
        assert sol.total_weight == 3
        assert sol.vertices == ((2, 1),)

    def test_cap_is_hard(self):
        inst = unit_inst((13, 2), 2, [(j, i) for j in range(1, 14) for i in (1, 2)])
        assert len(inst) == 26
        with pytest.raises(CapacityError, match="24"):
            brute_mis(inst)

    def test_lexicographically_smallest_optimum(self):
        # Two disjoint adjacent pairs with equal weights: four optima of
        # weight 2; the smallest vertex list is ((1,1),(4,1)).
        inst = unit_inst((5, 1), 2, [(1, 1), (2, 1), (4, 1), (5, 1)])
        sol = brute_mis(inst)
        assert sol.total_weight == 2
        assert sol.vertices == ((1, 1), (4, 1))

    @given(small_instances(max_vertices=12))
    @settings(max_examples=50, deadline=None)
    def test_dual_oracle_agreement(self, inst):
        a = brute_mis(inst)
        b = exhaustive_mis(inst)
        assert a.total_weight == b.total_weight
        assert a.vertices == b.vertices  # same tie-breaking rule
        assert is_independent(inst, a.vertices)

    def test_exhaustive_cap(self):
        inst = unit_inst((11, 2), 2, [(j, i) for j in range(1, 12) for i in (1, 2)])
        with pytest.raises(CapacityError):
            exhaustive_mis(inst)


class TestBruteWindows:
    def test_single_row(self):
        assert len(brute_windows((1,), 3)) == 4

    def test_caps(self):
        with pytest.raises(CapacityError):
            brute_windows((3, 3), 4, cap=10)
        with pytest.raises(CapacityError):
            brute_windows((2, 3), 4)  # 24 cells exceed the grid cap

    def test_spec_refused_without_printing_it(self):
        # An extent of 5001 digits is more than ``str`` writes; the refusal
        # names no value of the spec.
        for spec in ((10**5000, 0), ((10**5000,), (10**5000,))):
            with pytest.raises(ValidationError):
                brute_windows(spec, 3)


class TestVerify:
    def test_clean_solution(self):
        inst = make_inst((6, 1), 3, {(1, 1): 2, (4, 1): Fraction(1, 2)})
        sol = Solution("x", ((1, 1), (4, 1)), Fraction(5, 2), {})
        report = verify(inst, sol)
        assert report.independent and report.violations == []
        assert report.weight_recomputed == Fraction(5, 2)

    def test_adjacent_pair_listed(self):
        inst = unit_inst((6, 1), 3, [(1, 1), (2, 1)])
        sol = Solution("x", ((1, 1), (2, 1)), Fraction(2), {})
        report = verify(inst, sol)
        assert not report.independent
        assert any("adjacent pair" in v for v in report.violations)

    def test_tampered_weight_flagged(self):
        inst = unit_inst((6, 1), 3, [(1, 1)])
        sol = Solution("x", ((1, 1),), Fraction(99), {})
        report = verify(inst, sol)
        assert not report.independent
        assert any("weight mismatch" in v for v in report.violations)
        assert report.weight_recomputed == 1

    def test_unknown_and_duplicate_coords_listed_not_raised(self):
        inst = unit_inst((6, 1), 3, [(1, 1)])
        sol = Solution("x", ((1, 1), (9, 9), (1, 1)), Fraction(1), {})
        report = verify(inst, sol)
        assert any("unknown coordinate" in v for v in report.violations)
        assert any("duplicate coordinate" in v for v in report.violations)

    def test_large_scale_verify_works(self):
        coords = [(j, 1) for j in range(1, 401, 2)]
        inst = unit_inst((400, 1), 2, coords)
        sol = Solution("x", tuple(coords), Fraction(len(coords)), {})
        assert verify(inst, sol).independent


def quadratic_verify(inst, sol) -> VerifyReport:
    """Reference checker: every pair of the solution, in list order."""
    violations = []
    known = []
    seen = set()
    for c in sol.vertices:
        c = tuple(c)
        if c in seen:
            violations.append(f"duplicate coordinate {c}")
            continue
        seen.add(c)
        if c not in inst:
            violations.append(f"unknown coordinate {c}")
        else:
            known.append(c)
    omega = inst.params.omega
    for i in range(len(known)):
        for j in range(i + 1, len(known)):
            if are_adjacent(known[i], known[j], omega):
                violations.append(f"adjacent pair {known[i]} {known[j]}")
    recomputed = sum((inst.weight_of(c) for c in known), Fraction(0))
    if recomputed != sol.total_weight:
        violations.append(
            f"weight mismatch: claimed {sol.total_weight}, recomputed {recomputed}"
        )
    return VerifyReport(not violations, sol.total_weight, recomputed, violations)


@st.composite
def claimed_solutions(draw):
    """An instance at d=2..4 and a vertex list with duplicates, unknown
    coordinates (outside the instance or the box) and adjacent pairs."""
    from itertools import product

    d = draw(st.integers(2, 4))
    extents = tuple(draw(st.integers(1, 7 if d == 2 else 4)) for _ in range(d))
    omega = draw(st.integers(2, 4))
    box = list(product(*(range(1, e + 1) for e in extents)))
    cells = draw(st.lists(st.sampled_from(box), unique=True, max_size=30))
    inst = LosInstance(
        InstanceParams(d, extents, omega),
        {c: Fraction(draw(st.integers(1, 5))) for c in cells},
    )
    outside = [tuple(e + 1 for e in extents), (0,) * d]
    picks = draw(st.lists(st.sampled_from(box + outside), max_size=25))
    weight = draw(st.one_of(
        st.just(sum((inst.weight_of(c) for c in set(picks) if c in inst), Fraction(0))),
        st.integers(0, 30).map(Fraction),
    ))
    return inst, Solution("x", tuple(picks), weight, {})


@given(claimed_solutions())
@settings(max_examples=200, deadline=None)
def test_verify_matches_quadratic_reference(case):
    inst, sol = case
    assert verify(inst, sol) == quadratic_verify(inst, sol)


@given(small_instances(max_vertices=10))
@settings(max_examples=40, deadline=None)
def test_every_solver_output_passes_verify(inst):
    from losnet import solve_exact_narrow, solve_ptas, solve_semionline, solve_strip2

    sols = [
        solve_exact_narrow(inst, 0),
        brute_mis(inst),
        solve_strip2(inst, 0),
        solve_ptas(inst, Fraction(1, 2), 0),
        solve_semionline(inst, Fraction(1), long_axis=0),
    ]
    for sol in sols:
        report = verify(inst, sol)
        assert report.independent, (sol.algorithm, report.violations)
