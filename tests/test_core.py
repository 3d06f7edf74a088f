import math
from fractions import Fraction
from itertools import product
from numbers import Rational

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losnet import (
    GenConfig,
    InstanceParams,
    LosInstance,
    UnknownCoordinateError,
    ValidationError,
    are_adjacent,
    default_long_axis,
    generate,
    is_independent,
    serialize_instance,
    set_weight,
)
from losnet.core import check_digits, check_weight_sums
from conftest import make_inst, unit_inst


class TestSharesLineOfSight:
    """``are_adjacent``'s line-of-sight test: exactly one coordinate differs."""

    def test_single_axis_difference(self):
        assert are_adjacent((1, 2), (5, 2), 5)

    def test_two_axes_differ(self):
        assert not are_adjacent((1, 2), (2, 3), 5)

    def test_identical_points(self):
        assert not are_adjacent((1, 2), (1, 2), 5)

    def test_dimension_mismatch(self):
        message = "^dimension mismatch: 2-tuple vs 3-tuple$"
        with pytest.raises(ValidationError, match=message):
            are_adjacent((1, 2), (1, 2, 3), 5)


class TestAreAdjacent:
    def test_gap_below_omega(self):
        assert are_adjacent((1, 2), (3, 2), 4)

    def test_gap_exactly_omega_is_not_an_edge(self):
        assert not are_adjacent((1, 2), (5, 2), 4)

    def test_no_line_of_sight(self):
        assert not are_adjacent((1, 1), (2, 2), 4)

    def test_omega_validated(self):
        with pytest.raises(ValidationError):
            are_adjacent((1, 1), (2, 1), 1)

    @given(
        p=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
        q=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
        omega=st.integers(2, 5),
    )
    def test_symmetric_and_irreflexive(self, p, q, omega):
        assert are_adjacent(p, q, omega) == are_adjacent(q, p, omega)
        assert not are_adjacent(p, p, omega)


def independent_by_pairs(inst, coords):
    """Reference for ``is_independent``: every pair checked by ``are_adjacent``."""
    pts = [tuple(c) for c in coords]
    for c in pts:
        if c not in inst:
            raise UnknownCoordinateError(f"no vertex at {c}")
    omega = inst.params.omega
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if are_adjacent(pts[i], pts[j], omega):
                return False
    return True


class TestIndependenceAndWeight:
    def test_empty_set_is_independent(self):
        inst = unit_inst((5, 2), 3, [(1, 1)])
        assert is_independent(inst, [])

    def test_gap_at_omega_independent(self):
        inst = unit_inst((5, 1), 3, [(1, 1), (4, 1)])
        assert is_independent(inst, [(1, 1), (4, 1)])

    def test_gap_below_omega_dependent(self):
        inst = unit_inst((5, 1), 3, [(1, 1), (2, 1)])
        assert not is_independent(inst, [(1, 1), (2, 1)])

    def test_unknown_coordinate_named(self):
        inst = unit_inst((5, 2), 3, [(1, 1)])
        with pytest.raises(UnknownCoordinateError, match=r"\(3, 1\)"):
            is_independent(inst, [(3, 1)])

    def test_set_weight_cases(self):
        inst = make_inst((5, 1), 3, {(1, 1): Fraction(5, 2), (4, 1): 3})
        assert set_weight(inst, []) == 0
        assert set_weight(inst, [(1, 1)]) == Fraction(5, 2)
        assert set_weight(inst, [(1, 1), (4, 1)]) == Fraction(11, 2)

    def test_set_weight_duplicate(self):
        inst = unit_inst((5, 1), 3, [(1, 1)])
        with pytest.raises(ValidationError, match="duplicate"):
            set_weight(inst, [(1, 1), (1, 1)])

    @given(st.data())
    @settings(max_examples=100)
    def test_is_independent_matches_pair_scan(self, data):
        # Repeated coordinates and coordinates naming no vertex included.
        from conftest import small_instances

        inst = data.draw(small_instances())
        known = inst.coords_sorted()
        coords = data.draw(st.lists(st.sampled_from(known), max_size=10)) if known else []
        cells = st.tuples(*(st.integers(1, e + 1) for e in inst.params.extents))
        for c in data.draw(st.lists(cells, max_size=1)):
            coords.insert(data.draw(st.integers(0, len(coords))), c)
        try:
            expected = independent_by_pairs(inst, coords)
        except UnknownCoordinateError as exc:
            with pytest.raises(UnknownCoordinateError) as info:
                is_independent(inst, coords)
            assert str(info.value) == str(exc)
        else:
            assert is_independent(inst, coords) == expected


class TestValidation:
    def test_params(self):
        with pytest.raises(ValidationError):
            InstanceParams(1, (5,), 3)
        with pytest.raises(ValidationError):
            InstanceParams(2, (5,), 3)
        with pytest.raises(ValidationError):
            InstanceParams(2, (5, 0), 3)
        with pytest.raises(ValidationError):
            InstanceParams(2, (5, 2), 1)

    def test_vertex_weight_positive(self):
        params = InstanceParams(2, (3, 2), 2)
        with pytest.raises(ValidationError):
            LosInstance(params, {(1, 1): 0})
        with pytest.raises(ValidationError):
            LosInstance(params, {(1, 1): Fraction(-1, 2)})

    def test_instance_rejects_out_of_box_and_duplicates(self):
        params = InstanceParams(2, (3, 2), 2)
        assert len(LosInstance(params)) == 0
        with pytest.raises(ValidationError):
            LosInstance(params, {(4, 1): 1})
        with pytest.raises(ValidationError):
            LosInstance(params, {(1, 1): 1, ("1", 1): 1})

    # (cells, exception, message): one bad cell per case.  Coordinates go
    # through int(), so a non-integer string fails there, with ValueError.
    REFUSALS = [
        ({("a", 1): 1}, ValueError, "invalid literal for int() with base 10: 'a'"),
        ({("1.5", 1): 1}, ValueError, "invalid literal for int() with base 10: '1.5'"),
        ({(1, 1): 0}, ValidationError, "vertex weight must be positive, got 0 at (1, 1)"),
        (
            {(1, 2): Fraction(-1, 2)},
            ValidationError,
            "vertex weight must be positive, got -1/2 at (1, 2)",
        ),
        ({(1, 1): "-3"}, ValidationError, "vertex weight must be positive, got -3 at (1, 1)"),
        ({(1, 1): "x"}, ValidationError, "not a rational weight: 'x'"),
        ({(1, 1): "1/2/3"}, ValidationError, "not a rational weight: '1/2/3'"),
        ({(1, 1): "3/0"}, ValidationError, "not a rational weight: '3/0'"),
        ({(1, 1): None}, ValidationError, "not a rational weight: None"),
        ({(4, 1): 1}, ValidationError, "coordinates (4, 1) outside box extents=(3, 2)"),
        ({(1, 0): 1}, ValidationError, "coordinates (1, 0) outside box extents=(3, 2)"),
        ({(1, 1, 1): 1}, ValidationError, "coordinates (1, 1, 1) outside box extents=(3, 2)"),
        ({(1,): 1}, ValidationError, "coordinates (1,) outside box extents=(3, 2)"),
        ({(1, 1): 2, ("1", 1): 3}, ValidationError, "duplicate vertex at (1, 1)"),
        # A weight past the digit bound is refused without printing it.
        ({(1, 1): 10**5000}, ValidationError, "not a rational weight: int of more than 4300 digits"),
        (
            {(1, 1): Fraction(10**5000, 3)},
            ValidationError,
            "not a rational weight: Fraction of more than 4300 digits",
        ),
        (
            {(1, 1): Fraction(1, 10**5000)},
            ValidationError,
            "not a rational weight: Fraction of more than 4300 digits",
        ),
        # So are coordinates past it, which the messages above print.
        (
            {(10**5000, 1): 1},
            ValidationError,
            "a coordinate would have more than 4300 digits",
        ),
        (
            {(1, -(10**5000)): 0},
            ValidationError,
            "a coordinate would have more than 4300 digits",
        ),
    ]

    @pytest.mark.parametrize("cells, error, message", REFUSALS)
    def test_instance_refusals(self, cells, error, message):
        params = InstanceParams(2, (3, 2), 2)
        with pytest.raises(error) as info:
            LosInstance(params, cells)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_instance_normalises_like_vertex(self):
        params = InstanceParams(2, (3, 2), 2)
        raw = {("2", 1): "3/6", (True, 2): 2, (3, 2): 1.5, (1, 1): Fraction(7, 3)}
        inst = LosInstance(params, raw)
        assert dict(inst.vertices) == {
            (2, 1): Fraction(1, 2),
            (1, 2): Fraction(2),
            (3, 2): Fraction(3, 2),
            (1, 1): Fraction(7, 3),
        }
        # Values pinned above; an int weight stays an int, the rest are
        # read as Fraction.
        assert all(isinstance(w, Rational) for w in inst.vertices.values())
        assert type(inst.vertices[(1, 2)]) is int
        assert all(
            type(x) is int for coords in inst.vertices for x in coords
        )

    def test_narrowness_is_derived(self):
        params = InstanceParams(3, (9, 2, 3), 2)
        assert default_long_axis(params) == 0


class TestWeightSums:
    """Weights are refused when a sum of them might have more than 4300
    digits in its numerator or its denominator."""

    def refused(self, weights, units=0):
        message = "^a weight sum would have more than 4300 digits$"
        with pytest.raises(ValidationError, match=message):
            check_weight_sums(weights, units)

    def test_numerator(self):
        check_weight_sums([Fraction(10**4300 - 2), Fraction(1)])
        self.refused([Fraction(10**4300 - 2), Fraction(2)])
        self.refused([Fraction(9 * 10**4299)] * 2)

    def test_unit_weights_count(self):
        check_weight_sums([Fraction(10**4300 - 11)], 10)
        self.refused([Fraction(10**4300 - 10)], 10)
        self.refused([Fraction(1, 10**4299)], 10)

    def test_common_denominator(self):
        # Coprime denominators of 2151 digits each: every weight reads, but
        # their least common multiple has 4301 digits.
        p, q = 10**2150 + 1, 10**2150 + 3
        check_weight_sums([Fraction(1, p)] * 3)
        self.refused([Fraction(1, p), Fraction(1, q)])


def running_weight_sums(weights, units=0):
    """The running form of ``check_weight_sums``, kept as its reference:
    the weights are added one at a time, and the first one after which the
    common denominator or the numerator of their sum (with ``units`` weights
    of 1) passes the bound is refused."""
    lcm, total = 1, check_digits(units, "a weight sum")
    for w in weights:
        den = w.denominator
        if lcm % den:
            grown = check_digits(lcm // math.gcd(lcm, den) * den, "a weight sum")
            lcm, total = grown, total * (grown // lcm)
        total = check_digits(total + w.numerator * (lcm // den), "a weight sum")


def _primes(lo, hi):
    return [p for p in range(lo, hi) if all(p % q for q in range(2, math.isqrt(p) + 1))]


# 2**p - 1 for distinct primes p are pairwise coprime; two of 6500-7600 bits
# have a least common multiple on either side of 4300 digits (14284 bits).
_MERSENNE_EXPONENTS = _primes(6500, 7600)
_CAP = 10**4300

_near_bound = st.builds(lambda m, k: _CAP // m - k, st.integers(1, 8), st.integers(1, 4))
_weights = st.one_of(
    st.integers(1, 20),
    _near_bound,
    st.builds(
        lambda p, num: Fraction(num, 2**p - 1),
        st.sampled_from(_MERSENNE_EXPONENTS),
        st.one_of(st.integers(1, 20), _near_bound),
    ),
)


@st.composite
def weights_near_the_bound(draw):
    """(weights, units) drawn near the bound: the denominators' least common
    multiple L lies on either side of it, and unless the numerator of the
    whole sum over L already passes it, one more weight over one of the
    drawn denominators brings that numerator to within three steps of it."""
    units = draw(st.integers(0, 20))
    weights = draw(st.lists(_weights, max_size=4))
    lcm = math.lcm(*(w.denominator for w in weights))
    total = units * lcm + sum(w.numerator * (lcm // w.denominator) for w in weights)
    if total < _CAP:
        den = draw(st.sampled_from([w.denominator for w in weights] or [1]))
        num = (_CAP - total) // (lcm // den) + draw(st.integers(-3, 2))
        if num >= 1:
            w = Fraction(num, den) if den > 1 else num
            weights.insert(draw(st.integers(0, len(weights))), w)
    return weights, units


def _refusal(check, weights, units):
    try:
        check(weights, units)
    except ValidationError as exc:
        return str(exc)
    return None


@given(weights_near_the_bound())
@settings(max_examples=150, deadline=None)
def test_weight_sums_refuse_as_the_running_check(case):
    weights, units = case
    assert _refusal(check_weight_sums, weights, units) == _refusal(
        running_weight_sums, weights, units
    )


class TestGenerate:
    def test_density_zero_empty(self):
        cfg = GenConfig(InstanceParams(2, (6, 3), 3), Fraction(0), "const:1", 5)
        assert len(generate(cfg)) == 0

    def test_density_one_full(self):
        cfg = GenConfig(InstanceParams(2, (4, 3), 3), Fraction(1), "const:1", 5)
        inst = generate(cfg)
        assert len(inst) == 12
        assert all(w == 1 for w in inst.vertices.values())

    def test_determinism_byte_identical(self):
        cfg = GenConfig(
            InstanceParams(2, (12, 3), 3), Fraction(1, 2), "uniform:1:5", 7
        )
        a = serialize_instance(generate(cfg))
        b = serialize_instance(generate(cfg))
        assert a == b

    def test_uniform_weights_in_range(self):
        cfg = GenConfig(
            InstanceParams(2, (10, 3), 3), Fraction(9, 10), "uniform:2:4", 3
        )
        inst = generate(cfg)
        assert inst.vertices
        assert all(2 <= w <= 4 for w in inst.vertices.values())

    @pytest.mark.parametrize(
        "dist, kind", [("uniform:1:5", int), ("const:2", int), ("const:5/2", Fraction)]
    )
    def test_integer_weights_are_ints(self, dist, kind):
        cfg = GenConfig(InstanceParams(2, (6, 3), 3), Fraction(1, 2), dist, 1)
        inst = generate(cfg)
        assert inst.vertices
        assert all(type(w) is kind for w in inst.vertices.values())

    def test_bad_configs(self):
        params = InstanceParams(2, (4, 2), 2)
        with pytest.raises(ValidationError):
            GenConfig(params, Fraction(3, 2), "const:1", 0)
        with pytest.raises(ValidationError):
            GenConfig(params, Fraction(1, 2), "uniform:5:2", 0)
        with pytest.raises(ValidationError):
            GenConfig(params, Fraction(1, 2), "exp:3", 0)

    def test_golden_file(self):
        # Frozen output for one config; guards the generator identity and
        # the serialization format across platforms and versions.
        cfg = GenConfig(InstanceParams(2, (6, 2), 3), Fraction(1, 2), "const:1", 7)
        expected = (
            "losn v1\n"
            "d=2 omega=3 extents=6,2\n"
            "v 1 1 1\n"
            "v 1 2 1\n"
            "v 3 1 1\n"
            "v 3 2 1\n"
            "v 4 1 1\n"
            "v 4 2 1\n"
            "v 5 1 1\n"
            "v 5 2 1\n"
            "v 6 1 1\n"
        )
        assert serialize_instance(generate(cfg)) == expected


def test_instances_compare_by_value():
    a = make_inst((4, 2), 2, {(1, 1): 2})
    b = make_inst((4, 2), 2, {(1, 1): Fraction(2)})
    c = make_inst((4, 2), 2, {(1, 1): 3})
    assert a == b
    assert a != c
