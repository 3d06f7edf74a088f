import math
import time
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from losnet import (
    CapacityError,
    GenConfig,
    InstanceParams,
    NarrowArray,
    ValidationError,
    build_array,
    generate,
    is_independent,
    load_instance,
    max_lookahead,
    run_phase,
    save_instance,
    solve_exact_narrow,
    solve_semionline,
    verify,
)
from losnet import core
from losnet.core import exact_fraction
from losnet.semionline import _growth_cap, _ln
from conftest import cells_inst, unit_inst


class TestMaxLookahead:
    def test_documented_arithmetic(self):
        # (1 + 1/eps) * k^(d-1) / (ln 2)^2, ceil, times omega, plus omega.
        ln2sq = math.log(2) ** 2
        assert math.ceil((1 + 1 / 1.0) * 2 / ln2sq) == 9
        assert max_lookahead(2, 2, Fraction(1), 3) == 9 * 3 + 3
        assert math.ceil((1 + 1 / 1.0) * 1 / ln2sq) == 5
        assert max_lookahead(1, 2, Fraction(1), 2) == 5 * 2 + 2

    def test_large_epsilon_limit(self):
        # As epsilon grows the round cap tends to k^(d-1)/(ln 2)^2.
        ln2sq = math.log(2) ** 2
        expected_rounds = math.ceil(2 / ln2sq * (1 + 1e-9))
        assert max_lookahead(2, 2, Fraction(10**9), 3) == expected_rounds * 3 + 3

    @pytest.mark.parametrize(
        "eps",
        [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 10),
         Fraction(1, 1000)],
    )
    def test_matches_float_formula(self, eps):
        # The exact computation keeps every limit the float formula gave.
        ln2sq = math.log(2) ** 2
        for k in range(1, 7):
            for d in (2, 3, 4):
                for omega in (2, 3, 5):
                    rounds = math.ceil((1 + 1 / float(eps)) * k ** (d - 1) / ln2sq)
                    assert max_lookahead(k, d, eps, omega) == rounds * omega + omega

    def test_epsilon_below_float_range(self):
        eps = Fraction(1, 10**400)
        # Far below float range the round cap still tends to (1/eps)/(ln 2)^2.
        rounds = (max_lookahead(1, 2, eps, 2) - 2) // 2
        scaled = rounds * eps * Fraction(math.log(2) ** 2)
        assert abs(scaled - 1) < Fraction(1, 10**9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            max_lookahead(2, 2, Fraction(0), 3)
        with pytest.raises(ValidationError):
            max_lookahead(0, 2, Fraction(1), 3)


def linear_growth_cap(eps: Fraction, ratio: Fraction) -> int:
    c, acc = 0, Fraction(1)
    while acc < ratio:
        acc *= 1 + eps
        c += 1
    return c


def reference_growth_cap(epsilon: Fraction, ratio: Fraction) -> int:
    """Smallest c >= 0 with (1+epsilon)^c >= ratio, by exact search: the
    reference of ``_growth_cap``.

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
    while (c := _reference_growth_cap_at(grow, ratio, prec)) is None:
        prec *= 2
    return c


def _reference_growth_cap_at(grow: Fraction, ratio: Fraction, prec: int) -> int | None:
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


epsilons = st.one_of(
    st.builds(Fraction, st.integers(1, 64), st.integers(1, 10**6)),
    st.builds(lambda k: Fraction(1, 10**k), st.integers(0, 400)),
)


@st.composite
def growth_cases(draw):
    """(epsilon, ratio): random ratios, exact powers (1+epsilon)^c, and those
    powers moved by 1/10^9 either way."""
    eps = draw(epsilons)
    kind = draw(st.sampled_from([0, 1, -1, None]))
    if kind is None:
        return eps, Fraction(draw(st.integers(1, 10**30)), draw(st.integers(1, 10**30)))
    return eps, (1 + eps) ** draw(st.integers(0, 40)) + kind * Fraction(1, 10**9)


class TestGrowthCap:
    def test_matches_linear_search(self):
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 10),
                    Fraction(1, 100), Fraction(7, 3)):
            ratios = [Fraction(1), Fraction(1, 2), Fraction(5, 4), Fraction(50),
                      Fraction(97, 3)]
            # exact powers sit on the boundary: (1+eps)^c == ratio
            ratios += [(1 + eps) ** c for c in (1, 2, 7, 40)]
            for ratio in ratios:
                assert _growth_cap(eps, ratio) == linear_growth_cap(eps, ratio)

    @given(growth_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_search(self, case):
        eps, ratio = case
        assert _growth_cap(eps, ratio) == reference_growth_cap(eps, ratio)

    @given(
        st.integers(1, 10**40),
        st.one_of(st.integers(0, 10**80), st.integers(0, 2**20)),
        st.integers(1, 600),
    )
    @settings(max_examples=200, deadline=None)
    def test_ln_bounds_the_logarithm(self, q, extra, prec):
        p = q + extra
        lo, err = _ln(p, q, prec)
        with localcontext() as ctx:
            # 2^prec * ln(p/q) has at most prec * log10(2) + 3 integer digits.
            ctx.prec = prec * 30103 // 100000 + 3 + 20
            exact = (Decimal(p) / Decimal(q)).ln() * Decimal(2) ** prec
        assert lo <= exact <= lo + err

    def test_tiny_epsilon_returns_at_once(self):
        # c = ceil(ln 50 / ln(1 + 1e-9)), from 50-digit logarithms.
        with localcontext() as ctx:
            ctx.prec = 50
            exact = Decimal(50).ln() / (1 + Decimal(10) ** -9).ln()
            expected = int(exact.to_integral_value(rounding=ROUND_CEILING))
        assert _growth_cap(Fraction(1, 10**9), Fraction(50)) == expected

    def test_extreme_epsilon_stays_fast(self):
        # The search on interval-bounded powers took 0.37 s on the 1/10^1000
        # case and 16-22 s on the two 1/10^4299 ones (2-core x86-64 host);
        # the logarithms take 0.006 s, 0.1 s and 1.3 s there.
        with localcontext() as ctx:
            ctx.prec = 1100
            exact = (Decimal(50) / 3).ln() / (1 + Decimal(10) ** -1000).ln()
            expected = int(exact.to_integral_value(rounding=ROUND_CEILING))
        start = time.perf_counter()
        assert _growth_cap(Fraction(1, 10**1000), Fraction(50, 3)) == expected
        assert time.perf_counter() - start < 3
        eps = Fraction(1, 10**4299)
        for ratio, bound in ((Fraction(50, 3), 1), (Fraction(10**4299 + 7, 3), 5)):
            start = time.perf_counter()
            c = _growth_cap(eps, ratio)
            assert time.perf_counter() - start < bound
            # c * epsilon is ln(ratio) to within about epsilon * ln(ratio)^2.
            ln_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
            assert math.isclose(c * eps, ln_ratio, rel_tol=1e-12)


def prefix_solve(array, j0: int, upto: int):
    """(vertices, weight) of an exact solve of the stand-alone subgraph on
    columns j0..upto of an axis-0 array, in the coordinates of its instance."""
    cells = {}
    for j in range(j0, upto + 1):
        for ridx, w in array.column(j).items():
            cells[(array.coords_of(ridx, j)[1:], j - j0 + 1)] = w
    sub = cells_inst(array.row_extents, array.omega, upto - j0 + 1, cells)
    sol = solve_exact_narrow(sub, 0)
    return tuple((c[0] + j0 - 1, *c[1:]) for c in sol.vertices), sol.total_weight


def prefix_weight(array, j0: int, upto: int) -> Fraction:
    """Exact best weight of the stand-alone subgraph on columns j0..upto."""
    return prefix_solve(array, j0, upto)[1]


def phase_oracle(array, j0: int, eps: Fraction):
    """Independent re-derivation of one phase from offline prefix solves.

    Returns (r_star, kept weight, next anchor, stopped_by_rule, degenerate).
    """
    omega = array.omega
    w_prev = prefix_weight(array, j0, j0)
    if w_prev == 0:
        return 0, Fraction(0), j0 + 1, True, True
    r = 0
    while True:
        end = j0 + (r + 1) * omega - 1
        if end > array.n:
            return r, prefix_weight(array, j0, array.n), array.n + 1, False, False
        w_next = prefix_weight(array, j0, end)
        if w_next < (1 + eps) * w_prev:
            return r, w_prev, end + 1, True, False
        w_prev = w_next
        r += 1


def assert_phases_match_oracle(inst, eps):
    array = build_array(inst, 0)
    j0 = 1
    while j0 <= array.n:
        exp_r, exp_w, exp_next, exp_stopped, exp_degenerate = phase_oracle(
            array, j0, eps
        )
        ph = run_phase(array, j0, eps)
        assert ph.j0 == j0
        assert ph.r == exp_r
        assert ph.current_weight == exp_w
        assert ph.stopped == exp_stopped
        assert ph.degenerate == exp_degenerate
        # A phase reads every column up to the next anchor and no further.
        assert ph.lookahead_used == exp_next - j0
        j0 = exp_next


def kept_columns(ph, n: int, omega: int) -> tuple[int, int]:
    """First and last column of the set a phase keeps: its anchor alone when
    degenerate, its last good round when stopped, else the rest of the array."""
    if not ph.stopped:
        return ph.j0, n
    return ph.j0, ph.j0 + max(ph.r * omega, 1) - 1


class TestRunPhase:
    def test_hand_trace_unit_row(self):
        # One row, omega 2, everything occupied, eps 1: the first extension
        # cannot double a single pick, so every phase stops at r*=0, keeps
        # its anchor column, and discards the examined pair of columns.
        array = build_array(unit_inst((8, 1), 2, [(j, 1) for j in range(1, 9)]), 0)
        for j0 in (1, 3, 5, 7):
            ph = run_phase(array, j0, Fraction(1))
            assert ph.j0 == j0
            assert ph.r == 0
            assert ph.current_weight == 1
            assert ph.best_set == ((j0, 1),)
            assert ph.lookahead_used == 2

    def test_growth_continues_while_ratio_holds(self):
        # Weights shaped so the first extension wins big and the second
        # stalls; the oracle decides where the rule fires.
        cells = {((1,), 1): 1, ((1,), 2): 2, ((1,), 4): 4}
        array = build_array(cells_inst((1,), 2, 8, cells), 0)
        eps = Fraction(9, 10)
        exp_r, exp_w, exp_next, exp_stopped, _ = phase_oracle(array, 1, eps)
        assert exp_r >= 1  # the 1 -> 2-or-better jump satisfies the test
        ph = run_phase(array, 1, eps)
        assert (ph.r, ph.current_weight, ph.stopped) == (exp_r, exp_w, exp_stopped)

    def test_degenerate_empty_anchor_advances_one(self):
        array = build_array(unit_inst((6, 1), 2, [(4, 1)]), 0)
        ph = run_phase(array, 1, Fraction(1))
        assert ph.degenerate and ph.current_weight == 0 and ph.best_set == ()
        assert ph.lookahead_used == 1
        assert not run_phase(array, 4, Fraction(1)).degenerate

    def test_stream_exhaustion_closes_prefix(self):
        # n < omega: the first extension does not exist; keep the DP best
        # over everything seen.
        inst = unit_inst((2, 1), 3, [(1, 1), (2, 1)])
        ph = run_phase(build_array(inst, 0), 1, Fraction(1))
        assert not ph.stopped
        assert ph.current_weight == solve_exact_narrow(inst, 0).total_weight
        assert ph.lookahead_used == 2

    def test_matches_oracle_on_random_instances(self):
        for seed in range(12):
            for k, om, n, dens in [(1, 2, 20, "0.5"), (2, 3, 24, "0.6"), (2, 2, 16, "0.35")]:
                cfg = GenConfig(
                    InstanceParams(2, (n, k), om), Fraction(dens), "const:1", seed
                )
                assert_phases_match_oracle(generate(cfg), Fraction(1))
                assert_phases_match_oracle(generate(cfg), Fraction(1, 2))

    def test_matches_oracle_weighted(self):
        for seed in range(8):
            cfg = GenConfig(
                InstanceParams(2, (18, 2), 3), Fraction(1, 2), "uniform:1:5", seed
            )
            assert_phases_match_oracle(generate(cfg), Fraction(1, 2))

    @pytest.mark.parametrize("weights", ["const:1", "uniform:1:5"])
    def test_each_phase_matches_a_fresh_solve_of_its_kept_columns(self, weights):
        # The incremental phase DP keeps exactly the set, and the weight, that
        # a from-scratch exact solve of the kept columns alone finds.
        for seed in range(6):
            cfg = GenConfig(InstanceParams(2, (30, 2), 3), Fraction(1, 2), weights, seed)
            inst = generate(cfg)
            array = build_array(inst, 0)
            phases = []
            solve_semionline(inst, Fraction(1), long_axis=0, on_phase=phases.append)
            assert phases
            for ph in phases:
                fresh = prefix_solve(array, *kept_columns(ph, array.n, array.omega))
                assert (tuple(sorted(ph.best_set)), ph.current_weight) == fresh


class TestSolveSemionline:
    def test_all_empty_stream(self):
        inst = unit_inst((10, 2), 3, [])
        sol = solve_semionline(inst, Fraction(1), long_axis=0)
        assert sol.total_weight == 0
        assert sol.meta["phases"] == 10  # one cheap skip per empty column

    def test_short_instance_equals_exact(self):
        inst = unit_inst((2, 1), 3, [(1, 1), (2, 1)])
        sol = solve_semionline(inst, Fraction(1), long_axis=0)
        assert sol.total_weight == solve_exact_narrow(inst, 0).total_weight

    def test_unit_ratio_and_lookahead(self):
        for seed in range(15):
            for k, om, n in [(1, 2, 40), (2, 3, 40), (2, 2, 30)]:
                cfg = GenConfig(
                    InstanceParams(2, (n, k), om), Fraction(1, 2), "const:1", seed
                )
                inst = generate(cfg)
                exact = solve_exact_narrow(inst, 0).total_weight
                for eps in (Fraction(1), Fraction(1, 2)):
                    sol = solve_semionline(inst, eps, long_axis=0)
                    assert sol.total_weight * (1 + eps) >= exact
                    assert is_independent(inst, sol.vertices)
                    limit = max_lookahead(k, 2, eps, om)
                    assert sol.meta["lookahead_max_used"] <= limit
                    assert sol.meta["lookahead_limit"] == limit

    def test_weighted_instances_run_and_verify(self):
        for seed in range(6):
            cfg = GenConfig(
                InstanceParams(2, (24, 2), 3), Fraction(1, 2), "uniform:1:5", seed
            )
            inst = generate(cfg)
            sol = solve_semionline(inst, Fraction(1, 2), long_axis=0)
            assert verify(inst, sol).independent
            assert sol.meta["lookahead_max_used"] <= sol.meta["lookahead_limit"]

    def test_full_occupancy_extreme(self):
        inst = unit_inst((30, 2), 2, [(j, i) for j in range(1, 31) for i in (1, 2)])
        sol = solve_semionline(inst, Fraction(1), long_axis=0)
        assert sol.meta["phases"] >= 1
        assert is_independent(inst, sol.vertices)

    def test_phase_callback_sees_every_phase(self):
        inst = unit_inst((12, 1), 2, [(j, 1) for j in range(1, 13)])
        seen = []
        solve_semionline(inst, Fraction(1), long_axis=0, on_phase=seen.append)
        assert [ph.j0 for ph in seen] == [1, 3, 5, 7, 9, 11]

    def test_epsilon_validated(self):
        inst = unit_inst((4, 1), 2, [(1, 1)])
        with pytest.raises(ValidationError):
            solve_semionline(inst, Fraction(0), long_axis=0)

    def test_fraction_epsilon_is_not_read_again(self, monkeypatch):
        # A checked Fraction passes ``parse_rational`` as it is, so the
        # phases do not re-read the epsilon that ``solve_semionline`` took.
        cfg = GenConfig(InstanceParams(2, (1000, 3), 3), Fraction(1, 2), "const:1", 1)
        inst = generate(cfg)
        reads = []

        def counting(value):
            reads.append(value)
            return exact_fraction(value)

        monkeypatch.setattr(core, "exact_fraction", counting)
        sol = solve_semionline(inst, Fraction(1, 2), long_axis=0)
        assert sol.meta["phases"] > 100
        assert reads == []

    def test_streams_along_a_non_default_axis(self):
        cfg = GenConfig(InstanceParams(2, (2, 25), 3), Fraction(1, 2), "const:1", 6)
        inst = generate(cfg)
        sol = solve_semionline(inst, Fraction(1), long_axis=1)
        assert verify(inst, sol).independent
        exact = solve_exact_narrow(inst, 1).total_weight
        assert sol.total_weight * 2 >= exact


class TestStreams:
    def test_reveal_consumed_column_rejected(self, monkeypatch):
        # No column is read again once a phase has consumed it: each phase
        # anchors on the column after the last one its predecessor read.
        inst = unit_inst((6, 1), 2, [(j, 1) for j in range(1, 7)])
        reads = spy_columns(monkeypatch)
        phases = []
        solve_semionline(
            inst,
            Fraction(1),
            long_axis=0,
            on_phase=lambda ph: phases.append((ph.j0, ph.lookahead_used, len(reads))),
        )
        assert reads == [1, 2, 3, 4, 5, 6]
        assert phases == [(1, 2, 2), (3, 2, 4), (5, 2, 6)]

    def test_lookahead_meter(self, monkeypatch):
        # lookahead_used counts the columns a phase read, from its anchor on.
        array = build_array(unit_inst((6, 1), 2, [(j, 1) for j in range(1, 7)]), 0)
        reads = spy_columns(monkeypatch)
        for j0, used in ((1, 2), (3, 2), (6, 1)):
            reads.clear()
            assert run_phase(array, j0, Fraction(1)).lookahead_used == used
            assert reads == list(range(j0, j0 + used))

    def test_refuses_huge_cross_section_before_building_rows(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "huge.losn"
        path.write_text(
            "losn v1\nd=2 omega=3 extents=1000000,1000000\nv 1 1 1\n",
            encoding="utf-8",
        )

        def no_masks(extents, omega):
            raise AssertionError(f"conflict masks built for {extents}")

        monkeypatch.setattr("losnet.narrow.box_conflicts", no_masks)
        with pytest.raises(CapacityError, match="rows=1000000"):
            solve_semionline(load_instance(path), 1)

    def test_huge_stream_builds_no_rows(self, tmp_path, monkeypatch):
        path = tmp_path / "huge.losn"
        path.write_text(
            "losn v1\nd=2 omega=3 extents=1000000,1000000\nv 1 1000000 1\n",
            encoding="utf-8",
        )

        def no_masks(extents, omega):
            raise AssertionError(f"conflict masks built for {extents}")

        monkeypatch.setattr("losnet.narrow.box_conflicts", no_masks)
        array = build_array(load_instance(path), 0)
        assert array.row_extents == (10**6,)
        assert array.column(1) == {10**6 - 1: 1}
        assert array.column(2) == {}

    def test_saved_instance_matches_memory(self, tmp_path):
        cfg = GenConfig(InstanceParams(2, (30, 2), 3), Fraction(11, 20), "const:1", 11)
        inst = generate(cfg)
        path = tmp_path / "s.losn"
        save_instance(path, inst)
        mem = solve_semionline(inst, Fraction(1, 2), long_axis=0)
        fil = solve_semionline(load_instance(path), Fraction(1, 2), long_axis=0)
        assert mem.vertices == fil.vertices
        assert mem.total_weight == fil.total_weight
        # totals are known upfront for every input, so the limit is recorded
        assert fil.meta["lookahead_limit"] == max_lookahead(2, 2, Fraction(1, 2), 3)

    def test_budget_is_the_callers(self):
        cfg = GenConfig(InstanceParams(2, (12, 3), 3), Fraction(1, 2), "const:1", 4)
        inst = generate(cfg)
        with pytest.raises(CapacityError, match="budget 63"):
            solve_semionline(inst, 1, budget=63)
        solve_semionline(inst, 1, budget=64)


@st.composite
def stream_cases(draw):
    """A small narrow instance along axis 0 (d = 2..3, omega = 2..4, unit or
    uniform weights) and an epsilon."""
    d = draw(st.integers(2, 3))
    cross = tuple(draw(st.integers(1, 3 if d == 2 else 2)) for _ in range(d - 1))
    params = InstanceParams(d, (draw(st.integers(1, 14)), *cross), draw(st.integers(2, 4)))
    density = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)]))
    weights = draw(st.sampled_from(["const:1", "uniform:1:5"]))
    inst = generate(GenConfig(params, density, weights, draw(st.integers(0, 2**16))))
    eps = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3)]))
    return inst, eps


@given(stream_cases())
@settings(max_examples=60, deadline=None)
def test_saved_instance_solves_as_memory(tmp_path_factory, case):
    inst, eps = case
    path = tmp_path_factory.mktemp("stream") / "s.losn"
    save_instance(path, inst)
    mem = solve_semionline(inst, eps, long_axis=0)
    fil = solve_semionline(load_instance(path), eps, long_axis=0)
    assert fil.vertices == mem.vertices
    assert fil.total_weight == mem.total_weight
    assert fil.meta == mem.meta


def spy_columns(monkeypatch) -> list[int]:
    """The columns ``NarrowArray.column`` is asked for, in call order."""
    reads = []
    column = NarrowArray.column

    def spy(self, j):
        reads.append(j)
        return column(self, j)

    monkeypatch.setattr(NarrowArray, "column", spy)
    return reads


class TestPhasesTileTheColumns:
    @given(stream_cases())
    @settings(max_examples=60, deadline=None)
    def test_solve_reads_every_column_once_in_order(self, case):
        # Phase i reads exactly j0_i .. j0_i + lookahead_used_i - 1, and the
        # next anchors right after: the run reads columns 1..n once each.
        inst, eps = case
        phases = []
        with pytest.MonkeyPatch.context() as mp:
            reads = spy_columns(mp)
            solve_semionline(
                inst, eps, long_axis=0, on_phase=lambda ph: phases.append((ph, len(reads)))
            )
        assert reads == list(range(1, inst.params.extents[0] + 1))
        start = 0
        for ph, end in phases:
            assert reads[start:end] == list(range(ph.j0, ph.j0 + ph.lookahead_used))
            start = end

    def test_anchor_outside_the_columns_refused(self, monkeypatch):
        array = build_array(unit_inst((6, 1), 2, [(j, 1) for j in range(1, 7)]), 0)
        reads = spy_columns(monkeypatch)
        for j0 in (0, array.n + 1):
            with pytest.raises(ValidationError, match=f"anchor column {j0} outside 1..6"):
                run_phase(array, j0, Fraction(1))
        assert reads == []
        assert run_phase(array, array.n, Fraction(1)).lookahead_used == 1


HEAD = "losn v1\nd=2 omega=2 extents=6,2\n"


def test_unsorted_lines_solve_as_sorted(tmp_path):
    lines = ["v 1 1 1\n", "v 3 2 2\n", "v 4 1 1\n", "v 6 2 3\n"]
    sorted_path, unsorted_path = tmp_path / "sorted.losn", tmp_path / "unsorted.losn"
    sorted_path.write_text(HEAD + "".join(lines), encoding="utf-8")
    unsorted_path.write_text(HEAD + "".join(reversed(lines)), encoding="utf-8")
    inst = load_instance(unsorted_path)
    assert inst == load_instance(sorted_path)
    assert solve_semionline(inst, 1) == solve_semionline(load_instance(sorted_path), 1)
