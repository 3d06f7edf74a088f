import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losnet import (
    AdsInstance,
    CapacityError,
    NarrowDp,
    ValidationError,
    brute_adssched,
    solve_adssched,
    verify_ads,
)
from losnet.adssched import _client_rows, count_ads_windows


def full(k, n):
    return tuple((1,) * n for _ in range(k))


class TestAdsInstance:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ValidationError, match="capacity"):
            AdsInstance(2, 4, 2, 0, full(2, 4))

    def test_capacity_above_clients_is_legal(self):
        ads = AdsInstance(2, 1, 2, 9, full(2, 1))
        assert solve_adssched(ads).total_weight == 2

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            AdsInstance(2, 4, 2, 1, ((1, 1, 1, 1),))

    def test_weight_on_unavailable_pair_rejected(self):
        with pytest.raises(ValidationError, match="unavailable"):
            AdsInstance(1, 2, 2, 1, ((1, 0),), {(1, 2): Fraction(2)})


class TestSolve:
    def test_two_clients_interleave(self):
        # Each client twice, alternating slots: derived via the brute oracle.
        ads = AdsInstance(2, 4, 2, 1, full(2, 4))
        sol = solve_adssched(ads)
        oracle = brute_adssched(ads)
        assert sol.total_weight == oracle.total_weight == 4
        assert verify_ads(ads, sol).independent

    def test_single_column_capacity_slack(self):
        ads = AdsInstance(3, 1, 2, 3, full(3, 1))
        assert solve_adssched(ads).total_weight == 3

    def test_one_client_spacing(self):
        for n, omega in [(10, 3), (9, 2), (6, 6)]:
            ads = AdsInstance(1, n, omega, 1, full(1, n))
            expected = -(-n // omega)  # ceil(n/omega)
            assert solve_adssched(ads).total_weight == expected

    def test_all_unavailable(self):
        ads = AdsInstance(2, 3, 2, 1, ((0, 0, 0), (0, 0, 0)))
        sol = solve_adssched(ads)
        assert sol.total_weight == 0
        assert sol.vertices == ()

    def test_weighted_picks_heavy(self):
        ads = AdsInstance(
            2, 2, 3, 1, full(2, 2), {(1, 1): Fraction(5), (2, 2): Fraction(1)}
        )
        sol = solve_adssched(ads)
        oracle = brute_adssched(ads)
        assert sol.total_weight == oracle.total_weight == 6

    def test_budget_capacity_error(self):
        ads = AdsInstance(8, 2, 3, 1, full(8, 2))
        with pytest.raises(CapacityError, match="budget"):
            solve_adssched(ads, budget=100)

    def test_budget_counts_schedule_windows_not_raw_stencils(self):
        # The budget bounds the capacity-limited windows; the raw
        # (omega+1)^k count of the independent-set DP does not apply.
        ads = AdsInstance(6, 8, 3, 1, full(6, 8))
        size = count_ads_windows(6, 3, 1)
        assert size < (3 + 1) ** 6
        assert solve_adssched(ads, budget=size).total_weight == 8
        with pytest.raises(CapacityError, match="budget"):
            solve_adssched(ads, budget=size - 1)

    def test_wide_gap_beyond_byte_window_keys(self):
        ads = AdsInstance(2, 9, 300, 1, full(2, 9))
        assert solve_adssched(ads).total_weight == 2

    def test_random_sweep_matches_oracle(self):
        rnd = random.Random(0)
        for _ in range(60):
            k = rnd.randint(1, 3)
            n = rnd.randint(1, 6)
            avail = tuple(
                tuple(rnd.randint(0, 1) for _ in range(n)) for _ in range(k)
            )
            ads = AdsInstance(k, n, rnd.choice([2, 3]), rnd.choice([1, 2]), avail)
            sol = solve_adssched(ads)
            oracle = brute_adssched(ads)
            assert sol.total_weight == oracle.total_weight, ads
            assert verify_ads(ads, sol).independent

    def test_schedule_structurally_feasible(self):
        rnd = random.Random(1)
        avail = tuple(tuple(rnd.randint(0, 1) for _ in range(8)) for _ in range(4))
        ads = AdsInstance(4, 8, 3, 2, avail)
        sol = solve_adssched(ads)
        report = verify_ads(ads, sol)
        assert report.independent, report.violations

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_exactly(self, data):
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 6))
        omega = data.draw(st.integers(2, 4))
        cap = data.draw(st.integers(1, k + 1))
        avail = tuple(
            tuple(data.draw(st.integers(0, 1)) for _ in range(n)) for _ in range(k)
        )
        weights = {
            (c + 1, t + 1): Fraction(
                data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
            )
            for c in range(k)
            for t in range(n)
            if avail[c][t]
        }
        ads = AdsInstance(k, n, omega, cap, avail, weights)
        sol = solve_adssched(ads)
        assert sol.total_weight == brute_adssched(ads, cap=k * n).total_weight
        report = verify_ads(ads, sol)
        assert report.independent, report.violations


class TestWindowCount:
    def test_small_counts_by_hand(self):
        assert count_ads_windows(1, 2, 1) == 3  # none, slot 1, slot 2
        assert count_ads_windows(2, 2, 1) == 7  # 9 maps minus 2 same-column
        assert count_ads_windows(2, 2, 2) == 9  # capacity never binds

    def test_schedule_dp_windows_match_count(self):
        for k in range(1, 6):
            for omega in (2, 3, 4):
                for cap in range(1, k + 2):
                    dp = NarrowDp(_client_rows(k), omega, capacity=cap)
                    assert len(dp.windows) == count_ads_windows(k, omega, cap)


class TestBruteCaps:
    def test_cell_cap(self):
        with pytest.raises(CapacityError):
            brute_adssched(AdsInstance(3, 7, 2, 1, full(3, 7)))
