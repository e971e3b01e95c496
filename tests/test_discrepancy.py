"""Exact discrepancy of rotation orbits and the growth certificate."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from absquares.discrepancy import (
    PointSequence,
    certificate_sweep,
    discrepancy,
    discrepancy_bruteforce,
    growth_certificate,
    kn2_bound,
    rotation_discrepancy,
    rotation_orbit,
)
from absquares.quadratic import GOLDEN_ANGLE, QI, SILVER_ANGLE


def witness_error(points, witness):
    """|count/N - length| of the witness interval on the points."""
    g, g_closed, d, d_closed = witness
    inside = sum(
        1
        for y in points
        if (g <= y if g_closed else g < y) and (y <= d if d_closed else y < d)
    )
    return abs(Fraction(inside, len(points)) - (d - g))


class TestPointSequence:
    def test_points_must_live_in_unit_interval(self):
        with pytest.raises(ValueError):
            PointSequence((Fraction(1, 2), Fraction(3, 2)), "test")

    def test_rotation_orbit_points(self):
        seq = rotation_orbit(GOLDEN_ANGLE, 3)
        assert len(seq.points) == 3
        assert seq.points[0] == GOLDEN_ANGLE
        assert seq.points[1] == (GOLDEN_ANGLE * 2).frac()


class TestDiscrepancy:
    def test_single_point(self):
        # one point: a closed degenerate interval holds it with zero measure
        report = discrepancy(PointSequence((Fraction(1, 2),), "test"))
        assert report.value == 1

    def test_uniform_grid_is_optimal(self):
        # the shifted grid (2i-1)/2n achieves the minimum 1/n exactly
        n = 8
        pts = tuple(Fraction(2 * i - 1, 2 * n) for i in range(1, n + 1))
        assert discrepancy(PointSequence(pts, "grid")).value == Fraction(1, n)

    def test_golden_orbit_of_three(self):
        report = rotation_discrepancy(GOLDEN_ANGLE, 3)
        assert report.value == QI(8, -3, 3, 5)  # (8 - 3*sqrt(5)) / 3

    def test_witness_attains_value(self):
        report = rotation_discrepancy(GOLDEN_ANGLE, 12)
        seq = rotation_orbit(GOLDEN_ANGLE, 12)
        g, g_closed, d, d_closed = report.witness
        inside = 0
        for p in seq.points:
            lo_ok = g <= p if g_closed else g < p
            hi_ok = p <= d if d_closed else p < d
            if lo_ok and hi_ok:
                inside += 1
        assert abs(Fraction(inside, 12) - (d - g)) == report.value

    def test_closed_form_matches_bruteforce_on_random_rationals(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 50)
            pts = tuple(
                sorted(Fraction(rng.randrange(denom), denom) for denom in
                       [rng.choice([7, 16, 31, 100])] * n)
            )
            seq = PointSequence(pts, "random")
            assert discrepancy(seq).value == discrepancy_bruteforce(seq)

    @given(st.integers(min_value=1, max_value=30))
    def test_closed_form_matches_bruteforce_on_orbits(self, n):
        seq = rotation_orbit(GOLDEN_ANGLE, n)
        assert discrepancy(seq).value == discrepancy_bruteforce(seq)

    @pytest.mark.parametrize("angle", [GOLDEN_ANGLE, SILVER_ANGLE])
    def test_closed_form_matches_bruteforce_on_orbit_prefixes(self, angle):
        # every tiny orbit, then a sample of larger ones: the brute force is
        # cubic in n with exact arithmetic
        for n in [*range(1, 31), 36, 43, 50]:
            seq = rotation_orbit(angle, n)
            assert discrepancy(seq).value == discrepancy_bruteforce(seq)

    def test_witness_rule_attains_bruteforce_on_random_rationals_with_ties(self):
        rng = random.Random(300)
        for _ in range(300):
            denom = rng.choice([2, 3, 5, 8, 13])
            pts = [Fraction(rng.randrange(denom), denom) for _ in range(rng.randint(1, 30))]
            report = discrepancy(PointSequence(tuple(pts), "random"))
            assert witness_error(pts, report.witness) == report.value
            assert report.value == discrepancy_bruteforce(pts)

    @pytest.mark.parametrize("n", [5, 50, 100, 200])
    def test_witness_rule_attains_bruteforce_on_golden_orbits(self, n):
        report = rotation_discrepancy(GOLDEN_ANGLE, n)
        pts = rotation_orbit(GOLDEN_ANGLE, n).points
        assert witness_error(pts, report.witness) == report.value
        assert report.value == discrepancy_bruteforce(pts)

    def test_witness_only_up_to_the_limit(self):
        assert rotation_discrepancy(GOLDEN_ANGLE, 300).witness is None
        assert rotation_discrepancy(GOLDEN_ANGLE, 300, witness_limit=300).witness is not None
        assert rotation_discrepancy(GOLDEN_ANGLE, 20, witness_limit=0).witness is None

    def test_more_points_do_not_hurt_much(self):
        # equidistribution: D_N -> 0 along the golden orbit
        d_small = rotation_discrepancy(GOLDEN_ANGLE, 10).value
        d_large = rotation_discrepancy(GOLDEN_ANGLE, 500).value
        assert float(d_large) < float(d_small) / 5


class TestBound:
    def test_bound_value_small(self):
        assert kn2_bound(3, 1) == pytest.approx(
            3.0 + (1 / math.log((1 + 5**0.5) / 2) + 1 / math.log(2)) * math.log(3)
        )

    def test_quotient_bound_derived_from_angle(self):
        assert rotation_discrepancy(GOLDEN_ANGLE, 10).quotient_bound == 1
        assert rotation_discrepancy(SILVER_ANGLE, 10).quotient_bound == 2

    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("angle", [GOLDEN_ANGLE, SILVER_ANGLE])
    def test_scaled_discrepancy_within_bound(self, angle, n):
        assert rotation_discrepancy(angle, n, witness_limit=0).within_bound

    def test_within_bound_is_exact_comparison(self):
        report = rotation_discrepancy(GOLDEN_ANGLE, 3)
        assert report.within_bound
        assert float(report.scaled()) < report.bound


class TestCertificate:
    def test_n36_golden(self):
        report = growth_certificate(GOLDEN_ANGLE, 36)
        assert (report.count_a, report.count_b) == (5, 3)
        assert report.product == 15
        assert report.asf_sum == 180

    @pytest.mark.parametrize("angle", [GOLDEN_ANGLE, SILVER_ANGLE])
    @pytest.mark.parametrize("n", [2, 36, 500])
    def test_single_certificate_is_last_sweep_row(self, angle, n):
        assert growth_certificate(angle, n) == certificate_sweep(angle, n)[-1]

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            growth_certificate(GOLDEN_ANGLE, 35)

    def test_sweep_agrees_with_single_calls(self):
        reports = {r.n: r for r in certificate_sweep(GOLDEN_ANGLE, 120)}
        assert set(reports) == set(range(2, 121, 2))
        for n in (2, 36, 80, 120):
            single = growth_certificate(GOLDEN_ANGLE, n)
            assert (reports[n].count_a, reports[n].count_b, reports[n].asf_sum) == (
                single.count_a,
                single.count_b,
                single.asf_sum,
            )

    def test_product_stays_below_sum(self):
        for report in certificate_sweep(SILVER_ANGLE, 300):
            assert report.product <= report.asf_sum

    def test_quadratic_density_stabilizes(self):
        # product / n^2 should neither vanish nor blow up at large n
        reports = [r for r in certificate_sweep(GOLDEN_ANGLE, 1000) if r.n >= 500]
        ratios = [r.product / (r.n * r.n) for r in reports]
        assert 0.004 < min(ratios) and max(ratios) < 0.02

    def test_fitted_constant_stable(self):
        # the implied constant in asf_sum >= C * n^2 settles down: every
        # ratio past n = 500 sits within 20% of the running mean
        reports = [r for r in certificate_sweep(GOLDEN_ANGLE, 2000) if r.n >= 500]
        ratios = [r.asf_sum / (r.n * r.n) for r in reports]
        mean = sum(ratios) / len(ratios)
        assert all(0.8 * mean <= ratio <= 1.2 * mean for ratio in ratios)
