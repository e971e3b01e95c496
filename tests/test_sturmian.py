"""Rotation codings: prefixes, interval partitions, arithmetic ASF counts."""

from fractions import Fraction

import pytest

from absquares.counting import FactorIndex, asf_profile
from absquares.quadratic import GOLDEN_ANGLE, QI, SILVER_ANGLE
from absquares.sturmian import (
    SturmianSpec,
    fibonacci_word,
    interval_partition,
    sturmian_asf,
    sturmian_asf_range,
    sturmian_prefix,
)
from absquares.words import is_abelian_square, is_balanced, parikh

# a third quadratic angle to keep the golden/silver pair honest; its
# continued fraction [0; 1, (2, 1)] needs a preperiod before folding
SQRT3_ANGLE = QI.sqrt(3) - 1


class TestPrefixes:
    def test_fibonacci_golden_prefix(self):
        assert fibonacci_word(15).text() == "abaababaabaabab"

    def test_prefixes_nest(self):
        spec = SturmianSpec(SILVER_ANGLE, SILVER_ANGLE)
        long = sturmian_prefix(spec, 200)
        assert sturmian_prefix(spec, 77) == long[:77]

    def test_rho_zero_differs_from_characteristic(self):
        char = sturmian_prefix(SturmianSpec(GOLDEN_ANGLE, GOLDEN_ANGLE), 50)
        from_zero = sturmian_prefix(SturmianSpec(GOLDEN_ANGLE, QI.from_rational(0)), 50)
        assert char != from_zero

    def test_conventions_agree_off_the_orbit(self):
        # rho = alpha: the orbit never hits a discontinuity, so left/right
        # conventions produce the same word
        left = sturmian_prefix(SturmianSpec(GOLDEN_ANGLE, GOLDEN_ANGLE, "left"), 300)
        right = sturmian_prefix(SturmianSpec(GOLDEN_ANGLE, GOLDEN_ANGLE, "right"), 300)
        assert left == right

    def test_conventions_differ_at_zero(self):
        left = sturmian_prefix(SturmianSpec(GOLDEN_ANGLE, QI.from_rational(0), "left"), 5)
        right = sturmian_prefix(SturmianSpec(GOLDEN_ANGLE, QI.from_rational(0), "right"), 5)
        assert left[0] != right[0]

    def test_rational_angle_rejected(self):
        with pytest.raises(ValueError):
            SturmianSpec(QI.from_rational(Fraction(1, 3)), QI.from_rational(0))

    def test_angle_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            SturmianSpec(GOLDEN_ANGLE + 1, GOLDEN_ANGLE)

    @pytest.mark.parametrize("angle", [GOLDEN_ANGLE, SILVER_ANGLE, SQRT3_ANGLE])
    def test_prefixes_balanced(self, angle):
        assert is_balanced(sturmian_prefix(SturmianSpec(angle, angle), 600))

    @pytest.mark.parametrize("angle", [GOLDEN_ANGLE, SILVER_ANGLE, SQRT3_ANGLE])
    def test_factor_complexity_n_plus_one(self, angle):
        prefix = sturmian_prefix(SturmianSpec(angle, angle), 3000)
        idx = FactorIndex(prefix)
        for n in range(1, 31):
            assert idx.distinct_count(n) == n + 1

    def test_conventions_share_factor_sets(self):
        # the two codings disagree letter by letter when the orbit hits the
        # break point, but they walk the same rotation, so the factor sets
        # coincide; rho = 0 maximizes the letterwise disagreement
        left = sturmian_prefix(SturmianSpec(GOLDEN_ANGLE, QI.from_rational(0), "left"), 4000)
        right = sturmian_prefix(SturmianSpec(GOLDEN_ANGLE, QI.from_rational(0), "right"), 4000)
        assert left != right
        left_idx, right_idx = FactorIndex(left), FactorIndex(right)
        for n in range(1, 61):
            assert left_idx.distinct_count(n) == n + 1  # adequate prefix
            left_set = {f.text() for f in left_idx.distinct_factors(n)}
            right_set = {f.text() for f in right_idx.distinct_factors(n)}
            assert left_set == right_set


class TestIntervalPartition:
    def test_cells_count(self):
        part = interval_partition(GOLDEN_ANGLE, 6)
        assert len(part.entries) == 7
        assert part.points[0] == 0 and part.points[-1] == 1

    def test_factors_are_exactly_the_length_6_factors(self):
        part = interval_partition(GOLDEN_ANGLE, 6)
        factors = {e.factor.text() for e in part.entries}
        idx = FactorIndex(fibonacci_word(500))
        assert factors == {f.text() for f in idx.distinct_factors(6)}

    def test_heavy_flag_matches_a_count(self):
        part = interval_partition(GOLDEN_ANGLE, 9)
        light = (GOLDEN_ANGLE * 9).floor()
        for entry in part.entries:
            a_count = parikh(entry.factor).counts[0]
            assert a_count == (light + 1 if entry.heavy else light)

    def test_partition_lengths_sum_to_one(self):
        part = interval_partition(SILVER_ANGLE, 11)
        total = QI.from_rational(0)
        for entry in part.entries:
            total = total + (entry.hi - entry.lo)
        assert total == 1

    @pytest.mark.parametrize("angle", [GOLDEN_ANGLE, SILVER_ANGLE, SQRT3_ANGLE])
    def test_square_factors_follow_threshold_rule(self, angle):
        # which length-n factors are abelian squares is decided by where the
        # cell sits relative to {-n*alpha}, with the side flipping on the
        # parity of floor(n*alpha)
        for n in range(2, 61, 2):
            part = interval_partition(angle, n)
            threshold = (-(angle * n)).frac()
            even = (angle * n).floor() % 2 == 0
            for entry in part.entries:
                expected = (entry.lo < threshold) if even else (entry.lo >= threshold)
                assert is_abelian_square(entry.factor) == expected


class TestArithmeticCounts:
    def test_odd_lengths_rejected(self):
        with pytest.raises(ValueError):
            sturmian_asf(GOLDEN_ANGLE, 7)

    def test_zero_length(self):
        assert sturmian_asf(GOLDEN_ANGLE, 0) == 0

    def test_known_golden_values(self):
        assert sturmian_asf(GOLDEN_ANGLE, 6) == 5
        assert sturmian_asf(GOLDEN_ANGLE, 8) == 1

    def test_range_matches_single_calls(self):
        table = sturmian_asf_range(GOLDEN_ANGLE, 40)
        assert set(table) == set(range(2, 41, 2))
        for n, value in table.items():
            assert value == sturmian_asf(GOLDEN_ANGLE, n)

    @pytest.mark.parametrize("angle", [GOLDEN_ANGLE, SILVER_ANGLE, SQRT3_ANGLE])
    def test_matches_prefix_counting(self, angle):
        prefix = sturmian_prefix(SturmianSpec(angle, angle), 4000)
        idx = FactorIndex(prefix)
        # adequacy: the prefix knows all factors of these lengths
        for n in range(1, 41):
            assert idx.distinct_count(n) == n + 1
        profile = asf_profile(prefix, 40, idx)
        table = sturmian_asf_range(angle, 40)
        for n in range(2, 41, 2):
            assert table[n] == profile.count(n), f"mismatch at n={n}"

    def test_at_most_one_parikh_class_per_length(self, fib_index):
        for n in range(2, 101, 2):
            assert fib_index.abelian_square_parikh_classes(n) <= 1
