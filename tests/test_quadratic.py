"""Exact quadratic-irrational arithmetic and continued fractions."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import qi_reference
from absquares import quadratic
from absquares.quadratic import (
    GOLDEN_ANGLE,
    PHI,
    QI,
    SILVER_ANGLE,
    cf_expand,
    cf_step_bound,
    cf_value,
    parse_angle,
    parse_cf,
)

small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=50
)


qi_values = st.builds(
    lambda p, q, r: QI(p, q, r, 5),
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.integers(1, 7),
)


def field_results(raw_pairs):
    """Canonical forms of the four operations on each pair of raw (p, q, r, d)."""
    out = []
    for x, y in raw_pairs:
        a, b = QI(*x), QI(*y)
        results = [a + b, a - b, a * b] + ([a / b] if b.sign() else [])
        out.append([v.as_tuple() for v in results])
    return out


class TestSquareSplitCache:
    def test_large_radicand_divides_once(self):
        quadratic._split_square.cache_clear()
        x = parse_angle("qi:(-31622,1,1,1000000007)")
        y = ((x + 1) * x - x / 3 + x * x).frac()
        assert y.d == 1000000007 and 0 < y < 1
        assert quadratic._split_square.cache_info().misses == 1

    def test_canonical_forms_unchanged(self, monkeypatch):
        rng = random.Random(7)
        raw = []
        for _ in range(300):
            d = rng.choice([2, 8, 12, 18, 50, 72, 1000000007, rng.randint(2, 10**5)])
            raw.append(tuple(
                (rng.randint(-50, 50), rng.randint(-9, 9), rng.randint(1, 9), d) for _ in "ab"
            ))
        cached = field_results(raw)
        monkeypatch.setattr(quadratic, "_split_square", quadratic._split_square.__wrapped__)
        assert field_results(raw) == cached


class TestSquareSplit:
    def test_equals_the_square_root_trial_division(self):
        rng = random.Random(29)
        grid = [*range(20_000), *(rng.randrange(10**9) for _ in range(1000))]
        grid += [rng.randrange(10**12) for _ in range(20)]
        split = quadratic._split_square.__wrapped__
        assert [split(d) for d in grid] == [qi_reference.split_square(d) for d in grid]

    @pytest.mark.parametrize("p, q", [(999_983, 999_979), (999_983, 2), (2, 999_983), (999_979, 1)])
    def test_square_of_a_prime_above_the_cube_root(self, p, q):
        # p**2 * q with p near 10^6: trial division stops near cbrt(d) < p
        assert quadratic._split_square.__wrapped__(p * p * q) == (p, q)

    def test_products_of_two_large_primes_stay_squarefree(self):
        d = 999_983 * 999_979 * 6
        assert quadratic._split_square.__wrapped__(d) == (1, d)


class TestArithmetic:
    def test_phi_satisfies_its_equation(self):
        assert PHI * PHI == PHI + 1
        assert 1 / PHI == PHI - 1 == GOLDEN_ANGLE

    def test_silver_angle(self):
        assert (SILVER_ANGLE + 1) * (SILVER_ANGLE + 1) == QI.from_rational(2)

    def test_rational_detection(self):
        assert QI(3, 0, 2, 5).is_rational
        assert QI(0, 2, 1, 4).is_rational  # 2*sqrt(4) = 4
        assert QI(1, 1, 2, 0).is_rational and QI(1, 1, 2, 0) == Fraction(1, 2)
        assert QI.sqrt(0).is_rational and QI.sqrt(0) == 0
        # a rational value hashes as its Fraction, so either finds the other's key
        assert hash(QI(1, 1, 2, 0)) == hash(Fraction(1, 2)) and hash(QI.sqrt(0)) == hash(0)
        assert hash(QI(3, 0, 2, 0)) == hash(Fraction(3, 2))
        assert {Fraction(3, 2): "found"}[QI(3, 0, 2, 0)] == "found"
        assert not GOLDEN_ANGLE.is_rational

    def test_ordering(self):
        assert 1 < QI.sqrt(2) < 2
        assert GOLDEN_ANGLE < Fraction(2, 3) < PHI

    def test_mixed_radicands_rejected(self):
        # single-radical representation: sqrt(2) and sqrt(3) cannot meet
        with pytest.raises(ValueError):
            QI.sqrt(2) < QI.sqrt(3)

    def test_floor_and_frac(self):
        assert PHI.floor() == 1
        assert (-PHI).floor() == -2
        assert (PHI.frac() - GOLDEN_ANGLE).sign() == 0

    def test_order_and_floor_build_no_values(self, monkeypatch):
        x, y = QI(-31622, 1, 1, 1000000007), QI(3, -2, 7, 1000000007)
        half, three = QI(1, 0, 2, 0), QI(3, 0, 1, 0)
        built = []
        init = QI.__init__
        monkeypatch.setattr(QI, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        assert (x < y, x == y, x == x, y.floor(), x.floor()) == (False, False, True, -9035, 0)
        # an int or Fraction operand is compared with the canonical form as it is
        rational = (half == Fraction(1, 2), half == 1, three == 3, three == Fraction(3, 2))
        assert rational + (x == -31622, y != 0) == (True, False, True, False, False, True)
        assert built == []

    def test_abs(self):
        assert abs(GOLDEN_ANGLE - 1) == 1 - GOLDEN_ANGLE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            PHI / QI.from_rational(0)

    @given(qi_values, qi_values)
    def test_field_ops_against_floats(self, x, y):
        # crude but independent: exact ops must track float ops closely
        fx, fy = float(x), float(y)
        assert float(x + y) == pytest.approx(fx + fy, abs=1e-9)
        assert float(x * y) == pytest.approx(fx * fy, abs=1e-9)

    @given(qi_values)
    def test_floor_matches_float(self, x):
        # the float is accurate to ~1e-12 here, never at an integer boundary
        # unless x is that integer exactly
        if x.is_rational and Fraction(x.p, x.r).denominator == 1:
            assert x.floor() == x.p // x.r
        else:
            assert x.floor() == int(float(x) // 1)

    @given(qi_values)
    def test_frac_in_unit_interval(self, x):
        f = x.frac()
        assert f.sign() >= 0 and f < 1


def bound_angles():
    """200 angles with small coefficients, the first of period 12,352."""
    rng = random.Random(409)
    angles = [QI(-31622, 1, 1, 1000000007), GOLDEN_ANGLE, QI(5, -2, 7, 3)]
    while len(angles) < 200:
        x = QI(rng.randint(-60, 60), rng.choice([-3, -1, 1, 2]), rng.randint(1, 60), rng.randint(2, 1000))
        if not x.is_rational:
            angles.append(x)
    return angles


def repeat_angles():
    """The irrationals among 300 draws with p up to 10^6 and r up to 3000."""
    rng = random.Random(1009)
    draws = [
        QI(rng.randint(-10**6, 10**6), rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3000), rng.randint(2, 300))
        for _ in range(300)
    ]
    return [x for x in draws if not x.is_rational]


class TestContinuedFractions:
    def test_golden_angle_expansion(self):
        cf = cf_expand(GOLDEN_ANGLE)
        assert cf.a0 == 0
        assert cf.preperiod == ()
        assert cf.period == (1,)
        assert cf.quotient_bound == 1

    def test_silver_angle_expansion(self):
        cf = cf_expand(SILVER_ANGLE)
        assert cf.a0 == 0
        assert cf.period == (2,)
        assert cf.quotient_bound == 2

    def test_sqrt7_expansion(self):
        # sqrt(7) = [2; 1,1,1,4 periodic]
        cf = cf_expand(QI.sqrt(7))
        assert cf.a0 == 2
        assert cf.period == (1, 1, 1, 4)

    def test_rational_rejected(self):
        with pytest.raises(ValueError):
            cf_expand(QI.from_rational(Fraction(3, 7)))

    def test_step_bound_covers_preperiod_and_period(self):
        angles = bound_angles()
        for x in angles:
            cf = cf_expand(x, max_steps=10**6)
            assert len(cf.preperiod) + len(cf.period) + 1 <= cf_step_bound(x)
        assert cf_expand(angles[0]) == cf_expand(angles[0], max_steps=10**6)
        assert len(cf_expand(angles[0]).period) == 12352

    def test_period_matches_first_repeat_of_any_quotient(self):
        # reference: the period closes at the first complete quotient seen
        # twice, found with a dict of all of them
        def by_repeat(x):
            a0 = x.floor()
            y, seen, terms = (x - a0).inverse(), {}, []
            while y not in seen:
                seen[y] = len(terms)
                terms.append(y.floor())
                y = (y - terms[-1]).inverse()
            j = seen[y]
            return (a0, tuple(terms[:j]), tuple(terms[j:]))

        for x in repeat_angles():
            cf = cf_expand(x)
            assert (cf.a0, cf.preperiod, cf.period) == by_repeat(x)

    def test_integer_recurrence_matches_the_value_loop(self):
        # the PQa steps on (P, Q) against 1/(y - floor(y)) on values
        for x in [QI.sqrt(1000000007), *bound_angles(), *repeat_angles()]:
            assert cf_expand(x) == qi_reference.cf_expand(x, cf_step_bound(x))

    def test_step_bound_covers_preperiod_for_large_denominators(self):
        # r | p^2 - d keeps the discriminant at 4d while r reaches 10^18
        rng = random.Random(1013)
        for _ in range(200):
            d = rng.choice([2, 3, 5, 7, 13, 31, 43])
            p = rng.choice([-1, 1]) * rng.randint(10**5, 10**9)
            x = QI(p, rng.choice([-1, 1]), p * p - d, d)
            cf = cf_expand(x, max_steps=10**5)
            assert len(cf.preperiod) <= 2 + 3 * x.r.bit_length() // 2
            assert len(cf.preperiod) + len(cf.period) + 1 <= cf_step_bound(x)
            assert cf_value(cf) == x

    def test_no_period_within_max_steps(self):
        with pytest.raises(ValueError, match="no period found within 100 steps"):
            cf_expand(QI(-31622, 1, 1, 1000000007), max_steps=100)

    def test_value_inverts_expand(self):
        for x in (GOLDEN_ANGLE, SILVER_ANGLE, QI.sqrt(7), PHI + 2, QI(5, -2, 7, 3)):
            assert cf_value(cf_expand(x)) == x

    def test_preperiod_folds_into_period(self):
        # [0; 1, (2, 1)] and the purely periodic [0; (1, 2)] name the same
        # number, sqrt(3) - 1
        assert cf_value(parse_cf("[0;1|2,1]")) == QI.sqrt(3) - 1
        assert cf_value(parse_cf("[0;|1,2]")) == QI.sqrt(3) - 1


class TestParsing:
    def test_parse_cf_syntax(self):
        cf = parse_cf("[0;|1]")
        assert cf.a0 == 0 and cf.period == (1,)
        cf = parse_cf("[2;1,1|3,4]")
        assert cf.preperiod == (1, 1) and cf.period == (3, 4)

    def test_parse_angle_qi(self):
        assert parse_angle("qi:(-1,1,2,5)") == GOLDEN_ANGLE
        assert parse_angle("(-1,1,2,5)") == GOLDEN_ANGLE

    def test_parse_angle_cf(self):
        assert parse_angle("cf:[0;|1]") == GOLDEN_ANGLE
        assert parse_angle("[0;|2]") == SILVER_ANGLE

    def test_parse_angle_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("tau")

    def test_parse_angle_malformed_qi(self):
        assert parse_angle(" qi: ( -1, 1, 2, 5 ) ") == GOLDEN_ANGLE
        for text in ("qi:(-1,1,2)", "qi:(-1,1,2,-5)", "qi:[0;|1]"):
            with pytest.raises(ValueError, match="unrecognized angle syntax"):
                parse_angle(text)

    def test_parse_angle_malformed_cf(self):
        assert parse_angle(" cf: [ 0 ; | 1 ] ") == GOLDEN_ANGLE
        for text in ("cf:[0|1]", "cf:[a;|1]", "cf:[0;|1|2]", "cf:[0;1,,2|1]", "[0;|1,]"):
            with pytest.raises(ValueError, match=re.escape(f"malformed continued fraction: {text!r}")):
                parse_angle(text)
        with pytest.raises(ValueError, match="partial quotients after a0 must be >= 1"):
            parse_angle("cf:[0;|-1]")

    def test_as_tuple_roundtrip(self):
        p, q, r, d = GOLDEN_ANGLE.as_tuple()
        assert QI(p, q, r, d) == GOLDEN_ANGLE
