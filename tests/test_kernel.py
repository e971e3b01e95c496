"""The integer floors, floor sums and ranks of the rotation side against
the one-QI-per-point loops."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import qi_reference as ref
from absquares.discrepancy import _half_angle_flags, orbit_order, rotation_discrepancy, rotation_orbit
from absquares.quadratic import (
    GOLDEN_ANGLE,
    QI,
    SILVER_ANGLE,
    ContinuedFraction,
    cf_value,
    exact_argmax,
    floors,
)
from absquares.sturmian import SturmianSpec, sturmian_asf_range, sturmian_prefix
from paper_facts import sturmian_asf

LARGE_D = QI(-31622, 1, 1, 1000000007)
# coefficients near 10^12, so B*B*d is far above 2**64 from k = 1 on
HUGE = QI(0, 10**12 + 39, 1, 2).frac()


def random_angles(seed: int, count: int) -> list:
    """Angles in (0, 1): continued fractions with and without a preperiod,
    and fractional parts of (p + q*sqrt(d))/r with r > 1, negative p or q,
    and radicands up to about 10^9."""
    rng = random.Random(seed)
    angles = []
    while len(angles) < count:
        if len(angles) % 2 == 0:
            pre = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
            period = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            angles.append(cf_value(ContinuedFraction(0, pre, period)))
            continue
        d = rng.choice([3, 7, 13, 10**6 + 3, 1000000007, rng.randint(2, 10**6)])
        x = QI(rng.randint(-(10**4), 10**4), rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(2, 12), d)
        if not x.is_rational:
            angles.append(x.frac())
    return angles


ANGLES = [GOLDEN_ANGLE, SILVER_ANGLE, LARGE_D, HUGE, *random_angles(2026, 12)]


def random_point(alpha, rng):
    """A point of [0, 1) in the field of alpha."""
    return (alpha * rng.randint(-9, 9) + Fraction(rng.randint(0, 20), rng.randint(1, 9))).frac()


@pytest.mark.parametrize("alpha", ANGLES, ids=repr)
class TestAgainstQuadraticLoops:
    def test_floors(self, alpha):
        rho = random_point(alpha, random.Random(1))
        ks = range(-150, 151)
        assert floors(alpha, rho, ks) == [(alpha * k + rho).floor() for k in ks]

    @pytest.mark.parametrize("convention", ["left", "right"])
    def test_prefix(self, alpha, convention):
        for seed in range(3):
            spec = SturmianSpec(alpha, random_point(alpha, random.Random(seed)), convention)
            assert sturmian_prefix(spec, 300) == ref.sturmian_prefix(spec, 300)

    @pytest.mark.parametrize("max_n", [0, 1, 2, 3, 30, 240])
    def test_floor_sum_counts(self, alpha, max_n):
        assert sturmian_asf_range(alpha, max_n) == ref.sturmian_asf_range(alpha, max_n)

    def test_asf_counts(self, alpha):
        table = sturmian_asf_range(alpha, 240)
        assert table == ref.sturmian_asf_range(alpha, 240)
        for n in (2, 30, 96, 240):
            assert sturmian_asf(alpha, n) == table[n] == ref.sturmian_asf(alpha, n)

    def test_orbit_and_discrepancy(self, alpha):
        points = ref.rotation_orbit(alpha, 150)
        assert rotation_orbit(alpha, 150).points == tuple(points)
        report = rotation_discrepancy(alpha, 150, quotient_bound=1)
        assert (report.value, report.surplus, report.deficit) == ref.closed_form(points)

    def test_half_angle_flags(self, alpha):
        in_band, in_quarter = _half_angle_flags(alpha, 300)
        assert (in_band, in_quarter) == ref.half_angle_flags(alpha, 300)


@pytest.mark.parametrize("alpha", [GOLDEN_ANGLE, SILVER_ANGLE, QI.sqrt(3) - 1], ids=repr)
@pytest.mark.parametrize("convention", ["left", "right"])
def test_initial_point_on_a_cut(alpha, convention):
    # rho = 0 and rho = 1 - alpha sit on the two cut points; the other two
    # reach a cut point at steps 5 and 7
    for rho in (QI.from_rational(0), 1 - alpha, (-5 * alpha).frac(), (1 - 8 * alpha).frac()):
        spec = SturmianSpec(alpha, rho, convention)
        assert sturmian_prefix(spec, 400) == ref.sturmian_prefix(spec, 400)


RATIONAL = [QI(1, 0, 3, 0), QI(-7, 0, 3, 0), QI(2, 0, 7, 0), QI(5, 0, 1, 0)]


@pytest.mark.parametrize("alpha", RATIONAL, ids=repr)
def test_rational_angle_ranks_keep_equal_points_in_index_order(alpha):
    # {k*alpha} repeats, so the ranks must still form a permutation
    n = 50
    order = orbit_order(floors(alpha, 0, range(1, n + 1)))
    assert order == sorted(range(1, n + 1), key=lambda k: ((alpha * k).frac(), k))
    report = rotation_discrepancy(alpha, n, quotient_bound=1)
    points = ref.rotation_orbit(alpha, n)
    assert (report.value, report.surplus, report.deficit) == ref.closed_form(points)


def pell_sqrt2(limit: int) -> list:
    """Pell convergents (p, q) of sqrt(2), p/q alternately above and below it."""
    pairs = [(1, 1), (3, 2)]
    while pairs[-1][1] < limit:
        (p0, q0), (p1, q1) = pairs[-2:]
        pairs.append((2 * p1 + p0, 2 * q1 + q0))
    return pairs


def test_floor_brackets_the_value():
    # QI.floor and `floors` share `floor_rule`, so it is checked here by the
    # ordering, which decides k <= x < k + 1 by a numerator sign test
    values = [
        QI(sign * p + r * m, -sign * q, r, 2)  # m + (p - q*sqrt(2))/r, within 1/(r*q) of m
        for p, q in pell_sqrt2(10**15)
        for sign in (1, -1)
        for r in (1, 7)
        for m in (-3, 0, 2)
    ]
    for alpha in (LARGE_D, HUGE):
        values += [alpha * k for k in range(-300, 301)]
        values += [alpha * k + Fraction(k, 7) for k in range(67700, 68100)]
    rng = random.Random(2027)
    radicands = [2, 3, 5, 1000000007] + [rng.randint(2, 10**9) for _ in range(16)]
    while len(values) < 20_000:
        p, q, r = rng.randint(-(10**15), 10**15), rng.randint(-(10**15), 10**15), rng.randint(1, 10**15)
        values.append(QI(p, q, r, rng.choice(radicands)))
    for x in values:
        k = x.floor()
        assert k <= x < k + 1, x


def test_argmax_decides_ties_floats_cannot_see():
    # m + p - q*sqrt(2) for Pell convergents p/q near 10^15: at m = 10^6
    # floats carry an error far above the differences between the values
    pairs = pell_sqrt2(10**15)[-8:]
    for m in (0, 10**6):
        for shift in range(len(pairs)):  # the maximum at every position
            turned = pairs[shift:] + pairs[:shift]
            ps, qs = [m + p for p, _ in turned], [-q for _, q in turned]
            values = [QI(a, b, 1, 2) for a, b in zip(ps, qs)]
            assert exact_argmax(ps, qs, 2) == values.index(max(values))


def test_argmax_beyond_float_range():
    # numerators near 10^400 overflow a float, so every value is compared exactly
    pairs = [(p * 10**385, -q * 10**385) for p, q in pell_sqrt2(10**15)[-8:]]
    for shift in range(len(pairs)):
        turned = pairs[shift:] + pairs[:shift]
        ps, qs = [p for p, _ in turned], [q for _, q in turned]
        values = [QI(a, b, 1, 2) for a, b in turned]
        assert exact_argmax(ps, qs, 2) == values.index(max(values))
    assert exact_argmax([3, 10**400, 7], [0, 0, 0], 0) == 1


def test_argmax_returns_the_first_of_equal_maxima():
    assert exact_argmax([1, 5, 3, 5, 5], [0, 0, 0, 0, 0], 0) == 1
    # -2 + 4*sqrt(2) three times, among copies of 5 - sqrt(2) just below it
    ps, qs = [1, 5, -2, 5, -2, -2], [1, -1, 4, -1, 4, 4]
    assert exact_argmax(ps, qs, 2) == 2
    assert exact_argmax(ps[2:], qs[2:], 2) == 0


def decimal_value(x: QI) -> Decimal:
    """(p + q*sqrt(d))/r to 1,000 digits, enough for the cancellations below."""
    with localcontext() as ctx:
        ctx.prec = 1000
        return (x.p + x.q * Decimal(x.d).sqrt()) / x.r


def test_float_is_within_one_ulp():
    pell = pell_sqrt2(10**15)[-6:]
    values = [QI(p, -q, 1, 2) for p, q in pell] + [QI(-p, q, 3, 2) for p, q in pell]
    report = rotation_discrepancy(LARGE_D, 3000, quotient_bound=63244)
    values += [report.value, report.scaled(), report.surplus, report.deficit]
    # coefficients near 10^400 that cancel to about 1, or divide down to it
    big = [(p * 10**200, q * 10**200) for p, q in pell_sqrt2(10**200)[-3:]]
    values += [QI(p, -q, 1, 2) for p, q in big] + [QI(10**400, 3 * 10**400, 10**400 + 1, 7)]
    values += [QI(1, 0, 3, 0), QI(-(10**400) - 1, 0, 10**400, 0), QI(10**300, 0, 7, 0), QI(0, 0, 1, 0)]
    for x in values:
        f = float(x)
        with localcontext() as ctx:
            ctx.prec = 1000
            assert abs(Decimal(f) - decimal_value(x)) <= Decimal(math.ulp(f)), x
