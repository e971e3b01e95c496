"""The integer rotation-orbit kernel against the one-QI-per-point loops."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import qi_reference as ref
from absquares import quadratic
from absquares.discrepancy import _half_angle_flags, rotation_discrepancy, rotation_orbit
from absquares.quadratic import (
    GOLDEN_ANGLE,
    QI,
    SILVER_ANGLE,
    ContinuedFraction,
    cf_value,
    exact_argmax,
    exact_argsort,
    floor_values,
    frac_points,
)
from absquares.sturmian import SturmianSpec, sturmian_asf_range, sturmian_prefix
from paper_facts import sturmian_asf

LARGE_D = QI(-31622, 1, 1, 1000000007)
# B*B*d leaves int64 at k = 1 already, so every step takes the Python-int path
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
        ks = np.arange(-150, 151)
        assert floor_values(alpha, rho, ks).tolist() == [(alpha * k + rho).floor() for k in range(-150, 151)]

    @pytest.mark.parametrize("convention", ["left", "right"])
    def test_prefix(self, alpha, convention):
        for seed in range(3):
            spec = SturmianSpec(alpha, random_point(alpha, random.Random(seed)), convention)
            assert sturmian_prefix(spec, 300) == ref.sturmian_prefix(spec, 300)

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
        assert (in_band.tolist(), in_quarter.tolist()) == ref.half_angle_flags(alpha, 300)


@pytest.mark.parametrize("alpha", [GOLDEN_ANGLE, SILVER_ANGLE, QI.sqrt(3) - 1], ids=repr)
@pytest.mark.parametrize("convention", ["left", "right"])
def test_initial_point_on_a_cut(alpha, convention):
    # rho = 0 and rho = 1 - alpha sit on the two cut points; the other two
    # reach a cut point at steps 5 and 7
    for rho in (QI.from_rational(0), 1 - alpha, (-5 * alpha).frac(), (1 - 8 * alpha).frac()):
        spec = SturmianSpec(alpha, rho, convention)
        assert sturmian_prefix(spec, 400) == ref.sturmian_prefix(spec, 400)


def test_python_int_path(monkeypatch):
    roots = []
    monkeypatch.setattr(quadratic, "isqrt", lambda v: roots.append(v) or math.isqrt(v))
    # HUGE from k = 1, and LARGE_D just below and just above the point where
    # B*B*d ~ k*k * 10^9 leaves int64
    for alpha, lo, python_ints in ((HUGE, 1, True), (LARGE_D, 67750, False), (LARGE_D, 68000, True)):
        ks = np.arange(lo, lo + 150)
        expected = [(alpha * int(k)).floor() for k in ks]
        roots.clear()
        assert floor_values(alpha, 0, ks).tolist() == expected
        assert len(roots) == (150 if python_ints else 0)


def pell_sqrt2(limit: int) -> list:
    """Pell convergents (p, q) of sqrt(2), p/q alternately above and below it."""
    pairs = [(1, 1), (3, 2)]
    while pairs[-1][1] < limit:
        (p0, q0), (p1, q1) = pairs[-2:]
        pairs.append((2 * p1 + p0, 2 * q1 + q0))
    return pairs


def test_floor_brackets_the_value():
    # QI.floor shares the closed form of floor_values, so it is checked here
    # by the ordering, which decides k <= x < k + 1 by a numerator sign test
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


def test_float_key_out_of_order_is_repaired(monkeypatch):
    p, q = frac_points(GOLDEN_ANGLE, np.arange(1, 300))
    exact = sorted(range(len(p)), key=lambda i: QI(int(p[i]), int(q[i]), 2, 5))
    repairs = []
    exact_key = quadratic._exact_key
    monkeypatch.setattr(quadratic, "_exact_key", lambda *a: repairs.append(a) or exact_key(*a))
    assert exact_argsort(p, q, 5).tolist() == exact
    assert not repairs
    key = quadratic._approx(p, q, 5)
    key[[exact[10], exact[11]]] = key[[exact[11], exact[10]]]  # one adjacent swap
    monkeypatch.setattr(quadratic, "_approx", lambda *a: key)
    assert exact_argsort(p, q, 5).tolist() == exact
    assert len(repairs) == 1


def test_argmax_decides_ties_floats_cannot_see():
    # p - q*sqrt(2) for Pell convergents p/q near 10^15: floats carry an
    # error far above the differences between the values
    pairs = pell_sqrt2(10**15)[-8:]
    ps = np.array([p for p, _ in pairs], dtype=object)
    qs = -np.array([q for _, q in pairs], dtype=object)
    values = [QI(int(a), int(b), 1, 2) for a, b in zip(ps, qs)]
    assert exact_argmax(ps, qs, 2) == values.index(max(values))
    assert [values[i] for i in exact_argsort(ps, qs, 2)] == sorted(values)
