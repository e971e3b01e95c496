"""Reference versions of the rotation-orbit loops, one QuadraticIrrational per
point.  The package computes the same quantities with the integer kernel of
`absquares.quadratic`; these slow, obviously-exact loops are what the kernel
tests compare it against."""

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

from absquares.quadratic import QuadraticIrrational
from absquares.words import BINARY_AB, Word

_ZERO = QuadraticIrrational.from_rational(0)


def sturmian_prefix(spec, length: int) -> Word:
    alpha = spec.angle
    cut = 1 - alpha
    right = spec.convention == "right"
    x = spec.rho
    out = bytearray()
    for _ in range(length):
        if right:
            # x == 0 plays the role of 1, which lies in the 'a' interval
            is_b = x != 0 and x <= cut
        else:
            is_b = x < cut
        out.append(1 if is_b else 0)
        x = x + alpha
        if x >= 1:
            x = x - 1
    return Word(BINARY_AB, bytes(out))


def negative_orbit(alpha, n: int) -> list:
    """Points {-i*alpha}, i = 1..n, in orbit order."""
    points = []
    x = _ZERO
    for _ in range(n):
        x = x - alpha
        if x < 0:
            x = x + 1
        points.append(x)
    return points


def sturmian_asf(alpha, n: int) -> int:
    if n == 0:
        return 0
    orbit = negative_orbit(alpha, n)
    threshold = orbit[-1]
    if (alpha * n).floor() % 2 == 0:
        return sum(1 for x in orbit if x <= threshold)
    return sum(1 for x in orbit if x >= threshold)


def sturmian_asf_range(alpha, max_n: int) -> dict:
    counts = {}
    sorted_orbit = []
    x = _ZERO
    for i in range(1, max_n + 1):
        x = x - alpha
        if x < 0:
            x = x + 1
        insort(sorted_orbit, x)
        if i % 2 == 0:
            if (alpha * i).floor() % 2 == 0:
                counts[i] = bisect_right(sorted_orbit, x)
            else:
                counts[i] = len(sorted_orbit) - bisect_left(sorted_orbit, x)
    return counts


def rotation_orbit(angle, count: int) -> list:
    """({n*angle}) for n = 1..count."""
    pts = []
    x = _ZERO
    for _ in range(count):
        x = (x + angle).frac()
        pts.append(x)
    return pts


def half_angle_flags(angle, max_i: int):
    """For i = 1..max_i: ({i*angle/2} in [1/4,1/2), {i*angle/2} <= 1/4)."""
    half = angle / 2
    x = _ZERO
    in_band, in_quarter = [], []
    for _ in range(max_i):
        x = (x + half).frac()
        in_band.append(Fraction(1, 4) <= x < Fraction(1, 2))
        in_quarter.append(x <= Fraction(1, 4))
    return in_band, in_quarter


def closed_form(points):
    """(value, surplus, deficit) of the closed form on exactly sorted points."""
    ys = sorted(points)
    n = len(ys)
    surplus = max(Fraction(i + 1, n) - y for i, y in enumerate(ys))
    deficit = max(y - Fraction(i, n) for i, y in enumerate(ys))
    return surplus + deficit, surplus, deficit
