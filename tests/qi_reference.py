"""Reference versions of the rotation-orbit and continued-fraction loops, one
QuadraticIrrational per point or complete quotient.  The package computes the
same quantities from integer floors and floor sums; these slow,
obviously-exact loops are what `test_kernel.py` compares it against.  The
brute-force discrepancy is the oracle of the closed form in
`absquares.discrepancy`, and the trial division up to sqrt(d) that of the
radicand split in `absquares.quadratic`."""

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

from absquares.quadratic import ContinuedFraction, QuadraticIrrational
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


def discrepancy_bruteforce(seq):
    """Oracle twin of `absquares.discrepancy.discrepancy` (value only):
    max |count/N - length| over intervals with endpoints at sample points
    (or 0/1), each side independently open or closed, O(N^2).  A closed
    right end / open left end stands for the half-open interval shaved by an
    infinitesimal: it changes the count, not the length.  `seq` is a
    `PointSequence` or an iterable of exact points."""
    ys = sorted(getattr(seq, "points", seq))
    if not ys:
        raise ValueError("discrepancy of an empty point set")
    n = len(ys)
    starts = [(Fraction(0), True)]
    ends = [(Fraction(1), False)]
    for y in ys:
        starts.append((y, True))   # [y, ...
        starts.append((y, False))  # (y, ...
        ends.append((y, False))    # ..., y)
        ends.append((y, True))     # ..., y]
    best = None
    for g, g_closed in starts:
        lo = bisect_left(ys, g) if g_closed else bisect_right(ys, g)
        for d, d_closed in ends:
            if d < g or (d == g and not (g_closed and d_closed)):
                continue
            hi = bisect_right(ys, d) if d_closed else bisect_left(ys, d)
            if hi < lo:
                continue
            err = abs(Fraction(hi - lo, n) - (d - g))
            if best is None or err > best:
                best = err
    return best


def cf_expand(x, max_steps: int) -> ContinuedFraction:
    """Continued fraction by value arithmetic: y -> 1/(y - floor(y)).  The
    period starts at the first reduced complete quotient (y > 1 and
    -1 < y' < 0) and ends where that value recurs."""
    a0 = x.floor()
    y = (x - a0).inverse()
    first, start = None, 0
    terms = []
    for _ in range(max_steps):
        if first is None:
            if y > 1 and -1 < QuadraticIrrational(y.p, -y.q, y.r, y.d) < 0:
                first, start = y, len(terms)
        elif y == first:
            return ContinuedFraction(a0, tuple(terms[:start]), tuple(terms[start:]))
        a = y.floor()
        terms.append(a)
        y = (y - a).inverse()
    raise ValueError(f"no period found within {max_steps} steps")


def split_square(d: int) -> tuple:
    """d = s**2 * d0 with d0 squarefree, as (s, d0): every f with f*f up to
    what is left is divided out while its square divides."""
    s, d0 = 1, d
    f = 2
    while f * f <= d0:
        while d0 % (f * f) == 0:
            d0 //= f * f
            s *= f
        f += 1
    return s, d0
