"""Equidistribution diagnostics for rotation orbits.

The quantities here connect the arithmetic side of the project (rotation
orbits ({n*angle}) on the torus) with the counting side: how evenly the
orbit fills [0,1) controls how many abelian-square factors a rotation
coding accumulates.  Everything is computed on exact points
(:class:`~absquares.quadratic.QuadraticIrrational` or `Fraction`, or for
rotation orbits the integer kernel of :mod:`~absquares.quadratic`); floats
only filter in front of exact decisions, or format a report.

Two independent routes for the discrepancy itself:

* :func:`discrepancy` — the classical closed form on sorted points,
  O(N log N), with a witness interval read off its two maximizers;
* :func:`discrepancy_bruteforce` — enumerates candidate intervals with
  endpoints at the sample points, each side open or closed, O(N^2).

They must agree exactly; the test suite holds them to that.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .quadratic import (
    QuadraticIrrational,
    cf_expand,
    exact_argmax,
    exact_argsort,
    floor_values,
    frac_points,
)
from .sturmian import sturmian_asf_range


def _as_exact(x):
    if isinstance(x, (QuadraticIrrational, Fraction, int)):
        return x
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"unsupported point type {type(x).__name__}")


@dataclass(frozen=True)
class PointSequence:
    """A finite list of torus points with a human-readable origin tag."""

    points: tuple
    origin: str = "adhoc"

    def __post_init__(self):
        pts = tuple(_as_exact(x) for x in self.points)
        for x in pts:
            if not (0 <= x < 1):
                raise ValueError("points must lie in [0,1)")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def rotation_orbit(angle: QuadraticIrrational, count: int) -> PointSequence:
    """The orbit ({n*angle}) for n = 1..count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    p, q = frac_points(angle, np.arange(1, count + 1))
    pts = (QuadraticIrrational(int(a), int(b), angle.r, angle.d) for a, b in zip(p, q))
    return PointSequence(tuple(pts), origin=f"orbit({count})")


@dataclass(frozen=True)
class DiscrepancyReport:
    """Exact discrepancy of a point set, with optional bound check.

    ``value`` is sup over intervals [g, d) of |count/N - (d-g)|; the sup
    may be approached rather than attained (single points witness it in
    the limit), which is why ``witness`` carries explicit interval sides.
    """

    n_points: int
    value: object  # exact: Fraction or QuadraticIrrational
    surplus: object  # max_i (i/N - y_i)      -- under-filled interval side
    deficit: object  # max_i (y_i - (i-1)/N)  -- over-filled interval side
    witness: tuple | None = None  # (gamma, gamma_closed, delta, delta_closed)
    bound: float | None = None  # right-hand side of the log bound, if checked
    quotient_bound: int | None = None  # K used for the bound

    @property
    def within_bound(self) -> bool:
        if self.bound is None:
            raise ValueError("no bound attached to this report")
        # Compare exactly: the float bound converts to an exact Fraction.
        return self.n_points * self.value <= Fraction(self.bound)

    def scaled(self) -> object:
        """N * D_N, the quantity the log bound speaks about."""
        return self.n_points * self.value


def _sorted_points(points) -> list:
    return sorted(_as_exact(x) for x in points)


def _closed_form(n: int, top: int, bottom: int, y_top, y_bottom, witness_limit: int):
    """Report from the maximizers top of (i+1)/N - y_i and bottom of
    y_j - j/N (0-based, points sorted).  The witness is [y_bottom, y_top] when
    bottom <= top and the open gap (y_top, y_bottom) otherwise: a tie just
    outside either end would contradict a maximizer, so the interval holds
    exactly the points between them and its error is surplus + deficit."""
    surplus = Fraction(top + 1, n) - y_top
    deficit = y_bottom - Fraction(bottom, n)
    closed = bottom <= top
    lo, hi = (y_bottom, y_top) if closed else (y_top, y_bottom)
    witness = (lo, closed, hi, closed) if n <= witness_limit else None
    return DiscrepancyReport(n, surplus + deficit, surplus, deficit, witness)


def discrepancy(seq, witness_limit: int = 256) -> DiscrepancyReport:
    """Closed-form discrepancy over sorted points.

    D_N = max_i (i/N - y_i) + max_i (y_i - (i-1)/N) on the sorted sample;
    both maxima are nonnegative (the i = N term forces the first, i = 1
    the second).  For N <= witness_limit the report carries a witness
    interval (see `_closed_form`).
    """
    points = seq.points if isinstance(seq, PointSequence) else tuple(seq)
    ys = _sorted_points(points)
    n = len(ys)
    if n == 0:
        raise ValueError("discrepancy of an empty point set")
    top = max(range(n), key=lambda i: Fraction(i + 1, n) - ys[i])
    bottom = max(range(n), key=lambda i: ys[i] - Fraction(i, n))
    return _closed_form(n, top, bottom, ys[top], ys[bottom], witness_limit)


def discrepancy_bruteforce(seq):
    """Oracle twin of :func:`discrepancy` (value only): max |count/N - length|
    over intervals with endpoints at sample points (or 0/1), each side
    independently open or closed.  A closed right end / open left end
    stands for the half-open interval shaved by an infinitesimal: it
    changes the count, not the length."""
    points = seq.points if isinstance(seq, PointSequence) else tuple(seq)
    ys = _sorted_points(points)
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


_LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def kn2_bound(n_points: int, quotient_bound: int) -> float:
    """3 + (1/log phi + K/log(K+1)) * log N, natural logs.

    Valid for rotation orbits whose angle has partial quotients bounded
    by K; the exact discrepancy must sit below it after scaling by N.
    """
    if n_points < 1:
        raise ValueError("need at least one point")
    if quotient_bound < 1:
        raise ValueError("partial-quotient bound must be >= 1")
    k = quotient_bound
    return 3.0 + (1.0 / _LOG_PHI + k / math.log(k + 1)) * math.log(n_points)


def rotation_discrepancy(
    angle: QuadraticIrrational,
    n_points: int,
    quotient_bound: int | None = None,
    witness_limit: int = 256,
) -> DiscrepancyReport:
    """Discrepancy of ({n*angle}), n = 1..N, with the log bound attached.

    The orbit stays integer numerators over angle.r: one exact sort, then
    the two maximizers of the closed form by a float filter and an exact
    decision among its near-ties; QIs are built only for reported values.
    """
    if quotient_bound is None:
        try:
            quotient_bound = cf_expand(angle).quotient_bound
        except ValueError as exc:
            raise ValueError(f"{exc}; give the partial-quotient bound with --K") from None
    if n_points < 1:
        raise ValueError("count must be >= 1")
    p, q = frac_points(angle, np.arange(1, n_points + 1))
    order = exact_argsort(p, q, angle.d)
    n, r, d = n_points, angle.r, angle.d
    # (i+1)/N - y_i and y_i - i/N over the common denominator N*r, in Python
    # ints because N*P can leave int64
    p, q, i = (x.astype(object) for x in (p[order], q[order], np.arange(n)))
    top = exact_argmax((i + 1) * r - n * p, -n * q, d)
    bottom = exact_argmax(n * p - i * r, n * q, d)
    y_top, y_bottom = (QuadraticIrrational(int(p[k]), int(q[k]), r, d) for k in (top, bottom))
    rep = _closed_form(n, top, bottom, y_top, y_bottom, witness_limit)
    return replace(rep, bound=kn2_bound(n, quotient_bound), quotient_bound=quotient_bound)


# -- growth certificate ------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    """Arithmetic lower-bound certificate for cumulative counts.

    ``count_a`` counts i <= n/2 with {i*angle/2} in [1/4, 1/2);
    ``count_b`` counts even m in [n/2, n] with {m*angle/2} <= 1/4.
    Each (i, m) pair manufactures a distinct abelian-square factor of
    length 2m' <= 2n in the rotation coding, so the product is a lower
    bound for the cumulative abelian-square-factor count asf_sum.
    """

    n: int
    count_a: int
    count_b: int
    asf_sum: int

    @property
    def product(self) -> int:
        return self.count_a * self.count_b


def _half_angle_flags(angle: QuadraticIrrational, max_i: int):
    """For i = 1..max_i: ({i*angle/2} in [1/4,1/2), {i*angle/2} <= 1/4).

    t = floor(2*i*angle) - 4*floor(i*angle/2) = floor(4*{i*angle/2}), so the
    band is t = 1 and the quarter t = 0 ({i*angle/2} = 1/4 needs a rational
    angle, which the ASF sweep rejects).
    """
    ks = np.arange(1, max_i + 1)
    t = floor_values(angle * 2, 0, ks) - 4 * floor_values(angle / 2, 0, ks)
    return t == 1, t == 0


def growth_certificate(angle: QuadraticIrrational, n: int) -> CertificateReport:
    """Certificate at a single even n: the last row of the sweep."""
    if n < 2 or n % 2:
        raise ValueError("certificate is defined for even n >= 2")
    return certificate_sweep(angle, n)[-1]


def certificate_sweep(
    angle: QuadraticIrrational, max_n: int
) -> list[CertificateReport]:
    """Certificates for every even n <= max_n, sharing all arithmetic.

    One pass of half-angle flags gives both counts via prefix sums; one
    ASF sweep gives the cumulative sums.
    """
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    max_n -= max_n % 2
    in_band, in_quarter = _half_angle_flags(angle, max_n)
    in_quarter[::2] = False  # keep even m only (flag m sits at index m - 1)
    band_prefix = np.concatenate(([0], np.cumsum(in_band)))
    quarter_prefix = np.concatenate(([0], np.cumsum(in_quarter)))
    asf = sturmian_asf_range(angle, max_n)
    ns = np.arange(2, max_n + 1, 2)
    count_a = band_prefix[ns // 2]
    count_b = quarter_prefix[ns] - quarter_prefix[ns // 2 - 1]  # n/2 <= m <= n
    running = np.cumsum([asf[n] for n in ns.tolist()])
    reports = []
    for row in zip(ns.tolist(), count_a.tolist(), count_b.tolist(), running.tolist()):
        report = CertificateReport(*row)
        if report.product > report.asf_sum:
            raise AssertionError(
                f"certificate violated at n={report.n}: "
                f"{report.product} > {report.asf_sum}"
            )
        reports.append(report)
    return reports
