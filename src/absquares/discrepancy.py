"""Equidistribution diagnostics for rotation orbits.

The quantities here connect the arithmetic side of the project (rotation
orbits ({n*angle}) on the torus) with the counting side: how evenly the
orbit fills [0,1) controls how many abelian-square factors a rotation
coding accumulates.  Everything is computed on exact points
(:class:`~absquares.quadratic.QuadraticIrrational` or `Fraction`, or for
rotation orbits integer floors and floor sums); floats only format a
report.

Both entry points, :func:`discrepancy` on any exact point set and
:func:`rotation_discrepancy` on an orbit kept as integer numerators, end in one
closed form on sorted points, `_closed_form`, O(N log N), with a witness
interval read off its two maximizers.  The tests hold it exactly to an
O(N^2) enumeration of candidate intervals, `discrepancy_bruteforce` in
`tests/qi_reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate

from .quadratic import QuadraticIrrational, as_qi, cf_expand, exact_argmax, floors
from .sturmian import sturmian_asf_range


@dataclass(frozen=True)
class PointSequence:
    """A finite list of torus points with a human-readable origin tag."""

    points: tuple
    origin: str = "adhoc"

    def __post_init__(self):
        pts = tuple(self.points)
        for x in pts:
            if not isinstance(x, (QuadraticIrrational, Fraction, int)):
                raise TypeError(f"unsupported point type {type(x).__name__}")
            if not (0 <= x < 1):
                raise ValueError("points must lie in [0,1)")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def rotation_orbit(angle: QuadraticIrrational, count: int) -> PointSequence:
    """The orbit ({n*angle}) for n = 1..count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    p, q, r, d = angle.as_tuple()
    ks = range(1, count + 1)
    pts = (QuadraticIrrational(k * p - f * r, k * q, r, d) for k, f in zip(ks, floors(angle, 0, ks)))
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


def _closed_form(ps, qs, r: int, d: int, witness_limit: int) -> DiscrepancyReport:
    """The closed form on sorted points y_i = (ps[i] + qs[i]*sqrt(d))/r.

    D_N = max_i (i/N - y_i) + max_i (y_i - (i-1)/N); both maxima are
    nonnegative (the i = N term forces the first, i = 1 the second).
    `exact_argmax` finds the first maximizer top of (i+1)/N - y_i and bottom
    of y_j - j/N (0-based) over the common denominator N*r; QIs are built
    only for the reported values.  For N <= witness_limit the witness is
    [y_bottom, y_top] when bottom <= top and the open gap (y_top, y_bottom)
    otherwise: a tie just outside either end would contradict a maximizer,
    so the interval holds exactly the points between them and its error is
    surplus + deficit.
    """
    n = len(ps)
    top = exact_argmax([(i + 1) * r - n * x for i, x in enumerate(ps)], [-n * x for x in qs], d)
    bottom = exact_argmax([n * x - i * r for i, x in enumerate(ps)], [n * x for x in qs], d)
    y_top, y_bottom = (QuadraticIrrational(ps[i], qs[i], r, d) for i in (top, bottom))
    surplus = Fraction(top + 1, n) - y_top
    deficit = y_bottom - Fraction(bottom, n)
    closed = bottom <= top
    lo, hi = (y_bottom, y_top) if closed else (y_top, y_bottom)
    witness = (lo, closed, hi, closed) if n <= witness_limit else None
    return DiscrepancyReport(n, surplus + deficit, surplus, deficit, witness)


def discrepancy(seq: PointSequence, witness_limit: int = 256) -> DiscrepancyReport:
    """Discrepancy of any exact point set: the points, sorted, become
    numerators over the lcm r of their denominators, in the field of their
    radicand d (0 when every point is rational), for `_closed_form`."""
    ys = [as_qi(y) for y in sorted(seq.points)]
    if not ys:
        raise ValueError("discrepancy of an empty point set")
    fields = {y.d for y in ys} - {0}
    if len(fields) > 1:
        raise ValueError(f"points mix the radicands {sorted(fields)}")
    d = fields.pop() if fields else 0
    r = math.lcm(*(y.r for y in ys))
    ps = [y.p * (r // y.r) for y in ys]
    qs = [y.q * (r // y.r) for y in ys]
    return _closed_form(ps, qs, r, d, witness_limit)


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

    The orbit stays integer numerators over angle.r, sorted by its ranks
    (`orbit_order`), for the same `_closed_form` as `discrepancy`.
    """
    if quotient_bound is None:
        try:
            quotient_bound = cf_expand(angle).quotient_bound
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{exc}; give the partial-quotient bound with --K") from None
    bound = kn2_bound(n_points, quotient_bound)
    p, q, r, d = angle.as_tuple()
    fl = floors(angle, 0, range(1, n_points + 1))
    order = orbit_order(fl)
    # y_i = {k*angle} = (k*p - floor(k*angle)*r + k*q*sqrt(d))/r with k = order[i]
    rep = _closed_form(
        [k * p - fl[k - 1] * r for k in order], [k * q for k in order], r, d, witness_limit
    )
    return replace(rep, bound=bound, quotient_bound=quotient_bound)


def orbit_order(fl: list[int]) -> list[int]:
    """The k = 1..N that sort the points {k*angle}, given fl[k-1] =
    floor(k*angle); equal points keep increasing k.

    Summing 1[{j*angle} < {k*angle}] = floor(j*angle) - floor((j-k)*angle) -
    floor(k*angle) over j = 1..N, with G the prefix sums of fl and
    floor(-i*angle) taken as -floor(i*angle) - 1, gives the rank
    G(N) - G(N-k) + G(k-1) + k - 1 - N*floor(k*angle).  Where i*angle is an
    integer (a rational angle) that term is one too low, which counts the
    equal points of smaller index: the ranks are a permutation, and the
    order is its inverse.
    """
    n = len(fl)
    g = list(accumulate(fl, initial=0))
    order = [0] * n
    for k, f in enumerate(fl, 1):
        order[g[n] - g[n - k] + g[k - 1] + k - 1 - n * f] = k
    return order


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
    ks = range(1, max_i + 1)
    t = [x - 4 * y for x, y in zip(floors(angle * 2, 0, ks), floors(angle / 2, 0, ks))]
    return [v == 1 for v in t], [v == 0 for v in t]


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
    band_prefix = list(accumulate(in_band, initial=0))
    even_quarter = (x and m % 2 == 0 for m, x in enumerate(in_quarter, 1))
    quarter_prefix = list(accumulate(even_quarter, initial=0))
    asf = sturmian_asf_range(angle, max_n)
    reports = []
    running = 0
    for n in range(2, max_n + 1, 2):
        running += asf[n]
        # count_b: even m with n/2 <= m <= n
        report = CertificateReport(
            n, band_prefix[n // 2], quarter_prefix[n] - quarter_prefix[n // 2 - 1], running
        )
        if report.product > report.asf_sum:
            raise AssertionError(
                f"certificate violated at n={report.n}: "
                f"{report.product} > {report.asf_sum}"
            )
        reports.append(report)
    return reports
