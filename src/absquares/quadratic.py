"""Exact arithmetic in real quadratic fields, plus periodic continued fractions.

A value is (p + q*sqrt(d)) / r with integers p, q, r and squarefree d; all
comparisons, floors and fractional parts are decided by integer sign tests,
never by floating point.  Rationals are the q = 0 case (canonically d = 0),
so mixed rational/irrational arithmetic stays in one type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import gcd, isqrt, log, sqrt

import numpy as np


@lru_cache(maxsize=1024)
def _split_square(d: int) -> tuple[int, int]:
    """d = s**2 * d0 with d0 squarefree; returns (s, d0).  Cached: the trial
    division costs O(sqrt(d)), and a field's values all share one radicand."""
    if d < 0:
        raise ValueError("negative radicand")
    s, d0 = 1, d
    f = 2
    while f * f <= d0:
        while d0 % (f * f) == 0:
            d0 //= f * f
            s *= f
        f += 1
    return s, d0


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _numerator_sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d) by integer comparisons."""
    if q == 0 or d == 0:
        return _sign(p)
    if p == 0:
        return _sign(q)
    if (p > 0) == (q > 0):
        return _sign(p)
    return _sign(p) * _sign(p * p - q * q * d)


@dataclass(frozen=True, eq=False)
class QuadraticIrrational:
    """(p + q*sqrt(d)) / r in canonical form: r > 0, gcd(p, q, r) = 1,
    d squarefree, and d = 0 exactly when the value is rational."""

    p: int
    q: int
    r: int
    d: int

    def __post_init__(self):
        p, q, r, d = self.p, self.q, self.r, self.d
        if r == 0:
            raise ValueError("zero denominator")
        if d < 0:
            raise ValueError("only real quadratic fields are supported")
        if q != 0:
            s, d = _split_square(d)
            q *= s
            if d == 1:  # the radicand was a perfect square
                p, q = p + q, 0
        if q == 0:
            d = 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "d", d)

    # -- construction --------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "QuadraticIrrational":
        frac = Fraction(value)
        return cls(frac.numerator, 0, frac.denominator, 0)

    @classmethod
    def sqrt(cls, d: int) -> "QuadraticIrrational":
        return cls(0, 1, 1, d)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.p, self.q, self.r, self.d)

    # -- arithmetic ----------------------------------------------------

    def _coerced(self, other) -> "QuadraticIrrational | None":
        if isinstance(other, QuadraticIrrational):
            if other.q != 0 and self.q != 0 and other.d != self.d:
                raise ValueError(
                    f"cannot mix sqrt({self.d}) and sqrt({other.d}) exactly"
                )
            return other
        if isinstance(other, int):
            return QuadraticIrrational(other, 0, 1, 0)
        if isinstance(other, Fraction):
            return QuadraticIrrational.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        d = self.d if self.q != 0 else o.d
        return QuadraticIrrational(
            self.p * o.r + o.p * self.r,
            self.q * o.r + o.q * self.r,
            self.r * o.r,
            d,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticIrrational(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        d = self.d if self.q != 0 else o.d
        return QuadraticIrrational(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            self.r * o.r,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticIrrational":
        if self.p == 0 and self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        norm = self.p * self.p - self.q * self.q * self.d
        return QuadraticIrrational(self.r * self.p, -self.r * self.q, norm, self.d)

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- ordering ------------------------------------------------------

    def sign(self) -> int:
        return _numerator_sign(self.p, self.q, self.d)

    def _cmp(self, other) -> int:
        o = self._coerced(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticIrrational with {type(other)}")
        # both denominators are positive: the sign of the difference's numerator
        return _numerator_sign(
            self.p * o.r - o.p * self.r, self.q * o.r - o.q * self.r, self.d or o.d
        )

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (QuadraticIrrational, int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __hash__(self):
        if self.is_rational:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r, self.d))

    # -- floor / frac ----------------------------------------------------

    def floor(self) -> int:
        """The closed form of `floor_values`: with s = isqrt(q*q*d), q*sqrt(d)
        lies strictly between s and s + 1 (d squarefree, q != 0)."""
        if self.q == 0:
            return self.p // self.r
        s = isqrt(self.q * self.q * self.d)
        return (self.p + s) // self.r if self.q > 0 else (self.p - s - 1) // self.r

    def frac(self) -> "QuadraticIrrational":
        return self - self.floor()

    def __float__(self) -> float:
        return (self.p + self.q * self.d**0.5) / self.r

    def __repr__(self):
        if self.is_rational:
            return f"QI({self.p}/{self.r})"
        return f"QI(({self.p}+{self.q}*sqrt({self.d}))/{self.r})"


QI = QuadraticIrrational

PHI = QI(1, 1, 2, 5)  # golden ratio
GOLDEN_ANGLE = PHI - 1  # (sqrt(5) - 1) / 2
SILVER_ANGLE = QI.sqrt(2) - 1


def as_qi(value) -> QuadraticIrrational:
    if isinstance(value, QuadraticIrrational):
        return value
    return QuadraticIrrational.from_rational(value)


# -- vectorized kernel ---------------------------------------------------------
#
# Many values of one field are held as integer arrays P, Q standing for
# (P + Q*sqrt(d))/r with one r > 0.  The arrays are int64 while every value and
# intermediate is provably below 2**62 in magnitude, and object arrays of
# Python ints otherwise, so nothing wraps.  A float only proposes a square
# root, an order or a maximum; an integer test confirms every decision.

_INT64_SAFE = 2**62


def _max_abs(x) -> int:
    return int(np.abs(x).max()) if len(x) else 0


def _widen(bound: int, *arrays):
    dtype = np.int64 if bound < _INT64_SAFE else object
    return [np.asarray(a).astype(dtype) for a in arrays]


def floor_values(alpha, rho, ks) -> np.ndarray:
    """Exact floor(k*alpha + rho) for every integer k of `ks`, as int64.

    With alpha and rho in one field, k*alpha + rho = (A + B*sqrt(d))/R, and
    s = isqrt(B*B*d) gives the floor (A + s) // R when B >= 0 and
    (A - s - 1) // R when B < 0 (d is squarefree, so B*B*d is a square only
    at B = 0).  s is a float square root corrected to s*s <= v < (s+1)**2.
    """
    rho = as_qi(rho)
    alpha = rho._coerced(as_qi(alpha))  # raises unless one field
    d = alpha.d or rho.d
    big_r = alpha.r * rho.r // gcd(alpha.r, rho.r)
    a, b = alpha.p * (big_r // alpha.r), alpha.q * (big_r // alpha.r)
    a0, b0 = rho.p * (big_r // rho.r), rho.q * (big_r // rho.r)
    ks = np.asarray(ks, dtype=np.int64)
    k = _max_abs(ks)
    b_bound = abs(b) * k + abs(b0)
    (ks,) = _widen(max(b_bound * b_bound * d, abs(a) * k + abs(a0), big_r), ks)
    big_a, big_b = a * ks + a0, b * ks + b0
    v = big_b * big_b * d
    if ks.dtype == object:
        s = np.frompyfunc(isqrt, 1, 1)(v)
    else:
        s = np.sqrt(v.astype(np.float64)).astype(np.int64)  # isqrt(v) +- 1
        s -= s * s > v
        s += (s + 1) * (s + 1) <= v
    return np.where(big_b >= 0, (big_a + s) // big_r, (big_a - s - 1) // big_r).astype(np.int64)


def frac_points(alpha, ks) -> tuple[np.ndarray, np.ndarray]:
    """{k*alpha} for every k of `ks` as numerators (P, Q) over alpha.r:
    {k*alpha} = (k*p - floor(k*alpha)*r + k*q*sqrt(d)) / r."""
    alpha = as_qi(alpha)
    ks = np.asarray(ks, dtype=np.int64)
    floors = floor_values(alpha, 0, ks)
    bound = _max_abs(ks) * (abs(alpha.p) + abs(alpha.q)) + _max_abs(floors) * alpha.r
    ks, floors = _widen(bound, ks, floors)
    return ks * alpha.p - floors * alpha.r, ks * alpha.q


def _with_norm(p, q, d: int):
    """p and q, widened so that the norm p*p - q*q*d cannot wrap, and the norm."""
    p, q = _widen(max(_max_abs(p) ** 2, _max_abs(q) ** 2 * d), p, q)
    return p, q, p * p - q * q * d


def _signs(p, q, d: int) -> np.ndarray:
    """Exact sign of p + q*sqrt(d), elementwise."""
    sp, sq, sn = ((x > 0).astype(np.int64) - (x < 0) for x in _with_norm(p, q, d))
    return np.where(sp * sq >= 0, np.where(sp != 0, sp, sq), sp * sn)


def _exact_key(p, q, d: int):
    def compare(i, j):  # the exact sign of entry i minus entry j
        return _numerator_sign(int(p[i]) - int(p[j]), int(q[i]) - int(q[j]), d)

    return cmp_to_key(compare)


def _approx(p, q, d: int) -> np.ndarray:
    """p + q*sqrt(d) within 6 units of 2**-53 relative: where the two terms
    cancel, as (p*p - q*q*d) / (p - q*sqrt(d)) with an exact numerator."""
    p, q, norm = _with_norm(p, q, d)
    fp, fq = p.astype(np.float64), q.astype(np.float64) * sqrt(d)
    cancel = (fp > 0) != (fq > 0)
    return np.where(cancel, norm.astype(np.float64) / np.where(cancel, fp - fq, 1.0), fp + fq)


def exact_argsort(p, q, d: int) -> np.ndarray:
    """Indices that sort the values (p + q*sqrt(d))/r ascending (one r > 0).

    A float key proposes the order and an exact sign test checks every
    adjacent pair; if any pair fails, an exact comparison sort decides.
    """
    order = np.argsort(_approx(p, q, d), kind="stable")
    if (_signs(np.diff(p[order]), np.diff(q[order]), d) >= 0).all():
        return order
    return np.array(sorted(range(len(p)), key=_exact_key(p, q, d)), dtype=np.int64)


def exact_argmax(p, q, d: int) -> int:
    """First index of the largest value (p + q*sqrt(d))/r (one r > 0): the
    float maximum names the near-ties, and exact comparisons pick among them."""
    approx = _approx(p, q, d)
    slack = 2.0**-46 * np.abs(approx).max()  # over twice the error of a difference
    near = np.flatnonzero(approx >= approx.max() - slack)
    return int(max(near, key=_exact_key(p, q, d)))


# -- continued fractions ----------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Eventually periodic continued fraction [a0; preperiod, period repeating]."""

    a0: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if any(a < 1 for a in self.preperiod + self.period):
            raise ValueError("partial quotients after a0 must be >= 1")

    @property
    def quotient_bound(self) -> int:
        """K with a_i <= K for all i >= 1."""
        if not (self.preperiod or self.period):
            raise ValueError("no partial quotients after a0")
        return max(self.preperiod + self.period)


def cf_step_bound(x: QuadraticIrrational) -> int:
    """Steps within which `cf_expand` must close the period of x = (p + q√d)/r.

    Preperiod: x = [a0; a1, .., x_k] gives, conjugated, x_k' = −(q_{k−2} x' −
    p_{k−2}) / (q_{k−1} x' − p_{k−1}); with |x − p_j/q_j| < 1/(q_j q_{j+1}) and
    |x − x'| = 2|q|√d / r > 2/r, x_k is reduced (x_k > 1, −1 < x_k' < 0) once
    k ≥ 3 and q_{k−1} ≥ r, and q_{k−1} ≥ φ^(k−2): at most 2 + ⌈log_φ r⌉ quotients.
    Period: one period's complete quotients multiply to the fundamental unit
    η > 1 of discriminant Δ (of x's primitive minimal polynomial), and each
    adjacent pair to a_k x_{k+1} + 1 > 2, so l ≤ 2 log2 η + 1.  Dirichlet's
    class number formula h(Δ) ln ε⁺ = √Δ L(1, χ_Δ), with η ≤ ε⁺ and, by
    partial summation, L(1, χ) < ln Δ + 2, gives ln η < √Δ (ln Δ + 2)."""
    a, b, c = x.r * x.r, 2 * x.p * x.r, x.p * x.p - x.q * x.q * x.d
    disc = (b * b - 4 * a * c) // gcd(gcd(a, b), c) ** 2
    preperiod = 3 + 3 * x.r.bit_length() // 2  # 1.5 bits > log_φ 2 per bit of r
    return preperiod + 2 + int(2 * sqrt(disc) * (log(disc) + 2) / log(2))


def _is_reduced(y: QuadraticIrrational) -> bool:
    """y > 1 and −1 < y' < 0: by Galois's theorem, exactly the quadratic
    irrationals whose continued fraction is purely periodic."""
    p, q, r, d = y.as_tuple()
    return (
        _numerator_sign(p - r, q, d) > 0
        and _numerator_sign(p, -q, d) < 0
        and _numerator_sign(p + r, -q, d) > 0
    )


def cf_expand(x: QuadraticIrrational, max_steps: int | None = None) -> ContinuedFraction:
    """Continued fraction of a quadratic irrational, within `max_steps` steps
    (default `cf_step_bound(x)`).  The period starts at the first reduced
    complete quotient and ends where that quotient recurs, so memory is
    O(1) besides the quotients, and time grows with the period length:
    12,352 steps for √1000000007, about 0.2 s on a 2-vCPU Xeon."""
    if x.is_rational:
        raise ValueError("continued-fraction expansion here requires an irrational")
    if max_steps is None:
        max_steps = cf_step_bound(x)
    a0 = x.floor()
    y = (x - a0).inverse()
    first, start = None, 0
    terms: list[int] = []
    for _ in range(max_steps):
        if first is None:
            if _is_reduced(y):
                first, start = y, len(terms)
        elif y == first:
            return ContinuedFraction(a0, tuple(terms[:start]), tuple(terms[start:]))
        a = y.floor()
        terms.append(a)
        y = (y - a).inverse()
    raise ValueError(f"no period found within {max_steps} steps")


def cf_value(cf: ContinuedFraction) -> QuadraticIrrational:
    """Exact value of an eventually periodic continued fraction."""
    if not cf.period:
        raise ValueError("period must be non-empty for an irrational value")
    a, b, c, e = 1, 0, 0, 1  # matrix [[a, b], [c, e]]
    for quotient in cf.period:
        a, b, c, e = a * quotient + b, a, c * quotient + e, c
    disc = (a - e) * (a - e) + 4 * b * c
    y = QuadraticIrrational(a - e, 1, 2 * c, disc)
    value = y
    for quotient in reversed(cf.preperiod):
        value = quotient + value.inverse()
    return cf.a0 + value.inverse()


# -- angle parsing ----------------------------------------------------------
#
# "qi:(p,q,r,d)"  explicit quadratic irrational
# "cf:[a0;p1,p2|b1,b2]"  continued fraction, "|" separates preperiod/period

_QI_RE = re.compile(r"^\(?\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(\d+)\s*\)?$")


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def parse_cf(text: str) -> ContinuedFraction:
    body = text.strip()
    if body.startswith("cf:"):
        body = body[3:]
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"malformed continued fraction: {text!r}")
    body = body[1:-1]
    if ";" not in body:
        raise ValueError(f"malformed continued fraction (missing ';'): {text!r}")
    head, tail = body.split(";", 1)
    if "|" in tail:
        pre_text, per_text = tail.split("|", 1)
    else:
        pre_text, per_text = tail, ""
    return ContinuedFraction(int(head), _parse_int_list(pre_text), _parse_int_list(per_text))


def parse_angle(text: str) -> QuadraticIrrational:
    """Parse "qi:(p,q,r,d)" or "cf:[a0;pre|period]" into an exact value."""
    body = text.strip()
    if body.startswith("qi:"):
        match = _QI_RE.match(body[3:].strip())
        if not match:
            raise ValueError(f"malformed quadratic irrational: {text!r}")
        p, q, r, d = (int(g) for g in match.groups())
        return QuadraticIrrational(p, q, r, d)
    if body.startswith("cf:") or body.startswith("["):
        return cf_value(parse_cf(body))
    match = _QI_RE.match(body)
    if match:
        p, q, r, d = (int(g) for g in match.groups())
        return QuadraticIrrational(p, q, r, d)
    raise ValueError(f"unrecognized angle syntax: {text!r}")
