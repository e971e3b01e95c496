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
from functools import lru_cache, total_ordering
from math import gcd, isqrt, log, sqrt


@lru_cache(maxsize=1024)
def _split_square(d: int) -> tuple[int, int]:
    """d = s**2 * d0 with d0 squarefree; returns (s, d0).  Trial division stops
    once f**3 exceeds the rest, whose prime factors are then all >= f: it is
    1, p, p*q or p**2, told apart by one isqrt.  Cached: that costs about
    cbrt(d) divisions, and a field's values all share one radicand."""
    if d < 0:
        raise ValueError("negative radicand")
    s, free, rest, f = 1, 1, d, 2
    while f * f * f <= rest:
        while rest % (f * f) == 0:
            rest //= f * f
            s *= f
        if rest % f == 0:
            rest //= f
            free *= f
        f += 1
    r = isqrt(rest)
    return (s * r, free) if r * r == rest > 0 else (s, free * rest)


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


@total_ordering
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
            if d <= 1:  # the radicand was a perfect square, 0 included
                p, q = p + q * d, 0
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
        if isinstance(other, (int, Fraction)):
            return QuadraticIrrational(other.numerator, 0, other.denominator, 0)
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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):  # canonical: rational exactly when d == 0
            return self.d == 0 and (self.p, self.r) == (other.numerator, other.denominator)
        if isinstance(other, QuadraticIrrational):
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
        """`floor_rule` on the value's own integers."""
        return floor_rule(self.p, self.q, self.d, self.r)

    def frac(self) -> "QuadraticIrrational":
        return self - self.floor()

    def __float__(self) -> float:
        """Within one ulp: a nonzero |p + q*sqrt(d)| exceeds 1/(|p| + |q|*sqrt(d))
        (p*p - q*q*d is a nonzero integer), so floor(value * 2**k) keeps over
        64 significant bits, and one correctly rounded int division gives the float."""
        p, q, r, d = self.as_tuple()
        k = 64 + r.bit_length() + (abs(p) + abs(q) * (isqrt(d) + 1)).bit_length()
        return floor_rule(p << k, q << k, d, r) / (1 << k)

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


# -- floors and maxima over many values -------------------------------------


def floor_rule(a: int, b: int, d: int, r: int) -> int:
    """floor((a + b*sqrt(d))/r) for r > 0 and squarefree d: with s =
    isqrt(b*b*d), b*sqrt(d) lies strictly between s and s + 1 unless b = 0."""
    s = isqrt(b * b * d)
    return (a + s) // r if b >= 0 else (a - s - 1) // r


def floors(alpha, rho, ks) -> list[int]:
    """floor(k*alpha + rho) for every integer k of `ks`, by `floor_rule` on
    k*alpha + rho = (A + B*sqrt(d))/R with one common denominator R."""
    rho = as_qi(rho)
    alpha = rho._coerced(as_qi(alpha))  # raises unless one field
    d = alpha.d or rho.d
    big_r = alpha.r * rho.r // gcd(alpha.r, rho.r)
    a, b = alpha.p * (big_r // alpha.r), alpha.q * (big_r // alpha.r)
    a0, b0 = rho.p * (big_r // rho.r), rho.q * (big_r // rho.r)
    return [floor_rule(a * k + a0, b * k + b0, d, big_r) for k in ks]


def exact_argmax(ps, qs, d: int) -> int:
    """First index of the largest value (ps[i] + qs[i]*sqrt(d))/r (one r > 0),
    in one scan of exact sign tests."""
    best, best_p, best_q = 0, ps[0], qs[0]
    for i, (p, q) in enumerate(zip(ps, qs)):
        if _numerator_sign(p - best_p, q - best_q, d) > 0:
            best, best_p, best_q = i, p, q
    return best


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


def cf_expand(x: QuadraticIrrational, max_steps: int | None = None) -> ContinuedFraction:
    """Continued fraction of a quadratic irrational, within `max_steps` steps
    (default `cf_step_bound(x)`).  Complete quotients are (P + √D)/Q with
    Q | D − P², stepped on integers (the PQa recurrence).  The period starts
    at the first reduced one (y > 1, −1 < y' < 0: by Galois's theorem, where
    the expansion turns purely periodic) and ends where its (P, Q) recurs."""
    if x.is_rational:
        raise ValueError("continued-fraction expansion here requires an irrational")
    if max_steps is None:
        max_steps = cf_step_bound(x)
    sign = 1 if x.q > 0 else -1  # x = (sign*p + √(q²d)) / (sign*r)
    P, Q, D = sign * x.p, sign * x.r, x.q * x.q * x.d
    if (D - P * P) % Q:
        P, Q, D = P * abs(Q), Q * abs(Q), D * Q * Q
    s = isqrt(D)  # s < √D < s + 1, so floors follow `QuadraticIrrational.floor`
    a0 = a = (P + s + (Q < 0)) // Q
    first, start = None, 0
    terms: list[int] = []
    for _ in range(max_steps):
        P = a * Q - P
        Q = (D - P * P) // Q
        if (P, Q) == first:
            return ContinuedFraction(a0, tuple(terms[:start]), tuple(terms[start:]))
        # reduced: y > 1 is P + √D > Q, y' < 0 is P < √D, y' > −1 is P + Q > √D
        if first is None and Q > 0 and Q - P <= s and P <= s < P + Q:
            first, start = (P, Q), len(terms)
        a = (P + s + (Q < 0)) // Q
        terms.append(a)
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
_INTS = r"\s*(?:-?\d+\s*(?:,\s*-?\d+\s*)*)?"
_CF_RE = re.compile(rf"^\[\s*(-?\d+)\s*;({_INTS})(?:\|({_INTS}))?\]$")


def _parse_int_list(text: str | None) -> tuple[int, ...]:
    return tuple(map(int, re.findall(r"-?\d+", text or "")))


def parse_cf(text: str) -> ContinuedFraction:
    match = _CF_RE.match(text.strip().removeprefix("cf:").strip())
    if not match:
        raise ValueError(f"malformed continued fraction: {text!r}")
    head, pre_text, per_text = match.groups()
    return ContinuedFraction(int(head), _parse_int_list(pre_text), _parse_int_list(per_text))


def parse_angle(text: str) -> QuadraticIrrational:
    """Parse "qi:(p,q,r,d)" or "(p,q,r,d)" for (p + q*sqrt(d))/r, or
    "cf:[a0;pre|period]" or "[a0;pre|period]" for a continued fraction."""
    body = text.strip()
    if body.startswith("cf:") or body.startswith("["):
        return cf_value(parse_cf(body))
    match = _QI_RE.match(body.removeprefix("qi:").strip())
    if match:
        return QuadraticIrrational(*(int(g) for g in match.groups()))
    raise ValueError(f"unrecognized angle syntax: {text!r}")
