"""Sturmian words as exact rotation codings, and their abelian-square counts.

A Sturmian word with irrational angle alpha and initial point rho reads, for
each n, the letter coded by the interval containing {rho + n*alpha}:

* left convention:  letter b on [0, 1-alpha),   a on [1-alpha, 1)
* right convention: letter b on (0, 1-alpha],   a on (1-alpha, 1]
  (the orbit point 0 is identified with 1)

All point arithmetic is exact (the integer kernel of `quadratic`), so
interval membership at the discontinuities is decided correctly.  The number
of distinct abelian-square factors of each even length n has a purely arithmetic
expression over the orbit points {-i*alpha}, i <= n (`sturmian_asf_range`),
which the combinatorial counting engine must reproduce on prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadratic import QuadraticIrrational, as_qi, exact_argsort, floor_values, frac_points
from .words import BINARY_AB, Word

CONVENTIONS = ("left", "right")


@dataclass(frozen=True)
class SturmianSpec:
    """Angle, initial point and interval convention of a rotation coding."""

    angle: QuadraticIrrational
    rho: QuadraticIrrational
    convention: str = "left"

    def __post_init__(self):
        object.__setattr__(self, "angle", as_qi(self.angle))
        object.__setattr__(self, "rho", as_qi(self.rho))
        if self.angle.is_rational:
            raise ValueError("angle must be irrational")
        if not (0 < self.angle < 1):
            raise ValueError("angle must lie in (0, 1)")
        if not (0 <= self.rho < 1):
            raise ValueError("initial point must lie in [0, 1)")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")


def sturmian_prefix(spec: SturmianSpec, length: int) -> Word:
    """First `length` letters of the rotation coding, over the alphabet ab.

    Letter n is a exactly when floor((n+1)*alpha + rho) - floor(n*alpha + rho)
    is 1, i.e. when {n*alpha + rho} lies in [1-alpha, 1); ceilings in place of
    floors give the right convention (Lothaire, ch. 2, mechanical words).
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    ks = np.arange(length + 1)
    if spec.convention == "right":
        steps = -floor_values(-spec.angle, -spec.rho, ks)
    else:
        steps = floor_values(spec.angle, spec.rho, ks)
    return Word(BINARY_AB, (1 - np.diff(steps)).astype(np.uint8).tobytes())


def _irrational_angle(alpha) -> QuadraticIrrational:
    alpha = as_qi(alpha)
    if alpha.is_rational or not (0 < alpha < 1):
        raise ValueError("angle must be irrational in (0, 1)")
    return alpha


def _negative_orbit(alpha: QuadraticIrrational, n: int):
    """Points {-i*alpha}, i = 1..n, as numerators (P, Q) over alpha.r, in
    orbit order, with the indices that sort them."""
    p, q = frac_points(alpha, -np.arange(1, n + 1))
    return p, q, exact_argsort(p, q, alpha.d)


# -- arithmetic abelian-square counts ----------------------------------------


def _smaller_before(ranks: np.ndarray) -> np.ndarray:
    """For each i, the number of j < i with ranks[j] < ranks[i]: a bottom-up
    merge count, where each level counts a right block's entries against the
    sorted left block of its pair with one searchsorted."""
    n = len(ranks)
    out = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    width = 1
    while width < n:
        start = idx // (2 * width) * n  # the keys of one pair lie in [start, start + n)
        right = (idx // width) % 2 == 1
        keys = start + ranks
        left = np.sort(keys[~right], kind="stable")  # one sort kernel for the whole pass
        out[right] += np.searchsorted(left, keys[right]) - np.searchsorted(left, start[right])
        width *= 2
    return out


def sturmian_asf_range(alpha, max_n: int) -> dict[int, int]:
    """Number of distinct abelian-square factors of each even length
    n <= max_n of any Sturmian word with the given angle, computed
    arithmetically: among the points {-i*alpha}, i = 1..n, count those
    <= {-n*alpha} when floor(n*alpha) is even, and those >= {-n*alpha}
    otherwise.

    All n share one sorted orbit: with the global ranks of {-i*alpha}, the
    count at n is read off the number of earlier points below {-n*alpha},
    found offline for all n.
    """
    alpha = _irrational_angle(alpha)
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n < 2:
        return {}
    _, _, order = _negative_orbit(alpha, max_n)
    below = _smaller_before(np.argsort(order, kind="stable"))  # the inverse permutation
    ns = np.arange(2, max_n + 1, 2)
    even = floor_values(alpha, 0, ns) % 2 == 0
    counts = np.where(even, below[ns - 1] + 1, ns - below[ns - 1])
    return dict(zip(ns.tolist(), counts.tolist()))
