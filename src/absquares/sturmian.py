"""Sturmian words as exact rotation codings, and their abelian-square counts.

A Sturmian word with irrational angle alpha and initial point rho reads, for
each n, the letter coded by the interval containing {rho + n*alpha}:

* left convention:  letter b on [0, 1-alpha),   a on [1-alpha, 1)
* right convention: letter b on (0, 1-alpha],   a on (1-alpha, 1]
  (the orbit point 0 is identified with 1)

A letter is a difference of two exact floors (`quadratic.floors`), so
interval membership at the discontinuities is decided correctly.  The number
of distinct abelian-square factors of each even length n has a purely arithmetic
expression over the orbit points {-i*alpha}, i <= n (`sturmian_asf_range`),
which the combinatorial counting engine must reproduce on prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quadratic import QuadraticIrrational, as_qi, floors
from .words import BINARY_AB, Word

CONVENTIONS = ("left", "right")


@dataclass(frozen=True)
class SturmianSpec:
    """Angle, initial point and interval convention of a rotation coding."""

    angle: QuadraticIrrational
    rho: QuadraticIrrational
    convention: str = "left"

    def __post_init__(self):
        object.__setattr__(self, "angle", _irrational_angle(self.angle))
        object.__setattr__(self, "rho", as_qi(self.rho))
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
    ks = range(length + 1)
    if spec.convention == "right":
        steps = [-f for f in floors(-spec.angle, -spec.rho, ks)]
    else:
        steps = floors(spec.angle, spec.rho, ks)
    return Word(BINARY_AB, bytes(1 + a - b for a, b in zip(steps, steps[1:])))


def _irrational_angle(alpha) -> QuadraticIrrational:
    alpha = as_qi(alpha)
    if alpha.is_rational or not (0 < alpha < 1):
        raise ValueError("angle must be irrational in (0, 1)")
    return alpha


# -- arithmetic abelian-square counts ----------------------------------------


def sturmian_asf_range(alpha, max_n: int) -> dict[int, int]:
    """Number of distinct abelian-square factors of each even length
    n <= max_n of any Sturmian word with the given angle, computed
    arithmetically: among the points {-i*alpha}, i = 1..n, count those
    <= {-n*alpha} when floor(n*alpha) is even, and those >= {-n*alpha}
    otherwise.

    The count of earlier points below {-n*alpha} needs no sort.  With
    beta = 1 - alpha, {-j*alpha} = {j*beta}, and 1[{x} < {c}] =
    floor(x) - floor(x - c) - floor(c) summed over x = j*beta, j < n, with
    floor(-i*beta) = -floor(i*beta) - 1, gives 2*S + (n-1)*(1 - floor(n*beta)),
    where S sums floor(j*beta) = j - floor(j*alpha) - 1 over j < n.
    """
    alpha = _irrational_angle(alpha)
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    counts = {}
    s = 0
    for n, f in enumerate(floors(alpha, 0, range(1, max_n + 1)), 1):
        if n % 2 == 0:
            below = 2 * s + (n - 1) * (f + 2 - n)  # 1 - floor(n*beta) = f + 2 - n
            counts[n] = below + 1 if f % 2 == 0 else n - below
        s += n - f - 1
    return counts
