"""Paper facts the tests check against the engine.

The Fibonacci word, the arithmetic count of one length, the interval
partition of the golden-angle worked example, the Thue-Morse complexity
recurrences, boundary splits and square lifts, balance and Parikh vectors.
No CLI command runs these; the tests compare them with the counting engine
and the Sturmian functions of `absquares`, which they may call.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from absquares.counting import FactorIndex
from absquares.quadratic import GOLDEN_ANGLE, QuadraticIrrational, as_qi
from absquares.sturmian import SturmianSpec, _irrational_angle, sturmian_asf_range, sturmian_prefix
from absquares.substitutions import THUE_MORSE, thue_morse_prefix
from absquares.words import BINARY_01, Word

# -- Sturmian words -----------------------------------------------------------


def fibonacci_word(length: int) -> Word:
    """Characteristic Sturmian word with the golden angle."""
    return sturmian_prefix(SturmianSpec(GOLDEN_ANGLE, GOLDEN_ANGLE), length)


def sturmian_asf(alpha, n: int) -> int:
    """Number of distinct abelian-square factors of length n (n even) of any
    Sturmian word with the given angle: the entry n of `sturmian_asf_range`."""
    alpha = _irrational_angle(alpha)
    if n < 0 or n % 2 != 0:
        raise ValueError(f"length must be even and >= 0, got {n}")
    return sturmian_asf_range(alpha, n).get(n, 0)


@dataclass(frozen=True)
class IntervalEntry:
    """One cell [lo, hi) of the partition, the length-n factor its points
    generate, and whether that factor is heavy (ceil(n*alpha) letters a)."""

    lo: QuadraticIrrational
    hi: QuadraticIrrational
    factor: Word
    heavy: bool


@dataclass(frozen=True)
class IntervalPartition:
    n: int
    points: tuple[QuadraticIrrational, ...]  # 0, interior points sorted, 1
    entries: tuple[IntervalEntry, ...]


def interval_partition(alpha, n: int) -> IntervalPartition:
    """Partition of [0, 1) by the points {-i*alpha}, i = 1..n.

    Each of the n+1 cells is constant for the length-n coding map; the factor
    attached to a cell is read from its midpoint (which never sits on a
    discontinuity, so both conventions agree on it).  A cell is heavy exactly
    when it lies right of {-n*alpha}.
    """
    alpha = _irrational_angle(alpha)
    if n < 1:
        raise ValueError("n must be >= 1")
    orbit = [(alpha * -i).frac() for i in range(1, n + 1)]
    threshold = orbit[-1]  # {-n*alpha}
    points = [as_qi(0)] + sorted(orbit) + [as_qi(1)]
    entries = []
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        factor = sturmian_prefix(SturmianSpec(alpha, mid), n)
        entries.append(IntervalEntry(lo, hi, factor, heavy=lo >= threshold))
    return IntervalPartition(n, tuple(points), tuple(entries))


# -- Thue-Morse -----------------------------------------------------------------


@lru_cache(maxsize=1)
def _tm_base_complexity() -> dict[int, int]:
    """Factor counts for lengths 1..3, from the set of slices of a prefix long
    enough that the counts have stabilized."""
    data = thue_morse_prefix(1024).data
    return {n: len({data[i : i + n] for i in range(len(data) - n + 1)}) for n in (1, 2, 3)}


def tm_complexity(n: int) -> int:
    """Factor complexity p(n) of the Thue-Morse word.

    Base values for n <= 3 come from enumeration; larger lengths use the
    recurrences p(2m) = p(m) + p(m+1) and p(2m+1) = 2 p(m+1), valid from
    length 4 on.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    table = dict(_tm_base_complexity())
    for m in range(4, n + 1):
        half = m // 2
        table[m] = table[half] + table[half + 1] if m % 2 == 0 else 2 * table[half + 1]
    return table[n]


@dataclass(frozen=True)
class BoundaryCounts:
    """Distinct length-n factors split by whether they begin and end with the
    same letter (f_aa) or different letters (f_ab)."""

    n: int
    f_aa: int
    f_ab: int

    @property
    def p_n(self) -> int:
        return self.f_aa + self.f_ab


def boundary_counts(prefix: Word, n: int, index: FactorIndex) -> BoundaryCounts:
    """Boundary-letter statistics over the distinct length-n factors of the
    given prefix, read from its index.  The caller is responsible for the
    prefix being long enough to contain every factor (see
    `counting.factor_counts_stable`)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    reps = index.representative_positions(n)
    arr = index.arr
    same = int(np.count_nonzero(arr[reps] == arr[reps + n - 1]))
    return BoundaryCounts(n, same, int(reps.size) - same)


def tm_abelian_square_lift(factor: Word) -> tuple[Word, Word]:
    """Lift a Thue-Morse factor that begins and ends with the same letter to
    two abelian-square factors: its image under the squared substitution
    (length 4|u|) and that image with first and last letter removed
    (length 4|u| - 2)."""
    if factor.alphabet != BINARY_01:
        raise ValueError("expected a word over the alphabet 01")
    if len(factor) < 2:
        raise ValueError("factor must have length >= 2")
    if factor.data[0] != factor.data[-1]:
        raise ValueError("factor must begin and end with the same letter")
    probe = thue_morse_prefix(max(4096, 16 * len(factor)))
    if probe.data.find(factor.data) < 0:
        raise ValueError("not a factor of the Thue-Morse word")
    lifted = THUE_MORSE.apply(THUE_MORSE.apply(factor))
    return lifted, lifted[1:-1]


# -- words --------------------------------------------------------------------


@dataclass(frozen=True)
class ParikhVector:
    """Letter-occurrence counts of a word, indexed like its alphabet."""

    counts: tuple[int, ...]


def parikh(word: Word) -> ParikhVector:
    sigma = word.alphabet.size
    counts = [0] * sigma
    for letter in word.data:
        counts[letter] += 1
    return ParikhVector(tuple(counts))


def is_balanced(word: Word) -> bool:
    """Balance over a binary alphabet: counts of letter 0 in equal-length
    factors never differ by more than one."""
    if word.alphabet.size != 2:
        raise ValueError("balance is defined here for binary alphabets only")
    arr = word.to_array()
    n = arr.size
    if n < 2:
        return True
    prefix = np.concatenate(([0], np.cumsum(arr == 0, dtype=np.int64)))
    for length in range(2, n):
        window = prefix[length:] - prefix[:-length]
        if int(window.max()) - int(window.min()) > 1:
            return False
    return True


def distinct_factors(index: FactorIndex, length: int) -> list[Word]:
    """The distinct factors of the given length of the index's word, in
    lexicographic order."""
    word = index.word
    return [word.factor(int(p), length) for p in index.representative_positions(length)]
