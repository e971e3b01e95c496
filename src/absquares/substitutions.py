"""Substitutions on words, their fixed points, and Thue-Morse structure.

The Thue-Morse word t is the fixed point of 0 -> 01, 1 -> 10 starting from 0.
Its factor complexity satisfies p(2n) = p(n) + p(n+1) and p(2n+1) = 2 p(n+1)
once n >= 2; the three base values are bootstrapped by enumerating factors of
a prefix (see `tm_complexity`).  Factors that begin and end with the same
letter lift to abelian-square factors via the squared substitution
(`tm_abelian_square_lift`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .counting import FactorIndex
from .words import BINARY_01, Alphabet, Word


@dataclass(frozen=True)
class Substitution:
    """Map sending each letter to a non-empty word over the same alphabet."""

    alphabet: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.alphabet.size:
            raise ValueError("need exactly one image per letter")
        for img in self.images:
            if img.alphabet != self.alphabet:
                raise ValueError("images must live over the substitution's alphabet")
            if len(img) == 0:
                raise ValueError("images must be non-empty")

    @classmethod
    def from_strings(cls, alphabet: Alphabet, *images: str) -> "Substitution":
        return cls(alphabet, tuple(Word.from_text(s, alphabet) for s in images))

    def apply(self, word: Word) -> Word:
        if word.alphabet != self.alphabet:
            raise ValueError("word alphabet does not match substitution alphabet")
        images = [img.data for img in self.images]
        return Word(self.alphabet, b"".join(images[letter] for letter in word.data))

    def incidence_matrix(self) -> np.ndarray:
        """M[i, j] = occurrences of letter i in the image of letter j."""
        sigma = self.alphabet.size
        m = np.zeros((sigma, sigma), dtype=np.int64)
        for j, img in enumerate(self.images):
            for letter in img.data:
                m[letter, j] += 1
        return m

    def is_primitive(self) -> bool:
        """Some power of the incidence matrix is entrywise positive; powers up
        to sigma**2 suffice (Wielandt's bound is (sigma-1)**2 + 1)."""
        m = (self.incidence_matrix() > 0).astype(np.int8)
        power = m.copy()
        for _ in range(self.alphabet.size ** 2):
            if power.all():
                return True
            power = ((power @ m) > 0).astype(np.int8)
        return bool(power.all())


@dataclass(frozen=True)
class FixedPointSpec:
    """A substitution together with a seed letter it is prolongable on."""

    substitution: Substitution
    seed: int

    def __post_init__(self):
        sub = self.substitution
        if not 0 <= self.seed < sub.alphabet.size:
            raise ValueError(f"seed letter {self.seed} out of range")
        image = sub.images[self.seed]
        if len(image) < 2 or image.data[0] != self.seed:
            raise ValueError(
                "substitution is not prolongable on the seed: the seed's image "
                "must start with the seed and have length >= 2"
            )
        if not sub.is_primitive():
            raise ValueError("substitution must be primitive")


def fixed_point_prefix(spec: FixedPointSpec, length: int) -> Word:
    """Prefix of the fixed point obtained by iterating the substitution."""
    if length < 0:
        raise ValueError("length must be >= 0")
    sub = spec.substitution
    current = Word(sub.alphabet, bytes([spec.seed]))
    while len(current) < length:
        grown = sub.apply(current)
        if len(grown) <= len(current):
            raise ValueError("substitution does not grow from the seed")
        current = grown
    return current[:length]


# -- Thue-Morse -------------------------------------------------------------

THUE_MORSE = Substitution.from_strings(BINARY_01, "01", "10")
_TM_SPEC = FixedPointSpec(THUE_MORSE, 0)


def thue_morse_prefix(length: int) -> Word:
    return fixed_point_prefix(_TM_SPEC, length)


@lru_cache(maxsize=1)
def _tm_base_complexity() -> dict[int, int]:
    """Factor counts for lengths 1..3, enumerated from a prefix long enough
    that the counts have stabilized."""
    idx = FactorIndex(thue_morse_prefix(1024), 3)
    return {n: idx.distinct_count(n) for n in (1, 2, 3)}


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


def boundary_counts(prefix: Word, n: int, index: FactorIndex | None = None) -> BoundaryCounts:
    """Boundary-letter statistics over the distinct length-n factors of the
    given prefix.  The caller is responsible for the prefix being long enough
    to contain every factor (see `counting.factor_counts_stable`)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = index if index is not None else FactorIndex(prefix, n)
    reps = idx.representative_positions(n)
    arr = idx.arr
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


# -- substitution text files ------------------------------------------------
#
# One rule per line, "symbol -> image"; an optional "#seed: <symbol>" line
# records the seed letter for fixed-point generation.


def parse_substitution_lines(lines: Iterable[str]) -> tuple[Substitution, int | None]:
    rules: list[tuple[str, str]] = []
    seed_symbol: str | None = None
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            stripped = line[1:].strip()
            if stripped.startswith("seed:"):
                seed_symbol = stripped.split(":", 1)[1].strip()
            continue
        if "->" not in line:
            raise ValueError(f"malformed substitution rule: {line!r}")
        left, right = (part.strip() for part in line.split("->", 1))
        if len(left) != 1 or not right:
            raise ValueError(f"malformed substitution rule: {line!r}")
        rules.append((left, right))
    if not rules:
        raise ValueError("no substitution rules found")
    alphabet = Alphabet(tuple(symbol for symbol, _ in rules))
    sub = Substitution.from_strings(alphabet, *(image for _, image in rules))
    seed = alphabet.index(seed_symbol) if seed_symbol is not None else None
    return sub, seed


def read_substitution_file(path) -> tuple[Substitution, int | None]:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_substitution_lines(fp)
