"""Substitutions on words, their fixed points, and substitution files.

The Thue-Morse word t is the fixed point of 0 -> 01, 1 -> 10 starting from 0
(`thue_morse_prefix`).  Its complexity recurrences and square lifts, which
the tests check against the counting engine, live in `tests/paper_facts.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
        """The image of `word`: one `str.translate` of its latin-1 text
        through a letter -> image table."""
        if word.alphabet != self.alphabet:
            raise ValueError("word alphabet does not match substitution alphabet")
        table = {letter: img.data.decode("latin-1") for letter, img in enumerate(self.images)}
        return Word(self.alphabet, word.data.decode("latin-1").translate(table).encode("latin-1"))

    def is_primitive(self) -> bool:
        """Some power of the incidence matrix is entrywise positive: for some
        k <= sigma**2 + 1 (Wielandt's bound is (sigma-1)**2 + 1), every letter's
        k-th image, whose letters `reach` steps through, holds every letter."""
        every = set(range(self.alphabet.size))
        step = [set(img.data) for img in self.images]
        reach = step
        for _ in range(self.alphabet.size ** 2 + 1):
            if all(letters == every for letters in reach):
                return True
            reach = [set().union(*(step[letter] for letter in letters)) for letters in reach]
        return False


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
    while len(current) < length:  # the spec makes each step grow the word
        current = sub.apply(current)
    return current[:length]


# -- Thue-Morse -------------------------------------------------------------

THUE_MORSE = Substitution.from_strings(BINARY_01, "01", "10")
_TM_SPEC = FixedPointSpec(THUE_MORSE, 0)


def thue_morse_prefix(length: int) -> Word:
    return fixed_point_prefix(_TM_SPEC, length)


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
