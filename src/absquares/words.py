"""Finite words over small ordered alphabets.

Letters are integer indices 0..size-1; display symbols are attached via an
Alphabet and only matter for text I/O.  Words are immutable and store their
letters as raw bytes, which keeps slicing, hashing and numpy views cheap.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet of single-character display symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet: {self.symbols!r}")
        for s in self.symbols:
            if len(s) != 1:
                raise ValueError(f"symbols must be single characters, got {s!r}")

    @classmethod
    def from_symbols(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    @classmethod
    def default(cls, size: int) -> "Alphabet":
        """a, b, c, ... for sizes up to 26."""
        if not 1 <= size <= 26:
            raise ValueError(f"default alphabet supports sizes 1..26, got {size}")
        return cls(tuple(string.ascii_lowercase[:size]))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols!r}") from None


BINARY_AB = Alphabet.from_symbols("ab")
BINARY_01 = Alphabet.from_symbols("01")


def infer_alphabet(text: str) -> Alphabet:
    """Guess an alphabet for a piece of word text.

    Binary text over {a,b} or {0,1} gets the full binary alphabet even when
    only one symbol occurs; anything else uses the sorted set of symbols.
    """
    seen = set(text)
    if not seen:
        return BINARY_AB
    if seen <= {"a", "b"}:
        return BINARY_AB
    if seen <= {"0", "1"}:
        return BINARY_01
    return Alphabet(tuple(sorted(seen)))


class Word:
    """Immutable word; ``data`` holds letter indices as bytes."""

    __slots__ = ("alphabet", "data")

    def __init__(self, alphabet: Alphabet, data: bytes):
        if data and max(data) >= alphabet.size:
            raise ValueError("letter index out of range for alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "data", bytes(data))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet | None = None) -> "Word":
        if alphabet is None:
            alphabet = infer_alphabet(text)
        lookup = {s: i for i, s in enumerate(alphabet.symbols)}
        try:
            return cls(alphabet, bytes(lookup[c] for c in text))
        except KeyError as exc:
            raise ValueError(f"symbol {exc.args[0]!r} not in alphabet") from None

    # -- basics --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[int]:
        return iter(self.data)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.alphabet, self.data[item])
        return self.data[item]

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.data + other.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.data))

    def __repr__(self) -> str:
        text = self.text()
        if len(text) > 40:
            text = text[:37] + "..."
        return f"Word({text!r})"

    def text(self) -> str:
        syms = self.alphabet.symbols
        return "".join(syms[i] for i in self.data)

    def to_array(self) -> np.ndarray:
        """Read-only uint8 view of the letter indices (no copy)."""
        return np.frombuffer(self.data, dtype=np.uint8)

    def reverse(self) -> "Word":
        return Word(self.alphabet, self.data[::-1])

    def factor(self, start: int, length: int) -> "Word":
        if start < 0 or length < 0 or start + length > len(self.data):
            raise ValueError("factor out of range")
        return Word(self.alphabet, self.data[start : start + length])


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


def is_abelian_kpower(word: Word, k: int) -> bool:
    """True iff the word splits into k consecutive blocks sharing a Parikh vector.

    The empty word is an abelian k-power for every k >= 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(word)
    if n == 0:
        return True
    if n % k != 0:
        return False
    block = n // k
    data = word.data
    sigma = word.alphabet.size
    first = [data.count(l, 0, block) for l in range(sigma)]
    for j in range(1, k):
        lo = j * block
        if any(data.count(l, lo, lo + block) != first[l] for l in range(sigma)):
            return False
    return True


def is_abelian_square(word: Word) -> bool:
    return len(word) % 2 == 0 and is_abelian_kpower(word, 2)


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


# -- word text files -------------------------------------------------------
#
# One word per line, display symbols only.  An optional header line
# "#alphabet: ab" pins the alphabet; otherwise it is inferred per file.


def parse_word_lines(lines: Iterable[str]) -> list[Word]:
    alphabet: Alphabet | None = None
    body: list[str] = []
    for raw in lines:
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            stripped = line[1:].strip()
            if stripped.startswith("alphabet:"):
                alphabet = Alphabet.from_symbols(stripped.split(":", 1)[1].strip())
            continue
        body.append(line.strip())
    if alphabet is None:
        alphabet = infer_alphabet("".join(body))
    return [Word.from_text(line, alphabet) for line in body]


def read_word_file(path) -> list[Word]:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_word_lines(fp)


def format_word_lines(words: list[Word]) -> str:
    out = []
    if words:
        out.append("#alphabet: " + "".join(words[0].alphabet.symbols))
    out.extend(w.text() for w in words)
    return "\n".join(out) + "\n"


def write_word_file(path, words: list[Word]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(format_word_lines(words))
