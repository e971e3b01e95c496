"""Finite words over small ordered alphabets.

Letters are integer indices 0..size-1; display symbols are attached via an
Alphabet and only matter for text I/O.  Words are immutable and store their
letters as raw bytes, so slicing, hashing and the translations between text
and letters run in C; numpy is imported only where an array is built.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet of single-character display symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValueError("alphabet needs at least one symbol")
        if len(self.symbols) > 256:  # a letter is one byte
            raise ValueError(f"alphabet has {len(self.symbols)} symbols; the limit is 256")
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


_LETTERS = bytes(range(256))


class _SymbolTable(dict):
    """Code point -> letter index for `str.translate`; unknown symbols raise."""

    def __missing__(self, code):
        raise ValueError(f"symbol {chr(code)!r} not in alphabet")


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable word; ``data`` holds letter indices as bytes."""

    alphabet: Alphabet
    data: bytes

    def __post_init__(self):
        object.__setattr__(self, "data", bytes(self.data))
        if self.data.translate(None, _LETTERS[: self.alphabet.size]):  # a letter outside the alphabet
            raise ValueError("letter index out of range for alphabet")

    # -- construction -------------------------------------------------

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet | None = None) -> "Word":
        if alphabet is None:
            alphabet = infer_alphabet(text)
        table = _SymbolTable({ord(s): i for i, s in enumerate(alphabet.symbols)})
        return cls(alphabet, text.translate(table).encode("latin-1"))

    # -- basics --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.alphabet, self.data[item])
        return self.data[item]

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.data + other.data)

    def text(self) -> str:
        return self.data.decode("latin-1").translate(dict(enumerate(self.alphabet.symbols)))

    def to_array(self) -> np.ndarray:
        """Read-only uint8 view of the letter indices (no copy)."""
        import numpy as np

        return np.frombuffer(self.data, dtype=np.uint8)

    def reverse(self) -> "Word":
        return Word(self.alphabet, self.data[::-1])

    def factor(self, start: int, length: int) -> "Word":
        if start < 0 or length < 0 or start + length > len(self.data):
            raise ValueError("factor out of range")
        return Word(self.alphabet, self.data[start : start + length])


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
