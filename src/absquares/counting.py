"""Exact counting of distinct factors and abelian-square factors.

Two independent routes are kept side by side:

* the engine: a suffix array gives one representative occurrence per
  distinct factor, and an O(1) prefix-count test decides whether the two
  halves share a Parikh vector, for one long word (`FactorIndex`,
  `asf_profile`, `inequivalent_profile`) or many short ones (`batch_counts`);
* the oracle (`asf_profile_brute`, `inequivalent_profile_brute`): transparent
  enumeration of all substrings with explicit per-letter counting.

Whether a factor is an abelian square depends only on its content, so testing
a single representative occurrence is enough; the suffix array makes the
deduplication exact without any hashing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import Word

# `batch_counts` takes its rows, and `lcp_array` its pairs, in chunks of at
# most this many, so the ranks kept and the temporaries stay under a megabyte:
# with 2^14 a `baseline` process peaked 1 MB higher than the per-word engine,
# with 2^15 3 MB.
CHUNK_LETTERS = 1 << 13


# -- suffix sorting ---------------------------------------------------------


def build_suffix_array(letters: np.ndarray, depth: int):
    """Prefix doubling (Manber & Myers) on every row of a (W, n) letter array,
    stopped once it can tell apart every factor of length up to `depth`.

    Round k ranks the first 2^k letters of each suffix densely from 1, from
    one stable argsort per row of the key rank * base + the rank 2^(k-1)
    letters on.  Each row carries a column n past its end, of rank 0, which
    sorts first.  The rounds stop after round R once 2^R > depth, or earlier
    when every row's ranks are distinct.  Returns the int32 (W, n) order of
    round R, which sorts each row's suffixes by their first 2^R letters (the
    suffix array once the ranks are distinct), and the (W, n + 1) ranks of
    rounds 0..R-1 for `lcp_array`, each in the smallest type that holds it.
    """
    w, n = letters.shape
    top = int(letters.max(initial=0)) + 1
    rank = np.zeros((w, n + 1), dtype=np.min_scalar_type(top))
    rank[:, :n] = letters
    rank[:, :n] += 1
    base = np.int64(max(n, top) + 1)
    row_start = np.arange(w)[:, None] * (n + 1)
    ranks = []
    while True:
        ranks.append(rank)
        shift = 1 << (len(ranks) - 1)
        key = rank.astype(np.int64)  # int64 whatever numpy's casting rules
        key *= base
        key[:, : n + 1 - shift] += rank[:, shift:]
        order = key.argsort(axis=1, kind="stable")
        order += row_start
        at = order.ravel()
        key = key.ravel()[at].reshape(w, n + 1)
        fresh = np.zeros((w, n + 1), dtype=np.int32)
        fresh[:, 1:] = key[:, 1:] != key[:, :-1]
        del key
        fresh.cumsum(axis=1, out=fresh)
        top = fresh[:, -1].tolist()  # distinct ranks per row
        if 1 << len(ranks) > depth or min(top, default=n) == n:
            order -= row_start
            return order[:, 1:].astype(np.int32), ranks
        rank = np.empty((w, n + 1), dtype=np.min_scalar_type(max(top)))
        rank.ravel()[at] = fresh.ravel()


def lcp_array(order: np.ndarray, ranks: list) -> np.ndarray:
    """lcp[w, r]: the longest common prefix of the suffixes order[w, r - 1]
    and order[w, r] of row w (0 for r = 0), capped at 2^len(ranks) - 1.
    Going down from the top round k, add 2^k wherever the round-k ranks of
    the two suffixes, that many letters on, agree.  Two suffixes share a
    round-k rank only if both hold 2^k more letters, so the descent stops at
    a row's end, a 0.  Columns go through CHUNK_LETTERS pairs at a time."""
    w, n = order.shape
    lcp = np.zeros((w, n), dtype=np.int32)
    row_start = np.arange(w, dtype=np.int32)[:, None] * (n + 1)
    step = max(1, CHUNK_LETTERS // max(w, 1))
    for lo in range(1, n, step):
        hi = min(lo + step, n)
        a, b = order[:, lo - 1 : hi - 1] + row_start, order[:, lo:hi] + row_start
        part = lcp[:, lo:hi]
        for k in range(len(ranks) - 1, -1, -1):
            flat = ranks[k].ravel()
            np.add(part, 1 << k, out=part, where=flat[a + part] == flat[b + part])
    return lcp


# -- the abelian-square test ------------------------------------------------


def _prefix_counts(letters: np.ndarray, sigma: int) -> np.ndarray:
    """(sigma - 1, W, n + 1) per-letter prefix counts of a (W, n) letter
    array; the last letter's count follows from the length."""
    w, n = letters.shape
    counts = np.zeros((max(sigma - 1, 0), w, n + 1), dtype=np.int32)
    for letter in range(sigma - 1):
        np.cumsum(letters == letter, axis=1, out=counts[letter, :, 1:])
    return counts


def _abelian_squares(prefix: np.ndarray, starts, m: int):
    """(square, half) for the length-m factors at `starts`, an index array or
    a slice of positions on the last axis of `prefix`: whether the two
    halves share a Parikh vector, and the first half's vector."""
    if isinstance(starts, slice):
        lo, mid, hi = (prefix[..., starts.start + k : starts.stop + k] for k in (0, m // 2, m))
    else:
        lo = prefix.take(starts, axis=-1)
        mid, hi = prefix.take(starts + m // 2, axis=-1), prefix.take(starts + m, axis=-1)
    half = mid - lo
    return (half == hi - mid).all(axis=0), half


def _classes_per_row(keep: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Number of distinct vectors half[:, w, s] over the kept s of each row
    w.  Row and vector are packed into one int64 key, row first, in base
    max + 1; should the next digit not fit, the key is replaced by its rank."""
    rows, cols = np.nonzero(keep)  # rows come out sorted
    key = rows.astype(np.int64)
    base = int(half.max(initial=0)) + 1
    bound = keep.shape[0]  # every key is below it
    for digits in half:
        if bound > (1 << 62) // base:
            ranked, key = np.unique(key, return_inverse=True)
            bound = ranked.size
        key = key * base + digits[rows, cols]
        bound *= base
    key.sort()  # row first, so the sorted keys keep the rows' order
    fresh = np.ones(key.size, dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    return np.bincount(rows[fresh], minlength=keep.shape[0])


def batch_counts(words, sigma: int, inequivalent: bool = False) -> np.ndarray:
    """Abelian-square counts of W words of one length L: column j of the
    (W, L // 2) result counts, per row of the (W, L) letter array `words`,
    the distinct abelian-square factors of length 2(j + 1), or with
    `inequivalent` their Parikh classes.  A start whose LCP with the suffix
    before it is below m holds the first occurrence of its length-m factor;
    one prefix-count test per length covers all rows."""
    words = np.asarray(words, dtype=np.uint8)
    w, n = words.shape
    out = np.zeros((w, n // 2), dtype=np.int64)
    step = max(1, CHUNK_LETTERS // max(n, 1))
    for lo in range(0, w, step):
        chunk = words[lo : lo + step]
        prefix = _prefix_counts(chunk, sigma)
        if not inequivalent:  # classes need no deduplication of factors
            order, ranks = build_suffix_array(chunk, n)
            lcp = np.empty_like(order)  # by start position
            np.put_along_axis(lcp, order, lcp_array(order, ranks), axis=1)
            del ranks
        for m in range(2, n + 1, 2):
            starts = slice(0, n - m + 1)
            square, half = _abelian_squares(prefix, starts, m)
            if inequivalent:
                out[lo : lo + step, m // 2 - 1] = _classes_per_row(square, half)
            else:
                out[lo : lo + step, m // 2 - 1] = (square & (lcp[:, starts] < m)).sum(axis=1)
    return out


class FactorIndex:
    """Suffix-array view of one word: distinct factors, their representative
    occurrences, and per-letter prefix counts for O(1) Parikh queries.

    `depth` is the longest factor length the index answers (all of them when
    None): the doubling stops once it sorts the suffixes that far, so a
    longer query raises ValueError."""

    def __init__(self, word: Word, depth: int | None = None):
        self.word = word
        self.n = len(word)
        self.depth = self.n if depth is None else min(depth, self.n)
        self.sigma = word.alphabet.size
        self.arr = word.to_array()
        order, ranks = build_suffix_array(self.arr[None], self.depth)
        self.sa = order[0]
        self.lcp = lcp_array(order, ranks)[0]
        self.prefix = _prefix_counts(self.arr[None], self.sigma)

    def representative_positions(self, length: int) -> np.ndarray:
        """Start position of the first occurrence (in suffix order) of each
        distinct factor of the given length; factors come out in
        lexicographic order."""
        if length < 0 or length > self.depth:
            raise ValueError(f"factor length {length} out of range 0..{self.depth}")
        if length == 0:
            return np.zeros(1, dtype=np.int64)
        return self.sa[(self.lcp < length) & (self.sa <= self.n - length)]

    def distinct_count(self, length: int) -> int:
        return int(self.representative_positions(length).size) if length else 1

    def distinct_factors(self, length: int) -> list[Word]:
        return [self.word.factor(int(p), length) for p in self.representative_positions(length)]

    def _squares(self, length: int):
        """`_abelian_squares` at the representatives of one even length."""
        if length % 2 != 0 or length < 2:
            raise ValueError(f"abelian squares have even positive length, got {length}")
        return _abelian_squares(self.prefix, self.representative_positions(length), length)

    def abelian_square_count(self, length: int) -> int:
        """Number of distinct abelian-square factors of the given length."""
        return int(np.count_nonzero(self._squares(length)[0]))

    def abelian_square_parikh_classes(self, length: int) -> int:
        """Number of distinct Parikh vectors among the abelian-square factors
        of the given length."""
        return int(_classes_per_row(*self._squares(length))[0])


# -- profiles ---------------------------------------------------------------


@dataclass(frozen=True)
class ASFProfile:
    """Distinct abelian-square factor counts per even length."""

    max_length: int
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, length: int) -> int:
        return self.counts.get(length, 0)


@dataclass(frozen=True)
class InequivalentProfile:
    """Distinct Parikh vectors among abelian-square factors, per even length.

    Lengths with no abelian squares are omitted; `total` pools the classes
    over all lengths (vectors of different total length never coincide, so
    this equals the sum of the per-length entries).
    """

    max_length: int
    per_length: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.per_length.values())


def _check_profile_args(word: Word, max_length: int) -> None:
    if max_length % 2 != 0 or max_length < 0:
        raise ValueError(f"max_length must be even and >= 0, got {max_length}")
    if max_length > len(word):
        raise ValueError(f"max_length {max_length} exceeds word length {len(word)}")


def asf_profile(word: Word, max_length: int, index: FactorIndex | None = None) -> ASFProfile:
    """Count the distinct abelian-square factors of each even length up to
    ``max_length`` (inclusive)."""
    _check_profile_args(word, max_length)
    idx = index if index is not None else FactorIndex(word, max_length)
    counts = {m: idx.abelian_square_count(m) for m in range(2, max_length + 1, 2)}
    return ASFProfile(max_length, counts)


def inequivalent_profile(
    word: Word, max_length: int, index: FactorIndex | None = None
) -> InequivalentProfile:
    _check_profile_args(word, max_length)
    idx = index if index is not None else FactorIndex(word, max_length)
    per_length = {}
    for m in range(2, max_length + 1, 2):
        classes = idx.abelian_square_parikh_classes(m)
        if classes:
            per_length[m] = classes
    return InequivalentProfile(max_length, per_length)


def unstable_lengths(word: Word, lengths, index: FactorIndex | None = None) -> list:
    """Adequacy certificate for a prefix of an infinite word: the lengths at
    which the distinct factor counts of the half prefix and the full prefix
    differ.  `index` may hold the full prefix's index; each is built once."""
    lengths = list(lengths)
    depth = max(lengths, default=0)
    full = index if index is not None else FactorIndex(word, depth)
    half = FactorIndex(word[: len(word) // 2], depth)
    return [n for n in lengths if n > half.n or half.distinct_count(n) != full.distinct_count(n)]


def factor_counts_stable(word: Word, lengths) -> bool:
    """True when no length in `lengths` is unstable (see `unstable_lengths`)."""
    return not unstable_lengths(word, lengths)


# -- brute-force oracles ----------------------------------------------------


def _halves_match(data: bytes, start: int, length: int, sigma: int) -> bool:
    half = length // 2
    mid = start + half
    end = start + length
    return all(
        data.count(letter, start, mid) == data.count(letter, mid, end)
        for letter in range(sigma)
    )


def asf_profile_brute(word: Word, max_length: int) -> ASFProfile:
    """Oracle: enumerate every substring, deduplicate by content, test the
    halves by counting letters."""
    _check_profile_args(word, max_length)
    data = word.data
    sigma = word.alphabet.size
    counts = {}
    for m in range(2, max_length + 1, 2):
        seen = set()
        for i in range(len(data) - m + 1):
            piece = data[i : i + m]
            if piece not in seen and _halves_match(data, i, m, sigma):
                seen.add(piece)
        counts[m] = len(seen)
    return ASFProfile(max_length, counts)


def inequivalent_profile_brute(word: Word, max_length: int) -> InequivalentProfile:
    _check_profile_args(word, max_length)
    data = word.data
    sigma = word.alphabet.size
    per_length = {}
    for m in range(2, max_length + 1, 2):
        classes = set()
        for i in range(len(data) - m + 1):
            if _halves_match(data, i, m, sigma):
                classes.add(tuple(data.count(letter, i, i + m) for letter in range(sigma)))
        if classes:
            per_length[m] = len(classes)
    return InequivalentProfile(max_length, per_length)
