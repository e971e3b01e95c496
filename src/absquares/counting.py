"""Exact counting of distinct factors and abelian-square factors.

One loop over the even lengths m, `_square_loop`, serves one long word
(`FactorIndex`, `asf_profile`, `inequivalent_profile`) and a batch of short
words (`batch_counts`) alike: the first occurrence (in suffix order) of each
length-m factor starts where the suffix array's LCP, scattered into start
order, is below m, and an O(1) prefix-count test decides whether its two
halves share a Parikh vector.  The brute-force oracle the tests hold this
engine to lives in `tests/counting_reference.py`.

Whether a factor is an abelian square depends only on its content, so testing
one occurrence per factor is enough, and no hashing is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import Word

# `batch_counts` takes its rows in chunks of at most this many letters and
# `lcp_array` its pairs in half as many (each gathers two uint64 grams), so
# the temporaries stay under a megabyte: with 2^14 a `baseline` process
# peaked 1 MB higher than the per-word engine, with 2^15 3 MB.
CHUNK_LETTERS = 1 << 13


# -- suffix sorting ---------------------------------------------------------


def build_suffix_array(letters: np.ndarray, depth: int):
    """Prefix doubling (Manber & Myers) from packed q-grams on every row of a
    (W, n) letter array, stopped once it tells apart every factor of length
    up to `depth`.  Round 0 sorts grams: a uint64 per position holds its next
    q letters, letter + 1 in b bits each, first letter highest, 0 past the
    end; b is the bit length of the largest letter + 1, q the largest power
    of two <= 64 // b, capped at the least power of two above `depth`.  Round
    k ranks the first q * 2^k letters by a stable argsort per row of rank *
    (n + 1) + the rank q * 2^(k-1) letters on.  Column n, past a row's end,
    sorts first.  The rounds stop after round R once q * 2^R > depth or every
    row's ranks are distinct.  Returns the int32 (W, n) order of round R (by
    the first q * 2^R letters, ties by start), and for `lcp_array` the grams,
    the cuts 0, 2^b, ..., 2^((q-1)b) and the ranks of rounds 0..R-1 (grams
    for round 0)."""
    w, n = letters.shape
    width = (int(letters.max(initial=0)) + 1).bit_length()
    q = min(1 << (64 // width).bit_length() - 1, 1 << min(depth, n).bit_length())
    grams = np.zeros((w, n + 1), dtype=np.uint64)
    grams[:, :n] = letters
    grams[:, :n] += 1
    for span in (1 << k for k in range(q.bit_length() - 1)):
        grams <<= width * span
        grams[:, : n + 1 - span] |= grams[:, span:] >> (width * span)
    cuts = np.array([0] + [1 << width * k for k in range(1, q)], dtype=np.uint64)
    row_start = np.arange(w)[:, None] * (n + 1)
    key, ranks, span = grams, [], q
    while True:
        order = key.argsort(axis=1, kind="stable")
        order += row_start
        if span > depth:
            break
        at = order.ravel()
        key = key.ravel()[at].reshape(w, n + 1)
        fresh = np.zeros((w, n + 1), dtype=np.int32)
        fresh[:, 1:] = key[:, 1:] != key[:, :-1]
        del key
        fresh.cumsum(axis=1, out=fresh)
        top = fresh[:, -1].tolist()  # distinct ranks per row
        if min(top, default=n) == n:
            break
        rank = np.empty((w, n + 1), dtype=np.min_scalar_type(max(top)))
        rank.ravel()[at] = fresh.ravel()
        del at, order, fresh
        ranks.append(rank if ranks else grams)
        key = np.multiply(rank, n + 1, dtype=np.int64)  # numpy 1.x: no wrap in rank's type
        key[:, : n + 1 - span] += rank[:, span:]
        del rank
        span *= 2
    order -= row_start
    return order[:, 1:].astype(np.int32), (grams, cuts, ranks)


def lcp_array(order: np.ndarray, levels) -> np.ndarray:
    """lcp[w, r]: the common prefix of suffixes order[w, r - 1] and order[w, r]
    (0 for r = 0), capped at q * 2^len(ranks) - 1.  From the top round k down,
    add q * 2^k where the round-k ranks that many letters on agree; then q
    less the cuts <= the next two grams' XOR, an exact search for its top bit
    (q - 1, the cap, if equal).  CHUNK_LETTERS / 2 pairs at a time."""
    grams, cuts, ranks = levels
    w, n = order.shape
    q, grams = cuts.size, grams.ravel()
    lcp = np.zeros((w, n), dtype=np.int32)
    row_start = np.arange(w, dtype=np.int32)[:, None] * (n + 1)
    step = max(1, CHUNK_LETTERS // 2 // max(w, 1))
    for lo in range(1, n, step):
        hi = min(lo + step, n)
        a, b = order[:, lo - 1 : hi - 1] + row_start, order[:, lo:hi] + row_start
        part = lcp[:, lo:hi]
        for k in range(len(ranks) - 1, -1, -1):
            flat = ranks[k].ravel()
            np.add(part, q << k, out=part, where=flat[a + part] == flat[b + part])
        part += q - cuts.searchsorted(grams[a + part] ^ grams[b + part], side="right")
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


def _suffix_pass(letters: np.ndarray, depth: int):
    """The suffix order and LCP of each row of a (W, n) letter array, and
    the LCP in start order: by_start[w, order[w, r]] = lcp[w, r]."""
    order, levels = build_suffix_array(letters, depth)
    lcp = lcp_array(order, levels)
    by_start = np.empty_like(lcp)
    if lcp.shape[0] == 1:  # a 1-D scatter costs a third of the 2-D one
        by_start[0][order[0]] = lcp[0]
    else:
        by_start[np.arange(lcp.shape[0])[:, None], order] = lcp
    return order, lcp, by_start


def _square_loop(prefix: np.ndarray, by_start, lengths):
    """(m, square, half) of `_abelian_squares` per m of the ascending even
    `lengths`, on every row of the prefix counts, at the starts i <= n - m
    with by_start[w, i] < m (all of them when `by_start` is None): the slice
    of them all, masked, unless a single row's LCP reaches max(lengths) and
    at most half pass, which are gathered from its starts below that."""
    n, top = prefix.shape[-1] - 1, max(lengths, default=0)
    listed = by_start is not None and by_start.shape[0] == 1 and by_start.max(initial=0) >= top
    pool = np.flatnonzero(by_start[0] < top).astype(np.int32) if listed else None
    for m in lengths:
        if pool is not None:
            starts = pool[(by_start[0, pool] < m) & (pool <= n - m)]
        if pool is None or 2 * starts.size > n - m + 1:
            starts = slice(0, n - m + 1)
        square, half = _abelian_squares(prefix, starts, m)
        if by_start is not None:
            square &= by_start[:, starts] < m  # already true where gathered
        yield m, square, half


def batch_counts(words, sigma: int, inequivalent: bool = False) -> np.ndarray:
    """Abelian-square counts of W words of one length L: column j of the
    (W, L // 2) result counts, per row of the (W, L) letter array `words`,
    the distinct abelian-square factors of length 2(j + 1), or with
    `inequivalent` their Parikh classes (no suffix pass: any start will do)."""
    words = np.asarray(words, dtype=np.uint8)
    w, n = words.shape
    out = np.zeros((w, n // 2), dtype=np.int64)
    step = max(1, CHUNK_LETTERS // max(n, 1))
    for lo in range(0, w, step):
        chunk = words[lo : lo + step]
        by_start = None if inequivalent else _suffix_pass(chunk, n)[2]
        squares = _square_loop(_prefix_counts(chunk, sigma), by_start, range(2, n + 1, 2))
        for m, square, half in squares:
            count = _classes_per_row(square, half) if inequivalent else square.sum(axis=1)
            out[lo : lo + step, m // 2 - 1] = count
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
        self.arr = word.to_array()
        order, lcp, by_start = _suffix_pass(self.arr[None], self.depth)
        self.sa, self.lcp, self.by_start = order[0], lcp[0], by_start[0]
        self.prefix = _prefix_counts(self.arr[None], word.alphabet.size)

    def representative_positions(self, length: int) -> np.ndarray:
        """Start of the first occurrence (in suffix order) of each distinct
        factor of the given length, the factors in lexicographic order."""
        if length < 0 or length > self.depth:
            raise ValueError(f"factor length {length} out of range 0..{self.depth}")
        if length == 0:
            return np.zeros(1, dtype=np.int64)
        return self.sa[(self.lcp < length) & (self.sa <= self.n - length)]

    def distinct_count(self, length: int) -> int:
        return int(self.representative_positions(length).size) if length else 1

    def _squares(self, lengths):
        top = max(lengths, default=0)
        if top % 2 != 0 or min(lengths, default=2) < 2:
            raise ValueError(f"abelian squares have even positive length, got {top}")
        if top > self.depth:
            raise ValueError(f"factor length {top} out of range 0..{self.depth}")
        return _square_loop(self.prefix, self.by_start[None], lengths)

    def abelian_square_count(self, length: int) -> int:
        """Number of distinct abelian-square factors of the given length."""
        return int(np.count_nonzero(next(self._squares((length,)))[1]))

    def abelian_square_parikh_classes(self, length: int) -> int:
        """Number of distinct Parikh vectors of the abelian squares of this length."""
        return int(_classes_per_row(*next(self._squares((length,)))[1:])[0])


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


def _profile_squares(word: Word, max_length: int, index: FactorIndex | None):
    if max_length % 2 != 0 or max_length < 0:
        raise ValueError(f"max_length must be even and >= 0, got {max_length}")
    if max_length > len(word):
        raise ValueError(f"max_length {max_length} exceeds word length {len(word)}")
    index = index if index is not None else FactorIndex(word, max_length)
    return index._squares(range(2, max_length + 1, 2))


def asf_profile(word: Word, max_length: int, index: FactorIndex | None = None) -> ASFProfile:
    """The distinct abelian-square factors of each even length 2..max_length."""
    squares = _profile_squares(word, max_length, index)
    return ASFProfile(max_length, {m: int(np.count_nonzero(sq)) for m, sq, _ in squares})


def inequivalent_profile(
    word: Word, max_length: int, index: FactorIndex | None = None
) -> InequivalentProfile:
    squares = _profile_squares(word, max_length, index)
    classes = {m: int(_classes_per_row(square, half)[0]) for m, square, half in squares}
    return InequivalentProfile(max_length, {m: c for m, c in classes.items() if c})


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

