"""Brute-force oracles for the counting engine and the canonical search,
and the abelian k-power predicate the word tests hold factors to.

Every substring is enumerated, deduplicated by content and tested by
counting letters: no suffix array, no prefix counts, no batching.  The
package computes the same profiles with `absquares.counting`; these slow,
obviously-exact loops are what its tests compare it against.
"""

import itertools

from absquares.counting import ASFProfile, InequivalentProfile
from absquares.words import Alphabet, Word


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


def _lengths(word: Word, max_length: int) -> range:
    if max_length % 2 != 0 or max_length < 0:
        raise ValueError(f"max_length must be even and >= 0, got {max_length}")
    if max_length > len(word):
        raise ValueError(f"max_length {max_length} exceeds word length {len(word)}")
    return range(2, max_length + 1, 2)


def _halves_match(data: bytes, start: int, length: int, sigma: int) -> bool:
    mid, end = start + length // 2, start + length
    return all(data.count(c, start, mid) == data.count(c, mid, end) for c in range(sigma))


def asf_profile_brute(word: Word, max_length: int) -> ASFProfile:
    """Oracle: enumerate every substring, deduplicate by content, test the
    halves by counting letters."""
    data, sigma = word.data, word.alphabet.size
    counts = {}
    for m in _lengths(word, max_length):
        seen = set()
        for i in range(len(data) - m + 1):
            piece = data[i : i + m]
            if piece not in seen and _halves_match(data, i, m, sigma):
                seen.add(piece)
        counts[m] = len(seen)
    return ASFProfile(max_length, counts)


def inequivalent_profile_brute(word: Word, max_length: int) -> InequivalentProfile:
    data, sigma = word.data, word.alphabet.size
    per_length = {}
    for m in _lengths(word, max_length):
        classes = set()
        for i in range(len(data) - m + 1):
            if _halves_match(data, i, m, sigma):
                classes.add(tuple(data.count(letter, i, i + m) for letter in range(sigma)))
        if classes:
            per_length[m] = len(classes)
    return InequivalentProfile(max_length, per_length)


def full_enumeration_max(sigma: int, length: int, objective: str) -> tuple:
    """(maximum, attaining count) over ALL sigma^L words — no canonical
    pruning.  Soundness oracle for the canonical search: every word goes
    through the brute-force profiles above, not the batched engine.  The
    keys are the values of `absquares.search`'s objective names."""
    oracle = {
        "distinct_asf_total": asf_profile_brute,
        "inequivalent_total": inequivalent_profile_brute,
    }[objective]
    alphabet = Alphabet.default(sigma)
    values = [
        oracle(Word(alphabet, bytes(w)), length - length % 2).total
        for w in itertools.product(range(sigma), repeat=length)
    ]
    best = max(values)
    return best, values.count(best)
