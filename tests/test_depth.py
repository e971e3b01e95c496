"""A depth-capped FactorIndex against the full one.

`FactorIndex(word, depth)` stops the doubling after round R once 2^R > depth,
so its order only sorts the suffixes by their first 2^R letters and its LCP
reads at most 2^R - 1.  Every query up to the depth must still give what
the full index gives; the full index is checked against sorting and Kasai.
"""

import functools

import numpy as np
import pytest

from lcp_reference import kasai
from occurrence_reference import occurrence_blocks, recurrence_by_blocks
from paper_facts import distinct_factors, fibonacci_word
from absquares.analysis import recurrence_index_estimate
from absquares.counting import FactorIndex, asf_profile, inequivalent_profile
from absquares.substitutions import thue_morse_prefix
from absquares.words import Alphabet, Word

DEPTHS = (1, 2, 3, 63, 64, 65, 2000)
KINDS = ("thue-morse", "fibonacci", "random-2", "random-3", "random-4")


@functools.cache
def word_of(kind: str, length: int = 520) -> Word:
    """520 letters repeat factors of more than 128 letters in Thue-Morse and
    Fibonacci; random words never do, so 300 letters serve them."""
    if kind == "thue-morse":
        return thue_morse_prefix(length)
    if kind == "fibonacci":
        return fibonacci_word(length)
    sigma = int(kind.split("-")[1])
    letters = np.random.default_rng(sigma).integers(0, sigma, size=min(length, 300), dtype=np.uint8)
    return Word(Alphabet.default(sigma), letters.tobytes())


@functools.cache
def full_index(kind: str, length: int = 520) -> FactorIndex:
    index = FactorIndex(word_of(kind, length))
    data = index.word.data
    assert list(index.sa) == sorted(range(index.n), key=lambda i: data[i:])
    assert np.array_equal(index.lcp, kasai(data, index.sa))
    return index


def common_prefix(data: bytes, i: int, j: int) -> int:
    k = 0
    while i + k < len(data) and j + k < len(data) and data[i + k] == data[j + k]:
        k += 1
    return k


def factor_ids(index: FactorIndex, length: int) -> np.ndarray:
    """Per start position, the lexicographic number of its length-`length`
    factor among the distinct ones (-1 where fewer letters remain)."""
    fits = index.n - index.sa >= length
    number = np.cumsum(fits & (index.lcp < length)) - 1
    ids = np.full(index.n, -1)
    ids[index.sa[fits]] = number[fits]
    return ids


def assert_same_queries(capped: FactorIndex, full: FactorIndex, length: int, blocks: bool):
    reps = capped.representative_positions(length)
    assert capped.distinct_count(length) == full.distinct_count(length) == reps.size
    # same factors in the same (lexicographic) order, whichever occurrence
    assert np.array_equal(factor_ids(full, length)[reps], np.arange(reps.size))
    if blocks:
        got, want = occurrence_blocks(capped, length), occurrence_blocks(full, length)
        assert list(map(len, got)) == list(map(len, want))
        assert np.array_equal(np.concatenate(got), np.concatenate(want))
    if length % 2 == 0:
        assert capped.abelian_square_count(length) == full.abelian_square_count(length)
        assert capped.abelian_square_parikh_classes(
            length
        ) == full.abelian_square_parikh_classes(length)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("kind", KINDS)
def test_capped_index_matches_full(kind, depth):
    full = full_index(kind)
    capped = FactorIndex(full.word, depth)
    data = full.word.data
    assert capped.depth == min(depth, full.n)
    for length in range(1, capped.depth + 1):
        assert_same_queries(capped, full, length, blocks=True)
    # the descent reads the true common prefix, capped at 2^R - 1
    cap = (1 << capped.depth.bit_length()) - 1
    sa = capped.sa
    true = [common_prefix(data, int(i), int(j)) for i, j in zip(sa[:-1], sa[1:])]
    assert list(capped.lcp) == [0] + [min(t, cap) for t in true]


@pytest.mark.parametrize("depth", (1, 2, 3, 63, 64, 65))
@pytest.mark.parametrize("kind", ("thue-morse", "fibonacci"))
def test_cap_bites(kind, depth):
    # these words repeat factors longer than 2^R, so the capped index really
    # stopped early and its LCP saturates
    capped = FactorIndex(word_of(kind), depth)
    assert full_index(kind).lcp.max() > capped.lcp.max() == (1 << depth.bit_length()) - 1


@pytest.mark.parametrize("kind, length", [("fibonacci", 3700), ("thue-morse", 6200)])
def test_depth_2000_on_words_with_longer_repeats(kind, length):
    full = full_index(kind, length)
    capped = FactorIndex(full.word, 2000)
    assert full.lcp.max() >= 2048 and capped.lcp.max() == 2047
    grid = set(range(1, 2001, 61)) | {1023, 1024, 1025, 1999, 2000}
    for n in range(1, 2001):
        assert_same_queries(capped, full, n, blocks=n in grid)
    assert asf_profile(full.word, 2000, capped) == asf_profile(full.word, 2000, full)
    assert inequivalent_profile(full.word, 2000, capped) == inequivalent_profile(
        full.word, 2000, full
    )


@pytest.mark.parametrize("depth", (1, 2, 63, 64, 65))
def test_query_above_depth_raises(depth):
    word = word_of("fibonacci")
    index = FactorIndex(word, depth)
    above = depth + 1
    even_above = above + above % 2
    with pytest.raises(ValueError):
        index.representative_positions(above)
    with pytest.raises(ValueError):
        index.distinct_count(above)
    with pytest.raises(ValueError):
        recurrence_index_estimate(word, above, index)
    with pytest.raises(ValueError):
        distinct_factors(index, above)
    with pytest.raises(ValueError):
        index.abelian_square_count(even_above)
    with pytest.raises(ValueError):
        index.abelian_square_parikh_classes(even_above)
    with pytest.raises(ValueError):
        asf_profile(word, even_above, index)
    with pytest.raises(ValueError):
        inequivalent_profile(word, even_above, index)
    assert index.distinct_count(depth) == depth + 1  # Sturmian: n + 1 factors


def test_profiles_at_their_own_depth_match_the_full_index():
    word = word_of("thue-morse", 4096)
    assert asf_profile(word, 64) == asf_profile(word, 64, FactorIndex(word))
    assert inequivalent_profile(word, 64) == inequivalent_profile(word, 64, FactorIndex(word))


@pytest.mark.parametrize("kind, length", [("fibonacci", 3700), ("thue-morse", 6200)])
def test_recurrence_estimate_matches_block_loop_at_depth_2000(kind, length):
    full = full_index(kind, length)
    capped = FactorIndex(full.word, 2000)
    for n in sorted(set(range(1, 2001, 13)) | {1023, 1024, 1025, 1999, 2000}):
        assert recurrence_index_estimate(full.word, n, capped) == recurrence_by_blocks(full, n)


@pytest.mark.parametrize("kind", ("random-2", "random-3", "random-4"))
def test_recurrence_estimate_matches_block_loop_on_random_words(kind):
    full = full_index(kind)
    for n in range(1, full.n + 1):
        assert recurrence_index_estimate(full.word, n) == recurrence_by_blocks(full, n)
