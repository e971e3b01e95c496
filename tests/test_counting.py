"""Counting engine vs. the quadratic brute-force oracle.

The suffix-array engine is the thing under test; the oracle enumerates
factor sets directly and is kept deliberately dumb.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from counting_reference import asf_profile_brute, inequivalent_profile_brute
from occurrence_reference import occurrence_blocks
from paper_facts import distinct_factors, fibonacci_word
from absquares.counting import (
    FactorIndex,
    asf_profile,
    factor_counts_stable,
    inequivalent_profile,
    unstable_lengths,
)
from absquares.words import Alphabet, Word


def random_word(draw, sigma, max_size=40):
    alphabet = Alphabet.default(sigma)
    data = draw(st.binary(max_size=max_size).map(lambda b: bytes(x % sigma for x in b)))
    return Word(alphabet, data)


any_words = st.integers(min_value=2, max_value=4).flatmap(
    lambda sigma: st.binary(min_size=1, max_size=40).map(
        lambda b: Word(Alphabet.default(sigma), bytes(x % sigma for x in b))
    )
)


def even_floor(n):
    return n - (n % 2)


class TestFactorIndex:
    def test_distinct_counts_match_set_oracle(self):
        word = Word.from_text("abaababaabaababaababa")
        idx = FactorIndex(word)
        for n in range(1, len(word) + 1):
            brute = {word.data[i : i + n] for i in range(len(word) - n + 1)}
            assert idx.distinct_count(n) == len(brute)

    def test_distinct_factors_sorted_and_complete(self):
        word = Word.from_text("banana", Alphabet.from_symbols("abn"))
        got = [f.text() for f in distinct_factors(FactorIndex(word, 2), 2)]
        assert got == ["an", "ba", "na"]

    def test_occurrence_blocks_cover_all_positions(self):
        word = Word.from_text("abaab")
        idx = FactorIndex(word)
        blocks = occurrence_blocks(idx, 2)
        flat = sorted(int(p) for b in blocks for p in b)
        assert flat == list(range(len(word) - 1))

    def test_zero_length(self):
        idx = FactorIndex(Word.from_text("ab"))
        assert idx.distinct_count(0) == 1

    def test_length_out_of_range(self):
        idx = FactorIndex(Word.from_text("ab"))
        with pytest.raises(ValueError):
            idx.representative_positions(3)


class TestProfiles:
    def test_ababa_profile(self):
        # the two abelian squares in ababa are abab and baba, both length 4
        profile = asf_profile(Word.from_text("ababa"), 4)
        assert profile.count(2) == 0
        assert profile.count(4) == 2
        assert profile.total == 2

    def test_odd_max_length_rejected(self):
        with pytest.raises(ValueError):
            asf_profile(Word.from_text("abab"), 3)

    def test_max_length_beyond_word_rejected(self):
        with pytest.raises(ValueError):
            asf_profile(Word.from_text("ab"), 4)

    def test_exhaustive_binary_up_to_length_10(self):
        alphabet = Alphabet.default(2)
        for n in range(1, 11):
            for bits in range(2**n):
                word = Word(alphabet, bytes((bits >> i) & 1 for i in range(n)))
                m = even_floor(n)
                assert asf_profile(word, m).counts == asf_profile_brute(word, m).counts

    @given(any_words)
    def test_engine_matches_oracle(self, word):
        m = even_floor(len(word))
        assert asf_profile(word, m).counts == asf_profile_brute(word, m).counts

    @given(any_words)
    def test_inequivalent_matches_oracle(self, word):
        m = even_floor(len(word))
        engine = inequivalent_profile(word, m)
        brute = inequivalent_profile_brute(word, m)
        assert engine.per_length == brute.per_length

    @given(any_words)
    def test_profile_invariant_under_reversal(self, word):
        m = even_floor(len(word))
        assert asf_profile(word, m).counts == asf_profile(word.reverse(), m).counts

    @given(any_words, st.randoms(use_true_random=False))
    def test_profile_invariant_under_letter_permutation(self, word, rng):
        perm = list(range(word.alphabet.size))
        rng.shuffle(perm)
        renamed = Word(word.alphabet, bytes(perm[x] for x in word.data))
        m = even_floor(len(word))
        assert asf_profile(word, m).counts == asf_profile(renamed, m).counts

    @given(any_words)
    def test_inequivalent_never_exceeds_distinct(self, word):
        m = even_floor(len(word))
        ineq = inequivalent_profile(word, m).per_length
        prof = asf_profile(word, m)
        for n, classes in ineq.items():
            assert 0 < classes <= prof.count(n)

    def test_profile_rows_cover_even_lengths_only(self):
        profile = asf_profile(fibonacci_word(300), 20)
        assert set(profile.counts) <= set(range(2, 21, 2))


def lcp_by_start(index):
    out = np.empty(index.n, dtype=np.int64)
    out[index.sa] = index.lcp
    return out


@functools.cache
def fibonacci_then_random():
    """800 Fibonacci letters, whose factors repeat far beyond 200 letters,
    then 1200 random ones: few starts hold a new short factor, but more than
    half of them hold a new factor of 200 letters."""
    tail = np.random.default_rng(13).integers(0, 2, size=1200, dtype=np.uint8)
    return Word(Alphabet.default(2), fibonacci_word(800).data + tail.tobytes())


@functools.cache
def oracle_profiles(word, max_length):
    return asf_profile_brute(word, max_length), inequivalent_profile_brute(word, max_length)


class TestProfileLoop:
    """The profiles read the LCP in start order: a start i <= n - m holds the
    first occurrence of its length-m factor when lcp_by_start[i] < m.  Lengths
    where at most half of the starts do are gathered from a list of the starts
    with lcp_by_start < max_length, the others tested as one masked slice."""

    def test_one_profile_crosses_from_gathered_starts_to_the_slice(self):
        word, top = fibonacci_then_random(), 200
        index = FactorIndex(word, top)
        by_start, n = lcp_by_start(index), len(word)
        assert by_start.max() >= top  # not every start is a candidate: a list
        gathered = [
            m for m in range(2, top + 1, 2) if 2 * np.sum(by_start[: n - m + 1] < m) <= n - m + 1
        ]
        assert gathered and gathered[0] == 2 and gathered[-1] < top
        assert (asf_profile(word, top, index), inequivalent_profile(word, top, index)) == (
            oracle_profiles(word, top)
        )

    def test_an_index_deeper_than_the_profile(self):
        word = fibonacci_then_random()
        for index in (FactorIndex(word), FactorIndex(word, 500)):
            assert asf_profile(word, 200, index) == oracle_profiles(word, 200)[0]
            assert inequivalent_profile(word, 200, index) == oracle_profiles(word, 200)[1]
            assert asf_profile(word, 64, index) == asf_profile_brute(word, 64)

    def test_single_lengths_read_the_profile_entries(self):
        word = fibonacci_then_random()
        index = FactorIndex(word, 200)
        distinct, classes = oracle_profiles(word, 200)
        for m in range(2, 201, 2):
            assert index.abelian_square_count(m) == distinct.count(m)
            assert index.abelian_square_parikh_classes(m) == classes.per_length.get(m, 0)

    @pytest.mark.parametrize("sigma", (3, 4))
    @pytest.mark.parametrize("max_length", (4, 6, 8, 12, 40))
    def test_random_words_over_more_letters(self, sigma, max_length):
        letters = np.random.default_rng(sigma).integers(0, sigma, size=400, dtype=np.uint8)
        word = Word(Alphabet.default(sigma), letters.tobytes())
        assert asf_profile(word, max_length) == asf_profile_brute(word, max_length)
        assert inequivalent_profile(word, max_length) == inequivalent_profile_brute(
            word, max_length
        )

    @pytest.mark.parametrize("length", (-2, 0, 3))
    def test_single_length_must_be_even_and_positive(self, length):
        index = FactorIndex(fibonacci_word(50))
        with pytest.raises(ValueError):
            index.abelian_square_count(length)
        with pytest.raises(ValueError):
            index.abelian_square_parikh_classes(length)


class TestStability:
    def test_fibonacci_factor_counts_stable(self):
        assert factor_counts_stable(fibonacci_word(2000), [2, 10, 50])

    def test_short_prefix_not_stable(self):
        # a 60-letter prefix cannot have seen every length-50 factor
        assert not factor_counts_stable(fibonacci_word(60), [50])

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda sigma: st.binary(max_size=60).map(
                lambda b: Word(Alphabet.default(sigma), bytes(x % sigma for x in b))
            )
        ),
        st.booleans(),
    )
    @example(Word(Alphabet.default(1), b""), False)
    @example(Word(Alphabet.default(2), b"\x00\x01\x01\x00\x01"), True)
    def test_unstable_lengths_match_set_oracle(self, word, pass_index):
        # every length 0..N: n = 0 is stable, n > N // 2 has no half-prefix factor
        data, half = word.data, len(word) // 2
        lengths = range(len(word) + 1)
        expected = [
            n for n in lengths
            if len({data[s : s + n] for s in range(half - n + 1)})
            != len({data[s : s + n] for s in range(len(word) - n + 1)})
        ]
        index = FactorIndex(word) if pass_index else None
        assert unstable_lengths(word, lengths, index) == expected
