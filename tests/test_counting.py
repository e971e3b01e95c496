"""Counting engine vs. the quadratic brute-force oracle.

The suffix-array engine is the thing under test; the oracle enumerates
factor sets directly and is kept deliberately dumb.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from occurrence_reference import occurrence_blocks
from absquares.counting import (
    FactorIndex,
    asf_profile,
    asf_profile_brute,
    factor_counts_stable,
    inequivalent_profile,
    inequivalent_profile_brute,
)
from absquares.words import Alphabet, Word
from absquares.sturmian import fibonacci_word


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
        got = [f.text() for f in FactorIndex(word, 2).distinct_factors(2)]
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


class TestStability:
    def test_fibonacci_factor_counts_stable(self):
        assert factor_counts_stable(fibonacci_word(2000), [2, 10, 50])

    def test_short_prefix_not_stable(self):
        # a 60-letter prefix cannot have seen every length-50 factor
        assert not factor_counts_stable(fibonacci_word(60), [50])
