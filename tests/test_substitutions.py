"""Substitutions, their fixed points, and the Thue-Morse machinery."""

import pytest
from hypothesis import given, strategies as st

from absquares.counting import factor_counts_stable
from absquares.substitutions import (
    BoundaryCounts,
    FixedPointSpec,
    Substitution,
    THUE_MORSE,
    boundary_counts,
    fixed_point_prefix,
    parse_substitution_lines,
    thue_morse_prefix,
    tm_abelian_square_lift,
    tm_complexity,
)
from absquares.words import BINARY_01, Alphabet, Word, is_abelian_square


class TestSubstitution:
    def test_apply(self):
        fib = Substitution.from_strings(Alphabet.from_symbols("ab"), "ab", "a")
        assert fib.apply(Word.from_text("aba")).text() == "abaab"

    def test_fixed_point_needs_prolongable_seed(self):
        # b -> a is not prolongable at b
        fib = Substitution.from_strings(Alphabet.from_symbols("ab"), "ab", "a")
        with pytest.raises(ValueError):
            FixedPointSpec(fib, 1)
        FixedPointSpec(fib, 0)  # fine at a

    def test_fixed_point_prefix_is_substitution_invariant(self):
        spec = FixedPointSpec(THUE_MORSE, 0)
        prefix = fixed_point_prefix(spec, 64)
        image = THUE_MORSE.apply(prefix)
        assert image[:64] == prefix

    def test_prefix_lengths_nest(self):
        spec = FixedPointSpec(THUE_MORSE, 0)
        long = fixed_point_prefix(spec, 100)
        for n in (1, 7, 50):
            assert fixed_point_prefix(spec, n) == long[:n]


class TestThueMorse:
    def test_golden_prefix(self):
        assert thue_morse_prefix(24).text() == "011010011001011010010110"

    def test_complexity_base_values(self):
        assertions = {0: 1, 1: 2, 2: 4, 3: 6, 4: 10, 5: 12, 6: 16, 7: 20, 8: 22}
        for n, expected in assertions.items():
            assert tm_complexity(n) == expected

    def test_complexity_matches_enumeration(self, tm_index):
        for n in range(1, 101):
            assert tm_complexity(n) == tm_index.distinct_count(n)

    def test_boundary_counts_sum_to_complexity(self, tm_prefix, tm_index):
        for n in (2, 3, 10, 64, 100):
            bc = boundary_counts(tm_prefix, n, tm_index)
            assert bc.p_n == tm_complexity(n)

    def test_boundary_counts_small_by_hand(self, tm_prefix, tm_index):
        # length-2 factors of Thue-Morse: 00, 01, 10, 11 -> two of each kind
        assert boundary_counts(tm_prefix, 2, tm_index) == BoundaryCounts(2, 2, 2)

    def test_lift_produces_abelian_squares(self, tm_prefix):
        factor = Word.from_text("010", BINARY_01)
        long_sq, short_sq = tm_abelian_square_lift(factor)
        assert len(long_sq) == 4 * len(factor)
        assert len(short_sq) == 4 * len(factor) - 2
        assert is_abelian_square(long_sq)
        assert is_abelian_square(short_sq)
        # both lifts actually occur in the word
        assert tm_prefix.data.find(long_sq.data) >= 0
        assert tm_prefix.data.find(short_sq.data) >= 0

    @given(st.integers(min_value=0, max_value=2000), st.integers(min_value=2, max_value=12))
    def test_lift_from_arbitrary_same_boundary_factors(self, start, length):
        probe = thue_morse_prefix(4096)
        factor = probe.factor(start, length)
        if factor.data[0] != factor.data[-1]:
            with pytest.raises(ValueError):
                tm_abelian_square_lift(factor)
            return
        long_sq, short_sq = tm_abelian_square_lift(factor)
        assert is_abelian_square(long_sq) and is_abelian_square(short_sq)

    def test_lift_rejects_non_factors(self):
        with pytest.raises(ValueError):
            tm_abelian_square_lift(Word.from_text("000", BINARY_01))

    def test_image_square_iff_even_length(self):
        # the image of a length-m word has exactly m zeros and m ones, so
        # splitting the image of an even-length word in half gives equal
        # Parikh vectors; an odd-length word cuts one image in two and the
        # halves differ by a single letter
        for length in range(13):
            for bits in range(2**length):
                word = Word.from_text(format(bits, f"0{length}b") if length else "", BINARY_01)
                assert is_abelian_square(THUE_MORSE.apply(word)) == (length % 2 == 0)

    @given(st.text(alphabet="01", min_size=13, max_size=200))
    def test_image_square_iff_even_length_random(self, text):
        word = Word.from_text(text, BINARY_01)
        assert is_abelian_square(THUE_MORSE.apply(word)) == (len(word) % 2 == 0)

    def test_factor_counts_stable_under_prefix_doubling(self):
        # the 10k prefix already contains every factor up to length 500:
        # doubling the prefix discovers nothing new
        prefix = thue_morse_prefix(20_000)
        assert factor_counts_stable(prefix, range(4, 501))


class TestSubstitutionFiles:
    def test_roundtrip(self):
        sub, seed = parse_substitution_lines(["#seed: 0", "0 -> 01", "1 -> 10"])
        assert seed == 0
        assert sub.images == THUE_MORSE.images

    def test_parse_rules(self):
        sub, seed = parse_substitution_lines(["#seed: a", "a -> ab", "b -> a"])
        assert seed == 0
        assert fixed_point_prefix(FixedPointSpec(sub, seed), 8).text() == "abaababa"

    def test_missing_arrow_rejected(self):
        with pytest.raises(ValueError):
            parse_substitution_lines(["a ab"])
