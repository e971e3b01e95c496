"""Core word machinery: Parikh vectors, abelian powers, balance, files."""

import pytest
from hypothesis import given, strategies as st

from absquares.words import (
    Alphabet,
    BINARY_AB,
    Word,
    infer_alphabet,
    parse_word_lines,
    format_word_lines,
    read_word_file,
)
from counting_reference import is_abelian_kpower, is_abelian_square
from paper_facts import fibonacci_word, is_balanced, parikh


def w(text):
    return Word.from_text(text, BINARY_AB)


binary_words = st.text(alphabet="ab", max_size=64).map(w)


class TestWordBasics:
    def test_from_text_roundtrip(self):
        word = w("abba")
        assert word.text() == "abba"
        assert list(word) == [0, 1, 1, 0]

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Word.from_text("abc", BINARY_AB)

    @pytest.mark.parametrize("text, symbol", [("abxa", "x"), ("a\x01b", "\x01"), ("ab€", "€")])
    def test_unknown_symbol_names_the_symbol(self, text, symbol):
        # \x01 is the code of letter b after translation, so it must not slip through
        with pytest.raises(ValueError) as exc:
            Word.from_text(text, BINARY_AB)
        assert str(exc.value) == f"symbol {symbol!r} not in alphabet"

    def test_text_roundtrip_beyond_latin1(self):
        word = Word.from_text("αβγα", Alphabet(("α", "β", "γ")))
        assert list(word) == [0, 1, 2, 0]
        assert word.text() == "αβγα"

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            Word(BINARY_AB, bytes([0, 2]))

    @pytest.mark.parametrize(
        "data", [b"\x02", b"\x02\x00\x01", b"\x00\x01" * 1000 + b"\x02", b"\x01\xff"]
    )
    def test_out_of_range_letter_names_the_fault(self, data):
        with pytest.raises(ValueError, match="^letter index out of range for alphabet$"):
            Word(BINARY_AB, data)
        with pytest.raises(ValueError, match="^letter index out of range for alphabet$"):
            Word(BINARY_AB, bytearray(data))

    def test_immutable(self):
        word = w("ab")
        with pytest.raises(AttributeError):
            word.data = b"\x00"

    def test_factor_bounds(self):
        word = w("abab")
        assert word.factor(1, 2).text() == "ba"
        with pytest.raises(ValueError):
            word.factor(3, 2)

    def test_infer_alphabet_sorts_symbols(self):
        assert infer_alphabet("cba").symbols == ("a", "b", "c")
        assert infer_alphabet("0110").symbols == ("0", "1")
        assert infer_alphabet("").symbols == ("a", "b")

    def test_alphabet_holds_at_most_256_symbols(self):
        # a letter is stored as one byte
        symbols = tuple(chr(0x4E00 + i) for i in range(257))
        assert Alphabet(symbols[:256]).size == 256
        Word.from_text("".join(symbols[:256]), Alphabet(symbols[:256]))
        with pytest.raises(ValueError, match="alphabet has 257 symbols; the limit is 256"):
            Alphabet(symbols)
        with pytest.raises(ValueError, match="the limit is 256"):
            infer_alphabet("".join(symbols))

    @given(binary_words)
    def test_reverse_involution(self, word):
        assert word.reverse().reverse() == word


class TestParikh:
    def test_counts(self):
        assert parikh(w("abbab")).counts == (2, 3)

    @given(binary_words, binary_words)
    def test_additive_under_concatenation(self, u, v):
        pu, pv = parikh(u), parikh(v)
        assert parikh(u + v).counts == tuple(a + b for a, b in zip(pu.counts, pv.counts))

    @given(binary_words)
    def test_invariant_under_reversal(self, word):
        assert parikh(word.reverse()) == parikh(word)


class TestAbelianPowers:
    def test_square_examples(self):
        assert is_abelian_square(w("abba"))
        assert is_abelian_square(w("abab"))
        assert not is_abelian_square(w("aab"))  # odd length
        assert not is_abelian_square(w("aabb"))  # halves aa / bb differ

    def test_empty_word_is_a_power(self):
        assert is_abelian_square(w(""))
        assert is_abelian_kpower(w(""), 7)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            is_abelian_kpower(w("ab"), 0)

    def test_kpower_examples(self):
        # ab|ba|ab is a 3-power; the halves abb / aab have different Parikh
        # vectors so it is not a square
        assert is_abelian_kpower(w("abbaab"), 3)
        assert not is_abelian_kpower(w("abbaab"), 2)

    @given(binary_words)
    def test_square_iff_halves_anagram(self, word):
        n = len(word)
        expected = n % 2 == 0 and sorted(word.data[: n // 2]) == sorted(word.data[n // 2 :])
        assert is_abelian_square(word) == expected

    @given(binary_words, st.integers(min_value=2, max_value=4))
    def test_concatenated_anagrams_form_powers(self, block, k):
        blocks = [block]
        for j in range(k - 1):
            data = bytearray(block.data)
            data.reverse()
            blocks.append(Word(BINARY_AB, bytes(data)))
        glued = blocks[0]
        for b in blocks[1:]:
            glued = glued + b
        assert is_abelian_kpower(glued, k)

    def test_power_nesting_exhaustive(self):
        # an abelian (j*k)-power is an abelian k-power: regroup the j*k
        # blocks into k runs of j, each run keeps the same Parikh vector
        for bits in range(2**12):
            text = format(bits, "012b").replace("0", "a").replace("1", "b")
            word = w(text)
            for j, k in ((2, 2), (3, 2), (2, 3), (6, 2), (4, 3)):
                if is_abelian_kpower(word, j * k):
                    assert is_abelian_kpower(word, k)

    @given(
        st.text(alphabet="ab", min_size=1, max_size=4),
        st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]),
        st.data(),
    )
    def test_power_nesting_constructed(self, block, jk, data):
        j, k = jk
        pieces = [data.draw(st.permutations(list(block))) for _ in range(j * k)]
        word = w("".join("".join(p) for p in pieces))
        assert is_abelian_kpower(word, j * k)
        assert is_abelian_kpower(word, k)
        assert is_abelian_kpower(word, j)


class TestBalance:
    def test_fibonacci_prefix_balanced(self):
        assert is_balanced(fibonacci_word(512))

    def test_unbalanced_example(self):
        # aa and bb as factors of the same length kill balance
        assert not is_balanced(w("aabb"))

    def test_balance_needs_binary(self):
        with pytest.raises(ValueError):
            is_balanced(Word.from_text("abc"))

    # the divisibility criterion for balanced words: a balanced word is an
    # abelian k-power exactly when every letter count is divisible by k
    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=2, max_value=4))
    def test_balanced_kpower_iff_parikh_divisible(self, start, k):
        word = fibonacci_word(start + 60).factor(start, 48)
        assert is_balanced(word)
        divisible = all(c % k == 0 for c in parikh(word).counts)
        assert is_abelian_kpower(word, k) == divisible


class TestWordFiles:
    def test_roundtrip(self, tmp_path):
        words = [w("abba"), w("aab")]
        text = format_word_lines(words)
        assert text.splitlines()[0] == "#alphabet: ab"
        assert parse_word_lines(text.splitlines()) == words

    def test_header_pins_alphabet(self):
        words = parse_word_lines(["#alphabet: abc", "ab"])
        assert words[0].alphabet.size == 3

    def test_unknown_symbol_on_read(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("#alphabet: ab\nabab\nabxab\n")
        with pytest.raises(ValueError) as exc:
            read_word_file(path)
        assert str(exc.value) == "symbol 'x' not in alphabet"

    def test_blank_lines_and_comments_skipped(self):
        assert parse_word_lines(["", "# note", "ab", ""]) == [Word.from_text("ab")]
