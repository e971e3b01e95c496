"""The batched evaluator against the brute-force oracles.

`batch_counts` suffix-sorts every row of a (W, L) letter array by prefix
doubling, reads first occurrences off the LCP descent and tests every even
length at once; the oracles enumerate substrings one by one.
"""

import tracemalloc

import numpy as np
import pytest

from counting_reference import asf_profile_brute, inequivalent_profile_brute
from lcp_reference import common_prefix, kasai
from paper_facts import fibonacci_word
from absquares import counting
from absquares.analysis import random_baseline
from absquares.counting import (
    CHUNK_LETTERS,
    asf_profile,
    batch_counts,
    build_suffix_array,
    inequivalent_profile,
    lcp_array,
)
from absquares.substitutions import thue_morse_prefix
from absquares.words import Alphabet, Word


def oracle_rows(words: np.ndarray, sigma: int):
    """(distinct, classes) per row and even length from the oracles."""
    alphabet = Alphabet.default(sigma)
    m = words.shape[1] - words.shape[1] % 2
    distinct, classes = [], []
    for row in words:
        word = Word(alphabet, row.tobytes())
        counts = asf_profile_brute(word, m).counts
        per_length = inequivalent_profile_brute(word, m).per_length
        distinct.append([counts[k] for k in range(2, m + 1, 2)])
        classes.append([per_length.get(k, 0) for k in range(2, m + 1, 2)])
    shape = (len(words), m // 2)
    return np.array(distinct, dtype=np.int64).reshape(shape), np.array(
        classes, dtype=np.int64
    ).reshape(shape)


def check_against_oracles(words: np.ndarray, sigma: int) -> None:
    distinct, classes = oracle_rows(words, sigma)
    assert np.array_equal(batch_counts(words, sigma), distinct)
    assert np.array_equal(batch_counts(words, sigma, inequivalent=True), classes)


@pytest.mark.parametrize("length", range(0, 13))
def test_every_binary_word_up_to_length_12(length):
    words = ((np.arange(1 << length)[:, None] >> np.arange(length)) & 1).astype(np.uint8)
    check_against_oracles(words, 2)


@pytest.mark.parametrize("sigma", [2, 3, 4])
def test_random_words(sigma):
    rng = np.random.default_rng(4000 + sigma)
    for length in range(1, 41):
        check_against_oracles(rng.integers(0, sigma, size=(6, length), dtype=np.uint8), sigma)


def test_single_row_and_chunk_boundary():
    rng = np.random.default_rng(17)
    length = 40
    rows = CHUNK_LETTERS // length + 3  # one full chunk and a partial one
    words = rng.integers(0, 3, size=(rows, length), dtype=np.uint8)
    check_against_oracles(words, 3)
    together = batch_counts(words, 3)
    for k in (0, CHUNK_LETTERS // length - 1, CHUNK_LETTERS // length, rows - 1):
        assert np.array_equal(batch_counts(words[k : k + 1], 3), together[k : k + 1])


def test_rows_longer_than_a_chunk():
    word = thue_morse_prefix(CHUNK_LETTERS + 6).to_array()
    counts = batch_counts(np.stack([word, word[::-1]]), 2)
    assert counts.shape == (2, (CHUNK_LETTERS + 6) // 2)
    assert np.array_equal(counts[0], counts[1])  # reversal keeps the factor set's squares
    profile = asf_profile(Word(Alphabet.default(2), word.tobytes()), CHUNK_LETTERS + 6)
    assert list(counts[0]) == [profile.counts[m] for m in range(2, CHUNK_LETTERS + 7, 2)]


def test_large_alphabet_classes_rerank_the_packed_key():
    # the run of one letter puts 26 in a half, and 25 digits in base 27
    # leave int64, so the class key is re-ranked on the way
    rng = np.random.default_rng(26)
    words = np.concatenate(
        [
            np.zeros((1, 52), np.uint8),
            np.tile(np.arange(26, dtype=np.uint8), (3, 2)),
            rng.integers(0, 26, size=(4, 52), dtype=np.uint8),
        ]
    )
    check_against_oracles(words, 26)


def test_unary_and_empty_rows():
    assert np.array_equal(batch_counts(np.zeros((2, 7), np.uint8), 1), [[1, 1, 1]] * 2)
    assert batch_counts(np.zeros((3, 0), np.uint8), 2).shape == (3, 0)
    assert batch_counts(np.zeros((3, 1), np.uint8), 2).shape == (3, 0)


def test_suffix_array_and_lcp_descent():
    rng = np.random.default_rng(5)
    for sigma, length in [(2, 1), (2, 2), (2, 63), (2, 200), (3, 97), (26, 120)]:
        words = rng.integers(0, sigma, size=(5, length), dtype=np.uint8)
        order, ranks = build_suffix_array(words, length)
        lcp = lcp_array(order, ranks)
        for row, sa, by_row in zip(words, order, lcp):
            data = row.tobytes()
            assert list(sa) == sorted(range(length), key=lambda i: data[i:])
            assert np.array_equal(build_suffix_array(row[None], length)[0][0], sa)
            assert np.array_equal(by_row, kasai(data, sa))
    tm = thue_morse_prefix(4096).data
    order, _ = build_suffix_array(np.frombuffer(tm, dtype=np.uint8)[None], len(tm))
    assert list(order[0]) == sorted(range(len(tm)), key=lambda i: tm[i:])


def check_packed_rounds(sigma):
    # a gram holds q letters of b bits, b the bit length of the top letter
    # + 1: q = 64, 32, 32, 16, 8, 4 here; the depths stop the doubling inside
    # round 0, at its end and one round on, and the rows are shorter than a
    # gram, one gram long and one letter longer
    q = 1 << (64 // sigma.bit_length()).bit_length() - 1
    rng = np.random.default_rng(sigma)
    for n in (q - 1, q, q + 1, 3 * q + 5):
        words = rng.integers(0, sigma, size=(4, n), dtype=np.uint8)
        words[0, n // 2] = sigma - 1  # the top letter sets b
        words[1] = 0  # a unary row
        for depth in sorted({d for d in (0, 1, q - 1, q, q + 1, n) if d <= n}):
            cap = 1 << depth.bit_length()
            order, levels = build_suffix_array(words, depth)
            lcp = lcp_array(order, levels)
            for row, sa, by_row in zip(words, order, lcp):
                data = row.tobytes()
                assert list(sa) == sorted(range(n), key=lambda i: (data[i : i + cap], i))
                true = [common_prefix(data, int(i), int(j)) for i, j in zip(sa[:-1], sa[1:])]
                assert list(by_row) == [0] + [min(t, cap - 1) for t in true]
                if cap > n:
                    assert np.array_equal(by_row, kasai(data, sa))
                alone = build_suffix_array(row[None], depth)  # its own b and q
                assert np.array_equal(alone[0][0], sa)
                assert np.array_equal(lcp_array(*alone)[0], by_row)


@pytest.mark.parametrize("sigma", [1, 2, 3, 4, 17, 256])
def test_packed_rounds_against_sorting_and_kasai(sigma):
    check_packed_rounds(sigma)


@pytest.mark.parametrize("sigma", [1, 2, 3, 4, 17, 256])
def test_stable_argsort_rounds_give_the_same_orders(sigma, monkeypatch):
    # rows of 2^21 letters and more sort their keys by a stable argsort
    monkeypatch.setattr(counting, "_start_fits", lambda n: False)
    check_packed_rounds(sigma)


def test_start_fits_below_2_21_letters():
    n = (1 << 21) - 1
    assert counting._start_fits(n) and not counting._start_fits(n + 1)
    # the largest key, (n + 1)^2 - 1, packed with the largest start
    key = np.array([(n + 1) ** 2 - 1], dtype=np.int64)
    key <<= n.bit_length()
    key |= np.array([n], dtype=np.int32)
    assert key.dtype == np.int64 and key[0] == np.iinfo(np.int64).max


def test_gram_xor_with_all_low_bits_set():
    # after a common prefix of 1..5 letters these suffixes are complements,
    # so the two binary grams XOR to 2^m - 1 with m from 54 to 62 bits: a
    # float64 rounds that up to 2^m and would read the top bit one too high
    data = bytes([0, 0, 1] * 3 + [0, 1] * 30 + [0, 0, 0, 0, 1] + [1, 0] * 30)
    order, levels = build_suffix_array(np.frombuffer(data, dtype=np.uint8)[None], len(data))
    sa, lcp = order[0], lcp_array(order, levels)[0]
    assert np.array_equal(lcp, kasai(data, sa))

    def gram(i):  # 32 letters of 2 bits, letter + 1, first highest
        return sum((data[i + k] + 1 if i + k < len(data) else 0) << 2 * (31 - k) for k in range(32))

    ends = [(i + h // 32 * 32, j + h // 32 * 32) for i, j, h in zip(sa, sa[1:], lcp[1:])]
    xors = [gram(i) ^ gram(j) for i, j in ends]  # the grams the descent ends on
    rounded = [x for x in xors if x & (x + 1) == 0 and x.bit_length() > 53]
    assert {x.bit_length() for x in rounded} >= {54, 56, 58, 60, 62}


# tracemalloc peak, in bytes, of `_suffix_pass` on the word below at depth
# 64 under the letter-at-a-time doubling that came before the packed round 0
LETTERWISE_PEAK = 7_008_013


def test_suffix_pass_memory_peak():
    # the pass sets a long-word count's peak memory: the packed rounds must
    # keep one gram array in n + 1 columns, no padded or second copy
    word = np.random.default_rng(2024).integers(0, 2, size=(1, 200_000), dtype=np.uint8)
    tracemalloc.start()
    try:
        counting._suffix_pass(word, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LETTERWISE_PEAK


@pytest.mark.parametrize(
    "seed, means",
    [
        (1, (519.62, 1692.57, 5063.53, 14834.94)),
        (7, (525.72, 1629.8, 4899.73, 15004.96)),
    ],
)
def test_random_baseline_means_pinned(seed, means):
    # the per-word engine gave these means; one rng.integers call per trial
    # keeps the random stream, so the batched rows must give them again
    report = random_baseline([128, 256, 512, 1024], trials=100, seed=seed)
    assert report.means == means


def test_suffix_array_past_int32_keys():
    # rank * base + next rank reaches about n^2 > 2^31 here, so the packed
    # key must be int64 whatever numpy's scalar casting rules
    data = np.random.default_rng(11).integers(0, 2, size=70_000, dtype=np.uint8).tobytes()
    sa = build_suffix_array(np.frombuffer(data, dtype=np.uint8)[None], len(data))[0][0]
    assert np.array_equal(np.sort(sa), np.arange(len(data)))
    lcp = kasai(data, sa)  # Kasai compares letters, so each pair splits at lcp
    letters = np.frombuffer(data + b"\xff", dtype=np.uint8)  # 255 past the end
    a, b = sa[:-1] + lcp[1:], sa[1:] + lcp[1:]
    assert ((letters[a] < letters[b]) | (a == len(data))).all()


def test_random_baseline_groups_match_one_stack():
    # rows are drawn and counted CHUNK_LETTERS letters at a time; the report
    # must equal counting every trial's row in one stack
    lengths, trials, seed = (300, 1024), 70, 3
    assert trials * min(lengths) > CHUNK_LETTERS
    rng = np.random.default_rng(seed)
    report = random_baseline(lengths, trials=trials, seed=seed)
    for n, mean, std in zip(lengths, report.means, report.stddevs):
        words = np.stack([rng.integers(0, 2, size=n, dtype=np.uint8) for _ in range(trials)])
        totals = batch_counts(words, 2).sum(axis=1)
        assert (mean, std) == (float(totals.mean()), float(totals.std()))


@pytest.fixture
def gathered(monkeypatch):
    """Records, per `_abelian_squares` call of the shared length loop,
    whether its starts were gathered from a list rather than sliced."""
    calls = []
    test = counting._abelian_squares

    def spy(prefix, starts, m):
        calls.append(not isinstance(starts, slice))
        return test(prefix, starts, m)

    monkeypatch.setattr(counting, "_abelian_squares", spy)
    return calls


def profile_rows(words: np.ndarray, sigma: int):
    """(distinct, classes) per row and even length from the one-word profiles."""
    m = words.shape[1] - words.shape[1] % 2
    words = [Word(Alphabet.default(sigma), row.tobytes()) for row in words]
    distinct = [list(asf_profile(word, m).counts.values()) for word in words]
    per_length = [inequivalent_profile(word, m).per_length for word in words]
    classes = [[p.get(k, 0) for k in range(2, m + 1, 2)] for p in per_length]
    return np.array(distinct, np.int64), np.array(classes, np.int64)


@pytest.mark.parametrize("length", (3, 9, 10, 33, 34, 101))
def test_one_row_equals_the_profiles(gathered, length):
    # a full-length row's LCP reaches max(lengths) = length - 1 only when the
    # row is unary and its length odd: those rows gather, all others slice
    rows = {
        "unary": np.zeros(length, np.uint8),
        "fibonacci": fibonacci_word(length).to_array(),
        "thue-morse": thue_morse_prefix(length).to_array(),
    }
    for name, row in rows.items():
        distinct, classes = profile_rows(row[None], 2)
        gathered.clear()  # the profiles' own calls are not under test
        assert np.array_equal(batch_counts(row[None], 2), distinct), name
        assert gathered == [name == "unary" and length % 2 == 1] * (length // 2)
        assert np.array_equal(batch_counts(row[None], 2, inequivalent=True), classes), name


@pytest.mark.parametrize("sigma, length", [(2, 33), (2, 64), (3, 41), (4, 20)])
def test_rows_equal_the_profiles(gathered, sigma, length):
    rng = np.random.default_rng(sigma * 100 + length)
    words = np.concatenate(
        [
            np.zeros((1, length), np.uint8),  # would gather alone
            fibonacci_word(length).to_array()[None],
            thue_morse_prefix(length).to_array()[None],
            rng.integers(0, sigma, size=(5, length), dtype=np.uint8),
        ]
    )
    distinct, classes = profile_rows(words, sigma)
    gathered.clear()
    assert np.array_equal(batch_counts(words, sigma), distinct)
    assert np.array_equal(batch_counts(words, sigma, inequivalent=True), classes)
    assert gathered and not any(gathered)  # several rows are always sliced
