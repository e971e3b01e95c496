"""The batched evaluator against the brute-force oracles.

`batch_counts` suffix-sorts every row of a (W, L) letter array by prefix
doubling, reads first occurrences off the LCP descent and tests every even
length at once; the oracles enumerate substrings one by one.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lcp_reference import kasai
from absquares.analysis import random_baseline
from absquares.counting import (
    CHUNK_LETTERS,
    asf_profile,
    asf_profile_brute,
    batch_counts,
    build_suffix_array,
    inequivalent_profile_brute,
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
    exhaustive = random_baseline([10, 14], trials=None)
    for n, mean, std in zip((10, 14), exhaustive.means, exhaustive.stddevs):
        words = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        totals = batch_counts(words, 2).sum(axis=1)
        assert mean == Fraction(int(totals.sum()), 1 << n)
        assert std == math.sqrt(sum((int(t) - mean) ** 2 for t in totals) / (1 << n))
