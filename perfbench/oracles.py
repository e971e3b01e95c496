"""Reference values computed without the absquares engine.

Every function here works from first principles (integer square roots,
bit packing, plain string handling), so a defect in the engine cannot
hide in its own reference.  They serve the output checks in `jobs.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt

import numpy as np


def thue_morse_bits(n: int) -> np.ndarray:
    """t_i = parity of the binary digit sum of i."""
    i = np.arange(n, dtype=np.uint64)
    parity = np.zeros(n, dtype=np.uint8)
    while i.any():
        parity ^= (i & np.uint64(1)).astype(np.uint8)
        i >>= np.uint64(1)
    return parity


def fibonacci_text(n: int) -> str:
    """Prefix of the fixed point of a -> ab, b -> a, by string rewriting."""
    word = "a"
    while len(word) < n:
        word = "".join("ab" if c == "a" else "a" for c in word)
    return word[:n]


def floor_qi(k: int, p: int, q: int, r: int, d: int) -> int:
    """floor(k * (p + q*sqrt(d)) / r) for r > 0 and d not a square."""
    b = k * q
    t = isqrt(b * b * d)  # floor(|b| sqrt(d)); sqrt(d) is irrational
    t = t if b >= 0 else -t - 1
    return (k * p + t) // r


def rotation_bits(n: int, p: int, q: int, r: int, d: int) -> np.ndarray:
    """Characteristic rotation coding with angle alpha = (p + q sqrt d)/r,
    initial point alpha, left convention: letter i is 1 ('a') exactly when
    floor((i+2) alpha) > floor((i+1) alpha)."""
    floors = [floor_qi(k, p, q, r, d) for k in range(1, n + 2)]
    return (np.diff(np.array(floors, dtype=np.int64)) > 0).astype(np.uint8)


def packed_asf_counts(bits: np.ndarray, max_len: int) -> tuple[dict, dict, int]:
    """For a binary word and every even m <= max_len <= 64: the number of
    distinct abelian-square factors of length m and of their Parikh classes;
    also the number of distinct factors of length max_len.  A factor of
    length <= 64 is packed into one uint64, so equal keys mean equal
    factors."""
    if not 2 <= max_len <= min(64, bits.size):
        raise ValueError(f"max_len {max_len} out of range")
    n = bits.size
    ones = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    key = np.zeros(n + 1, dtype=np.uint64)
    distinct, classes = {}, {}
    for m in range(1, max_len + 1):
        key = (key[: n - m + 1] << np.uint64(1)) | bits[m - 1 :].astype(np.uint64)
        if m % 2:
            continue
        h = m // 2
        first = ones[h : n - h + 1] - ones[: n - m + 1]
        ok = first == ones[m:] - ones[h : n - h + 1]
        distinct[m] = int(np.unique(key[ok]).size)
        classes[m] = int(np.unique(first[ok]).size)
    return distinct, classes, int(np.unique(key).size)


def binary_asf_totals(bits: np.ndarray) -> tuple[int, int]:
    """(distinct abelian-square factors, their Parikh classes) of a 0/1
    word, over all lengths.  The abelian-square test is vectorized over
    start positions; only the abelian squares are deduplicated, by content.
    A class is (length, number of ones in the first half)."""
    n = bits.size
    ones = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    data = bits.tobytes()
    seen = set()
    classes = 0
    for m in range(2, n + 1, 2):
        h = m // 2
        first = ones[h : n - h + 1] - ones[: n - m + 1]
        ok = first == ones[m:] - ones[h : n - h + 1]
        starts = np.flatnonzero(ok)
        seen.update(data[s : s + m] for s in starts.tolist())
        classes += int(np.unique(first[ok]).size)
    return len(seen), classes


def text_bits(text: str) -> np.ndarray:
    """0/1 array of a word over the letters a, b (a -> 0)."""
    return (np.frombuffer(text.encode(), dtype=np.uint8) == ord("b")).astype(np.uint8)


def baseline_totals(lengths, trials: int, seed: int) -> dict:
    """Totals of the random words `absquares baseline` draws: one
    numpy.random.default_rng(seed) stream, `trials` words per length in
    ascending length order."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in sorted(lengths):
        out[n] = [
            binary_asf_totals(rng.integers(0, 2, size=n, dtype=np.uint8))[0]
            for _ in range(trials)
        ]
    return out


def richness_rows(text: str, lengths) -> dict:
    """n -> (average total as a Fraction, minimum total, recurrence index)
    over the distinct length-n factors of `text`."""
    data = text.encode()
    total_len = len(data)
    out = {}
    for n in lengths:
        occurrences: dict[bytes, list[int]] = {}
        for s in range(total_len - n + 1):
            occurrences.setdefault(data[s : s + n], []).append(s)
        totals = [binary_asf_totals(text_bits(f.decode()))[0] for f in occurrences]
        needed = n
        for occ in occurrences.values():
            needed = max(needed, occ[0] + n, total_len - occ[-1])
            if len(occ) > 1:
                needed = max(needed, max(b - a for a, b in zip(occ, occ[1:])) + n - 1)
        out[n] = (Fraction(sum(totals), len(totals)), min(totals), needed)
    return out


def golden_discrepancy(n_points: int) -> tuple[float, float, float]:
    """(surplus, deficit, D_N) of {k alpha}, k = 1..N, alpha = (sqrt5-1)/2,
    in float64: max(i/N - y_i) and max(y_i - (i-1)/N) over the sorted y."""
    k = np.arange(1, n_points + 1, dtype=np.float64)
    y = np.sort(np.mod(k * ((math.sqrt(5.0) - 1.0) / 2.0), 1.0))
    i = np.arange(1, n_points + 1, dtype=np.float64)
    surplus = float(np.max(i / n_points - y))
    deficit = float(np.max(y - (i - 1) / n_points))
    return surplus, deficit, surplus + deficit


def kn2_bound(n_points: int, k: int) -> float:
    """3 + (1/log phi + K/log(K+1)) log N."""
    log_phi = math.log((1 + math.sqrt(5)) / 2)
    return 3.0 + (1.0 / log_phi + k / math.log(k + 1)) * math.log(n_points)


def golden_certificate_counts(max_n: int) -> dict:
    """n -> (count_a, count_b) for even n <= max_n, with x_i = {i alpha/2}:
    count_a counts i <= n/2 with x_i in [1/4, 1/2), count_b counts even m in
    [n/2, n] with x_m <= 1/4.  4 x_i differs from 4 (i alpha/2) = i sqrt5 - i
    by a multiple of 4, so the quarter of [0, 1) holding x_i is
    floor(i sqrt5 - i) mod 4 = (isqrt(5 i^2) - i) mod 4; x_i is never
    exactly a quarter."""
    quarter = [0] + [(isqrt(5 * i * i) - i) % 4 for i in range(1, max_n + 1)]
    band = np.cumsum([q == 1 for q in quarter])  # i with x_i in [1/4, 1/2)
    low_even = np.cumsum([q == 0 and i % 2 == 0 for i, q in enumerate(quarter)])
    return {
        n: (int(band[n // 2]), int(low_even[n] - low_even[n // 2 - 1]))
        for n in range(2, max_n + 1, 2)
    }
