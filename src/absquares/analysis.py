"""Richness statistics, recurrence estimates, and baselines.

This module measures how densely abelian squares sit inside a word:

* :func:`richness_report` — per-length average/minimum abelian-square
  content of the distinct factors of a prefix, with fitted quadratic
  constants and a recurrence-index table;
* :func:`triple_block` — the a^n b a^n b a^n construction whose
  abelian-square count is provably quadratic;
* :func:`random_baseline` — seeded uniform-random binary words, whose
  expected total sits near n^1.5 and therefore well below the rich
  examples.

Prefixes stand in for infinite words, so every entry point checks (or
lets the caller check) factor-count stabilization before trusting the
numbers; see :class:`InadequatePrefixError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .counting import CHUNK_LETTERS, FactorIndex, batch_counts, unstable_lengths
from .words import BINARY_AB, Word


class InadequatePrefixError(ValueError):
    """The prefix is too short to speak for the infinite word."""


def _require_adequate(prefix: Word, lengths, index: FactorIndex) -> None:
    bad = unstable_lengths(prefix, lengths, index)
    if bad:
        raise InadequatePrefixError(
            f"factor counts not stabilized for lengths {bad}; "
            f"supply a longer prefix (got {len(prefix)} letters)"
        )


def fit_exponent(lengths, values) -> float:
    """Least-squares slope of log(value) against log(length)."""
    xs = np.log(np.asarray(lengths, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    if np.any(~np.isfinite(ys)):
        raise ValueError("values must be positive for a log-log fit")
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def fit_quadratic_constant(per_length: dict) -> float:
    """Conservative constant C with value >= C * n^2 across the grid."""
    return float(min(Fraction(v) / (n * n) for n, v in per_length.items()))


@dataclass(frozen=True)
class RichnessReport:
    """Abelian-square content of the distinct factors of a prefix.

    ``avg_per_n`` is an exact rational (sum of per-factor totals over the
    number of distinct factors); ``min_per_n`` the worst factor.  The
    fitted constants divide by n^2, so a positive, stable ``c_min`` is
    finite-data evidence of uniform quadratic richness.
    """

    lengths: tuple
    avg_per_n: dict  # n -> Fraction
    min_per_n: dict  # n -> int
    c_avg: float
    c_min: float
    recurrence_table: dict  # n -> estimated least covering window
    recurrence_quotient_estimate: float

    def rows(self):
        for n in self.lengths:
            yield {
                "n": n,
                "avg": self.avg_per_n[n],
                "min": self.min_per_n[n],
                "avg_over_n2": self.avg_per_n[n] / (n * n),
                "min_over_n2": Fraction(self.min_per_n[n], n * n),
                "recurrence_index": self.recurrence_table[n],
            }


def richness_report(prefix: Word, lengths, check_adequacy: bool = True) -> RichnessReport:
    """Average/minimum abelian-square totals over distinct length-n factors."""
    lengths = tuple(sorted(set(int(n) for n in lengths)))
    if not lengths or lengths[0] < 2:
        raise ValueError("lengths must be >= 2")
    if lengths[-1] > len(prefix):
        raise ValueError("length grid exceeds the prefix")
    index = FactorIndex(prefix, lengths[-1])
    if check_adequacy:
        _require_adequate(prefix, lengths, index)
    letters = prefix.to_array()
    avg_per_n: dict = {}
    min_per_n: dict = {}
    recurrence_table: dict = {}
    for n in lengths:
        factors = sliding_window_view(letters, n)[index.representative_positions(n)]
        totals = batch_counts(factors, prefix.alphabet.size).sum(axis=1)
        avg_per_n[n] = Fraction(int(totals.sum()), totals.size)
        min_per_n[n] = int(totals.min())
        recurrence_table[n] = recurrence_index_estimate(prefix, n, index=index)
    quotient = max(recurrence_table[n] / n for n in lengths)
    return RichnessReport(
        lengths,
        avg_per_n,
        min_per_n,
        c_avg=fit_quadratic_constant(avg_per_n),
        c_min=fit_quadratic_constant(min_per_n),
        recurrence_table=recurrence_table,
        recurrence_quotient_estimate=quotient,
    )


def recurrence_index_estimate(
    prefix: Word, length: int, index: FactorIndex | None = None
) -> int:
    """Least m such that every length-m window of the prefix contains
    every distinct length-n factor of the prefix.

    An estimate from finite data: the true recurrence index of the
    infinite word needs the whole tail, but for linearly recurrent words
    the prefix estimate settles quickly.  A factor with sorted occurrence
    starts o_1 < ... < o_k forces m >= o_1 + n (the leading window),
    m >= N - o_k (the trailing one) and m >= gap + n - 1 for each gap
    between consecutive starts.  One sort of the key factor * N + start,
    with factors numbered in suffix order, lines up every factor's starts.
    """
    total = len(prefix)
    depth = total if index is None else index.depth
    if not 1 <= length <= depth:
        raise ValueError(f"factor length {length} out of range 1..{depth}")
    if index is None:
        index = FactorIndex(prefix, length)
    fits = index.sa <= total - length
    key = np.cumsum(index.lcp[fits] < length) * total + index.sa[fits]
    factor, pos = np.divmod(np.sort(key), total)
    same = factor[1:] == factor[:-1]  # pos[i + 1] follows pos[i] in one factor
    first, last = pos[np.r_[True, ~same]], pos[np.r_[~same, True]]
    gap = int(np.diff(pos)[same].max(initial=0))
    return max(int(first.max()) + length, total - int(last.min()), gap + length - 1)


@dataclass(frozen=True)
class TripleBlockReport:
    """The a^n b a^n b a^n construction and its provable floor."""

    n: int
    word: Word
    asf_total: int
    lower_bound: int


def triple_block(n: int) -> TripleBlockReport:
    """Build a^n b a^n b a^n and count its abelian-square factors.

    The exact count is ceil((n+1)^2 / 2) + floor(n / 2):

    - every factor a^i b a^n b a^j (0 <= i, j <= n) with i + j + n even
      is an abelian square, because each half holds exactly one b; these
      are ceil((n+1)^2 / 2) distinct factors;
    - the runs a^2k inside a block add floor(n / 2);
    - a factor holding a single b is never an abelian square.

    The count is obtained by the counting engine and checked against the
    floor ceil((n+1)^2 / 2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    block = "a" * n
    word = Word.from_text(block + "b" + block + "b" + block, BINARY_AB)
    total = int(batch_counts(word.to_array()[None], 2).sum())
    bound = ((n + 1) ** 2 + 1) // 2
    if total < bound:
        raise AssertionError(
            f"construction bound violated at n={n}: {total} < {bound}"
        )
    return TripleBlockReport(n, word, total, bound)


@dataclass(frozen=True)
class RandomBaselineReport:
    """Total abelian-square content of uniform random binary words."""

    lengths: tuple
    trials: int | None  # None means exhaustive enumeration
    seed: int | None
    means: tuple  # per length; Fractions when exhaustive, floats otherwise
    stddevs: tuple
    exponent: float | None  # log-log slope across lengths, needs >= 2 points

    def rows(self):
        for n, mean, std in zip(self.lengths, self.means, self.stddevs):
            yield {"n": n, "mean": mean, "stddev": std}


def _baseline_rows(rng, n: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of a baseline as a (hi - lo, n) letter array: the words
    whose binary codes they are when `rng` is None (exhaustive mode), else
    one draw per trial, so the stream is that of counting each word alone."""
    if rng is None:
        return ((np.arange(lo, hi)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    return np.stack([rng.integers(0, 2, size=n, dtype=np.uint8) for _ in range(lo, hi)])


def random_baseline(
    lengths, trials: int | None = 100, seed: int | None = 0
) -> RandomBaselineReport:
    """Mean/stddev of total distinct abelian-square factors.

    ``trials=None`` enumerates all binary words of each length instead of
    sampling (exact, only sensible for small lengths); otherwise words
    are drawn from ``numpy.random.default_rng(seed)`` so reports are
    reproducible bit for bit.
    """
    lengths = tuple(sorted(set(int(n) for n in lengths)))
    if not lengths or lengths[0] < 1:
        raise ValueError("lengths must be positive")
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")
    rng = None if trials is None else np.random.default_rng(seed)
    means, stds = [], []
    for n in lengths:
        if trials is None and n > 20:
            raise ValueError("exhaustive mode is for small lengths")
        count = 1 << n if trials is None else trials
        group = max(1, CHUNK_LETTERS // n)  # rows drawn and counted together
        totals = np.concatenate([
            batch_counts(_baseline_rows(rng, n, lo, min(lo + group, count)), 2).sum(axis=1)
            for lo in range(0, count, group)
        ])
        if trials is None:
            mean = Fraction(int(totals.sum()), totals.size)
            means.append(mean)
            var = sum((int(t) - mean) ** 2 for t in totals) / totals.size
            stds.append(math.sqrt(var))
        else:
            means.append(float(totals.mean()))
            stds.append(float(totals.std()))
    exponent = None
    if len(lengths) >= 2 and all(m > 0 for m in means):
        exponent = fit_exponent(lengths, [float(m) for m in means])
    return RandomBaselineReport(
        lengths, trials, None if trials is None else seed,
        tuple(means), tuple(stds), exponent,
    )
