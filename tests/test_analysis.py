"""Richness reports, the explicit quadratic construction, random baselines."""

from fractions import Fraction

import pytest

from absquares.analysis import (
    InadequatePrefixError,
    fit_exponent,
    random_baseline,
    recurrence_index_estimate,
    richness_report,
    triple_block,
)
from absquares.counting import asf_profile
from absquares.substitutions import thue_morse_prefix
from absquares.words import BINARY_AB, Word
from counting_reference import asf_profile_brute
from paper_facts import distinct_factors, fibonacci_word


def total_asf(word):
    return asf_profile(word, len(word) - (len(word) % 2)).total


class TestTripleBlock:
    def test_small_words(self):
        assert triple_block(1).word.text() == "ababa"
        assert triple_block(2).word.text() == "aabaabaa"

    def test_bound_fields(self):
        report = triple_block(5)
        assert report.lower_bound == 18  # ceil(36 / 2)
        assert report.asf_total >= report.lower_bound

    def test_exact_totals_small(self):
        # the construction's total is ceil((n+1)^2 / 2) + floor(n / 2):
        # the floor(n/2) surplus comes from the aa...a squares inside a block
        for n in range(1, 201):
            report = triple_block(n)
            assert report.asf_total == ((n + 1) ** 2 + 1) // 2 + n // 2

    def test_totals_match_brute_force(self):
        for n in range(1, 41):
            report = triple_block(n)
            word = report.word
            brute = asf_profile_brute(word, len(word) - (len(word) % 2))
            assert report.asf_total == brute.total

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            triple_block(0)


class TestRichness:
    def test_requires_adequate_prefix(self):
        with pytest.raises(InadequatePrefixError):
            richness_report(fibonacci_word(40), [20])

    def test_averages_match_direct_enumeration(self):
        prefix = thue_morse_prefix(2048)
        report = richness_report(prefix, [6, 10])
        from absquares.counting import FactorIndex

        idx = FactorIndex(prefix)
        for n in (6, 10):
            totals = [total_asf(f) for f in distinct_factors(idx, n)]
            assert report.avg_per_n[n] == Fraction(sum(totals), len(totals))
            assert report.min_per_n[n] == min(totals)

    def test_constants_are_min_over_grid(self):
        report = richness_report(thue_morse_prefix(4096), [8, 16, 32])
        assert report.c_min == min(
            report.min_per_n[n] / (n * n) for n in (8, 16, 32)
        )
        assert 0 < report.c_min <= report.c_avg

    def test_recurrence_estimates_present(self):
        report = richness_report(fibonacci_word(3000), [4, 8])
        assert set(report.recurrence_table) == {4, 8}
        assert report.recurrence_quotient_estimate >= 1.0

    def test_average_constants_stable_across_grid(self):
        # avg(n)/n^2 hovers around c_avg instead of drifting: each grid point
        # stays within 30% of the fitted constant, for both fixed points
        for word in (fibonacci_word(6000), thue_morse_prefix(8192)):
            lengths = [8, 12, 16, 24, 32]
            report = richness_report(word, lengths)
            for n in lengths:
                ratio = report.avg_per_n[n] / (n * n)
                assert 0.7 * report.c_avg <= ratio <= 1.3 * report.c_avg


class TestRecurrenceIndex:
    def test_periodic_word(self):
        word = Word.from_text("ab" * 30, BINARY_AB)
        assert recurrence_index_estimate(word, 1) == 2

    def test_fibonacci_letter_window(self):
        # b never waits longer than a 3-letter window in the Fibonacci word
        assert recurrence_index_estimate(fibonacci_word(3000), 1) == 3

    def test_estimate_monotone_in_length(self):
        # longer factors can only be harder to catch in a sliding window
        for word in (fibonacci_word(3000), thue_morse_prefix(4096)):
            estimates = [recurrence_index_estimate(word, n) for n in range(1, 25)]
            assert all(a <= b for a, b in zip(estimates, estimates[1:]))

    def test_window_contains_factor_everywhere(self):
        word = fibonacci_word(2000)
        for n in (2, 5, 13):
            window = recurrence_index_estimate(word, n)
            # slide every window of that size and confirm all factors appear
            from absquares.counting import FactorIndex

            idx = FactorIndex(word)
            factors = {f.data for f in distinct_factors(idx, n)}
            for start in range(0, len(word) - window, 97):
                chunk = word.data[start : start + window]
                assert all(chunk.find(f) >= 0 for f in factors)


class TestRandomBaseline:
    def test_seed_reproducibility(self):
        a = random_baseline([64, 128], trials=10, seed=42)
        b = random_baseline([64, 128], trials=10, seed=42)
        assert a.means == b.means and a.stddevs == b.stddevs

    def test_exponent_requires_two_lengths(self):
        assert random_baseline([64], trials=5, seed=0).exponent is None

    def test_growth_is_superlinear_subquadratic(self):
        report = random_baseline([128, 256, 512], trials=40, seed=11)
        assert 1.2 < report.exponent < 1.8


class TestFitExponent:
    def test_exact_power_law(self):
        lengths = [10, 20, 40, 80]
        values = [3 * n**2 for n in lengths]
        assert fit_exponent(lengths, values) == pytest.approx(2.0)

    def test_scaling_invariance(self):
        lengths = [16, 32, 64]
        values = [n**1.5 for n in lengths]
        assert fit_exponent(lengths, [7 * v for v in values]) == pytest.approx(
            fit_exponent(lengths, values)
        )
