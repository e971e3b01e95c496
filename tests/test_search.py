"""Exhaustive search: canonical pruning soundness, determinism, budgets."""

import json

import pytest

from absquares import search
from hypothesis import given, strategies as st

from absquares.search import (
    BudgetExceededError,
    DEFAULT_BUDGETS,
    OBJECTIVE_DISTINCT,
    OBJECTIVE_INEQUIVALENT,
    canonical_words,
    compare_alphabets,
    full_enumeration_max,
    max_asf,
    max_inequivalent,
    witness_value,
)
from absquares.counting import asf_profile, inequivalent_profile
from absquares.words import Word


class TestCanonicalWords:
    def test_count_binary(self):
        # canonical binary words of length n: first letter pinned to a
        assert sum(1 for _ in canonical_words(2, 5)) == 16

    def test_every_word_has_canonical_representative(self):
        # renaming letters by first appearance maps any word to one of ours
        canon = {bytes(w) for w in canonical_words(3, 5)}
        for packed in range(3**5):
            word, x = [], packed
            for _ in range(5):
                word.append(x % 3)
                x //= 3
            seen: dict[int, int] = {}
            renamed = bytes(seen.setdefault(c, len(seen)) for c in word)
            assert renamed in canon

    def test_letters_first_appear_in_order(self):
        for w in canonical_words(4, 6):
            seen = set()
            for c in w:
                if c not in seen:
                    assert c == len(seen)
                    seen.add(c)


class TestObjectives:
    @given(st.binary(min_size=1, max_size=16).map(lambda b: bytes(x % 3 for x in b)))
    def test_witness_value_matches_profiles(self, data):
        text = "".join("abc"[x] for x in data)
        word = Word.from_text(text)
        m = len(word) - (len(word) % 2)
        assert witness_value(text, OBJECTIVE_DISTINCT) == asf_profile(word, m).total
        assert (
            witness_value(text, OBJECTIVE_INEQUIVALENT)
            == inequivalent_profile(word, m).total
        )


class TestSearch:
    def test_binary_length_5(self):
        # aabba holds aa, bb and abba: three distinct abelian squares, and
        # no 5-letter binary word holds more
        result = max_asf(2, 5)
        assert result.maximum == 3
        assert result.witnesses == ("aabba", "abbaa")

    def test_matches_full_enumeration(self):
        for length in range(1, 11):
            canonical = max_asf(2, length)
            best, attaining = full_enumeration_max(2, length, OBJECTIVE_DISTINCT)
            assert canonical.maximum == best

    def test_full_enumeration_ternary(self):
        result = max_asf(3, 7)
        best, _ = full_enumeration_max(3, 7, OBJECTIVE_DISTINCT)
        assert result.maximum == best

    def test_inequivalent_objective(self):
        result = max_inequivalent(2, 8)
        best, _ = full_enumeration_max(2, 8, OBJECTIVE_INEQUIVALENT)
        assert result.maximum == best == 6

    def test_maximum_monotone_in_length(self):
        # a maximal word keeps its factors when extended by any letter
        values = [max_asf(2, length).maximum for length in range(1, 13)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_witnesses_reverify(self):
        result = max_asf(2, 12)
        for text in result.witnesses:
            assert witness_value(text, OBJECTIVE_DISTINCT) == result.maximum

    def test_witness_cap(self):
        capped = max_asf(2, 10, witness_cap=1)
        full = max_asf(2, 10)
        assert capped.witnesses == full.witnesses[:1]
        assert capped.witnesses_truncated

    def test_parallel_matches_serial(self):
        serial = max_asf(2, 11, workers=0)
        parallel = max_asf(2, 11, workers=2)
        assert json.dumps(serial.as_dict()) == json.dumps(parallel.as_dict())

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            max_asf(2, DEFAULT_BUDGETS[2] + 2)
        with pytest.raises(BudgetExceededError):
            max_asf(5, 4)  # alphabet size without a budget entry

    def test_budget_override(self):
        result = max_asf(4, 3, budgets={4: 3})
        assert result.length == 3

    def test_checkpoint_resume(self, tmp_path):
        path = tmp_path / "shards.jsonl"
        first = max_asf(2, 10, checkpoint=str(path))
        assert path.exists()
        lines_after_first = path.read_text().count("\n")
        resumed = max_asf(2, 10, checkpoint=str(path))
        assert json.dumps(first.as_dict()) == json.dumps(resumed.as_dict())
        # nothing new was computed on resume
        assert path.read_text().count("\n") == lines_after_first

    @pytest.mark.parametrize("done", [0, 1, 3, 7])
    def test_interrupted_run_resumes_to_the_same_bytes(self, tmp_path, monkeypatch, done):
        whole = tmp_path / "whole.jsonl"
        expected = json.dumps(max_asf(2, 12, checkpoint=str(whole)).as_dict())

        class Stop(Exception):
            pass

        finished = []

        def stop_after_done(job):
            if len(finished) == done:
                raise Stop
            finished.append(job)
            return worker(job)

        worker = search._shard_worker
        path = tmp_path / "cut.jsonl"
        monkeypatch.setattr(search, "_shard_worker", stop_after_done)
        with pytest.raises(Stop):
            max_asf(2, 12, checkpoint=str(path))
        monkeypatch.setattr(search, "_shard_worker", worker)
        # every shard that finished is on disk, whole lines only
        assert path.read_text().count("\n") == 1 + done
        resumed = max_asf(2, 12, checkpoint=str(path), workers=2 if done % 2 else 0)
        assert json.dumps(resumed.as_dict()) == expected
        assert path.read_bytes() == whole.read_bytes()

    def test_checkpoint_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "shards.jsonl"
        max_asf(2, 8, checkpoint=str(path))
        with pytest.raises(ValueError):
            max_asf(2, 10, checkpoint=str(path))


class TestCompare:
    def test_binary_vs_ternary(self):
        comparison = compare_alphabets(8)
        assert [r.sigma for r in comparison.results] == [2, 3]
        maxima = {r.sigma: r.maximum for r in comparison.results}
        assert comparison.binary_dominates == (maxima[2] >= maxima[3])
        assert comparison.binary_dominates  # observed on every grid we ran
