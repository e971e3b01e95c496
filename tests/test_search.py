"""Exhaustive search: canonical pruning soundness, determinism, budgets."""

import itertools
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
    max_asf,
    max_inequivalent,
    witness_value,
)
from absquares.counting import asf_profile, inequivalent_profile
from absquares.words import Alphabet, Word
from counting_reference import (
    asf_profile_brute,
    full_enumeration_max,
    inequivalent_profile_brute,
)


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
    @given(st.binary(min_size=1, max_size=26).map(lambda b: bytes(x % 4 for x in b)))
    def test_witness_value_matches_profiles(self, data):
        text = "".join("abcd"[x] for x in data)
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

    def test_pool_is_sized_by_the_shards(self, monkeypatch):
        # a forked pool starts every worker it is given, so it gets no more than the shards
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(search, "ProcessPoolExecutor", SerialPool)
        pooled = max_asf(2, 10, workers=1000)
        assert asked == [8]
        assert json.dumps(pooled.as_dict()) == json.dumps(max_asf(2, 10).as_dict())

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

    @pytest.mark.parametrize("objective", [OBJECTIVE_DISTINCT, OBJECTIVE_INEQUIVALENT])
    @pytest.mark.parametrize("sigma, length", [(2, 14), (3, 8)])
    def test_witnesses_are_the_first_attaining_canonical_words(self, sigma, length, objective):
        # (2, 14) folds two blocks of 512 words per shard, (3, 8) one block
        # in each of 14 shards; the oracle lists every canonical word in
        # lexicographic order with its brute-force value
        oracle = {
            OBJECTIVE_DISTINCT: asf_profile_brute,
            OBJECTIVE_INEQUIVALENT: inequivalent_profile_brute,
        }[objective]
        alphabet = Alphabet.default(sigma)
        values = {}
        for letters in itertools.product(range(sigma), repeat=length):
            seen = sorted(set(letters), key=letters.index)
            if seen == list(range(len(seen))):  # letters first appear in order
                word = Word(alphabet, bytes(letters))
                values[word.text()] = oracle(word, length - length % 2).total
        best = max(values.values())
        attaining = [text for text, value in values.items() if value == best]
        runner = max_asf if objective == OBJECTIVE_DISTINCT else max_inequivalent
        for cap in (0, 1, 3, len(attaining) + 1):
            result = runner(sigma, length, witness_cap=cap)
            assert result.maximum == best
            assert result.enumerated == len(values)
            assert result.witnesses == tuple(attaining[:cap])
            assert result.witnesses_truncated == (len(attaining) > cap)

    def test_cap_zero_checkpoint_records_hold_the_first_attaining_word(self, tmp_path):
        # a cap-0 search shows no witness, but each shard record still names
        # the first word attaining its best, so a resume can re-verify it
        expected = json.dumps(max_asf(2, 10, witness_cap=0).as_dict())
        path = tmp_path / "cap0.jsonl"
        assert json.dumps(max_asf(2, 10, witness_cap=0, checkpoint=str(path)).as_dict()) == expected
        header, *records = path.read_text().splitlines()
        values = {}
        for letters in canonical_words(2, 10):
            word = Word(Alphabet.default(2), letters)
            values[word.text()] = asf_profile_brute(word, 10).total
        assert len(records) == 8
        for rec in map(json.loads, records):
            shard = {text: v for text, v in values.items() if text.startswith(rec["prefix"])}
            assert rec["best"] == max(shard.values())
            assert rec["witnesses"] == [next(t for t, v in shard.items() if v == rec["best"])]
        # records with one witness, such as a cap-1 search writes, resume at cap 0
        capped = tmp_path / "cap1.jsonl"
        max_asf(2, 10, witness_cap=1, checkpoint=str(capped))
        with_witness = capped.read_text().splitlines()[1:]
        assert with_witness == records
        path.write_text("\n".join([header, *with_witness]) + "\n")
        assert json.dumps(max_asf(2, 10, witness_cap=0, checkpoint=str(path)).as_dict()) == expected

    def test_fresh_cap_zero_search_reverifies_its_maximum(self, monkeypatch):
        # the witness a cap-0 search does not show is still re-verified
        first = max_asf(2, 10, witness_cap=1).witnesses
        checked = []

        def spy(text, objective):
            checked.append(text)
            return witness_value(text, objective)

        monkeypatch.setattr(search, "witness_value", spy)
        assert max_asf(2, 10, witness_cap=0).witnesses == ()
        assert tuple(checked) == first

    def test_checkpoint_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "shards.jsonl"
        max_asf(2, 8, checkpoint=str(path))
        with pytest.raises(ValueError):
            max_asf(2, 10, checkpoint=str(path))


class TestCompare:
    def test_checkpoint_rejected_before_any_search(self, tmp_path, monkeypatch):
        # one file cannot hold the shards of every alphabet size
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(search, "max_asf", no_search)
        path = tmp_path / "cmp.jsonl"
        with pytest.raises(ValueError, match="takes no checkpoint"):
            compare_alphabets(6, checkpoint=str(path))
        assert not path.exists()

    def test_binary_vs_ternary(self):
        comparison = compare_alphabets(8)
        assert [r.sigma for r in comparison.results] == [2, 3]
        maxima = {r.sigma: r.maximum for r in comparison.results}
        assert comparison.binary_dominates == (maxima[2] >= maxima[3])
        assert comparison.binary_dominates  # observed on every grid we ran
