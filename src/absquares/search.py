"""Exhaustive search for words maximizing abelian-square content.

Desk-scale evidence gathering: what is the largest number of distinct
(or inequivalent) abelian-square factors a length-L word over sigma
letters can have?  The space is cut by letter-permutation symmetry —
only canonical words are enumerated, where letters make their first
appearance in alphabet order — and optionally sharded by canonical
prefix for parallel runs.  Results are deterministic regardless of the
worker count: shards are merged in lexicographic prefix order.

Budgets make the exponential cost explicit: lengths beyond the
configured cap raise :class:`BudgetExceededError` instead of silently
burning hours.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .counting import CHUNK_LETTERS, asf_profile_brute, batch_counts, inequivalent_profile_brute
from .words import Alphabet, Word, is_abelian_square


DEFAULT_BUDGETS = {2: 26, 3: 16, 4: 12}

OBJECTIVE_DISTINCT = "distinct_asf_total"
OBJECTIVE_INEQUIVALENT = "inequivalent_total"

_CHECKPOINT_SCHEMA = "absquares.search-checkpoint/1"
# one shard per canonical word of this length; checkpoints key their records by it
_SHARD_PREFIX_LEN = 4


class BudgetExceededError(ValueError):
    """The requested search is beyond the configured budget."""


class VerificationError(RuntimeError):
    """A witness failed independent re-verification (engine bug)."""


# -- objectives ----------------------------------------------------------

_OBJECTIVES = (OBJECTIVE_DISTINCT, OBJECTIVE_INEQUIVALENT)


def witness_value(text: str, objective: str) -> int:
    """Re-evaluate a witness through the basic word primitives.

    Deliberately shares no code with the search evaluators: factors are
    materialized as :class:`Word` objects and tested one by one with
    :func:`is_abelian_square`.
    """
    word = Word.from_text(text, Alphabet.from_symbols("".join(sorted(set(text)))))
    n = len(word)
    seen = set()
    classes = set()
    for m in range(2, n + 1, 2):
        for s in range(n - m + 1):
            f = word.factor(s, m)
            if is_abelian_square(f):
                seen.add(f.data)
                half = f.data[: m // 2]
                classes.add((m, tuple(sorted(half))))
    if objective == OBJECTIVE_DISTINCT:
        return len(seen)
    if objective == OBJECTIVE_INEQUIVALENT:
        return len(classes)
    raise ValueError(f"unknown objective {objective!r}")


# -- enumeration ---------------------------------------------------------


def _extend_canonical(words: np.ndarray, sigma: int, length: int) -> np.ndarray:
    """Every canonical extension to `length` of the canonical rows of
    `words`, in lexicographic order: one letter at a time, each row gets a
    child per letter up to one past the largest letter it has used."""
    top = words.astype(np.int64).max(axis=1, initial=-1)
    for _ in range(words.shape[1], length):
        choices = np.minimum(top + 1, sigma - 1) + 1
        parent = np.repeat(np.arange(len(words)), choices)
        letter = np.arange(parent.size) - np.repeat(np.cumsum(choices) - choices, choices)
        words = np.column_stack([words[parent], letter.astype(np.uint8)])
        top = np.maximum(top[parent], letter)
    return words


def _canonical_blocks(sigma: int, length: int, prefix: bytes):
    """The canonical words extending `prefix` as uint8 rows, in
    lexicographic order, in blocks of at most about CHUNK_LETTERS letters
    (more only when one word is longer)."""
    if sigma < 1:
        raise ValueError("alphabet must have at least one letter")
    if max(prefix, default=-1) >= sigma:
        raise ValueError("prefix uses letters outside the alphabet")
    tail = 0
    while sigma ** (tail + 1) * length <= CHUNK_LETTERS and tail < length - len(prefix):
        tail += 1
    start = np.frombuffer(bytes(prefix), dtype=np.uint8)[None]
    for head in _extend_canonical(start, sigma, max(length - tail, len(prefix))):
        yield _extend_canonical(head[None], sigma, length)


def canonical_words(sigma: int, length: int, prefix: bytes = b""):
    """Yield length-`length` canonical words extending `prefix`.

    Canonical: letter k appears only after all letters below k; the
    yield order is lexicographic.  The prefix itself must be canonical.
    """
    for block in _canonical_blocks(sigma, length, prefix):
        yield from map(bytes, block)


def _shard_worker(args) -> dict:
    sigma, length, objective, prefix, name, witness_cap = args
    symbols = np.array([ord(c) for c in Alphabet.default(sigma).symbols], dtype=np.uint8)
    best = -1
    witnesses: list[str] = []
    attaining = 0
    count = 0
    for block in _canonical_blocks(sigma, length, prefix):
        values = batch_counts(block, sigma, objective == OBJECTIVE_INEQUIVALENT).sum(axis=1)
        count += len(values)
        top = int(values.max())
        if top < best:
            continue
        if top > best:
            best, attaining, witnesses = top, 0, []
        hits = np.flatnonzero(values == top)
        attaining += hits.size
        # the first attaining word is kept even at witness_cap 0
        for row in hits[: max(witness_cap, 1) - len(witnesses)]:
            witnesses.append(symbols[block[row]].tobytes().decode())
    return {
        "prefix": name,
        "best": best,
        "witnesses": witnesses,
        "attaining": attaining,
        "count": count,
    }


# -- checkpointing -------------------------------------------------------


def _checkpoint_header(sigma, length, objective, witness_cap) -> dict:
    return {
        "schema": _CHECKPOINT_SCHEMA,
        "sigma": sigma,
        "length": length,
        "objective": objective,
        "witness_cap": witness_cap,
    }


def _load_checkpoint(path: Path, header: dict) -> dict:
    """Shard records by prefix.  A final line with no newline that does not
    parse is a write cut short and is dropped; any other bad line is an error."""
    if not path.exists():
        return {}
    lines = path.read_text().splitlines(keepends=True)
    records = []
    for number, line in enumerate(lines, 1):
        try:
            if line.strip():
                records.append(json.loads(line))
        except ValueError as exc:
            if number == len(lines) > 1 and not line.endswith("\n"):
                break
            raise ValueError(f"checkpoint {path} line {number} is corrupt: {exc}") from None
    if records and records[0] != header:
        raise ValueError(
            f"checkpoint {path} was written for different parameters: "
            f"{records[0]}"
        )
    return {rec["prefix"]: rec for rec in records[1:]}


def _save_checkpoint(path: Path, header: dict, records) -> None:
    """Rewrite the checkpoint whole: written and synced to a temporary file,
    then swapped in, so a crash leaves the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write("".join(json.dumps(rec) + "\n" for rec in [header, *records]))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# -- drivers -------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exhaustive search cell."""

    sigma: int
    length: int
    objective: str
    maximum: int
    witnesses: tuple
    witness_cap: int
    witnesses_truncated: bool
    enumerated: int

    def as_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "length": self.length,
            "objective": self.objective,
            "maximum": self.maximum,
            "witnesses": list(self.witnesses),
            "witness_cap": self.witness_cap,
            "witnesses_truncated": self.witnesses_truncated,
            "enumerated": self.enumerated,
        }


def _check_budget(sigma: int, length: int, budgets) -> None:
    if budgets is None:
        budgets = DEFAULT_BUDGETS
    if sigma not in budgets:
        raise BudgetExceededError(
            f"no budget configured for alphabets of size {sigma}; "
            f"pass budgets={{{sigma}: <max length>}} explicitly"
        )
    cap = budgets[sigma]
    if length > cap:
        raise BudgetExceededError(
            f"length {length} exceeds the configured budget {cap} for "
            f"sigma={sigma}; raise the budget explicitly to proceed"
        )


def _search(
    sigma: int,
    length: int,
    objective: str,
    *,
    workers: int = 0,
    witness_cap: int = 16,
    checkpoint=None,
    budgets=None,
) -> SearchResult:
    if length < 1:
        raise ValueError("length must be >= 1")
    if sigma < 2:
        raise ValueError("alphabet must have at least two letters")
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    _check_budget(sigma, length, budgets)

    prefixes = list(canonical_words(sigma, min(_SHARD_PREFIX_LEN, length)))
    header = _checkpoint_header(sigma, length, objective, witness_cap)
    path = Path(checkpoint) if checkpoint is not None else None
    done = _load_checkpoint(path, header) if path else {}

    symbols = Alphabet.default(sigma).symbols
    names = ["".join(symbols[i] for i in p) for p in prefixes]
    by_prefix = dict(done)
    jobs = [
        (sigma, length, objective, p, name, witness_cap)
        for p, name in zip(prefixes, names)
        if name not in done
    ]
    pool = ProcessPoolExecutor(max_workers=workers) if workers and len(jobs) > 1 else None
    with pool or contextlib.nullcontext():
        # records come in shard order, each as soon as it and those before it are done
        finished = pool.map(_shard_worker, jobs) if pool else map(_shard_worker, jobs)
        if path:
            _save_checkpoint(path, header, by_prefix.values())
        for rec in finished:
            by_prefix[rec["prefix"]] = rec
            if path:
                _save_checkpoint(path, header, by_prefix.values())
    # lexicographic shard order makes the merge order-independent
    records = [by_prefix[name] for name in names]

    maximum = max(rec["best"] for rec in records)
    witnesses: list[str] = []
    attaining = 0
    for rec in records:
        if rec["best"] != maximum:
            continue
        attaining += rec["attaining"]
        for w in rec["witnesses"]:
            if len(witnesses) < witness_cap:
                witnesses.append(w)
    enumerated = sum(rec["count"] for rec in records)

    for w in witnesses:
        check = witness_value(w, objective)
        if check != maximum:
            raise VerificationError(
                f"witness {w!r} re-verified to {check}, expected {maximum}"
            )
    return SearchResult(
        sigma,
        length,
        objective,
        maximum,
        tuple(witnesses),
        witness_cap,
        attaining > len(witnesses),
        enumerated,
    )


def max_asf(sigma: int, length: int, **kwargs) -> SearchResult:
    """Maximum total of distinct abelian-square factors at (sigma, L)."""
    return _search(sigma, length, OBJECTIVE_DISTINCT, **kwargs)


def max_inequivalent(sigma: int, length: int, **kwargs) -> SearchResult:
    """Maximum total of inequivalent abelian-square classes at (sigma, L)."""
    return _search(sigma, length, OBJECTIVE_INEQUIVALENT, **kwargs)


@dataclass(frozen=True)
class AlphabetComparison:
    """max_asf across alphabet sizes at a fixed length."""

    length: int
    results: tuple  # of SearchResult, ascending sigma
    binary_dominates: bool

    def as_dict(self) -> dict:
        return {
            "length": self.length,
            "results": [r.as_dict() for r in self.results],
            "binary_dominates": self.binary_dominates,
        }


def compare_alphabets(length: int, sigmas=(2, 3), **kwargs) -> AlphabetComparison:
    """Evidence row: does a binary word do at least as well as larger
    alphabets at this length?  Reported, never asserted."""
    sigmas = tuple(sorted(set(sigmas)))
    if sigmas[0] != 2:
        raise ValueError("comparison is anchored at sigma=2")
    results = tuple(max_asf(s, length, **kwargs) for s in sigmas)
    binary_max = results[0].maximum
    dominates = all(r.maximum <= binary_max for r in results[1:])
    return AlphabetComparison(length, results, dominates)


def full_enumeration_max(sigma: int, length: int, objective: str) -> tuple:
    """(maximum, attaining count) over ALL sigma^L words — no canonical
    pruning.  Soundness oracle for the canonical search: every word goes
    through the brute-force profiles of `counting`, not the batched engine."""
    oracle = {
        OBJECTIVE_DISTINCT: asf_profile_brute,
        OBJECTIVE_INEQUIVALENT: inequivalent_profile_brute,
    }[objective]
    alphabet = Alphabet.default(sigma)
    values = [
        oracle(Word(alphabet, bytes(w)), length - length % 2).total
        for w in itertools.product(range(sigma), repeat=length)
    ]
    best = max(values)
    return best, values.count(best)
