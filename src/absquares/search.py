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

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .words import Alphabet, Word, is_abelian_square

__all__ = [
    "DEFAULT_BUDGETS",
    "BudgetExceededError",
    "VerificationError",
    "SearchResult",
    "AlphabetComparison",
    "max_asf",
    "max_inequivalent",
    "compare_alphabets",
    "witness_value",
    "full_enumeration_max",
    "canonical_words",
]

DEFAULT_BUDGETS = {2: 26, 3: 16, 4: 12}

OBJECTIVE_DISTINCT = "distinct_asf_total"
OBJECTIVE_INEQUIVALENT = "inequivalent_total"

_CHECKPOINT_SCHEMA = "absquares.search-checkpoint/1"


class BudgetExceededError(ValueError):
    """The requested search is beyond the configured budget."""


class VerificationError(RuntimeError):
    """A witness failed independent re-verification (engine bug)."""


# -- objectives ----------------------------------------------------------


def _distinct_total(data: bytes) -> int:
    """Number of distinct factors (by content) that are abelian squares."""
    n = len(data)
    letters = set(data)
    seen = set()
    for m in range(2, n + 1, 2):
        h = m // 2
        for s in range(n - m + 1):
            f = data[s : s + m]
            if f in seen:
                continue
            for c in letters:
                total = f.count(c)
                if f.count(c, 0, h) * 2 != total:
                    break
            else:
                seen.add(f)
    return len(seen)


def _inequivalent_total(data: bytes) -> int:
    """Number of distinct Parikh classes among abelian-square factors.

    Two abelian squares uv, u'v' are equivalent when their halves agree
    as Parikh vectors, so a class is (length, Parikh of the half).
    """
    n = len(data)
    letters = sorted(set(data))
    classes = set()
    for m in range(2, n + 1, 2):
        h = m // 2
        for s in range(n - m + 1):
            e = s + m
            key = tuple(data.count(c, s, s + h) for c in letters)
            if all(
                data.count(c, s, e) == 2 * k for c, k in zip(letters, key)
            ):
                classes.add((m, key))
    return len(classes)


_OBJECTIVES = {
    OBJECTIVE_DISTINCT: _distinct_total,
    OBJECTIVE_INEQUIVALENT: _inequivalent_total,
}


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


def canonical_words(sigma: int, length: int, prefix: bytes = b""):
    """Yield length-`length` canonical words extending `prefix`.

    Canonical: letter k appears only after all letters below k; the
    yield order is lexicographic.  The prefix itself must be canonical.
    """
    if sigma < 1:
        raise ValueError("alphabet must have at least one letter")
    max_used = max(prefix) if prefix else -1
    if max_used >= sigma:
        raise ValueError("prefix uses letters outside the alphabet")
    word = bytearray(prefix)

    def rec(max_used: int):
        if len(word) == length:
            yield bytes(word)
            return
        top = min(max_used + 1, sigma - 1)
        for c in range(top + 1):
            word.append(c)
            yield from rec(max_used if c <= max_used else c)
            word.pop()

    yield from rec(max_used)


def _shard_worker(args) -> dict:
    sigma, length, objective, prefix_bytes, witness_cap = args
    evaluate = _OBJECTIVES[objective]
    symbols = Alphabet.default(sigma).symbols
    best = -1
    witnesses: list[str] = []
    attaining = 0
    count = 0
    for data in canonical_words(sigma, length, bytes(prefix_bytes)):
        count += 1
        value = evaluate(data)
        if value > best:
            best = value
            attaining = 1
            witnesses = ["".join(symbols[i] for i in data)]
        elif value == best:
            attaining += 1
            if len(witnesses) < witness_cap:
                witnesses.append("".join(symbols[i] for i in data))
    return {
        "prefix": "".join(symbols[i] for i in prefix_bytes),
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
    shard_prefix_len: int = 4,
) -> SearchResult:
    if length < 1:
        raise ValueError("length must be >= 1")
    if sigma < 2:
        raise ValueError("alphabet must have at least two letters")
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    _check_budget(sigma, length, budgets)

    plen = min(shard_prefix_len, length)
    prefixes = list(canonical_words(sigma, plen))
    header = _checkpoint_header(sigma, length, objective, witness_cap)
    path = Path(checkpoint) if checkpoint is not None else None
    done = _load_checkpoint(path, header) if path else {}

    symbols = Alphabet.default(sigma).symbols
    todo = [
        p
        for p in prefixes
        if "".join(symbols[i] for i in p) not in done
    ]
    new_records = []
    jobs = [(sigma, length, objective, p, witness_cap) for p in todo]
    if workers and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            new_records = list(pool.map(_shard_worker, jobs))
    else:
        new_records = [_shard_worker(job) for job in jobs]

    if path:  # rewritten whole and swapped in, so a torn tail is never appended to
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text("\n".join(map(json.dumps, [header, *done.values(), *new_records])) + "\n")
        os.replace(tmp, path)

    by_prefix = dict(done)
    for rec in new_records:
        by_prefix[rec["prefix"]] = rec
    # lexicographic shard order makes the merge order-independent
    records = [by_prefix["".join(symbols[i] for i in p)] for p in prefixes]

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
    pruning.  Soundness oracle for the canonical search."""
    evaluate = _OBJECTIVES[objective]
    best = -1
    attaining = 0
    word = bytearray(length)

    def rec(pos: int):
        nonlocal best, attaining
        if pos == length:
            value = evaluate(bytes(word))
            if value > best:
                best = value
                attaining = 1
            elif value == best:
                attaining += 1
            return
        for c in range(sigma):
            word[pos] = c
            rec(pos + 1)

    rec(0)
    return best, attaining
