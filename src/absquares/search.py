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
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .counting import CHUNK_LETTERS, batch_counts
from .words import Alphabet


DEFAULT_BUDGETS = {2: 26, 3: 16, 4: 12}

OBJECTIVE_DISTINCT = "distinct_asf_total"
OBJECTIVE_INEQUIVALENT = "inequivalent_total"

_CHECKPOINT_SCHEMA = "absquares.search-checkpoint/1"
# one shard per canonical word of this length; checkpoints key their records by it
_SHARD_PREFIX_LEN = 4


class BudgetExceededError(ValueError):
    """The requested search is beyond the configured budget."""


class VerificationError(AssertionError):
    """A witness failed independent re-verification (engine bug or forged checkpoint)."""


# -- objectives ----------------------------------------------------------

_OBJECTIVES = (OBJECTIVE_DISTINCT, OBJECTIVE_INEQUIVALENT)


def witness_value(text: str, objective: str) -> int:
    """Re-evaluate a witness from its text alone.

    Deliberately shares no code with the search evaluators: every even-length
    slice is a factor, an abelian square when its halves sort to the same
    letters, and its class is its length and its sorted first half.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    n = len(text)
    squares = set()
    for m in range(2, n + 1, 2):
        for s in range(n - m + 1):
            f = text[s : s + m]
            if sorted(f[: m // 2]) == sorted(f[m // 2 :]):
                squares.add(f)
    if objective == OBJECTIVE_DISTINCT:
        return len(squares)
    return len({(len(f), "".join(sorted(f[: len(f) // 2]))) for f in squares})


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
    tail = 0
    while sigma ** (tail + 1) * length <= CHUNK_LETTERS and tail < length - len(prefix):
        tail += 1
    start = np.frombuffer(bytes(prefix), dtype=np.uint8)[None]
    for head in _extend_canonical(start, sigma, max(length - tail, len(prefix))):
        yield _extend_canonical(head[None], sigma, length)


def _canonical_count(sigma: int, tail: int, used: int) -> int:
    """f(tail, used): the canonical words that add `tail` letters to a
    canonical prefix using `used` letters, by f(k, u) = u f(k - 1, u)
    + [u < sigma] f(k - 1, u + 1) and f(0, u) = 1."""
    f = [1] * (sigma + 1)  # f(k, u) for u = 0..sigma, from k = 0 up
    for _ in range(tail):
        f = [u * f[u] + (f[u + 1] if u < sigma else 0) for u in range(sigma + 1)]
    return f[used]


def canonical_words(sigma: int, length: int):
    """Yield the length-`length` canonical words, in lexicographic order.

    Canonical: letter k appears only after all letters below k.
    """
    for block in _canonical_blocks(sigma, length, b""):
        yield from map(bytes, block)


def _fold(records, cap: int) -> dict:
    """Merge records of the best value, the number of words attaining it,
    their first max(cap, 1) witnesses in order (so each names a word) and
    the words read: the rule the blocks of a shard and the shards share."""
    best, witnesses, attaining, count = -1, [], 0, 0
    for rec in records:
        count += rec["count"]
        if rec["best"] < best:
            continue
        if rec["best"] > best:
            best, attaining, witnesses = rec["best"], 0, []
        attaining += rec["attaining"]
        witnesses += islice(rec["witnesses"], max(cap, 1) - len(witnesses))
    return {"best": best, "witnesses": witnesses, "attaining": attaining, "count": count}


def _shard_worker(args) -> dict:
    sigma, length, objective, prefix, name, witness_cap = args
    symbols = np.array([ord(c) for c in Alphabet.default(sigma).symbols], dtype=np.uint8)

    def blocks():
        for block in _canonical_blocks(sigma, length, prefix):
            values = batch_counts(block, sigma, objective == OBJECTIVE_INEQUIVALENT).sum(axis=1)
            top = int(values.max())
            hits = np.flatnonzero(values == top)
            # witnesses are decoded only as far as the fold takes them
            yield {
                "best": top,
                "witnesses": (symbols[row].tobytes().decode() for row in block[hits]),
                "attaining": hits.size,
                "count": len(values),
            }

    return {"prefix": name, **_fold(blocks(), witness_cap)}


# -- checkpointing -------------------------------------------------------


def _is_shard_record(rec, header: dict, names) -> bool:
    """Whether `rec` could be the record of one of the shards `names` of the
    search `header`: its shard's number of canonical words, 1 <= attaining
    <= count, as many witnesses as the fold keeps, in increasing order, each
    a canonical word of the shard, and a best that the first witness
    re-verifies to."""
    if not (
        isinstance(rec, dict)
        and rec.get("prefix") in names
        and all(type(rec.get(key)) is int for key in ("best", "attaining", "count"))
        and isinstance(rec.get("witnesses"), list)
        and all(isinstance(w, str) for w in rec["witnesses"])
    ):
        return False
    sigma, length, cap = header["sigma"], header["length"], header["witness_cap"]
    prefix, letters = rec["prefix"], "".join(Alphabet.default(sigma).symbols)
    attaining, witnesses = rec["attaining"], rec["witnesses"]
    return (
        rec["count"] == _canonical_count(sigma, length - len(prefix), len(set(prefix)))
        and 1 <= attaining <= rec["count"]
        and len(witnesses) == min(attaining, max(cap, 1))
        and all(a < b for a, b in zip(witnesses, witnesses[1:]))
        and all(
            len(w) == length and w.startswith(prefix)
            and letters.startswith("".join(dict.fromkeys(w)))  # first appearances: a, b, ...
            for w in witnesses
        )
        and witness_value(witnesses[0], header["objective"]) == rec["best"]
    )


def _load_checkpoint(path: Path, header: dict, names) -> dict:
    """Shard records by prefix.  A final line with no newline that does not
    parse is a write cut short and is dropped; any other bad line, or one
    that is not a shard record of `names`, is an error."""
    if not path.exists():
        return {}
    lines = path.read_text().splitlines(keepends=True)
    records = []
    for number, line in enumerate(lines, 1):
        try:
            if line.strip():
                records.append((number, json.loads(line)))
        except ValueError as exc:
            if number == len(lines) > 1 and not line.endswith("\n"):
                break
            raise ValueError(f"checkpoint {path} line {number} is corrupt: {exc}") from None
    if records and records[0][1] != header:
        raise ValueError(
            f"checkpoint {path} was written for different parameters: "
            f"{records[0][1]}"
        )
    for number, rec in records[1:]:
        if not _is_shard_record(rec, header, names):
            raise ValueError(f"checkpoint {path} line {number} is corrupt: not a shard of this search")
    return {rec["prefix"]: rec for _, rec in records[1:]}


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
        return asdict(self)


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
    header = {
        "schema": _CHECKPOINT_SCHEMA, "sigma": sigma, "length": length,
        "objective": objective, "witness_cap": witness_cap,
    }
    symbols = Alphabet.default(sigma).symbols
    names = ["".join(symbols[i] for i in p) for p in prefixes]
    path = Path(checkpoint) if checkpoint is not None else None
    done = _load_checkpoint(path, header, names) if path else {}
    by_prefix = dict(done)
    jobs = [
        (sigma, length, objective, p, name, witness_cap)
        for p, name in zip(prefixes, names)
        if name not in done
    ]
    pool = ProcessPoolExecutor(min(workers, len(jobs))) if workers and len(jobs) > 1 else None
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
    merged = _fold((by_prefix[name] for name in names), witness_cap)
    maximum = merged["best"]
    for w in merged["witnesses"]:
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
        tuple(merged["witnesses"][:witness_cap]),
        witness_cap,
        merged["attaining"] > witness_cap,
        merged["count"],
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
        return asdict(self)


def compare_alphabets(length: int, sigmas=(2, 3), **kwargs) -> AlphabetComparison:
    """Evidence row: does a binary word do at least as well as larger
    alphabets at this length?  Reported, never asserted."""
    if kwargs.get("checkpoint") is not None:
        raise ValueError("a comparison takes no checkpoint: its searches would share one file")
    sigmas = tuple(sorted(set(sigmas)))
    if sigmas[:1] != (2,):
        raise ValueError("comparison is anchored at sigma=2")
    results = tuple(max_asf(s, length, **kwargs) for s in sigmas)
    binary_max = results[0].maximum
    dominates = all(r.maximum <= binary_max for r in results[1:])
    return AlphabetComparison(length, results, dominates)

