"""The three workloads: their inputs, their CLI jobs, and each job's check.

A workload is built into a work directory from a seed.  `build` writes the
seeded input files, computes the references (see `oracles.py`), and returns
the jobs in the order one pass runs them.  A job is the argument list of one
`absquares` CLI run plus a check of the file it writes.

Checks compare exact fields only: counts, totals, (p, q, r, d) tuples,
maxima and `all_match`.  Witness choice and rounded display values may
change, so a rounded value is compared within its display precision and a
witness is only re-evaluated.  Where no engine-free route exists, the exact
fields are compared with `reference.json`, the sha256 of the same fields
as the seed commit (a648c2f) printed them; those jobs take no seeded input.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("long_word", "rotation", "short_words")

GOLDEN = "cf:[0;|1]"  # (sqrt5 - 1)/2
SILVER = "cf:[0;|2]"  # sqrt2 - 1
LARGE_D = "qi:(-31622,1,1,1000000007)"
PQRD = {GOLDEN: (-1, 1, 2, 5), SILVER: (-1, 1, 1, 2), LARGE_D: (-31622, 1, 1, 1000000007)}

DISPLAY_TOL = 1e-6  # the CLI rounds displays to 6 decimals by default


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple  # arguments after `absquares`
    output: Path  # the file the job writes; removed before each run
    check: Callable[[Path], str | None]  # output path -> problem, or None
    fresh: tuple = ()  # files removed before each run (a fresh checkpoint)

    @property
    def command(self) -> str:
        return self.argv[0]

    def verdict(self, exit_code: int) -> str | None:
        """None when the run exited 0 and its output passes the check."""
        if exit_code != 0:
            return f"{self.name}: exit code {exit_code}"
        try:
            problem = self.check(self.output)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        return None if problem is None else f"{self.name}: {problem}"


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


@functools.cache
def reference() -> dict:
    return json.loads((Path(__file__).parent / "reference.json").read_text())


def frozen(key: str, value) -> str | None:
    """Compare exact fields with the seed commit's, by digest."""
    if key not in reference():
        return f"no frozen reference for {key}"
    if digest(value) != reference()[key]:
        return f"exact fields differ from the seed commit's ({key})"
    return None


def first_problem(*problems) -> str | None:
    return next((p for p in problems if p), None)


def word_body(path: Path) -> str:
    lines = path.read_text().splitlines()
    body = [line.strip() for line in lines if line.strip() and not line.startswith("#")]
    if len(body) != 1:
        raise ValueError(f"expected one word line, found {len(body)}")
    return body[0]


def bits_text(bits: np.ndarray, one: str, zero: str) -> str:
    return np.where(bits == 1, ord(one), ord(zero)).astype(np.uint8).tobytes().decode()


def write_word(path: Path, text: str) -> None:
    path.write_text(f"#alphabet: {''.join(sorted(set(text)))}\n{text}\n")


# -- checks -----------------------------------------------------------------


def check_word(expected: str):
    def check(path: Path):
        return None if word_body(path) == expected else "word differs from the reference"

    return check


def rows_match(rows: list, key: str, expected: dict, value: str = "count") -> str | None:
    """Every row whose `key` is in `expected` carries that value."""
    got = {r[key]: r[value] for r in rows if r[key] in expected}
    if got != {n: expected[n] for n in got} or len(got) != len(expected):
        bad = sorted(n for n in expected if got.get(n) != expected[n])
        return f"{value} differs from the reference at {key} {bad[:5]}"
    return None


def check_count(length: int, max_len: int, objective: str, short: dict, key: str | None):
    """`short` holds the engine-free counts for lengths <= 64; `key` names
    the frozen digest of all rows when max_len exceeds that."""

    def check(path: Path):
        doc = json.loads(path.read_text())
        rows = doc["rows"]
        return first_problem(
            (doc["word_length"], doc["max_length"], doc["objective"])
            != (length, max_len, objective)
            and "header fields differ",
            [r["length"] for r in rows] != list(range(0, max_len + 1, 2))
            and "row lengths differ",
            doc["total"] != sum(r["count"] for r in rows) and "total is not the row sum",
            rows_match(rows, "length", short),
            key and frozen(key, [doc["total"], [r["count"] for r in rows]]),
        )

    return check


def check_sturmian_asf(angle: str, max_n: int, short: dict, key: str | None):
    def check(path: Path):
        doc = json.loads(path.read_text())
        rows = doc["rows"]
        return first_problem(
            tuple(doc["angle"]["pqrd"]) != PQRD[angle] and "angle differs",
            [r["n"] for r in rows] != list(range(2, max_n + 1, 2)) and "row n differ",
            doc["total"] != sum(r["count"] for r in rows) and "total is not the row sum",
            rows_match(rows, "n", short),
            key and frozen(key, [doc["total"], [r["count"] for r in rows]]),
        )

    return check


def check_crosscheck(max_n: int, short: dict, key: str):
    def check(path: Path):
        doc = json.loads(path.read_text())
        rows = doc["rows"]
        return first_problem(
            tuple(doc["angle"]["pqrd"]) != PQRD[SILVER] and "angle differs",
            doc["all_match"] is not True and "all_match is not true",
            any(r["match"] is not True or r["arithmetic"] != r["combinatorial"] for r in rows)
            and "a row does not match",
            [r["n"] for r in rows] != list(range(2, max_n + 1, 2)) and "row n differ",
            rows_match(rows, "n", short, "combinatorial"),
            frozen(key, [[r["arithmetic"], r["combinatorial"]] for r in rows]),
        )

    return check


def check_discrepancy(n_points: int):
    surplus, deficit, value = oracles.golden_discrepancy(n_points)
    bound = oracles.kn2_bound(n_points, 1)  # the golden angle has K = 1

    def check(path: Path):
        doc = json.loads(path.read_text())
        return first_problem(
            tuple(doc["angle"]["pqrd"]) != PQRD[GOLDEN] and "angle differs",
            (doc["n_points"], doc["quotient_bound"]) != (n_points, 1) and "N or K differs",
            abs(doc["value"] - value) > DISPLAY_TOL and "D_N differs",
            abs(doc["surplus"] - surplus) > DISPLAY_TOL and "surplus differs",
            abs(doc["deficit"] - deficit) > DISPLAY_TOL and "deficit differs",
            abs(doc["scaled"] - n_points * value) > DISPLAY_TOL * n_points and "N*D_N differs",
            abs(doc["bound"] - bound) > DISPLAY_TOL and "bound differs",
            doc["check_kn2"] is not (n_points * value <= bound) and "check_kn2 differs",
        )

    return check


def check_certificate(max_n: int, short: dict, key: str):
    counts = oracles.golden_certificate_counts(max_n)
    cumulative, running = {}, 0
    for n in sorted(short):
        running += short[n]
        cumulative[n] = running

    def check(path: Path):
        doc = json.loads(path.read_text())
        rows = doc["rows"]
        return first_problem(
            tuple(doc["angle"]["pqrd"]) != PQRD[GOLDEN] and "angle differs",
            [r["n"] for r in rows] != list(range(2, max_n + 1, 2)) and "row n differ",
            any((r["count_a"], r["count_b"]) != counts[r["n"]] for r in rows)
            and "count_a or count_b differs from the reference",
            any(r["product"] != r["count_a"] * r["count_b"] for r in rows)
            and "product is not count_a * count_b",
            any(r["product"] > r["asf_sum"] for r in rows) and "product exceeds asf_sum",
            rows_match(rows, "n", cumulative, "asf_sum"),
            frozen(key, [r["asf_sum"] for r in rows]),
        )

    return check


def check_baseline(lengths: tuple, trials: int, seed: int, totals: dict):
    means = [float(np.mean(totals[n])) for n in lengths]
    stds = [float(np.std(totals[n])) for n in lengths]
    exponent = float(np.polyfit(np.log(lengths), np.log(means), 1)[0])

    def check(path: Path):
        doc = json.loads(path.read_text())
        rows = doc["rows"]
        return first_problem(
            (doc["trials"], doc["seed"]) != (trials, seed) and "trials or seed differs",
            tuple(r["n"] for r in rows) != lengths and "row n differ",
            any(abs(r["mean"] - m) > DISPLAY_TOL for r, m in zip(rows, means))
            and "mean differs from the reference",
            any(abs(r["stddev"] - s) > DISPLAY_TOL for r, s in zip(rows, stds))
            and "stddev differs from the reference",
            abs(doc["exponent"] - exponent) > 1e-5 and "exponent differs",
        )

    return check


def check_richness(length: int, expected: dict):
    def check(path: Path):
        doc = json.loads(path.read_text())
        rows = doc["rows"]
        got = {
            r["n"]: (tuple(doc["avg_exact"][str(r["n"])]), r["min"], r["recurrence_index"])
            for r in rows
        }
        want = {
            n: ((avg.numerator, avg.denominator), low, rec)
            for n, (avg, low, rec) in expected.items()
        }
        return first_problem(
            doc["word_length"] != length and "word_length differs",
            got != want and "average, minimum or recurrence index differs",
        )

    return check


def check_search(objective: str, length: int, key: str, checkpoint: Path | None):
    evaluate = 0 if objective == "distinct_asf_total" else 1

    def check(path: Path):
        doc = json.loads(path.read_text())
        witnesses = doc["witnesses"]
        values = {
            oracles.binary_asf_totals(oracles.text_bits(w))[evaluate] for w in witnesses
        }
        return first_problem(
            (doc["sigma"], doc["length"], doc["objective"]) != (2, length, objective)
            and "header fields differ",
            doc["enumerated"] != 2 ** (length - 1) and "enumerated is not 2^(L-1)",
            not 1 <= len(witnesses) <= doc["witness_cap"] and "witness count out of range",
            values != {doc["maximum"]} and "a witness does not reach the maximum",
            frozen(key, [doc["maximum"], doc["witnesses_truncated"]]),
            checkpoint is not None and not checkpoint.is_file() and "no checkpoint written",
        )

    return check


# -- workloads --------------------------------------------------------------


def job(work: Path, name: str, argv: list, check, fresh: tuple = (), json_out: bool = True) -> Job:
    output = work / (name + (".json" if json_out else ".txt"))
    return Job(name, (*argv, "--output", str(output)), output, check, fresh)


def long_word(work: Path, seed: int) -> list[Job]:
    """One long word through the suffix-array engine, no quadratic arithmetic."""
    tm_len, random_len, fib_len, max_len = 500_000, 500_000, 100_000, 2000
    tm = oracles.thue_morse_bits(tm_len)
    random_bits = np.random.default_rng(seed).integers(0, 2, size=random_len, dtype=np.uint8)
    fib = oracles.fibonacci_text(fib_len)
    sub = work / "fibonacci.sub"
    sub.write_text("#seed: a\na -> ab\nb -> a\n")
    random_word = work / "random.txt"
    write_word(random_word, bits_text(random_bits, "b", "a"))
    tm_asf = oracles.packed_asf_counts(tm, 64)[0]
    random_asf = oracles.packed_asf_counts(random_bits, 64)[0]
    fib_asf, fib_classes, _ = oracles.packed_asf_counts(oracles.text_bits(fib), 64)
    tm_file, fib_file = work / "gen_tm.txt", work / "gen_fib.txt"
    return [
        job(work, "gen_tm", ["generate", "thue-morse", "--len", str(tm_len)],
            check_word(bits_text(tm, "1", "0")), json_out=False),
        job(work, "count_tm", ["count", str(tm_file), "--max-len", "64"],
            check_count(tm_len, 64, "distinct", tm_asf, None)),
        job(work, "count_random", ["count", str(random_word), "--max-len", "64"],
            check_count(random_len, 64, "distinct", random_asf, None)),
        job(work, "gen_fib", ["generate", "substitution-file", str(sub), "--len", str(fib_len)],
            check_word(fib), json_out=False),
        job(work, "count_fib", ["count", str(fib_file), "--max-len", str(max_len)],
            check_count(fib_len, max_len, "distinct", fib_asf, "long_word/count_fib")),
        job(work, "count_fib_inequivalent",
            ["count", str(fib_file), "--max-len", str(max_len), "--inequivalent"],
            check_count(fib_len, max_len, "inequivalent", fib_classes,
                        "long_word/count_fib_inequivalent")),
    ]


def rotation_asf(angle: str, prefix_len: int, max_len: int) -> dict:
    """Distinct abelian-square counts up to max_len (<= 64) of the rotation
    coding with this angle, from a prefix that must hold all max_len + 1
    factors of length max_len a Sturmian word has, and so all shorter ones."""
    asf, _, factors = oracles.packed_asf_counts(
        oracles.rotation_bits(prefix_len, *PQRD[angle]), max_len
    )
    if factors != max_len + 1:
        raise RuntimeError(f"a {prefix_len}-letter prefix misses factors of {angle}")
    return asf


def rotation(work: Path, seed: int) -> list[Job]:
    """The exact rotation-coding arithmetic, with almost no counting."""
    gen_len, asf_n, large_d_n, cross_n, cross_prefix, cert_n = 20_000, 8000, 30, 200, 10_000, 4096
    golden_asf = rotation_asf(GOLDEN, gen_len, 64)
    golden_word = bits_text(oracles.rotation_bits(gen_len, *PQRD[GOLDEN]), "a", "b")
    return [
        job(work, "gen_golden", ["generate", "sturmian", "--angle", GOLDEN, "--len", str(gen_len)],
            check_word(golden_word), json_out=False),
        job(work, "asf_golden", ["sturmian-asf", "--angle", GOLDEN, "--max-n", str(asf_n)],
            check_sturmian_asf(GOLDEN, asf_n, golden_asf, "rotation/asf_golden")),
        job(work, "asf_large_d", ["sturmian-asf", "--angle", LARGE_D, "--max-n", str(large_d_n)],
            check_sturmian_asf(LARGE_D, large_d_n, rotation_asf(LARGE_D, 100_000, large_d_n), None)),
        job(work, "crosscheck_silver",
            ["crosscheck", "--angle", SILVER, "--max-n", str(cross_n),
             "--prefix-len", str(cross_prefix)],
            check_crosscheck(cross_n, rotation_asf(SILVER, cross_prefix, 64),
                             "rotation/crosscheck_silver")),
        job(work, "discrepancy_witness", ["discrepancy", "--angle", GOLDEN, "--N", "100"],
            check_discrepancy(100)),
        job(work, "discrepancy_large", ["discrepancy", "--angle", GOLDEN, "--N", "8192"],
            check_discrepancy(8192)),
        job(work, "certificate_sweep",
            ["certificate", "--angle", GOLDEN, "--n", str(cert_n), "--sweep"],
            check_certificate(cert_n, golden_asf, "rotation/certificate_sweep")),
    ]


def short_words(work: Path, seed: int) -> list[Job]:
    """The counting layer as many tiny calls, plus the exhaustive search."""
    lengths, trials = (128, 256, 512, 1024), 100
    rich_len, rich_lengths = 20_000, (8, 16, 32, 64, 128)
    fib = oracles.fibonacci_text(rich_len)
    fib_file = work / "fibonacci.txt"
    write_word(fib_file, fib)
    checkpoint = work / "search.jsonl"
    search = ["search", "max-asf", "--sigma", "2", "--len", "17", "--workers", "2",
              "--checkpoint", str(checkpoint)]
    return [
        job(work, "baseline",
            ["baseline", "--lengths", ",".join(map(str, lengths)), "--trials", str(trials),
             "--seed", str(seed)],
            check_baseline(lengths, trials, seed, oracles.baseline_totals(lengths, trials, seed))),
        job(work, "richness",
            ["richness", str(fib_file), "--lengths", ",".join(map(str, rich_lengths))],
            check_richness(rich_len, oracles.richness_rows(fib, rich_lengths))),
        job(work, "search_fresh", search,
            check_search("distinct_asf_total", 17, "short_words/search_max_asf", checkpoint),
            fresh=(checkpoint,)),
        job(work, "search_resume", search,
            check_search("distinct_asf_total", 17, "short_words/search_max_asf", checkpoint)),
        job(work, "search_inequivalent",
            ["search", "max-inequivalent", "--sigma", "2", "--len", "15", "--workers", "2"],
            check_search("inequivalent_total", 15, "short_words/search_max_inequivalent", None)),
    ]


def build(workload: str, work: Path, seed: int) -> list[Job]:
    return {"long_word": long_word, "rotation": rotation, "short_words": short_words}[workload](
        work, seed
    )
