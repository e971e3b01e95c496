"""Command-line surface for the package.

Subcommands mirror the library layering:

* ``generate``    — emit prefixes of the built-in infinite words
* ``count``       — abelian-square profile of a word file
* ``sturmian-asf``— arithmetic per-length counts for a rotation coding
* ``crosscheck``  — arithmetic vs. combinatorial counts, exit 1 on mismatch
* ``discrepancy`` — exact orbit discrepancy with the log bound
* ``certificate`` — quadratic-growth lower-bound certificate
* ``richness``    — per-factor abelian-square density of a prefix
* ``baseline``    — abelian-square totals of seeded random binary words
* ``search``      — exhaustive maxima over words of a given length

All commands write CSV or JSON (``--format``), to stdout or ``--output``.
JSON documents carry a ``schema`` field; exact quadratic values are
echoed as (p, q, r, d) integer tuples next to their rounded displays.
Exit codes: 0 success, 1 domain/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys

# Each command imports only what it runs, so `--help` loads no numpy.
# perfbench's self-test reads `cli.asf_profile`; it is looked up in
# `counting` on every access, so a function the tracer replaced is found.


def __getattr__(name):
    if name != "asf_profile":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .counting import asf_profile

    return asf_profile


# -- output plumbing -------------------------------------------------------


def _round(x, precision: int):
    return round(float(x), precision)


def _angle_json(angle, precision: int) -> dict:
    return {
        "pqrd": list(angle.as_tuple()),
        "approx": _round(angle, precision),
    }


def _emit(args, document: dict, rows: list[dict], columns: list[str]) -> None:
    """Write `document` (json) or `rows` with `columns` (csv)."""
    buf = io.StringIO()
    if args.format == "json":
        buf.write(json.dumps(document, indent=2) + "\n")
    else:
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(buf.getvalue())


def _load_word(path):
    from .words import read_word_file

    words = read_word_file(path)
    if not words:
        raise ValueError(f"no word found in {path}")
    return words[0]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _budgets(text: str) -> dict[int, int]:
    """'2=30,3=18' -> {2: 30, 3: 18}."""
    try:
        pairs = [part.split("=") for part in text.split(",") if part.strip()]
        return {int(sigma): int(cap) for sigma, cap in pairs}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected SIGMA=LENGTH pairs like '2=30,3=18', got {text!r}"
        ) from None


# -- subcommand implementations ---------------------------------------------


def _cmd_generate(args) -> int:
    if args.source == "thue-morse":
        from .substitutions import thue_morse_prefix

        word = thue_morse_prefix(args.len)
    elif args.source == "sturmian":
        from .quadratic import parse_angle
        from .sturmian import SturmianSpec, sturmian_prefix

        angle = parse_angle(args.angle)
        rho = angle if args.rho == "angle" else parse_angle(args.rho)
        spec = SturmianSpec(angle, rho, args.convention)
        word = sturmian_prefix(spec, args.len)
    elif args.source == "substitution-file":
        from .substitutions import FixedPointSpec, fixed_point_prefix, read_substitution_file

        sub, seed = read_substitution_file(args.path)
        if args.seed is not None:
            seed = sub.alphabet.index(args.seed)
        if seed is None:
            raise ValueError(
                "substitution file has no '#seed:' header; pass --seed"
            )
        word = fixed_point_prefix(FixedPointSpec(sub, seed), args.len)
    else:  # triple-block
        from .analysis import triple_block

        word = triple_block(args.n).word
    if args.output:
        from .words import write_word_file

        write_word_file(args.output, [word])
    else:
        sys.stdout.write(word.text() + "\n")
    return 0


def _cmd_count(args) -> int:
    from .counting import asf_profile, inequivalent_profile

    word = _load_word(args.wordfile)
    max_len = args.max_len if args.max_len is not None else len(word) - (len(word) % 2)
    if args.inequivalent:
        profile = inequivalent_profile(word, max_len)
        counts = profile.per_length
        objective = "inequivalent"
    else:
        profile = asf_profile(word, max_len)
        counts = profile.counts
        objective = "distinct"
    rows = [
        {"length": n, "count": counts.get(n, 0)}
        for n in range(0, max_len + 1, 2)
    ]
    document = {
        "schema": "absquares.count/1",
        "word_length": len(word),
        "max_length": max_len,
        "objective": objective,
        "rows": rows,
        "total": sum(r["count"] for r in rows),
    }
    _emit(args, document, rows, ["length", "count"])
    return 0


def _cmd_sturmian_asf(args) -> int:
    from .quadratic import parse_angle
    from .sturmian import sturmian_asf_range

    angle = parse_angle(args.angle)
    table = sturmian_asf_range(angle, args.max_n)
    rows = [{"n": n, "count": table[n]} for n in sorted(table)]
    document = {
        "schema": "absquares.sturmian-asf/1",
        "angle": _angle_json(angle, args.precision),
        "max_n": args.max_n,
        "rows": rows,
        "total": sum(table.values()),
    }
    _emit(args, document, rows, ["n", "count"])
    return 0


def _cmd_crosscheck(args) -> int:
    from .counting import FactorIndex, asf_profile
    from .quadratic import parse_angle
    from .sturmian import SturmianSpec, sturmian_asf_range, sturmian_prefix

    angle = parse_angle(args.angle)
    arithmetic = sturmian_asf_range(angle, args.max_n)
    prefix = sturmian_prefix(SturmianSpec(angle, angle), args.prefix_len)
    index = FactorIndex(prefix, args.max_n)
    for n in sorted(arithmetic):
        if index.distinct_count(n) != n + 1:
            raise ValueError(
                f"prefix of length {args.prefix_len} does not exhaust the "
                f"length-{n} factors; increase --prefix-len"
            )
    combinatorial = asf_profile(prefix, max(arithmetic, default=0), index).counts
    rows = [
        {"n": n, "arithmetic": a, "combinatorial": combinatorial[n], "match": combinatorial[n] == a}
        for n, a in sorted(arithmetic.items())
    ]
    all_match = all(row["match"] for row in rows)
    document = {
        "schema": "absquares.crosscheck/1",
        "angle": _angle_json(angle, args.precision),
        "max_n": args.max_n,
        "prefix_length": args.prefix_len,
        "all_match": all_match,
        "rows": rows,
    }
    _emit(args, document, rows, ["n", "arithmetic", "combinatorial", "match"])
    return 0 if all_match else 1


def _cmd_discrepancy(args) -> int:
    from .discrepancy import rotation_discrepancy
    from .quadratic import parse_angle

    angle = parse_angle(args.angle)
    report = rotation_discrepancy(
        angle, args.n_points, args.quotient_bound, witness_limit=args.witness_limit
    )
    p = args.precision
    witness = None
    if report.witness is not None:
        g, g_closed, d, d_closed = report.witness
        witness = {
            "gamma": _round(g, p),
            "gamma_closed": g_closed,
            "delta": _round(d, p),
            "delta_closed": d_closed,
        }
    row = {
        "n_points": report.n_points,
        "value": _round(report.value, p),
        "scaled": _round(report.scaled(), p),
        "bound": _round(report.bound, p),
        "quotient_bound": report.quotient_bound,
        "check_kn2": report.within_bound,
    }
    document = {
        "schema": "absquares.discrepancy/1",
        "angle": _angle_json(angle, p),
        **row,
        "surplus": _round(report.surplus, p),
        "deficit": _round(report.deficit, p),
        "witness": witness,
    }
    _emit(args, document, [row], list(row))
    return 0


def _cmd_certificate(args) -> int:
    from .discrepancy import certificate_sweep, growth_certificate
    from .quadratic import parse_angle

    angle = parse_angle(args.angle)
    if args.sweep:
        reports = certificate_sweep(angle, args.n)
    else:
        reports = [growth_certificate(angle, args.n)]
    rows = [
        {
            "n": r.n,
            "count_a": r.count_a,
            "count_b": r.count_b,
            "product": r.product,
            "asf_sum": r.asf_sum,
        }
        for r in reports
    ]
    document = {
        "schema": "absquares.certificate/1",
        "angle": _angle_json(angle, args.precision),
        "rows": rows,
    }
    _emit(args, document, rows, ["n", "count_a", "count_b", "product", "asf_sum"])
    return 0


def _cmd_richness(args) -> int:
    from .analysis import richness_report

    word = _load_word(args.wordfile)
    report = richness_report(
        word, args.lengths, check_adequacy=not args.skip_adequacy_check
    )
    p = args.precision
    rows = [
        {
            "n": n,
            "avg": _round(report.avg_per_n[n], p),
            "min": report.min_per_n[n],
            "avg_over_n2": _round(report.avg_per_n[n] / (n * n), p),
            "min_over_n2": _round(report.min_per_n[n] / (n * n), p),
            "recurrence_index": report.recurrence_table[n],
        }
        for n in report.lengths
    ]
    document = {
        "schema": "absquares.richness/1",
        "word_length": len(word),
        "rows": rows,
        "avg_exact": {
            str(n): [report.avg_per_n[n].numerator, report.avg_per_n[n].denominator]
            for n in report.lengths
        },
        "c_avg": _round(report.c_avg, p),
        "c_min": _round(report.c_min, p),
        "recurrence_quotient_estimate": _round(
            report.recurrence_quotient_estimate, p
        ),
    }
    _emit(
        args,
        document,
        rows,
        ["n", "avg", "min", "avg_over_n2", "min_over_n2", "recurrence_index"],
    )
    return 0


def _cmd_baseline(args) -> int:
    from .analysis import random_baseline

    report = random_baseline(args.lengths, trials=args.trials, seed=args.seed)
    p = args.precision
    rows = [
        {"n": n, "mean": _round(mean, p), "stddev": _round(std, p)}
        for n, mean, std in zip(report.lengths, report.means, report.stddevs)
    ]
    document = {
        "schema": "absquares.baseline/1",
        "trials": report.trials,
        "seed": report.seed,
        "rows": rows,
        "exponent": None if report.exponent is None else _round(report.exponent, p),
    }
    _emit(args, document, rows, ["n", "mean", "stddev"])
    return 0


def _search_kwargs(args) -> dict:
    return {
        "workers": args.workers,
        "witness_cap": args.witness_cap,
        "budgets": args.budget or None,
    }


def _cmd_search(args) -> int:
    from .search import compare_alphabets, max_asf, max_inequivalent

    if args.mode == "compare":
        comparison = compare_alphabets(
            args.len, tuple(args.sigmas), **_search_kwargs(args)
        )
        rows = [
            {
                "sigma": r.sigma,
                "length": r.length,
                "maximum": r.maximum,
                "witnesses": ";".join(r.witnesses),
                "binary_dominates": comparison.binary_dominates,
            }
            for r in comparison.results
        ]
        document = {"schema": "absquares.search-compare/1", **comparison.as_dict()}
        _emit(
            args,
            document,
            rows,
            ["sigma", "length", "maximum", "witnesses", "binary_dominates"],
        )
        return 0
    runner = max_asf if args.mode == "max-asf" else max_inequivalent
    # Path("") would name the current directory
    result = runner(args.sigma, args.len, checkpoint=args.checkpoint or None, **_search_kwargs(args))
    row = {
        "sigma": result.sigma,
        "length": result.length,
        "objective": result.objective,
        "maximum": result.maximum,
        "enumerated": result.enumerated,
        "witnesses_truncated": result.witnesses_truncated,
        "witnesses": ";".join(result.witnesses),
    }
    document = {"schema": "absquares.search/1", **result.as_dict()}
    _emit(args, document, [row], list(row))
    return 0


# -- parser ------------------------------------------------------------------


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="json", help="output format"
    )
    parser.add_argument("--output", help="write to this path instead of stdout")
    parser.add_argument(
        "--precision",
        type=int,
        default=6,
        help="decimal digits for approximate displays",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absquares",
        description="Abelian-square counting in infinite words and exhaustive search helpers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a prefix of a built-in word")
    gen_sub = gen.add_subparsers(dest="source", required=True)
    g_tm = gen_sub.add_parser("thue-morse")
    g_tm.add_argument("--len", type=int, required=True)
    g_st = gen_sub.add_parser("sturmian")
    g_st.add_argument("--angle", required=True, help="cf:[a0;pre|period] or qi:(p,q,r,d)")
    g_st.add_argument("--rho", default="angle", help="initial point; 'angle' or angle syntax")
    g_st.add_argument("--convention", choices=("left", "right"), default="left")
    g_st.add_argument("--len", type=int, required=True)
    g_sf = gen_sub.add_parser("substitution-file")
    g_sf.add_argument("path")
    g_sf.add_argument("--len", type=int, required=True)
    g_sf.add_argument("--seed", help="seed symbol when the file has no '#seed:' header")
    g_tb = gen_sub.add_parser("triple-block")
    g_tb.add_argument("--n", type=int, required=True)
    for p in (g_tm, g_st, g_sf, g_tb):
        p.add_argument("--output", help="write a word file instead of a bare line")
    gen.set_defaults(func=_cmd_generate)

    cnt = sub.add_parser("count", help="abelian-square profile of a word file")
    cnt.add_argument("wordfile")
    cnt.add_argument("--max-len", type=int, default=None, help="largest (even) length")
    cnt.add_argument(
        "--inequivalent",
        action="store_true",
        help="count Parikh classes instead of distinct factors",
    )
    _add_output_flags(cnt)
    cnt.set_defaults(func=_cmd_count)

    sasf = sub.add_parser("sturmian-asf", help="arithmetic per-length counts")
    sasf.add_argument("--angle", required=True)
    sasf.add_argument("--max-n", type=int, required=True)
    _add_output_flags(sasf)
    sasf.set_defaults(func=_cmd_sturmian_asf)

    cc = sub.add_parser("crosscheck", help="arithmetic vs combinatorial counts")
    cc.add_argument("--angle", required=True)
    cc.add_argument("--max-n", type=int, required=True)
    cc.add_argument("--prefix-len", type=int, default=10000)
    _add_output_flags(cc)
    cc.set_defaults(func=_cmd_crosscheck)

    disc = sub.add_parser("discrepancy", help="exact orbit discrepancy + log bound")
    disc.add_argument("--angle", required=True)
    disc.add_argument("--N", dest="n_points", type=int, required=True)
    disc.add_argument(
        "--K",
        dest="quotient_bound",
        type=int,
        default=None,
        help="partial-quotient bound; derived from the angle when omitted",
    )
    disc.add_argument("--witness-limit", type=int, default=256)
    _add_output_flags(disc)
    disc.set_defaults(func=_cmd_discrepancy)

    cert = sub.add_parser("certificate", help="quadratic-growth certificate")
    cert.add_argument("--angle", required=True)
    cert.add_argument("--n", type=int, required=True)
    cert.add_argument("--sweep", action="store_true", help="all even n up to --n")
    _add_output_flags(cert)
    cert.set_defaults(func=_cmd_certificate)

    rich = sub.add_parser("richness", help="per-factor abelian-square density")
    rich.add_argument("wordfile")
    rich.add_argument(
        "--lengths", type=_int_list, required=True, help="comma-separated factor lengths"
    )
    rich.add_argument("--skip-adequacy-check", action="store_true")
    _add_output_flags(rich)
    rich.set_defaults(func=_cmd_richness)

    base = sub.add_parser("baseline", help="random-word abelian-square baseline")
    base.add_argument("--lengths", type=_int_list, required=True)
    base.add_argument("--trials", type=int, default=100)
    base.add_argument("--seed", type=int, default=0)
    _add_output_flags(base)
    base.set_defaults(func=_cmd_baseline)

    srch = sub.add_parser("search", help="exhaustive maxima over length-L words")
    srch_sub = srch.add_subparsers(dest="mode", required=True)
    s_asf = srch_sub.add_parser("max-asf")
    s_ineq = srch_sub.add_parser("max-inequivalent")
    s_cmp = srch_sub.add_parser("compare")
    for p in (s_asf, s_ineq):
        p.add_argument("--sigma", type=int, required=True)
        p.add_argument("--checkpoint", help="JSONL shard checkpoint path")
    s_cmp.add_argument("--sigmas", type=_int_list, default=[2, 3])
    for p in (s_asf, s_ineq, s_cmp):
        p.add_argument("--len", type=int, required=True)
        p.add_argument("--workers", type=_non_negative_int, default=0)
        p.add_argument("--witness-cap", type=_non_negative_int, default=16)
        p.add_argument(
            "--budget", type=_budgets, help="override budgets, e.g. '2=30,3=18'", default=None
        )
        _add_output_flags(p)
    srch.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, AssertionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
