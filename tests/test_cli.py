"""End-to-end CLI behavior: golden outputs, schemas, exit codes, and the
modules each command loads."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from absquares import cli
from absquares.cli import build_parser, main
from absquares.search import OBJECTIVE_DISTINCT, canonical_words, witness_value

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGenerate:
    def test_thue_morse_golden(self, capsys):
        code, out = run(capsys, "generate", "thue-morse", "--len", "24")
        assert code == 0
        assert out == "011010011001011010010110\n"

    def test_sturmian_golden(self, capsys):
        code, out = run(
            capsys, "generate", "sturmian", "--angle", "cf:[0;|1]", "--len", "15"
        )
        assert code == 0
        assert out == "abaababaabaabab\n"

    def test_triple_block_golden(self, capsys):
        code, out = run(capsys, "generate", "triple-block", "--n", "2")
        assert (code, out) == (0, "aabaabaa\n")

    def test_output_writes_word_file(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        code, _ = run(
            capsys, "generate", "thue-morse", "--len", "16", "--output", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#alphabet:")
        assert lines[1] == "0110100110010110"

    def test_substitution_file(self, capsys, tmp_path):
        path = tmp_path / "fib.sub"
        path.write_text("#seed: a\na -> ab\nb -> a\n")
        code, out = run(capsys, "generate", "substitution-file", str(path), "--len", "8")
        assert (code, out) == (0, "abaababa\n")

    def test_substitution_file_without_seed_errs(self, capsys, tmp_path):
        path = tmp_path / "noseed.sub"
        path.write_text("a -> ab\nb -> a\n")
        code, _ = run(capsys, "generate", "substitution-file", str(path), "--len", "8")
        assert code == 1

    def test_substitution_file_seed_flag(self, capsys, tmp_path):
        # --seed stands in for a missing '#seed:' header
        with_header = tmp_path / "fib.sub"
        with_header.write_text("#seed: a\na -> ab\nb -> a\n")
        bare = tmp_path / "noseed.sub"
        bare.write_text("a -> ab\nb -> a\n")
        code, out = run(
            capsys, "generate", "substitution-file", str(bare), "--seed", "a", "--len", "12"
        )
        assert (code, out) == (0, "abaababaabaa\n")
        from_header = run(capsys, "generate", "substitution-file", str(with_header), "--len", "12")
        assert from_header == (code, out)

    def test_sturmian_rho_and_convention(self, capsys):
        from absquares.quadratic import GOLDEN_ANGLE, QuadraticIrrational
        from absquares.sturmian import SturmianSpec, sturmian_prefix

        code, out = run(
            capsys, "generate", "sturmian", "--angle", "cf:[0;|1]", "--rho", "qi:(1,0,3,0)",
            "--convention", "right", "--len", "30",
        )
        spec = SturmianSpec(GOLDEN_ANGLE, QuadraticIrrational(1, 0, 3, 0), "right")
        assert (code, out) == (0, sturmian_prefix(spec, 30).text() + "\n")


@pytest.fixture
def word_file(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("#alphabet: ab\nababa\n")
    return str(path)


class TestCount:
    def test_csv_rows(self, capsys, word_file):
        code, out = run(capsys, "count", word_file, "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["length,count", "0,0", "2,0", "4,2"]

    def test_json_document(self, capsys, word_file):
        code, out = run(capsys, "count", word_file, "--max-len", "4")
        doc = json.loads(out)
        assert doc["schema"] == "absquares.count/1"
        assert doc["total"] == 2
        assert {"length": 4, "count": 2} in doc["rows"]

    def test_inequivalent_switch(self, capsys, word_file):
        code, out = run(capsys, "count", word_file, "--inequivalent")
        doc = json.loads(out)
        assert doc["objective"] == "inequivalent"
        assert doc["total"] == 1

    def test_missing_file(self, capsys):
        assert main(["count", "/no/such/file"]) == 1

    def test_max_len_beyond_word(self, capsys, word_file):
        assert main(["count", word_file, "--max-len", "10"]) == 1

    def test_alphabet_over_256_symbols(self, capsys, tmp_path):
        symbols = "".join(chr(0x4E00 + i) for i in range(300))
        path = tmp_path / "wide.txt"
        path.write_text(f"#alphabet: {symbols}\n{symbols[:4]}\n", encoding="utf-8")
        assert main(["count", str(path)]) == 1
        assert capsys.readouterr().err == "error: alphabet has 300 symbols; the limit is 256\n"


class TestArithmeticCommands:
    def test_sturmian_asf_table(self, capsys):
        code, out = run(
            capsys, "sturmian-asf", "--angle", "cf:[0;|1]", "--max-n", "8",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["n,count", "2,1", "4,3", "6,5", "8,1"]

    def test_crosscheck_passes(self, capsys):
        code, out = run(
            capsys, "crosscheck", "--angle", "cf:[0;|2]", "--max-n", "30",
            "--prefix-len", "3000",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"] is True
        assert doc["angle"]["pqrd"] == [-1, 1, 1, 2]

    def test_crosscheck_inadequate_prefix(self, capsys):
        # 40 letters cannot exhaust the length-30 factors
        assert main(
            ["crosscheck", "--angle", "cf:[0;|1]", "--max-n", "30", "--prefix-len", "40"]
        ) == 1

    def test_rational_angle_rejected(self, capsys):
        # (1 + 1*sqrt(0))/2 is 1/2: a radicand of 0 is rational whatever q is
        for angle in ("qi:(1,0,3,0)", "qi:(1,1,2,0)"):
            assert main(["sturmian-asf", "--angle", angle, "--max-n", "8"]) == 1
            assert capsys.readouterr().err == "error: angle must be irrational in (0, 1)\n"

    def test_large_radicand_angle_runs(self, capsys):
        # the discriminant 994018964042970013 would take about 10^9 trial
        # divisions up to its square root
        code, out = run(
            capsys, "sturmian-asf", "--angle", "cf:[0;|1000,999,998]", "--max-n", "10",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["n,count", "2,1", "4,1", "6,1", "8,1", "10,1"]

    def test_malformed_qi_angle_is_one_line(self, capsys):
        assert main(["sturmian-asf", "--angle", "qi:(1,0,3)", "--max-n", "8"]) == 1
        assert capsys.readouterr().err == "error: unrecognized angle syntax: 'qi:(1,0,3)'\n"


class TestDiscrepancyCommands:
    def test_discrepancy_json(self, capsys):
        code, out = run(capsys, "discrepancy", "--angle", "cf:[0;|1]", "--N", "100")
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == "absquares.discrepancy/1"
        assert doc["check_kn2"] is True
        assert doc["n_points"] == 100
        assert doc["quotient_bound"] == 1

    def test_discrepancy_large_radicand_derives_k(self, capsys):
        # the period of sqrt(1000000007) is 12,352 quotients long
        angle = "qi:(-31622,1,1,1000000007)"
        code, out = run(capsys, "discrepancy", "--angle", angle, "--N", "60")
        assert code == 0
        assert json.loads(out)["quotient_bound"] == 63244

    def test_discrepancy_period_past_the_bound_points_at_k(self, capsys, monkeypatch):
        import absquares.quadratic as quadratic

        monkeypatch.setattr(quadratic, "cf_step_bound", lambda x: 100)
        angle = ["--angle", "qi:(-31622,1,1,1000000007)", "--N", "60"]
        assert main(["discrepancy", *angle]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: no period found within 100 steps; "
            "give the partial-quotient bound with --K\n"
        )
        code, out = run(capsys, "discrepancy", *angle, "--K", "63244")
        assert code == 0 and json.loads(out)["quotient_bound"] == 63244

    def test_discrepancy_large_radicand_scaled_display(self, capsys):
        # N*D_N is 7.42906949844...
        angle = ["--angle", "qi:(-31622,1,1,1000000007)", "--N", "3000", "--K", "63244"]
        code, out = run(capsys, "discrepancy", *angle)
        assert code == 0 and '"scaled": 7.429069,' in out

    def test_discrepancy_checks_k_before_the_orbit(self, capsys, monkeypatch):
        import absquares.discrepancy as discrepancy

        def no_orbit(*args):
            raise AssertionError("the orbit was computed")

        monkeypatch.setattr(discrepancy, "floors", no_orbit)
        angle = ["--angle", "cf:[0;|1]", "--N", "2000000", "--K", "0"]
        assert main(["discrepancy", *angle]) == 1
        assert capsys.readouterr().err == "error: partial-quotient bound must be >= 1\n"
        assert main(["discrepancy", "--angle", "cf:[0;|1]", "--N", "0"]) == 1
        assert capsys.readouterr().err == "error: need at least one point\n"

    def test_discrepancy_overflowing_period_bound_points_at_k(self, capsys):
        # the discriminant of (1 + sqrt(5))/10^400 is beyond float range
        angle = f"qi:(1,1,{10**400},5)"
        assert main(["discrepancy", "--angle", angle, "--N", "10"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("; give the partial-quotient bound with --K\n")
        code, out = run(capsys, "discrepancy", "--angle", angle, "--N", "10", "--K", "3")
        assert code == 0 and json.loads(out)["angle"]["approx"] == 0.0
        code, out = run(capsys, "sturmian-asf", "--angle", angle, "--max-n", "6", "--format", "csv")
        assert code == 0 and out.splitlines() == ["n,count", "2,1", "4,1", "6,1"]

    def test_angle_beyond_float_range_is_one_line(self, capsys):
        assert main(["discrepancy", "--angle", f"qi:({10**400},1,1,2)", "--N", "10"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_certificate_sweep_csv(self, capsys):
        code, out = run(
            capsys, "certificate", "--angle", "cf:[0;|1]", "--n", "36", "--sweep",
            "--format", "csv",
        )
        rows = out.splitlines()
        assert code == 0
        assert rows[0] == "n,count_a,count_b,product,asf_sum"
        assert rows[-1] == "36,5,3,15,180"
        assert len(rows) == 1 + 18

    def test_certificate_without_sweep_is_the_last_sweep_row(self, capsys):
        code, out = run(
            capsys, "certificate", "--angle", "cf:[0;|1]", "--n", "36", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["n,count_a,count_b,product,asf_sum", "36,5,3,15,180"]

    def test_precision_rounds_the_displays(self, capsys):
        code, out = run(capsys, "sturmian-asf", "--angle", "cf:[0;|1]", "--max-n", "4")
        assert code == 0 and json.loads(out)["angle"]["approx"] == 0.618034
        code, out = run(
            capsys, "sturmian-asf", "--angle", "cf:[0;|1]", "--max-n", "4", "--precision", "3"
        )
        assert code == 0 and json.loads(out)["angle"]["approx"] == 0.618


class TestAnalysisCommands:
    def test_richness(self, capsys, tmp_path):
        path = tmp_path / "tm.txt"
        main(["generate", "thue-morse", "--len", "2048", "--output", str(path)])
        capsys.readouterr()
        code, out = run(capsys, "richness", str(path), "--lengths", "4,8")
        doc = json.loads(out)
        assert code == 0
        assert [row["n"] for row in doc["rows"]] == [4, 8]
        assert doc["c_min"] > 0

    def test_richness_adequacy_check_and_skip(self, capsys, tmp_path):
        from absquares.analysis import richness_report
        from absquares.words import read_word_file

        path = tmp_path / "golden.txt"
        golden = ["--angle", "cf:[0;|1]", "--len", "40"]
        main(["generate", "sturmian", *golden, "--output", str(path)])
        capsys.readouterr()
        assert main(["richness", str(path), "--lengths", "8,16"]) == 1
        assert "factor counts not stabilized" in capsys.readouterr().err
        code, out = run(
            capsys, "richness", str(path), "--lengths", "8,16", "--skip-adequacy-check"
        )
        assert code == 0
        (word,) = read_word_file(path)
        report = richness_report(word, (8, 16), check_adequacy=False)
        rows = [(r["n"], r["avg"], r["min"], r["recurrence_index"]) for r in json.loads(out)["rows"]]
        assert rows == [
            (n, round(float(avg), 6), report.min_per_n[n], report.recurrence_table[n])
            for n, avg in report.avg_per_n.items()
        ]

    def test_baseline_deterministic(self, capsys):
        args = ["baseline", "--lengths", "32,64", "--trials", "5", "--seed", "9"]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


class TestSearchCommands:
    def test_search_deterministic_across_workers(self, capsys):
        base = ["search", "max-asf", "--sigma", "2", "--len", "11"]
        _, serial = run(capsys, *base, "--workers", "0")
        _, parallel = run(capsys, *base, "--workers", "2")
        assert serial == parallel
        doc = json.loads(serial)
        assert doc["schema"] == "absquares.search/1"

    def test_search_budget_flag(self, capsys):
        # a tightened budget makes a normally fine length fail...
        assert main(
            ["search", "max-asf", "--sigma", "2", "--len", "12", "--budget", "2=10"]
        ) == 1
        # ...and a loosened one admits an alphabet with no default entry
        code, out = run(
            capsys, "search", "max-asf", "--sigma", "5", "--len", "4",
            "--budget", "5=4",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flag, value",
        [("--budget", "2=abc"), ("--budget", "2"), ("--witness-cap", "-3"), ("--workers", "-1")],
    )
    def test_search_malformed_flag_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["search", "max-asf", "--sigma", "2", "--len", "6", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: " in errors[0]
        assert captured.err.startswith("usage: absquares search max-asf")

    def test_search_over_budget(self, capsys):
        assert main(["search", "max-asf", "--sigma", "2", "--len", "30"]) == 1

    def test_resume_after_torn_final_line(self, capsys, tmp_path):
        search = ["search", "max-asf", "--sigma", "2", "--len", "12"]
        assert main([*search, "--output", str(tmp_path / "whole.json")]) == 0
        checkpoint = tmp_path / "shards.jsonl"
        resume = [*search, "--checkpoint", str(checkpoint), "--output", str(tmp_path / "resumed.json")]
        assert main(resume) == 0
        lines = checkpoint.read_text().splitlines(keepends=True)
        cut = "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]  # a write cut short
        checkpoint.write_text(cut)
        assert main(resume) == 0
        assert (tmp_path / "resumed.json").read_bytes() == (tmp_path / "whole.json").read_bytes()
        assert checkpoint.read_text() == "".join(lines)

    @pytest.mark.parametrize(
        "torn",
        ["header", "middle", "{}", "[1, 2]", '{"prefix": "aaaa"}', "best", "witnesses", "zzzz"],
    )
    def test_torn_header_or_middle_line_rejected(self, capsys, tmp_path, torn):
        # a middle line that is not JSON, or JSON that is not a shard record of this search
        checkpoint = tmp_path / "shards.jsonl"
        search = ["search", "max-asf", "--sigma", "2", "--len", "10", "--checkpoint", str(checkpoint)]
        assert main(search) == 0
        lines = checkpoint.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        middle = {
            "middle": lines[2][:20],
            "best": json.dumps({**record, "best": "5"}),
            "witnesses": json.dumps({**record, "witnesses": [1]}),
            "zzzz": json.dumps({**record, "prefix": "zzzz"}),
        }.get(torn, torn)
        if torn == "header":
            checkpoint.write_text(lines[0][:20])
        else:
            checkpoint.write_text("".join(lines[:2]) + middle + "\n" + "".join(lines[3:]))
        capsys.readouterr()
        assert main(search) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: checkpoint {checkpoint} line {1 if torn == 'header' else 3} is corrupt")

    @pytest.mark.parametrize(
        "cap, forge",
        [
            pytest.param(0, lambda rec: {"best": 999, "attaining": 1}, id="cap0-best"),
            pytest.param(0, lambda rec: {"best": 25}, id="cap0-best-at-bound"),
            pytest.param(0, lambda rec: {"witnesses": []}, id="cap0-without-witness"),
            # line 3 (best 9) is not the record of the maximum, 11
            pytest.param(16, lambda rec: {"best": rec["best"] + 1}, id="best-over-first-witness"),
            pytest.param(16, lambda rec: {"best": 999, "witnesses": []}, id="best-without-witness"),
            pytest.param(16, lambda rec: {"best": -1}, id="negative-best"),
            pytest.param(16, lambda rec: {"count": rec["count"] + 1}, id="count"),
            pytest.param(16, lambda rec: {"attaining": 0, "witnesses": []}, id="no-word-attains"),
            pytest.param(0, lambda rec: {"attaining": rec["count"] + 1}, id="attaining-over-count"),
            pytest.param(16, lambda rec: {"witnesses": rec["witnesses"][1:]}, id="witness-missing"),
            pytest.param(0, lambda rec: {"witnesses": ["aaabaaaaaa"] * 2}, id="witnesses-over-cap"),
            pytest.param(
                16, lambda rec: {"witnesses": [w[:-1] for w in rec["witnesses"]]}, id="witness-length"
            ),
            pytest.param(
                16, lambda rec: {"witnesses": ["bbbb" + w[4:] for w in rec["witnesses"]]}, id="witness-prefix"
            ),
            pytest.param(
                16, lambda rec: {"witnesses": [w[:-1] + "z" for w in rec["witnesses"]]}, id="witness-symbol"
            ),
            # line 3 holds five witnesses, each attaining its best
            pytest.param(
                16, lambda rec: {"witnesses": rec["witnesses"][:1] + rec["witnesses"][:-1]},
                id="duplicate-witness",
            ),
            pytest.param(16, lambda rec: {"witnesses": rec["witnesses"][::-1]}, id="unordered-witnesses"),
        ],
    )
    def test_forged_record_values_rejected(self, capsys, tmp_path, cap, forge):
        # a record of the right types whose values no shard of this search could hold
        checkpoint = tmp_path / "shards.jsonl"
        search = ["search", "max-asf", "--sigma", "2", "--len", "10", "--witness-cap", str(cap)]
        search += ["--checkpoint", str(checkpoint)]
        assert main(search) == 0
        lines = checkpoint.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        forged = json.dumps({**record, **forge(record)})
        checkpoint.write_text("".join(lines[:2]) + forged + "\n" + "".join(lines[3:]))
        capsys.readouterr()
        assert main(search) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: checkpoint {checkpoint} line 3 is corrupt")

    def test_forged_non_canonical_witness_rejected(self, capsys, tmp_path):
        # aaaacca attains shard aaaa's best, 4, but its letters first appear
        # as a, c: the search never enumerates it
        checkpoint = tmp_path / "shards.jsonl"
        search = ["search", "max-asf", "--sigma", "3", "--len", "7", "--checkpoint", str(checkpoint)]
        assert main(search) == 0
        header, line, *rest = checkpoint.read_text().splitlines(keepends=True)
        record = json.loads(line)
        assert (record["prefix"], record["best"], record["attaining"]) == ("aaaa", 4, 1)
        assert witness_value("aaaacca", OBJECTIVE_DISTINCT) == 4
        forged = json.dumps({**record, "witnesses": ["aaaacca"]})
        checkpoint.write_text(header + forged + "\n" + "".join(rest))
        capsys.readouterr()
        assert main(search) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: checkpoint {checkpoint} line 2 is corrupt")

    def test_forged_later_witness_fails_reverification(self, capsys, tmp_path):
        # the load re-verifies each record's first witness; a later witness of
        # the record that carries the maximum meets the search's own re-check
        checkpoint = tmp_path / "shards.jsonl"
        search = ["search", "max-asf", "--sigma", "2", "--len", "12", "--checkpoint", str(checkpoint)]
        assert main(search) == 0
        header, *lines = checkpoint.read_text().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        top = max(records, key=lambda rec: rec["best"])
        witnesses = top["witnesses"]
        assert len(witnesses) >= 2
        # a canonical word of the shard, in order between witnesses 0 and 2,
        # that misses the maximum: only the re-check can tell
        after = witnesses[2] if len(witnesses) > 2 else top["prefix"] + "~"
        forged = next(
            text
            for text in (bytes(97 + c for c in word).decode() for word in canonical_words(2, 12))
            if witnesses[0] < text < after and text.startswith(top["prefix"])
            and witness_value(text, OBJECTIVE_DISTINCT) != top["best"]
        )
        witnesses[1] = forged
        checkpoint.write_text(header + "".join(json.dumps(rec) + "\n" for rec in records))
        capsys.readouterr()
        assert main(search) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: witness {forged!r} re-verified to ")
        assert err.endswith(f", expected {top['best']}\n")

    def test_compare_csv(self, capsys):
        code, out = run(
            capsys, "search", "compare", "--len", "6", "--format", "csv"
        )
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "sigma,length,maximum,witnesses,binary_dominates"
        assert len(rows) == 2

    def test_compare_takes_no_checkpoint(self, capsys, tmp_path):
        # one file cannot hold the shards of every alphabet size
        checkpoint = tmp_path / "cmp.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["search", "compare", "--len", "6", "--checkpoint", str(checkpoint)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --checkpoint" in captured.err
        assert not checkpoint.exists()

    def test_compare_without_sigmas(self, capsys):
        assert main(["search", "compare", "--len", "6", "--sigmas", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: comparison is anchored at sigma=2\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "EMPTY"], "no word found in EMPTY"),
        (["richness", "TM", "--lengths", "1"], "lengths must be >= 2"),
        (["richness", "TM", "--lengths", "8,128"], "length grid exceeds the prefix"),
        (["baseline", "--lengths", "0"], "lengths must be positive"),
        (["baseline", "--lengths", "8", "--trials", "0"], "trials must be >= 1"),
        (["search", "max-asf", "--sigma", "1", "--len", "4"], "alphabet must have at least two letters"),
        (["search", "max-asf", "--sigma", "2", "--len", "0"], "length must be >= 1"),
        (["certificate", "--angle", "cf:[0;|1]", "--n", "1", "--sweep"], "max_n must be >= 2"),
        (["sturmian-asf", "--angle", "cf:[0;|1]", "--max-n", "-1"], "max_n must be >= 0"),
        (
            ["sturmian-asf", "--angle", "cf:[0;1,2]", "--max-n", "4"],
            "period must be non-empty for an irrational value",
        ),
        (["generate", "sturmian", "--angle", "cf:[0;|1]", "--len", "-1"], "length must be >= 0"),
        (
            ["generate", "sturmian", "--angle", "cf:[0;|1]", "--rho", "qi:(3,0,2,0)", "--len", "4"],
            "initial point must lie in [0, 1)",
        ),
        (["generate", "thue-morse", "--len", "-1"], "length must be >= 0"),
        (["generate", "substitution-file", "COMMENT", "--len", "4"], "no substitution rules found"),
        (
            ["generate", "substitution-file", "NO_IMAGE", "--len", "4"],
            "malformed substitution rule: 'a ->'",
        ),
    ],
    ids=[
        "count-no-word", "richness-length-1", "richness-above-prefix", "baseline-length-0",
        "baseline-trials-0", "search-sigma-1", "search-len-0", "certificate-sweep-n-1",
        "sturmian-asf-max-n-negative", "sturmian-asf-empty-period", "generate-sturmian-len-negative",
        "generate-sturmian-rho-outside", "generate-thue-morse-len-negative",
        "substitution-file-only-comment", "substitution-file-empty-image",
    ],
)
def test_input_check_is_one_error_line(capsys, tmp_path, argv, message):
    files = {
        "EMPTY": "#alphabet: ab\n",
        "TM": "#alphabet: 01\n" + "0110100110010110" * 4 + "\n",
        "COMMENT": "#seed: a\n",
        "NO_IMAGE": "a ->\n",
    }
    paths = {name: tmp_path / name for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    code = main([str(paths.get(arg, arg)) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    expected = message.replace("EMPTY", str(paths["EMPTY"]))
    assert captured.err == f"error: {expected}\n"


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["sturmian-asf", "--max-n", "8"])
        assert exc.value.code == 2

    def test_module_docstring_lists_every_subcommand(self):
        actions = build_parser()._actions
        (sub,) = (a for a in actions if isinstance(a, argparse._SubParsersAction))
        listed = {line.split("``")[1] for line in cli.__doc__.splitlines() if line.startswith("* ``")}
        assert listed == set(sub.choices)


@pytest.mark.parametrize("argv", [["--help"], ["count", "--help"]], ids=" ".join)
def test_help_from_a_clean_interpreter(argv):
    # a fresh process imports the CLI from nothing, as every command does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "absquares.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")



# Run as `python -m absquares.cli` runs it (runpy, with sys.argv set), and
# print sys.modules on the last line of stderr as the interpreter exits.
PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(sys.modules), file=sys.__stderr__))\n"
    "runpy.run_module('absquares.cli', run_name='__main__', alter_sys=True)\n"
)


def modules_at_exit(*argv) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines()[-1].split())


def test_help_loads_no_numpy_and_no_package_module():
    modules = modules_at_exit("--help")
    assert modules.isdisjoint({"numpy", "absquares.counting", "absquares.search"})
    assert [name for name in modules if name.startswith("absquares.")] == []


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (
            ["count", "WORD"],
            "absquares.counting",
            {"absquares.quadratic", "absquares.sturmian", "absquares.discrepancy",
             "absquares.analysis", "absquares.search"},
        ),
        (
            ["discrepancy", "--angle", "cf:[0;|1]", "--N", "100"],
            "absquares.discrepancy",
            {"numpy", "absquares.counting", "absquares.analysis", "absquares.search"},
        ),
        (
            ["sturmian-asf", "--angle", "cf:[0;|1]", "--max-n", "100"],
            "absquares.sturmian",
            {"numpy", "absquares.counting", "absquares.discrepancy"},
        ),
        (
            ["certificate", "--angle", "cf:[0;|1]", "--n", "100", "--sweep"],
            "absquares.discrepancy",
            {"numpy", "absquares.counting", "absquares.analysis"},
        ),
        (
            ["generate", "sturmian", "--angle", "cf:[0;|1]", "--len", "100"],
            "absquares.sturmian",
            {"numpy", "absquares.counting", "absquares.discrepancy"},
        ),
        (
            ["crosscheck", "--angle", "cf:[0;|1]", "--max-n", "10", "--prefix-len", "100"],
            "absquares.counting",
            {"absquares.discrepancy", "absquares.analysis", "absquares.search"},
        ),
        (
            ["generate", "thue-morse", "--len", "16"],
            "absquares.substitutions",
            {"numpy", "absquares.counting", "absquares.quadratic", "absquares.analysis"},
        ),
        (
            ["generate", "substitution-file", "SUB", "--len", "16"],
            "absquares.substitutions",
            {"numpy", "absquares.counting", "absquares.quadratic"},
        ),
    ],
    ids=[
        "count", "discrepancy", "sturmian-asf", "certificate-sweep", "generate-sturmian",
        "crosscheck", "generate-thue-morse", "generate-substitution-file",
    ],
)
def test_command_loads_only_what_it_runs(tmp_path, argv, loaded, absent):
    files = {"WORD": tmp_path / "w.txt", "SUB": tmp_path / "fib.sub"}
    files["WORD"].write_text("#alphabet: ab\nabaababaab\n")
    files["SUB"].write_text("a -> ab\nb -> a\n#seed: a\n")
    modules = modules_at_exit(*(str(files.get(arg, arg)) for arg in argv))
    assert loaded in modules
    assert modules.isdisjoint(absent)
