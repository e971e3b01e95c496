"""End-to-end CLI behavior: golden outputs, schemas, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from absquares.cli import main

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
        assert main(["sturmian-asf", "--angle", "qi:(1,0,3,0)", "--max-n", "8"]) == 1


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

    @pytest.mark.parametrize("torn", ["header", "middle"])
    def test_torn_header_or_middle_line_rejected(self, capsys, tmp_path, torn):
        checkpoint = tmp_path / "shards.jsonl"
        search = ["search", "max-asf", "--sigma", "2", "--len", "10", "--checkpoint", str(checkpoint)]
        assert main(search) == 0
        lines = checkpoint.read_text().splitlines(keepends=True)
        if torn == "header":
            checkpoint.write_text(lines[0][:20])
        else:
            checkpoint.write_text("".join(lines[:2]) + lines[2][:20] + "\n" + "".join(lines[3:]))
        capsys.readouterr()
        assert main(search) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: checkpoint {checkpoint} line {1 if torn == 'header' else 3} is corrupt")

    def test_compare_csv(self, capsys):
        code, out = run(
            capsys, "search", "compare", "--len", "6", "--format", "csv"
        )
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "sigma,length,maximum,witnesses,binary_dominates"
        assert len(rows) == 2


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["sturmian-asf", "--max-n", "8"])
        assert exc.value.code == 2


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
