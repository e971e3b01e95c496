#!/usr/bin/env python3
"""Self-test of the benchmark's own checker and tracer.

    python3 perfbench/selftest.py

Shows that a corrupted job output is caught, that a job exiting non-zero
counts as failed, that a job's max RSS excludes the benchmark's own, that a traced function is replaced in every namespace
that binds it and restored afterwards, and that a traced function which
no longer exists yields an absent metric instead of a crash.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest
from pathlib import Path

import jobs
import layers
import run

sys.path.insert(0, str(run.SRC))


def corrupt_json(edit):
    def apply(path: Path) -> None:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    return apply


def flip_letter(path: Path) -> None:
    lines = path.read_text().splitlines()
    word = lines[-1]
    lines[-1] = word[:100] + ("a" if word[100] == "b" else "b") + word[101:]
    path.write_text("\n".join(lines) + "\n")


def bump_row(field: str, index: int = 3):
    def edit(doc):
        doc["rows"][index][field] += 1

    return corrupt_json(edit)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
        cls.work.mkdir(parents=True)
        cls.jobs = {
            (workload, j.name): j
            for workload in jobs.WORKLOADS
            for j in jobs.build(workload, cls.work, seed=3)
        }
        cls.bench = run.Run(list(cls.jobs.values()), cls.work)

    @classmethod
    def tearDownClass(cls):
        cls.bench.close()
        shutil.rmtree(cls.work, ignore_errors=True)

    def run_job(self, key) -> jobs.Job:
        job = self.jobs[key]
        run.clear(job)
        code, _, _ = self.bench.spawn(job.argv, job.name)
        self.assertIsNone(job.verdict(code), f"{key} fails on an intact output")
        return job

    def test_corrupted_outputs_are_caught(self):
        corruptions = {
            ("rotation", "gen_golden"): flip_letter,
            ("rotation", "crosscheck_silver"): bump_row("combinatorial"),
            ("rotation", "certificate_sweep"): bump_row("count_a"),
            ("rotation", "asf_large_d"): bump_row("count"),
            ("rotation", "discrepancy_large"): corrupt_json(
                lambda doc: doc.update(value=doc["value"] + 1e-4)
            ),
            ("long_word", "count_random"): bump_row("count", index=20),
            ("short_words", "search_inequivalent"): corrupt_json(
                lambda doc: doc.update(maximum=doc["maximum"] - 1)
            ),
        }
        for key, corrupt in corruptions.items():
            with self.subTest(job=key):
                job = self.run_job(key)
                corrupt(job.output)
                self.assertIsNotNone(job.verdict(0), f"{key} accepts a corrupted output")

    def test_exit_code_counts_as_failure(self):
        job = self.jobs[("rotation", "crosscheck_silver")]
        self.assertIn("exit code 1", job.verdict(1))

    def test_peak_rss_is_the_jobs_own(self):
        ballast = bytearray(300 * 2**20)  # the spawning benchmark's memory must not count
        ballast[:: 4096] = b"x" * len(ballast[:: 4096])
        self.bench.peak_rss_kib = 0
        self.bench.setup_probe()
        self.assertLess(self.bench.peak_rss_kib, 200 * 1024)
        del ballast

    def test_missing_output_is_a_failure(self):
        job = self.jobs[("rotation", "certificate_sweep")]
        run.clear(job)
        self.assertIn("unreadable output", job.verdict(0))


class TracerTest(unittest.TestCase):
    def test_replaced_in_every_namespace_and_restored(self):
        import absquares.cli
        import absquares.counting

        original = absquares.counting.asf_profile
        with layers.Tracer(layers.SPAN_TARGETS) as tracer:
            self.assertFalse(tracer.missing)
            self.assertIsNot(absquares.counting.asf_profile, original)
            self.assertIs(absquares.cli.asf_profile, absquares.counting.asf_profile)
        self.assertIs(absquares.counting.asf_profile, original)
        self.assertIs(absquares.cli.asf_profile, original)

    def test_missing_function_yields_absent_metric(self):
        import absquares
        import absquares.cli
        import absquares.search

        original = absquares.search.witness_value
        holders = [m for m in (absquares, absquares.search) if "witness_value" in vars(m)]
        for module in holders:
            delattr(module, "witness_value")
        try:
            targets = layers.SPAN_TARGETS + ("nosuchlayer.function",)
            with layers.Tracer(targets) as tracer:
                code = tracer.call(
                    absquares.cli.main,
                    ["sturmian-asf", "--angle", "cf:[0;|1]", "--max-n", "20",
                     "--output", os.devnull],
                )
            self.assertEqual(code, 0)
            self.assertEqual(tracer.missing, {"search.witness_value", "nosuchlayer.function"})
            metrics = layers.span_metrics(tracer)
            self.assertNotIn("search.verify_s", metrics)
            self.assertGreater(metrics["sturmian.asf_range_s"], 0)
            self.assertIn("search.run_s", metrics)
        finally:
            for module in holders:
                setattr(module, "witness_value", original)


if __name__ == "__main__":
    unittest.main()
