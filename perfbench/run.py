#!/usr/bin/env python3
"""End-to-end benchmark of the absquares CLI.

    python3 perfbench/run.py --workload long_word --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A closed loop with one client runs the
workload's CLI jobs (`python -m absquares.cli ...` on `src/`) one at a time,
each starting when the previous one has exited, and repeats the whole pass
until `--seconds` are spent.  Every job's output is checked (see `jobs.py`).

--trace 0 reports the end-to-end metrics: the median pass time `wall_s`,
the median start-up time of a CLI process that does no work `setup_s`, and
the largest max-RSS of any CLI process of the run, search workers included,
`peak_rss_mb`.

--trace 1 reports the per-layer metrics.  One timed pass of CLI processes
gives the per-command times and CPU time.  The same jobs then run through
`absquares.cli.main(argv)` in this process (see `layers.py`): one pass that
only counts hot-path calls, then untraced and traced passes in turn.  The
tracing overhead is the median traced pass minus the median untraced one.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the machine, the per-command times and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import jobs
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COMMANDS = (
    "generate", "count", "crosscheck", "sturmian-asf", "discrepancy",
    "certificate", "richness", "baseline", "search",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def clear(job: jobs.Job) -> None:
    for path in (job.output, *job.fresh):
        path.unlink(missing_ok=True)


class Run:
    """One benchmark run: its jobs, the process that launches them (see
    `launch.py`), and the failures and peak RSS seen so far."""

    def __init__(self, job_list, work: Path):
        self.jobs = job_list
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kib = 0
        self._launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py")), str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait(timeout=60)

    def spawn(self, argv, name: str) -> tuple[int, float, float]:
        """Run `absquares argv` to completion: (exit code, wall s, cpu s).
        CPU time is user plus system time, search workers included."""
        request = [[sys.executable, "-m", "absquares.cli", *argv], str(self.work / f"{name}.stderr")]
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        code, wall, cpu, rss_kib = json.loads(reply)
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        return code, wall, cpu

    def record(self, job: jobs.Job, code: int) -> None:
        self.attempted += 1
        problem = job.verdict(code)
        if problem:
            err = self.work / f"{job.name}.stderr"
            tail = err.read_text().strip().splitlines()[-1:] if err.exists() else []
            self.failures.append(problem + (f" ({tail[0]})" if tail else ""))

    def setup_probe(self) -> float:
        """Start-up time of a CLI process that does no work."""
        code, wall, _ = self.spawn(["--help"], "setup")
        if code != 0:
            raise RuntimeError(f"absquares --help exited {code}")
        return wall

    def cli_pass(self) -> tuple[list[float], float]:
        """One pass of CLI processes: (wall s of each job, total cpu s)."""
        walls, cpu = [], 0.0
        for job in self.jobs:
            clear(job)
            code, wall, used = self.spawn(job.argv, job.name)
            self.record(job, code)
            walls.append(wall)
            cpu += used
        return walls, cpu

    def by_command(self, walls: list[float]) -> dict:
        """Job times summed per CLI command."""
        out = dict.fromkeys(COMMANDS, 0.0)
        for job, wall in zip(self.jobs, walls):
            out[job.command] += wall
        return out

    def in_process_pass(self, tracer: layers.Tracer | None) -> float:
        """One pass through absquares.cli.main(argv) in this process."""
        from absquares.cli import main

        total = 0.0
        for job in self.jobs:
            clear(job)
            argv = list(job.argv)
            with (self.work / f"{job.name}.stderr").open("w") as err, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = tracer.call(main, argv) if tracer else main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crashing job fails, as its CLI process would
                    traceback.print_exc()
                    code = 1
                total += time.perf_counter() - start
            self.record(job, code)
        return total


def machine() -> dict:
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            sha = out.stdout.strip() if out.returncode == 0 else None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
    }


def timed_run(run: Run, seconds: float) -> tuple[dict, dict]:
    """Passes of CLI processes until `seconds` are spent: the end-to-end
    metrics and the median per-command times."""
    run.setup_probe()  # warm-up: bytecode compilation and the file cache
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        setups += [run.setup_probe(), run.setup_probe()]
        passes.append(run.cli_pass()[0])
        spent = time.perf_counter() - start
        if spent + spent / len(passes) / 2 > seconds:  # end as near `seconds` as can be
            break
    metrics = {
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run.peak_rss_kib / 1024, "MB"),
    }
    per_command = {c: statistics.median(run.by_command(p)[c] for p in passes) for c in COMMANDS}
    return metrics, {"passes": len(passes), "per_command_s": per_command}


def traced_run(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """The per-layer metrics: one timed CLI pass; one in-process pass that
    only counts hot-path calls and also warms the in-process caches; then
    untraced and traced in-process passes, in alternating order, until
    `seconds` are spent."""
    start = time.perf_counter()
    run.setup_probe()  # warm-up, as in timed_run
    walls, cpu = run.cli_pass()
    per_command = run.by_command(walls)
    sys.path.insert(0, str(SRC))
    with layers.Tracer(layers.COUNT_TARGETS, timed=False) as counter:
        run.in_process_pass(counter)
    untraced, traced, layer_values = [], [], []
    order = [False, True]
    while not traced or time.perf_counter() - start + 2 * statistics.median(untraced) <= seconds:
        for with_spans in order:
            if not with_spans:
                untraced.append(run.in_process_pass(None))
                continue
            with layers.Tracer(layers.SPAN_TARGETS) as tracer:
                traced.append(run.in_process_pass(tracer))
            layer_values.append(layers.span_metrics(tracer))
        order.reverse()
    tracer.dump(spans_path)

    metrics = {}
    for name in layers.SPAN_METRICS:
        values = [v[name] for v in layer_values if name in v]
        if values:
            metrics[name] = (statistics.median(values), unit(name))
    for name, value in layers.count_metrics(counter).items():
        metrics[name] = (value, "count")
    metrics["cli.cpu_s"] = (cpu, "s")
    for command in COMMANDS:
        metrics[f"cmd.{command}_s"] = (per_command[command], "s")
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / statistics.median(untraced), "ratio")
    absent = sorted(set(layers.SPAN_METRICS) - set(metrics))
    absent += sorted(set(layers.COUNT_METRICS) - set(metrics))
    return metrics, {
        "passes": len(traced),
        "per_command_s": per_command,
        "missing_targets": sorted(tracer.missing | counter.missing),
        "absent_metrics": absent,
    }


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "absquares" / "cli.py").is_file():
        print(f"error: no absquares sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = None
    try:
        run = Run(jobs.build(args.workload, work, args.seed), work)
        if args.trace:
            spans = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, details = traced_run(run, args.seconds, spans)
        else:
            metrics, details = timed_run(run, args.seconds)
    finally:
        if run:
            run.close()
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        **details,
        "failures": run.failures[:20],
    }
    print(json.dumps({"info": info}))
    failed = len(run.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
