"""One benchmark workload in a fresh process: a closed loop of CLI jobs.

    python3 bench/worker.py --plan DIR/plan.json --seconds 30 --trace 0 --result OUT.json

The loop drives the real ``wcpx`` entry point in-process, one job at a
time: the next job starts only after the previous one returned and its
outcome was checked.  Only the CLI call is timed.  Jobs run in whole units
(see ``inputs.UNIT_JOBS``) until ``--seconds`` of loop time have passed,
and a unit's time is the sum of its jobs' times.

With ``--trace 1`` the loop runs for a third of the time untraced, then
installs the tracer and runs the same jobs again; the per-layer numbers
come from the second pass, and the tracing overhead is the difference
between the two passes' job times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from check import Checker, self_test  # noqa: E402
from tracing import Tracer  # noqa: E402


class Runner:
    """Runs jobs through the CLI entry point and checks every outcome."""

    def __init__(self, report_path: Path) -> None:
        from wcpx import cli
        self.main = cli.main
        self.report_path = report_path
        self.checker = Checker(ROOT)
        self.sink = io.StringIO()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.records = 0
        self.accepted: tuple | None = None  # a (job, code, report) the checker passed
        self.tracer: Tracer | None = None

    def _invoke(self, argv: list[str]):
        try:
            self.main.main(args=argv, prog_name="wcpx")
        except SystemExit as exc:
            return 0 if exc.code is None else exc.code
        return 0

    def run(self, job: dict) -> float:
        """Run one job; returns its wall time in seconds."""
        argv = job["argv"] + ["--report", str(self.report_path)]
        self.report_path.unlink(missing_ok=True)
        self.sink.seek(0)
        self.sink.truncate()
        # Start every job from an empty young generation, as a fresh CLI
        # process would, so collections fall at the same points in each job.
        gc.collect()
        error = None
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    code = self._invoke(argv)
                else:
                    code = self.tracer.span("cli.main", self._invoke, argv)
            except Exception as exc:  # a job that raises is a failed job, not a crash
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        report = self.report_path.read_bytes() if self.report_path.exists() else None
        if error is None:
            error = self.checker.check(job, code, report)
        if error is None:
            self.records += self.checker.records(report)
            if report is not None:
                self.accepted = (job, code, report)
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(job['argv'])}: {error}")
        return elapsed


def closed_loop(runner: Runner, units: list[list[dict]], seconds: float) -> tuple[list[dict], list[float]]:
    """Run whole units in order, cycling, until ``seconds`` have passed."""
    done: list[dict] = []
    times: list[float] = []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        for job in units[k % len(units)]:
            times.append(runner.run(job))
            done.append(job)
        k += 1
    return done, times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    plan = json.loads(args.plan.read_text(encoding="utf-8"))
    jobs, size = plan["jobs"], plan["unit_jobs"]
    units = [jobs[i:i + size] for i in range(0, len(jobs), size)]
    report_path = args.plan.parent / "report.json"
    # The plan and the loaded modules live for the whole run; keep the
    # collector from walking them again inside every job.
    gc.freeze()
    result: dict = {}
    if args.trace:
        runner = Runner(report_path)
        done, plain = closed_loop(runner, units, args.seconds / 3)
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        runner.records = 0
        traced = []
        for i, job in enumerate(done):
            tracer.job = i
            traced.append(runner.run(job))
        layers = tracer.metrics(len(done), runner.records)
        layers["trace.overhead_s"] = (sum(traced) - sum(plain)) / len(done)
        result["layers"] = layers
        if args.spans is not None:
            tracer.write(args.spans)
    else:
        runner = Runner(report_path)
        _, times = closed_loop(runner, units, args.seconds)
        result["unit_times"] = [sum(times[i:i + size]) for i in range(0, len(times), size)]
        result["records"] = runner.records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["failures"] = runner.failures
    result["self_test"] = ("no accepted report to corrupt" if runner.accepted is None
                           else self_test(runner.checker, *runner.accepted))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
