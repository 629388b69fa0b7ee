"""The wcpx benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload hopf-cyclic --seed 1 --seconds 30 --trace 0

Run from the root of a wcpx checkout; wcpx is imported from ``src/``.
Set-up runs ``inputs.py`` in a fresh interpreter (importing ``wcpx.cli``
and writing the run's inputs) five times, and ``setup_s`` is the median.
The workload runs in a fresh child process (``worker.py``) after the
first three set-ups and before the last two, so ``peak_rss_mb`` is that
workload's alone and the set-up median samples the machine at both ends
of the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import WORKLOADS  # noqa: E402
from tracing import METRICS, unit_of  # noqa: E402

SETUPS_BEFORE, SETUPS_AFTER = 3, 2  # around the workload; the first one's inputs are used
RUN_LIMIT_S = 170  # the whole run, set-up included, ends within this
TAIL_PERCENTILE = 90  # unit_s.p90


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(command: list[str], env: dict[str, str], deadline: float) -> None:
    """Run a child to completion; past the deadline it is killed and reaped.

    A blocking wait with a kill timer, not ``subprocess.run(timeout=...)``,
    which polls the child at up to 50 ms intervals and so would round every
    set-up time to that step.
    """
    proc = subprocess.Popen(command, env=env, cwd=ROOT)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, command)


def _setup(workload: str, seed: int, out: Path, env: dict[str, str], deadline: float) -> float:
    """One fresh-interpreter set-up; returns its wall time in seconds."""
    start = time.perf_counter()
    _child([sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out)], env, deadline)
    return time.perf_counter() - start


def _end_to_end(result: dict, setup_s: float) -> tuple[dict, dict]:
    times = result["unit_times"]
    if len(times) > 1:
        cut = statistics.quantiles(times, n=100, method="inclusive")
    else:
        cut = times * 99
    metrics = {
        "unit_s.p50": (statistics.median(times), "s"),
        f"unit_s.p{TAIL_PERCENTILE}": (cut[TAIL_PERCENTILE - 1], "s"),
        "records_per_s": (result["records"] / sum(times), "records/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }
    samples = {"units": len(times), "jobs": result["attempted"], "records": result["records"],
               f"units_beyond_p{TAIL_PERCENTILE}": sum(t > cut[TAIL_PERCENTILE - 1] for t in times),
               "timed_s": sum(times)}
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    for needed in ("src/wcpx/cli.py", "fixtures", "tests/golden"):
        if not (ROOT / needed).exists():
            return _fail(f"{needed} not found; run from the root of a wcpx checkout")

    deadline = time.monotonic() + RUN_LIMIT_S
    env_record = {"python": platform.python_version(), "cpus": os.cpu_count(),
                  "loadavg": list(os.getloadavg()), "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds}
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = _child_env()
    try:
        setups = []

        def set_up(i: int) -> None:
            out = work / f"setup{i}"
            setups.append(_setup(args.workload, args.seed, out, env, deadline))
            if i:
                shutil.rmtree(out)

        for i in range(SETUPS_BEFORE):
            set_up(i)
        inputs_dir = work / "setup0"
        result_path = work / "result.json"
        command = [sys.executable, str(BENCH / "worker.py"), "--plan",
                   str(inputs_dir / "plan.json"), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--result", str(result_path)]
        if args.trace:
            spans = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            command += ["--spans", str(spans)]
            env_record["spans"] = str(spans.relative_to(ROOT))
        _child(command, env, deadline)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        for i in range(SETUPS_BEFORE, SETUPS_BEFORE + SETUPS_AFTER):
            set_up(i)
        setup_s = statistics.median(setups)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return _fail(f"run failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {m: (result["layers"][m], unit_of(m)) for m in METRICS}
        samples = {"jobs": result["layers"]["trace.jobs"]}
    else:
        metrics, samples = _end_to_end(result, setup_s)
        samples["setup_runs_s"] = setups
    env_record.update(samples)
    env_record["failures"] = result["failures"]
    env_record["checker_self_test"] = result["self_test"] or "corrupted reports counted as failed"
    correct = result["failed"] == 0 and result["self_test"] is None
    print(json.dumps({"environment": env_record}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
