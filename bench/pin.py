"""Regenerate ``pins.json``, the expected outcomes the checker compares against.

    PYTHONPATH=src python3 bench/pin.py

Runs every scaled family once (seed 0) and every command on every shipped
fixture, and records the check-id sequences, exit codes and report hashes
of the current code.  The pins define "correct" for the benchmark; rewrite
them only in a change that means to alter reports, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from check import GOLDEN, PINS, sha256  # noqa: E402


def invoke(main, argv: list[str], report: Path) -> tuple[int, bytes | None]:
    report.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main.main(args=argv + ["--report", str(report)], prog_name="wcpx")
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, (report.read_bytes() if report.exists() else None)


def main() -> int:
    from wcpx.cli import main as cli_main
    work = Path(tempfile.mkdtemp(prefix="pins-", dir=inputs.ROOT))
    try:
        report = work / "report.json"
        rng = random.Random(0)
        scaled_inputs = {
            "hopf-cyclic:check-structure": (inputs.cyclic_hopf(rng), {}),
            "hopf-dense-fp:check-structure": (inputs.dense_fp_hopf(rng), {}),
        }
        dihedral, dihedral_facts = inputs.dihedral_datum(rng)
        partial, partial_facts = inputs.partial_action(rng)
        scaled_inputs["dihedral:unified-build"] = (dihedral, dihedral_facts)
        scaled_inputs["dihedral:equivalence-suite"] = (dihedral, {})
        scaled_inputs["partial:partial-build"] = (partial, partial_facts)
        scaled_inputs["partial:equivalence-suite"] = (partial, {})
        scaled = {}
        for key, (text, facts) in scaled_inputs.items():
            path = work / "input.wx"
            path.write_text(text, encoding="utf-8")
            code, data = invoke(cli_main, [key.split(":")[1], str(path)], report)
            doc = json.loads(data)
            assert code == 0 and all(c["status"] == "pass" for c in doc["checks"]), key
            assert doc.get("facts", {}) == facts, (key, doc.get("facts"))
            scaled[key] = [c["check"] for c in doc["checks"]]
        fixtures = {}
        exits = Counter()
        for command in inputs.FIXTURE_COMMANDS:
            for fixture in sorted(p.name for p in (inputs.ROOT / "fixtures").glob("*.wx")):
                code, data = invoke(cli_main, [command, f"fixtures/{fixture}"], report)
                if (command, fixture) in GOLDEN:
                    golden = inputs.ROOT / "tests" / "golden" / GOLDEN[(command, fixture)]
                    assert data == golden.read_bytes(), (command, fixture)
                fixtures[f"fixture:{command} {fixture}"] = {
                    "exit": code, "report_sha256": None if data is None else sha256(data)}
                exits[code] += 1
    finally:
        shutil.rmtree(work)
    PINS.write_text(json.dumps({"scaled": scaled, "fixtures": fixtures},
                               indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(scaled)} scaled commands; fixture exit codes {dict(sorted(exits.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
