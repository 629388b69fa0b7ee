"""Outcome checker: decides whether one benchmark job produced the right output.

A job fails when the CLI raises, exits with another code than expected, or
its ``--report`` bytes are wrong.  What "right" means is pinned in
``pins.json`` from the commit that defined the benchmark:

* scaled families: exit code 0, every record ``pass``, the sequence of
  check ids equal to the pinned one, the facts equal to the closed-form
  facts the generator states, and the report's input digest equal to the
  hash of the input file;
* shipped fixtures: the exit code and the SHA-256 of the report bytes
  equal to the pinned ones (no report for exit code 2), and the two
  reports kept under ``tests/golden/`` equal to those files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"

# (command, fixture) -> golden report under tests/golden/
GOLDEN = {
    ("partial-build", "partial_smash.wx"): "partial_smash_report.json",
    ("check-structure", "broken_unit.wx"): "broken_unit_report.json",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Checks job outcomes against the pins; ``check`` returns None or a reason."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.pins = json.loads(PINS.read_text(encoding="utf-8"))
        self.golden = {k: (root / "tests" / "golden" / name).read_bytes()
                       for k, name in GOLDEN.items()}

    def check(self, job: dict, code, report: bytes | None) -> str | None:
        key = job["expect"]["pin"]
        if key.startswith("fixture:"):
            return self._fixture(key, job, code, report)
        return self._scaled(key, job, code, report)

    def _fixture(self, key: str, job: dict, code, report: bytes | None) -> str | None:
        pin = self.pins["fixtures"][key]
        if code != pin["exit"]:
            return f"exit code {code}, expected {pin['exit']}"
        digest = None if report is None else sha256(report)
        if digest != pin["report_sha256"]:
            return "report bytes differ from the pinned report"
        command, path = job["argv"][0], job["argv"][1]
        golden = self.golden.get((command, Path(path).name))
        if golden is not None and report != golden:
            return "report differs from its golden file"
        return None

    def _scaled(self, key: str, job: dict, code, report: bytes | None) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        if report is None:
            return "no report written"
        try:
            doc = json.loads(report)
        except ValueError as exc:
            return f"report is not JSON: {exc}"
        if not isinstance(doc, dict) or not isinstance(doc.get("checks"), list):
            return "report has no check list"
        checks = doc["checks"]
        ids = [c.get("check") for c in checks]
        if ids != self.pins["scaled"][key]:
            return "check ids differ from the pinned sequence"
        bad = [c.get("check") for c in checks if c.get("status") != "pass"]
        if bad:
            return f"records not passing: {bad[:3]}"
        if doc.get("summary") != {"pass": len(checks), "fail": 0}:
            return f"summary {doc.get('summary')} does not match {len(checks)} passing records"
        if doc.get("facts", {}) != job["expect"]["facts"]:
            return f"facts {doc.get('facts')} differ from {job['expect']['facts']}"
        digest = "sha256:" + sha256((self.root / job["argv"][1]).read_bytes())
        if doc.get("input_digest") != digest:
            return "input digest does not match the input file"
        return None

    def records(self, report: bytes | None) -> int:
        """Number of check records in a report (0 when none was written)."""
        if report is None:
            return 0
        return len(json.loads(report)["checks"])


def corruptions(report: bytes) -> list[bytes]:
    """Damaged copies of a correct report that the checker must reject."""
    flipped = report.replace(b'"status": "pass"', b'"status": "fail"', 1)
    if flipped == report:
        flipped = report.replace(b'"status": "fail"', b'"status": "pass"', 1)
    return [flipped, report[: len(report) // 2]]


def self_test(checker: Checker, job: dict, code, report: bytes) -> str | None:
    """Check that every corruption of an accepted report counts as failed."""
    if checker.check(job, code, report) is not None:
        return "self-test needs a report the checker accepts"
    for damaged in corruptions(report):
        if damaged == report or checker.check(job, code, damaged) is None:
            return "checker accepted a corrupted report"
    if checker.check(job, 3, report) is None:
        return "checker accepted a wrong exit code"
    return None
