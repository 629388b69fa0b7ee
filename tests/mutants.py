"""Seeded mutants of the shipped fixtures and the pinned answers to them.

A mutant is a fixture with one to three structure constants changed.  The
pins in ``mutant_pins.json`` hold, for every mutant and every command, the
exit code and the SHA-256 of the JSON report and of the printed output (the
mutant's path replaced by ``<mutant>``), so a change that means to keep
every answer can show that it does.

Regenerate the pins, only when answers are meant to change, with

    PYTHONPATH=src python tests/mutants.py --write

Without ``--write`` the script lists the pins that no longer hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from wcpx.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PINS = Path(__file__).resolve().parent / "mutant_pins.json"
COMMANDS = ("check-structure", "wcp-check", "wcp-build", "partial-check", "partial-build",
            "unified-check", "unified-build", "equivalence-suite")
VALUES = ("0", "1", "-1", "2", "1/2")
PER_FIXTURE = 26
SEED = 20111


def constant_spans(text):
    """Where the structure constants of a structure file are: the value of
    each entry ('... : 1=1/2') and each entry of a unit or counit line."""
    spans = [m.span(1) for m in re.finditer(r"(?<=[\d)])=(-?\d+(?:/\d+)?)", text)]
    for line in re.finditer(r"^(?:unit|counit):(.*)$", text, re.M):
        spans += [(line.start(1) + t.start(), line.start(1) + t.end())
                  for t in re.finditer(r"\S+", line.group(1))]
    return spans


def apply_edits(text, edits):
    """``text`` with each (start, end, value) span replaced."""
    for start, end, value in sorted(edits, reverse=True):
        text = text[:start] + value + text[end:]
    return text


def generate():
    """PER_FIXTURE distinct mutants of each fixture, drawn from one seeded
    generator: fixture name -> list of edit lists."""
    rng = random.Random(SEED)
    out = {}
    for path in sorted(FIXTURES.glob("*.wx")):
        text = path.read_text(encoding="utf-8")
        spans = sorted(constant_spans(text))
        seen, edits_of = {text}, []
        while len(edits_of) < PER_FIXTURE:
            chosen = sorted(rng.sample(spans, rng.randint(1, min(3, len(spans)))))
            edits = [[start, end, rng.choice(VALUES)] for start, end in chosen]
            mutant = apply_edits(text, edits)
            if mutant not in seen:
                seen.add(mutant)
                edits_of.append(edits)
        out[path.name] = edits_of
    return out


def answer(command, path: Path) -> dict:
    """Exit code and digests of one CLI run on ``path``."""
    report = path.with_suffix(".json")
    report.unlink(missing_ok=True)
    result = CliRunner().invoke(main, [command, str(path), "--report", str(report)])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise AssertionError(f"{command} on {path.read_text(encoding='utf-8')!r} "
                             f"raised {result.exception!r}")
    output = result.output.replace(str(path), "<mutant>")
    return {"exit": result.exit_code,
            "report_sha256": (hashlib.sha256(report.read_bytes()).hexdigest()
                              if report.exists() else None),
            "output_sha256": hashlib.sha256(output.encode("utf-8")).hexdigest()}


def answers(fixture, edits, workdir: Path) -> dict:
    """command -> answer, for the mutant of ``fixture`` made by ``edits``."""
    path = workdir / "mutant.wx"
    path.write_text(apply_edits((FIXTURES / fixture).read_text(encoding="utf-8"), edits),
                    encoding="utf-8")
    return {command: answer(command, path) for command in COMMANDS}


def load_pins() -> list[dict]:
    return json.loads(PINS.read_text(encoding="utf-8"))["mutants"]


def mismatches(pins, workdir: Path) -> list[str]:
    """One line per (mutant, command) whose answer differs from its pin."""
    out = []
    for index, pin in enumerate(pins):
        got = answers(pin["fixture"], pin["edits"], workdir)
        out += [f"mutant {index} ({pin['fixture']} {pin['edits']}) {command}: "
                f"pinned {pin['answers'][command]}, got {got[command]}"
                for command in COMMANDS if got[command] != pin["answers"][command]]
    return out


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the pins from the current code")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if args.write:
            pins = [{"fixture": fixture, "edits": edits,
                     "answers": answers(fixture, edits, Path(tmp))}
                    for fixture, edits_of in generate().items() for edits in edits_of]
            lines = ",\n".join(json.dumps(pin, sort_keys=True) for pin in pins)
            PINS.write_text(f'{{"mutants": [\n{lines}\n]}}\n', encoding="utf-8")
            print(f"wrote {len(pins)} mutants x {len(COMMANDS)} commands to {PINS.name}")
            return 0
        bad = mismatches(load_pins(), Path(tmp))
    print("\n".join(bad) or "every pin holds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main())
