"""The wcpx command line: parse structure files, run checkers, emit reports.

Exit codes: 0 when every check passes, 1 when at least one check fails,
2 on input or parse errors and on a block too large to check in memory.
With --report the structured JSON report is written next to the
human-readable output; identical input bytes always produce identical
report bytes.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .fields import FieldError, parse_field
from .parser import ParseError, StructureFile, parse
from .reporting import Report, emit, format_record
from .structures import (AlgebraData, CoalgebraData, HopfData, check_algebra,
                         check_bialgebra, check_coalgebra, check_hopf)
from .weak_crossed import (PreconditionError, check_cocycle, check_compat, check_nabla,
                           check_nonzero, check_normalized, check_preunit, check_twisted,
                           normalize_sigma, product_report)
from .partial_crossed import (TwistedPartialAction, partial_pipeline, partial_report,
                              theorem_equivalence_suite)
from .unified_product import (PreHopfObject, check_be, check_extending_datum,
                              check_nabla_identity, check_pre_hopf,
                              lemma_identities_report, multiplicativity_report,
                              theorem_equivalence_suite_unified, unified_pipeline)


def _fail_input(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load(path: str) -> tuple[StructureFile, bytes]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        _fail_input(f"{path}: {exc}")
    default_field = None
    env = os.environ.get("WCPX_FIELD")
    if env:
        try:
            default_field = parse_field(env)
        except FieldError as exc:
            _fail_input(f"WCPX_FIELD: {exc}")
    try:
        sf = parse(raw.decode("utf-8"), default_field)
    except UnicodeDecodeError as exc:
        _fail_input(f"{path}: not valid UTF-8: {exc}")
    except ParseError as exc:
        _fail_input(f"{path}: {exc}")
    return sf, raw


def _finish(report: Report, raw: bytes, report_path: str | None) -> None:
    for record in report.records:
        click.echo(format_record(record))
    for key, value in report.facts.items():
        click.echo(f"fact    {key} = {value}")
    counts = report.counts()
    summary = f"summary: {counts['pass']} pass, {counts['fail']} fail"
    if counts.get("skipped"):
        summary += f", {counts['skipped']} skipped"
    click.echo(summary)
    if report_path:
        digest = "sha256:" + hashlib.sha256(raw).hexdigest()
        Path(report_path).write_bytes(emit(report, __version__, digest))
    sys.exit(0 if report.passed else 1)


def _run(path: str, report_path: str | None, name: str | None, what: str,
         blocks, check) -> None:
    """Check every block of ``path`` that ``blocks(sf)`` lists and ``name``
    selects, each with ``check``, then print and exit as ``_finish`` does.

    Each record is stamped with the name of its block, and each fact is
    prefixed with it.  A block that exhausts memory ends the run as an
    input error.
    """
    sf, raw = _load(path)
    click.echo(f"field {sf.field}")
    selected = [(block, decl) for block, decl in blocks(sf) if name is None or block == name]
    if not selected:
        _fail_input(f"{path}: no {what} block"
                    + (f" named {name!r}" if name is not None else ""))
    report = Report()
    for block, decl in selected:
        try:
            sub = check(decl)
        except MemoryError:
            _fail_input(f"{path}: block {block!r} is too large to check: out of memory")
        report.records.extend(replace(r, subject=block) for r in sub.records)
        report.facts.update((f"{block}.{key}", value) for key, value in sub.facts.items())
    _finish(report, raw, report_path)


_path_argument = click.argument("path", type=click.Path(exists=False))
_report_option = click.option("--report", "report_path", type=click.Path(),
                              default=None, help="write the JSON report here")
_name_option = click.option("--name", default=None,
                            help="check only the named block")


@click.group()
@click.version_option(__version__, prog_name="wcpx")
def main() -> None:
    """Exact checkers for weak, partial and unified crossed products."""


def _structures(sf: StructureFile) -> list[tuple[str, object]]:
    tables = {"algebra": sf.algebras, "coalgebra": sf.coalgebras, "bialgebra": sf.bialgebras,
              "hopf": sf.hopf_algebras, "prehopf": sf.prehopf_objects}
    return [(block, tables[kind][block]) for kind, block in sf.order if kind in tables]


def _structure_report(s) -> Report:
    """The axioms of one structure; a bialgebra or Hopf algebra also gets
    those of its algebra and its coalgebra, first."""
    if isinstance(s, AlgebraData):
        return check_algebra(s)
    if isinstance(s, CoalgebraData):
        return check_coalgebra(s)
    if isinstance(s, PreHopfObject):
        return check_pre_hopf(s)
    report = check_algebra(s.algebra).extend(check_coalgebra(s.coalgebra))
    return report.extend(check_hopf(s) if isinstance(s, HopfData) else check_bialgebra(s))


@main.command("check-structure")
@_path_argument
@_report_option
@_name_option
def check_structure(path: str, report_path: str | None, name: str | None) -> None:
    """Validate the axioms of every declared structure."""
    _run(path, report_path, name, "structure", _structures, _structure_report)


def _gates(system) -> Report:
    """The compatibility, twisted and cocycle records of a declared system."""
    return Report([r for check in (check_compat, check_twisted, check_cocycle)
                   for r in check(system).records])


def _wcp_check(decl) -> Report:
    """The reported gates and, when they pass, the preunit laws of a declared
    preunit; a projector that is not left linear, or is zero, stops every
    build, so its failed record replaces the preunit laws."""
    system = decl.system
    report = _gates(system)
    nabla = check_nabla(system)
    report.add(nabla["wcp.nabla_idempotent"])
    report.extend(check_normalized(system))
    if decl.preunit is not None and report.passed:
        unbuildable = nabla.failures() or check_nonzero(system).failures()
        report.extend(Report(unbuildable[:1]) if unbuildable
                      else check_preunit(system, decl.preunit))
    return report


@main.command("wcp-check")
@_path_argument
@_report_option
@_name_option
def wcp_check(path: str, report_path: str | None, name: str | None) -> None:
    """Check the crossed-system conditions without building anything."""
    _run(path, report_path, name, "crossed_system",
         lambda sf: sf.crossed_systems.items(), _wcp_check)


def _wcp_build(decl) -> Report:
    system = decl.system
    report = _gates(system)
    if not report.passed:
        return report
    try:
        normalized = normalize_sigma(system)
    except PreconditionError as exc:
        report.add(exc.record)
        return report
    report.facts["sigma_normalized_changed"] = normalized is not system
    built, product = product_report(normalized, decl.preunit)
    report.extend(built)
    if product is not None:
        report.facts["nabla_rank"] = product.splitting.mid.total
        report.facts["product_dim"] = product.dim
    return report


@main.command("wcp-build")
@_path_argument
@_report_option
@_name_option
def wcp_build(path: str, report_path: str | None, name: str | None) -> None:
    """Build the crossed product, normalizing the cocycle map if needed."""
    _run(path, report_path, name, "crossed_system",
         lambda sf: sf.crossed_systems.items(), _wcp_build)


@main.command("partial-check")
@_path_argument
@_report_option
@_name_option
def partial_check(path: str, report_path: str | None, name: str | None) -> None:
    """Check the twisted-partial-action conditions."""
    _run(path, report_path, name, "partial_action",
         lambda sf: sf.partial_actions.items(), partial_report)


@main.command("partial-build")
@_path_argument
@_report_option
@_name_option
def partial_build(path: str, report_path: str | None, name: str | None) -> None:
    """Build the partial crossed product on the projector image."""
    _run(path, report_path, name, "partial_action",
         lambda sf: sf.partial_actions.items(), lambda act: partial_pipeline(act)[0])


def _unified_check(datum) -> Report:
    report = Report()
    for check in (check_extending_datum, multiplicativity_report, lemma_identities_report,
                  check_be, check_nabla_identity):
        report.extend(check(datum))
    return report


@main.command("unified-check")
@_path_argument
@_report_option
@_name_option
def unified_check(path: str, report_path: str | None, name: str | None) -> None:
    """Check the extending-datum conditions and BE1..BE7."""
    _run(path, report_path, name, "extending_datum",
         lambda sf: sf.extending_data.items(), _unified_check)


@main.command("unified-build")
@_path_argument
@_report_option
@_name_option
def unified_build(path: str, report_path: str | None, name: str | None) -> None:
    """Build the unified product on the full tensor space."""
    _run(path, report_path, name, "extending_datum",
         lambda sf: sf.extending_data.items(), lambda datum: unified_pipeline(datum)[0])


def _suite_inputs(sf: StructureFile) -> list[tuple[str, object]]:
    return [*sf.partial_actions.items(), *sf.extending_data.items()]


def _suite(data) -> Report:
    if isinstance(data, TwistedPartialAction):
        return theorem_equivalence_suite(data)
    return theorem_equivalence_suite_unified(data)


@main.command("equivalence-suite")
@_path_argument
@_report_option
@_name_option
def equivalence_suite(path: str, report_path: str | None, name: str | None) -> None:
    """Cross-check the partial and unified conditions against the quadruple ones."""
    _run(path, report_path, name, "partial_action or extending_datum", _suite_inputs, _suite)


if __name__ == "__main__":
    main()
