"""The wcpx command line: parse structure files, run checkers, emit reports.

Exit codes: 0 when every check passes, 1 when at least one check fails,
2 on input or parse errors.  With --report the structured JSON report is
written next to the human-readable output; identical input bytes always
produce identical report bytes.
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
from .reporting import Report, emit, equality_record, format_record
from .structures import (check_algebra, check_bialgebra, check_coalgebra,
                         check_hopf)
from .weak_crossed import (CrossedSystem, PreconditionError, build_algebra,
                           build_products, check_normalized, check_preunit,
                           compat_report, algebra_checks, cocycle_sides, nabla_of,
                           normalize_sigma, product_checks, twisted_sides)
from .partial_crossed import partial_pipeline, partial_report, theorem_equivalence_suite
from .unified_product import (check_be, check_extending_datum,
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


def _select(table: dict, name: str | None, what: str, path: str) -> list[tuple[str, object]]:
    if name is not None:
        if name not in table:
            _fail_input(f"{path}: no {what} block named {name!r}")
        return [(name, table[name])]
    if not table:
        _fail_input(f"{path}: no {what} block")
    return list(table.items())


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


def _merge(report: Report, sub: Report, subject: str) -> None:
    report.records.extend(sub.records)
    for key, value in sub.facts.items():
        report.facts[f"{subject}.{key}"] = value


_path_argument = click.argument("path", type=click.Path(exists=False))
_report_option = click.option("--report", "report_path", type=click.Path(),
                              default=None, help="write the JSON report here")
_name_option = click.option("--name", default=None,
                            help="check only the named block")


@click.group()
@click.version_option(__version__, prog_name="wcpx")
def main() -> None:
    """Exact checkers for weak, partial and unified crossed products."""


@main.command("check-structure")
@_path_argument
@_report_option
@_name_option
def check_structure(path: str, report_path: str | None, name: str | None) -> None:
    """Validate the axioms of every declared structure."""
    sf, raw = _load(path)
    click.echo(f"field {sf.field}")
    report = Report()
    checked = False
    for kind, block_name in sf.order:
        if name is not None and block_name != name:
            continue
        if kind == "algebra":
            report.extend(check_algebra(sf.algebras[block_name], block_name))
        elif kind == "coalgebra":
            report.extend(check_coalgebra(sf.coalgebras[block_name], block_name))
        elif kind == "bialgebra":
            b = sf.bialgebras[block_name]
            report.extend(check_algebra(b.algebra, block_name))
            report.extend(check_coalgebra(b.coalgebra, block_name))
            report.extend(check_bialgebra(b, block_name))
        elif kind == "hopf":
            h = sf.hopf_algebras[block_name]
            report.extend(check_algebra(h.algebra, block_name))
            report.extend(check_coalgebra(h.coalgebra, block_name))
            report.extend(check_hopf(h, block_name))
        elif kind == "prehopf":
            report.extend(check_pre_hopf(sf.prehopf_objects[block_name], block_name))
        else:
            continue
        checked = True
    if not checked:
        _fail_input(f"{path}: no structure block" + (f" named {name!r}" if name else ""))
    _finish(report, raw, report_path)


def _crossed_check(decl, subject: str) -> Report:
    report = Report()
    report.extend(compat_report(decl.algebra, decl.psi, decl.vdim, subject))
    report.add(equality_record("wcp.twisted",
                               *twisted_sides(decl.algebra, decl.psi, decl.sigma, decl.vdim),
                               subject=subject))
    report.add(equality_record("wcp.cocycle",
                               *cocycle_sides(decl.algebra, decl.psi, decl.sigma, decl.vdim),
                               subject=subject))
    nabla = nabla_of(decl.algebra, decl.psi, decl.vdim)
    report.add(equality_record("wcp.nabla_idempotent", nabla @ nabla, nabla, subject))
    report.add(equality_record("wcp.sigma_normalized", nabla @ decl.sigma, decl.sigma, subject))
    if decl.preunit is not None and report.passed:
        system = CrossedSystem(decl.algebra, decl.vdim, decl.psi, decl.sigma)
        try:
            product = build_products(system)
        except PreconditionError as exc:
            report.add(replace(exc.record, subject=subject))
        else:
            report.extend(check_preunit(product, decl.preunit, subject))
    return report


@main.command("wcp-check")
@_path_argument
@_report_option
@_name_option
def wcp_check(path: str, report_path: str | None, name: str | None) -> None:
    """Check the crossed-system conditions without building anything."""
    sf, raw = _load(path)
    click.echo(f"field {sf.field}")
    report = Report()
    for block_name, decl in _select(sf.crossed_systems, name, "crossed_system", path):
        report.extend(_crossed_check(decl, block_name))
    _finish(report, raw, report_path)


@main.command("wcp-build")
@_path_argument
@_report_option
@_name_option
def wcp_build(path: str, report_path: str | None, name: str | None) -> None:
    """Build the crossed product, normalizing the cocycle map if needed."""
    sf, raw = _load(path)
    click.echo(f"field {sf.field}")
    report = Report()
    for block_name, decl in _select(sf.crossed_systems, name, "crossed_system", path):
        gates = Report()
        gates.extend(compat_report(decl.algebra, decl.psi, decl.vdim, block_name))
        gates.add(equality_record(
            "wcp.twisted",
            *twisted_sides(decl.algebra, decl.psi, decl.sigma, decl.vdim),
            subject=block_name))
        gates.add(equality_record(
            "wcp.cocycle",
            *cocycle_sides(decl.algebra, decl.psi, decl.sigma, decl.vdim),
            subject=block_name))
        report.records.extend(gates.records)
        if not gates.passed:
            continue
        system = CrossedSystem(decl.algebra, decl.vdim, decl.psi, decl.sigma)
        try:
            normalized = normalize_sigma(system)
            report.facts[f"{block_name}.sigma_normalized_changed"] = normalized is not system
            report.extend(check_normalized(normalized, block_name))
            product = build_products(normalized)
        except PreconditionError as exc:
            # every error raised on this path carries its failed record
            report.add(replace(exc.record, subject=block_name))
            continue
        sub = Report()
        sub.extend(product_checks(product, block_name))
        sub.facts["nabla_rank"] = product.splitting.mid.total
        sub.facts["product_dim"] = product.dim
        if decl.preunit is not None:
            pre = check_preunit(product, decl.preunit, block_name)
            sub.extend(pre)
            if pre.passed:
                completed = build_algebra(product, decl.preunit)
                sub.extend(algebra_checks(completed, block_name))
        _merge(report, sub, block_name)
    _finish(report, raw, report_path)


@main.command("partial-check")
@_path_argument
@_report_option
@_name_option
def partial_check(path: str, report_path: str | None, name: str | None) -> None:
    """Check the twisted-partial-action conditions."""
    sf, raw = _load(path)
    click.echo(f"field {sf.field}")
    report = Report()
    for block_name, decl in _select(sf.partial_actions, name, "partial_action", path):
        report.extend(partial_report(decl.action, block_name))
    _finish(report, raw, report_path)


@main.command("partial-build")
@_path_argument
@_report_option
@_name_option
def partial_build(path: str, report_path: str | None, name: str | None) -> None:
    """Build the partial crossed product on the projector image."""
    sf, raw = _load(path)
    click.echo(f"field {sf.field}")
    report = Report()
    for block_name, decl in _select(sf.partial_actions, name, "partial_action", path):
        sub, _product = partial_pipeline(decl.action, block_name)
        _merge(report, sub, block_name)
    _finish(report, raw, report_path)


@main.command("unified-check")
@_path_argument
@_report_option
@_name_option
def unified_check(path: str, report_path: str | None, name: str | None) -> None:
    """Check the extending-datum conditions and BE1..BE7."""
    sf, raw = _load(path)
    click.echo(f"field {sf.field}")
    report = Report()
    for block_name, decl in _select(sf.extending_data, name, "extending_datum", path):
        d = decl.datum
        report.extend(check_extending_datum(d, block_name))
        report.extend(multiplicativity_report(d, block_name))
        report.extend(lemma_identities_report(d, block_name))
        report.extend(check_be(d, block_name))
        report.extend(check_nabla_identity(d, block_name))
    _finish(report, raw, report_path)


@main.command("unified-build")
@_path_argument
@_report_option
@_name_option
def unified_build(path: str, report_path: str | None, name: str | None) -> None:
    """Build the unified product on the full tensor space."""
    sf, raw = _load(path)
    click.echo(f"field {sf.field}")
    report = Report()
    for block_name, decl in _select(sf.extending_data, name, "extending_datum", path):
        sub, _product = unified_pipeline(decl.datum, block_name)
        _merge(report, sub, block_name)
    _finish(report, raw, report_path)


@main.command("equivalence-suite")
@_path_argument
@_report_option
@_name_option
def equivalence_suite(path: str, report_path: str | None, name: str | None) -> None:
    """Cross-check the partial and unified conditions against the quadruple ones."""
    sf, raw = _load(path)
    click.echo(f"field {sf.field}")
    report = Report()
    found = False
    for block_name, decl in sf.partial_actions.items():
        if name is not None and block_name != name:
            continue
        report.extend(theorem_equivalence_suite(decl.action, block_name))
        found = True
    for block_name, decl in sf.extending_data.items():
        if name is not None and block_name != name:
            continue
        report.extend(theorem_equivalence_suite_unified(decl.datum, block_name))
        found = True
    if not found:
        _fail_input(f"{path}: no partial_action or extending_datum block"
                    + (f" named {name!r}" if name else ""))
    _finish(report, raw, report_path)


if __name__ == "__main__":
    main()
