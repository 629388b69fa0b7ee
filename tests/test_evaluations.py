"""Every check is evaluated at most once per block that a run covers."""

import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from wcpx import partial_crossed as pc
from wcpx import reporting
from wcpx import unified_product as up
from wcpx import weak_crossed as wc
from wcpx.cli import main
from wcpx.fields import QQ
from wcpx.parser import parse
from wcpx.partial_crossed import (partial_pipeline, partial_smash_action,
                                  theorem_equivalence_suite)
from wcpx.unified_product import (s3_smash_datum, theorem_equivalence_suite_unified,
                                  unified_pipeline)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
STRUCTURES = ("algebra", "coalgebra", "bialgebra", "hopf", "prehopf")

# command -> the number of blocks of a parsed file that it checks
BLOCKS = {
    "check-structure": lambda sf: sum(kind in STRUCTURES for kind, _ in sf.order),
    "wcp-check": lambda sf: len(sf.crossed_systems),
    "wcp-build": lambda sf: len(sf.crossed_systems),
    "partial-check": lambda sf: len(sf.partial_actions),
    "partial-build": lambda sf: len(sf.partial_actions),
    "unified-check": lambda sf: len(sf.extending_data),
    "unified-build": lambda sf: len(sf.extending_data),
    "equivalence-suite": lambda sf: len(sf.partial_actions) + len(sf.extending_data),
}


@pytest.fixture
def evaluations(monkeypatch):
    """Check id -> number of equality_record calls, in every module that imports it."""
    counts = Counter()
    original = reporting.equality_record

    def counted(check_id, *args, **kwargs):
        counts[check_id] += 1
        return original(check_id, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("wcpx") and getattr(module, "equality_record", None) is original:
            monkeypatch.setattr(module, "equality_record", counted)
    return counts


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.wx")))
@pytest.mark.parametrize("command", sorted(BLOCKS))
def test_cli_evaluates_each_check_once_per_block(command, fixture, evaluations):
    path = FIXTURES / fixture
    blocks = BLOCKS[command](parse(path.read_text(encoding="utf-8")))
    result = CliRunner().invoke(main, [command, str(path)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in ((2,) if blocks == 0 else (0, 1)), result.output
    repeated = {check: n for check, n in evaluations.items() if n > blocks}
    assert not repeated, f"{command} on {fixture} ({blocks} blocks): {repeated}"


def test_wcp_check_builds_no_product(evaluations, monkeypatch):
    original = wc.build_products

    def refused(system):
        raise AssertionError("wcp-check built a crossed product")

    for name, module in list(sys.modules.items()):
        if name.startswith("wcpx") and getattr(module, "build_products", None) is original:
            monkeypatch.setattr(module, "build_products", refused)
    result = CliRunner().invoke(main, ["wcp-check", str(FIXTURES / "tensor_wcp.wx")])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 0, result.output
    # 3 reported gates, 2 projector checks, normalization and 6 preunit laws
    assert sum(evaluations.values()) <= 12, evaluations


@pytest.mark.parametrize("pipeline, example", [(partial_pipeline, partial_smash_action),
                                               (unified_pipeline, s3_smash_datum)])
def test_pipelines_evaluate_each_check_once(pipeline, example, evaluations):
    report, product = pipeline(example(QQ))
    assert product is not None and report.passed
    repeated = {check: n for check, n in evaluations.items() if n > 1}
    assert not repeated, repeated


@pytest.mark.parametrize("pipeline, suite, example", [
    (partial_pipeline, theorem_equivalence_suite, partial_smash_action),
    (unified_pipeline, theorem_equivalence_suite_unified, s3_smash_datum)])
def test_suite_shares_the_quadruple_checks_of_the_pipeline(pipeline, suite, example,
                                                            evaluations):
    data = example(QQ)
    assert pipeline(data)[0].passed
    assert suite(data).passed
    assert evaluations["wcp.twisted"] == evaluations["wcp.cocycle"] == 1


def test_partial_suite_shares_the_induced_forms_of_the_pipeline(evaluations):
    act = partial_smash_action(QQ)
    assert partial_pipeline(act)[0].passed
    assert theorem_equivalence_suite(act).passed
    assert evaluations["partial.twist"] == evaluations["partial.cocycle"] == 1


def test_cocycle_absorption_is_evaluated_once_for_both_forms(evaluations):
    report = pc.check_partial_action(partial_smash_action(QQ))
    composite = report["partial.cocycle_absorb_composite"]
    induced = report["partial.cocycle_absorb"]
    assert (composite.status, composite.witness) == (induced.status, induced.witness)
    assert composite.anchor == reporting.ANCHORS["partial.cocycle_absorb_composite"]
    assert report["partial.cocycle_absorb_forms_agree"].passed
    assert evaluations["partial.cocycle_absorb"] == 1
    assert evaluations["partial.cocycle_absorb_composite"] == 0


@pytest.mark.parametrize("module, example, runs", [
    (pc, partial_smash_action,
     (pc.lemma_report, partial_pipeline, theorem_equivalence_suite)),
    (up, s3_smash_datum,
     (up.lemma_identities_report, up.check_be, up.check_nabla_identity, unified_pipeline,
      theorem_equivalence_suite_unified))])
def test_induced_maps_are_built_once_per_input(module, example, runs, monkeypatch):
    calls = Counter()
    for name in ("induced_psi", "induced_sigma"):
        def counted(data, name=name, original=getattr(module, name)):
            calls[name] += 1
            return original(data)
        monkeypatch.setattr(module, name, counted)
    data = example(QQ)
    for run in runs:
        run(data)
    assert calls == {"induced_psi": 1, "induced_sigma": 1}
