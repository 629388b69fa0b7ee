import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from wcpx.cli import main
from wcpx.reporting import ANCHORS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(*args, env=None):
    return CliRunner().invoke(main, [str(a) for a in args], env=env)


def test_partial_build_smash():
    result = run("partial-build", FIXTURES / "partial_smash.wx")
    assert result.exit_code == 0, result.output
    assert "smash.nabla_rank = 3" in result.output
    assert "smash.product_dim = 3" in result.output
    assert "0 fail" in result.output


def test_partial_build_vanishing_rank_one():
    result = run("partial-build", FIXTURES / "partial_lambda_zero.wx")
    assert result.exit_code == 0
    assert "vanishing.nabla_rank = 1" in result.output


def test_unified_build_smash():
    result = run("unified-build", FIXTURES / "smash_s3.wx")
    assert result.exit_code == 0, result.output
    assert "s3.nabla_is_identity = True" in result.output
    assert "s3.product_dim = 6" in result.output


def test_unified_build_trivial():
    result = run("unified-build", FIXTURES / "unified_trivial.wx")
    assert result.exit_code == 0
    assert "trivial.product_dim = 4" in result.output


def test_wcp_build_tensor_system():
    result = run("wcp-build", FIXTURES / "tensor_wcp.wx")
    assert result.exit_code == 0, result.output
    assert "tensor.sigma_normalized_changed = False" in result.output
    assert "tensor.nabla_rank = 4" in result.output


def test_check_structure_reports_witness_and_fails():
    result = run("check-structure", FIXTURES / "broken_unit.wx")
    assert result.exit_code == 1
    assert "witness" in result.output
    assert "left unit law" in result.output


def test_partial_check_broken_cocycle_fails():
    result = run("partial-check", FIXTURES / "partial_smash_broken.wx")
    assert result.exit_code == 1
    assert "partial.cocycle" in result.output


def test_equivalence_suite_passes_even_on_broken_input():
    result = run("equivalence-suite", FIXTURES / "partial_smash_broken.wx")
    assert result.exit_code == 0, result.output
    assert "partial side fail, quadruple side fail" in result.output


def test_equivalence_suite_unified():
    result = run("equivalence-suite", FIXTURES / "smash_s3.wx")
    assert result.exit_code == 0
    assert "unified.thm_cocycle_backward" in result.output


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.wx"
    bad.write_text("algebra A dim 2\nmul 3 1 : 1=1\n")
    result = run("check-structure", bad)
    assert result.exit_code == 2
    assert "line 2" in result.output


def test_missing_block_exits_two():
    result = run("partial-check", FIXTURES / "broken_unit.wx")
    assert result.exit_code == 2
    assert "no partial_action block" in result.output


def test_missing_file_exits_two(tmp_path):
    result = run("partial-check", tmp_path / "nope.wx")
    assert result.exit_code == 2


def test_named_block_selection():
    result = run("check-structure", FIXTURES / "partial_smash.wx", "--name", "H")
    assert result.exit_code == 0
    assert "[A]" not in result.output


def test_field_env_override(tmp_path):
    fieldless = tmp_path / "plain.wx"
    fieldless.write_text("algebra A dim 1\nunit: 1\nmul 1 1 : 1=1\n")
    result = run("check-structure", fieldless, env={"WCPX_FIELD": "F5"})
    assert result.exit_code == 0
    assert "field F5" in result.output
    result = run("check-structure", fieldless)
    assert "field Q" in result.output


def test_declared_field_wins_over_env():
    result = run("check-structure", FIXTURES / "broken_unit.wx",
                 env={"WCPX_FIELD": "F5"})
    assert "field Q" in result.output


def test_report_bytes_are_deterministic(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    run("partial-build", FIXTURES / "partial_smash.wx", "--report", first)
    run("partial-build", FIXTURES / "partial_smash.wx", "--report", second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("command,fixture,golden", [
    ("partial-build", "partial_smash.wx", "partial_smash_report.json"),
    ("check-structure", "broken_unit.wx", "broken_unit_report.json"),
])
def test_report_matches_golden_file(tmp_path, command, fixture, golden):
    out = tmp_path / "report.json"
    run(command, FIXTURES / fixture, "--report", out)
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_report_checks_map_to_anchor_table(tmp_path):
    out = tmp_path / "report.json"
    run("unified-build", FIXTURES / "smash_s3.wx", "--report", out)
    doc = json.loads(out.read_text())
    for record in doc["checks"]:
        assert ANCHORS[record["check"]] == record["anchor"]
    assert doc["input_digest"].startswith("sha256:")


def test_huge_characteristic_exits_two(tmp_path):
    huge = tmp_path / "huge.wx"
    huge.write_text("field F" + "9" * 40 + "\n\nalgebra A dim 1\nunit: 1\nmul 1 1 : 1=1\n")
    result = run("check-structure", huge)
    assert result.exit_code == 2
    assert "too large" in result.output


def test_wcp_build_non_idempotent_projector_fails_with_witness(tmp_path):
    # 1*1 = 1/2 keeps psi compatible but breaks the unit, so the induced
    # projector is not idempotent; written under tmp_path, not fixtures/
    text = (FIXTURES / "tensor_wcp.wx").read_text()
    assert "mul 1 1 : 1=1\n" in text
    broken = tmp_path / "half_unit.wx"
    broken.write_text(text.replace("mul 1 1 : 1=1\n", "mul 1 1 : 1=1/2\n"))
    out = tmp_path / "report.json"
    result = run("wcp-build", broken, "--report", out)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1, result.output
    record = json.loads(out.read_text())["checks"][-1]
    assert (record["check"], record["status"], record["subject"]) == (
        "wcp.nabla_idempotent", "fail", "tensor")
    assert record["witness"] == {"col": 1, "row": 1, "source_index": [1, 1],
                                 "target_index": [1, 1], "left": "1/4", "right": "1/2"}


@pytest.mark.parametrize("command", ["wcp-build", "wcp-check"])
def test_zero_projector_fails_with_named_record(tmp_path, command):
    # with the twisting and cocycle maps emptied every gate holds but the
    # projector is zero, so there is no image to build the product on
    text = (FIXTURES / "tensor_wcp.wx").read_text()
    emptied = re.sub(r"(morphism (?:tw|coc) : .*\n)(?:e .*\n)+", r"\1", text)
    assert emptied.count("\ne ") == 1  # only the preunit keeps its entry
    zero = tmp_path / "zero_projector.wx"
    zero.write_text(emptied)
    out = tmp_path / "report.json"
    result = run(command, zero, "--report", out)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1, result.output
    checks = json.loads(out.read_text())["checks"]
    assert [c["status"] for c in checks[:-1]] == ["pass"] * (len(checks) - 1)
    assert checks[-1] == {"anchor": "induced projector is nonzero", "check": "wcp.nabla_nonzero",
                          "note": "the image of the projector is the zero space",
                          "status": "fail", "subject": "tensor"}
