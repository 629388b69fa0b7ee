import hashlib
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mutants import COMMANDS, constant_spans
from wcpx import cli
from wcpx.cli import main
from wcpx.reporting import ANCHORS

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
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


@pytest.mark.parametrize("text, env, message", [
    ("field F²\nalgebra A dim 1\n", None,
     "line 1, col 7: unknown field 'F²' (expected Q or F<p>)"),
    ("algebra A dim 1\n", {"WCPX_FIELD": "F²"},
     "WCPX_FIELD: unknown field 'F²' (expected Q or F<p>)"),
], ids=["declared", "environment"])
def test_superscript_characteristic_exits_two_with_one_line(tmp_path, text, env, message):
    path = tmp_path / "field.wx"
    path.write_text(text, encoding="utf-8")
    result = run("check-structure", path, env=env)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 2, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {path}: {message}" if env is None else f"error: {message}"]


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


@pytest.mark.parametrize("command", ["wcp-build", "wcp-check", "partial-build"])
def test_zero_projector_fails_with_named_record(tmp_path, command):
    zero = tmp_path / "zero_projector.wx"
    if command == "partial-build":
        # A has unit 0, so the projector a (x) h -> a (h1 . 1) (x) h2 is zero;
        # with the cocycle zero too, every partial condition still holds, and
        # none of them sees that H's product is broken as well (g.1 = 2g)
        text, subject = (FIXTURES / "partial_lambda_zero.wx").read_text(), "vanishing"
        for old, new in (("mul 2 1 : 2=1\n", "mul 2 1 : 2=2\n"), ("unit: 1\n", "unit: 0\n"),
                         ("morphism coc : H⊗H -> A\ne 1 : 1=1\n",
                          "morphism coc : H⊗H -> A\ne 1 : 1=0\n")):
            assert text.count(old) == 1
            text = text.replace(old, new)
        zero.write_text(text)
    else:
        # with the twisting and cocycle maps emptied every gate holds but the
        # projector is zero, so there is no image to build the product on
        text, subject = (FIXTURES / "tensor_wcp.wx").read_text(), "tensor"
        emptied = re.sub(r"(morphism (?:tw|coc) : .*\n)(?:e .*\n)+", r"\1", text)
        assert emptied.count("\ne ") == 1  # only the preunit keeps its entry
        zero.write_text(emptied)
    out = tmp_path / "report.json"
    result = run(command, zero, "--report", out)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1, result.output
    checks = json.loads(out.read_text())["checks"]
    assert [c["status"] for c in checks[:-1]] == ["pass"] * (len(checks) - 1)
    assert checks[-1] == {"anchor": "induced projector is nonzero", "check": "wcp.nabla_nonzero",
                          "note": "the image of the projector is the zero space",
                          "status": "fail", "subject": subject}


@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_fixture_never_raises(tmp_path, data):
    # one to three structure constants of a shipped fixture changed: every
    # command answers with exit 0, 1 or 2, never with a traceback
    text = data.draw(st.sampled_from(sorted(FIXTURES.glob("*.wx")))).read_text()
    spans = data.draw(st.lists(st.sampled_from(constant_spans(text)),
                               min_size=1, max_size=3, unique=True))
    for start, end in sorted(spans, reverse=True):
        text = text[:start] + data.draw(st.sampled_from(["0", "1", "-1", "2", "1/2"])) + text[end:]
    mutant = tmp_path / "mutant.wx"
    mutant.write_text(text)
    for command in COMMANDS:
        result = run(command, mutant)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            command, text, result.exception)
        assert result.exit_code in (0, 1, 2), (command, text, result.output)


# A valid prefix declaring A, H and two morphisms, for generated lines to refer to.
GRAMMAR_PREFIX = """field Q
algebra A dim 2
unit: 1 0
mul 1 1 : 1=1
mul 1 2 : 2=1
mul 2 1 : 2=1
mul 2 2 : 1=1
hopf H dim 1
unit: 1
mul 1 1 : 1=1
counit: 1
comul 1 : (1,1)=1
antipode 1 : 1=1
morphism f : H⊗A -> A
e 1 : 1=1
e 2 : 2=1
morphism g : H⊗H -> A
e 1 : 1=1
"""
GRAMMAR_ATOMS = (
    "field", "algebra", "coalgebra", "bialgebra", "hopf", "prehopf", "morphism",
    "crossed_system", "partial_action", "extending_datum", "unit", "counit", "mul", "comul",
    "antipode", "e", "dim", "K", "Q", "F2", "F²", "v", "psi", "sigma", "preunit", "phi",
    "omega", "A", "H", "f", "g", "x", "0", "1", "2", "²", "٣", "1/2",
    ":", "->", "⊗", "*", "=", "(", ",", ")")
# Every number a line can hold is a single decimal digit: a declared dimension
# costs memory in proportion to it (one row dict per target row of every map).
grammar_line = st.lists(
    st.tuples(st.one_of(st.sampled_from(GRAMMAR_ATOMS),
                        st.text(st.characters(exclude_categories=("Cs", "Nd")), max_size=3)),
              st.sampled_from(["", " "])),
    min_size=1, max_size=8,
).map(lambda atoms: "".join(atom + sep for atom, sep in atoms)).filter(
    lambda line: not re.search(r"\d\d", line))


@given(prefix=st.booleans(), lines=st.lists(grammar_line, min_size=1, max_size=3),
       command=st.sampled_from(COMMANDS))
@example(prefix=False, lines=[":"], command="check-structure")
@example(prefix=True, lines=["  : x"], command="check-structure")
@example(prefix=True, lines=["algebra X dim ²"], command="check-structure")
@example(prefix=True, lines=["morphism m : ² -> 1"], command="check-structure")
@example(prefix=True, lines=["crossed_system c : algebra=A v=² psi=f sigma=g"],
         command="wcp-check")
@example(prefix=False, lines=["field F²"], command="check-structure")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_grammar_lines_never_raise(tmp_path, prefix, lines, command):
    # lines built from the grammar's keywords, names, numbers and separators and
    # from arbitrary text: exit 0, 1 or 2, never a traceback, one error line on 2
    text = (GRAMMAR_PREFIX if prefix else "") + "".join(line + "\n" for line in lines)
    path = tmp_path / "grammar.wx"
    path.write_text(text, encoding="utf-8")
    result = run(command, path)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        text, result.exception)
    assert result.exit_code in (0, 1, 2), (text, result.output)
    if result.exit_code == 2:
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, (text, result.output)


def test_out_of_memory_in_a_check_exits_two_with_one_line(monkeypatch):
    def exhausted(algebra):
        raise MemoryError

    monkeypatch.setattr(cli, "check_algebra", exhausted)
    result = run("check-structure", FIXTURES / "broken_unit.wx")
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 2, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {FIXTURES / 'broken_unit.wx'}: block 'broken' "
                      "is too large to check: out of memory"]
    assert "Traceback" not in result.output


def test_mis_shaped_psi_exits_two_at_its_declaration(tmp_path):
    text = (FIXTURES / "tensor_wcp.wx").read_text()
    swap = "morphism tw : 2⊗A -> A⊗2\ne 1 : 1=1\ne 2 : 3=1\ne 3 : 2=1\ne 4 : 4=1\n"
    assert swap in text
    bad = tmp_path / "bad_psi.wx"
    bad.write_text(text.replace(swap, "morphism tw : 2⊗A -> A\ne 1 : 1=1\n"))
    line = bad.read_text().splitlines().index(
        "crossed_system tensor : algebra=A v=2 psi=tw sigma=coc preunit=pre") + 1
    result = run("wcp-check", bad)
    assert result.exit_code == 2, result.output
    assert f"line {line}, col 1: psi must map V⊗A -> A⊗V" in result.output


def test_zero_factor_in_a_shape_exits_two_with_one_line(tmp_path):
    bad = tmp_path / "zero.wx"
    bad.write_text("field Q\nmorphism f : 0 -> 2\n")
    result = run("check-structure", bad)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 2, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {bad}: line 2, col 14: zero factor in shape '0'"]


# exit code and report SHA-256 of every command on every fixture, as the
# benchmark's outcome checker pins them
FIXTURE_PINS = json.loads((ROOT / "bench" / "pins.json").read_text(encoding="utf-8"))["fixtures"]


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.wx")))
@pytest.mark.parametrize("command", COMMANDS)
def test_fixture_report_matches_its_pin(tmp_path, command, fixture):
    pin = FIXTURE_PINS[f"fixture:{command} {fixture}"]
    out = tmp_path / "report.json"
    result = run(command, FIXTURES / fixture, "--report", out)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    assert (result.exit_code, digest) == (pin["exit"], pin["report_sha256"])


def test_check_structure_stamps_each_record_with_its_block(tmp_path):
    # partial_smash.wx declares the Hopf algebra H and the algebra A; two more
    # algebras follow, the first with a broken unit
    text = (FIXTURES / "partial_smash.wx").read_text(encoding="utf-8")
    several = tmp_path / "several.wx"
    several.write_text(text + "\nalgebra Z dim 1\nunit: 2\nmul 1 1 : 1=1\n"
                              "\nalgebra M dim 1\nunit: 1\nmul 1 1 : 1=1\n")
    out = tmp_path / "report.json"
    result = run("check-structure", several, "--report", out)
    assert result.exit_code == 1, result.output
    checks = json.loads(out.read_text())["checks"]
    algebra = ["algebra.unit_left", "algebra.unit_right", "algebra.assoc"]
    coalgebra = ["coalgebra.counit_left", "coalgebra.counit_right", "coalgebra.coassoc"]
    hopf = ["bialgebra.comul_mult", "bialgebra.counit_mult", "bialgebra.comul_unit",
            "bialgebra.counit_unit", "hopf.antipode_left", "hopf.antipode_right"]
    expected = ([("H", check) for check in algebra + coalgebra + hopf]
                + [(block, check) for block in ("A", "Z", "M") for check in algebra])
    assert [(c["subject"], c["check"]) for c in checks] == expected
    assert [c["subject"] for c in checks if c["status"] == "fail"] == ["Z", "Z"]
    assert "fail    [Z] algebra.unit_left" in result.output
