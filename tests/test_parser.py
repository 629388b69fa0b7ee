from pathlib import Path

import pytest

from wcpx.fields import QQ, prime_field
from wcpx.linmaps import LinMap, equals
from wcpx.parser import ParseError, emit_structure_file, parse
from wcpx.structures import check_algebra, check_hopf, group_algebra
from wcpx.partial_crossed import partial_report

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MINIMAL_KC2 = """\
field Q
algebra A dim 2
unit: 1 0
mul 1 1 : 1=1
mul 1 2 : 2=1
mul 2 1 : 2=1
mul 2 2 : 1=1
"""


def test_minimal_algebra_file():
    sf = parse(MINIMAL_KC2)
    a = sf.algebras["A"]
    assert a.dim == 2
    assert equals(a.mul, group_algebra(2, QQ).mul)
    assert check_algebra(a).passed


def test_out_of_range_index_reports_line():
    text = MINIMAL_KC2 + "mul 2 2 : 3=1\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 8
    assert "out of range" in err.value.message


def test_scalar_must_live_in_the_field():
    text = "field F2\nalgebra A dim 1\nunit: 1\nmul 1 1 : 1=1/2\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 4


def test_unknown_reference():
    with pytest.raises(ParseError) as err:
        parse("field Q\nmorphism f : A -> A\n")
    assert "unknown structure" in err.value.message


def test_names_must_be_declared_before_use():
    text = ("field Q\npartial_action p : hopf=H algebra=A phi=f omega=g\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "unknown" in err.value.message


def test_duplicate_names_rejected():
    with pytest.raises(ParseError) as err:
        parse("algebra A dim 1\nunit: 1\nalgebra A dim 2\n")
    assert "already declared" in err.value.message


def test_field_must_come_first():
    with pytest.raises(ParseError) as err:
        parse("algebra A dim 1\nunit: 1\nfield Q\n")
    assert "before any block" in err.value.message


def test_body_line_outside_block():
    with pytest.raises(ParseError):
        parse("unit: 1\n")
    with pytest.raises(ParseError):
        parse("e 1 : 1=1\n")


def test_default_field_applies_when_undeclared():
    sf = parse("algebra A dim 1\nunit: 1\nmul 1 1 : 1=1\n", prime_field(5))
    assert sf.field == prime_field(5)
    assert not sf.field_declared
    assert parse("algebra A dim 1\nunit: 1\n").field == QQ


def test_morphism_from_base_object():
    sf = parse("field Q\nmorphism nu : K -> 2⊗2\ne 1 : 1=1\n")
    nu = sf.morphisms["nu"]
    assert nu.source.total == 1 and nu.target.total == 4


def test_comments_and_blank_lines_ignored():
    sf = parse("# heading\n\nfield Q  # trailing\nalgebra A dim 1  # comment\nunit: 1\n")
    assert sf.algebras["A"].dim == 1


def test_shipped_partial_smash_round_trip_checks():
    sf = parse((FIXTURES / "partial_smash.wx").read_text())
    action = sf.partial_actions["smash"].action
    assert partial_report(action).passed


def test_shipped_hopf_blocks_validate():
    sf = parse((FIXTURES / "partial_smash.wx").read_text())
    assert check_hopf(sf.hopf_algebras["H"]).passed


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.wx")))
def test_parse_emit_round_trip_is_lossless(name):
    original = parse((FIXTURES / name).read_text())
    emitted = emit_structure_file(original)
    assert parse(emitted) == original
    # and emission is a fixed point
    assert emit_structure_file(parse(emitted)) == emitted


def test_blocks_build_only_the_maps_of_their_kind(monkeypatch):
    # an algebra block builds no counit or comul; at dim 100000 the comul
    # alone would have 10^10 rows, so the spy refuses to build it
    build = LinMap.from_dict.__func__
    targets = []

    def spy(cls, field, source, target, values):
        targets.append(target.total)
        assert target.total <= 100000, f"parse builds a map with {target.total} rows"
        return build(cls, field, source, target, values)

    monkeypatch.setattr(LinMap, "from_dict", classmethod(spy))
    dim = 100000
    sf = parse(f"field Q\nalgebra A dim {dim}\nunit: 1{' 0' * (dim - 1)}\nmul 1 1 : 1=1\n")
    assert sf.algebras["A"].dim == dim
    assert targets == [dim, dim]  # unit K -> A and mul A⊗A -> A
    targets.clear()
    sf = parse("field Q\ncoalgebra C dim 2\ncounit: 1 1\ncomul 1 : (1,1)=1\ncomul 2 : (2,2)=1\n")
    assert sf.coalgebras["C"].dim == 2
    assert targets == [1, 4]  # counit C -> K and comul C -> C⊗C
