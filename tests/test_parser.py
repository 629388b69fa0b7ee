from pathlib import Path

import pytest

from catalog import group_algebra
from wcpx.fields import QQ, prime_field
from wcpx.linmaps import LinMap, equals
from wcpx.parser import ParseError, parse
from wcpx.structures import check_algebra, check_hopf
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
    assert partial_report(sf.partial_actions["smash"]).passed


def test_shipped_hopf_blocks_validate():
    sf = parse((FIXTURES / "partial_smash.wx").read_text())
    assert check_hopf(sf.hopf_algebras["H"]).passed


@pytest.mark.parametrize("line, col, shape", [
    ("morphism f : 0 -> 2", 14, "0"),
    ("morphism f : 2⊗ 00 -> 2", 17, "2⊗ 00"),
    ("morphism f10 : 2*10 -> 0", 24, "0"),  # not the 0 of f10 or of 10
], ids=["alone", "after-a-factor", "after-other-zeros"])
def test_zero_factor_in_a_shape_is_a_parse_error_at_its_column(line, col, shape):
    with pytest.raises(ParseError) as err:
        parse(f"field Q\n{line}\n")
    assert (err.value.line, err.value.col) == (2, col)
    assert err.value.message == f"zero factor in shape {shape!r}"


# One case per error that names a token: in each up to the field case, the
# offending text also occurs earlier on the line, and the column is that of
# the token itself.
Q = "field Q\n"


@pytest.mark.parametrize("text, col, message", [
    (Q + "hopf H dim 1\nantipode 1 : 1=a", 16,
     "cannot parse scalar 'a': invalid literal for int() with base 10: 'a'"),
    (Q + "morphism m : 2 -> 1\ne 2 : 2=1", 7, "row index 2 out of range 1..1"),
    (Q + "coalgebra C dim 1\ncomul 1 : (1,c)=1", 14, "basis index 'c' is not an integer"),
    (Q + "algebra A dim 1\nmul 1 1 : 1=1 1", 15, "expected <k>=<scalar>, got '1'"),
    (Q + "algebra a dim 1\nalgebra a dim 1", 9, "name 'a' already declared"),
    (Q + "algebra A0 dim 0", 16, "dimension must be positive"),
    (Q + "crossed_system c : algebra=A algebra=A", 30, "duplicate key 'algebra'"),
    (Q + "partial_action p : p", 20, "expected one of hopf=, algebra=, phi=, omega=; got 'p'"),
    (Q + "morphism AB : A -> 2", 15, "unknown structure 'A' in shape"),
    (Q + "crossed_system c : algebra=c v=1 psi=f sigma=g", 28, "unknown algebra 'c'"),
    (Q + "partial_action p : hopf=p algebra=A phi=f omega=g", 25, "unknown hopf algebra 'p'"),
    (Q + "extending_datum e : bialgebra=e prehopf=P phi_h=f phi_a=g tau=t", 31,
     "unknown bialgebra 'e'"),
    (Q + "bialgebra B dim 1\nextending_datum x : bialgebra=B prehopf=e phi_h=f phi_a=g tau=t", 41,
     "unknown prehopf object 'e'"),
    (Q + "algebra A dim 1\ncrossed_system c : algebra=A v=1 psi=s sigma=g", 38,
     "unknown morphism 's'"),
    (Q + "algebra A dim 1\ncrossed_system c : algebra=A v=c psi=f sigma=g", 32,
     "cannot resolve object dimension 'c'"),
    ("field field", 7, "unknown field 'field' (expected Q or F<p>)"),
    # a basis index is ASCII digits only, though int() reads each of these
    (Q + "algebra A dim 12\nmul +1 2 : 12=1", 5, "basis index '+1' is not an integer"),
    (Q + "algebra A dim 12\nmul 1 \u0662 : 12=1", 7, "basis index '\u0662' is not an integer"),
    (Q + "algebra A dim 12\nmul 1 2 : 1_2=1", 11, "basis index '1_2' is not an integer"),
], ids=["scalar", "index", "index-in-pair", "entry-form", "duplicate-name", "dimension",
        "duplicate-key", "unknown-key", "shape", "algebra", "hopf", "bialgebra", "prehopf",
        "morphism", "v", "field", "index-sign", "index-arabic-indic-digit",
        "index-underscore"])
def test_error_is_reported_at_the_column_of_its_token(text, col, message):
    with pytest.raises(ParseError) as err:
        parse(text + "\n")
    line = text.count("\n") + 1
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


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
