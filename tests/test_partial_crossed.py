from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import (global_action, group_algebra, lambda_zero_action, partial_smash_action,
                     product_algebra, set_column, sweedler_nabla, tensor_algebra)
from wcpx.fields import QQ
from wcpx.linmaps import LinMap, braiding, equals, identity, rank, shape
from wcpx import partial_crossed as pc
from wcpx import weak_crossed as wc


def all_actions(field):
    return [("global", global_action(field)),
            ("vanishing", lambda_zero_action(field)),
            ("smash", partial_smash_action(field))]


# -- induced maps ----------------------------------------------------------------

def test_trivial_action_induces_swap(field):
    act = global_action(field)
    assert equals(pc.induced_psi(act), braiding(field, 2, 2))
    assert pc.lemma_report(act).passed


def test_vanishing_action_induced_cocycle_map(field):
    act = lambda_zero_action(field)
    sigma = pc.induced_sigma(act)
    # sigma(1 (x) 1) = 1 (x) 1 and sigma(g (x) g) = 0
    assert [str(x) for x in sigma.column(0)] == ["1", "0"]
    assert not any(sigma.column(3))


def test_smash_action_induced_maps(field):
    act = partial_smash_action(field)
    psi, sigma = pc.induced_psi(act), pc.induced_sigma(act)
    assert not any(psi.column(psi.source.flatten((1, 1))))        # psi(g (x) e2) = 0
    col = sigma.column(sigma.source.flatten((1, 1)))              # sigma(g (x) g)
    assert [str(x) for x in col] == ["1", "0", "0", "0"]          # e1 (x) 1


def test_lemma_identities_on_canonical_actions(field):
    for name, act in all_actions(field):
        assert pc.lemma_report(act).passed, name


small = st.integers(min_value=-2, max_value=2)


def test_replaced_action_builds_its_system_from_the_new_map(field):
    act = partial_smash_action(field)
    system = act.system
    moved = replace(act, phi=global_action(field).phi)
    assert act.system is system
    assert equals(moved.system.psi, pc.induced_psi(moved))
    assert not equals(moved.system.psi, system.psi)


@given(phi_rows=st.lists(st.lists(small, min_size=4, max_size=4), min_size=2, max_size=2),
       omega_rows=st.lists(st.lists(small, min_size=4, max_size=4), min_size=2, max_size=2))
@settings(max_examples=25, deadline=None)
def test_lemma_identities_hold_for_arbitrary_maps(phi_rows, omega_rows):
    hopf = group_algebra(2, QQ)
    alg = product_algebra(2, QQ)
    phi = LinMap(QQ, shape(2, 2), shape(2,), phi_rows)
    omega = LinMap(QQ, shape(2, 2), shape(2,), omega_rows)
    act = pc.TwistedPartialAction(hopf, alg, phi, omega)
    assert pc.lemma_report(act).passed


def test_pipeline_reports_corrupted_hopf_data(field):
    act = partial_smash_action(field)
    comul = set_column(act.hopf.comul, 1, {1 * 2 + 1: 1, 0 * 2 + 1: 1})  # g -> g(x)g + 1(x)g
    broken_coalg = replace(act.hopf.coalgebra, comul=comul)
    from wcpx.structures import BialgebraData, HopfData
    broken = replace(act, hopf=HopfData(
        BialgebraData(act.hopf.algebra, broken_coalg), act.hopf.antipode))
    report, product = pc.partial_pipeline(broken)
    assert report["partial.lemma_psi_comul"].failed
    assert product is None


# -- the defining conditions --------------------------------------------------------

def test_canonical_actions_pass_all_checks(field):
    for name, act in all_actions(field):
        report = pc.partial_report(act)
        assert report.passed, (name, report.failures())


def test_half_scalar_action_fails_multiplicativity(field):
    hopf = group_algebra(2, field)
    alg = product_algebra(1, field)
    half = field.parse("1/2")
    phi = LinMap.from_dict(field, shape(2, 1), shape(1,), {(0, 0): 1, (0, 1): half})
    omega = LinMap.from_dict(field, shape(2, 2), shape(1,), {(0, 0): 1})
    act = pc.TwistedPartialAction(hopf, alg, phi, omega)
    record = pc.check_partial_action(act)["partial.mult"]
    assert record.failed
    assert record.witness.source_index == (1, 0, 0)


def test_half_scalar_witness_values_over_q():
    act_record = None
    hopf = group_algebra(2, QQ)
    alg = product_algebra(1, QQ)
    phi = LinMap.from_dict(QQ, shape(2, 1), shape(1,), {(0, 0): 1, (0, 1): QQ.parse("1/2")})
    omega = LinMap.from_dict(QQ, shape(2, 2), shape(1,), {(0, 0): 1})
    act = pc.TwistedPartialAction(hopf, alg, phi, omega)
    act_record = pc.check_partial_action(act)["partial.mult"]
    assert (act_record.witness.left, act_record.witness.right) == ("1/2", "1/4")


def test_units_and_cocycle_on_smash(field):
    act = partial_smash_action(field)
    report = pc.check_units_and_cocycle(act)
    assert report.passed
    # omega(g (x) 1) = omega(1 (x) g) = g.1 = e1
    col = act.omega.column(act.omega.source.flatten((1, 0)))
    assert [str(x) for x in col] == ["1", "0"]


def test_corrupted_cocycle_fails_condition_with_witness(field):
    act = partial_smash_action(field)
    bad = replace(act, omega=set_column(act.omega, 3, {1: 1}))  # omega(g,g) := e2
    report = pc.check_units_and_cocycle(bad)
    record = report["partial.cocycle"]
    assert record.failed
    assert record.witness.source_index == (0, 1, 1)
    assert report["partial.cocycle_forms_agree"].passed


# -- building the crossed product ----------------------------------------------------

def test_vanishing_action_product_is_one_dimensional(field):
    report, product = pc.partial_pipeline(lambda_zero_action(field))
    assert report.passed
    assert report.facts == {"nabla_rank": 1, "product_dim": 1}
    assert equals(product.unit_times,
                  product.splitting.projection @ product.preunit)


def test_smash_projector_is_the_expected_diagonal(field):
    nabla = wc.build_nabla(partial_smash_action(field).system)
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    assert nabla.entries == LinMap(
        field, shape(2, 2), shape(2, 2), expected).entries


def test_smash_product_desk_numbers(field):
    act = partial_smash_action(field)
    report, product = pc.partial_pipeline(act)
    assert report.passed
    assert report.facts == {"nabla_rank": 3, "product_dim": 3}
    mu = product.system.mu_tensor
    # (e1 (x) g) . (e1 (x) g) = e1 (x) 1
    col = mu.source.flatten((0, 1, 0, 1))
    hit = {mu.target.unflatten(r): str(v) for r, v in enumerate(mu.column(col)) if v}
    assert hit == {(0, 0): "1"}
    # (e1 (x) g) . (e2 (x) 1) = 0
    assert not any(mu.column(mu.source.flatten((0, 1, 1, 0))))


def test_global_action_gives_tensor_product_algebra(field):
    act = global_action(field)
    report, product = pc.partial_pipeline(act)
    assert report.passed
    assert equals(product.system.nabla, identity(field, 4))
    assert equals(product.mu_times,
                  tensor_algebra(act.algebra, act.hopf.algebra).mul)


def test_build_raises_on_failing_action(field):
    act = partial_smash_action(field)
    bad = replace(act, omega=set_column(act.omega, 3, {1: 1}))
    report, product = pc.partial_pipeline(bad)
    assert product is None and report.failures()[0].check == "partial.twist_composite"
    with pytest.raises(wc.PreconditionError) as err:
        wc.require(report, "partial action check failed")
    assert err.value.check_id == "partial.twist_composite"


# -- oracles ------------------------------------------------------------------------

def test_projector_matches_elementwise_form(field):
    for name, act in all_actions(field):
        system = act.system
        assert equals(system.nabla, sweedler_nabla(act)), name
        assert equals(system.nabla, pc.nabla_unit_form(act)), name


def test_vanishing_action_projector_matrix(field):
    act = lambda_zero_action(field)
    nabla = sweedler_nabla(act)
    assert [[str(x) for x in row] for row in nabla.entries] == [["1", "0"], ["0", "0"]]
    assert rank(nabla) == 1


def test_product_matches_elementwise_form(field):
    for name, act in all_actions(field):
        system = act.system
        assert equals(system.mu_tensor, pc.sweedler_product(act)), name


def test_product_dim_equals_projector_rank(field):
    for name, act in all_actions(field):
        report, product = pc.partial_pipeline(act)
        assert product.dim == rank(product.system.nabla), name


# -- equivalence theorems --------------------------------------------------------------

def test_equivalences_on_valid_actions(field):
    for name, act in all_actions(field):
        report = pc.theorem_equivalence_suite(act)
        assert report.passed, name


def test_equivalences_on_corrupted_cocycle(field):
    act = partial_smash_action(field)
    bad = replace(act, omega=set_column(act.omega, 3, {1: 1}))
    suite = pc.theorem_equivalence_suite(bad)
    assert suite.passed
    # the comparison is not vacuous: both sides really fail
    assert "fail" in suite["partial.thm_cocycle_equiv"].note


def test_equivalences_on_annihilating_action(field):
    act = partial_smash_action(field)
    killed = set_column(set_column(act.phi, 2, {}), 3, {})  # g annihilates A
    bad = replace(act, phi=killed)
    assert pc.check_partial_action(bad)["partial.mult"].passed
    assert pc.check_partial_action(bad)["partial.twist"].failed
    suite = pc.theorem_equivalence_suite(bad)
    assert suite.passed
    assert "fail" in suite["partial.thm_twisted_equiv"].note
