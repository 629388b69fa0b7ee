from dataclasses import replace

import pytest

from wcpx.linmaps import (LinMap, braiding, equals, rank,
                          set_column, shape, tensor)
from wcpx.structures import group_algebra, tensor_algebra
from wcpx import unified_product as up
from wcpx import weak_crossed as wc


def fusion_prehopf(field):
    """Grouplike coalgebra with the non-multiplicative product u.u = 1 + u."""
    one = field.one()
    return up.PreHopfObject(
        field, 2,
        unit=LinMap.from_dict(field, shape(), shape(2), {(0, 0): one}),
        mul=LinMap.from_dict(field, shape(2, 2), shape(2),
                             {(0, 0): one, (1, 1): one, (1, 2): one,
                              (0, 3): one, (1, 3): one}),
        counit=LinMap.from_dict(field, shape(2), shape(), {(0, 0): one, (0, 1): one}),
        comul=LinMap.from_dict(field, shape(2), shape(2, 2), {(0, 0): one, (3, 1): one}))


def fusion_datum(field):
    a = group_algebra(2, field).bialgebra
    h = fusion_prehopf(field)
    return up.ExtendingDatum(a, h, tensor(h.id_map, a.counit),
                             tensor(h.counit, a.algebra.id_map),
                             a.unit @ tensor(h.counit, h.counit))


def center_dim(mu, n, field):
    rows = []
    for j in range(n):
        for out in range(n):
            rows.append(tuple(mu.entries[out][i * n + j] - mu.entries[out][j * n + i]
                              for i in range(n)))
    commutators = LinMap(field, shape(n), shape(n * n), tuple(rows))
    return n - rank(commutators)


# -- datum checks --------------------------------------------------------------

def test_trivial_datum_valid(field):
    assert up.check_extending_datum(up.trivial_datum(field)).passed


def test_smash_datum_valid(field):
    assert up.check_extending_datum(up.s3_smash_datum(field)).passed


def test_grouplike_pairing_mutation_still_valid(field):
    # sending the generator pair to the grouplike of A keeps the datum
    # conditions intact; what changes is decided by the BE checks
    d = up.trivial_datum(field)
    twisted = replace(d, tau=set_column(d.tau, 3, {1: 1}))
    assert up.check_extending_datum(twisted).passed
    assert up.check_be(twisted).passed  # a 2-cocycle twist of the group pairing
    report, product = up.unified_pipeline(twisted)
    assert report.passed and product.dim == 4


def test_pre_hopf_checks_only_need_unit_laws(field):
    report = up.check_pre_hopf(fusion_prehopf(field))
    assert report.passed


# -- BE conditions ----------------------------------------------------------------

def test_trivial_datum_be_all_pass(field):
    assert up.check_be(up.trivial_datum(field)).passed


def test_smash_datum_be_all_pass(field):
    assert up.check_be(up.s3_smash_datum(field)).passed


def test_untwisted_action_variant_still_passes(field):
    # replacing the inverting action by the trivial one gives the tensor datum
    d = up.s3_smash_datum(field)
    trivial_action = tensor(d.hobj.counit, d.bialgebra.algebra.id_map)
    assert up.check_be(replace(d, phi_a=trivial_action)).passed


def test_broken_action_fails_be2_with_witness(field):
    d = up.s3_smash_datum(field)
    # generator sends the rotation to the sum of both rotations
    bad = replace(d, phi_a=set_column(d.phi_a, 4, {1: 1, 2: 1}))
    record = up.check_be(bad)["unified.be2"]
    assert record.failed
    assert record.witness.source_index == (1, 1, 1)


# -- induced maps ---------------------------------------------------------------------

def test_trivial_datum_induces_swap_and_group_cocycle(field):
    d = up.trivial_datum(field)
    assert equals(up.induced_psi(d), braiding(field, 2, 2))
    assert equals(up.induced_sigma(d),
                  tensor(d.bialgebra.unit, d.hobj.mul))


def test_smash_datum_induced_values(field):
    d = up.s3_smash_datum(field)
    psi = up.induced_psi(d)
    col = psi.column(psi.source.flatten((1, 1)))               # psi(t (x) c)
    hit = {psi.target.unflatten(r) for r, v in enumerate(col) if v}
    assert hit == {(2, 1)}                                     # c^2 (x) t
    sigma = up.induced_sigma(d)
    col = sigma.column(sigma.source.flatten((1, 1)))           # sigma(t (x) t)
    hit = {sigma.target.unflatten(r) for r, v in enumerate(col) if v}
    assert hit == {(0, 0)}                                     # 1 (x) 1


def test_replaced_datum_builds_its_system_from_the_new_map(field):
    d = up.s3_smash_datum(field)
    system = d.system
    doubled = replace(d, tau=d.tau.scale(2))
    assert d.system is system
    assert equals(doubled.system.sigma, up.induced_sigma(doubled))
    assert not equals(doubled.system.sigma, system.sigma)


def test_lemma_identities_gated_on_multiplicativity(field):
    d = fusion_datum(field)
    assert up.check_extending_datum(d).passed
    mult = up.multiplicativity_report(d)
    assert mult["unified.h_comul_mult"].failed
    assert mult["unified.h_counit_mult"].failed
    report = up.lemma_identities_report(d)
    assert report.passed  # nothing failed; the gated ones are skipped
    assert report["unified.lemma_sigma_right_comul"].status == "skipped"
    assert report["unified.lemma_tau_counit"].status == "skipped"
    # the skipped identity genuinely fails on this datum
    h = d.hobj
    sigma = up.induced_sigma(d)
    comul_square = (tensor(h.id_map, braiding(field, h.dim, h.dim), h.id_map)
                    @ tensor(h.comul, h.comul))
    lhs = tensor(sigma, h.mul) @ comul_square
    rhs = tensor(d.bialgebra.algebra.id_map, d.hobj.comul) @ sigma
    assert not equals(lhs, rhs)


def test_corrupted_coproduct_breaks_recovery_identities(field):
    d = up.trivial_datum(field)
    broken_comul = set_column(d.hobj.comul, 1, {1 * 2 + 1: 1, 0 * 2 + 1: 1})
    broken = replace(d, hobj=replace(d.hobj, comul=broken_comul))
    report, product = up.unified_pipeline(broken)
    assert report["unified.lemma_psi_right_comul"].failed
    assert product is None


# -- the identity projector ------------------------------------------------------------

def test_partial_multiplicativity_and_module_law_give_compatibility(field):
    for name, d in [("trivial", up.trivial_datum(field)), ("s3", up.s3_smash_datum(field))]:
        be = up.check_be(d)
        mult = up.multiplicativity_report(d)
        assert be["unified.be2"].passed and mult["unified.module_assoc"].passed, name
        report = wc.compat_report(d.bialgebra.algebra, up.induced_psi(d), d.hobj.dim)
        assert report.passed, name


def test_projector_is_identity_on_valid_data(field):
    for name, d in [("trivial", up.trivial_datum(field)), ("s3", up.s3_smash_datum(field))]:
        report = up.check_nabla_identity(d)
        assert report.passed, name


def test_projector_detects_unnormalized_action(field):
    d = up.s3_smash_datum(field)
    # make the generator send the base unit to the rotation
    bad = replace(d, phi_a=set_column(d.phi_a, 3, {1: 1}))
    record = up.check_nabla_identity(bad).records[0]
    assert record.failed and record.witness is not None


# -- the unified product ------------------------------------------------------------------

def test_trivial_datum_product_is_group_algebra_of_klein_four(field):
    d = up.trivial_datum(field)
    report, product = up.unified_pipeline(d)
    assert report.passed
    expected = tensor_algebra(d.bialgebra.algebra,
                              group_algebra(2, field).algebra)
    assert equals(product.system.mu_tensor, expected.mul)
    assert equals(product.unit_times, tensor(d.bialgebra.unit, d.hobj.unit))


def test_smash_datum_product_desk_numbers(field):
    d = up.s3_smash_datum(field)
    report, product = up.unified_pipeline(d)
    assert report.passed
    assert report.facts == {"nabla_is_identity": True, "product_dim": 6}
    mu = product.system.mu_tensor
    col = mu.source.flatten((0, 1, 1, 0))                     # (1 (x) t).(c (x) 1)
    hit = {mu.target.unflatten(r): str(v) for r, v in enumerate(mu.column(col)) if v}
    assert hit == {(2, 1): "1"}                               # c^2 (x) t
    rev = mu.source.flatten((1, 0, 0, 1))                     # (c (x) 1).(1 (x) t)
    assert {mu.target.unflatten(r) for r, v in enumerate(mu.column(rev)) if v} == {(1, 1)}
    assert center_dim(mu, 6, field) == 3


def test_bullet_oracle_matches_categorical_product(field):
    for name, d in [("trivial", up.trivial_datum(field)), ("s3", up.s3_smash_datum(field))]:
        system = d.system
        assert equals(system.mu_tensor, up.bullet_product(d)), name


def test_build_raises_on_invalid_datum(field):
    d = up.s3_smash_datum(field)
    bad = replace(d, phi_a=set_column(d.phi_a, 4, {1: 1, 2: 1}))
    report, product = up.unified_pipeline(bad)
    assert product is None and report.failures()[0].check == "unified.phi_a_comul"
    with pytest.raises(wc.PreconditionError) as err:
        wc.require(report, "extending datum check failed")
    assert err.value.check_id == "unified.phi_a_comul"


# -- equivalence theorems -------------------------------------------------------------------

def test_equivalences_on_valid_data(field):
    for name, d in [("trivial", up.trivial_datum(field)), ("s3", up.s3_smash_datum(field))]:
        suite = up.theorem_equivalence_suite_unified(d)
        assert suite.passed, name
        assert all(r.status == "pass" for r in suite.records), name


def test_equivalences_on_twisted_pairing_mutation(field):
    d = up.s3_smash_datum(field)
    bad = replace(d, tau=set_column(d.tau, 3, {1: 1}))        # tau(t,t) := c
    be = up.check_be(bad)
    # hypotheses of the backward cocycle direction survive the mutation
    assert be["unified.be1"].passed and be["unified.be7"].passed
    assert be["unified.be5"].failed
    suite = up.theorem_equivalence_suite_unified(bad)
    assert suite.passed
    assert suite["unified.thm_cocycle_backward"].status == "pass"
    assert "BE5 fail, cocycle fail" in suite["unified.thm_cocycle_backward"].note
    assert "cocycle fail, BE5 fail" in suite["unified.thm_cocycle_forward"].note


def test_equivalences_skip_without_hypotheses(field):
    suite = up.theorem_equivalence_suite_unified(fusion_datum(field))
    statuses = {r.check: r.status for r in suite.records}
    assert statuses["unified.thm_twisted_forward"] == "skipped"
    assert statuses["unified.thm_cocycle_forward"] == "skipped"
    assert statuses["unified.thm_twisted_backward"] == "skipped"
    assert statuses["unified.thm_cocycle_backward"] == "skipped"
    # the swap lemmas only need BE6/BE7 and do hold here
    assert statuses["unified.lemma_swap_psi"] == "pass"
    assert statuses["unified.lemma_swap_sigma"] == "pass"


def test_swap_lemmas_on_valid_data(field):
    for name, d in [("trivial", up.trivial_datum(field)), ("s3", up.s3_smash_datum(field))]:
        suite = up.theorem_equivalence_suite_unified(d)
        assert [suite[check].status for check in ("unified.lemma_swap_psi",
                                                  "unified.lemma_swap_sigma")] == ["pass"] * 2, name
