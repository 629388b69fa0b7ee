from dataclasses import replace

import pytest

from wcpx.linmaps import (LinMap, braiding, equals, identity, set_column,
                          shape, tensor)
from wcpx.structures import group_algebra, tensor_algebra
from wcpx import weak_crossed as wc
from wcpx import partial_crossed as pc


def tensor_system(field):
    """Swap twisting plus in-object multiplication: the tensor-product algebra."""
    a = group_algebra(2, field).algebra
    v = group_algebra(2, field).algebra
    psi = braiding(field, 2, 2)
    sigma = tensor(a.unit, v.mul)
    return wc.CrossedSystem(a, 2, psi, sigma), a, v


def trivial_object_system(field):
    """The object is the base line; the system collapses back to A."""
    a = group_algebra(2, field).algebra
    psi = LinMap(field, shape(1, 2), shape(2, 1), identity(field, 2).entries)
    sigma = LinMap(field, shape(1, 1), shape(2, 1), a.unit.entries)
    return wc.CrossedSystem(a, 1, psi, sigma), a


# -- compatibility -------------------------------------------------------------

def test_swap_twisting_is_compatible(field):
    system, _, _ = tensor_system(field)
    assert wc.check_compat(system).passed


def test_induced_partial_twisting_is_compatible(field):
    act = pc.partial_smash_action(field)
    report = wc.compat_report(act.algebra, pc.induced_psi(act), act.hopf.dim)
    assert report.passed


def test_rank_one_twisting_fails_with_witness(field):
    a = group_algebra(2, field).algebra
    psi = LinMap.from_dict(field, shape(2, 2), shape(2, 2), {(0, 0): 1})
    report = wc.compat_report(a, psi, 2)
    record = report.records[0]
    assert record.failed
    assert record.witness.source_index == (0, 1, 1)
    assert (record.witness.left, record.witness.right) == ("0", "1")
    system = wc.CrossedSystem(a, 2, psi, LinMap.from_dict(field, shape(2, 2), shape(2, 2), {}))
    with pytest.raises(wc.PreconditionError) as err:
        wc.build_products(system)
    assert err.value.check_id == "wcp.compat"


# -- the projector ----------------------------------------------------------------

def test_swap_projector_is_identity(field):
    system, _, _ = tensor_system(field)
    assert equals(system.nabla, identity(field, 4))


def test_projector_idempotent_and_left_linear(field):
    system = pc.partial_smash_action(field).system
    nabla = wc.build_nabla(system)
    assert equals(nabla @ nabla, nabla)
    a = system.algebra
    left = tensor(a.mul, identity(field, system.vdim))
    assert equals(nabla @ left, left @ tensor(a.id_map, nabla))


# -- twisted / cocycle conditions ----------------------------------------------------

def test_trivial_object_conditions(field):
    system, a = trivial_object_system(field)
    assert wc.check_twisted(system).passed
    assert wc.check_cocycle(system).passed
    assert wc.check_normalized(system).passed


def test_partial_system_satisfies_conditions(field):
    system = pc.partial_smash_action(field).system
    assert wc.check_twisted(system).passed
    assert wc.check_cocycle(system).passed


def test_corrupted_sigma_breaks_conditions(field):
    system = pc.partial_smash_action(field).system
    # overwrite sigma at (g, g) with e2 (x) 1
    bad = replace(system, sigma=set_column(system.sigma, 3, {1 * 2 + 0: 1}))
    twisted = wc.check_twisted(bad).records[0]
    cocycle = wc.check_cocycle(bad).records[0]
    assert twisted.failed and twisted.witness is not None
    assert cocycle.failed and cocycle.witness is not None


# -- normalization ------------------------------------------------------------------

def test_normalize_sigma_is_identity_on_normalized_systems(field):
    system = pc.partial_smash_action(field).system
    assert wc.normalize_sigma(system) is system


def test_normalize_sigma_projects_perturbations(field):
    system = pc.partial_smash_action(field).system
    complement = identity(field, 4) - system.nabla
    noise = complement @ LinMap.from_dict(field, shape(2, 2), shape(2, 2),
                                          {(3, 0): 1, (3, 3): 2})
    perturbed = replace(system, sigma=system.sigma + noise)
    assert not wc.check_normalized(perturbed).passed
    fixed = wc.normalize_sigma(perturbed)
    assert equals(fixed.sigma, system.sigma)
    assert wc.normalize_sigma(fixed) is fixed


def test_trivial_object_sigma_already_normalized(field):
    system, _ = trivial_object_system(field)
    assert wc.normalize_sigma(system) is system


# -- products --------------------------------------------------------------------------

def test_tensor_system_product_is_tensor_algebra(field):
    system, a, v = tensor_system(field)
    product = wc.build_products(system)
    assert equals(system.mu_tensor, tensor_algebra(a, v).mul)
    assert wc.product_checks(product).passed


def test_trivial_object_recovers_base_algebra(field):
    system, a = trivial_object_system(field)
    product = wc.build_products(system)
    assert product.dim == a.dim
    assert equals(product.mu_times, a.mul)


def test_build_products_names_failing_gate(field):
    system = pc.partial_smash_action(field).system
    bad = replace(system, sigma=set_column(system.sigma, 3, {1 * 2 + 0: 1}))
    with pytest.raises(wc.PreconditionError) as err:
        wc.build_products(bad)
    assert err.value.check_id == "wcp.twisted"


# -- preunits ---------------------------------------------------------------------------

def test_tensor_system_preunit(field):
    system, a, v = tensor_system(field)
    nu = tensor(a.unit, v.unit)
    report = wc.check_preunit(system, nu)
    assert report.passed
    # the preunit projector is the identity here
    assert equals(system.mu_tensor @ tensor(identity(field, shape(2, 2)), nu),
                  identity(field, 4))


def test_scaled_preunit_fails_square_law(field):
    system, a, v = tensor_system(field)
    nu = tensor(a.unit, v.unit).scale(2)
    report = wc.check_preunit(system, nu)
    assert report["wcp.preunit_square"].failed
    assert report["wcp.preunit_square"].witness is not None


def test_build_algebra_on_tensor_system(field):
    system, a, v = tensor_system(field)
    product = wc.build_products(system)
    nu = tensor(a.unit, v.unit)
    completed = wc.build_algebra(product, nu)
    assert completed.dim == 4
    assert equals(completed.unit_times, nu)  # projector is the identity
    assert wc.algebra_checks(completed).passed


def test_build_algebra_rejects_bad_preunit(field):
    system, a, v = tensor_system(field)
    product = wc.build_products(system)
    with pytest.raises(wc.PreconditionError):
        wc.build_algebra(product, tensor(a.unit, v.unit).scale(2))


def test_trivial_object_algebra_isomorphic_to_base(field):
    system, a = trivial_object_system(field)
    product = wc.build_products(system)
    nu = LinMap(field, shape(), shape(2, 1), a.unit.entries)
    completed = wc.build_algebra(product, nu)
    assert equals(completed.unit_times, a.unit)
    assert equals(completed.embedding, identity(field, 2))


# -- the characterization round trip ------------------------------------------------------

def test_crossed_data_yields_normalized_associative_product(field):
    # one direction: from (psi, sigma, nu) the built product is associative,
    # has nu as preunit, and is normalized for the preunit projector
    system, a, v = tensor_system(field)
    product = wc.build_products(system)
    nu = tensor(a.unit, v.unit)
    report = wc.product_checks(product)
    report.extend(wc.check_preunit(system, nu))
    assert report.passed


def test_known_unital_product_arises_from_crossed_data(field):
    # converse direction: the tensor-product algebra with its real unit is
    # realized by swap twisting plus in-object multiplication, and the
    # preunit compatibilities hold for that presentation
    a = group_algebra(2, field).algebra
    v = group_algebra(2, field).algebra
    m = tensor_algebra(a, v).mul
    system, _, _ = tensor_system(field)
    assert equals(system.mu_tensor, m)
    assert wc.check_preunit(system, tensor(a.unit, v.unit)).passed


def test_product_checks_are_evaluated_once_per_built_product(field, monkeypatch):
    system, _, _ = tensor_system(field)
    product = wc.build_products(system)
    fresh = wc.product_checks(replace(product))
    calls = []
    monkeypatch.setattr(wc, "equality_record", lambda *args, **kw: calls.append(args))
    reused = wc.product_checks(product)
    assert not calls and reused.records == fresh.records and reused.passed
    # a product holding another map is evaluated again
    monkeypatch.undo()
    changed = replace(product, system=replace(system, psi=system.psi.scale(2)))
    assert wc.product_checks(changed)["wcp.nabla_idempotent"].failed
