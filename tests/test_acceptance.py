"""Acceptance suite: one check per release criterion, exact arithmetic only.

Every criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them).  Criteria 1-8 run over the rationals; criterion 9 repeats them
over the five-element prime field.
"""

from contextlib import contextmanager
from dataclasses import replace

from wcpx.fields import QQ, prime_field
from wcpx.linmaps import (LinMap, braiding, equals, identity, rank,
                          set_column, shape, split_idempotent, tensor)
from wcpx.structures import group_algebra, tensor_algebra
from wcpx import partial_crossed as pc
from wcpx import unified_product as up
from wcpx import weak_crossed as wc

F5 = prime_field(5)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {title}")
        raise
    print(f"[criterion {number}] PASS  {title}")


# -- fixture inventories ------------------------------------------------------

def tensor_system(field):
    a = group_algebra(2, field).algebra
    v = group_algebra(2, field).algebra
    system = wc.CrossedSystem(a, 2, braiding(field, 2, 2), tensor(a.unit, v.mul))
    return system, tensor(a.unit, v.unit)


def trivial_object_system(field):
    a = group_algebra(2, field).algebra
    psi = LinMap(field, shape(1, 2), shape(2, 1), identity(field, 2).entries)
    sigma = LinMap(field, shape(1, 1), shape(2, 1), a.unit.entries)
    return wc.CrossedSystem(a, 1, psi, sigma), LinMap(field, shape(), shape(2, 1),
                                                      a.unit.entries)


def partial_actions(field):
    return [("global", pc.global_action(field)),
            ("vanishing", pc.lambda_zero_action(field)),
            ("smash", pc.partial_smash_action(field))]


def unified_data(field):
    return [("trivial", up.trivial_datum(field)), ("s3", up.s3_smash_datum(field))]


def crossed_fixtures(field):
    """Every system passing the compatibility condition, with its preunit."""
    out = [("tensor", *tensor_system(field)), ("base", *trivial_object_system(field))]
    for name, act in partial_actions(field):
        wc.build_nabla(act.system)
        out.append((name, act.system, tensor(act.algebra.unit, act.hopf.unit)))
    for name, d in unified_data(field):
        wc.build_nabla(d.system)
        out.append((name, d.system, tensor(d.bialgebra.unit, d.hobj.unit)))
    return out


def mutated_partial_actions(field):
    smash = pc.partial_smash_action(field)
    bad_cocycle = replace(smash, omega=set_column(smash.omega, 3, {1: 1}))
    killed = replace(smash, phi=set_column(set_column(smash.phi, 2, {}), 3, {}))
    return [("bad_cocycle", bad_cocycle), ("annihilating", killed)]


# -- the criteria ------------------------------------------------------------------

def check_idempotency_and_splitting(field):
    for name, system, _nu in crossed_fixtures(field):
        nabla = system.nabla
        assert equals(nabla @ nabla, nabla), name
        s = split_idempotent(nabla)
        assert equals(s.projection @ s.injection, identity(field, s.mid)), name
        assert equals(s.injection @ s.projection, nabla), name


def check_product_associativity(field):
    for name, system, _nu in crossed_fixtures(field):
        assert wc.check_twisted(system).passed, name
        assert wc.check_cocycle(system).passed, name
        assert wc.check_normalized(system).passed, name
        product = wc.build_products(system)
        report = wc.product_checks(product)
        assert report.passed, (name, report.failures())


def check_preunit_gives_unit(field):
    for name, system, nu in crossed_fixtures(field):
        product = wc.build_products(system)
        pre = wc.check_preunit(system, nu)
        assert pre.passed, (name, pre.failures())
        # the preunit projector coincides with the system projector
        assert pre["wcp.preunit_projector"].passed, name
        completed = wc.build_algebra(product, nu)
        report = wc.algebra_checks(completed)
        report.extend(wc.product_checks(completed))
        assert report.passed, (name, report.failures())


def check_partial_equivalences(field):
    fixtures = partial_actions(field) + mutated_partial_actions(field)
    assert len([n for n, _ in partial_actions(field)]) >= 3
    assert len(mutated_partial_actions(field)) >= 2
    failing_sides = 0
    for name, act in fixtures:
        suite = pc.theorem_equivalence_suite(act)
        assert suite.passed, (name, suite.failures())
        failing_sides += sum("fail" in r.note for r in suite.records)
    assert failing_sides > 0  # the mutated fixtures exercise the failing branch


def check_partial_desk_numbers(field):
    smash = pc.partial_smash_action(field)
    nabla = pc.sweedler_nabla(smash)            # elementwise oracle
    assert rank(nabla) == 3
    report, product = pc.partial_pipeline(smash)
    assert report.passed
    assert product.dim == 3
    oracle = pc.sweedler_product(smash)
    col = oracle.source.flatten((0, 1, 0, 1))   # (e1 (x) g).(e1 (x) g)
    hit = {oracle.target.unflatten(r): str(v)
           for r, v in enumerate(oracle.column(col)) if v}
    assert hit == {(0, 0): "1"}                 # e1 (x) 1
    assert rank(pc.sweedler_nabla(pc.lambda_zero_action(field))) == 1


def check_unified_projector_identity(field):
    for name, d in unified_data(field):
        assert up.check_nabla_identity(d).passed, name
        s = split_idempotent(wc.build_nabla(d.system))
        assert s.mid.total == d.bialgebra.dim * d.hobj.dim, name
        assert equals(s.injection, identity(field, s.mid)), name


def check_unified_equivalences(field):
    s3 = up.s3_smash_datum(field)
    twisted_pairing = replace(s3, tau=set_column(s3.tau, 3, {1: 1}))
    fixtures = unified_data(field) + [("twisted_pairing", twisted_pairing)]
    for name, d in fixtures:
        suite = up.theorem_equivalence_suite_unified(d)
        assert suite.passed, (name, suite.failures())
        lemmas = up.lemma_identities_report(d)
        assert lemmas.passed, (name, lemmas.failures())
    # the mutated fixture really drives both sides of the cocycle theorem false
    suite = up.theorem_equivalence_suite_unified(twisted_pairing)
    assert "BE5 fail, cocycle fail" in suite["unified.thm_cocycle_backward"].note


def check_oracle_equivalence(field):
    for name, act in partial_actions(field):
        system = act.system
        assert equals(system.mu_tensor, pc.sweedler_product(act)), name
        assert equals(system.nabla, pc.sweedler_nabla(act)), name
    for name, d in unified_data(field):
        system = d.system
        assert equals(system.mu_tensor, up.bullet_product(d)), name
    trivial = up.trivial_datum(field)
    _, product = up.unified_pipeline(trivial)
    klein_four = tensor_algebra(trivial.bialgebra.algebra, group_algebra(2, field).algebra)
    assert equals(product.system.mu_tensor, klein_four.mul)
    s3 = up.s3_smash_datum(field)
    _, product = up.unified_pipeline(s3)
    mu = product.system.mu_tensor
    assert product.dim == 6
    col = mu.source.flatten((0, 1, 1, 0))
    assert {mu.target.unflatten(r) for r, v in enumerate(mu.column(col)) if v} == {(2, 1)}
    rev = mu.source.flatten((1, 0, 0, 1))
    assert {mu.target.unflatten(r) for r, v in enumerate(mu.column(rev)) if v} == {(1, 1)}


ALL_CHECKS = [
    check_idempotency_and_splitting,
    check_product_associativity,
    check_preunit_gives_unit,
    check_partial_equivalences,
    check_partial_desk_numbers,
    check_unified_projector_identity,
    check_unified_equivalences,
    check_oracle_equivalence,
]


def test_criterion_1_idempotency_and_splitting():
    with criterion(1, "projector idempotent and split exactly on every fixture"):
        check_idempotency_and_splitting(QQ)


def test_criterion_2_product_associativity():
    with criterion(2, "crossed products associative and normalized"):
        check_product_associativity(QQ)


def test_criterion_3_preunit_gives_unit():
    with criterion(3, "tensor-unit preunits induce unital algebras"):
        check_preunit_gives_unit(QQ)


def test_criterion_4_partial_equivalences():
    with criterion(4, "partial conditions match the quadruple conditions"):
        check_partial_equivalences(QQ)


def test_criterion_5_partial_desk_numbers():
    with criterion(5, "partial smash ranks and products take the known values"):
        check_partial_desk_numbers(QQ)


def test_criterion_6_unified_projector_identity():
    with criterion(6, "unified projector is the identity"):
        check_unified_projector_identity(QQ)


def test_criterion_7_unified_equivalences():
    with criterion(7, "unified conditions match the quadruple conditions"):
        check_unified_equivalences(QQ)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "categorical products equal the elementwise oracles"):
        check_oracle_equivalence(QQ)


def test_criterion_9_field_robustness():
    with criterion(9, "criteria 1-8 hold over the five-element field"):
        for check in ALL_CHECKS:
            check(F5)
