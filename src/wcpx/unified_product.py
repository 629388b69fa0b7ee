"""Extending data over a bialgebra and the unified products they induce.

An extending datum pairs a bialgebra A with an object H carrying a
coalgebra structure and a unital (not necessarily associative) product,
plus two actions and a pairing.  The induced twisting and cocycle maps
give a crossed system whose projector is the identity, so the product
lives on all of A (x) H; the seven extension conditions BE1..BE7 govern
when that product is associative and unital.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _elements as el
from .fields import FieldSpec
from .linmaps import LinMap, ObjectShape, ShapeMismatchError, braiding, identity, tensor
from .reporting import (FAIL, PASS, CheckRecord, Report, equality_record, gated, memoised,
                        predicate_record)
from .structures import (BialgebraData, after_tensor_comul, group_algebra,
                         product_of_coproducts)
from .weak_crossed import (CrossedSystem, WeakCrossedProduct, check_cocycle, check_twisted,
                           product_report)


@dataclass(frozen=True)
class PreHopfObject:
    """A coalgebra with a unital product whose associativity is not assumed."""

    field: FieldSpec
    dim: int
    unit: LinMap
    mul: LinMap
    counit: LinMap
    comul: LinMap

    def __post_init__(self) -> None:
        d = self.dim
        checks = (
            (self.unit, 1, d, "unit K -> H"),
            (self.mul, d * d, d, "mul H⊗H -> H"),
            (self.counit, d, 1, "counit H -> K"),
            (self.comul, d, d * d, "comul H -> H⊗H"),
        )
        for m, src, tgt, what in checks:
            if m.source.total != src or m.target.total != tgt:
                raise ShapeMismatchError(f"{what} has wrong shape: {m}")

    @property
    def id_map(self) -> LinMap:
        return identity(self.field, self.dim)


def pre_hopf_of(b: BialgebraData) -> PreHopfObject:
    """Forget down to the pre-Hopf data of a bialgebra."""
    return PreHopfObject(b.field, b.dim, b.unit, b.mul, b.counit, b.comul)


def check_pre_hopf(h: PreHopfObject) -> Report:
    """Coalgebra axioms, grouplike unit, and the unit laws for the product."""
    idh = h.id_map
    report = Report()
    report.add(equality_record("unified.h_counit_left",
                               tensor(h.counit, idh) @ h.comul, idh))
    report.add(equality_record("unified.h_counit_right",
                               tensor(idh, h.counit) @ h.comul, idh))
    report.add(equality_record("unified.h_coassoc",
                               tensor(h.comul, idh) @ h.comul,
                               tensor(idh, h.comul) @ h.comul))
    report.add(equality_record("unified.h_comul_unit",
                               h.comul @ h.unit, tensor(h.unit, h.unit)))
    report.add(equality_record("unified.h_unit_left",
                               h.mul @ tensor(h.unit, idh), idh))
    report.add(equality_record("unified.h_unit_right",
                               h.mul @ tensor(idh, h.unit), idh))
    return report


@dataclass(frozen=True)
class ExtendingDatum:
    """Extending datum (H, right action, left action, pairing) over a bialgebra A."""

    bialgebra: BialgebraData          # A
    hobj: PreHopfObject               # H
    phi_h: LinMap                     # H (x) A -> H, the right action candidate
    phi_a: LinMap                     # H (x) A -> A, the left action candidate
    tau: LinMap                       # H (x) H -> A, the pairing

    def __post_init__(self) -> None:
        a, h = self.bialgebra.dim, self.hobj.dim
        if self.bialgebra.field != self.hobj.field:
            raise ShapeMismatchError("bialgebra and extending object use different fields")
        checks = (
            (self.phi_h, h * a, h, "phi_h H⊗A -> H"),
            (self.phi_a, h * a, a, "phi_a H⊗A -> A"),
            (self.tau, h * h, a, "tau H⊗H -> A"),
        )
        for m, src, tgt, what in checks:
            if m.source.total != src or m.target.total != tgt:
                raise ShapeMismatchError(f"{what} has wrong shape: {m}")

    @property
    def field(self) -> FieldSpec:
        return self.bialgebra.field

    @cached_property
    def system(self) -> CrossedSystem:
        """The crossed system (A, H, psi, sigma) induced by the datum, built once;
        the BE and lemma checks, the pipeline and the suite all read it."""
        return CrossedSystem(self.bialgebra.algebra, self.hobj.dim,
                             induced_psi(self), induced_sigma(self))


def _maps(d: ExtendingDatum):
    a, h = d.bialgebra, d.hobj
    return a, h, a.algebra.id_map, h.id_map


def induced_psi(d: ExtendingDatum) -> LinMap:
    return after_tensor_comul(tensor(d.phi_a, d.phi_h), d.hobj, d.bialgebra)


def induced_sigma(d: ExtendingDatum) -> LinMap:
    return after_tensor_comul(tensor(d.tau, d.hobj.mul), d.hobj, d.hobj)


def check_extending_datum(d: ExtendingDatum) -> Report:
    """Pre-Hopf axioms, coalgebra-morphism conditions, normalizing conditions."""
    a, h, ida, idh = _maps(d)
    eps_pair = tensor(h.counit, a.counit)
    report = check_pre_hopf(h)
    report.add(equality_record("unified.phi_h_comul",
                               after_tensor_comul(tensor(d.phi_h, d.phi_h), h, a),
                               h.comul @ d.phi_h))
    report.add(equality_record("unified.phi_h_counit",
                               h.counit @ d.phi_h, eps_pair))
    report.add(equality_record("unified.phi_a_comul",
                               after_tensor_comul(tensor(d.phi_a, d.phi_a), h, a),
                               a.comul @ d.phi_a))
    report.add(equality_record("unified.phi_a_counit",
                               a.counit @ d.phi_a, eps_pair))
    report.add(equality_record("unified.tau_comul",
                               after_tensor_comul(tensor(d.tau, d.tau), h, h),
                               a.comul @ d.tau))
    report.add(equality_record("unified.tau_counit",
                               a.counit @ d.tau, tensor(h.counit, h.counit)))
    report.add(equality_record("unified.norm_action_unit",
                               d.phi_a @ tensor(idh, a.unit), a.unit @ h.counit))
    report.add(equality_record("unified.norm_action_identity",
                               d.phi_a @ tensor(h.unit, ida), ida))
    report.add(equality_record("unified.norm_module_counit",
                               d.phi_h @ tensor(h.unit, ida), h.unit @ a.counit))
    report.add(equality_record("unified.norm_module_identity",
                               d.phi_h @ tensor(idh, a.unit), idh))
    report.add(equality_record("unified.norm_pairing_right",
                               d.tau @ tensor(idh, h.unit), a.unit @ h.counit))
    report.add(equality_record("unified.norm_pairing_left",
                               d.tau @ tensor(h.unit, idh), a.unit @ h.counit))
    return report


@memoised
def multiplicativity_report(d: ExtendingDatum) -> Report:
    """Multiplicativity of the extending coproduct/counit; right module laws."""
    a, h, ida, idh = _maps(d)
    report = Report()
    report.add(equality_record("unified.h_comul_mult",
                               h.comul @ h.mul, product_of_coproducts(h.mul, h.comul, h.dim)))
    report.add(equality_record("unified.h_counit_mult",
                               h.counit @ h.mul, tensor(h.counit, h.counit)))
    report.add(equality_record("unified.module_unit",
                               d.phi_h @ tensor(idh, a.unit), idh))
    report.add(equality_record("unified.module_assoc",
                               d.phi_h @ tensor(d.phi_h, ida),
                               d.phi_h @ tensor(idh, a.mul)))
    return report


@memoised
def check_be(d: ExtendingDatum) -> Report:
    """The seven extension conditions, in their morphism form."""
    a, h, ida, idh = _maps(d)
    psi, sigma = d.system.psi, d.system.sigma
    c_ah = braiding(d.field, a.dim, h.dim)
    report = Report()
    report.add(equality_record("unified.be1",
                               h.mul @ tensor(h.mul, idh),
                               h.mul @ tensor(d.phi_h, idh) @ tensor(idh, sigma)))
    report.add(equality_record("unified.be2",
                               d.phi_a @ tensor(idh, a.mul),
                               a.mul @ tensor(ida, d.phi_a) @ tensor(psi, ida)))
    report.add(equality_record("unified.be3",
                               d.phi_h @ tensor(h.mul, ida),
                               h.mul @ tensor(d.phi_h, idh) @ tensor(idh, psi)))
    report.add(equality_record("unified.be4",
                               a.mul @ tensor(ida, d.tau) @ tensor(psi, idh) @ tensor(idh, psi),
                               a.mul @ tensor(ida, d.phi_a) @ tensor(sigma, ida)))
    report.add(equality_record("unified.be5",
                               a.mul @ tensor(ida, d.tau) @ tensor(psi, idh) @ tensor(idh, sigma),
                               a.mul @ tensor(ida, d.tau) @ tensor(sigma, idh)))
    report.add(equality_record("unified.be6",
                               c_ah @ psi,
                               after_tensor_comul(tensor(d.phi_h, d.phi_a), h, a)))
    report.add(equality_record("unified.be7",
                               c_ah @ sigma,
                               after_tensor_comul(tensor(h.mul, d.tau), h, h)))
    return report


@memoised
def lemma_identities_report(d: ExtendingDatum) -> Report:
    """Recovery identities for the induced maps.

    The last two need the extending coproduct (resp. counit) to be
    multiplicative; on data without that property they are reported as
    skipped, never asserted.
    """
    a, h, ida, idh = _maps(d)
    psi, sigma = d.system.psi, d.system.sigma
    mult = multiplicativity_report(d)
    report = Report()
    report.add(equality_record("unified.lemma_psi_right_comul",
                               after_tensor_comul(tensor(psi, d.phi_h), h, a),
                               tensor(ida, h.comul) @ psi))
    report.add(equality_record("unified.lemma_psi_left_comul",
                               after_tensor_comul(tensor(d.phi_a, psi), h, a),
                               tensor(a.comul, idh) @ psi))
    report.add(equality_record("unified.lemma_sigma_left_comul",
                               tensor(a.comul, idh) @ sigma,
                               after_tensor_comul(tensor(d.tau, sigma), h, h)))
    report.add(equality_record("unified.lemma_psi_counit",
                               tensor(ida, h.counit) @ psi, d.phi_a))
    report.add(equality_record("unified.lemma_psi_counit_left",
                               tensor(a.counit, idh) @ psi, d.phi_h))
    report.add(equality_record("unified.lemma_sigma_counit_left",
                               tensor(a.counit, idh) @ sigma, h.mul))
    report.add(gated("unified.lemma_sigma_right_comul", mult, lambda: equality_record(
        "unified.lemma_sigma_right_comul", after_tensor_comul(tensor(sigma, h.mul), h, h),
        tensor(ida, h.comul) @ sigma)))
    report.add(gated("unified.lemma_tau_counit", mult, lambda: equality_record(
        "unified.lemma_tau_counit", tensor(ida, h.counit) @ sigma, d.tau)))
    return report


def check_nabla_identity(d: ExtendingDatum) -> Report:
    """The induced projector must be the identity on A (x) H."""
    report = Report()
    nabla = d.system.nabla
    report.add(equality_record("unified.nabla_identity", nabla,
                               identity(d.field, nabla.source)))
    return report


def bullet_product(d: ExtendingDatum) -> LinMap:
    """Elementwise oracle for the unified product on A (x) H:

        (a (x) h) . (c (x) g)
          = sum a (h1 > c1) tau((h2 < c2) (x) g1) (x) (h3 < c3) . g2
    """
    a, h = d.bialgebra, d.hobj
    field = d.field
    values: dict[tuple[int, int], object] = {}
    for ai in range(a.dim):
        for hi in range(h.dim):
            for ci in range(a.dim):
                for gi in range(h.dim):
                    col = ((ai * h.dim + hi) * a.dim + ci) * h.dim + gi
                    for (h1, h2, h3), ch in el.expand_triples(h.comul, hi):
                        for (c1, c2, c3), cc in el.expand_triples(a.comul, ci):
                            for (g1, g2), cg in el.expand_pairs(h.comul, gi):
                                coeff = ch * cc * cg
                                acted = el.apply_to_pair(d.phi_a, el.basis_vec(h1, field),
                                                         el.basis_vec(c1, field))
                                moved = el.apply_to_pair(d.phi_h, el.basis_vec(h2, field),
                                                         el.basis_vec(c2, field))
                                paired = el.apply_to_pair(d.tau, moved, el.basis_vec(g1, field))
                                left = el.apply_to_pair(a.mul, el.basis_vec(ai, field), acted)
                                left = el.apply_to_pair(a.mul, left, paired)
                                moved3 = el.apply_to_pair(d.phi_h, el.basis_vec(h3, field),
                                                          el.basis_vec(c3, field))
                                tail = el.apply_to_pair(h.mul, moved3, el.basis_vec(g2, field))
                                for k, va in left.items():
                                    for m, vh in tail.items():
                                        key = (k * h.dim + m, col)
                                        prev = values.get(key, field.zero())
                                        values[key] = prev + coeff * va * vh
    source = ObjectShape((a.dim, h.dim, a.dim, h.dim))
    target = ObjectShape((a.dim, h.dim))
    return LinMap.from_dict(field, source, target, {k: v for k, v in values.items() if v})


def unified_pipeline(d: ExtendingDatum) -> tuple[Report, WeakCrossedProduct | None]:
    """All datum-level checks plus, when they pass, the built unified product."""
    report = Report()
    report.extend(check_extending_datum(d))
    report.extend(multiplicativity_report(d))
    report.extend(lemma_identities_report(d))
    if not report.passed:
        return report, None
    report.extend(check_be(d))
    report.extend(check_nabla_identity(d))
    if not report.passed:
        return report, None
    nu = tensor(d.bialgebra.unit, d.hobj.unit)

    def oracle_and_unit_laws(product: WeakCrossedProduct):
        mu = product.system.mu_tensor
        id_ah = identity(d.field, mu.target)
        return (equality_record("unified.bullet_oracle", mu, bullet_product(d)),
                equality_record("unified.unit_left", mu @ tensor(nu, id_ah), id_ah),
                equality_record("unified.unit_right", mu @ tensor(id_ah, nu), id_ah))

    built, product = product_report(d.system, nu, oracle_and_unit_laws)
    report.extend(built)
    if not report.passed:
        return report, None
    report.facts["nabla_is_identity"] = report["unified.nabla_identity"].passed
    report.facts["product_dim"] = product.dim
    return report, product


def _swap_lemma_sides(d: ExtendingDatum, use_sigma: bool):
    a, h, ida, idh = _maps(d)
    c_ha = braiding(d.field, h.dim, a.dim)
    c_hh = braiding(d.field, h.dim, h.dim)
    if use_sigma:
        inner = tensor(a.comul, idh) @ d.system.sigma
        rhs = (tensor(d.system.sigma, d.phi_h)
               @ tensor(idh, c_hh, d.tau)
               @ tensor(c_hh, c_hh, idh)
               @ tensor(idh, h.comul, h.comul))
    else:
        inner = tensor(a.comul, idh) @ d.system.psi
        rhs = (tensor(d.system.psi, d.phi_h)
               @ tensor(idh, c_ha, d.phi_a)
               @ tensor(c_hh, c_ha, ida)
               @ tensor(idh, h.comul, a.comul))
    lhs = (tensor(ida, c_hh @ tensor(d.phi_h, idh))
           @ tensor(c_ha, ida, idh)
           @ tensor(idh, inner))
    return lhs, rhs


def theorem_equivalence_suite_unified(d: ExtendingDatum) -> Report:
    """Implications between the quadruple conditions and BE4/BE5, and the
    two swap identities.

    Each statement is gated on its hypotheses in ``HYPOTHESES``; a datum
    missing one yields a skipped record rather than a vacuous assertion.
    """
    be = check_be(d)
    known = multiplicativity_report(d).extend(be)
    held = {"twisted": check_twisted(d.system).passed, "cocycle": check_cocycle(d.system).passed,
            "BE4": be["unified.be4"].passed, "BE5": be["unified.be5"].passed}

    def implication(check_id: str, premise: str, conclusion: str) -> CheckRecord:
        return gated(check_id, known, lambda: predicate_record(
            check_id, not held[premise] or held[conclusion],
            note=f"{premise} {PASS if held[premise] else FAIL}, "
                 f"{conclusion} {PASS if held[conclusion] else FAIL}"))

    def swap_lemma(check_id: str, use_sigma: bool) -> CheckRecord:
        return gated(check_id, known, lambda: equality_record(
            check_id, *_swap_lemma_sides(d, use_sigma)))

    return Report([implication("unified.thm_twisted_forward", "twisted", "BE4"),
                   implication("unified.thm_cocycle_forward", "cocycle", "BE5"),
                   implication("unified.thm_twisted_backward", "BE4", "twisted"),
                   implication("unified.thm_cocycle_backward", "BE5", "cocycle"),
                   swap_lemma("unified.lemma_swap_psi", use_sigma=False),
                   swap_lemma("unified.lemma_swap_sigma", use_sigma=True)])


# ---------------------------------------------------------------------------
# canonical fixtures

def trivial_datum(field: FieldSpec) -> ExtendingDatum:
    """Both actions and the pairing trivial on a pair of order-2 group algebras."""
    a = group_algebra(2, field).bialgebra
    h = pre_hopf_of(group_algebra(2, field).bialgebra)
    phi_a = tensor(h.counit, a.algebra.id_map)
    phi_h = tensor(h.id_map, a.counit)
    tau = a.unit @ tensor(h.counit, h.counit)
    return ExtendingDatum(a, h, phi_h, phi_a, tau)


def s3_smash_datum(field: FieldSpec) -> ExtendingDatum:
    """Order-2 group algebra acting on the order-3 one by inversion.

    The unified product is the group algebra of the six-element
    nonabelian group.
    """
    a = group_algebra(3, field).bialgebra
    h = pre_hopf_of(group_algebra(2, field).bialgebra)
    one = field.one()
    values = {}
    for i in range(3):
        values[(i, 0 * 3 + i)] = one            # identity acts trivially
        values[((-i) % 3, 1 * 3 + i)] = one     # generator inverts
    phi_a = LinMap.from_dict(field, ObjectShape((2, 3)), ObjectShape((3,)), values)
    phi_h = tensor(h.id_map, a.counit)
    tau = a.unit @ tensor(h.counit, h.counit)
    return ExtendingDatum(a, h, phi_h, phi_a, tau)
