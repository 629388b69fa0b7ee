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

from . import _elements as el
from .fields import FieldSpec
from .linmaps import (LinMap, ObjectShape, ShapeMismatchError, braiding,
                      equals, identity, tensor)
from .reporting import Report, equality_record, predicate_record, skipped_record
from .structures import (BialgebraData, after_tensor_comul, group_algebra,
                         product_of_coproducts)
from .weak_crossed import (CompatibilityError, CrossedSystem, PreconditionError,
                           WeakCrossedProduct, algebra_checks, build_algebra,
                           build_products, check_normalized, check_preunit,
                           cocycle_sides, nabla_of, product_checks, twisted_sides)


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


def check_pre_hopf(h: PreHopfObject, subject: str = "") -> Report:
    """Coalgebra axioms, grouplike unit, and the unit laws for the product."""
    idh = h.id_map
    report = Report()
    report.add(equality_record("unified.h_counit_left",
                               tensor(h.counit, idh) @ h.comul, idh, subject))
    report.add(equality_record("unified.h_counit_right",
                               tensor(idh, h.counit) @ h.comul, idh, subject))
    report.add(equality_record("unified.h_coassoc",
                               tensor(h.comul, idh) @ h.comul,
                               tensor(idh, h.comul) @ h.comul, subject))
    report.add(equality_record("unified.h_comul_unit",
                               h.comul @ h.unit, tensor(h.unit, h.unit), subject))
    report.add(equality_record("unified.h_unit_left",
                               h.mul @ tensor(h.unit, idh), idh, subject))
    report.add(equality_record("unified.h_unit_right",
                               h.mul @ tensor(idh, h.unit), idh, subject))
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


def _maps(d: ExtendingDatum):
    a, h = d.bialgebra, d.hobj
    ida, idh = a.algebra.id_map, h.id_map
    c_ha = braiding(d.field, h.dim, a.dim)
    c_hh = braiding(d.field, h.dim, h.dim)
    return a, h, ida, idh, c_ha, c_hh


def comul_square_h(d: ExtendingDatum) -> LinMap:
    """The tensor coalgebra coproduct on H (x) H."""
    _, h, _, idh, _, c_hh = _maps(d)
    return tensor(idh, c_hh, idh) @ tensor(h.comul, h.comul)


def induced_psi(d: ExtendingDatum) -> LinMap:
    return after_tensor_comul(tensor(d.phi_a, d.phi_h), d.hobj, d.bialgebra)


def induced_sigma(d: ExtendingDatum) -> LinMap:
    return after_tensor_comul(tensor(d.tau, d.hobj.mul), d.hobj, d.hobj)


def check_extending_datum(d: ExtendingDatum, subject: str = "") -> Report:
    """Pre-Hopf axioms, coalgebra-morphism conditions, normalizing conditions."""
    a, h, ida, idh, _, _ = _maps(d)
    eps_pair = tensor(h.counit, a.counit)
    report = check_pre_hopf(h, subject)
    report.add(equality_record("unified.phi_h_comul",
                               after_tensor_comul(tensor(d.phi_h, d.phi_h), h, a),
                               h.comul @ d.phi_h, subject))
    report.add(equality_record("unified.phi_h_counit",
                               h.counit @ d.phi_h, eps_pair, subject))
    report.add(equality_record("unified.phi_a_comul",
                               after_tensor_comul(tensor(d.phi_a, d.phi_a), h, a),
                               a.comul @ d.phi_a, subject))
    report.add(equality_record("unified.phi_a_counit",
                               a.counit @ d.phi_a, eps_pair, subject))
    report.add(equality_record("unified.tau_comul",
                               after_tensor_comul(tensor(d.tau, d.tau), h, h),
                               a.comul @ d.tau, subject))
    report.add(equality_record("unified.tau_counit",
                               a.counit @ d.tau, tensor(h.counit, h.counit), subject))
    report.add(equality_record("unified.norm_action_unit",
                               d.phi_a @ tensor(idh, a.unit), a.unit @ h.counit, subject))
    report.add(equality_record("unified.norm_action_identity",
                               d.phi_a @ tensor(h.unit, ida), ida, subject))
    report.add(equality_record("unified.norm_module_counit",
                               d.phi_h @ tensor(h.unit, ida), h.unit @ a.counit, subject))
    report.add(equality_record("unified.norm_module_identity",
                               d.phi_h @ tensor(idh, a.unit), idh, subject))
    report.add(equality_record("unified.norm_pairing_right",
                               d.tau @ tensor(idh, h.unit), a.unit @ h.counit, subject))
    report.add(equality_record("unified.norm_pairing_left",
                               d.tau @ tensor(h.unit, idh), a.unit @ h.counit, subject))
    return report


def multiplicativity_report(d: ExtendingDatum, subject: str = "") -> Report:
    """Multiplicativity of the extending coproduct/counit; right module laws."""
    a, h, ida, idh, _, _ = _maps(d)
    report = Report()
    report.add(equality_record("unified.h_comul_mult",
                               h.comul @ h.mul, product_of_coproducts(h.mul, h.comul, h.dim),
                               subject))
    report.add(equality_record("unified.h_counit_mult",
                               h.counit @ h.mul, tensor(h.counit, h.counit), subject))
    report.add(equality_record("unified.module_unit",
                               d.phi_h @ tensor(idh, a.unit), idh, subject))
    report.add(equality_record("unified.module_assoc",
                               d.phi_h @ tensor(d.phi_h, ida),
                               d.phi_h @ tensor(idh, a.mul), subject))
    return report


def check_be(d: ExtendingDatum, subject: str = "") -> Report:
    """The seven extension conditions, in their morphism form."""
    a, h, ida, idh, _, _ = _maps(d)
    psi, sigma = induced_psi(d), induced_sigma(d)
    c_ah = braiding(d.field, a.dim, h.dim)
    report = Report()
    report.add(equality_record("unified.be1",
                               h.mul @ tensor(h.mul, idh),
                               h.mul @ tensor(d.phi_h, idh) @ tensor(idh, sigma), subject))
    report.add(equality_record("unified.be2",
                               d.phi_a @ tensor(idh, a.mul),
                               a.mul @ tensor(ida, d.phi_a) @ tensor(psi, ida), subject))
    report.add(equality_record("unified.be3",
                               d.phi_h @ tensor(h.mul, ida),
                               h.mul @ tensor(d.phi_h, idh) @ tensor(idh, psi), subject))
    report.add(equality_record("unified.be4",
                               a.mul @ tensor(ida, d.tau) @ tensor(psi, idh) @ tensor(idh, psi),
                               a.mul @ tensor(ida, d.phi_a) @ tensor(sigma, ida), subject))
    report.add(equality_record("unified.be5",
                               a.mul @ tensor(ida, d.tau) @ tensor(psi, idh) @ tensor(idh, sigma),
                               a.mul @ tensor(ida, d.tau) @ tensor(sigma, idh), subject))
    report.add(equality_record("unified.be6",
                               c_ah @ psi,
                               after_tensor_comul(tensor(d.phi_h, d.phi_a), h, a), subject))
    report.add(equality_record("unified.be7",
                               c_ah @ sigma,
                               after_tensor_comul(tensor(h.mul, d.tau), h, h), subject))
    return report


def lemma_identities_report(d: ExtendingDatum, subject: str = "") -> Report:
    """Recovery identities for the induced maps.

    The last two need the extending coproduct (resp. counit) to be
    multiplicative; on data without that property they are reported as
    skipped, never asserted.
    """
    a, h, ida, idh, _, _ = _maps(d)
    psi, sigma = induced_psi(d), induced_sigma(d)
    mult = multiplicativity_report(d)
    report = Report()
    report.add(equality_record("unified.lemma_psi_right_comul",
                               after_tensor_comul(tensor(psi, d.phi_h), h, a),
                               tensor(ida, h.comul) @ psi, subject))
    report.add(equality_record("unified.lemma_psi_left_comul",
                               after_tensor_comul(tensor(d.phi_a, psi), h, a),
                               tensor(a.comul, idh) @ psi, subject))
    report.add(equality_record("unified.lemma_sigma_left_comul",
                               tensor(a.comul, idh) @ sigma,
                               after_tensor_comul(tensor(d.tau, sigma), h, h), subject))
    report.add(equality_record("unified.lemma_psi_counit",
                               tensor(ida, h.counit) @ psi, d.phi_a, subject))
    report.add(equality_record("unified.lemma_psi_counit_left",
                               tensor(a.counit, idh) @ psi, d.phi_h, subject))
    report.add(equality_record("unified.lemma_sigma_counit_left",
                               tensor(a.counit, idh) @ sigma, h.mul, subject))
    if mult["unified.h_comul_mult"].passed:
        report.add(equality_record("unified.lemma_sigma_right_comul",
                                   after_tensor_comul(tensor(sigma, h.mul), h, h),
                                   tensor(ida, h.comul) @ sigma, subject))
    else:
        report.add(skipped_record("unified.lemma_sigma_right_comul", subject=subject,
                                  note="extending coproduct is not multiplicative"))
    if mult["unified.h_counit_mult"].passed:
        report.add(equality_record("unified.lemma_tau_counit",
                                   tensor(ida, h.counit) @ sigma, d.tau, subject))
    else:
        report.add(skipped_record("unified.lemma_tau_counit", subject=subject,
                                  note="extending counit is not multiplicative"))
    return report


def induce(d: ExtendingDatum) -> CrossedSystem:
    """Build the induced crossed system.

    The ungated recovery identities are re-verified first.  Failure of
    the compatibility condition is reported as missing hypotheses (the
    left action is not partially multiplicative or the right action is
    not a module action), not as corruption.
    """
    for record in lemma_identities_report(d).records:
        if record.failed:
            raise PreconditionError(
                record.check,
                f"recovery identity {record.anchor!r} fails: extending datum is corrupted")
    try:
        return CrossedSystem(d.bialgebra.algebra, d.hobj.dim,
                             induced_psi(d), induced_sigma(d))
    except CompatibilityError as exc:
        raise PreconditionError(
            "unified.be2",
            "compatibility fails for the induced twisting map; the datum lacks "
            "the partial multiplicativity (BE2) or right module hypotheses") from exc


def check_nabla_identity(d: ExtendingDatum, subject: str = "") -> Report:
    """The induced projector must be the identity on A (x) H."""
    report = Report()
    nabla = nabla_of(d.bialgebra.algebra, induced_psi(d), d.hobj.dim)
    report.add(equality_record("unified.nabla_identity", nabla,
                               identity(d.field, nabla.source), subject))
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


def unified_pipeline(d: ExtendingDatum,
                     subject: str = "") -> tuple[Report, WeakCrossedProduct | None]:
    """All datum-level checks plus, when they pass, the built unified product."""
    report = Report()
    report.extend(check_extending_datum(d, subject))
    report.extend(multiplicativity_report(d, subject))
    report.extend(lemma_identities_report(d, subject))
    if not report.passed:
        return report, None
    report.extend(check_be(d, subject))
    report.extend(check_nabla_identity(d, subject))
    if not report.passed:
        return report, None
    system = induce(d)
    report.extend(check_normalized(system, subject))
    product = build_products(system)
    report.extend(product_checks(product, subject))
    report.add(equality_record("unified.bullet_oracle",
                               product.mu_tensor, bullet_product(d), subject))
    a, h = d.bialgebra, d.hobj
    nu = tensor(a.unit, h.unit)
    id_ah = identity(d.field, product.mu_tensor.target)
    report.add(equality_record("unified.unit_left",
                               product.mu_tensor @ tensor(nu, id_ah), id_ah, subject))
    report.add(equality_record("unified.unit_right",
                               product.mu_tensor @ tensor(id_ah, nu), id_ah, subject))
    report.extend(check_preunit(product, nu, subject))
    if not report.passed:
        return report, None
    product = build_algebra(product, nu)
    report.extend(algebra_checks(product, subject))
    report.facts["nabla_is_identity"] = report["unified.nabla_identity"].passed
    report.facts["product_dim"] = product.dim
    return report, product


def build_unified_product(d: ExtendingDatum) -> WeakCrossedProduct:
    report, product = unified_pipeline(d)
    if product is None:
        bad = report.failures()[0]
        raise PreconditionError(bad.check, f"extending datum check failed: {bad.anchor}")
    return product


def _swap_lemma_sides(d: ExtendingDatum, use_sigma: bool):
    a, h, ida, idh, c_ha, c_hh = _maps(d)
    if use_sigma:
        inner = tensor(a.comul, idh) @ induced_sigma(d)
        rhs = (tensor(induced_sigma(d), d.phi_h)
               @ tensor(idh, c_hh, d.tau)
               @ tensor(c_hh, c_hh, idh)
               @ tensor(idh, h.comul, h.comul))
    else:
        inner = tensor(a.comul, idh) @ induced_psi(d)
        rhs = (tensor(induced_psi(d), d.phi_h)
               @ tensor(idh, c_ha, d.phi_a)
               @ tensor(c_hh, c_ha, ida)
               @ tensor(idh, h.comul, a.comul))
    lhs = (tensor(ida, c_hh @ tensor(d.phi_h, idh))
           @ tensor(c_ha, ida, idh)
           @ tensor(idh, inner))
    return lhs, rhs


def support_lemmas_report(d: ExtendingDatum, subject: str = "") -> Report:
    """The two swap identities; each needs its own extension condition."""
    be = check_be(d, subject)
    report = Report()
    if be["unified.be6"].passed:
        report.add(equality_record("unified.lemma_swap_psi",
                                   *_swap_lemma_sides(d, use_sigma=False), subject=subject))
    else:
        report.add(skipped_record("unified.lemma_swap_psi", subject=subject,
                                  note="BE6 does not hold"))
    if be["unified.be7"].passed:
        report.add(equality_record("unified.lemma_swap_sigma",
                                   *_swap_lemma_sides(d, use_sigma=True), subject=subject))
    else:
        report.add(skipped_record("unified.lemma_swap_sigma", subject=subject,
                                  note="BE7 does not hold"))
    return report


def theorem_equivalence_suite_unified(d: ExtendingDatum, subject: str = "") -> Report:
    """Implications between the quadruple conditions and BE4/BE5.

    Each direction is gated on its stated hypotheses; a datum missing a
    hypothesis yields a skipped record rather than a vacuous assertion.
    The swap-identity lemmas are verified alongside.
    """
    be = check_be(d)
    mult = multiplicativity_report(d)
    algebra = d.bialgebra.algebra
    psi, sigma = induced_psi(d), induced_sigma(d)
    eq_twisted = equals(*twisted_sides(algebra, psi, sigma, d.hobj.dim))
    eq_cocycle = equals(*cocycle_sides(algebra, psi, sigma, d.hobj.dim))
    be4 = be["unified.be4"].passed
    be5 = be["unified.be5"].passed
    eps_mult = mult["unified.h_counit_mult"].passed
    comul_mult = mult["unified.h_comul_mult"].passed

    def _status(flag: bool) -> str:
        return "pass" if flag else "fail"

    report = Report()
    if eps_mult:
        report.add(predicate_record(
            "unified.thm_twisted_forward", (not eq_twisted) or be4, subject=subject,
            note=f"twisted {_status(eq_twisted)}, BE4 {_status(be4)}"))
        report.add(predicate_record(
            "unified.thm_cocycle_forward", (not eq_cocycle) or be5, subject=subject,
            note=f"cocycle {_status(eq_cocycle)}, BE5 {_status(be5)}"))
    else:
        report.add(skipped_record("unified.thm_twisted_forward", subject=subject,
                                  note="extending counit is not multiplicative"))
        report.add(skipped_record("unified.thm_cocycle_forward", subject=subject,
                                  note="extending counit is not multiplicative"))
    if be["unified.be3"].passed and be["unified.be6"].passed and comul_mult:
        report.add(predicate_record(
            "unified.thm_twisted_backward", (not be4) or eq_twisted, subject=subject,
            note=f"BE4 {_status(be4)}, twisted {_status(eq_twisted)}"))
    else:
        report.add(skipped_record("unified.thm_twisted_backward", subject=subject,
                                  note="needs BE3, BE6 and a multiplicative coproduct"))
    if be["unified.be1"].passed and be["unified.be7"].passed and comul_mult:
        report.add(predicate_record(
            "unified.thm_cocycle_backward", (not be5) or eq_cocycle, subject=subject,
            note=f"BE5 {_status(be5)}, cocycle {_status(eq_cocycle)}"))
    else:
        report.add(skipped_record("unified.thm_cocycle_backward", subject=subject,
                                  note="needs BE1, BE7 and a multiplicative coproduct"))
    report.extend(support_lemmas_report(d, subject))
    return report


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
