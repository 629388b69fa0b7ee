"""Twisted partial actions of a Hopf algebra and the crossed products they induce.

A twisted partial action is a pair of maps: an action phi: H (x) A -> A that
need not be unital on the acting side, and a cocycle omega: H (x) H -> A.
The pair induces a twisting map and a cocycle map on A (x) H; the partial
conditions on (phi, omega) translate one-for-one into the weak crossed
product conditions on the induced pair, and the crossed product lives on
the image of the induced projector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from . import _elements as el
from .fields import FieldSpec
from .linmaps import LinMap, ObjectShape, ShapeMismatchError, braiding, tensor
from .reporting import (CheckRecord, Report, anchor_for, equality_record, memoised,
                        predicate_record)
from .structures import (AlgebraData, HopfData, after_tensor_comul, group_algebra,
                         product_algebra)
from .weak_crossed import (CrossedSystem, WeakCrossedProduct, check_cocycle, check_twisted,
                           product_report)


@dataclass(frozen=True)
class TwistedPartialAction:
    """Candidate twisted partial action data; validity is what the checks decide."""

    hopf: HopfData
    algebra: AlgebraData
    phi: LinMap    # H (x) A -> A
    omega: LinMap  # H (x) H -> A

    def __post_init__(self) -> None:
        h, a = self.hopf.dim, self.algebra.dim
        if self.phi.source.total != h * a or self.phi.target.total != a:
            raise ShapeMismatchError(f"phi must map H⊗A -> A, got {self.phi}")
        if self.omega.source.total != h * h or self.omega.target.total != a:
            raise ShapeMismatchError(f"omega must map H⊗H -> A, got {self.omega}")
        if self.hopf.field != self.algebra.field:
            raise ShapeMismatchError("hopf and algebra live over different fields")

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @cached_property
    def system(self) -> CrossedSystem:
        """The crossed system (A, H, psi, sigma) induced by (phi, omega), built once;
        the induced-map checks, the pipeline and the suite all read it."""
        return CrossedSystem(self.algebra, self.hopf.dim, induced_psi(self), induced_sigma(self))


def _maps(act: TwistedPartialAction):
    h, a = act.hopf, act.algebra
    return h, a, h.algebra.id_map, a.id_map


def induced_psi(act: TwistedPartialAction) -> LinMap:
    h, a, idh, ida = _maps(act)
    c_ha = braiding(act.field, h.dim, a.dim)
    return tensor(act.phi, idh) @ tensor(idh, c_ha) @ tensor(h.comul, ida)


def induced_sigma(act: TwistedPartialAction) -> LinMap:
    h = act.hopf
    return after_tensor_comul(tensor(act.omega, h.mul), h, h)


@memoised
def lemma_report(act: TwistedPartialAction) -> Report:
    """Identities tying the induced maps back to (phi, omega).

    These hold for arbitrary (phi, omega) as long as H really is a Hopf
    algebra, so a failure here points at corrupted structure constants.
    """
    h, a, idh, ida = _maps(act)
    psi, sigma = act.system.psi, act.system.sigma
    c_ha = braiding(act.field, h.dim, a.dim)
    eps = h.counit
    report = Report()
    report.add(equality_record(
        "partial.lemma_psi_comul",
        tensor(psi, idh) @ tensor(idh, c_ha) @ tensor(h.comul, ida),
        tensor(ida, h.comul) @ psi))
    report.add(equality_record(
        "partial.lemma_sigma_comul",
        after_tensor_comul(tensor(sigma, h.mul), h, h),
        tensor(ida, h.comul) @ sigma))
    report.add(equality_record("partial.lemma_psi_counit", tensor(ida, eps) @ psi, act.phi))
    report.add(equality_record("partial.lemma_sigma_counit", tensor(ida, eps) @ sigma, act.omega))
    return report


def _action_mult_sides(act: TwistedPartialAction, composite: bool):
    h, a, idh, ida = _maps(act)
    lhs = act.phi @ tensor(idh, a.mul)
    if composite:
        c_ha = braiding(act.field, h.dim, a.dim)
        rhs = (a.mul @ tensor(act.phi, act.phi) @ tensor(idh, c_ha, ida)
               @ tensor(h.comul, ida, ida))
    else:
        rhs = a.mul @ tensor(ida, act.phi) @ tensor(act.system.psi, ida)
    return lhs, rhs


def _twist_sides(act: TwistedPartialAction, composite: bool):
    h, a, idh, ida = _maps(act)
    psi = act.system.psi
    if composite:
        c_ha = braiding(act.field, h.dim, a.dim)
        lhs = (a.mul @ tensor(act.phi, act.omega) @ tensor(idh, c_ha, idh)
               @ tensor(h.comul, psi))
    else:
        lhs = a.mul @ tensor(ida, act.omega) @ tensor(psi, idh) @ tensor(idh, psi)
    rhs = a.mul @ tensor(ida, act.phi) @ tensor(act.system.sigma, ida)
    return lhs, rhs


def _absorb_sides(act: TwistedPartialAction):
    a = act.algebra
    return act.omega, a.mul @ tensor(a.id_map, act.phi) @ tensor(act.system.sigma, a.unit)


@memoised
def _induced_form(act: TwistedPartialAction, sides) -> Report:
    """The induced-map form of the partial twisted (``_twist_sides``) or
    cocycle (``_cocycle_sides``) condition, shared by its check and the suite."""
    check_id = "partial.twist" if sides is _twist_sides else "partial.cocycle"
    return Report([equality_record(check_id, *sides(act, False))])


def _both_forms(composite: CheckRecord, induced: CheckRecord) -> list[CheckRecord]:
    """Both forms of a condition and the record of their agreement."""
    return [composite, induced, predicate_record(
        f"{induced.check}_forms_agree", composite.status == induced.status,
        note=f"composite {composite.status}, induced {induced.status}")]


def check_partial_action(act: TwistedPartialAction) -> Report:
    """The defining conditions, in the composite form and the induced-map form.

    Both forms of each condition are evaluated and their agreement is
    asserted as its own record, guarding the wiring of the induced maps.
    The two forms of the cocycle absorption share sigma, whose composite
    form is its definition, so they are one evaluation under two check ids.
    """
    h, ida = act.hopf, act.algebra.id_map
    absorb = equality_record("partial.cocycle_absorb", *_absorb_sides(act))
    composite_id = "partial.cocycle_absorb_composite"
    return Report([
        equality_record("partial.identity", act.phi @ tensor(h.unit, ida), ida),
        *_both_forms(equality_record("partial.mult_composite", *_action_mult_sides(act, True)),
                     equality_record("partial.mult", *_action_mult_sides(act, False))),
        *_both_forms(equality_record("partial.twist_composite", *_twist_sides(act, True)),
                     _induced_form(act, _twist_sides).records[0]),
        *_both_forms(replace(absorb, check=composite_id, anchor=anchor_for(composite_id)),
                     absorb)])


def _cocycle_sides(act: TwistedPartialAction, composite: bool):
    h, a, idh, ida = _maps(act)
    sigma = act.system.sigma
    if composite:
        c_ha = braiding(act.field, h.dim, a.dim)
        lhs = (a.mul @ tensor(act.phi, act.omega) @ tensor(idh, c_ha, idh)
               @ tensor(h.comul, sigma))
    else:
        lhs = a.mul @ tensor(ida, act.omega) @ tensor(act.system.psi, idh) @ tensor(idh, sigma)
    rhs = a.mul @ tensor(ida, act.omega) @ tensor(sigma, idh)
    return lhs, rhs


def check_units_and_cocycle(act: TwistedPartialAction) -> Report:
    """Unit conditions on omega and the partial cocycle condition in both forms."""
    h, a, idh, _ = _maps(act)
    unit_target = act.phi @ tensor(idh, a.unit)
    return Report([
        equality_record("partial.unit_right", act.omega @ tensor(idh, h.unit), unit_target),
        equality_record("partial.unit_left", act.omega @ tensor(h.unit, idh), unit_target),
        *_both_forms(equality_record("partial.cocycle_composite", *_cocycle_sides(act, True)),
                     _induced_form(act, _cocycle_sides).records[0])])


def partial_report(act: TwistedPartialAction) -> Report:
    report = Report()
    report.extend(check_partial_action(act))
    report.extend(check_units_and_cocycle(act))
    report.extend(lemma_report(act))
    return report


def nabla_unit_form(act: TwistedPartialAction) -> LinMap:
    """The projector written through omega; equals the induced projector
    whenever the unit conditions hold."""
    h, a, idh, ida = _maps(act)
    return (tensor(a.mul @ tensor(ida, act.omega), idh)
            @ tensor(ida, h.unit, h.comul))


def sweedler_nabla(act: TwistedPartialAction) -> LinMap:
    """Elementwise oracle for the projector: a (x) h -> sum a(h1 . 1) (x) h2."""
    h, a = act.hopf, act.algebra
    field = act.field
    one_a = el.unit_vec(a.unit)
    values: dict[tuple[int, int], object] = {}
    for ai in range(a.dim):
        for hi in range(h.dim):
            col = ai * h.dim + hi
            for (h1, h2), c in el.expand_pairs(h.comul, hi):
                moved = el.apply_to_pair(act.phi, el.basis_vec(h1, field), one_a)
                prod = el.apply_to_pair(a.mul, el.basis_vec(ai, field), moved)
                for k, v in prod.items():
                    key = (k * h.dim + h2, col)
                    values[key] = values.get(key, field.zero()) + c * v
    sh = ObjectShape((a.dim, h.dim))
    return LinMap.from_dict(field, sh, sh, {k: v for k, v in values.items() if v})


def sweedler_product(act: TwistedPartialAction) -> LinMap:
    """Elementwise oracle for the crossed product on A (x) H:

        (a (x) h)(b (x) l) = sum a (h1 . b) omega(h2 (x) l1) (x) h3 l2
    """
    h, a = act.hopf, act.algebra
    field = act.field
    values: dict[tuple[int, int], object] = {}
    for ai in range(a.dim):
        for hi in range(h.dim):
            for bi in range(a.dim):
                for li in range(h.dim):
                    col = ((ai * h.dim + hi) * a.dim + bi) * h.dim + li
                    for (h1, h2, h3), ch in el.expand_triples(h.comul, hi):
                        for (l1, l2), cl in el.expand_pairs(h.comul, li):
                            acted = el.apply_to_pair(act.phi, el.basis_vec(h1, field),
                                                     el.basis_vec(bi, field))
                            twist = el.apply_to_pair(act.omega, el.basis_vec(h2, field),
                                                     el.basis_vec(l1, field))
                            left = el.apply_to_pair(a.mul, el.basis_vec(ai, field), acted)
                            left = el.apply_to_pair(a.mul, left, twist)
                            tail = el.apply_to_pair(h.mul, el.basis_vec(h3, field),
                                                    el.basis_vec(l2, field))
                            for k, va in left.items():
                                for m, vh in tail.items():
                                    key = (k * h.dim + m, col)
                                    prev = values.get(key, field.zero())
                                    values[key] = prev + ch * cl * va * vh
    source = ObjectShape((a.dim, h.dim, a.dim, h.dim))
    target = ObjectShape((a.dim, h.dim))
    return LinMap.from_dict(field, source, target, {k: v for k, v in values.items() if v})


def partial_pipeline(act: TwistedPartialAction) -> tuple[Report, WeakCrossedProduct | None]:
    """All §-level checks plus, when they pass, the built crossed product."""
    report = partial_report(act)
    if not report.passed:
        return report, None
    built, product = product_report(
        act.system, tensor(act.algebra.unit, act.hopf.unit), lambda product: (
            equality_record("partial.nabla_unit_form", act.system.nabla, nabla_unit_form(act)),
            equality_record("partial.product_oracle", act.system.mu_tensor, sweedler_product(act))))
    report.extend(built)
    if not report.passed:
        return report, None
    report.facts["nabla_rank"] = product.splitting.mid.total
    report.facts["product_dim"] = product.dim
    return report, product


def theorem_equivalence_suite(act: TwistedPartialAction) -> Report:
    """Status equality between the partial conditions and the quadruple conditions.

    The partial twisted condition must hold exactly when the induced pair
    satisfies the twisted condition, and likewise for the cocycle
    condition; both directions are asserted as one status comparison per
    theorem, on valid and on broken inputs alike.
    """
    partial_twist = _induced_form(act, _twist_sides).passed
    partial_cocycle = _induced_form(act, _cocycle_sides).passed
    eq_twisted = check_twisted(act.system).passed
    eq_cocycle = check_cocycle(act.system).passed
    report = Report()
    report.add(predicate_record(
        "partial.thm_twisted_equiv", partial_twist == eq_twisted,
        note=f"partial side {'pass' if partial_twist else 'fail'}, "
             f"quadruple side {'pass' if eq_twisted else 'fail'}"))
    report.add(predicate_record(
        "partial.thm_cocycle_equiv", partial_cocycle == eq_cocycle,
        note=f"partial side {'pass' if partial_cocycle else 'fail'}, "
             f"quadruple side {'pass' if eq_cocycle else 'fail'}"))
    return report


# ---------------------------------------------------------------------------
# canonical fixtures

def smash_omega(hopf: HopfData, algebra: AlgebraData, phi: LinMap) -> LinMap:
    """The cocycle omega(h (x) l) = phi(h (x) phi(l (x) 1)) of a smash-style action."""
    idh = hopf.algebra.id_map
    return phi @ tensor(idh, phi @ tensor(idh, algebra.unit))


def global_action(field: FieldSpec) -> TwistedPartialAction:
    """The trivial global action of the order-2 group algebra on itself."""
    hopf = group_algebra(2, field)
    alg = group_algebra(2, field).algebra
    phi = tensor(hopf.counit, alg.id_map)
    omega = alg.unit @ tensor(hopf.counit, hopf.counit)
    return TwistedPartialAction(hopf, alg, phi, omega)


def lambda_zero_action(field: FieldSpec) -> TwistedPartialAction:
    """The rank-one partial action on the base field killing the group generator."""
    hopf = group_algebra(2, field)
    alg = product_algebra(1, field)
    one = field.one()
    phi = LinMap.from_dict(field, ObjectShape((2, 1)), ObjectShape((1,)), {(0, 0): one})
    omega = LinMap.from_dict(field, ObjectShape((2, 2)), ObjectShape((1,)), {(0, 0): one})
    return TwistedPartialAction(hopf, alg, phi, omega)


def partial_smash_action(field: FieldSpec) -> TwistedPartialAction:
    """The order-2 group algebra acting partially on the split plane k x k.

    The generator fixes e1 and kills e2; the cocycle is the smash-style
    one, omega(h (x) l) = h.(l.1).
    """
    hopf = group_algebra(2, field)
    alg = product_algebra(2, field)
    one = field.one()
    phi = LinMap.from_dict(field, ObjectShape((2, 2)), ObjectShape((2,)),
                           {(0, 0): one, (1, 1): one, (0, 2): one})
    omega = smash_omega(hopf, alg, phi)
    return TwistedPartialAction(hopf, alg, phi, omega)
