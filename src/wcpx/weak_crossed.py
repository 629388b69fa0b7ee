"""Weak crossed products of an algebra with an object.

The input is a quadruple: an algebra A, an object V, a twisting map
psi: V (x) A -> A (x) V and a cocycle map sigma: V (x) V -> A (x) V.  The
compatibility of psi with the product of A induces an idempotent projector
on A (x) V whose image carries the crossed product; the twisted and cocycle
conditions make that product associative, and a preunit upgrades the image
to a unital algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property

from .linmaps import (LinMap, ShapeMismatchError, Splitting, equals,
                      identity, split_idempotent, tensor)
from .reporting import CheckRecord, Report, equality_record
from .structures import AlgebraData


class PreconditionError(ValueError):
    """A construction was attempted although a required check fails.

    ``record`` is the failed check with its witness, where the raising
    code compared the two sides.
    """

    def __init__(self, check_id: str, message: str, record: CheckRecord | None = None) -> None:
        super().__init__(message)
        self.check_id = check_id
        self.record = record


class CompatibilityError(PreconditionError):
    """The twisting map is not compatible with the product of A."""


def compat_sides(algebra: AlgebraData, psi: LinMap, vdim: int) -> tuple[LinMap, LinMap]:
    """Both sides of the compatibility condition for a twisting map."""
    ida = algebra.id_map
    idv = identity(algebra.field, vdim)
    lhs = tensor(algebra.mul, idv) @ tensor(ida, psi) @ tensor(psi, ida)
    rhs = psi @ tensor(idv, algebra.mul)
    return lhs, rhs


def twisted_sides(algebra: AlgebraData, psi: LinMap, sigma: LinMap,
                  vdim: int) -> tuple[LinMap, LinMap]:
    """Both sides of the twisted condition."""
    ida = algebra.id_map
    idv = identity(algebra.field, vdim)
    lhs = tensor(algebra.mul, idv) @ tensor(ida, psi) @ tensor(sigma, ida)
    rhs = (tensor(algebra.mul, idv) @ tensor(ida, sigma)
           @ tensor(psi, idv) @ tensor(idv, psi))
    return lhs, rhs


def cocycle_sides(algebra: AlgebraData, psi: LinMap, sigma: LinMap,
                  vdim: int) -> tuple[LinMap, LinMap]:
    """Both sides of the cocycle condition."""
    ida = algebra.id_map
    idv = identity(algebra.field, vdim)
    lhs = tensor(algebra.mul, idv) @ tensor(ida, sigma) @ tensor(sigma, idv)
    rhs = (tensor(algebra.mul, idv) @ tensor(ida, sigma)
           @ tensor(psi, idv) @ tensor(idv, sigma))
    return lhs, rhs


def compat_report(algebra: AlgebraData, psi: LinMap, vdim: int, subject: str = "") -> Report:
    report = Report()
    lhs, rhs = compat_sides(algebra, psi, vdim)
    report.add(equality_record("wcp.compat", lhs, rhs, subject))
    return report


@dataclass(frozen=True)
class CrossedSystem:
    """A quadruple (A, V, psi, sigma) with the compatibility condition enforced.

    Constructing a system verifies that psi is compatible with the product
    of A; the twisted, cocycle and normalization conditions stay separate
    checks so that failing systems can still be inspected.
    """

    algebra: AlgebraData
    vdim: int
    psi: LinMap
    sigma: LinMap

    def __post_init__(self) -> None:
        a, v = self.algebra.dim, self.vdim
        if v < 1:
            raise ShapeMismatchError("object dimension must be positive")
        if self.psi.source.total != v * a or self.psi.target.total != a * v:
            raise ShapeMismatchError(
                f"psi must map V⊗A -> A⊗V with dims ({v},{a}); got {self.psi}")
        if self.sigma.source.total != v * v or self.sigma.target.total != a * v:
            raise ShapeMismatchError(
                f"sigma must map V⊗V -> A⊗V with dims ({v},{v}); got {self.sigma}")
        record = compat_report(self.algebra, self.psi, self.vdim).records[0]
        if record.failed:
            w = record.witness
            detail = ""
            if w is not None:
                detail = (f" at source {tuple(i + 1 for i in w.source_index)} "
                          f"target {tuple(i + 1 for i in w.target_index)}: "
                          f"{w.left} vs {w.right}")
            raise CompatibilityError(
                "wcp.compat",
                "twisting map is not compatible with the product" + detail)

    @property
    def field(self):
        return self.algebra.field

    @cached_property
    def nabla(self) -> LinMap:
        return build_nabla(self)


def nabla_of(algebra: AlgebraData, psi: LinMap, vdim: int) -> LinMap:
    """The raw projector composite on A (x) V; no conditions assumed or checked."""
    ida = algebra.id_map
    idv = identity(algebra.field, vdim)
    return tensor(algebra.mul, idv) @ tensor(ida, psi) @ tensor(ida, idv, algebra.unit)


def build_nabla(system: CrossedSystem) -> LinMap:
    """The projector on A (x) V induced by the twisting map.

    Idempotency and left linearity over A are consequences of the
    compatibility condition; both are re-verified here and a violation
    means the system data was corrupted after construction.
    """
    a = system.algebra
    ida, idv = a.id_map, identity(a.field, system.vdim)
    nabla = nabla_of(a, system.psi, system.vdim)
    square = nabla @ nabla
    if not equals(square, nabla):
        raise CompatibilityError("wcp.nabla_idempotent", "induced projector is not idempotent",
                                 equality_record("wcp.nabla_idempotent", square, nabla))
    left_action = tensor(a.mul, idv)
    lhs, rhs = nabla @ left_action, left_action @ tensor(ida, nabla)
    if not equals(lhs, rhs):
        raise CompatibilityError("wcp.nabla_left_linear", "induced projector is not left linear",
                                 equality_record("wcp.nabla_left_linear", lhs, rhs))
    return nabla


def check_compat(system: CrossedSystem, subject: str = "") -> Report:
    return compat_report(system.algebra, system.psi, system.vdim, subject)


def check_twisted(system: CrossedSystem, subject: str = "") -> Report:
    report = Report()
    lhs, rhs = twisted_sides(system.algebra, system.psi, system.sigma, system.vdim)
    report.add(equality_record("wcp.twisted", lhs, rhs, subject))
    return report


def check_cocycle(system: CrossedSystem, subject: str = "") -> Report:
    report = Report()
    lhs, rhs = cocycle_sides(system.algebra, system.psi, system.sigma, system.vdim)
    report.add(equality_record("wcp.cocycle", lhs, rhs, subject))
    return report


def check_normalized(system: CrossedSystem, subject: str = "") -> Report:
    report = Report()
    report.add(equality_record("wcp.sigma_normalized",
                               system.nabla @ system.sigma, system.sigma, subject))
    return report


def normalize_sigma(system: CrossedSystem) -> CrossedSystem:
    """Replace sigma by its projection; a no-op when already normalized."""
    projected = system.nabla @ system.sigma
    if equals(projected, system.sigma):
        return system
    return replace(system, sigma=projected)


def build_mu_tensor(system: CrossedSystem) -> LinMap:
    """The crossed product on A (x) V (no conditions assumed)."""
    a = system.algebra
    ida, idv = a.id_map, identity(a.field, system.vdim)
    return tensor(a.mul, idv) @ tensor(a.mul, system.sigma) @ tensor(ida, system.psi, idv)


@dataclass(frozen=True)
class WeakCrossedProduct:
    """The crossed product data on A (x) V and on the projector image.

    ``mu_tensor`` is the product on the whole tensor space, ``mu_times``
    its restriction through the splitting.  ``preunit``/``unit_times`` and
    the base embedding are filled in by build_algebra.
    """

    system: CrossedSystem
    nabla: LinMap
    splitting: Splitting
    mu_tensor: LinMap
    mu_times: LinMap
    preunit: LinMap | None = None
    unit_times: LinMap | None = None
    embedding: LinMap | None = None  # base algebra -> restricted product
    # (inputs, records) of the product_checks that build_products evaluated
    checked: tuple | None = dc_field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.splitting.mid.total

    @property
    def field(self):
        return self.system.field


def _checked_inputs(product: WeakCrossedProduct) -> tuple:
    return (product.system, product.nabla, product.splitting, product.mu_tensor,
            product.mu_times)


def product_checks(product: WeakCrossedProduct, subject: str = "") -> Report:
    """Structural facts about a built product: projector, splitting, associativity.

    The records build_products evaluated are reused while the product
    still holds the same system and maps, so each is evaluated once.
    """
    if product.checked is not None:
        inputs, records = product.checked
        if all(a is b for a, b in zip(inputs, _checked_inputs(product))):
            return Report([replace(r, subject=subject) for r in records])
    system = product.system
    f = system.field
    nabla, mu = product.nabla, product.mu_tensor
    id_av = identity(f, product.mu_tensor.target)
    id_mid = identity(f, product.splitting.mid)
    report = Report()
    report.add(equality_record("wcp.nabla_idempotent", nabla @ nabla, nabla, subject))
    left_action = tensor(system.algebra.mul, identity(f, system.vdim))
    report.add(equality_record("wcp.nabla_left_linear",
                               nabla @ left_action,
                               left_action @ tensor(system.algebra.id_map, nabla), subject))
    report.add(equality_record("wcp.splitting_section",
                               product.splitting.projection @ product.splitting.injection,
                               id_mid, subject))
    report.add(equality_record("wcp.splitting_factors",
                               product.splitting.injection @ product.splitting.projection,
                               nabla, subject))
    report.add(equality_record("wcp.product_assoc",
                               mu @ tensor(mu, id_av), mu @ tensor(id_av, mu), subject))
    report.add(equality_record("wcp.product_norm_left", nabla @ mu, mu, subject))
    report.add(equality_record("wcp.product_norm_right",
                               mu @ tensor(nabla, nabla), mu, subject))
    report.add(equality_record("wcp.restricted_assoc",
                               product.mu_times @ tensor(product.mu_times, id_mid),
                               product.mu_times @ tensor(id_mid, product.mu_times), subject))
    return report


def build_products(system: CrossedSystem) -> WeakCrossedProduct:
    """Assemble the crossed product after the twisted / cocycle / normalization gates."""
    for gate in (check_twisted, check_cocycle, check_normalized):
        record = gate(system).records[0]
        if record.failed:
            raise PreconditionError(record.check,
                                    f"cannot build the crossed product: {record.anchor} fails",
                                    record)
    nabla = system.nabla
    splitting = split_idempotent(nabla)
    mu_tensor = build_mu_tensor(system)
    mu_times = (splitting.projection @ mu_tensor
                @ tensor(splitting.injection, splitting.injection))
    product = WeakCrossedProduct(system, nabla, splitting, mu_tensor, mu_times)
    checks = product_checks(product)
    bad = checks.failures()
    if bad:
        raise PreconditionError(bad[0].check,
                                f"crossed product postcondition failed: {bad[0].anchor}",
                                bad[0])
    return replace(product, checked=(_checked_inputs(product), checks.records))


def beta_map(system: CrossedSystem, nu: LinMap) -> LinMap:
    """The base comparison map a -> a . nu into A (x) V."""
    a = system.algebra
    return tensor(a.mul, identity(a.field, system.vdim)) @ tensor(a.id_map, nu)


def check_preunit(product: WeakCrossedProduct, nu: LinMap, subject: str = "") -> Report:
    """Preunit laws for nu plus its three compatibility conditions.

    Also compares the projector induced by nu with the projector of the
    system; their agreement is what makes nu a preunit for the crossed
    product rather than for some other product on the same space.
    """
    system = product.system
    a = system.algebra
    f, idv, ida = a.field, identity(a.field, system.vdim), a.id_map
    m, nabla = product.mu_tensor, product.nabla
    id_av = identity(f, m.target)
    if nu.source.total != 1 or nu.target.total != a.dim * system.vdim:
        raise ShapeMismatchError(f"preunit must map K -> A⊗V, got {nu}")
    right = m @ tensor(id_av, nu)
    left = m @ tensor(nu, id_av)
    square = m @ tensor(id_av, m @ tensor(nu, nu))
    eta_v = nabla @ tensor(a.unit, idv)
    report = Report()
    report.add(equality_record("wcp.preunit_switch", right, left, subject))
    report.add(equality_record("wcp.preunit_square", right, square, subject))
    report.add(equality_record("wcp.pre1",
                               tensor(a.mul, idv) @ tensor(ida, system.sigma)
                               @ tensor(system.psi, idv) @ tensor(idv, nu),
                               eta_v, subject))
    report.add(equality_record("wcp.pre2",
                               tensor(a.mul, idv) @ tensor(ida, system.sigma) @ tensor(nu, idv),
                               eta_v, subject))
    report.add(equality_record("wcp.pre3",
                               tensor(a.mul, idv) @ tensor(ida, system.psi) @ tensor(nu, ida),
                               beta_map(system, nu), subject))
    report.add(equality_record("wcp.preunit_projector", right, nabla, subject))
    return report


def algebra_checks(product: WeakCrossedProduct, subject: str = "") -> Report:
    """Unit laws on the restricted product and the base-map properties."""
    if product.unit_times is None or product.embedding is None:
        raise PreconditionError("wcp.unit_left", "product has no unit yet; run build_algebra")
    system = product.system
    a = system.algebra
    id_mid = identity(product.field, product.splitting.mid)
    report = Report()
    report.add(equality_record("wcp.unit_left",
                               product.mu_times @ tensor(product.unit_times, id_mid),
                               id_mid, subject))
    report.add(equality_record("wcp.unit_right",
                               product.mu_times @ tensor(id_mid, product.unit_times),
                               id_mid, subject))
    beta = beta_map(system, product.preunit)
    report.add(equality_record("wcp.base_map_mult",
                               product.mu_tensor @ tensor(beta, beta),
                               beta @ a.mul, subject))
    report.add(equality_record("wcp.base_map_left_linear",
                               beta @ a.mul,
                               tensor(a.mul, identity(product.field, system.vdim))
                               @ tensor(a.id_map, beta), subject))
    report.add(equality_record("wcp.embedding_mult",
                               product.mu_times @ tensor(product.embedding, product.embedding),
                               product.embedding @ system.algebra.mul, subject))
    report.add(equality_record("wcp.embedding_unital",
                               product.embedding @ system.algebra.unit,
                               product.unit_times, subject))
    return report


def build_algebra(product: WeakCrossedProduct, nu: LinMap) -> WeakCrossedProduct:
    """Complete the crossed product to a unital algebra using the preunit nu."""
    pre = check_preunit(product, nu)
    bad = pre.failures()
    if bad:
        raise PreconditionError(bad[0].check,
                                f"nu is not a preunit for this product: {bad[0].anchor} fails")
    p = product.splitting.projection
    unit_times = p @ nu
    embedding = p @ beta_map(product.system, nu)
    completed = replace(product, preunit=nu, unit_times=unit_times, embedding=embedding)
    failed = algebra_checks(completed).failures()
    if failed:
        raise PreconditionError(failed[0].check,
                                f"restricted algebra postcondition failed: {failed[0].anchor}")
    return completed

