"""Weak crossed products of an algebra with an object.

The input is a quadruple: an algebra A, an object V, a twisting map
psi: V (x) A -> A (x) V and a cocycle map sigma: V (x) V -> A (x) V.  The
compatibility of psi with the product of A induces an idempotent projector
on A (x) V whose image carries the crossed product; the twisted and cocycle
conditions make that product associative, and a preunit upgrades the image
to a unital algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .linmaps import (LinMap, ShapeMismatchError, Splitting, identity, permute,
                      split_idempotent, tensor)
from .reporting import CheckRecord, Report, equality_record, memoised, predicate_record
from .structures import AlgebraData


class PreconditionError(ValueError):
    """A construction was attempted although a required check fails.

    ``record`` is the failed check with its witness; ``require`` raises
    every error that a failed report causes.
    """

    def __init__(self, check_id: str, message: str, record: CheckRecord | None = None) -> None:
        super().__init__(message)
        self.check_id = check_id
        self.record = record


def compat_report(algebra: AlgebraData, psi: LinMap, vdim: int) -> Report:
    """The compatibility of a twisting map with the product of A."""
    ida, idv = algebra.id_map, identity(algebra.field, vdim)
    lhs = tensor(algebra.mul, idv) @ tensor(ida, psi) @ tensor(psi, ida)
    rhs = psi @ tensor(idv, algebra.mul)
    return Report([equality_record("wcp.compat", lhs, rhs)])


@dataclass(frozen=True)
class CrossedSystem:
    """A quadruple (A, V, psi, sigma) of matching shapes.

    Construction checks shapes only.  Compatibility, the twisted, cocycle
    and normalization conditions are separate checks, so that failing
    systems can still be inspected; build_nabla and build_products gate
    on them.
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

    @property
    def field(self):
        return self.algebra.field

    @cached_property
    def nabla(self) -> LinMap:
        """The raw projector composite on A (x) V, no conditions assumed or
        checked; build_nabla is the gated one."""
        a, ida = self.algebra, self.algebra.id_map
        idv = identity(a.field, self.vdim)
        return tensor(a.mul, idv) @ tensor(ida, self.psi) @ tensor(ida, idv, a.unit)

    @cached_property
    def mu_tensor(self) -> LinMap:
        """The crossed product on A (x) V, no conditions assumed or checked;
        its preunit laws need no projector image."""
        a = self.algebra
        ida, idv = a.id_map, identity(a.field, self.vdim)
        return tensor(a.mul, idv) @ tensor(a.mul, self.sigma) @ tensor(ida, self.psi, idv)


@memoised
def check_compat(system: CrossedSystem) -> Report:
    return compat_report(system.algebra, system.psi, system.vdim)


@memoised
def check_nabla(system: CrossedSystem) -> Report:
    """Idempotency of the projector on A (x) V and its left linearity over A."""
    nabla = system.nabla
    left_action = tensor(system.algebra.mul, identity(system.field, system.vdim))
    report = Report()
    report.add(equality_record("wcp.nabla_idempotent", nabla @ nabla, nabla))
    report.add(equality_record("wcp.nabla_left_linear", nabla @ left_action,
                               left_action @ tensor(system.algebra.id_map, nabla)))
    return report


def require(report: Report, message: str) -> None:
    """Raise PreconditionError unless every record of ``report`` passes.

    The exception carries the first failed record, whose witness locates
    the failure; the message names its anchor only.
    """
    bad = report.failures()
    if bad:
        raise PreconditionError(bad[0].check, f"{message}: {bad[0].anchor} fails", bad[0])


def build_nabla(system: CrossedSystem) -> LinMap:
    """The projector on A (x) V induced by the twisting map, behind its gates.

    Raises PreconditionError when psi is not compatible with the product
    of A, or when the projector is not idempotent or not left linear (both
    follow from compatibility when A is a unital associative algebra).
    """
    require(check_compat(system), "cannot build the projector")
    require(check_nabla(system), "cannot build the projector")
    return system.nabla


@memoised
def check_nonzero(system: CrossedSystem) -> Report:
    return Report([predicate_record("wcp.nabla_nonzero", not system.nabla.is_zero(),
                                    note="the image of the projector is the zero space")])


@memoised
def check_twisted(system: CrossedSystem) -> Report:
    a, psi, sigma = system.algebra, system.psi, system.sigma
    ida, idv = a.id_map, identity(a.field, system.vdim)
    lhs = tensor(a.mul, idv) @ tensor(ida, psi) @ tensor(sigma, ida)
    rhs = tensor(a.mul, idv) @ tensor(ida, sigma) @ tensor(psi, idv) @ tensor(idv, psi)
    return Report([equality_record("wcp.twisted", lhs, rhs)])


@memoised
def check_cocycle(system: CrossedSystem) -> Report:
    a, psi, sigma = system.algebra, system.psi, system.sigma
    ida, idv = a.id_map, identity(a.field, system.vdim)
    lhs = tensor(a.mul, idv) @ tensor(ida, sigma) @ tensor(sigma, idv)
    rhs = tensor(a.mul, idv) @ tensor(ida, sigma) @ tensor(psi, idv) @ tensor(idv, sigma)
    return Report([equality_record("wcp.cocycle", lhs, rhs)])


@memoised
def check_normalized(system: CrossedSystem) -> Report:
    return Report([equality_record("wcp.sigma_normalized",
                                   system.nabla @ system.sigma, system.sigma)])


def normalize_sigma(system: CrossedSystem) -> CrossedSystem:
    """Replace sigma by its projection; a no-op when already normalized."""
    nabla = build_nabla(system)
    if check_normalized(system).passed:
        return system
    return replace(system, sigma=nabla @ system.sigma)


@dataclass(frozen=True)
class WeakCrossedProduct:
    """The crossed product on the projector image of a system.

    ``system.mu_tensor`` is the product on the whole tensor space,
    ``mu_times`` its restriction through the splitting of
    ``system.nabla``.  ``preunit``/``unit_times`` and the base embedding
    are filled in by build_algebra.
    """

    system: CrossedSystem
    splitting: Splitting
    mu_times: LinMap
    preunit: LinMap | None = None
    unit_times: LinMap | None = None
    embedding: LinMap | None = None  # base algebra -> restricted product

    @property
    def dim(self) -> int:
        return self.splitting.mid.total

    @property
    def field(self):
        return self.system.field


def assoc_sides(mu: LinMap) -> tuple[LinMap, LinMap]:
    """mu (mu (x) id) and mu (id (x) mu) for a product mu: T (x) T -> T, with
    the sources S (x) T and T (x) S (S the source of mu) that the Kronecker
    forms have.

    Each side is one plain composite of two copies of mu, one of them
    reordered by ``permute``, joined by the summed index k:

      left[i, (a, b, c)]  = sum_k mu[i, (k, c)] mu[k, (a, b)],  rows (i, c)
      right[i, (a, b, c)] = sum_k mu[i, (a, k)] mu[k, (b, c)],  rows (i, a)

    A second ``permute`` moves c, or only the split after i, to the source.
    """
    t, n = mu.target, mu.target.total
    nn = (n, n)
    left = permute(permute(mu, (n,), nn, (0, 2, 1), 2) @ mu, nn, (n * n,), (0, 2, 1), 1)
    right = permute(permute(mu, (n,), nn, (0, 1, 2), 2) @ mu, nn, (n * n,), (0, 1, 2), 1)
    return left.reshaped(mu.source.tensor(t), t), right.reshaped(t.tensor(mu.source), t)


@memoised
def product_checks(product: WeakCrossedProduct) -> Report:
    """Structural facts about a built product: projector, splitting, associativity."""
    f = product.field
    nabla, mu = product.system.nabla, product.system.mu_tensor
    id_mid = identity(f, product.splitting.mid)
    report = check_nabla(product.system)
    report.add(equality_record("wcp.splitting_section",
                               product.splitting.projection @ product.splitting.injection,
                               id_mid))
    report.add(equality_record("wcp.splitting_factors",
                               product.splitting.injection @ product.splitting.projection,
                               nabla))
    report.add(equality_record("wcp.product_assoc", *assoc_sides(mu)))
    report.add(equality_record("wcp.product_norm_left", nabla @ mu, mu))
    report.add(equality_record("wcp.product_norm_right",
                               mu @ tensor(nabla, nabla), mu))
    report.add(equality_record("wcp.restricted_assoc", *assoc_sides(product.mu_times)))
    return report


def build_products(system: CrossedSystem) -> WeakCrossedProduct:
    """Assemble the crossed product behind its gates, in this order:
    compatibility and the projector, twisted, cocycle, normalization, a
    nonzero projector."""
    nabla = build_nabla(system)
    for check in (check_twisted, check_cocycle, check_normalized, check_nonzero):
        require(check(system), "cannot build the crossed product")
    splitting = split_idempotent(nabla)
    mu_times = (splitting.projection @ system.mu_tensor
                @ tensor(splitting.injection, splitting.injection))
    product = WeakCrossedProduct(system, splitting, mu_times)
    require(product_checks(product), "crossed product postcondition failed")
    return product


def beta_map(system: CrossedSystem, nu: LinMap) -> LinMap:
    """The base comparison map a -> a . nu into A (x) V."""
    a = system.algebra
    return tensor(a.mul, identity(a.field, system.vdim)) @ tensor(a.id_map, nu)


@memoised
def check_preunit(system: CrossedSystem, nu: LinMap) -> Report:
    """Preunit laws for nu plus its three compatibility conditions.

    Also compares the projector induced by nu with the projector of the
    system; their agreement is what makes nu a preunit for the crossed
    product rather than for some other product on the same space.
    """
    a = system.algebra
    f, idv, ida = a.field, identity(a.field, system.vdim), a.id_map
    m, nabla = system.mu_tensor, system.nabla
    id_av = identity(f, m.target)
    if nu.source.total != 1 or nu.target.total != a.dim * system.vdim:
        raise ShapeMismatchError(f"preunit must map K -> A⊗V, got {nu}")
    right = m @ tensor(id_av, nu)
    left = m @ tensor(nu, id_av)
    square = m @ tensor(id_av, m @ tensor(nu, nu))
    eta_v = nabla @ tensor(a.unit, idv)
    report = Report()
    report.add(equality_record("wcp.preunit_switch", right, left))
    report.add(equality_record("wcp.preunit_square", right, square))
    report.add(equality_record("wcp.pre1",
                               tensor(a.mul, idv) @ tensor(ida, system.sigma)
                               @ tensor(system.psi, idv) @ tensor(idv, nu),
                               eta_v))
    report.add(equality_record("wcp.pre2",
                               tensor(a.mul, idv) @ tensor(ida, system.sigma) @ tensor(nu, idv),
                               eta_v))
    report.add(equality_record("wcp.pre3",
                               tensor(a.mul, idv) @ tensor(ida, system.psi) @ tensor(nu, ida),
                               beta_map(system, nu)))
    report.add(equality_record("wcp.preunit_projector", right, nabla))
    return report


@memoised
def algebra_checks(product: WeakCrossedProduct) -> Report:
    """Unit laws on the restricted product and the base-map properties."""
    if product.unit_times is None or product.embedding is None:
        raise PreconditionError("wcp.unit_left", "product has no unit yet; run build_algebra")
    system = product.system
    a = system.algebra
    id_mid = identity(product.field, product.splitting.mid)
    report = Report()
    report.add(equality_record("wcp.unit_left",
                               product.mu_times @ tensor(product.unit_times, id_mid),
                               id_mid))
    report.add(equality_record("wcp.unit_right",
                               product.mu_times @ tensor(id_mid, product.unit_times),
                               id_mid))
    beta = beta_map(system, product.preunit)
    report.add(equality_record("wcp.base_map_mult",
                               system.mu_tensor @ tensor(beta, beta),
                               beta @ a.mul))
    report.add(equality_record("wcp.base_map_left_linear",
                               beta @ a.mul,
                               tensor(a.mul, identity(product.field, system.vdim))
                               @ tensor(a.id_map, beta)))
    report.add(equality_record("wcp.embedding_mult",
                               product.mu_times @ tensor(product.embedding, product.embedding),
                               product.embedding @ system.algebra.mul))
    report.add(equality_record("wcp.embedding_unital",
                               product.embedding @ system.algebra.unit,
                               product.unit_times))
    return report


def build_algebra(product: WeakCrossedProduct, nu: LinMap) -> WeakCrossedProduct:
    """Complete the crossed product to a unital algebra using the preunit nu."""
    require(check_preunit(product.system, nu), "nu is not a preunit for this product")
    p = product.splitting.projection
    unit_times = p @ nu
    embedding = p @ beta_map(product.system, nu)
    completed = replace(product, preunit=nu, unit_times=unit_times, embedding=embedding)
    require(algebra_checks(completed), "restricted algebra postcondition failed")
    return completed


def product_report(system: CrossedSystem, nu: LinMap | None = None,
                   extra=lambda product: ()) -> tuple[Report, WeakCrossedProduct | None]:
    """Build the crossed product of ``system`` and report on it, in this order:
    normalization, the product checks, the records of ``extra(product)``,
    the preunit laws of ``nu`` and, when every record so far passes, the
    unital algebra and its checks.

    A failed gate on the way becomes the last record.  The product returned
    is the last one built: None when the build failed, completed to an
    algebra exactly when ``nu`` is given and the report passes.
    """
    report, product = check_normalized(system), None
    try:
        if report.passed:
            product = build_products(system)
            report.extend(product_checks(product))
            report.records.extend(extra(product))
            if nu is not None:
                report.extend(check_preunit(system, nu))
                if report.passed:
                    product = build_algebra(product, nu)
                    report.extend(algebra_checks(product))
    except PreconditionError as exc:
        report.add(exc.record)
    return report, product
