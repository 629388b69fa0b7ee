"""Structure-constant bundles: algebras, coalgebras, bialgebras, Hopf algebras.

Each bundle stores its structure morphisms as LinMaps over a fixed basis.
The check_* validators evaluate the defining axioms exactly and report a
witness basis tuple whenever two sides differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldSpec
from .linmaps import LinMap, ShapeMismatchError, UNIT_SHAPE, identity, permute, tensor
from .reporting import Report, equality_record


@dataclass(frozen=True)
class AlgebraData:
    """A unital associative product: unit K -> A and mul A (x) A -> A."""

    field: FieldSpec
    dim: int
    unit: LinMap
    mul: LinMap

    def __post_init__(self) -> None:
        if self.unit.source.total != 1 or self.unit.target.total != self.dim:
            raise ShapeMismatchError(f"unit must map K -> A, got {self.unit}")
        if self.mul.source.total != self.dim ** 2 or self.mul.target.total != self.dim:
            raise ShapeMismatchError(f"mul must map A⊗A -> A, got {self.mul}")

    @property
    def id_map(self) -> LinMap:
        return identity(self.field, self.dim)


@dataclass(frozen=True)
class CoalgebraData:
    """A counital coassociative coproduct: counit C -> K and comul C -> C (x) C."""

    field: FieldSpec
    dim: int
    counit: LinMap
    comul: LinMap

    def __post_init__(self) -> None:
        if self.counit.source.total != self.dim or self.counit.target.total != 1:
            raise ShapeMismatchError(f"counit must map C -> K, got {self.counit}")
        if self.comul.source.total != self.dim or self.comul.target.total != self.dim ** 2:
            raise ShapeMismatchError(f"comul must map C -> C⊗C, got {self.comul}")

    @property
    def id_map(self) -> LinMap:
        return identity(self.field, self.dim)


@dataclass(frozen=True)
class BialgebraData:
    algebra: AlgebraData
    coalgebra: CoalgebraData

    def __post_init__(self) -> None:
        if self.algebra.dim != self.coalgebra.dim:
            raise ShapeMismatchError(
                f"algebra dim {self.algebra.dim} != coalgebra dim {self.coalgebra.dim}")

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def unit(self) -> LinMap:
        return self.algebra.unit

    @property
    def mul(self) -> LinMap:
        return self.algebra.mul

    @property
    def counit(self) -> LinMap:
        return self.coalgebra.counit

    @property
    def comul(self) -> LinMap:
        return self.coalgebra.comul


@dataclass(frozen=True)
class HopfData:
    bialgebra: BialgebraData
    antipode: LinMap

    def __post_init__(self) -> None:
        d = self.bialgebra.dim
        if self.antipode.source.total != d or self.antipode.target.total != d:
            raise ShapeMismatchError(f"antipode must map H -> H, got {self.antipode}")

    @property
    def field(self) -> FieldSpec:
        return self.bialgebra.field

    @property
    def dim(self) -> int:
        return self.bialgebra.dim

    @property
    def algebra(self) -> AlgebraData:
        return self.bialgebra.algebra

    @property
    def coalgebra(self) -> CoalgebraData:
        return self.bialgebra.coalgebra

    @property
    def unit(self) -> LinMap:
        return self.bialgebra.unit

    @property
    def mul(self) -> LinMap:
        return self.bialgebra.mul

    @property
    def counit(self) -> LinMap:
        return self.bialgebra.counit

    @property
    def comul(self) -> LinMap:
        return self.bialgebra.comul


def check_algebra(a: AlgebraData) -> Report:
    """Unit laws and associativity, each reported separately."""
    ida = a.id_map
    report = Report()
    report.add(equality_record("algebra.unit_left", a.mul @ tensor(a.unit, ida), ida))
    report.add(equality_record("algebra.unit_right", a.mul @ tensor(ida, a.unit), ida))
    report.add(equality_record("algebra.assoc",
                               a.mul @ tensor(a.mul, ida),
                               a.mul @ tensor(ida, a.mul)))
    return report


def check_coalgebra(c: CoalgebraData) -> Report:
    idc = c.id_map
    report = Report()
    report.add(equality_record("coalgebra.counit_left", tensor(c.counit, idc) @ c.comul, idc))
    report.add(equality_record("coalgebra.counit_right", tensor(idc, c.counit) @ c.comul, idc))
    report.add(equality_record("coalgebra.coassoc",
                               tensor(c.comul, idc) @ c.comul,
                               tensor(idc, c.comul) @ c.comul))
    return report


def product_of_coproducts(mul: LinMap, comul: LinMap, dim: int) -> LinMap:
    """x (x) y -> Delta(x) Delta(y) = x_1 y_1 (x) x_2 y_2, a map H (x) H -> H (x) H.

    This is (mul (x) mul)(id (x) c (x) id)(comul (x) comul), the right side
    of "the coproduct is multiplicative", for any linear mul and comul (c is
    the swap), a ring mu - Delta - mu - Delta of structure constants joined
    by the summed indices a, b, e, c.  Two opposite arcs are contracted
    first (d^5 operations each), then the other two at once (d^6):

      G[(i, c), (b, x)] = sum_a mu^i_ac Delta^ab_x
      K[(c, y), (j, b)] = sum_e Delta^ce_y mu^j_be
      R[(i, x), (j, y)] = sum_(b, c) G[(i, c), (b, x)] K[(c, y), (j, b)]

    and R with x and j swapped is the map.  Each step is one plain
    composite of maps reordered by ``permute``; no Kronecker product is
    formed.
    """
    d, dd = (dim,), (dim, dim)
    g = permute(mul, d, dd, (0, 2, 1), 2) @ permute(comul, dd, d, (0, 1, 2), 1)
    k = permute(comul, dd, d, (0, 2, 1), 2) @ permute(mul, d, dd, (2, 0, 1), 1)
    r = permute(g, dd, dd, (0, 3, 2, 1), 2) @ permute(k, dd, dd, (3, 0, 2, 1), 2)
    return permute(r, dd, dd, (0, 2, 1, 3), 2)


def after_tensor_comul(f: LinMap, c, d) -> LinMap:
    """f after the coproduct of the tensor coalgebra C (x) D.

    ``c`` and ``d`` are any structures with ``dim`` and ``comul``.  That
    coproduct is comul_C (x) comul_D followed by the swap of the two middle
    factors; the swap is applied to the source indices of f, whose source
    is (C (x) D) (x) (C (x) D), instead of being built as a map.
    """
    t = len(f.target.factors)
    swapped = permute(f, f.target.factors, (c.dim, d.dim, c.dim, d.dim),
                      (*range(t), t, t + 2, t + 1, t + 3), t)
    return swapped @ tensor(c.comul, d.comul)


def check_bialgebra(b: BialgebraData) -> Report:
    """Compatibility: counit and coproduct are morphisms of algebras."""
    report = Report()
    report.add(equality_record("bialgebra.comul_mult",
                               b.comul @ b.mul,
                               product_of_coproducts(b.mul, b.comul, b.dim)))
    report.add(equality_record("bialgebra.counit_mult",
                               b.counit @ b.mul,
                               tensor(b.counit, b.counit)))
    report.add(equality_record("bialgebra.comul_unit",
                               b.comul @ b.unit,
                               tensor(b.unit, b.unit)))
    report.add(equality_record("bialgebra.counit_unit",
                               b.counit @ b.unit,
                               identity(b.field, UNIT_SHAPE)))
    return report


def check_hopf(h: HopfData) -> Report:
    idh = h.algebra.id_map
    eta_eps = h.unit @ h.counit
    report = check_bialgebra(h.bialgebra)
    report.add(equality_record("hopf.antipode_left",
                               h.mul @ tensor(h.antipode, idh) @ h.comul, eta_eps))
    report.add(equality_record("hopf.antipode_right",
                               h.mul @ tensor(idh, h.antipode) @ h.comul, eta_eps))
    return report
