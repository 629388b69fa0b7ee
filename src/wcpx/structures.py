"""Structure-constant bundles: algebras, coalgebras, bialgebras, Hopf algebras.

Each bundle stores its structure morphisms as LinMaps over a fixed basis.
The check_* validators evaluate the defining axioms exactly and report a
witness basis tuple whenever two sides differ.  A small catalog of
standard examples doubles as the package's test bed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ, FieldSpec
from .linmaps import (LinMap, ObjectShape, ShapeMismatchError, UNIT_SHAPE,
                      identity, permute, tensor)
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
    def shape(self) -> ObjectShape:
        return ObjectShape((self.dim,))

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
    def shape(self) -> ObjectShape:
        return ObjectShape((self.dim,))

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


def _after_middle_swap(f: LinMap, source: tuple[int, int, int, int]) -> LinMap:
    """f after the swap of the middle two of the source factors ``source``."""
    t = len(f.target.factors)
    return permute(f, f.target.factors, source, (*range(t), t, t + 2, t + 1, t + 3), t)


def after_tensor_comul(f: LinMap, c, d) -> LinMap:
    """f after the coproduct of the tensor coalgebra C (x) D.

    ``c`` and ``d`` are any structures with ``dim`` and ``comul``.  That
    coproduct is comul_C (x) comul_D followed by the swap of the two middle
    factors; the swap is applied to the source indices of f, whose source
    is (C (x) D) (x) (C (x) D), instead of being built as a map.
    """
    return _after_middle_swap(f, (c.dim, d.dim, c.dim, d.dim)) @ tensor(c.comul, d.comul)


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


# ---------------------------------------------------------------------------
# catalog of standard examples

def group_algebra(n: int, field: FieldSpec = QQ) -> HopfData:
    """The cyclic group algebra on n grouplike basis elements g^0..g^{n-1}."""
    if n < 1:
        raise ValueError("group order must be positive")
    sh, sq = ObjectShape((n,)), ObjectShape((n, n))
    one = field.one()
    unit = LinMap.from_dict(field, UNIT_SHAPE, sh, {(0, 0): one})
    mul = LinMap.from_dict(field, sq, sh,
                           {((i + j) % n, i * n + j): one for i in range(n) for j in range(n)})
    counit = LinMap.from_dict(field, sh, UNIT_SHAPE, {(0, i): one for i in range(n)})
    comul = LinMap.from_dict(field, sh, sq, {(i * n + i, i): one for i in range(n)})
    antipode = LinMap.from_dict(field, sh, sh, {((-i) % n, i): one for i in range(n)})
    return HopfData(BialgebraData(AlgebraData(field, n, unit, mul),
                                  CoalgebraData(field, n, counit, comul)), antipode)


def dual_group_algebra(n: int, field: FieldSpec = QQ) -> HopfData:
    """Functions on the cyclic group of order n, with convolution coproduct."""
    if n < 1:
        raise ValueError("group order must be positive")
    sh, sq = ObjectShape((n,)), ObjectShape((n, n))
    one = field.one()
    unit = LinMap.from_dict(field, UNIT_SHAPE, sh, {(i, 0): one for i in range(n)})
    mul = LinMap.from_dict(field, sq, sh, {(i, i * n + i): one for i in range(n)})
    counit = LinMap.from_dict(field, sh, UNIT_SHAPE, {(0, 0): one})
    comul = LinMap.from_dict(field, sh, sq,
                             {(j * n + (i - j) % n, i): one for i in range(n) for j in range(n)})
    antipode = LinMap.from_dict(field, sh, sh, {((-i) % n, i): one for i in range(n)})
    return HopfData(BialgebraData(AlgebraData(field, n, unit, mul),
                                  CoalgebraData(field, n, counit, comul)), antipode)


def sweedler_h4(field: FieldSpec = QQ) -> HopfData:
    """The four-dimensional Hopf algebra on basis {1, g, x, gx}.

    Relations g*g = 1, x*x = 0, x*g = -g*x; g is grouplike and x is
    (1,g)-primitive.  Needs characteristic different from 2.
    """
    if field.characteristic == 2:
        raise ValueError("the four-dimensional example needs characteristic != 2")
    sh, sq = ObjectShape((4,)), ObjectShape((4, 4))
    one = field.one()
    minus = field.coerce(-1)
    # basis order: 1, g, x, gx
    table: dict[tuple[int, int], dict[int, object]] = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: minus}, (2, 2): {}, (2, 3): {},
        (3, 0): {3: one}, (3, 1): {2: minus}, (3, 2): {}, (3, 3): {},
    }
    mul_values = {(k, i * 4 + j): v
                  for (i, j), col in table.items() for k, v in col.items()}
    mul = LinMap.from_dict(field, sq, sh, mul_values)
    unit = LinMap.from_dict(field, UNIT_SHAPE, sh, {(0, 0): one})
    counit = LinMap.from_dict(field, sh, UNIT_SHAPE, {(0, 0): one, (0, 1): one})
    comul = LinMap.from_dict(field, sh, sq, {
        (0 * 4 + 0, 0): one,                     # 1 -> 1 (x) 1
        (1 * 4 + 1, 1): one,                     # g -> g (x) g
        (2 * 4 + 0, 2): one, (1 * 4 + 2, 2): one,  # x -> x (x) 1 + g (x) x
        (3 * 4 + 1, 3): one, (0 * 4 + 3, 3): one,  # gx -> gx (x) g + 1 (x) gx
    })
    antipode = LinMap.from_dict(field, sh, sh, {
        (0, 0): one, (1, 1): one, (3, 2): minus, (2, 3): one,
    })
    return HopfData(BialgebraData(AlgebraData(field, 4, unit, mul),
                                  CoalgebraData(field, 4, counit, comul)), antipode)


def product_algebra(n: int, field: FieldSpec = QQ) -> AlgebraData:
    """The split product of n field lines: e_i e_j = [i=j] e_i, unit sum e_i."""
    if n < 1:
        raise ValueError("number of factors must be positive")
    sh, sq = ObjectShape((n,)), ObjectShape((n, n))
    one = field.one()
    unit = LinMap.from_dict(field, UNIT_SHAPE, sh, {(i, 0): one for i in range(n)})
    mul = LinMap.from_dict(field, sq, sh, {(i, i * n + i): one for i in range(n)})
    return AlgebraData(field, n, unit, mul)


def matrix_algebra(n: int, field: FieldSpec = QQ) -> AlgebraData:
    """n x n matrix units E_ij (flat index i*n+j): E_ij E_kl = [j=k] E_il."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    d = n * n
    sh, sq = ObjectShape((d,)), ObjectShape((d, d))
    one = field.one()
    unit = LinMap.from_dict(field, UNIT_SHAPE, sh, {(i * n + i, 0): one for i in range(n)})
    values = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        values[(i * n + l, (i * n + j) * d + (k * n + l))] = one
    mul = LinMap.from_dict(field, sq, sh, values)
    return AlgebraData(field, d, unit, mul)


def tensor_algebra(a: AlgebraData, b: AlgebraData) -> AlgebraData:
    """The product algebra structure on A (x) B with the (swapped) middle factors."""
    mul = _after_middle_swap(tensor(a.mul, b.mul), (a.dim, a.dim, b.dim, b.dim))
    dim = a.dim * b.dim
    sh = ObjectShape((dim,))
    # reflatten onto a single factor so the bundle's shape checks apply
    mul = mul.reshaped(ObjectShape((dim, dim)), sh)
    unit = tensor(a.unit, b.unit).reshaped(UNIT_SHAPE, sh)
    return AlgebraData(a.field, dim, unit, mul)
