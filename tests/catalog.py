"""Structures, actions, data and map helpers that only the tests use.

The catalog holds standard examples (cyclic group algebras and their duals,
the four-dimensional Hopf algebra, split and matrix algebras, tensor
product algebras) and the canonical twisted partial actions and extending
data built from them.  ``sweedler_nabla`` is an elementwise oracle for the
projector, read entry by entry through ``wcpx._elements`` like the
library's product oracles.
"""

from __future__ import annotations

from wcpx import _elements as el
from wcpx.fields import QQ, FieldSpec
from wcpx.linmaps import LinMap, ObjectShape, UNIT_SHAPE, permute, tensor
from wcpx.partial_crossed import TwistedPartialAction
from wcpx.structures import AlgebraData, BialgebraData, CoalgebraData, HopfData
from wcpx.unified_product import ExtendingDatum, PreHopfObject

# -- map arithmetic ------------------------------------------------------------


def _entries(m: LinMap, factor=1) -> dict[tuple[int, int], object]:
    """The nonzero entries of ``factor * m`` as {(row, col): field scalar}."""
    coerce = m.field.coerce
    factor = coerce(factor)
    return {(r, c): factor * coerce(v) for r, row in enumerate(m.rows) for c, v in row.items()}


def add(f: LinMap, g: LinMap) -> LinMap:
    """f + g, entry by entry."""
    assert (f.source.total, f.target.total, f.field) == (g.source.total, g.target.total, g.field)
    values = _entries(f)
    for key, v in _entries(g).items():
        values[key] = values[key] + v if key in values else v
    return LinMap.from_dict(f.field, f.source, f.target, values)


def scale(f: LinMap, scalar) -> LinMap:
    """scalar * f."""
    return LinMap.from_dict(f.field, f.source, f.target, _entries(f, scalar))


def sub(f: LinMap, g: LinMap) -> LinMap:
    """f - g."""
    return add(f, scale(g, -1))


def set_column(m: LinMap, col: int, values: dict[int, object]) -> LinMap:
    """Copy of m with one column replaced by the sparse vector {row: scalar}."""
    kept = {(r, c): v for (r, c), v in _entries(m).items() if c != col}
    kept.update(((r, col), v) for r, v in values.items())
    return LinMap.from_dict(m.field, m.source, m.target, kept)


# -- structures -----------------------------------------------------------------

def _hopf(field, n, unit, mul, counit, comul, antipode) -> HopfData:
    sh, sq = ObjectShape((n,)), ObjectShape((n, n))
    return HopfData(BialgebraData(
        AlgebraData(field, n, LinMap.from_dict(field, UNIT_SHAPE, sh, unit),
                    LinMap.from_dict(field, sq, sh, mul)),
        CoalgebraData(field, n, LinMap.from_dict(field, sh, UNIT_SHAPE, counit),
                      LinMap.from_dict(field, sh, sq, comul))),
        LinMap.from_dict(field, sh, sh, antipode))


def group_algebra(n: int, field: FieldSpec = QQ) -> HopfData:
    """The cyclic group algebra on n grouplike basis elements g^0..g^{n-1}."""
    one, r = field.one(), range(n)
    return _hopf(field, n, {(0, 0): one},
                 {((i + j) % n, i * n + j): one for i in r for j in r},
                 {(0, i): one for i in r}, {(i * n + i, i): one for i in r},
                 {((-i) % n, i): one for i in r})


def dual_group_algebra(n: int, field: FieldSpec = QQ) -> HopfData:
    """Functions on the cyclic group of order n, with convolution coproduct."""
    one, r = field.one(), range(n)
    return _hopf(field, n, {(i, 0): one for i in r}, {(i, i * n + i): one for i in r},
                 {(0, 0): one}, {(j * n + (i - j) % n, i): one for i in r for j in r},
                 {((-i) % n, i): one for i in r})


def sweedler_h4(field: FieldSpec = QQ) -> HopfData:
    """The four-dimensional Hopf algebra on basis {1, g, x, gx}.

    Relations g*g = 1, x*x = 0, x*g = -g*x; g is grouplike and x is
    (1,g)-primitive.  Needs characteristic different from 2.
    """
    if field.characteristic == 2:
        raise ValueError("the four-dimensional example needs characteristic != 2")
    one, minus = field.one(), field.coerce(-1)
    # basis order 1, g, x, gx; (i, j) -> {k: coefficient of e_k in e_i e_j}
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
             (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
             (2, 0): {2: one}, (2, 1): {3: minus}, (3, 0): {3: one}, (3, 1): {2: minus}}
    return _hopf(field, 4, {(0, 0): one},
                 {(k, i * 4 + j): v for (i, j), col in table.items() for k, v in col.items()},
                 {(0, 0): one, (0, 1): one},
                 {(0 * 4 + 0, 0): one,                       # 1 -> 1 (x) 1
                  (1 * 4 + 1, 1): one,                       # g -> g (x) g
                  (2 * 4 + 0, 2): one, (1 * 4 + 2, 2): one,  # x -> x (x) 1 + g (x) x
                  (3 * 4 + 1, 3): one, (0 * 4 + 3, 3): one},  # gx -> gx (x) g + 1 (x) gx
                 {(0, 0): one, (1, 1): one, (3, 2): minus, (2, 3): one})


def _algebra(field, d, unit, mul) -> AlgebraData:
    sh = ObjectShape((d,))
    return AlgebraData(field, d, LinMap.from_dict(field, UNIT_SHAPE, sh, unit),
                       LinMap.from_dict(field, ObjectShape((d, d)), sh, mul))


def product_algebra(n: int, field: FieldSpec = QQ) -> AlgebraData:
    """The split product of n field lines: e_i e_j = [i=j] e_i, unit sum e_i."""
    one = field.one()
    return _algebra(field, n, {(i, 0): one for i in range(n)},
                    {(i, i * n + i): one for i in range(n)})


def matrix_algebra(n: int, field: FieldSpec = QQ) -> AlgebraData:
    """n x n matrix units E_ij (flat index i*n+j): E_ij E_jl = E_il."""
    one, d, r = field.one(), n * n, range(n)
    return _algebra(field, d, {(i * n + i, 0): one for i in r},
                    {(i * n + l, (i * n + j) * d + (j * n + l)): one
                     for i in r for j in r for l in r})


def tensor_algebra(a: AlgebraData, b: AlgebraData) -> AlgebraData:
    """A (x) B with (x1 (x) y1)(x2 (x) y2) = x1 x2 (x) y1 y2, on one flat factor."""
    dims = (a.dim, a.dim, b.dim, b.dim)
    mul = permute(tensor(a.mul, b.mul), (a.dim, b.dim), dims, (0, 1, 2, 4, 3, 5), 2)
    dim = a.dim * b.dim
    sh = ObjectShape((dim,))
    return AlgebraData(a.field, dim, tensor(a.unit, b.unit).reshaped(UNIT_SHAPE, sh),
                       mul.reshaped(ObjectShape((dim, dim)), sh))


def pre_hopf_of(b: BialgebraData) -> PreHopfObject:
    """Forget down to the pre-Hopf data of a bialgebra."""
    return PreHopfObject(b.field, b.dim, b.unit, b.mul, b.counit, b.comul)


# -- twisted partial actions -------------------------------------------------------

def smash_omega(hopf: HopfData, algebra: AlgebraData, phi: LinMap) -> LinMap:
    """The cocycle omega(h (x) l) = phi(h (x) phi(l (x) 1)) of a smash-style action."""
    idh = hopf.algebra.id_map
    return phi @ tensor(idh, phi @ tensor(idh, algebra.unit))


def global_action(field: FieldSpec) -> TwistedPartialAction:
    """The trivial global action of the order-2 group algebra on itself."""
    hopf, alg = group_algebra(2, field), group_algebra(2, field).algebra
    return TwistedPartialAction(hopf, alg, tensor(hopf.counit, alg.id_map),
                                alg.unit @ tensor(hopf.counit, hopf.counit))


def lambda_zero_action(field: FieldSpec) -> TwistedPartialAction:
    """The rank-one partial action on the base field killing the group generator."""
    one = field.one()
    phi = LinMap.from_dict(field, ObjectShape((2, 1)), ObjectShape((1,)), {(0, 0): one})
    omega = LinMap.from_dict(field, ObjectShape((2, 2)), ObjectShape((1,)), {(0, 0): one})
    return TwistedPartialAction(group_algebra(2, field), product_algebra(1, field), phi, omega)


def partial_smash_action(field: FieldSpec) -> TwistedPartialAction:
    """The order-2 group algebra acting partially on the split plane k x k.

    The generator fixes e1 and kills e2; the cocycle is the smash-style
    one, omega(h (x) l) = h.(l.1).  ``fixtures/partial_smash.wx`` declares
    the same action over Q.
    """
    hopf, alg, one = group_algebra(2, field), product_algebra(2, field), field.one()
    phi = LinMap.from_dict(field, ObjectShape((2, 2)), ObjectShape((2,)),
                           {(0, 0): one, (1, 1): one, (0, 2): one})
    return TwistedPartialAction(hopf, alg, phi, smash_omega(hopf, alg, phi))


def sweedler_nabla(act: TwistedPartialAction) -> LinMap:
    """Elementwise oracle for the projector: a (x) h -> sum a(h1 . 1) (x) h2."""
    h, a, field = act.hopf, act.algebra, act.field
    one_a = a.unit.column_entries(0)
    values: dict[tuple[int, int], object] = {}
    for ai in range(a.dim):
        for hi in range(h.dim):
            for (h1, h2), c in el.expand_pairs(h.comul, hi):
                moved = el.apply_to_pair(act.phi, el.basis_vec(h1, field), one_a)
                prod = el.apply_to_pair(a.mul, el.basis_vec(ai, field), moved)
                for k, v in prod.items():
                    key = (k * h.dim + h2, ai * h.dim + hi)
                    values[key] = values.get(key, field.zero()) + c * v
    sh = ObjectShape((a.dim, h.dim))
    return LinMap.from_dict(field, sh, sh, values)


# -- extending data ------------------------------------------------------------------

def trivial_datum(field: FieldSpec) -> ExtendingDatum:
    """Both actions and the pairing trivial on a pair of order-2 group algebras."""
    a = group_algebra(2, field).bialgebra
    h = pre_hopf_of(group_algebra(2, field).bialgebra)
    return ExtendingDatum(a, h, tensor(h.id_map, a.counit), tensor(h.counit, a.algebra.id_map),
                          a.unit @ tensor(h.counit, h.counit))


def s3_smash_datum(field: FieldSpec) -> ExtendingDatum:
    """Order-2 group algebra acting on the order-3 one by inversion.

    The unified product is the group algebra of the six-element
    nonabelian group.
    """
    a = group_algebra(3, field).bialgebra
    h = pre_hopf_of(group_algebra(2, field).bialgebra)
    one = field.one()
    # the identity acts trivially, the generator inverts
    phi_a = LinMap.from_dict(field, ObjectShape((2, 3)), ObjectShape((3,)),
                             {**{(i, i): one for i in range(3)},
                              **{((-i) % 3, 3 + i): one for i in range(3)}})
    return ExtendingDatum(a, h, tensor(h.id_map, a.counit), phi_a,
                          a.unit @ tensor(h.counit, h.counit))
