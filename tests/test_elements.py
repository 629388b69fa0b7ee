"""The Sweedler oracles against the kernel they check and against a dense
nested-loop reading of their formulas.

The reference functions below index dense matrices of field scalars
(``LinMap.entries``) and sum over every basis index of every Sweedler
piece, so they share no code with ``wcpx._elements``.  The random
structure constants satisfy no axiom, and their coproducts are in general
not coassociative: the formulas are pinned where they differ from
``mu_tensor`` and where the leftmost expansion (Delta (x) id) Delta differs
from (id (x) Delta) Delta.
"""

import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalog
from catalog import partial_smash_action, s3_smash_datum, sweedler_nabla
from wcpx import partial_crossed as pc
from wcpx import unified_product as up
from wcpx.fields import QQ, prime_field
from wcpx.linmaps import LinMap, equals, shape
from wcpx.partial_crossed import TwistedPartialAction
from wcpx.structures import AlgebraData, BialgebraData, CoalgebraData, HopfData
from wcpx.unified_product import ExtendingDatum, PreHopfObject

F2, F3 = prime_field(2), prime_field(3)


def test_oracles_call_no_compose_tensor_or_permute(monkeypatch):
    act, datum = partial_smash_action(QQ), s3_smash_datum(QQ)
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in [m for name, m in sys.modules.items() if name.startswith("wcpx") or m is catalog]:
        for name in ("compose", "tensor", "permute"):
            if callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    oracles = (pc.sweedler_product(act), up.bullet_product(datum), sweedler_nabla(act))
    assert calls == []
    # the counters see the kernel: the categorical product composes and tensors
    assert equals(act.system.mu_tensor, oracles[0])
    assert {"compose", "tensor"} <= set(calls)


# -- dense references ---------------------------------------------------------------


def pieces(comul, x, n):
    """(x1, x2, coefficient) of Delta(x), over every pair of basis indices
    with a nonzero coefficient."""
    return [(i, j, comul[i * n + j][x]) for i in range(n) for j in range(n)
            if comul[i * n + j][x]]


def pieces3(comul, x, n):
    """(x1, x2, x3, coefficient) of (Delta (x) id) Delta(x)."""
    return [(i, j, k, c * c2) for y, k, c in pieces(comul, x, n)
            for i, j, c2 in pieces(comul, y, n)]


def times(m, x, y, ydim):
    """The dense map m applied to e_x (x) e_y, as a dense column."""
    return [row[x * ydim + y] for row in m]


def dense_sweedler_product(act):
    """(a (x) h)(b (x) l) = sum a (h1 . b) omega(h2 (x) l1) (x) h3 l2."""
    h, a = act.hopf, act.algebra
    H, A, zero = h.dim, a.dim, act.field.zero()
    comul, phi, omega, mul, hmul = (m.entries for m in (h.comul, act.phi, act.omega,
                                                         a.mul, h.mul))
    left = {}  # a (h1 . b) omega(h2 (x) l1)
    for ai, h1, bi, h2, l1 in product(range(A), range(H), range(A), range(H), range(H)):
        vec = [zero] * A
        for x, acted in enumerate(times(phi, h1, bi, A)):
            for y, twist in enumerate(times(omega, h2, l1, H)):
                for z, az in enumerate(times(mul, ai, x, A)):
                    for k, v in enumerate(times(mul, z, y, A)):
                        vec[k] += acted * twist * az * v
        left[ai, h1, bi, h2, l1] = vec
    values = {}
    for ai, hi, bi, li in product(range(A), range(H), range(A), range(H)):
        col = ((ai * H + hi) * A + bi) * H + li
        for h1, h2, h3, ch in pieces3(comul, hi, H):
            for l1, l2, cl in pieces(comul, li, H):
                for k, va in enumerate(left[ai, h1, bi, h2, l1]):
                    for m, vh in enumerate(times(hmul, h3, l2, H)):
                        key = (k * H + m, col)
                        values[key] = values.get(key, zero) + ch * cl * va * vh
    return LinMap.from_dict(act.field, shape(A, H, A, H), shape(A, H), values)


def dense_bullet_product(d):
    """(a (x) h).(c (x) g) = sum a (h1 > c1) tau((h2 < c2) (x) g1) (x) (h3 < c3) g2."""
    a, h = d.bialgebra, d.hobj
    A, H, zero = a.dim, h.dim, d.field.zero()
    acomul, hcomul, phi_a, phi_h, tau, mul, hmul = (
        m.entries for m in (a.comul, h.comul, d.phi_a, d.phi_h, d.tau, a.mul, h.mul))
    left = {}  # a (h1 > c1) tau((h2 < c2) (x) g1)
    for ai, h1, c1, h2, c2, g1 in product(range(A), range(H), range(A), range(H), range(A),
                                          range(H)):
        vec = [zero] * A
        for x, acted in enumerate(times(phi_a, h1, c1, A)):
            for u, moved in enumerate(times(phi_h, h2, c2, A)):
                for y, paired in enumerate(times(tau, u, g1, H)):
                    for z, az in enumerate(times(mul, ai, x, A)):
                        for k, v in enumerate(times(mul, z, y, A)):
                            vec[k] += acted * moved * paired * az * v
        left[ai, h1, c1, h2, c2, g1] = vec
    tail = {}  # (h3 < c3) g2
    for h3, c3, g2 in product(range(H), range(A), range(H)):
        vec = [zero] * H
        for w, moved in enumerate(times(phi_h, h3, c3, A)):
            for m, v in enumerate(times(hmul, w, g2, H)):
                vec[m] += moved * v
        tail[h3, c3, g2] = vec
    values = {}
    for ai, hi, ci, gi in product(range(A), range(H), range(A), range(H)):
        col = ((ai * H + hi) * A + ci) * H + gi
        for h1, h2, h3, ch in pieces3(hcomul, hi, H):
            for c1, c2, c3, cc in pieces3(acomul, ci, A):
                for g1, g2, cg in pieces(hcomul, gi, H):
                    for k, va in enumerate(left[ai, h1, c1, h2, c2, g1]):
                        for m, vh in enumerate(tail[h3, c3, g2]):
                            key = (k * H + m, col)
                            values[key] = values.get(key, zero) + ch * cc * cg * va * vh
    return LinMap.from_dict(d.field, shape(A, H, A, H), shape(A, H), values)


def dense_sweedler_nabla(act):
    """a (x) h -> sum a (h1 . 1) (x) h2."""
    h, a = act.hopf, act.algebra
    H, A, zero = h.dim, a.dim, act.field.zero()
    comul, phi, mul = (m.entries for m in (h.comul, act.phi, a.mul))
    one = [row[0] for row in a.unit.entries]
    values = {}
    for ai, hi in product(range(A), range(H)):
        for h1, h2, c in pieces(comul, hi, H):
            for b, ob in enumerate(one):
                for x, moved in enumerate(times(phi, h1, b, A)):
                    for k, v in enumerate(times(mul, ai, x, A)):
                        key = (k * H + h2, ai * H + hi)
                        values[key] = values.get(key, zero) + c * ob * moved * v
    return LinMap.from_dict(act.field, shape(A, H), shape(A, H), values)


# -- random structure constants ----------------------------------------------------


@st.composite
def maps(draw, field, src, tgt):
    """A map of the given shapes with random, mostly small, entries."""
    values = [0, 0, 0, 1, -1, 2] + ([Fraction(1, 2)] if field == QQ else [])
    rows = [[draw(st.sampled_from(values)) for _ in range(shape(*src).total)]
            for _ in range(shape(*tgt).total)]
    return LinMap(field, shape(*src), shape(*tgt), rows)


def structure_maps(draw, field, n):
    """unit, mul, counit, comul of dimension n, none of them checked."""
    return (draw(maps(field, (), (n,))), draw(maps(field, (n, n), (n,))),
            draw(maps(field, (n,), ())), draw(maps(field, (n,), (n, n))))


@st.composite
def actions(draw):
    field = draw(st.sampled_from([QQ, F2, F3]))
    h, a = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    unit, mul, counit, comul = structure_maps(draw, field, h)
    hopf = HopfData(BialgebraData(AlgebraData(field, h, unit, mul),
                                  CoalgebraData(field, h, counit, comul)),
                    draw(maps(field, (h,), (h,))))
    algebra = AlgebraData(field, a, draw(maps(field, (), (a,))), draw(maps(field, (a, a), (a,))))
    return TwistedPartialAction(hopf, algebra, draw(maps(field, (h, a), (a,))),
                                draw(maps(field, (h, h), (a,))))


@st.composite
def data(draw):
    field = draw(st.sampled_from([QQ, F2, F3]))
    a, h = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    unit, mul, counit, comul = structure_maps(draw, field, a)
    bialgebra = BialgebraData(AlgebraData(field, a, unit, mul),
                              CoalgebraData(field, a, counit, comul))
    hobj = PreHopfObject(field, h, *structure_maps(draw, field, h))
    return ExtendingDatum(bialgebra, hobj, draw(maps(field, (h, a), (h,))),
                          draw(maps(field, (h, a), (a,))), draw(maps(field, (h, h), (a,))))


@given(act=actions())
@settings(max_examples=40, deadline=None)
def test_sweedler_product_and_projector_match_their_dense_formulas(act):
    assert pc.sweedler_product(act) == dense_sweedler_product(act)
    assert sweedler_nabla(act) == dense_sweedler_nabla(act)


@given(d=data())
@settings(max_examples=40, deadline=None)
def test_bullet_product_matches_its_dense_formula(d):
    assert up.bullet_product(d) == dense_bullet_product(d)


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_the_product_oracle_expands_the_leftmost_piece(field):
    # Delta(e1) = e2 (x) e1 and Delta(e2) = e1 (x) e1, so (Delta (x) id) Delta(e1)
    # = e1 (x) e1 (x) e1 while (id (x) Delta) Delta(e1) = e2 (x) e2 (x) e1
    h = catalog.group_algebra(2, field)
    comul = LinMap.from_dict(field, shape(2), shape(2, 2), {(2, 0): 1, (0, 1): 1})
    hopf = HopfData(BialgebraData(h.algebra, CoalgebraData(field, 2, h.counit, comul)),
                    h.antipode)
    act = TwistedPartialAction(  # e1 acts as 1 and e2 as 0 on A = k; omega is 1 everywhere
        hopf, catalog.product_algebra(1, field),
        LinMap.from_dict(field, shape(2, 1), shape(1), {(0, 0): 1}),
        LinMap.from_dict(field, shape(2, 2), shape(1), {(0, c): 1 for c in range(4)}))
    oracle = pc.sweedler_product(act)
    assert oracle == dense_sweedler_product(act)
    # (1 (x) e1)(1 (x) e1) = (e1 . 1) omega(e1 (x) e2) (x) e1 e1 = 1 (x) e1; with
    # h1 = e2 from the other expansion it would be 0
    assert oracle.column(0) == (field.one(), field.zero())
