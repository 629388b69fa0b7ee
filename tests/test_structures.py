from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpx.fields import QQ, prime_field
from wcpx.linmaps import (LinMap, braiding, equals, identity, set_column, shape,
                          tensor)
from wcpx.structures import (BialgebraData, after_tensor_comul,
                             check_algebra, check_bialgebra,
                             check_coalgebra, check_hopf, dual_group_algebra,
                             group_algebra, matrix_algebra, product_algebra,
                             product_of_coproducts, sweedler_h4)

F3 = prime_field(3)
F5 = prime_field(5)


def test_group_algebra_passes(field):
    assert check_algebra(group_algebra(2, field).algebra).passed


def test_zeroed_unit_row_fails_with_witness():
    h = group_algebra(2, QQ).algebra
    broken = replace(h, mul=set_column(h.mul, 1, {}))  # column (1, g): 1*g := 0
    report = check_algebra(broken)
    record = report["algebra.unit_left"]
    assert record.failed
    assert record.witness.source_index == (1,)  # the second basis element g
    assert record.witness.target_index == (1,)


def test_matrix_algebra_passes(field):
    report = check_algebra(matrix_algebra(2, field))
    assert report.passed


def test_grouplike_coalgebra_passes(field):
    assert check_coalgebra(group_algebra(2, field).coalgebra).passed


def test_broken_comul_fails_counit_on_g():
    c = group_algebra(2, QQ).coalgebra
    broken = replace(c, comul=set_column(c.comul, 1, {1 * 2 + 0: 1}))  # g -> g (x) 1
    report = check_coalgebra(broken)
    assert report["coalgebra.counit_left"].failed
    assert report["coalgebra.counit_left"].witness.source_index == (1,)


def test_sweedler_coalgebra_part(field):
    assert check_coalgebra(sweedler_h4(field).coalgebra).passed


def test_group_bialgebra_passes(field):
    assert check_bialgebra(group_algebra(2, field).bialgebra).passed


def test_primitive_generator_breaks_bialgebra_at_g_g():
    b = group_algebra(2, QQ).bialgebra
    # redefine the coproduct of g to g (x) 1 + 1 (x) g
    comul = set_column(b.coalgebra.comul, 1, {1 * 2 + 0: 1, 0 * 2 + 1: 1})
    broken = BialgebraData(b.algebra, replace(b.coalgebra, comul=comul))
    record = check_bialgebra(broken)["bialgebra.comul_mult"]
    assert record.failed
    assert record.witness.source_index == (1, 1)
    # re-evaluating both sides at the witness reproduces the inequality
    lhs = broken.comul @ broken.mul
    middle_swap = tensor(identity(QQ, 2), braiding(QQ, 2, 2), identity(QQ, 2))
    rhs = tensor(broken.mul, broken.mul) @ middle_swap @ tensor(comul, comul)
    col = lhs.source.flatten(record.witness.source_index)
    row = lhs.target.flatten(record.witness.target_index)
    assert str(lhs.entries[row][col]) == record.witness.left
    assert str(rhs.entries[row][col]) == record.witness.right
    assert lhs.entries[row][col] != rhs.entries[row][col]


def test_sweedler_bialgebra(field):
    assert check_bialgebra(sweedler_h4(field).bialgebra).passed


def test_hopf_involution(field):
    assert check_hopf(group_algebra(2, field)).passed


def test_hopf_order_three_inverse_antipode(field):
    h = group_algebra(3, field)
    # the antipode sends g^i to g^{-i}
    assert h.antipode.entries[2][1] == field.one()
    assert check_hopf(h).passed


def test_sweedler_hopf(field):
    assert check_hopf(sweedler_h4(field)).passed
    with pytest.raises(ValueError):
        sweedler_h4(prime_field(2))


@pytest.mark.parametrize("n", range(1, 7))
def test_group_bialgebra_small_orders(n, field):
    assert check_bialgebra(group_algebra(n, field).bialgebra).passed


@pytest.mark.parametrize("base", [QQ, F3, F5], ids=["Q", "F3", "F5"])
def test_every_builtin_validates(base):
    assert check_hopf(group_algebra(4, base)).passed
    assert check_hopf(dual_group_algebra(3, base)).passed
    assert check_hopf(sweedler_h4(base)).passed
    assert check_algebra(product_algebra(3, base)).passed
    assert check_algebra(matrix_algebra(2, base)).passed
    a = product_algebra(2, base)
    assert a.mul.entries[0][0] == base.one()    # e1 e1 = e1
    assert not any(a.mul.column(1))             # e1 e2 = 0
    assert [str(x) for x in a.unit.column(0)] == ["1", "1"]


@pytest.mark.parametrize("c,d", [(group_algebra(2), dual_group_algebra(3)),
                                 (sweedler_h4(), group_algebra(2))])
def test_after_tensor_comul_is_composite_with_middle_swap(c, d):
    m, n = c.dim, d.dim
    f = LinMap.from_dict(QQ, shape(m, n, m, n), shape(2),
                         {(r, col): (3 * r + col) % 5 - 2
                          for r in range(2) for col in range(m * n * m * n)})
    swap = tensor(identity(QQ, m), braiding(QQ, m, n), identity(QQ, n))
    assert equals(after_tensor_comul(f, c, d), f @ swap @ tensor(c.comul, d.comul))


REF_FIELDS = [QQ, prime_field(2), prime_field(3)]


@pytest.mark.parametrize("field", REF_FIELDS, ids=["Q", "F2", "F3"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_product_of_coproducts_matches_swap_composite(field, data):
    # arbitrary linear mul and comul, not a bialgebra: the Galois-map
    # evaluation is a rearrangement that must hold for any of them
    d = data.draw(st.integers(min_value=1, max_value=3))
    entry = st.integers(min_value=-2, max_value=2).map(field.coerce)
    mul_rows = data.draw(st.lists(st.lists(entry, min_size=d * d, max_size=d * d),
                                  min_size=d, max_size=d))
    comul_rows = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                    min_size=d * d, max_size=d * d))
    mul = LinMap(field, shape(d, d), shape(d), mul_rows)
    comul = LinMap(field, shape(d), shape(d, d), comul_rows)
    got = product_of_coproducts(mul, comul, d)
    middle_swap = tensor(identity(field, d), braiding(field, d, d), identity(field, d))
    assert equals(got, tensor(mul, mul) @ middle_swap @ tensor(comul, comul))
    # the same map as a sum over basis indices, with the field's own + and *:
    # x (x) y -> sum of mul(a, c) (x) mul(b, e) over comul(x) = a (x) b, comul(y) = c (x) e
    n = range(d)
    for x, y in product(n, n):
        expected = [[field.zero()] * d for _ in n]
        for a, b, c, e in product(n, repeat=4):
            coeff = comul_rows[a * d + b][x] * comul_rows[c * d + e][y]
            if coeff:
                for p, q in product(n, n):
                    expected[p][q] += coeff * mul_rows[p][a * d + c] * mul_rows[q][b * d + e]
        assert [[got.at(p * d + q, x * d + y) for q in n] for p in n] == expected
