import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import add, group_algebra, scale, sub
from wcpx import linmaps, structures
from wcpx.fields import QQ, prime_field
from wcpx.linmaps import (LinMap, NotIdempotentError, ObjectShape,
                          ShapeMismatchError, braiding, compose, equals,
                          first_difference, identity, permute,
                          rank, shape, split_idempotent, tensor)
from wcpx.structures import check_algebra, check_coalgebra, check_hopf, product_of_coproducts

F5 = prime_field(5)
FIELDS = [QQ, F5]


def mk(field, src, tgt, rows):
    return LinMap(field, shape(*src), shape(*tgt), rows)


small = st.integers(min_value=-3, max_value=3)


def rows_st(n_rows, n_cols):
    return st.lists(st.lists(small, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


# -- composition ------------------------------------------------------------

def test_compose_column_swap():
    f = mk(QQ, (2,), (2,), [[1, 2], [3, 4]])
    g = mk(QQ, (2,), (2,), [[0, 1], [1, 0]])
    assert (f @ g).entries == mk(QQ, (2,), (2,), [[2, 1], [4, 3]]).entries


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5"])
def test_compose_identity_law(field):
    f = mk(field, (3,), (2,), [[1, 2, 3], [4, 5, 6]])
    assert equals(f @ identity(field, 3), f)
    assert equals(identity(field, 2) @ f, f)


def test_swap_composes_to_identity():
    assert equals(braiding(QQ, 2, 3) @ braiding(QQ, 3, 2), identity(QQ, 6))


def test_compose_shape_mismatch_names_shapes():
    f = mk(QQ, (2,), (2,), [[1, 0], [0, 1]])
    g = mk(QQ, (3,), (3,), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ShapeMismatchError) as err:
        compose(f, g)
    assert "3" in str(err.value) and "2" in str(err.value)


@given(f=rows_st(2, 3), g=rows_st(3, 4), h=rows_st(4, 2))
def test_compose_associative(f, g, h):
    a = mk(QQ, (3,), (2,), f)
    b = mk(QQ, (4,), (3,), g)
    c = mk(QQ, (2,), (4,), h)
    assert equals((a @ b) @ c, a @ (b @ c))


# -- tensor ------------------------------------------------------------------

def test_tensor_identities():
    t = tensor(identity(QQ, 2), identity(QQ, 3))
    assert equals(t, identity(QQ, 6))
    assert t.source.factors == (2, 3)


def test_tensor_block_structure():
    swap = mk(QQ, (2,), (2,), [[0, 1], [1, 0]])
    t = tensor(identity(QQ, 2), swap)
    expected = mk(QQ, (2, 2), (2, 2),
                  [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert equals(t, expected)


def test_interchange_against_raw_loops():
    # direct entrywise computation of ((f (x) g) o (f' (x) g'))[r, c]
    f = mk(QQ, (2,), (2,), [[1, 2], [0, -1]])
    g = mk(QQ, (2,), (2,), [[3, 1], [1, 1]])
    fp = mk(QQ, (2,), (2,), [[-1, 1], [2, 0]])
    gp = mk(QQ, (2,), (2,), [[0, 2], [1, -2]])
    via_lib = tensor(f, g) @ tensor(fp, gp)
    for r1 in range(2):
        for r2 in range(2):
            for c1 in range(2):
                for c2 in range(2):
                    total = Fraction(0)
                    for j1 in range(2):
                        for j2 in range(2):
                            total += (f.entries[r1][j1] * g.entries[r2][j2]
                                      * fp.entries[j1][c1] * gp.entries[j2][c2])
                    assert via_lib.entries[r1 * 2 + r2][c1 * 2 + c2] == total
    assert equals(via_lib, tensor(f @ fp, g @ gp))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_interchange_property(field, data):
    f = mk(field, (2,), (2,), data.draw(rows_st(2, 2)))
    g = mk(field, (2,), (2,), data.draw(rows_st(2, 2)))
    fp = mk(field, (2,), (2,), data.draw(rows_st(2, 2)))
    gp = mk(field, (2,), (2,), data.draw(rows_st(2, 2)))
    assert equals(tensor(f, g) @ tensor(fp, gp), tensor(f @ fp, g @ gp))


# -- braiding ----------------------------------------------------------------

def test_braiding_2_2():
    c = braiding(QQ, 2, 2)
    one, zero = Fraction(1), Fraction(0)
    assert c.entries[0][0] == one and c.entries[3][3] == one
    assert c.entries[2][1] == one and c.entries[1][2] == one
    assert c.entries[1][1] == zero and c.entries[2][2] == zero


def test_braiding_with_unit_factor_is_identity():
    assert equals(braiding(QQ, 1, 4), identity(QQ, 4))
    assert equals(braiding(QQ, 4, 1), identity(QQ, 4))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 4), (1, 5)])
def test_braiding_symmetric(m, n):
    assert equals(braiding(QQ, n, m) @ braiding(QQ, m, n), identity(QQ, m * n))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_braiding_natural(field, data):
    f = mk(field, (2,), (3,), data.draw(rows_st(3, 2)))
    g = mk(field, (3,), (2,), data.draw(rows_st(2, 3)))
    lhs = braiding(field, 3, 2) @ tensor(f, g)
    rhs = tensor(g, f) @ braiding(field, 2, 3)
    assert equals(lhs, rhs)


# -- shapes --------------------------------------------------------------------

@given(factors=st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=4))
def test_flatten_round_trip(factors):
    sh = ObjectShape(tuple(factors))
    for flat in range(sh.total):
        assert sh.flatten(sh.unflatten(flat)) == flat


def test_unit_shape():
    k = ObjectShape(())
    assert k.total == 1
    assert k.unflatten(0) == ()


# -- equality -------------------------------------------------------------------

def test_equals_ignores_unit_factor_bookkeeping():
    assert equals(braiding(QQ, 2, 1), identity(QQ, 2))


def test_first_difference_witness():
    d1 = mk(QQ, (2,), (2,), [[1, 0], [0, 0]])
    d2 = mk(QQ, (2,), (2,), [[1, 0], [0, 1]])
    assert not equals(d1, d2)
    diff = first_difference(d1, d2)
    assert (diff.row, diff.col) == (1, 1)
    assert (diff.left, diff.right) == (Fraction(0), Fraction(1))


# -- idempotent splitting -----------------------------------------------------------

def test_split_diagonal_projector():
    e = mk(QQ, (3,), (3,), [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    s = split_idempotent(e)
    assert s.mid.total == 2
    assert s.injection.entries == mk(QQ, (2,), (3,), [[1, 0], [0, 1], [0, 0]]).entries
    assert equals(s.projection @ s.injection, identity(QQ, 2))
    assert equals(s.injection @ s.projection, e)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_split_identity(n):
    s = split_idempotent(identity(QQ, n))
    assert s.mid.total == n
    assert equals(s.injection, identity(QQ, n))
    assert equals(s.projection, identity(QQ, n))


def test_split_rank_one():
    e = mk(QQ, (2,), (2,), [[1, 1], [0, 0]])
    s = split_idempotent(e)
    assert s.mid.total == 1
    assert equals(s.injection @ s.projection, e)
    assert equals(s.projection @ s.injection, identity(QQ, 1))


def test_split_rejects_non_idempotent():
    m = mk(QQ, (2,), (2,), [[0, 1], [1, 0]])
    with pytest.raises(NotIdempotentError) as err:
        split_idempotent(m)
    assert "basis vector" in str(err.value)


def _unit_triangular_inverse(field, t):
    # inverse of a unit triangular map via the terminating nilpotent series
    n = t.source.total
    nil = sub(t, identity(field, n))
    total = identity(field, n)
    term = identity(field, n)
    for _ in range(n - 1):
        term = scale(term @ nil, -1)
        total = add(total, term)
    return total


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_split_random_conjugated_projector(field, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    r = data.draw(st.integers(min_value=1, max_value=n))
    lower = data.draw(rows_st(n, n))
    upper = data.draw(rows_st(n, n))
    lo = [[lower[i][j] if i > j else (1 if i == j else 0) for j in range(n)]
          for i in range(n)]
    up = [[upper[i][j] if i < j else (1 if i == j else 0) for j in range(n)]
          for i in range(n)]
    basis_change = mk(field, (n,), (n,), lo) @ mk(field, (n,), (n,), up)
    inverse = (_unit_triangular_inverse(field, mk(field, (n,), (n,), up))
               @ _unit_triangular_inverse(field, mk(field, (n,), (n,), lo)))
    diag = mk(field, (n,), (n,),
              [[1 if (i == j and i < r) else 0 for j in range(n)] for i in range(n)])
    e = basis_change @ diag @ inverse
    s = split_idempotent(e)
    assert s.mid.total == r == rank(e)
    assert equals(s.projection @ s.injection, identity(field, s.mid))
    assert equals(s.injection @ s.projection, e)


# -- the sparse kernel against a naive dense reference ------------------------------
#
# The references below work on dense lists of field scalars with the field's
# own + and *, one entry at a time, so they share nothing with the kernel's
# sparse rows or its integer residues.  F_2 and F_3 make cancellation to zero
# frequent, which is where a sparse representation can go wrong.

REF_FIELDS = [QQ, prime_field(2), prime_field(3)]
REF_IDS = ["Q", "F2", "F3"]
tiny = st.integers(min_value=-2, max_value=2)


def dense_st(field, n_rows, n_cols):
    return st.lists(st.lists(tiny.map(field.coerce), min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


def ref_compose(field, f, g):
    return [[sum((f[r][j] * g[j][c] for j in range(len(g))), field.zero())
             for c in range(len(g[0]))] for r in range(len(f))]


def ref_tensor(f, g):
    return [[f[r1][c1] * g[r2][c2] for c1 in range(len(f[0])) for c2 in range(len(g[0]))]
            for r1 in range(len(f)) for r2 in range(len(g))]


def ref_first_difference(f, g):
    for r in range(len(f)):
        for c in range(len(f[0])):
            if f[r][c] != g[r][c]:
                return (r, c, f[r][c], g[r][c])
    return None


def as_lists(m):
    return [list(row) for row in m.entries]


def assert_canonical(m):
    assert len(m.rows) == m.target.total
    for row in m.rows:
        assert all(0 <= c < m.source.total and v for c, v in row.items())


dims = st.integers(min_value=1, max_value=4)


@pytest.mark.parametrize("field", REF_FIELDS, ids=REF_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_compose_matches_dense_reference(field, data):
    m, n, k = data.draw(dims), data.draw(dims), data.draw(dims)
    f = data.draw(dense_st(field, m, n))
    g = data.draw(dense_st(field, n, k))
    got = compose(LinMap(field, shape(n), shape(m), f), LinMap(field, shape(k), shape(n), g))
    assert as_lists(got) == ref_compose(field, f, g)
    assert_canonical(got)


@pytest.mark.parametrize("field", REF_FIELDS, ids=REF_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_tensor_matches_dense_reference(field, data):
    a, b, c, d = (data.draw(st.integers(min_value=1, max_value=3)) for _ in range(4))
    f = data.draw(dense_st(field, a, b))
    g = data.draw(dense_st(field, c, d))
    got = tensor(LinMap(field, shape(b), shape(a), f), LinMap(field, shape(d), shape(c), g))
    assert (got.source.factors, got.target.factors) == ((b, d), (a, c))
    assert as_lists(got) == ref_tensor(f, g)
    assert_canonical(got)


@pytest.mark.parametrize("field", REF_FIELDS, ids=REF_IDS)
@given(m=dims, n=dims)
@settings(max_examples=20, deadline=None)
def test_braiding_matches_dense_reference(field, m, n):
    # column i*n+j is e_i (x) e_j, which goes to e_j (x) e_i, row j*m+i
    expected = [[field.one() if r == (col % n) * m + col // n else field.zero()
                 for col in range(m * n)] for r in range(m * n)]
    c = braiding(field, m, n)
    assert (c.source.factors, c.target.factors) == ((m, n), (n, m))
    assert [[c.at(r, col) for col in range(m * n)] for r in range(m * n)] == expected
    assert as_lists(c) == expected


@pytest.mark.parametrize("field", REF_FIELDS, ids=REF_IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_permute_source_is_composite_with_middle_swap(field, data):
    a, b, c, d = (data.draw(st.integers(min_value=1, max_value=3)) for _ in range(4))
    rows = data.draw(dims)
    f = LinMap(field, shape(a, b, c, d), shape(rows),
               data.draw(dense_st(field, rows, a * b * c * d)))
    swapped = tensor(identity(field, a), braiding(field, c, b), identity(field, d))
    got = permute(f, (rows,), (a, b, c, d), (0, 1, 3, 2, 4), 1)
    assert got.source.factors == (a, c, b, d)
    assert as_lists(got) == as_lists(f @ swapped)


def test_permute_source_rejects_bad_permutation():
    f = identity(QQ, shape(2, 3))
    with pytest.raises(ShapeMismatchError):
        permute(f, (2, 3), (2, 3), (0, 1, 2, 2), 2)
    with pytest.raises(ShapeMismatchError):
        permute(f, (2, 3), (2, 2), (0, 1, 3, 2), 2)


@pytest.mark.parametrize("field", REF_FIELDS, ids=REF_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_permute_matches_dense_reference_and_inverts(field, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    factors = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    t = data.draw(st.integers(min_value=0, max_value=n))  # old factors left of the arrow
    order = tuple(data.draw(st.permutations(range(n))))
    split = data.draw(st.integers(min_value=0, max_value=n))
    old_t, old_s = shape(*factors[:t]), shape(*factors[t:])
    ref = data.draw(dense_st(field, old_t.total, old_s.total))
    f = LinMap(field, old_s, old_t, ref)
    got = permute(f, old_t.factors, old_s.factors, order, split)
    new = tuple(factors[k] for k in order)
    assert (got.target.factors, got.source.factors) == (new[:split], new[split:])
    # index by index: slot k of the new multi-index is old factor order[k]
    for r in range(got.target.total):
        for c in range(got.source.total):
            multi = got.target.unflatten(r) + got.source.unflatten(c)
            old = [0] * n
            for k, i in zip(order, multi):
                old[k] = i
            assert got.at(r, c) == ref[old_t.flatten(tuple(old[:t]))][old_s.flatten(tuple(old[t:]))]
    assert_canonical(got)
    inverse = tuple(order.index(k) for k in range(n))
    back = permute(got, got.target.factors, got.source.factors, inverse, t)
    assert back == f


@pytest.mark.parametrize("order,target,source", [
    ((0, 1, 1), (2,), (2, 3)),        # not a permutation
    ((0, 1), (2,), (2, 3)),           # too few slots
    ((0, 1, 2), (2,), (2, 2)),        # source dims do not multiply to 6
    ((0, 1, 2), (4,), (2, 3)),        # target dims do not multiply to 2
])
def test_permute_rejects_bad_order_or_dims_before_reading_rows(order, target, source):
    f = tensor(identity(QQ, 2), LinMap(QQ, shape(3), shape(1), [[1, 2, 3]]))
    with pytest.raises(ShapeMismatchError):
        permute(f, target, source, order, 1)
    assert f._built is None, "the Kronecker rows were built before the check"
    with pytest.raises(ShapeMismatchError):
        permute(f, (2,), (2, 3), (0, 1, 2), 4)  # split beyond the last slot
    assert f._built is None


@pytest.mark.parametrize("field", REF_FIELDS, ids=REF_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_equals_and_first_difference_match_dense_reference(field, data):
    m, n = data.draw(dims), data.draw(dims)
    f = data.draw(dense_st(field, m, n))
    g = [list(row) for row in f]
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        r = data.draw(st.integers(min_value=0, max_value=m - 1))
        c = data.draw(st.integers(min_value=0, max_value=n - 1))
        g[r][c] = field.coerce(data.draw(tiny))
    lf, lg = LinMap(field, shape(n), shape(m), f), LinMap(field, shape(n), shape(m), g)
    expected = ref_first_difference(f, g)
    assert equals(lf, lg) == (expected is None)
    diff = first_difference(lf, lg)
    if expected is None:
        assert diff is None
    else:
        assert (diff.row, diff.col, diff.left, diff.right) == expected


@pytest.mark.parametrize("field", REF_FIELDS, ids=REF_IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_difference_with_own_negative_is_canonical_zero(field, data):
    # f - f as the composite [f, -f] after [id; id]: every entry the kernel
    # accumulates cancels to zero and must be dropped from its row
    m, n = data.draw(dims), data.draw(dims)
    dense = data.draw(dense_st(field, m, n))
    f = LinMap(field, shape(n), shape(m), dense)
    both = LinMap(field, shape(2, n), shape(m), [row + [-x for x in row] for row in dense])
    doubled = LinMap.from_dict(field, shape(n), shape(2, n),
                               {(k * n + i, i): 1 for k in range(2) for i in range(n)})
    z = compose(both, doubled)
    assert z.is_zero()
    assert z.rows == tuple({} for _ in range(m))
    assert equals(sub(f, f), z)


@pytest.mark.parametrize("index", [(2, 0), (0, 3), (-1, 0), (0, -1)])
def test_from_dict_rejects_out_of_range_index(index):
    with pytest.raises(ShapeMismatchError):
        LinMap.from_dict(QQ, shape(3), shape(2), {index: 1})


def test_from_dict_drops_explicit_zeros():
    m = LinMap.from_dict(prime_field(3), shape(2), shape(2), {(0, 0): 3, (1, 1): 1})
    assert m.rows == ({}, {1: 1})


def test_maps_sharing_rows_cannot_be_changed_through_each_other():
    m = LinMap(QQ, shape(2), shape(2), [[1, 2], [0, 3]])
    view = m.reshaped(shape(2, 1), shape(1, 2))
    before = hash(m)
    with pytest.raises(TypeError):
        view.rows[0][1] = 5
    with pytest.raises(AttributeError):
        view.field = F5
    with pytest.raises(AttributeError):
        del m.source
    assert as_lists(m) == [[1, 2], [0, 3]] and hash(m) == before


def test_hopf_axioms_of_twelve_element_group_stay_sparse():
    # the middle swap for the bialgebra axiom would be a dense 20736 x 20736
    # matrix (4.3e8 entries); the sparse kernel never builds it
    report = check_hopf(group_algebra(12))
    assert report.passed and len(report.records) == 6


# -- Kronecker products kept as factors ----------------------------------------------
#
# tensor() keeps its factors and compose() contracts them one at a time, so
# these compare composites that involve Kronecker products, built in every
# shape the contraction distinguishes, with the dense reference above.


@st.composite
def splits(draw, n):
    """An ordered factorisation of n, sometimes with a factor 1 (the base object K)."""
    parts = []
    while n > 1:
        d = draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
        parts.append(d)
        n //= d
    if not parts or draw(st.booleans()):
        parts.insert(draw(st.integers(min_value=0, max_value=len(parts))), 1)
    return parts


def ref_identity(field, n):
    return [[field.one() if r == c else field.zero() for c in range(n)] for r in range(n)]


@st.composite
def factor_st(draw, field, source):
    """A map with the given source size, with its dense matrix: a plain map,
    an identity, or a Kronecker product of two plain maps."""
    kind = draw(st.sampled_from(["plain", "identity", "nested"]))
    if kind == "identity":
        return identity(field, source), ref_identity(field, source)
    if kind == "nested":
        left = draw(st.sampled_from([d for d in range(1, source + 1) if source % d == 0]))
        parts = []
        for s in (left, source // left):
            t = draw(st.integers(min_value=1, max_value=2))
            dense = draw(dense_st(field, t, s))
            parts.append((LinMap(field, shape(s), shape(t), dense), dense))
        (a, da), (b, db) = parts
        return tensor(a, b), ref_tensor(da, db)
    t = draw(st.integers(min_value=1, max_value=3))
    dense = draw(dense_st(field, t, source))
    return LinMap(field, shape(source), shape(t), dense), dense


@st.composite
def kron_st(draw, field, source_parts):
    """tensor() of one factor per source part, its dense matrix and its factors."""
    drawn = [draw(factor_st(field, s)) for s in source_parts]
    maps = [m for m, _ in drawn]
    dense = drawn[0][1]
    for _, d in drawn[1:]:
        dense = ref_tensor(dense, d)
    m = tensor(*maps)
    if draw(st.booleans()):
        m.rows  # a Kronecker product whose rows were read before it is composed
    return m, dense, maps


@pytest.mark.parametrize("field", REF_FIELDS, ids=REF_IDS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_compose_with_kronecker_products_matches_dense_reference(field, data):
    side = data.draw(st.sampled_from(["right", "left", "both"]))
    n_src = data.draw(st.integers(min_value=1, max_value=6))
    if side == "left":
        n_mid = data.draw(st.integers(min_value=1, max_value=8))
        g_ref = data.draw(dense_st(field, n_mid, n_src))
        g = LinMap(field, shape(n_src), shape(n_mid), g_ref)
        f_parts = data.draw(splits(n_mid))
    else:
        g, g_ref, g_maps = data.draw(kron_st(field, data.draw(splits(n_src))))
        f_parts = data.draw(splits(g.target.total))
        if side == "both" and data.draw(st.booleans()):
            f_parts = [m.target.total for m in g_maps]  # matching factor splits
    if side == "right":
        f_ref = data.draw(dense_st(field, data.draw(dims), g.target.total))
        f = LinMap(field, g.target, shape(len(f_ref)), f_ref)
    else:
        f, f_ref, _ = data.draw(kron_st(field, f_parts))
    got = compose(f, g)
    assert (got.source, got.target) == (g.source, f.target)
    assert as_lists(got) == ref_compose(field, f_ref, g_ref)
    assert_canonical(got)
    # the composite composes on like any other map, as either operand
    assert as_lists(compose(got, identity(field, g.source))) == as_lists(got)
    assert as_lists(compose(identity(field, f.target), got)) == as_lists(got)


@pytest.mark.parametrize("field", REF_FIELDS, ids=REF_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kronecker_product_kept_as_factors_behaves_like_its_matrix(field, data):
    parts = data.draw(splits(data.draw(st.integers(min_value=1, max_value=6))))
    maps = [data.draw(factor_st(field, s)) for s in parts]
    lazy, fresh = tensor(*(m for m, _ in maps)), tensor(*(m for m, _ in maps))
    eager = LinMap(field, lazy.source, lazy.target, as_lists(fresh))
    other = [list(row) for row in as_lists(fresh)]
    r = data.draw(st.integers(min_value=0, max_value=len(other) - 1))
    c = data.draw(st.integers(min_value=0, max_value=len(other[0]) - 1))
    other[r][c] = field.coerce(data.draw(tiny))
    other = LinMap(field, lazy.source, lazy.target, other)
    assert first_difference(lazy, other) == first_difference(eager, other)
    assert lazy == eager and hash(lazy) == hash(eager) and equals(lazy, eager)
    for name in ("field", "_built", "_factors"):
        with pytest.raises(AttributeError):
            setattr(lazy, name, None)
    with pytest.raises(TypeError):
        lazy.rows[0][0] = 1
    assert lazy == eager and as_lists(lazy) == as_lists(eager)


def test_hopf_check_never_builds_rows_of_coproduct_or_product_kronecker(monkeypatch):
    # counts materialisations instead of timing them: the rows of a Kronecker
    # product with comul as a factor and of mul next to an identity are never
    # built; the bialgebra axiom is contracted without any Kronecker product
    # (2 d^5 + d^6 operations, not d^8), and every other axiom composes its
    # Kronecker operands factor by factor
    built = []
    kron_rows = linmaps._kron_rows

    def counting(factors, p):
        built.append(factors)
        return kron_rows(factors, p)

    monkeypatch.setattr(linmaps, "_kron_rows", counting)
    h = group_algebra(7)
    assert check_algebra(h.algebra).passed
    assert check_coalgebra(h.coalgebra).passed
    assert check_hopf(h).passed
    assert built, "materialisations are counted"
    for factors in built:
        assert not any(m is h.comul for m in factors), factors
        assert not (any(m is h.mul for m in factors)
                    and any(m == identity(m.field, m.source) for m in factors)), factors


def test_product_of_coproducts_builds_no_kronecker_product(monkeypatch):
    # the ring mu - Delta - mu - Delta is contracted by plain composites of
    # permuted structure maps: no tensor call, so no Kronecker rows either
    calls = []
    kron_rows, tensor_ = linmaps._kron_rows, linmaps.tensor

    def counting_rows(factors, p):
        calls.append(("rows", factors))
        return kron_rows(factors, p)

    def counting_tensor(*maps):
        calls.append(("tensor", maps))
        return tensor_(*maps)

    monkeypatch.setattr(linmaps, "_kron_rows", counting_rows)
    monkeypatch.setattr(linmaps, "tensor", counting_tensor)
    monkeypatch.setattr(structures, "tensor", counting_tensor)
    rng, f101, d = random.Random(101), prime_field(101), 5
    dense_mul = LinMap(f101, shape(d, d), shape(d),
                       [[rng.randrange(1, 101) for _ in range(d * d)] for _ in range(d)])
    dense_comul = LinMap(f101, shape(d), shape(d, d),
                         [[rng.randrange(1, 101) for _ in range(d)] for _ in range(d * d)])
    h = group_algebra(7)
    for mul, comul, dim in [(h.mul, h.comul, 7), (dense_mul, dense_comul, d)]:
        assert not product_of_coproducts(mul, comul, dim).is_zero()
    assert calls == []
    structures.tensor(h.mul, h.mul)  # the counters see a call
    assert [kind for kind, _ in calls] == ["tensor"]


def test_hopf_check_of_c16_builds_no_kronecker_rows_beyond_d_squared(monkeypatch):
    # the only Kronecker rows built are those of the two sides compared as
    # whole maps, tensor(counit, counit) (1 x d^2) and tensor(unit, unit)
    # (d^2 x 1); reading tensor(mul, mul) would build d^4 entries
    built = []
    kron_rows = linmaps._kron_rows

    def counting(factors, p):
        rows = kron_rows(factors, p)
        built.append((len(rows), sum(len(row) for row in rows)))
        return rows

    monkeypatch.setattr(linmaps, "_kron_rows", counting)
    assert check_hopf(group_algebra(16)).passed
    assert built, "materialisations are counted"
    for n_rows, n_entries in built:
        assert n_rows <= 16 ** 2 and n_entries <= 16 ** 2, built
