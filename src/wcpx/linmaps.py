"""Exact linear maps between tensor products of based spaces, stored by sparse rows.

A map is a matrix over the row-major flattening of its ordered tensor
factors.  Row r is a dict {col: value} holding only the nonzero entries of
that row, so every map has exactly one representation: two maps are equal
when their rows are equal as dicts, and the cost of every primitive
follows the number of nonzero entries, not the dense size.  Composition,
Kronecker product, the symmetric swap, ``permute`` (of factors, also
across the arrow) and idempotent splitting are the only primitives; every
structural condition checked elsewhere reduces to exact equality of maps.

A Kronecker product keeps its factors and builds its rows only when they
are first read, then caches them.  ``compose`` contracts a Kronecker
operand one factor at a time, skipping identity factors, and composes two
Kronecker products factor by factor wherever their splits line up
((f (x) g)(h (x) k) = fh (x) gk); only where two splits do not line up
does it build the rows of one side.  Networks that fit no Kronecker
product are contracted by plain composites of permuted maps: the right
side of the bialgebra axiom (``structures.product_of_coproducts``) costs
2 d^5 + d^6 operations, not the d^8 of ``tensor(comul, comul)``.

Scalar boundary: inside the rows, an F_p entry is its residue as a plain
int in 1..p-1, and a rational entry is an int when it is integral and a
``Fraction`` otherwise.  The kernel multiplies and adds these values
directly and reduces an F_p result once per output entry.  Values leave
the kernel as field scalars (``Fp`` or ``Fraction``) through ``at``,
``column``, ``entries`` and the ``Difference`` of ``first_difference``;
``entries`` is a dense row-major view built only when it is read.

Conventions, fixed package-wide:
  * basis index of e_{i1} (x) ... (x) e_{ik} is the row-major flattening;
  * ``f @ g`` is the composite "g first, then f" (ordinary matrix product);
  * an empty factor list is the base object K of dimension 1, so maps
    from or into K are column or row vectors.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from types import MappingProxyType

from .fields import FieldError, FieldSpec, Fp, Scalar


class ShapeMismatchError(ValueError):
    """Composite or comparison applied to maps whose shapes do not fit."""


class NotIdempotentError(ValueError):
    """split_idempotent applied to a map e with e @ e != e."""


@dataclass(frozen=True)
class ObjectShape:
    """Ordered tensor factors of a based space; () is the base object K."""

    factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(not isinstance(d, int) or d < 1 for d in self.factors):
            raise ShapeMismatchError(f"factor dimensions must be positive: {self.factors}")

    @cached_property
    def total(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    def flatten(self, multi: tuple[int, ...]) -> int:
        if len(multi) != len(self.factors):
            raise ShapeMismatchError(f"index {multi} does not match shape {self}")
        flat = 0
        for i, d in zip(multi, self.factors):
            if not 0 <= i < d:
                raise ShapeMismatchError(f"index {multi} out of range for shape {self}")
            flat = flat * d + i
        return flat

    def unflatten(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.total:
            raise ShapeMismatchError(f"flat index {flat} out of range for shape {self}")
        multi = []
        for d in reversed(self.factors):
            multi.append(flat % d)
            flat //= d
        return tuple(reversed(multi))

    def tensor(self, other: "ObjectShape") -> "ObjectShape":
        return ObjectShape(self.factors + other.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "K"
        return "⊗".join(str(d) for d in self.factors)


UNIT_SHAPE = ObjectShape(())


def shape(*dims: int) -> ObjectShape:
    return ObjectShape(tuple(dims))


# -- the scalar boundary ---------------------------------------------------------

Row = dict[int, "int | Fraction"]


def _raw(field: FieldSpec, value) -> int | Fraction:
    """A field scalar (or anything ``field.coerce`` accepts) as a kernel value."""
    x = field.coerce(value)
    if isinstance(x, Fp):
        return x.residue
    return x.numerator if x.denominator == 1 else x


def _scalar(field: FieldSpec, value) -> Scalar:
    """A kernel value (zero allowed) as a field scalar."""
    if field.characteristic:
        return Fp(value, field.characteristic)
    return value if type(value) is Fraction else Fraction(value)


def _canonical(acc: Row, p: int) -> Row:
    """Drop the zeros of an accumulated row: reduce mod p over F_p, and keep
    integral rationals as ints so that later products stay integer products."""
    if p:
        return {c: r for c, v in acc.items() if (r := v % p)}
    return {c: v.numerator if v.denominator == 1 else v for c, v in acc.items() if v}


def _check_index(row: int, col: int, source: ObjectShape, target: ObjectShape) -> None:
    if not (0 <= row < target.total and 0 <= col < source.total):
        raise ShapeMismatchError(
            f"entry ({row}, {col}) out of range for a map {source} -> {target}")


def _same_field(f: "LinMap", g: "LinMap") -> None:
    if f.field != g.field:
        raise FieldError(f"cannot combine a map over {f.field} with one over {g.field}")


def _init(m: "LinMap", field: FieldSpec, source: ObjectShape, target: ObjectShape,
          rows, factors: tuple["LinMap", ...] | None = None) -> None:
    setattr_ = object.__setattr__
    setattr_(m, "field", field)
    setattr_(m, "source", source)
    setattr_(m, "target", target)
    setattr_(m, "_built", None if rows is None else tuple(rows))
    setattr_(m, "_factors", factors)


class LinMap:
    """An exact linear map: a target.total x source.total matrix of scalars.

    A map is immutable.  Its rows (one {col: value} dict of nonzero kernel
    values per row, see the module docstring) are shared between maps that
    have the same matrix, and ``rows`` hands them out as read-only views.
    A Kronecker product also keeps its factors (maps that are not Kronecker
    products themselves) and builds its rows only when they are first read.
    The constructor takes dense rows of scalars, as ``entries`` returns them.
    """

    __slots__ = ("field", "source", "target", "_built", "_factors")

    def __init__(self, field: FieldSpec, source: ObjectShape, target: ObjectShape,
                 entries) -> None:
        if len(entries) != target.total:
            raise ShapeMismatchError(
                f"{len(entries)} rows for target {target} of size {target.total}")
        rows = []
        for dense in entries:
            if len(dense) != source.total:
                raise ShapeMismatchError(
                    f"{len(dense)} columns for source {source} of size {source.total}")
            rows.append({c: v for c, x in enumerate(dense) if (v := _raw(field, x))})
        _init(self, field, source, target, rows)

    @classmethod
    def _of(cls, field: FieldSpec, source: ObjectShape, target: ObjectShape, rows) -> "LinMap":
        """Wrap rows that are already canonical kernel values."""
        m = object.__new__(cls)
        _init(m, field, source, target, rows)
        return m

    @classmethod
    def _kron(cls, field: FieldSpec, source: ObjectShape, target: ObjectShape,
              factors: tuple["LinMap", ...]) -> "LinMap":
        """The Kronecker product of factors that are not Kronecker products."""
        m = object.__new__(cls)
        _init(m, field, source, target, None, factors)
        return m

    @property
    def _rows(self) -> tuple[Row, ...]:
        rows = self._built
        if rows is None:
            rows = _kron_rows(self._factors, self.field.characteristic)
            object.__setattr__(self, "_built", rows)
        return rows

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"LinMap is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"LinMap is immutable: cannot delete {name!r}")

    @property
    def rows(self) -> tuple[MappingProxyType, ...]:
        """Read-only views of the sparse rows, {col: kernel value} per row."""
        return tuple(MappingProxyType(row) for row in self._rows)

    @classmethod
    def from_dict(cls, field: FieldSpec, source: ObjectShape, target: ObjectShape, values) -> "LinMap":
        """Build from a sparse {(row, col): scalar} dict; absent entries are zero."""
        rows: list[Row] = [{} for _ in range(target.total)]
        for (r, c), x in values.items():
            _check_index(r, c, source, target)
            v = _raw(field, x)
            if v:
                rows[r][c] = v
        return cls._of(field, source, target, rows)

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense row-major view of the matrix as field scalars, built on each read."""
        zero, field = self.field.zero(), self.field
        out = []
        for row in self._rows:
            dense = [zero] * self.source.total
            for c, v in row.items():
                dense[c] = _scalar(field, v)
            out.append(tuple(dense))
        return tuple(out)

    def at(self, row: int, col: int) -> Scalar:
        _check_index(row, col, self.source, self.target)
        v = self._rows[row].get(col)
        return _scalar(self.field, v) if v else self.field.zero()

    def column(self, col: int) -> tuple[Scalar, ...]:
        zero, hits = self.field.zero(), self.column_entries(col)
        return tuple(hits.get(r, zero) for r in range(self.target.total))

    def column_entries(self, col: int) -> dict[int, Scalar]:
        """The nonzero entries of one column, as {row: scalar}."""
        _check_index(0, col, self.source, self.target)
        field = self.field
        return {r: _scalar(field, row[col]) for r, row in enumerate(self._rows) if col in row}

    def reshaped(self, source: ObjectShape, target: ObjectShape) -> "LinMap":
        """The same matrix with other factor bookkeeping of equal sizes."""
        if source.total != self.source.total or target.total != self.target.total:
            raise ShapeMismatchError(f"cannot view {self.source}->{self.target} "
                                     f"as {source}->{target}")
        return LinMap._of(self.field, source, target, self._rows)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        return compose(self, other)

    def tensor(self, *others: "LinMap") -> "LinMap":
        return tensor(self, *others)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.field == other.field and self.source == other.source
                and self.target == other.target and self._rows == other._rows)

    def __hash__(self) -> int:
        return hash((self.field, self.source, self.target,
                     tuple(frozenset(row.items()) for row in self._rows)))

    def __repr__(self) -> str:
        return f"LinMap({self.field}, {self.source}, {self.target}, rows={list(self._rows)})"

    def __str__(self) -> str:
        return f"LinMap {self.source} -> {self.target} over {self.field}"


def identity(field: FieldSpec, shape_or_dim) -> LinMap:
    sh = shape_or_dim if isinstance(shape_or_dim, ObjectShape) else ObjectShape((shape_or_dim,))
    return LinMap._of(field, sh, sh, [{i: 1} for i in range(sh.total)])


def compose(f: LinMap, g: LinMap) -> LinMap:
    """The composite f after g (g applied first)."""
    if g.target.total != f.source.total:
        raise ShapeMismatchError(
            f"cannot compose: g has target {g.target} (size {g.target.total}) "
            f"but f has source {f.source} (size {f.source.total})")
    _same_field(f, g)
    return _compose(f, g)


def _compose(f: LinMap, g: LinMap) -> LinMap:
    """compose without the checks; picks the path by which operands are Kronecker products."""
    p = f.field.characteristic
    f_factors, g_factors = f._factors, g._factors
    if f_factors and g_factors:
        groups = _matching_groups(f_factors, g_factors)
        if len(groups) > 1:
            parts = [_compose(_kron_of(f.field, fs), _kron_of(f.field, gs)) for fs, gs in groups]
            return LinMap._kron(f.field, g.source, f.target,
                                tuple(x for m in parts for x in (m._factors or (m,))))
        # no common split: read the rows of the side that is cheaper to build
        if _read_cost(f) <= _read_cost(g):
            f_factors = None
        else:
            g_factors = None
    if g_factors:
        rows = _contract(f._rows, [(m._rows, m.source.total) for m in g_factors], p)
    elif f_factors:
        # (F_1 (x) ... (x) F_k) g is the transpose of g^T (F_1^T (x) ... (x) F_k^T)
        cols = _contract(_transpose(g._rows, g.source.total),
                         [(_transpose(m._rows, m.source.total), m.target.total)
                          for m in f_factors], p)
        rows = _transpose(cols, f.target.total)
    else:
        g_rows = g._rows
        rows = []
        for frow in f._rows:
            acc: Row = defaultdict(int)
            for j, fj in frow.items():
                for c, gc in g_rows[j].items():
                    acc[c] += fj * gc
            rows.append(_canonical(acc, p))
    return LinMap._of(f.field, g.source, f.target, rows)


def _contract(rows, factors: list[tuple[tuple[Row, ...], int]], p: int) -> list[Row]:
    """Sparse rows times the Kronecker product of factors, one factor at a time.

    ``factors`` gives each factor G_j as its rows (one per index of its
    target) and its source size.  A column index of the input runs over the
    targets of G_1..G_k; contracting G_j last to first replaces its target
    index a by every source index b of row a of G_j.  With S the product of
    the source sizes after G_j, a column index reads
    (prefix * t_j + a) * S + suffix and becomes (prefix * s_j + b) * S + suffix,
    computed arithmetically.  An identity factor leaves every index where it
    is and is skipped.
    """
    stages = []
    after = 1
    for g_rows, width in reversed(factors):
        if not _is_identity(g_rows, width):
            offsets = [[(b * after, w) for b, w in grow.items()] for grow in g_rows]
            stages.append((after, len(g_rows) * after, width * after, offsets))
        after *= width
    out = []
    for row in rows:
        for after, span_in, span_out, offsets in stages:
            acc: Row = defaultdict(int)
            for i, v in row.items():
                prefix, rest = divmod(i, span_in)
                a, suffix = divmod(rest, after)
                base = prefix * span_out + suffix
                for off, w in offsets[a]:
                    acc[base + off] += v * w
            row = _canonical(acc, p)
        out.append(row)
    return out


def _is_identity(rows: tuple[Row, ...], width: int) -> bool:
    return len(rows) == width and all(len(row) == 1 and row.get(i) == 1
                                      for i, row in enumerate(rows))


def _read_cost(m: LinMap) -> int:
    """Row dicts plus entries that reading the rows of a Kronecker product builds."""
    n = 1
    for x in m._factors:
        n *= sum(len(row) for row in x._rows)
    return m.target.total + n


def _matching_groups(fs: tuple[LinMap, ...], gs: tuple[LinMap, ...]):
    """Split the factors of f and of g into consecutive groups, cut wherever
    the sources of f's factors and the targets of g's factors end at the
    same flat size, so that f @ g is the Kronecker product of the groups'
    composites.  Factors of size 1 left at the end join the last group."""
    groups = []
    i = j = 0
    while i < len(fs) and j < len(gs):
        fi, gj = i + 1, j + 1
        a, b = fs[i].source.total, gs[j].target.total
        while a != b:
            if a < b:
                a *= fs[fi].source.total
                fi += 1
            else:
                b *= gs[gj].target.total
                gj += 1
        groups.append((fs[i:fi], gs[j:gj]))
        i, j = fi, gj
    last_f, last_g = groups[-1]
    groups[-1] = (last_f + fs[i:], last_g + gs[j:])
    return groups


def _kron_of(field: FieldSpec, factors: tuple[LinMap, ...]) -> LinMap:
    if len(factors) == 1:
        return factors[0]
    return LinMap._kron(field, ObjectShape(tuple(m.source.total for m in factors)),
                        ObjectShape(tuple(m.target.total for m in factors)), factors)


def _kron_rows(factors: tuple[LinMap, ...], p: int) -> tuple[Row, ...]:
    """The rows of the Kronecker product of the factors."""
    rows = factors[0]._rows
    for g in factors[1:]:
        width, g_rows = g.source.total, g._rows
        # a product of two nonzero field elements is nonzero
        if p:
            rows = [{j * width + c: fv * gv % p for j, fv in frow.items() for c, gv in grow.items()}
                    for frow in rows for grow in g_rows]
        else:
            rows = [{j * width + c: fv * gv for j, fv in frow.items() for c, gv in grow.items()}
                    for frow in rows for grow in g_rows]
    return tuple(rows)


def tensor(*maps: LinMap) -> LinMap:
    """Kronecker product of maps, consistent with row-major flattening.

    The result keeps its factors; its rows are built when first read.
    """
    for m in maps[1:]:
        _same_field(maps[0], m)
    source = reduce(ObjectShape.tensor, (m.source for m in maps))
    target = reduce(ObjectShape.tensor, (m.target for m in maps))
    factors = tuple(x for m in maps for x in (m._factors or (m,)))
    if len(factors) == 1:
        return LinMap._of(maps[0].field, source, target, factors[0]._rows)
    return LinMap._kron(maps[0].field, source, target, factors)


def braiding(field: FieldSpec, m: int, n: int) -> LinMap:
    """The symmetric swap of an m-dimensional with an n-dimensional factor."""
    rows: list[Row] = [{} for _ in range(m * n)]
    for i in range(m):
        for j in range(n):
            rows[j * m + i] = {i * n + j: 1}
    return LinMap._of(field, shape(m, n), shape(n, m), rows)


def permute(f: LinMap, target: tuple[int, ...], source: tuple[int, ...],
            order: tuple[int, ...], split: int) -> LinMap:
    """f read as ``source`` -> ``target`` factors, its multi-index over
    ``target + source`` reordered so that slot k holds old factor ``order[k]``,
    with the first ``split`` slots as the new target.

    With the target kept in place this is f after a permutation of source
    factors; a factor moved across the arrow is a partial transpose.  Each
    nonzero entry is relabelled once.
    """
    dims = (*target, *source)
    n, t = len(dims), len(target)
    if (sorted(order) != list(range(n)) or not 0 <= split <= n
            or ObjectShape(tuple(target)).total != f.target.total
            or ObjectShape(tuple(source)).total != f.source.total):
        raise ShapeMismatchError(f"cannot permute {f.source} -> {f.target} read as "
                                 f"{source} -> {target} by {order} split at {split}")
    new = [dims[k] for k in order]
    stride, step = [0] * n, 1  # stride of each old factor in the new flat multi-index
    for slot in reversed(range(n)):
        stride[order[slot]], step = step, step * new[slot]
    row_at, col_at = [0], [0]  # old row or column -> its part of the new flat index
    for k, d in enumerate(dims):
        part = row_at if k < t else col_at
        part[:] = [x + j * stride[k] for x in part for j in range(d)]
    new_target, new_source = ObjectShape(tuple(new[:split])), ObjectShape(tuple(new[split:]))
    width = new_source.total
    rows: list[Row] = [{} for _ in range(new_target.total)]
    for r, row in enumerate(f._rows):
        base = row_at[r]
        for c, v in row.items():
            r2, c2 = divmod(base + col_at[c], width)
            rows[r2][c2] = v
    return LinMap._of(f.field, new_source, new_target, rows)


@dataclass(frozen=True)
class Difference:
    """First position (row-major scan) at which two maps disagree."""

    row: int
    col: int
    left: Scalar
    right: Scalar


def equals(f: LinMap, g: LinMap) -> bool:
    """Exact equality: matching source/target sizes and identical entries.

    Factor bookkeeping is ignored: the base object is a strict unit, so a
    map out of 2 (x) 1 and a map out of 2 compare equal when their matrices do.
    """
    if f.source.total != g.source.total or f.target.total != g.target.total:
        return False
    _same_field(f, g)
    return f._rows == g._rows


def first_difference(f: LinMap, g: LinMap) -> Difference | None:
    if f.source.total != g.source.total or f.target.total != g.target.total:
        raise ShapeMismatchError(
            f"cannot compare {f.source}->{f.target} with {g.source}->{g.target}")
    _same_field(f, g)
    for r, (a, b) in enumerate(zip(f._rows, g._rows)):
        if a != b:
            c = min(c for c in a.keys() | b.keys() if a.get(c, 0) != b.get(c, 0))
            return Difference(r, c, _scalar(f.field, a.get(c, 0)), _scalar(f.field, b.get(c, 0)))
    return None


def _rref(rows: list[Row], p: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows, leftmost pivots, leading entries 1."""
    rows = list(rows)
    n_rows = len(rows)
    n_cols = 1 + max((c for row in rows for c in row), default=-1)
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][c]
        inv = pow(lead, -1, p) if p else 1 / Fraction(lead)
        pivot = _canonical({k: inv * x for k, x in rows[r].items()}, p)
        rows[r] = pivot
        for i in range(n_rows):
            if i != r and c in rows[i]:
                factor = rows[i][c]
                acc = dict(rows[i])
                for k, y in pivot.items():
                    acc[k] = acc[k] - factor * y if k in acc else -factor * y
                rows[i] = _canonical(acc, p)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def _transpose(rows, width: int) -> list[Row]:
    cols: list[Row] = [{} for _ in range(width)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    return cols


def rank(m: LinMap) -> int:
    _, pivots = _rref(list(m._rows), m.field.characteristic)
    return len(pivots)


@dataclass(frozen=True)
class Splitting:
    """A factorization e = injection @ projection with projection @ injection = id."""

    mid: ObjectShape
    injection: LinMap
    projection: LinMap


def split_idempotent(e: LinMap) -> Splitting:
    """Split an idempotent through its image.

    The injection's columns are the reduced column echelon basis of the
    column space of e (leftmost pivots, leading entries 1); the projection
    is the unique left inverse with injection @ projection = e.
    """
    if e.source.total != e.target.total:
        raise ShapeMismatchError(f"idempotent must be square, got {e.source} -> {e.target}")
    square = e @ e
    diff = first_difference(square, e)
    if diff is not None:
        raise NotIdempotentError(
            f"map is not idempotent: e@e and e differ on basis vector "
            f"{e.source.unflatten(diff.col)} at output {e.target.unflatten(diff.row)} "
            f"({diff.left} vs {diff.right})")
    # reduced column echelon of e = transposed rref of e^T
    n = e.target.total
    reduced, pivot_rows = _rref(_transpose(e._rows, n), e.field.characteristic)
    r = len(pivot_rows)
    if r == 0:
        raise NotIdempotentError("cannot split the zero idempotent: the image is the zero space")
    mid = ObjectShape((r,))
    injection = LinMap._of(e.field, mid, e.target, _transpose(reduced[:r], n))
    projection = LinMap._of(e.field, e.source, mid, [e._rows[pr] for pr in pivot_rows])
    return Splitting(mid, injection, projection)
