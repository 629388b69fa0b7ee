"""Sparse element calculus for the elementwise product oracles.

Elements are {flat basis index: coefficient} dicts and structure maps are
read entry by entry, so the oracles built here share nothing with the
compose/tensor pipeline they are checked against except the row-major
flattening convention.
"""

from __future__ import annotations

from .linmaps import LinMap

Vec = dict[int, object]


def basis_vec(i: int, field) -> Vec:
    return {i: field.one()}


def add_into(acc: Vec, vec: Vec, factor=None) -> None:
    for k, v in vec.items():
        w = v if factor is None else factor * v
        if not w:
            continue
        if k in acc:
            s = acc[k] + w
            if s:
                acc[k] = s
            else:
                del acc[k]
        else:
            acc[k] = w


def apply_map(m: LinMap, vec: Vec) -> Vec:
    out: Vec = {}
    for col, coeff in vec.items():
        if not coeff:
            continue
        for row, entry in m.column_entries(col).items():
            add_into(out, {row: entry * coeff})
    return out


def apply_to_pair(m: LinMap, left: Vec, right: Vec) -> Vec:
    """Apply a map on a two-factor source to a decomposable element."""
    factors = m.source.factors
    if len(factors) != 2:
        raise ValueError(f"expected a two-factor source, got {m.source}")
    rdim = factors[1]
    out: Vec = {}
    for i, a in left.items():
        for j, b in right.items():
            add_into(out, apply_map(m, {i * rdim + j: a * b}))
    return out


def expand_pairs(comul: LinMap, i: int) -> list[tuple[tuple[int, int], object]]:
    """The coproduct of basis element i as ((left, right), coefficient) terms."""
    n = comul.target.factors[1]
    return [((row // n, row % n), c) for row, c in comul.column_entries(i).items()]


def expand_triples(comul: LinMap, i: int) -> list[tuple[tuple[int, int, int], object]]:
    """The twice-iterated coproduct, expanding the leftmost slot."""
    terms = []
    for (j, k), c in expand_pairs(comul, i):
        for (j1, j2), c2 in expand_pairs(comul, j):
            terms.append(((j1, j2, k), c * c2))
    return terms
