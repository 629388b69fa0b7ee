"""Sweedler-formula evaluation for the elementwise product oracles.

An oracle states a product on basis elements in Sweedler notation: expand
the coproducts of some inputs, apply structure maps to basis tensors of the
pieces, and read the result off two of them.  ``sweedler`` evaluates such a
formula on every basis tuple of its inputs at once.

Each structure map is read once, through its public ``rows``, into a
column index {col: [(row, value)]}.  A term is an input column together
with the basis indices that later steps still read; terms that agree on
both are merged.  Values are the kernel's own (ints, F_p residues as ints,
``Fraction``s) and are multiplied as they are; each output entry is brought
to canonical form once, when the result map is built.  The oracles so share
nothing with the compose/tensor pipeline they are checked against except
the row-major flattening convention.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from operator import itemgetter

from .fields import FieldSpec
from .linmaps import LinMap, ObjectShape


def _column_index(m: LinMap, split: int) -> list[list[tuple[tuple[int, ...], object]]]:
    """The entries of m by column, each row as its target slots: (row,), or
    the pair divmod(row, split) for a coproduct."""
    cols: list[list[tuple[tuple[int, ...], object]]] = [[] for _ in range(m.source.total)]
    for r, row in enumerate(m.rows):
        slots = divmod(r, split) if split else (r,)
        for c, v in row.items():
            cols[c].append((slots, v))
    return cols


def sweedler(field: FieldSpec, inputs: tuple[tuple[str, int], ...],
             steps: tuple[tuple[LinMap, str, str], ...], outputs: str) -> LinMap:
    """The map from the tensor product of ``inputs`` (named basis slots with
    their dimensions) that sends each basis tuple to the tensor product of
    the two ``outputs`` slots after ``steps``.

    A step ``(m, "x y", "z")`` applies ``m`` to the basis tensor of slots x
    and y (any number, in order; none for a unit) and names the result z.
    A step with two target slots, ``(comul, "h", "h1 h2")``, is a coproduct:
    each piece has the dimension of its source.  Repeating it on the left
    piece gives the (Delta (x) id) Delta expansion.
    """
    dims, outputs = dict(inputs), outputs.split()
    live = [name for name, _ in inputs]
    # a term is (input column, *live slot values) -> coefficient
    terms: dict[tuple, object] = {
        (col, *multi): 1
        for col, multi in enumerate(product(*(range(d) for _, d in inputs)))}
    for k, (m, sources, targets) in enumerate(steps):
        sources, targets = sources.split(), targets.split()
        later = {s for _, src, _ in steps[k + 1:] for s in src.split()} | set(outputs)
        keep = [0] + [1 + i for i, s in enumerate(live) if s in later]
        pick = itemgetter(*keep) if len(keep) > 1 else lambda key: (key[0],)
        at = [(1 + live.index(s), dims[s]) for s in sources]
        split = dims[sources[0]] if len(targets) == 2 else 0
        for t in targets:
            dims[t] = split or m.target.total
        live = [live[i - 1] for i in keep[1:]] + targets
        cols = _column_index(m, split)
        acc: dict[tuple, object] = defaultdict(int)
        for key, coeff in terms.items():
            c = 0
            for i, d in at:
                c = c * d + key[i]
            base = pick(key)
            for slots, v in cols[c]:
                acc[base + slots] += coeff * v
        terms = acc
    left, right = (1 + live.index(s) for s in outputs)
    width = dims[outputs[1]]
    values: dict[tuple[int, int], object] = defaultdict(int)
    for key, coeff in terms.items():
        values[key[left] * width + key[right], key[0]] += coeff
    source = ObjectShape(tuple(d for _, d in inputs))
    target = ObjectShape(tuple(dims[s] for s in outputs))
    return LinMap.from_dict(field, source, target, values)
