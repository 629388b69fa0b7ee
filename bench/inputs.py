"""Seeded inputs for the benchmark workloads, written as .wx structure files.

Set-up step of a benchmark run:

    python3 bench/inputs.py --workload hopf-cyclic --seed 1 --out DIR

imports ``wcpx.cli`` in this fresh interpreter (the import a user of the
CLI pays on every call), then writes the run's inputs and ``DIR/plan.json``,
the ordered list of jobs the worker executes.  A job is one CLI command on
one input; ``plan.json`` also states what the outcome checker expects of it.

The generators use plain integers and fractions, never wcpx itself, so the
inputs do not depend on the code being measured.  Every scaled input is a
paper construction under a seeded change of basis: a basis permutation for
the Q families, a dense invertible basis change for the F_p family.  A
change of basis moves no check verdict and no closed-form fact, so each job
must pass every check and report the facts stated in its plan entry.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Family sizes.  They fix what a job costs, so they are constants: a job of
# one workload does the same work on every seed and every commit.
CYCLIC_N = 7                     # hopf-cyclic: C_7 over Q, braiding 7^4 x 7^4
DENSE_N, DENSE_P = 5, 101        # hopf-dense-fp: C_5 over F_101
DIHEDRAL_N = 6                   # crossed-pipelines: C_2 acting on C_6 (D_6)
PARTIAL_N, PARTIAL_M = 4, 4      # crossed-pipelines: C_4 acting partially on k^4

# Number of distinct generated inputs per run; jobs cycle through them.  At
# this commit no run gets through the pool, so no input is seen twice.
POOL_JOBS = 128

# Jobs of one workload come in units.  A run measures whole units, so that
# crossed-pipelines always runs its four commands equally often and
# fixtures-cli always runs whole passes over the 64 invocations.  A unit is
# also the timing sample of ``unit_s.*``: the crossed-pipelines commands cost
# about 0.2, 0.3, 1.3 and 1.3 s, so a median over single jobs would fall in
# the gap between the two pairs.
UNIT_JOBS = {"hopf-cyclic": 1, "hopf-dense-fp": 1, "crossed-pipelines": 4,
             "fixtures-cli": 64}

FIXTURE_COMMANDS = ("check-structure", "wcp-check", "wcp-build", "partial-check",
                    "partial-build", "unified-check", "unified-build",
                    "equivalence-suite")

WORKLOADS = tuple(UNIT_JOBS)


class GeneratorError(AssertionError):
    """A generated input breaks a fact its construction guarantees."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GeneratorError(message)


# ---------------------------------------------------------------------------
# sparse maps on tensor factors
#
# A map is a dict {(target multi-index, source multi-index): scalar}; the
# factor dimensions travel alongside as two tuples.

def _flat(multi: tuple[int, ...], dims: tuple[int, ...]) -> int:
    flat = 0
    for i, d in zip(multi, dims):
        flat = flat * d + i
    return flat


def _unflat(flat: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    multi = []
    for d in reversed(dims):
        multi.append(flat % d)
        flat //= d
    return tuple(reversed(multi))


def _relabel(entries: dict, perms: tuple[tuple[list[int], ...], tuple[list[int], ...]]) -> dict:
    """Move every basis index through its factor's permutation."""
    tperms, sperms = perms
    return {(tuple(p[i] for p, i in zip(tperms, t)), tuple(p[i] for p, i in zip(sperms, s))): v
            for (t, s), v in entries.items()}


def _morphism(name: str, src: tuple[int, ...], tgt: tuple[int, ...], entries: dict) -> list[str]:
    shape = lambda dims: "⊗".join(str(d) for d in dims) or "K"
    columns: dict[int, list[tuple[int, object]]] = {}
    for (t, s), v in entries.items():
        if v:
            columns.setdefault(_flat(s, src), []).append((_flat(t, tgt), v))
    lines = [f"morphism {name} : {shape(src)} -> {shape(tgt)}"]
    for col in sorted(columns):
        cells = " ".join(f"{r + 1}={v}" for r, v in sorted(columns[col]))
        lines.append(f"e {col + 1} : {cells}")
    return lines + [""]


def _structure(kind: str, name: str, dim: int, maps: dict[str, dict]) -> list[str]:
    """A structure block; ``maps`` holds unit/mul/counit/comul/antipode entries."""
    lines = [f"{kind} {name} dim {dim}"]
    if "unit" in maps:
        col = [0] * dim
        for (t, _), v in maps["unit"].items():
            col[t[0]] = v
        lines.append("unit: " + " ".join(str(v) for v in col))
    if "mul" in maps:
        cells: dict[tuple[int, int], list[tuple[int, object]]] = {}
        for (t, s), v in maps["mul"].items():
            if v:
                cells.setdefault(s, []).append((t[0], v))
        for (i, j) in sorted(cells):
            body = " ".join(f"{k + 1}={v}" for k, v in sorted(cells[(i, j)]))
            lines.append(f"mul {i + 1} {j + 1} : {body}")
    if "counit" in maps:
        row = [0] * dim
        for (_, s), v in maps["counit"].items():
            row[s[0]] = v
        lines.append("counit: " + " ".join(str(v) for v in row))
    if "comul" in maps:
        cells = {}
        for (t, s), v in maps["comul"].items():
            if v:
                cells.setdefault(s[0], []).append((t, v))
        for i in sorted(cells):
            body = " ".join(f"({j + 1},{k + 1})={v}" for (j, k), v in sorted(cells[i]))
            lines.append(f"comul {i + 1} : {body}")
    if "antipode" in maps:
        cells = {}
        for (t, s), v in maps["antipode"].items():
            if v:
                cells.setdefault(s[0], []).append((t[0], v))
        for i in sorted(cells):
            body = " ".join(f"{j + 1}={v}" for j, v in sorted(cells[i]))
            lines.append(f"antipode {i + 1} : {body}")
    return lines + [""]


def _cyclic_maps(n: int) -> dict[str, dict]:
    """Structure constants of the group algebra of C_n on the basis g^0..g^(n-1)."""
    one = Fraction(1)
    return {
        "unit": {((0,), ()): one},
        "mul": {(((i + j) % n,), (i, j)): one for i in range(n) for j in range(n)},
        "counit": {((), (i,)): one for i in range(n)},
        "comul": {((i, i), (i,)): one for i in range(n)},
        "antipode": {(((-i) % n,), (i,)): one for i in range(n)},
    }


_FACTORS = {"unit": ((1,), ()), "mul": ((1,), (1, 1)), "counit": ((), (1,)),
            "comul": ((1, 1), (1,)), "antipode": ((1,), (1,))}


def _relabel_structure(maps: dict[str, dict], perm: list[int]) -> dict[str, dict]:
    out = {}
    for key, entries in maps.items():
        t, s = _FACTORS[key]
        out[key] = _relabel(entries, (tuple(perm for _ in t), tuple(perm for _ in s)))
    return out


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# the three scaled families

def cyclic_hopf(rng: random.Random, n: int = CYCLIC_N) -> str:
    """The Hopf algebra of C_n over Q, basis relabelled by a seeded permutation."""
    maps = _relabel_structure(_cyclic_maps(n), _permutation(rng, n))
    lines = [f"# C_{n} group algebra, relabelled basis", "field Q", ""]
    return "\n".join(lines + _structure("hopf", "H", n, maps))


def _matmul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def _kron(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    return [[(x * y) % p for x in ra for y in rb] for ra in a for rb in b]


def _inverse_mod(m: list[list[int]], p: int) -> list[list[int]] | None:
    """Gauss-Jordan inverse over F_p; None when m is singular."""
    n = len(m)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] % p), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        rows[c] = [(x * inv) % p for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def _dense(entries: dict, tdims: tuple[int, ...], sdims: tuple[int, ...]) -> list[list[int]]:
    rows, cols = 1, 1
    for d in tdims:
        rows *= d
    for d in sdims:
        cols *= d
    m = [[0] * cols for _ in range(rows)]
    for (t, s), v in entries.items():
        m[_flat(t, tdims)][_flat(s, sdims)] = int(v)
    return m


def dense_fp_hopf(rng: random.Random, n: int = DENSE_N, p: int = DENSE_P) -> str:
    """The Hopf algebra of C_n over F_p transported by a dense basis change.

    The change-of-basis matrix P has every entry a nonzero residue, drawn
    until P is invertible; a structure map f: H^r -> H^s becomes
    (P^-1)^(x)s f P^(x)r.
    """
    while True:
        basis = [[rng.randrange(1, p) for _ in range(n)] for _ in range(n)]
        inverse = _inverse_mod(basis, p)
        if inverse is not None:
            break
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    _require(_matmul(basis, inverse, p) == identity, "basis change is not invertible")
    power = {0: [[1]], 1: basis, 2: _kron(basis, basis, p)}
    inv_power = {0: [[1]], 1: inverse, 2: _kron(inverse, inverse, p)}
    moved = {}
    for key, entries in _cyclic_maps(n).items():
        t, s = _FACTORS[key]
        tdims, sdims = tuple(n for _ in t), tuple(n for _ in s)
        m = _matmul(_matmul(inv_power[len(t)], _dense(entries, tdims, sdims), p),
                    power[len(s)], p)
        moved[key] = {(_unflat(r, tdims), _unflat(c, sdims)): v
                      for r, row in enumerate(m) for c, v in enumerate(row) if v}
    lines = [f"# C_{n} group algebra over F{p}, dense change of basis", f"field F{p}", ""]
    return "\n".join(lines + _structure("hopf", "H", n, moved))


def dihedral_datum(rng: random.Random, n: int = DIHEDRAL_N) -> tuple[str, dict]:
    """The extending datum of C_2 acting on C_n by inversion, bases relabelled.

    Its unified product is the group algebra of the dihedral group D_n:
    the induced projector is the identity and the product has dimension 2n.
    """
    one = Fraction(1)
    sa, sh = _permutation(rng, n), _permutation(rng, 2)
    a_maps = {k: v for k, v in _cyclic_maps(n).items() if k != "antipode"}
    h_maps = {k: v for k, v in _cyclic_maps(2).items() if k != "antipode"}
    act_a = {((i if h == 0 else (-i) % n,), (h, i)): one for h in range(2) for i in range(n)}
    act_h = {((h,), (h, i)): one for h in range(2) for i in range(n)}
    pair = {((0,), (h, l)): one for h in range(2) for l in range(2)}
    lines = [f"# C_2 acting on C_{n} by inversion (dihedral group D_{n}), relabelled",
             "field Q", ""]
    lines += _structure("bialgebra", "A", n, _relabel_structure(a_maps, sa))
    lines += _structure("prehopf", "H", 2, _relabel_structure(h_maps, sh))
    lines += _morphism("actA", (2, n), (n,), _relabel(act_a, ((sa,), (sh, sa))))
    lines += _morphism("actH", (2, n), (2,), _relabel(act_h, ((sh,), (sh, sa))))
    lines += _morphism("pair", (2, 2), (n,), _relabel(pair, ((sa,), (sh, sh))))
    lines.append("extending_datum dihedral : bialgebra=A prehopf=H "
                 "phi_h=actH phi_a=actA tau=pair")
    facts = {"dihedral.nabla_is_identity": True, "dihedral.product_dim": 2 * n}
    return "\n".join(lines) + "\n", facts


def partial_action(rng: random.Random, n: int = PARTIAL_N, m: int = PARTIAL_M) -> tuple[str, dict]:
    """C_n acting partially on k^m, bases relabelled.

    Every nontrivial group element fixes e_1 and kills the other e_j, and
    the cocycle is omega(h (x) l) = h.(l.1).  The projector image, hence
    the crossed product, has dimension m + n - 1: all of k^m (x) 1 plus
    the line k e_1 (x) g for each of the n - 1 nontrivial g.
    """
    one = Fraction(1)
    sh, sa = _permutation(rng, n), _permutation(rng, m)
    act = {((j,), (0, j)): one for j in range(m)}
    act.update({((0,), (h, 0)): one for h in range(1, n)})
    # l.1 is the unit sum e_1 + ... + e_m for l = 1 and e_1 otherwise, and
    # h.(l.1) keeps all of it only when h = 1 too.
    coc = {}
    for h in range(n):
        for l in range(n):
            for j in (range(m) if h == 0 and l == 0 else (0,)):
                coc[((j,), (h, l))] = one
    a_maps = {"unit": {((j,), ()): one for j in range(m)},
              "mul": {((j,), (j, j)): one for j in range(m)}}
    lines = [f"# C_{n} acting partially on k^{m}, relabelled", "field Q", ""]
    lines += _structure("hopf", "H", n, _relabel_structure(_cyclic_maps(n), sh))
    lines += _structure("algebra", "A", m, _relabel_structure(a_maps, sa))
    lines += _morphism("act", (n, m), (m,), _relabel(act, ((sa,), (sh, sa))))
    lines += _morphism("coc", (n, n), (m,), _relabel(coc, ((sa,), (sh, sh))))
    lines.append("partial_action partial : hopf=H algebra=A phi=act omega=coc")
    rank = m + n - 1
    _require(len(act) == rank, "the action moves m + n - 1 basis pairs")
    facts = {"partial.nabla_rank": rank, "partial.product_dim": rank}
    return "\n".join(lines) + "\n", facts


# ---------------------------------------------------------------------------
# plans

def _job(argv: list[str], expect: dict) -> dict:
    return {"argv": argv, "expect": expect}


def build_plan(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the inputs of one run under ``out`` and return its job list."""
    rng = random.Random(f"{workload}/{seed}")
    jobs: list[dict] = []

    def write(name: str, text: str) -> str:
        path = out / name
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(ROOT))

    if workload in ("hopf-cyclic", "hopf-dense-fp"):
        make = cyclic_hopf if workload == "hopf-cyclic" else dense_fp_hopf
        for i in range(POOL_JOBS):
            path = write(f"hopf{i:03d}.wx", make(rng))
            jobs.append(_job(["check-structure", path],
                             {"pin": f"{workload}:check-structure", "facts": {}}))
    elif workload == "crossed-pipelines":
        for r in range(POOL_JOBS // 4):
            for command in ("unified-build", "equivalence-suite"):
                text, facts = dihedral_datum(rng)
                path = write(f"dihedral{r:03d}-{command}.wx", text)
                jobs.append(_job([command, path], {
                    "pin": f"dihedral:{command}",
                    "facts": facts if command == "unified-build" else {}}))
            for command in ("partial-build", "equivalence-suite"):
                text, facts = partial_action(rng)
                path = write(f"partial{r:03d}-{command}.wx", text)
                jobs.append(_job([command, path], {
                    "pin": f"partial:{command}",
                    "facts": facts if command == "partial-build" else {}}))
    elif workload == "fixtures-cli":
        fixtures = sorted(p.name for p in (ROOT / "fixtures").glob("*.wx"))
        pairs = [(c, f) for c in FIXTURE_COMMANDS for f in fixtures]
        _require(len(pairs) == UNIT_JOBS[workload], f"expected 64 invocations, got {len(pairs)}")
        for _ in range(POOL_JOBS):
            rng.shuffle(pairs)
            jobs += [_job([c, f"fixtures/{f}"], {"pin": f"fixture:{c} {f}"}) for c, f in pairs]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    import wcpx.cli  # noqa: F401  -- the import is part of the measured set-up
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    plan = {"workload": args.workload, "seed": args.seed,
            "unit_jobs": UNIT_JOBS[args.workload],
            "jobs": build_plan(args.workload, args.seed, out)}
    (out / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
