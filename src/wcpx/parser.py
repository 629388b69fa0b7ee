"""Line-oriented structure files: parsing and canonical re-emission.

A file declares one field, then named blocks.  Structure blocks give
sparse structure constants with 1-based basis indices:

    field Q
    algebra A dim 2
    unit: 1 1
    mul 1 1 : 1=1
    mul 2 2 : 2=1
    morphism act : H(x)A -> A          # (x) is the tensor sign
    e 1 : 1=1
    partial_action P : hopf=H algebra=A phi=act omega=om

Block kinds: algebra, coalgebra, bialgebra, hopf, prehopf, morphism,
crossed_system, partial_action, extending_datum.  Every name must be
declared before it is referenced; omitted structure constants are zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import FieldError, FieldSpec, QQ, parse_field
from .linmaps import LinMap, ObjectShape, UNIT_SHAPE
from .structures import AlgebraData, BialgebraData, CoalgebraData, HopfData
from .partial_crossed import TwistedPartialAction
from .unified_product import ExtendingDatum, PreHopfObject
from .weak_crossed import CrossedSystem

TENSOR_SIGNS = ("⊗", "*")  # accepted separators in morphism shapes


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass(frozen=True)
class CrossedSystemDecl:
    algebra_name: str
    psi_name: str
    sigma_name: str
    system: CrossedSystem
    preunit_name: str | None = None
    preunit: LinMap | None = None


@dataclass(frozen=True)
class PartialActionDecl:
    hopf_name: str
    algebra_name: str
    phi_name: str
    omega_name: str
    action: TwistedPartialAction


@dataclass(frozen=True)
class ExtendingDatumDecl:
    bialgebra_name: str
    prehopf_name: str
    phi_h_name: str
    phi_a_name: str
    tau_name: str
    datum: ExtendingDatum


@dataclass
class StructureFile:
    field: FieldSpec
    field_declared: bool = dc_field(default=False, compare=False)
    algebras: dict[str, AlgebraData] = dc_field(default_factory=dict)
    coalgebras: dict[str, CoalgebraData] = dc_field(default_factory=dict)
    bialgebras: dict[str, BialgebraData] = dc_field(default_factory=dict)
    hopf_algebras: dict[str, HopfData] = dc_field(default_factory=dict)
    prehopf_objects: dict[str, PreHopfObject] = dc_field(default_factory=dict)
    morphisms: dict[str, LinMap] = dc_field(default_factory=dict)
    crossed_systems: dict[str, CrossedSystemDecl] = dc_field(default_factory=dict)
    partial_actions: dict[str, PartialActionDecl] = dc_field(default_factory=dict)
    extending_data: dict[str, ExtendingDatumDecl] = dc_field(default_factory=dict)
    order: list[tuple[str, str]] = dc_field(default_factory=list)

    def dim_of(self, name: str) -> int | None:
        for table in (self.algebras, self.coalgebras, self.bialgebras,
                      self.hopf_algebras, self.prehopf_objects):
            if name in table:
                return table[name].dim
        return None

    def names(self):
        return {name for _, name in self.order}


_STRUCT_KINDS = ("algebra", "coalgebra", "bialgebra", "hopf", "prehopf")
_BODY_KEYS = {"unit", "counit", "mul", "comul", "antipode", "e"}


class _Block:
    def __init__(self, kind: str, name: str, dim: int, line: int) -> None:
        self.kind = kind
        self.name = name
        self.dim = dim
        self.line = line
        self.unit: dict[tuple[int, int], object] = {}
        self.counit: dict[tuple[int, int], object] = {}
        self.mul: dict[tuple[int, int], object] = {}
        self.comul: dict[tuple[int, int], object] = {}
        self.antipode: dict[tuple[int, int], object] = {}
        self.seen: set[str] = set()


class _Parser:
    def __init__(self, text: str, default_field: FieldSpec | None) -> None:
        self.lines = text.splitlines()
        self.default_field = default_field or QQ
        self.result: StructureFile | None = None
        self.field: FieldSpec | None = None
        self.block: _Block | None = None
        self.morphism: tuple[str, ObjectShape, ObjectShape, dict, int] | None = None
        self.started = False  # any block seen yet

    # -- helpers ------------------------------------------------------------

    def error(self, lineno: int, col: int, message: str) -> ParseError:
        return ParseError(lineno, col, message)

    def col_of(self, lineno: int, token: str) -> int:
        pos = self.lines[lineno - 1].find(token)
        return pos + 1 if pos >= 0 else 1

    def current_field(self) -> FieldSpec:
        return self.field if self.field is not None else self.default_field

    def scalar(self, text: str, lineno: int) -> object:
        try:
            return self.current_field().parse(text)
        except FieldError as exc:
            raise self.error(lineno, self.col_of(lineno, text), str(exc)) from exc

    def index(self, text: str, dim: int, lineno: int, what: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise self.error(lineno, self.col_of(lineno, text),
                             f"{what} index {text!r} is not an integer") from exc
        if not 1 <= value <= dim:
            raise self.error(lineno, self.col_of(lineno, text),
                             f"{what} index {value} out of range 1..{dim}")
        return value - 1

    # -- block closing --------------------------------------------------------

    def close_pending(self, out: StructureFile) -> None:
        if self.block is not None:
            self.finish_block(self.block, out)
            self.block = None
        if self.morphism is not None:
            name, src, tgt, values, _ = self.morphism
            out.morphisms[name] = LinMap.from_dict(out.field, src, tgt, values)
            out.order.append(("morphism", name))
            self.morphism = None

    def finish_block(self, b: _Block, out: StructureFile) -> None:
        """Build the maps of the declared kind only: an algebra has no comul."""
        f, d = out.field, b.dim
        sh, sq = ObjectShape((d,)), ObjectShape((d, d))
        algebra = coalgebra = None
        if b.kind != "coalgebra":
            algebra = AlgebraData(f, d, LinMap.from_dict(f, UNIT_SHAPE, sh, b.unit),
                                  LinMap.from_dict(f, sq, sh, b.mul))
        if b.kind != "algebra":
            coalgebra = CoalgebraData(f, d, LinMap.from_dict(f, sh, UNIT_SHAPE, b.counit),
                                      LinMap.from_dict(f, sh, sq, b.comul))
        if b.kind == "algebra":
            out.algebras[b.name] = algebra
        elif b.kind == "coalgebra":
            out.coalgebras[b.name] = coalgebra
        elif b.kind == "bialgebra":
            out.bialgebras[b.name] = BialgebraData(algebra, coalgebra)
        elif b.kind == "prehopf":
            out.prehopf_objects[b.name] = PreHopfObject(f, d, algebra.unit, algebra.mul,
                                                        coalgebra.counit, coalgebra.comul)
        elif b.kind == "hopf":
            antipode = LinMap.from_dict(f, sh, sh, b.antipode)
            out.hopf_algebras[b.name] = HopfData(BialgebraData(algebra, coalgebra), antipode)
        out.order.append((b.kind, b.name))

    # -- declarations -----------------------------------------------------------

    def declare_name(self, name: str, out: StructureFile, lineno: int) -> None:
        if name in out.names() or (self.block and self.block.name == name) \
                or (self.morphism and self.morphism[0] == name):
            raise self.error(lineno, self.col_of(lineno, name), f"name {name!r} already declared")

    def parse_shape(self, shape_text: str, out: StructureFile, lineno: int) -> ObjectShape:
        shape_text = shape_text.strip()
        for sign in TENSOR_SIGNS[1:]:
            shape_text = shape_text.replace(sign, TENSOR_SIGNS[0])
        dims: list[int] = []
        for piece in shape_text.split(TENSOR_SIGNS[0]):
            piece = piece.strip()
            if not piece:
                raise self.error(lineno, 1, f"empty factor in shape {shape_text!r}")
            if piece == "K":
                continue
            if piece.isdigit():
                dims.append(int(piece))
                continue
            dim = out.dim_of(piece)
            if dim is None:
                raise self.error(lineno, self.col_of(lineno, piece),
                                 f"unknown structure {piece!r} in shape")
            dims.append(dim)
        return ObjectShape(tuple(dims))

    def parse_pairs(self, tail: str, lineno: int, keys: tuple[str, ...]) -> dict[str, str]:
        found: dict[str, str] = {}
        for token in tail.split():
            key, eq, value = token.partition("=")
            if not eq or key not in keys:
                raise self.error(lineno, self.col_of(lineno, token),
                                 f"expected one of {', '.join(k + '=' for k in keys)}; got {token!r}")
            if key in found:
                raise self.error(lineno, self.col_of(lineno, token), f"duplicate key {key!r}")
            found[key] = value
        return found

    def lookup_morphism(self, name: str, out: StructureFile, lineno: int) -> LinMap:
        if name not in out.morphisms:
            raise self.error(lineno, self.col_of(lineno, name), f"unknown morphism {name!r}")
        return out.morphisms[name]

    # -- main loop ---------------------------------------------------------------

    def parse(self) -> StructureFile:
        out = StructureFile(field=self.default_field)
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            self.parse_line(line, lineno, out)
        self.close_pending(out)
        return out

    def parse_line(self, line: str, lineno: int, out: StructureFile) -> None:
        head, colon, tail = line.partition(":")
        words = head.split()
        key = words[0]

        if key == "field":
            if self.started:
                raise self.error(lineno, 1, "field must be declared before any block")
            if self.field is not None:
                raise self.error(lineno, 1, "field declared twice")
            if len(words) != 2:
                raise self.error(lineno, 1, "expected: field Q | field F<p>")
            try:
                self.field = parse_field(words[1])
            except FieldError as exc:
                raise self.error(lineno, self.col_of(lineno, words[1]), str(exc)) from exc
            out.field = self.field
            out.field_declared = True
            return

        if key in _STRUCT_KINDS:
            self.started = True
            self.close_pending(out)
            if len(words) != 4 or words[2] != "dim" or not words[3].isdigit() or colon:
                raise self.error(lineno, 1, f"expected: {key} <name> dim <n>")
            name, dim = words[1], int(words[3])
            if dim < 1:
                raise self.error(lineno, self.col_of(lineno, words[3]),
                                 "dimension must be positive")
            self.declare_name(name, out, lineno)
            self.block = _Block(key, name, dim, lineno)
            return

        if key == "morphism":
            self.started = True
            self.close_pending(out)
            if len(words) != 2 or not colon:
                raise self.error(lineno, 1, "expected: morphism <name> : <src> -> <tgt>")
            name = words[1]
            self.declare_name(name, out, lineno)
            src_text, arrow, tgt_text = tail.partition("->")
            if not arrow:
                raise self.error(lineno, 1, "morphism shape needs '->'")
            src = self.parse_shape(src_text, out, lineno)
            tgt = self.parse_shape(tgt_text, out, lineno)
            self.morphism = (name, src, tgt, {}, lineno)
            return

        if key in ("crossed_system", "partial_action", "extending_datum"):
            self.started = True
            self.close_pending(out)
            if len(words) != 2 or not colon:
                raise self.error(lineno, 1, f"expected: {key} <name> : key=value ...")
            name = words[1]
            self.declare_name(name, out, lineno)
            self.parse_decl(key, name, tail, lineno, out)
            return

        if key in _BODY_KEYS:
            self.parse_body(key, words, colon, tail, lineno, out)
            return

        raise self.error(lineno, 1, f"unknown directive {key!r}")

    def parse_decl(self, kind: str, name: str, tail: str, lineno: int,
                   out: StructureFile) -> None:
        if kind == "crossed_system":
            pairs = self.parse_pairs(tail, lineno, ("algebra", "v", "psi", "sigma", "preunit"))
            for required in ("algebra", "v", "psi", "sigma"):
                if required not in pairs:
                    raise self.error(lineno, 1, f"crossed_system needs {required}=")
            alg_name = pairs["algebra"]
            if alg_name not in out.algebras:
                raise self.error(lineno, self.col_of(lineno, alg_name),
                                 f"unknown algebra {alg_name!r}")
            v_spec = pairs["v"]
            vdim = int(v_spec) if v_spec.isdigit() else out.dim_of(v_spec) or 0
            if vdim < 1:
                raise self.error(lineno, self.col_of(lineno, v_spec),
                                 f"cannot resolve object dimension {v_spec!r}")
            psi = self.lookup_morphism(pairs["psi"], out, lineno)
            sigma = self.lookup_morphism(pairs["sigma"], out, lineno)
            preunit_name = pairs.get("preunit")
            preunit = (self.lookup_morphism(preunit_name, out, lineno)
                       if preunit_name else None)
            alg = out.algebras[alg_name]
            try:
                system = CrossedSystem(alg, vdim, psi, sigma)
            except ValueError as exc:
                raise self.error(lineno, 1, str(exc)) from exc
            if preunit is not None and (preunit.source.total != 1
                                        or preunit.target.total != alg.dim * vdim):
                raise self.error(lineno, 1, "preunit must map K -> A⊗V")
            out.crossed_systems[name] = CrossedSystemDecl(
                alg_name, pairs["psi"], pairs["sigma"], system, preunit_name, preunit)
            out.order.append(("crossed_system", name))
            return

        if kind == "partial_action":
            pairs = self.parse_pairs(tail, lineno, ("hopf", "algebra", "phi", "omega"))
            for required in ("hopf", "algebra", "phi", "omega"):
                if required not in pairs:
                    raise self.error(lineno, 1, f"partial_action needs {required}=")
            if pairs["hopf"] not in out.hopf_algebras:
                raise self.error(lineno, self.col_of(lineno, pairs["hopf"]),
                                 f"unknown hopf algebra {pairs['hopf']!r}")
            if pairs["algebra"] not in out.algebras:
                raise self.error(lineno, self.col_of(lineno, pairs["algebra"]),
                                 f"unknown algebra {pairs['algebra']!r}")
            phi = self.lookup_morphism(pairs["phi"], out, lineno)
            omega = self.lookup_morphism(pairs["omega"], out, lineno)
            try:
                action = TwistedPartialAction(out.hopf_algebras[pairs["hopf"]],
                                              out.algebras[pairs["algebra"]], phi, omega)
            except ValueError as exc:
                raise self.error(lineno, 1, str(exc)) from exc
            out.partial_actions[name] = PartialActionDecl(
                pairs["hopf"], pairs["algebra"], pairs["phi"], pairs["omega"], action)
            out.order.append(("partial_action", name))
            return

        pairs = self.parse_pairs(tail, lineno,
                                 ("bialgebra", "prehopf", "phi_h", "phi_a", "tau"))
        for required in ("bialgebra", "prehopf", "phi_h", "phi_a", "tau"):
            if required not in pairs:
                raise self.error(lineno, 1, f"extending_datum needs {required}=")
        if pairs["bialgebra"] not in out.bialgebras:
            raise self.error(lineno, self.col_of(lineno, pairs["bialgebra"]),
                             f"unknown bialgebra {pairs['bialgebra']!r}")
        if pairs["prehopf"] not in out.prehopf_objects:
            raise self.error(lineno, self.col_of(lineno, pairs["prehopf"]),
                             f"unknown prehopf object {pairs['prehopf']!r}")
        phi_h = self.lookup_morphism(pairs["phi_h"], out, lineno)
        phi_a = self.lookup_morphism(pairs["phi_a"], out, lineno)
        tau = self.lookup_morphism(pairs["tau"], out, lineno)
        try:
            datum = ExtendingDatum(out.bialgebras[pairs["bialgebra"]],
                                   out.prehopf_objects[pairs["prehopf"]],
                                   phi_h, phi_a, tau)
        except ValueError as exc:
            raise self.error(lineno, 1, str(exc)) from exc
        out.extending_data[name] = ExtendingDatumDecl(
            pairs["bialgebra"], pairs["prehopf"], pairs["phi_h"], pairs["phi_a"],
            pairs["tau"], datum)
        out.order.append(("extending_datum", name))

    def parse_body(self, key: str, words: list[str], colon: str, tail: str,
                   lineno: int, out: StructureFile) -> None:
        if key == "e":
            if self.morphism is None:
                raise self.error(lineno, 1, "'e' line outside a morphism block")
            name, src, tgt, values, _ = self.morphism
            if len(words) != 2 or not colon:
                raise self.error(lineno, 1, "expected: e <col> : <row>=<scalar> ...")
            col = self.index(words[1], src.total, lineno, "column")
            for token in tail.split():
                row_text, eq, scalar_text = token.partition("=")
                if not eq:
                    raise self.error(lineno, self.col_of(lineno, token),
                                     f"expected <row>=<scalar>, got {token!r}")
                row = self.index(row_text, tgt.total, lineno, "row")
                values[(row, col)] = self.scalar(scalar_text, lineno)
            return

        if self.block is None:
            raise self.error(lineno, 1, f"{key!r} line outside a structure block")
        b = self.block
        allowed = {
            "algebra": {"unit", "mul"},
            "coalgebra": {"counit", "comul"},
            "bialgebra": {"unit", "mul", "counit", "comul"},
            "prehopf": {"unit", "mul", "counit", "comul"},
            "hopf": {"unit", "mul", "counit", "comul", "antipode"},
        }[b.kind]
        if key not in allowed:
            raise self.error(lineno, 1, f"{key!r} not allowed in a {b.kind} block")
        if not colon:
            raise self.error(lineno, 1, f"expected ':' in {key} line")

        if key in ("unit", "counit"):
            if len(words) != 1:
                raise self.error(lineno, 1, f"expected: {key}: <scalar list>")
            scalars = tail.split()
            if len(scalars) != b.dim:
                raise self.error(lineno, 1,
                                 f"{key} needs {b.dim} scalars, got {len(scalars)}")
            table = b.unit if key == "unit" else b.counit
            for i, text in enumerate(scalars):
                value = self.scalar(text, lineno)
                if value:
                    if key == "unit":
                        table[(i, 0)] = value
                    else:
                        table[(0, i)] = value
            b.seen.add(key)
            return

        if key == "mul":
            if len(words) != 3:
                raise self.error(lineno, 1, "expected: mul <i> <j> : <k>=<scalar> ...")
            i = self.index(words[1], b.dim, lineno, "basis")
            j = self.index(words[2], b.dim, lineno, "basis")
            for token in tail.split():
                k_text, eq, scalar_text = token.partition("=")
                if not eq:
                    raise self.error(lineno, self.col_of(lineno, token),
                                     f"expected <k>=<scalar>, got {token!r}")
                k = self.index(k_text, b.dim, lineno, "basis")
                b.mul[(k, i * b.dim + j)] = self.scalar(scalar_text, lineno)
            return

        if key == "comul":
            if len(words) != 2:
                raise self.error(lineno, 1, "expected: comul <i> : (<j>,<k>)=<scalar> ...")
            i = self.index(words[1], b.dim, lineno, "basis")
            for token in tail.split():
                pair_text, eq, scalar_text = token.partition("=")
                if not eq or not pair_text.startswith("(") or not pair_text.endswith(")"):
                    raise self.error(lineno, self.col_of(lineno, token),
                                     f"expected (<j>,<k>)=<scalar>, got {token!r}")
                inner = pair_text[1:-1].split(",")
                if len(inner) != 2:
                    raise self.error(lineno, self.col_of(lineno, token),
                                     f"expected (<j>,<k>)=<scalar>, got {token!r}")
                j = self.index(inner[0], b.dim, lineno, "basis")
                k = self.index(inner[1], b.dim, lineno, "basis")
                b.comul[(j * b.dim + k, i)] = self.scalar(scalar_text, lineno)
            return

        # antipode
        if len(words) != 2:
            raise self.error(lineno, 1, "expected: antipode <i> : <j>=<scalar> ...")
        i = self.index(words[1], b.dim, lineno, "basis")
        for token in tail.split():
            j_text, eq, scalar_text = token.partition("=")
            if not eq:
                raise self.error(lineno, self.col_of(lineno, token),
                                 f"expected <j>=<scalar>, got {token!r}")
            j = self.index(j_text, b.dim, lineno, "basis")
            b.antipode[(j, i)] = self.scalar(scalar_text, lineno)


def parse(text: str, default_field: FieldSpec | None = None) -> StructureFile:
    """Parse structure-file text; raises ParseError with line and column."""
    return _Parser(text, default_field).parse()


# ---------------------------------------------------------------------------
# canonical emission

def _fmt(field: FieldSpec, value) -> str:
    return field.format(value)


def _emit_columns(lines: list[str], prefix_for, m: LinMap, field: FieldSpec) -> None:
    for col in range(m.source.total):
        assignments = [f"{r + 1}={_fmt(field, v)}" for r, v in m.column_entries(col).items()]
        if assignments:
            lines.append(f"{prefix_for(col)} : {' '.join(assignments)}")


def _emit_structure(lines: list[str], kind: str, name: str, data, field: FieldSpec) -> None:
    dim = data.dim
    lines.append(f"{kind} {name} dim {dim}")
    if kind in ("algebra", "bialgebra", "hopf", "prehopf"):
        unit_col = [_fmt(field, v) for v in data.unit.column(0)]
        lines.append(f"unit: {' '.join(unit_col)}")
        _emit_columns(lines,
                      lambda col: f"mul {col // dim + 1} {col % dim + 1}",
                      data.mul, field)
    if kind in ("coalgebra", "bialgebra", "hopf", "prehopf"):
        counit_row = [_fmt(field, data.counit.at(0, i)) for i in range(dim)]
        lines.append(f"counit: {' '.join(counit_row)}")
        comul = data.comul
        for col in range(dim):
            assignments = [f"({r // dim + 1},{r % dim + 1})={_fmt(field, v)}"
                           for r, v in comul.column_entries(col).items()]
            if assignments:
                lines.append(f"comul {col + 1} : {' '.join(assignments)}")
    if kind == "hopf":
        _emit_columns(lines, lambda col: f"antipode {col + 1}", data.antipode, field)
    lines.append("")


def emit_structure_file(sf: StructureFile) -> str:
    """Canonical text for a parsed file; parsing it back gives equal data."""
    field = sf.field
    lines = [f"field {field}", ""]
    for kind, name in sf.order:
        if kind in _STRUCT_KINDS:
            data = {"algebra": sf.algebras, "coalgebra": sf.coalgebras,
                    "bialgebra": sf.bialgebras, "hopf": sf.hopf_algebras,
                    "prehopf": sf.prehopf_objects}[kind][name]
            _emit_structure(lines, kind, name, data, field)
        elif kind == "morphism":
            m = sf.morphisms[name]
            src = "⊗".join(str(d) for d in m.source.factors) or "K"
            tgt = "⊗".join(str(d) for d in m.target.factors) or "K"
            lines.append(f"morphism {name} : {src} -> {tgt}")
            _emit_columns(lines, lambda col: f"e {col + 1}", m, field)
            lines.append("")
        elif kind == "crossed_system":
            decl = sf.crossed_systems[name]
            extra = f" preunit={decl.preunit_name}" if decl.preunit_name else ""
            lines.append(f"crossed_system {name} : algebra={decl.algebra_name} "
                         f"v={decl.system.vdim} psi={decl.psi_name} sigma={decl.sigma_name}{extra}")
            lines.append("")
        elif kind == "partial_action":
            decl = sf.partial_actions[name]
            lines.append(f"partial_action {name} : hopf={decl.hopf_name} "
                         f"algebra={decl.algebra_name} phi={decl.phi_name} "
                         f"omega={decl.omega_name}")
            lines.append("")
        elif kind == "extending_datum":
            decl = sf.extending_data[name]
            lines.append(f"extending_datum {name} : bialgebra={decl.bialgebra_name} "
                         f"prehopf={decl.prehopf_name} phi_h={decl.phi_h_name} "
                         f"phi_a={decl.phi_a_name} tau={decl.tau_name}")
            lines.append("")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"
