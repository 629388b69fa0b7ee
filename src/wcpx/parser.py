"""Line-oriented structure files, parsed straight to the objects they declare.

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
A partial_action block parses to its ``TwistedPartialAction``, an
extending_datum block to its ``ExtendingDatum`` and a crossed_system block
to its ``CrossedSystem`` with the optional preunit.
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
    system: CrossedSystem
    preunit: LinMap | None = None


@dataclass
class StructureFile:
    field: FieldSpec
    algebras: dict[str, AlgebraData] = dc_field(default_factory=dict)
    coalgebras: dict[str, CoalgebraData] = dc_field(default_factory=dict)
    bialgebras: dict[str, BialgebraData] = dc_field(default_factory=dict)
    hopf_algebras: dict[str, HopfData] = dc_field(default_factory=dict)
    prehopf_objects: dict[str, PreHopfObject] = dc_field(default_factory=dict)
    morphisms: dict[str, LinMap] = dc_field(default_factory=dict)
    crossed_systems: dict[str, CrossedSystemDecl] = dc_field(default_factory=dict)
    partial_actions: dict[str, TwistedPartialAction] = dc_field(default_factory=dict)
    extending_data: dict[str, ExtendingDatum] = dc_field(default_factory=dict)
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
# declaration kind -> (its StructureFile table, the type built, its required keys
# in the order they are resolved and passed); crossed_system also takes preunit=
_DECLS = {
    "crossed_system": ("crossed_systems", CrossedSystem, ("algebra", "v", "psi", "sigma")),
    "partial_action": ("partial_actions", TwistedPartialAction,
                       ("hopf", "algebra", "phi", "omega")),
    "extending_datum": ("extending_data", ExtendingDatum,
                        ("bialgebra", "prehopf", "phi_h", "phi_a", "tau")),
}
# declaration key -> (the StructureFile table it names an entry of, what that is called)
_NAMED = {"algebra": ("algebras", "algebra"), "hopf": ("hopf_algebras", "hopf algebra"),
          "bialgebra": ("bialgebras", "bialgebra"),
          "prehopf": ("prehopf_objects", "prehopf object")}
_BODY_KEYS = {"unit", "counit", "mul", "comul", "antipode", "e"}


class _Block:
    def __init__(self, kind: str, name: str, dim: int) -> None:
        self.kind = kind
        self.name = name
        self.dim = dim
        self.unit: dict[tuple[int, int], object] = {}
        self.counit: dict[tuple[int, int], object] = {}
        self.mul: dict[tuple[int, int], object] = {}
        self.comul: dict[tuple[int, int], object] = {}
        self.antipode: dict[tuple[int, int], object] = {}


class _Parser:
    def __init__(self, text: str, default_field: FieldSpec | None) -> None:
        self.lines = text.splitlines()
        self.default_field = default_field or QQ
        self.field: FieldSpec | None = None
        self.block: _Block | None = None
        self.morphism: tuple[str, ObjectShape, ObjectShape, dict] | None = None
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
            name, src, tgt, values = self.morphism
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

    def parse_shape(self, shape_text: str, col: int, out: StructureFile,
                    lineno: int) -> ObjectShape:
        """The shape written in ``shape_text``, which starts at column ``col``."""
        col += len(shape_text) - len(shape_text.lstrip())
        shape_text = shape_text.strip()
        for sign in TENSOR_SIGNS[1:]:
            shape_text = shape_text.replace(sign, TENSOR_SIGNS[0])
        dims: list[int] = []
        for factor in shape_text.split(TENSOR_SIGNS[0]):
            piece = factor.strip()
            if not piece:
                raise self.error(lineno, 1, f"empty factor in shape {shape_text!r}")
            if piece.isdigit() and not int(piece):
                raise self.error(lineno, col + factor.index(piece),
                                 f"zero factor in shape {shape_text!r}")
            col += len(factor) + 1
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

    def lookup(self, key: str, text: str, out: StructureFile, lineno: int):
        """The object that ``key=text`` of a declaration names: the dimension
        for ``v``, a structure for a key in ``_NAMED``, else a morphism."""
        if key == "v":
            vdim = int(text) if text.isdigit() else out.dim_of(text) or 0
            if vdim < 1:
                raise self.error(lineno, self.col_of(lineno, text),
                                 f"cannot resolve object dimension {text!r}")
            return vdim
        table, what = _NAMED.get(key, ("morphisms", "morphism"))
        declared = getattr(out, table)
        if text not in declared:
            raise self.error(lineno, self.col_of(lineno, text), f"unknown {what} {text!r}")
        return declared[text]

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
            self.block = _Block(key, name, dim)
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
            start = len(head) + 2  # the column after ':'
            src = self.parse_shape(src_text, start, out, lineno)
            tgt = self.parse_shape(tgt_text, start + len(src_text) + 2, out, lineno)
            self.morphism = (name, src, tgt, {})
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
        """Build the declared object from its keys, resolved in the order of ``_DECLS``."""
        table, build, keys = _DECLS[kind]
        optional = ("preunit",) if kind == "crossed_system" else ()
        pairs = self.parse_pairs(tail, lineno, keys + optional)
        for required in keys:
            if required not in pairs:
                raise self.error(lineno, 1, f"{kind} needs {required}=")
        args = [self.lookup(key, pairs[key], out, lineno) for key in keys]
        preunit = (self.lookup("preunit", pairs["preunit"], out, lineno)
                   if pairs.get("preunit") else None)
        try:
            declared = build(*args)
        except ValueError as exc:
            raise self.error(lineno, 1, str(exc)) from exc
        if kind == "crossed_system":
            if preunit is not None and (preunit.source.total != 1 or preunit.target.total
                                        != declared.algebra.dim * declared.vdim):
                raise self.error(lineno, 1, "preunit must map K -> A⊗V")
            declared = CrossedSystemDecl(declared, preunit)
        getattr(out, table)[name] = declared
        out.order.append((kind, name))

    def parse_body(self, key: str, words: list[str], colon: str, tail: str,
                   lineno: int, out: StructureFile) -> None:
        if key == "e":
            if self.morphism is None:
                raise self.error(lineno, 1, "'e' line outside a morphism block")
            name, src, tgt, values = self.morphism
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
