"""Line-oriented structure files, parsed straight to the objects they declare.

A file declares one field, then named blocks.  Structure blocks give
sparse structure constants with 1-based basis indices:

    field Q
    algebra A dim 2
    unit: 1 1
    mul 1 1 : 1=1
    mul 2 2 : 2=1
    morphism act : H⊗A -> A          # ⊗ is the tensor sign; * is its ASCII form
    e 1 : 1=1
    partial_action P : hopf=H algebra=A phi=act omega=om

Block kinds: algebra, coalgebra, bialgebra, hopf, prehopf, morphism,
crossed_system, partial_action, extending_datum.  Every name must be
declared before it is referenced; omitted structure constants are zero.
In an entry line (``e``, ``mul``, ``comul``, ``antipode``) the indices
before ``:`` name a source basis element, and each ``key=scalar`` after it
a target basis element and its coefficient.  A partial_action block parses
to its ``TwistedPartialAction``, an extending_datum block to its
``ExtendingDatum`` and a crossed_system block to its ``CrossedSystem`` with
the optional preunit.
"""

from __future__ import annotations

import re
from collections import defaultdict
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


# structure kind -> its StructureFile table and the line keys its body may use
_STRUCTS = {
    "algebra": ("algebras", {"unit", "mul"}),
    "coalgebra": ("coalgebras", {"counit", "comul"}),
    "bialgebra": ("bialgebras", {"unit", "mul", "counit", "comul"}),
    "prehopf": ("prehopf_objects", {"unit", "mul", "counit", "comul"}),
    "hopf": ("hopf_algebras", {"unit", "mul", "counit", "comul", "antipode"}),
}
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
# entry line key -> (the word positions of its indices before ':', the number
# of indices in an entry's key, usage, entry form); two key indices are written (j,k)
_ENTRIES = {
    "e": ((1,), 1, "e <col> : <row>=<scalar> ...", "<row>=<scalar>"),
    "mul": ((1, 2), 1, "mul <i> <j> : <k>=<scalar> ...", "<k>=<scalar>"),
    "comul": ((1,), 2, "comul <i> : (<j>,<k>)=<scalar> ...", "(<j>,<k>)=<scalar>"),
    "antipode": ((1,), 1, "antipode <i> : <j>=<scalar> ...", "<j>=<scalar>"),
}
_BODY_KEYS = {"unit", "counit", *_ENTRIES}
HEAD, TAIL = 0, 1  # the parts of a line: before its first ':' and after it


class _Block:
    """The block being read, with the {(row, col): scalar} entries of each line key.

    The indices before ':' of an entry line range over ``src_dim`` and those in
    an entry's key over ``tgt_dim``: the dimension of a structure, or the
    source and target totals of a morphism's ``shapes``.  ``what`` names the
    two kinds of index in error messages.
    """

    def __init__(self, kind: str, name: str, src_dim: int, tgt_dim: int,
                 shapes: tuple[ObjectShape, ObjectShape] | None = None) -> None:
        self.kind = kind
        self.name = name
        self.src_dim = src_dim
        self.tgt_dim = tgt_dim
        self.shapes = shapes
        self.what = ("column", "row") if kind == "morphism" else ("basis", "basis")
        self.entries: defaultdict[str, dict[tuple[int, int], object]] = defaultdict(dict)


class _Parser:
    def __init__(self, text: str, default_field: FieldSpec | None) -> None:
        self.lines = text.splitlines()
        self.out = StructureFile(field=default_field or QQ)
        self.field_declared = False
        self.block: _Block | None = None
        self.lineno = 0  # the line being parsed

    # -- helpers ------------------------------------------------------------

    def at(self, message: str, part: int | None = None, index: int | None = None,
           offset: int = 0) -> ParseError:
        """A ParseError on the current line, ``offset`` characters into token
        ``index`` of ``part`` (HEAD or TAIL), or into the part itself when
        ``index`` is None; at column 1 without a part.  Only here are a
        line's token columns worked out."""
        col = 1
        if part is not None:
            line = self.lines[self.lineno - 1].split("#", 1)[0]
            head, _, tail = line.partition(":")
            col += offset + (len(head) + 1 if part == TAIL else 0)
            if index is not None:
                col += [m.start() for m in re.finditer(r"\S+", (head, tail)[part])][index]
        return ParseError(self.lineno, col, message)

    def read_index(self, text: str, dim: int, part: int, index: int, offset: int = 0) -> int:
        """The 0-based value of the 1-based index ``text`` of an entry line,
        found ``offset`` characters into token ``index`` of ``part``."""
        # ASCII digits only: int() would also take a sign, '_' and other scripts' digits
        if not (text.isascii() and text.isdecimal()):
            raise self.at(f"{self.block.what[part]} index {text!r} is not an integer",
                          part, index, offset)
        value = int(text)
        if not 1 <= value <= dim:
            raise self.at(f"{self.block.what[part]} index {value} out of range 1..{dim}",
                          part, index, offset)
        return value - 1

    # -- block closing --------------------------------------------------------

    def close_pending(self) -> None:
        """Build the pending block's maps, of its declared kind only: an algebra has no comul."""
        b, out = self.block, self.out
        if b is None:
            return
        self.block = None
        f, d, entries = out.field, b.src_dim, b.entries
        out.order.append((b.kind, b.name))
        if b.kind == "morphism":
            out.morphisms[b.name] = LinMap.from_dict(f, *b.shapes, entries["e"])
            return
        sh, sq = ObjectShape((d,)), ObjectShape((d, d))
        algebra = coalgebra = None
        if b.kind != "coalgebra":
            algebra = AlgebraData(f, d, LinMap.from_dict(f, UNIT_SHAPE, sh, entries["unit"]),
                                  LinMap.from_dict(f, sq, sh, entries["mul"]))
        if b.kind != "algebra":
            coalgebra = CoalgebraData(f, d, LinMap.from_dict(f, sh, UNIT_SHAPE, entries["counit"]),
                                      LinMap.from_dict(f, sh, sq, entries["comul"]))
        if b.kind in ("algebra", "coalgebra"):
            declared = algebra if b.kind == "algebra" else coalgebra
        elif b.kind == "bialgebra":
            declared = BialgebraData(algebra, coalgebra)
        elif b.kind == "prehopf":
            declared = PreHopfObject(f, d, algebra.unit, algebra.mul,
                                     coalgebra.counit, coalgebra.comul)
        else:
            antipode = LinMap.from_dict(f, sh, sh, entries["antipode"])
            declared = HopfData(BialgebraData(algebra, coalgebra), antipode)
        getattr(out, _STRUCTS[b.kind][0])[b.name] = declared

    # -- declarations -----------------------------------------------------------

    def parse_shape(self, text: str, start: int) -> ObjectShape:
        """The shape written in ``text``, which starts ``start`` characters into the tail."""
        start += len(text) - len(text.lstrip())
        shape_text = text.strip()
        for sign in TENSOR_SIGNS[1:]:
            shape_text = shape_text.replace(sign, TENSOR_SIGNS[0])
        dims: list[int] = []
        for factor in shape_text.split(TENSOR_SIGNS[0]):
            piece, factor_start = factor.strip(), start
            start += len(factor) + 1
            if not piece:
                raise self.at(f"empty factor in shape {shape_text!r}")
            if piece == "K":
                continue
            dim = int(piece) if piece.isdecimal() else self.out.dim_of(piece)
            if not dim:
                message = (f"zero factor in shape {shape_text!r}" if dim == 0
                           else f"unknown structure {piece!r} in shape")
                raise self.at(message, TAIL, None, factor_start + factor.index(piece))
            dims.append(dim)
        return ObjectShape(tuple(dims))

    def lookup(self, key: str, text: str, index: int):
        """The object that ``key=text``, tail token ``index``, names: the
        dimension for ``v``, a structure for a key in ``_NAMED``, else a morphism."""
        offset = len(key) + 1  # the value starts after 'key='
        if key == "v":
            vdim = int(text) if text.isdecimal() else self.out.dim_of(text) or 0
            if vdim < 1:
                raise self.at(f"cannot resolve object dimension {text!r}", TAIL, index, offset)
            return vdim
        table, what = _NAMED.get(key, ("morphisms", "morphism"))
        declared = getattr(self.out, table)
        if text not in declared:
            raise self.at(f"unknown {what} {text!r}", TAIL, index, offset)
        return declared[text]

    # -- main loop ---------------------------------------------------------------

    def parse(self) -> StructureFile:
        for self.lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if line.strip():
                self.parse_line(line)
        self.close_pending()
        return self.out

    def parse_line(self, line: str) -> None:
        head, colon, tail = line.partition(":")
        words = head.split()
        if not words:
            raise self.at("expected a directive before ':'")
        key = words[0]

        if key == "field":
            if self.block is not None or self.out.order:
                raise self.at("field must be declared before any block")
            if self.field_declared:
                raise self.at("field declared twice")
            if len(words) != 2:
                raise self.at("expected: field Q | field F<p>")
            try:
                self.out.field = parse_field(words[1])
            except FieldError as exc:
                raise self.at(str(exc), HEAD, 1) from exc
            self.field_declared = True
            return
        if key in _BODY_KEYS:
            self.parse_body(key, words, colon, tail)
            return
        if key not in _STRUCTS and key != "morphism" and key not in _DECLS:
            raise self.at(f"unknown directive {key!r}")

        self.close_pending()
        if key in _STRUCTS:
            if len(words) != 4 or words[2] != "dim" or not words[3].isdecimal() or colon:
                raise self.at(f"expected: {key} <name> dim <n>")
            dim = int(words[3])
            if dim < 1:
                raise self.at("dimension must be positive", HEAD, 3)
        elif len(words) != 2 or not colon:
            form = "<src> -> <tgt>" if key == "morphism" else "key=value ..."
            raise self.at(f"expected: {key} <name> : {form}")
        name = words[1]
        if name in self.out.names():
            raise self.at(f"name {name!r} already declared", HEAD, 1)
        if key in _STRUCTS:
            self.block = _Block(key, name, dim, dim)
        elif key == "morphism":
            src_text, arrow, tgt_text = tail.partition("->")
            if not arrow:
                raise self.at("morphism shape needs '->'")
            src = self.parse_shape(src_text, 0)
            tgt = self.parse_shape(tgt_text, len(src_text) + 2)
            self.block = _Block(key, name, src.total, tgt.total, (src, tgt))
        else:
            self.parse_decl(key, name, tail)

    def parse_decl(self, kind: str, name: str, tail: str) -> None:
        """Build the declared object from its keys, resolved in the order of ``_DECLS``."""
        table, build, keys = _DECLS[kind]
        keys_allowed = keys + (("preunit",) if kind == "crossed_system" else ())
        pairs: dict[str, tuple[str, int]] = {}  # key -> (its value, its tail token index)
        for index, token in enumerate(tail.split()):
            key, eq, value = token.partition("=")
            if not eq or key not in keys_allowed:
                raise self.at(f"expected one of {', '.join(k + '=' for k in keys_allowed)}; "
                              f"got {token!r}", TAIL, index)
            if key in pairs:
                raise self.at(f"duplicate key {key!r}", TAIL, index)
            pairs[key] = (value, index)
        for required in keys:
            if required not in pairs:
                raise self.at(f"{kind} needs {required}=")
        args = [self.lookup(key, *pairs[key]) for key in keys]
        text, index = pairs.get("preunit", ("", 0))
        preunit = self.lookup("preunit", text, index) if text else None
        try:
            declared = build(*args)
        except ValueError as exc:
            raise self.at(str(exc)) from exc
        if kind == "crossed_system":
            if preunit is not None and (preunit.source.total != 1 or preunit.target.total
                                        != declared.algebra.dim * declared.vdim):
                raise self.at("preunit must map K -> A⊗V")
            declared = CrossedSystemDecl(declared, preunit)
        getattr(self.out, table)[name] = declared
        self.out.order.append((kind, name))

    def parse_body(self, key: str, words: list[str], colon: str, tail: str) -> None:
        b = self.block
        if b is None or (b.kind == "morphism") != (key == "e"):
            raise self.at(f"{key!r} line outside a "
                          f"{'morphism' if key == 'e' else 'structure'} block")
        if key != "e":
            if key not in _STRUCTS[b.kind][1]:
                raise self.at(f"{key!r} not allowed in a {b.kind} block")
            if not colon:
                raise self.at(f"expected ':' in {key} line")
        entries, parse_scalar, tgt_dim = b.entries[key], self.out.field.parse, b.tgt_dim

        if key in ("unit", "counit"):
            if len(words) != 1:
                raise self.at(f"expected: {key}: <scalar list>")
            scalars = tail.split()
            if len(scalars) != b.src_dim:
                raise self.at(f"{key} needs {b.src_dim} scalars, got {len(scalars)}")
            try:
                for index, text in enumerate(scalars):
                    value = parse_scalar(text)
                    if value:
                        entries[(index, 0) if key == "unit" else (0, index)] = value
            except FieldError as exc:
                raise self.at(str(exc), TAIL, index) from exc
            return

        heads, n_tgt, usage, form = _ENTRIES[key]
        if len(words) != 1 + len(heads) or not colon:
            raise self.at(f"expected: {usage}")
        src = 0
        for i in heads:
            src = src * b.src_dim + self.read_index(words[i], b.src_dim, HEAD, i)
        try:
            for index, token in enumerate(tail.split()):
                key_text, eq, scalar_text = token.partition("=")
                if n_tgt == 1 and eq:
                    tgt = self.read_index(key_text, tgt_dim, TAIL, index)
                else:
                    inner = (key_text[1:-1].split(",")
                             if key_text[:1] == "(" and key_text[-1:] == ")" else ())
                    if not eq or len(inner) != n_tgt:
                        raise self.at(f"expected {form}, got {token!r}", TAIL, index)
                    tgt, offset = 0, 1  # (j,k): j starts after '('
                    for text in inner:
                        tgt = tgt * tgt_dim + self.read_index(text, tgt_dim, TAIL, index, offset)
                        offset += len(text) + 1
                entries[(tgt, src)] = parse_scalar(scalar_text)
        except FieldError as exc:
            raise self.at(str(exc), TAIL, index, len(key_text) + 1) from exc


def parse(text: str, default_field: FieldSpec | None = None) -> StructureFile:
    """Parse structure-file text; raises ParseError with line and column."""
    return _Parser(text, default_field).parse()
