"""Line-oriented text format for presentations.

Grammar (one declaration per line, `#` starts a comment):

    algebra NAME over (Q|Fp) window LO..HI [truncated]
    basis DEG: lbl[, lbl ...]
    unit lbl
    mul a b = <combination | 0>
    diff a = <combination | 0>

    module NAME over ALG side (left|right|bi) window LO..HI [truncated above|below|above below]
    basis DEG: ...
    act a m = <combination | 0>      # left action
    actr m a = <combination | 0>     # right action
    diff m = <combination | 0>

    automorphism NAME of ALG
    map lbl = <combination>

Combinations are sums `c1*lbl1 + c2*lbl2` with integer or rational
coefficients (`t`, `2*t`, `-1/2*t + u`); unspecified entries default to
zero.

The five table lines are stated once, in `_TABLE_LINES`: the objects
each belongs to, its usage, what its left-hand labels name, the table it
fills and the offset of its target degree from the sum of the left-hand
degrees.  `_Builder.table_line` checks every table line and
`_emit_tables` writes every table, both from that one table, so a new
kind of line is one entry.  A combination's labels lie in the target
degree.  A target above the window top is unrecorded rather than zero,
so writing one is an error, except a zero `diff`; an automorphism has no
window.  Parsing is exact and round-trips through :func:`emit_document`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from itertools import product
from operator import getitem

from .algebra import AlgebraAutomorphism, DGAlgebra
from .fields import QQ, GF, FieldMismatchError, FieldSpec
from .module import BI, DGModule, LEFT, RIGHT
from .windows import GradedWindow, Trust, WindowError


class ParseError(ValueError):
    def __init__(self, line_no: int, column: int, message: str):
        self.line_no = line_no
        self.column = column
        self.message = message
        super().__init__(f"line {line_no}, column {column}: {message}")


@dataclass
class Document:
    algebras: dict = dc_field(default_factory=dict)
    modules: dict = dc_field(default_factory=dict)
    automorphisms: dict = dc_field(default_factory=dict)

    def algebra(self, name: str | None = None) -> DGAlgebra:
        return _named(self.algebras, "algebra", name)

    def module(self, name: str | None = None) -> DGModule:
        return _named(self.modules, "module", name)


def _named(table: dict, kind: str, name: str | None):
    """The entry called name, or the only entry when name is None; a
    KeyError whose message names what is missing."""
    if name is None:
        if not table:
            raise KeyError(f"document holds no {kind}")
        if len(table) > 1:
            raise KeyError(f"document holds several {kind}s; name one")
        return next(iter(table.values()))
    if name not in table:
        raise KeyError(f"no {kind} named {name!r}")
    return table[name]


_LABEL = r"[A-Za-z_][A-Za-z0-9_'~|]*"
_label_re = re.compile(_LABEL)
_window_re = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _parse_window(tok: str, line_no: int) -> GradedWindow:
    m = _window_re.match(tok)
    if not m:
        raise ParseError(line_no, 0, f"bad window {tok!r} (expected LO..HI)")
    try:
        return GradedWindow(int(m.group(1)), int(m.group(2)))
    except WindowError as exc:
        raise ParseError(line_no, 0, str(exc)) from None


def _parse_field(tok: str, line_no: int) -> FieldSpec:
    if tok == "Q":
        return QQ
    m = re.match(r"^F(\d+)$", tok)
    if m:
        try:
            return GF(int(m.group(1)))
        except ValueError as exc:
            raise ParseError(line_no, 0, str(exc)) from None
    raise ParseError(line_no, 0, f"unknown field {tok!r} (expected Q or Fp)")

def parse_combination(text: str, field: FieldSpec, line_no: int = 0):
    """Parse `c1*lbl1 + c2*lbl2`-style combinations; `0` is the zero one."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    # split into (+|-) separated terms, honoring leading sign
    terms = re.split(r"\s*([+-])\s*", text)
    pending_sign = 1
    items = []
    for chunk in terms:
        if chunk == "+":
            continue
        if chunk == "-":
            pending_sign = -pending_sign
            continue
        if chunk == "":
            continue
        items.append((pending_sign, chunk))
        pending_sign = 1
    for sgn, term in items:
        if "*" in term:
            coeff_txt, _, lbl = term.partition("*")
            coeff_txt = coeff_txt.strip()
            lbl = lbl.strip()
        else:
            coeff_txt, lbl = "1", term.strip()
        if not _label_re.fullmatch(lbl):
            raise ParseError(line_no, text.find(term) + 1, f"bad label {lbl!r}")
        try:
            coeff = field.parse(coeff_txt)
        except (ValueError, FieldMismatchError):  # over F_p, a denominator p divides
            raise ParseError(line_no, text.find(term) + 1, f"bad coefficient {coeff_txt!r}") from None
        if sgn < 0:
            coeff = field.neg(coeff)
        if lbl in out:
            coeff = field.add(out[lbl], coeff)
        if field.is_zero(coeff):
            out.pop(lbl, None)
        else:
            out[lbl] = coeff
    return out


_ALG, _OWN = "algebra", "own"  # what a left-hand label names


@dataclass(frozen=True)
class _TableLine:
    objects: tuple  # the object kinds the line belongs to
    usage: str      # quoted in its error message
    labels: tuple   # per left-hand label: _ALG, or _OWN for the object's own
    table: str      # the object's attribute the line fills
    offset: int     # target degree minus the sum of the left-hand degrees


_MODULES = tuple(f"{side} module" for side in (LEFT, RIGHT, BI))

# in emission order
_TABLE_LINES = {
    "mul": _TableLine(("algebra",), "mul A B = COMBO", (_OWN, _OWN), "mul", 0),
    "act": _TableLine((f"{LEFT} module", f"{BI} module"), "act A M = COMBO", (_ALG, _OWN), "lact", 0),
    "actr": _TableLine((f"{RIGHT} module", f"{BI} module"), "actr M A = COMBO", (_OWN, _ALG), "ract", 0),
    "diff": _TableLine(("algebra",) + _MODULES, "diff X = COMBO", (_OWN,), "diff", 1),
    "map": _TableLine(("automorphism",), "map LBL = COMBO", (_ALG,), "images", 0),
}
_table_line_re = re.compile(rf"^({'|'.join(_TABLE_LINES)})\s+(.*?)=(.*)$")


class _Builder:
    """Accumulates the lines of one object until finalized.  ``kind`` is
    "algebra", "automorphism" or "<side> module"; an automorphism's own
    labels are its algebra's, and it has no window."""

    def __init__(self, kind, name, line_no, field, window, trust=None, algebra=None, side=None):
        self.kind, self.name, self.line_no = kind, name, line_no
        self.field, self.window, self.trust, self.algebra, self.side = field, window, trust, algebra, side
        self.basis: dict = {}
        self.unit = None
        self.tables = {spec.table: {} for spec in _TABLE_LINES.values()}
        self.deg: dict = algebra._deg if kind == "automorphism" else {}
        noun = {"algebra": "label", "automorphism": "algebra label"}.get(kind, "module label")
        self.names = {_OWN: (self.deg, noun)}
        if algebra is not None:
            self.names[_ALG] = (algebra._deg, "algebra label")

    def add_basis(self, degree, labels, line_no):
        if degree in self.basis:
            raise ParseError(line_no, 0, f"duplicate basis line for degree {degree}")
        for lbl in labels:
            if lbl in self.deg:
                raise ParseError(line_no, 0, f"duplicate label {lbl!r}")
            self.deg[lbl] = degree
        self.basis[degree] = tuple(labels)

    def require(self, lbl, line_no, names=_OWN):
        degrees, noun = self.names[names]
        if lbl not in degrees:
            raise ParseError(line_no, 0, f"unknown {noun} {lbl!r}")
        return degrees[lbl]

    def table_line(self, op, lhs, combo, line_no):
        """Check a table line against its `_TABLE_LINES` entry and record it."""
        spec = _TABLE_LINES[op]
        if self.kind not in spec.objects or len(lhs) != len(spec.labels):
            raise ParseError(line_no, 0, f"expected: {spec.usage} (in: {', '.join(spec.objects)})")
        target = spec.offset
        for lbl, names in zip(lhs, spec.labels):
            target += self.require(lbl, line_no, names)
        # a zero differential out of the top degree is the one line allowed above it
        if self.window is not None and target > self.window.hi and (combo or not spec.offset):
            raise ParseError(line_no, 0,
                             f"{op} target degree {target} above window top (unrecorded, not assignable)")
        for lbl in combo:
            if self.require(lbl, line_no) != target:
                raise ParseError(line_no, 0, f"degree mismatch: {lbl!r} is not in degree {target}")
        self.tables[spec.table][lhs[0] if len(lhs) == 1 else tuple(lhs)] = combo


def parse_document(text: str) -> Document:
    doc = Document()
    current: _Builder | None = None

    def finalize():
        nonlocal current
        if current is None:
            return
        b, t = current, current.tables
        if b.kind == "algebra":
            if b.unit is None:
                raise ParseError(b.line_no, 0, f"algebra {b.name!r} has no unit line")
            doc.algebras[b.name] = DGAlgebra(
                name=b.name, field=b.field, window=b.window, basis=b.basis,
                unit=b.unit, mul=t["mul"], diff=t["diff"], trust=b.trust,
            )
        elif b.kind == "automorphism":
            doc.automorphisms[b.name] = AlgebraAutomorphism(b.algebra, t["images"])
        else:
            doc.modules[b.name] = DGModule(
                name=b.name, algebra=b.algebra, side=b.side, window=b.window,
                basis=b.basis, lact=t["lact"], ract=t["ract"], diff=t["diff"], trust=b.trust,
            )
        current = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]

        if head == "algebra":
            finalize()
            if len(toks) < 6 or toks[2] != "over" or toks[4] != "window":
                raise ParseError(line_no, 0, "expected: algebra NAME over FIELD window LO..HI [truncated]")
            name = toks[1]
            if name in doc.algebras:
                raise ParseError(line_no, 0, f"duplicate algebra {name!r}")
            field = _parse_field(toks[3], line_no)
            window = _parse_window(toks[5], line_no)
            truncated = len(toks) > 6 and toks[6] == "truncated"
            if len(toks) > (7 if truncated else 6):
                raise ParseError(line_no, 0, "trailing tokens on algebra line")
            trust = Trust(None, window.hi) if truncated else Trust.everywhere()
            current = _Builder("algebra", name, line_no, field, window, trust)
            continue

        if head == "module":
            finalize()
            if len(toks) < 8 or toks[2] != "over" or toks[4] != "side" or toks[6] != "window":
                raise ParseError(line_no, 0, "expected: module NAME over ALG side SIDE window LO..HI")
            name = toks[1]
            if name in doc.modules:
                raise ParseError(line_no, 0, f"duplicate module {name!r}")
            if toks[3] not in doc.algebras:
                raise ParseError(line_no, 0, f"unknown algebra {toks[3]!r}")
            side = toks[5]
            if side not in (LEFT, RIGHT, BI):
                raise ParseError(line_no, 0, f"bad side {side!r}")
            window = _parse_window(toks[7], line_no)
            rest = toks[8:]
            if rest and (rest[0] != "truncated" or not rest[1:] or not set(rest[1:]) <= {"above", "below"}):
                raise ParseError(line_no, 0, "expected: truncated above|below")
            trust = Trust(window.lo if "below" in rest else None, window.hi if "above" in rest else None)
            A = doc.algebras[toks[3]]
            current = _Builder(f"{side} module", name, line_no, A.field, window, trust, A, side)
            continue

        if head == "automorphism":
            finalize()
            if len(toks) != 4 or toks[2] != "of":
                raise ParseError(line_no, 0, "expected: automorphism NAME of ALG")
            if toks[3] not in doc.algebras:
                raise ParseError(line_no, 0, f"unknown algebra {toks[3]!r}")
            A = doc.algebras[toks[3]]
            current = _Builder("automorphism", toks[1], line_no, A.field, None, algebra=A)
            continue

        if current is None:
            raise ParseError(line_no, 0, f"declaration line outside any object: {line!r}")

        if head == "basis":
            if current.kind == "automorphism":
                raise ParseError(line_no, 0, "automorphisms have no basis lines")
            m = re.match(r"^basis\s+(-?\d+)\s*:\s*(.+)$", line)
            if not m:
                raise ParseError(line_no, 0, "expected: basis DEG: lbl[, lbl ...]")
            degree = int(m.group(1))
            labels = [t.strip() for t in m.group(2).split(",")]
            if any(not _label_re.fullmatch(t) for t in labels):
                raise ParseError(line_no, 0, "bad label in basis list")
            if not current.window.contains(degree):
                raise ParseError(line_no, 0, f"basis degree {degree} outside window {current.window}")
            current.add_basis(degree, labels, line_no)
            continue

        if head == "unit":
            if current.kind != "algebra" or len(toks) != 2:
                raise ParseError(line_no, 0, "unit lines belong to algebras: unit LBL")
            current.require(toks[1], line_no)
            current.unit = toks[1]
            continue

        m = _table_line_re.match(line)
        if not m:
            raise ParseError(line_no, 0, f"unrecognized line {line!r}")
        combo = parse_combination(m.group(3), current.field, line_no)
        current.table_line(m.group(1), m.group(2).split(), combo, line_no)

    finalize()
    return doc


# -- emission -----------------------------------------------------------------


def _emit_combo(field: FieldSpec, combo: dict, order) -> str:
    if not combo:
        return "0"
    return " + ".join([lbl if field.is_one(combo[lbl]) else f"{field.format(combo[lbl])}*{lbl}"
                       for lbl in order if lbl in combo])


def _emit_tables(obj, kind: str, alg, own) -> list:
    """The table lines of obj, an object of this kind whose left-hand
    labels name labels of alg or its own, kept in own: the tables in
    `_TABLE_LINES` order, each with its keys in left-hand-label order."""
    where = {_ALG: alg, _OWN: own}
    order = {names: [lbl for d in P.degrees() for lbl in P.basis_at(d)] for names, P in where.items()}
    field, basis, lines = own.field, own.basis, []
    for op, spec in _TABLE_LINES.items():
        if kind not in spec.objects:
            continue
        table = getattr(obj, spec.table)
        degrees = [where[names]._deg for names in spec.labels]
        single = len(degrees) == 1
        for key in order[spec.labels[0]] if single else product(*(order[n] for n in spec.labels)):
            combo = table.get(key)
            if combo is not None:
                lhs = (key,) if single else key
                target = spec.offset + sum(map(getitem, degrees, lhs))
                lines.append(f"{op} {' '.join(lhs)} = {_emit_combo(field, combo, basis.get(target, ()))}")
    return lines


def _basis_lines(P) -> list:
    return [f"basis {d}: {', '.join(P.basis_at(d))}" for d in P.degrees()]


def emit_algebra(A: DGAlgebra) -> str:
    head = f"algebra {A.name} over {A.field} window {A.window}"
    if not A.trust.is_everywhere:
        head += " truncated"
    return "\n".join([head, *_basis_lines(A), f"unit {A.unit}", *_emit_tables(A, "algebra", A, A)])


def emit_module(M: DGModule) -> str:
    head = f"module {M.name} over {M.algebra.name} side {M.side} window {M.window}"
    trunc = [word for word, end in (("above", M.trust.hi), ("below", M.trust.lo)) if end is not None]
    if trunc:
        head += " truncated " + " ".join(trunc)
    return "\n".join([head, *_basis_lines(M), *_emit_tables(M, f"{M.side} module", M.algebra, M)])


def emit_automorphism(name: str, alpha: AlgebraAutomorphism) -> str:
    A = alpha.algebra
    return "\n".join([f"automorphism {name} of {A.name}", *_emit_tables(alpha, "automorphism", A, A)])


def emit_document(doc: Document) -> str:
    parts = [emit_algebra(doc.algebras[name]) for name in sorted(doc.algebras)]
    parts += [emit_module(doc.modules[name]) for name in sorted(doc.modules)]
    parts += [emit_automorphism(name, doc.automorphisms[name]) for name in sorted(doc.automorphisms)]
    return "\n\n".join(parts) + "\n"
