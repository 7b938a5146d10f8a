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
zero.  A coefficient is the literal `[+-]?[0-9]+(/[0-9]+)?` of
:mod:`dgreg.fields`, and every number of the format, windows, basis
degrees and the p of `Fp` included, is in ASCII digits: a decimal, an
exponent, an underscore or a non-ASCII digit is a ParseError.  Each term
after the first starts with its sign, and a literal's own sign, if it has
one, is written against its digits (`x + -1*y`).

Each table line is read once: `parse_combination` scans its combination
with one compiled term pattern and builds each scalar from its literal's
digits, so a parsed table is canonical (scalars in the field, no zero
entries) and is built without the constructor's cleaning pass.  A builder
parses each distinct right-hand side of its object once, and decides once
that its labels lie in the line's target degree: a later line with that
text gets a copy, and walks the labels again only for another target (a
label's degree never changes).  So the objects keep the empty degree
report of ``dgreg.algebra``.  A ParseError carries the line and the
1-based column of the token at fault.

`_TABLE_LINES` states the five table lines once: the objects each
belongs to, its usage, what its left-hand labels name, the table it
fills and the target degree's offset from the sum of the left-hand
degrees.  A builder takes its object's rules from it, and `_emit_tables`
walks it.  A target above the window top is unrecorded, not zero, so
writing one is an error, except a zero `diff`; an automorphism has no
window.  The emitter walks a pair table's labels in degree order up to
the window top, and raises a ValueError on an entry or a term it would
leave out.  Parsing is exact and round-trips through :func:`emit_document`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from bisect import bisect_right
from math import inf

from .algebra import AlgebraAutomorphism, DGAlgebra
from .fields import GF, LITERAL, LITERAL_RE, QQ, FieldMismatchError, FieldSpec
from .module import BI, DGModule, LEFT, RIGHT
from .windows import GradedWindow, Trust


class ParseError(ValueError):
    """A document line outside the grammar: its ``line_no``, the 1-based
    ``column`` in the source line of the token at fault (of its first
    token when the line as a whole has the wrong shape) and the message."""

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
_INT = r"-?[0-9]+"
_label_re = re.compile(_LABEL)
_token_re = re.compile(r"\S+")
_window_re = re.compile(rf"({_INT})\.\.({_INT})")
_field_re = re.compile(r"F([0-9]+)")
_basis_re = re.compile(rf"\s*basis\s+({_INT})\s*:\s*(\S.*?)\s*$")
# One term of a combination: a sign (optional on the first term), an
# optional literal and `*`, and a label (groups 1-4: sign, numerator,
# denominator, label), then the next term's sign or the end.
_term_re = re.compile(rf"\s*([+-]?)\s*(?:{LITERAL}\s*\*\s*)?({_LABEL})\s*(?=[+-]|\Z)")
_term_end_re = re.compile(r"\s+[+-]|\s*\Z")
_sign_re = re.compile(r"\s*[+-]?\s*")


def _col(line: str, i: int) -> int:
    """The 1-based column of the i-th whitespace-separated token of line."""
    return [m.start() for m in _token_re.finditer(line)][i] + 1


def _token_error(line_no: int, line: str, i: int, message: str) -> ParseError:
    """A ParseError at the i-th whitespace-separated token of line."""
    return ParseError(line_no, _col(line, i), message)


def _parse_window(tok: str, line_no: int, column: int) -> GradedWindow:
    m = _window_re.fullmatch(tok)
    if not m:
        raise ParseError(line_no, column, f"bad window {tok!r} (expected LO..HI)")
    try:
        return GradedWindow(int(m.group(1)), int(m.group(2)))
    except ValueError as exc:  # a WindowError, or an int too long to convert
        raise ParseError(line_no, column, str(exc)) from None


def _parse_field(tok: str, line_no: int, column: int) -> FieldSpec:
    if tok == "Q":
        return QQ
    m = _field_re.fullmatch(tok)
    if m:
        try:
            return GF(int(m.group(1)))
        except ValueError as exc:
            raise ParseError(line_no, column, str(exc)) from None
    raise ParseError(line_no, column, f"unknown field {tok!r} (expected Q or Fp)")


def parse_combination(text: str, field: FieldSpec, line_no: int = 0, col_offset: int = 0):
    """Parse `c1*lbl1 + c2*lbl2`-style combinations; `0` is the zero one.

    One scan of `_term_re` over the text; each scalar is built from its
    literal's digits, so the result is canonical: scalars in the field and
    no zero entries.  A ParseError's column is ``col_offset`` plus the
    1-based position in text of the token it names."""
    match, literal, neg, coerce = _term_re.match, field.literal, field.neg, field.coerce
    out: dict = {}
    pos, end = 0, len(text)
    while True:
        m = match(text, pos)
        if m is None:
            if not pos and text.strip() == "0":
                return out
            raise _term_error(text, pos, line_no, col_offset)
        sign, num, den, lbl = m.groups()
        if num is None:
            c = 1
        else:
            try:
                c = literal(num, den)
            except (ValueError, FieldMismatchError):  # a zero denominator, or one p divides
                lit = num if den is None else f"{num}/{den}"
                raise ParseError(line_no, col_offset + m.start(2) + 1, f"bad coefficient {lit!r}") from None
        if sign == "-":
            c = neg(c)
        if lbl in out:
            c = coerce(out[lbl] + c)
        if c:
            out[lbl] = c
        else:
            out.pop(lbl, None)
        pos = m.end()
        if pos == end:
            return out


def _term_error(text: str, pos: int, line_no: int, col_offset: int) -> ParseError:
    """The error for the term at pos that `_term_re` does not match: the
    term runs from after its sign to the next sign that follows a space,
    and is named by its coefficient when that is no literal, else by its
    label."""
    start = _sign_re.match(text, pos).end()
    term = text[start:_term_end_re.search(text, start).start()]
    coeff, star, lbl = term.partition("*")
    if not star:
        lbl = term
    elif not LITERAL_RE.fullmatch(coeff.strip()):
        return ParseError(line_no, col_offset + start + 1, f"bad coefficient {coeff.strip()!r}")
    at = start + len(term) - len(lbl.lstrip())
    return ParseError(line_no, col_offset + at + 1, f"bad label {lbl.strip()!r}")


def _label_col(line: str, pos: int, lbl: str) -> int:
    """The 1-based column of the first term labelled lbl in the parsed
    combination that starts at line[pos]."""
    while True:
        m = _term_re.match(line, pos)
        if m.group(4) == lbl:
            return m.start(4) + 1
        pos = m.end()


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
_table_line_re = re.compile(rf"\s*({'|'.join(_TABLE_LINES)})\s+(.*?)=(.*)$")


class _Builder:
    """Accumulates the lines of one object until finalized.  ``kind`` is
    "algebra", "automorphism" or "<side> module"; an automorphism's own
    labels are its algebra's, and it has no window.  ``where`` is the line
    and column of the name in the object's header."""

    def __init__(self, kind, name, where, field, window, trust=None, algebra=None, side=None):
        self.kind, self.name, self.where = kind, name, where
        self.field, self.window, self.trust, self.algebra, self.side = field, window, trust, algebra, side
        self.basis: dict = {}
        self.unit = None
        self.tables = {spec.table: {} for spec in _TABLE_LINES.values()}
        self.parsed: dict = {}  # right-hand-side text -> [its combination, the degree it was accepted in]
        self.deg: dict = algebra._deg if kind == "automorphism" else {}
        noun = {"algebra": "label", "automorphism": "algebra label"}.get(kind, "module label")
        names = {_OWN: (self.deg, noun), _ALG: (algebra._deg if algebra else {}, "algebra label")}
        self.noun, self.top = noun, inf if window is None else window.hi
        # op -> (each left-hand label's degrees and noun, target offset, table)
        self.rules = {op: ([names[n][0] for n in spec.labels], [names[n][1] for n in spec.labels],
                           spec.offset, self.tables[spec.table])
                      for op, spec in _TABLE_LINES.items() if kind in spec.objects}

    def add_basis(self, m, line_no):
        """Check the basis line `_basis_re` matched as m and record it."""
        try:
            degree = int(m.group(1))
        except ValueError as exc:  # too long to convert
            raise ParseError(line_no, m.start(1) + 1, str(exc)) from None
        labels, cols, col = [], [], m.start(2) + 1
        for piece in m.group(2).split(","):
            labels.append(piece.strip())
            cols.append(col + len(piece) - len(piece.lstrip()))
            col += len(piece) + 1
        for lbl, col in zip(labels, cols):
            if not _label_re.fullmatch(lbl):
                raise ParseError(line_no, col, "bad label in basis list")
        if not self.window.contains(degree):
            raise ParseError(line_no, m.start(1) + 1, f"basis degree {degree} outside window {self.window}")
        if degree in self.basis:
            raise ParseError(line_no, m.start(1) + 1, f"duplicate basis line for degree {degree}")
        for lbl, col in zip(labels, cols):
            if lbl in self.deg:
                raise ParseError(line_no, col, f"duplicate label {lbl!r}")
            self.deg[lbl] = degree
        self.basis[degree] = tuple(labels)

    def table_line(self, m, line_no):
        """Check the table line `_table_line_re` matched as m against this
        object's ``rules`` and record it.  A right-hand side is parsed on its
        text's first line, and its labels checked there and again only where
        the target is another degree: ``parsed`` keeps the combination and
        the degree it passed in, and never a text that failed.  Each entry
        gets its own copy.  A zero entry of a table is dropped, as absent
        means zero there; a zero image is kept, as absent is the identity."""
        (op, lhs, text), line = m.groups(), m.string
        memo = self.parsed.get(text)
        if memo is None:
            memo = [parse_combination(text, self.field, line_no, m.start(3)), None]
        combo, lhs, rule = memo[0], lhs.split(), self.rules.get(op)
        if rule is None or len(lhs) != len(rule[0]):
            spec = _TABLE_LINES[op]
            raise ParseError(line_no, m.start(1) + 1, f"expected: {spec.usage} (in: {', '.join(spec.objects)})")
        maps, nouns, offset, table = rule
        try:
            target = offset + (maps[0][lhs[0]] if len(lhs) == 1 else maps[0][lhs[0]] + maps[1][lhs[1]])
        except KeyError:
            i = next(i for i, lbl in enumerate(lhs) if lbl not in maps[i])
            raise ParseError(line_no, _col(line, i + 1), f"unknown {nouns[i]} {lhs[i]!r}") from None
        # a zero differential out of the top degree is the one line allowed above it
        if target > self.top and (combo or not offset):
            raise ParseError(line_no, _col(line, 1),
                             f"{op} target degree {target} above window top (unrecorded, not assignable)")
        if memo[1] != target:
            self.check_labels(combo, target, line, line_no, m.start(3))
            memo[1], self.parsed[text] = target, memo
        key = lhs[0] if len(lhs) == 1 else tuple(lhs)
        if combo or self.kind == "automorphism":
            table[key] = combo.copy()
        else:
            table.pop(key, None)

    def check_labels(self, combo, target, line, line_no, pos):
        """Check that each label of combo, parsed from line[pos:], is its own in degree target."""
        for lbl in combo:
            degree = self.deg.get(lbl)
            if degree != target:
                message = (f"unknown {self.noun} {lbl!r}" if degree is None
                           else f"degree mismatch: {lbl!r} is not in degree {target}")
                raise ParseError(line_no, _label_col(line, pos, lbl), message)


def parse_document(text: str) -> Document:
    doc, match = Document(), _table_line_re.match
    current: _Builder | None = None

    def finalize():
        nonlocal current
        if current is None:
            return
        b, t = current, current.tables
        # the tables are canonical as parsed, so the objects are built without
        # _clean; table_line refused every unknown left-hand label and every
        # term outside its target degree, so each keeps the empty degree report
        if b.kind == "algebra":
            if b.unit is None:
                raise ParseError(*b.where, f"algebra {b.name!r} has no unit line")
            obj = doc.algebras[b.name] = DGAlgebra._built(
                name=b.name, field=b.field, window=b.window, basis=b.basis,
                unit=b.unit, mul=t["mul"], diff=t["diff"], trust=b.trust,
            )
        elif b.kind == "automorphism":
            doc.automorphisms[b.name] = AlgebraAutomorphism(b.algebra, t["images"])
        else:
            obj = doc.modules[b.name] = DGModule._built(
                name=b.name, algebra=b.algebra, side=b.side, window=b.window,
                basis=b.basis, lact=t["lact"], ract=t["ract"], diff=t["diff"], trust=b.trust,
            )
        if b.kind != "automorphism":
            obj._kept["degree"] = ()
        current = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]  # not stripped, so that match positions are columns
        if current is not None:
            m = match(line)
            if m is not None:
                current.table_line(m, line_no)
                continue
        toks = line.split()
        if not toks:
            continue
        head = toks[0]

        if head == "algebra":
            finalize()
            if len(toks) < 6 or toks[2] != "over" or toks[4] != "window":
                raise _token_error(line_no, line, 0, "expected: algebra NAME over FIELD window LO..HI [truncated]")
            name = toks[1]
            if name in doc.algebras:
                raise _token_error(line_no, line, 1, f"duplicate algebra {name!r}")
            field = _parse_field(toks[3], line_no, _col(line, 3))
            window = _parse_window(toks[5], line_no, _col(line, 5))
            truncated = len(toks) > 6 and toks[6] == "truncated"
            if len(toks) > (7 if truncated else 6):
                raise _token_error(line_no, line, 7 if truncated else 6, "trailing tokens on algebra line")
            trust = Trust(None, window.hi) if truncated else Trust.everywhere()
            current = _Builder("algebra", name, (line_no, _col(line, 1)), field, window, trust)
            continue

        if head == "module":
            finalize()
            if len(toks) < 8 or toks[2] != "over" or toks[4] != "side" or toks[6] != "window":
                raise _token_error(line_no, line, 0, "expected: module NAME over ALG side SIDE window LO..HI")
            name = toks[1]
            if name in doc.modules:
                raise _token_error(line_no, line, 1, f"duplicate module {name!r}")
            if toks[3] not in doc.algebras:
                raise _token_error(line_no, line, 3, f"unknown algebra {toks[3]!r}")
            side = toks[5]
            if side not in (LEFT, RIGHT, BI):
                raise _token_error(line_no, line, 5, f"bad side {side!r}")
            window = _parse_window(toks[7], line_no, _col(line, 7))
            rest = toks[8:]
            if rest and (rest[0] != "truncated" or not rest[1:] or not set(rest[1:]) <= {"above", "below"}):
                raise _token_error(line_no, line, 8, "expected: truncated above|below")
            trust = Trust(window.lo if "below" in rest else None, window.hi if "above" in rest else None)
            A = doc.algebras[toks[3]]
            current = _Builder(f"{side} module", name, (line_no, _col(line, 1)), A.field, window, trust, A, side)
            continue

        if head == "automorphism":
            finalize()
            if len(toks) != 4 or toks[2] != "of":
                raise _token_error(line_no, line, 0, "expected: automorphism NAME of ALG")
            if toks[3] not in doc.algebras:
                raise _token_error(line_no, line, 3, f"unknown algebra {toks[3]!r}")
            A = doc.algebras[toks[3]]
            current = _Builder("automorphism", toks[1], (line_no, _col(line, 1)), A.field, None, algebra=A)
            continue

        if current is None:
            raise _token_error(line_no, line, 0, f"declaration line outside any object: {line.strip()!r}")

        if head == "basis":
            if current.kind == "automorphism":
                raise _token_error(line_no, line, 0, "automorphisms have no basis lines")
            m = _basis_re.match(line)
            if not m:
                raise _token_error(line_no, line, 0, "expected: basis DEG: lbl[, lbl ...]")
            current.add_basis(m, line_no)
            continue

        if head == "unit":
            if current.kind != "algebra" or len(toks) != 2:
                raise _token_error(line_no, line, 0, "unit lines belong to algebras: unit LBL")
            if toks[1] not in current.deg:
                raise _token_error(line_no, line, 1, f"unknown label {toks[1]!r}")
            current.unit = toks[1]
            continue

        raise _token_error(line_no, line, 0, f"unrecognized line {line.strip()!r}")

    finalize()
    return doc


# -- emission -----------------------------------------------------------------


def _emit_tables(obj, kind: str, name: str, alg, own) -> list:
    """The table lines of obj, the object of this kind called name, whose
    left-hand labels name labels of alg or its own, kept in own: the
    tables in `_TABLE_LINES` order, each with its keys in left-hand-label
    order, and each combination's terms in basis order.  A ValueError
    names an entry or a term that the lines would leave out."""
    where = {_ALG: alg, _OWN: own}
    order = {names: [lbl for d in P.degrees() for lbl in P.basis_at(d)] for names, P in where.items()}
    basis, top, lines = own.basis, own.window.hi, []
    is_one, fmt = own.field.is_one, own.field.format
    for op, spec in _TABLE_LINES.items():
        if kind not in spec.objects:
            continue
        table, start, (outer, *inner) = getattr(obj, spec.table), len(lines), spec.labels
        walk = ((a, f"{op} {a}", spec.offset + where[outer]._deg[a]) for a in order[outer])
        if inner:  # only the pairs whose target is in the window, as labels come in degree order
            labels, deg = order[inner[0]], where[inner[0]]._deg
            degrees = [deg[b] for b in labels]
            walk = (((a, b), f"{head} {b}", t + deg[b]) for a, head, t in walk
                    for b in labels[:bisect_right(degrees, top - t)])
        for key, head, target in walk:
            combo = table.get(key)
            if combo is not None:
                terms = [lbl if is_one(combo[lbl]) else f"{fmt(combo[lbl])}*{lbl}"
                         for lbl in basis.get(target, ()) if lbl in combo]
                if len(terms) != len(combo):
                    lbl = next(lbl for lbl in combo if lbl not in basis.get(target, ()))
                    raise ValueError(f"cannot write {kind} {name!r}: {head} has term {lbl!r} outside degree {target}")
                lines.append(f"{head} = {' + '.join(terms) or '0'}")
        if len(lines) - start != len(table):  # an entry off the walk
            written = {line.partition(" = ")[0] for line in lines[start:]}
            key = next(k for k in table if " ".join((op, *(k if inner else (k,)))) not in written)
            raise ValueError(f"cannot write {kind} {name!r}: its {op} entry {key!r} has a label it does not "
                             "know or a target above the window top")
    return lines


def _basis_lines(P) -> list:
    return [f"basis {d}: {', '.join(P.basis_at(d))}" for d in P.degrees()]


def emit_algebra(A: DGAlgebra) -> str:
    head = f"algebra {A.name} over {A.field} window {A.window}"
    if not A.trust.is_everywhere:
        head += " truncated"
    return "\n".join([head, *_basis_lines(A), f"unit {A.unit}", *_emit_tables(A, "algebra", A.name, A, A)])


def emit_module(M: DGModule) -> str:
    head = f"module {M.name} over {M.algebra.name} side {M.side} window {M.window}"
    trunc = [word for word, end in (("above", M.trust.hi), ("below", M.trust.lo)) if end is not None]
    if trunc:
        head += " truncated " + " ".join(trunc)
    return "\n".join([head, *_basis_lines(M), *_emit_tables(M, f"{M.side} module", M.name, M.algebra, M)])


def emit_automorphism(name: str, alpha: AlgebraAutomorphism) -> str:
    A = alpha.algebra
    return "\n".join([f"automorphism {name} of {A.name}", *_emit_tables(alpha, "automorphism", name, A, A)])


def emit_document(doc: Document) -> str:
    parts = [emit_algebra(doc.algebras[name]) for name in sorted(doc.algebras)]
    parts += [emit_module(doc.modules[name]) for name in sorted(doc.modules)]
    parts += [emit_automorphism(name, doc.automorphisms[name]) for name in sorted(doc.automorphisms)]
    return "\n\n".join(parts) + "\n"
