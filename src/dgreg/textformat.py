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
zero, while products whose target degree exceeds the window top are
unrecorded rather than zero (writing one explicitly is an error).
Parsing is exact and round-trips through :func:`emit_document`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .algebra import AlgebraAutomorphism, DGAlgebra
from .fields import QQ, GF, FieldSpec
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
        if name is None:
            if len(self.algebras) != 1:
                raise KeyError("document holds several algebras; name one")
            return next(iter(self.algebras.values()))
        if name not in self.algebras:
            raise KeyError(f"no algebra named {name!r}")
        return self.algebras[name]

    def module(self, name: str | None = None) -> DGModule:
        if name is None:
            if len(self.modules) != 1:
                raise KeyError("document holds several modules; name one")
            return next(iter(self.modules.values()))
        if name not in self.modules:
            raise KeyError(f"no module named {name!r}")
        return self.modules[name]


_LABEL = r"[A-Za-z_][A-Za-z0-9_]*"
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
    pos = 0
    sign = 1
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
        except ValueError:
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


class _Builder:
    """Accumulates the lines of one object until finalized."""

    def __init__(self, kind, name, line_no, **kw):
        self.kind = kind
        self.name = name
        self.line_no = line_no
        self.kw = kw
        self.basis: dict = {}
        self.unit = None
        self.mul: dict = {}
        self.diff: dict = {}
        self.lact: dict = {}
        self.ract: dict = {}
        self.images: dict = {}
        self.deg: dict = {}

    def add_basis(self, degree, labels, line_no):
        if degree in self.basis:
            raise ParseError(line_no, 0, f"duplicate basis line for degree {degree}")
        for lbl in labels:
            if lbl in self.deg:
                raise ParseError(line_no, 0, f"duplicate label {lbl!r}")
            self.deg[lbl] = degree
        self.basis[degree] = tuple(labels)

    def require(self, lbl, line_no, who="label"):
        if lbl not in self.deg:
            raise ParseError(line_no, 0, f"unknown {who} {lbl!r}")
        return self.deg[lbl]


def parse_document(text: str) -> Document:
    doc = Document()
    current: _Builder | None = None
    alg_ctx: DGAlgebra | None = None  # algebra of the current module/automorphism

    def finalize():
        nonlocal current, alg_ctx
        if current is None:
            return
        b = current
        if b.kind == "algebra":
            if b.unit is None:
                raise ParseError(b.line_no, 0, f"algebra {b.name!r} has no unit line")
            trust = Trust(None, b.kw["window"].hi) if b.kw["truncated"] else Trust.everywhere()
            alg = DGAlgebra(
                name=b.name, field=b.kw["field"], window=b.kw["window"],
                basis=b.basis, unit=b.unit, mul=b.mul, diff=b.diff, trust=trust,
            )
            doc.algebras[b.name] = alg
        elif b.kind == "module":
            lo = b.kw["window"].lo if b.kw["trunc_below"] else None
            hi = b.kw["window"].hi if b.kw["trunc_above"] else None
            mod = DGModule(
                name=b.name, algebra=b.kw["algebra"], side=b.kw["side"],
                window=b.kw["window"], basis=b.basis,
                lact=b.lact, ract=b.ract, diff=b.diff, trust=Trust(lo, hi),
            )
            doc.modules[b.name] = mod
        else:
            doc.automorphisms[b.name] = AlgebraAutomorphism(b.kw["algebra"], b.images)
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
            current = _Builder("algebra", name, line_no, field=field, window=window, truncated=truncated)
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
            trunc_above = trunc_below = False
            rest = toks[8:]
            if rest:
                if rest[0] != "truncated" or not set(rest[1:]) <= {"above", "below"} or not rest[1:]:
                    raise ParseError(line_no, 0, "expected: truncated above|below")
                trunc_above = "above" in rest[1:]
                trunc_below = "below" in rest[1:]
            alg_ctx = doc.algebras[toks[3]]
            current = _Builder("module", name, line_no, algebra=alg_ctx, side=side,
                               window=window, trunc_above=trunc_above, trunc_below=trunc_below)
            continue

        if head == "automorphism":
            finalize()
            if len(toks) != 4 or toks[2] != "of":
                raise ParseError(line_no, 0, "expected: automorphism NAME of ALG")
            if toks[3] not in doc.algebras:
                raise ParseError(line_no, 0, f"unknown algebra {toks[3]!r}")
            alg_ctx = doc.algebras[toks[3]]
            current = _Builder("automorphism", toks[1], line_no, algebra=alg_ctx)
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
            window = current.kw["window"]
            if current.kind == "module" and not window.contains(degree):
                raise ParseError(line_no, 0, f"basis degree {degree} outside window {window}")
            current.add_basis(degree, labels, line_no)
            continue

        if head == "unit":
            if current.kind != "algebra" or len(toks) != 2:
                raise ParseError(line_no, 0, "unit lines belong to algebras: unit LBL")
            current.require(toks[1], line_no)
            current.unit = toks[1]
            continue

        m = re.match(r"^(mul|diff|act|actr|map)\s+(.*?)=(.*)$", line)
        if not m:
            raise ParseError(line_no, 0, f"unrecognized line {line!r}")
        op, lhs, rhs = m.group(1), m.group(2).split(), m.group(3).strip()
        field = current.kw.get("field") or current.kw["algebra"].field
        combo = parse_combination(rhs, field, line_no)

        if op == "mul":
            if current.kind != "algebra" or len(lhs) != 2:
                raise ParseError(line_no, 0, "expected: mul A B = COMBO")
            da, db = current.require(lhs[0], line_no), current.require(lhs[1], line_no)
            target = da + db
            if target > current.kw["window"].hi:
                raise ParseError(line_no, 0,
                                 f"product degree {target} above window top (unrecorded, not assignable)")
            for lbl in combo:
                if current.require(lbl, line_no) != target:
                    raise ParseError(line_no, 0,
                                     f"degree mismatch: {lbl!r} is not in degree {target}")
            current.mul[(lhs[0], lhs[1])] = combo
        elif op == "diff":
            if current.kind == "automorphism" or len(lhs) != 1:
                raise ParseError(line_no, 0, "expected: diff X = COMBO")
            dx = current.require(lhs[0], line_no)
            if combo and dx + 1 > current.kw["window"].hi:
                raise ParseError(line_no, 0, "differential lands above the window top")
            for lbl in combo:
                if current.require(lbl, line_no) != dx + 1:
                    raise ParseError(line_no, 0,
                                     f"degree mismatch: d({lhs[0]}) must land in degree {dx + 1}")
            current.diff[lhs[0]] = combo
        elif op in ("act", "actr"):
            if current.kind != "module" or len(lhs) != 2:
                raise ParseError(line_no, 0, f"expected: {op} X Y = COMBO")
            A = current.kw["algebra"]
            if op == "act":
                a_lbl, m_lbl = lhs
            else:
                m_lbl, a_lbl = lhs
            if a_lbl not in A._deg:
                raise ParseError(line_no, 0, f"unknown algebra label {a_lbl!r}")
            dm = current.require(m_lbl, line_no, "module label")
            target = A.degree_of(a_lbl) + dm
            if target > current.kw["window"].hi:
                raise ParseError(line_no, 0,
                                 f"action degree {target} above window top (unrecorded, not assignable)")
            for lbl in combo:
                if current.require(lbl, line_no, "module label") != target:
                    raise ParseError(line_no, 0, f"degree mismatch in action target {lbl!r}")
            side = current.kw["side"]
            if op == "act":
                if side == RIGHT:
                    raise ParseError(line_no, 0, "left action on a right module")
                current.lact[(a_lbl, m_lbl)] = combo
            else:
                if side == LEFT:
                    raise ParseError(line_no, 0, "right action on a left module")
                current.ract[(m_lbl, a_lbl)] = combo
        else:  # map
            if current.kind != "automorphism" or len(lhs) != 1:
                raise ParseError(line_no, 0, "expected: map LBL = COMBO")
            A = current.kw["algebra"]
            if lhs[0] not in A._deg:
                raise ParseError(line_no, 0, f"unknown algebra label {lhs[0]!r}")
            for lbl in combo:
                if lbl not in A._deg or A.degree_of(lbl) != A.degree_of(lhs[0]):
                    raise ParseError(line_no, 0, "automorphism image changes degree")
            current.images[lhs[0]] = combo

    finalize()
    return doc


# -- emission -----------------------------------------------------------------


def _emit_combo(field: FieldSpec, combo: dict, order) -> str:
    if not combo:
        return "0"
    terms = []
    for lbl in order:
        if lbl in combo:
            v = combo[lbl]
            terms.append(lbl if field.is_one(v) else f"{field.format(v)}*{lbl}")
    return " + ".join(terms)


def emit_algebra(A: DGAlgebra) -> str:
    lines = []
    head = f"algebra {A.name} over {A.field} window {A.window}"
    if not A.trust.is_everywhere:
        head += " truncated"
    lines.append(head)
    order = [lbl for d in A.degrees() for lbl in A.basis_at(d)]
    for d in A.degrees():
        lines.append(f"basis {d}: {', '.join(A.basis_at(d))}")
    lines.append(f"unit {A.unit}")
    for a in order:
        for b in order:
            combo = A.mul.get((a, b))
            if combo:
                tgt = A.basis_at(A.degree_of(a) + A.degree_of(b))
                lines.append(f"mul {a} {b} = {_emit_combo(A.field, combo, tgt)}")
    for a in order:
        combo = A.diff.get(a)
        if combo:
            tgt = A.basis_at(A.degree_of(a) + 1)
            lines.append(f"diff {a} = {_emit_combo(A.field, combo, tgt)}")
    return "\n".join(lines)


def emit_module(M: DGModule) -> str:
    lines = []
    head = f"module {M.name} over {M.algebra.name} side {M.side} window {M.window}"
    trunc = []
    if M.trust.hi is not None:
        trunc.append("above")
    if M.trust.lo is not None:
        trunc.append("below")
    if trunc:
        head += " truncated " + " ".join(trunc)
    lines.append(head)
    for d in M.degrees():
        lines.append(f"basis {d}: {', '.join(M.basis_at(d))}")
    alg_order = [lbl for d in M.algebra.degrees() for lbl in M.algebra.basis_at(d)]
    mod_order = [lbl for d in M.degrees() for lbl in M.basis_at(d)]
    for a in alg_order:
        for m in mod_order:
            combo = M.lact.get((a, m))
            if combo:
                tgt = M.basis_at(M.algebra.degree_of(a) + M.degree_of(m))
                lines.append(f"act {a} {m} = {_emit_combo(M.field, combo, tgt)}")
    for m in mod_order:
        for a in alg_order:
            combo = M.ract.get((m, a))
            if combo:
                tgt = M.basis_at(M.algebra.degree_of(a) + M.degree_of(m))
                lines.append(f"actr {m} {a} = {_emit_combo(M.field, combo, tgt)}")
    for m in mod_order:
        combo = M.diff.get(m)
        if combo:
            tgt = M.basis_at(M.degree_of(m) + 1)
            lines.append(f"diff {m} = {_emit_combo(M.field, combo, tgt)}")
    return "\n".join(lines)


def emit_automorphism(name: str, alpha: AlgebraAutomorphism) -> str:
    A = alpha.algebra
    lines = [f"automorphism {name} of {A.name}"]
    for d in A.degrees():
        for lbl in A.basis_at(d):
            img = alpha.images.get(lbl)
            if img is not None:
                lines.append(f"map {lbl} = {_emit_combo(A.field, img, A.basis_at(d))}")
    return "\n".join(lines)


def emit_document(doc: Document) -> str:
    parts = []
    for name in sorted(doc.algebras):
        parts.append(emit_algebra(doc.algebras[name]))
    for name in sorted(doc.modules):
        parts.append(emit_module(doc.modules[name]))
    for name in sorted(doc.automorphisms):
        parts.append(emit_automorphism(name, doc.automorphisms[name]))
    return "\n\n".join(parts) + "\n"
