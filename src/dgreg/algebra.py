"""Presentations of connected cochain DG algebras on finite degree windows.

An algebra lives in nonnegative cohomological degrees with a
one-dimensional degree-0 part spanned by the unit.  Multiplication and
differential are stored degreewise on basis labels.  Validation reports
violated axioms as data with witnessing basis tuples.

:class:`Presentation` is the core that :class:`DGAlgebra` and
``module.DGModule`` share, as A is itself a DG bimodule over A: basis
indexing, table cleaning, degree lookups, the differential, and one
bilinear extension of a single-label product or action to
combinations.  The algebra and module axioms are checked by the same
three functions (``_d_squared``, ``_leibniz``, ``_associative``), and
maps on basis labels by one label rule and two per-label checks
(``_unknown_label``, ``_chain``, ``_multiplicative``).

Associativity and Leibniz are checked over generators.  A is connected,
so lifts S of a basis of the indecomposables A^{>=1}/(A^{>=1})^2
generate it (``_generators`` keeps, in each degree n >= 1, the labels
that enlarge the echelon of the products A^i A^j with i + j = n and
i, j >= 1).  If the unit law holds and (xy)z = x(yz) whenever x lies in
S, it holds on every triple, by induction on word length; every product
that induction uses lies in a degree <= |x|+|y|+|z|, so it is recorded
whenever the triple is.  The same induction covers left-action
associativity with the first factor in S and right-action associativity
with the last factor in S.

Bimodule commutation, (am)b = a(mb), is checked with both algebra
factors in S.  Once the unit acts as the identity and both action
associativities hold over S, the left action L_a of a word a = sw is
L_s L_w and the right action R_b of b = vt is R_t R_v, so each L_a and
R_b is a composite of generator actions, and generator actions that
commute make every L_a commute with every R_b, by induction on the
lengths of a and b.  Every intermediate product lies in a degree
<= |a|+|m|+|b|, so it is recorded whenever the triple is.

Leibniz, d(xy) = d(x)y + (-1)^{|x|} x d(y), is bilinear in x and y, so
once A is associative it holds on every pair when it holds with x in
S u {1}: for a word x = sw with s in S, the rule for (s, wy), (s, w)
and, by induction on word length, (w, y) gives it for (x, y), and every
entry that uses lies in a degree <= |x|+|y|+1.  The unit has to be in
the set, since d(1) = 0 follows from no generator.  Module Leibniz
d(am) = d(a)m + (-1)^{|a|} a d(m) reduces the same way with a in
S u {1}, using action associativity and Leibniz in A, and right
Leibniz d(ma) = d(m)a + (-1)^{|m|} m d(a) with the last factor a in
S u {1}.

Each reduced check only ever decides "no violation", and only when A is
connected and unital and no table entry leaves its target degree (one
that does is a ``degree`` violation; d raises degree by one); the
products S is computed from are recorded, as every basis degree lies in
the window.  Algebra Leibniz needs A associative by its reduced check
too.  A module's checks need A's whole reduced report empty
(``_checked`` decides it once per algebra) and the unit to act as the
identity on each side the module has, and module Leibniz needs action
associativity and bimodule commutation over S to find nothing.  If a
precondition fails, or a reduced check finds a violation, the same
enumeration runs over every label and gives the report.

The degree report of a presentation's own tables is computed once and
kept on it (:func:`_degree_report`).  The text-format parser refuses
every unknown left-hand label and every term outside its target degree,
so the algebras and modules it builds are kept with the empty report
and their validation never runs that pass.  A copy or a construction
starts with an empty store and runs it once.

How a check is evaluated: each loop computes the inner product that
depends only on its outer pair once (xy in A, ab for action
associativity, am for commutation) and runs the third factor over the
labels, which ascend by degree, up to the first triple above the window
top.  ``_differs`` sums (xy)z - x(yz), or for ``_leibniz``
d(uv) - d(u)v - (-1)^{|u|} u d(v), into one dict; a violation is an
entry nonzero in the field, and an unrecorded entry means none.

The above-window rule: an entry whose target degree exceeds the window
top is zero when the presentation is complete (trusted with no upper
bound) and *unrecorded*, returned as None, when it is truncated; it is
never silently zero there.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field

from .fields import FieldSpec
from .lincomb import cclean, ceq, cextend, cneg, cscale, czero, to_sparse
from .linalg import Echelon
from .windows import GradedWindow, Trust, WindowError


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    detail: str

    def to_json(self):
        return {"axiom": self.axiom, "witness": list(self.witness), "detail": self.detail}


@dataclass
class ValidationReport:
    subject: str
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self):
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
        }


class Presentation:
    """The core that DGAlgebra and DGModule share: a degreewise basis on a
    window, coefficient tables keyed by labels, and the rule for entries
    that land above the window top.  A subclass sets ``basis``,
    ``window``, ``trust``, ``diff`` and ``field``, names its coefficient
    tables in ``_tables``, gives each with the presentations its keys
    name in ``_graded_tables`` (the arguments of ``_degree_violations``
    after X), and calls :meth:`_index` from its ``_prepare``, which the
    constructor and :meth:`_built` run.

    No field is assigned after a presentation is built, so tables can be
    shared and what is derived from an object alone can be kept on it, in
    one store read through :meth:`kept`.  A construction derived from one
    presentation is :meth:`_with`, a copy that names only the fields it
    changes, and starts with an empty store of its own.
    """

    _label_kind = "basis"

    def _index(self, clean: bool):
        """Refuse a basis degree outside the window (a WindowError), sort
        the basis by degree, map each label to its degree and to its
        position in its degree, keep the field's zero and one for the hot
        loops, start the empty store of :meth:`kept`, and with ``clean``
        replace each table named in ``_tables`` by its :meth:`_clean`
        copy."""
        self._zero, self._one = self.field.zero(), self.field.one()
        self._kept = {}
        self.basis = {d: tuple(lbls) for d, lbls in sorted(self.basis.items()) if lbls}
        outside = next((d for d in self.basis if not self.window.contains(d)), None)
        if outside is not None:
            raise WindowError(f"basis degree {outside} outside window {self.window}")
        self._deg, self._pos = {}, {}
        for d, lbls in self.basis.items():
            pos = self._pos[d] = {}
            for i, lbl in enumerate(lbls):
                if lbl in self._deg:
                    raise ValueError(f"duplicate {self._label_kind} label {lbl!r}")
                self._deg[lbl] = d
                pos[lbl] = i
        if clean:
            for name in self._tables:
                setattr(self, name, self._clean(getattr(self, name)))

    def _clean(self, table: dict) -> dict:
        """A fresh copy of a table with each scalar brought into the field by
        ``FieldSpec.coerce`` (a float is a ``FieldMismatchError``) and the
        scalars and entries that vanish there dropped."""
        coerce, out = self.field.coerce, {}
        for k, c in table.items():
            row = {}
            for t, v in c.items():
                v = coerce(v)
                if v:
                    row[t] = v
            if row:
                out[k] = row
        return out

    def __post_init__(self):
        self._prepare(clean=True)

    @classmethod
    def _built(cls, **fields):
        """A new instance on tables the library built itself, each already
        what :meth:`_clean` would make of it: the constructor, given
        every field, without the :meth:`_clean` copies.  The text-format
        parser builds its objects here, as its tables are canonical as
        parsed.  Catalog and user-built presentations go through the
        constructor and are cleaned; one derived from another presentation
        is :meth:`_with`."""
        self = cls.__new__(cls)
        # in the constructor's order, so that instances share one key layout
        for f in dataclasses.fields(cls):
            setattr(self, f.name, fields[f.name])
        self._prepare(clean=False)
        return self

    def _with(self, **changes):
        """A copy built as :meth:`_built` builds, with the named fields
        replaced by values that are already clean, and every other field,
        tables included, shared with this presentation."""
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return self._built(**{**fields, **changes})

    def kept(self, key, build):
        """The value ``build()`` computed once for this presentation and
        kept under ``key``."""
        store = self._kept
        if key not in store:
            store[key] = build()
        return store[key]

    def degree_of(self, lbl: str) -> int:
        return self._deg[lbl]

    def basis_at(self, d: int) -> tuple:
        return self.basis.get(d, ())

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def degrees(self):
        return sorted(self.basis)

    def coords(self, c: dict, d: int) -> dict:
        """Coordinates ``{position: scalar}`` of a degree-d combination in
        the degree-d basis; a label of another degree is a KeyError."""
        return to_sparse(self.field, c, self._pos.get(d, {}))

    def combo(self, vec: dict, d: int) -> dict:
        """The degree-d combination with coordinates ``vec``, in basis order."""
        lbls = self.basis_at(d)
        return {lbls[i]: vec[i] for i in sorted(vec)}

    @property
    def complete(self) -> bool:
        return self.trust.is_everywhere

    def _above_window(self):
        """The value of an entry whose target lies above the window top
        (the above-window rule of the module docstring)."""
        return czero() if self.trust.hi is None else None

    def diff_of(self, lbl: str):
        """Combination for d(lbl), or None when the target is unrecorded."""
        if self._deg[lbl] + 1 > self.window.hi:
            return self._above_window()
        return self.diff.get(lbl, czero())

    def diff_combo(self, x, dx: int):
        if x is None:
            return None
        if dx + 1 > self.window.hi:
            return self._above_window()
        return cextend(self.field, x, self.diff_of)

    def _bilinear(self, x, dx: int, y, dy: int, entry):
        """The bilinear extension of ``entry(a, b)`` (a single-label product
        or action lookup) to two degree-homogeneous combinations; None if
        either is None or some entry is unrecorded."""
        if x is None or y is None:
            return None
        if dx + dy > self.window.hi:
            return self._above_window()
        F = self.field
        mul, p, zero, one = F.mul, F.p, self._zero, self._one
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                e = entry(a, b)
                if e is None:
                    return None
                # the sums below start from the field's zero, so skipping a
                # product with the shared unit scalar changes no result
                c = ca if cb is one else cb if ca is one else mul(ca, cb)
                for t, v in e.items():
                    s = out.get(t, zero) + c * v
                    out[t] = s % p if p else s
        return cclean(F, out)


@dataclass
class DGAlgebra(Presentation):
    """A connected cochain DG algebra given degreewise by bases and tables.

    ``mul[(a, b)]`` is the combination for a*b (stored only when
    ``|a|+|b| <= window.hi``); ``diff[a]`` the combination for da.
    Missing in-window entries mean zero.  ``trust`` is the degree range
    on which the presentation agrees with the unbounded object.

    Tables are not edited after construction, so what is derived from A
    alone is computed once and kept on the object, in the store read
    through :meth:`Presentation.kept`: the opposite algebra, the
    validation verdict, the H report, A as a bimodule over itself, and
    the torsion objects of
    ``dgreg.torsion`` (the detected regime, the dualizing module and its
    opposite, the Cech carrier, and Extreg k with CMreg A per stage
    budget).  The opposite keeps its own store.
    """

    name: str
    field: FieldSpec
    window: GradedWindow
    basis: dict          # degree -> tuple of labels
    unit: str
    mul: dict            # (label, label) -> combination
    diff: dict           # label -> combination
    trust: Trust = dc_field(default_factory=Trust.everywhere)

    _tables = ("mul", "diff")

    def _prepare(self, clean: bool):
        self._index(clean)

    def _graded_tables(self) -> tuple:
        return (self.mul, self, self), (self.diff, self, None)

    def product(self, a: str, b: str):
        """Combination for a*b; None when the target degree is unrecorded."""
        if self._deg[a] + self._deg[b] > self.window.hi:
            return self._above_window()
        return self.mul.get((a, b), czero())

    def mul_combo(self, x, dx: int, y, dy: int):
        """Product of two degree-homogeneous combinations; None if unrecorded."""
        return self._bilinear(x, dx, y, dy, self.product)

    def unit_combo(self) -> dict:
        return {self.unit: self.field.one()}

    # -- derived algebras -------------------------------------------------

    def opposite(self) -> "DGAlgebra":
        """The graded-opposite algebra: a *op b = (-1)^{|a||b|} b a.

        Built once and kept on A, and an involution: the opposite records
        A as its own opposite, so ``A.opposite().opposite() is A``."""
        if "opposite" in self._kept:
            return self._kept["opposite"]
        F = self.field
        mul_op = {}
        for (a, b), combo in self.mul.items():
            s = F.sign(self._deg[a] * self._deg[b])
            mul_op[(b, a)] = cscale(F, s, combo)
        op = self._with(name=self.name + "_op", mul=mul_op)
        op._kept["opposite"] = self
        self._kept["opposite"] = op
        return op


def diff_columns(X, d: int) -> list:
    """Sparse columns of the differential X^d -> X^{d+1} of an algebra or
    module: one ``{position: scalar}`` per basis element of degree d,
    read straight from the diff table."""
    src = X.basis_at(d)
    if not X.basis_at(d + 1):
        return [{} for _ in src]
    return [X.coords(X.diff.get(b, {}), d + 1) for b in src]


def _d_squared(X, detail: str) -> list:
    """d-squared violations of an algebra or module: d(d(x)) is recorded
    and nonzero."""
    out = []
    for d in X.degrees():
        for x in X.basis_at(d):
            if X.diff_combo(X.diff_of(x), d + 1):
                out.append(Violation("d-squared", (x,), detail))
    return out


def _leibniz(X, entry, U, u, V, v) -> bool:
    """Whether d(uv) = d(u)v + (-1)^{|u|} u d(v) fails on recorded entries,
    where ``entry(u, v)`` is the product of a label of U by a label of V
    in X (the multiplication of an algebra, or an action on a module);
    ``_differs`` takes d(u)v and (-1)^{|u|} u d(v) from d(uv), a fresh dict."""
    du, dv = U.degree_of(u), V.degree_of(v)
    if du + dv + 1 > X.window.hi:
        return False
    duv, d_u, d_v, F = X.diff_combo(entry(u, v), du + dv), U.diff_of(u), V.diff_of(v), X.field
    if duv is None or d_u is None or d_v is None:
        return False
    return _differs(X, duv, u, cneg(F, d_u), v, cscale(F, F.sign(du), d_v), entry, entry)


def _associative(X, x, xy, z, yz, xy_z, x_yz) -> bool:
    """Whether (xy)z = x(yz) fails on recorded entries in X, for a triple
    in the window whose inner products xy and yz are given (None when
    unrecorded); ``xy_z`` multiplies a label of xy by z, and ``x_yz`` x by
    a label of yz."""
    return xy is not None and yz is not None and _differs(X, {}, x, xy, z, yz, xy_z, x_yz)


def _differs(X, acc, x, xy, z, yz, xy_z, x_yz) -> bool:
    """Whether acc + (xy)z - x(yz), summed into ``acc``, has an entry that
    is nonzero in X's field; False when some entry is unrecorded."""
    for t, c in xy.items():
        e = xy_z(t, z)
        if e is None:
            return False
        for w, v in e.items():
            acc[w] = acc.get(w, 0) + c * v
    for t, c in yz.items():
        e = x_yz(x, t)
        if e is None:
            return False
        for w, v in e.items():
            acc[w] = acc.get(w, 0) - c * v
    p = X.field.p
    return any(v % p for v in acc.values()) if p else any(acc.values())


def _unknown_label(X, Y, lbl, img):
    """The "label" violation of the entry lbl -> img of a map X -> Y when
    lbl is not a label of X or img names none of Y, else None; no check
    can read such an entry, so the validators skip its label."""
    missing = lbl if lbl not in X._deg else next((t for t in img if t not in Y._deg), None)
    return None if missing is None else Violation("label", (lbl,), f"{missing!r} is not a basis label")


def _chain(X, Y, phi, x, image) -> bool:
    """Whether phi(dx) = d(phi(x)) fails on recorded entries, for a label x
    of X with the given image in Y and phi the map on combinations."""
    dx = X.diff_of(x)
    if dx is None:
        return False
    rhs = Y.diff_combo(image, X.degree_of(x))
    return rhs is not None and not ceq(Y.field, phi(dx), rhs)


def _multiplicative(Y, phi, xy, x, dx, y, dy, entry) -> bool:
    """Whether phi(xy) = phi(x)phi(y) fails on recorded entries, for the
    product or action ``xy`` of two source labels with images x and y
    and ``entry`` the single-label product or action of Y."""
    if xy is None:
        return False
    rhs = Y._bilinear(x, dx, y, dy, entry)
    return rhs is not None and not ceq(Y.field, phi(xy), rhs)


def _labels(X) -> list:
    """The ``(label, degree)`` pairs of an algebra or module, in basis order."""
    return [(lbl, d) for d in X.degrees() for lbl in X.basis_at(d)]


def _degree_violations(X, table, U, V=None) -> list:
    """A "degree" violation for each entry of ``table`` with a term of X
    outside its target degree: |u| + |v| for the product or action
    ``table[(u, v)]`` of a label of U by one of V, |u| + 1 for the
    differential ``table[u]`` (no V).  An entry keyed by a label U or V
    lacks is skipped."""
    out, deg = [], X._deg
    for key, c in table.items():
        u, v = (key, None) if V is None else key
        n, m = U._deg.get(u), 1 if V is None else V._deg.get(v)
        if n is None or m is None:
            continue
        target = n + m
        for t in c:
            if deg.get(t) != target:
                out.append(Violation("degree", (u,) if V is None else key, f"a term is not in degree {target}"))
                break
    return out


def _degree_report(X) -> list:
    """The "degree" violations of X's own tables, in the order its
    ``_graded_tables`` names them (``mul`` then ``diff`` for an algebra,
    ``lact``, ``ract`` then ``diff`` for a module), computed once and kept
    on X under "degree"; a fresh list.  ``parse_document`` keeps the empty
    report on every object it builds."""
    return list(X.kept("degree", lambda: tuple(v for t in X._graded_tables() for v in _degree_violations(X, *t))))


def _connected_unital(A: DGAlgebra) -> list:
    """Connectedness and two-sided unit law violations."""
    F = A.field
    out = []
    # connectedness: nonnegative degrees, one-dimensional degree 0 spanned by unit
    if A.window.lo != 0:
        out.append(Violation("connectedness", (), f"window starts at {A.window.lo}, not 0"))
    for d in A.degrees():
        if d < 0:
            out.append(Violation("connectedness", tuple(A.basis_at(d)), f"basis in negative degree {d}"))
    if A.dim(0) != 1 or A.unit not in A.basis_at(0):
        out.append(Violation("connectedness", tuple(A.basis_at(0)), "degree-0 part is not k spanned by the unit"))

    for b, _ in _labels(A):
        left = A.product(A.unit, b)
        right = A.product(b, A.unit)
        want = {b: F.one()}
        if left is not None and not ceq(F, left, want):
            out.append(Violation("unit", (A.unit, b), "1*b differs from b"))
        if right is not None and not ceq(F, right, want):
            out.append(Violation("unit", (b, A.unit), "b*1 differs from b"))
    return out


def _generators(A: DGAlgebra):
    """The generators S of the module docstring for a connected unital A
    whose tables are graded.  A degree's products stop once they span it."""
    positive = [(a, da) for a, da in _labels(A) if da >= 1]
    gens = set()
    for n in A.degrees():
        if n < 1:
            continue
        decomposables, dim = Echelon(A.field), A.dim(n)
        for a, da in positive:
            if da >= n or len(decomposables) == dim:
                break
            for b in A.basis_at(n - da):
                if len(decomposables) == dim:
                    break
                decomposables.add(A.coords(A.product(a, b), n))
        gens.update(lbl for i, lbl in enumerate(A.basis_at(n)) if decomposables.add({i: A._one}))
    return gens


def _by_generators(enumerate_, gens, labels) -> list:
    """``enumerate_(gens)`` decides "no violation" when it finds none;
    otherwise, or with no generators, the report is ``enumerate_(labels)``."""
    if gens is not None and not enumerate_(gens):
        return []
    return enumerate_(labels)


def _associativity(A: DGAlgebra, firsts) -> list:
    """Associativity violations over the triples whose first factor is in
    ``firsts``."""
    mul, graded, hi = A.product, _labels(A), A.window.hi
    out = []
    for x, dx in graded:
        if x not in firsts:
            continue
        for y, dy in graded:
            xy = mul(x, y)
            for z, dz in graded:
                if dx + dy + dz > hi:
                    break
                if _associative(A, x, xy, z, mul(y, z), mul, mul):
                    out.append(Violation("associativity", (x, y, z), "(xy)z != x(yz)"))
    return out


def _algebra_leibniz(A: DGAlgebra, firsts) -> list:
    """Leibniz violations over the pairs whose first factor is in
    ``firsts``."""
    mul, labels = A.product, list(A._deg)
    return [
        Violation("leibniz", (x, y), "d(xy) != d(x)y + (-1)^|x| x d(y)")
        for x in labels if x in firsts
        for y in labels if _leibniz(A, mul, A, x, A, y)
    ]


def _checked(A: DGAlgebra) -> tuple:
    """``(verdict, violations)`` for A: the violations of the algebra
    axioms, and the generators S when there are none, else None.  Decided
    once per algebra and kept on it."""
    def decide():
        out = _connected_unital(A) + _degree_report(A)
        gens = None if out else _generators(A)
        out += _d_squared(A, "d(d(b)) is nonzero")
        assoc = _by_generators(lambda firsts: _associativity(A, firsts), gens, A._deg)
        firsts = None if gens is None or assoc else gens | {A.unit}
        out += _by_generators(lambda firsts: _algebra_leibniz(A, firsts), firsts, A._deg)
        out += assoc
        return (None if out else gens, tuple(out))

    return A.kept("checks", decide)


def validate_algebra(A: DGAlgebra) -> ValidationReport:
    """Check the connected cochain DG algebra axioms on the window.

    Violations are returned as data (axiom name plus witnessing basis
    tuple); an empty list certifies validity of the recorded tables.
    """
    return ValidationReport(A.name, list(_checked(A)[1]))


@dataclass
class AlgebraAutomorphism:
    """A degree-preserving DG algebra automorphism given on basis labels."""

    algebra: DGAlgebra
    images: dict  # label -> combination in the same degree

    def apply(self, c: dict) -> dict:
        F = self.algebra.field
        return cextend(F, c, lambda lbl: self.images.get(lbl, {lbl: F.one()}))


def identity_automorphism(A: DGAlgebra) -> AlgebraAutomorphism:
    return AlgebraAutomorphism(A, {lbl: {lbl: A.field.one()} for lbl in A._deg})


def validate_automorphism(alpha: AlgebraAutomorphism) -> ValidationReport:
    A = alpha.algebra
    F = A.field
    out, shifted, unknown = [], set(), set()
    for lbl, img in alpha.images.items():
        bad = _unknown_label(A, A, lbl, img)
        if bad:
            unknown.add(lbl)
            out.append(bad)
        elif any(A.degree_of(t) != A.degree_of(lbl) for t in img):
            shifted.add(lbl)
            out.append(Violation("degree", (lbl,), "image is not degree-preserving"))
    if not ceq(F, alpha.apply(A.unit_combo()), A.unit_combo()):
        out.append(Violation("unital", (A.unit,), "unit not fixed"))
    labels = [(lbl, d) for lbl, d in _labels(A) if lbl not in unknown]
    image = {a: alpha.apply({a: A._one}) for a, _ in labels}
    for a, da in labels:
        for b, db in labels:
            if _multiplicative(A, alpha.apply, A.product(a, b), image[a], da, image[b], db, A.product):
                out.append(Violation("multiplicative", (a, b), "alpha(ab) != alpha(a)alpha(b)"))
        if _chain(A, A, alpha.apply, a, image[a]):
            out.append(Violation("chain", (a,), "alpha does not commute with d"))
    # degreewise invertibility, in the degrees where alpha is graded
    for d in A.degrees():
        lbls = A.basis_at(d)
        if not shifted.isdisjoint(lbls) or not unknown.isdisjoint(lbls):
            continue
        rows = [A.coords(alpha.images.get(b, {b: F.one()}), d) for b in lbls]
        if len(Echelon.spanned_by(F, rows)) != len(lbls):
            out.append(Violation("invertible", tuple(lbls), f"not invertible in degree {d}"))
    return ValidationReport("automorphism", out)
