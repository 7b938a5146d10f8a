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
three functions (``_d_squared``, ``_leibniz``, ``_associative``).

Associativity and Leibniz are checked over generators.  A is connected,
so lifts S of a basis of the indecomposables A^{>=1}/(A^{>=1})^2
generate it (``_generators`` keeps, in each degree n >= 1, the labels
that enlarge the echelon of the products A^i A^j with i + j = n and
i, j >= 1).  If the unit law holds and (xy)z = x(yz) whenever x lies in
S, it holds on every triple, by induction on word length; every product
that induction uses lies in a degree <= |x|+|y|+|z|, so it is recorded
whenever the triple is.  The same induction covers left-action
associativity and bimodule commutation with the first factor in S, and
right-action associativity with the last factor in S.

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
connected and unital, its product and action tables are graded and the
products S is computed from are recorded.  Algebra Leibniz needs A
associative by its reduced check too.  A module's checks need A's whole
reduced report empty (``_checked`` decides it once per algebra) and the
unit to act as the identity on each side the module has, and module
Leibniz needs action associativity and bimodule commutation over S to
find nothing.  If a precondition fails, or a reduced check finds a
violation, the same enumeration runs over every label and gives the
report.

The above-window rule: an entry whose target degree exceeds the window
top is zero when the presentation is complete (trusted with no upper
bound) and *unrecorded*, returned as None, when it is truncated; it is
never silently zero there.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field

from .fields import FieldSpec
from .lincomb import cadd, ceq, cclean, cextend, cscale, czero, to_sparse
from .linalg import Echelon
from .windows import GradedWindow, Trust


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
    tables in ``_tables``, and calls :meth:`_index` from its ``_prepare``,
    which the constructor and :meth:`_built` run.
    """

    _label_kind = "basis"

    def _index(self, clean: bool):
        """Sort the basis by degree, map each label to its degree and to
        its position in its degree, keep the field's zero and one for the
        hot loops, and with ``clean`` replace each table named in
        ``_tables`` by its :meth:`_clean` copy."""
        self._zero, self._one = self.field.zero(), self.field.one()
        self.basis = {d: tuple(lbls) for d, lbls in sorted(self.basis.items()) if lbls}
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
        """A fresh copy of a table with zero coefficients and entries dropped."""
        F = self.field
        return {k: v for k, v in ((k, cclean(F, c)) for k, c in table.items()) if v}

    def __post_init__(self):
        self._prepare(clean=True)

    @classmethod
    def _built(cls, **fields):
        """An instance on tables the library built itself, each already
        clean (no zero scalar, no empty combination): the constructor,
        given every field, without the :meth:`_clean` copies.  Parsed,
        catalog and user-built presentations go through the constructor
        and are cleaned."""
        self = cls.__new__(cls)
        # in the constructor's order, so that instances share one key layout
        for f in dataclasses.fields(cls):
            setattr(self, f.name, fields[f.name])
        self._prepare(clean=False)
        return self

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
    alone is computed once and kept on the object, in one store read
    through :meth:`kept`: the opposite algebra, the validation verdict, A
    as a bimodule over itself, and the torsion objects of
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
        self._kept = {}

    def kept(self, key, build):
        """The value ``build()`` computed once for A and kept under ``key``."""
        store = self._kept
        if key not in store:
            store[key] = build()
        return store[key]

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
        op = DGAlgebra._built(
            name=self.name + "_op",
            field=F,
            window=self.window,
            basis=self.basis,
            unit=self.unit,
            mul=mul_op,
            diff=self.diff,
            trust=self.trust,
        )
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
    in X (the multiplication of an algebra, or an action on a module)."""
    du, dv = U.degree_of(u), V.degree_of(v)
    if du + dv + 1 > X.window.hi:
        return False
    F = X.field
    lhs = X.diff_combo(entry(u, v), du + dv)
    t1 = X._bilinear(U.diff_of(u), du + 1, {v: X._one}, dv, entry)
    t2 = X._bilinear({u: X._one}, du, V.diff_of(v), dv + 1, entry)
    if lhs is None or t1 is None or t2 is None:
        return False
    return not ceq(F, lhs, cadd(F, t1, cscale(F, F.sign(du), t2)))


def _associative(X, x, dx, y, dy, z, dz, xy_of, yz_of, xy_z, x_yz) -> bool:
    """Whether (xy)z = x(yz) fails on recorded entries in X.  ``xy_of`` and
    ``yz_of`` are the single-label lookups of the inner products; ``xy_z``
    multiplies a label of xy by z, and ``x_yz`` x by a label of yz."""
    if dx + dy + dz > X.window.hi:
        return False
    xy, yz = xy_of(x, y), yz_of(y, z)
    if xy is None or yz is None:
        return False
    lhs = X._bilinear(xy, dx + dy, {z: X._one}, dz, xy_z)
    rhs = X._bilinear({x: X._one}, dx, yz, dy + dz, x_yz)
    return lhs is not None and rhs is not None and not ceq(X.field, lhs, rhs)


def _labels(X) -> list:
    """The ``(label, degree)`` pairs of an algebra or module, in basis order."""
    return [(lbl, d) for d in X.degrees() for lbl in X.basis_at(d)]


def _graded(table, X, U, V) -> bool:
    """Whether each entry ``table[(u, v)]``, with u a label of U and v one
    of V, is a combination of labels of X in degree |u| + |v|."""
    for (u, v), c in table.items():
        if u in U._deg and v in V._deg:
            n = U._deg[u] + V._deg[v]
            if any(X._deg.get(t) != n for t in c):
                return False
    return True


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
    """The generators S of the module docstring, or None when A is not
    connected and unital, its product table is not graded, or a product
    S is computed from is unrecorded."""
    if _connected_unital(A) or not _graded(A.mul, A, A, A):
        return None
    positive = [(a, da) for a, da in _labels(A) if da >= 1]
    gens = set()
    for n in A.degrees():
        if n < 1:
            continue
        decomposables = Echelon(A.field)
        for a, da in positive:
            if da >= n:
                break
            for b in A.basis_at(n - da):
                ab = A.product(a, b)
                if ab is None:
                    return None
                decomposables.add(A.coords(ab, n))
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
    mul, graded = A.product, _labels(A)
    out = []
    for x, dx in graded:
        if x not in firsts:
            continue
        for y, dy in graded:
            for z, dz in graded:
                if _associative(A, x, dx, y, dy, z, dz, mul, mul, mul, mul):
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
        gens = _generators(A)
        out = _connected_unital(A)
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
        missing = [t for t in (lbl, *img) if t not in A._deg]
        if missing:
            # no loop below can read such an image, so they skip its label
            unknown.add(lbl)
            out.append(Violation("label", (lbl,), f"{missing[0]!r} is not a basis label"))
        elif any(A.degree_of(t) != A.degree_of(lbl) for t in img):
            shifted.add(lbl)
            out.append(Violation("degree", (lbl,), "image is not degree-preserving"))
    if not ceq(F, alpha.apply(A.unit_combo()), A.unit_combo()):
        out.append(Violation("unital", (A.unit,), "unit not fixed"))
    labels = [lbl for d in A.degrees() for lbl in A.basis_at(d) if lbl not in unknown]
    for a in labels:
        for b in labels:
            prod = A.product(a, b)
            if prod is None:
                continue
            lhs = alpha.apply(prod)
            rhs = A.mul_combo(
                alpha.apply({a: F.one()}), A.degree_of(a), alpha.apply({b: F.one()}), A.degree_of(b)
            )
            if rhs is not None and not ceq(F, lhs, rhs):
                out.append(Violation("multiplicative", (a, b), "alpha(ab) != alpha(a)alpha(b)"))
        da = A.diff_of(a)
        if da is not None:
            lhs = alpha.apply(da)
            rhs = A.diff_combo(alpha.apply({a: F.one()}), A.degree_of(a))
            if rhs is not None and not ceq(F, lhs, rhs):
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
