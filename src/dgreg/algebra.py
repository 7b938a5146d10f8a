"""Presentations of connected cochain DG algebras on finite degree windows.

An algebra lives in nonnegative cohomological degrees with a
one-dimensional degree-0 part spanned by the unit.  Multiplication and
differential are stored degreewise on basis labels; a product whose
target degree exceeds the window top is *unrecorded* (returned as None),
never silently zero.  Validation reports violated axioms as data with
witnessing basis tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import FieldSpec
from .lincomb import cadd, ceq, cclean, cscale, czero, to_sparse, to_vector
from .linalg import Matrix, rank
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


@dataclass
class DGAlgebra:
    """A connected cochain DG algebra given degreewise by bases and tables.

    ``mul[(a, b)]`` is the combination for a*b (stored only when
    ``|a|+|b| <= window.hi``); ``diff[a]`` the combination for da.
    Missing in-window entries mean zero.  ``trust`` is the degree range
    on which the presentation agrees with the unbounded object.
    """

    name: str
    field: FieldSpec
    window: GradedWindow
    basis: dict          # degree -> tuple of labels
    unit: str
    mul: dict            # (label, label) -> combination
    diff: dict           # label -> combination
    trust: Trust = dc_field(default_factory=Trust.everywhere)

    def __post_init__(self):
        self.basis = {d: tuple(lbls) for d, lbls in sorted(self.basis.items()) if lbls}
        self._deg = {}
        for d, lbls in self.basis.items():
            for lbl in lbls:
                if lbl in self._deg:
                    raise ValueError(f"duplicate basis label {lbl!r}")
                self._deg[lbl] = d
        cleaned = {k: cclean(self.field, v) for k, v in self.mul.items()}
        self.mul = {k: v for k, v in cleaned.items() if v}
        self.diff = {k: cclean(self.field, v) for k, v in self.diff.items() if v}
        self.diff = {k: v for k, v in self.diff.items() if v}

    # -- structure lookups ----------------------------------------------

    def degree_of(self, lbl: str) -> int:
        return self._deg[lbl]

    def basis_at(self, d: int) -> tuple:
        return self.basis.get(d, ())

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def degrees(self):
        return sorted(self.basis)

    @property
    def complete(self) -> bool:
        return self.trust.is_everywhere

    def product(self, a: str, b: str):
        """Combination for a*b; None when the target degree is unrecorded.

        Above-window targets are unrecorded only for truncated
        presentations; a fully trusted algebra vanishes up there.
        """
        target = self._deg[a] + self._deg[b]
        if target > self.window.hi:
            return czero() if self.trust.hi is None else None
        return self.mul.get((a, b), czero())

    def diff_of(self, lbl: str):
        """Combination for d(lbl), or None when the target is unrecorded."""
        if self._deg[lbl] + 1 > self.window.hi:
            return czero() if self.trust.hi is None else None
        return self.diff.get(lbl, czero())

    def mul_combo(self, x, dx: int, y, dy: int):
        """Product of two degree-homogeneous combinations; None if unrecorded."""
        if x is None or y is None:
            return None
        if dx + dy > self.window.hi:
            return czero() if self.trust.hi is None else None
        F = self.field
        out = czero()
        for a, ca in x.items():
            for b, cb in y.items():
                prod = self.product(a, b)
                if prod is None:
                    return None
                out = cadd(F, out, cscale(F, F.mul(ca, cb), prod))
        return out

    def diff_combo(self, x, dx: int):
        if x is None:
            return None
        if dx + 1 > self.window.hi:
            return czero() if self.trust.hi is None else None
        F = self.field
        out = czero()
        for a, ca in x.items():
            da = self.diff_of(a)
            if da is None:
                return None
            out = cadd(F, out, cscale(F, ca, da))
        return out

    def unit_combo(self) -> dict:
        return {self.unit: self.field.one()}

    # -- derived algebras -------------------------------------------------

    def opposite(self) -> "DGAlgebra":
        """The graded-opposite algebra: a *op b = (-1)^{|a||b|} b a."""
        F = self.field
        mul_op = {}
        for (a, b), combo in self.mul.items():
            s = F.sign(self._deg[a] * self._deg[b])
            mul_op[(b, a)] = cscale(F, s, combo)
        return DGAlgebra(
            name=self.name + "_op",
            field=F,
            window=self.window,
            basis=dict(self.basis),
            unit=self.unit,
            mul=mul_op,
            diff=dict(self.diff),
            trust=self.trust,
        )


def diff_columns(X, d: int) -> list:
    """Sparse columns of the differential X^d -> X^{d+1} of an algebra or
    module: one ``{position: scalar}`` per basis element of degree d,
    read straight from the diff table."""
    src, tgt = X.basis_at(d), X.basis_at(d + 1)
    if not tgt:
        return [{} for _ in src]
    index = {lbl: i for i, lbl in enumerate(tgt)}
    return [to_sparse(X.field, X.diff.get(b, {}), index) for b in src]


def validate_algebra(A: DGAlgebra) -> ValidationReport:
    """Check the connected cochain DG algebra axioms on the window.

    Violations are returned as data (axiom name plus witnessing basis
    tuple); an empty list certifies validity of the recorded tables.
    """
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

    all_labels = [lbl for d in A.degrees() for lbl in A.basis_at(d)]

    # two-sided unit law
    for b in all_labels:
        left = A.product(A.unit, b)
        right = A.product(b, A.unit)
        want = {b: F.one()}
        if left is not None and not ceq(F, left, want):
            out.append(Violation("unit", (A.unit, b), "1*b differs from b"))
        if right is not None and not ceq(F, right, want):
            out.append(Violation("unit", (b, A.unit), "b*1 differs from b"))

    # d^2 = 0 where both steps are recorded
    for b in all_labels:
        d1 = A.diff_of(b)
        if d1 is None:
            continue
        d2 = A.diff_combo(d1, A.degree_of(b) + 1)
        if d2 is not None and d2:
            out.append(Violation("d-squared", (b,), "d(d(b)) is nonzero"))

    # Leibniz: d(xy) = d(x)y + (-1)^{|x|} x d(y) on recorded pairs
    for x in all_labels:
        for y in all_labels:
            dx, dy = A.degree_of(x), A.degree_of(y)
            if dx + dy + 1 > A.window.hi:
                continue
            xy = A.product(x, y)
            lhs = A.diff_combo(xy, dx + dy)
            t1 = A.mul_combo(A.diff_of(x), dx + 1, {y: F.one()}, dy)
            t2 = A.mul_combo({x: F.one()}, dx, A.diff_of(y), dy + 1)
            if lhs is None or t1 is None or t2 is None:
                continue
            rhs = cadd(F, t1, cscale(F, F.sign(dx), t2))
            if not ceq(F, lhs, rhs):
                out.append(Violation("leibniz", (x, y), "d(xy) != d(x)y + (-1)^|x| x d(y)"))

    # associativity on recorded triples
    for x in all_labels:
        for y in all_labels:
            dxy = A.degree_of(x) + A.degree_of(y)
            for z in all_labels:
                if dxy + A.degree_of(z) > A.window.hi:
                    continue
                xy = A.product(x, y)
                yz = A.product(y, z)
                if xy is None or yz is None:
                    continue
                lhs = A.mul_combo(xy, dxy, {z: F.one()}, A.degree_of(z))
                rhs = A.mul_combo({x: F.one()}, A.degree_of(x), yz, A.degree_of(y) + A.degree_of(z))
                if lhs is None or rhs is None:
                    continue
                if not ceq(F, lhs, rhs):
                    out.append(Violation("associativity", (x, y, z), "(xy)z != x(yz)"))

    return ValidationReport(A.name, out)


@dataclass
class AlgebraAutomorphism:
    """A degree-preserving DG algebra automorphism given on basis labels."""

    algebra: DGAlgebra
    images: dict  # label -> combination in the same degree

    def apply(self, c: dict) -> dict:
        F = self.algebra.field
        out = czero()
        for lbl, s in c.items():
            out = cadd(F, out, cscale(F, s, self.images.get(lbl, {lbl: F.one()})))
        return out


def identity_automorphism(A: DGAlgebra) -> AlgebraAutomorphism:
    return AlgebraAutomorphism(A, {lbl: {lbl: A.field.one()} for lbl in A._deg})


def validate_automorphism(alpha: AlgebraAutomorphism) -> ValidationReport:
    A = alpha.algebra
    F = A.field
    out = []
    for lbl, img in alpha.images.items():
        d = A.degree_of(lbl)
        if any(A.degree_of(t) != d for t in img):
            out.append(Violation("degree", (lbl,), "image is not degree-preserving"))
    if not ceq(F, alpha.apply(A.unit_combo()), A.unit_combo()):
        out.append(Violation("unital", (A.unit,), "unit not fixed"))
    labels = [lbl for d in A.degrees() for lbl in A.basis_at(d)]
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
    # degreewise invertibility
    for d in A.degrees():
        lbls = A.basis_at(d)
        mat = Matrix.from_rows(
            F, [list(to_vector(F, alpha.images.get(b, {b: F.one()}), lbls)) for b in lbls]
        )
        if rank(mat) != len(lbls):
            out.append(Violation("invertible", tuple(lbls), f"not invertible in degree {d}"))
    return ValidationReport("automorphism", out)
