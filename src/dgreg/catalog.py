"""Parameterized builders for the example families used by the tests and
the command line: the square-zero algebra on a degree-1 generator, the
one-variable polynomial algebras, one-generator exterior algebras in odd
degree, ad-hoc finite tables, and the standard modules over them.
"""

from __future__ import annotations

from .algebra import DGAlgebra
from .fields import QQ, FieldSpec
from .homtensor import _free_bimodule
from .module import (
    BI,
    DGModule,
    ModuleMorphism,
    canonical_k,
    cone_of,
    free_module,
    hard_truncate,
    suspend,
)
from .resolution import kept_k
from .windows import GradedWindow, Trust

DEFAULT_ALGEBRA_WINDOW = GradedWindow(0, 16)
DEFAULT_MODULE_WINDOW = GradedWindow(-16, 16)


def square_zero_algebra(field: FieldSpec = QQ, window: GradedWindow | None = None) -> DGAlgebra:
    """k[T]/(T^2) with T in cohomological degree 1 and zero differential."""
    window = window or DEFAULT_ALGEBRA_WINDOW
    F = field
    return DGAlgebra(
        name="Lambda",
        field=F,
        window=window,
        basis={0: ("one",), 1: ("t",)},
        unit="one",
        mul={
            ("one", "one"): {"one": F.one()},
            ("one", "t"): {"t": F.one()},
            ("t", "one"): {"t": F.one()},
            ("t", "t"): {},
        },
        diff={},
        trust=Trust.everywhere(),
    )


def exterior_algebra(d: int, field: FieldSpec = QQ, window: GradedWindow | None = None) -> DGAlgebra:
    """k[x]/(x^2) with x in odd degree d, zero differential.

    Finite dimensional, so the whole torsion theory applies, yet not
    Koszul for d > 1; d = 1 recovers the square-zero algebra.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("exterior generator degree must be odd and positive")
    window = window or DEFAULT_ALGEBRA_WINDOW
    if d > window.hi:
        raise ValueError("generator degree outside window")
    F = field
    return DGAlgebra(
        name=f"Ext{d}",
        field=F,
        window=window,
        basis={0: ("one",), d: ("x",)},
        unit="one",
        mul={
            ("one", "one"): {"one": F.one()},
            ("one", "x"): {"x": F.one()},
            ("x", "one"): {"x": F.one()},
            ("x", "x"): {},
        },
        diff={},
        trust=Trust.everywhere(),
    )


def polynomial_algebra(d: int, field: FieldSpec = QQ, window: GradedWindow | None = None) -> DGAlgebra:
    """k[T] with T in cohomological degree d >= 1 and zero differential.

    Only the window's worth of powers is recorded; products landing
    above the window top stay unrecorded, so the presentation is trusted
    up to the window top and unknown beyond.
    """
    if d < 1:
        raise ValueError("generator degree must be >= 1")
    window = window or DEFAULT_ALGEBRA_WINDOW
    F = field
    top_pow = window.hi // d
    labels = {j: f"t{j}" for j in range(top_pow + 1)}
    basis = {j * d: (labels[j],) for j in range(top_pow + 1)}
    mul = {}
    for i in range(top_pow + 1):
        for j in range(top_pow + 1):
            if (i + j) * d <= window.hi:
                mul[(labels[i], labels[j])] = {labels[i + j]: F.one()}
    return DGAlgebra(
        name=f"Poly{d}",
        field=F,
        window=window,
        basis=basis,
        unit=labels[0],
        mul=mul,
        diff={},
        trust=Trust(None, window.hi),
    )


def ground_field_algebra(field: FieldSpec = QQ, window: GradedWindow | None = None) -> DGAlgebra:
    """The ground field itself as a DG algebra."""
    window = window or DEFAULT_ALGEBRA_WINDOW
    F = field
    return DGAlgebra(
        name="k",
        field=F,
        window=window,
        basis={0: ("one",)},
        unit="one",
        mul={("one", "one"): {"one": F.one()}},
        diff={},
        trust=Trust.everywhere(),
    )


def finite_table_algebra(
    name: str,
    field: FieldSpec,
    basis: dict,
    unit: str,
    mul: dict,
    diff: dict,
    window: GradedWindow | None = None,
    complete: bool = True,
) -> DGAlgebra:
    """Wrap an explicit finite multiplication/differential table."""
    window = window or DEFAULT_ALGEBRA_WINDOW
    return DGAlgebra(
        name=name,
        field=field,
        window=window,
        basis=basis,
        unit=unit,
        mul=mul,
        diff=diff,
        trust=Trust.everywhere() if complete else Trust(None, window.hi),
    )


ALGEBRA_FAMILIES = ("square-zero", "polynomial", "exterior", "ground-field")


def build_algebra(family: str, *, field: FieldSpec = QQ, d: int = 1,
                  window: GradedWindow | None = None) -> DGAlgebra:
    """The catalog algebra of a family; each is connected, so a given
    window must start at degree 0."""
    if window is not None and window.lo != 0:
        raise ValueError(f"catalog algebras are connected: window starts at {window.lo}, not 0")
    if family == "square-zero":
        return square_zero_algebra(field, window)
    if family == "polynomial":
        return polynomial_algebra(d, field, window)
    if family == "exterior":
        return exterior_algebra(d, field, window)
    if family == "ground-field":
        return ground_field_algebra(field, window)
    raise ValueError(f"unknown family {family!r}; known: {', '.join(ALGEBRA_FAMILIES)}")


MODULE_KINDS = ("k", "free", "suspended-k", "truncated-free", "cone-id")


def build_module(A: DGAlgebra, which: str, *, side: str = BI, n: int = 0, level: int = 1) -> DGModule:
    """Standard catalog modules over A.

    k: the canonical module A/A^{>=1}; free: A over itself;
    suspended-k: S^n k; truncated-free: A^{>= level};
    cone-id: the contractible cone of the identity of A.
    """
    if which == "k":
        return canonical_k(A, side=side)
    if which == "free":
        return free_module(A, side=side)
    if which == "suspended-k":
        return suspend(canonical_k(A, side=side), n, name=f"S{n}k")
    if which == "truncated-free":
        return hard_truncate(free_module(A, side=side), level).sub
    if which == "cone-id":
        free = free_module(A, side=side)
        ident = ModuleMorphism(free, free, {lbl: {lbl: A.field.one()} for lbl in free._deg})
        return cone_of(ident, name="cone_id")
    raise ValueError(f"unknown module kind {which!r}; known: {', '.join(MODULE_KINDS)}")


def document_text(family: str, *, field: FieldSpec = QQ, d: int = 1,
                  window: GradedWindow | None = None) -> str:
    """The text-format document for a catalog algebra together with its
    canonical module and free module."""
    from .textformat import Document, emit_document

    A = build_algebra(family, field=field, d=d, window=window)
    doc = Document(
        algebras={A.name: A},
        modules={"k": canonical_k(A, side=BI, name="k"),
                 "free": free_module(A, name="free", side=BI)},
    )
    return emit_document(doc)


def catalog_algebras(field: FieldSpec = QQ):
    """The default sweep of algebras: three finite-dimensional ones, the
    three smallest polynomial algebras, and the ground field."""
    return [
        square_zero_algebra(field),
        exterior_algebra(3, field),
        ground_field_algebra(field),
        polynomial_algebra(1, field),
        polynomial_algebra(2, field),
        polynomial_algebra(3, field),
    ]


def catalog_pairs(field: FieldSpec = QQ):
    """(algebra, module) pairs for the regularity and duality sweeps, over
    the six algebra objects of :func:`catalog_algebras`, so that what is
    kept on an algebra is computed once per sweep.  Each algebra's k and
    free module are the ones kept on it (``resolution.kept_k`` and
    ``homtensor._free_bimodule``), so Extreg k and CMreg A read what the
    pairs' own modules keep."""
    algebras = catalog_algebras(field)
    pairs = [(A, M) for A in algebras for M in (kept_k(A), _free_bimodule(A))]
    Lam, P2 = algebras[0], algebras[4]
    pairs.append((Lam, build_module(Lam, "suspended-k", n=2)))
    pairs.append((Lam, build_module(Lam, "truncated-free", level=1)))
    pairs.append((P2, build_module(P2, "truncated-free", level=1)))
    return pairs
