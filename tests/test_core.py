"""dg-core: validation, cohomology, truncation, suspension, duals, twists."""

import copy
import dataclasses
import hashlib
from fractions import Fraction

import pytest

from dgreg.algebra import AlgebraAutomorphism, DGAlgebra, identity_automorphism, validate_algebra
from dgreg.catalog import (
    MODULE_KINDS,
    build_module,
    catalog_algebras,
    exterior_algebra,
    ground_field_algebra,
    polynomial_algebra,
    square_zero_algebra,
)
from dgreg.fields import QQ, GF
from dgreg.module import (
    DGModule,
    canonical_k,
    cohomology,
    free_module,
    hard_truncate,
    linear_dual,
    suspend,
    twist,
    validate_module,
    zero_module,
)
from dgreg.windows import GradedWindow, Trust


# ---- validation -----------------------------------------------------------

def test_square_zero_is_valid():
    rep = validate_algebra(square_zero_algebra())
    assert rep.ok


def test_polynomial_is_valid():
    for d in (1, 2, 3):
        assert validate_algebra(polynomial_algebra(d)).ok
        assert validate_algebra(polynomial_algebra(d, GF(7))).ok


def test_two_degree_zero_elements_violate_connectedness():
    F = QQ
    A = DGAlgebra(
        name="bad",
        field=F,
        window=GradedWindow(0, 4),
        basis={0: ("one", "e")},
        unit="one",
        mul={("one", "one"): {"one": F.one()}},
        diff={},
    )
    rep = validate_algebra(A)
    assert any(v.axiom == "connectedness" for v in rep.violations)


def test_leibniz_violation_is_caught_with_witness():
    # dx = y, x*x = y, x*y = z but y*x = 0: expanding d on (x, x) gives
    # d(x^2) = d(y) = 0 while dx*x - x*dx = y*x - x*y = -z.
    F = QQ
    A = DGAlgebra(
        name="bad-leibniz",
        field=F,
        window=GradedWindow(0, 4),
        basis={0: ("one",), 1: ("x",), 2: ("y",), 3: ("z",)},
        unit="one",
        mul={
            ("one", "one"): {"one": F.one()},
            ("one", "x"): {"x": F.one()}, ("x", "one"): {"x": F.one()},
            ("one", "y"): {"y": F.one()}, ("y", "one"): {"y": F.one()},
            ("one", "z"): {"z": F.one()}, ("z", "one"): {"z": F.one()},
            ("x", "x"): {"y": F.one()},
            ("x", "y"): {"z": F.one()},
        },
        diff={"x": {"y": F.one()}},
    )
    rep = validate_algebra(A)
    leib = [v for v in rep.violations if v.axiom == "leibniz"]
    assert leib and ("x", "x") in [v.witness for v in leib]


def test_d_squared_violation():
    F = QQ
    A = DGAlgebra(
        name="bad-dsq",
        field=F,
        window=GradedWindow(0, 4),
        basis={0: ("one",), 1: ("x",), 2: ("y",), 3: ("z",)},
        unit="one",
        mul={
            ("one", "one"): {"one": F.one()},
            ("one", "x"): {"x": F.one()}, ("x", "one"): {"x": F.one()},
            ("one", "y"): {"y": F.one()}, ("y", "one"): {"y": F.one()},
            ("one", "z"): {"z": F.one()}, ("z", "one"): {"z": F.one()},
        },
        diff={"x": {"y": F.one()}, "y": {"z": F.one()}},
    )
    rep = validate_algebra(A)
    assert any(v.axiom == "d-squared" and v.witness == ("x",) for v in rep.violations)


def _ungraded_pair(F, mul=(), lact=(), diff=(), mdiff=()):
    """One, t (degree 1) and u (degree 2) over F, with the unit law and the
    extra product entries ``mul``; a left module on m (degree 0) and n
    (degree 1) with the unit action and the extra entries ``lact``."""
    one = F.one()
    table = {("one", b): {b: one} for b in ("one", "t", "u")}
    table.update({(b, "one"): {b: one} for b in ("t", "u")})
    A = DGAlgebra(name="A", field=F, window=GradedWindow(0, 4),
                  basis={0: ("one",), 1: ("t",), 2: ("u",)}, unit="one",
                  mul={**table, **dict(mul)}, diff=dict(diff))
    M = DGModule(name="M", algebra=A, side="left", window=GradedWindow(0, 4),
                 basis={0: ("m",), 1: ("n",)},
                 lact={("one", "m"): {"m": one}, ("one", "n"): {"n": one}, **dict(lact)},
                 ract={}, diff=dict(mdiff))
    return A, M


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_an_entry_outside_its_degree_is_a_degree_violation(field):
    one = field.one()
    # t*t = t and t.m = m land one degree low: both were reported valid
    A, M = _ungraded_pair(field, mul={("t", "t"): {"t": one}}, lact={("t", "m"): {"m": one}})
    assert [(v.axiom, v.witness) for v in validate_algebra(A).violations] == [("degree", ("t", "t"))]
    assert [(v.axiom, v.witness) for v in validate_module(M).violations] == [("degree", ("t", "m"))]
    # a differential is checked against |x| + 1, on the algebra and the module
    A, M = _ungraded_pair(field, diff={"t": {"t": one}}, mdiff={"m": {"m": one}})
    assert ("degree", ("t",)) in [(v.axiom, v.witness) for v in validate_algebra(A).violations]
    assert ("degree", ("m",)) in [(v.axiom, v.witness) for v in validate_module(M).violations]
    # a graded pair has none
    A, M = _ungraded_pair(field, mul={("t", "t"): {"u": one}}, lact={("t", "m"): {"n": one}})
    assert validate_algebra(A).ok and validate_module(M).ok


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_the_resolver_refuses_a_module_outside_its_degrees(field):
    """t.m = m with |t| = 1 lands a degree low: the resolver names that
    degree violation, read from the report kept on M, instead of failing
    on a label it cannot place."""
    from dgreg.resolution import semifree_resolve

    one = field.one()
    _, M = _ungraded_pair(field, mul={("t", "t"): {"t": one}}, lact={("t", "m"): {"m": one}})
    with pytest.raises(ValueError, match=r"degree violation at \('t', 'm'\)"):
        semifree_resolve(M, 3)
    assert M._kept["degree"][0].witness == ("t", "m")
    # a graded module over the same ungraded algebra still resolves
    _, M = _ungraded_pair(field, mul={("t", "t"): {"t": one}}, lact={("t", "m"): {"n": one}})
    assert semifree_resolve(M, 3).gens


def test_catalog_modules_are_valid():
    for A in (square_zero_algebra(), polynomial_algebra(2), exterior_algebra(3)):
        for kind in ("k", "free", "suspended-k", "truncated-free", "cone-id"):
            M = build_module(A, kind, n=2)
            assert validate_module(M).ok, (A.name, kind)


# Sha256 over the repr of one record per catalog builder call below: every
# table in its dict insertion order, the trust, and every refusal's type and
# message.  A catalog rebuilt another way (say, from presentations) must
# keep it.
PINNED_CATALOG_SHA256 = "a74e5891c71555d62feb9ad16c9382d9cb40e576a9fa26a6fd30cb9a2a67c2b3"


def _catalog_record(build):
    try:
        A = build()
    except Exception as e:
        return (type(e).__name__, str(e))
    return (A.name, A.unit, str(A.window), str(A.trust), tuple(A.basis.items()),
            tuple((k, tuple(c.items())) for k, c in A.mul.items()),
            tuple((k, tuple(c.items())) for k, c in A.diff.items()), str(A.field))


def test_catalog_tables_are_pinned():
    records = []
    for field in (QQ, GF(2), GF(7)):
        for window in (None, GradedWindow(0, 0), GradedWindow(0, 1), GradedWindow(0, 5),
                       GradedWindow(0, 48)):
            records.append(_catalog_record(lambda: square_zero_algebra(field, window)))
            records.append(_catalog_record(lambda: ground_field_algebra(field, window)))
            for d in range(8):
                records.append(_catalog_record(lambda: exterior_algebra(d, field, window)))
                records.append(_catalog_record(lambda: polynomial_algebra(d, field, window)))
    assert len(records) == 270
    assert hashlib.sha256(repr(records).encode()).hexdigest() == PINNED_CATALOG_SHA256


# ---- scalars are brought into the field at construction ----------------------

def _f7_module(lact):
    return DGModule(name="M", algebra=square_zero_algebra(GF(7)), side="left",
                    window=GradedWindow(0, 1), basis={0: ("m",), 1: ("n",)},
                    lact=lact, ract={}, diff={})


def test_unit_action_is_read_in_the_field():
    # 8 = 1 in F_7
    M = _f7_module({("one", "m"): {"m": 8}, ("one", "n"): {"n": 1}})
    assert M.lact[("one", "m")] == {"m": 1}
    assert validate_module(M).ok


def test_unit_law_is_read_in_the_field():
    from dgreg.catalog import finite_table_algebra

    A = finite_table_algebra("A", GF(7), {0: ("one",)}, "one", {("one", "one"): {"one": 8}}, {})
    assert validate_algebra(A).ok


def test_a_vanishing_scalar_is_neither_stored_nor_emitted():
    from dgreg.textformat import Document, emit_document, parse_document

    M = _f7_module({("one", "m"): {"m": 1}, ("one", "n"): {"n": 1}, ("t", "m"): {"n": 7}})
    assert ("t", "m") not in M.lact
    text = emit_document(Document(algebras={"Lambda": M.algebra}, modules={"M": M}))
    assert "7*" not in text
    back = parse_document(text).module("M")
    assert (back.lact, back.ract, back.diff) == (M.lact, M.ract, M.diff)


def test_rational_scalars_are_stored_in_their_one_representation():
    A = DGAlgebra(name="k", field=QQ, window=GradedWindow(0, 2), basis={0: ("one",)}, unit="one",
                  mul={("one", "one"): {"one": Fraction(2, 2)}}, diff={})
    c = A.mul[("one", "one")]["one"]
    assert c == 1 and type(c) is int


def test_a_float_scalar_is_refused_at_construction():
    from dgreg.fields import FieldMismatchError

    with pytest.raises(FieldMismatchError):
        _f7_module({("one", "m"): {"m": 1}, ("one", "n"): {"n": 0.5}})
    with pytest.raises(FieldMismatchError):
        DGAlgebra(name="k", field=QQ, window=GradedWindow(0, 2), basis={0: ("one",)}, unit="one",
                  mul={("one", "one"): {"one": 0.5}}, diff={})


# ---- cohomology -----------------------------------------------------------

def test_cohomology_of_square_zero_algebra():
    rep = cohomology(square_zero_algebra())
    assert rep.dims == {0: 1, 1: 1}


def test_cohomology_with_differential():
    # basis 1, x(deg1), y(deg2); dx = y, all positive products zero
    F = QQ
    A = DGAlgebra(
        name="acyclicish",
        field=F,
        window=GradedWindow(0, 4),
        basis={0: ("one",), 1: ("x",), 2: ("y",)},
        unit="one",
        mul={
            ("one", "one"): {"one": F.one()},
            ("one", "x"): {"x": F.one()}, ("x", "one"): {"x": F.one()},
            ("one", "y"): {"y": F.one()}, ("y", "one"): {"y": F.one()},
        },
        diff={"x": {"y": F.one()}},
    )
    assert validate_algebra(A).ok
    rep = cohomology(A)
    assert rep.dims == {0: 1}


def test_cohomology_of_zero_module():
    rep = cohomology(zero_module(square_zero_algebra()))
    assert rep.dims == {}
    assert rep.inf_degree == float("inf")
    assert rep.sup_degree == float("-inf")


# ---- truncation -----------------------------------------------------------

def test_truncate_square_zero_at_one():
    Lam = square_zero_algebra()
    tr = hard_truncate(free_module(Lam), 1)
    assert tr.sub.basis == {1: ("t",)}
    assert tr.quot.basis == {0: ("one",)}
    assert validate_module(tr.sub).ok and validate_module(tr.quot).ok
    assert tr.inclusion.validate().ok and tr.projection.validate().ok


def test_truncate_below_window_is_identity():
    Lam = square_zero_algebra()
    M = free_module(Lam)
    tr = hard_truncate(M, M.window.lo)
    assert tr.sub.basis == M.basis
    assert tr.quot.total_dim() == 0


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_truncate_above_the_window_top(field):
    # nothing lies at or above hi + 1: the truncation is 0 and the quotient is M
    for A in catalog_algebras(field):
        for kind in MODULE_KINDS:
            for side in ("left", "right", "bi"):
                M = build_module(A, kind, side=side)
                tr = hard_truncate(M, M.window.hi + 1)
                assert tr.sub.total_dim() == 0, (A.name, kind, side)
                assert (tr.quot.basis, tr.quot.lact, tr.quot.ract, tr.quot.diff) == (M.basis, M.lact, M.ract, M.diff)
                assert validate_module(tr.sub).ok and validate_module(tr.quot).ok
                assert tr.inclusion.validate().ok and tr.projection.validate().ok


def test_truncate_polynomial():
    P = polynomial_algebra(2)
    tr = hard_truncate(free_module(P), 1)
    assert all(d >= 1 for d in tr.sub.degrees())
    assert tr.quot.basis == {0: ("t0",)}
    # exactness of dimensions degree by degree
    M = free_module(P)
    for d in M.window.degrees():
        assert M.dim(d) == tr.sub.dim(d) + tr.quot.dim(d)


# ---- suspension -----------------------------------------------------------

def test_suspend_zero_is_identity():
    M = canonical_k(square_zero_algebra())
    assert suspend(M, 0) is M


def test_suspend_shifts_cohomology():
    Lam = square_zero_algebra()
    M = free_module(Lam)
    h = cohomology(M).dims
    for n in (-2, -1, 1, 3):
        hs = cohomology(suspend(M, n)).dims
        assert hs == {d - n: v for d, v in h.items()}


def test_suspend_polynomial_generator_degree():
    P = polynomial_algebra(2)
    M = suspend(free_module(P), -2)
    assert M.degree_of("t0") == 2
    assert validate_module(M).ok


def test_suspended_module_valid_odd_shift():
    Lam = square_zero_algebra()
    assert validate_module(suspend(free_module(Lam), 1)).ok
    assert validate_module(suspend(free_module(Lam), -3)).ok


# ---- linear dual ----------------------------------------------------------

def test_dual_of_square_zero():
    Lam = square_zero_algebra()
    D = linear_dual(free_module(Lam))
    assert {d: len(b) for d, b in D.basis.items()} == {-1: 1, 0: 1}
    assert validate_module(D).ok
    assert D.side == "bi"


def test_dual_of_k():
    k = canonical_k(square_zero_algebra(), side="left")
    D = linear_dual(k)
    assert D.side == "right"
    assert {d: len(b) for d, b in D.basis.items()} == {0: 1}
    assert validate_module(D).ok


def test_double_dual_dimensions():
    for A in (square_zero_algebra(), exterior_algebra(3)):
        M = free_module(A)
        DD = linear_dual(linear_dual(M))
        assert {d: M.dim(d) for d in M.degrees()} == {d: DD.dim(d) for d in DD.degrees()}
        assert validate_module(DD).ok


def test_dual_flips_dimensions():
    M = free_module(polynomial_algebra(3))
    D = linear_dual(M)
    for d in M.window.degrees():
        assert M.dim(d) == D.dim(-d)


def test_dual_commutes_with_even_suspension():
    Lam = square_zero_algebra()
    M = free_module(Lam)
    a = linear_dual(suspend(M, 2))
    b = suspend(linear_dual(M), -2)
    assert {d: a.dim(d) for d in a.degrees()} == {d: b.dim(d) for d in b.degrees()}
    # identical tables once labels are matched (even shifts introduce no signs)
    rename = {lbl + "'": lbl + "'" for lbl in M._deg}
    assert a.diff == b.diff
    assert a.lact == b.lact and a.ract == b.ract
    assert validate_module(a).ok and validate_module(b).ok


def test_dual_is_valid_across_catalog():
    for A in (square_zero_algebra(), polynomial_algebra(1), polynomial_algebra(2), exterior_algebra(3)):
        for kind in ("k", "free"):
            M = build_module(A, kind)
            assert validate_module(linear_dual(M)).ok, (A.name, kind)
        assert validate_module(linear_dual(suspend(build_module(A, "k"), 1))).ok


# ---- twist ----------------------------------------------------------------

def test_twist_by_identity_fixes_module():
    P = polynomial_algebra(2)
    M = free_module(P)
    T = twist(M, identity_automorphism(P))
    assert T.ract == M.ract


def _poly_sign_automorphism(P, d):
    F = P.field
    images = {}
    for lbl in P._deg:
        j = int(lbl[1:])
        images[lbl] = {lbl: F.sign(j * d)}
    return AlgebraAutomorphism(P, images)


def test_twist_polynomial_d1_signs():
    P = polynomial_algebra(1)
    M = free_module(P)  # e_l = t^l, left T action is multiplication
    alpha = _poly_sign_automorphism(P, 1)
    T = twist(M, alpha)
    one = P.field.one()
    assert T.lact[("t1", "t0")] == {"t1": one}
    assert T.ract[("t0", "t1")] == {"t1": P.field.neg(one)}
    assert validate_module(T).ok


def test_twist_polynomial_d2_trivial():
    P = polynomial_algebra(2)
    M = free_module(P)
    T = twist(M, _poly_sign_automorphism(P, 2))
    assert T.ract == M.ract


# ---- misc -----------------------------------------------------------------

def test_canonical_k_kills_positive_part():
    for A in (square_zero_algebra(), polynomial_algebra(2)):
        k = canonical_k(A)
        assert k.total_dim() == 1
        for lbl in A._deg:
            if A.degree_of(lbl) > 0:
                assert k.act_left(lbl, "k0") in ({}, None)
                assert k.act_right("k0", lbl) in ({}, None)
        assert validate_module(k).ok


def test_opposite_algebra_is_valid():
    from dgreg.module import to_opposite

    for A in (square_zero_algebra(), polynomial_algebra(1), polynomial_algebra(2), exterior_algebra(3)):
        Aop = A.opposite()
        assert validate_algebra(Aop).ok, A.name
        k_right = canonical_k(A, side="right")
        k_op = to_opposite(k_right)
        assert k_op.side == "left"
        assert k_op.algebra.opposite() is A
        assert validate_module(k_op).ok


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_opposite_transport_is_an_involution(field):
    from dgreg.catalog import catalog_pairs
    from dgreg.module import to_opposite

    checked = 0
    for A, M in catalog_pairs(field):
        assert A.opposite().opposite() is A
        if not M.has_right:
            continue
        back = to_opposite(to_opposite(M))
        assert back.algebra is M.algebra, (A.name, M.name)
        assert back.side == M.side and back.window == M.window
        assert (back.basis, back.lact, back.ract, back.diff) == (M.basis, M.lact, M.ract, M.diff)
        checked += 1
    assert checked == 15


def _fields(X) -> dict:
    """Each dataclass field of X but its algebra or ground field: the
    object X holds, and a deep copy of its value."""
    return {f.name: (getattr(X, f.name), copy.deepcopy(getattr(X, f.name)))
            for f in dataclasses.fields(X) if f.name not in ("algebra", "field")}


def _unchanged(X, fields) -> bool:
    return all(getattr(X, name) is obj and obj == value for name, (obj, value) in fields.items())


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_derived_presentations_share_every_table_they_do_not_replace(field, monkeypatch):
    # each derived construction is a copy of its source with some tables
    # replaced: the source is left as it was, and every other table is the
    # source's own object
    from dgreg.algebra import Presentation
    from dgreg.catalog import catalog_pairs
    from dgreg.homtensor import realize_ledger
    from dgreg.module import left_restriction, to_opposite
    from dgreg.resolution import semifree_resolve

    copies = []
    real = Presentation._with

    def spy(self, **changes):
        out = real(self, **changes)
        copies.append((self, out, set(changes)))
        return out

    monkeypatch.setattr(Presentation, "_with", spy)

    def copied(src, out, replaced):
        assert out is not src, src.name
        for name in src._tables:
            assert (getattr(out, name) is getattr(src, name)) == (name not in replaced), (out.name, name)

    for A, M in catalog_pairs(field):
        sources = [(X, _fields(X)) for X in (A, M)]
        copied(A, A.opposite(), {"mul"})
        copied(M, suspend(M, 2), {"ract"})
        copied(M, twist(M, identity_automorphism(A)), {"ract"})
        copied(M, left_restriction(M), {"ract"})
        copied(M, to_opposite(M), {"lact", "ract"})
        copied(M, linear_dual(M), {"lact", "ract", "diff"})
        cut = hard_truncate(M, 1)
        copied(M, cut.sub, {"lact", "ract", "diff"})
        copied(M, cut.quot, {"lact", "ract", "diff"})
        L = semifree_resolve(left_restriction(M), 3)
        ledger = {name: (getattr(L, name), copy.deepcopy(getattr(L, name))) for name in ("gens", "diff", "aug")}
        P = realize_ledger(L, M.window)
        T, out, replaced = copies[-1]
        assert out is P and replaced == {"trust"}
        copied(T, P, set())
        assert _unchanged(L, ledger), M.name
        for X, fields in sources:
            assert _unchanged(X, fields), (A.name, M.name, X.name)


def test_double_dual_embedding_is_chain_map():
    from dgreg.module import double_dual_embedding

    for A in (square_zero_algebra(), polynomial_algebra(2)):
        for kind in ("free", "k"):
            M = build_module(A, kind)
            theta = double_dual_embedding(M)
            assert theta.validate().ok, (A.name, kind)
            assert theta.is_quasi_iso_on(M.trust)


def test_suspension_window_error():
    import pytest as _pytest
    from dgreg.windows import WindowError

    M = canonical_k(square_zero_algebra())
    with _pytest.raises(WindowError):
        suspend(M, 10_000)


def test_twist_rejects_bad_automorphism():
    import pytest as _pytest

    P = polynomial_algebra(2)
    bad = AlgebraAutomorphism(P, {"t1": {"t1": QQ.parse("2")}})  # not multiplicative
    with _pytest.raises(ValueError):
        twist(free_module(P), bad)


def test_a_unit_that_is_not_a_basis_label_is_refused():
    """A unit outside the basis is refused at construction, as the parser
    refuses it on the unit line; validation never meets it."""
    one = QQ.one()
    fields = dict(name="A", field=QQ, window=GradedWindow(0, 2), basis={0: ("one",), 1: ("t",)},
                  unit="u", mul={("one", "one"): {"one": one}}, diff={}, trust=Trust.everywhere())
    for build in (DGAlgebra, DGAlgebra._built):
        with pytest.raises(ValueError, match="unit 'u' is not a basis label"):
            build(**fields)


def test_polynomial_algebra_refuses_a_window_below_degree_0():
    """k[T] on a window whose top is below 0 is refused as the other
    catalog algebras are: its unit t0 lies outside the window."""
    from dgreg.windows import WindowError

    for build in (lambda w: polynomial_algebra(1, QQ, w), lambda w: square_zero_algebra(QQ, w),
                  lambda w: ground_field_algebra(QQ, w)):
        with pytest.raises(WindowError, match="basis degree 0 outside window -3..-1"):
            build(GradedWindow(-3, -1))


def test_twist_refuses_an_automorphism_of_another_algebra():
    """An automorphism of k[T]_2 does not twist a module over k[T]_1, even
    though the labels t0, t2, t4, ... of the one are labels of the other."""
    P1 = polynomial_algebra(1)
    with pytest.raises(ValueError, match="automorphism of the module's algebra"):
        twist(free_module(P1), identity_automorphism(polynomial_algebra(2)))
    # an equal algebra built again is the module's algebra
    assert twist(free_module(P1), identity_automorphism(polynomial_algebra(1))).ract == free_module(P1).ract


def test_validate_automorphism_reports_a_degree_change():
    from dgreg.algebra import validate_automorphism

    P = polynomial_algebra(1)
    rep = validate_automorphism(AlgebraAutomorphism(P, {"t1": {"t2": QQ.one()}}))
    assert not rep.ok
    assert ("degree", ("t1",)) in [(v.axiom, v.witness) for v in rep.violations]
    assert all(v.axiom != "invertible" or "t1" not in v.witness for v in rep.violations)


def test_validate_automorphism_reports_an_unknown_label():
    from dgreg.algebra import validate_automorphism

    P = polynomial_algebra(1)
    for images, witness in (({"t1": {"zz": QQ.one()}}, "t1"), ({"zz": {"t1": QQ.one()}}, "zz")):
        rep = validate_automorphism(AlgebraAutomorphism(P, images))
        assert [(v.axiom, v.witness) for v in rep.violations] == [("label", (witness,))]
        assert "'zz'" in rep.violations[0].detail


def test_morphism_with_unknown_labels_reports_them():
    from dgreg.module import ModuleMorphism

    M = free_module(polynomial_algebra(1, QQ))
    ident = {lbl: {lbl: 1} for lbl in M._deg}
    # an image naming a label the target lacks, and an image keyed by a
    # label the source lacks
    for extra, witness, missing in [({"t1": {"zz": 1}}, "t1", "zz"), ({"qq": {"t1": 1}}, "qq", "qq")]:
        rep = ModuleMorphism(M, M, {**ident, **extra}).validate()
        assert [v.to_json() for v in rep.violations if v.axiom == "label"] == [
            {"axiom": "label", "witness": [witness], "detail": f"{missing!r} is not a basis label"}
        ]
        assert (witness,) not in [v.witness for v in rep.violations if v.axiom != "label"]
    assert ModuleMorphism(M, M, ident).validate().ok


@pytest.mark.parametrize("kind", ["algebra", "built algebra", "module"])
def test_a_basis_degree_outside_the_window_is_refused(kind):
    """Algebras and modules share the window check of their core: a basis
    degree above the window top is a WindowError, not a presentation
    whose unit law reads products above the window."""
    from dgreg.windows import WindowError

    one = QQ.one()
    algebra = dict(name="A", field=QQ, window=GradedWindow(0, 1), basis={0: ("one",), 2: ("z",)},
                   unit="one", mul={("one", "one"): {"one": one}, ("one", "z"): {"z": one},
                                    ("z", "one"): {"z": one}}, diff={}, trust=Trust.everywhere())
    with pytest.raises(WindowError, match="basis degree 2 outside window 0..1"):
        if kind == "algebra":
            DGAlgebra(**algebra)
        elif kind == "built algebra":
            DGAlgebra._built(**algebra)
        else:
            DGModule(name="M", algebra=square_zero_algebra(), side="left", window=GradedWindow(0, 1),
                     basis={0: ("m",), 2: ("n",)}, lact={}, ract={}, diff={})
