"""dg-core: validation, cohomology, truncation, suspension, duals, twists."""

from fractions import Fraction

import pytest

from dgreg.algebra import AlgebraAutomorphism, DGAlgebra, identity_automorphism, validate_algebra
from dgreg.catalog import (
    build_module,
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


def test_catalog_modules_are_valid():
    for A in (square_zero_algebra(), polynomial_algebra(2), exterior_algebra(3)):
        for kind in ("k", "free", "suspended-k", "truncated-free", "cone-id"):
            M = build_module(A, kind, n=2)
            assert validate_module(M).ok, (A.name, kind)


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
