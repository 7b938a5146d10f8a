"""Local cohomology pages via stable Koszul complexes."""

import pytest

from dgreg.algebra import AlgebraAutomorphism, identity_automorphism, validate_automorphism
from dgreg.catalog import exterior_algebra, polynomial_algebra, square_zero_algebra
from dgreg.e2 import E2PreconditionError, cech_e2, cmreg_bound_from_e2, graded_commutativity_violations
from dgreg.fields import QQ, GF
from dgreg.module import canonical_k, free_module
from dgreg.torsion import cm_reg, detect_regime


def test_graded_commutativity_of_catalog():
    assert graded_commutativity_violations(square_zero_algebra()) == []
    assert graded_commutativity_violations(polynomial_algebra(2)) == []
    assert graded_commutativity_violations(exterior_algebra(3)) == []


def test_page_of_k_over_polynomial2():
    # H(A) = k[x], |x| = 2; H(M) = k: single entry (0, 0), Cech complex k -> 0
    A = polynomial_algebra(2)
    k = canonical_k(A, side="left")
    x = {"t1": QQ.one()}
    page = cech_e2(A, k, [x])
    assert page.entries == {(0, 0): 1}
    v = cmreg_bound_from_e2(page)
    assert (v.kind, v.n) == ("exact", 0)


def test_page_of_free_module_over_polynomial2():
    # entries (1, -2j), j >= 1: H^1 of k[x] -> k[x]_x
    A = polynomial_algebra(2)
    M = free_module(A, side="bi")
    page = cech_e2(A, M, [{"t1": QQ.one()}])
    assert all(l == 1 for (l, s) in page.entries), page.entries
    ss = sorted(s for (_l, s) in page.entries)
    assert set(ss) <= {-2 * j for j in range(1, 20)}
    for j in (1, 2, 3):
        assert page.dim(1, -2 * j) == 1
    v = cmreg_bound_from_e2(page)
    assert v.n == -1  # 1 + (-2)
    assert (v.kind, v.n) == ("exact", -1)


def test_page_matches_cmreg_on_fixtures():
    A = polynomial_algebra(2)
    r = detect_regime(A)
    bound_a = cmreg_bound_from_e2(cech_e2(A, free_module(A, side="bi"), [{"t1": QQ.one()}]))
    direct_a = cm_reg(free_module(A, side="bi"), r)
    assert bound_a.n == direct_a.n == -1
    bound_k = cmreg_bound_from_e2(cech_e2(A, canonical_k(A, side="left"), [{"t1": QQ.one()}]))
    direct_k = cm_reg(canonical_k(A, side="left"), r)
    assert bound_k.n == direct_k.n == 0


def test_empty_page_for_zero_module():
    from dgreg.module import zero_module

    A = polynomial_algebra(2)
    page = cech_e2(A, zero_module(A), [{"t1": QQ.one()}])
    assert page.entries == {}
    assert cmreg_bound_from_e2(page).kind == "neg_infinity"


def test_finite_regime_page_is_h_of_m():
    Lam = square_zero_algebra()
    M = free_module(Lam, side="bi")
    page = cech_e2(Lam, M, [])
    assert page.entries == {(0, 0): 1, (0, 1): 1}
    assert not page.uncertified
    assert cmreg_bound_from_e2(page).n == 1


def test_bound_dominates_cmreg_across_catalog():
    cases = []
    for A in (square_zero_algebra(), exterior_algebra(3)):
        cases.append((A, free_module(A, side="bi"), []))
        cases.append((A, canonical_k(A, side="left"), []))
    P = polynomial_algebra(2)
    cases.append((P, free_module(P, side="bi"), [{"t1": QQ.one()}]))
    cases.append((P, canonical_k(P, side="left"), [{"t1": QQ.one()}]))
    for A, M, params in cases:
        r = detect_regime(A)
        bound = cmreg_bound_from_e2(cech_e2(A, M, params))
        direct = cm_reg(M, r)
        if bound.certified_exact and direct.certified_exact:
            assert bound.n >= direct.n, (A.name, M.name)


def test_parameter_validation():
    A = polynomial_algebra(2)
    k = canonical_k(A, side="left")
    with pytest.raises(E2PreconditionError):
        cech_e2(A, k, [{}])  # zero parameter
    with pytest.raises(E2PreconditionError):
        cech_e2(A, k, [{"t0": QQ.one()}])  # degree 0
    P1 = polynomial_algebra(1)
    with pytest.raises(E2PreconditionError):
        cech_e2(P1, canonical_k(P1, side="left"), [{"t1": QQ.one()}])  # odd degree over Q


def test_odd_parameter_allowed_in_char2():
    P1 = polynomial_algebra(1, GF(2))
    k = canonical_k(P1, side="left")
    page = cech_e2(P1, k, [{"t1": GF(2).one()}])
    assert page.dim(0, 0) == 1


def test_sop_warning_for_bad_parameters():
    # x^2 = t2 generates a proper ideal with infinite-dimensional quotient? no:
    # k[x]/(x^2) is finite, so no warning; instead use the zero-divisorish case
    # of the exterior algebra where an odd generator cannot be a parameter.
    # Here: over k[x] with |x| = 2, the element x^4 is a legal parameter (no
    # warning), while passing the page a parameter of a proper subring like
    # x^2 still exhausts the quotient; genuinely bad input is e.g. a
    # parameter acting by zero.
    A = polynomial_algebra(2)
    M = free_module(A, side="bi")
    page = cech_e2(A, M, [{"t2": QQ.one()}])  # x^2: still a s.o.p.
    assert not page.warnings
    k = canonical_k(A, side="left")
    page_k = cech_e2(A, k, [{"t1": QQ.one()}])
    assert not page_k.warnings


# -- the E2 layer, pinned by digest --------------------------------------------
#
# Every page and bound below is hashed, so a change to the page's linear
# algebra must reproduce each entry, warning and error message exactly.


def _e2_entry(A, M, params):
    try:
        page = cech_e2(A, M, params)
    except E2PreconditionError as exc:
        return [type(exc).__name__, str(exc)]
    return [page.to_json(), cmreg_bound_from_e2(page).to_json()]


def _param_sets(A):
    """No parameters, the lowest positive generator t, (t, t^2), (t, t)."""
    F = A.field
    positive = sorted((A.degree_of(lbl), lbl) for lbl in A._deg if A.degree_of(lbl) > 0)
    if not positive:
        return [[]]
    d, lbl = positive[0]
    t = {lbl: F.one()}
    t2 = A.mul_combo(t, d, t, d)
    return [[], [t], [t, t2], [t, t]]


def _top_degree_map(A, scalar):
    """Multiplies the top degree of A by a raw int: 0 kills it, and 7
    kills it only over F_7."""
    top = A.degrees()[-1]
    return AlgebraAutomorphism(A, {lbl: {lbl: scalar} if scalar else {} for lbl in A.basis_at(top)})


def test_e2_layer_is_pinned():
    import hashlib
    import json

    from dgreg.catalog import catalog_algebras, catalog_pairs

    out = []
    for F in (QQ, GF(2), GF(7)):
        for A in catalog_algebras(F):
            out.append([A.name, repr(graded_commutativity_violations(A)),
                        validate_automorphism(identity_automorphism(A)).to_json(),
                        validate_automorphism(_top_degree_map(A, 0)).to_json(),
                        validate_automorphism(_top_degree_map(A, 7)).to_json()])
        for A, M in catalog_pairs(F):
            if not M.has_left:
                continue
            for params in _param_sets(A):
                out.append([A.name, M.name, repr(params), _e2_entry(A, M, params)])
    assert len(out) == PINNED_E2_ENTRIES
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_E2_SHA256


PINNED_E2_ENTRIES = 180
PINNED_E2_SHA256 = "a33111b59b70700623a58c3f4005b63cfb8c4c9b648436397982675b7ba1ab56"
