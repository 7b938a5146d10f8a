"""Resolution engine: cycle killing, minimality, Extreg, Koszulness,
symmetry, truncation from above."""

import pytest

from dgreg.catalog import (
    build_module,
    exterior_algebra,
    ground_field_algebra,
    polynomial_algebra,
    square_zero_algebra,
)
from dgreg.fields import QQ, GF
from dgreg.homtensor import hom_from_ledger, realize_ledger, tensor_module_ledger
from dgreg.ledger import free_ledger, make_ledger
from dgreg.module import canonical_k, cohomology, free_module, suspend, validate_module
from dgreg.resolution import (
    TruncationImpossibleError,
    augmentation_h_report,
    ext_reg,
    extreg_symmetry,
    is_minimal,
    koszul_test,
    residual_classes_are_trivial,
    semifree_resolve,
    truncate_above,
)
from dgreg.windows import GradedWindow


def test_resolution_of_k_over_square_zero():
    # the minimal resolution has one degree-0 generator per stage with
    # de_{i+1} = t e_i, and never finishes
    Lam = square_zero_algebra()
    k = canonical_k(Lam, side="left")
    res = semifree_resolve(k, max_stages=6)
    assert len(res.gens) == 6
    assert all(g.degree == 0 for g in res.gens)
    assert all(g.stage == i for i, g in enumerate(res.gens))
    one = Lam.field.one()
    for i in range(1, 6):
        assert res.diff[f"e{i}"] == {f"e{i-1}": {"t": one}}
    assert res.aug["e0"] == {"k0": one}
    assert not res.complete
    assert res.minimal


def test_resolution_of_free_module_is_complete():
    Lam = square_zero_algebra()
    res = semifree_resolve(free_module(Lam, side="left"), max_stages=4)
    assert len(res.gens) == 1
    assert res.gens[0].degree == 0
    assert res.complete
    assert res.diff == {}


def test_resolution_of_k_over_polynomial():
    for d in (1, 2, 3):
        P = polynomial_algebra(d)
        k = canonical_k(P, side="left")
        res = semifree_resolve(k, max_stages=5)
        assert [g.degree for g in res.gens] == [0, d - 1]
        one = P.field.one()
        assert res.diff["e1"] == {"e0": {"t1": one}}
        assert res.complete
        assert res.minimal


def test_augmentation_induces_h_isomorphism():
    for A in (square_zero_algebra(), polynomial_algebra(2), exterior_algebra(3)):
        for kind in ("k", "free"):
            M = build_module(A, kind, side="left")
            res = semifree_resolve(M, max_stages=8)
            report = augmentation_h_report(res)
            bound = res.ledger_bound
            for d, (rank, hp, hm) in report.items():
                if bound is not None and d >= bound - 1:
                    continue  # frontier degrees may still be uncorrected
                assert rank == hp == hm, (A.name, kind, d, rank, hp, hm)


def test_minimality_detects_unit_coefficient():
    Lam = square_zero_algebra()
    one = Lam.field.one()
    L = make_ledger(
        Lam,
        gens=[("e0", 0, 0), ("e1", -1, 1)],
        diff={"e1": {"e0": {"one": one}}},
    )
    flag, witness = is_minimal(L)
    assert not flag and witness == ("e1", "e0")
    # the flag the reports print reads the same differential
    assert not L.minimal and L.to_json()["minimal"] is False


def test_minimality_of_engine_output():
    P = polynomial_algebra(2)
    res = semifree_resolve(canonical_k(P, side="left"), max_stages=4)
    assert is_minimal(res) == (True, None)


def test_resolution_tensor_k_has_zero_differential():
    # minimality: P (x)_A k has zero differential; dims count generators
    Lam = square_zero_algebra()
    res = semifree_resolve(canonical_k(Lam, side="left"), max_stages=3)
    k_right = canonical_k(Lam, side="right")
    T, _ = tensor_module_ledger(k_right, res, GradedWindow(-4, 4))
    assert T.diff == {}
    counts = res.counts_by_degree()
    assert {d: T.dim(d) for d in T.degrees()} == counts


def test_hom_into_k_has_zero_differential():
    P = polynomial_algebra(3)
    res = semifree_resolve(canonical_k(P, side="left"), max_stages=4)
    H, _ = hom_from_ledger(res, canonical_k(P, side="left"), GradedWindow(-8, 8))
    assert H.diff == {}
    assert {d: H.dim(d) for d in H.degrees()} == {0: 1, -(3 - 1): 1}


def test_free_ledger_tensor_is_identity():
    # N (x)_A A = N on the rank-one free ledger
    P = polynomial_algebra(2)
    k_right = canonical_k(P, side="right")
    T, _ = tensor_module_ledger(k_right, free_ledger(P), GradedWindow(-4, 4))
    assert {d: T.dim(d) for d in T.degrees()} == {0: 1}
    assert T.diff == {}
    N = free_module(P, side="bi")
    T2, _ = tensor_module_ledger(N, free_ledger(P), GradedWindow(-4, 16))
    assert {d: T2.dim(d) for d in T2.degrees()} == {d: N.dim(d) for d in N.degrees()}
    assert cohomology(T2).dims == cohomology(N).dims


def test_hom_from_free_ledger_is_identity():
    # Hom_A(A, N) = N
    Lam = square_zero_algebra()
    N = free_module(Lam, side="bi")
    H, _ = hom_from_ledger(free_ledger(Lam), N, GradedWindow(-4, 4))
    assert {d: H.dim(d) for d in H.degrees()} == {0: 1, 1: 1}
    hn = cohomology(N).dims
    hh = cohomology(H).dims
    assert hn == hh


def test_extreg_examples():
    Lam = square_zero_algebra()
    assert ext_reg(canonical_k(Lam, side="left"), 6).kind == "exact"
    assert ext_reg(canonical_k(Lam, side="left"), 6).n == 0
    for d in (1, 2, 3):
        P = polynomial_algebra(d)
        v = ext_reg(canonical_k(P, side="left"), 6)
        assert (v.kind, v.n) == ("exact", d - 1)
    from dgreg.module import zero_module

    assert ext_reg(zero_module(Lam)).kind == "neg_infinity"


def test_extreg_exterior_is_lower_bound_only():
    E = exterior_algebra(3)
    v = ext_reg(canonical_k(E, side="left"), max_stages=5)
    assert v.kind == "at_least"
    assert v.n == 8  # generators at 0, 2, 4, 6, 8 after five stages


def test_koszul_examples():
    assert koszul_test(square_zero_algebra()).value is True
    assert koszul_test(polynomial_algebra(1)).value is True
    rep = koszul_test(polynomial_algebra(2))
    assert rep.value is False and rep.certified
    rep3 = koszul_test(exterior_algebra(3), max_stages=4)
    assert rep3.value is False and rep3.certified  # Extreg >= 2 > 0


def test_extreg_symmetry():
    for A in (square_zero_algebra(), polynomial_algebra(2), ground_field_algebra()):
        rep = extreg_symmetry(A, max_stages=6)
        assert rep["equal"], A.name
        assert rep["generator_counts_match"]
        assert rep["tensor_dims_match"]
    rep = extreg_symmetry(polynomial_algebra(3), max_stages=6)
    assert rep["left"].n == 2 and rep["right"].n == 2


def test_residual_classes_trivial_for_square_zero_tower():
    Lam = square_zero_algebra()
    k = canonical_k(Lam, side="left")
    res = semifree_resolve(k, max_stages=4)
    assert residual_classes_are_trivial(res)


def test_truncate_above_noop():
    Lam = square_zero_algebra()
    M = canonical_k(Lam, side="left")
    cert = truncate_above(M, 0)
    assert cert.module is M
    assert cert.h_match


def test_truncate_above_rejects_high_cohomology():
    Lam = square_zero_algebra()
    with pytest.raises(TruncationImpossibleError):
        truncate_above(free_module(Lam, side="left"), 0)


def test_truncate_above_drops_contractible_top():
    # k plus the cone of the identity of a shifted free module: the cone is
    # acyclic, so truncation above 0 must recover H = k in degree 0
    Lam = square_zero_algebra()
    from dgreg.module import DGModule, cone_of, ModuleMorphism

    free = suspend(free_module(Lam, side="left"), -2)
    ident = ModuleMorphism(free, free, {lbl: {lbl: Lam.field.one()} for lbl in free._deg})
    cone = cone_of(ident)
    k = canonical_k(Lam, side="left")
    glued = DGModule(
        name="glued",
        algebra=Lam,
        side="left",
        window=GradedWindow(min(cone.window.lo, 0), max(cone.window.hi, 1)),
        basis={**{d: lbls for d, lbls in cone.basis.items()}, 0: tuple(cone.basis.get(0, ())) + ("k0",)},
        lact={**cone.lact, ("one", "k0"): {"k0": Lam.field.one()}},
        ract={},
        diff=dict(cone.diff),
        trust=cone.trust,
    )
    assert validate_module(glued).ok
    assert cohomology(glued).dims == {0: 1}
    cert = truncate_above(glued, 0, max_stages=8)
    assert all(d <= 0 for d in cert.module.degrees())
    assert cert.h_match
    assert cohomology(cert.module).dims.get(0) == 1


def test_resolving_a_resolution_is_idempotent_on_counts():
    P = polynomial_algebra(2)
    k = canonical_k(P, side="left")
    res = semifree_resolve(k, max_stages=4)
    pres = realize_ledger(res, k.window, name="|P|")
    res2 = semifree_resolve(pres, max_stages=4)
    assert res2.counts_by_degree() == res.counts_by_degree()


def test_truncate_above_cech_carrier():
    # the torsion carrier already vanishes above 1-d; truncation is a no-op
    from dgreg.torsion import cech_carrier, detect_regime

    for d in (1, 2, 3):
        P = polynomial_algebra(d)
        C = cech_carrier(P, detect_regime(P))
        cert = truncate_above(C, 1 - d)
        assert all(dd <= 1 - d for dd in cert.module.degrees())
        assert cert.h_match


def test_truncate_above_polynomial_glued():
    # content above s with vanishing H: the dual-resolution route must
    # produce a quasi-isomorphic module concentrated in degrees <= 0
    from dgreg.module import DGModule, ModuleMorphism, cone_of

    P = polynomial_algebra(2)
    free = free_module(P, side="left")
    ident = ModuleMorphism(free, free, {lbl: {lbl: P.field.one()} for lbl in free._deg})
    cone = cone_of(ident)
    glued = DGModule(
        name="glued",
        algebra=P,
        side="left",
        window=GradedWindow(min(cone.window.lo, 0), cone.window.hi),
        basis={**cone.basis, 0: tuple(cone.basis.get(0, ())) + ("k0",)},
        lact={**cone.lact, ("t0", "k0"): {"k0": P.field.one()}},
        ract={},
        diff=dict(cone.diff),
        trust=cone.trust,
    )
    assert validate_module(glued).ok
    assert cohomology(glued).certified_dims() == {0: 1}
    cert = truncate_above(glued, 0, max_stages=6)
    assert all(d <= 0 for d in cert.module.degrees())
    assert cert.h_match
    assert cohomology(cert.module).dims.get(0) == 1


def test_inf_below_extreg_across_catalog():
    # bounded-below modules with nonzero H have inf M <= Extreg M
    from dgreg.catalog import catalog_pairs

    for A, M in catalog_pairs():
        if not M.has_left:
            continue
        h = cohomology(M)
        if not h.dims or not h.inf_certified:
            continue
        v = ext_reg(M, max_stages=8)
        assert v.kind != "neg_infinity"
        assert h.inf_degree <= v.lower_bound() or v.n is None, (A.name, M.name)


def test_degenerate_window_error():
    from dgreg.module import DGModule
    from dgreg.resolution import DegenerateWindowError

    Lam = square_zero_algebra()
    tiny = DGModule(
        name="tiny", algebra=Lam, side="left", window=GradedWindow(0, 0),
        basis={0: ("m",)}, lact={("one", "m"): {"m": Lam.field.one()}},
        ract={}, diff={},
    )
    with pytest.raises(DegenerateWindowError):
        semifree_resolve(tiny)


def test_resolving_a_cone_of_a_realized_ledger():
    # the cone's shifted labels must not collide with the realized
    # labels it already holds, and the resolution must not depend on
    # how the target spells its labels
    from dgreg.module import DGModule, ModuleMorphism, cone_of

    P2 = polynomial_algebra(2)
    k = canonical_k(P2, side="left")
    P = realize_ledger(semifree_resolve(k, 2), k.window)
    M = cone_of(ModuleMorphism(P, P, {}))
    assert validate_module(M).ok
    res = semifree_resolve(M, 3)
    assert len(res.gens) == 4 and res.minimal and res.complete

    rename = {lbl: f"m{i}" for i, lbl in enumerate(M._deg)}
    plain = DGModule(
        name=M.name, algebra=P2, side=M.side, window=M.window,
        basis={d: tuple(rename[l] for l in lbls) for d, lbls in M.basis.items()},
        lact={(a, rename[m]): {rename[t]: c for t, c in v.items()} for (a, m), v in M.lact.items()},
        ract={},
        diff={rename[m]: {rename[t]: c for t, c in v.items()} for m, v in M.diff.items()},
        trust=M.trust,
    )
    res_plain = semifree_resolve(plain, 3)
    assert res_plain.gens == res.gens
    assert res_plain.diff == res.diff
    assert res_plain.aug == {
        g: {rename[t]: c for t, c in img.items()} for g, img in res.aug.items()
    }
    assert (res_plain.scan, res_plain.frontier) == (res.scan, res.frontier)


def test_cone_suffix_avoids_target_labels():
    from dgreg.module import DGModule, ModuleMorphism, cone_of

    Lam = square_zero_algebra()
    one = Lam.field.one()

    def module(labels):
        return DGModule(
            name="X", algebra=Lam, side="left", window=GradedWindow(0, 2),
            basis={0: labels}, lact={("one", m): {m: one} for m in labels},
            ract={}, diff={},
        )

    X, Y = module(("x",)), module(("y", "x~", "x~~"))
    assert cone_of(ModuleMorphism(X, Y, {})).basis[-1] == ("x~~~",)
    assert cone_of(ModuleMorphism(X, X, {})).basis[-1] == ("x~",)


def test_stage_budget_below_one_is_rejected():
    # stage 0 used to return an empty ledger reported as complete, so
    # Extreg k over k[T], |T| = 2, read as exact -inf (it is 1)
    k = canonical_k(polynomial_algebra(2), side="left")
    for budget in (0, -1):
        with pytest.raises(ValueError):
            semifree_resolve(k, budget)
        with pytest.raises(ValueError):
            ext_reg(k, budget)
    assert ext_reg(k, 1).kind != "neg_infinity"
    assert (ext_reg(k, 8).kind, ext_reg(k, 8).n) == ("exact", 1)
