"""Resolution engine: cycle killing, minimality, Extreg, Koszulness,
symmetry, truncation from above."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgreg.algebra import diff_columns, validate_algebra
from dgreg.catalog import (
    build_module,
    exterior_algebra,
    finite_table_algebra,
    ground_field_algebra,
    polynomial_algebra,
    square_zero_algebra,
)
from dgreg.fields import QQ, GF
from dgreg.homtensor import hom_from_ledger, realize_ledger, tensor_module_ledger
from dgreg.ledger import free_ledger, make_ledger
from dgreg.linalg import Echelon
from dgreg.module import (
    TruncationImpossibleError,
    canonical_k,
    cohomology,
    free_module,
    suspend,
    truncate_above,
    validate_module,
)
from dgreg.resolution import (
    _augmentation_morphism,
    ext_reg,
    extreg_symmetry,
    is_minimal,
    koszul_test,
    semifree_resolve,
)
from dgreg.windows import GradedWindow
from test_fuzz_validation import _generator_pool, _transport, perturb_module


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
            report = _augmentation_morphism(res, realize_ledger(res, M.window), M).h_isomorphism_degrees()
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
    T = tensor_module_ledger(k_right, res, GradedWindow(-4, 4))
    assert T.diff == {}
    counts = res.counts_by_degree()
    assert {d: T.dim(d) for d in T.degrees()} == counts


def test_hom_into_k_has_zero_differential():
    P = polynomial_algebra(3)
    res = semifree_resolve(canonical_k(P, side="left"), max_stages=4)
    H = hom_from_ledger(res, canonical_k(P, side="left"), GradedWindow(-8, 8))
    assert H.diff == {}
    assert {d: H.dim(d) for d in H.degrees()} == {0: 1, -(3 - 1): 1}


def test_free_ledger_tensor_is_identity():
    # N (x)_A A = N on the rank-one free ledger
    P = polynomial_algebra(2)
    k_right = canonical_k(P, side="right")
    T = tensor_module_ledger(k_right, free_ledger(P), GradedWindow(-4, 4))
    assert {d: T.dim(d) for d in T.degrees()} == {0: 1}
    assert T.diff == {}
    N = free_module(P, side="bi")
    T2 = tensor_module_ledger(N, free_ledger(P), GradedWindow(-4, 16))
    assert {d: T2.dim(d) for d in T2.degrees()} == {d: N.dim(d) for d in N.degrees()}
    assert cohomology(T2).dims == cohomology(N).dims


def test_hom_from_free_ledger_is_identity():
    # Hom_A(A, N) = N
    Lam = square_zero_algebra()
    N = free_module(Lam, side="bi")
    H = hom_from_ledger(free_ledger(Lam), N, GradedWindow(-4, 4))
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


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_koszul_dual_oracle_on_the_square_zero_plane(field):
    # A = k[x, y]/(x, y)^2 with |x| = |y| = 1 is quadratic with R = V (x) V,
    # so it is Koszul and A^! = T(V*) is free on two generators: the
    # minimal resolution of k has dim A^!_s = 2^s generators at stage s,
    # all in degree 0
    one = field.one()
    mul = {("one", b): {b: one} for b in ("one", "x", "y")}
    mul.update({(b, "one"): {b: one} for b in ("x", "y")})
    A = finite_table_algebra("A", field, {0: ("one",), 1: ("x", "y")}, "one", mul, {},
                             window=GradedWindow(0, 2))
    assert validate_algebra(A).ok
    k = canonical_k(A, side="left")
    res = semifree_resolve(k, max_stages=8)
    assert [sum(g.stage == s for g in res.gens) for s in range(8)] == [2 ** s for s in range(8)]
    assert {g.degree for g in res.gens} == {0}
    assert res.minimal and is_minimal(res)
    v = ext_reg(k, max_stages=8)
    assert (v.kind, v.n) == ("exact", 0)
    rep = koszul_test(A)
    assert rep.value is True and rep.certified


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
    assert res.residual and res.bookkeeping_ok


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
    cert = truncate_above(glued, 0)
    assert all(d <= 0 for d in cert.module.degrees())
    assert cert.certified_window.contains(0)
    assert cert.h_match
    assert cohomology(cert.module).dims.get(0) == 1


def _k_plus_cone(A):
    """k (+) cone(id_A) as a left module, built by hand: H = k in degree 0."""
    from dgreg.module import DGModule

    cone = build_module(A, "cone-id", side="left")
    return DGModule(
        name="k+cone", algebra=A, side="left",
        window=GradedWindow(min(cone.window.lo, 0), max(cone.window.hi, 1)),
        basis={**cone.basis, 0: tuple(cone.basis.get(0, ())) + ("k0",)},
        lact={**cone.lact, (A.unit, "k0"): {"k0": A.field.one()}},
        ract={}, diff=dict(cone.diff), trust=cone.trust,
    )


def _assert_sound_truncation(M, s, cert):
    # nothing above s; a returned certificate morphism is a chain map; H
    # agrees with H(M) wherever the certificate claims to have compared;
    # and a replacement claims a match only on a window holding all of H
    assert all(d <= s for d in cert.module.degrees())
    if cert.morphism is not None:
        assert cert.morphism.validate().ok
    h, hp = cohomology(M), cohomology(cert.module)
    support = set(h.dims) | set(hp.dims)
    for d in support:
        if cert.certified_window.contains(d):
            assert h.dim(d) == hp.dim(d), d
    if cert.h_match and cert.module is not M:
        assert all(cert.certified_window.contains(d) for d in support), (cert.certified_window, support)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_truncate_above_is_sound_on_cones_and_sums(field):
    for A in (square_zero_algebra(field), exterior_algebra(3, field)):
        cone = build_module(A, "cone-id", side="left")
        for s in range(-2, 2):
            _assert_sound_truncation(cone, s, truncate_above(cone, s))
        glued = _k_plus_cone(A)
        assert validate_module(glued).ok
        for s in (0, 1):
            _assert_sound_truncation(glued, s, truncate_above(glued, s))
        with pytest.raises(TruncationImpossibleError):
            truncate_above(free_module(A, side="left"), 0)


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from([QQ, GF(2), GF(7)]), hi=st.integers(3, 5), pick=st.integers(0, 6),
       kind=st.sampled_from(["k", "free", "truncated-free", "cone-id", "resolution"]),
       side=st.sampled_from(["left", "right", "bi"]), stages=st.integers(1, 3),
       shift=st.integers(-2, 2), seed=st.integers(0, 2**32 - 1))
def test_truncate_above_is_sound_on_generated_modules(field, hi, pick, kind, side, stages, shift, seed):
    # for every s: refused exactly when certified H lies above s, and
    # otherwise M' vanishes above s, keeps the cocycles of degree s, and is
    # reached by a valid projection that is a quasi-isomorphism on the
    # certified window, which holds all of H when h_match is claimed
    A = _transport(random.Random(seed), _generator_pool(field, hi)[pick])
    if kind == "resolution":
        k = canonical_k(A, side="left")
        M = realize_ledger(semifree_resolve(k, stages), k.window)
    else:
        M = build_module(A, kind, side=side)
    M = suspend(M, shift)
    assert validate_module(M).ok
    h = cohomology(M)
    for s in range(M.window.lo - 1, M.window.hi + 1):
        if any(d > s and h.certified.contains(d) for d in h.dims):
            with pytest.raises(TruncationImpossibleError):
                truncate_above(M, s)
            continue
        cert = truncate_above(M, s)
        Mp = cert.module
        assert all(d <= s for d in Mp.degrees()) and validate_module(Mp).ok
        assert Mp.dim(s) == M.dim(s) - len(Echelon.spanned_by(field, diff_columns(M, s)))
        if Mp is M:
            continue
        assert cert.morphism is not None and cert.morphism.validate().ok, cert.note
        assert cert.morphism.is_quasi_iso_on(cert.certified_window)
        if cert.h_match:
            support = set(h.dims) | set(cohomology(Mp).dims)
            assert all(cert.certified_window.contains(d) for d in support), (s, cert.certified_window)


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
    # content above s with vanishing H: the truncation must produce a
    # quasi-isomorphic module concentrated in degrees <= 0
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
    cert = truncate_above(glued, 0)
    assert all(d <= 0 for d in cert.module.degrees())
    assert cert.certified_window.contains(0)
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


# -- the incremental cone against the restaging reference ----------------------


def _cone(M, L):
    """Mapping cone of the augmentation |P| -> M (M itself when P = 0),
    rebuilt from the ledger."""
    from dgreg.module import cone_of

    if not L.gens:
        return M, None
    P = realize_ledger(L, M.window, name="|P|")
    return cone_of(_augmentation_morphism(L, P, M), name="cone"), P


def _restage_resolve(M, max_stages=8):
    """The resolution loop that rebuilds the whole cone at every stage:
    realize the ledger, map it to M, take the cone and its cohomology,
    and kill the lowest certified classes.  The reference that
    ``semifree_resolve`` must reproduce exactly."""
    from dgreg.ledger import Generator, SemifreeResolution
    from dgreg.lincomb import cneg
    from dgreg.module import left_restriction
    from dgreg.resolution import DegenerateWindowError, _split_cone_class
    from dgreg.homtensor import ledger_cells
    from dgreg.windows import Trust

    if max_stages < 1:
        raise ValueError(f"stage budget {max_stages} is below 1")
    M = left_restriction(M)
    A, F = M.algebra, M.field
    if M.window.hi - M.window.lo < 1:
        raise DegenerateWindowError(f"window {M.window} cannot certify any cohomology")
    gens, diff, aug = [], {}, {}
    for stage in range(max_stages + 1):
        ledger = SemifreeResolution(algebra=A, gens=tuple(gens), diff=dict(diff), aug=dict(aug),
                                    target=M, scan=Trust.everywhere())
        cone, _P = _cone(M, ledger)
        h = cohomology(cone)
        scan = h.certified
        live = sorted(d for d in h.dims if scan.contains(d))
        residual = {d: h.dims[d] for d in live}
        if not live or stage == max_stages:
            break
        j = live[0]
        cells = ledger_cells(ledger, A, M.window, -1).get(j + 1, ())
        for rep in h.quotient(j).representatives:
            m_part, rows = _split_cone_class(M, cells, j, rep)
            lab = f"e{len(gens)}"
            gens.append(Generator(lab, j, stage))
            if rows:
                diff[lab] = rows
                if m_part:
                    aug[lab] = cneg(F, m_part)
            else:
                aug[lab] = m_part
    return SemifreeResolution(algebra=A, gens=tuple(gens), diff=diff, aug=aug, target=M,
                              scan=scan, residual=residual, stages_used=stage)


def _outcome(resolve, M, stages):
    """Everything a resolution reports, or the error it raised."""
    try:
        res = resolve(M, stages)
    except Exception as exc:  # the same error must come out of both loops
        return type(exc).__name__, str(exc)
    return (res.to_json(), res.scan, res.scan_everywhere, res.frontier, res.residual,
            res.stages_used, res.minimal)


def _exterior_table(names, field):
    """The exterior algebra on degree-1 generators, presented by its
    monomial table, as the benchmark builds it."""
    from itertools import combinations

    from dgreg.catalog import finite_table_algebra

    subsets = [S for r in range(len(names) + 1) for S in combinations(range(len(names)), r)]
    label = {S: "".join(names[i] for i in S) or "one" for S in subsets}
    mul = {}
    for S in subsets:
        for T in subsets:
            seq = S + T
            sign = (-1) ** sum(1 for i, x in enumerate(seq) for y in seq[i + 1:] if x > y)
            mul[(label[S], label[T])] = {} if set(S) & set(T) else {label[tuple(sorted(seq))]: field.coerce(sign)}
    basis = {}
    for S in subsets:
        basis.setdefault(len(S), []).append(label[S])
    return finite_table_algebra(f"E{len(names)}", field, basis, "one", mul, {})


def _widened(M, extra):
    """M with its window top raised by ``extra``: over a truncated
    algebra, cells near the window top then meet unrecorded entries."""
    from dgreg.module import DGModule

    return DGModule(name=M.name, algebra=M.algebra, side=M.side,
                    window=GradedWindow(M.window.lo, M.window.hi + extra), basis=M.basis,
                    lact=M.lact, ract=M.ract, diff=M.diff, trust=M.trust)


def _mixed_class_module(field):
    """Over Lambda: m0 with t.m0 = m1 and m0' with d(m0') = m1.  Once m0
    is killed by e0, m0' - t e0 is a cone class with a part in M and a
    part in P."""
    from dgreg.module import DGModule

    Lam = square_zero_algebra(field)
    one = field.one()
    return DGModule(name="mixed", algebra=Lam, side="left", window=GradedWindow(0, 3),
                    basis={0: ("m0", "m0'"), 1: ("m1",)},
                    lact={("one", "m0"): {"m0": one}, ("one", "m0'"): {"m0'": one},
                          ("one", "m1"): {"m1": one}, ("t", "m0"): {"m1": one}},
                    ract={}, diff={"m0'": {"m1": one}})


def _trusted_past_window(A, extra):
    """A claiming trust ``extra`` degrees past its window top: the cells at
    the window top then cap |P| below what the generators allow."""
    from dgreg.algebra import DGAlgebra
    from dgreg.windows import Trust

    return DGAlgebra(name=A.name, field=A.field, window=A.window, basis=A.basis, unit=A.unit,
                     mul=A.mul, diff=A.diff, trust=Trust(None, A.window.hi + extra))


def _recorded_below_trust():
    """k[T]_2 recorded up to degree 5 but trusted up to 9, as a free left
    module on the window 0..16: T T^2 (degree 6) is unrecorded, so the
    cells of e_0 can be trusted only up to degree 5."""
    A = _trusted_past_window(polynomial_algebra(2, window=GradedWindow(0, 5)), 4)
    return _widened(free_module(A, side="left"), 11)


def _oracle_inputs():
    from dgreg.catalog import catalog_pairs

    for F in (QQ, GF(2), GF(7)):
        for A, M in catalog_pairs(F):
            if M.has_left:
                for stages in (1, 2, 4, 8):
                    yield M, stages
    Lam = square_zero_algebra()
    for n in range(6):
        yield suspend(canonical_k(Lam, side="left"), n), 16
    for F in (QQ, GF(7)):
        for names, stages in ((("x", "y"), 6), (("p", "q", "r"), 5)):
            yield canonical_k(_exterior_table(names, F), side="left"), stages
    for level in range(1, 5):
        yield build_module(polynomial_algebra(1), "truncated-free", side="left", level=level), 8
    for d in (1, 2):
        yield _widened(canonical_k(polynomial_algebra(d), side="left"), 3), 6
        A = _trusted_past_window(polynomial_algebra(d, window=GradedWindow(0, 6)), 3)
        yield _widened(canonical_k(A, side="left"), 6), 6
    yield _recorded_below_trust(), 4
    for F in (QQ, GF(7)):
        yield _mixed_class_module(F), 4


def test_incremental_cone_matches_restaging(monkeypatch):
    from dgreg import resolution

    caps, top_caps = [], []
    cell, generator_trust = resolution._ledger_cell, resolution._generator_trust

    def spy_cell(*args):
        out = cell(*args)
        caps.append(out[1])
        return out

    def spy_generator_trust(A, degree, window):
        out = generator_trust(A, degree, window)
        top_caps.append(out.hi != A.trust.shift(-degree).hi)
        return out

    monkeypatch.setattr(resolution, "_ledger_cell", spy_cell)
    monkeypatch.setattr(resolution, "_generator_trust", spy_generator_trust)
    for M, stages in _oracle_inputs():
        got = _outcome(semifree_resolve, M, stages)
        assert got == _outcome(_restage_resolve, M, stages), (M.algebra.name, M.name, stages)
        if not isinstance(got[0], str):
            # kill degrees start inside the window and never decrease, so
            # no generator of the resolver lies below the window
            assert all(g["degree"] >= M.window.lo for g in got[0]["generators"])
    assert any(c is not None for c in caps) and any(top_caps)
    res = semifree_resolve(_mixed_class_module(QQ), 4)
    assert any(g in res.diff and res.aug.get(g) for g in res.aug)


def test_unrecorded_products_cap_p_when_trust_passes_the_window_top():
    from dgreg.homtensor import _generator_trust
    from dgreg.windows import Trust

    M = _recorded_below_trust()
    assert (M.algebra.window.hi, M.algebra.trust.hi, M.window.hi) == (5, 9, 16)
    res = semifree_resolve(M, 4)
    assert res.scan == Trust(None, 3) and str(res.scan) == "[-inf, 3]"
    assert _generator_trust(M.algebra, 0, M.window).hi == 5


def test_generator_below_the_window_raises_trust():
    # the resolver never makes one (see above); a hand-built ledger does
    P = polynomial_algebra(2)
    L = make_ledger(P, gens=[("e0", -2, 0), ("e1", 0, 1)], diff={"e1": {"e0": {"t1": P.field.one()}}})
    window = GradedWindow(0, 6)
    assert realize_ledger(L, window).trust.lo == window.lo
    assert realize_ledger(L, GradedWindow(-2, 6)).trust.lo is None


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([QQ, GF(2), GF(7)]), hi=st.integers(3, 6), pick=st.integers(0, 6),
       kind=st.sampled_from(["k", "free"]), perturb=st.booleans(), widen=st.integers(0, 3),
       stages=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**32 - 1))
def test_incremental_cone_matches_restaging_on_generated_modules(
        field, hi, pick, kind, perturb, widen, stages, seed):
    rng = random.Random(seed)
    A = _transport(rng, _generator_pool(field, hi)[pick])
    M = canonical_k(A, side="left") if kind == "k" else free_module(A, side="left")
    if perturb:
        M = perturb_module(rng, M)
    if widen:
        M = _widened(M, widen)
    assert _outcome(semifree_resolve, M, stages) == _outcome(_restage_resolve, M, stages)


def _spy_on_cone_state(monkeypatch):
    """Record every cell the resolver builds, every column handed to a
    cone degree's echelon state, and every time a degree's H is taken
    afresh.  ``states`` lists the per-degree states in creation order,
    one per cone degree from one below the window up."""
    from dgreg import resolution
    from dgreg.linalg import KernelModImage

    built, events, states, last = [], [], [], {}
    cell = resolution._ledger_cell
    init, outgoing, incoming, quotient = (
        KernelModImage.__init__, KernelModImage.add_outgoing, KernelModImage.add_incoming,
        KernelModImage.quotient)

    def spy_cell(N, window, rules, keys, x, g, n):
        built.append((x, g, n))
        return cell(N, window, rules, keys, x, g, n)

    def spy_init(self, field):
        states.append(self)
        init(self, field)

    def spy_outgoing(self, col):
        events.append(("out", self, col))
        outgoing(self, col)

    def spy_incoming(self, col):
        events.append(("in", self, col))
        incoming(self, col)

    def spy_quotient(self):
        quot = quotient(self)
        if quot is not last.get(id(self)):
            events.append(("take", self, None))
            last[id(self)] = quot
        return quot

    monkeypatch.setattr(resolution, "_ledger_cell", spy_cell)
    monkeypatch.setattr(KernelModImage, "__init__", spy_init)
    monkeypatch.setattr(KernelModImage, "add_outgoing", spy_outgoing)
    monkeypatch.setattr(KernelModImage, "add_incoming", spy_incoming)
    monkeypatch.setattr(KernelModImage, "quotient", spy_quotient)
    return built, events, states


def test_each_column_enters_its_echelons_once_and_h_is_retaken_only_after_growth(monkeypatch):
    built, events, states = _spy_on_cone_state(monkeypatch)
    Lam = square_zero_algebra()
    for M, stages in ((suspend(canonical_k(Lam, side="left"), 2), 24),
                      (canonical_k(exterior_algebra(3), side="left"), 5),
                      (canonical_k(polynomial_algebra(2, field=GF(7)), side="left"), 8)):
        for log in (built, events, states):
            log.clear()
        res = semifree_resolve(M, stages)
        W = M.window
        P = realize_ledger(res, W)
        assert len(built) == len(set(built)) == P.total_dim()
        degree = {id(h): d for d, h in enumerate(states, start=W.lo - 1)}
        # each column goes out of its cone degree once, then into the next
        # degree's image once, and is never handed over again
        outs = [(degree[id(h)], col) for kind, h, col in events if kind == "out"]
        ins = [(degree[id(h)] - 1, col) for kind, h, col in events if kind == "in"]
        assert len({id(col) for _, col in outs}) == len(outs)
        assert [(d, id(col)) for d, col in outs] == [(d, id(col)) for d, col in ins]
        # a degree's columns out are its basis in the final cone
        for d in degree.values():
            assert sum(1 for e in outs if e[0] == d) == M.dim(d) + P.dim(d + 1), d
        # H is taken afresh only in a degree that gained a column since
        grown = set()
        for kind, h, _ in events:
            if kind == "take":
                assert id(h) in grown
                grown.discard(id(h))
            else:
                grown.add(id(h))


def test_echelon_insertions_per_stage_are_constant_over_lambda(monkeypatch):
    from dgreg.linalg import Echelon, KernelEchelon

    inserted = []
    add, append = Echelon.add, KernelEchelon.append

    def spy_add(self, vec):
        inserted.append(vec)
        return add(self, vec)

    def spy_append(self, col):
        inserted.append(col)
        return append(self, col)

    monkeypatch.setattr(Echelon, "add", spy_add)
    monkeypatch.setattr(KernelEchelon, "append", spy_append)
    k = canonical_k(square_zero_algebra(), side="left")
    totals = []
    for stages in (8, 16, 24):
        inserted.clear()
        assert len(semifree_resolve(k, stages).gens) == stages
        totals.append(len(inserted))
    # every stage kills one class in degree 0 with the cells e and t e,
    # whose two columns each go into one kernel state and one image
    assert totals[1] - totals[0] == totals[2] - totals[1] == 8 * 4


# -- the bookkeeping verdict against the cone rebuilt from the ledger ----------


def _rebuilt_bookkeeping(res):
    """(H(eps) onto, residual classes killed by A^{>=1}), decided on the
    cone rebuilt from the ledger: the two rank checks the resolver's
    ``bookkeeping_ok`` must reproduce."""
    M = res.target
    A, F = M.algebra, M.field
    P = realize_ledger(res, M.window, name="|P|")
    onto = all(rank == hm for rank, _hp, hm in
               _augmentation_morphism(res, P, M).h_isomorphism_degrees().values())
    cone, _ = _cone(M, res)
    h = cohomology(cone)
    trivial = True
    for d in sorted(res.residual):
        for a in (l for dd in A.degrees() for l in A.basis_at(dd) if dd >= 1):
            da = A.degree_of(a)
            if not cone.basis_at(d + da):
                continue
            bound = h.quotient(d + da).sub
            for rep in h.quotient(d).representatives:
                acted = cone.lact_combo({a: F.one()}, da, cone.combo(rep, d), d)
                if acted is None or not bound.contains(cone.coords(acted, d + da)):
                    trivial = False
    return onto, trivial


def _bookkeeping_inputs():
    from dataclasses import replace

    from dgreg.catalog import catalog_pairs
    from dgreg.module import to_opposite
    from dgreg.torsion import apply_duality, detect_regime, dualizing_module
    from dgreg.windows import Trust

    for F in (QQ, GF(2), GF(7)):
        for A, M in catalog_pairs(F):
            if M.has_left:
                for stages in (1, 2, 3, 4, 8):
                    yield M, stages
                regime = detect_regime(A)
                if regime.supported:
                    # the input of double duality's second resolution
                    X = to_opposite(apply_duality(M, dualizing_module(A, regime)).value)
                    for stages in (1, 2, 3, 4, 8):
                        yield X, stages
    Lam = square_zero_algebra()
    for n in range(4):
        yield suspend(canonical_k(Lam, side="left"), n), 8
    for level in range(1, 5):
        yield build_module(polynomial_algebra(1), "truncated-free", side="left", level=level), 8
    for A in (Lam, polynomial_algebra(1), polynomial_algebra(2)):
        for trust in (Trust(0, 6), Trust(1, 6), Trust(0, None), Trust(None, 4), Trust(3, None)):
            yield replace(free_module(A, side="left"), trust=trust), 4


def test_bookkeeping_verdict_matches_the_rebuilt_cone():
    not_onto = not_trivial = 0
    for M, stages in _bookkeeping_inputs():
        res = semifree_resolve(M, stages)
        if not res.residual:
            assert res.bookkeeping_ok, (M.algebra.name, M.name, stages)
            continue
        onto, trivial = _rebuilt_bookkeeping(res)
        assert res.bookkeeping_ok == (onto and trivial), (M.algebra.name, M.name, stages)
        not_onto += not onto
        not_trivial += not trivial
    # each hypothesis fails somewhere, so neither half of the verdict is idle
    assert not_onto and not_trivial, (not_onto, not_trivial)


def test_a_hand_built_ledger_claims_no_bookkeeping():
    Lam = square_zero_algebra()
    L = make_ledger(Lam, gens=[("e0", 0, 0)], diff={}, aug={"e0": {"k0": Lam.field.one()}},
                    target=canonical_k(Lam, side="left"))
    L.residual = {0: 1}
    assert not L.bookkeeping_ok
    assert "bookkeeping_ok" not in L.to_json()


def test_a_ledger_brings_its_augmentation_into_the_field():
    Lam = square_zero_algebra(GF(7))
    L = make_ledger(Lam, gens=[("e0", 0, 0), ("e1", 1, 1)], diff={},
                    aug={"e0": {"k0": 8}, "e1": {"k0": 7}}, target=canonical_k(Lam, side="left"))
    assert L.aug == {"e0": {"k0": 1}}
    augs = {row["label"]: row["augmentation"] for row in L.to_json()["generators"]}
    assert augs == {"e0": {"k0": "1"}, "e1": {}}
