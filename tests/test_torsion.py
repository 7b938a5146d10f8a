"""Torsion regimes, Gamma, CM regularity, dualizing modules, duality checks."""

import json
from dataclasses import replace

import pytest

from dgreg.catalog import (
    build_module,
    exterior_algebra,
    finite_table_algebra,
    ground_field_algebra,
    polynomial_algebra,
    square_zero_algebra,
)
from dgreg.fields import QQ, GF
from dgreg.homtensor import hom_from_ledger
from dgreg.ledger import free_ledger
from dgreg.module import (
    TruncationImpossibleError,
    canonical_k,
    cohomology,
    free_module,
    kept_cohomology,
    linear_dual,
    suspend,
    to_opposite,
    truncate_above,
    validate_module,
)
from dgreg.resolution import ext_reg, extreg_symmetry, kept_k, koszul_test, resolved, semifree_resolve
from dgreg.torsion import (
    UnsupportedRegimeError,
    apply_duality,
    cech_carrier,
    cm_reg,
    detect_regime,
    double_duality_check,
    dualizing_module,
    gamma,
    koszul_truncation_check,
    local_duality_check,
    regularity_inequalities,
    twist_nontriviality,
)
from dgreg.windows import GradedWindow, Trust


# ---- regime detection -------------------------------------------------------

def test_detect_finite_regime():
    assert detect_regime(square_zero_algebra()).kind == "finite"
    assert detect_regime(exterior_algebra(3)).kind == "finite"
    assert detect_regime(ground_field_algebra()).kind == "finite"


def test_detect_polynomial_regime():
    for d in (1, 2, 3):
        r = detect_regime(polynomial_algebra(d))
        assert r.kind == "polynomial" and r.d == d


def test_detect_unsupported_hybrid():
    # two degree-1 generators with a differential, truncated above
    F = QQ
    A = finite_table_algebra(
        "hybrid", F,
        basis={0: ("one",), 1: ("x", "y"), 2: ("z",)},
        unit="one",
        mul={
            ("one", "one"): {"one": F.one()},
            ("one", "x"): {"x": F.one()}, ("x", "one"): {"x": F.one()},
            ("one", "y"): {"y": F.one()}, ("y", "one"): {"y": F.one()},
            ("one", "z"): {"z": F.one()}, ("z", "one"): {"z": F.one()},
        },
        diff={"x": {"z": F.one()}},
        window=GradedWindow(0, 8),
        complete=False,
    )
    from dgreg.algebra import validate_algebra

    assert validate_algebra(A).ok
    r = detect_regime(A)
    assert r.kind == "unsupported"
    with pytest.raises(UnsupportedRegimeError):
        gamma(canonical_k(A, side="left"), r)


# ---- carriers ---------------------------------------------------------------

def test_cech_carrier_tables():
    for d in (1, 2, 3):
        A = polynomial_algebra(d)
        r = detect_regime(A)
        C = cech_carrier(A, r)
        assert validate_module(C).ok
        one = A.field.one()
        # T c_j = c_{j-1}, T c_1 = 0
        assert C.act_left("t1", "c2") == {"c1": one}
        assert C.act_left("t1", "c1") == {}
        # degrees 1 - dj
        assert C.degree_of("c1") == 1 - d
        # right action mirrors with the (-1)^{jd} twist signs
        sign = A.field.sign(d)
        assert C.act_right("c2", "t1") == {"c1": sign}


def test_dualizing_module_polynomial_tables():
    for d in (1, 2, 3):
        for field in (QQ, GF(7)):
            A = polynomial_algebra(d, field)
            r = detect_regime(A)
            D = dualizing_module(A, r)
            assert validate_module(D).ok
            one = field.one()
            for l in range(0, 3):
                lbl = f"e{l}"
                if lbl not in D._deg:
                    continue
                assert D.degree_of(lbl) == d * l + d - 1
                for j in range(1, 3):
                    if f"e{l+j}" not in D._deg or (l + j) * d + d - 1 > D.window.hi:
                        continue
                    if d * j + D.degree_of(lbl) > D.window.hi:
                        continue
                    tj = f"t{j}"
                    assert D.act_left(tj, lbl) == {f"e{l+j}": one}
                    assert D.act_right(lbl, tj) == {f"e{l+j}": field.sign(j * d)}


def test_dualizing_module_finite_is_a_dual():
    Lam = square_zero_algebra()
    D = dualizing_module(Lam, detect_regime(Lam))
    assert {d: D.dim(d) for d in D.degrees()} == {-1: 1, 0: 1}
    assert validate_module(D).ok
    k = ground_field_algebra()
    Dk = dualizing_module(k, detect_regime(k))
    assert {d: Dk.dim(d) for d in Dk.degrees()} == {0: 1}


def test_twist_nontriviality():
    assert twist_nontriviality(1, QQ) is True
    assert twist_nontriviality(2, QQ) is False
    assert twist_nontriviality(3, QQ) is True
    assert twist_nontriviality(1, GF(2)) is False
    assert twist_nontriviality(1, GF(7)) is True
    assert twist_nontriviality(2, GF(2)) is False


# ---- Gamma ------------------------------------------------------------------

def test_gamma_finite_is_identity():
    Lam = square_zero_algebra()
    M = free_module(Lam, side="left")
    g = gamma(M, detect_regime(Lam))
    assert g.value is M and g.exact


def test_gamma_of_free_polynomial_module():
    for d in (1, 2, 3):
        A = polynomial_algebra(d)
        r = detect_regime(A)
        g = gamma(free_module(A, side="left"), r)
        h = cohomology(g.value)
        assert g.exact
        # H concentrated in degrees {1 - d - dj : j >= 0}, sup = 1 - d
        dims = h.certified_dims()
        nz = sorted(dims)
        assert all(dims[x] == 1 for x in nz)
        assert all((x - (1 - d)) % d == 0 for x in nz)
        assert nz[-1] == 1 - d and nz[-2] == 1 - d - d


def test_gamma_of_k_polynomial():
    for d in (1, 2, 3):
        A = polynomial_algebra(d)
        r = detect_regime(A)
        g = gamma(canonical_k(A, side="left"), r)
        assert g.exact
        assert cohomology(g.value).certified_dims() == {0: 1}


def test_gamma_idempotent_on_h():
    A = polynomial_algebra(2)
    r = detect_regime(A)
    g1 = gamma(canonical_k(A, side="left"), r)
    g2 = gamma(g1.value, r)
    assert cohomology(g2.value).certified_dims() == cohomology(g1.value).certified_dims()


def test_gamma_fixes_bounded_above_modules():
    # Lemma 2.2 consequence: H bounded above => Gamma M = M on H
    A = polynomial_algebra(2)
    r = detect_regime(A)
    for M in (canonical_k(A, side="left"), suspend(canonical_k(A, side="left"), 3)):
        g = gamma(M, r)
        assert cohomology(g.value).certified_dims() == cohomology(M).dims


# ---- CM regularity ----------------------------------------------------------

def test_cmreg_values():
    Lam = square_zero_algebra()
    rL = detect_regime(Lam)
    v = cm_reg(free_module(Lam, side="bi"), rL)
    assert (v.kind, v.n) == ("exact", 1)
    assert (cm_reg(canonical_k(Lam, side="left"), rL).kind,
            cm_reg(canonical_k(Lam, side="left"), rL).n) == ("exact", 0)
    for d in (1, 2, 3):
        A = polynomial_algebra(d)
        r = detect_regime(A)
        va = cm_reg(free_module(A, side="bi"), r)
        assert (va.kind, va.n) == ("exact", 1 - d)
        vk = cm_reg(canonical_k(A, side="left"), r)
        assert (vk.kind, vk.n) == ("exact", 0)


def test_cmreg_zero_module():
    from dgreg.module import zero_module

    Lam = square_zero_algebra()
    assert cm_reg(zero_module(Lam), detect_regime(Lam)).kind == "neg_infinity"


# ---- duality ----------------------------------------------------------------

def test_apply_duality_free_module():
    Lam = square_zero_algebra()
    r = detect_regime(Lam)
    D = dualizing_module(Lam, r)
    M = free_module(Lam, side="left")
    X = apply_duality(M, D)
    assert X.contamination == {}
    assert cohomology(X.value).dims == cohomology(D).dims


def test_apply_duality_k_over_square_zero():
    # RHom(k, A*) has H = k in degree 0, plus the known frontier class
    Lam = square_zero_algebra()
    r = detect_regime(Lam)
    D = dualizing_module(Lam, r)
    k = canonical_k(Lam, side="left")
    X = apply_duality(k, D, max_stages=6)
    h = cohomology(X.value)
    assert h.dims.get(0) == 1
    assert X.contamination == {-1: 1}
    assert h.dims.get(-1) == 1  # the frontier contribution, accounted for


def test_apply_duality_k_over_polynomial():
    for d in (1, 2, 3):
        A = polynomial_algebra(d)
        r = detect_regime(A)
        D = dualizing_module(A, r)
        X = apply_duality(canonical_k(A, side="left"), D)
        assert X.contamination == {}
        assert cohomology(X.value).certified_dims() == {0: 1}


def _frontier_inputs(F):
    """Every catalog pair with a left action and a supported regime, and
    the duality sweep's suspended and truncated modules: suspended k over
    Lambda and k[T]_2, truncated free modules over k[T]_1."""
    from dgreg.catalog import catalog_pairs

    for A, M in catalog_pairs(F):
        if M.has_left and detect_regime(A).supported:
            yield A, M
    Lam, P1, P2 = square_zero_algebra(F), polynomial_algebra(1, F), polynomial_algebra(2, F)
    yield from ((Lam, build_module(Lam, "suspended-k", n=n)) for n in range(1, 6))
    yield from ((P1, build_module(P1, "truncated-free", level=level)) for level in range(1, 5))
    yield from ((P2, build_module(P2, "suspended-k", n=n)) for n in range(1, 4))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_each_derived_complex_records_its_contamination_where_it_lands(field):
    for A, M in _frontier_inputs(field):
        regime, D = detect_regime(A), dualizing_module(A)
        D_op = to_opposite(D)
        for s in (1, 2, 3, 4):
            g, X = gamma(M, max_stages=s), apply_duality(M, D, s)
            Z = apply_duality(to_opposite(X.value), D_op, s)  # double duality's outer side
            for rec in (g, X, Z):
                assert all(rec.landing.contains(d) for d in rec.contamination), (A.name, M.name, s)
                res = rec.resolution
                assert res is None or res.frontier == min(res.residual, default=None)
            if regime.kind == "polynomial":
                # the cancellation local duality relies on: (Gamma M)* and
                # RHom(M, D) carry the same contamination on the same window
                assert g.landing.flip() == X.landing, (A.name, M.name, s)
                assert {-j: n for j, n in g.contamination.items()} == X.contamination, (A.name, M.name, s)
            else:
                assert (g.resolution, g.contamination, g.landing) == (None, {}, Trust.everywhere())


def test_local_duality_sweep():
    algebras = [square_zero_algebra(), exterior_algebra(3), ground_field_algebra(),
                polynomial_algebra(1), polynomial_algebra(2), polynomial_algebra(3)]
    for A in algebras:
        r = detect_regime(A)
        for kind in ("k", "free"):
            M = build_module(A, kind, side="left") if kind == "k" else build_module(A, kind, side="bi")
            rep = local_duality_check(M, r, max_stages=8)
            assert rep.verdict == "holds", (A.name, kind, rep.detail, rep.notes)


def test_double_duality_finite_regime():
    for A in (square_zero_algebra(), exterior_algebra(3), ground_field_algebra()):
        r = detect_regime(A)
        for kind in ("k", "free"):
            M = build_module(A, kind, side="left" if kind == "k" else "bi")
            rep = double_duality_check(M, r, max_stages=8)
            assert rep.verdict == "holds", (A.name, kind, rep.detail, rep.notes)


def test_double_duality_polynomial_k():
    A = polynomial_algebra(2)
    rep = double_duality_check(canonical_k(A, side="left"), detect_regime(A), max_stages=8)
    assert rep.verdict == "holds", (rep.detail, rep.notes)


EXCEEDED = "contamination exceeded a computed dimension"
UNPROVEN = "frontier bookkeeping hypotheses failed; mismatch not certified"
UNVERIFIED = "corrections used but their hypotheses could not be verified"
NOT_CERTIFIED = "contamination bookkeeping not certified"

# (negative, mismatch, hypotheses_ok) -> the (verdict, note) of the local
# and of the double duality check; None: the verdict appends no note
LADDER = {
    (False, False, True): (("holds", None), ("holds", None)),
    (False, True, True): (("violated", None), ("violated", None)),
    (False, False, False): (("indeterminate", UNVERIFIED), ("indeterminate", UNVERIFIED)),
    (False, True, False): (("indeterminate", UNPROVEN), ("indeterminate", NOT_CERTIFIED)),
    (True, False, True): (("indeterminate", EXCEEDED), ("indeterminate", NOT_CERTIFIED)),
    (True, True, True): (("indeterminate", EXCEEDED), ("indeterminate", NOT_CERTIFIED)),
    (True, False, False): (("indeterminate", EXCEEDED), ("indeterminate", NOT_CERTIFIED)),
    (True, True, False): (("indeterminate", EXCEEDED), ("indeterminate", NOT_CERTIFIED)),
}


def _s2k():
    """S^2 k over Lambda, whose 2-stage resolution leaves one residual
    class and whose checks compare every degree they see."""
    return suspend(canonical_k(square_zero_algebra(), side="left"), 2)


@pytest.mark.parametrize("case", sorted(LADDER), ids=lambda c: "neg{:d}-mis{:d}-ok{:d}".format(*c))
@pytest.mark.parametrize("which", [0, 1], ids=["local", "double"])
def test_each_duality_check_reads_its_verdict_off_one_ladder(case, which, monkeypatch):
    from dgreg import torsion

    negative, mismatch, hypotheses_ok = case
    check = (local_duality_check, double_duality_check)[which]
    M = _s2k()
    plain = check(M, max_stages=2)
    assert plain.verdict == "holds" and resolved(M, 2).residual, plain.notes
    monkeypatch.setattr(torsion, "_dims_table", lambda *sides: ({}, negative, mismatch))
    monkeypatch.setattr(resolved(M, 2), "bookkeeping_ok", hypotheses_ok)
    rep = check(M, max_stages=2)
    verdict, note = LADDER[case][which]
    assert (rep.verdict, rep.notes) == (verdict, plain.notes + ([note] if note else []))


def test_failed_bookkeeping_leaves_an_agreeing_comparison_indeterminate(monkeypatch):
    # the sides agree only through corrections whose hypotheses failed
    M = _s2k()
    monkeypatch.setattr(resolved(M, 2), "bookkeeping_ok", False)
    for check in (local_duality_check, double_duality_check):
        rep = check(M, max_stages=2)
        assert all(len(set(row.values())) == 1 for row in rep.detail["dims"].values()), rep.detail
        assert (rep.verdict, rep.notes[-1]) == ("indeterminate", UNVERIFIED), rep.notes


def test_lemma_completion_fixes_locally_finite():
    # RHom_A(A, M) = M (the finite-regime completion carrier is A itself)
    Lam = square_zero_algebra()
    M = free_module(Lam, side="bi")
    H = hom_from_ledger(free_ledger(Lam), M, GradedWindow(-4, 4))
    assert cohomology(H).dims == cohomology(M).dims


# ---- inequalities and truncation consequence ---------------------------------

def test_regularity_inequalities_polynomial_k():
    A = polynomial_algebra(2)
    r = detect_regime(A)
    rep = regularity_inequalities(A, canonical_k(A, side="left"), r)
    assert rep["checks"]["cmreg-not-minus-infinity"] == "holds"
    assert rep["checks"]["extreg<=cmreg+extregk"] == "holds"
    assert rep["checks"]["cmreg<=extreg+cmrega"] == "holds"
    v = rep["values"]
    assert (v["extreg_m"].n, v["cmreg_m"].n, v["extreg_k"].n, v["cmreg_a"].n) == (1, 0, 1, -1)


def test_regularity_inequalities_square_zero():
    Lam = square_zero_algebra()
    r = detect_regime(Lam)
    for M in (canonical_k(Lam, side="left"), free_module(Lam, side="bi")):
        rep = regularity_inequalities(Lam, M, r)
        assert "violated" not in rep["checks"].values(), (M.name, rep)


def _resolve_spy(monkeypatch):
    """Record every module that ``semifree_resolve`` is called on: the
    resolution kept on a module (``resolution.resolved``) is computed
    there."""
    from dgreg import resolution

    seen = []
    resolve = resolution.semifree_resolve

    def spy(N, *args):
        seen.append(N)
        return resolve(N, *args)

    monkeypatch.setattr(resolution, "semifree_resolve", spy)
    return seen


# the four checks of a catalog pair, as the duality sweep runs them
PAIR_CHECKS = {
    "cm_reg": lambda A, M, r: cm_reg(M, r),
    "local": lambda A, M, r: local_duality_check(M, r),
    "double": lambda A, M, r: double_duality_check(M, r),
    "inequalities": lambda A, M, r: regularity_inequalities(A, M, r),
}


def test_regularity_inequalities_resolve_the_module_once(monkeypatch):
    A = polynomial_algebra(2)
    r = detect_regime(A)
    M = suspend(canonical_k(A, side="left"), 1)
    fresh = replace(M)
    want = (ext_reg(fresh), cm_reg(fresh, r))
    seen = _resolve_spy(monkeypatch)
    v = regularity_inequalities(A, M, r)["values"]
    # M first, for both of its regularities; then k and A as a bimodule,
    # whose values are kept on A
    assert len(seen) == 3 and seen[0] is M
    assert [N.name for N in seen[1:]] == ["k", "Poly2_free"]
    assert (v["extreg_m"], v["cmreg_m"]) == want
    again = regularity_inequalities(A, M, r)["values"]
    assert len(seen) == 3
    assert {k: x.to_json() for k, x in again.items()} == {k: x.to_json() for k, x in v.items()}


def test_duality_checks_and_cm_reg_resolve_each_module_once(monkeypatch):
    from itertools import permutations

    A = polynomial_algebra(2)
    r = detect_regime(A)
    # k and A are resolved for the values kept on A, once, here
    regularity_inequalities(A, suspend(canonical_k(A, side="left"), 1), r)
    seen = _resolve_spy(monkeypatch)
    for order in permutations(PAIR_CHECKS):
        M = suspend(canonical_k(A, side="left"), 1)
        seen.clear()
        for name in order:
            PAIR_CHECKS[name](A, M, r)
        assert sum(N is M for N in seen) == 1, order
        # besides M, only the inner dual RHom(M, D) moved over the opposite
        # algebra, which double_duality_check builds afresh
        others = [N for N in seen if N is not M]
        assert [N.name for N in others] == [f"RHom({M.name},D)_op"], order
        assert others[0].algebra.opposite() is A


def _check_json(out) -> str:
    """The bytes of a check's output: a value, a report, or the dict of
    ``regularity_inequalities`` or ``extreg_symmetry``."""
    return json.dumps(out, sort_keys=True, default=lambda v: v.to_json())


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_what_a_module_keeps_is_shared_without_leaking(field):
    import random

    from dgreg.catalog import catalog_pairs

    shuffle = random.Random(5).shuffle
    for A, M in catalog_pairs(field):
        r = detect_regime(A)
        # each check on a fresh copy of M, so nothing kept on M is read
        want = {name: _check_json(check(A, replace(M), r)) for name, check in PAIR_CHECKS.items()}
        for _ in range(2):
            order = list(PAIR_CHECKS)
            shuffle(order)
            for name in order:
                out = PAIR_CHECKS[name](A, M, r)
                assert _check_json(out) == want[name], (A.name, M.name, name)
                # a caller that extends what it was handed changes no later call
                if name in ("local", "double"):
                    out.notes.append("extended by the caller")
                elif name == "inequalities" and "values" in out:
                    out["values"].clear()
                    out["checks"].clear()
        if r.kind == "polynomial":
            first = gamma(M, r)
            first.notes.append("extended by the caller")
            first.contamination[99] = 1
            again = gamma(M, r)
            assert "extended by the caller" not in again.notes and 99 not in again.contamination
        # the primitive keeps nothing; the kept resolution is one object
        assert semifree_resolve(M, 2) is not semifree_resolve(M, 2)
        assert resolved(M, 2) is resolved(M, 2) is not resolved(M, 3)
        assert cohomology(M) is not cohomology(M)
        assert kept_cohomology(M) is kept_cohomology(M)


# ---- objects kept on the algebra ------------------------------------------------

def _fresh_pair_values(A, stages):
    """Extreg k and CMreg A computed on a fresh copy of A, so nothing kept
    on A is read."""
    B = replace(A)
    return (ext_reg(canonical_k(B, side="left"), stages).to_json(),
            cm_reg(free_module(B, side="bi"), detect_regime(B), stages).to_json())


def test_check_regularity_sweep_computes_extreg_k_and_cmreg_a_once_per_algebra(monkeypatch, tmp_path):
    from dgreg import catalog, resolution, torsion
    from dgreg.catalog import catalog_algebras
    from dgreg.cli import main
    from dgreg.homtensor import _free_bimodule

    swept = []      # the sweep's (algebra, module) pairs
    computed = {"resolve": [], "cmreg": []}  # (module, stage budget) of each computation
    real_pairs = catalog.catalog_pairs

    def pairs(field):
        out = real_pairs(field)
        swept.extend(out)
        return out

    def spy(name, real):
        def wrapped(M, *args):
            computed[name].append((M, args[-1]))
            return real(M, *args)
        return wrapped

    monkeypatch.setattr(catalog, "catalog_pairs", pairs)
    monkeypatch.setattr(resolution, "semifree_resolve", spy("resolve", resolution.semifree_resolve))
    monkeypatch.setattr(torsion, "_cm_reg", spy("cmreg", torsion._cm_reg))
    out = tmp_path / "sweep.json"
    assert main(["check-regularity", "--stages", "6", "--out", str(out)]) in (0, 3)
    monkeypatch.undo()

    # each algebra's k and free module are the ones kept on it, which
    # Extreg k and CMreg A read
    algebras = list({id(A): A for A, _ in swept}.values())
    assert len(algebras) == 6
    for A in algebras:
        own = [M for B, M in swept if B is A]
        assert own[0] is kept_k(A) and own[1] is _free_bimodule(A), A.name
    # every computation is on a module of the sweep, once per module and budget
    for name, calls in computed.items():
        assert all(any(M is N for _, N in swept) for M, _ in calls), name
        assert len({(id(M), s) for M, s in calls}) == len(calls), name
        assert {s for _, s in calls} == {6}, name
    # one resolution per module of the sweep's 15 pairs, k and A included
    assert len(computed["resolve"]) == len(swept) == 15
    results = [r for r in json.loads(out.read_text())["results"] if "values" in r]
    fresh = {A.name: _fresh_pair_values(A, 6) for A in catalog_algebras(QQ)}
    for r in results:
        assert (r["values"]["extreg_k"], r["values"]["cmreg_a"]) == fresh[r["algebra"]], r


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_catalog_pairs_span_the_six_catalog_algebras(field):
    from dgreg.catalog import catalog_algebras, catalog_pairs

    # pairs over one algebra share its object, and with it what is kept on it
    pairs = catalog_pairs(field)
    assert len(pairs) == 15
    assert len({id(A) for A, _ in pairs}) == 6
    assert [(A.name, M.name) for A, M in pairs] == [
        (A.name, name) for A in catalog_algebras(field) for name in ("k", f"{A.name}_free")
    ] + [("Lambda", "S2k"), ("Lambda", "Lambda_free>=1"), ("Poly2", "Poly2_free>=1")]


def test_algebra_and_opposite_keep_their_own_objects():
    A = polynomial_algebra(2)
    op = A.opposite()
    r, r_op = detect_regime(A), detect_regime(op)
    assert r is detect_regime(A) and r_op is detect_regime(op) and r_op is not r
    D, D_op = dualizing_module(A, r), dualizing_module(op, r_op)
    assert D is dualizing_module(A, r) and D.algebra is A
    assert D_op is dualizing_module(op, r_op) and D_op.algebra is op
    assert cech_carrier(op, r_op).algebra is op
    # A's regime equals A^op's detected one, so A^op's kept D is served
    assert r == r_op and dualizing_module(op, r) is D_op
    assert op._kept is not A._kept


ENTRY_POINTS = {
    **PAIR_CHECKS,
    "cech_carrier": lambda A, M, r: cech_carrier(A, r),
    "dualizing_module": lambda A, M, r: dualizing_module(A, r),
    "gamma": lambda A, M, r: _tables(gamma(M, r).value),
    "koszul_truncation": lambda A, M, r: koszul_truncation_check(A, M, 1, r),
}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_a_claimed_regime_is_checked_against_detection(field):
    for A in (square_zero_algebra(field), polynomial_algebra(2, field)):
        M = suspend(canonical_k(A, side="left"), 1)
        r = detect_regime(A)
        claims = (None, r, replace(r))
        wrong = ([replace(r, kind="finite"), replace(r, d=r.d + 1)] if r.kind == "polynomial"
                 else [replace(r, kind="polynomial", d=1)])
        for name, call in ENTRY_POINTS.items():
            if name == "cech_carrier" and r.kind == "finite":
                for claim in claims:
                    with pytest.raises(UnsupportedRegimeError):
                        call(A, M, claim)
            else:
                # no claim, A's regime and an equal copy of it give one kept
                # object, or the same bytes
                outs = [call(A, M, claim) for claim in claims]
                if name in ("cech_carrier", "dualizing_module", "cm_reg"):
                    assert outs[0] is outs[1] is outs[2], (A.name, name)
                else:
                    assert len({_check_json(out) for out in outs}) == 1, (A.name, name)
            # a claim that is not A's regime raises, naming detection
            for claim in wrong:
                with pytest.raises(UnsupportedRegimeError, match=f"detection says {r.kind}"):
                    call(A, M, claim)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_one_resolution_of_k_per_algebra_and_budget(field, monkeypatch):
    from dgreg import resolution, torsion

    def checks(A, M, regime, s):
        return {
            "koszul": lambda: koszul_test(A, s),
            "inequalities": lambda: regularity_inequalities(A, M, regime, s),
            "symmetry": lambda: extreg_symmetry(A, s),
        }

    def subject(build):
        A = build(field)
        return A, suspend(canonical_k(A, side="left"), 1)

    resolutions, gammas = [], []
    real_resolve, real_tensor = resolution.semifree_resolve, torsion.tensor_module_ledger

    def spy_resolve(N, *args):
        resolutions.append((N, args[-1]))
        return real_resolve(N, *args)

    def spy_tensor(C, res, *args, **kwargs):
        gammas.append(res)
        return real_tensor(C, res, *args, **kwargs)

    monkeypatch.setattr(resolution, "semifree_resolve", spy_resolve)
    monkeypatch.setattr(torsion, "tensor_module_ledger", spy_tensor)
    for build in (square_zero_algebra, lambda F: polynomial_algebra(2, F)):
        # the checks on a fresh copy of A and M, so nothing kept is read
        B, N = subject(build)
        want = {s: {name: _check_json(check()) for name, check in checks(B, N, detect_regime(B), s).items()}
                for s in (3, 5)}
        for order in (1, -1):
            A, M = subject(build)
            regime = detect_regime(A)
            resolutions.clear()
            for s in (3, 5):
                for name, check in list(checks(A, M, regime, s).items())[::order]:
                    assert _check_json(check()) == want[s][name], (A.name, name, s)
                    assert _check_json(check()) == want[s][name], (A.name, name, s)
            # k over A and over A^op: once per stage budget, whatever the order
            for k in (kept_k(A), kept_k(A.opposite())):
                assert [s for N, s in resolutions if N is k] == [3, 5], (A.name, order)
            assert len(resolutions) == len({(id(N), s) for N, s in resolutions})

        # CMreg M is kept on M: two calls and the inequalities build Gamma M once
        A, M = subject(build)
        regime = detect_regime(A)
        gammas.clear()
        assert cm_reg(M, regime) is cm_reg(M, regime)
        regularity_inequalities(A, M, regime)
        built_on_m = sum(res is resolved(M, 8) for res in gammas)
        assert built_on_m == (1 if regime.kind == "polynomial" else 0)
        # a claim equal to A's regime reads the kept CMreg: Gamma M is built once
        assert cm_reg(M, replace(regime)) is cm_reg(M, regime)
        assert sum(res is resolved(M, 8) for res in gammas) == built_on_m


def _cancelling_complexes():
    """N (x) P and Hom(P, N) over the exterior algebra on x, y in degree 1,
    for the ledger d(e1) = (x - y) e0 and the bimodule N spanned by m and
    n with x.m = y.m = m.x = m.y = n."""
    from dgreg.homtensor import tensor_module_ledger
    from dgreg.ledger import make_ledger
    from dgreg.module import DGModule

    F = QQ
    one = F.one()
    mul = {("one", b): {b: one} for b in ("one", "x", "y", "xy")}
    mul.update({(b, "one"): {b: one} for b in ("x", "y", "xy")})
    mul.update({("x", "y"): {"xy": one}, ("y", "x"): {"xy": F.neg(one)}})
    A = finite_table_algebra("E", F, {0: ("one",), 1: ("x", "y"), 2: ("xy",)}, "one", mul, {})
    N = DGModule(
        name="N", algebra=A, side="bi", window=GradedWindow(0, 2),
        basis={0: ("m",), 1: ("n",)},
        lact={("one", "m"): {"m": one}, ("one", "n"): {"n": one},
              ("x", "m"): {"n": one}, ("y", "m"): {"n": one}},
        ract={("m", "one"): {"m": one}, ("n", "one"): {"n": one},
              ("m", "x"): {"n": one}, ("m", "y"): {"n": one}},
        diff={},
    )
    assert validate_module(N).ok
    L = make_ledger(A, [("e0", 0, 0), ("e1", 0, 1)], {"e1": {"e0": {"x": one, "y": F.neg(one)}}})
    T = tensor_module_ledger(N, L, GradedWindow(-1, 2))
    X = hom_from_ledger(L, N, GradedWindow(-1, 2))
    return T, X


def test_internal_constructions_build_clean_tables(monkeypatch):
    # every presentation the library builds without Presentation._clean,
    # over the catalog pairs and everything the checks construct from
    # them, must already be clean
    from dgreg.algebra import Presentation
    from dgreg.catalog import catalog_pairs
    from dgreg.e2 import cech_e2

    built = []
    real = Presentation._built.__func__

    def spy(cls, **fields):
        X = real(cls, **fields)
        built.append(X)
        return X

    monkeypatch.setattr(Presentation, "_built", classmethod(spy))
    for F in (QQ, GF(7)):
        for A, M in catalog_pairs(F):
            regime = detect_regime(A)
            cm_reg(M, regime)
            local_duality_check(M, regime)
            double_duality_check(M, regime)
            regularity_inequalities(A, M, regime)
            if A.name == "Poly2" and M.has_left:
                cech_e2(A, M, [{"t1": F.one()}])
    # a ledger coefficient x - y against m.x = m.y = n (and x.m = y.m = n):
    # the two terms of a cell's differential cancel, in both complexes
    T, X = _cancelling_complexes()
    assert "m|e1" not in T.diff and "e0|m" not in X.diff
    assert T in built and X in built
    assert {type(X).__name__ for X in built} == {"DGAlgebra", "DGModule"}
    # clean and canonical: _clean brings each scalar into the field, and
    # each one is already in the form FieldSpec.coerce gives it
    for X in built:
        for name in X._tables:
            table = getattr(X, name)
            assert table == X._clean(table), (X.name, name)
            assert all(type(v) is type(X.field.coerce(v)) for c in table.values() for v in c.values()), (
                X.name, name)


def test_koszul_truncation_fixtures():
    Lam = square_zero_algebra()
    rL = detect_regime(Lam)
    r1 = koszul_truncation_check(Lam, free_module(Lam, side="bi"), 1, rL)
    assert r1.verdict == "holds", r1.detail
    r2 = koszul_truncation_check(Lam, canonical_k(Lam, side="left"), 0, rL)
    assert r2.verdict == "holds", r2.detail
    P1 = polynomial_algebra(1)
    r3 = koszul_truncation_check(P1, free_module(P1, side="bi"), 0, detect_regime(P1))
    assert r3.verdict == "holds", r3.detail


def test_derived_presentations_satisfy_module_axioms():
    # Hom complexes, ledger realizations, and torsion tensors are honest
    # DG modules: a sign error anywhere would break d^2, Leibniz, or
    # associativity here.
    from dgreg.homtensor import realize_ledger, tensor_module_ledger

    for A in (square_zero_algebra(), polynomial_algebra(2), exterior_algebra(3)):
        regime = detect_regime(A)
        D = dualizing_module(A, regime)
        k = canonical_k(A, side="left")
        res = semifree_resolve(k, 6)
        X = hom_from_ledger(res, D, GradedWindow(-18, 18))
        assert validate_module(X).ok, A.name
        assert validate_module(realize_ledger(res, k.window)).ok, A.name
    for d in (1, 2, 3):
        A = polynomial_algebra(d)
        regime = detect_regime(A)
        C = cech_carrier(A, regime)
        res = semifree_resolve(canonical_k(A, side="left"), 6)
        T = tensor_module_ledger(C, res, GradedWindow(-18, 18))
        assert validate_module(T).ok, A.name


# ---- pinned duality layer ------------------------------------------------------

# Sha256 over ``json.dumps(out, sort_keys=True)`` of the list built below,
# recorded before the duality layer was rewritten: the dual, dualizing and
# Cech tables, and every CM regularity value, duality report and Gamma
# contamination on the catalog pairs, must not change.
PINNED_DUALITY_SHA256 = "9e74a0cece524c2fd4c38d67fbfdd8e6053463dffa8655571d99ae3b68e2b484"


def _rows(table):
    return sorted(
        (repr(k), sorted((repr(x), str(c)) for x, c in v.items())) for k, v in table.items()
    )


def _tables(M):
    return [M.name, M.side, str(M.window), M.trust.to_json(),
            sorted((d, list(l)) for d, l in M.basis.items()),
            _rows(M.lact), _rows(M.ract), _rows(M.diff)]


def test_duality_layer_is_pinned():
    import hashlib
    import json

    from dgreg.catalog import catalog_pairs
    from dgreg.homtensor import realize_ledger

    out = []
    for F in (QQ, GF(7)):
        for A, M in catalog_pairs(F):
            out.append(_tables(linear_dual(M)))
            if M.has_left:
                out.append(_tables(linear_dual(realize_ledger(semifree_resolve(M, 3), M.window))))
            r = detect_regime(A)
            if not r.supported:
                continue
            out.append(_tables(dualizing_module(A, r)))
            if r.kind == "polynomial":
                out.append(_tables(cech_carrier(A, r)))
            if M.has_left:
                for s in (1, 3):
                    g = gamma(M, r, s)
                    out.append([
                        s, cm_reg(M, r, s).to_json(),
                        local_duality_check(M, r, s).to_json(),
                        double_duality_check(M, r, s).to_json(),
                        {str(j): n for j, n in g.contamination.items()}, g.notes,
                    ])
    assert len(out) == 164
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_DUALITY_SHA256


# ---- a certified value does not move when the window widens -------------------

WIDENING_ALGEBRAS = [
    square_zero_algebra,
    lambda F, W: exterior_algebra(1, F, W),
    lambda F, W: exterior_algebra(3, F, W),
    lambda F, W: polynomial_algebra(1, F, W),
    lambda F, W: polynomial_algebra(2, F, W),
    lambda F, W: polynomial_algebra(3, F, W),
]
WIDENING_MODULES = [
    ("k", {}), ("free", {}), ("suspended-k", {"n": 2}), ("suspended-k", {"n": -3}),
    ("truncated-free", {"level": 1}), ("truncated-free", {"level": 3}), ("cone-id", {}),
]


def _agree_on_certified(values, where):
    """Exact (or -inf) regularity values are one value, and no lower bound
    exceeds it."""
    exact = [v for v in values if v.certified_exact]
    assert len({(v.kind, v.n) for v in exact}) <= 1, (where, values)
    for v in values:
        if exact and v.lower_bound() is not None:
            assert v.lower_bound() <= exact[0].upper_bound(), (where, values)


def _truncations(M, degrees):
    """truncate_above(M, s) for each s, None where it is refused."""
    out = {}
    for s in degrees:
        try:
            out[s] = truncate_above(M, s)
        except TruncationImpossibleError:
            out[s] = None
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_certified_values_do_not_move_as_the_window_widens(field):
    """The same module over the algebra on windows 0..8, 0..12 and 0..16:
    certified H dimensions, exact Extreg and CMreg, decided Koszul values
    and holds/violated duality verdicts are the same on every window; a
    truncation from above that matches H on one window is refused on none,
    and the H of the truncations agrees where their windows certify it."""
    for make in WIDENING_ALGEBRAS:
        for kind, kw in WIDENING_MODULES:
            h, ext, cm, koszul, local, double, cut = ([] for _ in range(7))
            for hi in (8, 12, 16):
                A = make(field, GradedWindow(0, hi))
                regime = detect_regime(A)
                M = build_module(A, kind, side="left", **kw)
                h.append(cohomology(M))
                ext.append(ext_reg(M))
                cm.append(cm_reg(M, regime))
                koszul.append(koszul_test(M).value)
                local.append(local_duality_check(M, regime).verdict)
                double.append(double_duality_check(M, regime).verdict)
                cut.append(_truncations(M, range(-4, 5)))
            where = (A.name, kind, kw)
            for d in set().union(*(rep.dims for rep in h)):
                assert len({rep.dim(d) for rep in h if rep.certified.contains(d)}) <= 1, (where, d)
            _agree_on_certified(ext, where)
            _agree_on_certified(cm, where)
            assert len({v for v in koszul if v is not None}) <= 1, (where, koszul)
            for verdicts in (local, double):
                assert len(set(verdicts) & {"holds", "violated"}) <= 1, (where, verdicts)
            for s in range(-4, 5):
                certs = [c[s] for c in cut]
                if any(c is not None and c.h_match for c in certs):
                    assert None not in certs, (where, s)
                hs = [(cohomology(c.module), c.certified_window) for c in certs if c is not None]
                for d in set().union(*(rep.dims for rep, _ in hs)):
                    assert len({rep.dim(d) for rep, window in hs if window.contains(d)}) <= 1, (where, s, d)
