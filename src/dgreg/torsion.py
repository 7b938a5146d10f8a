"""Derived torsion, CM regularity, dualizing DG modules, local duality,
double duality, the regularity inequalities, and the Koszul truncation
consequence.

The torsion functor is computed only in the two regimes with an explicit
model:

* finite dimensional (dim_k H(A) < oo, certified by a fully trusted
  presentation): the counit of the torsion adjunction is an isomorphism
  on everything, so Gamma is the identity and the dualizing module is
  the k-linear dual of A;
* one-variable polynomial (A = k[T], |T| = d >= 1, zero differential):
  Gamma is chain-level tensor with the shifted Cech carrier
  S^{-1}(k[T,T^{-1}]/k[T]), and the dualizing module has generators e_l
  in degree dl + d - 1 with T^j e_l = e_{j+l} and
  e_l T^j = (-1)^{jd} e_{j+l}.

Every derived functor is read from one semifree resolution of M, and
each has one entry point that takes that resolution as ``resolution=``
(or resolves M itself when given none): :func:`gamma` (N (x) P with the
Cech carrier), :func:`cm_reg` (sup H of Gamma M) and
:func:`apply_duality` (Hom(P, D)), as ``resolution.ext_reg`` does.  The
checks resolve each module once and hand the resolution on.

What depends on A alone is computed once and kept on A (see
``DGAlgebra.kept``): the detected regime, the dualizing module D and
its opposite, the Cech carrier, and the pair (Extreg k, CMreg A) of
:func:`regularity_inequalities` for each stage budget.  Only the regime
:func:`detect_regime` returns for A is answered from there; any other
regime, one built by hand among them, gets freshly computed objects.
The carriers and the Hom/tensor complexes are built on tables that are
clean by construction, so they skip ``Presentation._clean``.

Partial resolutions contaminate the Hom/tensor complexes with shifted
copies of k coming from the un-killed cone classes; :func:`gamma` and
:func:`apply_duality` each state where theirs land, and the duality
checks account for those contributions explicitly instead of
pretending the complexes are exact.

Frontier window: a residual cone class of a resolution P in degree g
lands at g+1 in N (x) P and at -g-1 in Hom(P, N).  Classes outside the
resolution's scan are unrecorded, so a comparison of H against the
derived functor is made only on the certified window of the complex's
cohomology met with the scan shifted up one degree (its flip for Hom).

Bookkeeping hypotheses: the contamination is subtracted only when the
residual classes are killed by A^{>=1} (so each is a shifted copy of k)
and the augmentation is surjective on H (so the long exact sequences
split dimensionwise).  The resolver decides both on the final cone it
already holds, surjectivity through the cone's long exact sequence, and
records the verdict as ``SemifreeResolution.bookkeeping_ok``; a verdict
that needs them is indeterminate when they fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import DGAlgebra
from .catalog import polynomial_algebra
from .fields import FieldSpec
from .homtensor import hom_from_ledger, tensor_module_ledger
from .ledger import SemifreeResolution
from .lincomb import ceq
from .module import (
    BI,
    DGModule,
    LEFT,
    canonical_k,
    cohomology,
    free_module,
    hard_truncate,
    linear_dual,
    suspend,
    to_opposite,
)
from .resolution import RegularityValue, ext_reg, koszul_test, semifree_resolve
from .windows import GLOBAL_DEGREE_BOUND, GradedWindow, Trust


class UnsupportedRegimeError(ValueError):
    """Gamma-dependent operations outside the two computable regimes."""


@dataclass
class TorsionRegime:
    kind: str                 # "finite" | "polynomial" | "unsupported"
    d: int | None = None      # polynomial generator degree
    generator: str | None = None
    powers: dict = dc_field(default_factory=dict)  # j -> (label, scalar), gen^j = scalar * label
    evidence: str = ""

    @property
    def supported(self) -> bool:
        return self.kind in ("finite", "polynomial")

    def to_json(self):
        return {"kind": self.kind, "d": self.d, "generator": self.generator,
                "evidence": self.evidence}


def detect_regime(A: DGAlgebra) -> TorsionRegime:
    """Classify A as finite dimensional, polynomial on one generator, or
    unsupported for torsion computations.  Detected once per algebra and
    kept on it."""
    return A.kept("regime", lambda: _detect_regime(A))


def _detect_regime(A: DGAlgebra) -> TorsionRegime:
    if A.complete:
        top = max(A.basis) if A.basis else 0
        return TorsionRegime("finite", evidence=f"presentation complete, basis exhausted by degree {top}")
    if any(A.diff.values()):
        return TorsionRegime("unsupported", evidence="nonzero differential with truncated presentation")
    positive = [d for d in A.degrees() if d > 0]
    if not positive:
        return TorsionRegime("unsupported", evidence="no positive-degree basis but truncated")
    d = positive[0]
    for deg in range(0, A.window.hi + 1):
        want = 1 if deg % d == 0 else 0
        if A.dim(deg) != want:
            return TorsionRegime(
                "unsupported", evidence=f"degreewise dimensions do not match k[T] with |T| = {d}"
            )
    F = A.field
    gen = A.basis_at(d)[0]
    powers = {0: (A.unit, F.one()), 1: (gen, F.one())}
    cur_lbl, cur_sc = gen, F.one()
    j = 1
    while (j + 1) * d <= A.window.hi:
        prod = A.product(cur_lbl, gen)
        if prod is None or len(prod) != 1:
            return TorsionRegime("unsupported", evidence="powers of the generator do not span")
        (lbl, c), = prod.items()
        cur_sc = F.mul(cur_sc, c)
        if F.is_zero(cur_sc):
            return TorsionRegime("unsupported", evidence="generator is nilpotent")
        cur_lbl = lbl
        j += 1
        powers[j] = (cur_lbl, cur_sc)
    return TorsionRegime(
        "polynomial", d=d, generator=gen, powers=powers,
        evidence=f"matches k[T] with |T| = {d} on the window",
    )


def _require(regime: TorsionRegime):
    if not regime.supported:
        raise UnsupportedRegimeError(regime.evidence)


def _kept_on(A: DGAlgebra, regime: TorsionRegime, key, build):
    """``build()`` kept on A under ``key`` when ``regime`` is A's own
    detected regime; for any other regime, one built by hand among them,
    it is computed fresh."""
    if regime is detect_regime(A):
        return A.kept(key, build)
    return build()


def _landing(res: SemifreeResolution) -> Trust:
    """The degrees of N (x) P where the residual cone classes of ``res``
    are recorded; its flip is the same window for Hom(P, N)."""
    return res.scan.shift(-1)


# -- explicit carriers -------------------------------------------------------


def _power_bimodule(A: DGAlgebra, regime: TorsionRegime, name: str, degrees: dict,
                    prefix: str, step: int, window: GradedWindow, trust: Trust) -> DGModule:
    """The bimodule with basis ``prefix + l`` in degree ``degrees[l]``, zero
    differential, and T^p sending index l to l + step*p: the left action
    is 1/c for T^p = c * label, the right one (-1)^{pd}/c; indices outside
    ``degrees`` give zero."""
    F, d = A.field, regime.d
    labels = {l: f"{prefix}{l}" for l in degrees}
    lact, ract = {}, {}
    for l, lbl in labels.items():
        for p, (plbl, psc) in regime.powers.items():
            target = labels.get(l + step * p)
            if target is not None:
                inv = F.inv(psc)
                left = lact[(plbl, lbl)] = {target: inv}
                sign = F.sign(p * d)
                ract[(lbl, plbl)] = left if sign == F.one() else {target: F.mul(sign, inv)}
    return DGModule._built(
        name=name,
        algebra=A,
        side=BI,
        window=window,
        basis={degrees[l]: (lbl,) for l, lbl in labels.items()},
        lact=lact,
        ract=ract,
        diff={},
        trust=trust,
    )


def cech_carrier(A: DGAlgebra, regime: TorsionRegime) -> DGModule:
    """The shifted Cech bimodule S^{-1}(k[T,T^{-1}]/k[T]) over k[T].

    Basis c_j (the class of T^{-j}) in degree 1 - dj for j >= 1, zero
    differential, T c_j = c_{j-1} (and = 0 for j = 1), and mirrored right
    action c_j T = (-1)^d c_{j-1}.  Continues below every window: trusted
    down to the stored bottom only.
    """
    _require(regime)
    if regime.kind != "polynomial":
        raise UnsupportedRegimeError("the Cech carrier is a polynomial-regime object")

    def build():
        d = regime.d
        window = GradedWindow(-A.window.hi, A.window.hi)
        degrees = {j: 1 - d * j for j in range(1, (1 - window.lo) // d + 1)}
        return _power_bimodule(A, regime, "S-1C", degrees, "c", -1, window, Trust(window.lo, None))

    return _kept_on(A, regime, "cech carrier", build)


def dualizing_module(A: DGAlgebra, regime: TorsionRegime) -> DGModule:
    """The dualizing DG module in a supported regime.

    Finite regime: A* as a bimodule.  Polynomial regime: the twisted
    shift (S^{-(d-1)}A)^alpha realized by its closed-form action tables
    T^j e_l = e_{j+l}, e_l T^j = (-1)^{jd} e_{j+l}.
    """
    _require(regime)

    def build():
        if regime.kind == "finite":
            return linear_dual(free_module(A, side=BI), name="D")
        d = regime.d
        window = GradedWindow(-A.window.hi, A.window.hi)
        degrees = {l: d * l + d - 1 for l in range((window.hi + 1 - d) // d + 1)}
        return _power_bimodule(A, regime, "D", degrees, "e", 1, window, Trust(None, window.hi))

    return _kept_on(A, regime, "dualizing", build)


def twist_nontriviality(d: int, field: FieldSpec) -> bool:
    """Whether the left and right actions on the polynomial dualizing
    module genuinely differ: compares T e_0 with e_0 T."""
    A = polynomial_algebra(d, field)
    regime = detect_regime(A)
    D = dualizing_module(A, regime)
    gen = regime.generator
    left = D.act_left(gen, "e0")
    right = D.act_right("e0", gen)
    return not ceq(field, left or {}, right or {})


# -- Gamma and CM regularity -------------------------------------------------


@dataclass
class GammaResult:
    value: DGModule
    resolution: SemifreeResolution | None
    contamination: dict      # degree -> dim of known spurious H from the frontier
    notes: list

    @property
    def exact(self) -> bool:
        return not self.contamination


def gamma(M: DGModule, regime: TorsionRegime, max_stages: int = 8,
          resolution: SemifreeResolution | None = None) -> GammaResult:
    """A complex computing the derived torsion of M.

    Finite regime: M itself (the counit of the adjunction is an
    isomorphism on the whole derived category since A is built from k).
    Polynomial regime: the Cech carrier tensored against ``resolution``,
    a ledger resolution of M, or one of ``max_stages`` stages when none
    is given; residual cone classes of an incomplete resolution
    contribute known extra H (one shifted copy of Gamma k = k per class,
    one degree up), reported as contamination.
    """
    _require(regime)
    if regime.kind == "finite":
        return GammaResult(M, None, {}, ["finite regime: Gamma is the identity (counit iso)"])
    res = resolution if resolution is not None else semifree_resolve(M, max_stages)
    C = cech_carrier(M.algebra, regime)
    lo = C.window.lo + (res.min_gen_degree() or 0)
    hi = max(C.window.hi, M.window.hi) + max(0, res.max_gen_degree() or 0) + 1
    window = GradedWindow(max(lo, -GLOBAL_DEGREE_BOUND), min(hi, GLOBAL_DEGREE_BOUND))
    T, notes = tensor_module_ledger(C, res, window, name=f"Gamma({M.name})")
    contamination = {g + 1: n for g, n in res.residual.items()}
    if contamination:
        notes.append("incomplete resolution: contamination dims recorded one degree above each residual cone class")
    return GammaResult(T, res, contamination, notes)


def cm_reg(M: DGModule, regime: TorsionRegime, max_stages: int = 8,
           resolution: SemifreeResolution | None = None) -> RegularityValue:
    """CM regularity: sup of the cohomology of Gamma M.

    Gamma M is built from ``resolution`` as in :func:`gamma`, and only
    when H(M) != 0: a module with zero H is never resolved.
    """
    _require(regime)
    h_m = cohomology(M)
    if not h_m.dims:
        if M.complete:
            return RegularityValue.neg_infinity("zero cohomology")
        return RegularityValue.at_least(M.window.lo, "no cohomology in window")
    g = gamma(M, regime, max_stages, resolution)
    h = cohomology(g.value)
    cmp_trust = h.certified if g.resolution is None else h.certified.meet(_landing(g.resolution))
    dims = {d: n for d, n in h.dims.items() if cmp_trust.contains(d)}
    indeterminate = False
    for dgr, n in g.contamination.items():
        if not cmp_trust.contains(dgr):
            continue
        have = dims.get(dgr, 0)
        if have < n:
            indeterminate = True
        else:
            rest = have - n
            if rest:
                dims[dgr] = rest
            else:
                dims.pop(dgr, None)
    if not dims:
        return RegularityValue.neg_infinity("Gamma M has no cohomology in window")
    sup = max(dims)
    # vanishing above sup is certified when the raw complex is trusted
    # unboundedly above and shows nothing there beyond accounted junk
    certified = h.certified.hi is None and not indeterminate
    for j in h.dims:
        if j > sup and not cmp_trust.contains(j):
            certified = False
    if g.contamination and not g.resolution.bookkeeping_ok:
        certified = False
    if certified:
        return RegularityValue.exact(sup, "sup of H(Gamma M), vanishing above certified")
    return RegularityValue.at_least(sup, "window or contamination limits certification")


# -- duality ------------------------------------------------------------------


def apply_duality(M: DGModule, D: DGModule, max_stages: int = 8,
                  resolution: SemifreeResolution | None = None):
    """RHom_A(M, D) as the Hom complex from a ledger resolution of M.

    Returns (complex, resolution, contamination, notes); contamination
    maps degree j to the known spurious H-dimension residual(-j-1)
    contributed by un-killed cone classes of a partial resolution.

    D must be the dualizing module (or its opposite): the rule
    {-(g+1): n} assumes RHom_A(k, D) is k in degree 0, one copy per
    residual class at degree g.  For another D the correction is wrong:
    for k over Lambda with D = Lambda, H reads {0: 1, 1: 1} and the rule
    subtracts at degree -1, yet Ext_Lambda(k, Lambda) is one-dimensional.
    """
    res = resolution if resolution is not None else semifree_resolve(M, max_stages)
    supp = D.support()
    if not supp or not res.gens:
        window = GradedWindow(-2, 2)
    else:
        lo = supp[0] - (res.max_gen_degree() or 0) - 1
        hi = supp[1] - (res.min_gen_degree() or 0) + 1
        window = GradedWindow(max(lo, -GLOBAL_DEGREE_BOUND), min(hi, GLOBAL_DEGREE_BOUND))
    X, notes = hom_from_ledger(res, D, window, name=f"RHom({M.name},{D.name})")
    contamination = {-(g + 1): n for g, n in res.residual.items()}
    return X, res, contamination, notes


def _dims_table(cmp_trust: Trust, first, second):
    """Compare two sides, each given as (name, H report, contamination),
    degree by degree on ``cmp_trust``, each dimension less its side's
    contamination.  Returns (table, some entry negative, sides differ)."""
    (n1, h1, c1), (n2, h2, c2) = first, second
    degrees = sorted(
        d for d in set(h1.dims) | set(h2.dims) | set(c1) | set(c2) if cmp_trust.contains(d)
    )
    table = {j: {n1: h1.dim(j) - c1.get(j, 0), n2: h2.dim(j) - c2.get(j, 0)} for j in degrees}
    negative = any(min(row.values()) < 0 for row in table.values())
    mismatch = any(row[n1] != row[n2] for row in table.values())
    return table, negative, mismatch


@dataclass
class CheckReport:
    name: str
    verdict: str            # "holds" | "violated" | "indeterminate"
    detail: dict
    notes: list

    @property
    def ok(self) -> bool:
        return self.verdict == "holds"

    def to_json(self):
        return {"check": self.name, "verdict": self.verdict,
                "detail": self.detail, "notes": self.notes}


def local_duality_check(M: DGModule, regime: TorsionRegime, max_stages: int = 8) -> CheckReport:
    """Equality of H-dimensions of (Gamma M)* and RHom_A(M, D).

    In the finite regime the left side is computed honestly as M* (Gamma
    is the identity); in the polynomial regime both sides are built from
    the same ledger resolution and carry identical frontier
    contributions, which therefore cancel in the comparison.
    """
    _require(regime)
    D = dualizing_module(M.algebra, regime)
    rhs, res, contam_rhs, notes = apply_duality(M, D, max_stages)
    if regime.kind == "finite":
        lhs, contam_lhs = linear_dual(M), {}
    else:
        g = gamma(M, regime, resolution=res)
        lhs, contam_lhs = linear_dual(g.value), contam_rhs
        notes += g.notes
    h_rhs, h_lhs = cohomology(rhs), cohomology(lhs)
    cmp_trust = h_rhs.certified.meet(h_lhs.certified).meet(_landing(res).flip())
    table, negative, mismatch = _dims_table(
        cmp_trust, ("gamma_dual", h_lhs, contam_lhs), ("rhom", h_rhs, contam_rhs))
    uncompared = sorted(
        d for d in set(h_rhs.dims) | set(h_lhs.dims)
        if not cmp_trust.contains(d)
    )
    verdict = "holds"
    if negative:
        verdict = "indeterminate"
        notes.append("contamination exceeded a computed dimension")
    elif not res.bookkeeping_ok:
        verdict = "indeterminate"
        notes.append("frontier bookkeeping hypotheses failed; mismatch not certified" if mismatch
                     else "corrections used but their hypotheses could not be verified")
    elif mismatch:
        verdict = "violated"
    if uncompared:
        notes.append(f"degrees outside the comparison window were skipped: {uncompared}")
    return CheckReport(
        "local-duality",
        verdict,
        {"dims": {str(j): v for j, v in table.items()},
         "certified": cmp_trust.to_json()},
        notes,
    )


def double_duality_check(M: DGModule, regime: TorsionRegime, max_stages: int = 8) -> CheckReport:
    """RHom_{A^op}(RHom_A(M, D), D) recovers the H-dimensions of M.

    Both Hom steps use ledger resolutions; un-killed cone classes of
    either resolution contribute known shifted copies of k whose dual
    dimensions are subtracted before comparing, under the bookkeeping
    hypotheses of the module docstring.
    """
    _require(regime)
    A = M.algebra
    D = dualizing_module(A, regime)
    X, res_in, contam_in, notes = apply_duality(M, D, max_stages)
    D_op = _kept_on(A, regime, "dualizing opposite", lambda: to_opposite(D))
    Z, res_out, contam_out, n2 = apply_duality(to_opposite(X), D_op, max_stages)
    notes += n2

    h_z = cohomology(Z)
    h_m = cohomology(M)
    # inner residual classes land as in a tensor, outer ones as in a Hom
    cmp_trust = (h_z.certified.meet(h_m.certified)
                 .meet(_landing(res_out).flip()).meet(_landing(res_in)))
    contam = {-j: n for j, n in contam_in.items()}
    for j, n in contam_out.items():
        contam[j] = contam.get(j, 0) + n

    table, negative, mismatch = _dims_table(
        cmp_trust, ("recovered", h_z, contam), ("target", h_m, {}))
    missed_target = sorted(d for d in h_m.dims if not cmp_trust.contains(d))
    if missed_target:
        notes.append(f"target cohomology outside the comparison window: {missed_target}")
        negative = True  # cannot certify recovery there

    hypotheses_ok = res_in.bookkeeping_ok and res_out.bookkeeping_ok
    if negative or (mismatch and not hypotheses_ok):
        verdict = "indeterminate"
        notes.append("contamination bookkeeping not certified")
    elif mismatch:
        verdict = "violated"
    elif not hypotheses_ok:
        verdict = "indeterminate"
        notes.append("corrections used but their hypotheses could not be verified")
    else:
        verdict = "holds"
    return CheckReport(
        "double-duality",
        verdict,
        {"dims": {str(j): v for j, v in table.items()},
         "contamination": {str(j): n for j, n in sorted(contam.items())}},
        notes,
    )


# -- regularity inequalities ---------------------------------------------------


def _sum_values(a: RegularityValue, b: RegularityValue):
    """(lower, upper) bounds of a + b over extended integers."""
    lows = (a.lower_bound(), b.lower_bound())
    low = float("-inf") if float("-inf") in lows else sum(lows)
    ua, ub = a.upper_bound(), b.upper_bound()
    if ua == float("-inf") or ub == float("-inf"):
        up = float("-inf")
    elif ua is None or ub is None:
        up = None
    else:
        up = ua + ub
    return low, up


def _le_verdict(lhs: RegularityValue, rhs_low, rhs_up) -> str:
    lu = lhs.upper_bound()
    ll = lhs.lower_bound()
    if lu is not None and lu <= rhs_low:
        return "holds"
    if rhs_up is not None and ll > rhs_up:
        return "violated"
    return "indeterminate"


def regularity_inequalities(A: DGAlgebra, M: DGModule, regime: TorsionRegime,
                            max_stages: int = 8) -> dict:
    """The three regularity inequalities for a module with bounded-below
    nonzero cohomology, plus the finiteness consequence:

      (i)  CMreg M != -inf,
      (ii) Extreg M <= CMreg M + Extreg k,
      (iii) CMreg M <= Extreg M + CMreg A,

    each reported holds / violated / indeterminate with the certified
    values; a certified violation would indicate an implementation bug.
    """
    _require(regime)
    h = cohomology(M)
    if not h.dims:
        return {"skipped": "H(M) = 0 in window; preconditions fail", "checks": {}}
    if not h.inf_certified:
        return {"skipped": "H(M) not certified bounded below", "checks": {}}

    # one resolution of M serves both of its regularities; those of k and
    # A belong to A and are kept on it per stage budget
    res_m = semifree_resolve(M, max_stages)
    extreg_m = ext_reg(M, max_stages, resolution=res_m)
    cmreg_m = cm_reg(M, regime, max_stages, resolution=res_m)
    extreg_k, cmreg_a = _kept_on(A, regime, ("extreg k, cmreg A", max_stages), lambda: (
        ext_reg(canonical_k(A, side=LEFT), max_stages),
        cm_reg(free_module(A, side=BI), regime, max_stages)))

    checks = {}
    checks["cmreg-not-minus-infinity"] = (
        "violated" if cmreg_m.kind == "neg_infinity" else "holds"
    )
    low, up = _sum_values(cmreg_m, extreg_k)
    checks["extreg<=cmreg+extregk"] = _le_verdict(extreg_m, low, up)
    low2, up2 = _sum_values(extreg_m, cmreg_a)
    checks["cmreg<=extreg+cmrega"] = _le_verdict(cmreg_m, low2, up2)

    finiteness = "indeterminate"
    if extreg_k.kind == "exact":
        if extreg_m.kind == "exact":
            finiteness = "holds"
        elif cmreg_m.kind == "exact":
            finiteness = "holds"  # Extreg M <= CMreg M + Extreg k < oo
    values = {
        "extreg_m": extreg_m, "cmreg_m": cmreg_m,
        "extreg_k": extreg_k, "cmreg_a": cmreg_a,
    }
    return {"values": values, "checks": checks, "extreg_finite_when_extregk_finite": finiteness}


def koszul_truncation_check(A: DGAlgebra, M: DGModule, t: int,
                            regime: TorsionRegime, max_stages: int = 8) -> CheckReport:
    """Over a Koszul algebra, S^t(M^{>= t}) is a Koszul module whenever
    CMreg M <= t."""
    _require(regime)
    notes = []
    kos = koszul_test(A, max_stages)
    if kos.value is not True or not kos.certified:
        return CheckReport("koszul-truncation", "indeterminate",
                           {"reason": "algebra not certified Koszul"}, notes)
    cm = cm_reg(M, regime, max_stages)
    up = cm.upper_bound()
    if up is None or up > t:
        return CheckReport("koszul-truncation", "indeterminate",
                           {"reason": f"CMreg M not certified <= {t} (got {cm})"}, notes)
    trunc = hard_truncate(M, t).sub
    shifted = suspend(trunc, t, name=f"S{t}(trunc)")
    rep = koszul_test(shifted, max_stages)
    if rep.value is True:
        verdict = "holds"
    elif rep.value is False:
        verdict = "violated"
    else:
        verdict = "indeterminate"
    return CheckReport(
        "koszul-truncation", verdict,
        {"cmreg_m": cm.to_json(), "t": t, "module_koszul": rep.to_json()},
        notes,
    )
