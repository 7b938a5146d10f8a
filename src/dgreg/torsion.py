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

The regime is A's: every entry point reads :func:`detect_regime`, and
the ``regime`` it may be handed is a claim checked against detection (a
claim that is not A's regime raises :class:`UnsupportedRegimeError`).

Every derived functor is read from the semifree resolution kept on M
for its stage budget (``resolution.resolved``): :func:`gamma` (N (x) P
with the Cech carrier), :func:`cm_reg` (sup H of Gamma M) and
:func:`apply_duality` (Hom(P, D)), so M is resolved once however many
checks run on it, in any order.  A module also keeps its H report
(``module.kept_cohomology``) and its CMreg value per stage budget, but
no complex; ``semifree_resolve`` and ``cohomology`` keep nothing.
Nothing built from M together with another object is kept: not Gamma
M, RHom(M, D) or an opposite.

What depends on A alone is computed once and kept on A (see
``Presentation.kept``): the detected regime, the dualizing module D and
its opposite, the Cech carrier, the canonical module k as a bimodule
(``resolution.kept_k``) and A as a bimodule over itself, which keep
Extreg k's resolution and CMreg A as any module does; the catalog
sweep's pairs are these two modules.
The carriers and the Hom/tensor complexes are built on tables that are
clean by construction, so they skip ``Presentation._clean``.

Partial resolutions contaminate the Hom/tensor complexes with shifted
copies of k coming from the un-killed cone classes; :func:`gamma` and
:func:`apply_duality` each return a :class:`DerivedComplex` saying where
and how much, and CMreg and the duality checks account for those
contributions explicitly instead of pretending the complexes are exact.

Frontier window: a residual cone class of a resolution P in degree g
lands at g+1 in N (x) P and at -g-1 in Hom(P, N).  Classes outside the
resolution's scan are unrecorded, so a comparison of H against the
derived functor is made only on the certified window of the complex's
cohomology met with the scan shifted up one degree (its flip for Hom),
the record's ``landing``; ``DerivedComplex.over`` alone states this rule.

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
from .homtensor import _free_bimodule, hom_from_ledger, tensor_module_ledger
from .ledger import SemifreeResolution
from .lincomb import ceq
from .module import (
    BI,
    DGModule,
    free_module,
    hard_truncate,
    kept_cohomology,
    linear_dual,
    suspend,
    to_opposite,
)
from .resolution import RegularityValue, ext_reg, kept_k, koszul_test, resolved
from .windows import GLOBAL_DEGREE_BOUND, GradedWindow, Trust


class UnsupportedRegimeError(ValueError):
    """Gamma-dependent operations outside the two computable regimes."""


@dataclass(frozen=True)
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


def _regime(A: DGAlgebra, claimed: TorsionRegime | None = None) -> TorsionRegime:
    """A's detected regime, which must be supported and equal ``claimed``
    when one is given."""
    regime = detect_regime(A)
    if claimed is not None and claimed != regime:
        raise UnsupportedRegimeError(
            f"claimed {claimed.kind} regime is not {A.name}'s: detection says {regime.kind} ({regime.evidence})"
        )
    if not regime.supported:
        raise UnsupportedRegimeError(regime.evidence)
    return regime


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


def cech_carrier(A: DGAlgebra, regime: TorsionRegime | None = None) -> DGModule:
    """The shifted Cech bimodule S^{-1}(k[T,T^{-1}]/k[T]) over k[T].

    Basis c_j (the class of T^{-j}) in degree 1 - dj for j >= 1, zero
    differential, T c_j = c_{j-1} (and = 0 for j = 1), and mirrored right
    action c_j T = (-1)^d c_{j-1}.  Continues below every window: trusted
    down to the stored bottom only.
    """
    regime = _regime(A, regime)
    if regime.kind != "polynomial":
        raise UnsupportedRegimeError("the Cech carrier is a polynomial-regime object")

    def build():
        d = regime.d
        window = GradedWindow(-A.window.hi, A.window.hi)
        degrees = {j: 1 - d * j for j in range(1, (1 - window.lo) // d + 1)}
        return _power_bimodule(A, regime, "S-1C", degrees, "c", -1, window, Trust(window.lo, None))

    return A.kept("cech carrier", build)


def dualizing_module(A: DGAlgebra, regime: TorsionRegime | None = None) -> DGModule:
    """The dualizing DG module in a supported regime.

    Finite regime: A* as a bimodule.  Polynomial regime: the twisted
    shift (S^{-(d-1)}A)^alpha realized by its closed-form action tables
    T^j e_l = e_{j+l}, e_l T^j = (-1)^{jd} e_{j+l}.
    """
    regime = _regime(A, regime)

    def build():
        if regime.kind == "finite":
            return linear_dual(free_module(A, side=BI), name="D")
        d = regime.d
        window = GradedWindow(-A.window.hi, A.window.hi)
        degrees = {l: d * l + d - 1 for l in range((window.hi + 1 - d) // d + 1)}
        return _power_bimodule(A, regime, "D", degrees, "e", 1, window, Trust(None, window.hi))

    return A.kept("dualizing", build)


def twist_nontriviality(d: int, field: FieldSpec) -> bool:
    """Whether the left and right actions on the polynomial dualizing
    module genuinely differ: compares T e_0 with e_0 T."""
    A = polynomial_algebra(d, field)
    D = dualizing_module(A)
    gen = detect_regime(A).generator
    left = D.act_left(gen, "e0")
    right = D.act_right("e0", gen)
    return not ceq(field, left or {}, right or {})


# -- Gamma and CM regularity -------------------------------------------------


@dataclass
class DerivedComplex:
    """A derived-functor complex N (x) P or Hom(P, N) over a resolution P,
    with what P's frontier adds to its H and where that is recorded."""

    value: DGModule
    resolution: SemifreeResolution | None
    contamination: dict      # degree -> dim of known spurious H from the frontier
    landing: Trust
    notes: list

    @property
    def exact(self) -> bool:
        return not self.contamination

    @classmethod
    def over(cls, value: DGModule, res: SemifreeResolution, hom: bool = False) -> "DerivedComplex":
        """The record of ``value``, N (x) P over ``res`` (Hom(P, N) when
        ``hom``), by the frontier rule of the module docstring."""
        s, landing = (-1, res.scan.shift(-1).flip()) if hom else (1, res.scan.shift(-1))
        notes = [] if res.ledger_bound is None else [
            f"ledger not known complete beyond degree {res.ledger_bound}; the complex "
            "models the derived functor up to the recorded frontier contributions"]
        return cls(value, res, {s * (g + 1): n for g, n in res.residual.items()}, landing, notes)


def gamma(M: DGModule, regime: TorsionRegime | None = None, max_stages: int = 8) -> DerivedComplex:
    """A complex computing the derived torsion of M.

    Finite regime: M itself (the counit of the adjunction is an
    isomorphism on the whole derived category since A is built from k).
    Polynomial regime: the Cech carrier tensored against the resolution
    of M kept for ``max_stages`` stages; residual cone classes of an
    incomplete resolution contribute known extra H (one shifted copy of
    Gamma k = k per class, one degree up), reported as contamination.
    """
    if _regime(M.algebra, regime).kind == "finite":
        return DerivedComplex(M, None, {}, Trust.everywhere(), ["finite regime: Gamma is the identity (counit iso)"])
    res = resolved(M, max_stages)
    C = cech_carrier(M.algebra)
    lo = C.window.lo + (res.min_gen_degree() or 0)
    hi = max(C.window.hi, M.window.hi) + max(0, res.max_gen_degree() or 0) + 1
    window = GradedWindow(max(lo, -GLOBAL_DEGREE_BOUND), min(hi, GLOBAL_DEGREE_BOUND))
    g = DerivedComplex.over(tensor_module_ledger(C, res, window, name=f"Gamma({M.name})"), res)
    if g.contamination:
        g.notes.append("incomplete resolution: contamination dims recorded one degree above each residual cone class")
    return g


def cm_reg(M: DGModule, regime: TorsionRegime | None = None, max_stages: int = 8) -> RegularityValue:
    """CM regularity: sup of the cohomology of Gamma M.

    Gamma M is built as in :func:`gamma`, and only when H(M) != 0: a
    module with zero H is never resolved.  The value (not Gamma M) is
    kept on M per stage budget.
    """
    _regime(M.algebra, regime)
    return M.kept(("cmreg", max_stages), lambda: _cm_reg(M, max_stages))


def _cm_reg(M: DGModule, max_stages: int) -> RegularityValue:
    h_m = kept_cohomology(M)
    if not h_m.dims:
        if M.complete:
            return RegularityValue.neg_infinity("zero cohomology")
        return RegularityValue.at_least(M.window.lo, "no cohomology in window")
    g = gamma(M, max_stages=max_stages)
    h = kept_cohomology(g.value)
    cmp_trust = h.certified.meet(g.landing)
    # less contamination; a dimension it exceeds stays, and is indeterminate
    dims, indeterminate = {}, False
    for d in set(h.dims) | set(g.contamination):
        if cmp_trust.contains(d):
            n = h.dim(d) - g.contamination.get(d, 0)
            if n < 0:
                n, indeterminate = h.dim(d), True
            if n:
                dims[d] = n
    if not dims:
        return RegularityValue.neg_infinity("Gamma M has no cohomology in window")
    sup = max(dims)
    # vanishing above sup is certified when the raw complex is trusted
    # unboundedly above and shows nothing there beyond accounted junk
    certified = (h.certified.hi is None and not indeterminate
                 and all(cmp_trust.contains(j) for j in h.dims if j > sup)
                 and (g.exact or g.resolution.bookkeeping_ok))
    if certified:
        return RegularityValue.exact(sup, "sup of H(Gamma M), vanishing above certified")
    return RegularityValue.at_least(sup, "window or contamination limits certification")


# -- duality ------------------------------------------------------------------


def apply_duality(M: DGModule, D: DGModule, max_stages: int = 8) -> DerivedComplex:
    """RHom_A(M, D) as the Hom complex from the resolution of M kept for
    ``max_stages`` stages, in its :class:`DerivedComplex` record, whose
    contamination maps degree j to the known spurious H-dimension
    residual(-j-1) contributed by un-killed cone classes of a partial
    resolution.

    D must be the dualizing module (or its opposite): the rule
    {-(g+1): n} assumes RHom_A(k, D) is k in degree 0, one copy per
    residual class at degree g.  For another D the correction is wrong:
    for k over Lambda with D = Lambda, H reads {0: 1, 1: 1} and the rule
    subtracts at degree -1, yet Ext_Lambda(k, Lambda) is one-dimensional.
    """
    res = resolved(M, max_stages)
    supp = D.support()
    if not supp or not res.gens:
        window = GradedWindow(-2, 2)
    else:
        lo = supp[0] - (res.max_gen_degree() or 0) - 1
        hi = supp[1] - (res.min_gen_degree() or 0) + 1
        window = GradedWindow(max(lo, -GLOBAL_DEGREE_BOUND), min(hi, GLOBAL_DEGREE_BOUND))
    return DerivedComplex.over(hom_from_ledger(res, D, window, name=f"RHom({M.name},{D.name})"), res, hom=True)


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


def local_duality_check(M: DGModule, regime: TorsionRegime | None = None, max_stages: int = 8) -> CheckReport:
    """Equality of H-dimensions of (Gamma M)* and RHom_A(M, D).

    In the finite regime the left side is computed honestly as M* (Gamma
    is the identity); in the polynomial regime both sides are built from
    the same ledger resolution and carry identical frontier
    contributions, which therefore cancel in the comparison.
    """
    regime = _regime(M.algebra, regime)
    D = dualizing_module(M.algebra)
    X = apply_duality(M, D, max_stages)
    if regime.kind == "finite":
        lhs, contam_lhs = linear_dual(M), {}
    else:
        g = gamma(M, max_stages=max_stages)
        lhs, contam_lhs = linear_dual(g.value), X.contamination
        X.notes += g.notes
    h_rhs, h_lhs = kept_cohomology(X.value), kept_cohomology(lhs)
    cmp_trust = h_rhs.certified.meet(h_lhs.certified).meet(X.landing)
    table, negative, mismatch = _dims_table(
        cmp_trust, ("gamma_dual", h_lhs, contam_lhs), ("rhom", h_rhs, X.contamination))
    uncompared = sorted(
        d for d in set(h_rhs.dims) | set(h_lhs.dims)
        if not cmp_trust.contains(d)
    )
    verdict = "holds"
    if negative:
        verdict = "indeterminate"
        X.notes.append("contamination exceeded a computed dimension")
    elif not X.resolution.bookkeeping_ok:
        verdict = "indeterminate"
        X.notes.append("frontier bookkeeping hypotheses failed; mismatch not certified" if mismatch
                       else "corrections used but their hypotheses could not be verified")
    elif mismatch:
        verdict = "violated"
    if uncompared:
        X.notes.append(f"degrees outside the comparison window were skipped: {uncompared}")
    return CheckReport(
        "local-duality",
        verdict,
        {"dims": {str(j): v for j, v in table.items()},
         "certified": cmp_trust.to_json()},
        X.notes,
    )


def double_duality_check(M: DGModule, regime: TorsionRegime | None = None, max_stages: int = 8) -> CheckReport:
    """RHom_{A^op}(RHom_A(M, D), D) recovers the H-dimensions of M.

    Both Hom steps use ledger resolutions; un-killed cone classes of
    either resolution contribute known shifted copies of k whose dual
    dimensions are subtracted before comparing, under the bookkeeping
    hypotheses of the module docstring.
    """
    A = M.algebra
    D = dualizing_module(A, regime)
    X = apply_duality(M, D, max_stages)
    D_op = A.kept("dualizing opposite", lambda: to_opposite(D))
    Z = apply_duality(to_opposite(X.value), D_op, max_stages)
    notes = X.notes + Z.notes

    h_z = kept_cohomology(Z.value)
    h_m = kept_cohomology(M)
    # inner residual classes land as in a tensor, outer ones as in a Hom
    cmp_trust = h_z.certified.meet(h_m.certified).meet(Z.landing).meet(X.landing.flip())
    contam = {-j: n for j, n in X.contamination.items()}
    for j, n in Z.contamination.items():
        contam[j] = contam.get(j, 0) + n

    table, negative, mismatch = _dims_table(
        cmp_trust, ("recovered", h_z, contam), ("target", h_m, {}))
    missed_target = sorted(d for d in h_m.dims if not cmp_trust.contains(d))
    if missed_target:
        notes.append(f"target cohomology outside the comparison window: {missed_target}")
        negative = True  # cannot certify recovery there

    hypotheses_ok = X.resolution.bookkeeping_ok and Z.resolution.bookkeeping_ok
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


def regularity_inequalities(A: DGAlgebra, M: DGModule, regime: TorsionRegime | None = None,
                            max_stages: int = 8) -> dict:
    """The three regularity inequalities for a module with bounded-below
    nonzero cohomology, plus the finiteness consequence:

      (i)  CMreg M != -inf,
      (ii) Extreg M <= CMreg M + Extreg k,
      (iii) CMreg M <= Extreg M + CMreg A,

    each reported holds / violated / indeterminate with the certified
    values; a certified violation would indicate an implementation bug.
    Each value reads what is kept on its own module: M, the k kept on A
    and A as a bimodule over itself.
    """
    _regime(A, regime)
    h = kept_cohomology(M)
    if not h.dims:
        return {"skipped": "H(M) = 0 in window; preconditions fail", "checks": {}}
    if not h.inf_certified:
        return {"skipped": "H(M) not certified bounded below", "checks": {}}

    extreg_m = ext_reg(M, max_stages)
    cmreg_m = cm_reg(M, max_stages=max_stages)
    extreg_k = ext_reg(kept_k(A), max_stages)
    cmreg_a = cm_reg(_free_bimodule(A), max_stages=max_stages)

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
                            regime: TorsionRegime | None = None, max_stages: int = 8) -> CheckReport:
    """Over a Koszul algebra, S^t(M^{>= t}) is a Koszul module whenever
    CMreg M <= t."""
    _regime(A, regime)
    notes = []
    kos = koszul_test(A, max_stages)
    if kos.value is not True or not kos.certified:
        return CheckReport("koszul-truncation", "indeterminate",
                           {"reason": "algebra not certified Koszul"}, notes)
    cm = cm_reg(M, max_stages=max_stages)
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
