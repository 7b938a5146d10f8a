"""Minimal semifree resolutions by iterative cycle killing, Ext
regularity, Koszulness, and quasi-isomorphic truncation from above.

The resolution loop keeps a generator ledger P together with an
augmentation toward the target M and repeatedly inspects the mapping
cone of the augmentation: each stage adds, for the lowest scanned degree
where the cone has cohomology, one generator per class of an
echelonized basis; the generator's differential hits the class's
P-component and its augmentation its M-component.  Kill degrees never
decrease, so differential coefficients always land in A^{>= 1} and the
result is minimal by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import DGAlgebra
from .ledger import Generator, SemifreeResolution, is_minimal_ledger
from .homtensor import ledger_cells, realize_ledger, tensor_module_ledger
from .lincomb import cclean, cneg
from .module import (
    DGModule,
    LEFT,
    ModuleMorphism,
    cohomology,
    cone_of,
    left_restriction,
    linear_dual,
    to_opposite,
)
from .windows import GradedWindow, Trust


class DegenerateWindowError(ValueError):
    """The window is too small to see any cohomology of the target."""


class TruncationImpossibleError(ValueError):
    """truncate_above called with cohomology above the requested degree."""


def _augmentation_morphism(L: SemifreeResolution, P: DGModule, M: DGModule) -> ModuleMorphism:
    """epsilon: |P| -> M, b e_g -> b . aug(g), for P = realize_ledger(L, window)."""
    F = M.field
    images = {}
    for n, cells in ledger_cells(L, L.algebra, P.window, -1).items():
        for lab, (b, g) in zip(P.basis_at(n), cells):
            aug = L.aug.get(g)
            if aug:
                dg = L.degree_of(g)
                img = M.lact_combo({b: F.one()}, n - dg, aug, dg)
                if img:
                    images[lab] = img
    return ModuleMorphism(P, M, images)


def _cone(M: DGModule, L: SemifreeResolution):
    """Mapping cone of the augmentation |P| -> M (M itself when P = 0)."""
    if not L.gens:
        return M, None
    P = realize_ledger(L, M.window, name="|P|")
    eps = _augmentation_morphism(L, P, M)
    return cone_of(eps, name="cone"), P


def _split_cone_class(M: DGModule, cells, degree: int, vec: dict):
    """Split a sparse cone-degree class into (M part, ledger rows).

    The cone basis at a degree is M's basis followed by the shifted
    realized basis one degree up, whose positions are ``cells``, the
    ledger cells (b, g) of that degree; the ledger rows regroup the b
    coefficients per generator.  Both come out in position order."""
    labels = M.basis_at(degree)
    n = len(labels)
    m_part, rows = {}, {}
    for i in sorted(vec):
        if i < n:
            m_part[labels[i]] = vec[i]
        else:
            b, g = cells[i - n]
            rows.setdefault(g, {})[b] = vec[i]
    return m_part, rows


def semifree_resolve(M: DGModule, max_stages: int = 8) -> SemifreeResolution:
    """Minimal semifree resolution of a left DG module by cycle killing.

    Stops when the cone of the augmentation is acyclic on the scanned
    window (then complete in the window-relative sense) or after
    ``max_stages``.  Output generators carry (degree, stage); the
    differential of each generator lies in earlier stages with
    coefficients in A^{>=1}.  A budget below one stage is a ValueError:
    with no stage run, the empty ledger would read as complete.  A
    module without a left action is a SideError.
    """
    if max_stages < 1:
        raise ValueError(f"stage budget {max_stages} is below 1")
    M = left_restriction(M)
    A = M.algebra
    F = M.field
    if M.window.hi - M.window.lo < 1:
        raise DegenerateWindowError(f"window {M.window} cannot certify any cohomology")

    gens: list = []
    diff: dict = {}
    aug: dict = {}
    counter = 0
    scan = Trust.everywhere()
    scan_everywhere = False
    frontier = None
    residual: dict = {}
    stage = 0

    for stage in range(max_stages + 1):
        ledger = SemifreeResolution(
            algebra=A, gens=tuple(gens), diff=dict(diff), aug=dict(aug),
            target=M, scan=Trust.everywhere(), frontier=None,
        )
        cone, _P = _cone(M, ledger)
        h = cohomology(cone)
        scan = h.certified
        scan_everywhere = cone.trust.is_everywhere
        live = sorted(d for d in h.dims if scan.contains(d))
        if not live:
            frontier = None
            residual = {}
            break
        frontier = live[0]
        residual = {d: h.dims[d] for d in live}
        if stage == max_stages:
            break
        j = frontier
        cells = ledger_cells(ledger, A, M.window, -1).get(j + 1, ())
        for rep in h.quotient(j).representatives:
            m_part, rows = _split_cone_class(M, cells, j, rep)
            lab = f"e{counter}"
            counter += 1
            gens.append(Generator(lab, j, stage))
            if rows:
                diff[lab] = rows
                if m_part:
                    aug[lab] = cneg(F, m_part)
            else:
                aug[lab] = m_part

    res = SemifreeResolution(
        algebra=A,
        gens=tuple(gens),
        diff=diff,
        aug=aug,
        target=M,
        scan=scan,
        scan_everywhere=scan_everywhere,
        frontier=frontier,
        residual=residual,
        stages_used=stage,
    )
    return res


def is_minimal(L: SemifreeResolution):
    return is_minimal_ledger(L.algebra, L.diff)


def residual_classes_are_trivial(L: SemifreeResolution) -> bool:
    """Whether the leftover cone classes of a resolution are killed by
    A^{>=1}.

    Each residual class is then a shifted copy of k in the derived
    category, which is what the duality bookkeeping assumes."""
    if L.complete:
        return True
    M = L.target
    A = M.algebra
    F = M.field
    cone, _ = _cone(M, L)
    h = cohomology(cone)
    for d in sorted(L.residual):
        for a in (l for dd in A.degrees() for l in A.basis_at(dd) if dd >= 1):
            da = A.degree_of(a)
            target = d + da
            if not cone.basis_at(target):
                continue
            # the coboundaries of degree d + |a|
            bound = h.quotient(target).sub
            for rep in h.quotient(d).representatives:
                acted = cone.lact_combo({a: F.one()}, da, cone.combo(rep, d), d)
                if acted is None:
                    return False
                if not bound.contains(cone.coords(acted, target)):
                    return False
    return True


def augmentation_h_report(L: SemifreeResolution) -> dict:
    """Per-degree (rank, dim H(P), dim H(M)) of the augmentation map of a
    resolution of M."""
    M = L.target
    P = realize_ledger(L, M.window, name="|P|")
    eps = _augmentation_morphism(L, P, M)
    return eps.h_isomorphism_degrees()


# -- regularity values -----------------------------------------------------


@dataclass(frozen=True)
class RegularityValue:
    """An extended integer with certification: -inf, exact n, or a lower
    bound `at_least n`."""

    kind: str  # neg_infinity | exact | at_least
    n: int | None = None
    note: str = ""

    @classmethod
    def neg_infinity(cls, note=""):
        return cls("neg_infinity", None, note)

    @classmethod
    def exact(cls, n, note=""):
        return cls("exact", n, note)

    @classmethod
    def at_least(cls, n, note=""):
        return cls("at_least", n, note)

    @property
    def certified_exact(self) -> bool:
        return self.kind in ("neg_infinity", "exact")

    def lower_bound(self):
        """Known lower bound (-inf allowed)."""
        if self.kind == "neg_infinity":
            return float("-inf")
        return self.n

    def upper_bound(self):
        """Known upper bound, or None when unbounded above."""
        if self.kind == "neg_infinity":
            return float("-inf")
        if self.kind == "exact":
            return self.n
        return None

    def __str__(self):
        if self.kind == "neg_infinity":
            return "-inf"
        if self.kind == "exact":
            return str(self.n)
        return f">={self.n}"

    def to_json(self):
        return {"kind": self.kind, "n": self.n, "note": self.note}


def _sup_h_algebra(A: DGAlgebra):
    """sup of H(A) when fully certifiable, else None."""
    if not A.complete:
        return None
    h = cohomology(A)
    return h.sup_degree if h.dims else float("-inf")


def ext_reg(M: DGModule, max_stages: int = 8, resolution: SemifreeResolution | None = None) -> RegularityValue:
    """Ext regularity: the top generator degree of the minimal semifree
    resolution (equivalently -inf of the Hom complex into k).

    `exact` needs a certificate that no later stage can add a generator
    above the reported degree inside a window strictly containing it:
    either the cone is acyclic across the scan, or H(A) is concentrated
    in degrees <= 1 (then killing at degree j can only create new cone
    classes in degree j, so the kill frontier never climbs past the
    residual top).
    """
    h = cohomology(M)
    if not h.dims:
        if M.complete:
            return RegularityValue.neg_infinity("zero cohomology")
        return RegularityValue.at_least(M.window.lo, "no cohomology seen in window")
    res = resolution if resolution is not None else semifree_resolve(M, max_stages)
    if not res.gens:
        return RegularityValue.neg_infinity("empty resolution")
    n = res.max_gen_degree()
    if res.complete:
        top = res.scan.hi
        if top is None or n <= top - 1:
            note = "resolution complete" + ("" if res.strong_complete else f" on scanned window {res.scan}")
            return RegularityValue.exact(n, note)
        return RegularityValue.at_least(n, "complete only at the window top")
    sup_a = _sup_h_algebra(M.algebra)
    if (
        res.scan_everywhere
        and sup_a is not None
        and sup_a <= 1
        and max(res.residual) <= n
    ):
        return RegularityValue.exact(
            n, "H(A) concentrated in degrees <= 1 bounds every future kill degree"
        )
    return RegularityValue.at_least(n, f"stage budget exhausted at frontier {res.frontier}")


@dataclass
class KoszulReport:
    value: bool | None  # None = indeterminate
    certified: bool
    detail: str
    extreg: RegularityValue | None = None

    def to_json(self):
        return {
            "koszul": self.value,
            "certified": self.certified,
            "detail": self.detail,
            "extreg": self.extreg.to_json() if self.extreg else None,
        }


def koszul_test(X, max_stages: int = 8) -> KoszulReport:
    """A module is Koszul when it has a semifree resolution generated in
    degree 0, i.e. H(X) = 0 or inf X = Extreg X = 0; an algebra is Koszul
    when its canonical module is."""
    from .module import canonical_k

    M = canonical_k(X, side=LEFT) if isinstance(X, DGAlgebra) else X
    h = cohomology(M)
    if not h.dims:
        if M.complete:
            return KoszulReport(True, True, "zero cohomology")
        return KoszulReport(None, False, "no cohomology in window, module truncated")
    inf = h.inf_degree
    if not h.inf_certified:
        return KoszulReport(None, False, "inf not certified (module truncated below)")
    if inf != 0:
        return KoszulReport(False, True, f"inf = {inf} != 0")
    r = ext_reg(M, max_stages)
    if r.kind == "exact":
        if r.n == 0:
            return KoszulReport(True, True, "inf = Extreg = 0", r)
        return KoszulReport(False, True, f"Extreg = {r.n} != 0", r)
    if r.kind == "at_least" and r.n is not None and r.n >= 1:
        return KoszulReport(False, True, f"Extreg >= {r.n} > 0", r)
    return KoszulReport(None, False, f"Extreg uncertified ({r})", r)


def extreg_symmetry(A: DGAlgebra, max_stages: int = 8) -> dict:
    """Extreg of k agrees over A and its opposite; cross-checks the
    generator counts against both one-sided tensor complexes k (x) P."""
    from .module import canonical_k

    A_op = A.opposite()
    k_left = canonical_k(A, side=LEFT, name="k")
    k_right_op = canonical_k(A_op, side=LEFT, name="k_op")
    res_l = semifree_resolve(k_left, max_stages)
    res_r = semifree_resolve(k_right_op, max_stages)
    val_l = ext_reg(k_left, max_stages, resolution=res_l)
    val_r = ext_reg(k_right_op, max_stages, resolution=res_r)

    window = GradedWindow(min(-1, -abs(A.window.hi)), A.window.hi)
    kr = canonical_k(A, side="right", name="k")
    t_l, _ = tensor_module_ledger(kr, res_l, window)
    kr_op = canonical_k(A_op, side="right", name="k")
    t_r, _ = tensor_module_ledger(kr_op, res_r, window)
    dims_l = {d: t_l.dim(d) for d in t_l.degrees()}
    dims_r = {d: t_r.dim(d) for d in t_r.degrees()}
    counts_match = res_l.counts_by_degree() == res_r.counts_by_degree()
    both_exact = val_l.certified_exact and val_r.certified_exact
    equal = (
        val_l.kind == val_r.kind and val_l.n == val_r.n
        if both_exact
        else val_l.n == val_r.n
    )
    return {
        "left": val_l,
        "right": val_r,
        "equal": equal,
        "certified": both_exact and res_l.complete == res_r.complete,
        "generator_counts_match": counts_match,
        "tensor_dims_left": dims_l,
        "tensor_dims_right": dims_r,
        "tensor_dims_match": dims_l == dims_r,
    }


# -- truncation from above ---------------------------------------------------


@dataclass
class TruncationCertificate:
    module: DGModule
    morphism: ModuleMorphism | None
    h_match: bool
    certified_window: Trust
    note: str


def dual_morphism(f: ModuleMorphism) -> ModuleMorphism:
    """Hom_k(-, k) applied to a degree-0 chain map: g -> g o f."""
    from .module import linear_dual

    Xd = linear_dual(f.target)
    Yd = linear_dual(f.source)
    F = f.source.field
    # the transpose of f: each coefficient f(x)[y] is written once, to y' at x'
    images: dict = {}
    for x_lbl in f.source._deg:
        for y_lbl, c in f.images.get(x_lbl, {}).items():
            images.setdefault(y_lbl + "'", {})[x_lbl + "'"] = c
    return ModuleMorphism(Xd, Yd, {y: cclean(F, img) for y, img in images.items()})


def truncate_above(M: DGModule, s: int, max_stages: int = 8) -> TruncationCertificate:
    """A quasi-isomorphic replacement of M vanishing above degree s.

    Requires H^j(M) = 0 for j > s on the certified window.  Resolve the
    dual of M over the opposite algebra (its generators live in degrees
    >= -s) and dualize back: semifree modules over a nonnegatively
    graded algebra with generators in degrees >= -s live in degrees
    >= -s, so the dual vanishes above s.
    """
    h = cohomology(M)
    bad = [d for d in h.dims if d > s and h.certified.contains(d)]
    if bad:
        raise TruncationImpossibleError(f"H^{bad[0]}(M) != 0 above s = {s}")
    if all(d <= s for d in M.degrees()):
        return TruncationCertificate(M, None, True, h.certified, "already vanishes above s")

    M = left_restriction(M)
    Mdual = linear_dual(M)            # right module
    X = to_opposite(Mdual)            # left module over A^op
    res = semifree_resolve(X, max_stages)
    Q = realize_ledger(res, X.window, name="|Q|")
    eps = _augmentation_morphism(res, Q, X)
    Qd = linear_dual(Q)               # right module over A^op
    Mprime = to_opposite(Qd)          # left module over (A^op)^op = A

    morphism = None
    note = "dual-resolution truncation"
    from .module import double_dual_embedding

    theta = double_dual_embedding(M)      # M -> (M*)*
    eps_dual = dual_morphism(eps)         # X* -> Q* over A^op
    # (M*)* and X*, and Q* and M', have identical underlying labels; compose.
    images = {lbl: eps_dual.apply(theta.images.get(lbl, {})) for lbl in M._deg}
    morphism = ModuleMorphism(M, Mprime, images)
    ok = morphism.validate().ok

    hm = cohomology(M)
    hp = cohomology(Mprime)
    window = hm.certified.meet(hp.certified)
    match = all(
        hm.dim(d) == hp.dim(d)
        for d in set(hm.dims) | set(hp.dims)
        if window.contains(d)
    ) and (not ok or morphism.is_quasi_iso_on(window))
    if not ok:
        note += "; certificate morphism failed validation"
        morphism = None
    if not res.complete:
        note += f"; dual resolution frontier at {res.frontier}"
    return TruncationCertificate(Mprime, morphism, match, window, note)
