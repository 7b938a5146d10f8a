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

The cone is built once and grown in place, degree by degree as in
Bruner's programs for large Ext modules.  New generators come last in
the ledger, so their cells come last in each degree and no old cone
position, column or trust bound moves.  Each cone degree keeps, for one
call, a :class:`~dgreg.linalg.KernelModImage`: an echelon of its
outgoing differential's columns, each tagged with its index (the
elimination of [d^T | I]), and an echelon of its incoming one.  The
states start from :func:`~dgreg.linalg.kernel_mod_images` fed with M's
differential columns, so stage 0 is the computation ``cohomology(M)`` makes.  Each
new cell's column then enters its own degree's kernel state and the
next degree's image once, and a degree's H is taken again after its
kernel basis or image grew; a kill at degree j adds cells only in
P-degrees >= j, so only cone degrees >= j - 1 can change.

This cannot change a representative.  Old columns never change, so an
old cocycle keeps its kernel vector; a new cell's kernel vector is the
unique one that is 1 at its column, 0 at the other dependent columns and
supported on earlier independent ones, which is what elimination of the
whole degree gives; and the image echelon is the unique reduced
echelon form of its span.  So every class is the one ``cohomology`` of
the rebuilt cone would choose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import DGAlgebra, _degree_report, _labels, diff_columns
from .ledger import Generator, SemifreeResolution, is_minimal_ledger
from .homtensor import (_free_bimodule, _generator_trust, _ledger_cell, _tensor_rules, ledger_cells,
                        realize_ledger, tensor_module_ledger)
from .lincomb import cneg
from .linalg import kernel_mod_images
from .module import (
    DGModule,
    ModuleMorphism,
    _dual_label,
    _h_certified,
    canonical_k,
    kept_cohomology,
    left_restriction,
    linear_dual,
    to_opposite,
)
from .windows import GradedWindow, Trust


class DegenerateWindowError(ValueError):
    """The window is too small to see any cohomology of the target."""


class TruncationImpossibleError(ValueError):
    """truncate_above called with cohomology above the requested degree."""


def _cell_image(M: DGModule, aug, degree: int, b: str, n: int):
    """epsilon(b e_g) = b . aug(g) in M^n for a generator g of the given
    degree; empty when it vanishes or is not recorded."""
    if not aug:
        return {}
    return M.lact_combo({b: M.field.one()}, n - degree, aug, degree) or {}


def _augmentation_morphism(L: SemifreeResolution, P: DGModule, M: DGModule) -> ModuleMorphism:
    """epsilon: |P| -> M, b e_g -> b . aug(g), for P = realize_ledger(L, window)."""
    images = {}
    for n, cells in ledger_cells(L, L.algebra, P.window, -1).items():
        for lab, (b, g) in zip(P.basis_at(n), cells):
            img = _cell_image(M, L.aug.get(g), L.degree_of(g), b, n)
            if img:
                images[lab] = img
    return ModuleMorphism(P, M, images)


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


def _bookkeeping_holds(M: DGModule, AA: DGModule, h_m: dict, h_cone: dict,
                       residual: dict, cells: dict, pos: dict, dim) -> bool:
    """The duality bookkeeping hypotheses, decided on the final cone of
    |P| -> M, whose H^d is ``h_cone[d]``; ``h_m`` is H(M).

    H(eps) is onto exactly when every class of H(M) is a coboundary of
    the cone (its long exact sequence); an M class's coordinates are the
    cone's first ones.  A residual class (m, sum c b e_g~) is killed by
    a in A^{>=1} when (a.m, (-1)^{|a|} sum c (ab) e_g~) is a coboundary,
    at every degree where the cone has a basis."""
    if not all(h_cone[d].sub.contains(rep) for d, q in h_m.items() for rep in q.representatives):
        return False
    F, alg = M.field, _labels(M.algebra)
    for d in residual:
        for rep in h_cone[d].representatives:
            m_part, rows = _split_cone_class(M, cells.get(d + 1, ()), d, rep)
            for a, da in alg:
                t = d + da
                if da < 1 or not dim(t):
                    continue
                s, at = F.sign(da), pos.get(t + 1, {})
                vec = M.coords(M.lact_combo({a: F.one()}, da, m_part, d), t)
                for g, row in rows.items():
                    for b, c in row.items():
                        for x, v in (AA.act_left(a, b) or {}).items():
                            i = at.get((x, g))
                            if i is not None:
                                vec[i] = F.add(vec.get(i, F.zero()), F.mul(s, F.mul(c, v)))
                if not h_cone[t].sub.contains(vec):
                    return False
    return True


def semifree_resolve(M: DGModule, max_stages: int = 8) -> SemifreeResolution:
    """Minimal semifree resolution of a left DG module by cycle killing.

    Stops when the cone of the augmentation is acyclic on the scanned
    window (then complete in the window-relative sense) or after
    ``max_stages``.  Output generators carry (degree, stage); the
    differential of each generator lies in earlier stages with
    coefficients in A^{>=1}.  A budget below one stage is a ValueError:
    with no stage run, the empty ledger would read as complete.  A
    module with a table entry outside its target degree is a ValueError
    naming the first ``degree`` violation of its kept degree report, and
    one without a left action is a SideError.  It keeps no resolution:
    each call resolves M again, and :func:`resolved` is the resolution
    kept on M.
    """
    if max_stages < 1:
        raise ValueError(f"stage budget {max_stages} is below 1")
    ungraded = _degree_report(M)
    if ungraded:
        v = ungraded[0]
        raise ValueError(f"{M.name} is not graded: degree violation at {v.witness}: {v.detail}")
    M = left_restriction(M)
    A = M.algebra
    F = M.field
    W = M.window
    if W.hi - W.lo < 1:
        raise DegenerateWindowError(f"window {W} cannot certify any cohomology")

    gens: list = []
    diff: dict = {}
    aug: dict = {}
    degree: dict = {}
    AA = _free_bimodule(A)
    rules = _tensor_rules(AA, degree.__getitem__, diff)
    # the cone of |P| -> M: degree d is M^d followed by the cells (b, g) of
    # P-degree d + 1 in ledger order, ``cells[n]``, at positions ``pos[n]``;
    # ``state[d]`` takes the differential columns out of and into degree d,
    # and ``p_trust`` is |P|'s
    cells: dict = {}
    pos: dict = {}
    state = kernel_mod_images(F, range(W.lo - 1, W.hi + 2), lambda d: diff_columns(M, d))
    p_trust = Trust.everywhere()

    def dim(d):
        return M.dim(d) + len(cells.get(d + 1, ()))

    def add_column(d, col):
        state[d].add_outgoing(col)
        state[d + 1].add_incoming(col)

    for stage in range(max_stages + 1):
        cone_trust = p_trust.shift(1).meet(M.trust)
        scan = _h_certified(cone_trust)
        quotients = {d: s.quotient() for d, s in state.items() if dim(d)}
        if stage == 0:
            h_m = quotients  # the cone of the empty ledger is M
        residual = {d: q.dim for d, q in quotients.items() if q.dim and scan.contains(d)}
        if not residual or stage == max_stages:
            break
        j = min(residual)
        new = []
        for rep in quotients[j].representatives:
            m_part, rows = _split_cone_class(M, cells.get(j + 1, ()), j, rep)
            lab = f"e{len(gens)}"
            gens.append(Generator(lab, j, stage))
            degree[lab] = j
            new.append(lab)
            if rows:
                diff[lab] = rows
                if m_part:
                    aug[lab] = cneg(F, m_part)
            else:
                aug[lab] = m_part
            p_trust = p_trust.meet(_generator_trust(A, j, W))
        # the new cells go last in each P-degree n >= j, top degree first,
        # so that the positions their columns read in degree n + 1 are set
        for n in range(W.hi, max(j, W.lo) - 1, -1):
            row, at, keys = cells.setdefault(n, []), pos.setdefault(n, {}), pos.get(n + 1, {})
            for g in new:
                for b in A.basis_at(n - j):
                    at[(b, g)] = M.dim(n - 1) + len(row)
                    row.append((b, g))
                    dcell, cap = _ledger_cell(AA, W, rules, keys, b, g, n)
                    if cap is not None:
                        p_trust = p_trust.cap_hi(cap)
                    col = M.coords(_cell_image(M, aug.get(g), j, b, n), n)
                    col.update((i, F.coerce(F.neg(c))) for i, c in dcell.items())
                    add_column(n - 1, col)

    return SemifreeResolution(
        algebra=A, gens=tuple(gens), diff=diff, aug=aug, target=M, scan=scan,
        residual=residual, stages_used=stage,
        bookkeeping_ok=not residual or _bookkeeping_holds(
            M, AA, h_m, quotients, residual, cells, pos, dim),
    )


def resolved(M: DGModule, max_stages: int = 8) -> SemifreeResolution:
    """The resolution :func:`semifree_resolve` gives M at ``max_stages``,
    computed once and kept on M for that stage budget.  Every entry point
    that resolves M itself reads it here; callers must not change it."""
    return M.kept(("resolution", max_stages), lambda: semifree_resolve(M, max_stages))


def is_minimal(L: SemifreeResolution):
    return is_minimal_ledger(L.algebra, L.diff)


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
    h = kept_cohomology(A)
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
    h = kept_cohomology(M)
    if not h.dims:
        if M.complete:
            return RegularityValue.neg_infinity("zero cohomology")
        return RegularityValue.at_least(M.window.lo, "no cohomology seen in window")
    res = resolution if resolution is not None else resolved(M, max_stages)
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


def kept_k(A: DGAlgebra) -> DGModule:
    """A's canonical module k as a bimodule, built once per algebra object
    and kept on it, so that its resolution per stage budget
    (:func:`resolved`, of its left restriction) is kept too.  It is the k
    of the catalog sweep's pairs (``catalog.catalog_pairs``)."""
    return A.kept("canonical k", lambda: canonical_k(A))


def koszul_test(X, max_stages: int = 8) -> KoszulReport:
    """A module is Koszul when it has a semifree resolution generated in
    degree 0, i.e. H(X) = 0 or inf X = Extreg X = 0; an algebra is Koszul
    when its canonical module is, the k kept on it (:func:`kept_k`), so
    that k is resolved once per stage budget."""
    M = kept_k(X) if isinstance(X, DGAlgebra) else X
    h = kept_cohomology(M)
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
    generator counts against both one-sided tensor complexes k (x) P.
    Both sides read the k kept on their algebra (:func:`kept_k`)."""
    A_op = A.opposite()
    k_left, k_right_op = kept_k(A), kept_k(A_op)
    res_l, res_r = resolved(k_left, max_stages), resolved(k_right_op, max_stages)
    val_l, val_r = ext_reg(k_left, max_stages), ext_reg(k_right_op, max_stages)

    window = GradedWindow(min(-1, -abs(A.window.hi)), A.window.hi)
    kr = canonical_k(A, side="right", name="k")
    t_l = tensor_module_ledger(kr, res_l, window)
    kr_op = canonical_k(A_op, side="right", name="k")
    t_r = tensor_module_ledger(kr_op, res_r, window)
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


def truncate_above(M: DGModule, s: int, max_stages: int = 8) -> TruncationCertificate:
    """A quasi-isomorphic replacement of M vanishing above degree s.

    Requires H^j(M) = 0 for j > s on the certified window.  Resolve the
    dual of M over the opposite algebra (its generators live in degrees
    >= -s) and dualize back: semifree modules over a nonnegatively
    graded algebra with generators in degrees >= -s live in degrees
    >= -s, so the dual vanishes above s.  The certificate M -> M' is the
    transpose of eps: Q -> M* after M -> M**, m -> (-1)^{|m|} sum_q
    eps(q)[m'] q', read off eps's images.
    """
    h = kept_cohomology(M)
    bad = [d for d in h.dims if d > s and h.certified.contains(d)]
    if bad:
        raise TruncationImpossibleError(f"H^{bad[0]}(M) != 0 above s = {s}")
    if all(d <= s for d in M.degrees()):
        return TruncationCertificate(M, None, True, h.certified, "already vanishes above s")

    M = left_restriction(M)
    F = M.field
    Mdual = linear_dual(M)            # right module
    X = to_opposite(Mdual)            # left module over A^op
    res = semifree_resolve(X, max_stages)
    Q = realize_ledger(res, X.window, name="|Q|")
    eps = _augmentation_morphism(res, Q, X)
    Qd = linear_dual(Q)               # right module over A^op
    Mprime = to_opposite(Qd)          # left module over (A^op)^op = A

    note = "dual-resolution truncation"
    images = {m: {} for m in M._deg}  # M' has the labels of Q*
    of_dual = {_dual_label(m): m for m in M._deg}
    for q in Q._deg:
        for x, c in eps.images.get(q, {}).items():
            m = of_dual[x]
            images[m][_dual_label(q)] = F.mul(F.sign(M.degree_of(m)), c)
    morphism = ModuleMorphism(M, Mprime, images)
    ok = morphism.validate().ok

    # left_restriction keeps M's basis, differential and trust, so h is H(M);
    # H can match only where it was compared, so the window must hold all of it
    hp = kept_cohomology(Mprime)
    window = h.certified.meet(hp.certified)
    support = set(h.dims) | set(hp.dims)
    missed = sorted(d for d in support if not window.contains(d))
    match = not missed and all(h.dim(d) == hp.dim(d) for d in support) and (
        not ok or morphism.is_quasi_iso_on(window))
    if missed:
        note += f"; H outside the certified window {window} at degrees {missed}"
    if not ok:
        note += "; certificate morphism failed validation"
        morphism = None
    if not res.complete:
        note += f"; dual resolution frontier at {res.frontier}"
    return TruncationCertificate(Mprime, morphism, match, window, note)
