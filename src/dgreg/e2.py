"""Local cohomology of H(M) over H(A) by stable Koszul complexes, and the
second page of the torsion spectral sequence.

The page is stored as (l, s) -> dimension where l is the local
cohomology index and s the internal cohomological degree (homological
indexing would carry both with opposite signs).  Entries are
computed degreewise: the Cech complex on parameters x_1..x_c is the
colimit of the Koszul cochain complexes on x_1^t..x_c^t, and each entry
is read off at the deepest stage the window supports, certified when one
more stage induces an isomorphism on cohomology.  Every map is a list of
sparse columns over the cohomology bases of H(M), and each stage's
positions are read from :func:`dgreg.linalg.kernel_mod_images`, fed
with those columns as :func:`dgreg.module.cohomology` feeds a module's.

The abutment is H(Gamma M), so max(l + s) over the nonzero entries is an
upper bound for the CM regularity, exact when the sequence degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .algebra import DGAlgebra
from .lincomb import cclean, cextend
from .linalg import ContainmentError, Echelon, kernel_mod_images
from .module import DGModule, kept_cohomology, left_restriction
from .resolution import RegularityValue


class E2PreconditionError(ValueError):
    """H(A) not usable as a graded-commutative base for the page."""


class HModule:
    """H(M) as a graded module over cocycle representatives of H(A).

    Actions are computed on chosen representatives and projected back to
    cohomology classes; this is well defined because a coboundary times
    a cocycle is a coboundary.  Each action map is computed once and kept;
    one that leaves the window is not kept, so every call for it raises.
    """

    def __init__(self, A: DGAlgebra, M: DGModule):
        self.A = A
        self.M = left_restriction(M)
        self.field = A.field
        # a left restriction has M's basis, differential and trust, so its H is M's
        self.report = kept_cohomology(M)
        self._act = {}

    def dim(self, s: int) -> int:
        return self.report.dim(s)

    def known_zero(self, s: int) -> bool:
        """H^s is known to vanish (certified zero or outside a fully
        trusted side of the window)."""
        if self.report.dim(s):
            return False
        if self.report.certified.contains(s):
            return True
        if s < self.M.window.lo and self.M.trust.lo is None:
            return True
        if s > self.M.window.hi and self.M.trust.hi is None:
            return True
        return False

    def known(self, s: int) -> bool:
        return self.report.certified.contains(s) or self.known_zero(s)

    def act_columns(self, x: dict, xdeg: int, s: int) -> list:
        """Sparse columns of multiplication by a cocycle x: H^s -> H^{s+xdeg},
        as coordinate vectors in H^{s+xdeg}; callers must not change them."""
        key = (tuple(sorted(x.items())), xdeg, s)
        if key in self._act:
            return self._act[key]
        M, t = self.M, s + xdeg
        tgt = self.report.quotient(t)
        cols = []
        for rep in self.report.quotient(s).representatives:
            prod = M.lact_combo(x, xdeg, M.combo(rep, s), s)
            if prod is None:
                raise E2PreconditionError(f"action leaves the window at degree {s}")
            cols.append(tgt.project(M.coords(prod, t)))
        self._act[key] = cols
        return cols


def graded_commutativity_violations(A: DGAlgebra) -> list:
    """Pairs of H(A)-classes with xy != (-1)^{|x||y|} yx up to coboundary.
    Computed once and kept on A; each call gets its own list."""
    return list(A.kept("graded commutativity violations", lambda: _graded_commutativity_violations(A)))


def _graded_commutativity_violations(A: DGAlgebra) -> list:
    F = A.field
    h = kept_cohomology(A)
    out = []
    degs = [d for d in A.degrees() if h.dim(d)]
    for p in degs:
        for q in degs:
            if p + q > A.window.hi:
                continue
            for i, xr in enumerate(h.quotient(p).representatives):
                x = A.combo(xr, p)
                for j, yr in enumerate(h.quotient(q).representatives):
                    y = A.combo(yr, q)
                    xy = A.mul_combo(x, p, y, q)
                    yx = A.mul_combo(y, q, x, p)
                    if xy is None or yx is None:
                        continue
                    diff = cclean(F, {k: F.sub(xy.get(k, F.zero()),
                                               F.mul(F.sign(p * q), yx.get(k, F.zero())))
                                      for k in set(xy) | set(yx)})
                    if not diff:
                        continue
                    try:
                        if h.quotient(p + q).project(A.coords(diff, p + q)):
                            out.append(((p, i), (q, j)))
                    except ContainmentError:
                        out.append(((p, i), (q, j)))
    return out


@dataclass
class E2Page:
    """Sparse (l, s) -> dimension table.

    ``entries`` holds the certified values (the stage map already acts as
    an isomorphism); ``uncertified`` holds stage values still moving at
    the deepest window-feasible stage, usually horizon artifacts."""

    entries: dict
    uncertified: dict
    params: list               # echo: [(combo, degree)]
    s_range: tuple
    warnings: list = dc_field(default_factory=list)

    def dim(self, l: int, s: int) -> int:
        return self.entries.get((l, s), 0)

    def to_json(self):
        return {
            "entries": {f"{l},{s}": n for (l, s), n in sorted(self.entries.items())},
            "uncertified": {f"{l},{s}": n for (l, s), n in sorted(self.uncertified.items())},
            "s_range": list(self.s_range),
            "warnings": self.warnings,
        }


def _koszul_stage(h: HModule, params, s: int, t: int):
    """The Koszul cochain complex on x_1^t..x_c^t in internal degree s.

    Position l is the sum of H^{s + t*e_S} over the l-subsets S of the
    parameters in ``combinations`` order, e_S the sum of their degrees.
    Returns diffs: diffs[l] holds the sparse columns of the differential
    out of position l, one per basis element, which sends the S block to
    the S + {j} block by (-1)^p x_j^t, p the place of j in S + {j}; at
    the top position c every column is zero."""
    F = h.field
    c = len(params)
    offsets = {}
    for l in range(c + 1):
        n = 0
        for S in combinations(range(c), l):
            offsets[S] = n
            n += h.dim(s + t * _weight(params, S))
    diffs = {}
    for l in range(c + 1):
        cols = diffs[l] = []
        for S in combinations(range(c), l):
            deg = s + t * _weight(params, S)
            blocks = []
            for j in range(c):
                if j not in S:
                    Sj = tuple(sorted(S + (j,)))
                    blocks.append((offsets[Sj], F.sign(Sj.index(j)),
                                   _product_columns(h, [params[j]] * t, deg)))
            for k in range(h.dim(deg)):
                cols.append({off + i: F.mul(sgn, y)
                             for off, sgn, power in blocks for i, y in power[k].items()})
    return diffs


def _weight(params, S) -> int:
    return sum(params[i][1] for i in S)


def _product_columns(h: HModule, factors, s: int) -> list:
    """Sparse columns of multiplication by the product of the (x, |x|)
    factors on H^s, the first factor applied first."""
    F = h.field
    cols = [{k: F.one()} for k in range(h.dim(s))]
    for x, d in factors:
        step = h.act_columns(x, d, s)
        cols = [cextend(F, c, step.__getitem__) for c in cols]
        s += d
    return cols


# the deepest Koszul stage x^t a page entry is read at
MAX_STAGE = 12


def cech_e2(A: DGAlgebra, M: DGModule, params) -> E2Page:
    """The (l, s) page of local cohomology of H(M) on the parameters.

    ``params`` is a list of homogeneous cocycle combinations of A (an
    empty list in the finite-dimensional regime: everything is torsion
    and the page is H(M) itself in column 0).  Requires the classes to
    be central in H(A): even degrees, or characteristic 2, with graded
    commutativity checked on representatives.  Each parameter's scalars
    are brought into A's field as A's own tables are (a scalar that
    vanishes there is dropped, a float is a ``FieldMismatchError``).
    """
    F = A.field
    h = HModule(A, M)
    warnings = []

    norm_params = []
    for x in params:
        combo = A._clean({0: x}).get(0)
        if not combo:
            raise E2PreconditionError("zero parameter")
        degs = {A.degree_of(lbl) for lbl in combo}
        if len(degs) != 1:
            raise E2PreconditionError("parameter is not homogeneous")
        d = degs.pop()
        if d <= 0:
            raise E2PreconditionError("parameters must have positive degree")
        if d % 2 == 1 and F.characteristic != 2:
            raise E2PreconditionError("odd-degree parameter outside characteristic 2")
        dx = A.diff_combo(combo, d)
        if dx:
            raise E2PreconditionError("parameter is not a cocycle")
        norm_params.append((combo, d))

    if graded_commutativity_violations(A):
        raise E2PreconditionError("H(A) is not graded commutative on representatives")

    cert = h.report.certified
    top = cert.hi if cert.hi is not None else M.window.hi
    # localized pieces live in degrees s + t*e; reach back far enough
    # for every window-visible class of the colimit
    lo = M.window.lo - MAX_STAGE * max((d for _x, d in norm_params), default=0)
    s_range = (max(lo, -4 * max(abs(M.window.lo), M.window.hi, 8)), top)
    c = len(norm_params)

    entries, uncertified = {}, {}
    if c == 0:
        for s, n in sorted(h.report.dims.items()):
            if s_range[0] <= s <= s_range[1]:
                if cert.contains(s):
                    entries[(0, s)] = n
                else:
                    uncertified[(0, s)] = n
        return E2Page(entries, uncertified, norm_params, s_range, warnings)

    e_full = _weight(norm_params, range(c))
    for s in range(s_range[0], s_range[1] + 1):
        T = min(MAX_STAGE, (top - s) // e_full if e_full else MAX_STAGE)
        if T < 1:
            continue
        # the complexes only involve degrees s + t*e_S; all must be known
        needed = [s + t * _weight(norm_params, S)
                  for t in (T - 1, T)
                  for l in range(c + 1)
                  for S in combinations(range(c), l)]
        if not all(h.known(dd) for dd in set(needed)):
            continue
        positions = range(c + 1)
        try:
            stage_a = kernel_mod_images(F, positions, _koszul_stage(h, norm_params, s, T).__getitem__)
        except E2PreconditionError:
            continue
        stable_ok = T >= 2
        if stable_ok:
            stage_b = kernel_mod_images(F, positions, _koszul_stage(h, norm_params, s, T - 1).__getitem__)
        for l in positions:
            quot_a = stage_a[l].quotient()
            is_cert = False
            if stable_ok:
                quot_b = stage_b[l].quotient()
                is_cert = _transition_iso(h, norm_params, s, T - 1, l, quot_b, quot_a)
            if quot_a.dim:
                if is_cert:
                    entries[(l, s)] = quot_a.dim
                else:
                    uncertified[(l, s)] = quot_a.dim

    # heuristic system-of-parameters sanity: the quotient by the
    # parameters should die out towards the top of the window
    coker_top = []
    for s in range(max(top - e_full, s_range[0]), top + 1):
        n = h.dim(s)
        if n == 0:
            continue
        img = Echelon(F)
        for x, d in norm_params:
            if h.dim(s - d) == 0:
                continue
            for col in h.act_columns(x, d, s - d):
                img.add(col)
        if len(img) < n:
            coker_top.append(s)
    if coker_top:
        warnings.append(
            f"H(M)/(params) is nonzero near the window top (degrees {coker_top}); "
            "the parameters may not be a system of parameters"
        )
    return E2Page(entries, uncertified, norm_params, s_range, warnings)


def _transition_iso(h, params, s, t, l, quot_from, quot_to) -> bool:
    """Whether K(x^t) -> K(x^{t+1}) induces an isomorphism at position l;
    the map multiplies the S block by prod_{i in S} x_i."""
    if quot_from.dim != quot_to.dim:
        return False
    if not quot_from.dim:
        return True
    F = h.field
    columns, off = [], 0
    for S in combinations(range(len(params)), l):
        deg = s + t * _weight(params, S)
        for col in _product_columns(h, [params[i] for i in S], deg):
            columns.append({off + i: y for i, y in col.items()})
        off += h.dim(deg + _weight(params, S))
    image = Echelon(F)
    for rep in quot_from.representatives:
        try:
            image.add(quot_to.project(cextend(F, rep, columns.__getitem__)))
        except ContainmentError:
            return False
    return len(image) == quot_to.dim


def cmreg_bound_from_e2(page: E2Page) -> RegularityValue:
    """max(l + s) over the nonzero page entries: an upper bound for the
    CM regularity, exact when the sequence degenerates at the page."""
    if not page.entries and not page.uncertified:
        return RegularityValue.neg_infinity("empty page")
    cert_max = max((l + s for (l, s) in page.entries), default=None)
    shaky_max = max((l + s for (l, s) in page.uncertified), default=None)
    if cert_max is None:
        return RegularityValue.at_least(shaky_max, "only uncertified page entries")
    if shaky_max is not None and shaky_max > cert_max:
        return RegularityValue.at_least(cert_max, "uncertified entries above the certified maximum")
    return RegularityValue.exact(cert_max, "upper bound for CMreg from the page (exact on degeneration)")
