"""Local cohomology of H(M) over H(A) by stable Koszul complexes, and the
second page of the torsion spectral sequence.

The page is stored as (l, s) -> dimension where l is the local
cohomology index and s the internal cohomological degree (homological
indexing would carry both with opposite signs).  Entries are
computed degreewise: the Cech complex on parameters x_1..x_c is the
colimit of the Koszul cochain complexes on x_1^t..x_c^t, and each entry
is read off at the deepest stage the window supports, certified when one
more stage induces an isomorphism on cohomology.

The abutment is H(Gamma M), so max(l + s) over the nonzero entries is an
upper bound for the CM regularity, exact when the sequence degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .algebra import DGAlgebra
from .lincomb import cclean, from_vector, to_vector
from .linalg import ContainmentError, Echelon, Matrix, image_basis, kernel_basis, quotient_by
from .module import DGModule, cohomology, cohomology_quotient, left_restriction
from .resolution import RegularityValue


class E2PreconditionError(ValueError):
    """H(A) not usable as a graded-commutative base for the page."""


class HModule:
    """H(M) as a graded module over cocycle representatives of H(A).

    Actions are computed on chosen representatives and projected back to
    cohomology classes; this is well defined because a coboundary times
    a cocycle is a coboundary.
    """

    def __init__(self, A: DGAlgebra, M: DGModule):
        self.A = A
        self.M = left_restriction(M)
        self.field = A.field
        self.report = cohomology(self.M)
        self._quot = {}

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

    def _quotient(self, s: int):
        if s not in self._quot:
            self._quot[s] = cohomology_quotient(self.M, s)
        return self._quot[s]

    def act_columns(self, x: dict, xdeg: int, s: int) -> list:
        """Columns of multiplication by a cocycle x: H^s -> H^{s+xdeg},
        as coordinate vectors in H^{s+xdeg}."""
        F = self.field
        tgt = self._quotient(s + xdeg)
        cols = []
        for rep in self._quotient(s).representatives:
            m = from_vector(F, rep, self.M.basis_at(s))
            prod = self.M.lact_combo(x, xdeg, m, s)
            if prod is None:
                raise E2PreconditionError(f"action leaves the window at degree {s}")
            vec = to_vector(F, prod, self.M.basis_at(s + xdeg))
            cols.append(tgt.project(vec))
        return cols

    def act_matrix(self, x: dict, xdeg: int, s: int) -> Matrix:
        """Matrix of multiplication by a cocycle x: H^s -> H^{s+xdeg}."""
        F = self.field
        tgt = self._quotient(s + xdeg)
        cols = self.act_columns(x, xdeg, s)
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(tgt.dim)]
        return Matrix.from_rows(F, rows) if cols and tgt.dim else Matrix.zeros(F, tgt.dim, len(cols))


def graded_commutativity_violations(A: DGAlgebra) -> list:
    """Pairs of H(A)-classes with xy != (-1)^{|x||y|} yx up to coboundary."""
    F = A.field
    HA = HModule(A, _free_left(A))
    out = []
    degs = [d for d in A.degrees() if HA.dim(d)]
    for p in degs:
        for q in degs:
            if p + q > A.window.hi:
                continue
            for i, xr in enumerate(HA._quotient(p).representatives):
                x = from_vector(F, xr, A.basis_at(p))
                for j, yr in enumerate(HA._quotient(q).representatives):
                    y = from_vector(F, yr, A.basis_at(q))
                    xy = A.mul_combo(x, p, y, q)
                    yx = A.mul_combo(y, q, x, p)
                    if xy is None or yx is None:
                        continue
                    diff = cclean(F, {k: F.sub(xy.get(k, F.zero()),
                                               F.mul(F.sign(p * q), yx.get(k, F.zero())))
                                      for k in set(xy) | set(yx)})
                    if not diff:
                        continue
                    vec = to_vector(F, diff, A.basis_at(p + q))
                    try:
                        coords = HA._quotient(p + q).project(vec)
                    except ContainmentError:
                        out.append(((p, i), (q, j)))
                        continue
                    if any(not F.is_zero(c) for c in coords):
                        out.append(((p, i), (q, j)))
    return out


def _free_left(A: DGAlgebra) -> DGModule:
    from .module import free_module

    return left_restriction(free_module(A, side="bi"))


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
    """The Koszul cochain complex on x_i^t in internal degree s.

    Returns (spaces, diffs) where spaces[l] lists (subset, dim) blocks
    and diffs[l] is the block matrix into position l+1."""
    F = h.field
    c = len(params)
    subsets = {l: list(combinations(range(c), l)) for l in range(c + 1)}

    def e(S):
        return sum(params[i][1] for i in S)

    def space_dim(S):
        return h.dim(s + t * e(S))

    def power_matrix(i, from_deg, t_steps):
        x, d = params[i]
        mat = None
        deg = from_deg
        for _ in range(t_steps):
            step = h.act_matrix(x, d, deg)
            mat = step if mat is None else step.mul(mat)
            deg += d
        if mat is None:
            n = h.dim(from_deg)
            mat = Matrix.identity(F, n)
        return mat

    diffs = {}
    for l in range(c):
        rows_blocks = subsets[l + 1]
        cols_blocks = subsets[l]
        col_offsets, total_cols = {}, 0
        for S in cols_blocks:
            col_offsets[S] = total_cols
            total_cols += space_dim(S)
        row_offsets, total_rows = {}, 0
        for S in rows_blocks:
            row_offsets[S] = total_rows
            total_rows += space_dim(S)
        data = [[F.zero()] * total_cols for _ in range(total_rows)]
        for S in cols_blocks:
            for j in range(c):
                if j in S:
                    continue
                Sp = tuple(sorted(S + (j,)))
                pos = Sp.index(j)
                sgn = F.sign(pos)
                mat = power_matrix(j, s + t * e(S), t)
                r0, c0 = row_offsets[Sp], col_offsets[S]
                for r in range(mat.nrows):
                    for cc in range(mat.ncols):
                        data[r0 + r][c0 + cc] = F.mul(sgn, mat.entry(r, cc))
        diffs[l] = Matrix.from_rows(F, data) if total_rows and total_cols else Matrix.zeros(F, total_rows, total_cols)
    dims = {l: sum(space_dim(S) for S in subsets[l]) for l in range(c + 1)}
    return subsets, dims, diffs, e


def _stage_cohomology(F, dims, diffs, l, c):
    n = dims[l]
    if n == 0:
        return 0, []
    d_out = diffs.get(l)
    if d_out is not None and d_out.nrows:
        cocycles = kernel_basis(d_out)
    else:
        one, zero = F.one(), F.zero()
        cocycles = [tuple(one if i == j else zero for j in range(n)) for i in range(n)]
    d_in = diffs.get(l - 1)
    boundaries = image_basis(d_in) if (d_in is not None and d_in.ncols) else []
    q = quotient_by(F, cocycles, boundaries)
    return q.dim, q


def cech_e2(A: DGAlgebra, M: DGModule, params, s_range=None, max_stage: int = 12) -> E2Page:
    """The (l, s) page of local cohomology of H(M) on the parameters.

    ``params`` is a list of homogeneous cocycle combinations of A (an
    empty list in the finite-dimensional regime: everything is torsion
    and the page is H(M) itself in column 0).  Requires the classes to
    be central in H(A): even degrees, or characteristic 2, with graded
    commutativity checked on representatives.
    """
    F = A.field
    h = HModule(A, M)
    warnings = []

    norm_params = []
    for x in params:
        combo = cclean(F, dict(x))
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
    if s_range is None:
        # localized pieces live in degrees s + t*e; reach back far enough
        # for every window-visible class of the colimit
        lo = M.window.lo - max_stage * max((d for _x, d in norm_params), default=0)
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

    e_full = sum(d for _x, d in norm_params)
    for s in range(s_range[0], s_range[1] + 1):
        T = min(max_stage, (top - s) // e_full if e_full else max_stage)
        if T < 1:
            continue
        # the complexes only involve degrees s + t*e_S; all must be known
        needed = [s + t * sum(norm_params[i][1] for i in S)
                  for t in (T - 1, T)
                  for l in range(c + 1)
                  for S in combinations(range(c), l)]
        if not all(h.known(dd) for dd in set(needed)):
            continue
        try:
            subsets_a, dims_a, diffs_a, e_a = _koszul_stage(h, norm_params, s, T)
        except E2PreconditionError:
            continue
        stable_ok = T >= 2
        if stable_ok:
            subsets_b, dims_b, diffs_b, e_b = _koszul_stage(h, norm_params, s, T - 1)
        for l in range(c + 1):
            dim_a, quot_a = _stage_cohomology(F, dims_a, diffs_a, l, c)
            is_cert = False
            if stable_ok:
                dim_b, quot_b = _stage_cohomology(F, dims_b, diffs_b, l, c)
                if dim_a == dim_b:
                    is_cert = _transition_iso(h, norm_params, s, T - 1, quot_b, quot_a, subsets_a[l])
            if dim_a:
                if is_cert:
                    entries[(l, s)] = dim_a
                else:
                    uncertified[(l, s)] = dim_a

    # heuristic system-of-parameters sanity: the quotient by the
    # parameters should die out towards the top of the window
    coker_top = []
    for s in range(max(top - e_full, s_range[0]), top + 1):
        n = h.dim(s)
        if n == 0:
            continue
        img = Echelon(F, n)
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


def _transition_iso(h, params, s, t, quot_from, quot_to, subsets_l) -> bool:
    """Whether K(x^t) -> K(x^{t+1}) induces an isomorphism at position l."""
    F = h.field
    dim_from = quot_from.dim if hasattr(quot_from, "dim") else 0
    dim_to = quot_to.dim if hasattr(quot_to, "dim") else 0
    if dim_from != dim_to:
        return False
    if dim_from == 0:
        return True
    # block-diagonal transition: on component S multiply once by prod_{i in S} x_i
    cols = []
    for repv in quot_from.representatives:
        out = []
        off = 0
        for S in subsets_l:
            e_S = sum(params[i][1] for i in S)
            n_from = h.dim(s + t * e_S)
            block = tuple(repv[off: off + n_from])
            off += n_from
            if not S:
                out.extend(block)
                continue
            deg = s + t * e_S
            vec = block
            for i in S:
                mat = h.act_matrix(params[i][0], params[i][1], deg)
                vec = mat.apply(vec)
                deg += params[i][1]
            out.extend(vec)
        try:
            cols.append(quot_to.project(tuple(out)))
        except ContainmentError:
            return False
    ech = Echelon(F, quot_to.dim)
    r = 0
    for col in cols:
        if ech.add(col):
            r += 1
    return r == quot_to.dim


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
