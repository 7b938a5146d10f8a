"""DG modules over a connected cochain DG algebra: presentations,
validation, cohomology, hard truncation, suspension, linear duals,
twists, morphisms, and mapping cones.

Sign conventions (fixed once, asserted by the test suite):

* differentials raise degree by 1;
* module Leibniz: d(am) = d(a)m + (-1)^{|a|} a d(m), and on the right
  d(ma) = d(m)a + (-1)^{|m|} m d(a);
* suspension S^n M has (S^n M)^j = M^{j+n} with differential and left
  action unchanged and right action scaled by (-1)^{n|a|};
* the k-linear dual M* has d(f) = -(-1)^{|f|} f d, right action
  (f.a)(m) = f(am) and left action (a.f)(m) = (-1)^{|a|} f(ma);
* the opposite algebra (``DGAlgebra.opposite``) has
  a *op b = (-1)^{|a||b|} b a, and ``to_opposite`` makes a right module
  a left module over it by a .op m = (-1)^{|a||m|} m a (a left module a
  right one by the same sign).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import (
    DGAlgebra, Presentation, ValidationReport, Violation, _associative, _by_generators, _chain,
    _checked, _d_squared, _degree_report, _labels, _leibniz, _multiplicative, _unknown_label, diff_columns,
)
from .fields import FieldSpec
from .lincomb import ceq, cextend, cscale, czero
from .linalg import Echelon, Matrix, QuotientSpace, kernel_mod_images
from .windows import GLOBAL_DEGREE_BOUND, GradedWindow, Trust, WindowError

LEFT, RIGHT, BI = "left", "right", "bi"
_MIRROR = {LEFT: RIGHT, RIGHT: LEFT, BI: BI}  # the side of the dual or opposite


class SideError(ValueError):
    """A module lacks the action (left or right) a construction needs."""


@dataclass
class DGModule(Presentation):
    """A left/right/bi DG module presented degreewise on a finite window.

    ``lact[(a, m)]`` is the combination for a.m and ``ract[(m, a)]`` for
    m.a; entries with target degree above ``window.hi`` are unrecorded.

    A module keeps what is derived from it alone in the store of
    :meth:`Presentation.kept`: its H report (:func:`kept_cohomology`) and
    its semifree resolution for each stage budget
    (``dgreg.resolution.resolved``).  Nothing built from it together with
    another object, such as a Hom or tensor complex, is kept there.
    """

    name: str
    algebra: DGAlgebra
    side: str
    window: GradedWindow
    basis: dict   # degree -> tuple of labels
    lact: dict    # (algebra label, module label) -> combination
    ract: dict    # (module label, algebra label) -> combination
    diff: dict    # module label -> combination
    trust: Trust = dc_field(default_factory=Trust.everywhere)

    _label_kind = "module"
    _tables = ("lact", "ract", "diff")

    def _prepare(self, clean: bool):
        if self.side not in (LEFT, RIGHT, BI):
            raise ValueError(f"bad side {self.side!r}")
        self._index(clean)

    def _graded_tables(self) -> tuple:
        A = self.algebra
        return (self.lact, A, self), (self.ract, self, A), (self.diff, self, None)

    # -- lookups ---------------------------------------------------------

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    def support(self):
        ds = self.degrees()
        return (ds[0], ds[-1]) if ds else None

    @property
    def has_left(self) -> bool:
        return self.side in (LEFT, BI)

    @property
    def has_right(self) -> bool:
        return self.side in (RIGHT, BI)

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def act_left(self, a: str, m: str):
        if self.algebra._deg[a] + self._deg[m] > self.window.hi:
            return self._above_window()
        return self.lact.get((a, m), czero())

    def act_right(self, m: str, a: str):
        if self.algebra._deg[a] + self._deg[m] > self.window.hi:
            return self._above_window()
        return self.ract.get((m, a), czero())

    def lact_combo(self, x, dx: int, m, dm: int):
        """a-combination times m-combination; None if any entry unrecorded."""
        return self._bilinear(x, dx, m, dm, self.act_left)

    def ract_combo(self, m, dm: int, x, dx: int):
        return self._bilinear(m, dm, x, dx, self.act_right)

    # no caller in the package; the benchmark's tracer wraps it by name
    def diff_matrix(self, d: int) -> Matrix:
        return Matrix.from_columns(self.field, self.dim(d + 1), diff_columns(self, d))


def validate_module(M: DGModule) -> ValidationReport:
    """Check d^2, module Leibniz, action associativity, unit action, and
    (for bimodules) commutation of the two actions, on recorded entries.
    Leibniz, associativity and commutation are checked over the algebra's
    generators when the rules of ``dgreg.algebra`` apply."""
    A = M.algebra
    F = M.field
    out = _d_squared(M, "d(d(m)) is nonzero")

    unital = True
    for m, _ in _labels(M):
        want = {m: F.one()}
        if M.has_left:
            got = M.act_left(A.unit, m)
            if got is not None and not ceq(F, got, want):
                unital = False
                out.append(Violation("unit-action-left", (A.unit, m), "1.m differs from m"))
        if M.has_right:
            got = M.act_right(m, A.unit)
            if got is not None and not ceq(F, got, want):
                unital = False
                out.append(Violation("unit-action-right", (m, A.unit), "m.1 differs from m"))

    degree = _degree_report(M)
    out += degree
    gens = _checked(A)[0] if unital and not degree else None
    assoc = _by_generators(lambda gs: _action_associativity(M, gs), gens, A._deg)
    firsts = None if gens is None or assoc else gens | {A.unit}
    out += _by_generators(lambda fs: _module_leibniz(M, fs), firsts, A._deg)
    out += assoc
    return ValidationReport(M.name, out)


def _module_leibniz(M: DGModule, firsts) -> list:
    """Left and right Leibniz violations over the pairs whose algebra
    factor is in ``firsts``: the first factor on the left, the last on the
    right."""
    A = M.algebra
    left, right, mod_labels = M.act_left, M.act_right, _labels(M)
    out = []
    for a, _ in _labels(A):
        if a not in firsts:
            continue
        for m, _ in mod_labels:
            if M.has_left and _leibniz(M, left, A, a, M, m):
                out.append(Violation("leibniz-left", (a, m), "d(am) != d(a)m + (-1)^|a| a d(m)"))
            if M.has_right and _leibniz(M, right, M, m, A, a):
                out.append(Violation("leibniz-right", (m, a), "d(ma) != d(m)a + (-1)^|m| m d(a)"))
    return out


def _action_associativity(M: DGModule, gens) -> list:
    """Action associativity and bimodule commutation violations over the
    triples whose algebra factor on the generator side is in ``gens``:
    the first factor on the left, the last on the right, and both in
    commutation."""
    A = M.algebra
    alg_labels, mod_labels, hi = _labels(A), _labels(M), M.window.hi
    left, right, mul = M.act_left, M.act_right, A.product
    out = []
    for a, da in alg_labels:
        on_left = M.has_left and a in gens
        for b, db in alg_labels:
            on_right = M.has_right and b in gens
            if not (on_left or on_right):
                continue
            ab = mul(a, b)
            for m, dm in mod_labels:
                if da + db + dm > hi:
                    break
                if on_left and _associative(M, a, ab, m, left(b, m), left, left):
                    out.append(Violation("action-associativity-left", (a, b, m), "(ab)m != a(bm)"))
                if on_right and _associative(M, m, right(m, a), b, ab, right, right):
                    out.append(Violation("action-associativity-right", (m, a, b), "m(ab) != (ma)b"))

    if M.side == BI:
        gen_labels = [(a, da) for a, da in alg_labels if a in gens]
        for a, da in gen_labels:
            for m, dm in mod_labels:
                am = left(a, m)
                for b, db in gen_labels:
                    if da + dm + db > hi:
                        break
                    if _associative(M, a, am, b, right(m, b), right, left):
                        out.append(Violation("bimodule-commutation", (a, m, b), "(am)b != a(mb)"))
    return out


# -- cohomology ----------------------------------------------------------


@dataclass
class CohomologyReport:
    """Per-degree cohomology dimensions with the quotient spaces they
    come from.

    ``certified`` is the degree range on which the numbers agree with the
    unbounded object.  ``quotients[d]`` is H^d as cocycles modulo
    coboundaries, for every degree d with a basis: its representatives
    are sparse cocycle coordinates in the degree-d basis, ``sub`` is the
    echelon of the coboundaries, and ``project`` gives a cocycle's class
    in the representatives' basis.  Read them through :meth:`quotient`.
    """

    subject: str
    dims: dict          # degree -> dim (nonzero entries only)
    quotients: dict     # degree -> QuotientSpace (degrees with a basis)
    certified: Trust
    window: GradedWindow
    field: FieldSpec

    def quotient(self, d: int) -> QuotientSpace:
        """H^d as a quotient space; the zero space at a degree with no basis."""
        q = self.quotients.get(d)
        return q if q is not None else QuotientSpace(self.field, [], Echelon(self.field))

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def certified_dims(self) -> dict:
        return {d: n for d, n in self.dims.items() if self.certified.contains(d)}

    @property
    def inf_degree(self):
        """inf of the support; +inf for zero cohomology."""
        nz = sorted(self.dims)
        return nz[0] if nz else float("inf")

    @property
    def sup_degree(self):
        nz = sorted(self.dims)
        return nz[-1] if nz else float("-inf")

    @property
    def inf_certified(self) -> bool:
        if self.certified.lo is not None:
            return False
        nz = sorted(self.dims)
        return bool(nz) or self.certified.hi is None

    def to_json(self):
        return {
            "subject": self.subject,
            "dims": {str(d): n for d, n in sorted(self.dims.items())},
            "certified": self.certified.to_json(),
            "inf": _ext_json(self.inf_degree),
            "sup": _ext_json(self.sup_degree),
        }


def _ext_json(v):
    if v == float("inf"):
        return "+inf"
    if v == float("-inf"):
        return "-inf"
    return int(v)


def cohomology(X) -> CohomologyReport:
    """Degreewise cocycles modulo coboundaries with echelonized
    representatives, read from :func:`~dgreg.linalg.kernel_mod_images`
    fed with each degree's differential columns.  Raises
    :class:`~dgreg.linalg.ContainmentError` when d^2 != 0 puts a
    coboundary outside the cocycles.

    Certified at degree d when degrees d-1, d, d+1 are all trusted in the
    presentation (computing H costs one degree at each trust boundary).
    """
    window = X.window
    if isinstance(X, DGAlgebra):
        window = GradedWindow(min(0, window.lo), window.hi)
    state = kernel_mod_images(X.field, window.degrees(), lambda d: diff_columns(X, d))
    quotients = {d: s.quotient() for d, s in state.items() if X.dim(d)}
    dims = {d: q.dim for d, q in quotients.items() if q.dim}
    return CohomologyReport(X.name, dims, quotients, _h_certified(X.trust), window, X.field)


def kept_cohomology(X) -> CohomologyReport:
    """The H report of an algebra or module, computed by :func:`cohomology`
    once and kept on X.  The library reads H through here; callers must not
    change the report.  :func:`cohomology` itself keeps nothing."""
    return X.kept("cohomology", lambda: cohomology(X))


def _h_certified(trust: Trust) -> Trust:
    """Where H of a complex trusted on ``trust`` is certified: a trust
    boundary costs one degree of margin on its side."""
    return Trust(
        None if trust.lo is None else trust.lo + 1,
        None if trust.hi is None else trust.hi - 1,
    )


# -- constructions --------------------------------------------------------


def canonical_k(A: DGAlgebra, side: str = BI, name: str = "k") -> DGModule:
    """The canonical module A/A^{>=1}: one basis element in degree 0 on
    which every positive-degree algebra element acts by zero."""
    F = A.field
    lbl = "k0"
    lact, ract = {}, {}
    if side in (LEFT, BI):
        lact[(A.unit, lbl)] = {lbl: F.one()}
    if side in (RIGHT, BI):
        ract[(lbl, A.unit)] = {lbl: F.one()}
    return DGModule._built(
        name=name,
        algebra=A,
        side=side,
        window=GradedWindow(0, A.window.hi),
        basis={0: (lbl,)},
        lact=lact,
        ract=ract,
        diff={},
        trust=Trust.everywhere(),
    )


def free_module(A: DGAlgebra, name: str | None = None, side: str = BI) -> DGModule:
    """A as a DG (bi)module over itself."""
    return DGModule._built(
        name=name or (A.name + "_free"),
        algebra=A,
        side=side,
        window=GradedWindow(A.window.lo, A.window.hi),
        basis=A.basis,
        lact=A.mul if side in (LEFT, BI) else {},
        ract=A.mul if side in (RIGHT, BI) else {},
        diff=A.diff,
        trust=A.trust,
    )


@dataclass
class Truncation:
    sub: DGModule
    quot: DGModule
    inclusion: "ModuleMorphism"
    projection: "ModuleMorphism"


def hard_truncate(M: DGModule, level: int) -> Truncation:
    """The hard truncation M^{>= level} with its quotient M/M^{>= level}
    and the witnessing inclusion/projection chain maps."""
    F = M.field
    keep = {d: lbls for d, lbls in M.basis.items() if d >= level}
    drop = {d: lbls for d, lbls in M.basis.items() if d < level}
    kept = {lbl for lbls in keep.values() for lbl in lbls}

    def project(table, in_dropped):
        out = {}
        for key, combo in table.items():
            if not in_dropped(key):
                continue
            reduced = {lbl: c for lbl, c in combo.items() if lbl not in kept}
            if reduced:
                out[key] = reduced
        return out

    sub_window = GradedWindow(max(M.window.lo, level), M.window.hi)
    sub_trust = M.trust
    if M.trust.lo is None or M.trust.lo <= level:
        sub_trust = Trust(None, M.trust.hi)  # below level the truncation is zero by fiat
    sub = M._with(
        name=f"{M.name}>= {level}".replace(" ", ""),
        window=sub_window if keep else GradedWindow(level, max(level, M.window.hi)),
        basis=keep,
        lact={k: v for k, v in M.lact.items() if k[1] in kept},
        ract={k: v for k, v in M.ract.items() if k[0] in kept},
        diff={k: v for k, v in M.diff.items() if k in kept},
        trust=sub_trust,
    )
    quot_window = GradedWindow(M.window.lo, min(M.window.hi, level - 1)) if drop else GradedWindow(M.window.lo, M.window.lo)
    quot_trust = Trust(M.trust.lo, None) if (M.trust.hi is None or M.trust.hi >= level - 1) else M.trust
    quot = M._with(
        name=f"{M.name}/>={level}",
        window=quot_window,
        basis=drop,
        lact=project(M.lact, lambda k: k[1] not in kept),
        ract=project(M.ract, lambda k: k[0] not in kept),
        diff=project(M.diff, lambda k: k not in kept),
        trust=quot_trust,
    )
    incl = ModuleMorphism(sub, M, {lbl: {lbl: F.one()} for lbl in kept})
    proj = ModuleMorphism(
        M, quot, {lbl: ({lbl: F.one()} if lbl not in kept else {}) for lbl in M._deg}
    )
    return Truncation(sub, quot, incl, proj)


def suspend(M: DGModule, n: int, name: str | None = None) -> DGModule:
    """The n-fold suspension: (S^n M)^j = M^{j+n}.

    Differential and left action are carried over unchanged; the right
    action picks up the Koszul sign (-1)^{n|a|}.  H(S^n M)^j = H(M)^{j+n}.
    """
    if n == 0:
        return M
    F = M.field
    new_lo, new_hi = M.window.lo - n, M.window.hi - n
    if abs(new_lo) > GLOBAL_DEGREE_BOUND or abs(new_hi) > GLOBAL_DEGREE_BOUND:
        raise WindowError(f"suspension by {n} leaves the global degree bounds")
    basis = {d - n: lbls for d, lbls in M.basis.items()}
    ract = {}
    for (m, a), combo in M.ract.items():
        s = F.sign(n * M.algebra.degree_of(a))
        ract[(m, a)] = cscale(F, s, combo)
    return M._with(name=name or f"S{n}({M.name})", window=GradedWindow(new_lo, new_hi),
                   basis=basis, ract=ract, trust=M.trust.shift(n))


def _dual_label(lbl: str) -> str:
    """The label of the dual basis vector of ``lbl`` in M*."""
    return lbl + "'"


def linear_dual(M: DGModule, name: str | None = None) -> DGModule:
    """The k-linear dual with sides swapped: (M*)^j = (M^{-j})*.

    d(f) = -(-1)^{|f|} f d; a left action on M induces the right action
    (f.a)(m) = f(am), a right action induces (a.f)(m) = (-1)^{|a|} f(ma).
    """
    F = M.field
    A = M.algebra
    deg = M._deg
    dual_lbl = {lbl: _dual_label(lbl) for lbl in deg}
    basis = {-d: tuple(dual_lbl[l] for l in lbls) for d, lbls in M.basis.items()}

    # the transpose: each entry y of a row at x is written once, into the
    # dual row of y at x' (entries whose degree is off are not read)
    diff, lact, ract = {}, {}, {}
    for x in deg:
        for y, c in M.diff.get(x, {}).items():
            if deg[y] == deg[x] + 1:
                # d(y')(x) = -(-1)^{|y'|} y'(dx), |y'| = -|y|
                diff.setdefault(dual_lbl[y], {})[dual_lbl[x]] = F.mul(F.neg(F.sign(deg[y])), c)
    if M.has_left:
        for (a, x), row in M.lact.items():
            for y, c in row.items():
                if deg[y] == A.degree_of(a) + deg[x]:
                    ract.setdefault((dual_lbl[y], a), {})[dual_lbl[x]] = c
    if M.has_right:
        for (x, a), row in M.ract.items():
            da = A.degree_of(a)
            for y, c in row.items():
                if deg[y] == da + deg[x]:
                    lact.setdefault((a, dual_lbl[y]), {})[dual_lbl[x]] = F.mul(F.sign(da), c)

    return M._with(name=name or f"{M.name}*", side=_MIRROR[M.side], window=M.window.flip(),
                   basis=basis, lact=lact, ract=ract, diff=diff, trust=M.trust.flip())


def twist(M: DGModule, alpha, name: str | None = None) -> DGModule:
    """Twist the right action by an algebra automorphism: m .' a = m . alpha(a)."""
    from .algebra import validate_automorphism

    if not M.has_right:
        raise ValueError("twist needs a right module structure")
    rep = validate_automorphism(alpha)
    if not rep.ok:
        raise ValueError(f"invalid automorphism: {rep.violations[0].detail}")
    F = M.field
    A = M.algebra
    ract, alg_labels = {}, _labels(A)
    for d, lbls in M.basis.items():
        for a, da in alg_labels:
            img = alpha.apply({a: F.one()})
            for m in lbls:
                out = M.ract_combo({m: F.one()}, d, img, da)
                if out:
                    ract[(m, a)] = out
    return M._with(name=name or f"{M.name}^tw", ract=ract)


# -- morphisms and cones ---------------------------------------------------


@dataclass
class ModuleMorphism:
    """A degree-0 A-linear chain map given on basis labels."""

    source: DGModule
    target: DGModule
    images: dict  # source label -> combination in target, same degree

    def apply(self, c: dict) -> dict:
        return cextend(self.source.field, c, lambda lbl: self.images.get(lbl, {}))

    def validate(self) -> ValidationReport:
        M, N, f = self.source, self.target, self.apply
        one = M._one
        out = [v for v in (_unknown_label(M, N, lbl, img) for lbl, img in self.images.items()) if v]
        unknown = {v.witness[0] for v in out}
        image = {lbl: self.images.get(lbl, {}) for lbl in M._deg if lbl not in unknown}
        for lbl, img in image.items():
            if any(N.degree_of(t) != M.degree_of(lbl) for t in img):
                out.append(Violation("degree", (lbl,), "image changes degree"))
        out += [Violation("chain-map", (lbl,), "f(dm) != d(f(m))")
                for lbl, img in image.items() if _chain(M, N, f, lbl, img)]
        left, right = M.has_left and N.has_left, M.has_right and N.has_right
        for a, da in _labels(M.algebra):
            for lbl, img in image.items():
                d = M.degree_of(lbl)
                if left and _multiplicative(N, f, M.act_left(a, lbl), {a: one}, da, img, d, N.act_left):
                    out.append(Violation("linearity", (a, lbl), "f(am) != a f(m)"))
                if right and _multiplicative(N, f, M.act_right(lbl, a), img, d, {a: one}, da, N.act_right):
                    out.append(Violation("linearity", (lbl, a), "f(ma) != f(m) a"))
        return ValidationReport(f"{M.name}->{N.name}", out)

    def h_isomorphism_degrees(self) -> dict:
        """Per-degree (rank, dim source H, dim target H) of the induced map."""
        M, N = self.source, self.target
        hs, ht = kept_cohomology(M), kept_cohomology(N)
        out = {}
        for d in sorted(set(hs.dims) | set(ht.dims)):
            # the rank is how far the images of the source classes grow
            # the target's coboundaries
            grown = ht.quotient(d).sub.copy()
            rank = sum(grown.add(N.coords(self.apply(M.combo(rep, d)), d))
                       for rep in hs.quotient(d).representatives)
            out[d] = (rank, hs.dim(d), ht.dim(d))
        return out

    def is_quasi_iso_on(self, trust: Trust) -> bool:
        ranks = self.h_isomorphism_degrees()
        for d, (r, s, t) in ranks.items():
            if trust.contains(d) and not (r == s == t):
                return False
        return True


def cone_of(f: ModuleMorphism, name: str | None = None) -> DGModule:
    """The mapping cone of an A-linear chain map f: X -> Y.

    Underlying graded module Y + SX; d(y, x~) = (dy + f(x), -(dx)~);
    the left action on the shifted part carries the sign (-1)^{|a|},
    the right action none.  The cone basis at degree j is Y^j followed
    by the shifted X^{j+1}; a shifted label is the X label with the
    shortest run of ``~`` that keeps it apart from every Y label.
    """
    X, Y = f.source, f.target
    if X.algebra is not Y.algebra and X.algebra != Y.algebra:
        raise ValueError("cone needs modules over one algebra")
    if X.side != Y.side:
        raise ValueError("cone needs matching sides")
    F = X.field
    A = X.algebra
    tilde = "~"
    while any(lbl + tilde in Y._deg for lbl in X._deg):
        tilde += "~"
    sx = {lbl: lbl + tilde for lbl in X._deg}
    basis: dict = {}
    for d, lbls in Y.basis.items():
        basis.setdefault(d, []).extend(lbls)
    for d, lbls in X.basis.items():
        basis.setdefault(d - 1, []).extend(sx[l] for l in lbls)
    window = GradedWindow(
        min([Y.window.lo, X.window.lo - 1]), max([Y.window.hi, X.window.hi - 1])
    )

    shifted = {}  # f's images come from outside, so these rows are cleaned
    for lbl in X._deg:
        combo = shifted[sx[lbl]] = dict(f.images.get(lbl, {}))
        for t, c in X.diff.get(lbl, {}).items():
            combo[sx[t]] = F.neg(c)
    diff = {**Y.diff, **Y._clean(shifted)}

    lact, ract = dict(Y.lact), dict(Y.ract)
    for (a, m), combo in X.lact.items():
        s = F.sign(A.degree_of(a))
        lact[(a, sx[m])] = cscale(F, s, {sx[t]: c for t, c in combo.items()})
    for (m, a), combo in X.ract.items():
        ract[(sx[m], a)] = {sx[t]: c for t, c in combo.items()}

    return DGModule._built(
        name=name or f"cone({f.source.name}->{f.target.name})",
        algebra=A,
        side=X.side,
        window=window,
        basis=basis,
        lact=lact,
        ract=ract,
        diff=diff,
        trust=X.trust.shift(1).meet(Y.trust),
    )


def left_restriction(M: DGModule) -> DGModule:
    """Forget the right action of a bimodule (identity on left modules)."""
    if M.side == LEFT:
        return M
    if not M.has_left:
        raise SideError(f"{M.name} has no left structure")
    return M._with(side=LEFT, ract={})


def zero_module(A: DGAlgebra, side: str = LEFT, name: str = "0") -> DGModule:
    return DGModule._built(
        name=name, algebra=A, side=side, window=GradedWindow(0, A.window.hi),
        basis={}, lact={}, ract={}, diff={}, trust=Trust.everywhere(),
    )


# -- opposite-algebra transport -------------------------------------------


def to_opposite(M: DGModule) -> DGModule:
    """Transport a right module to a left module over the opposite algebra
    (and vice versa) via a .op m = (-1)^{|a||m|} m a.  Applied twice it
    gives M's tables back over M's own algebra."""
    F = M.field
    one = F.one()
    lact, ract = {}, {}
    # tables are never edited, so a combination the sign leaves alone is shared
    for (m, a), combo in M.ract.items():
        s = F.sign(M.algebra.degree_of(a) * M.degree_of(m))
        lact[(a, m)] = combo if s == one else cscale(F, s, combo)
    for (a, m), combo in M.lact.items():
        s = F.sign(M.algebra.degree_of(a) * M.degree_of(m))
        ract[(m, a)] = combo if s == one else cscale(F, s, combo)
    return M._with(name=M.name + "_op", algebra=M.algebra.opposite(), side=_MIRROR[M.side],
                   lact=lact, ract=ract)


def double_dual_embedding(M: DGModule) -> ModuleMorphism:
    """The canonical chain map M -> (M*)* sending m to (-1)^{|m||f|} f(m);
    on basis labels it is the signed identification b -> (-1)^{|b|} (b')'."""
    dd = linear_dual(linear_dual(M))
    F = M.field
    images = {lbl: {_dual_label(_dual_label(lbl)): F.sign(M.degree_of(lbl))} for lbl in M._deg}
    return ModuleMorphism(M, dd, images)
