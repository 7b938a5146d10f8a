"""Chain-level tensor and Hom against semifree ledgers.

With P a semifree left module with generator ledger, the complexes

    N  tensor_A  P   (N a right module)        and
    Hom_A(P, N)      (N a left module)

are degreewise computable: the underlying graded pieces are sums,
respectively products, of shifted copies of N indexed by generators.
The differentials combine d_N with the ledger's A-coefficients acting
on N; Koszul signs as documented on each function.  Both come out of
one loop over the cells (x, g) of :func:`ledger_cells`, and the free
module |P| itself is realized as A tensor_A P.

Basis labels (``x|g`` for tensor, ``g|x`` for Hom) are for display
only; no code parses them.  A caller that needs the (x, g) behind a
basis position reads it from :func:`ledger_cells`, the enumeration the
builders use.
"""

from __future__ import annotations

from .ledger import SemifreeResolution
from .module import DGModule, LEFT, RIGHT, SideError, free_module
from .windows import GradedWindow, Trust


def ledger_cells(L: SemifreeResolution, N, window: GradedWindow, sign: int) -> dict:
    """Basis of a complex over the ledger L with coefficients in N.

    Per degree n of the window, the pairs (x, g) of a basis label x of N
    in degree n + sign*|g| and a generator label g, generators in ledger
    order: sign -1 for N tensor P, +1 for Hom(P, N).
    """
    cells = {}
    for n in window.degrees():
        row = [(x, g.label) for g in L.gens for x in N.basis_at(n + sign * g.degree)]
        if row:
            cells[n] = row
    return cells


def _ledger_complex(L, N, window, sign, label, links, coeff, act, side, name):
    """The loop shared by the complexes over a ledger.

    The cell (x, g) of degree n is the basis element ``label(x, g)``.
    Its differential is d_N(x) on g plus s * coeff(x, a) on h for each
    (h, acomb, s) in ``links(g, n)`` and each a in acomb.  When ``act``
    is given, ``act(x, g, a)`` is the action of the algebra label a from
    ``side`` on the cell, as (sign, combination of N labels on g).
    coeff and act give None for an unrecorded entry, which caps the
    trust there.  Without ``act`` the output is a bare complex, kept as
    a module on the other side with the unit action alone so that
    validation is meaningful.

    Returns (module, notes).
    """
    A = L.algebra
    F = N.field
    cells = ledger_cells(L, N, window, sign)
    lbl = {cell: label(*cell) for row in cells.values() for cell in row}
    trust = Trust.everywhere()
    for g in L.gens:
        trust = trust.meet(N.trust.shift(sign * g.degree))
    notes = []
    if L.ledger_bound is not None:
        notes.append(
            f"ledger not known complete beyond degree {L.ledger_bound}; the complex "
            "models the derived functor up to the recorded frontier contributions"
        )
    alg = [(a, d) for d in A.degrees() for a in A.basis_at(d)]
    cap = None
    diff, acts = {}, {}
    for n, row in cells.items():
        for x, g in row:
            lab = lbl[(x, g)]
            if n + 1 <= window.hi:
                acc = {}
                dx = N.diff_of(x)
                ok = dx is not None
                if ok:
                    for x2, c in dx.items():
                        key = lbl.get((x2, g))
                        if key is not None:
                            acc[key] = c
                    for h, acomb, s in links(g, n):
                        for a, ca in acomb.items():
                            terms = coeff(x, a)
                            if terms is None:
                                ok = False
                                break
                            sc = F.mul(s, ca)
                            for x2, c in terms.items():
                                key = lbl.get((x2, h))
                                if key is not None:
                                    v = F.mul(sc, c)
                                    old = acc.get(key)
                                    acc[key] = v if old is None else F.add(old, v)
                        if not ok:
                            break
                if not ok:
                    cap = n if cap is None else min(cap, n)
                elif acc:
                    diff[lab] = acc
            if act is None:
                continue
            for a, da in alg:
                if n + da > window.hi:
                    continue
                s, terms = act(x, g, a)
                if terms is None:
                    cap = n + da - 1 if cap is None else min(cap, n + da - 1)
                    continue
                out = {}
                for x2, c in terms.items():
                    key = lbl.get((x2, g))
                    if key is not None:
                        out[key] = F.mul(s, c)
                if out:
                    acts[(a, lab)] = out
    if cap is not None:
        trust = trust.cap_hi(cap)
    basis = {n: tuple(lbl[cell] for cell in row) for n, row in cells.items()}
    if act is None:
        side = RIGHT if side == LEFT else LEFT
        acts = {(A.unit, m): {m: F.one()} for row in basis.values() for m in row}
    if side == LEFT:
        lact, ract = acts, {}
    else:
        lact, ract = {}, {(m, a): combo for (a, m), combo in acts.items()}
    out = DGModule(name=name, algebra=A, side=side, window=window, basis=basis,
                   lact=lact, ract=ract, diff=diff, trust=trust)
    return out, notes


def _free_bimodule(A):
    """A as a bimodule over itself, built once per algebra object and
    kept on it (its tables are fixed after construction), so that a
    resolution realizing its ledger at every stage does not rebuild it."""
    AA = A.__dict__.get("_free_bimodule")
    if AA is None:
        AA = A._free_bimodule = free_module(A)
    return AA


def realize_ledger(L: SemifreeResolution, window: GradedWindow, name: str | None = None) -> DGModule:
    """The free left module |P| underlying a ledger: A tensor_A P.

    Basis of degree n: the labels b|g with b an algebra basis label of
    degree n - |g|.  d(b e_g) = d(b) e_g + (-1)^{|b|} sum_h (b a_{gh}) e_h;
    the left action is multiplication into the b coordinate.  Besides
    the caps of the tensor complex, unwritten future generators cap the
    trust below the ledger bound, and the window cuts it where it
    truncates honest content of the free module.
    """
    A = L.algebra
    P, _ = tensor_module_ledger(
        _free_bimodule(A), L, window,
        name=name or f"|{L.target.name if L.target else 'ledger'}|",
    )
    bound = L.ledger_bound
    if bound is not None:
        P.trust = P.trust.cap_hi(bound - 1)
    if L.gens:
        a_top = A.trust.hi if A.trust.hi is not None else (max(A.basis) if A.basis else 0)
        if max(g.degree for g in L.gens) + a_top > window.hi:
            P.trust = P.trust.cap_hi(window.hi)
        if min(g.degree for g in L.gens) < window.lo:
            P.trust = P.trust.raise_lo(window.lo)
    return P


def hom_from_ledger(L: SemifreeResolution, N: DGModule, window: GradedWindow,
                    name: str | None = None):
    """The complex Hom_A(P, N) for a left-module ledger P and left module N.

    Degree-j part: product over generators g of N^{j+|g|}; the basis
    element (g : n) is the A-linear map e_g -> n (zero on other
    generators, extended by f(a p) = (-1)^{|f||a|} a f(p)).  Differential
    d(f) = d_N f - (-1)^{|f|} f d_P.  When N is a bimodule the output is
    a right module via (f.b)(e_g) = (-1)^{|b||g|} f(e_g) b.

    Returns (module, notes); notes flag window-relative trust.
    """
    if not N.has_left:
        raise SideError("hom_from_ledger needs a left action on N")
    A = L.algebra
    F = A.field
    # incoming ledger rows: for generator g', which g receive a_{g'g}?
    incoming: dict = {}
    for gp, row in L.diff.items():
        for h, acomb in row.items():
            incoming.setdefault(h, []).append((gp, acomb, L.degree_of(gp) + 1 - L.degree_of(h)))

    def links(g, j):
        return [(gp, acomb, F.neg(F.sign(j * (1 + adeg)))) for gp, acomb, adeg in incoming.get(g, ())]

    def act(x, g, a):
        return F.sign(A.degree_of(a) * L.degree_of(g)), N.act_right(x, a)

    return _ledger_complex(
        L, N, window, +1, lambda x, g: f"{g}|{x}", links,
        lambda x, a: N.act_left(a, x), act if N.has_right else None,
        RIGHT, name or f"Hom({L.target.name if L.target else 'P'},{N.name})",
    )


def tensor_module_ledger(N: DGModule, L: SemifreeResolution, window: GradedWindow,
                         name: str | None = None):
    """The complex N tensor_A P for a right module N and left-ledger P.

    Degree-n part: sum over generators g of N^{n-|g|}; basis element
    (n : g) is n tensor e_g.  d(n e_g) = (dn) e_g +
    (-1)^{|n|} sum_h (n a_{gh}) e_h.  When N is a bimodule the output is
    a left module via a (n e_g) = (a n) e_g.

    Returns (module, notes).
    """
    if not N.has_right:
        raise ValueError("tensor_module_ledger needs a right action on N")
    F = N.field
    one = F.one()

    def links(g, n):
        s = F.sign(n - L.degree_of(g))
        return [(h, acomb, s) for h, acomb in L.diff.get(g, {}).items()]

    def act(x, g, a):
        return one, N.act_left(a, x)

    return _ledger_complex(
        L, N, window, -1, lambda x, g: f"{x}|{g}", links,
        N.act_right, act if N.has_left else None,
        LEFT, name or f"{N.name}(x){L.target.name if L.target else 'P'}",
    )
