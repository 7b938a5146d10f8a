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


def _ledger_cell(N, window, rules, alg, keys, x, g, n):
    """The cell (x, g) of degree n of the complex of :func:`_ledger_complex`
    with the given ``rules`` and algebra (label, degree) pairs ``alg``, as
    (diff, acts, cap): d(x, g) keyed by ``keys[(x2, h)]`` with no zero
    coefficient (cells without a key are skipped; empty at the window top
    or when unrecorded), the
    (a, sign, terms) of each action landing in the window, and the trust
    cap the unrecorded entries impose (None when there is none).
    """
    links, coeff, act = rules
    F = N.field
    cap = None
    acc = {}
    if n + 1 <= window.hi:
        dx = N.diff_of(x)
        if dx is None:
            cap = n
        else:
            for x2, c in dx.items():
                key = keys.get((x2, g))
                if key is not None:
                    acc[key] = c
            for h, acomb, s in links(g, n):
                for a, ca in acomb.items():
                    terms = coeff(x, a)
                    if terms is None:
                        cap = n
                        break
                    sc = F.mul(s, ca)
                    for x2, c in terms.items():
                        key = keys.get((x2, h))
                        if key is not None:
                            v = F.mul(sc, c)
                            old = acc.get(key)
                            if old is not None:
                                v = F.add(old, v)
                            if F.is_zero(v):
                                del acc[key]
                            else:
                                acc[key] = v
                if cap is not None:
                    acc = {}
                    break
    acts = []
    if act is not None:
        for a, da in alg:
            if n + da > window.hi:
                continue
            s, terms = act(x, g, a)
            if terms is None:
                cap = n + da - 1 if cap is None else min(cap, n + da - 1)
            else:
                acts.append((a, s, terms))
    return acc, acts, cap


def _ledger_complex(L, N, window, sign, label, rules, side, name):
    """The loop shared by the complexes over a ledger.

    The cell (x, g) of degree n is the basis element ``label(x, g)``.
    ``rules`` is (links, coeff, act).  The cell's differential is d_N(x)
    on g plus s * coeff(x, a) on h for each (h, acomb, s) in
    ``links(g, n)`` and each a in acomb.  When ``act`` is given,
    ``act(x, g, a)`` is the action of the algebra label a from ``side``
    on the cell, as (sign, combination of N labels on g).  coeff and act
    give None for an unrecorded entry, which caps the trust there.
    Without ``act`` the output is a bare complex, kept as a module on the
    other side with the unit action alone so that validation is
    meaningful.  Each cell is built by :func:`_ledger_cell`.

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
    diff, acts = {}, {}
    for n, row in cells.items():
        for x, g in row:
            lab = lbl[(x, g)]
            dcell, acted, cap = _ledger_cell(N, window, rules, alg, lbl, x, g, n)
            if cap is not None:
                trust = trust.cap_hi(cap)
            if dcell:
                diff[lab] = dcell
            for a, s, terms in acted:
                out = {}
                for x2, c in terms.items():
                    key = lbl.get((x2, g))
                    if key is not None:
                        out[key] = F.mul(s, c)
                if out:
                    acts[(a, lab)] = out
    basis = {n: tuple(lbl[cell] for cell in row) for n, row in cells.items()}
    if rules[2] is None:
        side = RIGHT if side == LEFT else LEFT
        acts = {(A.unit, m): {m: F.one()} for row in basis.values() for m in row}
    if side == LEFT:
        lact, ract = acts, {}
    else:
        lact, ract = {}, {(m, a): combo for (a, m), combo in acts.items()}
    # each cell's differential is clean and each action entry a product of
    # nonzero scalars at distinct cells, so every table is already clean
    out = DGModule._built(name=name, algebra=A, side=side, window=window, basis=basis,
                          lact=lact, ract=ract, diff=diff, trust=trust)
    return out, notes


def _free_bimodule(A):
    """A as a bimodule over itself, built once per algebra object and
    kept on it, so that the many realizations of ledgers over one
    algebra do not rebuild it."""
    return A.kept("free bimodule", lambda: free_module(A))


def _generator_trust(A, degree: int, window: GradedWindow) -> Trust:
    """What one generator of the given degree leaves of the trust of |P|
    realized on the window: A's trust moved onto e_g, capped at the
    window top when A's top degree times e_g leaves the window, and
    raised to the window bottom when e_g lies below it."""
    trust = A.trust.shift(-degree)
    a_top = A.trust.hi if A.trust.hi is not None else (max(A.basis) if A.basis else 0)
    if degree + a_top > window.hi:
        trust = trust.cap_hi(window.hi)
    if degree < window.lo:
        trust = trust.raise_lo(window.lo)
    return trust


def realize_ledger(L: SemifreeResolution, window: GradedWindow, name: str | None = None) -> DGModule:
    """The free left module |P| underlying a ledger: A tensor_A P.

    Basis of degree n: the labels b|g with b an algebra basis label of
    degree n - |g|.  d(b e_g) = d(b) e_g + (-1)^{|b|} sum_h (b a_{gh}) e_h;
    the left action is multiplication into the b coordinate.  Besides
    the caps of the tensor complex, unwritten future generators cap the
    trust below the ledger bound, and each generator meets it with
    :func:`_generator_trust`.
    """
    A = L.algebra
    P, _ = tensor_module_ledger(
        _free_bimodule(A), L, window,
        name=name or f"|{L.target.name if L.target else 'ledger'}|",
    )
    bound = L.ledger_bound
    if bound is not None:
        P.trust = P.trust.cap_hi(bound - 1)
    for g in L.gens:
        P.trust = P.trust.meet(_generator_trust(A, g.degree, window))
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

    rules = (links, lambda x, a: N.act_left(a, x), act if N.has_right else None)
    return _ledger_complex(
        L, N, window, +1, lambda x, g: f"{g}|{x}", rules,
        RIGHT, name or f"Hom({L.target.name if L.target else 'P'},{N.name})",
    )


def _tensor_rules(N: DGModule, degree_of, ledger_diff: dict):
    """(links, coeff, act) of N tensor_A P for the ledger with the given
    generator degrees and differential (see :func:`tensor_module_ledger`)."""
    F = N.field
    one = F.one()

    def links(g, n):
        s = F.sign(n - degree_of(g))
        return [(h, acomb, s) for h, acomb in ledger_diff.get(g, {}).items()]

    def act(x, g, a):
        return one, N.act_left(a, x)

    return links, N.act_right, act if N.has_left else None


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
    return _ledger_complex(
        L, N, window, -1, lambda x, g: f"{x}|{g}", _tensor_rules(N, L.degree_of, L.diff),
        LEFT, name or f"{N.name}(x){L.target.name if L.target else 'P'}",
    )
