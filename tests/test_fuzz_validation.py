"""Randomized perturbations of catalog tables against an independent
axiom oracle.

The oracle below re-evaluates the DG axioms directly from the raw
tables, sharing no code with the library validator; the harness then
requires: (a) no false positives on clean tables, (b) every perturbation
the oracle rejects is rejected by the validator, and (c) every reported
witness re-evaluates to a nonzero residual in the oracle.
"""

import contextlib
import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgreg import algebra, module
from dgreg.algebra import DGAlgebra, validate_algebra
from dgreg.catalog import document_text, exterior_algebra, polynomial_algebra, square_zero_algebra
from dgreg.fields import QQ, GF
from dgreg.homtensor import realize_ledger
from dgreg.lincomb import cadd, ceq, cclean, cneg, cscale
from dgreg.module import DGModule, canonical_k, free_module, suspend, to_opposite, validate_module
from dgreg.resolution import semifree_resolve
from dgreg.textformat import parse_document
from dgreg.windows import GradedWindow, Trust


# ---- independent oracle ------------------------------------------------------

def _mul(A, a, b):
    if A.degree_of(a) + A.degree_of(b) > A.window.hi:
        return None
    return A.mul.get((a, b), {})


def _mulc(A, combo, deg, b):
    if combo is None:
        return None
    F = A.field
    out = {}
    for lbl, c in combo.items():
        part = _mul(A, lbl, b)
        if part is None:
            return None
        out = cadd(F, out, cscale(F, c, part))
    return out


def _mulc_left(A, a, combo, deg):
    if combo is None:
        return None
    F = A.field
    out = {}
    for lbl, c in combo.items():
        part = _mul(A, a, lbl)
        if part is None:
            return None
        out = cadd(F, out, cscale(F, c, part))
    return out


def _d(A, a):
    if A.degree_of(a) + 1 > A.window.hi:
        return None
    return A.diff.get(a, {})


def _dc(A, combo, deg):
    if combo is None or deg + 1 > A.window.hi:
        return None
    F = A.field
    out = {}
    for lbl, c in combo.items():
        part = _d(A, lbl)
        if part is None:
            return None
        out = cadd(F, out, cscale(F, c, part))
    return out


def oracle_algebra_residual(A: DGAlgebra, axiom: str, witness: tuple):
    """Nonzero residual combination iff the axiom fails at the witness."""
    F = A.field
    if axiom == "unit":
        x, y = witness
        b = y if x == A.unit else x
        got = _mul(A, x, y)
        if got is None:
            return {}
        return cclean(F, cadd(F, got, cneg(F, {b: F.one()})))
    if axiom == "d-squared":
        (b,) = witness
        d1 = _d(A, b)
        d2 = _dc(A, d1, A.degree_of(b) + 1)
        return cclean(F, d2 or {})
    if axiom == "leibniz":
        x, y = witness
        dx, dy = A.degree_of(x), A.degree_of(y)
        if dx + dy + 1 > A.window.hi:
            return {}
        lhs = _dc(A, _mul(A, x, y), dx + dy)
        t1 = _mulc(A, _d(A, x), dx + 1, y)
        t2 = _mulc_left(A, x, _d(A, y), dy + 1)
        if lhs is None or t1 is None or t2 is None:
            return {}
        rhs = cadd(F, t1, cscale(F, F.sign(dx), t2))
        return cclean(F, cadd(F, lhs, cneg(F, rhs)))
    if axiom == "associativity":
        x, y, z = witness
        if A.degree_of(x) + A.degree_of(y) + A.degree_of(z) > A.window.hi:
            return {}
        lhs = _mulc(A, _mul(A, x, y), 0, z)
        rhs = _mulc_left(A, x, _mul(A, y, z), 0)
        if lhs is None or rhs is None:
            return {}
        return cclean(F, cadd(F, lhs, cneg(F, rhs)))
    if axiom == "connectedness":
        return {"*": F.one()} if (A.dim(0) != 1 or A.unit not in A.basis_at(0)) else {}
    raise AssertionError(f"unknown algebra axiom {axiom}")


def oracle_algebra_ok(A: DGAlgebra) -> bool:
    labels = [l for d in A.degrees() for l in A.basis_at(d)]
    if oracle_algebra_residual(A, "connectedness", ()):
        return False
    for b in labels:
        if oracle_algebra_residual(A, "unit", (A.unit, b)):
            return False
        if oracle_algebra_residual(A, "unit", (b, A.unit)):
            return False
        if oracle_algebra_residual(A, "d-squared", (b,)):
            return False
    for x in labels:
        for y in labels:
            if oracle_algebra_residual(A, "leibniz", (x, y)):
                return False
            for z in labels:
                if oracle_algebra_residual(A, "associativity", (x, y, z)):
                    return False
    return True


def _act(M, a, m, side):
    if M.algebra.degree_of(a) + M.degree_of(m) > M.window.hi:
        return None
    return (M.lact if side == "l" else M.ract).get((a, m) if side == "l" else (m, a), {})


def _actc(M, a, combo, side):
    if combo is None:
        return None
    F = M.field
    out = {}
    for lbl, c in combo.items():
        part = _act(M, a, lbl, side)
        if part is None:
            return None
        out = cadd(F, out, cscale(F, c, part))
    return out


def _dm(M, m):
    if M.degree_of(m) + 1 > M.window.hi:
        return None
    return M.diff.get(m, {})


def _dmc(M, combo, deg):
    if combo is None or deg + 1 > M.window.hi:
        return None
    F = M.field
    out = {}
    for lbl, c in combo.items():
        part = _dm(M, lbl)
        if part is None:
            return None
        out = cadd(F, out, cscale(F, c, part))
    return out


def oracle_module_residual(M: DGModule, axiom: str, witness: tuple):
    F = M.field
    A = M.algebra
    if axiom == "d-squared":
        (m,) = witness
        return cclean(F, _dmc(M, _dm(M, m), M.degree_of(m) + 1) or {})
    if axiom in ("unit-action-left", "unit-action-right"):
        x, y = witness
        side = "l" if axiom.endswith("left") else "r"
        m = y if side == "l" else x
        got = _act(M, A.unit, m, side)
        if got is None:
            return {}
        return cclean(F, cadd(F, got, cneg(F, {m: F.one()})))
    if axiom == "leibniz-left":
        a, m = witness
        da, dm_ = A.degree_of(a), M.degree_of(m)
        if da + dm_ + 1 > M.window.hi:
            return {}
        lhs = _dmc(M, _act(M, a, m, "l"), da + dm_)
        da_combo = A.diff.get(a, {}) if da + 1 <= A.window.hi else None
        t1 = {}
        if da_combo is None:
            return {}
        for lbl, c in da_combo.items():
            part = _act(M, lbl, m, "l")
            if part is None:
                return {}
            t1 = cadd(F, t1, cscale(F, c, part))
        t2 = _actc(M, a, _dm(M, m), "l")
        if lhs is None or t2 is None:
            return {}
        rhs = cadd(F, t1, cscale(F, F.sign(da), t2))
        return cclean(F, cadd(F, lhs, cneg(F, rhs)))
    if axiom == "leibniz-right":
        m, a = witness
        da, dm_ = A.degree_of(a), M.degree_of(m)
        if da + dm_ + 1 > M.window.hi:
            return {}
        lhs = _dmc(M, _act(M, a, m, "r"), da + dm_)
        dm_combo = _dm(M, m)
        t1 = None
        if dm_combo is not None:
            t1 = {}
            for lbl, c in dm_combo.items():
                part = _act(M, a, lbl, "r")
                if part is None:
                    t1 = None
                    break
                t1 = cadd(F, t1, cscale(F, c, part))
        da_combo = A.diff.get(a, {}) if da + 1 <= A.window.hi else None
        t2 = _actc(M, a, {m: F.one()}, "r") if da_combo is None else None
        if da_combo is not None:
            t2 = {}
            for lbl, c in da_combo.items():
                part = _act(M, lbl, m, "r")
                if part is None:
                    t2 = None
                    break
                t2 = cadd(F, t2, cscale(F, c, part))
        if lhs is None or t1 is None or t2 is None:
            return {}
        rhs = cadd(F, t1, cscale(F, F.sign(dm_), t2))
        return cclean(F, cadd(F, lhs, cneg(F, rhs)))
    if axiom in ("action-associativity-left", "action-associativity-right"):
        u, v, w = witness
        # (a, b, m) for the left action, (m, a, b) for the right one
        if axiom.endswith("left"):
            a, b, m = u, v, w
            if A.degree_of(a) + A.degree_of(b) + M.degree_of(m) > M.window.hi:
                return {}
            ab = _mul(A, a, b)
            lhs = None
            if ab is not None:
                lhs = {}
                for lbl, c in ab.items():
                    part = _act(M, lbl, m, "l")
                    if part is None:
                        lhs = None
                        break
                    lhs = cadd(F, lhs, cscale(F, c, part))
            rhs = _actc(M, a, _act(M, b, m, "l"), "l")
            if lhs is None or rhs is None:
                return {}
            return cclean(F, cadd(F, lhs, cneg(F, rhs)))
        m, a, b = u, v, w
        if A.degree_of(a) + A.degree_of(b) + M.degree_of(m) > M.window.hi:
            return {}
        ab = _mul(A, a, b)
        lhs = None
        if ab is not None:
            lhs = {}
            for lbl, c in ab.items():
                part = _act(M, lbl, m, "r")
                if part is None:
                    lhs = None
                    break
                lhs = cadd(F, lhs, cscale(F, c, part))
        rhs = _actc(M, b, _act(M, a, m, "r"), "r")
        if lhs is None or rhs is None:
            return {}
        return cclean(F, cadd(F, lhs, cneg(F, rhs)))
    if axiom == "bimodule-commutation":
        a, m, b = witness
        if A.degree_of(a) + A.degree_of(b) + M.degree_of(m) > M.window.hi:
            return {}
        lhs = _actc(M, b, _act(M, a, m, "l"), "r")
        rhs = _actc(M, a, _act(M, b, m, "r"), "l")
        if lhs is None or rhs is None:
            return {}
        return cclean(F, cadd(F, lhs, cneg(F, rhs)))
    raise AssertionError(f"unknown module axiom {axiom}")


def oracle_module_ok(M: DGModule) -> bool:
    A = M.algebra
    alg_labels = [l for d in A.degrees() for l in A.basis_at(d)]
    mod_labels = [l for d in M.degrees() for l in M.basis_at(d)]
    for m in mod_labels:
        if oracle_module_residual(M, "d-squared", (m,)):
            return False
        if M.has_left and oracle_module_residual(M, "unit-action-left", (A.unit, m)):
            return False
        if M.has_right and oracle_module_residual(M, "unit-action-right", (m, A.unit)):
            return False
    for a in alg_labels:
        for m in mod_labels:
            if M.has_left and oracle_module_residual(M, "leibniz-left", (a, m)):
                return False
            if M.has_right and oracle_module_residual(M, "leibniz-right", (m, a)):
                return False
            for b in alg_labels:
                if M.has_left and oracle_module_residual(M, "action-associativity-left", (a, b, m)):
                    return False
                if M.has_right and oracle_module_residual(M, "action-associativity-right", (m, a, b)):
                    return False
                if M.side == "bi" and oracle_module_residual(M, "bimodule-commutation", (a, m, b)):
                    return False
    return True


# ---- perturbation harness -----------------------------------------------------

SMALL_WINDOW = GradedWindow(0, 8)


def _algebra_pool(field):
    return [
        square_zero_algebra(field, SMALL_WINDOW),
        polynomial_algebra(2, field, SMALL_WINDOW),
        exterior_algebra(3, field, SMALL_WINDOW),
    ]


def _random_combo(rng, field, labels):
    out = {}
    for lbl in labels:
        c = rng.choice([-2, -1, 0, 0, 1, 1, 2])
        if c:
            out[lbl] = field.coerce(c)
    return out


def perturb_algebra(rng, A: DGAlgebra) -> DGAlgebra:
    F = A.field
    labels = [l for d in A.degrees() for l in A.basis_at(d)]
    mul = {k: dict(v) for k, v in A.mul.items()}
    diff = {k: dict(v) for k, v in A.diff.items()}
    for _attempt in range(20):
        mode = rng.choice(["mul", "diff"])
        if mode == "mul":
            a, b = rng.choice(labels), rng.choice(labels)
            target = A.degree_of(a) + A.degree_of(b)
            if target > A.window.hi:
                continue
            new = _random_combo(rng, F, A.basis_at(target))
            if cclean(F, new) == cclean(F, mul.get((a, b), {})):
                continue
            mul[(a, b)] = new
            break
        a = rng.choice(labels)
        target = A.degree_of(a) + 1
        if target > A.window.hi or not A.basis_at(target):
            continue
        new = _random_combo(rng, F, A.basis_at(target))
        if cclean(F, new) == cclean(F, diff.get(a, {})):
            continue
        diff[a] = new
        break
    return DGAlgebra(name=A.name + "_pert", field=F, window=A.window,
                     basis=dict(A.basis), unit=A.unit, mul=mul, diff=diff, trust=A.trust)


def perturb_module(rng, M: DGModule) -> DGModule:
    F = M.field
    A = M.algebra
    alg_labels = [l for d in A.degrees() for l in A.basis_at(d)]
    mod_labels = [l for d in M.degrees() for l in M.basis_at(d)]
    lact = {k: dict(v) for k, v in M.lact.items()}
    ract = {k: dict(v) for k, v in M.ract.items()}
    diff = {k: dict(v) for k, v in M.diff.items()}
    for _attempt in range(30):
        mode = rng.choice((["lact"] if M.has_left else []) + (["ract"] if M.has_right else []) + ["diff"])
        if mode in ("lact", "ract"):
            a, m = rng.choice(alg_labels), rng.choice(mod_labels)
            target = A.degree_of(a) + M.degree_of(m)
            if target > M.window.hi or not M.basis_at(target):
                continue
            new = _random_combo(rng, F, M.basis_at(target))
            table = lact if mode == "lact" else ract
            key = (a, m) if mode == "lact" else (m, a)
            if cclean(F, new) == cclean(F, table.get(key, {})):
                continue
            table[key] = new
            break
        m = rng.choice(mod_labels)
        target = M.degree_of(m) + 1
        if target > M.window.hi or not M.basis_at(target):
            continue
        new = _random_combo(rng, F, M.basis_at(target))
        if cclean(F, new) == cclean(F, diff.get(m, {})):
            continue
        diff[m] = new
        break
    return DGModule(name=M.name + "_pert", algebra=A, side=M.side, window=M.window,
                    basis=dict(M.basis), lact=lact, ract=ract, diff=diff, trust=M.trust)


def run_fuzz(iterations: int, seed: int = 20250810):
    """Returns (caught, benign, false_positives, witness_failures)."""
    rng = random.Random(seed)
    caught = benign = 0
    false_positives = []
    witness_failures = []
    fields = [QQ, GF(7), GF(2)]
    for i in range(iterations):
        field = rng.choice(fields)
        A = rng.choice(_algebra_pool(field))
        pick = rng.random()
        if pick < 0.5:
            P = perturb_algebra(rng, A)
            rep = validate_algebra(P)
            ok = oracle_algebra_ok(P)
            if ok and not rep.ok:
                false_positives.append(("algebra", i))
            elif not ok and rep.ok:
                witness_failures.append(("algebra-missed", i))
            elif not ok:
                caught += 1
                for v in rep.violations:
                    if v.axiom == "connectedness":
                        residual = oracle_algebra_residual(P, "connectedness", ())
                    else:
                        residual = oracle_algebra_residual(P, v.axiom, v.witness)
                    if not residual:
                        witness_failures.append(("algebra-witness", i, v.axiom, v.witness))
            else:
                benign += 1
        else:
            which = rng.choice(["k", "free"])
            M = canonical_k(A, side="bi") if which == "k" else free_module(A, side="bi")
            P = perturb_module(rng, M)
            rep = validate_module(P)
            ok = oracle_module_ok(P)
            if ok and not rep.ok:
                false_positives.append(("module", i))
            elif not ok and rep.ok:
                witness_failures.append(("module-missed", i))
            elif not ok:
                caught += 1
                for v in rep.violations:
                    if not oracle_module_residual(P, v.axiom, v.witness):
                        witness_failures.append(("module-witness", i, v.axiom, v.witness))
            else:
                benign += 1
    return caught, benign, false_positives, witness_failures


def test_clean_tables_have_no_false_positives():
    for field in (QQ, GF(7), GF(2)):
        for A in _algebra_pool(field):
            assert validate_algebra(A).ok
            assert oracle_algebra_ok(A)
            for which in ("k", "free"):
                M = canonical_k(A, side="bi") if which == "k" else free_module(A, side="bi")
                assert validate_module(M).ok
                assert oracle_module_ok(M)


def test_fuzz_small():
    caught, benign, false_pos, witness_fail = run_fuzz(120)
    assert not false_pos, false_pos
    assert not witness_fail, witness_fail
    assert caught >= 60  # most random table edits break an axiom


# Sha256 over ``json.dumps(report.to_json())`` of every report in the
# sequence below, recorded before validate_algebra and validate_module
# were rewritten on shared axiom checks: the full violation lists, their
# order and their detail text must not change.
PINNED_REPORTS_SHA256 = "f9bba9cf741f657c857d6b8881d702927bebe31c939070de92ad0aa9540cb1da"


def test_validation_reports_are_pinned():
    rng = random.Random(7)
    digest = hashlib.sha256()
    count = 0
    for _ in range(300):
        field = rng.choice([QQ, GF(7), GF(2)])
        A = rng.choice(_algebra_pool(field))
        if rng.random() < 0.5:
            rep = validate_algebra(perturb_algebra(rng, A))
        else:
            M = rng.choice([canonical_k(A, side="bi"), free_module(A, side="bi"), free_module(A, side="left")])
            rep = validate_module(perturb_module(rng, M))
        count += len(rep.violations)
        digest.update(json.dumps(rep.to_json()).encode())
    assert count == 757
    assert digest.hexdigest() == PINNED_REPORTS_SHA256


# ---- associativity over generators ---------------------------------------------


def _random_gl(rng, F, n):
    """A random invertible n x n matrix over F and its inverse, as one
    product of elementary matrices kept on both sides."""
    P = [[F.coerce(int(i == j)) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]
    for _ in range(2 * n * n):
        i, j = rng.randrange(n), rng.randrange(n)
        c = F.coerce(rng.choice([1, 2, 3, -1, -2]))
        if F.is_zero(c):
            continue
        if i == j:
            P[i] = [F.mul(c, x) for x in P[i]]
            for row in Q:
                row[i] = F.mul(row[i], F.inv(c))
        else:
            P[i] = [F.add(x, F.mul(c, y)) for x, y in zip(P[i], P[j])]
            for row in Q:
                row[j] = F.sub(row[j], F.mul(c, row[i]))
    return P, Q


def _transport(rng, A):
    """A in a new basis: the labels of each positive degree become the
    rows of a random invertible matrix, so the generators of A are no
    longer monomial labels."""
    F = A.field
    rows, inverse, names = {}, {}, {}
    for d in A.degrees():
        lbls = A.basis_at(d)
        P, Q = _random_gl(rng, F, len(lbls)) if d else ([[F.one()]], [[F.one()]])
        rows[d] = [{lbls[j]: x for j, x in enumerate(row) if not F.is_zero(x)} for row in P]
        inverse[d] = Q
        names[d] = (A.unit,) if d == 0 else tuple(f"u{d}_{i}" for i in range(len(lbls)))

    def in_new_basis(c, d):
        out = {}
        for j, cj in A.coords(c, d).items():
            for r, x in enumerate(inverse[d][j]):
                out[names[d][r]] = F.add(out.get(names[d][r], F.zero()), F.mul(cj, x))
        return cclean(F, out)

    mul, diff = {}, {}
    for dx in rows:
        for x, xname in zip(rows[dx], names[dx]):
            for dy in rows:
                if dx + dy > A.window.hi:
                    continue
                for y, yname in zip(rows[dy], names[dy]):
                    xy = A.mul_combo(x, dx, y, dy)
                    if xy:
                        mul[(xname, yname)] = in_new_basis(xy, dx + dy)
            dx_ = A.diff_combo(x, dx)
            if dx_:
                diff[xname] = in_new_basis(dx_, dx + 1)
    return DGAlgebra(name=A.name + "'", field=F, window=A.window, basis=names,
                     unit=A.unit, mul=mul, diff=diff, trust=A.trust)


def _tensor(A, B):
    """The graded tensor product of two algebras with zero differential on
    one window: (a.b)(a'.b') = (-1)^{|b||a'|} aa'.bb'."""
    F, hi = A.field, A.window.hi
    cells = [(a, b) for a in A._deg for b in B._deg if A._deg[a] + B._deg[b] <= hi]
    deg = {(a, b): A._deg[a] + B._deg[b] for a, b in cells}
    basis = {}
    for ab in cells:
        basis.setdefault(deg[ab], []).append(f"{ab[0]}.{ab[1]}")
    mul = {}
    for a, b in cells:
        for a2, b2 in cells:
            if deg[(a, b)] + deg[(a2, b2)] <= hi:
                sign = F.sign(B._deg[b] * A._deg[a2])
                mul[(f"{a}.{b}", f"{a2}.{b2}")] = {
                    f"{x}.{y}": F.mul(sign, F.mul(cx, cy))
                    for x, cx in A.product(a, a2).items() for y, cy in B.product(b, b2).items()
                }
    complete = A.complete and B.complete and max(A.degrees()) + max(B.degrees()) <= hi
    return DGAlgebra(name=f"{A.name}.{B.name}", field=F, window=A.window, basis=basis,
                     unit=f"{A.unit}.{B.unit}", mul=mul, diff={},
                     trust=Trust.everywhere() if complete else Trust(None, hi))


def _generator_pool(field, hi):
    W = GradedWindow(0, hi)
    sq, e3 = square_zero_algebra(field, W), exterior_algebra(3, field, W)
    p1, p2 = polynomial_algebra(1, field, W), polynomial_algebra(2, field, W)
    return [sq, e3, p1, p2, _tensor(sq, sq), _tensor(p1, p2), _tensor(e3, p1)]


def _full_enumeration(validate, X):
    """The report of ``validate`` with no generator set, so that every
    associativity and Leibniz loop runs over every label.  It validates
    fresh copies of X and its algebra, so no verdict kept on the algebra
    by an earlier validation is read."""
    X = replace(X, algebra=replace(X.algebra)) if isinstance(X, DGModule) else replace(X)
    with mock.patch.object(algebra, "_generators", lambda A: None):
        return validate(X)


def _changed(rng, F, table, key, labels):
    """A copy of ``table`` whose entry at ``key`` is a new combination of
    ``labels``."""
    old = new = cclean(F, table.get(key, {}))
    while new == old:
        new = cclean(F, _random_combo(rng, F, labels))
    return {**table, key: new}


PERTURBATIONS = ["none", "unit", "unit-action", "decomposable", "algebra-under-module",
                 "d-unit", "d-decomposable", "module-diff", "action"]


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from([QQ, GF(2), GF(7)]),
    hi=st.integers(3, 6),
    pick=st.integers(0, 6),
    kind=st.sampled_from(["algebra", "k", "free", "ledger"]),
    side=st.sampled_from(["left", "right", "bi"]),
    perturbation=st.sampled_from(PERTURBATIONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_generator_rule_reports_equal_full_enumeration(field, hi, pick, kind, side, perturbation, seed):
    rng = random.Random(seed)
    A = _transport(rng, _generator_pool(field, hi)[pick])
    gens = algebra._generators(A)
    assert gens is not None and validate_algebra(A).ok
    F = field
    positive = [l for d in A.degrees() if d >= 1 for l in A.basis_at(d)]
    # an entry x*y or dx with x outside the generators, which the reduced
    # checks see only through products of generators
    x = rng.choice([l for l in positive if l not in gens] or positive)
    base = A
    if perturbation == "unit":
        b = rng.choice(positive)
        key = rng.choice([(A.unit, b), (b, A.unit)])
        A = DGAlgebra(name=A.name, field=F, window=A.window, basis=A.basis, unit=A.unit,
                      mul=_changed(rng, F, A.mul, key, A.basis_at(A.degree_of(b))),
                      diff=A.diff, trust=A.trust)
    elif perturbation in ("decomposable", "algebra-under-module"):
        y = rng.choice([l for l in positive if A.degree_of(x) + A.degree_of(l) in A.basis] or [A.unit])
        target = A.basis_at(A.degree_of(x) + A.degree_of(y))
        A = DGAlgebra(name=A.name, field=F, window=A.window, basis=A.basis, unit=A.unit,
                      mul=_changed(rng, F, A.mul, (x, y), target), diff=A.diff, trust=A.trust)
    elif perturbation in ("d-unit", "d-decomposable"):
        lbl = A.unit if perturbation == "d-unit" else x
        target = A.basis_at(A.degree_of(lbl) + 1)
        if target:
            A = DGAlgebra(name=A.name, field=F, window=A.window, basis=A.basis, unit=A.unit,
                          mul=A.mul, diff=_changed(rng, F, A.diff, lbl, target), trust=A.trust)

    if kind == "algebra":
        X, validate = A, validate_algebra
    else:
        # a module of the unperturbed tables over a perturbed algebra
        # looks valid to every check that reads only its own tables
        source = base if perturbation == "algebra-under-module" else A
        if kind == "ledger":
            k = canonical_k(base, side="left")
            M = realize_ledger(semifree_resolve(k, 2), k.window)
        elif kind == "k":
            M = canonical_k(source, side=side)
        else:
            M = free_module(source, side=side)
        lact, ract, diff = M.lact, M.ract, M.diff
        m = rng.choice(list(M._deg))
        on_left = M.has_left and (not M.has_right or rng.random() < 0.5)
        if perturbation in ("unit-action", "action"):
            a = base.unit if perturbation == "unit-action" else rng.choice(list(base._deg))
            labels = M.basis_at(base.degree_of(a) + M.degree_of(m))
            if labels and on_left:
                lact = _changed(rng, F, lact, (a, m), labels)
            elif labels:
                ract = _changed(rng, F, ract, (m, a), labels)
        elif perturbation == "module-diff" and M.basis_at(M.degree_of(m) + 1):
            diff = _changed(rng, F, diff, m, M.basis_at(M.degree_of(m) + 1))
        X = DGModule(name=M.name, algebra=A, side=M.side, window=M.window, basis=M.basis,
                     lact=lact, ract=ract, diff=diff, trust=M.trust)
        validate = validate_module

    got = validate(X).to_json()
    assert got == _full_enumeration(validate, X).to_json()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_leibniz_generator_set_holds_the_unit(field):
    """Over Lambda with d(one) = t, Leibniz fails only at (one, one): every
    pair (t, y) satisfies it, so a check over the generators alone would
    certify the algebra."""
    L = square_zero_algebra(field, SMALL_WINDOW)
    P = replace(L, diff={L.unit: {"t": field.one()}})
    assert algebra._generators(P) == {"t"}
    assert not algebra._algebra_leibniz(P, {"t"})
    rep = validate_algebra(P)
    assert [(v.axiom, v.witness) for v in rep.violations] == [("leibniz", ("one", "one"))]
    assert rep.to_json() == _full_enumeration(validate_algebra, P).to_json()
    for M in (canonical_k(P, side="bi"), free_module(P, side="bi")):
        assert validate_module(M).to_json() == _full_enumeration(validate_module, M).to_json()


# ---- per-triple reference -----------------------------------------------------

def _reference_leibniz(X, entry, U, u, V, v):
    """The Leibniz rule on one pair: d(uv), d(u)v and u d(v) each built by
    ``_bilinear`` or ``diff_combo``, then compared with ``ceq``."""
    du, dv = U.degree_of(u), V.degree_of(v)
    if du + dv + 1 > X.window.hi:
        return False
    F = X.field
    lhs = X.diff_combo(entry(u, v), du + dv)
    t1 = X._bilinear(U.diff_of(u), du + 1, {v: F.one()}, dv, entry)
    t2 = X._bilinear({u: F.one()}, du, V.diff_of(v), dv + 1, entry)
    if lhs is None or t1 is None or t2 is None:
        return False
    return not ceq(F, lhs, cadd(F, t1, cscale(F, F.sign(du), t2)))


def _reference_associative(X, x, dx, y, dy, z, dz, xy_of, yz_of, xy_z, x_yz):
    """The associativity rule on one triple: (xy)z and x(yz) each built by
    ``_bilinear`` from the single-label lookups, then compared with
    ``ceq``; a triple above the window is no violation."""
    if dx + dy + dz > X.window.hi:
        return False
    xy, yz = xy_of(x, y), yz_of(y, z)
    if xy is None or yz is None:
        return False
    one = X.field.one()
    lhs = X._bilinear(xy, dx + dy, {z: one}, dz, xy_z)
    rhs = X._bilinear({x: one}, dx, yz, dy + dz, x_yz)
    return lhs is not None and rhs is not None and not ceq(X.field, lhs, rhs)


def _reference_report(X):
    """The Leibniz, associativity and commutation violations of X as
    ``(axiom, witness)`` pairs, in the validators' order, from the rules
    above run on every pair and every triple of labels."""
    def labels(P):
        return [(lbl, d) for d in P.degrees() for lbl in P.basis_at(d)]

    if isinstance(X, DGAlgebra):
        mul, L = X.product, labels(X)
        out = [("leibniz", (x, y)) for x, _ in L for y, _ in L
               if _reference_leibniz(X, mul, X, x, X, y)]
        return out + [("associativity", (x, y, z)) for x, dx in L for y, dy in L for z, dz in L
                      if _reference_associative(X, x, dx, y, dy, z, dz, mul, mul, mul, mul)]
    M, A = X, X.algebra
    left, right, mul, LA, LM = M.act_left, M.act_right, A.product, labels(A), labels(M)
    out = []
    for a, _ in LA:
        for m, _ in LM:
            if M.has_left and _reference_leibniz(M, left, A, a, M, m):
                out.append(("leibniz-left", (a, m)))
            if M.has_right and _reference_leibniz(M, right, M, m, A, a):
                out.append(("leibniz-right", (m, a)))
    for a, da in LA:
        for b, db in LA:
            for m, dm in LM:
                if M.has_left and _reference_associative(M, a, da, b, db, m, dm, mul, left, left, left):
                    out.append(("action-associativity-left", (a, b, m)))
                if M.has_right and _reference_associative(M, m, dm, a, da, b, db, right, mul, right, right):
                    out.append(("action-associativity-right", (m, a, b)))
    if M.side == "bi":
        out += [("bimodule-commutation", (a, m, b)) for a, da in LA for m, dm in LM for b, db in LA
                if _reference_associative(M, a, da, m, dm, b, db, left, right, right, left)]
    return out


_REFERENCE_AXIOMS = {"leibniz", "associativity", "leibniz-left", "leibniz-right",
                     "action-associativity-left", "action-associativity-right", "bimodule-commutation"}


def _edited(rng, X):
    """X with one entry of a table, its own or its algebra's, replaced by a
    random combination of the labels of a random degree, which need not be
    the degree the entry belongs in."""
    A = X.algebra if isinstance(X, DGModule) else X
    P = X if rng.random() < 0.7 else A
    a, b, p = rng.choice(list(A._deg)), rng.choice(list(A._deg)), rng.choice(list(P._deg))
    key = {"mul": (a, b), "diff": p, "lact": (a, p), "ract": (p, a)}
    name = rng.choice(P._tables)
    combo = _random_combo(rng, P.field, P.basis_at(rng.choice(P.degrees())))
    edited = replace(P, **{name: {**getattr(P, name), key[name]: combo}})
    return edited if P is X else replace(X, algebra=edited)


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from([QQ, GF(2), GF(7)]),
    hi=st.integers(3, 4),
    pick=st.integers(0, 6),
    truncated=st.booleans(),
    kind=st.sampled_from(["algebra", "k", "free"]),
    side=st.sampled_from(["left", "right", "bi"]),
    shift=st.sampled_from([0, 1, -1, 2, -2]),
    edits=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_full_enumeration_equals_the_per_triple_reference(field, hi, pick, truncated, kind, side, shift,
                                                          edits, seed):
    """The full-enumeration reports list exactly the violations the
    per-triple reference finds on every pair and triple, in order: on
    perturbed tables, whose new entries may lie in any degree, over
    truncated windows, where entries above the top are unrecorded, and on
    suspensions, whose degrees go negative and whose right action is
    signed."""
    rng = random.Random(seed)
    A = _generator_pool(field, hi)[pick]
    if truncated:
        A = replace(A, trust=Trust(None, A.window.hi))
    X = A if kind == "algebra" else suspend((canonical_k if kind == "k" else free_module)(A, side=side), shift)
    for _ in range(edits):
        X = _edited(rng, X)
    validate = validate_algebra if isinstance(X, DGAlgebra) else validate_module
    got = [(v.axiom, tuple(v.witness)) for v in _full_enumeration(validate, X).violations
           if v.axiom in _REFERENCE_AXIOMS]
    assert got == _reference_report(X)


class _Counted:
    """A stand-in for a function of ``dgreg.algebra`` that counts its
    calls, installed in every validation namespace that holds the name."""

    def __init__(self, name):
        self.name, self.fn, self.calls = name, getattr(algebra, name), 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for mod in (algebra, module):
                if hasattr(mod, self.name):
                    stack.enter_context(mock.patch.object(mod, self.name, self))
            yield self


def test_generator_rule_bounds_associativity_work():
    M = free_module(polynomial_algebra(1, QQ, GradedWindow(0, 48)), side="bi")
    with _Counted("_associative").installed() as associative:
        assert validate_module(M).ok
    # A's associativity and left and right action associativity each
    # visit the triples with one factor t1 and total degree <= 48,
    # sum_{j=0}^{47} (48 - j) = 1176 of them; commutation visits those with
    # both algebra factors t1, one per module label of degree <= 46, so 47;
    # the full enumeration would visit 49^3 per check
    assert associative.calls == 3 * 1176 + 47


def _twisted_bimodule(F, d, hi, units):
    """The bimodule over k[T]_d on 0..hi with basis m_i in degree i*d,
    left action T^j m_i = m_{i+j} and right action
    m_i T^j = (c_i ... c_{i+j-1}) m_{i+j}, for the units c_i of ``units``.
    Both actions are associative, and T^j m_i T^k is
    (c_{i+j} ... c_{i+j+k-1}) m_{i+j+k} one way and
    (c_i ... c_{i+k-1}) m_{i+j+k} the other."""
    A = polynomial_algebra(d, F, GradedWindow(0, hi))
    top = hi // d
    lact, ract = {}, {}
    for i in range(top + 1):
        for j in range(top + 1 - i):
            c = F.one()
            for u in units[i:i + j]:
                c = F.mul(c, u)
            lact[(f"t{j}", f"m{i}")] = {f"m{i + j}": F.one()}
            ract[(f"m{i}", f"t{j}")] = {f"m{i + j}": c}
    return DGModule(name="M", algebra=A, side="bi", window=GradedWindow(0, hi),
                    basis={i * d: (f"m{i}",) for i in range(top + 1)},
                    lact=lact, ract=ract, diff={}, trust=Trust(None, hi))


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from([QQ, GF(2), GF(7)]),
    d=st.integers(1, 2),
    hi=st.integers(2, 8),
    picks=st.lists(st.integers(0, 3), min_size=9, max_size=9),
)
def test_generator_rule_decides_commutation(field, d, hi, picks):
    """Commutation over the generator pairs decides the bimodule axiom:
    the reduced report equals the full enumeration, which lists exactly
    the triples whose two products differ, and it lists a commutation
    violation exactly when two neighbouring units in the window differ.
    F_2 has one unit, so there every such bimodule commutes."""
    units = {QQ: [1, -1, 2, Fraction(1, 2)], GF(7): [1, 6, 2, 3], GF(2): [1, 1, 1, 1]}[field]
    c = [units[i] for i in picks]
    M = _twisted_bimodule(field, d, hi, c)

    def span(lo, hi_):
        out = field.one()
        for u in c[lo:hi_]:
            out = field.mul(out, u)
        return out

    top = hi // d
    expected = [(f"t{j}", f"m{i}", f"t{k}") for j in range(top + 1) for i in range(top + 1)
                for k in range(top + 1) if i + j + k <= top and span(i + j, i + j + k) != span(i, i + k)]
    report = validate_module(M)
    full = _full_enumeration(validate_module, M)
    assert report.to_json() == full.to_json()
    assert all(v.axiom == "bimodule-commutation" for v in full.violations)
    assert [v.witness for v in full.violations] == expected
    assert bool(expected) == any(c[i] != c[i + 1] for i in range(top - 1))
    if field == GF(2):
        assert report.ok


def test_parsed_tables_are_not_graded_again():
    """Validation reads the degree report the parser kept on each object,
    so validating a parsed document runs no degree pass; a copy made by
    ``replace`` keeps nothing, so it runs one per table, once."""
    doc = parse_document(document_text("polynomial", window=GradedWindow(0, 16)))
    A, modules = doc.algebra(), list(doc.modules.values())
    with _Counted("_degree_violations").installed() as degree:
        assert validate_algebra(A).ok and all(validate_module(M).ok for M in modules)
        assert degree.calls == 0
        B = replace(A)
        copies = [replace(M, algebra=B) for M in modules]
        for _ in range(2):
            assert validate_algebra(B).ok and all(validate_module(M).ok for M in copies)
        assert degree.calls == 2 + 3 * len(copies)


def test_generators_form_one_product_per_degree():
    """Over k[T]_1 on 0..48 the first product t1 * t_{n-1} spans degree
    n, so the generator search forms no other; without the stop it
    forms sum_{n=1}^{48} (n - 1) = 1128."""
    A = polynomial_algebra(1, QQ, GradedWindow(0, 48))
    product, formed = DGAlgebra.product, []

    def counted(self, a, b):
        if self.unit not in (a, b):  # the unit law's lookups are not products S is computed from
            formed.append((a, b))
        return product(self, a, b)

    with mock.patch.object(DGAlgebra, "product", counted):
        assert algebra._generators(A) == {"t1"}
    assert len(formed) <= 49


def test_generator_rule_bounds_leibniz_work():
    A = polynomial_algebra(1, QQ, GradedWindow(0, 48))
    with _Counted("_leibniz").installed() as leibniz:
        assert validate_algebra(A).ok
        # the full enumeration makes 49^2 calls; S u {1} = {t0, t1} makes 2 * 49
        assert leibniz.calls <= 3 * 49
        leibniz.calls = 0
        assert validate_module(free_module(A, side="bi")).ok
        assert validate_module(canonical_k(A, side="bi")).ok
    # the full enumeration makes 2 * 49 * (49 + 1) calls; S u {1} makes 2 * 2 * 50
    assert leibniz.calls <= 5 * 49


def test_algebra_verdict_is_decided_once_per_algebra():
    A = polynomial_algebra(1, QQ, GradedWindow(0, 48))
    with _Counted("_generators").installed() as generators:
        assert validate_algebra(A).ok
        assert validate_module(free_module(A, side="bi")).ok
        assert validate_module(canonical_k(A, side="bi")).ok
        assert generators.calls == 1
        # the opposite is another algebra and decides its own verdict; it
        # is kept on A, so every transport sits over the same one
        N = to_opposite(free_module(A, side="right"))
        N2 = to_opposite(canonical_k(A, side="right"))
        op = N.algebra
        assert N2.algebra is op and A.opposite() is op
        assert validate_module(N).ok and validate_module(N2).ok
        assert generators.calls == 2
        assert algebra._checked(op) == ({"t1"}, ())
        assert op._kept["checks"] is not A._kept["checks"]
        assert op.opposite() is A and validate_algebra(A).ok
        assert generators.calls == 2
