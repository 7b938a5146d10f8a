"""Workloads of the dgreg benchmark: seeded inputs, jobs and their checks.

A workload is a list of *slots*.  Each slot names a job family and the
finite menu of parameter choices the seed may draw from; every choice in
a menu costs the same work (the generator names of a table, a suspension
degree, a truncation level), so job count and work size do not depend on
the seed.  Every slot is instantiated once over Q and once over F_7.

Because the menus are finite, every job the benchmark can ever run has a
key, and ``golden.json`` holds the digest of its output recorded at the
commit that introduced the benchmark (see ``golden.py``).  A job passes
when its digest matches and its theorem-level oracles hold.

Jobs reach dgreg only through attribute lookups on the ``dgreg`` package
and ``dgreg.cli`` made at call time, so the traced run's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from math import comb

import dgreg as dg
import dgreg.cli as dgcli
from dgreg.catalog import (
    build_module,
    catalog_pairs,
    document_text,
    exterior_algebra,
    finite_table_algebra,
    polynomial_algebra,
    square_zero_algebra,
)
from dgreg.fields import GF, QQ
from dgreg.module import canonical_k, suspend
from dgreg.textformat import Document, emit_document
from dgreg.windows import GradedWindow

WORKLOADS = ("resolve-deep", "validate-wide", "duality-sweep")
FIELDS = (("Q", QQ), ("Fp", GF(7)))


@dataclass(frozen=True)
class Spec:
    """One job as drawn from a slot: its family, parameters and field."""

    kind: str
    params: tuple
    field: str

    @property
    def key(self) -> str:
        return f"{self.kind}{list(self.params)}/{self.field}"

    @property
    def pair(self) -> str:
        """The key without the field: the Q and F_7 twins share it."""
        return f"{self.kind}{list(self.params)}"


@dataclass
class Job:
    spec: Spec
    run: object        # () -> raw result; the only part that is timed
    check: object      # raw result -> (payload for the golden digest, oracle failures)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


# -- slots -------------------------------------------------------------------


# Generator names the seed draws from.  Each pool sorts in generator order
# and after the unit "one", so every ordering dgreg derives from labels is
# the same for every pool: a drawn name changes the ledger's labels, not
# the work.  (Drawing signs of the monomial basis instead changes how
# large the fractions in the elimination grow, and with it the work.)
NAME_POOLS = (
    ("p", "q", "r"), ("s", "t", "u"), ("u", "v", "w"), ("x", "y", "z"),
    ("p0", "p1", "p2"), ("x0", "x1", "x2"), ("xa", "xb", "xc"), ("z0", "z1", "z2"),
)


def slots(workload: str) -> list:
    """(kind, menu of parameter tuples) per slot, in a fixed order."""
    if workload == "resolve-deep":
        return [
            ("ext-table", [(2, 6, names[:2]) for names in NAME_POOLS]),
            ("ext-table", [(3, 5, names) for names in NAME_POOLS]),
            ("lambda", [(16, n) for n in range(6)]),
            ("lambda", [(20, n) for n in range(6)]),
            ("lambda", [(24, n) for n in range(6)]),
            ("exterior-k", [(3, 8)]),
            ("poly-k", [(1, 8)]),
            ("poly-k", [(2, 8)]),
            ("poly-k", [(3, 8)]),
        ]
    if workload == "validate-wide":
        return (
            [("catalog-doc", [("polynomial", d, w)]) for d in (1, 2) for w in (16, 24, 32, 48)]
            + [
                ("catalog-doc", [("square-zero", 1, 16)]),
                ("catalog-doc", [("exterior", 3, 16)]),
                ("ext-table-doc", [(2, names[:2]) for names in NAME_POOLS]),
                ("ext-table-doc", [(3, names) for names in NAME_POOLS]),
            ]
        )
    if workload == "duality-sweep":
        pairs = [("catalog-pair", [(i,)]) for i in range(len(catalog_pairs(QQ)))]
        return pairs + [
            ("lambda-suspended", [(n,) for n in range(1, 6)]),
            ("poly1-truncated", [(lev,) for lev in range(1, 5)]),
            ("poly2-suspended", [(n,) for n in range(1, 4)]),
            ("cli", [("check-regularity", "", "")]),
            ("cli", [("local-duality", "polynomial", "k")]),
            ("cli", [("local-duality", "polynomial", "free")]),
            ("cli", [("local-duality", "square-zero", "k")]),
            ("cli", [("local-duality", "square-zero", "free")]),
            ("cli", [("duality-check", "polynomial", "k")]),
            ("cli", [("duality-check", "polynomial", "free")]),
            ("cli", [("duality-check", "square-zero", "k")]),
            ("cli", [("duality-check", "square-zero", "free")]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def draw(workload: str, seed: int) -> list:
    """The seed's job list: one choice per slot and field, in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    specs = [
        Spec(kind, rng.choice(menu), fname)
        for kind, menu in slots(workload)
        for fname, _ in FIELDS
    ]
    rng.shuffle(specs)
    return specs


def every_spec(workload: str) -> list:
    return [
        Spec(kind, params, fname)
        for kind, menu in slots(workload)
        for params in menu
        for fname, _ in FIELDS
    ]


# -- generated inputs ----------------------------------------------------------


def _field(name):
    return dict(FIELDS)[name]


def exterior_table(names: tuple, field):
    """Exterior algebra on degree-1 generators with the given names,
    presented on the monomial basis via finite_table_algebra."""
    n = len(names)
    subsets = [S for r in range(n + 1) for S in itertools.combinations(range(n), r)]
    label = {S: ("one" if not S else "".join(names[i] for i in S)) for S in subsets}
    mul = {}
    for S in subsets:
        for T in subsets:
            if set(S) & set(T):
                mul[(label[S], label[T])] = {}
                continue
            seq = S + T
            inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
            U = tuple(sorted(seq))
            mul[(label[S], label[T])] = {label[U]: field.coerce((-1) ** inversions)}
    basis = {}
    for S in subsets:
        basis.setdefault(len(S), []).append(label[S])
    return finite_table_algebra(
        f"E{n}", field, {d: tuple(v) for d, v in basis.items()}, "one", mul, {},
    )


def _validated(A):
    rep = dg.validate_algebra(A)
    if not rep.ok:
        raise ValueError(f"generated algebra {A.name} is invalid: {rep.to_json()}")
    return A


# -- job families ----------------------------------------------------------------


def _resolve_job(spec, A, M, stages, oracle):
    def run():
        res = dg.semifree_resolve(M, stages)
        return res, dg.ext_reg(M, stages, resolution=res), dg.koszul_test(A, stages)

    def check(out):
        res, reg, kos = out
        payload = {"ledger": res.to_json(), "extreg": reg.to_json(), "koszul": kos.to_json()}
        return payload, oracle(res, reg, kos)

    return Job(spec, run, check)


def _stage_counts(res, stages):
    """Generators added at each stage 0..stages (the last adds none)."""
    return [sum(1 for g in res.gens if g.stage == s) for s in range(stages + 1)]


def _build_resolve(spec):
    F = _field(spec.field)
    kind, p = spec.kind, spec.params
    if kind == "ext-table":
        n, stages, names = p
        A = _validated(exterior_table(names, F))
        M = canonical_k(A, side="left")

        def oracle(res, reg, kos):
            fails = []
            want = [comb(s + n - 1, n - 1) for s in range(stages)] + [0]
            if _stage_counts(res, stages) != want:
                fails.append(f"stage counts {_stage_counts(res, stages)} != {want}")
            if any(g.degree != 0 for g in res.gens):
                fails.append("generator outside degree 0")
            if kos.value is False:
                fails.append("exterior algebra reported not Koszul")
            return fails

        return _resolve_job(spec, A, M, stages, oracle)
    if kind == "lambda":
        stages, n = p
        A = _validated(square_zero_algebra(F))
        M = suspend(canonical_k(A, side="left"), n)

        def oracle(res, reg, kos):
            fails = []
            if _stage_counts(res, stages) != [1] * stages + [0]:
                fails.append(f"stage counts {_stage_counts(res, stages)} != one per stage")
            if any(g.degree != -n for g in res.gens):
                fails.append(f"generator outside degree {-n}")
            if (reg.kind, reg.n) != ("exact", -n):
                fails.append(f"Extreg S^{n}k = {reg} != {-n}")
            if kos.value is not True:
                fails.append("Lambda reported not Koszul")
            return fails

        return _resolve_job(spec, A, M, stages, oracle)
    if kind == "exterior-k":
        d, stages = p
        A = _validated(exterior_algebra(d, F))
        return _resolve_job(spec, A, canonical_k(A, side="left"), stages, lambda *_: [])
    if kind == "poly-k":
        d, stages = p
        A = _validated(polynomial_algebra(d, F))

        def oracle(res, reg, kos):
            if (reg.kind, reg.n) != ("exact", d - 1):
                return [f"Extreg k over k[T]_{d} = {reg} != {d - 1}"]
            return []

        return _resolve_job(spec, A, canonical_k(A, side="left"), stages, oracle)
    raise ValueError(kind)


def _document_job(spec, text):
    def run():
        doc = dg.parse_document(text)
        reports = [dg.validate_algebra(A) for _, A in sorted(doc.algebras.items())]
        mods = sorted(doc.modules.items())
        reports += [dg.validate_module(M) for _, M in mods]
        h = [dg.cohomology(M) for _, M in mods]
        return reports, h, dg.emit_document(doc)

    def check(out):
        reports, h, emitted = out
        fails = [f"{r.subject} has {len(r.violations)} violation(s)" for r in reports if not r.ok]
        if emitted != text:
            fails.append("emit_document(parse_document(text)) is not byte-identical")
        payload = {
            "reports": [r.to_json() for r in reports],
            "cohomology": [x.to_json() for x in h],
            "text": hashlib.sha256(emitted.encode()).hexdigest(),
        }
        return payload, fails

    return Job(spec, run, check)


def _build_document(spec):
    F = _field(spec.field)
    if spec.kind == "catalog-doc":
        family, d, w = spec.params
        return _document_job(spec, document_text(family, field=F, d=d, window=GradedWindow(0, w)))
    A = _validated(exterior_table(spec.params[1], F))
    doc = Document(
        algebras={A.name: A},
        modules={"k": canonical_k(A, side="bi", name="k"),
                 "free": dg.free_module(A, name="free", side="bi")},
    )
    return _document_job(spec, emit_document(doc))


def _pair_job(spec, A, M):
    # the E2 page is computed on the k[T]_2 fixtures, as in the acceptance suite
    e2 = A.name == "Poly2" and M.has_left

    def run():
        regime = dg.detect_regime(A)
        out = {
            "cmreg": dg.cm_reg(M, regime),
            "local": dg.local_duality_check(M, regime),
            "double": dg.double_duality_check(M, regime),
            "inequalities": dg.regularity_inequalities(A, M, regime),
        }
        if e2:
            out["e2"] = dg.cech_e2(A, M, [{"t1": A.field.one()}])
        return out

    def check(out):
        ineq = out["inequalities"]
        payload = {
            "cmreg": out["cmreg"].to_json(),
            "local": out["local"].to_json(),
            "double": out["double"].to_json(),
            "inequalities": {
                "checks": ineq.get("checks"),
                "values": {k: v.to_json() for k, v in ineq.get("values", {}).items()},
                "finiteness": ineq.get("extreg_finite_when_extregk_finite"),
            },
        }
        if e2:
            payload["e2"] = out["e2"].to_json()
            payload["e2_bound"] = dg.cmreg_bound_from_e2(out["e2"]).to_json()
        fails = [f"{name} violated" for name, v in (ineq.get("checks") or {}).items() if v == "violated"]
        for name in ("local", "double"):
            if out[name].verdict == "violated":
                fails.append(f"{name} duality violated")
        cm = out["cmreg"]
        if A.name.startswith("Poly"):
            d = int(A.name[4:])
            if M.name == A.name + "_free" and (cm.kind, cm.n) != ("exact", 1 - d):
                fails.append(f"CMreg {A.name} = {cm} != {1 - d}")
            if M.name == "k" and (cm.kind, cm.n) != ("exact", 0):
                fails.append(f"CMreg k over {A.name} = {cm} != 0")
        return payload, fails

    return Job(spec, run, check)


def _cli_job(spec, workdir):
    command, family, module = spec.params
    F = _field(spec.field)
    tag = f"{command}-{family}-{module}-{spec.field}".strip("-")
    out_path = os.path.join(workdir, f"{tag}.json")
    if command == "check-regularity":
        argv = [command] + (["--p", str(F.p)] if F.p else []) + ["--out", out_path]
    else:
        doc_path = os.path.join(workdir, f"{family}-{spec.field}.dg")
        if not os.path.exists(doc_path):
            with open(doc_path, "w", encoding="utf-8") as fh:
                fh.write(document_text(family, field=F, d=2))
        argv = [command, doc_path, "--module", module, "--out", out_path]

    def run():
        # the report goes to --out; the human summary is discarded
        with open(os.devnull, "w") as sink:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return dgcli.main(argv)

    def check(code):
        with open(out_path, "rb") as fh:
            body = fh.read()
        os.remove(out_path)
        return {"exit": code, "out": hashlib.sha256(body).hexdigest()}, []

    return Job(spec, run, check)


def _build_duality(spec, workdir, catalog):
    F = _field(spec.field)
    kind, p = spec.kind, spec.params
    if kind == "catalog-pair":
        A, M = catalog[spec.field][p[0]]
        _validated(A)
        return _pair_job(spec, A, M)
    if kind == "lambda-suspended":
        A = _validated(square_zero_algebra(F))
        return _pair_job(spec, A, build_module(A, "suspended-k", n=p[0]))
    if kind == "poly1-truncated":
        A = _validated(polynomial_algebra(1, F))
        return _pair_job(spec, A, build_module(A, "truncated-free", level=p[0]))
    if kind == "poly2-suspended":
        A = _validated(polynomial_algebra(2, F))
        return _pair_job(spec, A, build_module(A, "suspended-k", n=p[0]))
    if kind == "cli":
        return _cli_job(spec, workdir)
    raise ValueError(kind)


def build_jobs(workload: str, specs, workdir: str) -> list:
    """Generate and validate the inputs of the given specs (the set-up)."""
    if workload == "resolve-deep":
        return [_build_resolve(s) for s in specs]
    if workload == "validate-wide":
        return [_build_document(s) for s in specs]
    if workload == "duality-sweep":
        catalog = {name: catalog_pairs(F) for name, F in FIELDS}
        return [_build_duality(s, workdir, catalog) for s in specs]
    raise ValueError(f"unknown workload {workload!r}")
