"""Command-line surface: parse presentation documents, dispatch to the
library, and emit deterministic reports.

Every run prints a human-readable summary to stdout and, with --out,
writes the machine-readable JSON document (sorted keys, no timestamps,
byte-identical across runs on identical inputs).

Exit codes: 0 success/holds, 1 certified violation, 2 usage error,
3 indeterminate or unsupported regime.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import validate_algebra, validate_automorphism
from .catalog import ALGEBRA_FAMILIES, document_text
from .fields import QQ, GF
from .module import SideError, cohomology, validate_module
from .resolution import DegenerateWindowError, ext_reg, koszul_test, semifree_resolve
from .textformat import ParseError, parse_document, parse_combination
from .torsion import (
    UnsupportedRegimeError,
    cm_reg,
    detect_regime,
    double_duality_check,
    dualizing_module,
    gamma,
    local_duality_check,
    regularity_inequalities,
)
from .e2 import E2PreconditionError, cech_e2, cmreg_bound_from_e2
from .windows import GradedWindow

OK, VIOLATION, USAGE, INDETERMINATE = 0, 1, 2, 3


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except FileNotFoundError:
        raise SystemExit2(f"no such file: {path}")
    except ParseError as exc:
        raise SystemExit2(str(exc))


class SystemExit2(Exception):
    """Usage-level failure (exit code 2)."""


def _report(args, payload: dict, human: str, code: int) -> int:
    payload = {"command": args.command, "status": {0: "ok", 1: "violation", 2: "usage", 3: "indeterminate"}[code], **payload}
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    print(human)
    return code


def _pick_module(doc, args):
    try:
        return doc.module(getattr(args, "module", None))
    except KeyError as exc:
        raise SystemExit2(exc.args[0])  # str() of a KeyError quotes it


def _pick_algebra(doc, args):
    try:
        return doc.algebra(getattr(args, "algebra", None))
    except KeyError as exc:
        raise SystemExit2(exc.args[0])


def _stages(text: str) -> int:
    """A --stages value: an int of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"stage budget {n} is below 1")
    return n


def _field(args):
    try:
        return GF(args.p) if args.p else QQ
    except ValueError as exc:
        raise SystemExit2(str(exc))


def _regime_for(args, A):
    choice = getattr(args, "regime", "auto")
    regime = detect_regime(A)
    if choice == "auto":
        return regime
    if choice == "finite" and regime.kind == "finite":
        return regime
    if choice == "poly" and regime.kind == "polynomial":
        return regime
    raise UnsupportedRegimeError(
        f"requested regime {choice!r} but detection says {regime.kind} ({regime.evidence})"
    )


# -- subcommands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = _load(args.file)
    reports = []
    for name, A in sorted(doc.algebras.items()):
        if args.name and name != args.name:
            continue
        reports.append(("algebra", name, validate_algebra(A)))
    for name, M in sorted(doc.modules.items()):
        if args.name and name != args.name:
            continue
        reports.append(("module", name, validate_module(M)))
    for name, al in sorted(doc.automorphisms.items()):
        if args.name and name != args.name:
            continue
        reports.append(("automorphism", name, validate_automorphism(al)))
    if args.name and not reports:
        raise SystemExit2(f"nothing named {args.name!r} in the document")
    bad = [(k, n, r) for k, n, r in reports if not r.ok]
    lines = []
    for kind, name, rep in reports:
        if rep.ok:
            lines.append(f"{kind} {name}: valid")
        else:
            lines.append(f"{kind} {name}: {len(rep.violations)} violation(s)")
            for v in rep.violations:
                lines.append(f"  {v.axiom} at {v.witness}: {v.detail}")
    payload = {"reports": [dict(kind=k, name=n, **r.to_json()) for k, n, r in reports]}
    return _report(args, payload, "\n".join(lines), VIOLATION if bad else OK)


def cmd_cohomology(args) -> int:
    doc = _load(args.file)
    X = _pick_algebra(doc, args) if args.algebra else _pick_module(doc, args)
    from .algebra import DGAlgebra

    vrep = validate_algebra(X) if isinstance(X, DGAlgebra) else validate_module(X)
    if not vrep.ok:
        lines = [f"{X.name} is not a valid presentation:"]
        lines += [f"  {v.axiom} at {v.witness}: {v.detail}" for v in vrep.violations]
        return _report(args, {"validation": vrep.to_json()}, "\n".join(lines), VIOLATION)
    rep = cohomology(X)
    human = [f"H({X.name}) dims (certified {rep.certified}):"]
    for d, n in sorted(rep.dims.items()):
        human.append(f"  degree {d}: {n}")
    if not rep.dims:
        human.append("  zero")
    human.append(f"inf = {rep.to_json()['inf']}, sup = {rep.to_json()['sup']}")
    return _report(args, {"cohomology": rep.to_json()}, "\n".join(human), OK)


def cmd_resolve(args) -> int:
    doc = _load(args.file)
    M = _pick_module(doc, args)
    res = semifree_resolve(M, max_stages=args.stages)
    human = [f"semifree resolution of {M.name} over {M.algebra.name} "
             f"({len(res.gens)} generators, {'complete' if res.complete else 'frontier at %s' % res.frontier})"]
    F = M.algebra.field
    for g in res.gens:
        row = res.diff.get(g.label, {})
        drow = ", ".join(
            f"{h}: {'+'.join(F.format(c) + '*' + lbl for lbl, c in sorted(combo.items()))}"
            for h, combo in sorted(row.items())
        ) or "0"
        aug = res.aug.get(g.label, {})
        arow = " + ".join(f"{F.format(c)}*{lbl}" for lbl, c in sorted(aug.items())) or "0"
        human.append(f"  {g.label}: degree {g.degree}, stage {g.stage}, d -> [{drow}], aug -> {arow}")
    human.append(f"minimal: {res.minimal}")
    return _report(args, {"resolution": res.to_json()}, "\n".join(human), OK)


def cmd_extreg(args) -> int:
    doc = _load(args.file)
    M = _pick_module(doc, args)
    v = ext_reg(M, max_stages=args.stages)
    code = OK if v.kind in ("exact", "neg_infinity") else INDETERMINATE
    return _report(args, {"extreg": v.to_json()}, f"Extreg {M.name} = {v} ({v.note})", code)


def cmd_koszul(args) -> int:
    doc = _load(args.file)
    X = _pick_algebra(doc, args) if args.algebra else _pick_module(doc, args)
    rep = koszul_test(X, max_stages=args.stages)
    code = OK if rep.certified else INDETERMINATE
    noun = "Koszul" if rep.value else ("not Koszul" if rep.value is False else "indeterminate")
    return _report(args, {"koszul": rep.to_json()}, f"{X.name}: {noun} ({rep.detail})", code)


def cmd_cmreg(args) -> int:
    doc = _load(args.file)
    M = _pick_module(doc, args)
    regime = _regime_for(args, M.algebra)
    v = cm_reg(M, regime, max_stages=args.stages)
    code = OK if v.kind in ("exact", "neg_infinity") else INDETERMINATE
    return _report(
        args, {"cmreg": v.to_json(), "regime": regime.to_json()},
        f"CMreg {M.name} = {v} [{regime.kind} regime] ({v.note})", code,
    )


def cmd_gamma(args) -> int:
    doc = _load(args.file)
    M = _pick_module(doc, args)
    regime = _regime_for(args, M.algebra)
    g = gamma(M, regime, max_stages=args.stages)
    rep = cohomology(g.value)
    human = [f"H(Gamma {M.name}) [{regime.kind} regime]:"]
    for d, n in sorted(rep.dims.items()):
        human.append(f"  degree {d}: {n}")
    if not rep.dims:
        human.append("  zero")
    for note in g.notes:
        human.append(f"note: {note}")
    payload = {"gamma_h": rep.to_json(), "contamination": {str(k): v for k, v in g.contamination.items()},
               "regime": regime.to_json(), "notes": g.notes}
    return _report(args, payload, "\n".join(human), OK)


def cmd_dualizing(args) -> int:
    doc = _load(args.file)
    A = _pick_algebra(doc, args)
    regime = _regime_for(args, A)
    D = dualizing_module(A, regime)
    from .textformat import emit_module

    human = [f"dualizing module of {A.name} [{regime.kind} regime]:", emit_module(D)]
    return _report(args, {"dualizing": emit_module(D), "regime": regime.to_json()},
                   "\n".join(human), OK)


def cmd_duality_check(args) -> int:
    doc = _load(args.file)
    M = _pick_module(doc, args)
    regime = _regime_for(args, M.algebra)
    rep = double_duality_check(M, regime, max_stages=args.stages)
    code = {"holds": OK, "violated": VIOLATION, "indeterminate": INDETERMINATE}[rep.verdict]
    return _report(args, {"check": rep.to_json()},
                   f"double duality on {M.name}: {rep.verdict}", code)


def cmd_local_duality(args) -> int:
    doc = _load(args.file)
    M = _pick_module(doc, args)
    regime = _regime_for(args, M.algebra)
    rep = local_duality_check(M, regime, max_stages=args.stages)
    code = {"holds": OK, "violated": VIOLATION, "indeterminate": INDETERMINATE}[rep.verdict]
    return _report(args, {"check": rep.to_json()},
                   f"local duality on {M.name}: {rep.verdict}", code)


def cmd_e2(args) -> int:
    doc = _load(args.file)
    M = _pick_module(doc, args)
    A = M.algebra
    params = []
    if args.params:
        for chunk in args.params.split(","):
            try:
                combo = parse_combination(chunk.strip(), A.field)
            except ParseError as exc:
                raise SystemExit2(f"bad parameter {chunk!r}: {exc}")
            unknown = sorted(set(combo) - set(A._deg))
            if unknown:
                raise SystemExit2(f"bad parameter {chunk!r}: {unknown} not algebra basis labels")
            params.append(combo)
    try:
        page = cech_e2(A, M, params)
    except E2PreconditionError as exc:
        return _report(args, {"error": str(exc)}, f"e2 unsupported: {exc}", INDETERMINATE)
    bound = cmreg_bound_from_e2(page)
    human = [f"E2 page of {M.name} over {A.name} (params: {args.params or 'none'}):"]
    for (l, s), n in sorted(page.entries.items()):
        human.append(f"  (l={l}, s={s}): {n}")
    if not page.entries:
        human.append("  empty")
    for w in page.warnings:
        human.append(f"warning: {w}")
    human.append(f"CMreg bound from page: {bound}")
    return _report(args, {"page": page.to_json(), "cmreg_bound": bound.to_json()},
                   "\n".join(human), OK)


def cmd_check_regularity(args) -> int:
    from .catalog import catalog_pairs

    results = []
    if args.file:
        doc = _load(args.file)
        M = _pick_module(doc, args)
        pairs = [(M.algebra, M)]
    else:
        pairs = catalog_pairs(_field(args))
    worst = OK
    lines = []
    for A, M in pairs:
        regime = detect_regime(A)
        if not regime.supported:
            lines.append(f"{A.name} / {M.name}: unsupported regime, skipped")
            results.append({"algebra": A.name, "module": M.name, "skipped": "unsupported"})
            continue
        rep = regularity_inequalities(A, M, regime, max_stages=args.stages)
        if "skipped" in rep:
            lines.append(f"{A.name} / {M.name}: skipped ({rep['skipped']})")
            results.append({"algebra": A.name, "module": M.name, "skipped": rep["skipped"]})
            continue
        verdicts = rep["checks"]
        vals = rep["values"]
        results.append({
            "algebra": A.name, "module": M.name,
            "checks": verdicts,
            "values": {k: v.to_json() for k, v in vals.items()},
            "finiteness": rep["extreg_finite_when_extregk_finite"],
        })
        lines.append(
            f"{A.name} / {M.name}: "
            + ", ".join(f"{k}={v}" for k, v in verdicts.items())
        )
        if "violated" in verdicts.values():
            worst = VIOLATION
        elif "indeterminate" in verdicts.values() and worst == OK:
            worst = INDETERMINATE
    return _report(args, {"results": results}, "\n".join(lines), worst)


def cmd_catalog(args) -> int:
    field = _field(args)
    window = None
    if args.window:
        lo, _, hi = args.window.partition("..")
        try:
            window = GradedWindow(int(lo), int(hi))
        except ValueError:
            raise SystemExit2(f"bad window {args.window!r}")
    try:
        text = document_text(args.family, field=field, d=args.param, window=window)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    return _report(args, {"document": text}, text, OK)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dgreg",
        description="Homological invariants of connected cochain DG algebras, exactly.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, file=True, module=False, algebra=False, stages=False, regime=False):
        if file:
            sp.add_argument("file", help="presentation document")
        if module:
            sp.add_argument("--module", help="module name (optional when unique)")
        if algebra:
            sp.add_argument("--algebra", help="algebra name (optional when unique)")
        if stages:
            sp.add_argument("--stages", type=_stages, default=8, help="resolution stage budget")
        if regime:
            sp.add_argument("--regime", choices=["auto", "finite", "poly"], default="auto")
        sp.add_argument("--out", help="write the machine-readable JSON report here")

    sp = sub.add_parser("validate", help="check every axiom of the presented objects")
    common(sp)
    sp.add_argument("--name", help="validate only the named object")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("cohomology", help="degreewise cohomology")
    common(sp, module=True, algebra=True)
    sp.set_defaults(fn=cmd_cohomology)

    sp = sub.add_parser("resolve", help="minimal semifree resolution ledger")
    common(sp, module=True, stages=True)
    sp.set_defaults(fn=cmd_resolve)

    sp = sub.add_parser("extreg", help="Ext regularity")
    common(sp, module=True, stages=True)
    sp.set_defaults(fn=cmd_extreg)

    sp = sub.add_parser("koszul", help="Koszulness of a module or algebra")
    common(sp, module=True, algebra=True, stages=True)
    sp.set_defaults(fn=cmd_koszul)

    sp = sub.add_parser("cmreg", help="CM regularity via derived torsion")
    common(sp, module=True, stages=True, regime=True)
    sp.set_defaults(fn=cmd_cmreg)

    sp = sub.add_parser("gamma", help="cohomology of the derived torsion")
    common(sp, module=True, stages=True, regime=True)
    sp.set_defaults(fn=cmd_gamma)

    sp = sub.add_parser("dualizing", help="the dualizing DG module")
    common(sp, algebra=True, regime=True)
    sp.set_defaults(fn=cmd_dualizing)

    sp = sub.add_parser("duality-check", help="double duality recovers H(M)")
    common(sp, module=True, stages=True, regime=True)
    sp.set_defaults(fn=cmd_duality_check)

    sp = sub.add_parser("local-duality", help="(Gamma M)* against RHom(M, D)")
    common(sp, module=True, stages=True, regime=True)
    sp.set_defaults(fn=cmd_local_duality)

    sp = sub.add_parser("e2", help="local cohomology page of H(M)")
    common(sp, module=True)
    sp.add_argument("--params", help="comma-separated algebra cocycles, e.g. t1 or 2*t1")
    sp.set_defaults(fn=cmd_e2)

    sp = sub.add_parser("check-regularity", help="regularity inequalities (file or catalog sweep)")
    sp.add_argument("file", nargs="?", help="presentation document (omit to sweep the catalog)")
    sp.add_argument("--module", help="module name")
    sp.add_argument("--stages", type=_stages, default=8)
    sp.add_argument("--p", type=int, help="sweep over F_p instead of Q")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_check_regularity)

    sp = sub.add_parser("catalog", help="emit a catalog family as a document")
    sp.add_argument("--family", required=True, choices=list(ALGEBRA_FAMILIES))
    sp.add_argument("--param", type=int, default=1, help="generator degree d where applicable")
    sp.add_argument("--p", type=int, help="use F_p instead of Q")
    sp.add_argument("--window", help="LO..HI")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_catalog)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SystemExit2, SideError, DegenerateWindowError) as exc:
        # bad input: a module without the left action the command needs,
        # or a window too narrow to certify any cohomology
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except UnsupportedRegimeError as exc:
        print(f"unsupported regime: {exc}", file=sys.stderr)
        return INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
