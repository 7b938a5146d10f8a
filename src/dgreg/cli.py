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
import functools
import json
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass

from .algebra import DGAlgebra, validate_algebra, validate_automorphism
from .catalog import ALGEBRA_FAMILIES, document_text
from .fields import QQ, GF
from .linalg import ContainmentError
from .module import SideError, cohomology, validate_module
from .resolution import DegenerateWindowError, ext_reg, koszul_test, semifree_resolve
from .textformat import _INT, ParseError, _parse_window, emit_module, parse_document, parse_combination
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

OK, VIOLATION, USAGE, INDETERMINATE = 0, 1, 2, 3


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except FileNotFoundError:
        raise SystemExit2(f"no such file: {path}")
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SystemExit2(f"{path}: byte {exc.start} is not UTF-8 text")
    except ParseError as exc:
        raise SystemExit2(str(exc))


class SystemExit2(Exception):
    """Usage-level failure (exit code 2)."""


def _report(args, payload: dict, human: str, code: int) -> int:
    payload = {"command": args.command, "status": {0: "ok", 1: "violation", 2: "usage", 3: "indeterminate"}[code], **payload}
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise SystemExit2(f"cannot write {args.out}: {exc.strerror}")
    print(human)
    return code


def _pick(doc, kind: str, name):
    """The document's algebra or module (``kind``) called name, or its
    only one when name is None."""
    try:
        return getattr(doc, kind)(name)
    except KeyError as exc:
        raise SystemExit2(exc.args[0])  # str() of a KeyError quotes it


_int_re = re.compile(_INT)


def _int(text: str) -> int:
    """An integer option, in the document grammar: ``-?[0-9]+`` in ASCII."""
    if _int_re.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _stages(text: str) -> int:
    """A --stages value: an int of at least 1."""
    n = _int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"stage budget {n} is below 1")
    return n


def _field(args):
    try:
        return QQ if args.p is None else GF(args.p)
    except ValueError as exc:
        raise SystemExit2(str(exc))


def _regime_for(choice: str, A):
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
    for kind, table, check in (("algebra", doc.algebras, validate_algebra),
                               ("module", doc.modules, validate_module),
                               ("automorphism", doc.automorphisms, validate_automorphism)):
        reports += [(kind, name, check(X)) for name, X in sorted(table.items())
                    if not args.name or name == args.name]
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


def _h_lines(heading: str, rep, mark: bool = False) -> list:
    """A heading, then the dimension of each degree of an H report; with
    ``mark``, each degree outside the certified window says so."""
    lines = [heading] + [
        f"  degree {d}: {n}" + ("" if not mark or rep.certified.contains(d) else " (uncertified)")
        for d, n in sorted(rep.dims.items())
    ]
    return lines if rep.dims else lines + ["  zero"]


def cmd_cohomology(args, X) -> int:
    vrep = validate_algebra(X) if isinstance(X, DGAlgebra) else validate_module(X)
    if not vrep.ok:
        lines = [f"{X.name} is not a valid presentation:"]
        lines += [f"  {v.axiom} at {v.witness}: {v.detail}" for v in vrep.violations]
        return _report(args, {"validation": vrep.to_json()}, "\n".join(lines), VIOLATION)
    rep = cohomology(X)
    human = _h_lines(f"H({X.name}) dims (certified {rep.certified}):", rep)
    human.append(f"inf = {rep.to_json()['inf']}, sup = {rep.to_json()['sup']}")
    return _report(args, {"cohomology": rep.to_json()}, "\n".join(human), OK)


def cmd_resolve(args, M) -> int:
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


def cmd_extreg(args, M) -> int:
    v = ext_reg(M, max_stages=args.stages)
    code = OK if v.certified_exact else INDETERMINATE
    return _report(args, {"extreg": v.to_json()}, f"Extreg {M.name} = {v} ({v.note})", code)


def cmd_koszul(args, X) -> int:
    rep = koszul_test(X, max_stages=args.stages)
    code = OK if rep.certified else INDETERMINATE
    noun = "Koszul" if rep.value else ("not Koszul" if rep.value is False else "indeterminate")
    return _report(args, {"koszul": rep.to_json()}, f"{X.name}: {noun} ({rep.detail})", code)


def cmd_cmreg(args, M, regime) -> int:
    v = cm_reg(M, regime, max_stages=args.stages)
    code = OK if v.certified_exact else INDETERMINATE
    return _report(
        args, {"cmreg": v.to_json(), "regime": regime.to_json()},
        f"CMreg {M.name} = {v} [{regime.kind} regime] ({v.note})", code,
    )


def cmd_gamma(args, M, regime) -> int:
    g = gamma(M, regime, max_stages=args.stages)
    rep = cohomology(g.value)
    human = _h_lines(f"H(Gamma {M.name}) [{regime.kind} regime] (certified {rep.certified}):", rep, mark=True)
    human += [f"note: {note}" for note in g.notes]
    payload = {"gamma_h": rep.to_json(), "contamination": {str(k): v for k, v in g.contamination.items()},
               "regime": regime.to_json(), "notes": g.notes}
    return _report(args, payload, "\n".join(human), OK)


def cmd_dualizing(args, A, regime) -> int:
    D = dualizing_module(A, regime)
    human = [f"dualizing module of {A.name} [{regime.kind} regime]:", emit_module(D)]
    return _report(args, {"dualizing": emit_module(D), "regime": regime.to_json()},
                   "\n".join(human), OK)


def cmd_duality(args, M, regime) -> int:
    """duality-check and local-duality.  The check is looked up by name
    here, when it runs, so that a wrapper installed on this module after
    the parser was built (bench/tracer.py) sees the call."""
    check = double_duality_check if args.command == "duality-check" else local_duality_check
    rep = check(M, regime, max_stages=args.stages)
    code = {"holds": OK, "violated": VIOLATION, "indeterminate": INDETERMINATE}[rep.verdict]
    return _report(args, {"check": rep.to_json()},
                   f"{rep.name.replace('-', ' ')} on {M.name}: {rep.verdict}", code)


def cmd_e2(args, M) -> int:
    A = M.algebra
    params = []
    if args.params:
        for chunk in args.params.split(","):
            if not chunk.strip():
                raise SystemExit2(f"bad parameter {chunk!r}: empty")
            try:
                combo = parse_combination(chunk.strip(), A.field)
            except ParseError as exc:
                raise SystemExit2(f"bad parameter {chunk!r}: {exc.message}")
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
        if args.p is not None:
            raise SystemExit2("--p applies to the catalog sweep only: a document names its own field")
        M = _pick(_load(args.file), MODULE, args.module)
        pairs = [(M.algebra, M)]
    else:
        if args.module is not None:
            raise SystemExit2("--module needs a FILE: the catalog sweep picks its own modules")
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
        try:
            window = _parse_window(args.window, 0, 0)
        except ParseError:
            raise SystemExit2(f"bad window {args.window!r}")
    try:
        text = document_text(args.family, field=field, d=args.param, window=window)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    return _report(args, {"document": text}, text, OK)


# -- the command table -----------------------------------------------------------

MODULE, ALGEBRA, EITHER = "module", "algebra", "either"


@dataclass(frozen=True)
class Command:
    """A subcommand that reads a document.  It runs on the document's
    module, its algebra, or either one, chosen by --algebra (``on``);
    main calls ``handler(args, X)``, or ``handler(args, X, regime)`` when
    the row takes --regime.  ``extra`` holds (flag, help) options."""

    name: str
    help: str
    on: str
    handler: Callable[..., int]
    stages: bool = False
    regime: bool = False
    extra: tuple = ()


def _commands() -> tuple:
    """The table the parser is built from, once per process.  A row holds
    no library function but its handler, and a handler looks up what it
    calls when it runs, so a wrapper installed on this module later
    (bench/tracer.py) sees the call."""
    return (
        Command("cohomology", "degreewise cohomology", EITHER, cmd_cohomology),
        Command("resolve", "minimal semifree resolution ledger", MODULE, cmd_resolve, stages=True),
        Command("extreg", "Ext regularity", MODULE, cmd_extreg, stages=True),
        Command("koszul", "Koszulness of a module or algebra", EITHER, cmd_koszul, stages=True),
        Command("cmreg", "CM regularity via derived torsion", MODULE, cmd_cmreg, stages=True, regime=True),
        Command("gamma", "cohomology of the derived torsion", MODULE, cmd_gamma, stages=True, regime=True),
        Command("dualizing", "the dualizing DG module", ALGEBRA, cmd_dualizing, regime=True),
        Command("duality-check", "double duality recovers H(M)", MODULE, cmd_duality,
                stages=True, regime=True),
        Command("local-duality", "(Gamma M)* against RHom(M, D)", MODULE, cmd_duality,
                stages=True, regime=True),
        Command("e2", "local cohomology page of H(M)", MODULE, cmd_e2,
                extra=(("--params", "comma-separated algebra cocycles, e.g. t1 or 2*t1"),)),
    )


def _inputs(row: Command, args) -> list:
    """Load the document, pick the object and detect the regime that the
    row declares, in that order."""
    kind = ALGEBRA if row.on == ALGEBRA or (row.on == EITHER and args.algebra) else MODULE
    X = _pick(_load(args.file), kind, getattr(args, kind))
    if not row.regime:
        return [X]
    return [X, _regime_for(args.regime, X if kind == ALGEBRA else X.algebra)]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dgreg",
        description="Homological invariants of connected cochain DG algebras, exactly.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check every axiom of the presented objects")
    sp.add_argument("file", help="presentation document")
    sp.add_argument("--out", help="write the machine-readable JSON report here")
    sp.add_argument("--name", help="validate only the named object")
    sp.set_defaults(fn=cmd_validate, row=None)

    for row in _commands():
        sp = sub.add_parser(row.name, help=row.help)
        sp.add_argument("file", help="presentation document")
        if row.on != ALGEBRA:
            sp.add_argument("--module", help="module name (optional when unique)")
        if row.on != MODULE:
            sp.add_argument("--algebra", help="algebra name (optional when unique)")
        if row.stages:
            sp.add_argument("--stages", type=_stages, default=8, help="resolution stage budget")
        if row.regime:
            sp.add_argument("--regime", choices=["auto", "finite", "poly"], default="auto")
        sp.add_argument("--out", help="write the machine-readable JSON report here")
        for flag, text in row.extra:
            sp.add_argument(flag, help=text)
        sp.set_defaults(row=row)

    sp = sub.add_parser("check-regularity", help="regularity inequalities (file or catalog sweep)")
    sp.add_argument("file", nargs="?", help="presentation document (omit to sweep the catalog)")
    sp.add_argument("--module", help="module name (with a FILE only)")
    sp.add_argument("--stages", type=_stages, default=8)
    sp.add_argument("--p", type=_int, help="sweep over F_p instead of Q (without a FILE only)")
    sp.add_argument("--out", help="write the machine-readable JSON report here")
    sp.set_defaults(fn=cmd_check_regularity, row=None)

    sp = sub.add_parser("catalog", help="emit a catalog family as a document")
    sp.add_argument("--family", required=True, choices=list(ALGEBRA_FAMILIES))
    sp.add_argument("--param", type=_int, default=1, help="generator degree d where applicable")
    sp.add_argument("--p", type=_int, help="use F_p instead of Q")
    sp.add_argument("--window", help="LO..HI")
    sp.add_argument("--out", help="write the JSON report here; its \"document\" field holds "
                                  "the text, which stdout prints as it is")
    sp.set_defaults(fn=cmd_catalog, row=None)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call to main and reused."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        if args.row is None:
            return args.fn(args)
        return args.row.handler(args, *_inputs(args.row, args))
    except (SystemExit2, SideError, DegenerateWindowError, ContainmentError) as exc:
        # bad input: a module without the left action the command needs, a
        # window too narrow to certify any cohomology, or d^2 != 0
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except UnsupportedRegimeError as exc:
        print(f"unsupported regime: {exc}", file=sys.stderr)
        return INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
