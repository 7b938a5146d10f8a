"""Per-layer tracing for the dgreg benchmark.

Wrappers around public dgreg functions are installed at run time, only
for the traced run.  dgreg modules bind each other's names with
``from .x import f``, so a wrapper replaces the name in every ``dgreg``
module namespace that holds the original; methods are replaced on their
class.  ``uninstall`` puts every original back.

Every wrapped call adds to its name's call count and self time (its
duration minus the part covered by wrapped calls inside it; the time the
tracer spends in its own bookkeeping is excluded from both).  Calls at a
layer boundary also record a span (name, start, end, parent span, job
id) kept in memory until the run ends; the hottest leaf functions
(combination arithmetic, echelon steps, matrix assembly) are counted
without spans, which would otherwise number in the millions per pass.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


def _canon(x):
    """A hashable, order-independent form of nested tables."""
    if isinstance(x, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    return repr(x)


def _module_fingerprint(M) -> str:
    A = M.algebra
    body = (A.field.p, _canon(A.basis), _canon(A.mul), _canon(A.diff), M.side,
            repr(M.window), _canon(M.basis), _canon(M.lact), _canon(M.ract),
            _canon(M.diff), repr(M.trust))
    return hashlib.sha1(repr(body).encode()).hexdigest()


# -- hooks: counters taken from arguments and results -------------------------


def _pre_row_reduce(tr, args, kwargs):
    m = args[0]
    tr.count["linalg.entries"] += m.nrows * m.ncols
    tr.count["linalg.nonzero"] += sum(1 for row in m.rows for x in row if x)
    tr.max_dim = max(tr.max_dim, m.nrows, m.ncols)


def _pre_cohomology(tr, args, kwargs):
    scanned = sum(len(v) for v in args[0].basis.values())
    tr.count["module.cohomology.basis_scanned"] += scanned
    if tr.inside("resolution.semifree_resolve"):
        tr.count["resolution.cone_scanned"] += scanned


def _pre_resolve(tr, args, kwargs):
    stages = args[1] if len(args) > 1 else kwargs.get("max_stages", 8)
    tr.resolve_inputs.add((_module_fingerprint(args[0]), stages))


def _post_resolve(tr, args, kwargs, res):
    tr.count["resolution.stages"] += res.stages_used
    tr.count["resolution.generators"] += len(res.gens)


def _pre_parse(tr, args, kwargs):
    tr.count["textformat.bytes"] += len(args[0])


def _post_emit(tr, args, kwargs, text):
    tr.count["textformat.bytes"] += len(text)


# (name, module, attribute or Class.method, records a span, pre hook, post hook)
TARGETS = [
    ("linalg.row_reduce", "dgreg.linalg", "row_reduce", True, _pre_row_reduce, None),
    ("linalg.quotient_by", "dgreg.linalg", "quotient_by", True, None, None),
    ("linalg.echelon.reduce", "dgreg.linalg", "Echelon.reduce", False, None, None),
    ("linalg.echelon.add", "dgreg.linalg", "Echelon.add", False, None, None),
    ("linalg.echelon.contains", "dgreg.linalg", "Echelon.contains", False, None, None),
    ("lincomb.cclean", "dgreg.lincomb", "cclean", False, None, None),
    ("lincomb.cadd", "dgreg.lincomb", "cadd", False, None, None),
    ("lincomb.cscale", "dgreg.lincomb", "cscale", False, None, None),
    ("lincomb.cneg", "dgreg.lincomb", "cneg", False, None, None),
    ("lincomb.ceq", "dgreg.lincomb", "ceq", False, None, None),
    ("lincomb.to_vector", "dgreg.lincomb", "to_vector", False, None, None),
    ("lincomb.from_vector", "dgreg.lincomb", "from_vector", False, None, None),
    ("algebra.mul_combo", "dgreg.algebra", "DGAlgebra.mul_combo", False, None, None),
    ("algebra.validate_algebra", "dgreg.algebra", "validate_algebra", True, None, None),
    ("module.diff_matrix", "dgreg.module", "DGModule.diff_matrix", False, None, None),
    ("module.cohomology", "dgreg.module", "cohomology", True, _pre_cohomology, None),
    ("module.cone_of", "dgreg.module", "cone_of", True, None, None),
    ("module.validate_module", "dgreg.module", "validate_module", True, None, None),
    ("homtensor.realize_ledger", "dgreg.homtensor", "realize_ledger", True, None, None),
    ("homtensor.hom_from_ledger", "dgreg.homtensor", "hom_from_ledger", True, None, None),
    ("homtensor.tensor_module_ledger", "dgreg.homtensor", "tensor_module_ledger", True, None, None),
    ("resolution.semifree_resolve", "dgreg.resolution", "semifree_resolve", True, _pre_resolve, _post_resolve),
    ("torsion.gamma", "dgreg.torsion", "gamma", True, None, None),
    ("torsion.cm_reg", "dgreg.torsion", "cm_reg", True, None, None),
    ("torsion.local_duality_check", "dgreg.torsion", "local_duality_check", True, None, None),
    ("torsion.double_duality_check", "dgreg.torsion", "double_duality_check", True, None, None),
    ("torsion.regularity_inequalities", "dgreg.torsion", "regularity_inequalities", True, None, None),
    ("e2.cech_e2", "dgreg.e2", "cech_e2", True, None, None),
    ("textformat.parse_document", "dgreg.textformat", "parse_document", True, _pre_parse, None),
    ("textformat.emit_document", "dgreg.textformat", "emit_document", True, None, _post_emit),
    ("cli.main", "dgreg.cli", "main", True, None, None),
]


class Tracer:
    """Collects call counts, self times, layer counters and spans."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans: list = []       # [name, start, end, parent span index, job id]
        self.stack: list = []       # per open call: [time covered by children, span index]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.count = Counter()
        self.max_dim = 0
        self.resolve_inputs: set = set()
        self.distinct_inputs = 0    # summed over passes
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        for name, modname, attr, span, pre, post in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, span, pre, post))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, span, pre, post)
            for modname2, mod2 in list(sys.modules.items()):
                if modname2 != "dgreg" and not modname2.startswith("dgreg."):
                    continue
                for key, value in list(vars(mod2).items()):
                    if value is orig:
                        setattr(mod2, key, wrapper)
                        self._undo.append((mod2, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _wrap(self, name, fn, span, pre, post):
        tr = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            h0 = perf()
            if pre is not None:
                pre(tr, args, kwargs)
            stack = tr.stack
            parent = stack[-1] if stack else None
            if span:
                idx = len(tr.spans)
                rec = [name, 0.0, 0.0, parent[1] if parent else None, tr.job]
                tr.spans.append(rec)
            else:
                idx = parent[1] if parent else None
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tr.calls[name] += 1
                tr.self_s[name] += (t1 - t0) - frame[0]
                if span:
                    rec[1], rec[2] = t0, t1
            if post is not None:
                post(tr, args, kwargs, result)
            if parent is not None:
                parent[0] += perf() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- jobs and passes -----------------------------------------------------

    def inside(self, name) -> bool:
        idx = self.stack[-1][1] if self.stack else None
        while idx is not None:
            rec = self.spans[idx]
            if rec[0] == name:
                return True
            idx = rec[3]
        return False

    def begin_job(self, job_id):
        self.job = job_id
        idx = len(self.spans)
        self.spans.append(["job", time.perf_counter(), 0.0, None, job_id])
        self.stack.append([0.0, idx])
        self.active = True

    def end_job(self):
        self.active = False
        frame = self.stack.pop()
        self.spans[frame[1]][2] = time.perf_counter()
        self.job = None

    def end_pass(self):
        self.distinct_inputs += len(self.resolve_inputs)
        self.resolve_inputs.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass layer metrics named as in BENCHMARK.json."""
        c, s, n = self.calls, self.self_s, self.count

        def group(prefix):
            return sum(v for k, v in s.items() if k.startswith(prefix))

        resolves = c["resolution.semifree_resolve"]
        entries = n["linalg.entries"]
        out = {
            "linalg.row_reduce.calls": (c["linalg.row_reduce"] / passes, "count"),
            "linalg.row_reduce.self_s": (s["linalg.row_reduce"] / passes, "s"),
            "linalg.echelon.self_s": (group("linalg.echelon.") / passes, "s"),
            "linalg.quotient_by.self_s": (s["linalg.quotient_by"] / passes, "s"),
            "linalg.entries": (entries / passes, "count"),
            "linalg.nonzero_ratio": (n["linalg.nonzero"] / entries if entries else 0.0, "ratio"),
            "linalg.max_dim": (self.max_dim, "count"),
            "module.cohomology.calls": (c["module.cohomology"] / passes, "count"),
            "module.cohomology.self_s": (s["module.cohomology"] / passes, "s"),
            "module.cohomology.basis_scanned": (n["module.cohomology.basis_scanned"] / passes, "count"),
            "module.diff_matrix.self_s": (s["module.diff_matrix"] / passes, "s"),
            "resolution.semifree_resolve.calls": (resolves / passes, "count"),
            "resolution.semifree_resolve.self_s": (s["resolution.semifree_resolve"] / passes, "s"),
            "resolution.stages": (n["resolution.stages"] / passes, "count"),
            "resolution.generators": (n["resolution.generators"] / passes, "count"),
            "resolution.scanned_per_generator": (
                n["resolution.cone_scanned"] / n["resolution.generators"]
                if n["resolution.generators"] else 0.0, "count"),
            "resolution.distinct_ratio": (self.distinct_inputs / resolves if resolves else 0.0, "ratio"),
            "homtensor.realize_ledger.calls": (c["homtensor.realize_ledger"] / passes, "count"),
            "homtensor.realize_ledger.self_s": (s["homtensor.realize_ledger"] / passes, "s"),
            "homtensor.hom_from_ledger.self_s": (s["homtensor.hom_from_ledger"] / passes, "s"),
            "homtensor.tensor_module_ledger.self_s": (s["homtensor.tensor_module_ledger"] / passes, "s"),
            "module.cone_of.self_s": (s["module.cone_of"] / passes, "s"),
            "lincomb.cadd.calls": (c["lincomb.cadd"] / passes, "count"),
            "lincomb.self_s": (group("lincomb.") / passes, "s"),
            "algebra.validate_algebra.self_s": (s["algebra.validate_algebra"] / passes, "s"),
            "algebra.mul_combo.calls": (c["algebra.mul_combo"] / passes, "count"),
            "module.validate_module.self_s": (s["module.validate_module"] / passes, "s"),
            "textformat.parse_document.self_s": (s["textformat.parse_document"] / passes, "s"),
            "textformat.emit_document.self_s": (s["textformat.emit_document"] / passes, "s"),
            "textformat.bytes": (n["textformat.bytes"] / passes, "bytes"),
            "torsion.gamma.self_s": (s["torsion.gamma"] / passes, "s"),
            "torsion.cm_reg.self_s": (s["torsion.cm_reg"] / passes, "s"),
            "torsion.local_duality_check.self_s": (s["torsion.local_duality_check"] / passes, "s"),
            "torsion.double_duality_check.self_s": (s["torsion.double_duality_check"] / passes, "s"),
            "torsion.regularity_inequalities.self_s": (s["torsion.regularity_inequalities"] / passes, "s"),
            "e2.cech_e2.self_s": (s["e2.cech_e2"] / passes, "s"),
            "cli.main.calls": (c["cli.main"] / passes, "count"),
            "cli.main.self_s": (s["cli.main"] / passes, "s"),
        }
        return out

    def write_spans(self, path, origin: float):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": round(start - origin, 9),
                                     "end": round(end - origin, 9), "parent": parent,
                                     "job": job}) + "\n")
