"""Semifree generator ledgers.

A ledger lists free-module generators (label, cohomological degree,
stage) together with a differential sending each generator to an
A-linear combination of earlier-stage generators.  Ledgers are how
semifree resolutions are stored and are the operands of the chain-level
tensor and Hom constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import DGAlgebra
from .lincomb import cclean
from .module import DGModule
from .windows import Trust


@dataclass(frozen=True)
class Generator:
    label: str
    degree: int
    stage: int


@dataclass
class SemifreeResolution:
    """A semifree ledger, optionally augmented toward a target module.

    ``diff[g]`` maps generator labels to ``{h: algebra combination}``
    with coefficient degrees |g| + 1 - |h|; the semifree filtration
    requires stage(h) < stage(g).  ``aug[g]`` is the image of g in the
    target module (resolutions only).

    Completeness is window-relative: ``scan`` is the degree range over
    which the mapping cone of the augmentation was checked, ``frontier``
    the lowest scanned degree where its cohomology persists (None when
    the cone is acyclic on the whole scan range).  ``residual`` records
    the per-degree cone cohomology left after the last stage.
    """

    algebra: DGAlgebra
    gens: tuple
    diff: dict
    aug: dict = dc_field(default_factory=dict)
    target: DGModule | None = None
    scan: Trust = dc_field(default_factory=Trust.everywhere)
    scan_everywhere: bool = False
    frontier: int | None = None
    residual: dict = dc_field(default_factory=dict)
    stages_used: int = 0

    def __post_init__(self):
        F = self.algebra.field
        self.diff = {
            g: {h: combo for h, combo in ((h2, cclean(F, c)) for h2, c in row.items()) if combo}
            for g, row in self.diff.items()
        }
        self._by_label = {g.label: g for g in self.gens}

    @property
    def minimal(self) -> bool:
        return is_minimal_ledger(self.algebra, self.diff)[0]

    @property
    def complete(self) -> bool:
        return self.frontier is None

    @property
    def strong_complete(self) -> bool:
        """No generator can ever be added, at any degree."""
        return self.complete and self.scan_everywhere

    @property
    def ledger_bound(self):
        """Future generators, if any, have degree >= this bound (None = +inf)."""
        if self.frontier is not None:
            return self.frontier
        if self.scan.hi is not None:
            return self.scan.hi + 1
        return None

    def degree_of(self, label: str) -> int:
        return self._by_label[label].degree

    def counts_by_degree(self) -> dict:
        out: dict = {}
        for g in self.gens:
            out[g.degree] = out.get(g.degree, 0) + 1
        return dict(sorted(out.items()))

    def max_gen_degree(self):
        return max((g.degree for g in self.gens), default=None)

    def min_gen_degree(self):
        return min((g.degree for g in self.gens), default=None)

    def to_json(self):
        F = self.algebra.field
        return {
            "algebra": self.algebra.name,
            "target": self.target.name if self.target else None,
            "generators": [
                {
                    "label": g.label,
                    "degree": g.degree,
                    "stage": g.stage,
                    "diff": {
                        h: {lbl: F.format(c) for lbl, c in combo.items()}
                        for h, combo in sorted(self.diff.get(g.label, {}).items())
                    },
                    "augmentation": {
                        lbl: F.format(c) for lbl, c in sorted(self.aug.get(g.label, {}).items())
                    },
                }
                for g in self.gens
            ],
            "minimal": self.minimal,
            "complete_in_window": self.complete,
            "scan": self.scan.to_json(),
            "frontier": self.frontier,
            "residual": {str(d): n for d, n in sorted(self.residual.items())},
            "stages": self.stages_used,
        }


def is_minimal_ledger(A: DGAlgebra, diff: dict):
    """A ledger is minimal iff no differential coefficient has a unit
    component; returns (flag, witness or None)."""
    for g, row in diff.items():
        for h, combo in row.items():
            c = combo.get(A.unit)
            if c is not None and not A.field.is_zero(c):
                return False, (g, h)
    return True, None


def make_ledger(algebra: DGAlgebra, gens, diff, aug=None, target=None) -> SemifreeResolution:
    """Assemble a standalone ledger from raw (label, degree, stage) rows."""
    gen_objs = tuple(Generator(*g) for g in gens)
    return SemifreeResolution(
        algebra=algebra,
        gens=gen_objs,
        diff=dict(diff),
        aug=dict(aug or {}),
        target=target,
        scan=Trust.everywhere(),
        scan_everywhere=False,
        frontier=None,
    )


def free_ledger(A: DGAlgebra, degree: int = 0, label: str = "e0") -> SemifreeResolution:
    """The rank-one free ledger: A itself, one generator, zero differential."""
    return SemifreeResolution(
        algebra=A,
        gens=(Generator(label, degree, 0),),
        diff={},
        aug={},
        target=None,
        scan=Trust.everywhere(),
        scan_everywhere=True,
        frontier=None,
    )
