"""dgreg: exact homological invariants of connected cochain DG algebras.

Minimal semifree resolutions, Ext and Castelnuovo-Mumford regularity,
derived torsion in the regimes where it is computable, dualizing DG
modules with their twists, and local-cohomology E2 pages, all in exact
arithmetic over Q or a prime field.
"""

from .fields import QQ, GF, FieldSpec, FieldMismatchError
from .windows import GradedWindow, Trust, WindowError
from .algebra import (
    DGAlgebra,
    AlgebraAutomorphism,
    identity_automorphism,
    validate_algebra,
    validate_automorphism,
    ValidationReport,
    Violation,
)
from .module import (
    DGModule,
    ModuleMorphism,
    CohomologyReport,
    canonical_k,
    free_module,
    zero_module,
    cohomology,
    hard_truncate,
    suspend,
    linear_dual,
    twist,
    cone_of,
    left_restriction,
    to_opposite,
    double_dual_embedding,
    truncate_above,
    validate_module,
)
from .ledger import Generator, SemifreeResolution, free_ledger, make_ledger
from .homtensor import hom_from_ledger, realize_ledger, tensor_module_ledger
from .resolution import (
    RegularityValue,
    KoszulReport,
    ext_reg,
    extreg_symmetry,
    is_minimal,
    koszul_test,
    semifree_resolve,
)
from .torsion import (
    TorsionRegime,
    UnsupportedRegimeError,
    apply_duality,
    cech_carrier,
    cm_reg,
    detect_regime,
    double_duality_check,
    dualizing_module,
    gamma,
    koszul_truncation_check,
    local_duality_check,
    regularity_inequalities,
    twist_nontriviality,
)
from .e2 import E2Page, cech_e2, cmreg_bound_from_e2, graded_commutativity_violations
from .catalog import build_algebra, build_module, catalog_algebras, catalog_pairs, document_text
from .textformat import Document, ParseError, emit_document, parse_document

__all__ = [
    "QQ", "GF", "FieldSpec", "FieldMismatchError",
    "GradedWindow", "Trust", "WindowError",
    "DGAlgebra", "AlgebraAutomorphism", "identity_automorphism",
    "validate_algebra", "validate_automorphism", "ValidationReport", "Violation",
    "DGModule", "ModuleMorphism", "CohomologyReport",
    "canonical_k", "free_module", "zero_module", "cohomology",
    "hard_truncate", "suspend", "linear_dual", "twist", "cone_of",
    "left_restriction", "to_opposite", "double_dual_embedding", "validate_module",
    "Generator", "SemifreeResolution", "free_ledger", "make_ledger",
    "hom_from_ledger", "realize_ledger", "tensor_module_ledger",
    "RegularityValue", "KoszulReport", "ext_reg", "extreg_symmetry",
    "is_minimal", "koszul_test", "semifree_resolve", "truncate_above",
    "TorsionRegime", "UnsupportedRegimeError", "apply_duality", "cech_carrier",
    "cm_reg", "detect_regime", "double_duality_check", "dualizing_module",
    "gamma", "koszul_truncation_check", "local_duality_check",
    "regularity_inequalities", "twist_nontriviality",
    "E2Page", "cech_e2", "cmreg_bound_from_e2", "graded_commutativity_violations",
    "build_algebra", "build_module", "catalog_algebras", "catalog_pairs", "document_text",
    "Document", "ParseError", "emit_document", "parse_document",
]
