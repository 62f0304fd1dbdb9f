"""Exact refined enumeration of permutations avoiding length-3 pattern
sets, counted by number of fixed points.

The package offers four independent routes to the same numbers -- a
brute-force oracle, closed-form evaluators, structural generators and
rational generating functions -- plus an audit engine that compares
them cell by cell and a CLI in front of everything.
"""

from .audit import (
    AuditReport,
    audit_all,
    audit_formula,
    audit_generator,
    audit_super_wilf,
)
from .equivalence import (
    divergence_witness,
    orbit,
    super_wilf_classes,
    symmetry_classes,
)
from .formulas import (
    Undefined,
    evaluate,
    fibonacci,
    formula_for_patterns,
    formula_ids,
    jacobsthal,
    recurrence_check,
)
from .generators import (
    UnsupportedFamily,
    generate,
    generate_refined,
    supported_families,
)
from .genfun import RationalGF, gf_for_k, series_coefficients, sum_over_k
from .oracle import (
    CapExceeded,
    count_table,
    enumerate_avoiders,
    refined_count,
)
from .perms import (
    ALL_PATTERNS,
    PatternSet,
    Permutation,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PATTERNS",
    "AuditReport",
    "CapExceeded",
    "PatternSet",
    "Permutation",
    "RationalGF",
    "Undefined",
    "UnsupportedFamily",
    "audit_all",
    "audit_formula",
    "audit_generator",
    "audit_super_wilf",
    "count_table",
    "divergence_witness",
    "enumerate_avoiders",
    "evaluate",
    "fibonacci",
    "formula_for_patterns",
    "formula_ids",
    "generate",
    "generate_refined",
    "gf_for_k",
    "jacobsthal",
    "orbit",
    "recurrence_check",
    "refined_count",
    "series_coefficients",
    "sum_over_k",
    "super_wilf_classes",
    "supported_families",
    "symmetry_classes",
]
