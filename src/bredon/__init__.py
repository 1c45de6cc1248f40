"""Exact Bredon cohomology and equivariant K-theory for iterated pullbacks.

The package computes, in exact integer arithmetic, the Bredon cohomology
with representation-ring coefficients of products of semidirect-product
blocks over a finite cyclic point group, together with the derived-page
collapse certificates, the product-complex oracle, and the resulting
equivariant K-theory and K-homology.
"""

from .intlinalg import (
    FgAbGroup,
    IntMatrix,
    Lattice,
    SnfDecomposition,
    determinant,
    hom_ext_z,
    kernel_lattice,
    quotient_group,
    smith_diagonal,
    snf,
    solve_exact,
)
from .repring import (
    FpModule,
    LatticeModule,
    PointGroup,
    free_module,
    present_lattice,
    presentation_kernel,
    quotient_by_ideal,
    restriction_module,
    tensor_over_ring,
    tor,
)
from .complexes import (
    CochainComplex,
    CohomologyTable,
    GcwBlock,
    bredon_cochain_complex,
    builtin_block,
    builtin_block_names,
    cohomology_table,
    validate_block,
)
from .pullback import (
    BigradedTable,
    CollapseFailureError,
    OracleMismatchError,
    PullbackSpec,
    TorsionObstructionError,
    compute_pullback_cohomology,
    em_e2,
    kunneth_tensor,
    product_complex,
    run_pullback,
)
from .ktheory import (
    KTheoryResult,
    ahss_collapse,
    full_report,
    uct_dualize,
)
from .specfile import SpecDocument, SpecParseError, parse_spec

__version__ = "0.1.0"

__all__ = [
    "BigradedTable", "CochainComplex", "CohomologyTable",
    "CollapseFailureError", "FgAbGroup", "FpModule", "GcwBlock", "IntMatrix",
    "KTheoryResult", "Lattice", "LatticeModule", "OracleMismatchError",
    "PointGroup", "PullbackSpec", "SnfDecomposition", "SpecDocument",
    "SpecParseError", "TorsionObstructionError",
    "ahss_collapse", "bredon_cochain_complex", "builtin_block",
    "builtin_block_names", "cohomology_table", "compute_pullback_cohomology",
    "determinant", "em_e2", "free_module", "full_report", "hom_ext_z",
    "kernel_lattice", "kunneth_tensor", "parse_spec", "present_lattice",
    "presentation_kernel", "product_complex", "quotient_by_ideal",
    "quotient_group", "restriction_module", "run_pullback", "smith_diagonal",
    "snf", "solve_exact", "tensor_over_ring", "tor", "uct_dualize",
    "validate_block",
]
