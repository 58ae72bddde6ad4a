"""Exact classification toolkit for spaces of closed polygons in R^d.

Computes, over exact rationals: short/median/long subset data of a side
length vector, chamber signatures with an LP-certified census, mod-2
Betti tables with their monomial-ring presentations, the diffeomorphism
verdict for pairs of vectors, and an analytic cross-check built on the
closure energy over products of spheres.
"""

__version__ = "0.1.0"

from .chambers import (
    CensusResult,
    ChamberComparison,
    ChamberSignature,
    chamber_signature,
    enumerate_chambers,
    realize_signature,
    same_chamber_up_to_permutation,
)
from .cohomology import (
    BettiTable,
    PairVerdict,
    RingPresentation,
    betti_table,
    classify_pair,
    quotient_basis_dimensions,
    recognize_special,
    ring_presentation,
    rings_isomorphic_bruteforce,
    short_median_counts,
    signature_verdict,
)
from .lengths import (
    Kind,
    LengthVector,
    SubsetClass,
    classify_subset,
    complement_mask,
    excess,
    indices_of_mask,
    is_generic,
    mask_from_indices,
    parse_length_vector,
)
from .morse import (
    CriticalSubmanifoldData,
    EmptySpaceCertificate,
    HessianMatrix,
    PolygonConfiguration,
    complement_poincare_polynomial,
    critical_data,
    energy,
    find_polygon,
    hessian_matrix,
    hessian_signature,
    jacobian_rank,
    lacunary_consistency,
)

__all__ = [
    "BettiTable",
    "CensusResult",
    "ChamberComparison",
    "ChamberSignature",
    "CriticalSubmanifoldData",
    "EmptySpaceCertificate",
    "HessianMatrix",
    "Kind",
    "LengthVector",
    "PairVerdict",
    "PolygonConfiguration",
    "RingPresentation",
    "SubsetClass",
    "betti_table",
    "chamber_signature",
    "classify_pair",
    "classify_subset",
    "complement_mask",
    "complement_poincare_polynomial",
    "critical_data",
    "energy",
    "enumerate_chambers",
    "excess",
    "find_polygon",
    "hessian_matrix",
    "hessian_signature",
    "indices_of_mask",
    "is_generic",
    "jacobian_rank",
    "lacunary_consistency",
    "mask_from_indices",
    "parse_length_vector",
    "quotient_basis_dimensions",
    "realize_signature",
    "recognize_special",
    "ring_presentation",
    "rings_isomorphic_bruteforce",
    "same_chamber_up_to_permutation",
    "short_median_counts",
    "signature_verdict",
    "__version__",
]
