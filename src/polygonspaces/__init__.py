"""Exact classification toolkit for spaces of closed polygons in R^d.

Computes, over exact rationals: short/median/long subset data of a side
length vector, chamber signatures with an LP-certified census, mod-2
Betti tables with their monomial-ring presentations, the diffeomorphism
verdict for pairs of vectors, and an analytic cross-check built on the
closure energy over products of spheres.

Each exported name is loaded from its module on first use (PEP 562), so
``import polygonspaces`` loads no submodule and no numpy.
"""

__version__ = "0.1.0"

#: each exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "CensusResult",
            "ChamberComparison",
            "ChamberSignature",
            "chamber_signature",
            "enumerate_chambers",
            "realize_signature",
            "same_chamber_up_to_permutation",
        ),
        "chambers",
    ),
    **dict.fromkeys(
        (
            "BettiTable",
            "PairVerdict",
            "RingPresentation",
            "betti_table",
            "classify_pair",
            "quotient_basis_dimensions",
            "recognize_special",
            "ring_presentation",
            "rings_isomorphic_bruteforce",
            "short_median_counts",
            "signature_verdict",
        ),
        "cohomology",
    ),
    **dict.fromkeys(
        (
            "Kind",
            "LengthVector",
            "SubsetClass",
            "classify_subset",
            "complement_mask",
            "excess",
            "indices_of_mask",
            "is_generic",
            "mask_from_indices",
            "parse_length_vector",
        ),
        "lengths",
    ),
    **dict.fromkeys(
        (
            "CriticalSubmanifoldData",
            "EmptySpaceCertificate",
            "HessianMatrix",
            "PolygonConfiguration",
            "complement_poincare_polynomial",
            "critical_data",
            "energy",
            "find_polygon",
            "hessian_matrix",
            "hessian_signature",
            "jacobian_rank",
            "lacunary_consistency",
        ),
        "morse",
    ),
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
