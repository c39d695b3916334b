"""Secant defectivity bounds, exact jet-rank oracles, Schubert calculus and
blow-up classification for Grassmannians and Segre-Veronese varieties.

``import grassdef`` loads no submodule: each export below is looked up in
its defining module when it is first asked for (PEP 562), and again on
every later lookup, so a name rebound in that module, by a tracer or a
monkeypatch, is what ``grassdef.<name>`` returns.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the names the package exports from it
_EXPORTS = {
    "bounds": (
        "BoundReport", "LimitHyperplane", "aop_bound", "grass_bound", "h_m",
        "limit_hyperplane_coeffs", "linear_bound", "osculating_dim_grass",
        "osculating_dim_sv", "sv_bound",
    ),
    "birational": (
        "FANO", "KNOWN_MDS", "MDS_UNKNOWN", "NEITHER", "WEAK_FANO_ONLY",
        "Ambient", "Chamber", "ChamberDecomposition", "ConeData", "CurveClass",
        "DivisorClass", "FanoReport", "MDSReport", "SphericalReport",
        "anticanonical", "classify_fano", "curve_e", "curve_h", "curve_l",
        "divisor_E", "divisor_H", "effective_cone", "intersect", "mds_status",
        "mori_chambers_g1n1", "mori_cone_generators", "spherical_status",
        "top_self_intersection",
    ),
    "indices": (
        "CapExceeded", "GrassShape", "SegreVeroneseShape", "Shape", "ball",
        "delta_set", "distance", "enumerate_indices", "grass_distance",
        "sv_distance",
    ),
    "oracle": (
        "CERTIFIED", "CONSTANT_MAP", "DEFAULT_PRIME", "DEFAULT_SEED",
        "DEFAULT_TRIALS", "DEFECT_EVIDENCE", "FIBER_EVIDENCE",
        "GENERICALLY_FINITE", "HYPOTHESIS_VIOLATED", "DefectivityCertificate",
        "Parametrization", "PrimeField", "ProjectionReport", "RankAccumulator",
        "RationalNormalCurve", "build_parametrization", "is_probable_prime",
        "jet_matrix", "osculating_projection_finite", "osculating_rank_sweep",
        "rank", "secant_dimension", "tangential_projection_finite",
    ),
    "schubert": (
        "FerrersDiagram", "Partition", "complementary", "contains",
        "grass_degree", "multiplicity", "rectangle_count", "schubert_codim",
        "schubert_dim", "singular_locus",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # not cached in globals(): a cached name would outlive a rebinding
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
