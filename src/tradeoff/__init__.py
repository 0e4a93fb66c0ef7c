"""Resource trade-off curves and the E*(R, Q) surface for communicating
finite ensembles of bipartite pure states with classical bits, qubits, and
shared entanglement.
"""

from .achievability import (
    AchievableHull,
    RateTriple,
    achievable_hull,
    primitive_points,
    verify_surface,
)
from .ensembles import (
    BUILTIN_NAMES,
    builtin_ensemble,
    ensemble_hash,
    ensemble_to_dict,
    load_ensemble,
    parse_ensemble,
)
from .optimizer import (
    CriticalRate,
    CurveSet,
    TradeoffCurve,
    compute_curves,
    critical_rate,
    minimize_profile,
    qct_curve,
    rsp_curve,
)
from .profiles import (
    ClassicalChannel,
    EntropicProfile,
    entropic_profile,
)
from .states import (
    BipartitePureState,
    DensityOperator,
    Ensemble,
    EnsembleStats,
    ensemble_stats,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
)
from .surface import RegionLabel, SurfaceGrid, classify_region, e_star, surface_grid

__version__ = "0.1.0"

__all__ = [
    "AchievableHull",
    "BipartitePureState",
    "BUILTIN_NAMES",
    "ClassicalChannel",
    "CriticalRate",
    "CurveSet",
    "DensityOperator",
    "Ensemble",
    "EnsembleStats",
    "EntropicProfile",
    "RateTriple",
    "RegionLabel",
    "SurfaceGrid",
    "TradeoffCurve",
    "achievable_hull",
    "builtin_ensemble",
    "classify_region",
    "compute_curves",
    "critical_rate",
    "e_star",
    "ensemble_hash",
    "ensemble_stats",
    "ensemble_to_dict",
    "entropic_profile",
    "load_ensemble",
    "minimize_profile",
    "parse_ensemble",
    "partial_trace",
    "primitive_points",
    "qct_curve",
    "rsp_curve",
    "shannon_entropy",
    "surface_grid",
    "verify_surface",
    "von_neumann_entropy",
]
