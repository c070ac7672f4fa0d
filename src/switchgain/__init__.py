"""Analysis of switched linear control systems under constrained switching:
minimal realizations, constrained generalized spectral radius with extremal
norm certificates, finite-horizon L2-gains, gain-finiteness verdicts, and
minimal dwell-time bracketing.
"""

from .core import (
    Mode,
    Signal,
    SignalClassSpec,
    SystemSpec,
    ViolationReport,
    concat_signals,
    parse_signal,
    parse_system,
    serialize_signal,
    serialize_system,
    validate_membership,
)
from .flows import GramianPair, Trajectory, gramians, simulate, transition, trajectory_to_csv
from .gallery import (
    alpha_star,
    common_lyapunov_modes,
    example_planar_pair,
    example_system,
    planted_reducible_system,
    rotated_nodes_pair,
    verify_lyapunov_decay,
)
from .l2gain import (
    FinitenessVerdict,
    GainEstimate,
    TauMinResult,
    finiteness_test,
    gain_for_signal,
    gain_power_lower,
    gain_search,
    tau_min,
)
from .realization import (
    MinimalRealization,
    ObservabilityReport,
    ReductionMaps,
    SubspaceBasis,
    check_similarity,
    check_uniform_observability,
    dual_system,
    minimal_realization,
    observable_subspace,
    reachable_subspace,
)
from .spectral import (
    PolytopeNorm,
    QuasiExtremalReport,
    RhoCurve,
    RhoEstimate,
    extremal_norm,
    quasi_extremal_trajectory,
    rho_curve,
    rho_estimate,
    rho_lower,
    rho_upper,
)

__version__ = "0.1.0"
