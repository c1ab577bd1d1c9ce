"""Joint state of two Gaussian-switched Unruh-DeWitt detectors in flat
spacetimes with nontrivial spatial topology.

Closed-form density-matrix elements (Minkowski space, cylinder, twisted
cylinder via the method of images), entanglement harvesting and correlation
measures, and an independent distributional-quadrature oracle that verifies
every closed form.
"""

from .elements import (
    DetectorParams,
    XStateAB,
    assemble_density_matrix,
    elements_cylinder,
    elements_for,
    elements_minkowski,
    elements_twisted,
    exchange_coefficient,
    joint_excitation,
    nonlocal_coefficient,
    self_excitation_coefficient,
)
from .entanglement import (
    Correlation,
    EntanglementOfFormation,
    EntanglementReport,
    concurrence_exact,
    correlation,
    entanglement_of_formation,
    negativity_exact,
    partial_transpose_a,
    xstate_entanglement,
    xstate_measures,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    GeometryError,
    InvalidStateError,
    PositivityError,
    RangeOverflowError,
    StateConsistencyWarning,
    TruncationWarning,
    UdwError,
)
from .geometry import (
    Topology,
    TopologyKind,
    WorldlinePair,
    effective_ell_twisted,
    image_separation,
    separation,
    worldlines_from_orientation,
)
from .special import (
    dawson,
    erfc_real,
    phase_scaled_erf,
)
from .sweep import (
    GridAxis,
    SweepConfig,
    VerificationReport,
    run_difference_map,
    run_sweep,
    run_verification,
)
from .wightman import (
    IepsEstimate,
    oracle_a,
    oracle_c,
    oracle_ieps,
    oracle_x,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # elements
    "DetectorParams",
    "XStateAB",
    "assemble_density_matrix",
    "elements_cylinder",
    "elements_for",
    "elements_minkowski",
    "elements_twisted",
    "exchange_coefficient",
    "joint_excitation",
    "nonlocal_coefficient",
    "self_excitation_coefficient",
    # entanglement
    "Correlation",
    "EntanglementOfFormation",
    "EntanglementReport",
    "concurrence_exact",
    "correlation",
    "entanglement_of_formation",
    "negativity_exact",
    "partial_transpose_a",
    "xstate_entanglement",
    "xstate_measures",
    # errors
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "GeometryError",
    "InvalidStateError",
    "PositivityError",
    "RangeOverflowError",
    "StateConsistencyWarning",
    "TruncationWarning",
    "UdwError",
    # geometry
    "Topology",
    "TopologyKind",
    "WorldlinePair",
    "effective_ell_twisted",
    "image_separation",
    "separation",
    "worldlines_from_orientation",
    # special functions
    "dawson",
    "erfc_real",
    "phase_scaled_erf",
    # sweeps
    "GridAxis",
    "SweepConfig",
    "VerificationReport",
    "run_difference_map",
    "run_sweep",
    "run_verification",
    # oracle
    "IepsEstimate",
    "oracle_a",
    "oracle_c",
    "oracle_ieps",
    "oracle_x",
]
