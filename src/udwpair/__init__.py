"""Joint state of two Gaussian-switched Unruh-DeWitt detectors in flat
spacetimes with nontrivial spatial topology.

Closed-form density-matrix elements (Minkowski space, cylinder, twisted
cylinder via the method of images), entanglement harvesting and correlation
measures, and an independent distributional-quadrature oracle that verifies
every closed form.

The package namespace holds the documented API: the one-point elements
:func:`elements_for` and the measures on its state, the one-point
quadrature oracles :func:`oracle_a`, :func:`oracle_x` and :func:`oracle_c`
that ``verify`` runs, the sweep entry points with their configuration
types, and every exception and warning class.  Everything else is imported
from its submodule.
"""

from .elements import (
    DetectorParams,
    XStateAB,
    assemble_density_matrix,
    elements_for,
)
from .entanglement import xstate_measures
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    GeometryError,
    InvalidStateError,
    PositivityError,
    TruncationWarning,
    UdwError,
)
from .geometry import (
    Topology,
    TopologyKind,
    WorldlinePair,
)
from .sweep import (
    GridAxis,
    SweepConfig,
    run_difference_map,
    run_sweep,
    run_verification,
)
from .wightman import (
    oracle_a,
    oracle_c,
    oracle_x,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # elements
    "DetectorParams",
    "XStateAB",
    "assemble_density_matrix",
    "elements_for",
    # entanglement
    "xstate_measures",
    # errors
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "GeometryError",
    "InvalidStateError",
    "PositivityError",
    "TruncationWarning",
    "UdwError",
    # geometry
    "Topology",
    "TopologyKind",
    "WorldlinePair",
    # sweeps
    "GridAxis",
    "SweepConfig",
    "run_difference_map",
    "run_sweep",
    "run_verification",
    # oracle
    "oracle_a",
    "oracle_c",
    "oracle_x",
]
