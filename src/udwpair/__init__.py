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

Importing the package loads no numpy: the exception classes and the
configuration types (:mod:`udwpair.config`) are bound at import, and each
other name of ``__all__`` imports its home module at its first access
(PEP 562 ``__getattr__``).
"""

import importlib

from .config import (
    GridAxis,
    SweepConfig,
    TopologyKind,
)
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

#: the numpy-backed names of ``__all__`` -> their home submodule
_LAZY = {
    # elements
    "DetectorParams": "elements",
    "XStateAB": "elements",
    "assemble_density_matrix": "entanglement",
    "elements_for": "elements",
    # entanglement
    "xstate_measures": "entanglement",
    # geometry
    "Topology": "geometry",
    "WorldlinePair": "geometry",
    # sweeps
    "run_difference_map": "sweep",
    "run_sweep": "sweep",
    "run_verification": "sweep",
    # oracle
    "oracle_a": "wightman",
    "oracle_c": "wightman",
    "oracle_x": "wightman",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "__version__",
    # config
    "GridAxis",
    "SweepConfig",
    "TopologyKind",
    # errors
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "GeometryError",
    "InvalidStateError",
    "PositivityError",
    "TruncationWarning",
    "UdwError",
]
__all__ += _LAZY
