"""Simulation and verification toolkit for the three-state quantum walk.

The walk moves on the integer line (or an odd cycle) with a three-component
internal state and a Grover-type coin. Unlike the two-state Hadamard walk it
localizes: part of the probability stays trapped near the origin forever.
This package evolves the walk exactly, evaluates every closed form tied to
that localization (stationary profile, time-averaged cycle probabilities,
weak-limit density with its point mass, oscillatory remainder kernels), and
cross-checks simulation against closed form.

Submodules
----------
walk
    State model and direct evolution on the line and on cycles.
spectral
    Momentum-space eigensystem, quadrature wavefunction, oscillatory kernels.
stationary
    Closed-form localized profile and its exact totals.
timeavg
    Cesaro time averages on cycles and their infinite-size closed forms.
weaklimit
    Rescaled-position limit density, CDF, and empirical comparison.
cli
    The ``triwalk`` command-line front end.
"""

from . import spectral, stationary, timeavg, walk, weaklimit
from .spectral import *  # noqa: F403
from .stationary import *  # noqa: F403
from .timeavg import *  # noqa: F403
from .walk import *  # noqa: F403
from .weaklimit import *  # noqa: F403

__version__ = "0.1.0"

# Each submodule's ``__all__`` is the one list of its public names.
__all__ = [
    "__version__",
    "walk",
    "spectral",
    "stationary",
    "timeavg",
    "weaklimit",
    *walk.__all__,
    *spectral.__all__,
    *stationary.__all__,
    *timeavg.__all__,
    *weaklimit.__all__,
]
