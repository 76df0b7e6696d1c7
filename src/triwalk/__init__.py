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
from .spectral import (
    DEFAULT_GRID_SIZE,
    DispersionPoint,
    EigenSystem,
    OscillatoryKernels,
    QuadratureGrid,
    RemainderMatrix,
    SingularMomentumError,
    default_grid,
    dispersion,
    eigensystem,
    fourier_operator,
    j_kernel,
    k_kernel,
    oscillatory_kernels,
    oscillatory_remainder,
    remainder_matrix,
    stationary_component_integral,
    wavefunction,
)
from .stationary import (
    GEOMETRIC_RATIO,
    GeometricKernel,
    limit_amplitude,
    limit_component,
    limit_probability,
    stationary_profile,
    total_mass,
)
from .timeavg import (
    EigenvalueGroup,
    MomentumBlock,
    cycle_time_average,
    eigenvalue_groups,
    infinite_time_average_component,
    infinite_time_average_total,
    momentum_blocks,
)
from .walk import (
    ChiralVector,
    CycleState,
    Distribution,
    LineState,
    QubitState,
    SiteProbability,
    coin_matrix,
    distribution,
    evolve_cycle,
    evolve_line,
    initial_cycle_state,
    initial_line_state,
    projector_matrices,
    step_cycle,
    step_line,
)
from .weaklimit import (
    HADAMARD_EDGE,
    SUPPORT_EDGE,
    EmpiricalRescaled,
    LimitDensity,
    cdf_distance,
    continuous_mass,
    density,
    empirical_rescaled,
    hadamard_density,
    hadamard_mass,
    limit_cdf,
    limit_density,
    localization_mass,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "walk",
    "spectral",
    "stationary",
    "timeavg",
    "weaklimit",
    "QubitState",
    "ChiralVector",
    "LineState",
    "CycleState",
    "Distribution",
    "SiteProbability",
    "coin_matrix",
    "projector_matrices",
    "initial_line_state",
    "step_line",
    "evolve_line",
    "initial_cycle_state",
    "step_cycle",
    "evolve_cycle",
    "distribution",
    "DEFAULT_GRID_SIZE",
    "SingularMomentumError",
    "DispersionPoint",
    "EigenSystem",
    "QuadratureGrid",
    "OscillatoryKernels",
    "RemainderMatrix",
    "dispersion",
    "fourier_operator",
    "eigensystem",
    "default_grid",
    "wavefunction",
    "stationary_component_integral",
    "j_kernel",
    "k_kernel",
    "oscillatory_kernels",
    "remainder_matrix",
    "oscillatory_remainder",
    "GEOMETRIC_RATIO",
    "GeometricKernel",
    "limit_amplitude",
    "limit_component",
    "limit_probability",
    "total_mass",
    "stationary_profile",
    "MomentumBlock",
    "EigenvalueGroup",
    "momentum_blocks",
    "eigenvalue_groups",
    "cycle_time_average",
    "infinite_time_average_component",
    "infinite_time_average_total",
    "SUPPORT_EDGE",
    "HADAMARD_EDGE",
    "LimitDensity",
    "EmpiricalRescaled",
    "density",
    "continuous_mass",
    "hadamard_density",
    "hadamard_mass",
    "localization_mass",
    "limit_cdf",
    "limit_density",
    "empirical_rescaled",
    "cdf_distance",
]
