"""Numerical laboratory for the parabolic-elliptic chemotaxis equation.

The package simulates the aggregation-diffusion flow in dimensions 2-5 and
measures its long-time behaviour against the known self-similar asymptotics:
the 8 pi mass threshold and stationary profile in 2D, Gaussian attraction at
explicit rates in higher dimensions, and the quadrature-defined constants of
the log-corrected expansion terms.
"""

from . import asymptotics, diagnostics, evolution, fields, grids, potential, profiles, semigroup
from .asymptotics import (
    constant_c1,
    constant_c1_monte_carlo,
    constant_c2,
    constant_c2_oracle,
    expansion,
    fit_rate,
    w_function,
    w_star,
    w_star_quadrature,
)
from .diagnostics import (
    free_energy_2d,
    phi_density,
    relative_entropy,
    virial_prediction_2d,
    virial_slope,
)
from .evolution import (
    SolverConfig,
    Trajectory,
    duhamel_residual,
    evolve,
    evolve_similarity,
)
from .fields import (
    CartesianField2D,
    MomentSet,
    RadialField,
    SimilarityState,
    from_similarity,
    l1_distance,
    lp_norm,
    moments,
    to_similarity,
    total_mass,
)
from .potential import (
    cartesian_gradient_2d,
    radial_gradient,
    radial_potential,
    sup_gradient_bound_check,
)
from .profiles import (
    gaussian_profile,
    self_similar_profile_2d,
    stationary_residual,
)
from .semigroup import (
    first_order_heat_expansion,
    heat_evolve,
    kernel_taylor_terms,
    similarity_semigroup,
)

__version__ = "0.1.0"
