"""Closed-form Gaussian profiles and the 2D self-similar profile G_M.

The stationary similarity equation in 2D integrates once exactly to
U = A exp(-r^2/4 + V(r)) with V the (origin-gauged) log potential of U, so
G_M is computed as a damped fixed point of that first-integral map with the
amplitude A pinned by the mass constraint.  Every iterate is positive by
construction; the map loses contraction as M approaches the 8 pi threshold.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FixedPointStalled, InvalidParameter, SupercriticalMass
from .fields import RadialField
from .grids import radial_grid, radial_laplacian, radial_measure_weights, radial_derivatives
from .potential import radial_gradient, radial_potential
from .semigroup import gaussian_values

EIGHT_PI = 8.0 * math.pi


@dataclass(frozen=True)
class ProfileResult:
    """Converged stationary profile plus solver telemetry."""

    field: RadialField
    mass: float
    residual: float
    iterations: int


def gaussian_profile(dim, mass, grid=None):
    """M * G_n sampled on a radial grid (the default grid when grid is None)."""
    if mass < 0:
        raise InvalidParameter("mass must be nonnegative")
    nodes = radial_grid() if grid is None else np.asarray(grid, dtype=float)
    return RadialField(dim=dim, nodes=nodes, values=mass * gaussian_values(dim, nodes))


def self_similar_profile_2d(mass, grid=None, max_iter=500):
    """Solve for the mass-M stationary profile of the 2D similarity equation.

    Iterates U_{k+1} = A_k exp(-r^2/4 + V_k), V_k the origin-gauged potential
    of U_k, mixed half and half with U_k, until the L1 update drops below
    1e-10.  Raises SupercriticalMass for M >= 8 pi and FixedPointStalled when
    the budget is exhausted.
    """
    if mass < 0:
        raise InvalidParameter("mass must be nonnegative")
    if mass >= EIGHT_PI:
        raise SupercriticalMass(
            f"no finite-free-energy stationary profile at mass {mass:.6g} >= 8 pi"
        )
    nodes = radial_grid() if grid is None else np.asarray(grid, dtype=float)
    if mass == 0.0:
        zero = RadialField(dim=2, nodes=nodes, values=np.zeros_like(nodes))
        return ProfileResult(field=zero, mass=0.0, residual=0.0, iterations=0)
    w = radial_measure_weights(nodes, 2)
    values = mass * gaussian_values(2, nodes)
    for iterations in range(1, max_iter + 1):
        field = RadialField(dim=2, nodes=nodes, values=values)
        v = radial_potential(field, gauge="origin", order=4)
        candidate = np.exp(-nodes**2 / 4.0 + v)
        candidate *= mass / float(np.sum(w * candidate))
        update = float(np.sum(w * np.abs(candidate - values)))
        values = 0.5 * values + 0.5 * candidate
        if update <= 1e-10:
            break
    else:
        raise FixedPointStalled(
            f"profile iteration did not converge in {max_iter} steps at mass {mass:.6g}"
        )
    values *= mass / float(np.sum(w * values))
    field = RadialField(dim=2, nodes=nodes, values=values)
    return ProfileResult(
        field=field,
        mass=mass,
        residual=stationary_residual(field),
        iterations=iterations,
    )


def stationary_residual(field):
    """Weighted-L2 residual of the 2D stationary similarity equation.

    Evaluates Lap U + U + r U'/2 - div(U grad V) by spline-based finite
    differences, with div(U grad V) = U'V' - U^2 (the potential solves
    -Lap V = U exactly at the Gauss-law level), and integrates |residual|^2
    against the Gaussian-inverse weight G_2^{-1} up to r = 20.  The
    enclosed mass behind V' uses the 4th-order cumulative rule so that the
    derivative noise floor sits well below the convergence target.
    """
    if field.dim != 2:
        raise InvalidParameter("the stationary residual is a 2D diagnostic")
    nodes = field.nodes
    u = field.values
    d1, _ = radial_derivatives(nodes, u)
    lap = radial_laplacian(nodes, u, 2)
    vprime = radial_gradient(field, order=4)
    residual = lap + u + 0.5 * nodes * d1 - (d1 * vprime - u * u)
    w = radial_measure_weights(nodes, 2)
    inv_gauss = np.exp(nodes**2 / 4.0) * (4.0 * math.pi)
    mask = nodes <= 20.0
    return float(math.sqrt(np.sum((w * residual**2 * inv_gauss)[mask])))
