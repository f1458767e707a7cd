"""Theorem-level observables: free energies, the backward-kernel density Phi,
its monotonicity margin, and virial slopes.

All functions here are pure readers of fields or trajectories.

The radial free energy and relative entropy are written once, as row-wise
passes over radial values stacked (profiles x nodes): every elementwise step
and every reduction works along the last axis, and each row is summed in
the order of its own 1D sum, so a row's result keeps the bits of the same
profile evaluated alone.  :func:`free_energy_2d` and
:func:`relative_entropy` evaluate one field as one row.  A trajectory's
diagnostics (its records' free energies, and :func:`diagnostics_csv`'s
relative entropies) are evaluated ``RECORD_BLOCK`` records at a time over
the trajectory's stacked values, so the temporaries of a pass hold a few
blocks of rows, not a few copies of the run.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .fields import RadialField, moments, quadrature_weights, total_mass
from .grids import radial_measure_weights
from .potential import cartesian_potential_2d, radial_gradient_rows, radial_potential_rows
from .profiles import EIGHT_PI
from .semigroup import (gaussian_values, kernel_rows, nonlinearity_weight,
                        scaled_sphere_average)

# Floor inside logarithms; w log w -> 0 as w -> 0 so the clipped cells are
# exactly the ones whose contribution is negligible.
LOG_FLOOR = 1e-300

# records whose diagnostics are evaluated together: the block bounds the
# temporaries of the row-wise passes, so their memory does not grow with
# the number of records
RECORD_BLOCK = 16


def record_blocks(count):
    """Slices of at most ``RECORD_BLOCK`` consecutive records covering ``count``."""
    return [slice(start, start + RECORD_BLOCK) for start in range(0, count, RECORD_BLOCK)]


@dataclass(frozen=True)
class FreeEnergyResult:
    """2D free energy split into its three terms.

    ``gauge_shift`` is the canonical potential's value at the origin, i.e. the
    additive constant an origin-gauged potential would discard; the reported
    ``value`` always uses the canonical log kernel so that same-mass
    comparisons are gauge-consistent.
    """

    value: float
    entropy_term: float
    moment_term: float
    interaction_term: float
    gauge_shift: float


@dataclass(frozen=True)
class RelativeEntropyResult:
    value: float
    entropy_part: float


def _entropy_integral(values, weights, reference=None, axis=None):
    """int w log(w / reference) (int w log w without one), reduced over
    ``axis``."""
    w = values
    if reference is None:
        integrand = np.where(w > 0.0, w * np.log(np.maximum(w, LOG_FLOOR)), 0.0)
    else:
        integrand = np.where(
            w > 0.0,
            w * np.log(np.maximum(w, LOG_FLOOR) / np.maximum(reference, LOG_FLOOR)),
            0.0,
        )
    return np.sum(weights * integrand, axis=axis)


def _free_energy_terms(values, weights, second, potential, axis=None):
    """(value, entropy, moment term, interaction) of the 2D free energy of
    ``values`` with second moment ``second`` and potential ``potential``,
    reduced over ``axis``."""
    entropy = _entropy_integral(values, weights, axis=axis)
    moment_term = 0.25 * second
    interaction = 0.5 * np.sum(weights * values * potential, axis=axis)
    return entropy + moment_term - interaction, entropy, moment_term, interaction


def free_energy_2d_rows(nodes, rows, weights, second):
    """The free energy of :func:`free_energy_2d` of each row of 2D radial
    values ``rows`` on ``nodes``, given their measure ``weights`` and second
    moments ``second``."""
    potential = radial_potential_rows(nodes, 2, rows)
    return _free_energy_terms(rows, weights, second, potential, axis=-1)[0]


def free_energy_2d(field):
    """The 2D similarity free energy: entropy + confinement - interaction."""
    if field.dim != 2:
        raise InvalidParameter("free_energy_2d is defined for 2D fields")
    mom = moments(field)
    if isinstance(field, RadialField):
        v = radial_potential_rows(field.nodes, 2, field.values)
        gauge_shift = float(v[0])
    else:
        v = cartesian_potential_2d(field)
        center = field.size // 2
        gauge_shift = float(v[center, center])
    value, entropy, moment_term, interaction = (float(term) for term in _free_energy_terms(
        field.values, quadrature_weights(field), mom.second_moment, v))
    return FreeEnergyResult(
        value=value,
        entropy_term=entropy,
        moment_term=moment_term,
        interaction_term=interaction,
        gauge_shift=gauge_shift,
    )


def relative_entropy_rows(nodes, dim, rows, masses, taus):
    """The ``value`` of :func:`relative_entropy` of each row of radial values
    ``rows`` on ``nodes``, given the rows' masses and similarity times."""
    weights = radial_measure_weights(nodes, dim)
    gauss = gaussian_values(dim, nodes)
    energy = np.sum(weights * radial_gradient_rows(nodes, dim, rows) ** 2, axis=-1)
    entropy_vs_gauss = _entropy_integral(rows, weights, reference=gauss, axis=-1)
    # per row, with the scalar exp and log of the 1D formula
    half_weight = np.array([0.5 * nonlinearity_weight(dim, tau) for tau in taus])
    mass_log_mass = np.array([m * math.log(m) if m > 0 else 0.0 for m in masses])
    return entropy_vs_gauss + half_weight * energy - mass_log_mass


def relative_entropy(field, tau=0.0):
    """Similarity-variable free energy of a radial field against the Gaussian.

    Returns the full functional (entropy against G_n plus the f_n-weighted
    field energy minus M log M) together with the entropy-only part
    int w log(w / (M G_n)), which is nonnegative and vanishes only at M G_n.
    For n = 2 the field energy carries the grid cutoff (the integrand decays
    like 1/r only); callers interested in sharp values use n >= 3.
    """
    if not isinstance(field, RadialField):
        raise InvalidParameter("relative_entropy is implemented for radial fields")
    n = field.dim
    mass = total_mass(field)
    value = relative_entropy_rows(field.nodes, n, field.values[None], [mass], [tau])[0]
    gauss = gaussian_values(n, field.nodes)
    entropy_part = _entropy_integral(
        field.values, field.measure_weights(), reference=mass * gauss if mass > 0 else gauss
    )
    return RelativeEntropyResult(value=float(value), entropy_part=float(entropy_part))


# ---------------------------------------------------------------------------
# backward-heat-kernel density Phi and its monotonicity margin
# ---------------------------------------------------------------------------

def phi_density(trajectory, z1, rho):
    """(4 pi)^{-n/2} rho^{2-n} int u(y, s1 - rho^2) exp(-|y-y0|^2/(4 rho^2)) dy.

    ``z1`` is the pair (y0, s1) for a radial trajectory; y0 is a scalar
    offset or a vector, of which only the length enters.  The trajectory
    field is interpolated in log-time between records.
    """
    y0, s1 = z1
    s = s1 - rho * rho
    field = trajectory.field_at(s)  # raises OutOfRange when s is outside
    if not isinstance(field, RadialField):
        raise InvalidParameter("phi_density is implemented for radial trajectories")
    n = field.dim
    # the heat kernel of width rho^2 at radius |y0|, times rho^2
    d = float(np.linalg.norm(np.atleast_1d(np.asarray(y0, dtype=float))))
    w = radial_measure_weights(field.nodes, n)
    cols, _, _, gauss, z = kernel_rows(field.nodes, n, d, [rho * rho])
    kern = gauss * scaled_sphere_average(n, z)
    return rho * rho * float(np.sum(w[cols] * field.values[cols] * kern))


def phi_scan(trajectory, z1, rho_grid):
    """Phi, its rho-derivative, and the monotonicity margin on a rho grid.

    The margin is dPhi/drho - (1 - M/(8 pi)) (2/rho) Phi (nonnegative in the
    continuum for subcritical 2D runs).  Derivatives are second-order central
    differences on the given, possibly nonuniform, grid.
    """
    rho = np.asarray(rho_grid, dtype=float)
    if rho.size < 3:
        raise InvalidParameter("need at least 3 rho values")
    phi = np.array([phi_density(trajectory, z1, p) for p in rho])
    mass = trajectory.records[0].moments.mass
    dphi = np.empty_like(phi)
    h_lo = rho[1:-1] - rho[:-2]
    h_hi = rho[2:] - rho[1:-1]
    dphi[1:-1] = (
        phi[2:] * h_lo / (h_hi * (h_lo + h_hi))
        - phi[:-2] * h_hi / (h_lo * (h_lo + h_hi))
        + phi[1:-1] * (h_hi - h_lo) / (h_lo * h_hi)
    )
    dphi[0] = (phi[1] - phi[0]) / (rho[1] - rho[0])
    dphi[-1] = (phi[-1] - phi[-2]) / (rho[-1] - rho[-2])
    margin = dphi - (1.0 - mass / EIGHT_PI) * 2.0 / rho * phi
    return rho, phi, margin


def rho_grid_from_records(trajectory, s1, rho_min, rho_max):
    """rho values for which s1 - rho^2 hits record times exactly (no time
    interpolation error in the subsequent Phi scan)."""
    times = trajectory.times()
    s_vals = times[(times <= s1 - rho_min**2) & (times >= s1 - rho_max**2)]
    rho = np.sqrt(s1 - s_vals)
    return np.sort(rho)


def virial_slope(trajectory):
    """Least-squares slope of the second moment over the trajectory."""
    t = trajectory.times()
    m2 = trajectory.second_moments()
    if t.size < 2:
        raise InvalidParameter("need at least two records for a virial slope")
    coeffs = np.polyfit(t, m2, 1)
    return float(coeffs[0])


def virial_prediction_2d(mass):
    """The exact 2D law d/dt int u |x|^2 = 4 M (1 - M / (8 pi))."""
    return 4.0 * mass * (1.0 - mass / EIGHT_PI)


def record_row(rec):
    """The per-record CSV fields both trajectory tables start with: t, mass,
    second moment, sup norm, L1 distance to the reference, free energy."""
    return ",".join(f"{value:.17g}" for value in (
        rec.time, rec.moments.mass, rec.moments.second_moment, rec.sup_norm,
        rec.l1_dist_to_profile, rec.free_energy))


def diagnostics_csv(trajectory, path):
    """Write the per-record diagnostics table; the virial slope is the
    running central difference of the second moment."""
    recs = trajectory.records
    t = trajectory.times()
    m2 = trajectory.second_moments()
    rel_ent = np.full(len(recs), math.nan)
    first = recs[0].field
    if isinstance(first, RadialField):
        physical = trajectory.kind == "physical"
        taus = np.array([math.log(time) if physical and time > 0 else time for time in t])
        masses, stacked = trajectory.masses(), trajectory.stacked_values()
        for block in record_blocks(len(recs)):
            rel_ent[block] = relative_entropy_rows(first.nodes, first.dim, stacked[block],
                                                   masses[block], taus[block])
    rows = []
    for k, rec in enumerate(recs):
        lo = max(0, k - 1)
        hi = min(len(recs) - 1, k + 1)
        slope = (
            (m2[hi] - m2[lo]) / (t[hi] - t[lo]) if t[hi] > t[lo] else math.nan
        )
        rows.append(f"{record_row(rec)},{rel_ent[k]:.17g},{slope:.17g}\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(
            "t,mass,second_moment,sup_norm,l1_dist_to_profile,"
            "free_energy_2d,relative_entropy,virial_slope_running\n"
        )
        fh.writelines(rows)


def phi_scan_csv(trajectory, z1, rho_grid, path):
    rho, phi, margin = phi_scan(trajectory, z1, rho_grid)
    with open(path, "w", newline="\n") as fh:
        fh.write("rho,phi,margin\n")
        for a, b, c in zip(rho, phi, margin):
            fh.write(f"{a:.17g},{b:.17g},{c:.17g}\n")
