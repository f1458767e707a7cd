"""Time integration of the chemotaxis equation in physical and similarity
variables, plus a mild-solution (Duhamel) residual verifier.

The integrator is a Strang splitting: an exact kernel substep (free heat
kernel in physical variables; the full drift-diffusion semigroup S_n in
similarity variables) wrapped around a conservative finite-volume advection
substep driven by the Gauss-law velocity.  The kernel substep conserves the
discrete mass to rounding.  Radial advection does not yet: the r = 0 node is
updated with its own volume while its trapezoid weight is zero, so mass leaks
through the first face.  For M = 4 pi on rmax 80 the leak is -1.2e-4,
-7.6e-6 and -1.8e-9 per unit time at 96, 192 and 1536 nodes (ROADMAP item 2).

The geometry and the kind of run fix the advection scheme and the clamp
tolerance; neither is a setting, and each trajectory records the pair used.
Radial physical runs use limited second-order (MUSCL) fluxes, which stay
positivity-preserving near blow-up without the heavy numerical diffusion of
plain upwinding.  Radial similarity runs relax to smooth strictly positive
profiles, where the limiter would cost accuracy at the peak, and use central
fluxes.  Both clamp at 1e-12.  2D Cartesian runs use dealiased pseudo-spectral
fluxes and clamp at 3e-8, which admits their ringing below zero in the nearly
empty far field.  The clamp zeroes negative samples no deeper than the
tolerance times the run's peak, restoring the mass, and rejects the step
otherwise.

Both geometries share one stepper contract: ``advection_rhs(values, weight)``
returns the flux divergence and ``cfl_limit(values)`` the unweighted advective
step bound, read from the velocity alone; the velocity is linear in the
similarity weight, so callers divide the limit by it.  The driver evaluates
the limit once per step, on the values the step starts from, and the first
step of a record interval sizes the interval's dt from that same value.

The radial stepper builds everything that depends only on the nodes and the
dimension once: the shell factor, the half spacings of the cumulative
trapezoid, the MUSCL face offsets and the divisors of the flux divergence.
A step then costs a few dozen passes over arrays of the grid's size, and
every operation keeps the order and rounding of the plain formulas, so the
results are bit-identical to computing them afresh.
"""

import json
import math
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np
import scipy
from scipy.fft import irfft2, rfft2

from .errors import (
    InsufficientSampling,
    InvalidParameter,
    OutOfRange,
    PKSError,
    StepRejected,
    StiffnessFailure,
)
from . import diagnostics as _diagnostics
from .fields import (CartesianField2D, RadialField, gaussian_cartesian, gaussian_radial,
                     lp_norm, moments, total_mass)
from .grids import SPHERE_AREA, radial_measure_weights
from .potential import cartesian_gradient_2d, check_boundary_decay, radial_gradient
from .semigroup import (
    _radial_propagator,
    kernel_row,
    kernel_width_shrink,
    line_propagator,
    nonlinearity_weight,
    scaled_sphere_average,
    scaled_sphere_average_cos,
)

CFL_SAFETY = 0.45  # fraction of the advective CFL bound a step may take
MAX_STEPS = 5_000_000

# the run kind each SolverConfig.reference can be computed for
REFERENCES = {"m_gamma_t": "physical", "profile": "similarity"}


@dataclass(frozen=True)
class SolverConfig:
    """Settings of a time-integration run.

    The advection scheme and the clamp tolerance are not settings: the
    geometry and the kind of run fix them (see the module docstring), and
    the :class:`Trajectory` records the pair used.  ``reference`` names the
    field each record's ``l1_dist_to_profile`` is measured against:
    ``m_gamma_t`` (the mass-M heat kernel) in physical runs, ``profile`` (the
    ``reference_field`` passed in) in similarity runs.
    """

    t_end: float = 10.0
    t_init: float = 1.0
    nonlinearity: bool = True
    records_per_decade: int = 32
    record_times: tuple = ()  # explicit schedule overriding the log spacing
    blowup_factor: float = 1e6
    dt_min: float = 1e-12
    reference: str = ""  # "", "m_gamma_t" or "profile"


@dataclass(frozen=True)
class TrajectoryRecord:
    time: float
    field: object
    moments: object
    sup_norm: float
    free_energy: float
    l1_dist_to_profile: float


@dataclass
class Trajectory:
    """Time-ordered run records plus the configuration, advection scheme and
    clamp tolerance that produced them."""

    dim: int
    kind: str  # "physical" or "similarity"
    config: SolverConfig
    scheme: str  # advection scheme: muscl | central | pseudo-spectral
    clamp_tolerance: float
    records: list = dataclass_field(default_factory=list)
    termination: str = "t_end"  # t_end | sup_growth | dt_collapse
    blowup_time: float = math.nan

    @property
    def blowup(self):
        return self.termination != "t_end"

    def times(self):
        return np.array([rec.time for rec in self.records])

    def masses(self):
        return np.array([rec.moments.mass for rec in self.records])

    def second_moments(self):
        return np.array([rec.moments.second_moment for rec in self.records])

    def sup_norms(self):
        return np.array([rec.sup_norm for rec in self.records])

    def l1_errors(self):
        return np.array([rec.l1_dist_to_profile for rec in self.records])

    def mass_drift(self):
        m = self.masses()
        return float(np.abs(np.diff(m)).max() / max(m[0], 1e-300)) if m.size > 1 else 0.0

    def field_at(self, t):
        """Field values interpolated linearly in log-time between records."""
        times = self.times()
        if not times[0] <= t <= times[-1]:
            raise OutOfRange(f"time {t} outside recorded range [{times[0]}, {times[-1]}]")
        idx = int(np.searchsorted(times, t))
        if idx == 0 or times[idx - 1] == t:
            idx = max(idx, 1)
        lo, hi = self.records[idx - 1], self.records[min(idx, len(self.records) - 1)]
        if hi.time == lo.time:
            return lo.field
        if self.kind == "physical" and lo.time > 0:
            w = (math.log(t) - math.log(lo.time)) / (math.log(hi.time) - math.log(lo.time))
        else:
            w = (t - lo.time) / (hi.time - lo.time)
        values = (1.0 - w) * lo.field.values + w * hi.field.values
        return lo.field.with_values(values, nonnegative=False)


# ---------------------------------------------------------------------------
# radial advection machinery
# ---------------------------------------------------------------------------

def _minmod_adjacent(d):
    """minmod(d[:-1], d[1:]): the smaller of each pair of neighbouring slopes
    when they share a sign, else 0.  Each slope's sign and size is taken once."""
    sign, size = np.sign(d), np.abs(d)
    return np.where(sign[:-1] == sign[1:], np.where(size[:-1] < size[1:], d[:-1], d[1:]), 0.0)


class _Stepper:
    """The contract of the module docstring plus ``diffuse(values, dt)``,
    ``weights`` (quadrature weights; None for uniform cells), and the
    ``scheme`` and ``clamp_tolerance`` the stepper runs with."""

    def advect(self, values, dt, weight):
        k1 = self.advection_rhs(values, weight)
        k2 = self.advection_rhs(values + dt * k1, weight)
        return values + 0.5 * dt * (k1 + k2)


class _RadialStepper(_Stepper):
    clamp_tolerance = 1e-12

    def __init__(self, grid_nodes, dim, kind):
        self.nodes = grid_nodes
        self.dim = dim
        self.kind = kind
        self.scheme = "muscl" if kind == "physical" else "central"
        self.weights = radial_measure_weights(grid_nodes, dim)
        self.faces = 0.5 * (grid_nodes[1:] + grid_nodes[:-1])
        self.face_area = SPHERE_AREA[dim] * self.faces ** (dim - 1)
        self.dr = np.diff(grid_nodes)
        # the r = 0 node carries zero trapezoid measure; update it as the
        # finite-volume average over the ball inside the first face instead
        self.origin_volume = SPHERE_AREA[dim] / dim * self.faces[0] ** dim
        # Everything below depends on the nodes and the dimension alone, so a
        # step reads it instead of recomputing it.  Divisors keep the sign of
        # the quotient they produce: -x / w and x / -w round identically,
        # where a precomputed reciprocal would not.
        self._shell = SPHERE_AREA[dim] * grid_nodes ** (dim - 1)
        self._half_dr = 0.5 * self.dr
        self._left_offset = self.faces - grid_nodes[:-1]
        self._right_offset = self.faces - grid_nodes[1:]
        self._neg_face_area = -self.face_area
        w0 = self.weights[0] if self.weights[0] > 0.0 else self.origin_volume
        self._neg_origin_weight = -w0
        self._neg_inner_weights = -self.weights[1:-1]
        self._last_weight = self.weights[-1]

    def face_velocity(self, values):
        """Gauss-law radial velocity V'(r) at the cell faces: minus the mean
        of the enclosed shell mass at the two nodes, over the face area."""
        # the cumulative trapezoid sums of grids.cumulative_shell_mass
        g = self._shell * values
        m = np.empty_like(g)
        m[0] = 0.0
        (self._half_dr * (g[1:] + g[:-1])).cumsum(out=m[1:])
        m_face = m[1:] + m[:-1]
        m_face *= 0.5
        m_face /= self._neg_face_area
        return m_face

    def advection_rhs(self, values, weight):
        v = self.face_velocity(values)
        v *= weight
        if self.scheme == "central":
            u_face = values[1:] + values[:-1]
            u_face *= 0.5
        else:
            slopes = np.empty_like(values)
            slopes[0] = slopes[-1] = 0.0
            slopes[1:-1] = _minmod_adjacent((values[1:] - values[:-1]) / self.dr)
            left = values[:-1] + slopes[:-1] * self._left_offset
            right = values[1:] + slopes[1:] * self._right_offset
            u_face = np.where(v >= 0.0, left, right)
        # the face flux times the face area
        u_face *= v
        u_face *= self.face_area
        rhs = np.empty_like(values)
        rhs[0] = u_face[0] / self._neg_origin_weight
        np.divide(u_face[1:] - u_face[:-1], self._neg_inner_weights, out=rhs[1:-1])
        rhs[-1] = u_face[-1] / self._last_weight
        return rhs

    def cfl_limit(self, values):
        # a face at rest bounds nothing: its quotient is infinite, and so is
        # the limit when the whole field is at rest
        with np.errstate(divide="ignore"):
            ratio = self.dr / self.face_velocity(values)
        return CFL_SAFETY * float(np.abs(ratio, out=ratio).min())

    def diffuse(self, values, dt):
        a, shrink = (dt, 1.0) if self.kind == "physical" else kernel_width_shrink(dt)
        mat = _radial_propagator(self.nodes, self.dim, a, shrink)
        return mat @ values


class _CartesianStepper(_Stepper):
    weights = None  # uniform cells: the plain sample sum is the mass
    scheme = "pseudo-spectral"
    clamp_tolerance = 3e-8

    def __init__(self, grid, kind):
        self.grid = grid
        self.kind = kind
        n, h = grid.size, grid.spacing
        # the rfft2 half spectrum: full frequencies on axis 0, non-negative on axis 1
        k1 = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
        self.kx = k1[:, None]
        self.ky = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)[None, :]
        kmax = np.abs(k1).max()
        self.dealias = (np.abs(self.kx) <= (2.0 / 3.0) * kmax) & (
            np.abs(self.ky) <= (2.0 / 3.0) * kmax
        )
        self.k2 = self.kx**2 + self.ky**2
        self.h = h

    def velocity(self, values):
        """Unweighted Gauss-law velocity, stacked as (vx, vy)."""
        return cartesian_gradient_2d(
            self.grid.with_values(values, nonnegative=False), check_domain=False
        )

    def advection_rhs(self, values, weight):
        vx, vy = weight * self.velocity(values)
        fx_hat = rfft2(values * vx) * self.dealias
        fy_hat = rfft2(values * vy) * self.dealias
        return -irfft2(1j * self.kx * fx_hat + 1j * self.ky * fy_hat, s=values.shape)

    def cfl_limit(self, values):
        vmax = np.abs(self.velocity(values)).max()
        if vmax == 0.0:
            return math.inf
        return CFL_SAFETY * self.h / vmax

    def diffuse(self, values, dt):
        if self.kind == "physical":
            return irfft2(rfft2(values) * np.exp(-self.k2 * dt), s=values.shape)
        k = line_propagator(self.grid.axis(), *kernel_width_shrink(dt))
        return k @ values @ k.T


def _make_stepper(field, kind):
    if isinstance(field, RadialField):
        return _RadialStepper(field.nodes, field.dim, kind)
    return _CartesianStepper(field, kind)


def _clamp(values, tolerance, sup_reference, weights):
    """Zero negative samples no deeper than ``tolerance`` times the peak, then
    rescale to restore the discrete mass sum(weights * values);
    ``weights=None`` means uniform cells."""
    low = values.min()
    if low >= 0.0:
        return values
    tol = tolerance * max(sup_reference, values.max(), 1e-300)
    if low < -tol:
        raise StepRejected(
            f"negative samples ({low:.3e}) beyond the clamp tolerance {tol:.3e}"
        )
    clipped = np.maximum(values, 0.0)
    if weights is None:
        mass, total = values.sum(), clipped.sum()
    else:
        mass, total = np.sum(weights * values), np.sum(weights * clipped)
    if total > 0.0:
        clipped *= mass / total
    return clipped


def _strang_step(stepper, values, dt, weight, config, sup0):
    half = stepper.diffuse(values, 0.5 * dt)
    if config.nonlinearity:
        half = stepper.advect(half, dt, weight)
    out = stepper.diffuse(half, 0.5 * dt)
    return _clamp(out, stepper.clamp_tolerance, sup0, stepper.weights)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _record_schedule(config, kind):
    if config.record_times:
        times = np.asarray(config.record_times, dtype=float)
        if times[0] != config.t_init:
            times = np.concatenate([[config.t_init], times])
        return times
    if kind == "physical":
        if config.t_init <= 0:
            raise InvalidParameter("physical runs need t_init > 0")
        decades = math.log10(config.t_end / config.t_init)
        count = max(2, int(math.ceil(decades * config.records_per_decade)) + 1)
        return np.geomspace(config.t_init, config.t_end, count)
    # similarity time: uniform spacing matching records_per_decade records
    # per decade of t
    dtau = math.log(10.0) / config.records_per_decade
    count = max(2, int(math.ceil((config.t_end - config.t_init) / dtau)) + 1)
    return np.linspace(config.t_init, config.t_end, count)


def _check_reference(config, kind, reference_field):
    ref = config.reference
    if ref and REFERENCES.get(ref) != kind:
        raise InvalidParameter(f"reference {ref!r} cannot be computed in a {kind} run")
    if ref == "profile" and reference_field is None:
        raise InvalidParameter("reference 'profile' needs a reference_field")


def _reference_values(config, field, t, mass, reference_field):
    if config.reference == "m_gamma_t":
        if isinstance(field, RadialField):
            return gaussian_radial(field.dim, mass, field.nodes, t).values
        return gaussian_cartesian(mass, extent=field.extent, size=field.size, t0=t).values
    if config.reference == "profile":
        return reference_field.values
    return None


def _make_record(field, t, config, reference_field, initial_mass):
    mom = moments(field)
    sup = float(np.abs(field.values).max())
    fe = math.nan
    if field.dim == 2 and isinstance(field, RadialField):
        try:
            fe = _diagnostics.free_energy_2d(field).value
        except PKSError:
            pass
    ref = _reference_values(config, field, t, initial_mass, reference_field)
    l1 = math.nan
    if ref is not None:
        diff = field.with_values(field.values - ref, nonnegative=False)
        l1 = lp_norm(diff, 1)
    return TrajectoryRecord(
        time=t, field=field, moments=mom, sup_norm=sup, free_energy=fe,
        l1_dist_to_profile=l1,
    )


def _drive(u0, config, kind, reference_field=None):
    _check_reference(config, kind, reference_field)
    stepper = _make_stepper(u0, kind)
    traj = Trajectory(dim=u0.dim, kind=kind, config=config,
                      scheme=stepper.scheme,
                      clamp_tolerance=stepper.clamp_tolerance)
    schedule = _record_schedule(config, kind)
    if isinstance(u0, CartesianField2D) and config.nonlinearity:
        check_boundary_decay(u0)  # the steps' own solves skip it

    def weight_at(t):
        return nonlinearity_weight(u0.dim, t) if kind == "similarity" else 1.0

    initial_mass = total_mass(u0)
    sup0 = float(u0.values.max())
    traj.records.append(
        _make_record(u0, schedule[0], config, reference_field, initial_mass)
    )
    values = u0.values.copy()
    steps = 0
    for t_lo, t_hi in zip(schedule[:-1], schedule[1:]):
        t, dt = t_lo, None
        while t < t_hi - 1e-13 * max(1.0, abs(t_hi)):
            if steps >= MAX_STEPS:
                raise StiffnessFailure(f"exceeded {MAX_STEPS} steps")
            limit = stepper.cfl_limit(values) if config.nonlinearity else math.inf
            if dt is None:
                # snap dt to divide the interval exactly: every step inside an
                # interval reuses the same cached propagator
                interval = t_hi - t_lo
                dt_target = min(interval, limit / weight_at(t_lo))
                dt = interval / math.ceil(interval / dt_target)
            dt_step = min(dt, t_hi - t)
            weight = weight_at(t + 0.5 * dt_step)
            limit /= weight
            while dt_step > limit:
                dt = dt_step = 0.5 * dt_step
                if dt_step < config.dt_min:
                    traj.termination, traj.blowup_time = "dt_collapse", t
                    return traj
            try:
                values = _strang_step(stepper, values, dt_step, weight, config, sup0)
            except StepRejected as exc:
                raise StiffnessFailure(str(exc)) from exc
            t += dt_step
            steps += 1
            if values.max() > config.blowup_factor * sup0:
                traj.termination, traj.blowup_time = "sup_growth", t
                return traj
        field = u0.with_values(values)
        traj.records.append(
            _make_record(field, t_hi, config, reference_field, initial_mass)
        )
    return traj


def evolve(u0, config=None):
    """Integrate the physical-variable equation from u0 at config.t_init."""
    config = config or SolverConfig()
    return _drive(u0, config, "physical")


def evolve_similarity(U0, config=None, reference_field=None):
    """Integrate the similarity-variable equation from U0 at tau = config.t_init."""
    config = config or SolverConfig(t_init=0.0, t_end=5.0)
    return _drive(U0, config, "similarity", reference_field)


# ---------------------------------------------------------------------------
# Duhamel (mild-solution) residual
# ---------------------------------------------------------------------------

def duhamel_residual(trajectory, zero_nonlinear=False):
    """Max relative mismatch of the mild-solution identity at sampled (r, t).

    The identity writes u(x, t) as heat flow from the first record plus the
    time-integrated nonlinear correction; the correction's spatial integral
    reduces, for radial data, to Bessel-weighted quadrature.  The time
    integral is regularised by the substitution q = sqrt(t - s); the field
    and its velocity at each q node serve every sample radius.
    ``zero_nonlinear`` drops the correction (negative control); trajectories
    integrated with the nonlinearity switched off are checked against the
    plain heat identity, whose correction is identically zero.

    The sample radii are the nodes at 0, 15% and 35% of the grid's index
    range, and u is read there as the field's value at the node.  On a grid
    that starts at r = 0 the first sample is the origin; on one that starts at
    ``nodes[0] > 0`` it is ``nodes[0]``, and the heat row and the correction
    are evaluated there.
    """
    if trajectory.kind != "physical":
        raise InvalidParameter("the mild-solution identity applies to physical runs")
    if len(trajectory.records) < 64:
        raise InsufficientSampling("need at least 64 records for the time quadrature")
    rec0 = trajectory.records[0]
    if not isinstance(rec0.field, RadialField):
        raise InvalidParameter("duhamel_residual is implemented for radial runs")
    nodes = rec0.field.nodes
    dim = rec0.field.dim
    t0 = rec0.time
    times = trajectory.times()
    idx = [0, int(0.15 * nodes.size), int(0.35 * nodes.size)]
    radii = nodes[idx]
    nonlinear = not zero_nonlinear and trajectory.config.nonlinearity
    w = radial_measure_weights(nodes, dim)
    mismatches = []
    for t in times[[int(0.5 * len(times)), int(0.75 * len(times)), -1]]:
        field_t = trajectory.field_at(t)
        u_t = (rec0.field if t == t0 else field_t).values[idx]
        if nonlinear:
            q_max = math.sqrt(t - t0)
            qs = np.linspace(1e-3 * q_max, q_max, 192)
            vals = np.empty((len(radii), qs.size))
            for k, q in enumerate(qs):
                s = max(t - q * q, t0)  # guard the rounding at q = q_max
                fld = trajectory.field_at(s)
                flux = w * fld.values * radial_gradient(fld)
                for i, r in enumerate(radii):
                    band, gauss, z = kernel_row(nodes, dim, r, t - s)
                    lam0 = scaled_sphere_average(dim, z)
                    lam1 = scaled_sphere_average_cos(dim, z)
                    inner = float(np.sum(
                        flux[band] * gauss * (nodes[band] * lam0 - r * lam1)
                    ))
                    # -(1/2) * (1/(t-s)) * inner, with ds = -2 q dq
                    vals[i, k] = -0.5 * inner * 2.0 / q
        scale = max(float(np.abs(field_t.values).max()), 1e-300)
        for i, r in enumerate(radii):
            u_actual = float(u_t[i])
            # quadrature rows of the heat kernel (raw, not renormalised), on its band
            band, gauss, z = kernel_row(nodes, dim, r, t - t0)
            heat = float((gauss * scaled_sphere_average(dim, z) * w[band])
                         @ rec0.field.values[band])
            correction = float(np.trapezoid(vals[i], qs)) if nonlinear else 0.0
            mismatches.append(abs(heat + correction - u_actual) / scale)
    return float(np.max(mismatches))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_trajectory(trajectory, csv_path, manifest_path):
    """One CSV row per record plus a JSON manifest echoing the termination
    reason, the full configuration, the advection scheme and clamp
    tolerance the run used, and the pkslab, numpy and scipy versions."""
    with open(csv_path, "w", newline="\n") as fh:
        fh.write("t,mass,second_moment,sup_norm,l1_err_vs_profile,free_energy\n")
        fh.writelines(_diagnostics.record_row(rec) + "\n" for rec in trajectory.records)
    from . import __version__

    # strict JSON: non-finite settings (blowup_factor = inf) are written as text
    config = {
        key: str(value) if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in asdict(trajectory.config).items()
    }
    manifest = {
        "dim": trajectory.dim,
        "kind": trajectory.kind,
        "records": len(trajectory.records),
        "termination": trajectory.termination,
        "blowup_flag": trajectory.blowup,
        "blowup_time": None if math.isnan(trajectory.blowup_time) else trajectory.blowup_time,
        "config": config,
        "advection_scheme": trajectory.scheme,
        "clamp_tolerance": trajectory.clamp_tolerance,
        "versions": {"pkslab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    with open(manifest_path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
