"""Time integration of the chemotaxis equation in physical and similarity
variables, plus a mild-solution (Duhamel) residual verifier.

The integrator is a Strang splitting: an exact kernel substep (free heat
kernel in physical variables; the full drift-diffusion semigroup S_n in
similarity variables) wrapped around a conservative finite-volume advection
substep driven by the Gauss-law velocity.  Both substeps conserve the
discrete mass sum(weights * values) to rounding: the r = 0 node has zero
trapezoid weight and node 1's cell reaches the origin, so the first face's
flux moves no measured mass (for M = 4 pi on rmax 80, at most 2.1e-15
relative per unit time at 96 to 1536 nodes).

The geometry and the kind of run fix the advection scheme and the clamp
tolerance; neither is a setting, and each trajectory records the pair used.
Radial physical runs use limited second-order (MUSCL) fluxes, which stay
positivity-preserving near blow-up without the heavy numerical diffusion of
plain upwinding.  Radial similarity runs relax to smooth strictly positive
profiles, where the limiter would cost accuracy at the peak, and use central
fluxes.  Both clamp at 1e-12.  2D Cartesian runs use dealiased pseudo-spectral
fluxes and clamp at 3e-8, which admits their ringing below zero in the nearly
empty far field.  The clamp zeroes negative samples no deeper than the
tolerance times the run's peak, restoring the mass, and otherwise ends the
run with :class:`StiffnessFailure`.

Both geometries share one stepper contract: ``advection_rhs(values, weight)``
returns the flux divergence and ``cfl_limit(values)`` the unweighted advective
step bound, read from the velocity alone; the velocity is linear in the
similarity weight, so callers divide the limit by it.  The driver evaluates
the limit once per step, on the values the step starts from.  The first
step of a record interval splits it into equal steps of one dt within that
limit; a step over its limit halves dt and doubles the steps left, so the
steps of an interval share one kernel.

The radial stepper builds everything that depends only on the nodes and the
dimension once: the shell factor, the half spacings of the cumulative
trapezoid, the MUSCL face offsets, the divisors of the flux divergence, and
its work buffers with the slices of them it reads.  A MUSCL right-hand side
is then 20 passes over arrays of the grid's size while every face moves
inward, and 25 otherwise, each written into a buffer with ``out=``; a Heun
substep is two of them plus five.  Only the arrays ``advect`` and
``advection_rhs`` return are new, so a caller may keep them.

The radial stepper owns its kernels.  Its nodes, dimension and kind never
change, so the half step alone names a kernel: ``diffuse`` keeps the
``KERNELS_KEPT`` (2) most recently used ones in a dict keyed by half step,
moves the kernel it applies to the end, and drops the first one before it
builds one more, so no more than ``KERNELS_KEPT`` are alive even during a
build.  A bundled run reuses a kernel after at most 1 other one, so 2 make
the same builds as any larger number.

The Cartesian stepper owns its free-space kernels too: its first solve
builds the spectra of the two gradient kernels on its grid, and every solve
of the run is handed them.  In either geometry no kernel outlives its run,
since only the stepper holds it: a second run builds its own.

The results are bit-identical to the plain formulas.  Halving the mean
enclosed mass and dividing it by the face area is one division by twice the
area, which rounds alike because halving is exact above the subnormal
range.  A weight of 1.0 is not multiplied in.  The upwind face value is the
right node's reconstruction where the velocity is negative and the left
one's elsewhere.  For u >= 0 the Gauss-law velocity is negative wherever the
enclosed mass is positive, so the right values are written first and the
left ones are built and copied in only when some face is at rest or moves
out: a core of zero mass, where v = -0.0, or a dip below zero in Heun's
stage.  Minmod as max(min(a, b), 0) + min(max(a, b), 0), against a zero
array, picks the same slope, and the same signed zero, because numpy's
minimum and maximum return their second operand on a tie (a test checks
this).  IEEE sums and products do not depend on operand order, so Heun's
stages combine in place.

A radial run copies the values of each record into one row of a single
(records x nodes) array, and each record's field is a view of its row, so
the run holds one copy of its records.  When the run ends, at t_end or
early, the records' diagnostics (mass and second moment, sup norm, the 2D
free energy and the L1 distance to the reference) are evaluated over that
array ``diagnostics.RECORD_BLOCK`` rows at a time, by the row-wise passes
that the single-field functions (``moments``, ``lp_norm``,
``free_energy_2d``) run on one row; each row is reduced along its own axis,
so every record reads the same bits as its field evaluated alone.  A
Cartesian record is already a whole 2D field of work, and is evaluated one
field at a time.  :meth:`Trajectory.values_at` finds the records around
every time with one ``searchsorted`` and gathers them from the stacked
values.
"""

import json
import math
import operator
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np
import scipy

from .errors import InsufficientSampling, InvalidParameter, OutOfRange, StiffnessFailure
from . import diagnostics as _diagnostics
from .fields import (CartesianField2D, RadialField, gaussian_cartesian, gaussian_radial,
                     lp_norm, lp_norm_values, moment_set, moments, radial_moments,
                     total_mass)
from .grids import SPHERE_AREA, radial_measure_weights
from .potential import (_green_hat_2d, cartesian_gradient_2d, check_boundary_decay,
                        radial_gradient_rows)
from .semigroup import (
    _radial_propagator,
    kernel_peak,
    kernel_rows,
    kernel_width_shrink,
    line_propagator,
    nonlinearity_weight,
    scaled_sphere_average,
    scaled_sphere_average_cos,
)

CFL_SAFETY = 0.45  # fraction of the advective CFL bound a step may take
KERNELS_KEPT = 2  # kernels a radial stepper keeps, the most recently used
MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Settings of a time-integration run.

    The advection scheme and the clamp tolerance are not settings: the
    geometry and the kind of run fix them (see the module docstring), and
    the :class:`Trajectory` records the pair used.  ``reference =
    "m_gamma_t"`` measures each record's ``l1_dist_to_profile`` against the
    mass-M heat kernel; only physical runs can compute it.  A similarity run
    measures against the ``reference_field`` it is given, if any; a field on
    another grid than the run's is refused with :class:`InvalidParameter`.
    """

    t_end: float = 10.0
    t_init: float = 1.0
    nonlinearity: bool = True
    records_per_decade: int = 32
    record_times: tuple = ()  # explicit schedule overriding the log spacing
    blowup_factor: float = 1e6
    dt_min: float = 1e-12
    reference: str = ""  # "" or "m_gamma_t"


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
    clamp tolerance that produced them.

    The records' field values, stacked along a first axis (records x
    samples), are :meth:`stacked_values`.  A radial run writes each record's
    values into one row of a single array, and its records' fields are
    views of those rows, so the run holds one copy of its values; the
    records' diagnostics were evaluated over that array a block of rows at
    a time.  A trajectory whose records are replaced or changed (say by
    ``dataclasses.replace(traj, records=...)``) stacks its own records'
    values the first time it is asked, and keeps them until its records
    change again.
    """

    dim: int
    kind: str  # "physical" or "similarity"
    config: SolverConfig
    scheme: str  # advection scheme: muscl | central | pseudo-spectral
    clamp_tolerance: float
    records: list = dataclass_field(default_factory=list)
    termination: str = "t_end"  # t_end | sup_growth | dt_collapse
    blowup_time: float = math.nan
    # (the records the stack holds, the stack); see stacked_values
    _stacked: tuple = dataclass_field(default=((), None), init=False, repr=False,
                                      compare=False)

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

    def stacked_values(self):
        """The records' field values as one read-only array, one record per
        row along the first axis.  It is the array the run wrote them into
        while the records are the run's own, and a stack of them otherwise."""
        held, stacked = self._stacked
        if len(held) != len(self.records) or not all(map(operator.is_, held, self.records)):
            stacked = np.stack([rec.field.values for rec in self.records])
            stacked.flags.writeable = False
            self._stacked = (tuple(self.records), stacked)
        return stacked

    def values_at(self, ts):
        """The field values at each time in ``ts``, stacked along a new first
        axis and gathered from :meth:`stacked_values`.

        Between two records the values are linear in log-time in physical
        runs (with the scalar ``math.log`` of the single-time formula), and
        linear in time in similarity runs and after a physical record at
        t = 0.  Two records at the same time give the earlier one's values:
        (1 - 0) lo + 0 lo is lo bit for bit.  A time outside the records,
        or NaN, raises :class:`OutOfRange`.
        """
        ts = np.asarray(ts, dtype=float)
        times = self.times()
        outside = ~((times[0] <= ts) & (ts <= times[-1]))
        if outside.any():
            raise OutOfRange(f"time {ts[outside][0]} outside recorded range "
                             f"[{times[0]}, {times[-1]}]")
        # the records on either side: the first at or after t, and the one before
        idx = np.maximum(np.searchsorted(times, ts), 1)
        lo, hi = idx - 1, np.minimum(idx, times.size - 1)
        t_lo, t_hi = times[lo], times[hi]
        moving = t_hi > t_lo
        hi[~moving] = lo[~moving]
        logarithmic = moving & (t_lo > 0) & (self.kind == "physical")
        linear = moving & ~logarithmic
        w = np.zeros(ts.shape)
        w[linear] = (ts[linear] - t_lo[linear]) / (t_hi[linear] - t_lo[linear])
        if logarithmic.any():
            log_t, log_lo, log_hi = (np.array([math.log(x) for x in a[logarithmic]])
                                     for a in (ts, t_lo, t_hi))
            w[logarithmic] = (log_t - log_lo) / (log_hi - log_lo)
        stacked = self.stacked_values()
        w = w.reshape((-1,) + (1,) * (stacked.ndim - 1))
        return (1.0 - w) * stacked[lo] + w * stacked[hi]

    def field_at(self, t):
        """The field at time t: linear in log-time between the records of a
        physical run, linear in time in a similarity run (see
        :meth:`values_at`)."""
        return self.records[0].field.with_values(self.values_at([t])[0], nonnegative=False)


# ---------------------------------------------------------------------------
# radial advection machinery
# ---------------------------------------------------------------------------

def _minmod_adjacent(d, out, scratch, zero):
    """minmod(d[:-1], d[1:]) into ``out``: the smaller of each pair of
    neighbouring slopes when they share a sign, else 0, as
    max(min(a, b), 0) + min(max(a, b), 0).  ``scratch`` and ``zero`` (all
    +0.0) have the size of ``out``; an array operand is cheaper than a
    scalar one.  With the operands in this order numpy's minimum and maximum
    return their second operand on a tie of zeros, so a pair of zeros gives
    b with its sign, as the sign/abs form does."""
    a, b = d[:-1], d[1:]
    np.minimum(a, b, out=out)
    np.maximum(a, b, out=scratch)
    np.maximum(zero, out, out=out)
    np.minimum(zero, scratch, out=scratch)
    out += scratch
    return out


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

    @staticmethod
    def scheme_for(kind):
        return "muscl" if kind == "physical" else "central"

    def __init__(self, grid_nodes, dim, kind):
        self.nodes = grid_nodes
        self.dim = dim
        self.kind = kind
        self.scheme = self.scheme_for(kind)
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
        # (0.5 * x) / -A is x / -2A: halving is exact above the subnormals
        self._neg_two_face_area = -2.0 * self.face_area
        w0 = self.weights[0] if self.weights[0] > 0.0 else self.origin_volume
        self._neg_origin_weight = -w0
        self._neg_inner_weights = -self.weights[1:-1]
        self._last_weight = self.weights[-1]
        # Work buffers and their views, written by the ufuncs of every call
        # with out=.  Only the arrays advect and advection_rhs return are
        # fresh: callers keep them.
        n = grid_nodes.size
        self._g = np.empty(n)  # shell mass density
        self._m = np.zeros(n)  # cumulative shell mass; m[0] stays 0
        self._trap = np.empty(n - 1)  # trapezoid terms, then minmod scratch
        self._v = np.empty(n - 1)  # face velocity
        self._d = np.empty(n - 1)  # slopes between nodes
        self._slopes = np.zeros(n)  # limited node slopes; both ends stay 0
        self._zero = np.zeros(n - 2)  # minmod's zero operand
        self._zero.flags.writeable = False
        self._flux = np.empty(n - 1)  # upwind face values, then the face flux
        self._left = np.empty(n - 1)  # left face values, where some v >= 0
        self._upwind_left = np.empty(n - 1, dtype=bool)
        self._stage = np.empty(n)  # Heun's predictor
        self._k2 = np.empty(n)  # Heun's second right-hand side
        self._g_hi, self._g_lo = self._g[1:], self._g[:-1]
        self._m_hi, self._m_lo = self._m[1:], self._m[:-1]
        self._slopes_hi, self._slopes_lo = self._slopes[1:], self._slopes[:-1]
        self._slopes_mid = self._slopes[1:-1]
        self._minmod_scratch = self._trap[:-1]
        self._flux_hi, self._flux_lo = self._flux[1:], self._flux[:-1]
        self._kernels = {}  # half step -> kernel, least recently used first

    def face_velocity(self, values):
        """Gauss-law radial velocity V'(r) at the cell faces: minus the mean
        of the enclosed shell mass at the two nodes, over the face area.
        The result is the stepper's buffer, overwritten by the next call."""
        # the cumulative trapezoid sums of grids.cumulative_shell_mass
        np.multiply(self._shell, values, out=self._g)
        trap = np.add(self._g_hi, self._g_lo, out=self._trap)
        np.multiply(self._half_dr, trap, out=trap)
        np.add.accumulate(trap, out=self._m_hi)
        v = np.add(self._m_hi, self._m_lo, out=self._v)
        v /= self._neg_two_face_area
        return v

    def _rhs_into(self, values, weight, rhs):
        """``advection_rhs(values, weight)`` written into ``rhs``."""
        v = self.face_velocity(values)
        if weight != 1.0:
            v *= weight
        flux = self._flux
        if self.scheme == "central":
            np.add(values[1:], values[:-1], out=flux)
            flux *= 0.5
        else:
            lo, hi = values[:-1], values[1:]
            d = np.subtract(hi, lo, out=self._d)
            d /= self.dr
            _minmod_adjacent(d, self._slopes_mid, self._minmod_scratch, self._zero)
            # the upwind face value: the right one where v < 0, which holds
            # at every face while the enclosed mass is positive
            np.multiply(self._slopes_hi, self._right_offset, out=flux)
            flux += hi
            if not v.max() < 0.0:  # a face at rest or moving out (or a NaN)
                left = np.multiply(self._slopes_lo, self._left_offset, out=self._left)
                left += lo
                upwind_left = np.less(v, 0.0, out=self._upwind_left)
                np.logical_not(upwind_left, out=upwind_left)
                np.copyto(flux, left, where=upwind_left)
        # the face flux times the face area
        flux *= v
        flux *= self.face_area
        rhs[0] = flux[0] / self._neg_origin_weight
        inner = np.subtract(self._flux_hi, self._flux_lo, out=rhs[1:-1])
        inner /= self._neg_inner_weights
        # node 1's trapezoid cell reaches r = 0: the first face is inside it
        rhs[1] = flux[1] / self._neg_inner_weights[0]
        rhs[-1] = flux[-1] / self._last_weight
        return rhs

    def advection_rhs(self, values, weight):
        return self._rhs_into(values, weight, np.empty_like(values))

    def advect(self, values, dt, weight):
        """Heun's step values + dt/2 (k1 + k2), combined in place in k1."""
        k1 = self.advection_rhs(values, weight)
        stage = np.multiply(k1, dt, out=self._stage)
        stage += values
        k1 += self._rhs_into(stage, weight, self._k2)
        k1 *= 0.5 * dt
        k1 += values
        return k1

    def cfl_limit(self, values):
        # a face at rest bounds nothing: its quotient is infinite, and so is
        # the limit when the whole field is at rest
        ratio = self.face_velocity(values)
        with np.errstate(divide="ignore"):
            np.divide(self.dr, ratio, out=ratio)
        return CFL_SAFETY * float(np.abs(ratio, out=ratio).min())

    def diffuse(self, values, dt):
        kernels = self._kernels
        kernel = kernels.pop(dt, None)
        if kernel is None:
            if len(kernels) >= KERNELS_KEPT:  # before the build: at most KERNELS_KEPT live
                del kernels[next(iter(kernels))]
            a, shrink = (dt, 1.0) if self.kind == "physical" else kernel_width_shrink(dt)
            kernel = _radial_propagator(self.nodes, self.dim, a, shrink)
        kernels[dt] = kernel
        return kernel @ values


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
        self._line = (None, None)  # similarity runs: (half step, its line kernel)
        self._spectra = None  # the gradient kernels' spectra, built by the first solve

    def velocity(self, values):
        """Unweighted Gauss-law velocity, stacked as (vx, vy)."""
        if self._spectra is None:
            self._spectra = _green_hat_2d(self.grid.extent, self.grid.size, "gradient")
        return cartesian_gradient_2d(
            self.grid.with_values(values, nonnegative=False), check_domain=False,
            spectra=self._spectra,
        )

    def advection_rhs(self, values, weight):
        from scipy.fft import irfft2, rfft2

        v = self.velocity(values)
        if weight != 1.0:
            v *= weight
        vx, vy = v
        fx_hat = rfft2(values * vx) * self.dealias
        fy_hat = rfft2(values * vy) * self.dealias
        return -irfft2(1j * self.kx * fx_hat + 1j * self.ky * fy_hat, s=values.shape)

    def cfl_limit(self, values):
        v = self.velocity(values)
        vmax = np.abs(v, out=v).max()
        if vmax == 0.0:
            return math.inf
        return CFL_SAFETY * self.h / vmax

    def diffuse(self, values, dt):
        if self.kind == "physical":
            from scipy.fft import irfft2, rfft2

            return irfft2(rfft2(values) * np.exp(-self.k2 * dt), s=values.shape)
        kept_dt, k = self._line
        if dt != kept_dt:  # both half steps of a step share one kernel
            k = line_propagator(self.grid.axis(), *kernel_width_shrink(dt))
            self._line = (dt, k)
        return k @ values @ k.T


def _make_stepper(field, kind):
    if isinstance(field, RadialField):
        return _RadialStepper(field.nodes, field.dim, kind)
    return _CartesianStepper(field, kind)


def _scheme_and_clamp(field, kind):
    """The advection scheme and clamp tolerance of a ``kind`` run on
    ``field``'s geometry, the pair its stepper runs with; none is built."""
    if isinstance(field, RadialField):
        return _RadialStepper.scheme_for(kind), _RadialStepper.clamp_tolerance
    return _CartesianStepper.scheme, _CartesianStepper.clamp_tolerance


def _clamp(values, tolerance, sup_reference, weights):
    """Zero negative samples no deeper than ``tolerance`` times the peak, then
    rescale to restore the discrete mass sum(weights * values);
    ``weights=None`` means uniform cells.  A deeper undershoot raises
    :class:`StiffnessFailure`: no smaller step is tried."""
    low = values.min()
    if low >= 0.0:
        return values
    tol = tolerance * max(sup_reference, values.max(), 1e-300)
    if low < -tol:
        raise StiffnessFailure(
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
    """The record times of a run: t_init, then ``record_times`` if given,
    else times up to t_end at records_per_decade per decade of t (log-spaced
    in physical time, uniform in similarity time).  A schedule that does not
    strictly increase is refused with :class:`InvalidParameter`."""
    if config.record_times:
        times = np.asarray(config.record_times, dtype=float)
        if times[0] != config.t_init:
            times = np.concatenate([[config.t_init], times])
    else:
        if kind == "physical" and config.t_init <= 0:
            raise InvalidParameter("physical runs need t_init > 0")
        if not config.t_end > config.t_init:
            raise InvalidParameter(
                f"t_end = {config.t_end} must come after t_init = {config.t_init}")
        if kind == "physical":
            decades = math.log10(config.t_end / config.t_init)
            count = max(2, int(math.ceil(decades * config.records_per_decade)) + 1)
            times = np.geomspace(config.t_init, config.t_end, count)
        else:
            # similarity time: uniform spacing matching records_per_decade
            # records per decade of t
            dtau = math.log(10.0) / config.records_per_decade
            count = max(2, int(math.ceil((config.t_end - config.t_init) / dtau)) + 1)
            times = np.linspace(config.t_init, config.t_end, count)
    if not np.all(np.diff(times) > 0.0):
        raise InvalidParameter(
            f"record times must strictly increase from t_init = {config.t_init}")
    return times


def _check_reference(config, kind, u0, reference_field):
    ref = config.reference
    if ref and (ref != "m_gamma_t" or kind != "physical"):
        raise InvalidParameter(f"reference {ref!r} cannot be computed in a {kind} run")
    if reference_field is None:
        return
    if isinstance(u0, RadialField):
        same_grid = (isinstance(reference_field, RadialField)
                     and reference_field.dim == u0.dim
                     and np.array_equal(reference_field.nodes, u0.nodes))
    else:
        same_grid = (isinstance(reference_field, CartesianField2D)
                     and reference_field.extent == u0.extent
                     and reference_field.size == u0.size)
    if not same_grid:
        raise InvalidParameter("reference_field must lie on the grid of the initial field")


def _reference_values(config, field, t, mass, reference_field):
    if config.reference == "m_gamma_t":
        if isinstance(field, RadialField):
            return gaussian_radial(field.dim, mass, field.nodes, t).values
        return gaussian_cartesian(mass, extent=field.extent, size=field.size, t0=t).values
    if reference_field is not None:
        return reference_field.values
    return None


def _record_diagnostics(fields, times, config, reference_field, initial_mass, stacked):
    """(moments, sup norm, free energy, L1 distance to the reference) of each
    record field.  Radial records are evaluated ``RECORD_BLOCK`` rows of
    ``stacked`` (their values) at a time, by the row-wise forms of
    :func:`fields.moments`, :func:`fields.lp_norm` and
    :func:`diagnostics.free_energy_2d`; Cartesian records one field at a
    time.  Only 2D radial records have a free energy; the others read NaN."""
    def reference(k):
        return _reference_values(config, fields[k], times[k], initial_mass, reference_field)

    if stacked is None:
        out = []
        for k, field in enumerate(fields):
            ref = reference(k)
            l1 = math.nan
            if ref is not None:
                l1 = lp_norm(field.with_values(field.values - ref, nonnegative=False), 1)
            out.append((moments(field), lp_norm(field, math.inf), math.nan, l1))
        return out
    nodes, dim = fields[0].nodes, fields[0].dim
    weights = radial_measure_weights(nodes, dim)
    mass, second, sup = np.empty((3, len(fields)))
    free_energy, l1 = [math.nan] * len(fields), [math.nan] * len(fields)
    for block in _diagnostics.record_blocks(len(fields)):
        rows = stacked[block]
        mass[block], second[block] = radial_moments(nodes, rows, weights)
        sup[block] = lp_norm_values(rows, None, math.inf, axis=-1)
        if dim == 2:
            free_energy[block] = _diagnostics.free_energy_2d_rows(
                nodes, rows, weights, second[block]).tolist()
        refs = [reference(k) for k in range(len(fields))[block]]
        if refs[0] is not None:
            l1[block] = lp_norm_values(rows - np.stack(refs), weights, 1, axis=-1).tolist()
    return [(moment_set(m, np.zeros(dim), m2, field.nonnegative), s, f, d)
            for field, m, m2, s, f, d in zip(fields, mass, second, sup.tolist(), free_energy,
                                              l1)]


def _make_record(field, t, mom, sup, free_energy, l1):
    """The record of ``field`` at ``t`` from its row of
    :func:`_record_diagnostics`."""
    return TrajectoryRecord(time=t, field=field, moments=mom, sup_norm=sup,
                            free_energy=free_energy, l1_dist_to_profile=l1)


def _advance(stepper, values, t_lo, t_hi, config, weight_at, sup0, steps):
    """Step ``values`` from the record time ``t_lo`` to ``t_hi``; ``steps``
    counts the run's steps so far.  Returns the values, the new count, and
    (termination, time) when the run ends inside the interval, else None.

    The first step splits the interval into equal steps of one dt within its
    CFL limit; a step over its limit halves dt and doubles the steps left.
    """
    t, dt, left = t_lo, None, 1
    while left:
        if steps >= MAX_STEPS:
            raise StiffnessFailure(f"exceeded {MAX_STEPS} steps")
        limit = stepper.cfl_limit(values) if config.nonlinearity else math.inf
        if dt is None:
            interval = t_hi - t_lo
            left = math.ceil(interval / min(interval, limit / weight_at(t_lo)))
            dt = interval / left
        weight = weight_at(t + 0.5 * dt)
        limit /= weight
        while dt > limit:
            dt, left = 0.5 * dt, 2 * left
            if dt < config.dt_min:
                return values, steps, ("dt_collapse", t)
        values = _strang_step(stepper, values, dt, weight, config, sup0)
        t += dt
        left -= 1
        steps += 1
        if values.max() > config.blowup_factor * sup0:
            return values, steps, ("sup_growth", t)
    return values, steps, None


def _drive(u0, config, kind, reference_field=None):
    _check_reference(config, kind, u0, reference_field)
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
    # a radial run keeps its records' values as the rows of one array
    stacked = np.empty((schedule.size, u0.values.size)) if isinstance(u0, RadialField) else None
    fields = []

    def keep(values):
        # a field keeps the array it is given when no sample is below zero,
        # which the clamp ensures: the record's values are the row itself
        if stacked is not None:
            stacked[len(fields)] = values
            values = stacked[len(fields)]
        fields.append(u0.with_values(values))

    keep(u0.values)
    values = u0.values.copy()
    steps = 0
    for t_lo, t_hi in zip(schedule[:-1], schedule[1:]):
        values, steps, stop = _advance(stepper, values, t_lo, t_hi, config, weight_at,
                                       sup0, steps)
        if stop is not None:
            traj.termination, traj.blowup_time = stop
            break
        keep(values)
    if stacked is not None:
        stacked = stacked[:len(fields)]
        stacked.flags.writeable = False
    times = schedule[:len(fields)]
    diagnostics = _record_diagnostics(fields, times, config, reference_field, initial_mass,
                                      stacked)
    traj.records = [_make_record(field, t, *diag)
                    for field, t, diag in zip(fields, times, diagnostics)]
    if stacked is not None:
        traj._stacked = (tuple(traj.records), stacked)
    return traj


def evolve(u0, config=None):
    """Integrate the physical-variable equation from u0 at config.t_init."""
    config = config or SolverConfig()
    return _drive(u0, config, "physical")


def evolve_similarity(U0, config=None, reference_field=None):
    """Integrate the similarity-variable equation from U0 at tau = config.t_init.

    A 2D Cartesian run needs a grid spacing no coarser than that of 128^2
    over extent 10 (256^2 over extent 20 runs too): on a coarser grid the
    pseudo-spectral undershoot outgrows the 3e-8 clamp tolerance and the run
    ends in :class:`StiffnessFailure`.  For M = 4 pi over tau 0 -> 1 that
    happens at 64^2 over extent 10 (-4.32e-8 against a clamp of 3.63e-8) and
    at 128^2 over extent 20 (-8.85e-8 against 3.84e-8).
    """
    config = config or SolverConfig(t_init=0.0, t_end=5.0)
    return _drive(U0, config, "similarity", reference_field)


# ---------------------------------------------------------------------------
# Duhamel (mild-solution) residual
# ---------------------------------------------------------------------------

# q nodes of the correction's time quadrature evaluated together: the block
# bounds the stacked field, flux and kernel arrays, so peak memory stays flat
DUHAMEL_BLOCK = 32


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
            ss = np.maximum(t - qs * qs, t0)  # guard the rounding at q = q_max
            # elementwise, so each block's slice holds the bits it would compute
            widths = t - ss
            peaks = np.array([kernel_peak(dim, a) for a in widths])
            vals = np.empty((len(radii), qs.size))
            for start in range(0, qs.size, DUHAMEL_BLOCK):
                block = slice(start, start + DUHAMEL_BLOCK)
                values = trajectory.values_at(ss[block])
                flux = (w * values * radial_gradient_rows(nodes, dim, values)).ravel()
                for i, r in enumerate(radii):
                    cols, bounds, band, gauss, z = kernel_rows(nodes, dim, r, widths[block],
                                                               peaks[block])
                    # row k of the block starts at k * N in the flat flux
                    cols += np.repeat(np.arange(0, flux.size, nodes.size), np.diff(bounds))
                    if r == 0.0:
                        # z = 0 on the whole band: the averages are 1 and 0
                        terms = flux[cols] * gauss * band
                    else:
                        terms = flux[cols] * gauss * (
                            band * scaled_sphere_average(dim, z)
                            - r * scaled_sphere_average_cos(dim, z))
                    # one pairwise sum per row, as over its own band
                    inner = np.array([np.add.reduce(terms[lo:hi]) for lo, hi
                                      in zip(bounds[:-1].tolist(), bounds[1:].tolist())])
                    # -(1/2) * (1/(t-s)) * inner, with ds = -2 q dq
                    vals[i, block] = -0.5 * inner * 2.0 / qs[block]
        scale = max(float(np.abs(field_t.values).max()), 1e-300)
        for i, r in enumerate(radii):
            u_actual = float(u_t[i])
            # quadrature rows of the heat kernel (raw, not renormalised), on its band
            cols, _, _, gauss, z = kernel_rows(nodes, dim, r, [t - t0])
            heat = float((gauss * scaled_sphere_average(dim, z) * w[cols])
                         @ rec0.field.values[cols])
            correction = float(np.trapezoid(vals[i], qs)) if nonlinear else 0.0
            mismatches.append(abs(heat + correction - u_actual) / scale)
    return float(np.max(mismatches))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

# the ufuncs whose float64 loops numpy dispatches per CPU and whose last bits
# move with the dispatch target in the outputs of the bundled scenarios
DISPATCHED_UFUNCS = ("exp", "expm1", "log", "log10")


def _numpy_dispatch():
    """{ufunc: the SIMD target numpy runs its float64 loop on} for
    ``DISPATCHED_UFUNCS``, read from ``numpy.lib.introspect.opt_func_info``
    (None for a ufunc numpy reports no dispatch for); None on numpy < 2.0,
    which has no such record."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name="^(" + "|".join(DISPATCHED_UFUNCS) + ")$",
                         signature="float64")
    return {name: info.get(name, {}).get("dd", {}).get("current")
            for name in DISPATCHED_UFUNCS}


def export_trajectory(trajectory, csv_path, manifest_path):
    """One CSV row per record plus a JSON manifest echoing the termination
    reason, the full configuration, the advection scheme and clamp
    tolerance the run used, the pkslab, numpy and scipy versions, and the
    SIMD targets of :func:`_numpy_dispatch`."""
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
        "numpy_dispatch": _numpy_dispatch(),
    }
    with open(manifest_path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
