"""Core field containers, norms, moments, and the radial similarity change of variables.

Two concrete geometries are supported: radially symmetric densities sampled on
a 1D node set (any dimension 2-5) and full 2D densities on a uniform periodic
square grid sized for FFT work.  Fields are immutable value objects; all
operations are pure functions.

The radial quadratures (:func:`radial_moments`, :func:`lp_norm_values`) also
take several profiles stacked along leading axes and reduce along the last
one: each row is summed in the order of its own 1D sum, so it keeps its
bits.  The single-field functions call them with one row.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidField, InvalidParameter
from .grids import radial_interpolator, radial_measure_weights

# Negative samples no larger than this times the sup norm are treated as
# spectral ringing and clamped to zero; anything worse is a hard error.
CLAMP_RTOL = 1e-12

DEFAULT_EXTENT = 20.0
DEFAULT_SIZE = 256


def _clean_values(values, nonnegative):
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise InvalidField("field contains non-finite samples")
    if nonnegative and values.size:
        low = values.min()
        if low < 0.0:
            scale = np.abs(values).max()
            if scale > 0.0 and low < -CLAMP_RTOL * scale:
                raise InvalidField(
                    f"negative samples ({low:.3e}) exceed the clamp tolerance "
                    f"{CLAMP_RTOL:.1e} * sup = {CLAMP_RTOL * scale:.3e}"
                )
            values = np.maximum(values, 0.0)
    return values


@dataclass(frozen=True)
class RadialField:
    """Radially symmetric density u(r) with dimension tag n in {2,3,4,5}.

    Quadrature uses only the node positions.  Signed profiles (expansion
    corrections, differences) set ``nonnegative=False``.
    """

    dim: int
    nodes: np.ndarray
    values: np.ndarray
    nonnegative: bool = True

    def __post_init__(self):
        if self.dim not in (2, 3, 4, 5):
            raise InvalidField(f"dimension must be in 2..5, got {self.dim}")
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 8:
            raise InvalidField("radial grid must be a 1D array of >= 8 nodes")
        if nodes[0] < 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise InvalidField("radial nodes must be strictly increasing and >= 0")
        values = _clean_values(self.values, self.nonnegative)
        if values.shape != nodes.shape:
            raise InvalidField("values and nodes must have matching shape")
        nodes.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def r_max(self):
        return float(self.nodes[-1])

    def measure_weights(self):
        return radial_measure_weights(self.nodes, self.dim)

    def with_values(self, values, nonnegative=None):
        keep = self.nonnegative if nonnegative is None else nonnegative
        return replace(self, values=np.asarray(values, dtype=float), nonnegative=keep)

    def interpolator(self):
        return radial_interpolator(self.nodes, self.values)


@dataclass(frozen=True)
class CartesianField2D:
    """2D density on a uniform N x N grid covering [-extent, extent)^2.

    The grid uses the periodic convention x_i = -extent + i * (2 extent / N),
    which keeps FFT padding exact; fields are expected to decay well inside
    the box.  N must be a power of two.
    """

    extent: float
    values: np.ndarray
    nonnegative: bool = True

    def __post_init__(self):
        values = _clean_values(self.values, self.nonnegative)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise InvalidField("2D field values must be a square array")
        n = values.shape[0]
        if n & (n - 1) != 0:
            raise InvalidField(f"grid size must be a power of two, got {n}")
        if self.extent <= 0:
            raise InvalidField("extent must be positive")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def dim(self):
        return 2

    @property
    def size(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return 2.0 * self.extent / self.size

    def axis(self):
        n = self.size
        return -self.extent + self.spacing * np.arange(n)

    def meshgrid(self):
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def cell_area(self):
        return self.spacing**2

    def with_values(self, values, nonnegative=None):
        keep = self.nonnegative if nonnegative is None else nonnegative
        return replace(self, values=np.asarray(values, dtype=float), nonnegative=keep)


@dataclass(frozen=True)
class SimilarityState:
    """A field in similarity variables (xi, tau) together with tau."""

    field: object
    tau: float

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise InvalidField("tau must be finite")


@dataclass(frozen=True)
class MomentSet:
    """Mass, (unnormalised) center of mass, and second moment of a field.

    Signed profiles (expansion corrections) may carry a negative or zero
    mass; the Cauchy-Schwarz consistency check applies to nonnegative
    densities only and lives in :func:`moments`.
    """

    mass: float
    center: np.ndarray
    second_moment: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", center)
        if not (np.isfinite(self.mass) and np.isfinite(self.second_moment)
                and np.all(np.isfinite(center))):
            raise InvalidField("moments must be finite")


# ---------------------------------------------------------------------------
# quadrature-level operations
# ---------------------------------------------------------------------------

def quadrature_weights(field):
    """The weights w with sum(w * values) the field's integral over its domain."""
    if isinstance(field, RadialField):
        return field.measure_weights()
    if isinstance(field, CartesianField2D):
        return np.full_like(field.values, field.cell_area())
    raise InvalidParameter(f"unsupported field type {type(field)!r}")


def total_mass(field):
    """Quadrature of the field over its domain."""
    if not np.all(np.isfinite(field.values)):
        raise InvalidField("field contains non-finite samples")
    return float(np.sum(quadrature_weights(field) * field.values))


def _is_sup(p):
    return p == math.inf or p == "inf"


def lp_norm_values(values, weights, p, axis=None):
    """The L^p quadrature norm of ``values`` against ``weights``, reduced over
    ``axis`` (every sample by default; -1 gives one norm per stacked radial
    profile).  p = inf gives the max sample magnitude and reads no weights."""
    if _is_sup(p):
        return np.abs(values).max(axis=axis)
    p = float(p)
    if p < 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    return np.sum(weights * np.abs(values) ** p, axis=axis) ** (1.0 / p)


def lp_norm(field, p):
    """Standard L^p quadrature norm; p = inf gives the max sample magnitude."""
    weights = None if _is_sup(p) else quadrature_weights(field)
    return float(lp_norm_values(field.values, weights, p))


def l1_distance(a, b):
    """L^1 distance between two fields living on the same grid."""
    return lp_norm(a.with_values(a.values - b.values, nonnegative=False), 1)


def radial_moments(nodes, values, weights):
    """Mass and second moment of radial ``values`` on ``nodes`` against the
    measure ``weights``, along the last axis (leading axes stack profiles)."""
    weighted = weights * values
    return np.sum(weighted, axis=-1), np.sum(weighted * nodes**2, axis=-1)


def moment_set(mass, center, second, nonnegative):
    """The :class:`MomentSet` of these moments; those of a nonnegative density
    must also satisfy the Cauchy-Schwarz bound."""
    mass, second = float(mass), float(second)
    if nonnegative and mass > 0:
        # Cauchy-Schwarz: |int x u|^2 <= mass * int |x|^2 u
        slack = second - float(center @ center) / mass
        if slack < -1e-9 * max(1.0, second):
            raise InvalidField("moments violate the Cauchy-Schwarz bound")
    return MomentSet(mass=mass, center=center, second_moment=second)


def moments(field):
    """Mass, center of mass B0 = int x u dx, and second moment int u |x|^2 dx."""
    w = quadrature_weights(field)
    if isinstance(field, RadialField):
        mass, second = radial_moments(field.nodes, field.values, w)
        center = np.zeros(field.dim)
    else:
        mass = np.sum(w * field.values)
        xx, yy = field.meshgrid()
        center = np.array(
            [np.sum(w * field.values * xx), np.sum(w * field.values * yy)]
        )
        second = np.sum(w * field.values * (xx**2 + yy**2))
    return moment_set(mass, center, second, field.nonnegative)


# ---------------------------------------------------------------------------
# similarity change of variables:  U(xi, tau) = t^{n/2} u(sqrt(t) xi),  tau = log t
#
# The radial maps interpolate with a quintic spline: for t > 1 the similarity
# profile is sqrt(t) times narrower on the same nodes, and the cubic
# interpolant's error there moved the round-trip mass by ~3e-6 (relative) for
# a width-0.375 Gaussian at t = 10; the quintic keeps it near 3e-9.
# ---------------------------------------------------------------------------

def to_similarity(u_field, t):
    """Map a radial physical-variable field at time t to similarity variables."""
    if not isinstance(u_field, RadialField):
        raise InvalidParameter("the similarity maps are implemented for radial fields")
    if t <= 0:
        raise InvalidParameter(f"similarity time must be positive, got t={t}")
    n = u_field.dim
    interp = radial_interpolator(u_field.nodes, u_field.values, order=5)
    values = t ** (n / 2.0) * interp(math.sqrt(t) * u_field.nodes)
    return SimilarityState(field=u_field.with_values(values), tau=math.log(t))


def from_similarity(state):
    """Invert :func:`to_similarity`; returns (physical field, t)."""
    f = state.field
    if not isinstance(f, RadialField):
        raise InvalidParameter("the similarity maps are implemented for radial fields")
    t = math.exp(state.tau)
    interp = radial_interpolator(f.nodes, f.values, order=5)
    values = t ** (-f.dim / 2.0) * interp(f.nodes / math.sqrt(t))
    return f.with_values(values), t


# ---------------------------------------------------------------------------
# constructors used throughout tests and scenarios
# ---------------------------------------------------------------------------

def indicator_disk(nodes):
    """Indicator of the 2D unit disk, 1/2 on a node exactly at the rim."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.where(nodes < 1.0, 1.0, 0.0)
    values[np.isclose(nodes, 1.0, rtol=0.0, atol=1e-14)] = 0.5
    return RadialField(dim=2, nodes=nodes, values=values)


def gaussian_radial(dim, mass, nodes, t0=1.0):
    """mass * Gamma_{t0} sampled on radial nodes (heat kernel at t0)."""
    values = mass * (4.0 * math.pi * t0) ** (-dim / 2.0) * np.exp(
        -(nodes**2) / (4.0 * t0)
    )
    return RadialField(dim=dim, nodes=nodes, values=values)


def gaussian_cartesian(mass, extent=DEFAULT_EXTENT, size=DEFAULT_SIZE,
                       center=(0.0, 0.0), t0=1.0):
    """mass * Gamma_{t0}(x - center) sampled on a 2D grid (heat kernel at t0)."""
    if t0 <= 0:
        raise InvalidParameter("t0 must be positive")
    grid = CartesianField2D(extent=extent, values=np.zeros((size, size)))
    xx, yy = grid.meshgrid()
    r2 = (xx - center[0]) ** 2 + (yy - center[1]) ** 2
    values = mass / (4.0 * math.pi * t0) * np.exp(-r2 / (4.0 * t0))
    return grid.with_values(values)


# ---------------------------------------------------------------------------
# snapshot file format
# ---------------------------------------------------------------------------

def write_snapshot(field, path, t=0.0):
    """Write a field to CSV with header ``# dim=<n> kind=<radial|cart2d> t=<t>``."""
    kind = "radial" if isinstance(field, RadialField) else "cart2d"
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# dim={field.dim} kind={kind} t={t!r}\n")
        if kind == "radial":
            for r, v in zip(field.nodes, field.values):
                fh.write(f"{r:.17g},{v:.17g}\n")
        else:
            x = field.axis()
            for i in range(field.size):
                for j in range(field.size):
                    fh.write(f"{x[i]:.17g},{x[j]:.17g},{field.values[i, j]:.17g}\n")


def read_snapshot(path):
    """Read a snapshot written by :func:`write_snapshot`; returns (field, t)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise InvalidField(f"{path}: missing snapshot header")
        meta = dict(tok.split("=", 1) for tok in header[1:].split())
        dim = int(meta["dim"])
        t = float(meta["t"])
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if meta["kind"] == "radial":
        nodes, values = rows[:, 0], rows[:, 1]
        signed = bool(values.min() < 0)
        return RadialField(dim=dim, nodes=nodes, values=values, nonnegative=not signed), t
    n = int(round(math.sqrt(rows.shape[0])))
    values = rows[:, 2].reshape(n, n)
    extent = -rows[0, 0]
    signed = bool(values.min() < 0)
    return CartesianField2D(extent=extent, values=values, nonnegative=not signed), t
