"""Radial grids, quadrature weights, and derivative stencils.

All radial integrals in the package use the measure ``area(n) * r**(n-1) dr``
with trapezoid weights on the (possibly graded) node set, so that every module
sees exactly the same discrete mass.  Grids are plain float arrays; the graded
default concentrates nodes quadratically toward the origin, which resolves
both Gaussian cores and the fine structure that develops near blow-up.

The spline helpers (:func:`nested_refinement`, :func:`radial_derivatives`,
:func:`radial_interpolator` and the order-4 :func:`cumulative_integral`)
import ``scipy.interpolate`` on their first call, so a run that never
interpolates does not pay for loading it; a compute scenario imports it when
it is loaded (``cli.RUN_IMPORTS``).
"""

import math

import numpy as np

from .errors import InvalidParameter

# Surface area of the unit sphere S^{n-1}.
SPHERE_AREA = {
    1: 2.0,
    2: 2.0 * math.pi,
    3: 4.0 * math.pi,
    4: 2.0 * math.pi**2,
    5: 8.0 * math.pi**2 / 3.0,
}


def gauss_law_gradient(nodes, enclosed, dim):
    """The Gauss law V'(r) = -m(r) / (area(n) r^{n-1}) from the enclosed mass
    m at each node; V'(0) = 0 by symmetry, and attraction means V' <= 0.
    ``enclosed`` may stack several profiles along leading axes."""
    vprime = np.zeros_like(enclosed)
    np.divide(-enclosed, SPHERE_AREA[dim] * nodes ** (dim - 1), out=vprime, where=nodes > 0)
    return vprime


DEFAULT_RADIAL_NODES = 4096
DEFAULT_RADIAL_RMAX = 40.0


def radial_grid(num=DEFAULT_RADIAL_NODES, r_max=DEFAULT_RADIAL_RMAX, kind="graded"):
    """Build a radial node set on [0, r_max].

    kind="graded" places nodes at r_max*(i/(N-1))**2, clustering quadratically
    toward the origin; kind="uniform" is equally spaced.
    """
    if num < 8:
        raise InvalidParameter(f"need at least 8 radial nodes, got {num}")
    if r_max <= 0:
        raise InvalidParameter(f"r_max must be positive, got {r_max}")
    x = np.linspace(0.0, 1.0, num)
    if kind == "graded":
        return r_max * x**2
    if kind == "uniform":
        return r_max * x
    raise InvalidParameter(f"unknown grid kind {kind!r}")


def nested_refinement(nodes, factor):
    """A node set with ``factor`` cells per cell of ``nodes`` and
    ``fine[::factor] == nodes`` exactly.

    The fine nodes follow the cubic spline of the nodes against their index,
    which reproduces the graded and uniform grids (polynomials in the index)
    to rounding, so the fine spacing is as smooth as the coarse one.
    """
    from scipy.interpolate import CubicSpline

    nodes = np.asarray(nodes, dtype=float)
    index = np.arange(factor * (nodes.size - 1) + 1) / factor
    fine = CubicSpline(np.arange(nodes.size), nodes)(index)
    fine[::factor] = nodes
    if np.any(np.diff(fine) <= 0.0):
        raise InvalidParameter("nodes too irregular for a monotone refinement")
    return fine


def trapezoid_weights(nodes):
    """Trapezoid-rule weights for an arbitrary strictly increasing node set.

    Integrates the constant 1 over [nodes[0], nodes[-1]] exactly.
    """
    nodes = np.asarray(nodes, dtype=float)
    w = np.empty_like(nodes)
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    return w


def radial_measure_weights(nodes, dim):
    """Quadrature weights for integrals over R^n of radial functions.

    sum(w * f(r)) approximates integral f(|x|) dx with the shell measure
    area(n) * r**(n-1) dr and trapezoid weights in r.

    For a smooth radial f(r) = g(r^2) the order is set by the trapezoid
    rule's Euler-Maclaurin end term at r = 0, h^2/12 times the slope of
    r^(n-1) g(r^2) there.  In dimension 2 that slope is g(0), so the weights
    are second order: heat_evolve of a 2D Gaussian misses the exact one by
    2.4e-4 relative L1 on 256 uniform nodes (rmax 20) and 1.5e-5 on 1024.
    In dimension 4 the first odd derivative that survives is the third, an
    h^4 term; in dimensions 3 and 5 the integrand is even and the error is
    rounding.  An end correction in dimension 2 would move every 2D radial
    number, so it is not made.
    """
    if dim not in SPHERE_AREA:
        raise InvalidParameter(f"unsupported dimension {dim}")
    nodes = np.asarray(nodes, dtype=float)
    return trapezoid_weights(nodes) * SPHERE_AREA[dim] * nodes ** (dim - 1)


def cumulative_integral(nodes, values, order=2):
    """Running integral of sampled values from nodes[0] to each node.

    order=2 accumulates trapezoid segments (and then matches the global
    trapezoid weights identically); order=4 integrates the cubic-spline
    interpolant, which is 4th-order accurate and keeps derived quantities
    smooth enough to re-differentiate.  At order=2 the integral runs along
    the last axis of ``values``; leading axes stack profiles, and a running
    sum adds in the same order per profile, so each equals its own 1D
    integral.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if order == 2:
        out = np.zeros_like(values)
        out[..., 1:] = np.cumsum(
            0.5 * (nodes[1:] - nodes[:-1]) * (values[..., 1:] + values[..., :-1]), axis=-1)
        return out
    if order == 4:
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(nodes, values)
        anti = spline.antiderivative()
        return anti(nodes) - anti(nodes[0])
    raise InvalidParameter(f"unsupported cumulative order {order}")


def cumulative_shell_mass(nodes, values, dim, order=2):
    """Running integral m(r_i) of ``values`` against the shell measure.

    The default order=2 uses cumulative trapezoid sums built from the same
    spacing as :func:`radial_measure_weights`, so the final entry matches the
    total mass at quadrature level exactly (Gauss-law consistency); order=4
    trades that exact tie for 4th-order pointwise accuracy.  Like
    :func:`cumulative_integral` at order=2, it integrates along the last
    axis.
    """
    nodes = np.asarray(nodes, dtype=float)
    g = SPHERE_AREA[dim] * nodes ** (dim - 1) * np.asarray(values, dtype=float)
    return cumulative_integral(nodes, g, order=order)


def _even_extension(nodes, values):
    """Mirror a radial profile across r=0, without doubling a node at 0."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes[0] == 0.0:
        return (np.concatenate([-nodes[:0:-1], nodes]),
                np.concatenate([values[:0:-1], values]))
    return (np.concatenate([-nodes[::-1], nodes]),
            np.concatenate([values[::-1], values]))


def radial_derivatives(nodes, values):
    """First and second radial derivatives of a smooth radial profile.

    The profile is extended evenly across r=0 (radial sections of smooth
    fields have vanishing odd derivatives there) and differentiated with a
    quintic spline, giving ~4th-order accurate second derivatives on smoothly
    graded grids.  Returns (dU/dr, d2U/dr2) on the input nodes.
    """
    from scipy.interpolate import make_interp_spline

    xs, ys = _even_extension(nodes, values)
    spl = make_interp_spline(xs, ys, k=5)
    return spl(nodes, 1), spl(nodes, 2)


def radial_laplacian(nodes, values, dim):
    """Radial Laplacian d2U/dr2 + (n-1)/r dU/dr with the r=0 limit n*U''(0)."""
    d1, d2 = radial_derivatives(nodes, values)
    lap = np.empty_like(d2)
    mask = nodes > 0
    lap[mask] = d2[mask] + (dim - 1) * d1[mask] / nodes[mask]
    lap[~mask] = dim * d2[~mask]
    return lap


def radial_interpolator(nodes, values, order=3):
    """Spline interpolant of a radial profile, even across 0, zero beyond r_max.

    ``order`` is the spline degree (odd): 3 is the cubic default, 5 a quintic
    whose h**6 error keeps a rescaled profile's mass when the profile spans
    only ~10 nodes per width.  Returns a callable f(r) accepting arrays of
    radii; ``values`` may carry trailing axes.

    f reads the spline at clip(r, 0, r_max): radii past r_max read 0,
    negative radii read the value at 0, and NaN radii read 0.  A cubic read
    touches only the knots its radii span: it evaluates the knot intervals
    from min to max of the clipped radii (all of them when a radius is NaN),
    where each radius finds the interval, offset and coefficients it finds in
    the whole spline, so every value keeps its bits.  A profile with a NaN or
    infinite value is refused with :class:`InvalidParameter`.
    """
    from scipy.interpolate import CubicSpline, PPoly, make_interp_spline

    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise InvalidParameter("a radial profile to interpolate must be finite")
    xs, ys = _even_extension(nodes, values)
    r_max = nodes[-1]
    if order == 3:
        spline = CubicSpline(xs, ys, extrapolate=False)
        coeffs, knots = spline.c, spline.x
        last = knots.size - 2  # the closed last interval, which holds r_max

        def read(x):
            if not x.size or np.isnan(x.max()):  # a NaN radius takes the whole spline
                return spline(x)
            # the intervals holding min(x) and max(x), half-open as PPoly's
            ends = np.searchsorted(knots, (x.min(), x.max()), side="right") - 1
            lo, hi = np.minimum(ends, last)
            return PPoly.construct_fast(coeffs[:, lo:hi + 1], knots[lo:hi + 2],
                                        extrapolate=False)(x)
    else:
        read = make_interp_spline(xs, ys, k=order)

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        out = read(np.clip(r, 0.0, r_max))
        out[~(r <= r_max)] = 0.0  # past r_max, or NaN
        return out if out.ndim else out[()]  # a 0-d read gives a scalar

    return evaluate
