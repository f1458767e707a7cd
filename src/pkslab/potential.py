"""Newtonian potential E_n * u and its gradient.

The potential is the only nonlocal ingredient of the chemotaxis nonlinearity.
For radial fields the gradient reduces exactly to the shell theorem,
-V'(r) = m(r) / (area(n) r^{n-1}) with m the enclosed mass, and the enclosed
mass is accumulated with the same trapezoid spacing as total_mass so the
discrete Gauss law holds to rounding.  For general 2D fields the free-space
convolution uses the truncated Green's function of Vico, Greengard and
Ferrando (J. Comput. Phys. 323, 2016), which is accurate to quadrature
precision for smooth compactly supported densities (a plain sampled-kernel
convolution is only second order and cannot reach the agreement targets of
the radial oracle).  Its closed-form transform, a function of |k| alone, is
sampled on one quadrant of an FFT grid oversampled past 2 sqrt(2) n,
mirrored onto the other three and brought to real space.  Nothing here keeps
the kernels: a public solve builds the ones it reads and drops them when it
returns, and the Cartesian time stepper of ``evolution`` builds its gradient
kernels on its first solve and passes them to every later one, so they live
as long as its run.  The two gradient kernels are built one after the other,
each transformed in the array it is formed in, so the build holds the real
transform and one padded complex grid at a time: at n = 256 (a 726 x 726
padded grid) it peaks at 18 MiB.
Every solve then convolves with that kernel on the 2n x 2n grid by real
FFTs, one axis at a time so that only rows some output reads are
transformed: the forward r2c pass runs on the n rows of the density, not
on the n zero rows of its padding, and each output's c2r pass runs on the
n rows kept by the crop.  The results equal rfft2 and irfft2 on the full
2n grid bit for bit.  The solve's complex passes run in place on arrays it
made itself, and each cropped output is scaled into one preallocated array.
The kernel build and the solve import ``scipy.fft`` on their first call, so
a radial run never loads it; a Cartesian scenario imports it when it is
loaded (``cli.RUN_IMPORTS``).
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.special import j0, j1

from .errors import DomainTooSmall, InvalidParameter
from .fields import CartesianField2D, RadialField, lp_norm, total_mass
from .grids import SPHERE_AREA, cumulative_integral, cumulative_shell_mass, gauss_law_gradient


def radial_gradient_rows(nodes, dim, values, order=2):
    """V'(r) of radial ``values`` on ``nodes`` via the Gauss/shell reduction,
    from the enclosed mass of :func:`grids.cumulative_shell_mass` at
    ``order``.  At order 2 the leading axes of ``values`` may stack profiles;
    each row equals its own 1D gradient bit for bit."""
    m = cumulative_shell_mass(nodes, values, dim, order=order)
    return gauss_law_gradient(nodes, m, dim)


def radial_gradient(u, order=2):
    """V'(r) for radial u on its nodes (see :func:`radial_gradient_rows`)."""
    if not isinstance(u, RadialField):
        raise InvalidParameter("radial_gradient expects a RadialField")
    return radial_gradient_rows(u.nodes, u.dim, u.values, order=order)


def radial_potential(u, gauge="canonical", order=2):
    """The potential V = E_n * u itself on the node set of u.

    gauge="canonical" uses the free-space fundamental solution directly
    (E_2 = -log|x| / 2pi, E_n = |x|^{2-n}/((n-2) area(n)) for n >= 3), which
    makes same-mass free-energy comparisons gauge-consistent.  gauge="origin"
    integrates the smooth Gauss-law gradient cumulatively from V(0) = 0, which
    is kink-free at quadrature level and is what iterative solvers should
    exponentiate.  Only the gradient is physical.
    """
    if gauge == "origin":
        vp = radial_gradient(u, order=order)
        return cumulative_integral(u.nodes, vp, order=order)
    if gauge != "canonical":
        raise InvalidParameter(f"unknown gauge {gauge!r}")
    return radial_potential_rows(u.nodes, u.dim, u.values, order=order)


def radial_potential_rows(nodes, dim, values, order=2):
    """The canonical-gauge potential of :func:`radial_potential` for radial
    ``values`` on ``nodes``.  At order 2 the leading axes of ``values`` may
    stack profiles: every pass works along the last axis, and each row
    equals its own 1D potential bit for bit."""
    n = dim
    area = SPHERE_AREA[n]
    r = nodes
    m = cumulative_shell_mass(r, values, n, order=order)
    shell = area * r ** (n - 1) * values
    if n == 2:
        kernel = np.where(r > 0, np.log(np.where(r > 0, r, 1.0)), 0.0)
    else:
        kernel = np.where(r > 0, r ** (2.0 - n), 0.0)
    f = shell * kernel  # vanishes at r = 0 because shell does
    # tail_i = integral over [r_i, r_max] of f, by per-segment trapezoids
    seg = 0.5 * (r[1:] - r[:-1]) * (f[..., 1:] + f[..., :-1])
    tail = np.zeros_like(f)
    tail[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    inner = np.where(r > 0, m * kernel, 0.0)
    if n == 2:
        return -(inner + tail) / (2.0 * math.pi)
    return (inner + tail) / ((n - 2.0) * area)


# ---------------------------------------------------------------------------
# 2D free-space solve (truncated Green's function, spectrally accurate)
# ---------------------------------------------------------------------------

# The shapes of the kernel spectra built in this process, by (extent, size,
# mode): one record per spectrum with its ``shape`` and ``size``, and none
# of its values, so it holds a few hundred bytes whatever ran.  Nothing here
# reads it; perfbench's tracer takes the largest ``size`` as the padded FFT
# grid of the free-space solve.  It keeps the name of the cache it replaced.
_KERNEL_CACHE = {}


def _green_hat_2d(extent, size, mode):
    """Half spectra of the potential kernel (``mode="potential"``) or of the
    two gradient kernels (``mode="gradient"``) on the 2n grid.

    The kernel E_2 restricted to |x| <= L_K with L_K = sqrt(2) * box width has
    the closed-form transform (1 - J0(k L_K))/k^2 - L_K log(L_K) J1(k L_K)/k;
    sampled on a grid oversampled past 2 sqrt(2), it leaves no aliased images
    within any source-target distance.  The transform depends on |k| alone,
    and the grid's negative frequencies are the exact negatives of its
    positive ones, so it is evaluated on the quadrant of non-negative
    frequencies and mirrored onto the other three.  That transform, or i kx
    and i ky times it, is brought to real space.  A source-target offset is
    at most n - 1 cells per axis, so only the kernel offsets |m| <= n - 1
    are ever read: copied into a 2n x 2n array, they give the same discrete
    convolution as a circular one on the 2n grid.  Returns the tuple of the
    kernels' ``rfft2``; only their shapes are kept, in ``_KERNEL_CACHE``.

    The gradient kernels are made one at a time: i kx ghat is formed,
    inverse-transformed in place (``overwrite_x``), cropped and placed, and
    dropped before i ky ghat is formed.  The potential kernel transforms the
    real ghat itself, since a complex copy would take scipy's complex path
    and change the bits.  Under tracemalloc the build peaks at 2.3 padded
    complex grids for the gradient and 2.0 for the potential (18 and 16 MiB
    at n = 256).
    """
    from scipy.fft import ifft2, next_fast_len, rfft2

    h = 2.0 * extent / size
    width = 2.0 * extent
    lk = math.sqrt(2.0) * width
    padded = next_fast_len(int(math.ceil(2.0 * math.sqrt(2.0) * size)) + 1)
    k1d = 2.0 * math.pi * np.fft.fftfreq(padded, d=h)
    kq = np.abs(k1d[:padded // 2 + 1])  # |k| per axis, Nyquist included
    k = np.hypot(kq[:, None], kq[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = (1.0 - j0(k * lk)) / k**2 - lk * math.log(lk) * j1(k * lk) / k
    quad[0, 0] = lk**2 / 4.0 - lk**2 * math.log(lk) / 2.0
    i = np.arange(padded)
    fold = np.minimum(i, padded - i)  # index of |k| in the quadrant
    ghat = quad[np.ix_(fold, fold)]
    del k, quad  # free before the padded grids are made
    near = np.r_[0:size, -size + 1:0]  # offsets 0..n-1, then -(n-1)..-1
    at = np.r_[0:size, size + 1:2 * size]  # where they sit on the 2n grid

    def place(kernel_full):
        # real part: on an even padded grid the unpaired Nyquist samples of
        # i k ghat give the kernel an imaginary part, which only feeds an
        # imaginary output
        kernel = np.zeros((2 * size, 2 * size))
        kernel[np.ix_(at, at)] = kernel_full.real[np.ix_(near, near)]
        return rfft2(kernel)

    if mode == "potential":
        # on the real ghat: a complex copy would take another FFT path
        spectra = (place(ifft2(ghat)),)
    else:
        # one gradient spectrum at a time, transformed in the array it is
        # formed in, so no two padded complex grids are alive at once
        spectra = tuple(place(ifft2(1j * kx * ghat, overwrite_x=True))
                        for kx in (k1d[:, None], k1d[None, :]))
    _KERNEL_CACHE[(extent, size, mode)] = tuple(
        SimpleNamespace(shape=s.shape, size=s.size) for s in spectra)
    return spectra


def check_boundary_decay(u):
    """Raise DomainTooSmall unless the 2D density u decays before the boundary.

    The truncated-kernel solve is exact for any source inside the box, so the
    real requirement is decay before the boundary: check the outer 5% band
    rather than the full outer half.
    """
    mass = total_mass(u) if u.nonnegative else float(np.sum(np.abs(u.values)) * u.cell_area())
    if mass <= 0:
        return
    xx, yy = u.meshgrid()
    band = 0.95 * u.extent
    outside = (np.abs(xx) > band) | (np.abs(yy) > band)
    stray = float(np.sum(np.abs(u.values[outside])) * u.cell_area())
    if stray > 1e-8 * abs(mass):
        raise DomainTooSmall(
            f"mass fraction {stray / abs(mass):.2e} in the outer 5% band "
            "of the grid; enlarge the domain"
        )


def _free_space_solve(u, mode, check_domain=True, spectra=None):
    if not isinstance(u, CartesianField2D):
        raise InvalidParameter("the FFT path expects a CartesianField2D")
    if check_domain:
        check_boundary_decay(u)
    from scipy.fft import fft, ifft, irfft, rfft

    n = u.size
    kernels = _green_hat_2d(u.extent, n, mode) if spectra is None else spectra
    # irfft2 applies its 1/(2n)^2 as one multiply after the c2r pass; n is a
    # power of two, so that factor is exact and the result the same bits.
    # Each complex pass runs in place on an array the solve itself made.
    spec = fft(rfft(u.values, n=2 * n, axis=1), n=2 * n, axis=0, overwrite_x=True)
    scale = 1.0 / (4 * n * n)
    out = np.empty((len(kernels), n, n))
    for kernel, crop in zip(kernels, out):
        rows = ifft(spec * kernel, axis=0, norm="forward", overwrite_x=True)[:n]
        np.multiply(irfft(rows, n=2 * n, axis=1, norm="forward")[:, :n], scale, out=crop)
    return out[0] if mode == "potential" else out


def cartesian_potential_2d(u):
    """V = E_2 * u on the grid of u, canonical log-kernel gauge.  Each call
    builds the potential kernel it reads (about 25 ms at n = 256)."""
    return _free_space_solve(u, "potential")


def cartesian_gradient_2d(u, check_domain=True, spectra=None):
    """grad(E_2 * u) for a compactly supported 2D density, stacked as
    (dV/dx, dV/dy) in an array of shape (2, n, n).

    ``check_domain=False`` skips :func:`check_boundary_decay`; time steppers
    run that check once on their initial data and then trust the run.
    ``spectra`` are the gradient kernels ``_green_hat_2d(u.extent, u.size,
    "gradient")`` returned, which a caller that solves on one grid many times
    builds once and passes to every solve; without them each call builds
    its own (about 50 ms at n = 256).
    """
    return _free_space_solve(u, "gradient", check_domain, spectra)


def sup_gradient_bound_check(u):
    """Data for the interpolation bound sup|grad E_n * u| <= C |u|_1^{1/n} |u|_inf^{1-1/n}.

    Returns (lhs, rhs_core, ratio) with rhs_core the norm product; the
    constant C is not asserted here because only an empirical value exists.
    """
    lhs = float(np.abs(radial_gradient(u)).max())
    m1 = lp_norm(u, 1)
    minf = lp_norm(u, math.inf)
    n = u.dim
    rhs_core = m1 ** (1.0 / n) * minf ** (1.0 - 1.0 / n)
    ratio = 0.0 if rhs_core == 0.0 else lhs / rhs_core
    return lhs, rhs_core, ratio
