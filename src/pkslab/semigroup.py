"""Heat kernel evolution, the similarity-variable semigroup, and its kernel
Taylor expansion.

The semigroup generated by L_n = Laplacian + xi.grad/2 + n/2 acts as

    S_n(tau) f = (4 pi a)^{-n/2} int f(eta) exp(-|. - c eta|^2 / (4a)) deta,

with a(tau) = 1 - exp(-tau) and shrink factor c = exp(-tau/2); the plain heat
kernel is the (a, c) = (t, 1) member of the same family.  On radial grids the
angular integral collapses to a modified-Bessel factor.  The kernel matrix
in radius is built on its band |r - c s| <= sqrt(4 a BAND_EXPONENT), outside
which every entry is below e^-60 of the kernel's peak, and stored as CSR; a
band that fills more than half the matrix is evaluated whole and stored dense.
A heat kernel (c = 1) is symmetric bit for bit, so its CSR band is
evaluated once per unordered node pair, on an upper band that holds the
mirror of every entry below the diagonal, and all its rows are filled from
that band by one gather.  CSR indices are int32 while N^2 < 2^31.
Columns are renormalised so the discrete operator conserves mass exactly
against the shared trapezoid weights.  On 2D Cartesian grids the kernel
separates per axis into two small matrices.  The CSR build imports
``scipy.sparse`` on its first call, so a Cartesian run never loads it; a
radial scenario imports it when it is loaded (``cli.RUN_IMPORTS``).

The public applies (:func:`heat_evolve`, :func:`similarity_semigroup`) build
each kernel for one use and drop it.  Only the radial time stepper reuses
kernels, and it keeps them itself (see :mod:`pkslab.evolution`); this module
holds no state.
"""

import math

import numpy as np
from scipy.special import erf, i0e, i1e, ive
from scipy.special import gamma as gamma_fn

from .errors import InvalidParameter, OutOfValidatedRange
from .fields import RadialField, moments
from .grids import SPHERE_AREA, gauss_law_gradient, radial_measure_weights, trapezoid_weights


def kernel_width_shrink(tau):
    """Width a = 1 - e^{-tau} (accurate for small tau) and shrink factor
    c = e^{-tau/2} of S_n(tau), the same in every dimension."""
    return -math.expm1(-tau), math.exp(-tau / 2.0)


def nonlinearity_weight(dim, tau):
    """f_n(tau) = exp((1 - n/2) tau): the similarity-variable weight of the
    nonlinearity (advection velocity, field energy)."""
    return math.exp((1.0 - dim / 2.0) * tau)


def scaled_sphere_average(dim, z):
    """exp(-z) times the average of exp(z cos angle) over the unit sphere S^{n-1}.

    Equals Gamma(n/2) (2/z)^{n/2-1} I_{n/2-1}(z) exp(-z); tends to 1 as z -> 0.
    Dimensions 2-4 use the fast scaled-Bessel specialisations (this sits in
    the inner loop of every propagator build).
    """
    z = np.asarray(z, dtype=float)
    if dim == 2:
        return i0e(z)
    if dim == 3:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = -np.expm1(-2.0 * z) / (2.0 * z)
        return np.where(z > 0.0, out, 1.0)
    if dim == 4:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = 2.0 * i1e(z) / z
        return np.where(z > 0.0, out, 1.0)
    nu = dim / 2.0 - 1.0
    out = np.ones_like(z)
    big = z > 1e-12
    zb = z[big]
    out[big] = gamma_fn(dim / 2.0) * (2.0 / zb) ** nu * ive(nu, zb)
    return out


def scaled_sphere_average_cos(dim, z):
    """exp(-z) times the sphere average of cos(angle) exp(z cos angle).

    This is the derivative of :func:`scaled_sphere_average`'s unscaled form,
    Gamma(n/2) (2/z)^{n/2-1} I_{n/2}(z) exp(-z) = (z/n) times the plain
    average in dimension n + 2; tends to z/n as z -> 0.
    """
    z = np.asarray(z, dtype=float)
    if dim == 2:
        return i1e(z)
    # Gamma(n/2 + 1) = (n/2) Gamma(n/2)
    return z / dim * scaled_sphere_average(dim + 2, z)


# ---------------------------------------------------------------------------
# radial kernel: one formula, evaluated on its band
# ---------------------------------------------------------------------------

# Kernel entries with (r - c s)^2 > 4 a BAND_EXPONENT are dropped (the dense
# layout keeps them; they cost it nothing).  The n-dimensional kernel never
# exceeds its Gaussian factor, so each dropped entry is below e^-60 (~9e-27)
# of the kernel's peak (4 pi a)^{-n/2}.  That is negligible only next to a
# result of the order of the peak times the source's mass.  A zero-mass
# source gives a result about e^-s smaller at time s, so w_star_quadrature
# relies on its wide kernels (51-80% fill) taking the dense layout, which
# keeps every entry: forced into CSR they move its mass defect from 5.9e-11
# to 1.05e-5, past the wstar_quadrature check's 1e-6.
BAND_EXPONENT = 60.0


def kernel_peak(dim, a):
    """(4 pi a)^{-n/2}, the peak of the heat kernel of width a.  Taken per
    scalar width: numpy's array power need not round like the scalar one."""
    return (4.0 * math.pi * a) ** (-dim / 2.0)


def gaussian_factor(dim, a, r, s, peak=None):
    """(4 pi a)^{-n/2} exp(-(r - s)^2 / (4a)), the Gaussian factor of the
    radial heat kernel and, in one dimension, the whole line kernel; a, r and
    s broadcast.  An array of widths comes with ``peak``, the
    :func:`kernel_peak` of each."""
    if peak is None:
        peak = kernel_peak(dim, a)
    return peak * np.exp(-((r - s) ** 2) / (4.0 * a))


def radial_kernel(dim, a, r, s, peak=None):
    """Gaussian factor and Bessel argument of the radial heat kernel.

    The angular average of (4 pi a)^{-n/2} exp(-|x - y|^2 / (4a)) over
    |x| = r, |y| = s is ``gauss * scaled_sphere_average(n, z)``, with gauss
    the :func:`gaussian_factor` and z = r s / (2a); its cosine-weighted
    average uses :func:`scaled_sphere_average_cos` instead.  Returns
    ``(gauss, z)``; a, r, s and ``peak`` are as for :func:`gaussian_factor`.
    """
    return gaussian_factor(dim, a, r, s, peak), r * s / (2.0 * a)


def _band_edges(points, centers, a):
    """Index ranges [lo, hi) of the increasing ``points`` in the bands of
    half-width sqrt(4 a BAND_EXPONENT) around ``centers``; a and the centers
    broadcast."""
    h = np.sqrt(4.0 * a * BAND_EXPONENT)
    return (np.searchsorted(points, centers - h, side="left"),
            np.searchsorted(points, centers + h, side="right"))


def kernel_rows(nodes, dim, r, widths, peaks=None):
    """The radial kernel at radius r for each of several widths, on the nodes
    of its band, in one pass.

    Returns ``(cols, bounds, band, gauss, z)``: the row of ``widths[k]`` is
    entries ``bounds[k]:bounds[k + 1]`` of :func:`radial_kernel`'s ``gauss``
    and ``z``, at the nodes ``band = nodes[cols]`` within
    sqrt(4 widths[k] BAND_EXPONENT) of r.  A caller that reuses the widths
    may pass their :func:`kernel_peak` values as ``peaks``.
    """
    widths = np.asarray(widths, dtype=float)
    if peaks is None:
        peaks = [kernel_peak(dim, a) for a in widths]
    lo, hi = _band_edges(nodes, r, widths)
    counts = hi - lo
    bounds = np.zeros(widths.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    cols = np.arange(bounds[-1]) - np.repeat(bounds[:-1] - lo, counts)
    band = nodes[cols]
    gauss, z = radial_kernel(dim, np.repeat(widths, counts), r, band, np.repeat(peaks, counts))
    return cols, bounds, band, gauss, z


_DENSE_BLOCK_ENTRIES = 1 << 14


def _normalise_columns(kern, w):
    """Scale the columns of the dense kernel ``kern`` in place so that
    w @ kern = w (mass-exact); a column whose integral is not positive is
    scaled by w alone.  Returns ``kern``."""
    col = kern.T @ w  # integral of the kernel over the output variable
    col = np.where(col <= 0.0, 1.0, col)
    kern *= w[None, :] / col[None, :]
    return kern


def _upper_band(nodes, dim, a, lo, hi):
    """The heat kernel (c = 1) of the band lo[i] <= j < hi[i] on its upper
    band, as ``(upper, start)``: k(r_j, r_k) for j <= k < ends[j] is
    ``upper[start[j] + k - j]``.

    ends[j] = max(hi[j], L_j), with L_j the number of rows i whose band starts
    at or before j.  As lo never decreases, every entry (i, j) below the
    diagonal has i < L_j, so row j holds its mirror (j, i), also where the
    per-row rounding of the edges keeps i out of row j's own band.
    """
    diag = np.arange(nodes.size)
    width = np.maximum(hi, np.searchsorted(lo, diag, side="right"))
    width -= diag
    start = np.zeros(nodes.size + 1, dtype=np.intp)
    np.cumsum(width, out=start[1:])
    cols = np.arange(start[-1])
    cols -= np.repeat(start[:-1] - diag, width)
    gauss, z = radial_kernel(dim, a, np.repeat(nodes, width), nodes[cols])
    return gauss * scaled_sphere_average(dim, z), start


def _radial_propagator(nodes, dim, a, shrink):
    """Matrix P with (P u)_i ~= (kernel_{a,c} u)(r_i), mass-exact.

    P_ij = k(r_i, c s_j) w_j with w the shared measure weights, columns scaled
    so that sum_i w_i P_ij = w_j exactly (discrete mass conservation; also
    keeps narrow under-resolved kernels conservative instead of lossy).  Only
    the band |r_i - c s_j| <= sqrt(4 a BAND_EXPONENT) is evaluated and stored
    in CSR form, with int32 indices while N^2 < 2^31.  When c = 1, k(r_i, r_j)
    and k(r_j, r_i) are the same floating-point number, so the kernel is
    evaluated once per unordered node pair, on an upper band that also holds
    the mirror of every entry below the diagonal (see :func:`_upper_band`),
    and each band entry (i, j) reads it at (min(i, j), |i - j|).
    A band filling more than half the matrix is evaluated whole and stored
    dense: there the CSR indices cost more than the few entries they skip.
    ``P @ u`` applies either layout.
    """
    size = nodes.size
    s = shrink * nodes
    lo, hi = _band_edges(s, nodes, a)  # columns of row i: lo[i] <= j < hi[i]
    counts = hi - lo
    nnz = int(counts.sum())
    w = radial_measure_weights(nodes, dim)
    if 2 * nnz > size * size:
        # a block of rows at a time: whole-matrix temporaries go back to the
        # OS after each single-use build (w_star_quadrature makes 343 dense
        # builds at N = 768) and would be page-faulted in again by the next
        # one; at N = 4096 the blocks also bound the temporaries
        kern = np.empty((size, size))
        step = max(1, _DENSE_BLOCK_ENTRIES // size)
        for i in range(0, size, step):
            gauss, z = radial_kernel(dim, a, nodes[i:i + step, None], s[None, :])
            kern[i:i + step] = gauss * scaled_sphere_average(dim, z)
        return _normalise_columns(kern, w)
    # the index work runs in intp: numpy gathers by int32 indices are slower
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    cols = np.arange(nnz)
    cols -= np.repeat(indptr[:-1] - lo, counts)
    if shrink == 1.0:
        upper, start = _upper_band(nodes, dim, a, lo, hi)
        rows = np.repeat(np.arange(size), counts)
        take = cols - rows
        np.abs(take, out=take)
        take += start[np.minimum(rows, cols, out=rows)]
        kern = upper[take]
        del rows, take, upper  # freed before the normalisation's temporaries
    else:
        gauss, z = radial_kernel(dim, a, np.repeat(nodes, counts), s[cols])
        kern = gauss * scaled_sphere_average(dim, z)
    from scipy.sparse import csr_array

    # a CSR kernel holds at most N^2 / 2 entries, each column index below N
    index = np.int32 if size * size < 2**31 else np.int64
    mat = csr_array((kern, cols.astype(index), indptr.astype(index)), shape=(size, size))
    # the transposed product adds w_i k_ij to column j over ascending i,
    # starting from +0.0: the sum a bincount over the entries would form
    col = mat.T @ w
    col = np.where(col <= 0.0, 1.0, col)
    mat.data *= (w / col)[cols]
    return mat


def _apply_radial(field, a, shrink):
    """Apply the radial kernel to a field with a single-use matrix."""
    mat = _radial_propagator(field.nodes, field.dim, a, shrink)
    return field.with_values(mat @ field.values)


# ---------------------------------------------------------------------------
# 1D separable kernels (Cartesian paths and product-form test fields)
# ---------------------------------------------------------------------------

def line_propagator(x, a, shrink):
    """Mass-exact 1D kernel matrix on an arbitrary increasing coordinate set:
    the one-dimensional :func:`gaussian_factor`, columns normalised against
    the trapezoid weights."""
    x = np.asarray(x, dtype=float)
    kern = gaussian_factor(1, a, x[:, None], shrink * x[None, :])
    return _normalise_columns(kern, trapezoid_weights(x))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _apply(field, a, shrink):
    """The kernel of width a and shrink factor c applied once to a field."""
    if isinstance(field, RadialField):
        return _apply_radial(field, a, shrink)
    k = line_propagator(field.axis(), a, shrink)
    return field.with_values(k @ field.values @ k.T)


def heat_evolve(field, t):
    """Evolve a field by the free heat semigroup for time t (mass-exact)."""
    if t <= 0:
        raise InvalidParameter(f"heat time must be positive, got {t}")
    return _apply(field, t, 1.0)


def similarity_semigroup(field, tau):
    """Apply S_n(tau) to a field in similarity variables."""
    if tau <= 0:
        raise InvalidParameter(f"tau must be positive, got {tau}")
    return _apply(field, *kernel_width_shrink(tau))


def gaussian_values(dim, r):
    """(4 pi)^{-n/2} exp(-r^2/4) (the invariant profile of S_n).

    The passes of that formula run in one fresh array, in its order."""
    r = np.asarray(r, dtype=float)
    out = np.square(r, out=np.empty_like(r))
    np.negative(out, out=out)
    out /= 4.0
    np.exp(out, out=out)
    out *= (4.0 * math.pi) ** (-dim / 2.0)
    return out if out.ndim else out[()]  # a 0-d input gives a scalar


def first_order_heat_expansion(field, tau):
    """The first-order linear asymptote M G_n - e^{-tau/2} B0 . grad G_n.

    M and B0 are taken from the moments of ``field``; the returned field lives
    on the same grid.  S_n(tau) field approaches this to order e^{-tau} when
    the field carries a finite second moment.
    """
    mom = moments(field)
    mass, b0 = mom.mass, mom.center
    if isinstance(field, RadialField):
        values = mass * gaussian_values(field.dim, field.nodes)
        return field.with_values(values, nonnegative=False)
    xx, yy = field.meshgrid()
    g = gaussian_values(2, np.hypot(xx, yy))
    # grad G = -(xi/2) G, so -B0 . grad G = +(B0 . xi / 2) G
    values = mass * g + math.exp(-tau / 2.0) * 0.5 * (b0[0] * xx + b0[1] * yy) * g
    return field.with_values(values, nonnegative=False)


# ---------------------------------------------------------------------------
# kernel Taylor expansion in r = e^{-s/2}
# ---------------------------------------------------------------------------

def t2_coefficient(dim, xi_sq, dot, z_sq):
    """Polynomial multiplying e^{-|xi|^2/4} e^{-s} in the kernel expansion.

    It is the r^2 coefficient of (1-r^2)^{-n/2} exp(-|xi - r z|^2 / (4(1-r^2)))
    over exp(-|xi|^2/4) at r = 0: n/2 - |xi|^2/4 + (xi.z)^2/8 - |z|^2/4.
    """
    return 0.5 * dim - 0.25 * xi_sq + 0.125 * dot**2 - 0.25 * z_sq


def kernel_lhs(xi, z, s):
    """The exact rescaled kernel (1-e^{-s})^{-n/2} e^{-|xi - e^{-s/2} z|^2/(4(1-e^{-s}))}
    for n-vectors xi and z."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    a, c = kernel_width_shrink(s)
    diff = xi - c * z
    return a ** (-xi.size / 2.0) * math.exp(-float(diff @ diff) / (4.0 * a))


# empirical envelope constant for the third-order remainder; random sweeps in
# the unit ball stay under 2, so 4 flags genuine coefficient errors only
REMAINDER_ENVELOPE_CONSTANT = 4.0


def kernel_taylor_terms(xi, z, s):
    """Terms of the kernel expansion in powers of e^{-s/2} at a single point
    (xi, z) of R^n.

    Returns (T0, T1, T2, remainder_actual) where remainder_actual =
    kernel - (T0 + T1 + T2).  The remainder is checked against the
    cubic-order envelope C e^{-3s/2} (1 + |xi|^6 + |z|^6); the expansion is
    validated on s >= 1 only.
    """
    if s < 1.0:
        raise OutOfValidatedRange(f"kernel expansion validated for s >= 1, got s={s}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if xi.shape != z.shape:
        raise InvalidParameter("xi and z must be vectors of the same length")
    xi_sq = float(xi @ xi)
    z_sq = float(z @ z)
    dot = float(xi @ z)
    g = math.exp(-xi_sq / 4.0)
    t0 = g
    t1 = 0.5 * dot * g * math.exp(-s / 2.0)
    t2 = t2_coefficient(xi.size, xi_sq, dot, z_sq) * g * math.exp(-s)
    lhs = kernel_lhs(xi, z, s)
    remainder = lhs - (t0 + t1 + t2)
    envelope = (
        REMAINDER_ENVELOPE_CONSTANT
        * math.exp(-1.5 * s)
        * (1.0 + xi_sq**3 + z_sq**3)
    )
    if abs(remainder) > envelope:
        raise OutOfValidatedRange(
            f"kernel remainder {remainder:.3e} exceeds its decay envelope "
            f"{envelope:.3e}; the expansion coefficients are inconsistent"
        )
    return t0, t1, t2, remainder


def div_gaussian_gradient_values(dim, r):
    """div(G_n grad V_n) along the radius, via the analytic product rule.

    With V_n = E_n * G_n and the Gauss-law reduction this equals
    G_n * (m_n(r) r^{2-n} / (2 area(n)) - G_n), where m_n is the enclosed mass
    of the unit Gaussian.  This is the source profile of every second-order
    correction term.
    """
    r = np.asarray(r, dtype=float)
    g = gaussian_values(dim, r)
    m = gaussian_enclosed_mass(dim, r)
    area = SPHERE_AREA[dim]
    term = np.zeros_like(r)
    mask = r > 0
    term[mask] = m[mask] * r[mask] ** (2.0 - dim) / (2.0 * area)
    return g * (term - g)


def gaussian_enclosed_mass(dim, r):
    """Closed-form mass of G_n inside radius r (unit total mass), with
    half = r/2 and E = exp(-half^2):

        n = 2: -expm1(-half^2)             n = 3: erf(half) - r E / sqrt(pi)
        n = 4: -expm1(-half^2) - half^2 E  n = 5: erf(half) - (r + r^3/6) E / sqrt(pi)

    Each formula's passes run in its order on the returned array and one
    temporary; half and -half^2 are recomputed where a pass consumed them.
    """
    if dim not in (2, 3, 4, 5):
        raise InvalidParameter(f"unsupported dimension {dim}")
    r = np.asarray(r, dtype=float)
    out = np.divide(r, 2.0, out=np.empty_like(r))  # half
    if dim == 2:
        np.square(out, out=out)
        np.negative(out, out=out)
        np.expm1(out, out=out)
        np.negative(out, out=out)
    elif dim == 4:
        np.square(out, out=out)  # half^2
        tmp = np.negative(out, out=np.empty_like(r))
        np.exp(tmp, out=tmp)
        tmp *= out  # half^2 E
        np.negative(out, out=out)
        np.expm1(out, out=out)
        np.negative(out, out=out)
        out -= tmp
    else:
        tmp = np.square(out, out=np.empty_like(r))
        np.negative(tmp, out=tmp)
        np.exp(tmp, out=tmp)  # E
        if dim == 3:
            tmp *= r
        else:
            poly = np.power(r, 3, out=out)
            poly /= 6.0
            poly += r
            tmp *= poly
            np.divide(r, 2.0, out=out)  # half again
        tmp /= math.sqrt(math.pi)
        erf(out, out=out)
        out -= tmp
    return out if out.ndim else out[()]  # a 0-d input gives a scalar


def gaussian_potential_gradient(dim, r):
    """V_n'(r) of the unit Gaussian by the Gauss law."""
    r = np.asarray(r, dtype=float)
    return gauss_law_gradient(r, gaussian_enclosed_mass(dim, r), dim)
