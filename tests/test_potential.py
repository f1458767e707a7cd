"""Newtonian potential: Gauss-law reduction, free-space FFT solve, sup bound."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import fft2, ifft2, irfft2, next_fast_len, rfft2
from scipy.special import j0, j1, roots_legendre

from pkslab import fields, potential
from pkslab.errors import DomainTooSmall
from pkslab.fields import RadialField, total_mass
from pkslab.grids import (SPHERE_AREA, cumulative_shell_mass, gauss_law_gradient,
                          radial_grid, radial_interpolator)

from conftest import gaussian_radial


def test_disk_gradient_shell_theorem():
    nodes = np.linspace(0.0, 4.0, 4097)
    disk = fields.indicator_disk(nodes)
    vprime = potential.radial_gradient(disk)
    inside = (nodes > 0.05) & (nodes < 0.95)
    outside = nodes > 1.05
    np.testing.assert_allclose(-vprime[inside], nodes[inside] / 2.0, rtol=1e-6)
    np.testing.assert_allclose(-vprime[outside], 1.0 / (2.0 * nodes[outside]),
                               rtol=1e-5)
    assert np.abs(-vprime).max() == pytest.approx(0.5, abs=1e-3)


def test_zero_field_zero_gradient(default_nodes):
    u = RadialField(dim=3, nodes=default_nodes,
                    values=np.zeros_like(default_nodes))
    assert np.all(potential.radial_gradient(u) == 0.0)


def _direct_convolution_vprime(u, radii, n_angle=256):
    """Independent oracle: the 3D convolution integral for radial sources,
    by direct (s, angle) double quadrature of the Newton kernel."""
    x, w = roots_legendre(n_angle)  # cos(angle) nodes on [-1, 1]
    out = []
    sw = u.measure_weights() / (4.0 * math.pi)  # s^2 ds weights
    s = u.nodes
    for r in radii:
        d3 = (r**2 + s[None, :] ** 2 - 2.0 * r * s[None, :] * x[:, None]) ** 1.5
        integrand = (r - s[None, :] * x[:, None]) / np.maximum(d3, 1e-300)
        angle = 0.5 * (w[:, None] * integrand).sum(axis=0)
        out.append(-float(np.sum(sw * u.values * angle)))
    return np.array(out)


def test_gaussian_gradient_vs_direct_convolution(default_nodes):
    mass = 4.0 * math.pi
    u = gaussian_radial(3, mass, default_nodes)
    vprime = potential.radial_gradient(u)
    interp = radial_interpolator(default_nodes, vprime)
    radii = np.array([0.5, 1.0, 2.0, 3.5, 6.0])
    # closed-form oracle: m_3(r) = M (erf(r/2) - r e^{-r^2/4} / sqrt(pi))
    from scipy.special import erf

    m3 = mass * (erf(radii / 2.0) - radii * np.exp(-(radii**2) / 4.0) / math.sqrt(math.pi))
    closed = -m3 / (4.0 * math.pi * radii**2)
    np.testing.assert_allclose(interp(radii), closed, atol=1e-6)
    # structurally independent double-quadrature oracle, at its own resolution
    oracle = _direct_convolution_vprime(u, radii)
    np.testing.assert_allclose(interp(radii), oracle,
                               atol=5e-5 * np.abs(oracle).max())


def test_gauss_law_discrete_identity(default_nodes):
    # -V'(r) * area * r^{n-1} reproduces the independent cumulative sum exactly
    u = gaussian_radial(3, 2.0, default_nodes)
    vprime = potential.radial_gradient(u)
    area = 4.0 * math.pi
    lhs = -vprime * area * default_nodes**2
    g = area * default_nodes**2 * u.values
    m_indep = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(default_nodes) * (g[1:] + g[:-1]))]
    )
    np.testing.assert_allclose(lhs[1:], m_indep[1:], rtol=1e-13)
    assert m_indep[-1] == pytest.approx(total_mass(u), rel=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_stacked_gauss_law_equals_radial_gradient_per_row(dim):
    # duhamel_residual forms the gradient of a block of profiles at once
    nodes = radial_grid(300, 30.0)
    rows = np.stack([np.exp(-((nodes - c) ** 2) / w) for c, w in
                     [(0.0, 4.0), (3.0, 1.0), (10.0, 9.0), (0.5, 0.01)]])
    stacked = gauss_law_gradient(nodes, cumulative_shell_mass(nodes, rows, dim), dim)
    inner = nodes > 0
    assert not inner[0]
    for row, got in zip(rows, stacked):
        assert np.array_equal(
            got, potential.radial_gradient(RadialField(dim=dim, nodes=nodes, values=row)))
        # the Gauss law written out on the nodes r > 0, V'(0) = 0
        m = cumulative_shell_mass(nodes, row, dim)
        want = np.zeros_like(m)
        want[inner] = -m[inner] / (SPHERE_AREA[dim] * nodes[inner] ** (dim - 1))
        assert np.array_equal(got, want)


def test_far_field_gradient(default_nodes):
    mass = 5.0
    u = gaussian_radial(2, mass, default_nodes)
    vprime = potential.radial_gradient(u)
    far = default_nodes > 20.0
    np.testing.assert_allclose(
        -vprime[far], mass / (2.0 * math.pi * default_nodes[far]), rtol=1e-10
    )


def test_cartesian_gradient_matches_radial_oracle(gaussian_2d_4pi, default_nodes):
    g = potential.cartesian_gradient_2d(gaussian_2d_4pi)
    u_rad = gaussian_radial(2, 4.0 * math.pi, default_nodes)
    vprime = radial_interpolator(default_nodes,
                                 potential.radial_gradient(u_rad))
    xx, yy = gaussian_2d_4pi.meshgrid()
    rr = np.hypot(xx, yy)
    radial_component = np.where(
        rr > 0, (xx * g[0] + yy * g[1]) / np.where(rr > 0, rr, 1.0), 0.0
    )
    ref = vprime(rr)
    mask = rr < 12.0
    scale = np.abs(ref).max()
    assert np.abs(radial_component - ref)[mask].max() < 1e-5 * scale


def test_two_blob_midpoint_symmetry():
    a = 3.0
    grid = fields.gaussian_cartesian(1.0, center=(a, 0.0), t0=0.25)
    both = grid.with_values(
        grid.values + fields.gaussian_cartesian(1.0, center=(-a, 0.0), t0=0.25).values
    )
    g = potential.cartesian_gradient_2d(both)
    mid = both.size // 2  # the origin sample
    assert abs(g[0][mid, mid]) < 1e-12
    assert abs(g[1][mid, mid]) < 1e-12


def test_far_field_off_center_blob():
    width = math.sqrt(2.0 * 0.09)
    blob = fields.gaussian_cartesian(1.0, center=(2.0, 1.0), t0=0.09)
    g = potential.cartesian_gradient_2d(blob)
    x = blob.axis()
    r_far = 10.0 * width
    i = int(np.argmin(np.abs(x - (2.0 + r_far))))
    j = int(np.argmin(np.abs(x - 1.0)))
    r_actual = math.hypot(x[i] - 2.0, x[j] - 1.0)
    expected = 1.0 / (2.0 * math.pi * r_actual)
    assert np.hypot(g[0], g[1])[i, j] == pytest.approx(expected, rel=0.01)


def _oversampled_complex_solve(u):
    """Oracle for the free-space solve: the closed-form truncated-kernel
    transform sampled on the complex FFT grid oversampled past 2 sqrt(2) n,
    applied with one fft2 and one ifft2 per output.  Returns (V, grad V)."""
    n, h = u.size, u.spacing
    lk = math.sqrt(2.0) * 2.0 * u.extent
    padded = next_fast_len(int(math.ceil(2.0 * math.sqrt(2.0) * n)) + 1)
    k1d = 2.0 * math.pi * np.fft.fftfreq(padded, d=h)
    kx, ky = np.meshgrid(k1d, k1d, indexing="ij")
    k = np.hypot(kx, ky)
    with np.errstate(divide="ignore", invalid="ignore"):
        ghat = (1.0 - j0(k * lk)) / k**2 - lk * math.log(lk) * j1(k * lk) / k
    ghat[0, 0] = lk**2 / 4.0 - lk**2 * math.log(lk) / 2.0
    src = np.zeros((padded, padded))
    src[:n, :n] = u.values
    spec = fft2(src) * ghat

    def crop(a):
        return ifft2(a).real[:n, :n]

    return crop(spec), np.stack([crop(1j * kx * spec), crop(1j * ky * spec)])


def _off_centre_gaussian(extent, size):
    return fields.gaussian_cartesian(4.0 * math.pi, extent=extent, size=size,
                                     center=(0.1 * extent, -0.07 * extent),
                                     t0=(extent / 12.0) ** 2)


def _bumps(extent, size):
    parts = [fields.gaussian_cartesian(mass, extent=extent, size=size,
                                       center=(cx * extent, cy * extent),
                                       t0=(extent / w) ** 2)
             for mass, cx, cy, w in ((1.0, 0.1, -0.2, 14.0), (2.5, -0.25, 0.15, 18.0),
                                     (0.7, 0.05, 0.3, 24.0))]
    return parts[0].with_values(sum(p.values for p in parts))


@pytest.mark.parametrize("size", [32, 64, 128])
@pytest.mark.parametrize("extent", [6.0, 20.0])
@pytest.mark.parametrize("source", [_off_centre_gaussian, _bumps])
def test_free_space_solve_matches_oversampled_complex_oracle(source, extent, size):
    u = source(extent, size)
    v_ref, g_ref = _oversampled_complex_solve(u)
    v = potential.cartesian_potential_2d(u)
    g = potential.cartesian_gradient_2d(u)
    assert np.abs(v - v_ref).max() <= 1e-13 * np.abs(v_ref).max()
    assert np.abs(g - g_ref).max() <= 1e-13 * np.abs(g_ref).max()


def test_free_space_kernel_built_once_per_grid(monkeypatch):
    # the gradient spectra are built by the first gradient solve, the
    # potential spectrum only by the first potential solve
    monkeypatch.setattr(potential, "_KERNEL_CACHE", {})
    u = _bumps(7.5, 32)
    first = potential.cartesian_gradient_2d(u)
    assert list(potential._KERNEL_CACHE) == [(7.5, 32, "gradient")]
    cached = potential._KERNEL_CACHE[(7.5, 32, "gradient")]
    second = potential.cartesian_gradient_2d(u.with_values(2.0 * u.values))
    potential.cartesian_potential_2d(u)
    potential.cartesian_potential_2d(u)
    assert list(potential._KERNEL_CACHE) == [(7.5, 32, "gradient"), (7.5, 32, "potential")]
    assert potential._KERNEL_CACHE[(7.5, 32, "gradient")] is cached
    np.testing.assert_allclose(second, 2.0 * first, rtol=0, atol=1e-15 * np.abs(first).max())


def _full_grid_green_hat_2d(extent, size):
    """The kernel spectra as built before the quadrant evaluation: the
    closed-form transform evaluated on every point of the padded grid."""
    h = 2.0 * extent / size
    width = 2.0 * extent
    lk = math.sqrt(2.0) * width
    padded = next_fast_len(int(math.ceil(2.0 * math.sqrt(2.0) * size)) + 1)
    k1d = 2.0 * math.pi * np.fft.fftfreq(padded, d=h)
    kx, ky = k1d[:, None], k1d[None, :]
    k = np.hypot(kx, ky)
    with np.errstate(divide="ignore", invalid="ignore"):
        ghat = (1.0 - j0(k * lk)) / k**2 - lk * math.log(lk) * j1(k * lk) / k
    ghat[0, 0] = lk**2 / 4.0 - lk**2 * math.log(lk) / 2.0
    near = np.r_[0:size, -size + 1:0]
    at = np.r_[0:size, size + 1:2 * size]
    spectra = []
    for spectrum in (ghat, 1j * kx * ghat, 1j * ky * ghat):
        kernel = np.zeros((2 * size, 2 * size))
        kernel[np.ix_(at, at)] = ifft2(spectrum).real[np.ix_(near, near)]
        spectra.append(rfft2(kernel))
    return tuple(spectra)


def _full_grid_solve(u, spectra):
    """The solve as made before the pruned passes: one rfft2 of the density
    on the 2n grid and one irfft2 per output.  Returns (V, grad V)."""
    n = u.size
    spec = rfft2(u.values, s=(2 * n, 2 * n))
    out = [irfft2(spec * kernel, s=(2 * n, 2 * n))[:n, :n] for kernel in spectra]
    return out[0], np.stack(out[1:])


@pytest.mark.parametrize("size", [32, 64, 128, 256, 512])
@pytest.mark.parametrize("extent", [6.0, 20.0, 75.0])
def test_pruned_free_space_solve_is_bit_identical(monkeypatch, extent, size):
    # size 64 pads to an odd grid (189), 256 to an even one (726)
    monkeypatch.setattr(potential, "_KERNEL_CACHE", {})
    u = _bumps(extent, size)
    gradient = potential._green_hat_2d(extent, size, "gradient")
    potential_hat = potential._green_hat_2d(extent, size, "potential")
    # the layout perfbench's fft_points reads: tuples of (2n, n + 1) half spectra
    assert potential._KERNEL_CACHE[(extent, size, "gradient")] is gradient
    assert potential._KERNEL_CACHE[(extent, size, "potential")] is potential_hat
    assert len(gradient) == 2 and len(potential_hat) == 1
    spectra = potential_hat + gradient
    for got, want in zip(spectra, _full_grid_green_hat_2d(extent, size), strict=True):
        assert got.shape == (2 * size, size + 1) and np.iscomplexobj(got)
        assert np.array_equal(got, want)
    v_ref, g_ref = _full_grid_solve(u, spectra)
    assert np.array_equal(potential.cartesian_potential_2d(u), v_ref)
    assert np.array_equal(potential.cartesian_gradient_2d(u), g_ref)


@pytest.mark.parametrize("mode", ["gradient", "potential"])
def test_kernel_build_holds_one_padded_complex_grid_at_a_time(monkeypatch, mode):
    # the gradient kernels are formed and transformed one at a time, in place:
    # the build's peak stays near one complex padded grid plus the real ghat,
    # where forming both gradient spectra first peaked at 4.5 grids
    monkeypatch.setattr(potential, "_KERNEL_CACHE", {})
    size = 128
    padded = next_fast_len(int(math.ceil(2.0 * math.sqrt(2.0) * size)) + 1)
    tracemalloc.start()
    try:
        potential._green_hat_2d(20.0, size, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 16 * padded**2


def test_domain_too_small():
    wide = fields.gaussian_cartesian(1.0, extent=4.0, size=64, t0=4.0)
    with pytest.raises(DomainTooSmall):
        potential.cartesian_gradient_2d(wide)


def test_sup_gradient_bound_disk():
    nodes = np.linspace(0.0, 4.0, 4097)
    disk = fields.indicator_disk(nodes)
    lhs, rhs_core, ratio = potential.sup_gradient_bound_check(disk)
    assert lhs == pytest.approx(0.5, abs=1e-3)
    assert rhs_core == pytest.approx(math.sqrt(math.pi), rel=1e-5)
    assert ratio == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-2)


def test_sup_gradient_bound_zero_field(default_nodes):
    u = RadialField(dim=2, nodes=default_nodes,
                    values=np.zeros_like(default_nodes))
    assert potential.sup_gradient_bound_check(u) == (0.0, 0.0, 0.0)


def test_sup_gradient_ratio_amplitude_invariant(default_nodes):
    u = gaussian_radial(2, 2.0, default_nodes)
    _, _, ratio1 = potential.sup_gradient_bound_check(u)
    _, _, ratio2 = potential.sup_gradient_bound_check(u.with_values(7.3 * u.values))
    assert abs(ratio1 - ratio2) < 1e-10


def test_radial_potential_gauges(default_nodes):
    u = gaussian_radial(2, 4.0 * math.pi, default_nodes)
    canonical = potential.radial_potential(u, gauge="canonical")
    origin = potential.radial_potential(u, gauge="origin")
    assert origin[0] == 0.0
    # gauges differ by a constant only (up to their quadrature errors)
    diff = canonical - origin
    inner = default_nodes < 20.0
    assert np.ptp(diff[inner]) < 1e-5 * np.abs(canonical[0])
