"""Gaussian profiles and the 2D self-similar profile solver."""

import math

import numpy as np
import pytest

from pkslab import profiles
from pkslab.errors import FixedPointStalled, SupercriticalMass
from pkslab.fields import l1_distance, total_mass
from pkslab.grids import radial_grid
from pkslab.potential import radial_gradient


def test_gaussian_profile_basics(default_nodes):
    for dim in (2, 3, 4, 5):
        mass = 1.7
        g = profiles.gaussian_profile(dim, mass, default_nodes)
        assert g.values[0] == pytest.approx(mass * (4 * math.pi) ** (-dim / 2.0))
        assert total_mass(g) == pytest.approx(mass, rel=1e-10)
        from pkslab.fields import moments

        assert moments(g).second_moment == pytest.approx(2 * dim * mass, rel=1e-10)


def test_gaussian_potential_far_field(default_nodes):
    vp = radial_gradient(profiles.gaussian_profile(3, 1.0, default_nodes))
    far = default_nodes > 15.0
    np.testing.assert_allclose(
        -vp[far], 1.0 / (4.0 * math.pi * default_nodes[far] ** 2), rtol=1e-9
    )
    assert vp[0] == 0.0


def test_gaussian_potential_4d_closed_form(default_nodes):
    # -V_4'(r) * 2 pi^2 r^3 = m_4(r) = 1 - (1 + r^2/4) e^{-r^2/4}
    vp = radial_gradient(profiles.gaussian_profile(4, 1.0, default_nodes))
    idx = int(np.argmin(np.abs(default_nodes - 2.0)))
    r = default_nodes[idx]
    m4 = -vp[idx] * 2.0 * math.pi**2 * r**3
    expected = 1.0 - (1.0 + r**2 / 4.0) * math.exp(-(r**2) / 4.0)
    assert expected == pytest.approx(1.0 - 2.0 / math.e, abs=2e-3)  # r ~ 2
    assert m4 == pytest.approx(expected, abs=1e-6)


def test_profile_zero_mass(default_nodes):
    res = profiles.self_similar_profile_2d(0.0, grid=default_nodes)
    assert res.residual == 0.0
    assert np.all(res.field.values == 0.0)


def test_profile_small_mass_is_nearly_gaussian():
    grid = radial_grid(2048, 30.0)
    mass = 0.1
    res = profiles.self_similar_profile_2d(mass, grid=grid)
    gauss = profiles.gaussian_profile(2, mass, grid)
    assert l1_distance(res.field, gauss) / mass <= 0.01


def test_profile_4pi_converges(gm_4pi):
    res = gm_4pi
    assert res.residual <= 1e-6
    assert np.all(res.field.values > 0.0)  # strictly positive
    assert total_mass(res.field) == pytest.approx(4.0 * math.pi, rel=1e-10)


def test_residual_separates_gaussian_from_profile(gm_4pi):
    mass = 4.0 * math.pi
    gauss = profiles.gaussian_profile(2, mass, gm_4pi.field.nodes)
    r_gauss = profiles.stationary_residual(gauss)
    assert r_gauss > 100.0 * gm_4pi.residual
    assert r_gauss > 1.0  # O(1): the Gaussian is not stationary for M = 4 pi


def test_residual_zero_field(default_nodes):
    from pkslab.fields import RadialField

    zero = RadialField(dim=2, nodes=default_nodes,
                       values=np.zeros_like(default_nodes))
    assert profiles.stationary_residual(zero) == 0.0


def test_supercritical_mass_rejected():
    with pytest.raises(SupercriticalMass):
        profiles.self_similar_profile_2d(8.0 * math.pi)
    with pytest.raises(SupercriticalMass):
        profiles.self_similar_profile_2d(25.5)


def test_fixed_point_stalled():
    with pytest.raises(FixedPointStalled):
        profiles.self_similar_profile_2d(7.0 * math.pi, max_iter=3)


def test_peak_monotone_in_mass():
    grid = radial_grid(2048, 30.0)
    masses = [0.5, math.pi, 2 * math.pi, 4 * math.pi, 6 * math.pi]
    peaks = [profiles.self_similar_profile_2d(m, grid=grid).field.values[0]
             for m in masses]
    assert np.all(np.diff(peaks) > 0.0)


def test_free_energy_finite_and_below_gaussian(gm_4pi):
    from pkslab.diagnostics import free_energy_2d

    mass = 4.0 * math.pi
    fe_gm = free_energy_2d(gm_4pi.field)
    fe_gauss = free_energy_2d(profiles.gaussian_profile(2, mass, gm_4pi.field.nodes))
    assert math.isfinite(fe_gm.value)
    # the profile is the finite-free-energy stationary point
    assert fe_gm.value < fe_gauss.value


def test_residual_gauge_independence(gm_4pi):
    # only grad V enters the residual: recomputing with both cumulative rules
    # (which differ by more than a constant in V itself) shifts nothing
    # beyond their quadrature difference
    res4 = profiles.stationary_residual(gm_4pi.field)
    assert res4 == pytest.approx(gm_4pi.residual, rel=1e-12)
