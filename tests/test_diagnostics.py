"""Free energies, relative entropy, Phi density, virial slopes."""

import math

import numpy as np
import pytest

from pkslab import diagnostics as dg, evolution as ev
from pkslab.errors import OutOfRange
from pkslab.fields import RadialField
from pkslab.grids import radial_grid, radial_measure_weights

from conftest import gaussian_radial


def test_free_energy_zero_field(default_nodes):
    zero = RadialField(dim=2, nodes=default_nodes,
                       values=np.zeros_like(default_nodes))
    assert dg.free_energy_2d(zero).value == 0.0


def test_free_energy_scaling_recomputation(default_nodes):
    # doubling the field: entropy gains 2 M log 2 on top of doubling, the
    # confinement term doubles, the interaction quadruples; assert against
    # direct recomputation instead of a closed form
    w = gaussian_radial(2, math.pi, default_nodes)
    one = dg.free_energy_2d(w)
    two = dg.free_energy_2d(w.with_values(2.0 * w.values))
    mass = math.pi
    assert two.entropy_term == pytest.approx(
        2.0 * one.entropy_term + 2.0 * mass * math.log(2.0), rel=1e-10
    )
    assert two.moment_term == pytest.approx(2.0 * one.moment_term, rel=1e-12)
    assert two.interaction_term == pytest.approx(4.0 * one.interaction_term,
                                                 rel=1e-10)
    assert two.value == pytest.approx(
        two.entropy_term + two.moment_term - two.interaction_term, rel=1e-12
    )


def test_free_energy_cartesian_matches_radial(default_nodes, gaussian_2d_4pi):
    rad = dg.free_energy_2d(gaussian_radial(2, 4 * math.pi, default_nodes))
    cart = dg.free_energy_2d(gaussian_2d_4pi)
    assert cart.value == pytest.approx(rad.value, rel=1e-5)
    assert cart.gauge_shift == pytest.approx(rad.gauge_shift, abs=1e-5)


def test_relative_entropy_gaussian_is_field_energy_only(default_nodes):
    mass = 2.0
    g = gaussian_radial(3, mass, default_nodes)
    out = dg.relative_entropy(g, tau=0.0)
    assert abs(out.entropy_part) < 1e-10
    # f_3(0) = 1, so the value is exactly half the squared field energy
    w = radial_measure_weights(default_nodes, 3)
    from pkslab.potential import radial_gradient

    energy = float(np.sum(w * radial_gradient(g) ** 2))
    assert out.value == pytest.approx(0.5 * energy, rel=1e-10)


def test_relative_entropy_positive_part(default_nodes):
    rng = np.random.default_rng(7)
    for _ in range(10):
        mass = rng.uniform(0.5, 4.0)
        bump = np.zeros_like(default_nodes)
        for _ in range(int(rng.integers(1, 4))):
            c = rng.uniform(0.0, 5.0)
            wdt = rng.uniform(0.5, 2.0)
            bump += rng.uniform(0.1, 1.0) * np.exp(
                -((default_nodes - c) ** 2) / wdt**2
            )
        field = RadialField(dim=3, nodes=default_nodes, values=bump)
        scale = mass / float(np.sum(field.measure_weights() * bump))
        field = field.with_values(scale * bump)
        out = dg.relative_entropy(field, tau=0.0)
        assert out.entropy_part >= -1e-12


def test_relative_entropy_zero_only_at_gaussian(default_nodes):
    g = gaussian_radial(3, 1.5, default_nodes)
    assert abs(dg.relative_entropy(g).entropy_part) < 1e-10
    shifted = gaussian_radial(3, 1.5, default_nodes, t0=1.3)
    assert dg.relative_entropy(shifted).entropy_part > 1e-3


def test_phi_density_pure_heat_closed_form(pure_heat_run_2d):
    # point mass released at t = 0: Phi(rho) = M rho^2 / (4 pi s1)
    mass = 4.0 * math.pi
    s1 = 3.0
    rho = dg.rho_grid_from_records(pure_heat_run_2d, s1, 0.3, 1.0)
    phi = np.array([dg.phi_density(pure_heat_run_2d, (0.0, s1), p) for p in rho])
    exact = mass * rho**2 / (4.0 * math.pi * s1)
    assert np.abs(phi / exact - 1.0).max() <= 1e-4


def test_phi_kernel_bound(pure_heat_run_2d):
    mass = 4.0 * math.pi
    for rho in (0.4, 0.8, 1.2):
        phi = dg.phi_density(pure_heat_run_2d, (0.0, 3.0), rho)
        assert phi <= mass / (4.0 * math.pi) + 1e-12


def test_phi_out_of_range(pure_heat_run_2d):
    with pytest.raises(OutOfRange):
        dg.phi_density(pure_heat_run_2d, (0.0, 1.2), 1.0)  # s = 0.2 < t_init


def test_phi_monotonicity_pure_heat(pure_heat_run_2d):
    # without interaction, dPhi/drho = (2/rho) Phi exactly; the margin is
    # (M / 8 pi)(2/rho) Phi > 0
    mass = 4.0 * math.pi
    s1 = 3.0
    rho = dg.rho_grid_from_records(pure_heat_run_2d, s1, 0.3, 1.0)
    rg, phi, margin = dg.phi_scan(pure_heat_run_2d, (0.0, s1), rho)
    expected = (mass / (8.0 * math.pi)) * 2.0 / rg * phi
    np.testing.assert_allclose(margin[1:-1], expected[1:-1], rtol=1e-3)


def test_phi_monotonicity_subcritical(phi_run_2d):
    s1 = 2.0
    rho = dg.rho_grid_from_records(phi_run_2d, s1, 0.1, 1.0)
    _, phi, margin = dg.phi_scan(phi_run_2d, (0.0, s1), rho)
    assert (margin[1:-1] / phi[1:-1]).min() >= -1e-3


def test_phi_offset_center(pure_heat_run_2d):
    # off-center Phi for a radial trajectory goes through the Bessel path;
    # closed form: Phi = (M rho^2 / (4 pi)) e^{-d^2/(4 s1)} / s1
    mass, s1, d = 4.0 * math.pi, 3.0, 1.5
    rho = 0.7
    phi = dg.phi_density(pure_heat_run_2d, (d, s1), rho)
    exact = mass * rho**2 / (4.0 * math.pi * s1) * math.exp(-(d**2) / (4.0 * s1))
    assert phi == pytest.approx(exact, rel=2e-4)


def test_virial_slope_and_prediction(gaussian_2d_4pi):
    cfg = ev.SolverConfig(t_init=1.0, t_end=2.0)
    traj = ev.evolve(gaussian_2d_4pi, cfg)
    slope = dg.virial_slope(traj)
    pred = dg.virial_prediction_2d(4.0 * math.pi)
    assert slope == pytest.approx(pred, rel=1e-4)


def test_second_moment_linear_envelope_n3():
    # n >= 3: the second moment grows at most linearly; the envelope constant
    # is recorded, not asserted against any reference value
    nodes = radial_grid(1024, 80.0)
    u0 = gaussian_radial(3, 2.0, nodes, t0=1.0)
    traj = ev.evolve(u0, ev.SolverConfig(t_init=1.0, t_end=30.0))
    t = traj.times()
    m2 = traj.second_moments()
    slope = np.polyfit(t, m2, 1)[0]
    residual = m2 - (m2[0] + slope * (t - t[0]))
    assert slope > 0.0
    assert np.abs(residual).max() < 0.05 * (m2[-1] - m2[0])


def test_diagnostics_csv(tmp_path, phi_run_2d):
    path = tmp_path / "diag.csv"
    dg.diagnostics_csv(phi_run_2d, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,mass,second_moment,sup_norm")
    assert len(lines) == len(phi_run_2d.records) + 1


def test_phi_scan_csv(tmp_path, phi_run_2d):
    path = tmp_path / "phi.csv"
    rho = dg.rho_grid_from_records(phi_run_2d, 2.0, 0.2, 0.9)
    dg.phi_scan_csv(phi_run_2d, (0.0, 2.0), rho, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,phi,margin"
    assert len(lines) == rho.size + 1
