"""Field containers, quadrature norms, moments, and the similarity map."""

import dataclasses
import math

import numpy as np
import pytest

from pkslab import asymptotics, fields
from pkslab.diagnostics import phi_density, relative_entropy
from pkslab.errors import InvalidField, InvalidParameter
from pkslab.evolution import SolverConfig, Trajectory, TrajectoryRecord
from pkslab.fields import (
    CartesianField2D,
    RadialField,
    SimilarityState,
    from_similarity,
    l1_distance,
    lp_norm,
    moments,
    read_snapshot,
    to_similarity,
    total_mass,
    write_snapshot,
)
from pkslab.grids import nested_refinement, radial_grid, radial_interpolator, trapezoid_weights
from pkslab.potential import radial_gradient, sup_gradient_bound_check
from pkslab.semigroup import gaussian_values

from conftest import gaussian_radial, reference_radial_interpolator


def test_total_mass_of_gaussian(default_nodes):
    mass = 4.0 * math.pi
    f = gaussian_radial(2, mass, default_nodes)
    assert abs(total_mass(f) - mass) < 1e-8


def test_total_mass_zero_field(default_nodes):
    f = RadialField(dim=3, nodes=default_nodes, values=np.zeros_like(default_nodes))
    assert total_mass(f) == 0.0


def test_total_mass_unit_disk():
    nodes = np.linspace(0.0, 4.0, 4097)
    disk = fields.indicator_disk(nodes)
    assert abs(total_mass(disk) - math.pi) < 1e-5


def test_trapezoid_weights_integrate_constants(default_nodes):
    # the defining invariant of the weights: exact on the constant 1
    w = trapezoid_weights(default_nodes)
    assert abs(w.sum() - default_nodes[-1]) < 1e-12 * default_nodes[-1]


@pytest.mark.parametrize("kind", ["graded", "uniform"])
def test_nested_refinement_keeps_the_coarse_nodes(kind):
    coarse = radial_grid(768, 28.0, kind=kind)
    fine = nested_refinement(coarse, 16)
    assert np.array_equal(fine[::16], coarse)
    np.testing.assert_allclose(fine, radial_grid(16 * 767 + 1, 28.0, kind=kind),
                               rtol=0, atol=1e-13)


def test_nested_refinement_rejects_a_fold():
    with pytest.raises(InvalidParameter):
        nested_refinement(np.array([0.0, 1.0, 1.01, 5.0, 5.02, 9.0]), 8)


def test_sup_norm_peak(default_nodes):
    mass = 4.0 * math.pi
    f = gaussian_radial(3, mass, default_nodes)
    assert lp_norm(f, math.inf) == pytest.approx(mass * (4 * math.pi) ** -1.5, abs=0)


def test_l1_norm_equals_mass(default_nodes):
    f = gaussian_radial(4, 2.5, default_nodes)
    assert lp_norm(f, 1) == pytest.approx(total_mass(f), rel=1e-14)


def test_l2_norm_gaussian_closed_form(default_nodes):
    # int G_2^2 = (4 pi)^{-2} * 2 pi * int r e^{-r^2/2} dr = 1 / (8 pi)
    g2 = RadialField(dim=2, nodes=default_nodes,
                     values=gaussian_values(2, default_nodes))
    assert lp_norm(g2, 2) ** 2 == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-10)


def test_lp_norm_rejects_small_p(default_nodes):
    f = gaussian_radial(2, 1.0, default_nodes)
    with pytest.raises(InvalidParameter):
        lp_norm(f, 0.5)


def test_moments_gaussian(default_nodes):
    for dim in (2, 3, 4, 5):
        g = RadialField(dim=dim, nodes=default_nodes,
                        values=gaussian_values(dim, default_nodes))
        mom = moments(g)
        assert mom.mass == pytest.approx(1.0, abs=1e-10)
        assert mom.second_moment == pytest.approx(2.0 * dim, rel=1e-10)
        assert np.all(mom.center == 0.0)


def test_moments_scaled_gaussian_4d(default_nodes):
    g = gaussian_radial(4, 2.0, default_nodes)
    mom = moments(g)
    assert mom.mass == pytest.approx(2.0, rel=1e-12)
    assert mom.second_moment == pytest.approx(16.0, rel=1e-10)


def test_moments_shifted_gaussian_cartesian():
    f = fields.gaussian_cartesian(1.0, center=(1.0, 0.0))
    mom = moments(f)
    assert mom.center[0] == pytest.approx(1.0, abs=1e-9)
    assert mom.center[1] == pytest.approx(0.0, abs=1e-12)


def test_radial_field_invariants(default_nodes):
    with pytest.raises(InvalidField):
        RadialField(dim=6, nodes=default_nodes, values=np.zeros_like(default_nodes))
    with pytest.raises(InvalidField):
        RadialField(dim=2, nodes=default_nodes[::-1],
                    values=np.zeros_like(default_nodes))
    bad = np.zeros_like(default_nodes)
    bad[3] = math.nan
    with pytest.raises(InvalidField):
        RadialField(dim=2, nodes=default_nodes, values=bad)


def test_negative_clamp_policy(default_nodes):
    values = gaussian_values(2, default_nodes)
    ringing = values.copy()
    ringing[100] = -1e-13 * values.max()
    f = RadialField(dim=2, nodes=default_nodes, values=ringing)
    assert f.values.min() == 0.0  # clamped, not raised
    too_negative = values.copy()
    too_negative[100] = -1e-6
    with pytest.raises(InvalidField):
        RadialField(dim=2, nodes=default_nodes, values=too_negative)


def test_cartesian_grid_power_of_two():
    with pytest.raises(InvalidField):
        CartesianField2D(extent=10.0, values=np.zeros((100, 100)))


def test_similarity_round_trip(default_nodes):
    u = gaussian_radial(3, 2.0, default_nodes, t0=0.7)
    for t in (0.1, 1.0, 10.0):
        state = to_similarity(u, t)
        assert state.tau == pytest.approx(math.log(t))
        back, t_back = from_similarity(state)
        assert t_back == pytest.approx(t)
        assert l1_distance(back, u) < 1e-6 * total_mass(u)
        assert abs(total_mass(state.field) - total_mass(u)) < 1e-6 * total_mass(u)


def test_similarity_round_trip_keeps_mass_of_narrow_profile():
    # at t = 10 the similarity image of this bump spans ~16 nodes per width;
    # a cubic interpolant lost 2.7e-6 of the mass on the way back
    nodes = radial_grid(512, 30.0)
    u = fields.RadialField(dim=4, nodes=nodes, values=np.exp(-(nodes / 0.375) ** 2))
    back, _ = from_similarity(to_similarity(u, 10.0))
    assert abs(total_mass(back) - total_mass(u)) < 1e-7 * total_mass(u)


def test_similarity_of_heat_kernel_is_gaussian(default_nodes):
    # Gamma_1 in similarity variables at t = 1 is exactly G_n
    mass = 3.0
    for dim in (2, 3):
        u = gaussian_radial(dim, mass, default_nodes, t0=1.0)
        state = to_similarity(u, 1.0)
        gauss = gaussian_radial(dim, mass, default_nodes, t0=1.0)
        assert l1_distance(state.field, gauss) < 1e-10


def test_similarity_rejects_nonpositive_time(default_nodes):
    u = gaussian_radial(2, 1.0, default_nodes)
    with pytest.raises(InvalidParameter):
        to_similarity(u, 0.0)


def _cartesian_trajectory(u):
    record = TrajectoryRecord(time=1.0, field=u, moments=moments(u), sup_norm=u.values.max(),
                              free_energy=math.nan, l1_dist_to_profile=math.nan)
    return Trajectory(dim=2, kind="physical", config=SolverConfig(),
                      scheme="pseudo-spectral", clamp_tolerance=3e-8,
                      records=[record, dataclasses.replace(record, time=2.0)])


# the radial-only functions refuse a 2D Cartesian field instead of reading it
RADIAL_ONLY = {
    "to_similarity": lambda u: to_similarity(u, 2.0),
    "from_similarity": lambda u: from_similarity(SimilarityState(field=u, tau=0.5)),
    "relative_entropy": relative_entropy,
    "phi_density": lambda u: phi_density(_cartesian_trajectory(u), ((0.0, 0.0), 2.0), 0.5),
    "sup_gradient_bound_check": sup_gradient_bound_check,
    "radial_gradient": radial_gradient,
}


@pytest.mark.parametrize("name", RADIAL_ONLY)
def test_radial_only_functions_refuse_cartesian_fields(name):
    u = fields.gaussian_cartesian(2.0, extent=8.0, size=32)
    with pytest.raises(InvalidParameter):
        RADIAL_ONLY[name](u)


def test_snapshot_round_trip_radial(tmp_path, default_nodes):
    u = gaussian_radial(4, 1.5, default_nodes)
    path = tmp_path / "field.csv"
    write_snapshot(u, path, t=2.5)
    loaded, t = read_snapshot(path)
    assert t == 2.5
    assert loaded.dim == 4
    np.testing.assert_allclose(loaded.nodes, u.nodes, rtol=1e-15)
    np.testing.assert_allclose(loaded.values, u.values, rtol=1e-15)
    with open(path) as fh:
        assert fh.readline().startswith("# dim=4 kind=radial t=")


def test_snapshot_round_trip_cartesian(tmp_path):
    u = fields.gaussian_cartesian(1.0, size=32, extent=8.0)
    path = tmp_path / "field2d.csv"
    write_snapshot(u, path, t=1.0)
    loaded, _ = read_snapshot(path)
    assert isinstance(loaded, CartesianField2D)
    assert loaded.extent == pytest.approx(8.0)
    np.testing.assert_allclose(loaded.values, u.values, rtol=1e-15)


# ---------------------------------------------------------------------------
# radial_interpolator: a cubic read evaluates only the knots its radii span
# ---------------------------------------------------------------------------

INTERP_GRIDS = {
    "graded": radial_grid(512, 40.0),
    "uniform": radial_grid(300, 20.0, "uniform"),
    # no node at r = 0, unequal gaps
    "irregular": np.sort(np.random.default_rng(5).uniform(0.05, 6.0, 80)),
}


def _interp_profile(nodes, columns):
    """A profile of mixed sign, as ``columns`` columns (1: a flat array)."""
    base = np.exp(-(nodes**2) / 4.0) * np.cos(nodes)
    if columns == 1:
        return base
    return np.column_stack([base, -0.5 * nodes * base, base - 0.25][:columns])


def _interp_queries(nodes):
    r_max = nodes[-1]
    rng = np.random.default_rng(11)
    k = nodes.size // 3
    strata = [rng.uniform(lo, lo + 0.07, 200) for lo in np.linspace(0.0, r_max, 9)]
    return {
        "knots": nodes.copy(),
        "lone_r_max": np.array([r_max]),
        "r_max_0d": np.float64(r_max),
        "past_r_max": np.array([r_max, np.nextafter(r_max, np.inf), 1.5 * r_max, 1e300]),
        "negative": np.array([-1.0, -0.0, -1e-300, 0.0]),
        "infinite": np.array([-np.inf, np.inf, 0.5 * r_max]),
        "nan": np.array([np.nan, 0.25 * r_max, r_max, np.nan]),
        "lone_nan": np.array(np.nan),
        "empty": np.array([]),
        "0d": np.array(0.3 * r_max),
        "python_float": 0.7 * r_max,
        "2d": rng.uniform(-1.0, 1.1 * r_max, (20, 9)),
        "one_interval": rng.uniform(nodes[k], nodes[k + 1], 50),
        "interval_ends": np.array([nodes[k], np.nextafter(nodes[k + 1], 0.0)]),
        "strata": np.concatenate(strata),
        **{f"stratum_{i}": r for i, r in enumerate(strata)},
    }


# order 5 reads the whole spline; it shares the zeroing of NaN radii
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("grid", list(INTERP_GRIDS))
def test_windowed_read_keeps_the_bits_of_the_whole_spline(grid, columns, order):
    nodes = INTERP_GRIDS[grid]
    values = _interp_profile(nodes, columns)
    windowed = radial_interpolator(nodes, values, order=order)
    whole = reference_radial_interpolator(nodes, values, order=order)
    for name, r in _interp_queries(nodes).items():
        got, want = windowed(r), whole(r)
        assert type(got) is type(want), name
        assert np.shape(got) == np.shape(want) == np.shape(r) + values.shape[1:], name
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


def test_interpolator_reads_its_contract():
    nodes = INTERP_GRIDS["graded"]
    values = _interp_profile(nodes, 3)
    f = radial_interpolator(nodes, values)
    out = f(np.array([-2.0, -np.inf, np.inf, 2.0 * nodes[-1], np.nan, nodes[-1]]))
    assert np.array_equal(out[:2], [values[0], values[0]])
    assert not out[2:5].any()
    np.testing.assert_allclose(out[5], values[-1], rtol=0.0, atol=1e-15)


def test_cubic_read_touches_only_the_knots_its_radii_span(monkeypatch):
    from scipy.interpolate import PPoly

    nodes = INTERP_GRIDS["uniform"]
    f = radial_interpolator(nodes, _interp_profile(nodes, 1))
    windows = []
    construct = PPoly.construct_fast

    def spy(c, x, *args, **kwargs):
        windows.append(np.array(x))
        return construct(c, x, *args, **kwargs)

    monkeypatch.setattr(PPoly, "construct_fast", spy)
    k = 100
    f(np.array([0.5 * (nodes[k] + nodes[k + 1]), nodes[k]]))
    f(np.array([nodes[-1]]))
    f(np.array([nodes[k], nodes[k + 5], -3.0]))
    assert [w.tolist() for w in windows] == [
        nodes[k:k + 2].tolist(), nodes[-2:].tolist(), nodes[:k + 7].tolist()]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_interpolator_refuses_a_non_finite_profile(bad):
    nodes = INTERP_GRIDS["uniform"]
    for columns in (1, 3):
        values = _interp_profile(nodes, columns)
        values[(7,) + (1,) * (columns > 1)] = bad
        for order in (3, 5):
            with pytest.raises(InvalidParameter):
                radial_interpolator(nodes, values, order=order)


@pytest.mark.parametrize("b0", [[0.0], [0.0, -0.7, 0.2]], ids=["radial", "dipole"])
def test_c1_monte_carlo_equals_its_whole_spline_value(monkeypatch, wstar_default, b0):
    windowed = asymptotics.constant_c1_monte_carlo(2.5, b0, wstar_default, samples=20_000, seed=3)
    monkeypatch.setattr(asymptotics, "radial_interpolator", reference_radial_interpolator)
    whole = asymptotics.constant_c1_monte_carlo(2.5, b0, wstar_default, samples=20_000, seed=3)
    assert windowed == whole
