"""Time integration: splitting steps, drivers, blow-up, Duhamel residual."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy

import pkslab
from pkslab import evolution as ev, fields
from pkslab.errors import (
    InsufficientSampling,
    InvalidField,
    InvalidParameter,
    OutOfRange,
    StepRejected,
)
from pkslab.fields import RadialField, l1_distance, total_mass
from pkslab.potential import radial_gradient
from pkslab.semigroup import kernel_row, scaled_sphere_average, scaled_sphere_average_cos
from pkslab.grids import SPHERE_AREA, radial_grid, radial_interpolator, radial_measure_weights

from conftest import gaussian_radial


def test_step_mass_conservation(default_nodes):
    u0 = gaussian_radial(2, 4.0 * math.pi, default_nodes, t0=1.0)
    stepper = ev._make_stepper(u0, "physical")
    cfg = ev.SolverConfig()
    values = u0.values
    mass0 = total_mass(u0)
    for _ in range(10):
        assert stepper.cfl_limit(values) >= 1e-3
        values = ev._strang_step(stepper, values, 1e-3, 1.0, cfg, values.max())
    assert abs(total_mass(u0.with_values(values)) - mass0) < 1e-10 * mass0


def test_clamp_keeps_mass_on_graded_grid():
    # the clamp restores the measure-weighted mass, not the plain sample sum,
    # which differ on a graded grid; undershoots beyond the tolerance reject
    nodes = radial_grid(32, 10.0)
    weights = radial_measure_weights(nodes, 2)
    values = np.exp(-((nodes - 3.0) ** 2))
    values[[4, 20]] = -0.1
    out = ev._clamp(values, 0.5, 1.0, weights)
    assert out.min() >= 0.0
    mass = np.sum(weights * values)
    assert abs(np.sum(weights * out) - mass) <= 1e-14 * mass
    with pytest.raises(StepRejected):
        ev._clamp(values, 1e-12, 1.0, weights)


class _ReferenceRadialAdvection:
    """The radial advection of the stepper before it precomputed its grid
    geometry, kept verbatim (with ``grids.cumulative_shell_mass`` at order 2
    and ``_minmod``) as the oracle the stepper must match bit for bit."""

    def __init__(self, grid_nodes, dim, kind):
        self.nodes = grid_nodes
        self.dim = dim
        self.scheme = "muscl" if kind == "physical" else "central"
        self.weights = radial_measure_weights(grid_nodes, dim)
        self.faces = 0.5 * (grid_nodes[1:] + grid_nodes[:-1])
        self.face_area = SPHERE_AREA[dim] * self.faces ** (dim - 1)
        self.dr = np.diff(grid_nodes)
        self.origin_volume = SPHERE_AREA[dim] / dim * self.faces[0] ** dim

    @staticmethod
    def _cumulative_shell_mass(nodes, values, dim):
        nodes = np.asarray(nodes, dtype=float)
        values = SPHERE_AREA[dim] * nodes ** (dim - 1) * np.asarray(values, dtype=float)
        out = np.zeros_like(values)
        out[1:] = np.cumsum(0.5 * (nodes[1:] - nodes[:-1]) * (values[1:] + values[:-1]))
        return out

    @staticmethod
    def _minmod(a, b):
        out = np.where(np.sign(a) == np.sign(b), np.where(np.abs(a) < np.abs(b), a, b), 0.0)
        return out

    def face_velocity(self, values):
        m = self._cumulative_shell_mass(self.nodes, values, self.dim)
        m_face = 0.5 * (m[1:] + m[:-1])
        return -m_face / self.face_area

    def advection_rhs(self, values, weight):
        v = weight * self.face_velocity(values)
        if self.scheme == "central":
            u_face = 0.5 * (values[1:] + values[:-1])
            flux = v * u_face
        else:
            slopes = np.zeros_like(values)
            d = np.diff(values) / self.dr
            slopes[1:-1] = self._minmod(d[:-1], d[1:])
            left = values[:-1] + slopes[:-1] * (self.faces - self.nodes[:-1])
            right = values[1:] + slopes[1:] * (self.faces - self.nodes[1:])
            flux = np.where(v >= 0.0, v * left, v * right)
        rhs = np.zeros_like(values)
        af = self.face_area * flux
        w0 = self.weights[0] if self.weights[0] > 0.0 else self.origin_volume
        rhs[0] = -af[0] / w0
        rhs[1:-1] = -(af[1:] - af[:-1]) / self.weights[1:-1]
        rhs[-1] = af[-1] / self.weights[-1]
        return rhs

    def cfl_limit(self, values):
        v = np.abs(self.face_velocity(values))
        active = v > 0.0
        if not np.any(active):
            return math.inf
        return ev.CFL_SAFETY * float(np.min(self.dr[active] / v[active]))


def _advection_test_fields(nodes):
    rmax = nodes[-1]
    bump = 2.0 * np.exp(-((nodes - 0.1 * rmax) ** 2) / 4.0)
    yield bump
    yield np.where(nodes < 0.4 * rmax, bump, 0.0)  # far tail exactly 0
    yield np.where(nodes > 0.05 * rmax, bump, 0.0)  # at rest near the origin
    # a dip below zero, as the second Heun stage may see
    yield bump - 1e-3 * np.exp(-((nodes - 0.3 * rmax) ** 2))


@pytest.mark.parametrize("kind", ["physical", "similarity"])  # muscl, central
@pytest.mark.parametrize("grid_kind", ["graded", "uniform"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_radial_advection_matches_reference_bit_for_bit(dim, grid_kind, kind):
    nodes = radial_grid(128, 20.0, grid_kind)
    stepper = ev._RadialStepper(nodes, dim, kind)
    reference = _ReferenceRadialAdvection(nodes, dim, kind)
    assert stepper.scheme == reference.scheme

    def same_bits(a, b):  # also tells +0.0 from -0.0
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    for values in _advection_test_fields(nodes):
        assert same_bits(stepper.face_velocity(values), reference.face_velocity(values))
        assert same_bits(stepper.cfl_limit(values), reference.cfl_limit(values))
        for weight in (1.0, ev.nonlinearity_weight(4, 0.3)):
            assert same_bits(stepper.advection_rhs(values, weight),
                             reference.advection_rhs(values, weight))
    assert stepper.cfl_limit(np.zeros_like(nodes)) == math.inf


def test_record_free_energy_catches_only_package_errors(monkeypatch):
    u0 = gaussian_radial(2, math.pi, radial_grid(64, 20.0))
    cfg = ev.SolverConfig(t_init=1.0, t_end=1.01)
    error = InvalidField("moments must be finite")

    def free_energy_2d(field):
        raise error

    monkeypatch.setattr(ev._diagnostics, "free_energy_2d", free_energy_2d)
    assert math.isnan(ev.evolve(u0, cfg).records[0].free_energy)
    error = ZeroDivisionError("a bug")
    with pytest.raises(ZeroDivisionError):
        ev.evolve(u0, cfg)


def test_small_mass_tracks_pure_heat():
    nodes = radial_grid(1024, 60.0)
    mass = 1e-6
    u0 = gaussian_radial(2, mass, nodes, t0=1.0)
    cfg_on = ev.SolverConfig(t_init=1.0, t_end=10.0, reference="m_gamma_t")
    traj = ev.evolve(u0, cfg_on)
    rel = traj.l1_errors() / mass
    assert np.nanmax(rel) < 1e-6


@pytest.mark.parametrize("kind, reference, with_field", [
    ("physical", "m_gaussian", False),
    ("physical", "profile", True),
    ("similarity", "m_gamma_t", False),
    ("similarity", "profile", False),
])
def test_reference_the_run_cannot_compute_is_rejected(kind, reference, with_field):
    u0 = gaussian_radial(2, math.pi, radial_grid(64, 20.0))
    cfg = ev.SolverConfig(t_init=1.0, t_end=1.01, reference=reference)
    with pytest.raises(InvalidParameter):
        if kind == "physical":
            ev.evolve(u0, cfg)  # takes no reference field: only the name decides
        else:
            ev.evolve_similarity(u0, cfg, reference_field=u0 if with_field else None)


def test_record_schedule_log_spaced():
    cfg = ev.SolverConfig(t_init=1.0, t_end=100.0, records_per_decade=32)
    times = ev._record_schedule(cfg, "physical")
    assert times[0] == 1.0 and times[-1] == pytest.approx(100.0)
    ratios = times[1:] / times[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)
    assert len(times) == 65  # 32 per decade, two decades


def test_trajectory_mass_drift_and_times(reference_run_2d):
    traj = reference_run_2d
    assert traj.mass_drift() <= 1e-7
    times = traj.times()
    assert np.all(np.diff(times) > 0.0)
    assert len(traj.records) >= 64


def test_field_at_interpolation_and_range(reference_run_2d):
    traj = reference_run_2d
    mid = traj.field_at(2.3456)
    assert mid.values.max() > 0
    with pytest.raises(OutOfRange):
        traj.field_at(0.5)
    with pytest.raises(OutOfRange):
        traj.field_at(9.0)


def test_blowup_supercritical():
    nodes = radial_grid(768, 20.0)
    mass = 10.0 * math.pi
    u0 = gaussian_radial(2, mass, nodes, t0=1.0)
    cfg = ev.SolverConfig(t_init=1.0, t_end=7.0, blowup_factor=1e3)
    traj = ev.evolve(u0, cfg)
    assert traj.blowup and traj.termination == "sup_growth"
    m2_0 = traj.records[0].moments.second_moment
    deadline = 1.2 * m2_0 / abs(4.0 * mass * (1.0 - mass / (8.0 * math.pi)))
    assert traj.blowup_time - 1.0 <= deadline


def _read_manifest(traj, tmp_path):
    manifest_path = tmp_path / "manifest.json"
    ev.export_trajectory(traj, tmp_path / "traj.csv", manifest_path)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(manifest_path) as fh:
        return json.load(fh, parse_constant=reject)


def test_dt_collapse_termination(tmp_path):
    # a supercritical run with no sup-growth trigger ends when the CFL bound
    # halves the step below dt_min
    u0 = gaussian_radial(2, 10.0 * math.pi, radial_grid(64, 20.0))
    cfg = ev.SolverConfig(t_init=1.0, t_end=7.0, dt_min=1e-3, blowup_factor=math.inf)
    traj = ev.evolve(u0, cfg)
    assert traj.termination == "dt_collapse" and traj.blowup
    assert 1.0 < traj.blowup_time < 7.0
    # strict JSON: the infinite setting is written as text
    assert _read_manifest(traj, tmp_path)["config"]["blowup_factor"] == "inf"


def _small_cartesian_run():
    u0 = fields.gaussian_cartesian(4.0 * math.pi, extent=10.0, size=64)
    return ev.evolve(u0, ev.SolverConfig(t_end=1.2))


@pytest.fixture(scope="module")
def cartesian_run():
    return _small_cartesian_run()


def test_default_config_runs_cartesian(cartesian_run):
    # the Cartesian clamp tolerance admits the pseudo-spectral ringing that
    # the radial tolerance rejected as a stiffness failure
    assert cartesian_run.termination == "t_end"
    assert cartesian_run.records[-1].time == 1.2


def test_cartesian_run_solves_once_per_cfl_and_rhs(monkeypatch):
    # per step: two advection rhs solves plus one advective-limit solve
    counts = {"solves": 0, "steps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ev, "cartesian_gradient_2d", counted("solves", ev.cartesian_gradient_2d))
    monkeypatch.setattr(ev, "_strang_step", counted("steps", ev._strang_step))
    traj = _small_cartesian_run()
    assert traj.termination == "t_end"
    assert counts["steps"] > 0
    assert counts["solves"] <= 3 * counts["steps"] + 1


@pytest.mark.parametrize("geometry, kind, scheme, tolerance", [
    ("radial", "physical", "muscl", 1e-12),
    ("radial", "similarity", "central", 1e-12),
    ("cartesian", "physical", "pseudo-spectral", 3e-8),
], ids=["radial_physical", "radial_similarity", "cartesian_physical"])
def test_manifest_names_the_scheme_that_ran(tmp_path, cartesian_run, geometry, kind,
                                            scheme, tolerance):
    if geometry == "cartesian":
        traj = cartesian_run
    else:
        u0 = gaussian_radial(2, math.pi, radial_grid(64, 20.0))
        run = ev.evolve if kind == "physical" else ev.evolve_similarity
        traj = run(u0, ev.SolverConfig(t_init=1.0, t_end=1.05))
    assert (traj.scheme, traj.clamp_tolerance) == (scheme, tolerance)
    manifest = _read_manifest(traj, tmp_path)
    assert (manifest["advection_scheme"], manifest["clamp_tolerance"]) == (scheme, tolerance)
    assert manifest["kind"] == kind and manifest["termination"] == "t_end"


def test_evolve_similarity_fn_weights():
    assert ev.nonlinearity_weight(2, 1.234) == 1.0
    assert ev.nonlinearity_weight(4, 1.0) == pytest.approx(math.exp(-1.0))
    assert ev.nonlinearity_weight(3, 2.0) == pytest.approx(math.exp(-1.0))


def test_duhamel_requires_enough_records(default_nodes):
    u0 = gaussian_radial(2, math.pi, default_nodes, t0=1.0)
    cfg = ev.SolverConfig(t_init=1.0, t_end=1.5, records_per_decade=8)
    traj = ev.evolve(u0, cfg)
    with pytest.raises(InsufficientSampling):
        ev.duhamel_residual(traj)


def test_duhamel_pure_heat(pure_heat_run_2d):
    assert ev.duhamel_residual(pure_heat_run_2d) <= 1e-6


# The residual as it was computed before it read u at the sample nodes: u
# through the field's cubic spline, the first sample at r = 0.0.  At a knot the
# spline returns the knot's value, so on grids that start at r = 0 the two
# agree bit for bit.
def _duhamel_residual_by_spline(trajectory, zero_nonlinear=False):
    """Max relative mismatch of the mild-solution identity at sampled (r, t).

    The identity writes u(x, t) as heat flow from the first record plus the
    time-integrated nonlinear correction; the correction's spatial integral
    reduces, for radial data, to Bessel-weighted quadrature.  The time
    integral is regularised by the substitution q = sqrt(t - s); the field
    and its velocity at each q node serve every sample radius.
    ``zero_nonlinear`` drops the correction (negative control); trajectories
    integrated with the nonlinearity switched off are checked against the
    plain heat identity, whose correction is identically zero.
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
    radii = [0.0, nodes[int(0.15 * nodes.size)], nodes[int(0.35 * nodes.size)]]
    nonlinear = not zero_nonlinear and trajectory.config.nonlinearity
    w = radial_measure_weights(nodes, dim)
    mismatches = []
    for t in times[[int(0.5 * len(times)), int(0.75 * len(times)), -1]]:
        field_t = trajectory.field_at(t)
        interp = (rec0.field if t == t0 else field_t).interpolator()
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
            u_actual = float(interp(np.array([r]))[0])
            # quadrature rows of the heat kernel (raw, not renormalised), on its band
            band, gauss, z = kernel_row(nodes, dim, r, t - t0)
            heat = float((gauss * scaled_sphere_average(dim, z) * w[band])
                         @ rec0.field.values[band])
            correction = float(np.trapezoid(vals[i], qs)) if nonlinear else 0.0
            mismatches.append(abs(heat + correction - u_actual) / scale)
    return float(np.max(mismatches))


@pytest.mark.parametrize("run", ["reference_run_2d", "pure_heat_run_2d"])
@pytest.mark.parametrize("zero_nonlinear", [False, True])
def test_duhamel_reads_the_spline_values_at_nodes(request, run, zero_nonlinear):
    traj = request.getfixturevalue(run)
    assert (ev.duhamel_residual(traj, zero_nonlinear=zero_nonlinear)
            == _duhamel_residual_by_spline(traj, zero_nonlinear=zero_nonlinear))


def test_export_trajectory(tmp_path, phi_run_2d):
    csv_path = tmp_path / "traj.csv"
    manifest_path = tmp_path / "manifest.json"
    ev.export_trajectory(phi_run_2d, csv_path, manifest_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,mass,second_moment,sup_norm,l1_err_vs_profile,free_energy"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["blowup_flag"] is False
    assert manifest["termination"] == "t_end"
    assert manifest["advection_scheme"] == "muscl"
    config = dataclasses.asdict(phi_run_2d.config)
    assert set(manifest["config"]) == set(config)
    assert manifest["config"]["record_times"] == list(config["record_times"])
    assert manifest["versions"] == {"pkslab": pkslab.__version__,
                                    "numpy": np.__version__, "scipy": scipy.__version__}
    # 17 significant digits in the rows
    row = csv_path.read_text().splitlines()[1].split(",")
    assert len(row[1]) >= 17


def test_route_comparison_physical_vs_similarity():
    # evolve then map to similarity variables == evolve_similarity, to 1e-3
    mass = 2.0 * math.pi
    nodes = radial_grid(1536, 60.0)
    u0 = gaussian_radial(2, mass, nodes, t0=1.0)
    traj_p = ev.evolve(u0, ev.SolverConfig(t_init=1.0, t_end=math.e**2))
    U0 = fields.to_similarity(u0, 1.0).field
    traj_s = ev.evolve_similarity(U0, ev.SolverConfig(t_init=0.0, t_end=2.0))
    end_p = fields.to_similarity(
        traj_p.records[-1].field, traj_p.records[-1].time
    ).field
    assert l1_distance(end_p, traj_s.records[-1].field) <= 1e-3


@pytest.mark.parametrize("mass", [2.0 * math.pi, 4.0 * math.pi], ids=["2pi", "4pi"])
def test_cartesian_similarity_run_matches_radial(mass):
    # the same datum, run in similarity variables on both geometries over
    # tau 0 -> 1; measured 4.0e-4 / 4.3e-5 at 2 pi and 2.3e-3 / 1.1e-4 at 4 pi
    cfg = ev.SolverConfig(t_init=0.0, t_end=1.0)
    cart = ev.evolve_similarity(fields.gaussian_cartesian(mass, extent=10.0, size=128), cfg)
    rad = ev.evolve_similarity(gaussian_radial(2, mass, radial_grid(1536, 40.0)), cfg)
    assert cart.termination == rad.termination == "t_end"
    end_c, end_r = cart.records[-1], rad.records[-1]
    assert end_c.time == end_r.time == 1.0
    xx, yy = end_c.field.meshgrid()
    on_grid = radial_interpolator(end_r.field.nodes, end_r.field.values)(np.hypot(xx, yy))
    assert np.abs(end_c.field.values - on_grid).max() <= 5e-3 * end_r.sup_norm
    m2_c, m2_r = end_c.moments.second_moment, end_r.moments.second_moment
    assert abs(m2_c - m2_r) <= 3e-4 * m2_r
