"""Time integration: splitting steps, drivers, blow-up, Duhamel residual."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
import scipy

import pkslab
from pkslab import diagnostics as dg, evolution as ev, fields
from pkslab.errors import InsufficientSampling, InvalidParameter, OutOfRange, StiffnessFailure
from pkslab.fields import RadialField, l1_distance, total_mass
from pkslab.potential import radial_gradient, radial_gradient_rows
from pkslab.semigroup import kernel_rows, scaled_sphere_average, scaled_sphere_average_cos
from pkslab.grids import SPHERE_AREA, radial_grid, radial_interpolator, radial_measure_weights

from conftest import gaussian_radial, kernel_row, same_bits


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
    # which differ on a graded grid; undershoots beyond the tolerance end the run
    nodes = radial_grid(32, 10.0)
    weights = radial_measure_weights(nodes, 2)
    values = np.exp(-((nodes - 3.0) ** 2))
    values[[4, 20]] = -0.1
    out = ev._clamp(values, 0.5, 1.0, weights)
    assert out.min() >= 0.0
    mass = np.sum(weights * values)
    assert abs(np.sum(weights * out) - mass) <= 1e-14 * mass
    with pytest.raises(StiffnessFailure):
        ev._clamp(values, 1e-12, 1.0, weights)


class _ReferenceRadialAdvection:
    """The radial advection of the stepper before it precomputed its grid
    geometry, kept verbatim (with ``grids.cumulative_shell_mass`` at order 2
    and ``_minmod``) apart from the mass-conserving ``rhs[1]`` row, as the
    oracle the stepper must match bit for bit."""

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
        rhs[1] = -af[1] / self.weights[1]
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
    # a dip in an empty core: negative enclosed mass moves its faces outward
    yield np.where(nodes > 0.05 * rmax, bump, 0.0) - 1e-3 * np.exp(-(nodes ** 2))


@pytest.mark.parametrize("kind", ["physical", "similarity"])  # muscl, central
@pytest.mark.parametrize("grid_kind", ["graded", "uniform"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_radial_advection_matches_reference_bit_for_bit(dim, grid_kind, kind):
    nodes = radial_grid(128, 20.0, grid_kind)
    stepper = ev._RadialStepper(nodes, dim, kind)
    reference = _ReferenceRadialAdvection(nodes, dim, kind)
    assert stepper.scheme == reference.scheme

    inward, outward = [], []  # per field: every face velocity < 0; one > 0
    for values in _advection_test_fields(nodes):
        inward.append(bool(np.all(reference.face_velocity(values) < 0.0)))
        outward.append(bool(np.any(reference.face_velocity(values) > 0.0)))
        assert same_bits(stepper.face_velocity(values), reference.face_velocity(values))
        assert same_bits(stepper.cfl_limit(values), reference.cfl_limit(values))
        for weight in (1.0, ev.nonlinearity_weight(4, 0.3)):
            assert same_bits(stepper.advection_rhs(values, weight),
                             reference.advection_rhs(values, weight))
            # the whole Heun substep, at the step the CFL limit allows
            dt = reference.cfl_limit(values) / weight
            k1 = reference.advection_rhs(values, weight)
            k2 = reference.advection_rhs(values + dt * k1, weight)
            assert same_bits(stepper.advect(values, dt, weight),
                             values + 0.5 * dt * (k1 + k2))
    # both MUSCL upwind branches are compared: right faces only while every
    # face moves inward, and the selection by sign once one moves out
    assert any(inward) and any(outward)
    assert stepper.cfl_limit(np.zeros_like(nodes)) == math.inf


def test_minmod_keeps_the_reference_signed_zeros():
    # every ordered pair of slopes from this set, zeros of both signs and
    # subnormals included, at lengths and offsets that reach both the
    # vectorised loops and their scalar remainders
    slopes = [-2.0, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 2.0]
    d_all = np.array([x for pair in itertools.product(slopes, repeat=2) for x in pair])
    for start in range(4):
        for stop in (start + 2, start + 3, start + 9, start + 18, d_all.size):
            d = d_all[start:stop]
            out, scratch = np.empty(d.size - 1), np.empty(d.size - 1)
            got = ev._minmod_adjacent(d, out, scratch, np.zeros(d.size - 1))
            assert same_bits(got, _ReferenceRadialAdvection._minmod(d[:-1], d[1:]))


def test_radial_stepper_results_outlive_its_buffers():
    nodes = radial_grid(256, 20.0)
    stepper = ev._RadialStepper(nodes, 2, "physical")
    first, second = (2.0 * np.exp(-((nodes - c) ** 2) / 4.0) for c in (1.0, 5.0))
    rhs = stepper.advection_rhs(first, 1.0)
    stepped = stepper.advect(first, 1e-3, 1.0)
    kept = rhs.tobytes(), stepped.tobytes()
    stepper.advection_rhs(second, 1.0)
    stepper.advect(second, 1e-3, 0.5)
    stepper.cfl_limit(second)
    assert (rhs.tobytes(), stepped.tobytes()) == kept
    # the records of a run hold arrays no step writes again
    u0 = gaussian_radial(2, 4.0 * math.pi, radial_grid(512, 20.0), t0=1.0)
    traj = ev.evolve(u0, ev.SolverConfig(t_init=1.0, t_end=1.1, records_per_decade=64))
    values = [rec.field.values for rec in traj.records]
    assert len(values) > 2
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert not np.shares_memory(a, b)


def test_small_mass_tracks_pure_heat():
    nodes = radial_grid(1024, 60.0)
    mass = 1e-6
    u0 = gaussian_radial(2, mass, nodes, t0=1.0)
    cfg_on = ev.SolverConfig(t_init=1.0, t_end=10.0, reference="m_gamma_t")
    traj = ev.evolve(u0, cfg_on)
    rel = traj.l1_errors() / mass
    assert np.nanmax(rel) < 1e-6


# the only reference name is m_gamma_t, which a similarity run cannot compute
# whether or not it is given a field; any other name, "profile" too, is refused
@pytest.mark.parametrize("kind, reference, with_field", [
    ("physical", "m_gaussian", False),
    ("physical", "profile", True),
    ("similarity", "m_gamma_t", False),
    ("similarity", "m_gamma_t", True),
    ("similarity", "profile", False),
    ("similarity", "profile", True),
])
def test_reference_the_run_cannot_compute_is_rejected(kind, reference, with_field):
    u0 = gaussian_radial(2, math.pi, radial_grid(64, 20.0))
    cfg = ev.SolverConfig(t_init=1.0, t_end=1.01, reference=reference)
    with pytest.raises(InvalidParameter):
        if kind == "physical":
            ev.evolve(u0, cfg)  # takes no reference field: only the name decides
        else:
            ev.evolve_similarity(u0, cfg, reference_field=u0 if with_field else None)


def test_similarity_run_measures_against_the_field_it_is_given():
    # the field decides: no reference name is needed, and none is accepted
    u0 = gaussian_radial(2, math.pi, radial_grid(64, 20.0))
    cfg = ev.SolverConfig(t_init=0.0, t_end=0.2)
    errors = ev.evolve_similarity(u0, cfg, reference_field=u0).l1_errors()
    assert len(errors) > 2 and np.all(np.isfinite(errors))
    assert errors[0] == 0.0
    assert np.all(np.isnan(ev.evolve_similarity(u0, cfg).l1_errors()))


# a reference field on another grid is refused before the first step, not
# broadcast or compared sample by sample at other radii
@pytest.mark.parametrize("dim, count, rmax", [
    (2, 128, 20.0),  # more nodes
    (2, 64, 40.0),  # as many nodes, farther out
    (3, 64, 20.0),  # the same nodes in another dimension
])
def test_reference_field_on_another_grid_is_rejected(dim, count, rmax):
    u0 = gaussian_radial(2, math.pi, radial_grid(64, 20.0))
    reference = gaussian_radial(dim, math.pi, radial_grid(count, rmax))
    cfg = ev.SolverConfig(t_init=0.0, t_end=0.05)
    with pytest.raises(InvalidParameter, match="grid"):
        ev.evolve_similarity(u0, cfg, reference_field=reference)


def test_cartesian_reference_field_on_another_grid_is_rejected():
    u0 = fields.gaussian_cartesian(1.0, extent=10.0, size=32)
    cfg = ev.SolverConfig(t_init=0.0, t_end=0.05, nonlinearity=False)
    for reference in (fields.gaussian_cartesian(1.0, extent=20.0, size=32),
                      fields.gaussian_cartesian(1.0, extent=10.0, size=64),
                      gaussian_radial(2, 1.0, radial_grid(64, 10.0))):
        with pytest.raises(InvalidParameter, match="grid"):
            ev.evolve_similarity(u0, cfg, reference_field=reference)
    traj = ev.evolve_similarity(u0, cfg, reference_field=u0)
    assert traj.l1_errors()[0] == 0.0


def test_record_schedule_log_spaced():
    cfg = ev.SolverConfig(t_init=1.0, t_end=100.0, records_per_decade=32)
    times = ev._record_schedule(cfg, "physical")
    assert times[0] == 1.0 and times[-1] == pytest.approx(100.0)
    ratios = times[1:] / times[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)
    assert len(times) == 65  # 32 per decade, two decades


# a schedule that does not strictly increase: an empty interval (once a 0/0
# in the interval split) or one run backward through a kernel of negative width
@pytest.mark.parametrize("t_init, t_end, record_times", [
    (1.0, 1.0, ()),
    (2.0, 1.0, ()),
    (1.0, 2.0, (1.0, 1.5, 1.5, 2.0)),  # a repeat
    (1.0, 2.0, (1.0, 1.5, 1.2, 2.0)),  # goes back
    (1.0, 2.0, (0.5, 2.0)),  # starts before t_init
])
@pytest.mark.parametrize("kind", ["physical", "similarity"])
def test_record_schedule_that_does_not_increase_is_refused(kind, t_init, t_end,
                                                           record_times):
    u0 = gaussian_radial(2, math.pi, radial_grid(64, 20.0))
    cfg = ev.SolverConfig(t_init=t_init, t_end=t_end, record_times=record_times)
    run = ev.evolve if kind == "physical" else ev.evolve_similarity
    with pytest.raises(InvalidParameter, match="t_end|record times"):
        run(u0, cfg)


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


def test_radial_run_builds_one_kernel_per_record_interval(monkeypatch):
    # every step of a record interval takes the interval's one dt, so the
    # interval asks for one propagator key, however many steps it takes
    intervals = []  # per interval: the propagator keys asked for and the steps
    advance, propagator, strang_step = (
        ev._advance, ev._radial_propagator, ev._strang_step)

    def interval(*args, **kwargs):
        intervals.append({"keys": set(), "steps": 0})
        return advance(*args, **kwargs)

    def lookup(nodes, dim, a, shrink):
        intervals[-1]["keys"].add((a, shrink))
        return propagator(nodes, dim, a, shrink)

    def step(*args, **kwargs):
        intervals[-1]["steps"] += 1
        return strang_step(*args, **kwargs)

    monkeypatch.setattr(ev, "_advance", interval)
    monkeypatch.setattr(ev, "_radial_propagator", lookup)
    monkeypatch.setattr(ev, "_strang_step", step)
    u0 = gaussian_radial(2, 4.0 * math.pi, radial_grid(192, 40.0))
    traj = ev.evolve(u0, ev.SolverConfig(t_init=1.0, t_end=4.0, records_per_decade=20))
    assert traj.termination == "t_end"
    run = intervals  # one per record after the first
    assert len(run) == len(traj.records) - 1
    assert sum(interval["steps"] >= 2 for interval in run) >= len(run) // 2
    assert [len(interval["keys"]) for interval in run] == [1] * len(run)


class _LookupEveryCall(ev._RadialStepper):
    """The radial stepper with a ``diffuse`` that looks its kernel up by
    (a, shrink) on every call, in a least-recently-used cache of
    ``KERNELS_KEPT`` kernels: the reference for keying the stepper's kernels
    by half step alone."""

    def __init__(self, grid_nodes, dim, kind):
        super().__init__(grid_nodes, dim, kind)
        self.half_steps = []
        self.looked_up = []
        self.cache = {}

    def diffuse(self, values, dt):
        self.half_steps.append(dt)
        key = (dt, 1.0) if self.kind == "physical" else ev.kernel_width_shrink(dt)
        self.looked_up.append(key)
        kernel = self.cache.pop(key, None)
        if kernel is None:
            kernel = ev._radial_propagator(self.nodes, self.dim, *key)
            if len(self.cache) >= ev.KERNELS_KEPT:
                del self.cache[next(iter(self.cache))]
        self.cache[key] = kernel
        return kernel @ values


@pytest.mark.parametrize("kind, t_init, t_end", [
    ("physical", 1.0, 3.0),
    ("similarity", 0.0, 2.0),
])
def test_one_kernel_lookup_per_step_size_builds_the_same_kernels(monkeypatch, kind,
                                                                 t_init, t_end):
    # supercritical mass on a coarse grid: the CFL limit halves dt within
    # record intervals, so the half step changes inside them as well
    u0 = gaussian_radial(2, 10.0 * math.pi, radial_grid(96, 20.0))
    cfg = ev.SolverConfig(t_init=t_init, t_end=t_end, blowup_factor=1e3,
                          records_per_decade=8)
    run = ev.evolve if kind == "physical" else ev.evolve_similarity
    build = ev._radial_propagator

    def traced_run(make_stepper):
        built = []

        def counted_build(nodes, dim, a, shrink):
            built.append((a, shrink))
            return build(nodes, dim, a, shrink)

        monkeypatch.setattr(ev, "_radial_propagator", counted_build)
        monkeypatch.setattr(ev, "_make_stepper", make_stepper)
        return run(u0, cfg), built

    steppers = []

    def make_every_call_stepper(field, kind):
        steppers.append(_LookupEveryCall(field.nodes, field.dim, kind))
        return steppers[-1]

    traj, built = traced_run(ev._make_stepper)
    every_traj, every_built = traced_run(make_every_call_stepper)
    dts, every_looked_up = steppers[0].half_steps, steppers[0].looked_up
    assert any(b == 0.5 * a for a, b in zip(dts, dts[1:]))  # dt was halved
    assert len(every_looked_up) == len(dts) > len(built)
    assert all(a != b for a, b in zip(built, built[1:]))
    assert built == [key for i, key in enumerate(every_looked_up)
                     if i == 0 or key != every_looked_up[i - 1]]
    assert built == every_built and len(set(built)) > ev.KERNELS_KEPT
    assert (traj.termination, traj.blowup_time) == (every_traj.termination,
                                                     every_traj.blowup_time)
    assert len(traj.records) == len(every_traj.records) > 2
    for rec, every in zip(traj.records, every_traj.records):
        assert same_bits(rec.field.values, every.field.values)
        assert same_bits([rec.time, rec.moments.mass, rec.moments.second_moment,
                          rec.sup_norm, rec.free_energy],
                         [every.time, every.moments.mass, every.moments.second_moment,
                          every.sup_norm, every.free_energy])


class _RebuildEveryCall(ev._CartesianStepper):
    """The Cartesian stepper with a similarity ``diffuse`` that builds its
    line kernel on every call: the reference for keeping the last one."""

    def diffuse(self, values, dt):
        if self.kind == "physical":
            return super().diffuse(values, dt)
        k = ev.line_propagator(self.grid.axis(), *ev.kernel_width_shrink(dt))
        return k @ values @ k.T


def test_cartesian_similarity_run_builds_one_line_kernel_per_half_step(monkeypatch):
    u0 = fields.gaussian_cartesian(2.0 * math.pi, extent=10.0, size=128)
    # uneven record intervals: the half step changes between them
    cfg = ev.SolverConfig(t_init=0.0, t_end=1.0, record_times=(0.02, 0.1, 0.12, 1.0))
    build = ev.line_propagator

    def traced_run(make_stepper):
        built = []

        def counted_build(x, a, shrink):
            built.append((a, shrink))
            return build(x, a, shrink)

        monkeypatch.setattr(ev, "line_propagator", counted_build)
        monkeypatch.setattr(ev, "_make_stepper", make_stepper)
        return ev.evolve_similarity(u0, cfg), built

    traj, built = traced_run(ev._make_stepper)
    every_traj, every_built = traced_run(_RebuildEveryCall)
    # the reference builds afresh for each of a step's two equal half steps
    assert len(every_built) % 2 == 0 and every_built[::2] == every_built[1::2]
    assert built == [key for i, key in enumerate(every_built)
                     if i == 0 or key != every_built[i - 1]]
    # and the last interval takes several steps of one size
    assert len(every_built) > 2 * len(built) > 0
    assert traj.termination == every_traj.termination == "t_end"
    assert len(traj.records) == len(every_traj.records) > 2
    for rec, every in zip(traj.records, every_traj.records):
        assert same_bits(rec.field.values, every.field.values)
        assert same_bits([rec.time, rec.moments.mass, rec.moments.second_moment,
                          rec.sup_norm, rec.free_energy],
                         [every.time, every.moments.mass, every.moments.second_moment,
                          every.sup_norm, every.free_energy])


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
    # what the [solver] section checks without building a stepper
    assert ev._scheme_and_clamp(traj.records[0].field, kind) == (scheme, tolerance)
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


# The residual as it was computed before it evaluated the q nodes in blocks:
# one field_at, one radial_gradient and one kernel_row with its own Bessel
# calls per (q node, sample radius).  The blocked residual must equal it.
def _duhamel_residual_by_rows(trajectory, zero_nonlinear=False):
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
            u_actual = float(u_t[i])
            # quadrature rows of the heat kernel (raw, not renormalised), on its band
            band, gauss, z = kernel_row(nodes, dim, r, t - t0)
            heat = float((gauss * scaled_sphere_average(dim, z) * w[band])
                         @ rec0.field.values[band])
            correction = float(np.trapezoid(vals[i], qs)) if nonlinear else 0.0
            mismatches.append(abs(heat + correction - u_actual) / scale)
    return float(np.max(mismatches))


@pytest.fixture(scope="module")
def physical_run_3d():
    u0 = gaussian_radial(3, 2.0, radial_grid(384, 40.0))
    return ev.evolve(u0, ev.SolverConfig(t_init=1.0, t_end=3.0, records_per_decade=160))


@pytest.fixture(scope="module")
def offset_grid_run_2d():
    # nodes[0] > 0: no sample radius is the origin
    u0 = gaussian_radial(2, 4.0 * math.pi, np.linspace(0.05, 60.0, 400))
    return ev.evolve(u0, ev.SolverConfig(t_init=1.0, t_end=3.0, records_per_decade=160))


@pytest.mark.parametrize("run", ["reference_run_2d", "pure_heat_run_2d", "physical_run_3d",
                                 "offset_grid_run_2d"])
@pytest.mark.parametrize("zero_nonlinear", [False, True])
def test_blocked_duhamel_equals_row_by_row(request, monkeypatch, run, zero_nonlinear):
    traj = request.getfixturevalue(run)
    assert len(traj.records) >= 64
    _assert_same_residual_and_integrands(monkeypatch, traj, zero_nonlinear,
                                         _duhamel_residual_by_rows)


def _assert_same_residual_and_integrands(monkeypatch, traj, zero_nonlinear, reference):
    """``duhamel_residual`` equals ``reference``, and so does each of the
    correction's time integrands, bit for bit: the residual's last bits need
    not show a changed row sum.  The integrands are read as ``np.trapezoid``
    receives them."""
    integrands = []
    trapezoid = np.trapezoid

    def recorded_trapezoid(y, x):
        integrands.append(np.array(y))
        return trapezoid(y, x)

    monkeypatch.setattr(np, "trapezoid", recorded_trapezoid)
    residual = ev.duhamel_residual(traj, zero_nonlinear=zero_nonlinear)
    residual_integrands = integrands[:]
    integrands.clear()
    assert residual == reference(traj, zero_nonlinear=zero_nonlinear)
    nonlinear = traj.config.nonlinearity and not zero_nonlinear
    assert len(residual_integrands) == len(integrands) == (9 if nonlinear else 0)
    for a, b in zip(residual_integrands, integrands):
        assert same_bits(a, b)


# The blocked residual as it was before its per-sample-time work was hoisted:
# kernel_rows computes the widths' peaks per (block, radius), the flux is read
# by (row, column) pairs and each row is summed by ``.sum()``.  The residual
# must equal it.
def _duhamel_residual_blocked(trajectory, zero_nonlinear=False):
    rec0 = trajectory.records[0]
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
            vals = np.empty((len(radii), qs.size))
            for start in range(0, qs.size, ev.DUHAMEL_BLOCK):
                q = qs[start:start + ev.DUHAMEL_BLOCK]
                s = np.maximum(t - q * q, t0)  # guard the rounding at q = q_max
                values = trajectory.values_at(s)
                flux = w * values * radial_gradient_rows(nodes, dim, values)
                for i, r in enumerate(radii):
                    cols, bounds, _, gauss, z = kernel_rows(nodes, dim, r, t - s)
                    rows = np.repeat(np.arange(q.size), np.diff(bounds))
                    if r == 0.0:
                        terms = flux[rows, cols] * gauss * nodes[cols]
                    else:
                        terms = flux[rows, cols] * gauss * (
                            nodes[cols] * scaled_sphere_average(dim, z)
                            - r * scaled_sphere_average_cos(dim, z))
                    inner = np.array([terms[lo:hi].sum()
                                      for lo, hi in zip(bounds[:-1], bounds[1:])])
                    vals[i, start:start + q.size] = -0.5 * inner * 2.0 / q
        scale = max(float(np.abs(field_t.values).max()), 1e-300)
        for i, r in enumerate(radii):
            u_actual = float(u_t[i])
            cols, _, _, gauss, z = kernel_rows(nodes, dim, r, [t - t0])
            heat = float((gauss * scaled_sphere_average(dim, z) * w[cols])
                         @ rec0.field.values[cols])
            correction = float(np.trapezoid(vals[i], qs)) if nonlinear else 0.0
            mismatches.append(abs(heat + correction - u_actual) / scale)
    return float(np.max(mismatches))


@pytest.fixture(scope="module")
def small_run_2d():
    u0 = gaussian_radial(2, 4.0 * math.pi, radial_grid(256, 80.0))
    return ev.evolve(u0, ev.SolverConfig(t_init=1.0, t_end=8.0, records_per_decade=80))


@pytest.mark.parametrize("run", ["small_run_2d", "physical_run_3d"])
@pytest.mark.parametrize("zero_nonlinear", [False, True])
def test_hoisted_duhamel_equals_the_blocked_form(request, monkeypatch, run, zero_nonlinear):
    traj = request.getfixturevalue(run)
    assert len(traj.records) >= 64 and traj.config.nonlinearity
    _assert_same_residual_and_integrands(monkeypatch, traj, zero_nonlinear,
                                         _duhamel_residual_blocked)


def _field_values_by_record(trajectory, t):
    """Trajectory.field_at's values as computed before the stacked helper."""
    times = trajectory.times()
    idx = int(np.searchsorted(times, t))
    if idx == 0 or times[idx - 1] == t:
        idx = max(idx, 1)
    lo, hi = trajectory.records[idx - 1], trajectory.records[min(idx, len(trajectory.records) - 1)]
    if hi.time == lo.time:
        return lo.field.values
    if trajectory.kind == "physical" and lo.time > 0:
        w = (math.log(t) - math.log(lo.time)) / (math.log(hi.time) - math.log(lo.time))
    else:
        w = (t - lo.time) / (hi.time - lo.time)
    return (1.0 - w) * lo.field.values + w * hi.field.values


@pytest.fixture(scope="module")
def similarity_run_2d():
    U0 = gaussian_radial(2, 4.0 * math.pi, radial_grid(256, 20.0), t0=1.0)
    return ev.evolve_similarity(U0, ev.SolverConfig(t_init=0.0, t_end=1.0,
                                                    records_per_decade=16))


@pytest.mark.parametrize("run", ["reference_run_2d", "similarity_run_2d"])
def test_values_at_equals_field_at_bit_for_bit(request, run):
    traj = request.getfixturevalue(run)
    times = traj.times()
    # both ends, every record time, and points between records
    ts = np.concatenate([times, 0.5 * (times[:-1] + times[1:]),
                         times[:-1] + 1e-3 * np.diff(times)])
    stacked = traj.values_at(ts)
    assert stacked.shape == (ts.size, traj.records[0].field.nodes.size)
    for t, row in zip(ts, stacked):
        assert np.array_equal(row, traj.field_at(t).values)
        assert np.array_equal(row, _field_values_by_record(traj, t))
    for outside in (times[-1] + 1.0, math.nan):
        with pytest.raises(OutOfRange):
            traj.values_at([times[0], outside])
    # a record repeated at its time, and a lone record, give its own values
    first = traj.records[0]
    for records in ([first] + traj.records, [first]):
        single = dataclasses.replace(traj, records=records)
        assert np.array_equal(single.values_at([first.time])[0], first.field.values)
    # a copy with other records of the same times reads its own records, also
    # after one of them is replaced in place
    doubled = dataclasses.replace(traj, records=[
        dataclasses.replace(rec, field=rec.field.with_values(2.0 * rec.field.values))
        for rec in traj.records])
    assert np.array_equal(doubled.values_at(times), 2.0 * traj.stacked_values())
    doubled.records[1] = traj.records[1]
    assert np.array_equal(doubled.values_at(times[1:2])[0], traj.records[1].field.values)
    assert np.array_equal(traj.values_at(times), traj.stacked_values())


def _free_energy_by_formula(field):
    """free_energy_2d(field).value of a radial field as computed one field at
    a time, before the row-wise passes."""
    w, u, r = radial_measure_weights(field.nodes, 2), field.values, field.nodes
    second = float(np.sum(w * u * r**2))
    m = np.zeros_like(u)
    g = SPHERE_AREA[2] * r * u
    m[1:] = np.cumsum(0.5 * (r[1:] - r[:-1]) * (g[1:] + g[:-1]))
    kernel = np.where(r > 0, np.log(np.where(r > 0, r, 1.0)), 0.0)
    f = g * kernel
    tail = np.zeros_like(f)
    tail[:-1] = np.cumsum((0.5 * (r[1:] - r[:-1]) * (f[1:] + f[:-1]))[::-1])[::-1]
    v = -(np.where(r > 0, m * kernel, 0.0) + tail) / (2.0 * math.pi)
    entropy = float(np.sum(w * np.where(u > 0.0, u * np.log(np.maximum(u, 1e-300)), 0.0)))
    return entropy + 0.25 * second - 0.5 * float(np.sum(w * u * v))


def _relative_entropy_by_formula(field, tau):
    """relative_entropy(field, tau).value as computed one field at a time."""
    n, w, u = field.dim, radial_measure_weights(field.nodes, field.dim), field.values
    mass = float(np.sum(w * u))
    gauss = (4.0 * math.pi) ** (-n / 2.0) * np.exp(-(field.nodes**2) / 4.0)
    energy = float(np.sum(w * radial_gradient(field) ** 2))
    ratio = np.maximum(u, 1e-300) / np.maximum(gauss, 1e-300)
    entropy = float(np.sum(w * np.where(u > 0.0, u * np.log(ratio), 0.0)))
    return (entropy + 0.5 * math.exp((1.0 - n / 2.0) * tau) * energy
            - (mass * math.log(mass) if mass > 0 else 0.0))


def _blocked_runs():
    """Radial runs whose records span more than one block of diagnostics:
    (name, trajectory, termination, the reference field or None)."""
    u0 = gaussian_radial(2, 4.0 * math.pi, radial_grid(256, 40.0))
    yield ("t_end", ev.evolve(u0, ev.SolverConfig(
        t_init=1.0, t_end=3.0, records_per_decade=64, reference="m_gamma_t")), "t_end", None)
    u0 = gaussian_radial(2, 12.0 * math.pi, radial_grid(128, 20.0))
    yield ("sup_growth", ev.evolve(u0, ev.SolverConfig(
        t_init=1.0, t_end=7.0, blowup_factor=1e2, records_per_decade=48)), "sup_growth", None)
    u0 = gaussian_radial(2, 10.0 * math.pi, radial_grid(96, 20.0))
    yield ("dt_collapse", ev.evolve(u0, ev.SolverConfig(
        t_init=1.0, t_end=3.0, dt_min=1e-2, records_per_decade=64)), "dt_collapse", None)
    U0 = gaussian_radial(2, 4.0 * math.pi, radial_grid(128, 20.0), t0=2.0)
    reference = gaussian_radial(2, 4.0 * math.pi, U0.nodes, t0=1.0)
    yield ("similarity", ev.evolve_similarity(U0, ev.SolverConfig(
        t_init=0.0, t_end=1.0, records_per_decade=64), reference_field=reference),
        "t_end", reference)
    u0 = gaussian_radial(2, 4.0 * math.pi, np.linspace(0.05, 60.0, 200))
    yield ("offset_grid", ev.evolve(u0, ev.SolverConfig(
        t_init=1.0, t_end=3.0, records_per_decade=64, reference="m_gamma_t")), "t_end", None)
    u0 = gaussian_radial(3, 2.0, radial_grid(128, 40.0))
    yield ("dim3", ev.evolve(u0, ev.SolverConfig(
        t_init=1.0, t_end=3.0, records_per_decade=64, reference="m_gamma_t")), "t_end", None)


def test_blocked_record_diagnostics_equal_the_single_field_ones(tmp_path):
    for name, traj, termination, reference in _blocked_runs():
        assert traj.termination == termination, name
        records = traj.records
        assert len(records) > dg.RECORD_BLOCK, name
        stacked = traj.stacked_values()
        assert stacked.shape == (len(records), records[0].field.nodes.size)
        assert not stacked.flags.writeable
        path = tmp_path / f"{name}.csv"
        dg.diagnostics_csv(traj, path)
        table = [line.split(",") for line in path.read_text().splitlines()[1:]]
        initial_mass = total_mass(records[0].field)
        for k, (rec, line) in enumerate(zip(records, table, strict=True)):
            field = rec.field
            # one copy of the values: the record's field is a row of the stack
            assert np.shares_memory(field.values, stacked) and np.array_equal(
                field.values, stacked[k])
            mom = fields.moments(field)
            assert same_bits([rec.moments.mass, rec.moments.second_moment],
                             [mom.mass, mom.second_moment]), (name, k)
            assert same_bits(rec.moments.center, mom.center)
            assert same_bits(rec.sup_norm, float(np.abs(field.values).max())), (name, k)
            free_energy = math.nan
            if field.dim == 2:
                free_energy = dg.free_energy_2d(field).value
                assert same_bits(free_energy, _free_energy_by_formula(field))
            assert same_bits(rec.free_energy, free_energy), (name, k)
            if reference is None and traj.config.reference != "m_gamma_t":
                distance = math.nan
            else:
                ref = reference if reference is not None else gaussian_radial(
                    field.dim, initial_mass, field.nodes, rec.time)
                distance = fields.lp_norm(field.with_values(field.values - ref.values,
                                                            nonnegative=False), 1)
            assert same_bits(rec.l1_dist_to_profile, distance), (name, k)
            tau = rec.time if traj.kind == "similarity" else math.log(rec.time)
            relative_entropy = dg.relative_entropy(field, tau).value
            assert same_bits(relative_entropy, _relative_entropy_by_formula(field, tau))
            assert same_bits(float(line[6]), relative_entropy), (name, k)


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


# the limit of the Cartesian similarity run: at a coarser spacing than 128^2
# over extent 10 its pseudo-spectral undershoot outgrows the 3e-8 clamp within
# tau 0 -> 1 (measured -4.32e-8 against 3.63e-8 at 64^2, extent 10, and
# -8.85e-8 against 3.84e-8 at 128^2, extent 20)
@pytest.mark.parametrize("extent, size", [(10.0, 64), (20.0, 128)], ids=["coarse", "wide"])
def test_cartesian_similarity_run_fails_typed_on_a_coarse_grid(extent, size):
    u0 = fields.gaussian_cartesian(4.0 * math.pi, extent=extent, size=size)
    with pytest.raises(StiffnessFailure, match="beyond the clamp tolerance"):
        ev.evolve_similarity(u0, ev.SolverConfig(t_init=0.0, t_end=1.0))
