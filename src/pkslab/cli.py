"""Scenario orchestration and the ``pks`` command line.

Scenarios are flat INI files (sections of key=value pairs) naming an initial
datum, a solver configuration, and a list of named checks; a check's section
holds its keyword arguments, and any key a section does not read is refused.
``pks run`` executes scenarios and writes a trajectory CSV, a diagnostics CSV,
and a JSON summary {check: pass/fail, measured, expected, tolerance,
params}; the exit code is 0 iff every check passed, 2 for configuration errors, 3 for
numerical failures, 1 for check failures.  An ``evolve`` scenario runs the
evolution its checks read and a ``compute`` scenario runs none; a scenario
whose checks disagree with its kind is a configuration error.  A check that
raises still lets the others run: its summary entry carries the error text
and the exit code is 3.
"""

import argparse
import configparser
import inspect
import json
import math
import sys
import types
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Literal, get_args, get_origin

import numpy as np

from . import asymptotics, diagnostics, evolution, fields, potential, profiles, semigroup
from .errors import PKSError, ScenarioConfigError, UseProfileModule
from .grids import radial_grid

SCENARIO_DIR = Path(__file__).parent / "scenarios"


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    name: str
    kind: str
    dim: int
    seed: int
    initial: dict
    grid: dict
    solver: dict
    checks: list[tuple[str, dict]] = dataclass_field(default_factory=list)

    @property
    def mass(self):
        return float(self.initial.get("mass", 0.0))


def _parse_floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


# the keys each section may hold, by [initial] kind and [grid] geometry; a
# [check:<name>] section holds the check's keyword arguments
_SCENARIO_KEYS = {"name", "description", "dim", "seed", "kind"}
_INITIAL_KEYS = {"gaussian": {"kind", "mass", "t0"},
                 "custom-file": {"kind", "mass", "file"}}
_GRID_KEYS = {"radial": {"geometry", "nodes", "rmax"},
              "cartesian": {"geometry", "size", "extent"}}
_SOLVER_CASTS = {"t_init": float, "t_end": float, "records_per_decade": int,
                 "blowup_factor": float, "reference": str}
# scheme and clamp_tolerance are assertions on the stepper's fixed values
_SOLVER_KEYS = set(_SOLVER_CASTS) | {"nonlinearity", "record_window", "scheme",
                                    "clamp_tolerance"}


def _choice(path, key, value, allowed):
    if value not in allowed:
        raise ScenarioConfigError(f"{path}: {key} must be one of {sorted(allowed)}, got {value!r}")
    return value


def _check_parameters(name):
    """{key: parameter} of the [check:<name>] keys: the check's keyword
    arguments after ``ctx``.  A trailing underscore lets a key be a Python
    keyword (``from_`` reads ``from``)."""
    params = list(inspect.signature(CHECKS[name][0]).parameters.values())[1:]
    return {param.name.removesuffix("_"): param for param in params}


def _cast(annotation, text):
    """``text`` as a value of ``annotation``: float; int (integral, so
    ``1e7`` but not ``2.5``); a Literal of strings; a tuple of floats of its
    length; a non-empty list of floats; or one of these ``| None``."""
    if get_origin(annotation) is types.UnionType:  # X | None
        (annotation,) = (arg for arg in get_args(annotation) if arg is not type(None))
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Literal:
        if text not in args:
            raise ValueError(f"must be one of {list(args)}")
        return text
    if origin in (tuple, list):
        values = _parse_floats(text)
        if origin is tuple and len(values) != len(args):
            raise ValueError(f"needs {len(args)} numbers")
        if not values:
            raise ValueError("needs at least one number")
        return tuple(values) if origin is tuple else values
    value = float(text)
    if annotation is int:
        if not value.is_integer():
            raise ValueError("must be an integer")
        return int(value)
    return value


def _check_values(path, name, section):
    """The [check:<name>] section as the check's keyword arguments."""
    params = _check_parameters(name)
    kwargs = {}
    for key, text in section.items():
        try:
            value = _cast(params[key].annotation, text)
        except ValueError as exc:
            raise ScenarioConfigError(f"{path}: [check:{name}] {key} = {text!r}: {exc}") from exc
        if key == "tolerance" and not value > 0.0:
            raise ScenarioConfigError(f"{path}: [check:{name}] tolerance must be > 0")
        kwargs[params[key].name] = value
    return kwargs


def load_scenario(path):
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ScenarioConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ScenarioConfigError(f"cannot read scenario file {path}")
    if "scenario" not in sections:
        raise ScenarioConfigError(f"{path}: missing [scenario] section")
    base = parser["scenario"]
    try:
        dim = base.getint("dim", 2)
        seed = base.getint("seed", 1)
    except ValueError as exc:
        raise ScenarioConfigError(f"{path}: bad scenario key: {exc}") from exc
    if dim not in (2, 3, 4, 5):
        raise ScenarioConfigError(f"{path}: dim must be in 2..5, got {dim}")
    checks = [name.split(":", 1)[1] for name in sections if name.startswith("check:")]
    if not checks:
        raise ScenarioConfigError(f"{path}: a scenario needs at least one [check:*]")
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise ScenarioConfigError(f"{path}: unknown check {unknown[0]!r}")
    kind = _choice(path, "[scenario] kind", base.get("kind", "evolve"),
                   {"evolve", "compute"})
    initial, grid, solver = (sections.get(name, {}) for name in ("initial", "grid", "solver"))
    initial_kind = _choice(path, "[initial] kind", initial.get("kind", "gaussian"),
                           _INITIAL_KEYS)
    geometry = _choice(path, "[grid] geometry", grid.get("geometry", "radial"),
                       _GRID_KEYS)
    allowed = {"scenario": _SCENARIO_KEYS, "initial": _INITIAL_KEYS[initial_kind],
               "grid": _GRID_KEYS[geometry], "solver": _SOLVER_KEYS}
    allowed.update((f"check:{name}", set(_check_parameters(name))) for name in checks)
    for name, section in sections.items():
        if name not in allowed:
            raise ScenarioConfigError(f"{path}: unknown section [{name}]")
        unread = sorted(set(section) - allowed[name])
        if unread:
            raise ScenarioConfigError(f"{path}: [{name}] does not read {', '.join(unread)}")
    if initial_kind == "custom-file":
        source = initial.get("file", "")
        if not source or not Path(source).exists():
            raise ScenarioConfigError(f"{path}: initial data file {source!r} not found")
    return Scenario(
        name=base.get("name", Path(path).stem),
        kind=kind,
        dim=dim,
        seed=seed,
        initial=initial,
        grid=grid,
        solver=solver,
        checks=[(name, _check_values(path, name, sections[f"check:{name}"]))
                for name in checks],
    )


def _build_grid(scenario):
    g = scenario.grid
    if g.get("geometry", "radial") == "cartesian":
        return ("cartesian", int(g.get("size", 256)), float(g.get("extent", 20.0)))
    return ("radial", radial_grid(int(g.get("nodes", 1536)), float(g.get("rmax", 40.0))))


def _build_initial(scenario):
    spec = scenario.initial
    if spec.get("kind") == "custom-file":
        field, _ = fields.read_snapshot(spec["file"])
        return field
    mass = float(spec.get("mass", 1.0))
    t0 = float(spec.get("t0", 1.0))
    grid = _build_grid(scenario)
    if grid[0] == "cartesian":
        _, size, extent = grid
        return fields.gaussian_cartesian(mass, extent=extent, size=size, t0=t0)
    return fields.gaussian_radial(scenario.dim, mass, grid[1], t0)


def _build_solver_config(scenario, u0):
    """The SolverConfig of the [solver] section.  Scenario runs are physical:
    ``scheme`` and ``clamp_tolerance``, when given, must equal the values the
    stepper uses on ``u0``'s geometry, and ``reference`` must be one a
    physical run computes."""
    s = scenario.solver
    stepper = evolution._make_stepper(u0, "physical")
    for key, used in (("scheme", stepper.scheme),
                      ("clamp_tolerance", stepper.clamp_tolerance)):
        if key in s and type(used)(s[key]) != used:
            raise ScenarioConfigError(f"[solver] {key} = {s[key]}, but this grid runs {used}")
    if s.get("reference") and evolution.REFERENCES.get(s["reference"]) != "physical":
        raise ScenarioConfigError(f"[solver] reference {s['reference']!r} is not for physical runs")
    kwargs = {key: cast(s[key]) for key, cast in _SOLVER_CASTS.items() if key in s}
    if "nonlinearity" in s:
        kwargs["nonlinearity"] = s["nonlinearity"].lower() in ("on", "true", "1")
    if "record_window" in s:
        lo, hi, step = _parse_floats(s["record_window"])
        kwargs["record_times"] = tuple(np.round(np.arange(lo, hi + step / 2, step), 9))
        kwargs.setdefault("t_init", lo)
        kwargs.setdefault("t_end", hi)
    return evolution.SolverConfig(**kwargs)


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

class CheckContext:
    def __init__(self, scenario, out_dir):
        self.scenario = scenario
        self.out_dir = out_dir
        self.trajectory = None
        self._wstar = None
        self._gm = {}

    def wstar(self):
        if self._wstar is None:
            self._wstar = asymptotics.w_star()
        return self._wstar

    def gm(self, mass, nodes_key):
        key = (mass, nodes_key)
        if key not in self._gm:
            self._gm[key] = profiles.self_similar_profile_2d(
                mass, grid=radial_grid(nodes_key[0], nodes_key[1])
            )
        return self._gm[key]


def _result(name, passed, measured, expected, tolerance, params=None):
    """One check's summary entry; ``params`` holds the effective settings,
    other than the tolerance and expected value, that make it strict."""
    return {
        "check": name,
        "pass": bool(passed),
        "measured": measured,
        "expected": expected,
        "tolerance": tolerance,
        "params": params or {},
    }


def _check_virial_slope(ctx, tolerance: float = 0.01,
                        mode: Literal["relative", "absolute"] = "relative"):
    mass = ctx.scenario.mass
    slope = diagnostics.virial_slope(ctx.trajectory)
    expected = diagnostics.virial_prediction_2d(mass)
    if mode == "absolute":
        passed = abs(slope - expected) <= tolerance
    else:
        passed = abs(slope - expected) <= tolerance * abs(expected)
    return _result("virial_slope", passed, slope, expected, tolerance, {"mode": mode})


def _check_threshold_slope(ctx, window: tuple[float, float] = (10.0, 100.0),
                           bounds: tuple[float, float] = (-0.5, 0.1)):
    lo, hi = window
    blo, bhi = bounds
    t = ctx.trajectory.times()
    sup = ctx.trajectory.sup_norms()
    weighted = t * sup
    mask = (t >= lo) & (t <= hi)
    slope, _, _ = asymptotics.fit_rate(t[mask], weighted[mask])
    ok = math.isfinite(weighted.max()) and blo <= slope <= bhi
    return _result("threshold_slope", ok, slope, [blo, bhi], None,
                   {"window": [lo, hi]})


def _check_blowup_deadline(ctx, factor: float = 1.2):
    traj = ctx.trajectory
    mass = ctx.scenario.mass
    m2_0 = traj.records[0].moments.second_moment
    deadline = factor * m2_0 / abs(diagnostics.virial_prediction_2d(mass))
    elapsed = traj.blowup_time - traj.config.t_init if traj.blowup else math.inf
    return _result("blowup_deadline", traj.blowup and elapsed <= deadline,
                   elapsed, deadline, factor)


def _check_sup_rate(ctx, window: tuple[float, float] = (10.0, 200.0),
                    expected: float = -1.5, tolerance: float = 0.1):
    lo, hi = window
    t = ctx.trajectory.times()
    sup = ctx.trajectory.sup_norms()
    mask = (t >= lo) & (t <= hi)
    slope, _, _ = asymptotics.fit_rate(t[mask], sup[mask])
    return _result("sup_rate", abs(slope - expected) <= tolerance, slope, expected,
                   tolerance, {"window": [lo, hi]})


def _check_l1_rate_negative(ctx, from_: float = 10.0, bound: float = 0.0):
    t = ctx.trajectory.times()
    l1 = ctx.trajectory.l1_errors()
    mask = (t >= from_) & (l1 > 0)
    slope, _, _ = asymptotics.fit_rate(t[mask], l1[mask])
    return _result("l1_rate_negative", slope < bound, slope, f"< {bound}", None,
                   {"from": from_})


def _check_weighted_sup_decreasing(ctx, from_: float = 20.0):
    traj = ctx.trajectory
    n = traj.dim
    mass = ctx.scenario.mass
    t = traj.times()
    dist = []
    for rec in traj.records:
        gamma = fields.gaussian_radial(n, mass, rec.field.nodes, rec.time)
        dist.append(float(np.abs(rec.field.values - gamma.values).max()))
    weighted = t ** (n / 2.0) * np.asarray(dist)
    tail = weighted[t >= from_]
    decreasing = bool(np.all(np.diff(tail) < 0.0))
    return _result("weighted_sup_decreasing", decreasing,
                   float(tail[-1] / tail[0]), "< 1 monotone", None, {"from": from_})


def _check_mass_conservation(ctx, tolerance: float = 1e-7):
    drift = ctx.trajectory.mass_drift()
    return _result("mass_conservation", drift <= tolerance, drift, 0.0, tolerance)


# the profile checks' mass (masses) left at None is the scenario's mass
def _check_profile_residual(ctx, tolerance: float = 1e-6,
                            masses: list[float] | None = None):
    masses = [ctx.scenario.mass] if masses is None else masses
    results = [ctx.gm(m, (6144, 30.0)) for m in masses]
    worst = max(gm.residual for gm in results)
    return _result("profile_residual", worst <= tolerance, worst, 0.0, tolerance,
                   {"masses": masses})


def _check_profile_stationarity(ctx, tolerance: float = 1e-3, mass: float | None = None,
                                tau_end: float = 5.0):
    mass = ctx.scenario.mass if mass is None else mass
    gm = ctx.gm(mass, (1536, 30.0)).field
    cfg = evolution.SolverConfig(t_init=0.0, t_end=tau_end, reference="profile")
    traj = evolution.evolve_similarity(gm, cfg, reference_field=gm)
    drift = float(np.nanmax(traj.l1_errors()))
    return _result("profile_stationarity", drift <= tolerance, drift, 0.0, tolerance,
                   {"mass": mass, "tau_end": tau_end})


def _check_profile_relaxation(ctx, mass: float | None = None, tau_end: float = 6.0,
                              final_fraction: float = 0.05):
    mass = ctx.scenario.mass if mass is None else mass
    gm = ctx.gm(mass, (1536, 30.0)).field
    g0 = profiles.gaussian_profile(2, mass, grid=gm.nodes)
    cfg = evolution.SolverConfig(t_init=0.0, t_end=tau_end, reference="profile")
    traj = evolution.evolve_similarity(g0, cfg, reference_field=gm)
    errs = traj.l1_errors()
    ok = bool(np.all(np.diff(errs) < 1e-12)) and errs[-1] <= final_fraction * mass
    return _result("profile_relaxation", ok, errs[-1] / mass, 0.0, final_fraction,
                   {"mass": mass, "tau_end": tau_end})


def _check_c2_agreement(ctx, tolerance: float = 1e-3):
    display = asymptotics.constant_c2(1.0)
    oracle = asymptotics.constant_c2_oracle(1.0)
    closed = asymptotics.C2_UNIT_CLOSED_FORM
    rel = max(abs(display - oracle), abs(display - closed),
              abs(oracle - closed)) / closed
    return _result("c2_agreement", rel <= tolerance, rel, 0.0, tolerance)


def _check_c1_mc_agreement(ctx, tolerance: float = 5e-3, samples: int = 10_000_000):
    ws = ctx.wstar()
    quad = asymptotics.constant_c1(1.0, [1.0, 0.0, 0.0], ws).value
    mc = asymptotics.constant_c1_monte_carlo(
        1.0, [1.0, 0.0, 0.0], ws, samples=samples, seed=ctx.scenario.seed
    )
    rel = abs(mc - quad) / abs(quad)
    return _result("c1_mc_agreement", rel <= tolerance, rel, 0.0, tolerance,
                   {"samples": samples})


def _check_phi_margin(ctx, tolerance: float = 1e-3, s1: float = 2.0,
                      rho_range: tuple[float, float] = (0.1, 1.0)):
    rho_lo, rho_hi = rho_range
    rho = diagnostics.rho_grid_from_records(ctx.trajectory, s1, rho_lo, rho_hi)
    _, phi, margin = diagnostics.phi_scan(ctx.trajectory, (0.0, s1), rho)
    rel = float((margin[1:-1] / phi[1:-1]).min())
    return _result("phi_margin", rel >= -tolerance, rel, ">= 0", tolerance,
                   {"s1": s1, "rho_range": [rho_lo, rho_hi]})


def _check_phi_pure_heat(ctx, tolerance: float = 1e-4, s1: float = 2.0):
    mass = ctx.scenario.mass
    cfg = ctx.trajectory.config
    heat_cfg = evolution.SolverConfig(
        t_init=cfg.t_init, t_end=cfg.t_end, nonlinearity=False,
        record_times=cfg.record_times, records_per_decade=cfg.records_per_decade,
    )
    traj = evolution.evolve(ctx.trajectory.records[0].field, heat_cfg)
    rho = diagnostics.rho_grid_from_records(traj, s1, 0.1, 1.0)
    phi = np.array([diagnostics.phi_density(traj, (0.0, s1), p) for p in rho])
    exact = mass * rho**2 / (4.0 * math.pi * s1)
    rel = float(np.abs(phi / exact - 1.0).max())
    return _result("phi_pure_heat", rel <= tolerance, rel, 0.0, tolerance, {"s1": s1})


def _check_wstar_quadrature(ctx, mass_tolerance: float = 1e-6):
    ws = asymptotics.w_star_quadrature()
    ok = ws.integrand_slope >= 0.45 and abs(ws.mass_defect()) <= mass_tolerance
    return _result(
        "wstar_quadrature", ok,
        {"integrand_slope": ws.integrand_slope, "mass_defect": ws.mass_defect()},
        {"integrand_slope": ">= 0.45", "mass_defect": 0.0}, mass_tolerance,
    )


def _check_wstar_moment_stability(ctx, tolerance: float = 0.01):
    ws = ctx.wstar()
    refined = asymptotics.w_star(grid=radial_grid(1536, 28.0))
    worst = 0.0
    for k in (0, 2, 4):
        a, b = ws.moment(k), refined.moment(k)
        worst = max(worst, abs(a - b) / abs(a))
    return _result("wstar_moment_stability", worst <= tolerance, worst, 0.0, tolerance)


def _check_w_pde_residual(ctx, tolerance: float = 1e-3):
    res = asymptotics.w_pde_residual(ctx.wstar())
    return _result("w_pde_residual", res <= tolerance, res, 0.0, tolerance)


def _check_w_self_similarity(ctx, tolerance: float = 1e-10):
    ws = ctx.wstar()
    err = 0.0
    for count in (41, 33):
        xi = np.linspace(0.0, 8.0, count)
        w1 = asymptotics.w_function(ws, 1.0, nodes=xi).values
        w4 = 4.0**2 * asymptotics.w_function(ws, 4.0, nodes=2.0 * xi).values
        err = max(err, float(np.abs(w1 - w4).max() / np.abs(w1).max()))
    return _result("w_self_similarity", err <= tolerance, err, 0.0, tolerance)


def _check_expansion_rate(ctx, minimum: float = 0.95, mass: float = 3.0,
                          shift: float = 1.2):
    u0 = fields.gaussian_cartesian(mass, extent=20.0, size=256,
                                   center=(shift, 0.0), t0=1.0)
    taus = np.linspace(2.0, 8.0, 13)
    errs = []
    for tau in taus:
        out = semigroup.similarity_semigroup(u0, tau)
        ref = semigroup.first_order_heat_expansion(u0, tau)
        diff = out.with_values(out.values - ref.values, nonnegative=False)
        errs.append(fields.lp_norm(diff, 1))
    rate = asymptotics.fit_exponential_rate(taus, np.array(errs))
    return _result("expansion_rate", rate >= minimum, rate, 1.0, minimum,
                   {"mass": mass, "shift": shift})


def _check_potential_disk(ctx, tolerance: float = 1e-3):
    nodes = np.linspace(0.0, 4.0, 4097)
    disk = fields.indicator_disk(nodes, radius=1.0, dim=2)
    lhs, rhs_core, ratio = potential.sup_gradient_bound_check(disk)
    ok = abs(lhs - 0.5) <= tolerance and abs(rhs_core - math.sqrt(math.pi)) <= tolerance
    return _result("potential_disk", ok, {"lhs": lhs, "rhs_core": rhs_core,
                                          "ratio": ratio},
                   {"lhs": 0.5, "rhs_core": math.sqrt(math.pi)}, tolerance)


def _check_potential_sweep(ctx, bound: float = 5.0, count: int = 50):
    rng = np.random.default_rng(ctx.scenario.seed)
    nodes = radial_grid(2048, 24.0)
    worst = 0.0
    scale_dev = 0.0
    for k in range(count):
        n = int(rng.integers(2, 5))
        values = np.zeros_like(nodes)
        for _ in range(int(rng.integers(1, 4))):
            c = rng.uniform(0.0, 6.0)
            wdt = rng.uniform(0.4, 2.0)
            amp = rng.uniform(0.1, 3.0)
            values += amp * np.exp(-((nodes - c) ** 2) / wdt**2)
        u = fields.RadialField(dim=n, nodes=nodes, values=values)
        _, _, ratio = potential.sup_gradient_bound_check(u)
        worst = max(worst, ratio)
        for factor in (3.7, 11.0):
            _, _, scaled = potential.sup_gradient_bound_check(
                u.with_values(factor * values)
            )
            scale_dev = max(scale_dev, abs(scaled - ratio))
    ok = worst <= bound and scale_dev <= 1e-10
    return _result("potential_sweep", ok,
                   {"max_ratio": worst, "scaling_deviation": scale_dev},
                   {"max_ratio": f"<= {bound}"}, 1e-10, {"count": count})


def _check_duhamel(ctx, tolerance: float = 5e-3):
    res = evolution.duhamel_residual(ctx.trajectory)
    return _result("duhamel", res <= tolerance, res, 0.0, tolerance)


def _check_duhamel_negative_control(ctx, floor: float = 5e-2):
    res = evolution.duhamel_residual(ctx.trajectory, zero_nonlinear=True)
    return _result("duhamel_negative_control", res >= floor, res,
                   f">= {floor}", None)


def _check_semigroup_law(ctx, tolerance: float = 1e-7):
    mass = 4.0 * math.pi
    err = 0.0
    for nodes in (radial_grid(2048, 40.0), radial_grid()):
        f = fields.gaussian_radial(2, mass, nodes, t0=0.5)
        one = semigroup.similarity_semigroup(
            semigroup.similarity_semigroup(f, 0.7), 0.9
        )
        two = semigroup.similarity_semigroup(f, 1.6)
        err = max(err, fields.l1_distance(one, two))
    return _result("semigroup_law", err <= tolerance, err, 0.0, tolerance)


def _check_null_conditions(ctx, tolerance: float = 1e-8):
    worst = 0.0
    for n in (2, 3, 4, 5):
        vals = asymptotics.null_structure_checks(n)
        worst = max(worst, abs(vals["div_mass_integral"]),
                    abs(vals["pair_null_mismatch"]))
    return _result("null_conditions", worst <= tolerance, worst, 0.0, tolerance)


def _check_kernel_remainder_exponent(ctx, minimum: float = 1.4):
    rng = np.random.default_rng(ctx.scenario.seed)
    ss = np.linspace(2.0, 10.0, 17)
    rates = []
    for _ in range(50):
        n = int(rng.integers(2, 6))
        xi = rng.normal(size=n)
        xi *= rng.uniform(0, 1) / max(np.linalg.norm(xi), 1e-12)
        z = rng.normal(size=n)
        z *= rng.uniform(0, 1) / max(np.linalg.norm(z), 1e-12)
        rems = np.array(
            [abs(semigroup.kernel_taylor_terms(xi, z, s, n)[3]) for s in ss]
        )
        rates.append(asymptotics.fit_exponential_rate(ss, np.maximum(rems, 1e-300)))
    median = float(np.median(rates))
    return _result("kernel_remainder_exponent", median >= minimum, median, 1.5, minimum)


CHECKS = {
    "virial_slope": (_check_virial_slope, True),
    "threshold_slope": (_check_threshold_slope, True),
    "blowup_deadline": (_check_blowup_deadline, True),
    "sup_rate": (_check_sup_rate, True),
    "l1_rate_negative": (_check_l1_rate_negative, True),
    "weighted_sup_decreasing": (_check_weighted_sup_decreasing, True),
    "mass_conservation": (_check_mass_conservation, True),
    "profile_residual": (_check_profile_residual, False),
    "profile_stationarity": (_check_profile_stationarity, False),
    "profile_relaxation": (_check_profile_relaxation, False),
    "c2_agreement": (_check_c2_agreement, False),
    "c1_mc_agreement": (_check_c1_mc_agreement, False),
    "phi_margin": (_check_phi_margin, True),
    "phi_pure_heat": (_check_phi_pure_heat, True),
    "wstar_quadrature": (_check_wstar_quadrature, False),
    "wstar_moment_stability": (_check_wstar_moment_stability, False),
    "w_pde_residual": (_check_w_pde_residual, False),
    "w_self_similarity": (_check_w_self_similarity, False),
    "expansion_rate": (_check_expansion_rate, False),
    "potential_disk": (_check_potential_disk, False),
    "potential_sweep": (_check_potential_sweep, False),
    "duhamel": (_check_duhamel, True),
    "duhamel_negative_control": (_check_duhamel_negative_control, True),
    "semigroup_law": (_check_semigroup_law, False),
    "null_conditions": (_check_null_conditions, False),
    "kernel_remainder_exponent": (_check_kernel_remainder_exponent, False),
}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_scenario(config_path, out_dir=None, seed=None):
    """Execute one scenario file; returns the process exit code."""
    try:
        scenario = load_scenario(config_path)
        evolving = [name for name, _ in scenario.checks if CHECKS[name][1]]
        if scenario.kind == "compute" and evolving:
            raise ScenarioConfigError(
                f"kind = compute, but check {evolving[0]!r} needs a trajectory")
        if scenario.kind == "evolve" and not evolving:
            raise ScenarioConfigError("kind = evolve, but no check needs a trajectory")
        if scenario.kind == "evolve":
            u0 = _build_initial(scenario)
            cfg = _build_solver_config(scenario, u0)
    except (PKSError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if seed is not None:
        scenario.seed = seed
    out = Path(out_dir) if out_dir else Path.cwd() / f"pks_out_{scenario.name}"
    out.mkdir(parents=True, exist_ok=True)
    ctx = CheckContext(scenario, out)
    try:
        if scenario.kind == "evolve":
            ctx.trajectory = evolution.evolve(u0, cfg)
            evolution.export_trajectory(
                ctx.trajectory, out / "trajectory.csv", out / "manifest.json"
            )
            diagnostics.diagnostics_csv(ctx.trajectory, out / "diagnostics.csv")
    except PKSError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # a check that raises fails alone: the others still run and report
    results = []
    for name, params in scenario.checks:
        try:
            results.append(CHECKS[name][0](ctx, **params))
        except PKSError as exc:
            print(f"numerical failure in {name}: {exc}", file=sys.stderr)
            results.append(dict(_result(name, False, None, None, None), error=str(exc)))
    summary = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "checks": {r["check"]: r for r in results},
        "all_pass": all(r["pass"] for r in results),
    }
    with open(out / "summary.json", "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    for r in results:
        state = "ERROR" if "error" in r else "pass" if r["pass"] else "FAIL"
        print(f"[{state}] {scenario.name}:{r['check']}  measured={r['measured']}")
    if any("error" in r for r in results):
        return 3
    return 0 if summary["all_pass"] else 1


def bundled_scenarios():
    return sorted(p.stem for p in SCENARIO_DIR.glob("*.cfg"))


def list_scenarios():
    lines = []
    for name in bundled_scenarios():
        parser = configparser.ConfigParser()
        parser.read(SCENARIO_DIR / f"{name}.cfg")
        desc = parser["scenario"].get("description", "")
        lines.append(f"{name:24s} {desc}")
    return "\n".join(lines)


def export_constants(dim, mass, b0, samples=2_000_000, seed=1):
    """Constants report with oracle cross-checks, as a plain dict."""
    if dim == 2:
        raise UseProfileModule(
            "2D asymptotics are governed by G_M; use `pks profile`"
        )
    b0 = list(np.atleast_1d(np.asarray(b0, dtype=float)))
    report = {"n": dim, "M": mass, "B0": b0, "c1": None, "c2": None,
              "oracle_values": {}, "rel_disagreement": {}}
    if dim == 4:
        c2 = asymptotics.constant_c2(mass)
        oracle = asymptotics.constant_c2_oracle(mass)
        closed = mass**2 * asymptotics.C2_UNIT_CLOSED_FORM
        report["c2"] = c2
        report["oracle_values"]["c2_reduced_1d"] = oracle
        report["oracle_values"]["c2_closed_form"] = closed
        if closed != 0:
            report["rel_disagreement"]["c2"] = abs(c2 - oracle) / abs(closed)
    if dim == 3:
        ws = asymptotics.w_star()
        pad = [0.0] * (3 - len(b0))
        c1 = asymptotics.constant_c1(mass, b0 + pad, ws).value
        mc = asymptotics.constant_c1_monte_carlo(
            mass, b0 + pad, ws, samples=samples, seed=seed
        )
        report["c1"] = c1
        report["oracle_values"]["c1_monte_carlo"] = mc
        if c1 != 0:
            report["rel_disagreement"]["c1"] = abs(mc - c1) / abs(c1)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pks",
                                     description="chemotaxis decay laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario config files")
    p_run.add_argument("configs", nargs="+")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--parallel", type=int, default=1)

    sub.add_parser("list", help="list bundled scenarios")

    p_const = sub.add_parser("constants", help="export c1/c2 with oracle checks")
    p_const.add_argument("--n", type=int, required=True)
    p_const.add_argument("--mass", type=float, required=True)
    p_const.add_argument("--b0", default="0")
    p_const.add_argument("--samples", type=int, default=2_000_000)
    p_const.add_argument("--seed", type=int, default=1)
    p_const.add_argument("--out", default=None)

    p_prof = sub.add_parser("profile", help="solve the 2D self-similar profile")
    p_prof.add_argument("--mass", type=float, required=True)
    p_prof.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_scenarios())
        return 0

    if args.command == "run":
        paths = []
        for cfg in args.configs:
            p = Path(cfg)
            if not p.exists() and (SCENARIO_DIR / f"{cfg}.cfg").exists():
                p = SCENARIO_DIR / f"{cfg}.cfg"
            paths.append(p)
        out_base = Path(args.out) if args.out else None

        def out_for(p):
            return (out_base / p.stem) if out_base else None

        if args.parallel > 1 and len(paths) > 1:
            with ProcessPoolExecutor(max_workers=args.parallel) as pool:
                codes = list(
                    pool.map(run_scenario, [str(p) for p in paths],
                             [out_for(p) for p in paths],
                             [args.seed] * len(paths))
                )
        else:
            codes = [run_scenario(str(p), out_for(p), args.seed) for p in paths]
        return max(codes)

    if args.command == "constants":
        try:
            report = export_constants(
                args.n, args.mass, _parse_floats(args.b0),
                samples=args.samples, seed=args.seed,
            )
        except UseProfileModule as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
        return 0

    if args.command == "profile":
        try:
            result = profiles.self_similar_profile_2d(args.mass)
        except PKSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            fields.write_snapshot(result.field, out / "profile.csv", t=1.0)
            sidecar = {"M": result.mass, "residual": result.residual,
                       "iterations": result.iterations}
            (out / "profile.json").write_text(
                json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
            )
        print(
            f"G_M mass={result.mass:.12g} residual={result.residual:.3e} "
            f"iterations={result.iterations} peak={result.field.values[0]:.12g}"
        )
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
