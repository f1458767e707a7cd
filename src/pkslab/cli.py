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
import importlib
import inspect
import json
import math
import sys
import types
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path
from typing import Literal, get_args, get_origin

import numpy as np

from . import asymptotics, diagnostics, evolution, fields, potential, profiles, semigroup
from .errors import (InsufficientSampling, InvalidParameter, PKSError, ScenarioConfigError,
                     UseProfileModule)
from .grids import radial_grid

SCENARIO_DIR = Path(__file__).parent / "scenarios"


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """Each section as its reader's keyword arguments; ``initial``/``grid`` as
    (kind/geometry, keyword arguments), empty in a compute scenario."""
    name: str
    description: str
    kind: str
    dim: int
    seed: int
    initial: tuple[str, dict]
    grid: tuple[str, dict]
    solver: dict
    checks: list[tuple[str, dict]]


def _parse_floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _cast(annotation, text):
    """``text`` as a value of ``annotation``: float; int (integral, so
    ``1e7`` but not ``2.5``); bool (configparser's 1/yes/true/on and
    0/no/false/off); str; a Literal; a tuple of floats of its length; a
    non-empty list of floats; or one of these ``| None``."""
    if get_origin(annotation) is types.UnionType:  # X | None
        (annotation,) = (arg for arg in get_args(annotation) if arg is not type(None))
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Literal:
        choices = {str(arg): arg for arg in args}
        if text not in choices:
            raise ValueError(f"must be one of {list(args)}")
        return choices[text]
    if origin in (tuple, list):
        values = _parse_floats(text)
        if origin is tuple and len(values) != len(args):
            raise ValueError(f"needs {len(args)} numbers")
        if not values:
            raise ValueError("needs at least one number")
        return tuple(values) if origin is tuple else values
    if annotation is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if text.lower() not in states:
            raise ValueError(f"must be one of {list(states)}")
        return states[text.lower()]
    if annotation is str:
        return text
    value = float(text)
    if annotation is int:
        if not value.is_integer():
            raise ValueError("must be an integer")
        return int(value)
    return value


def _read(path, name, fn, section):
    """Section ``[name]`` as the keyword arguments of ``fn`` after its first,
    each cast from its annotation; a key ``fn`` does not take, or a missing
    key without a default, is refused.  A trailing underscore lets a key be a
    Python keyword (``from_`` reads ``from``)."""
    params = {param.name.removesuffix("_"): param
              for param in list(inspect.signature(fn).parameters.values())[1:]}
    unread = sorted(set(section) - set(params))
    if unread:
        raise ScenarioConfigError(f"{path}: [{name}] does not read {', '.join(unread)}")
    missing = [key for key, param in params.items()
               if param.default is param.empty and key not in section]
    if missing:
        raise ScenarioConfigError(f"{path}: [{name}] needs {', '.join(missing)}")
    kwargs = {}
    for key, text in section.items():
        try:
            value = _cast(params[key].annotation, text)
        except ValueError as exc:
            raise ScenarioConfigError(f"{path}: [{name}] {key} = {text!r}: {exc}") from exc
        if key == "tolerance" and not value > 0.0:
            raise ScenarioConfigError(f"{path}: [{name}] tolerance must be > 0")
        kwargs[params[key].name] = value
    return kwargs


def _select(path, name, section, key, readers):
    """(choice, keyword arguments) of a section whose ``key`` selects its
    reader from ``readers``; the first reader is the default."""
    section = dict(section)
    choice = section.pop(key, next(iter(readers)))
    if choice not in readers:
        raise ScenarioConfigError(
            f"{path}: [{name}] {key} = {choice!r}: must be one of {list(readers)}")
    return choice, _read(path, name, readers[choice], section)


# the section readers: a section's keys are the keyword arguments of its reader
def _scenario_keys(path, name: str = "", description: str = "",
                   dim: Literal[2, 3, 4, 5] = 2, seed: int = 1,
                   kind: Literal["evolve", "compute"] = "evolve"):
    """[scenario]; ``name`` defaults to the file's stem."""
    return dict(name=name or Path(path).stem, description=description, kind=kind, dim=dim,
                seed=seed)


def _radial(dim, nodes: int = 1536, rmax: float = 40.0):
    """[grid] geometry = radial: a Gaussian builder ``(mass, t0=)`` on it."""
    return partial(fields.gaussian_radial, dim, nodes=radial_grid(nodes, rmax))


def _cartesian(dim, size: int = 256, extent: float = 20.0):
    """[grid] geometry = cartesian: a Gaussian builder ``(mass, t0=)`` on it."""
    if dim != 2:
        raise ScenarioConfigError(f"[grid] geometry = cartesian is 2D, but [scenario] dim = {dim}")
    return partial(fields.gaussian_cartesian, extent=extent, size=size)


GEOMETRIES = {"radial": _radial, "cartesian": _cartesian}


def _gaussian(scenario, mass: float = 1.0, t0: float = 1.0):
    """[initial] kind = gaussian: the heat kernel on the [grid], its mass, and
    no start time: the run starts at [solver] t_init."""
    geometry, keys = scenario.grid
    return GEOMETRIES[geometry](scenario.dim, **keys)(mass, t0=t0), mass, None


def _custom_file(scenario, file: str):
    """[initial] kind = custom-file: the snapshot, its quadrature mass, and the
    time it was written at, where the run starts."""
    if not Path(file).exists():
        raise ScenarioConfigError(f"[initial] file {file!r} not found")
    u0, t = fields.read_snapshot(file)
    if u0.dim != scenario.dim:
        raise ScenarioConfigError(f"[initial] file {file!r} holds a dim {u0.dim} field, "
                                  f"but [scenario] dim = {scenario.dim}")
    return u0, fields.total_mass(u0), t


INITIAL_KINDS = {"gaussian": _gaussian, "custom-file": _custom_file}


def _solver_config(u0, t_init: float | None = None, t_end: float | None = None,
                   records_per_decade: int = evolution.SolverConfig.records_per_decade,
                   blowup_factor: float = evolution.SolverConfig.blowup_factor,
                   nonlinearity: bool = evolution.SolverConfig.nonlinearity,
                   reference: str = evolution.SolverConfig.reference,
                   record_window: tuple[float, float, float] | None = None,
                   scheme: str | None = None, clamp_tolerance: float | None = None):
    """[solver]: the SolverConfig of a physical run from ``u0``; ``t_init`` and
    ``t_end`` default to the ends of ``record_window`` (``lo hi step``), else
    to SolverConfig's.  ``scheme`` and ``clamp_tolerance`` assert the values
    a physical run uses on ``u0``'s geometry; ``reference`` must be a
    physical one."""
    for key, given, used in zip(("scheme", "clamp_tolerance"), (scheme, clamp_tolerance),
                                evolution._scheme_and_clamp(u0, "physical")):
        if given is not None and given != used:
            raise ScenarioConfigError(f"[solver] {key} = {given}, but this grid runs {used}")
    if reference not in ("", "m_gamma_t"):
        raise ScenarioConfigError(f"[solver] reference {reference!r} is not for physical runs")
    span = {}
    if record_window is not None:
        lo, hi, step = record_window
        if not step > 0.0:
            raise ScenarioConfigError(f"[solver] record_window step {step} is not positive")
        span = {"t_init": lo, "t_end": hi,
                "record_times": tuple(np.round(np.arange(lo, hi + step / 2, step), 9))}
    span.update((key, value) for key, value in (("t_init", t_init), ("t_end", t_end))
                if value is not None)
    return evolution.SolverConfig(
        **span, records_per_decade=records_per_decade,
        blowup_factor=blowup_factor, nonlinearity=nonlinearity, reference=reference)


# The scipy subpackages each kind of run calls, imported with its scenario so
# that set-up, not the run, pays for them: a radial run applies CSR heat
# kernels, a Cartesian run transforms by FFT, and a compute run's W_star solve
# refines its grid by a spline and solves a banded system.  Imported during
# the run instead, the compute entry nearly doubled the `wall_s` of the
# benchmark's `constants_n3` workload.  A check that alone calls a subpackage
# has an entry of its own, so that only the scenarios that run it pay for it:
# the W_star quadrature integrates by Simpson's rule.  The package itself
# imports none of them, so a radial run never loads scipy.fft and a Cartesian
# one never loads scipy.sparse.
RUN_IMPORTS = {
    "radial": ("scipy.sparse",),
    "cartesian": ("scipy.fft",),
    "compute": ("scipy.interpolate", "scipy.linalg"),
    "wstar_quadrature": ("scipy.integrate",),
}


def _run_kinds(scenario):
    """The ``RUN_IMPORTS`` keys of what ``scenario`` runs: its kind of run,
    then each of its checks that has an entry.  A custom-file datum's
    geometry is known only once its snapshot is read, so it takes both
    geometries'."""
    if scenario.kind == "compute":
        kinds = ("compute",)
    elif scenario.initial[0] == "custom-file":
        kinds = tuple(GEOMETRIES)
    else:
        kinds = (scenario.grid[0],)
    return kinds + tuple(name for name, _ in scenario.checks if name in RUN_IMPORTS)


def load_scenario(path):
    """Parse and cast a scenario file; nothing is built.  It also imports
    the ``RUN_IMPORTS`` of what the scenario runs."""
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
    header = _scenario_keys(
        path, **_read(path, "scenario", _scenario_keys, sections.pop("scenario")))
    checks = [name.split(":", 1)[1] for name in sections if name.startswith("check:")]
    if not checks:
        raise ScenarioConfigError(f"{path}: a scenario needs at least one [check:*]")
    for check in checks:
        if check not in CHECKS:
            raise ScenarioConfigError(f"{path}: unknown check {check!r}")
    for section in ("initial", "grid", "solver"):
        if header["kind"] == "compute" and section in sections:
            raise ScenarioConfigError(f"{path}: [{section}] is not read: "
                                      "a compute scenario builds no datum, grid or solver")
    initial = _select(path, "initial", sections.pop("initial", {}), "kind", INITIAL_KINDS)
    if initial[0] == "custom-file" and "grid" in sections:
        raise ScenarioConfigError(f"{path}: [grid] is not read: "
                                  "a custom-file datum brings its own grid")
    scenario = Scenario(
        **header, initial=initial,
        grid=_select(path, "grid", sections.pop("grid", {}), "geometry", GEOMETRIES),
        solver=_read(path, "solver", _solver_config, sections.pop("solver", {})),
        checks=[(check, _read(path, f"check:{check}", CHECKS[check][0],
                              sections.pop(f"check:{check}")))
                for check in checks],
    )
    if sections:
        raise ScenarioConfigError(f"{path}: unknown section [{next(iter(sections))}]")
    for run in _run_kinds(scenario):
        for module in RUN_IMPORTS[run]:
            importlib.import_module(module)
    return scenario


def _build_evolution(scenario):
    """The initial datum, the mass the checks compare against, and the
    SolverConfig of the run.  A datum with a start time starts the run there
    when [solver] sets no t_init (nor a record_window); a [solver] that starts
    it elsewhere is refused, and so is a record schedule the run cannot
    follow (a physical run starting at t <= 0, or times that do not strictly
    increase)."""
    kind, keys = scenario.initial
    u0, mass, t_start = INITIAL_KINDS[kind](scenario, **keys)
    solver = scenario.solver
    if t_start is not None and not solver.keys() & {"t_init", "record_window"}:
        solver = dict(solver, t_init=t_start)
    cfg = _solver_config(u0, **solver)
    if t_start is not None and cfg.t_init != t_start:
        raise ScenarioConfigError(f"[solver] starts the run at t = {cfg.t_init}, but "
                                  f"[initial] file was written at t = {t_start}")
    evolution._record_schedule(cfg, "physical")
    return u0, mass, cfg


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

class CheckContext:
    """What the checks read.  ``mass`` is the mass the datum was built with
    (None in a compute scenario); W_star and each G_M are solved once."""

    def __init__(self, scenario, mass=None):
        self.scenario = scenario
        self.mass = mass
        self.trajectory = None
        self.wstar = cache(lambda: asymptotics.w_star())
        self.gm = cache(lambda mass, nodes: profiles.self_similar_profile_2d(
            mass, grid=radial_grid(*nodes)))


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
    slope = diagnostics.virial_slope(ctx.trajectory)
    expected = diagnostics.virial_prediction_2d(ctx.mass)
    if mode == "absolute":
        passed = abs(slope - expected) <= tolerance
    else:
        passed = abs(slope - expected) <= tolerance * abs(expected)
    return _result("virial_slope", passed, slope, expected, tolerance, {"mode": mode})


def _window_rate(ctx, values, lo, hi=math.inf, keep=True):
    """The log-log slope of the per-record ``values`` over the records with
    lo <= t <= hi (and ``keep``)."""
    t = ctx.trajectory.times()
    mask = (t >= lo) & (t <= hi) & keep
    return asymptotics.fit_rate(t[mask], values[mask])[0]


def _check_threshold_slope(ctx, window: tuple[float, float] = (10.0, 100.0),
                           bounds: tuple[float, float] = (-0.5, 0.1)):
    lo, hi = window
    blo, bhi = bounds
    weighted = ctx.trajectory.times() * ctx.trajectory.sup_norms()
    slope = _window_rate(ctx, weighted, lo, hi)
    ok = math.isfinite(weighted.max()) and blo <= slope <= bhi
    return _result("threshold_slope", ok, slope, [blo, bhi], None,
                   {"window": [lo, hi]})


def _check_blowup_deadline(ctx, factor: float = 1.2):
    traj = ctx.trajectory
    m2_0 = traj.records[0].moments.second_moment
    deadline = factor * m2_0 / abs(diagnostics.virial_prediction_2d(ctx.mass))
    elapsed = traj.blowup_time - traj.config.t_init if traj.blowup else math.inf
    return _result("blowup_deadline", traj.blowup and elapsed <= deadline,
                   elapsed, deadline, factor)


def _check_sup_rate(ctx, window: tuple[float, float] = (10.0, 200.0),
                    expected: float = -1.5, tolerance: float = 0.1):
    lo, hi = window
    slope = _window_rate(ctx, ctx.trajectory.sup_norms(), lo, hi)
    return _result("sup_rate", abs(slope - expected) <= tolerance, slope, expected,
                   tolerance, {"window": [lo, hi]})


def _check_l1_rate_negative(ctx, from_: float = 10.0, bound: float = 0.0):
    l1 = ctx.trajectory.l1_errors()
    slope = _window_rate(ctx, l1, from_, keep=l1 > 0)
    return _result("l1_rate_negative", slope < bound, slope, f"< {bound}", None,
                   {"from": from_})


def _check_weighted_sup_decreasing(ctx, from_: float = 20.0):
    traj = ctx.trajectory
    n = traj.dim
    t = traj.times()
    held = int(np.count_nonzero(t >= from_))
    if held < 2:
        raise InsufficientSampling(f"{held} record(s) at t >= {from_}: a trend needs 2")
    dist = []
    for rec in traj.records:
        gamma = fields.gaussian_radial(n, ctx.mass, rec.field.nodes, rec.time)
        dist.append(float(np.abs(rec.field.values - gamma.values).max()))
    weighted = t ** (n / 2.0) * np.asarray(dist)
    tail = weighted[t >= from_]
    decreasing = bool(np.all(np.diff(tail) < 0.0))
    return _result("weighted_sup_decreasing", decreasing,
                   float(tail[-1] / tail[0]), "< 1 monotone", None, {"from": from_})


def _check_mass_conservation(ctx, tolerance: float = 1e-7):
    drift = ctx.trajectory.mass_drift()
    return _result("mass_conservation", drift <= tolerance, drift, 0.0, tolerance)


def _check_profile_residual(ctx, masses: list[float], tolerance: float = 1e-6):
    results = [ctx.gm(m, (6144, 30.0)) for m in masses]
    worst = float(np.max([gm.residual for gm in results]))
    return _result("profile_residual", worst <= tolerance, worst, 0.0, tolerance,
                   {"masses": masses})


def _check_profile_stationarity(ctx, mass: float, tolerance: float = 1e-3,
                                tau_end: float = 5.0):
    gm = ctx.gm(mass, (1536, 30.0)).field
    cfg = evolution.SolverConfig(t_init=0.0, t_end=tau_end)
    traj = evolution.evolve_similarity(gm, cfg, reference_field=gm)
    drift = float(np.nanmax(traj.l1_errors()))
    return _result("profile_stationarity", drift <= tolerance, drift, 0.0, tolerance,
                   {"mass": mass, "tau_end": tau_end})


def _check_profile_relaxation(ctx, mass: float, tau_end: float = 6.0,
                              final_fraction: float = 0.05):
    gm = ctx.gm(mass, (1536, 30.0)).field
    g0 = profiles.gaussian_profile(2, mass, grid=gm.nodes)
    cfg = evolution.SolverConfig(t_init=0.0, t_end=tau_end)
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
    report = export_constants(3, 1.0, [1.0], samples=samples, seed=ctx.scenario.seed)
    rel = report["rel_disagreement"]["c1"]
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
    heat_cfg = replace(ctx.trajectory.config, nonlinearity=False)
    traj = evolution.evolve(ctx.trajectory.records[0].field, heat_cfg)
    rho = diagnostics.rho_grid_from_records(traj, s1, 0.1, 1.0)
    if not rho.size:
        raise InsufficientSampling(f"no record at t = {s1} - rho^2 for rho in [0.1, 1]")
    phi = np.array([diagnostics.phi_density(traj, (0.0, s1), p) for p in rho])
    exact = ctx.mass * rho**2 / (4.0 * math.pi * s1)
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
    pairs = [(ws.moment(k), refined.moment(k)) for k in (0, 2, 4)]
    worst = float(np.max([abs(a - b) / abs(a) for a, b in pairs]))
    return _result("wstar_moment_stability", worst <= tolerance, worst, 0.0, tolerance)


def _check_w_pde_residual(ctx, tolerance: float = 1e-3):
    res = asymptotics.w_pde_residual(ctx.wstar())
    return _result("w_pde_residual", res <= tolerance, res, 0.0, tolerance)


def _check_w_self_similarity(ctx, tolerance: float = 1e-10):
    ws = ctx.wstar()
    errs = []
    for count in (41, 33):
        xi = np.linspace(0.0, 8.0, count)
        w1 = asymptotics.w_function(ws, 1.0, nodes=xi).values
        w4 = 4.0**2 * asymptotics.w_function(ws, 4.0, nodes=2.0 * xi).values
        errs.append(np.abs(w1 - w4).max() / np.abs(w1).max())
    err = float(np.max(errs))
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
    disk = fields.indicator_disk(nodes)
    lhs, rhs_core, ratio = potential.sup_gradient_bound_check(disk)
    ok = abs(lhs - 0.5) <= tolerance and abs(rhs_core - math.sqrt(math.pi)) <= tolerance
    return _result("potential_disk", ok, {"lhs": lhs, "rhs_core": rhs_core,
                                          "ratio": ratio},
                   {"lhs": 0.5, "rhs_core": math.sqrt(math.pi)}, tolerance)


def _check_potential_sweep(ctx, bound: float = 5.0, count: int = 50):
    rng = np.random.default_rng(ctx.scenario.seed)
    nodes = radial_grid(2048, 24.0)
    ratios, deviations = [], []
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
        ratios.append(ratio)
        for factor in (3.7, 11.0):
            _, _, scaled = potential.sup_gradient_bound_check(
                u.with_values(factor * values)
            )
            deviations.append(abs(scaled - ratio))
    worst, scale_dev = float(np.max(ratios)), float(np.max(deviations))
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
    dists = []
    for nodes in (radial_grid(2048, 40.0), radial_grid()):
        f = fields.gaussian_radial(2, mass, nodes, t0=0.5)
        one = semigroup.similarity_semigroup(
            semigroup.similarity_semigroup(f, 0.7), 0.9
        )
        two = semigroup.similarity_semigroup(f, 1.6)
        dists.append(fields.l1_distance(one, two))
    err = float(np.max(dists))
    return _result("semigroup_law", err <= tolerance, err, 0.0, tolerance)


def _check_null_conditions(ctx, tolerance: float = 1e-8):
    measured = []
    for n in (2, 3, 4, 5):
        vals = asymptotics.null_structure_checks(n)
        measured += [vals["div_mass_integral"], vals["pair_null_mismatch"]]
    worst = float(np.max(np.abs(measured)))
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
            [abs(semigroup.kernel_taylor_terms(xi, z, s)[3]) for s in ss]
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
        mass = None
        if scenario.kind == "evolve":
            u0, mass, cfg = _build_evolution(scenario)
    except (PKSError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if seed is not None:
        scenario.seed = seed
    out = Path(out_dir) if out_dir else Path.cwd() / f"pks_out_{scenario.name}"
    out.mkdir(parents=True, exist_ok=True)
    ctx = CheckContext(scenario, mass)
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
    return "\n".join(f"{name:24s} {load_scenario(SCENARIO_DIR / f'{name}.cfg').description}"
                     for name in bundled_scenarios())


def export_constants(dim, mass, b0, samples=2_000_000, seed=1):
    """Constants report with oracle cross-checks, as a plain dict."""
    if dim not in (2, 3, 4, 5):
        raise InvalidParameter(f"dimension must be in 2..5, got {dim}")
    if dim == 2:
        raise UseProfileModule(
            "2D asymptotics are governed by G_M; use `pks profile`"
        )
    if dim == 5:
        raise InvalidParameter("n = 5 has no log-term constant: c1 is defined "
                               "for n = 3 and c2 for n = 4")
    b0 = list(np.atleast_1d(np.asarray(b0, dtype=float)))
    if len(b0) > dim:
        raise InvalidParameter(f"B0 has {len(b0)} components, more than n = {dim}")
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
        c1 = asymptotics.constant_c1(mass, ws)
        mc = asymptotics.constant_c1_monte_carlo(
            mass, b0 + pad, ws, samples=samples, seed=seed
        )
        report["c1"] = c1
        report["oracle_values"]["c1_monte_carlo"] = mc
        if c1 != 0:
            report["rel_disagreement"]["c1"] = abs(mc - c1) / abs(c1)
    return report


def _positive_int(text):
    """A worker count for ``--parallel``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pks",
                                     description="chemotaxis decay laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario config files")
    p_run.add_argument("configs", nargs="+")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--parallel", type=_positive_int, default=1,
                       help="worker processes, at most one per scenario file")

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
            from concurrent.futures import ProcessPoolExecutor

            # the fork start method launches every worker at the first submit
            with ProcessPoolExecutor(max_workers=min(args.parallel, len(paths))) as pool:
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
        except PKSError as exc:
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
