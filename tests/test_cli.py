"""Scenario parsing, exit codes, determinism, and the console entry point."""

import concurrent.futures
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pkslab import asymptotics, cli, evolution, fields, potential, semigroup
from pkslab.errors import InvalidData, ScenarioConfigError, UseProfileModule

FAST_SCENARIO = """\
[scenario]
name = fast_disk
dim = 2
kind = compute
seed = 1

[check:potential_disk]
tolerance = 1e-3
"""

TINY_RUN = """\
[scenario]
name = tiny_run
dim = 2
kind = evolve
seed = 1

[initial]
kind = gaussian
mass = 6.283185307179586
t0 = 1.0

[grid]
geometry = radial
nodes = 512
rmax = 40.0

[solver]
t_init = 1.0
t_end = 1.6
scheme = muscl

[check:mass_conservation]
tolerance = 1e-7
"""


def test_bundled_scenario_list():
    names = cli.bundled_scenarios()
    for required in ("virial_2d", "profile_gm", "rate_n3", "c2_constant",
                     "blowup_sweep", "phi_monotone", "wstar_moments"):
        assert required in names
    listing = cli.list_scenarios()
    assert "virial_2d" in listing


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nname = broken\n")  # no checks
    assert cli.run_scenario(str(bad)) == 2
    err = capsys.readouterr().err
    assert "check" in err


def test_zero_tolerance_rejected_at_parse(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(FAST_SCENARIO.replace("tolerance = 1e-3", "tolerance = 0"))
    assert cli.run_scenario(str(cfg)) == 2
    assert "tolerance" in capsys.readouterr().err


def test_unknown_check_rejected(tmp_path, capsys):
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text(FAST_SCENARIO.replace("potential_disk", "no_such_check"))
    assert cli.run_scenario(str(cfg)) == 2


# TINY_RUN on a 64^2 Cartesian grid: the free-space FFT path
TINY_CARTESIAN_RUN = TINY_RUN.replace(
    "geometry = radial\nnodes = 512\nrmax = 40.0\n",
    "geometry = cartesian\nsize = 64\nextent = 10.0\n").replace(
    "scheme = muscl", "scheme = pseudo-spectral")

# TINY_RUN's datum read from a snapshot file ({file}), which brings its own grid
FILE_RUN = TINY_RUN.replace(
    "kind = gaussian\nmass = 6.283185307179586\nt0 = 1.0\n\n"
    "[grid]\ngeometry = radial\nnodes = 512\nrmax = 40.0\n",
    "kind = custom-file\nfile = {file}\n")


def _write_snapshot(path, t=1.0):
    """The heat kernel of mass 2 pi at time t, written at t."""
    u0 = cli.fields.gaussian_radial(2, 2.0 * math.pi, cli.radial_grid(512, 40.0), t0=t)
    cli.fields.write_snapshot(u0, path, t=t)


def test_custom_file_runs_with_the_file_mass(tmp_path):
    _write_snapshot(tmp_path / "u0.csv")
    cfg = tmp_path / "file.cfg"
    cfg.write_text(FILE_RUN.format(file=tmp_path / "u0.csv"))
    u0, mass, _ = cli._build_evolution(cli.load_scenario(cfg))
    assert mass == cli.fields.total_mass(u0)
    assert cli.run_scenario(str(cfg), out_dir=tmp_path / "out") == 0


def test_custom_file_run_starts_at_the_snapshot_time(tmp_path):
    _write_snapshot(tmp_path / "u0.csv", t=5.0)
    cfg = tmp_path / "file.cfg"
    cfg.write_text(FILE_RUN.format(file=tmp_path / "u0.csv").replace(
        "t_init = 1.0\nt_end = 1.6\n", "t_end = 5.5\nreference = m_gamma_t\n"))
    assert cli._build_evolution(cli.load_scenario(cfg))[2].t_init == 5.0
    out = tmp_path / "out"
    assert cli.run_scenario(str(cfg), out_dir=out) == 0
    first = (out / "trajectory.csv").read_text().splitlines()[1].split(",")
    # t and the L1 distance to the heat kernel at t (of the datum's
    # quadrature mass): the datum itself, up to that mass's quadrature error
    assert float(first[0]) == 5.0
    assert float(first[4]) < 1e-8


def test_missing_initial_file_rejected(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    cfg.write_text(FILE_RUN.format(file="/no/such/file.csv"))
    assert cli.run_scenario(str(cfg)) == 2
    assert "not found" in capsys.readouterr().err


def test_fractional_count_rejected_by_load_scenario(tmp_path):
    cfg = tmp_path / "nodes.cfg"
    cfg.write_text(TINY_RUN.replace("nodes = 512", "nodes = 512.5"))
    with pytest.raises(ScenarioConfigError, match=r"\[grid\] nodes"):
        cli.load_scenario(cfg)


def test_default_mass_is_the_datum_mass(tmp_path):
    cfg = tmp_path / "unit.cfg"
    cfg.write_text(TINY_RUN.replace("mass = 6.283185307179586\n", "")
                   + "\n[check:virial_slope]\ntolerance = 0.01\n")
    out = tmp_path / "out"
    assert cli.run_scenario(str(cfg), out_dir=out) == 0
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert checks["virial_slope"]["expected"] == cli.diagnostics.virial_prediction_2d(1.0)


@pytest.mark.parametrize("word, value", [("yes", True), ("Off", False)])
def test_nonlinearity_reads_configparser_booleans(tmp_path, word, value):
    cfg = tmp_path / "bool.cfg"
    cfg.write_text(TINY_RUN.replace("t_end = 1.6", f"t_end = 1.6\nnonlinearity = {word}"))
    out = tmp_path / "out"
    assert cli.run_scenario(str(cfg), out_dir=out) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["nonlinearity"] is value


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new)


# scenarios the parser cannot honour, each with the part of the refusal that
# names what it refuses; {file} is a 2D radial snapshot
UNHONOURED = {
    "initial_unread_key": (_edit(TINY_RUN, "t0 = 1.0", "t0 = 1.0\nradius = 1.0"),
                           "[initial] does not read radius"),
    "grid_unread_key": (_edit(TINY_RUN, "rmax = 40.0", "rmax = 40.0\ngrading = graded"),
                        "[grid] does not read grading"),
    "grid_fractional_count": (_edit(TINY_RUN, "nodes = 512", "nodes = 512.5"),
                              "[grid] nodes = '512.5'"),
    "solver_dt_max": (_edit(TINY_RUN, "t_end = 1.6", "t_end = 1.6\ndt_max = 0.1"),
                      "[solver] does not read dt_max"),
    "solver_cfl_safety": (_edit(TINY_RUN, "t_end = 1.6", "t_end = 1.6\ncfl_safety = 0.3"),
                          "[solver] does not read cfl_safety"),
    "nonlinearity_word": (_edit(TINY_RUN, "t_end = 1.6", "t_end = 1.6\nnonlinearity = bogus"),
                          "[solver] nonlinearity = 'bogus'"),
    "initial_kind": (_edit(TINY_RUN, "kind = gaussian", "kind = disk"),
                     "[initial] kind = 'disk'"),
    "geometry": (_edit(TINY_RUN, "geometry = radial", "geometry = polar"),
                 "[grid] geometry = 'polar'"),
    "cartesian_dim": (_edit(_edit(_edit(TINY_RUN, "dim = 2", "dim = 3"), "scheme = muscl\n", ""),
                            "geometry = radial\nnodes = 512\nrmax = 40.0",
                            "geometry = cartesian\nsize = 64\nextent = 10.0"),
                      "[scenario] dim = 3"),
    "scenario_kind": (_edit(TINY_RUN, "kind = evolve", "kind = evolve_similarity"),
                      "[scenario] kind = 'evolve_similarity'"),
    "scenario_dim": (_edit(TINY_RUN, "dim = 2", "dim = 6"), "[scenario] dim = '6'"),
    "scheme_mismatch": (_edit(TINY_RUN, "scheme = muscl", "scheme = central"),
                        "[solver] scheme = central"),
    "clamp_tolerance_mismatch": (_edit(TINY_RUN, "t_end = 1.6",
                                       "t_end = 1.6\nclamp_tolerance = 3e-8"),
                                 "[solver] clamp_tolerance"),
    "reference": (_edit(TINY_RUN, "t_end = 1.6", "t_end = 1.6\nreference = m_gaussian"),
                  "[solver] reference 'm_gaussian'"),
    "scenario_unread_key": (_edit(TINY_RUN, "seed = 1", "seed = 1\nsed = 7"),
                            "[scenario] does not read sed"),
    "check_unread_key": (_edit(TINY_RUN, "tolerance = 1e-7", "tolerence = 1e-7"),
                         "[check:mass_conservation] does not read tolerence"),
    "check_float": (TINY_RUN + "\n[check:kernel_remainder_exponent]\nminimum = lots\n",
                    "[check:kernel_remainder_exponent] minimum = 'lots'"),
    "check_int": (TINY_RUN + "\n[check:potential_sweep]\ncount = 2.5\n",
                  "[check:potential_sweep] count = '2.5'"),
    "check_pair": (TINY_RUN + "\n[check:sup_rate]\nwindow = 10\n",
                   "[check:sup_rate] window = '10'"),
    "check_mode": (TINY_RUN + "\n[check:virial_slope]\nmode = absolut\n",
                   "[check:virial_slope] mode = 'absolut'"),
    "profile_check_without_mass": (
        FAST_SCENARIO + "\n[check:profile_stationarity]\ntolerance = 1e-3\n",
        "[check:profile_stationarity] needs mass"),
    "unknown_section": (TINY_RUN + "\n[solvr]\nt_end = 2.0\n", "unknown section [solvr]"),
    "duplicate_key": (_edit(TINY_RUN, "t0 = 1.0", "t0 = 1.0\nt0 = 2.0"), "'t0'"),
    "compute_with_initial": (FAST_SCENARIO + "\n[initial]\nmass = abc\n",
                             "[initial] is not read"),
    "compute_with_grid": (FAST_SCENARIO + "\n[grid]\nnodes = 4096\n", "[grid] is not read"),
    "compute_with_solver": (FAST_SCENARIO + "\n[solver]\nt_end = 500\n",
                            "[solver] is not read"),
    "file_with_grid": (FILE_RUN + "\n[grid]\nnodes = 4096\n", "[grid] is not read"),
    "file_with_mass": (_edit(FILE_RUN, "file = {file}", "file = {file}\nmass = 1.0"),
                       "[initial] does not read mass"),
    "file_dim_mismatch": (_edit(FILE_RUN, "dim = 2", "dim = 3"), "[scenario] dim = 3"),
    "file_t_init": (_edit(FILE_RUN, "t_init = 1.0", "t_init = 2.0"),
                    "starts the run at t = 2.0, but [initial] file was written at t = 1.0"),
    "solver_t_init_zero": (_edit(TINY_RUN, "t_init = 1.0", "t_init = 0.0"),
                           "physical runs need t_init > 0"),
    # a schedule that does not strictly increase
    "solver_t_end_at_t_init": (_edit(TINY_RUN, "t_end = 1.6", "t_end = 1.0"),
                               "t_end = 1.0 must come after t_init = 1.0"),
    "solver_t_end_before_t_init": (_edit(TINY_RUN, "t_init = 1.0", "t_init = 2.0"),
                                   "t_end = 1.6 must come after t_init = 2.0"),
    "record_window_backward": (
        _edit(TINY_RUN, "t_init = 1.0\nt_end = 1.6", "record_window = 1.6 1.0 0.1"),
        "t_end = 1.0 must come after t_init = 1.6"),
    "record_window_zero_step": (
        _edit(TINY_RUN, "t_init = 1.0\nt_end = 1.6", "record_window = 1.0 1.6 0"),
        "record_window step 0.0 is not positive"),
    "record_window_negative_step": (
        _edit(TINY_RUN, "t_init = 1.0\nt_end = 1.6", "record_window = 1.0 1.6 -0.1"),
        "record_window step -0.1 is not positive"),
}


@pytest.mark.parametrize("edit", sorted(UNHONOURED))
def test_unhonoured_scenario_input_exits_2(tmp_path, capsys, edit):
    text, refusal = UNHONOURED[edit]
    _write_snapshot(tmp_path / "u0.csv")
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(text.replace("{file}", str(tmp_path / "u0.csv")))
    assert cli.run_scenario(str(cfg), out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and refusal in err


# scenarios whose checks disagree with their [scenario] kind
KIND_MISMATCH = {
    "compute_with_trajectory_check": (
        FAST_SCENARIO + "\n[check:mass_conservation]\ntolerance = 1e-7\n",
        "kind = compute, but check 'mass_conservation' needs a trajectory"),
    "evolve_without_trajectory_check": (FAST_SCENARIO.replace("kind = compute", "kind = evolve"),
                                        "kind = evolve, but no check needs a trajectory"),
}


@pytest.mark.parametrize("case", sorted(KIND_MISMATCH))
def test_kind_disagreeing_with_checks_exits_2(tmp_path, capsys, case):
    text, refusal = KIND_MISMATCH[case]
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(text)
    assert cli.run_scenario(str(cfg), out_dir=tmp_path / "out") == 2
    assert refusal in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_raising_check_keeps_the_other_results(tmp_path, monkeypatch, capsys):
    def boom(ctx, tolerance=1e-3):
        raise InvalidData("boom")

    monkeypatch.setitem(cli.CHECKS, "potential_disk", (boom, False))
    cfg = tmp_path / "two.cfg"
    cfg.write_text(FAST_SCENARIO + "\n[check:null_conditions]\ntolerance = 1e-8\n")
    out = tmp_path / "out"
    assert cli.run_scenario(str(cfg), out_dir=out) == 3
    assert "boom" in capsys.readouterr().err
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert checks["potential_disk"]["error"] == "boom"
    assert checks["potential_disk"]["pass"] is False
    assert checks["null_conditions"]["pass"] is True
    assert "error" not in checks["null_conditions"]


SCENARIO_FILES = sorted(cli.SCENARIO_DIR.glob("*.cfg")) + sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "scenarios").glob("*.cfg")
)


@pytest.mark.parametrize("path", SCENARIO_FILES,
                         ids=lambda p: f"{p.parent.parent.name}/{p.stem}")
def test_scenario_file_parses_and_builds(path):
    # read-only: the bundled scenarios and the benchmark templates
    scenario = cli.load_scenario(path)
    _, mass, cfg = cli._build_evolution(scenario)
    assert mass > 0.0
    assert isinstance(cfg, cli.evolution.SolverConfig)


def test_scenario_pass_and_summary(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_SCENARIO)
    out = tmp_path / "out"
    assert cli.run_scenario(str(cfg), out_dir=out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_pass"] is True
    assert summary["checks"]["potential_disk"]["pass"] is True


def test_evolve_scenario_writes_outputs(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_RUN)
    out = tmp_path / "out"
    assert cli.run_scenario(str(cfg), out_dir=out) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "diagnostics.csv").exists()
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("text, builds", [(TINY_RUN, []),
                                          (TINY_CARTESIAN_RUN, [(10.0, 64, "gradient")])],
                         ids=["radial", "cartesian"])
def test_deterministic_rerun(tmp_path, monkeypatch, text, builds):
    # a Cartesian run builds its gradient spectra once for all of its solves,
    # and no potential kernel; the rerun builds its own, and writes the same
    # bytes
    built = []
    build = potential._green_hat_2d

    def counted(extent, size, mode):
        built.append((extent, size, mode))
        return build(extent, size, mode)

    for module in (evolution, potential):
        monkeypatch.setattr(module, "_green_hat_2d", counted)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run_scenario(str(cfg), out_dir=out1) == 0
    assert built == builds
    assert cli.run_scenario(str(cfg), out_dir=out2) == 0
    assert built == 2 * builds
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()


def test_a_second_radial_run_builds_its_own_kernels(tmp_path, monkeypatch):
    # no kernel outlives its run: a rerun in the same process builds the same
    # kernels in the same order, and phi_monotone's pure-heat control run
    # rebuilds the three of its main run
    built = []

    def counted(build):
        def counted_build(nodes, dim, a, shrink):
            built.append((nodes.size, dim, a, shrink))
            return build(nodes, dim, a, shrink)

        return counted_build

    for module in (evolution, semigroup):
        monkeypatch.setattr(module, "_radial_propagator",
                            counted(module._radial_propagator))
    cfg = cli.SCENARIO_DIR / "phi_monotone.cfg"
    runs = []
    for out in ("a", "b"):
        del built[:]
        assert cli.run_scenario(str(cfg), out_dir=tmp_path / out) == 0
        runs.append(list(built))
    assert runs[0] == runs[1]
    assert len(runs[0]) == 6 and runs[0][:3] == runs[0][3:]

def _nan_on_call(nth, value):
    """A stand-in that returns ``value``, with NaN for its last entry on its
    ``nth`` call (counting from 0)."""
    calls = itertools.count()

    def stand_in(*args, **kwargs):
        if next(calls) != nth:
            return value
        return (*value[:-1], math.nan) if isinstance(value, tuple) else math.nan

    return stand_in


def _nan_profile_residual(monkeypatch, ctx):
    residuals = iter([1e-9, math.nan, 1e-9])
    ctx.gm = lambda mass, nodes: SimpleNamespace(residual=next(residuals))
    return cli._check_profile_residual(ctx, masses=[1.0, 2.0, 3.0])


def _nan_wstar_moment_stability(monkeypatch, ctx):
    ctx.wstar = lambda: SimpleNamespace(moment=lambda k: 1.0)
    refined = SimpleNamespace(moment=lambda k: math.nan if k == 2 else 1.0)
    monkeypatch.setattr(asymptotics, "w_star", lambda grid: refined)
    return cli._check_wstar_moment_stability(ctx)


def _nan_w_self_similarity(monkeypatch, ctx):
    # an exactly self-similar W, unreadable on the second sample set
    def w_function(ws, t, nodes):
        return SimpleNamespace(values=np.full(nodes.size, math.nan if nodes.size == 33
                                              else t**-2.0))

    ctx.wstar = lambda: None
    monkeypatch.setattr(asymptotics, "w_function", w_function)
    return cli._check_w_self_similarity(ctx)


def _nan_potential_ratio(monkeypatch, ctx):
    # calls go unscaled, x3.7, x11 per sample: call 3 is the second ratio
    monkeypatch.setattr(potential, "sup_gradient_bound_check",
                        _nan_on_call(3, (1.0, 1.0, 1.0)))
    return cli._check_potential_sweep(ctx, count=2)


def _nan_potential_scaling(monkeypatch, ctx):
    monkeypatch.setattr(potential, "sup_gradient_bound_check",
                        _nan_on_call(4, (1.0, 1.0, 1.0)))
    return cli._check_potential_sweep(ctx, count=2)


def _nan_semigroup_law(monkeypatch, ctx):
    monkeypatch.setattr(semigroup, "similarity_semigroup", lambda f, tau: f)
    monkeypatch.setattr(fields, "l1_distance", _nan_on_call(0, 0.0))
    return cli._check_semigroup_law(ctx)


def _nan_null_conditions(monkeypatch, ctx):
    monkeypatch.setattr(asymptotics, "null_structure_checks", lambda n: {
        "div_mass_integral": math.nan if n == 3 else 0.0, "pair_null_mismatch": 0.0})
    return cli._check_null_conditions(ctx)


def _nan_duhamel(monkeypatch, ctx):
    # the heat row of the second sample radius reads NaN
    average = evolution.scaled_sphere_average
    calls = itertools.count()
    monkeypatch.setattr(evolution, "scaled_sphere_average", lambda dim, z: average(dim, z)
                        * (math.nan if next(calls) == 1 else 1.0))
    return cli._check_duhamel(ctx)


NAN_FOLDS = [_nan_profile_residual, _nan_wstar_moment_stability, _nan_w_self_similarity,
             _nan_potential_ratio, _nan_potential_scaling, _nan_semigroup_law,
             _nan_null_conditions, _nan_duhamel]


@pytest.mark.parametrize("inject", NAN_FOLDS, ids=lambda fn: fn.__name__[5:])
def test_nan_measurement_fails_its_check(monkeypatch, pure_heat_run_2d, inject):
    # each check folds several measurements into its worst case; one NaN
    # among finite values that pass must fail the check
    ctx = SimpleNamespace(scenario=SimpleNamespace(seed=1), trajectory=pure_heat_run_2d)
    assert inject(monkeypatch, ctx)["pass"] is False


def test_failed_check_exits_1(tmp_path):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text(TINY_RUN.replace("tolerance = 1e-7", "tolerance = 1e-30"))
    assert cli.run_scenario(str(cfg), out_dir=tmp_path / "out") == 1


def _error_of(tmp_path, check):
    """TINY_RUN (records at t = 1 ... 1.6) with ``check`` added: the exit code
    and that check's error, after asserting the other check still passed."""
    cfg = tmp_path / "window.cfg"
    cfg.write_text(TINY_RUN + check)
    code = cli.run_scenario(str(cfg), out_dir=tmp_path / "out")
    checks = json.loads((tmp_path / "out" / "summary.json").read_text())["checks"]
    assert checks.pop("mass_conservation")["pass"] is True
    (entry,) = checks.values()
    assert entry["pass"] is False
    return code, entry["error"]


@pytest.mark.parametrize("from_", ["1e9", "1.6"], ids=["no record", "one record"])
def test_weighted_sup_decreasing_needs_two_records(tmp_path, from_):
    code, error = _error_of(tmp_path, f"\n[check:weighted_sup_decreasing]\nfrom = {from_}\n")
    assert code == 3
    assert "a trend needs 2" in error


def test_phi_pure_heat_needs_a_record_on_its_rho_grid(tmp_path):
    code, error = _error_of(tmp_path, "\n[check:phi_pure_heat]\ns1 = 1e6\n")
    assert code == 3
    assert "no record" in error


def test_export_constants_n4():
    report = cli.export_constants(4, 1.0, [0.0])
    assert report["c2"] == pytest.approx(1.0 / (256.0 * math.pi**4), rel=1e-9)
    assert report["rel_disagreement"]["c2"] <= 1e-3
    assert "c2_closed_form" in report["oracle_values"]


def test_main_constants_n3(tmp_path, wstar_default):
    out = tmp_path / "constants.json"
    assert cli.main(["constants", "--n", "3", "--mass", "1.0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["c1"] == asymptotics.constant_c1(1.0, wstar_default)
    assert report["rel_disagreement"]["c1"] <= 5e-3
    assert "c1_monte_carlo" in report["oracle_values"]


def test_export_constants_n2_redirects():
    with pytest.raises(UseProfileModule):
        cli.export_constants(2, math.pi, [0.0])


def test_main_constants_n2_exit_1(capsys):
    code = cli.main(["constants", "--n", "2", "--mass", "3.14"])
    assert code == 1
    assert "profile" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--n", "4", "--mass", "-1"], "mass must be nonnegative"),
    (["--n", "6", "--mass", "1"], "dimension must be in 2..5"),
    (["--n", "5", "--mass", "1"], "n = 5 has no log-term constant"),
    (["--n", "3", "--mass", "1", "--b0", "1,0,0,0"], "B0 has 4 components"),
    (["--n", "3", "--mass", "1", "--samples", "0"], "at least 400 samples, got 0"),
], ids=["negative_mass", "dimension", "no_constant", "b0_length", "too_few_samples"])
def test_main_constants_refuses_bad_input(capsys, argv, message):
    assert cli.main(["constants", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_main_list(capsys):
    assert cli.main(["list"]) == 0
    assert "wstar_moments" in capsys.readouterr().out


def test_main_profile(capsys, tmp_path):
    code = cli.main(["profile", "--mass", "3.14159", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "profile.csv").exists()
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    assert sidecar["residual"] <= 1e-6
    assert "G_M" in capsys.readouterr().out


def test_main_profile_supercritical(capsys):
    assert cli.main(["profile", "--mass", "30.0"]) == 1


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "pkslab.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "constants" in proc.stdout


def test_parallel_run(tmp_path):
    cfg1 = tmp_path / "one.cfg"
    cfg2 = tmp_path / "two.cfg"
    cfg1.write_text(FAST_SCENARIO)
    cfg2.write_text(FAST_SCENARIO.replace("fast_disk", "fast_disk_b"))
    code = cli.main([
        "run", str(cfg1), str(cfg2), "--parallel", "2",
        "--out", str(tmp_path / "par"),
    ])
    assert code == 0
    assert (tmp_path / "par" / "one" / "summary.json").exists()
    assert (tmp_path / "par" / "two" / "summary.json").exists()


class _RecordingPool:
    """A ProcessPoolExecutor stand-in that runs the map in this process and
    records the worker count it was asked for."""
    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_parallel_starts_at_most_one_worker_per_file(tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    paths = []
    for name in ("one", "two", "three"):
        paths.append(tmp_path / f"{name}.cfg")
        paths[-1].write_text(FAST_SCENARIO.replace("fast_disk", name))
    for parallel in ("8", "2"):
        assert cli.main(["run", *map(str, paths), "--parallel", parallel,
                         "--out", str(tmp_path / parallel)]) == 0
    assert _RecordingPool.made == [3, 2]
    assert (tmp_path / "8" / "three" / "summary.json").exists()


@pytest.mark.parametrize("parallel", ["0", "-1"])
def test_parallel_below_one_exits_2(tmp_path, capsys, parallel):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_SCENARIO)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(cfg), "--parallel", parallel])
    assert exc.value.code == 2
    assert "--parallel" in capsys.readouterr().err


# Run in a fresh interpreter: loads a scenario file and runs it, then prints
# its exit code, the scipy subpackages the run imported after the scenario was
# loaded, and which of the modules named after the file were imported at all.
IMPORT_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from pkslab import cli


def scipy_subpackages():
    return {".".join(name.split(".")[:2]) for name in sys.modules
            if name.startswith("scipy.")}


cli.load_scenario(sys.argv[2])
loaded = scipy_subpackages()
code = cli.run_scenario(sys.argv[2], out_dir=sys.argv[3])
print(json.dumps({"exit": code, "run imported": sorted(scipy_subpackages() - loaded),
                  "unused imported": [name for name in sys.argv[4:] if name in sys.modules]}))
"""

# c2 runs no spline; the W_star solve behind w_pde_residual refines its grid
# by a spline and solves a banded system
COMPUTE_SCENARIO = """\
[scenario]
kind = compute

[check:c2_agreement]

[check:w_pde_residual]
"""

# what no evolve run calls: a spline, a banded solve, a process pool
UNUSED_BY_EVOLVE = ("scipy.interpolate", "scipy.linalg", "scipy.optimize",
                    "concurrent.futures.process")


def test_run_kinds_import_only_what_they_call(tmp_path):
    # a radial run calls no FFT and a Cartesian run no CSR matrix; a
    # custom-file run, whose geometry only its snapshot knows, loads both
    _write_snapshot(tmp_path / "radial.csv")
    fields.write_snapshot(fields.gaussian_cartesian(2.0 * math.pi, extent=10.0, size=64),
                          tmp_path / "cartesian.csv", t=1.0)
    runs = {"radial": (TINY_RUN, ["scipy.fft", *UNUSED_BY_EVOLVE]),
            "cartesian": (TINY_CARTESIAN_RUN, ["scipy.sparse", *UNUSED_BY_EVOLVE]),
            "radial file": (FILE_RUN.format(file=tmp_path / "radial.csv"),
                            list(UNUSED_BY_EVOLVE)),
            "cartesian file": (FILE_RUN.format(file=tmp_path / "cartesian.csv").replace(
                "scheme = muscl", "scheme = pseudo-spectral"), list(UNUSED_BY_EVOLVE)),
            "compute": (COMPUTE_SCENARIO, [])}
    src = Path(cli.__file__).resolve().parents[1]
    for name, (text, unused) in runs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src), str(tmp_path / f"{name}.cfg"),
             str(tmp_path / name), *unused],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report == {"exit": 0, "run imported": [], "unused imported": []}, name


# Run in a fresh interpreter: loads a scenario file and prints whether that
# imported scipy.integrate.
LOAD_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from pkslab import cli

cli.load_scenario(sys.argv[2])
print("scipy.integrate" in sys.modules)
"""


@pytest.mark.parametrize("name, imported", [("wstar_moments", True), ("c2_constant", False)])
def test_only_the_wstar_quadrature_check_imports_scipy_integrate(name, imported):
    # the W_star quadrature integrates by Simpson's rule; the other compute
    # scenarios, the benchmark's c2_constant among them, do not pay for it
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, str(src), str(cli.SCENARIO_DIR / f"{name}.cfg")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(imported)]
