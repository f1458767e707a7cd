"""Scenario parsing, exit codes, determinism, and the console entry point."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pkslab import asymptotics, cli
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


def test_missing_initial_file_rejected(tmp_path):
    cfg = tmp_path / "missing.cfg"
    cfg.write_text(
        TINY_RUN + "\n"  # base
    )
    cfg.write_text(TINY_RUN.replace("kind = gaussian",
                                    "kind = custom-file\nfile = /no/such/file.csv"))
    assert cli.run_scenario(str(cfg)) == 2


# edits of TINY_RUN that the parser cannot honour
UNHONOURED = {
    "initial_unread_key": ("t0 = 1.0", "t0 = 1.0\nradius = 1.0"),
    "grid_unread_key": ("rmax = 40.0", "rmax = 40.0\ngrading = graded"),
    "solver_dt_max": ("t_end = 1.6", "t_end = 1.6\ndt_max = 0.1"),
    "solver_cfl_safety": ("t_end = 1.6", "t_end = 1.6\ncfl_safety = 0.3"),
    "initial_kind": ("kind = gaussian", "kind = disk"),
    "geometry": ("geometry = radial", "geometry = polar"),
    "scenario_kind": ("kind = evolve", "kind = evolve_similarity"),
    "scheme_mismatch": ("scheme = muscl", "scheme = central"),
    "clamp_tolerance_mismatch": ("t_end = 1.6", "t_end = 1.6\nclamp_tolerance = 3e-8"),
    "reference": ("t_end = 1.6", "t_end = 1.6\nreference = m_gaussian"),
    "scenario_unread_key": ("seed = 1", "seed = 1\nsed = 7"),
    "check_unread_key": ("tolerance = 1e-7", "tolerence = 1e-7"),
    "check_float": ("tolerance = 1e-7",
                    "tolerance = 1e-7\n\n[check:kernel_remainder_exponent]\nminimum = lots"),
    "check_int": ("tolerance = 1e-7", "tolerance = 1e-7\n\n[check:potential_sweep]\ncount = 2.5"),
    "check_pair": ("tolerance = 1e-7", "tolerance = 1e-7\n\n[check:sup_rate]\nwindow = 10"),
    "check_mode": ("tolerance = 1e-7", "tolerance = 1e-7\n\n[check:virial_slope]\nmode = absolut"),
    "unknown_section": ("tolerance = 1e-7", "tolerance = 1e-7\n\n[solvr]\nt_end = 2.0"),
    "duplicate_key": ("t0 = 1.0", "t0 = 1.0\nt0 = 2.0"),
}


@pytest.mark.parametrize("edit", sorted(UNHONOURED))
def test_unhonoured_scenario_input_exits_2(tmp_path, capsys, edit):
    old, new = UNHONOURED[edit]
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(TINY_RUN.replace(old, new))
    assert cli.run_scenario(str(cfg), out_dir=tmp_path / "out") == 2
    assert "config error" in capsys.readouterr().err


# scenarios whose checks disagree with their [scenario] kind
KIND_MISMATCH = {
    "compute_with_trajectory_check": TINY_RUN.replace("kind = evolve", "kind = compute"),
    "evolve_without_trajectory_check": FAST_SCENARIO.replace("kind = compute",
                                                             "kind = evolve"),
}


@pytest.mark.parametrize("case", sorted(KIND_MISMATCH))
def test_kind_disagreeing_with_checks_exits_2(tmp_path, capsys, case):
    cfg = tmp_path / "kind.cfg"
    cfg.write_text(KIND_MISMATCH[case])
    assert cli.run_scenario(str(cfg), out_dir=tmp_path / "out") == 2
    assert "kind" in capsys.readouterr().err
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
    u0 = cli._build_initial(scenario)
    assert isinstance(cli._build_solver_config(scenario, u0), cli.evolution.SolverConfig)


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


def test_deterministic_rerun(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_RUN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run_scenario(str(cfg), out_dir=out1) == 0
    assert cli.run_scenario(str(cfg), out_dir=out2) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()


def test_failed_check_exits_1(tmp_path):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text(TINY_RUN.replace("tolerance = 1e-7", "tolerance = 1e-30"))
    assert cli.run_scenario(str(cfg), out_dir=tmp_path / "out") == 1


def test_export_constants_n4():
    report = cli.export_constants(4, 1.0, [0.0])
    assert report["c2"] == pytest.approx(1.0 / (256.0 * math.pi**4), rel=1e-9)
    assert report["rel_disagreement"]["c2"] <= 1e-3
    assert "c2_closed_form" in report["oracle_values"]


def test_main_constants_n3(tmp_path, wstar_default):
    out = tmp_path / "constants.json"
    assert cli.main(["constants", "--n", "3", "--mass", "1.0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["c1"] == asymptotics.constant_c1(1.0, [0.0] * 3, wstar_default).value
    assert report["rel_disagreement"]["c1"] <= 5e-3
    assert "c1_monte_carlo" in report["oracle_values"]


def test_export_constants_n2_redirects():
    with pytest.raises(UseProfileModule):
        cli.export_constants(2, math.pi, [0.0])


def test_main_constants_n2_exit_1(capsys):
    code = cli.main(["constants", "--n", "2", "--mass", "3.14"])
    assert code == 1
    assert "profile" in capsys.readouterr().err


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
