"""Fast self-test of the benchmark harness on tiny generated scenarios.

    python3 -m pytest perfbench/tests -q

One tiny scenario per geometry runs untraced once and traced twice; every
named metric must be present, and every traced count must repeat exactly.
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

TINY = {
    "radial": """
[scenario]
name = tiny_radial
dim = 2
seed = 1
[initial]
kind = gaussian
mass = 12.566370614359172
t0 = 1.0
[grid]
geometry = radial
nodes = 192
rmax = 20.0
[solver]
t_init = 1.0
t_end = 1.5
records_per_decade = 16
[check:mass_conservation]
tolerance = 1e-7
""",
    "cartesian": """
[scenario]
name = tiny_cartesian
dim = 2
seed = 1
[initial]
kind = gaussian
mass = 12.566370614359172
t0 = 1.0
[grid]
geometry = cartesian
size = 64
extent = 10.0
[solver]
t_init = 1.0
t_end = 1.2
scheme = pseudo-spectral
records_per_decade = 16
clamp_tolerance = 3e-8
[check:mass_conservation]
tolerance = 1e-7
""",
}
COUNTS = [name for name, unit, source in run.PER_LAYER
          if unit in ("count", "points") or source == "computed"]


@pytest.mark.parametrize("geometry", sorted(TINY))
def test_metrics_present_and_counts_repeat(tmp_path, monkeypatch, geometry):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    scenario = tmp_path / "tiny.cfg"
    scenario.write_text(TINY[geometry])
    checks = ["mass_conservation"]

    cpus = os.sched_getaffinity(0)
    plain = run.measure(scenario, checks, tmp_path / "plain", 0, trace=False)
    assert os.sched_getaffinity(0) == cpus
    assert plain["correct"], plain["problems"]
    assert set(plain["raw"]) == {"wall_s", "setup_s", "slowdown"}
    assert (plain["attempted"], plain["failed"]) == (1, 0)
    assert {name for name, _, _ in run.END_TO_END} <= set(plain["metrics"])
    assert all(plain["metrics"][name] > 0 for name, _, _ in run.END_TO_END)

    traced = [run.measure(scenario, checks, tmp_path / f"traced{k}", 0, trace=True)
              for k in range(2)]
    for report in traced:
        assert report["correct"], report["problems"]
        assert report["untraced_points"] == []
        assert {name for name, _, _ in run.PER_LAYER} <= set(report["metrics"])
        assert (tmp_path / f"traced{traced.index(report)}" / "spans.json").is_file()
    first, second = ({name: r["metrics"][name] for name in COUNTS} for r in traced)
    assert first == second
    assert first["evolution.steps"] > 0
    if geometry == "radial":
        assert first["semigroup.kernel_builds"] > 0 and first["potential.solves"] == 0
    else:
        assert first["potential.solves"] > 0 and first["semigroup.kernel_builds"] == 0
        assert first["potential.fft_points_per_solve"] > 64 * 64
    assert traced[0]["checks"] == plain["checks"]


def test_failed_run_fails_every_check():
    checks = ["a", "b"]
    assert run.failed_checks(None, checks) == checks
    crashed = {"exit_code": 3, "summary": None}
    assert run.failed_checks(crashed, checks) == checks
    partial = {"exit_code": 1, "summary": {"checks": {"a": {"pass": True},
                                                      "b": {"pass": False}}}}
    assert run.failed_checks(partial, checks) == checks
    passed = {"exit_code": 0, "summary": {"checks": {"a": {"pass": True},
                                                     "b": {"pass": True}}}}
    assert run.failed_checks(passed, checks) == []


def test_seed_fixes_the_generated_scenario(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for d in (a, b, c):
        d.mkdir()
    path_a, mass_a, checks = run.generate_scenario("supercritical_radial_2d", 7, a)
    path_b, mass_b, _ = run.generate_scenario("supercritical_radial_2d", 7, b)
    _, mass_c, _ = run.generate_scenario("supercritical_radial_2d", 8, c)
    assert path_a.read_text() == path_b.read_text()
    assert mass_a == mass_b != mass_c
    assert abs(mass_a / (10 * 3.141592653589793) - 1) <= 0.002
    assert checks == ["blowup_deadline"]
