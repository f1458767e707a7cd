"""Acceptance suite: criteria 1-10, each asserted through the bundled
scenarios that measure it.

The numerics live in the named checks of ``pkslab.cli``; this file holds only
the spec: which scenario checks carry each criterion, and the tolerance and
expected value each check must report, with the parameters (fit windows,
masses, sample counts) that make it strict, so a loosened scenario file fails
the gate as surely as a failed check.  ``pytest tests/test_acceptance.py -v -s``
prints one PASS/FAIL line per check.
"""

import configparser
import json
import math

import pytest

from pkslab import cli

ANY = object()  # an expected value the check computes from the run itself

# criterion 1 runs virial_2d at four masses; see test_acceptance_1_*
VIRIAL = {
    "virial_2d:virial_slope": (0.01, ANY, {"mode": "relative"}),
    "virial_2d:mass_conservation": (1e-7, 0.0, {}),
}

PI = math.pi
# "<criterion>_<label>" -> {"<scenario>:<check>": (tolerance, expected, params)}
CRITERIA = {
    "2_subcritical_decay": {
        "threshold_2d:threshold_slope": (None, [-0.5, 0.1], {"window": [10.0, 100.0]}),
        "threshold_2d:mass_conservation": (1e-7, 0.0, {}),
    },
    "2_supercritical_blowup": {"blowup_sweep:blowup_deadline": (1.2, ANY, {})},
    "3_profile_residuals": {
        "profile_gm:profile_residual": (
            1e-6, 0.0, {"masses": [0.1, PI, 4.0 * PI, 7.0 * PI]}),
    },
    "3_profile_stationarity": {
        "profile_gm:profile_stationarity": (
            1e-3, 0.0, {"mass": 4.0 * PI, "tau_end": 5.0}),
    },
    "3_gaussian_relaxes_to_profile": {
        "profile_gm:profile_relaxation": (
            0.05, 0.0, {"mass": 4.0 * PI, "tau_end": 6.0}),
    },
    "4_sup_norm_rate": {"rate_n3:sup_rate": (0.1, -1.5, {"window": [10.0, 200.0]})},
    "4_l1_distance_decays": {
        "rate_n3:l1_rate_negative": (None, "< 0.0", {"from": 10.0}),
    },
    "4_weighted_sup_decreasing": {
        "rate_n3:weighted_sup_decreasing": (None, "< 1 monotone", {"from": 20.0}),
    },
    "5_first_order_expansion_rate": {
        "semigroup_expansion:expansion_rate": (0.95, 1.0, {"mass": 3.0, "shift": 1.2}),
    },
    "6_c2_oracles": {"c2_constant:c2_agreement": (1e-3, 0.0, {})},
    "6_c1_monte_carlo": {
        "c2_constant:c1_mc_agreement": (5e-3, 0.0, {"samples": 10_000_000}),
    },
    "7_w_function": {
        "wstar_moments:wstar_quadrature": (
            1e-6, {"integrand_slope": ">= 0.45", "mass_defect": 0.0}, {}),
        "wstar_moments:wstar_moment_stability": (0.01, 0.0, {}),
        "wstar_moments:w_pde_residual": (1e-3, 0.0, {}),
        "wstar_moments:w_self_similarity": (1e-10, 0.0, {}),
    },
    "8_phi_monotonicity": {
        "phi_monotone:phi_margin": (
            1e-3, ">= 0", {"s1": 2.0, "rho_range": [0.1, 1.0]}),
    },
    "8_phi_pure_heat_control": {
        "phi_monotone:phi_pure_heat": (1e-4, 0.0, {"s1": 2.0}),
    },
    "9_potential_bound": {
        "potential_bound:potential_disk": (
            1e-3, {"lhs": 0.5, "rhs_core": math.sqrt(math.pi)}, {}),
        "potential_bound:potential_sweep": (
            1e-10, {"max_ratio": "<= 5.0"}, {"count": 50}),
    },
    "10_mass_conservation": {
        "duhamel_check:mass_conservation": (1e-7, 0.0, {}),
        "rate_n3:mass_conservation": (1e-7, 0.0, {}),
    },
    "10_semigroup_law": {"property_suite:semigroup_law": (1e-7, 0.0, {})},
    "10_null_conditions": {"property_suite:null_conditions": (1e-8, 0.0, {})},
    "10_duhamel": {
        "duhamel_check:duhamel": (5e-3, 0.0, {}),
        "duhamel_check:duhamel_negative_control": (None, ">= 0.05", {}),
    },
    "10_kernel_taylor_exponent": {
        "property_suite:kernel_remainder_exponent": (1.4, 1.5, {}),
    },
}


def _run(config, out_dir):
    code = cli.run_scenario(config, out_dir=out_dir)
    summary = out_dir / "summary.json"
    return code, json.loads(summary.read_text()) if summary.exists() else None


@pytest.fixture(scope="module")
def run_bundled(tmp_path_factory):
    """Runs each bundled scenario once for the module: name -> (code, summary)."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = _run(cli.SCENARIO_DIR / f"{name}.cfg",
                              tmp_path_factory.mktemp(name))
        return runs[name]

    return run


def _assert_criterion(criterion, spec, run):
    failed = []
    for key, (tolerance, expected, params) in spec.items():
        scenario, check = key.split(":")
        code, summary = run(scenario)
        result = summary["checks"].get(check) if summary else None
        ok = (code == 0 and result is not None and result["pass"]
              and result["tolerance"] == tolerance
              and result["params"] == params
              and (expected is ANY or result["expected"] == expected))
        measured = result["measured"] if result else f"exit code {code}"
        print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {key}  "
              f"measured={measured}")
        if not ok:
            failed.append((key, code, result))
    assert not failed


@pytest.mark.parametrize("mult", [2, 4, 6, 8])
def test_acceptance_1_virial_identity(mult, tmp_path):
    config = configparser.ConfigParser()
    config.read(cli.SCENARIO_DIR / "virial_2d.cfg")
    config["initial"]["mass"] = repr(mult * math.pi)
    spec = dict(VIRIAL)
    if mult == 8:  # the predicted slope vanishes: the tolerance is absolute
        config["check:virial_slope"].update(mode="absolute", tolerance="0.25")
        spec["virial_2d:virial_slope"] = (0.25, 0.0, {"mode": "absolute"})
    path = tmp_path / "virial_2d.cfg"
    with open(path, "w") as fh:
        config.write(fh)
    result = _run(path, tmp_path / "out")
    _assert_criterion(1, spec, lambda name: result)


def _criterion_test(label, spec):
    def test(run_bundled):
        _assert_criterion(int(label.split("_")[0]), spec, run_bundled)

    test.__name__ = f"test_acceptance_{label}"
    return test


# one named test per criterion entry, so each stays selectable with -k
for _label, _spec in CRITERIA.items():
    globals()[f"test_acceptance_{_label}"] = _criterion_test(_label, _spec)


def test_every_bundled_check_is_accepted():
    """Each named check runs in a bundled scenario, and each check of each
    bundled scenario is asserted by a criterion above."""
    bundled = {
        f"{name}:{check}"
        for name in cli.bundled_scenarios()
        for check, _ in cli.load_scenario(cli.SCENARIO_DIR / f"{name}.cfg").checks
    }
    assert {key.split(":")[1] for key in bundled} == set(cli.CHECKS)
    assert set(VIRIAL).union(*CRITERIA.values()) == bundled
