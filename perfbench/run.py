"""The pkslab benchmark: bundled scenarios run whole through ``pks run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  From the seed the benchmark writes
the workload's scenario file (the template in ``perfbench/scenarios`` with
its mass jittered inside a narrow band and its Monte Carlo seed set) and
hands only that file to ``pkslab.cli.run_scenario``.  Every sample is a
fresh interpreter, run one at a time with BLAS/OpenMP pinned to one thread,
so the program's process-global kernel caches start empty as they do for a
``pks run`` user.

``--trace 0`` measures the end-to-end metrics: it starts ``SETUP_SAMPLES``
set-up-only interpreters (which also warm the file cache for the imports),
then runs whole samples back to back while the next one is expected to end
within ``--seconds`` (at least one).  It reports the samples' mean time at
a reference host speed (see ``REF_S``) and the medians of set-up time and
peak RSS.  The templates are the bundled scenarios scaled down to a few
seconds a sample, so that a run holds several samples.  ``--trace 1`` runs
one untraced and one traced sample of the same scenario and reports the
per-layer metrics of the traced one (raw seconds), plus the tracing
overhead.

Every sample must exit 0 with all of the scenario's checks passing, and all
samples of a run (traced or not) must report identical check values.  The
last line of standard output is one JSON object; the exit code is 0 only
when the outputs were correct.
"""

import argparse
import configparser
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_VARS)  # before numpy loads BLAS: the reference mix is one thread too

import numpy as np  # noqa: E402
from scipy.fft import fft2, ifft2  # noqa: E402
from scipy.special import i0e  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
CHILD = BENCH / "child.py"

# Mass jitter is a relative half-width around the template's mass.  It keeps
# every run on its side of 8 pi (subcritical 4 pi, supercritical 10 pi) and
# moves the supercritical blow-up time by about 1%; the constants workload
# has no mass, only its Monte Carlo seed varies.
WORKLOADS = {
    "subcritical_radial_2d": 0.002,
    "supercritical_radial_2d": 0.002,
    "virial_cartesian_2d": 0.002,
    "constants_n3": 0.0,
}
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170  # every sample of one run ends within this, or is killed

# Host speed.  On a shared 2-vCPU Xeon VM the same sample (same counts in
# every layer) runs up to 1.5x slower a minute later, every layer at once,
# so raw seconds spread from run to run by 15-35% of their median, more than
# the largest bound a metric may have (25%).  The parent therefore pins
# itself and its samples to one CPU, times a fixed reference mix
# (``reference_s``) before the first sample and after each one, and divides
# a sample's seconds by its slowdown, the mean of the two timings around it
# over REF_S: times are reported at the speed at which the mix takes REF_S,
# a round value near its time on that VM.  The raw seconds and the slowdown
# are printed and kept in the report.
REF_S = 0.035
_REF_RNG = np.random.default_rng(0)
_REF_SQUARE = _REF_RNG.standard_normal((384, 384))
_REF_MATRIX = _REF_RNG.standard_normal((768, 768))
_REF_VECTOR = _REF_RNG.standard_normal(768)
_REF_COMPLEX = _REF_RNG.standard_normal((384, 384)) + 0j

# (name, unit, source); "computed" values come from array shapes, not timers
END_TO_END = [
    ("wall_s", "s", "measured"),
    ("setup_s", "s", "measured"),
    ("peak_rss_mib", "MiB", "measured"),
]
PER_LAYER = [
    ("semigroup.kernel_builds", "count", "measured"),
    ("semigroup.kernel_hits", "count", "measured"),
    ("semigroup.kernel_hit_ratio", "ratio", "measured"),
    ("semigroup.kernel_build_s", "s", "measured"),
    ("semigroup.kernel_bytes_built", "B", "computed"),
    ("semigroup.kernel_cache_peak_mib", "MiB", "computed"),
    ("evolution.diffuse_calls", "count", "measured"),
    ("evolution.diffuse_s", "s", "measured"),
    ("evolution.steps", "count", "measured"),
    ("evolution.cfl_calls", "count", "measured"),
    ("evolution.cfl_s", "s", "measured"),
    ("evolution.advect_s", "s", "measured"),
    ("evolution.records", "count", "measured"),
    ("evolution.record_s", "s", "measured"),
    ("evolution.duhamel_s", "s", "measured"),
    ("evolution.export_s", "s", "measured"),
    ("potential.solves", "count", "measured"),
    ("potential.solves_per_step", "solves/step", "measured"),
    ("potential.solve_s", "s", "measured"),
    ("potential.fft_points_per_solve", "points", "computed"),
    ("diagnostics.csv_s", "s", "measured"),
    ("diagnostics.free_energy_s", "s", "measured"),
    ("asymptotics.w_star_s", "s", "measured"),
    ("asymptotics.w_star_s_nodes", "count", "measured"),
    ("asymptotics.c1_mc_s", "s", "measured"),
    ("cli.checks_s", "s", "measured"),
    ("setup.import_s", "s", "measured"),
    ("trace.overhead_s", "s", "measured"),
]


def generate_scenario(workload, seed, run_dir):
    """Write the seeded scenario file; returns (path, mass or None, checks)."""
    parser = configparser.ConfigParser()
    parser.read(BENCH / "scenarios" / f"{workload}.cfg")
    parser["scenario"]["seed"] = str(seed)
    mass = None
    if parser.has_option("initial", "mass"):
        rng = random.Random(f"{workload}/{seed}")
        mass = float(parser["initial"]["mass"]) * (
            1.0 + WORKLOADS[workload] * rng.uniform(-1.0, 1.0))
        parser["initial"]["mass"] = repr(mass)
    path = run_dir / f"{workload}.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    checks = [s.split(":", 1)[1] for s in parser.sections() if s.startswith("check:")]
    return path, mass, checks


def reference_s():
    """Seconds the fixed reference mix takes now: the median of 7 rounds.

    The mix does the program's kinds of work on arrays of its sizes
    (elementwise exp and Bessel, dense matvec, a 2D FFT round trip, an
    interpreted loop) but none of its code, so a change to the program
    cannot move it.
    """
    rounds = []
    for _ in range(7):
        t0 = time.perf_counter()
        i0e(np.exp(-_REF_SQUARE * _REF_SQUARE))
        for _ in range(20):
            _REF_MATRIX @ _REF_VECTOR
        ifft2(fft2(_REF_COMPLEX))
        total = 0
        for k in range(40000):
            total += k * k
        rounds.append(time.perf_counter() - t0)
    return statistics.median(rounds)


def spawn(mode, scenario, run_dir, tag, deadline):
    """One fresh interpreter; returns its result dict, or None if it failed."""
    result_path = run_dir / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, **THREAD_VARS)
    launch = time.monotonic()
    if launch >= deadline:
        print(f"FAIL: no time left for a {mode} sample", file=sys.stderr)
        return None
    cmd = [sys.executable, str(CHILD), mode, str(scenario), str(run_dir / "out"),
           str(result_path), repr(launch)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=deadline - launch)
    except subprocess.TimeoutExpired:
        print(f"FAIL: {mode} sample killed at the {RUN_LIMIT_S} s run limit", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"FAIL: {mode} sample exited {proc.returncode}\n{proc.stdout[-2000:]}"
              f"{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    if result.get("exit_code", 0) != 0:
        print(f"FAIL: run_scenario returned {result['exit_code']}\n"
              f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}", file=sys.stderr)
    return result


def failed_checks(sample, checks):
    """Names of the checks a sample failed; a failed run fails all of them."""
    if sample is None or sample["exit_code"] != 0 or sample["summary"] is None:
        return list(checks)
    got = sample["summary"]["checks"]
    return [name for name in checks if not got.get(name, {}).get("pass", False)]


def provenance(seed, samples):
    info = {"cpu": "unknown", "cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)), "l3": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "3":
                info["l3"] = (index / "size").read_text().strip()
    except OSError:
        pass
    ran = [s for s in samples if s is not None and "provenance" in s]
    info.update(ran[0]["provenance"] if ran else {})
    info["threads"] = THREAD_VARS
    info["seed"] = seed
    return info


def measure(scenario, checks, run_dir, seconds, trace):
    """Run the samples of one benchmark run and judge their outputs.

    Returns a report dict: ``correct``, ``problems``, ``attempted`` and
    ``failed`` (checks), ``metrics`` (every measured value by name),
    ``checks`` (the check results) and the raw ``samples``.
    """
    (run_dir / "out").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    setups, runs, traced, refs = [], [], None, []

    def sample(mode, tag):
        result = spawn(mode, scenario, run_dir, tag, deadline)
        refs.append(reference_s())
        if result is not None:
            # > 1 when the host ran slower than the reference speed
            result["slowdown"] = (refs[-2] + refs[-1]) / 2.0 / REF_S
        return result

    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})  # the samples inherit it
    try:
        refs.append(reference_s())
        if trace:
            runs.append(sample("run", "run0"))
            traced = sample("trace", "trace")
        else:
            setups = [sample("setup", f"setup{k}") for k in range(SETUP_SAMPLES)]
            # start another sample only if it should end inside the window, so
            # a run lasts about --seconds whatever the length of one sample
            start, lengths = time.monotonic(), []
            while not runs or (runs[-1] is not None and time.monotonic() - start
                               + statistics.median(lengths) <= seconds):
                launched = time.monotonic()
                runs.append(sample("run", f"run{len(runs)}"))
                lengths.append(time.monotonic() - launched)
    finally:
        os.sched_setaffinity(0, allowed)
    judged = runs + ([traced] if trace else [])

    problems = [f"check {name} failed" for s in judged for name in failed_checks(s, checks)]
    if None in setups:
        problems.append("a set-up sample failed")
    values = {json.dumps(s["summary"]["checks"], sort_keys=True)
              for s in judged if s is not None and s["summary"] is not None}
    if len(values) > 1:
        problems.append("check values differ between samples of one run")

    ok_runs = [s for s in runs if s is not None]
    ok_setups = [s for s in setups + ok_runs if s is not None]
    metrics, raw = {}, {}
    if ok_runs:
        # total seconds over total slowdown: with 2-8 samples a run, this
        # spread less from run to run than the median of scaled samples did
        metrics["wall_s"] = (sum(s["wall_s"] for s in ok_runs)
                             / sum(s["slowdown"] for s in ok_runs))
        metrics["setup_s"] = statistics.median(s["setup_s"] / s["slowdown"] for s in ok_setups)
        metrics["peak_rss_mib"] = statistics.median(s["peak_rss_mib"] for s in ok_runs)
        raw["wall_s"] = statistics.mean(s["wall_s"] for s in ok_runs)
        raw["setup_s"] = statistics.median(s["setup_s"] for s in ok_setups)
        raw["slowdown"] = statistics.median(refs) / REF_S
        if traced is not None:
            metrics.update(traced["per_layer"])
            metrics["trace.overhead_s"] = (traced["wall_s"] / traced["slowdown"]
                                           - ok_runs[0]["wall_s"] / ok_runs[0]["slowdown"])
    wanted = PER_LAYER if trace else END_TO_END
    if any(name not in metrics for name, _, _ in wanted):
        problems.append("metrics missing because a sample failed")
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": len(checks) * len(judged),
        "failed": sum(len(failed_checks(s, checks)) for s in judged),
        "metrics": metrics,
        "raw": raw,
        "checks": json.loads(min(values)) if values else {},
        "counts": {"setup": len(setups), "run": len(ok_runs), "trace": int(traced is not None)},
        "untraced_points": traced.get("untraced_points", []) if traced else [],
        "samples": setups + judged,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so subprocess.run kills and waits
    # for the running sample instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "pkslab" / "cli.py").is_file():
        print(f"error: no pkslab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    run_dir = WORK / args.workload / f"seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    scenario, mass, checks = generate_scenario(args.workload, args.seed, run_dir)
    report = measure(scenario, checks, run_dir, args.seconds, bool(args.trace))
    prov = provenance(args.seed, report["samples"])
    prov.update(workload=args.workload, mass=mass, samples=report["counts"],
                untraced_points=report["untraced_points"])
    (run_dir / "report.json").write_text(
        json.dumps(dict(report, provenance=prov), indent=1, default=str))

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, check in sorted(report["checks"].items()):
        state = "pass" if check["pass"] else "FAIL"
        print(f"check {name:30s} {state}  measured={check['measured']}")
    table = report["metrics"]
    counts = report["counts"]
    basis = {"wall_s": counts["run"], "peak_rss_mib": counts["run"],
             "setup_s": counts["run"] + counts["setup"]}
    for name, unit, source in END_TO_END + (PER_LAYER if args.trace else []):
        if name in table:
            how = "1 traced sample"
            if name in basis:
                how = f"{'mean' if name == 'wall_s' else 'median'} of {basis[name]}"
            if name in report["raw"]:
                how += f", at reference speed (raw {report['raw'][name]:.6f} {unit})"
            print(f"metric {name:34s} {table[name]:>18.6f} {unit:12s} {source}, {how}")
    if report["raw"]:
        print(f"host   {'slowdown':34s} {report['raw']['slowdown']:>18.6f} ratio"
              f"        reference mix {REF_S} s at 1.0, median of the run")
    print(f"metric {'checks_failed':34s} {report['failed']:>11d} of {report['attempted']:<4d}"
          " count        measured, the correctness gate")
    if not report["correct"]:
        print("FAIL: " + "; ".join(report["problems"]), file=sys.stderr)
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": table[name], "unit": unit}
                    for name, unit, _ in wanted if name in table},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
