"""One benchmark sample: a fresh interpreter that runs one scenario file.

    python3 perfbench/child.py MODE SCENARIO OUT_DIR RESULT_JSON LAUNCH

MODE is ``setup`` (import pkslab and parse the scenario, then stop), ``run``
(also execute the scenario through ``pkslab.cli.run_scenario``, the path of
``pks run``) or ``trace`` (the same run with spans recorded; the spans go to
``spans.json`` beside RESULT_JSON).  LAUNCH is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
includes interpreter start-up.  The result is written as JSON to RESULT_JSON.

Pointing SCENARIO at a bundled scenario file (``src/pkslab/scenarios``) runs
the program's own inputs without the benchmark's jitter.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _provenance(np, scipy):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv):
    mode, scenario_path, out_dir, result_path, launch = argv
    t_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import pkslab
    from pkslab import cli

    import_s = time.perf_counter() - t_start
    if not Path(pkslab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported pkslab from {pkslab.__file__}, not from {ROOT / 'src'}")
    cli.load_scenario(scenario_path)
    result = {
        "setup_s": time.monotonic() - float(launch),
        "import_s": import_s,
    }
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from spans import Tracer, fft_points, wrap_checks

            tracer = Tracer()
            tracer.install({name: getattr(pkslab, name) for name in
                            ("asymptotics", "diagnostics", "evolution", "semigroup")})
            wrap_checks(tracer, cli.CHECKS)
        summary_path = Path(out_dir) / "summary.json"
        summary_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = cli.run_scenario(scenario_path, out_dir=out_dir)
        result["wall_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["summary"] = (json.loads(summary_path.read_text())
                             if summary_path.exists() else None)
        if tracer is not None:
            result["per_layer"] = tracer.metrics(fft_points(pkslab.potential))
            result["per_layer"]["setup.import_s"] = import_s
            result["untraced_points"] = tracer.missing
            spans_path = Path(result_path).with_name("spans.json")
            with open(spans_path, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh, separators=(",", ":"))
        import numpy
        import scipy

        result["provenance"] = _provenance(numpy, scipy)
    Path(result_path).write_text(json.dumps(result, default=str))


if __name__ == "__main__":
    main(sys.argv[1:])
