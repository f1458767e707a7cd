"""Output identity of a change against a parent revision.

    python3 tools/outputs_pair.py PARENT_REV [--out FILE]

Run from the root of a git checkout; the change is its working tree.  Both
sides are exported as ``tools/bench_pair.py`` exports them.  On each side
the script runs, at one BLAS thread, every scenario file of that side
(``src/pkslab/scenarios/*.cfg`` and ``perfbench/scenarios/*.cfg``) with
``pks run --seed 7``, and every command of ``COMMANDS`` (``pks constants``
and ``pks profile``) and every demo (``demos/*.py``) in an empty working
directory; it keeps each run's output directory, the stdout of the commands
and demos and the files they write, and every run's exit code.  It then
runs the change side once more at two BLAS threads.

It names every output file as identical or differing (or present on one
side only) between the parent and the change.  For a differing CSV it
gives, per column, the largest absolute and relative difference; for a
differing JSON file, the same per key path, and it flags every check whose
``pass`` changed.  A differing text file is shown by its first differing
line.  It then names every file of the two-thread run that differs from
the change's one-thread run, described the same way with the one-thread
run in the parent's place.

A report-only pass follows.  numpy picks a SIMD kernel per ufunc and CPU
(``numpy.lib.introspect.opt_func_info``), and kernels for different targets
may round differently.  When numpy dispatches some ufunc to an AVX-512 target
on this host, the change side is run once more, at one BLAS thread, with
those targets switched off for its processes
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``), and every
file that differs from the change's one-thread run is named, with the
largest relative difference per CSV column and JSON key.  Otherwise the pass
is skipped, and the report says so.

The report goes to standard output; ``--out`` also writes it as JSON.  The
exit code is 0 when the parent and the change, and the change's one- and
two-thread runs, agree in every file, and 1 otherwise; the dispatch pass
never changes it.
"""

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pair import export_commit, export_working_tree, git  # noqa: E402

SEED = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SCENARIO_DIRS = ("src/pkslab/scenarios", "perfbench/scenarios")
# (label, pks arguments): each runs in its own empty working directory
COMMANDS = (
    ("constants_n3", ["constants", "--n", "3", "--mass", "1"]),
    # a mixed-sign dipole B0, which weights the c1 Monte Carlo's cosine terms
    ("constants_n3_dipole", ["constants", "--n", "3", "--mass", "2.5", "--b0", "0,-0.7,0.2",
                             "--samples", "500000", "--seed", "3"]),
    ("constants_n4", ["constants", "--n", "4", "--mass", "2"]),
    ("profile_4pi", ["profile", "--mass", "12.566370614359172", "--out", "."]),
)


# the AVX-512 dispatch targets of numpy 2 on x86-64, switched off by the
# report-only pass
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def run_side(side, out, threads, **extra_env):
    """Run every scenario file, command and demo of the checkout ``side`` at
    ``threads`` BLAS threads, with ``extra_env`` added to their environment
    and their outputs under ``out``; the exit codes go to
    ``out/exit_codes.json``."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"),
               **{name: str(threads) for name in THREAD_VARS}, **extra_env)
    codes = {}

    def run(label, command, cwd):
        cwd.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
        codes[label] = proc.returncode
        print(f"  {label}: exit {proc.returncode}", file=sys.stderr)
        return proc.stdout

    for group in SCENARIO_DIRS:
        for cfg in sorted((side / group).glob("*.cfg")):
            run(f"{group}/{cfg.name}",
                [sys.executable, "-m", "pkslab.cli", "run", str(cfg), "--seed", str(SEED),
                 "--out", str(out / group.replace("/", "_"))], side)
    for label, args in COMMANDS:
        cwd = out / "commands" / label
        stdout = run(f"pks {label}", [sys.executable, "-m", "pkslab.cli", *args], cwd)
        (cwd / "stdout.txt").write_text(stdout)
    for demo in sorted((side / "demos").glob("*.py")):
        cwd = out / "demos" / demo.stem
        stdout = run(f"demos/{demo.name}", [sys.executable, str(demo)], cwd)
        (cwd / "stdout.txt").write_text(stdout)
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


def avx512_dispatched():
    """The AVX-512 targets numpy's ufuncs run on this host, read in a child
    interpreter (this script imports no numpy)."""
    probe = ("import json; from numpy.lib.introspect import opt_func_info; "
             "print(json.dumps([t['current'] for sigs in opt_func_info().values() "
             "for t in sigs.values()]))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True).stdout
    return sorted(set(json.loads(out)) & set(AVX512_TARGETS))


def number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def worst(diffs, key, a, b):
    """Fold the difference of values ``a`` and ``b`` into ``diffs[key]``: the
    largest absolute and relative differences, or the first unequal texts."""
    if a == b:
        return
    x, y = number(a), number(b)
    if isinstance(a, bool) or isinstance(b, bool) or x is None or y is None:
        diffs.setdefault(key, {"parent": a, "change": b})
        return
    if math.isnan(x) and math.isnan(y):
        return
    gap = abs(x - y)
    scale = max(abs(x), abs(y))
    rel = gap / scale if scale > 0.0 else 0.0
    if math.isnan(gap):
        gap = rel = math.inf
    entry = diffs.setdefault(key, {"max_abs": 0.0, "max_rel": 0.0})
    if "max_abs" in entry:
        entry["max_abs"] = max(entry["max_abs"], gap)
        entry["max_rel"] = max(entry["max_rel"], rel)


def diff_csv(parent, change):
    """Per column, the largest differences of two CSV texts.  ``#`` comment
    lines are skipped; a file whose first row holds only numbers (a snapshot
    file) has no header, and its columns are named by their index."""
    rows = [[row for row in csv.reader(io.StringIO(text)) if row and not row[0].startswith("#")]
            for text in (parent, change)]
    if (not rows[0] or len(rows[0][0]) != len(rows[1][0])
            or len(rows[0]) != len(rows[1])):
        return {"shape": {"parent": [len(r) for r in rows[0][:1]] + [len(rows[0])],
                          "change": [len(r) for r in rows[1][:1]] + [len(rows[1])]}}
    headed = any(number(cell) is None for cell in rows[0][0])
    if headed and rows[0][0] != rows[1][0]:
        return {"header": {"parent": rows[0][0], "change": rows[1][0]}}
    names = rows[0][0] if headed else [f"column {k}" for k in range(len(rows[0][0]))]
    diffs = {}
    for row_p, row_c in zip(rows[0][headed:], rows[1][headed:]):
        for name, a, b in zip(names, row_p, row_c):
            worst(diffs, name, a, b)
    return diffs


def flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from flatten(item, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from flatten(item, f"{prefix}[{k}]")
    else:
        yield prefix, value


def diff_json(parent, change):
    flat_p, flat_c = (dict(flatten(json.loads(text))) for text in (parent, change))
    diffs = {}
    for key in sorted(flat_p.keys() | flat_c.keys()):
        worst(diffs, key, flat_p.get(key), flat_c.get(key))
    flipped = sorted(key[:-len(".pass")] for key in diffs
                     if key.startswith("checks.") and key.endswith(".pass"))
    return diffs, flipped


def diff_text(parent, change):
    lines = zip(parent.splitlines(), change.splitlines())
    for k, (a, b) in enumerate(lines, 1):
        if a != b:
            return {"line": k, "parent": a, "change": b}
    return {"line_count": [len(parent.splitlines()), len(change.splitlines())]}


def compare_trees(parent, change):
    names = sorted({p.relative_to(root).as_posix() for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    report = {}
    for name in names:
        a, b = parent / name, change / name
        if not a.exists() or not b.exists():
            report[name] = {"status": "only in " + ("change" if b.exists() else "parent")}
            continue
        data_a, data_b = a.read_bytes(), b.read_bytes()
        if data_a == data_b:
            report[name] = {"status": "identical"}
            continue
        entry = {"status": "differing"}
        text_a, text_b = data_a.decode(errors="replace"), data_b.decode(errors="replace")
        if name.endswith(".csv"):
            entry["columns"] = diff_csv(text_a, text_b)
        elif name.endswith(".json"):
            entry["keys"], flipped = diff_json(text_a, text_b)
            if flipped:
                entry["pass_changed"] = flipped
        else:
            entry["first_difference"] = diff_text(text_a, text_b)
        report[name] = entry
    return report


def describe(name, entry):
    lines = [f"{entry['status']:10s} {name}"]
    for key, diff in {**entry.get("columns", {}), **entry.get("keys", {})}.items():
        if "max_abs" in diff:
            lines.append(f"    {key}: max abs {diff['max_abs']:.3g}, "
                         f"max rel {diff['max_rel']:.3g}")
        else:
            lines.append(f"    {key}: {diff}")
    if "pass_changed" in entry:
        lines.append(f"    PASS CHANGED: {', '.join(entry['pass_changed'])}")
    if "first_difference" in entry:
        lines.append(f"    {entry['first_difference']}")
    return "\n".join(lines)


def main(argv=None):
    root = Path.cwd()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    parent_commit = git(root, "rev-parse", "--verify",
                        f"{args.parent}^{{commit}}").decode().strip()

    scratch = Path(tempfile.mkdtemp(prefix="outputs_pair_"))
    try:
        sides = {"parent": scratch / "parent", "change": scratch / "change"}
        export_commit(parent_commit, sides["parent"], root)
        export_working_tree(sides["change"], root)
        outs = {name: scratch / f"out_{name}" for name in sides}
        for name, side in sides.items():
            print(f"running the {name} side", file=sys.stderr)
            run_side(side, outs[name], 1)
        print("running the change side at 2 BLAS threads", file=sys.stderr)
        run_side(sides["change"], scratch / "out_change_2", 2)
        files = compare_trees(outs["parent"], outs["change"])
        threads = compare_trees(outs["change"], scratch / "out_change_2")
        targets = avx512_dispatched()
        dispatch = None
        if targets:
            print("running the change side with AVX-512 dispatch off", file=sys.stderr)
            run_side(sides["change"], scratch / "out_change_noavx512", 1,
                     NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
            dispatch = compare_trees(outs["change"], scratch / "out_change_noavx512")
    finally:
        shutil.rmtree(scratch)

    same = True
    for report, against in ((files, f"against {parent_commit[:12]}"),
                            (threads, "at 2 BLAS threads against 1")):
        differing = [name for name, entry in report.items()
                     if entry["status"] != "identical"]
        for name, entry in report.items():
            print(describe(name, entry))
        print(f"{len(report) - len(differing)} of {len(report)} files identical {against}")
        same = same and not differing
    if dispatch is None:
        print("dispatch pass skipped: numpy dispatches no AVX-512 target on this host")
    else:
        print(f"report only, {', '.join(targets)} dispatch off against on:")
        for name, entry in dispatch.items():
            if entry["status"] != "identical":
                print(describe(name, entry))
        same_files = sum(entry["status"] == "identical" for entry in dispatch.values())
        print(f"{same_files} of {len(dispatch)} files identical with AVX-512 dispatch off")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"parent": parent_commit, "files": files, "threads": threads,
             "avx512_targets": targets, "dispatch": dispatch}, indent=1) + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
