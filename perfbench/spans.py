"""In-memory span tracer that instruments pkslab from the outside.

Spans wrap the calls that cross module boundaries.  They are installed by
replacing module attributes (and stepper methods) with timing wrappers, so
nothing in the program itself changes.  Each span is ``[name, start, end,
parent]``, with ``parent`` the index of the enclosing span or -1.  A layer's
self time is its span's duration minus the time covered by its child spans.

A patch point that the program no longer has is skipped and reported in
``missing``, so a refactor of the program degrades the per-layer figures
instead of breaking the end-to-end benchmark.
"""

import time

# (module, attribute, span name): plain cross-module calls to wrap
_CALLS = [
    ("evolution", "cartesian_gradient_2d", "potential.solve"),
    ("evolution", "_strang_step", "evolution.step"),
    ("evolution", "_make_record", "evolution.record"),
    ("evolution", "duhamel_residual", "evolution.duhamel"),
    ("evolution", "export_trajectory", "evolution.export"),
    ("diagnostics", "diagnostics_csv", "diagnostics.csv"),
    ("diagnostics", "free_energy_2d", "diagnostics.free_energy"),
    ("asymptotics", "_apply_radial", "semigroup.apply_radial"),
    ("asymptotics", "constant_c1_monte_carlo", "asymptotics.c1_mc"),
]
# (stepper class, method, span name)
_METHODS = [
    (cls, method, f"evolution.{span}")
    for cls in ("_RadialStepper", "_CartesianStepper")
    for method, span in (("diffuse", "diffuse"), ("advect", "advect"),
                         ("cfl_limit", "cfl"))
]
KERNEL_BUILD = "semigroup.kernel_build"
KERNEL_HIT = "semigroup.kernel_hit"
W_STAR = "asymptotics.w_star"
MIB = 1024.0**2


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []
        self.kernel_bytes_built = 0  # computed: rows x columns x 8 B per build
        self.kernel_cache_peak = 0  # computed: sum of the cached matrices' bytes
        self.w_star_s_nodes = 0

    def call(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        spans.append(span)
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = time.perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- patch points -------------------------------------------------------

    def install(self, pkslab_modules):
        """Wrap every patch point of the given ``{name: module}`` mapping."""
        mods = pkslab_modules
        for mod, attr, name in _CALLS:
            self._patch(mods[mod], attr, lambda fn, name=name: self.wrap(name, fn))
        for cls_name, method, name in _METHODS:
            cls = getattr(mods["evolution"], cls_name, None)
            if cls is None:
                self.missing.append(f"evolution.{cls_name}")
                continue
            self._patch(cls, method, lambda fn, name=name: self.wrap(name, fn),
                        label=f"evolution.{cls_name}.{method}")
        cache = getattr(mods["semigroup"], "_PROPAGATOR_CACHE", None)
        # evolution imported the builder by name; asymptotics reaches it
        # through semigroup._apply_radial, which looks it up in semigroup
        for mod in ("evolution", "semigroup"):
            self._patch(mods[mod], "_radial_propagator",
                        lambda fn: self._radial_kernel(fn, cache))
        self._patch(mods["evolution"], "line_propagator", self._line_kernel)
        self._patch(mods["asymptotics"], "w_star", self._w_star)

    def _patch(self, owner, attr, make, label=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(label or f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, make(fn))

    def _radial_kernel(self, fn, cache):
        def radial_kernel(nodes, dim, a, shrink):
            # same key as the program's cache: a hit is a key already present
            hit = cache is not None and (
                nodes.tobytes(), dim, float(a), float(shrink)) in cache
            mat = self.call(KERNEL_HIT if hit else KERNEL_BUILD, fn,
                            nodes, dim, a, shrink)
            if not hit:
                self.kernel_bytes_built += 8 * nodes.size**2
                if cache is not None:
                    held = sum(m.nbytes for m in cache.values())
                    self.kernel_cache_peak = max(self.kernel_cache_peak, held)
            return mat

        return radial_kernel

    def _line_kernel(self, fn):
        def line_kernel(x, a, shrink):
            self.kernel_bytes_built += 8 * len(x) ** 2
            return self.call(KERNEL_BUILD, fn, x, a, shrink)

        return line_kernel

    def _w_star(self, fn):
        def w_star(*args, **kwargs):
            out = self.call(W_STAR, fn, *args, **kwargs)
            self.w_star_s_nodes += out.s_nodes
            return out

        return w_star

    # -- reduction ----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(spans, child):
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + end - start, own + end - start - covered)
        return out

    def build_seconds_under(self, ancestor):
        """Kernel-build seconds spent inside spans named ``ancestor``."""
        inside = []
        total = 0.0
        for name, start, end, parent in self.spans:
            flag = name == ancestor or (parent >= 0 and inside[parent])
            inside.append(flag)
            if flag and name == KERNEL_BUILD:
                total += end - start
        return total

    def metrics(self, fft_points_per_solve):
        """The per-layer metrics, as ``{name: value}``."""
        t = self.totals()

        def calls(name):
            return t.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return t.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return t.get(name, (0, 0.0, 0.0))[2]

        builds, hits = calls(KERNEL_BUILD), calls(KERNEL_HIT)
        steps, solves = calls("evolution.step"), calls("potential.solve")
        return {
            "semigroup.kernel_builds": builds,
            "semigroup.kernel_hits": hits,
            "semigroup.kernel_hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
            "semigroup.kernel_build_s": incl(KERNEL_BUILD),
            "semigroup.kernel_bytes_built": self.kernel_bytes_built,
            "semigroup.kernel_cache_peak_mib": self.kernel_cache_peak / MIB,
            "evolution.diffuse_calls": calls("evolution.diffuse"),
            "evolution.diffuse_s": own("evolution.diffuse"),
            "evolution.steps": steps,
            "evolution.cfl_calls": calls("evolution.cfl"),
            "evolution.cfl_s": own("evolution.cfl"),
            "evolution.advect_s": own("evolution.advect"),
            "evolution.records": calls("evolution.record"),
            "evolution.record_s": own("evolution.record"),
            "evolution.duhamel_s": own("evolution.duhamel"),
            "evolution.export_s": incl("evolution.export"),
            "potential.solves": solves,
            "potential.solves_per_step": solves / steps if steps else 0.0,
            "potential.solve_s": incl("potential.solve"),
            "potential.fft_points_per_solve": fft_points_per_solve,
            "diagnostics.csv_s": own("diagnostics.csv"),
            "diagnostics.free_energy_s": incl("diagnostics.free_energy"),
            "asymptotics.w_star_s": incl(W_STAR) - self.build_seconds_under(W_STAR),
            "asymptotics.w_star_s_nodes": self.w_star_s_nodes,
            "asymptotics.c1_mc_s": incl("asymptotics.c1_mc"),
            "cli.checks_s": sum(v[1] for k, v in t.items() if k.startswith("cli.check:")),
        }


def wrap_checks(tracer, checks):
    """Time each named check of ``cli.CHECKS`` ({name: (fn, needs_trajectory)})."""
    for name, (fn, needs) in list(checks.items()):
        checks[name] = (tracer.wrap(f"cli.check:{name}", fn), needs)


def fft_points(potential):
    """Points of the padded FFT grid of the free-space solve (computed).

    The largest array cached by ``potential`` for the Green's function has
    one value per point of the padded grid; 0 when no Cartesian solve ran.
    """
    cache = getattr(potential, "_KERNEL_CACHE", {})
    return max((getattr(a, "size", 0) for entry in cache.values()
                for a in (entry if isinstance(entry, tuple) else (entry,))), default=0)
