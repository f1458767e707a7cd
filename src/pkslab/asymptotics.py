"""Higher-order large-time expansion machinery: the self-similar correction
profile W_star, the log-term constants c1 and c2, expansion assembly, and
log-log rate fitting.

W_star is the s-integral of e^{s/2} S_3(s) applied to the source profile
div(G_3 grad V_3); its self-similar evaluation W(x,t) = t^{-2} W_star(x/sqrt(t))
is the second-order correction in three dimensions.  It is computed by one
radial boundary-value solve, and by the s-quadrature as its oracle.  The
constants are quadratures of |z|^2 against divergence-form sources; each one
is computed two independent ways (display quadrature vs. a reduced 1D form or
Monte Carlo).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DependencyMissing,
    InvalidData,
    InvalidParameter,
    QuadratureDiverging,
    UseProfileModule,
)
from .fields import RadialField
from .grids import (
    nested_refinement,
    radial_derivatives,
    radial_grid,
    radial_interpolator,
    radial_laplacian,
    radial_measure_weights,
    trapezoid_weights,
)
from .potential import radial_gradient
from .semigroup import (
    _apply_radial,
    div_gaussian_gradient_values,
    gaussian_enclosed_mass,
    gaussian_potential_gradient,
    gaussian_values,
    kernel_width_shrink,
)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def fit_rate(times, errors):
    """Least-squares fit of log(err) against log(t); returns (slope, intercept, r2)."""
    times = np.asarray(times, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if times.size < 8:
        raise InvalidData("need at least 8 samples for a rate fit")
    if np.any(times <= 0.0) or np.any(errors <= 0.0):
        raise InvalidData("rate fits need strictly positive times and errors")
    x = np.log(times)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def fit_exponential_rate(taus, errors):
    """Slope of -log(err) against tau (decay exponent of C e^{-k tau})."""
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if taus.size < 2 or np.any(errors <= 0.0):
        raise InvalidData("exponential rate fits need positive errors")
    slope, _ = np.polyfit(taus, np.log(errors), 1)
    return float(-slope)


# ---------------------------------------------------------------------------
# W_star
# ---------------------------------------------------------------------------

# W_star's default output grid, and the fine cells per output cell of its
# boundary-value solve: 16 put the second-order discretisation error near
# 1e-6 of max|W_star| (one cell per cell is off by 2e-3 in the 4th moment)
W_STAR_GRID = (768, 28.0)
W_STAR_REFINEMENT = 16


@dataclass(frozen=True)
class WStarField:
    """The 3D correction profile.  ``s_nodes`` counts the s-quadrature nodes
    (0 for the direct solve); the other quadrature metadata is set only by
    :func:`w_star_quadrature`."""

    field: RadialField
    s_nodes: int = 0
    s_max: float | None = None
    tail_estimate: float | None = None
    integrand_slope: float | None = None

    def interpolator(self):
        return radial_interpolator(self.field.nodes, self.field.values)

    def mass_defect(self):
        """int W_star dxi, which inherits the source's null condition."""
        w = radial_measure_weights(self.field.nodes, 3)
        return float(np.sum(w * self.field.values))

    def moment(self, k):
        """int |W_star| |xi|^k dxi."""
        w = radial_measure_weights(self.field.nodes, 3)
        return float(np.sum(w * np.abs(self.field.values) * self.field.nodes**k))


def _without_mass(nodes, values):
    """``values`` minus the multiple of G_3 that carries their quadrature mass."""
    w_meas = radial_measure_weights(nodes, 3)
    gauss = gaussian_values(3, nodes)
    return values - gauss * (float(np.sum(w_meas * values)) / float(np.sum(w_meas * gauss)))


def w_star(grid=None):
    """W_star = int_0^inf e^{s/2} S_3(s) f ds, f = div(G_3 grad V_3), by one
    boundary-value solve.

    f has zero mass and the radial spectrum of L_3 = Lap + xi.grad/2 + 3/2 is
    {0, -1, -2, ...}, so the integral is -(L_3 + 1/2)^{-1} f: the decaying
    solution of W'' + (2/r + r/2) W' + 2 W = -f with W'(0) = 0.  It is
    discretised by 3-point finite differences on the W_STAR_REFINEMENT-fold
    nested refinement of the grid (origin row 3 W''(0) + 2 W(0), W(r_max) = 0),
    solved as one tridiagonal system and read back on the grid nodes.  The
    source on the fine grid and the result on the grid each have their
    quadrature mass projected out along G_3.  :func:`w_star_quadrature`
    evaluates the s-integral itself and is the oracle of this solve.
    """
    from scipy.linalg import solve_banded

    nodes = radial_grid(*W_STAR_GRID) if grid is None else np.asarray(grid, dtype=float)
    if nodes[0] != 0.0:
        raise InvalidParameter("the W_star solve needs a grid that starts at r = 0")
    r = nested_refinement(nodes, W_STAR_REFINEMENT)
    h = np.diff(r)
    hm, hp, ri = h[:-1], h[1:], r[1:-1]
    drift = 2.0 / ri + 0.5 * ri  # the coefficient of W'
    den = hm * hp * (hm + hp)
    bands = np.zeros((3, r.size))  # rows: upper, main and lower diagonal
    bands[0, 2:] = (2.0 * hm + drift * hm**2) / den
    bands[1, 1:-1] = 2.0 + (drift * (hp**2 - hm**2) - 2.0 * (hm + hp)) / den
    bands[2, :-2] = (2.0 * hp - drift * hp**2) / den
    # origin: Lap W = 3 W'', with the even ghost value W(-h) = W(h)
    bands[0, 1] = 6.0 / h[0] ** 2
    bands[1, 0] = 2.0 - 6.0 / h[0] ** 2
    bands[1, -1] = 1.0
    rhs = -_without_mass(r, div_gaussian_gradient_values(3, r))
    rhs[-1] = 0.0
    fine = solve_banded((1, 1), bands, rhs)
    values = _without_mass(nodes, fine[::W_STAR_REFINEMENT])
    return WStarField(field=RadialField(dim=3, nodes=nodes, values=values, nonnegative=False))


def w_star_quadrature():
    """Quadrature of int_0^inf e^{s/2} S_3(s)[div(G_3 grad V_3)] ds, the
    oracle of :func:`w_star`.

    Nodes are log-spaced in 1+s (dense near s=0 where the kernel width moves
    fastest, spacing <= 0.6 at the tail) with composite Simpson weights up to
    s = 60 at most; the integration stops once s > 20 and the integrand's L1
    norm drops below 1e-10.  That norm must decay at a fitted rate >= 0.45
    (target 1/2) or the quadrature is rejected as diverging.
    """
    from scipy.integrate import simpson

    nodes = radial_grid(*W_STAR_GRID)
    s_max, s_step, tol = 60.0, 0.6, 1e-10
    w_meas = radial_measure_weights(nodes, 3)
    # enforce the null condition int source = 0 at quadrature level exactly:
    # the e^{s/2} weight would otherwise amplify the ~1e-13 quadrature mass
    # defect into a spurious tail mode
    src = _without_mass(nodes, div_gaussian_gradient_values(3, nodes))
    source = RadialField(dim=3, nodes=nodes, values=src, nonnegative=False)
    x_hi = math.log1p(s_max)
    count = max(65, int(math.ceil(x_hi / (s_step / (1.0 + s_max)))) + 1)
    xs_all = np.linspace(0.0, x_hi, count)
    ss_all = np.expm1(xs_all)
    slices = []
    l1_list = []
    for s in ss_all:
        if s == 0.0:
            integrand = source.values
        else:
            a, shrink = kernel_width_shrink(s)
            evolved = _apply_radial(source, a=a, shrink=shrink)
            integrand = math.exp(s / 2.0) * evolved.values
        slices.append(integrand)
        l1_list.append(float(np.sum(w_meas * np.abs(integrand))))
        if s > 20.0 and l1_list[-1] <= tol:
            break
    kept = len(slices)
    xs, ss = xs_all[:kept], ss_all[:kept]
    slices = np.asarray(slices)
    l1_arr = np.asarray(l1_list)
    fit_mask = (ss >= 4.0) & (ss <= 14.0)
    decay = fit_exponential_rate(ss[fit_mask], l1_arr[fit_mask])
    if decay < 0.45:
        raise QuadratureDiverging(
            f"integrand L1 decay rate {decay:.3f} below the 0.45 acceptance floor"
        )
    # ds = (1 + s) dx
    total = simpson(y=slices * (1.0 + ss)[:, None], x=xs, axis=0)
    tail = 2.0 * l1_arr[-1]  # e^{-s/2} extrapolation of the dropped tail
    field = RadialField(dim=3, nodes=nodes, values=total, nonnegative=False)
    return WStarField(
        field=field,
        s_max=float(ss[-1]),
        s_nodes=kept,
        tail_estimate=tail,
        integrand_slope=decay,
    )


def w_function(wstar, t, nodes=None):
    """W(x, t) = t^{-2} W_star(x / sqrt(t)) on the requested radial nodes."""
    if t <= 0:
        raise InvalidParameter("t must be positive")
    if nodes is None:
        nodes = wstar.field.nodes
    values = t**-2.0 * wstar.interpolator()(np.asarray(nodes) / math.sqrt(t))
    return RadialField(dim=3, nodes=np.asarray(nodes, dtype=float), values=values,
                       nonnegative=False)


def w_pde_residual(wstar):
    """L1 residual of d_t W - Lap W - div(Gamma_t grad E_3 * Gamma_t) at t = 1.

    Time derivative by central differences (step 1e-3) of the self-similar
    evaluation, Laplacian by spline differentiation, source in closed form
    (at t = 1 it is div(G_3 grad V_3) itself).
    """
    dt = 1e-3
    nodes = wstar.field.nodes
    w_mid = w_function(wstar, 1.0, nodes)
    w_lo = w_function(wstar, 1.0 - dt, nodes)
    w_hi = w_function(wstar, 1.0 + dt, nodes)
    dt_term = (w_hi.values - w_lo.values) / (2.0 * dt)
    lap = radial_laplacian(nodes, w_mid.values, 3)
    source = div_gaussian_gradient_values(3, nodes)
    residual = dt_term - lap - source
    w_meas = radial_measure_weights(nodes, 3)
    return float(np.sum(w_meas * np.abs(residual)))


# ---------------------------------------------------------------------------
# the constants c2 and c1
# ---------------------------------------------------------------------------

C2_UNIT_CLOSED_FORM = 1.0 / (256.0 * math.pi**4)  # verified against both quadratures


def constant_c2(mass):
    """(M / 4 pi)^2 int_{R^4} |z|^2 div(G_4 grad V_4) dz by radial quadrature."""
    if mass < 0:
        raise InvalidParameter("mass must be nonnegative")
    nodes = radial_grid(4096, 40.0)
    w = radial_measure_weights(nodes, 4)
    integral = float(np.sum(w * nodes**2 * div_gaussian_gradient_values(4, nodes)))
    return (mass / (4.0 * math.pi)) ** 2 * integral


def constant_c2_oracle(mass):
    """Reduced 1D form 2 int G_4(r) m_4(r) r dr (integration by parts in the display)."""
    nodes = radial_grid(4096, 40.0)
    w = trapezoid_weights(nodes)
    g = gaussian_values(4, nodes)
    m4 = gaussian_enclosed_mass(4, nodes)
    integral = 2.0 * float(np.sum(w * g * m4 * nodes))
    return (mass / (4.0 * math.pi)) ** 2 * integral


def constant_c1(mass, wstar):
    """The 3D log-term constant, by radial quadrature.

    c1 = (4 pi)^{-3/2} M int |z|^2 div(G_3 grad V^(1) + G^(1) grad V_3) dz
    with G^(1) = B0 . grad G_3 + M^2 W_star.  The dipole block integrates to
    zero exactly (the integrand is odd under z -> -z), so c1 does not depend
    on B0 and only the radial W_star block contributes; it is reduced by
    parts to -2 int (G_3 V_W' + W_star V_3') r dz.
    """
    if wstar is None:
        raise DependencyMissing("constant_c1 needs a precomputed W_star profile")
    if mass < 0:
        raise InvalidParameter("mass must be nonnegative")
    nodes = wstar.field.nodes
    w = radial_measure_weights(nodes, 3)
    g3 = gaussian_values(3, nodes)
    v3p = gaussian_potential_gradient(3, nodes)
    vwp = radial_gradient(wstar.field, order=4)  # V_W', by the Gauss law
    radial_integral = -2.0 * float(
        np.sum(w * (g3 * vwp + wstar.field.values * v3p) * nodes)
    ) * mass**2
    return (4.0 * math.pi) ** -1.5 * mass * radial_integral


def constant_c1_monte_carlo(mass, b0, wstar, samples=10_000_000, seed=1):
    """Monte Carlo oracle for c1: sampling of the full 3D integrand (dipole
    terms included; they cancel in expectation), stratified in radius over
    200 equal shells of [0, 14].

    Samples are drawn antithetically in the polar cosine against B0, which
    removes the variance of the mean-zero dipole blocks without biasing the
    estimator.  Each shell draws samples // 400 pairs, so 400 * (samples //
    400) samples are drawn in all; ``samples < 400`` is refused with
    :class:`InvalidParameter`.

    The +c and -c integrands of a pair are evaluated together.  Each dipole
    term, (v3pp c) bnorm, (gpp c) bnorm or (bnorm gp) c, flips its sign
    exactly with c: it is computed once and enters the +c integrand as
    ``dipole + M^2 profile`` and the -c one as ``M^2 profile - dipole``, the
    same bits as ``(-dipole) + M^2 profile``; M^2 profile, 2G and r^2 are
    computed once per shell.  Every pass of a shell writes with ``out=`` into
    five shell-sized arrays allocated once per call, or into the shell's own
    draws and Gaussian values once they are used up; a shell allocates only
    those, V_3' and its spline read, and they die with the shell.
    """
    if wstar is None:
        raise DependencyMissing("the Monte Carlo oracle needs W_star")
    strata = 200
    if samples < 2 * strata:
        raise InvalidParameter(
            f"the Monte Carlo oracle needs at least {2 * strata} samples, got {samples}")
    rng = np.random.default_rng(seed)
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    bnorm = float(np.linalg.norm(b0))
    nodes = wstar.field.nodes
    wprime, _ = radial_derivatives(nodes, wstar.field.values)
    # W*, W*' and V_W' on the same knots: one spline, one interval search
    profiles = radial_interpolator(nodes, np.column_stack(
        [wstar.field.values, wprime, radial_gradient(wstar.field, order=4)]))
    m2 = mass**2
    per = samples // (2 * strata)  # antithetic pairs
    buffers = [np.empty(per) for _ in range(5)]

    def shell_mean(lo, hi, gp, gpp, v3pp, fp, fm):
        # one shell's mean of the |z|^2-weighted pair integrand times the
        # measure factor; the arrays it allocates die when it returns
        r = rng.uniform(lo, hi, per)
        # uniform directions: only the polar cosine against B0 matters
        c = rng.uniform(-1.0, 1.0, per)
        g = gaussian_values(3, r)
        v3p = gaussian_potential_gradient(3, r)
        wv, wpv, vwp = profiles(r).T
        np.multiply(-0.5, r, out=gp)
        gp *= g
        # V_3'' = -g - where(r > 0, 2 V_3'/r, 0): 2 V_3' is +0.0 where r = 0
        np.multiply(2.0, v3p, out=fp)
        np.divide(fp, r, out=fp, where=r > 0)
        np.negative(g, out=v3pp)
        v3pp -= fp
        r2 = np.square(r, out=r)
        np.divide(r2, 4.0, out=gpp)
        gpp += -0.5
        gpp *= g
        g2 = np.multiply(2.0, g, out=g)

        # grad G . grad V1 + grad G1 . grad V - 2 G G1, radial + dipole, is
        # (T1 + T2) - T3: fp takes the +c integrand and fm the -c one
        v3pp *= c  # T1 = gp (dipole + M^2 vwp), dipole = (v3pp c) bnorm
        v3pp *= bnorm
        np.multiply(m2, vwp, out=fm)
        np.add(v3pp, fm, out=fp)
        fp *= gp
        np.subtract(fm, v3pp, out=fm)
        fm *= gp
        gpp *= c  # T2's dipole (gpp c) bnorm
        gpp *= bnorm
        gp *= bnorm  # T3's dipole (bnorm gp) c
        gp *= c
        q, term = c, v3pp  # the cosines and T1's dipole are used up
        np.multiply(m2, wpv, out=q)  # T2 = v3p (dipole + M^2 wpv)
        np.add(gpp, q, out=term)
        term *= v3p
        fp += term
        np.subtract(q, gpp, out=term)
        term *= v3p
        fm += term
        np.multiply(m2, wv, out=q)  # T3 = 2g (dipole + M^2 wv)
        np.add(gp, q, out=term)
        term *= g2
        fp -= term
        np.subtract(q, gp, out=term)
        term *= g2
        fm -= term

        fp *= r2  # the |z|^2 weight
        fm *= r2
        mean_f = np.add(fp, fm, out=fp)
        mean_f *= 0.5
        mean_f *= np.multiply(4.0 * math.pi, r2, out=r2)  # measure factor
        return float(np.mean(mean_f))

    edges = np.linspace(0.0, 14.0, strata + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += (hi - lo) * shell_mean(lo, hi, *buffers)
    return (4.0 * math.pi) ** -1.5 * mass * total


# ---------------------------------------------------------------------------
# expansion assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionTerm:
    """One named term of the large-time expansion.

    The term's value at (x, t) is
        coefficient * t**t_exponent * (log t if log_factor else 1)
        * angular(x) * radial_profile(|x|/sqrt(t))
    where angular is 1 for radial terms and (bhat . xhat) for dipole terms.
    """

    name: str
    coefficient: float
    t_exponent: Fraction
    log_factor: bool
    radial_profile: RadialField
    angular: str = "radial"
    axis: tuple = ()

    def evaluate(self, points, t):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(points, axis=1)
        xi = r / math.sqrt(t)
        prof = radial_interpolator(self.radial_profile.nodes, self.radial_profile.values)(xi)
        out = self.coefficient * float(t) ** float(self.t_exponent) * prof
        if self.log_factor:
            out = out * math.log(t)
        if self.angular == "dipole":
            axis = np.asarray(self.axis, dtype=float)
            with np.errstate(invalid="ignore"):
                cosang = np.where(r > 0, points @ axis / np.where(r > 0, r, 1.0), 0.0)
            out = out * cosang
        return out


def evaluate_expansion(terms, points, t):
    """Sum of all terms at Cartesian points and time t."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    total = np.zeros(points.shape[0])
    for term in terms:
        total = total + term.evaluate(points, t)
    return total


def expansion(dim, mass, b0, order, wstar=None):
    """Term list of the large-time approximation of u in dimension n >= 3.

    order 0: M Gamma_t alone.  order 1 adds the dipole -B0 . grad Gamma_t and
    the dimension-specific corrections: n = 3 gets -M^2 W and the c1 log term,
    n = 4 gets the +c2 log term, n >= 5 gets nothing further.  Terms with zero
    coefficient are dropped; the list is ordered by magnitude at t = 1.
    """
    if dim == 2:
        raise UseProfileModule(
            "the 2D long-time asymptote is the self-similar profile G_M"
        )
    if dim not in (3, 4, 5):
        raise InvalidParameter("expansion supports n in {3, 4, 5}")
    if order not in (0, 1):
        raise InvalidParameter("order must be 0 or 1")
    nodes = radial_grid(2048, 30.0)
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    bnorm = float(np.linalg.norm(b0))
    terms = []

    def radial(name, coeff, texp, log_factor, values):
        return ExpansionTerm(
            name=name,
            coefficient=coeff,
            t_exponent=texp,
            log_factor=log_factor,
            radial_profile=RadialField(dim=dim, nodes=nodes, values=values,
                                       nonnegative=False),
            angular="radial",
        )

    if mass > 0:
        terms.append(
            radial("heat_gaussian", mass, Fraction(-dim, 2), False,
                   gaussian_values(dim, nodes))
        )
    if order == 0:
        return terms
    if bnorm > 0:
        # -B0 . grad Gamma_t = -|B0| t^{-(n+1)/2} (bhat.xhat) G_n'(xi)
        gp = -0.5 * nodes * gaussian_values(dim, nodes)
        terms.append(
            ExpansionTerm(
                name="dipole",
                coefficient=-bnorm,
                t_exponent=Fraction(-(dim + 1), 2),
                log_factor=False,
                radial_profile=RadialField(dim=dim, nodes=nodes, values=gp,
                                           nonnegative=False),
                angular="dipole",
                axis=tuple(b0 / bnorm),
            )
        )
    if dim == 3 and mass > 0:
        if wstar is None:
            raise DependencyMissing("the n = 3 expansion needs W_star")
        wvals = wstar.interpolator()(nodes)
        terms.append(radial("w_correction", -(mass**2), Fraction(-2, 1), False, wvals))
        c1 = constant_c1(mass, wstar)
        shape = (0.5 - nodes**2 / 12.0) * np.exp(-(nodes**2) / 4.0)
        terms.append(radial("log_correction", -c1, Fraction(-5, 2), True, shape))
    if dim == 4 and mass > 0:
        c2 = constant_c2(mass)
        shape = (0.5 - nodes**2 / 16.0) * np.exp(-(nodes**2) / 4.0)
        terms.append(radial("log_correction", c2, Fraction(-3, 1), True, shape))
    terms = [t for t in terms if t.coefficient != 0.0]

    def magnitude_at_one(term):
        peak = float(np.abs(term.radial_profile.values).max())
        return 0.0 if term.log_factor else abs(term.coefficient) * peak

    terms.sort(key=magnitude_at_one, reverse=True)
    return terms


# ---------------------------------------------------------------------------
# null structures
# ---------------------------------------------------------------------------

def null_structure_checks(dim):
    """Quadrature values of the null conditions behind the expansions.

    Returns a dict with the mass integral of div(G_n grad V_n) (zero by the
    divergence theorem), its first-moment reduction int z_j div(...) expressed
    through the radial identity int grad G . grad V dx = int G^2 dx, and the
    pair null condition mismatch for the Gaussian/dipole pair.
    """
    nodes = radial_grid(4096, 40.0)
    w = radial_measure_weights(nodes, dim)
    div_vals = div_gaussian_gradient_values(dim, nodes)
    mass_integral = float(np.sum(w * div_vals))
    g = gaussian_values(dim, nodes)
    gp = -0.5 * nodes * g
    vp = gaussian_potential_gradient(dim, nodes)
    grad_pair = float(np.sum(w * gp * vp))
    g_sq = float(np.sum(w * g * g))
    return {
        "div_mass_integral": mass_integral,
        "first_moment_reduction": (grad_pair - g_sq) / dim,
        "pair_null_mismatch": grad_pair - g_sq,
    }
