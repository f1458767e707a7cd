"""Expansion machinery: W_star, c1/c2, term assembly, rate fitting."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pkslab import asymptotics as asy
from pkslab.errors import (
    DependencyMissing,
    InvalidData,
    InvalidParameter,
    UseProfileModule,
)
from pkslab.grids import (
    radial_derivatives,
    radial_grid,
    radial_interpolator,
    radial_measure_weights,
)
from pkslab.potential import radial_gradient
from pkslab.semigroup import (
    div_gaussian_gradient_values,
    gaussian_potential_gradient,
    gaussian_values,
)


# ---------------------------------------------------------------------------
# fit_rate
# ---------------------------------------------------------------------------

def test_fit_rate_exact_power_law():
    t = np.geomspace(1.0, 100.0, 12)
    slope, _, r2 = asy.fit_rate(t, t**-1.0)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_rate_constant():
    t = np.geomspace(1.0, 100.0, 12)
    slope, _, _ = asy.fit_rate(t, np.full_like(t, 3.7))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_validation():
    with pytest.raises(InvalidData):
        asy.fit_rate([1.0, 2.0], [1.0, 2.0])
    t = np.geomspace(1.0, 10.0, 10)
    with pytest.raises(InvalidData):
        asy.fit_rate(t, -np.ones_like(t))


def test_fit_rate_pure_heat_dipole():
    # heat flow of dipole data: |u - M Gamma_t|_1 decays like t^{-1/2}
    from pkslab import fields, semigroup as sg
    from pkslab.fields import lp_norm

    mass, shift = 2.0, 0.8
    u0 = fields.gaussian_cartesian(mass, center=(shift, 0.0), t0=1.0)
    # keep sqrt(4 t) well inside the box so the reference kernel stays valid
    times = np.geomspace(2.0, 16.0, 9)
    errs = []
    for t in times:
        out = sg.heat_evolve(u0, t - 1.0)
        xx, yy = u0.meshgrid()
        gamma = mass / (4 * math.pi * t) * np.exp(-(xx**2 + yy**2) / (4 * t))
        errs.append(lp_norm(out.with_values(out.values - gamma,
                                            nonnegative=False), 1))
    slope, _, _ = asy.fit_rate(times, np.array(errs))
    assert slope == pytest.approx(-0.5, abs=0.05)


# ---------------------------------------------------------------------------
# W_star
# ---------------------------------------------------------------------------

def test_wstar_null_mass(wstar_default):
    assert abs(wstar_default.mass_defect()) <= 1e-6


def test_wstar_integrand_decay(wstar_quadrature):
    assert wstar_quadrature.integrand_slope >= 0.45
    assert wstar_quadrature.tail_estimate <= 1e-9


def test_wstar_direct_solve_matches_quadrature(wstar_default, wstar_quadrature):
    assert wstar_default.s_nodes == 0 and wstar_default.integrand_slope is None
    direct, quad = wstar_default.field.values, wstar_quadrature.field.values
    assert np.abs(direct - quad).max() <= 1e-5 * np.abs(quad).max()
    for k in (0, 2, 4):
        assert wstar_default.moment(k) == pytest.approx(wstar_quadrature.moment(k), rel=2e-5)
    assert asy.constant_c1(1.0, wstar_default) == pytest.approx(
        asy.constant_c1(1.0, wstar_quadrature), rel=2e-5)
    assert abs(wstar_default.mass_defect()) <= 1e-14


def test_wstar_rejects_grid_without_origin():
    with pytest.raises(InvalidParameter):
        asy.w_star(grid=radial_grid(768, 28.0)[1:])


def test_wstar_moments_finite_and_stable(wstar_default):
    base = [wstar_default.moment(k) for k in (0, 2, 4)]
    assert all(math.isfinite(m) and m > 0 for m in base)
    refined = asy.w_star(grid=radial_grid(1536, 28.0))
    for k, b in zip((0, 2, 4), base):
        assert refined.moment(k) == pytest.approx(b, rel=0.01)


def test_wstar_dual_quadrature_center(wstar_quadrature):
    # Gauss-Legendre s-quadrature as the second, independent order
    from numpy.polynomial.legendre import leggauss
    from pkslab.semigroup import _apply_radial
    from pkslab.fields import RadialField

    nodes = wstar_quadrature.field.nodes
    src = div_gaussian_gradient_values(3, nodes)
    gauss = gaussian_values(3, nodes)
    w_meas = radial_measure_weights(nodes, 3)
    src = src - gauss * (float(np.sum(w_meas * src)) / float(np.sum(w_meas * gauss)))
    source = RadialField(dim=3, nodes=nodes, values=src, nonnegative=False)
    xg, wg = leggauss(160)
    x_hi = math.log1p(wstar_quadrature.s_max)
    xs = 0.5 * (xg + 1.0) * x_hi
    ws = 0.5 * x_hi * wg
    total = np.zeros_like(nodes)
    for x, wt in zip(xs, ws):
        s = math.expm1(x)
        if s <= 0:
            continue
        evolved = _apply_radial(source, a=-math.expm1(-s), shrink=math.exp(-s / 2.0))
        total += wt * (1.0 + s) * math.exp(s / 2.0) * evolved.values
    assert total[0] == pytest.approx(wstar_quadrature.field.values[0], rel=5e-3)


def test_w_function_self_similarity(wstar_default):
    xi = np.linspace(0.0, 8.0, 33)
    w1 = asy.w_function(wstar_default, 1.0, nodes=xi).values
    w4 = 16.0 * asy.w_function(wstar_default, 4.0, nodes=2.0 * xi).values
    np.testing.assert_allclose(w4, w1, atol=1e-10 * np.abs(w1).max())


def test_w_function_at_unit_time(wstar_default):
    out = asy.w_function(wstar_default, 1.0)
    np.testing.assert_allclose(out.values, wstar_default.field.values, atol=1e-12)


def test_w_pde_residual(wstar_default):
    assert asy.w_pde_residual(wstar_default) <= 1e-3


# ---------------------------------------------------------------------------
# the constants
# ---------------------------------------------------------------------------

def test_c2_display_vs_oracle_vs_closed_form():
    display = asy.constant_c2(1.0)
    oracle = asy.constant_c2_oracle(1.0)
    closed = asy.C2_UNIT_CLOSED_FORM
    assert closed == pytest.approx(1.0 / (256.0 * math.pi**4), rel=0)
    assert abs(display - oracle) <= 1e-3 * closed
    assert display == pytest.approx(closed, rel=1e-10)


def test_c2_homogeneity_and_zero():
    assert asy.constant_c2(0.0) == 0.0
    assert asy.constant_c2(2.0) / asy.constant_c2(1.0) == pytest.approx(4.0,
                                                                        abs=1e-10)


def test_c1_requires_wstar():
    with pytest.raises(DependencyMissing):
        asy.constant_c1(1.0, None)


def test_c1_zero_mass(wstar_default):
    assert asy.constant_c1(0.0, wstar_default) == 0.0


def test_c1_cubic_homogeneity(wstar_default):
    one = asy.constant_c1(1.0, wstar_default)
    two = asy.constant_c1(2.0, wstar_default)
    assert two / one == pytest.approx(8.0, abs=1e-8)


def test_c1_independent_of_dipole(wstar_default):
    # the dipole block of the integrand is odd under z -> -z: the quadrature
    # takes no B0, and the oracle, which samples the full integrand, does not
    # see it
    a = asy.constant_c1_monte_carlo(1.0, [0.0, 0.0, 0.0], wstar_default,
                                    samples=200_000, seed=1)
    b = asy.constant_c1_monte_carlo(1.0, [1.0, 0.0, 0.0], wstar_default,
                                    samples=200_000, seed=1)
    assert a == pytest.approx(b, rel=1e-12)


def test_c1_monte_carlo_oracle(wstar_default):
    quad = asy.constant_c1(1.0, wstar_default)
    mc = asy.constant_c1_monte_carlo(
        1.0, [1.0, 0.0, 0.0], wstar_default, samples=2_000_000, seed=1
    )
    assert abs(mc - quad) / abs(quad) <= 5e-3


# The Monte Carlo as it was before a shell's +c and -c integrands shared
# their terms in owned buffers: each integrand is evaluated on its own, every
# pass allocating.  The oracle must equal it.
def _c1_monte_carlo_reference(mass, b0, wstar, samples, seed):
    rng = np.random.default_rng(seed)
    bnorm = float(np.linalg.norm(np.atleast_1d(np.asarray(b0, dtype=float))))
    nodes = wstar.field.nodes
    wprime, _ = radial_derivatives(nodes, wstar.field.values)
    profiles = radial_interpolator(nodes, np.column_stack(
        [wstar.field.values, wprime, radial_gradient(wstar.field, order=4)]))
    strata = 200
    per = max(1, samples // (2 * strata))
    edges = np.linspace(0.0, 14.0, strata + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        r = rng.uniform(lo, hi, per)
        c = rng.uniform(-1.0, 1.0, per)
        g = gaussian_values(3, r)
        gp = -0.5 * r * g
        gpp = (-0.5 + r**2 / 4.0) * g
        v3p = gaussian_potential_gradient(3, r)
        v3pp = -g - np.where(r > 0, 2.0 * v3p / r, 0.0)
        wv, wpv, vwp = profiles(r).T

        def integrand(cosang):
            f = (
                gp * (v3pp * cosang * bnorm + mass**2 * vwp)
                + v3p * (gpp * cosang * bnorm + mass**2 * wpv)
                - 2.0 * g * (bnorm * gp * cosang + mass**2 * wv)
            )
            return r**2 * f

        mean_f = 0.5 * (integrand(c) + integrand(-c))
        shell = 4.0 * math.pi * r**2
        total += (hi - lo) * float(np.mean(shell * mean_f))
    return (4.0 * math.pi) ** -1.5 * mass * total


@pytest.mark.parametrize("mass", [0.0, 1.0, 2.5])
def test_c1_monte_carlo_equals_its_reference(wstar_default, mass):
    for b0 in ([0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, -0.2, 0.1]):
        for samples in (400, 2_801, 400_000):
            for seed in (1, 7):
                got = asy.constant_c1_monte_carlo(mass, b0, wstar_default,
                                                  samples=samples, seed=seed)
                want = _c1_monte_carlo_reference(mass, b0, wstar_default, samples, seed)
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_c1_monte_carlo_at_benchmark_size_equals_its_reference_in_less_memory(wstar_default):
    # 3e6 samples, as the constants_n3 benchmark draws; tracemalloc's count
    # of numpy's allocations is deterministic
    values, peaks = [], []
    for fn in (asy.constant_c1_monte_carlo, _c1_monte_carlo_reference):
        tracemalloc.start()
        try:
            values.append(fn(1.0, [1.0, 0.0, 0.0], wstar_default, 3_000_000, 1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert values[0] == values[1]
    assert peaks[0] <= peaks[1]


def test_c1_monte_carlo_refuses_too_few_samples(wstar_default):
    # a shell draws samples // 400 pairs: fewer than 400 samples draw none
    with pytest.raises(InvalidParameter, match="at least 400 samples, got 399"):
        asy.constant_c1_monte_carlo(1.0, [1.0, 0.0, 0.0], wstar_default, samples=399)


# ---------------------------------------------------------------------------
# expansion assembly
# ---------------------------------------------------------------------------

def test_expansion_two_d_redirects():
    with pytest.raises(UseProfileModule):
        asy.expansion(2, math.pi, [0.0, 0.0], 0)


def test_expansion_order_validation():
    with pytest.raises(InvalidParameter):
        asy.expansion(3, 1.0, [0.0, 0.0, 0.0], 2)


def test_expansion_order_zero_single_term():
    for dim in (3, 4, 5):
        terms = asy.expansion(dim, 2.0, np.zeros(dim), 0)
        assert [t.name for t in terms] == ["heat_gaussian"]
        assert terms[0].coefficient == 2.0
        assert terms[0].t_exponent == Fraction(-dim, 2)
        assert not terms[0].log_factor


def test_expansion_n5_order_one(wstar_default):
    terms = asy.expansion(5, 1.0, [0.3, 0.0, 0.0, 0.0, 0.0], 1)
    assert [t.name for t in terms] == ["heat_gaussian", "dipole"]
    dip = terms[1]
    assert dip.t_exponent == Fraction(-3, 1)
    assert dip.coefficient == pytest.approx(-0.3)


def test_expansion_n4_terms():
    terms = asy.expansion(4, 1.0, np.zeros(4), 1)
    assert [t.name for t in terms] == ["heat_gaussian", "log_correction"]
    log_term = terms[-1]
    assert log_term.log_factor
    assert log_term.t_exponent == Fraction(-3, 1)
    assert log_term.coefficient == pytest.approx(asy.constant_c2(1.0))


def test_expansion_n3_terms(wstar_default):
    terms = asy.expansion(3, 1.5, [0.2, 0.0, 0.0], 1, wstar=wstar_default)
    names = [t.name for t in terms]
    assert names[0] == "heat_gaussian"
    assert set(names) == {"heat_gaussian", "dipole", "w_correction",
                          "log_correction"}
    w_term = terms[names.index("w_correction")]
    assert w_term.coefficient == pytest.approx(-(1.5**2))
    assert w_term.t_exponent == Fraction(-2, 1)
    log_term = terms[names.index("log_correction")]
    assert log_term.t_exponent == Fraction(-5, 2)
    assert log_term.log_factor


def test_expansion_n3_zero_mass():
    assert asy.expansion(3, 0.0, np.zeros(3), 1, wstar=None) == []


def test_expansion_n3_needs_wstar():
    with pytest.raises(DependencyMissing):
        asy.expansion(3, 1.0, np.zeros(3), 1, wstar=None)


def test_expansion_evaluation_matches_heat_kernel(wstar_default):
    # order-0 assembly at arbitrary points and times is exactly M Gamma_t
    mass, t = 2.0, 3.0
    terms = asy.expansion(4, mass, np.zeros(4), 0)
    pts = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, -0.3]])
    got = asy.evaluate_expansion(terms, pts, t)
    r2 = (pts**2).sum(axis=1)
    expected = mass * (4 * math.pi * t) ** -2.0 * np.exp(-r2 / (4 * t))
    np.testing.assert_allclose(got, expected, rtol=1e-7)


def test_expansion_log_terms_vanish_at_t1(wstar_default):
    terms = asy.expansion(3, 1.0, np.zeros(3), 1, wstar=wstar_default)
    log_term = [t for t in terms if t.log_factor][0]
    pts = np.array([[1.0, 0.0, 0.0]])
    assert log_term.evaluate(pts, 1.0)[0] == 0.0


# ---------------------------------------------------------------------------
# null structures
# ---------------------------------------------------------------------------

def test_null_structures_all_dims():
    for dim in (2, 3, 4, 5):
        checks = asy.null_structure_checks(dim)
        assert abs(checks["div_mass_integral"]) <= 1e-8
        assert abs(checks["pair_null_mismatch"]) <= 1e-8


def test_null_structure_first_moment_cartesian():
    # honest 2D quadrature of int x_j div(G grad V) dx via the FFT solver
    from pkslab import fields, potential

    g = fields.gaussian_cartesian(1.0, extent=20.0, size=256, t0=1.0)
    grad = potential.cartesian_gradient_2d(g)
    xx, yy = g.meshgrid()
    # int x div(F) = -int F_x by parts; F = u grad V
    fx = g.values * grad[0]
    assert abs(float(fx.sum() * g.cell_area())) <= 1e-8
