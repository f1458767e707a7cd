"""Heat kernel, similarity semigroup, first-order expansion, kernel Taylor."""

import math

import numpy as np
import pytest
from scipy.sparse import csr_array, issparse
from scipy.special import erf, gamma, ive

from pkslab import evolution as ev, fields, semigroup as sg
from pkslab.errors import InvalidParameter, OutOfValidatedRange
from pkslab.fields import (
    RadialField,
    from_similarity,
    l1_distance,
    lp_norm,
    moments,
    to_similarity,
    total_mass,
)
from pkslab.grids import radial_grid, radial_measure_weights, trapezoid_weights
from pkslab.semigroup import gaussian_values

from conftest import gaussian_radial, kernel_row, same_bits


def test_heat_semigroup_property(default_nodes):
    mass = 4.0 * math.pi
    for dim in (2, 3, 5):
        u0 = gaussian_radial(dim, mass, default_nodes, t0=1.0)
        out = sg.heat_evolve(u0, 2.5)
        exact = gaussian_radial(dim, mass, default_nodes, t0=3.5)
        assert l1_distance(out, exact) < 1e-8
        assert abs(total_mass(out) - mass) < 1e-10 * mass


@pytest.mark.parametrize("a1, a2", [(1e-3, 2e-3), (0.05, 0.1)])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_banded_heat_semigroup_law(dim, a1, a2):
    """S(a2) S(a1) f = S(a1 + a2) f for the banded kernels, to 1e-9 relative
    in L1 (3.3e-11 in dim 2, 4.5e-15 in dims 3-5).  The law holds only as
    far as the grid resolves the kernels: on radial_grid(256, 20.0,
    "uniform") it holds to about 1e-4 in dims 3-5 with a1 = 1e-3, where
    sqrt(a1) is below the node spacing, and in dim 2 at both widths, where
    the r dr trapezoid is second order at the origin.  That is
    discretisation, not a defect of the band."""
    nodes = radial_grid(512, 20.0)
    f = gaussian_radial(dim, 1.0, nodes, t0=0.5)
    assert isinstance(sg._radial_propagator(nodes, dim, a1, 1.0), csr_array)
    assert isinstance(sg._radial_propagator(nodes, dim, a2, 1.0), csr_array)
    two = sg.heat_evolve(sg.heat_evolve(f, a1), a2)
    one = sg.heat_evolve(f, a1 + a2)
    assert l1_distance(two, one) <= 1e-9 * lp_norm(one, 1)


def test_dim2_origin_quadrature_is_second_order():
    # the trapezoid weights integrate s g(s^2) ds, whose slope at s = 0 is
    # g(0) != 0: the h^2 Euler-Maclaurin end term survives in dimension 2,
    # while in dimension 3 the integrand s^2 g(s^2) is even and the error is
    # rounding.  Quartering h divides the dimension-2 error by about 16.
    def heat_error(dim, num):
        nodes = radial_grid(num, 20.0, "uniform")
        u = sg.heat_evolve(gaussian_radial(dim, 1.0, nodes, t0=0.5), 0.05)
        exact = gaussian_radial(dim, 1.0, nodes, t0=0.55)
        return l1_distance(u, exact) / lp_norm(exact, 1)

    coarse, fine = heat_error(2, 256), heat_error(2, 1024)
    assert 12.0 <= coarse / fine <= 20.0
    assert heat_error(3, 256) <= 1e-14


def test_heat_sup_bound(default_nodes):
    mass = 2.0
    u0 = gaussian_radial(3, mass, default_nodes, t0=0.5)
    for t in (0.5, 2.0, 10.0):
        out = sg.heat_evolve(u0, t)
        bound = mass * (4.0 * math.pi * t) ** -1.5
        assert lp_norm(out, math.inf) <= bound * (1.0 + 1e-9)


def test_heat_preserves_center_of_mass():
    u0 = fields.gaussian_cartesian(2.0, center=(1.0, -0.5), t0=0.8)
    out = sg.heat_evolve(u0, 1.7)
    before = moments(u0).center
    after = moments(out).center
    np.testing.assert_allclose(after, before, atol=1e-10)


def test_heat_rejects_nonpositive_time(default_nodes):
    u0 = gaussian_radial(2, 1.0, default_nodes)
    with pytest.raises(InvalidParameter):
        sg.heat_evolve(u0, 0.0)


def test_similarity_semigroup_fixes_gaussian(default_nodes):
    mass = 4.0 * math.pi
    for dim in (2, 3):
        g = RadialField(dim=dim, nodes=default_nodes,
                        values=mass * gaussian_values(dim, default_nodes))
        for tau in (0.5, 1.0, 5.0):
            out = sg.similarity_semigroup(g, tau)
            assert l1_distance(out, g) < 1e-8


def test_similarity_semigroup_long_time_limit(default_nodes):
    # S_n(tau) f -> (int f) G_n; compact data, tau = 20
    nodes = default_nodes
    bump = np.exp(-((nodes - 2.0) ** 2) / 0.5)
    f = RadialField(dim=3, nodes=nodes, values=bump)
    mass = total_mass(f)
    out = sg.similarity_semigroup(f, 20.0)
    target = RadialField(dim=3, nodes=nodes,
                         values=mass * gaussian_values(3, nodes))
    assert l1_distance(out, target) < 1e-6


def test_similarity_semigroup_mass(default_nodes):
    f = gaussian_radial(4, 1.7, default_nodes, t0=0.6)
    out = sg.similarity_semigroup(f, 1.3)
    assert abs(total_mass(out) - 1.7) < 1e-12


def test_similarity_heat_conjugation(default_nodes):
    # S_n(tau) f == to_similarity(heat flow of the tau=0 physical image)
    f = gaussian_radial(3, 2.0, default_nodes, t0=0.7)
    tau = 1.2
    direct = sg.similarity_semigroup(f, tau)
    # physical image at t = 1, heat to t = e^tau, back to similarity variables
    from pkslab.fields import SimilarityState

    u_init, _ = from_similarity(SimilarityState(field=f, tau=0.0))
    evolved = sg.heat_evolve(u_init, math.exp(tau) - 1.0)
    back = to_similarity(evolved, math.exp(tau)).field
    assert l1_distance(direct, back) < 1e-7


def test_first_order_expansion_structure_radial(default_nodes):
    f = gaussian_radial(3, 2.0, default_nodes)
    out = sg.first_order_heat_expansion(f, 3.0)
    target = 2.0 * gaussian_values(3, default_nodes)
    np.testing.assert_allclose(out.values, target, atol=1e-12)


def test_first_order_expansion_rate_cartesian():
    from pkslab.asymptotics import fit_exponential_rate

    mass, shift = 3.0, 1.2
    u0 = fields.gaussian_cartesian(mass, center=(shift, 0.0), t0=1.0)
    assert moments(u0).center[0] == pytest.approx(mass * shift, rel=1e-9)
    taus = np.linspace(2.0, 8.0, 13)
    errs = []
    for tau in taus:
        out = sg.similarity_semigroup(u0, tau)
        ref = sg.first_order_heat_expansion(u0, tau)
        errs.append(lp_norm(out.with_values(out.values - ref.values,
                                            nonnegative=False), 1))
    rate = fit_exponential_rate(taus, np.array(errs))
    assert rate >= 0.95


def test_first_order_expansion_zero_mass_dipole():
    # difference of shifted bumps: M = 0, B0 finite, expansion = dipole only
    plus = fields.gaussian_cartesian(1.0, center=(0.5, 0.0), t0=0.25)
    minus = fields.gaussian_cartesian(1.0, center=(-0.5, 0.0), t0=0.25)
    f = plus.with_values(plus.values - minus.values, nonnegative=False)
    mom = moments(f)
    assert abs(mom.mass) < 1e-12
    assert mom.center[0] == pytest.approx(1.0, rel=1e-9)
    tau = 2.0
    out = sg.first_order_heat_expansion(f, tau)
    xx, yy = f.meshgrid()
    g = gaussian_values(2, np.hypot(xx, yy))
    expected = math.exp(-tau / 2.0) * 0.5 * mom.center[0] * xx * g
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_separable_line_kernel_matches_radial(default_nodes):
    # the 1D factor kernel drives the Cartesian path; cross-check it against
    # the radial code on a pure Gaussian
    x = np.linspace(-24.0, 24.0, 768)
    g1 = (4.0 * math.pi) ** -0.5 * np.exp(-(x**2) / 4.0)
    k = sg.line_propagator(x, a=1 - math.exp(-1.3), shrink=math.exp(-0.65))
    out = k @ g1
    np.testing.assert_allclose(out, g1, atol=1e-12)


def _line_propagator_by_formula(x, a, shrink):
    """The line kernel as written out before it went through radial_kernel
    and the shared column normaliser."""
    w = trapezoid_weights(x)
    kern = (4.0 * math.pi * a) ** -0.5 * np.exp(
        -((x[:, None] - shrink * x[None, :]) ** 2) / (4.0 * a)
    )
    col = kern.T @ w
    col = np.where(col <= 0.0, 1.0, col)
    return kern * (w[None, :] / col[None, :])


@pytest.mark.parametrize("shrink", [1.0, math.exp(-0.35)], ids=["heat", "similarity"])
def test_line_propagator_is_bit_identical_to_its_formula(shrink):
    uniform = np.linspace(-20.0, 20.0, 256)
    graded = np.sign(uniform) * 20.0 * (np.abs(uniform) / 20.0) ** 1.5
    for x in (uniform, graded):
        for a in (1e-3, 0.3, 1.0 - math.exp(-0.7), 4.0):
            assert np.array_equal(sg.line_propagator(x, a, shrink),
                                  _line_propagator_by_formula(x, a, shrink))


def _gaussian_values_by_formula(dim, r):
    return (4.0 * math.pi) ** (-dim / 2.0) * np.exp(-(r**2) / 4.0)


def _gaussian_enclosed_mass_by_formula(dim, r):
    half = r / 2.0
    if dim == 2:
        return -np.expm1(-(half**2))
    if dim == 3:
        return erf(half) - r * np.exp(-(half**2)) / math.sqrt(math.pi)
    if dim == 4:
        return -np.expm1(-(half**2)) - half**2 * np.exp(-(half**2))
    return erf(half) - (r + r**3 / 6.0) * np.exp(-(half**2)) / math.sqrt(math.pi)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_gaussian_helpers_are_bit_identical_to_their_formulas(dim):
    # the helpers run their formulas' passes in place; each value keeps its bits
    rng = np.random.default_rng(dim)
    grids = [radial_grid(512, 40.0), rng.uniform(0.0, 14.0, 3000),
             np.geomspace(1e-300, 1e3, 400), np.array([0.0, 1e-8, 7.0, 60.0])]
    grids.append(grids[1].reshape(60, 50))  # stacked radii
    for r in grids:
        assert same_bits(sg.gaussian_values(dim, r), _gaussian_values_by_formula(dim, r))
        assert same_bits(sg.gaussian_enclosed_mass(dim, r),
                         _gaussian_enclosed_mass_by_formula(dim, r))
    for x in (0.0, 0.3, 7.0, np.float64(2.5), np.asarray(1.25)):  # 0-d input
        r = np.asarray(x, dtype=float)
        for got, want in ((sg.gaussian_values(dim, x), _gaussian_values_by_formula(dim, r)),
                          (sg.gaussian_enclosed_mass(dim, x),
                           _gaussian_enclosed_mass_by_formula(dim, r))):
            assert type(got) is type(want) is np.float64
            assert same_bits(got, want)
    with pytest.raises(InvalidParameter):
        sg.gaussian_enclosed_mass(6, 1.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_radial_kernel_is_bit_identical_to_its_formula(dim):
    # the Gaussian factor the line kernel shares, and the Bessel argument
    r = radial_grid(256, 20.0)[:, None]
    s = math.exp(-0.35) * r.T
    for a in (1e-3, 0.3, 4.0):
        gauss, z = sg.radial_kernel(dim, a, r, s)
        assert np.array_equal(gauss, (4.0 * math.pi * a) ** (-dim / 2.0)
                              * np.exp(-((r - s) ** 2) / (4.0 * a)))
        assert np.array_equal(gauss, sg.gaussian_factor(dim, a, r, s))
        assert np.array_equal(z, r * s / (2.0 * a))


# ---------------------------------------------------------------------------
# banded radial kernel against a plain dense evaluation
# ---------------------------------------------------------------------------

def _dense_kernel(dim, a, r, s):
    """Every entry of the radial kernel between radii r and s, no band."""
    z = r * s / (2.0 * a)
    return ((4.0 * math.pi * a) ** (-dim / 2.0) * np.exp(-((r - s) ** 2) / (4.0 * a))
            * sg.scaled_sphere_average(dim, z))


def _dense_product(nodes, dim, a, shrink, u, chunk=256):
    """P u for the dense, column-renormalised propagator, a block of columns
    at a time so the 4096-node oracle stays small."""
    w = radial_measure_weights(nodes, dim)
    out = np.zeros_like(nodes)
    for j in range(0, nodes.size, chunk):
        cols = slice(j, j + chunk)
        kern = _dense_kernel(dim, a, nodes[:, None], shrink * nodes[None, cols])
        mass = w @ kern
        assert np.all(mass > 0.0)
        out += kern @ (w[cols] * u[cols] / mass)
    return out


NARROW, MID, WIDE = (1e-4, 1.0), (0.2, 1.0), (-math.expm1(-20.0), math.exp(-10.0))

# every dimension meets every kernel and every grid meets every kernel; the
# 4096-node oracles stay in dims 2-4, where the Bessel factor is cheap.  Only
# WIDE on graded grids fills more than half the matrix (62%): the dense layout.
BAND_CASES = [
    (5, "graded", 512, NARROW, "csr"), (2, "graded", 512, MID, "csr"),
    (4, "graded", 512, WIDE, "dense"), (4, "uniform", 512, NARROW, "csr"),
    (3, "uniform", 512, MID, "csr"), (5, "uniform", 512, WIDE, "csr"),
    (3, "graded", 1536, NARROW, "csr"), (4, "graded", 1536, MID, "csr"),
    (2, "graded", 1536, WIDE, "dense"), (2, "uniform", 1536, NARROW, "csr"),
    (5, "uniform", 1536, MID, "csr"), (3, "uniform", 1536, WIDE, "csr"),
    (2, "graded", 4096, NARROW, "csr"), (3, "graded", 4096, MID, "csr"),
    (4, "graded", 4096, WIDE, "dense"), (3, "uniform", 4096, NARROW, "csr"),
    (4, "uniform", 4096, MID, "csr"), (2, "uniform", 4096, WIDE, "csr"),
]


@pytest.mark.parametrize("dim, kind, num, kernel, layout", BAND_CASES)
def test_banded_propagator_matches_dense(dim, kind, num, kernel, layout):
    a, shrink = kernel
    nodes = radial_grid(num, 40.0, kind)
    mat = sg._radial_propagator(nodes, dim, a, shrink)
    assert issparse(mat) == (layout == "csr")
    u = np.exp(-(nodes**2) / 8.0) + 0.1 * np.exp(-((nodes - 20.0) ** 2) / 4.0)
    out = mat @ u
    oracle = _dense_product(nodes, dim, a, shrink, u)
    assert np.abs(out - oracle).max() <= 1e-14 * np.abs(oracle).max()
    w = radial_measure_weights(nodes, dim)
    np.testing.assert_allclose(mat.T @ w, w, rtol=1e-13, atol=0.0)


def _full_band_propagator(nodes, dim, a, shrink):
    """``(data, indices, indptr)`` of the CSR propagator as built before the
    half-band evaluation: every entry of the band evaluated."""
    size = nodes.size
    s = shrink * nodes
    lo, hi = sg._band_edges(s, nodes, a)
    counts = hi - lo
    nnz = int(counts.sum())
    w = radial_measure_weights(nodes, dim)
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    rows = np.repeat(np.arange(size), counts)
    cols = np.arange(nnz) - np.repeat(indptr[:-1] - lo, counts)
    gauss, z = sg.radial_kernel(dim, a, nodes[rows], s[cols])
    kern = gauss * sg.scaled_sphere_average(dim, z)
    col = np.bincount(cols, weights=w[rows] * kern, minlength=size)
    col = np.where(col <= 0.0, 1.0, col)
    data = kern * (w / col)[cols]
    return data, cols, indptr


def _assert_same_csr(mat, oracle):
    assert issparse(mat)
    for got, want in zip((mat.data, mat.indices, mat.indptr), oracle):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shrink", [1.0, math.exp(-0.05)])
@pytest.mark.parametrize("kind", ["graded", "uniform"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_half_band_propagator_is_bit_identical(dim, kind, shrink):
    nodes = radial_grid(512, 40.0, kind)
    for a in (1e-4, 0.02, 0.2):
        _assert_same_csr(sg._radial_propagator(nodes, dim, a, shrink),
                         _full_band_propagator(nodes, dim, a, shrink))


def test_half_band_propagator_evaluates_entries_without_a_mirror(monkeypatch):
    # trim one row's band: the entry past its new end loses its place, so the
    # entry of the other row that mirrors it has to be evaluated directly
    nodes = radial_grid(512, 40.0)
    band_edges = sg._band_edges
    trimmed = 300

    def trimmed_band_edges(points, centers, a):
        lo, hi = band_edges(points, centers, a)
        hi[trimmed] -= 1
        return lo, hi

    monkeypatch.setattr(sg, "_band_edges", trimmed_band_edges)
    lo, hi = sg._band_edges(nodes, nodes, 0.05)
    orphan = hi[trimmed]  # row orphan keeps column trimmed, row trimmed lost orphan
    assert orphan > trimmed and lo[orphan] <= trimmed
    _assert_same_csr(sg._radial_propagator(nodes, 2, 0.05, 1.0),
                     _full_band_propagator(nodes, 2, 0.05, 1.0))


def test_half_band_propagator_keeps_entries_whose_mirror_left_the_band(monkeypatch):
    # raise one row's band start: the entry before its new start loses its
    # place, and the entry of the other row that mirrors it stays, read from
    # the upper band with no lower counterpart
    nodes = radial_grid(512, 40.0)
    band_edges = sg._band_edges
    raised = 300

    def raised_band_edges(points, centers, a):
        lo, hi = band_edges(points, centers, a)
        lo[raised] += 1
        return lo, hi

    monkeypatch.setattr(sg, "_band_edges", raised_band_edges)
    lo, hi = sg._band_edges(nodes, nodes, 0.05)
    orphan = lo[raised] - 1  # row orphan keeps column raised, row raised lost orphan
    assert orphan < raised < hi[orphan] and np.all(np.diff(lo) >= 0)
    _assert_same_csr(sg._radial_propagator(nodes, 2, 0.05, 1.0),
                     _full_band_propagator(nodes, 2, 0.05, 1.0))


@pytest.mark.parametrize("rmax, widths", [(80.0, (0.0088, 0.02, 0.0374)),
                                          (20.0, (2e-5, 1e-3, 3.3e-3))])
def test_half_band_propagator_at_the_benchmark_grids(rmax, widths):
    # the 512-node grids and the range of half steps of the two radial
    # benchmark runs
    nodes = radial_grid(512, rmax)
    for a in widths:
        _assert_same_csr(sg._radial_propagator(nodes, 2, a, 1.0),
                         _full_band_propagator(nodes, 2, a, 1.0))


@pytest.mark.parametrize("shrink", [1.0, math.exp(-0.05)])
def test_csr_propagator_has_int32_indices(shrink):
    nodes = radial_grid(2048, 160.0)  # the grid of the rate_n3 scenario
    u = np.exp(-(nodes**2) / 8.0) + 0.1 * np.exp(-((nodes - 20.0) ** 2) / 4.0)
    for a in (1e-3, 0.2, 6.9):
        mat = sg._radial_propagator(nodes, 3, a, shrink)
        assert issparse(mat) and mat.indices.dtype == mat.indptr.dtype == np.int32
        wide = csr_array((mat.data, mat.indices.astype(np.int64),
                          mat.indptr.astype(np.int64)), shape=mat.shape)
        assert wide.indices.dtype == np.int64
        assert np.array_equal(mat @ u, wide @ u)


def _counted_builds(monkeypatch):
    """The (a, shrink) of every radial kernel built from now on, in order."""
    built = []

    def counted(build):
        def counted_build(nodes, dim, a, shrink):
            built.append((a, shrink))
            return build(nodes, dim, a, shrink)

        return counted_build

    for module in (ev, sg):
        monkeypatch.setattr(module, "_radial_propagator",
                            counted(module._radial_propagator))
    return built


def test_propagator_cache_keeps_the_most_recently_used_kernels(monkeypatch):
    built = _counted_builds(monkeypatch)
    f = gaussian_radial(2, 1.0, radial_grid(256, 40.0))
    stepper = ev._make_stepper(f, "physical")
    kernels = stepper._kernels
    held = []  # kernels the stepper holds while it builds one more
    build = ev._radial_propagator

    def held_build(*args):
        held.append(len(kernels))
        return build(*args)

    monkeypatch.setattr(ev, "_radial_propagator", held_build)
    kept = ev.KERNELS_KEPT
    assert kept >= 2
    steps = [1e-3 * 5.0**k for k in range(kept + 1)]
    for dt in steps[:kept]:
        stepper.diffuse(f.values, dt)
    assert list(kernels) == steps[:kept] == [a for a, _ in built]
    first = kernels[steps[0]]
    stepper.diffuse(f.values, steps[0])
    assert kernels[steps[0]] is first and len(built) == kept  # a hit moves to the end
    assert list(kernels) == steps[1:kept] + steps[:1]
    stepper.diffuse(f.values, steps[kept])  # evicts steps[1], the least recently used
    assert list(kernels) == steps[2:kept] + [steps[0], steps[kept]]
    assert [a for a, _ in built] == steps
    assert held == list(range(kept)) + [kept - 1]  # the eviction comes before the build
    assert stepper._kernels is kernels  # mutated in place, never rebound


def test_only_the_stepper_caches_its_kernels(monkeypatch):
    # the public applies build single-use kernels; the stepper reuses its own
    built = _counted_builds(monkeypatch)
    f = gaussian_radial(2, 1.0, radial_grid(256, 40.0))
    for _ in range(2):
        sg.heat_evolve(f, 0.3)
        sg.similarity_semigroup(f, 0.4)
    assert built == [(0.3, 1.0), sg.kernel_width_shrink(0.4)] * 2
    stepper = ev._make_stepper(f, "physical")
    for _ in range(2):
        stepper.diffuse(f.values, 0.3)
    assert list(stepper._kernels) == [0.3] and len(built) == 5


def test_cache_eviction_never_changes_a_result(monkeypatch):
    u0 = gaussian_radial(2, 4.0 * math.pi, radial_grid(192, 40.0))
    config = ev.SolverConfig(t_end=2.0)
    built = _counted_builds(monkeypatch)
    kept = ev.evolve(u0, config).records
    assert len(set(built)) > ev.KERNELS_KEPT  # the run evicts
    monkeypatch.setattr(ev, "KERNELS_KEPT", 1)
    evicted = ev.evolve(u0, config).records
    assert len(kept) == len(evicted) > 1
    for a, b in zip(kept, evicted):
        assert np.array_equal(a.field.values, b.field.values)
        assert np.array_equal(a.moments.center, b.moments.center)
        assert ((a.time, a.moments.mass, a.moments.second_moment, a.sup_norm,
                 a.free_energy, a.l1_dist_to_profile)
                == (b.time, b.moments.mass, b.moments.second_moment, b.sup_norm,
                    b.free_energy, b.l1_dist_to_profile))


@pytest.mark.parametrize("a", [1e-3, 0.5, 7.0])
def test_banded_duhamel_row_matches_full_row(a):
    # the mild-solution correction row of duhamel_residual, on its band
    # against every node
    nodes = radial_grid(1536, 80.0)
    r = nodes[int(0.35 * nodes.size)]
    w = radial_measure_weights(nodes, 2)
    u = gaussian_values(2, nodes / 2.0)
    vprime = -np.cumsum(w * u) / np.where(nodes > 0, 2.0 * math.pi * nodes, 1.0)
    density = w * u * vprime

    def row(band, gauss, z):
        return gauss * (nodes[band] * sg.scaled_sphere_average(2, z)
                        - r * sg.scaled_sphere_average_cos(2, z))

    band, gauss, z = kernel_row(nodes, 2, r, a)
    assert band.stop - band.start < nodes.size
    banded = float(np.sum(density[band] * row(band, gauss, z)))
    full = row(slice(None), *sg.radial_kernel(2, a, r, nodes)) * density
    assert abs(banded - full.sum()) <= 1e-14 * np.abs(full).sum()


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_sphere_averages_at_zero_are_exact(dim):
    # duhamel_residual skips both averages at r = 0, where every z is 0
    assert sg.scaled_sphere_average(dim, 0.0) == 1.0
    assert sg.scaled_sphere_average_cos(dim, 0.0) == 0.0
    z = np.zeros(5)
    assert np.array_equal(sg.scaled_sphere_average(dim, z), np.ones(5))
    assert np.array_equal(sg.scaled_sphere_average_cos(dim, z), np.zeros(5))


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_kernel_rows_equal_kernel_row(dim):
    nodes = radial_grid(512, 80.0)
    widths = np.array([1e-6, 1e-3, 0.37, 2.0, 7.0, 50.0])
    for r in (0.0, nodes[77], nodes[300]):
        cols, bounds, band_nodes, gauss, z = sg.kernel_rows(nodes, dim, r, widths)
        assert np.array_equal(band_nodes, nodes[cols])
        for k, a in enumerate(widths):
            band, g_row, z_row = kernel_row(nodes, dim, r, a)
            entries = slice(bounds[k], bounds[k + 1])
            assert np.array_equal(cols[entries], np.arange(nodes.size)[band])
            assert np.array_equal(gauss[entries], g_row)
            assert np.array_equal(z[entries], z_row)
        peaks = np.array([sg.kernel_peak(dim, a) for a in widths])
        given = sg.kernel_rows(nodes, dim, r, widths, peaks)
        for got, want in zip(given, (cols, bounds, band_nodes, gauss, z)):
            assert np.array_equal(got, want)


def test_sphere_average_cos_fast_path_matches_bessel():
    z = np.geomspace(1e-6, 1e4, 200)
    for dim in (2, 3, 4, 5):
        # Gamma(n/2) (2/z)^{n/2-1} I_{n/2}(z) e^{-z}, through the generic-order
        # Bessel function: i1e in dim 2, (z/n) times the dim n + 2 average above
        nu = dim / 2.0
        bessel = gamma(nu) * (2.0 / z) ** (nu - 1.0) * ive(nu, z)
        np.testing.assert_allclose(sg.scaled_sphere_average_cos(dim, z), bessel,
                                   rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(sg.scaled_sphere_average_cos(2, 1e-13), ive(1.0, 1e-13),
                               rtol=1e-14, atol=0.0)
    for dim in (3, 4, 5):
        # below z = 1e-12 the plain average is 1, so this is its leading term
        assert sg.scaled_sphere_average_cos(dim, 1e-13) == 1e-13 / dim


# ---------------------------------------------------------------------------
# kernel Taylor expansion
# ---------------------------------------------------------------------------

def _derive_t2_coefficients():
    """Series-expand the kernel symbolically and return the r^2 coefficient.

    The kernel (1-r^2)^{-n/2} exp(-|xi - r z|^2 / (4(1-r^2))) is expanded at
    r = 0; the r^2 coefficient divided by exp(-|xi|^2/4) is a polynomial in
    (n, |xi|^2, xi.z, |z|^2).  Deriving it mechanically guards against
    sign/factor slips.
    """
    import sympy as sp

    r, n, q1, q2, q3 = sp.symbols("r n q1 q2 q3", real=True)
    # q1 = |xi|^2, q2 = xi.z, q3 = |z|^2
    expo = -(q1 - 2 * r * q2 + r**2 * q3) / (4 * (1 - r**2))
    kernel = (1 - r**2) ** (-n / 2) * sp.exp(expo)
    series = sp.series(kernel / sp.exp(-q1 / 4), r, 0, 3).removeO()
    poly = sp.Poly(sp.expand(series), r)
    c2 = sp.expand(poly.coeff_monomial(r**2))
    # order-0 and order-1 coefficients, as a consistency guard
    assert sp.simplify(poly.coeff_monomial(1) - 1) == 0
    assert sp.simplify(poly.coeff_monomial(r) - q2 / 2) == 0
    return {
        "n": float(c2.coeff(n).subs({q1: 0, q2: 0, q3: 0})),
        "xi_sq": float(c2.coeff(q1).subs({n: 0, q2: 0, q3: 0})),
        "dot": float(c2.coeff(q2, 2)),
        "z_sq": float(c2.coeff(q3).subs({n: 0, q1: 0, q2: 0})),
    }


def test_derived_t2_coefficients_frozen():
    # independent hand derivation: n/2 - (|xi|^2 + |z|^2)/4 + (xi.z)^2/8
    coeffs = _derive_t2_coefficients()
    assert coeffs == {"n": 0.5, "xi_sq": -0.25, "dot": 0.125, "z_sq": -0.25}
    # the frozen polynomial, read one monomial at a time
    frozen = {name: sg.t2_coefficient(*unit) for name, unit in (
        ("n", (1, 0.0, 0.0, 0.0)), ("xi_sq", (0, 1.0, 0.0, 0.0)),
        ("dot", (0, 0.0, 1.0, 0.0)), ("z_sq", (0, 0.0, 0.0, 1.0)))}
    assert frozen == coeffs


def test_kernel_taylor_at_origin():
    t0, t1, t2, rem = sg.kernel_taylor_terms(np.zeros(3), np.zeros(3), 2.0)
    assert t0 == 1.0
    assert t1 == 0.0
    assert t2 == pytest.approx(1.5 * math.exp(-2.0), rel=1e-12)


def test_kernel_taylor_orthogonal_first_order():
    _, t1, _, _ = sg.kernel_taylor_terms(np.array([1.0, 0.0, 0.0]),
                                         np.array([0.0, 0.0, 0.0]), 2.0)
    assert t1 == 0.0


def test_kernel_taylor_t2_finite_difference_oracle():
    # at xi = z = 0 the kernel is (1 - r^2)^{-n/2}; difference out T0 and fit
    # the r^2 coefficient by finite differences in r = e^{-s/2}
    for dim in (2, 3, 4):
        rs = np.array([0.04, 0.02, 0.01])
        vals = np.array(
            [sg.kernel_lhs(np.zeros(dim), np.zeros(dim), -2.0 * math.log(r))
             for r in rs]
        )
        est = (vals - 1.0) / rs**2
        # Richardson: the estimate converges to the coefficient n/2
        assert est[-1] == pytest.approx(dim / 2.0, rel=1e-3)
        assert sg.t2_coefficient(dim, 0.0, 0.0, 0.0) == pytest.approx(dim / 2.0)


def test_kernel_remainder_decay_at_origin():
    from pkslab.asymptotics import fit_exponential_rate

    ss = np.linspace(2.0, 12.0, 11)
    rems, doubled = [], []
    for s in ss:
        _, _, t2, rem = sg.kernel_taylor_terms(np.zeros(3), np.zeros(3), s)
        rems.append(abs(rem))
        doubled.append(abs(rem - t2))  # remainder if T2 were doubled
    assert fit_exponential_rate(ss, np.array(rems)) > 1.9
    assert fit_exponential_rate(ss, np.array(doubled)) < 1.1


def test_kernel_remainder_exponent_sweep():
    from pkslab.asymptotics import fit_exponential_rate

    rng = np.random.default_rng(1)
    ss = np.linspace(2.0, 10.0, 17)
    rates = []
    for _ in range(50):
        n = int(rng.integers(2, 6))
        xi = rng.normal(size=n)
        xi *= rng.uniform(0, 1) / max(np.linalg.norm(xi), 1e-12)
        z = rng.normal(size=n)
        z *= rng.uniform(0, 1) / max(np.linalg.norm(z), 1e-12)
        rems = np.array(
            [abs(sg.kernel_taylor_terms(xi, z, s)[3]) for s in ss]
        )
        rates.append(fit_exponential_rate(ss, np.maximum(rems, 1e-300)))
    assert float(np.median(rates)) >= 1.4


def test_kernel_taylor_range_guard():
    with pytest.raises(OutOfValidatedRange):
        sg.kernel_taylor_terms(np.zeros(2), np.zeros(2), 0.5)


def test_kernel_taylor_refuses_vectors_of_different_lengths():
    with pytest.raises(InvalidParameter):
        sg.kernel_taylor_terms(np.zeros(3), np.zeros(2), 2.0)
