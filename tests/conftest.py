"""Shared fixtures.

The expensive simulation objects (reference subcritical run, the dense-window
run behind the Phi scans, the W_star profile and its s-quadrature oracle) are
session-scoped so the whole suite pays for each of them once.
"""

import math

import numpy as np
import pytest

from pkslab import asymptotics, evolution, fields, grids, profiles
from pkslab import semigroup as sg
from pkslab.fields import gaussian_radial
from pkslab.grids import radial_grid


def same_bits(a, b):  # also tells +0.0 from -0.0
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def kernel_row(nodes, dim, r, a):
    """The reference row: the radial kernel of width a at radius r on the
    slice of ``nodes`` within its band, as ``(band, gauss, z)``."""
    lo, hi = sg._band_edges(nodes, r, a)
    band = slice(int(lo), int(hi))
    gauss, z = sg.radial_kernel(dim, a, r, nodes[band])
    return band, gauss, z


def reference_radial_interpolator(nodes, values, order=3):
    """``grids.radial_interpolator`` as it was before a cubic read evaluated
    only the knot intervals its radii span: every read goes through the whole
    spline, and NaN outputs are zeroed afterwards.  Kept as the oracle the
    windowed read must match bit for bit."""
    from scipy.interpolate import CubicSpline, make_interp_spline

    nodes = np.asarray(nodes, dtype=float)
    xs, ys = grids._even_extension(nodes, values)
    if order == 3:
        spline = CubicSpline(xs, ys, extrapolate=False)
    else:
        spline = make_interp_spline(xs, ys, k=order)
    r_max = nodes[-1]

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        out = spline(np.clip(r, 0.0, r_max))
        out[r > r_max] = 0.0
        return np.nan_to_num(out, nan=0.0)

    return evaluate


@pytest.fixture(scope="session")
def default_nodes():
    return radial_grid()


@pytest.fixture(scope="session")
def wstar_default():
    return asymptotics.w_star()


@pytest.fixture(scope="session")
def wstar_quadrature():
    return asymptotics.w_star_quadrature()


@pytest.fixture(scope="session")
def reference_run_2d():
    """Subcritical M = 4 pi radial run with records dense enough for the
    mild-solution quadrature (>= 64 records)."""
    nodes = radial_grid(1536, 80.0)
    u0 = gaussian_radial(2, 4.0 * math.pi, nodes)
    cfg = evolution.SolverConfig(t_init=1.0, t_end=8.0, records_per_decade=80)
    return evolution.evolve(u0, cfg)


@pytest.fixture(scope="session")
def pure_heat_run_2d():
    nodes = radial_grid(1536, 80.0)
    u0 = gaussian_radial(2, 4.0 * math.pi, nodes)
    cfg = evolution.SolverConfig(
        t_init=1.0, t_end=8.0, nonlinearity=False, records_per_decade=80
    )
    return evolution.evolve(u0, cfg)


@pytest.fixture(scope="session")
def phi_run_2d():
    """Dense uniform record window around s1 = 2 for interpolation-free
    Phi scans."""
    nodes = radial_grid(1536, 40.0)
    u0 = gaussian_radial(2, 4.0 * math.pi, nodes, t0=0.99)
    times = tuple(np.round(np.arange(0.99, 2.0001, 0.0025), 6))
    cfg = evolution.SolverConfig(t_init=0.99, t_end=2.0, record_times=times)
    return evolution.evolve(u0, cfg)


@pytest.fixture(scope="session")
def gm_4pi():
    grid = radial_grid(1536, 30.0)
    return profiles.self_similar_profile_2d(4.0 * math.pi, grid=grid)


@pytest.fixture(scope="session")
def gaussian_2d_4pi():
    return fields.gaussian_cartesian(4.0 * math.pi, extent=20.0, size=256, t0=1.0)
