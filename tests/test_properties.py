"""Property-based invariants on randomly generated fields."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from pkslab.fields import (
    RadialField,
    from_similarity,
    lp_norm,
    moments,
    to_similarity,
    total_mass,
)
from pkslab.grids import radial_grid

NODES = radial_grid(512, 30.0)


@st.composite
def radial_bump_fields(draw, dims=(2, 3, 4, 5), nodes=NODES):
    # supports stay inside r ~ 11 so the t = 0.1 similarity window (radius
    # sqrt(t) * r_max ~ 9.5) still carries all but ~1e-9 of the mass
    dim = draw(st.sampled_from(dims))
    n_bumps = draw(st.integers(1, 3))
    values = np.zeros_like(nodes)
    for _ in range(n_bumps):
        center = draw(st.floats(0.0, 5.0))
        width = draw(st.floats(0.3, 1.0))
        amp = draw(st.floats(0.01, 5.0))
        values += amp * np.exp(-((nodes - center) ** 2) / width**2)
    return RadialField(dim=dim, nodes=nodes, values=values)


@given(radial_bump_fields(), st.sampled_from([1.5, 2.0, 3.0, 7.0]))
@settings(max_examples=25, deadline=None)
def test_holder_interpolation_bound(field, p):
    # |f|_p <= |f|_1^{1/p} |f|_inf^{1-1/p} for nonnegative f
    norm_p = lp_norm(field, p)
    bound = lp_norm(field, 1) ** (1.0 / p) * lp_norm(field, math.inf) ** (1.0 - 1.0 / p)
    assert norm_p <= bound * (1.0 + 1e-12)


@given(radial_bump_fields())
@settings(max_examples=25, deadline=None)
def test_cauchy_schwarz_moments(field):
    mom = moments(field)
    if mom.mass > 0:
        assert mom.second_moment * mom.mass >= float(mom.center @ mom.center) - 1e-12


@given(radial_bump_fields(), st.sampled_from([0.1, 1.0, 10.0]))
@settings(max_examples=25, deadline=None)
def test_similarity_mass_invariance(field, t):
    mass = total_mass(field)
    state = to_similarity(field, t)
    assert abs(total_mass(state.field) - mass) <= 1e-6 * max(mass, 1e-30)
    back, _ = from_similarity(state)
    assert abs(total_mass(back) - mass) <= 2e-6 * max(mass, 1e-30)


@given(radial_bump_fields())
@settings(max_examples=15, deadline=None)
def test_gradient_attractive_and_bounded(field):
    from pkslab.grids import SPHERE_AREA
    from pkslab.potential import radial_gradient

    g = radial_gradient(field)
    assert np.all(-g >= 0.0)  # attractive everywhere
    mass = total_mass(field)
    flux = -g * SPHERE_AREA[field.dim] * NODES ** (field.dim - 1)
    assert flux.max() <= mass * (1.0 + 1e-12)


@given(radial_bump_fields())
@settings(max_examples=15, deadline=None)
def test_heat_evolve_contracts_sup_and_keeps_mass(field):
    from pkslab.semigroup import heat_evolve

    out = heat_evolve(field, 0.5)
    assert abs(total_mass(out) - total_mass(field)) <= 1e-9 * max(total_mass(field), 1e-30)
    assert lp_norm(out, math.inf) <= lp_norm(field, math.inf) * (1.0 + 1e-12)


@given(field=radial_bump_fields())
@settings(max_examples=10, deadline=None)
def test_snapshot_round_trip_random(field):
    import tempfile
    from pathlib import Path

    from pkslab.fields import read_snapshot, write_snapshot

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write_snapshot(field, path, t=1.0)
        loaded, _ = read_snapshot(path)
    assert loaded.dim == field.dim
    np.testing.assert_allclose(loaded.values, field.values, rtol=1e-15)


GRIDS = {kind: radial_grid(256, 30.0, kind) for kind in ("graded", "uniform")}


@st.composite
def radial_stepper_cases(draw):
    """A random bump field, the radial stepper of one run kind (and so one
    advection scheme) on one grid kind, and a step inside its CFL bound."""
    from pkslab import evolution as ev

    nodes = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
    field = draw(radial_bump_fields(nodes=nodes))
    kind = draw(st.sampled_from(["physical", "similarity"]))  # muscl, central
    stepper = ev._RadialStepper(nodes, field.dim, kind)
    weight = 1.0 if kind == "physical" else ev.nonlinearity_weight(field.dim, 0.5)
    dt = draw(st.floats(0.05, 1.0)) * min(0.1, stepper.cfl_limit(field.values) / weight)
    return stepper, field.values, dt, weight


@given(radial_stepper_cases())
@settings(max_examples=40, deadline=None)
def test_radial_strang_step_nonnegative_reproducible_and_conservative(case):
    from pkslab import evolution as ev

    stepper, values, dt, weight = case
    config = ev.SolverConfig()
    out = ev._strang_step(stepper, values, dt, weight, config, values.max())
    assert out.min() >= 0.0
    again = ev._strang_step(stepper, values.copy(), dt, weight, config, values.max())
    assert out.tobytes() == again.tobytes()
    # node 0 carries zero trapezoid weight and node 1's trapezoid cell
    # reaches the origin, so the flux through the first face moves no
    # measured mass: sum(weights * rhs) is 0 to rounding
    rhs = stepper.advection_rhs(values, weight)
    terms = stepper.weights * rhs
    assert abs(np.sum(terms)) <= 1e-12 * np.sum(np.abs(terms)) + 1e-300
