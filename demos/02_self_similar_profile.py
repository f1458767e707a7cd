"""The 2D self-similar profile and its basin of attraction.

Below the 8 pi threshold every solution forgets its initial shape and
approaches (1/t) G_M(x/sqrt t).  Here we solve the stationary profile G_M by
fixed-point iteration for several masses, confirm it is a genuine steady state
of the similarity-variable flow, and watch a Gaussian of the same mass relax
onto it.  Writes profile snapshots and a relaxation table.
"""

import math

from pkslab import SolverConfig, evolve_similarity, fields, profiles
from pkslab.grids import radial_grid

grid = radial_grid(1536, 30.0)
print("mass      iterations   residual      peak value")
for mult in (0.5, 1.0, 4.0, 6.0):
    mass = mult * math.pi
    res = profiles.self_similar_profile_2d(mass, grid=grid)
    print(f"{mult:3.1f} pi    {res.iterations:6d}      {res.residual:.3e}   "
          f"{res.field.values[0]:.6f}")
    fields.write_snapshot(res.field, f"profile_M_{mult:g}pi.csv", t=1.0)

mass = 4.0 * math.pi
gm = profiles.self_similar_profile_2d(mass, grid=grid).field
g0 = profiles.gaussian_profile(2, mass, grid)
cfg = SolverConfig(t_init=0.0, t_end=6.0)
traj = evolve_similarity(g0, cfg, reference_field=gm)

print("\nrelaxation of the mass-4pi Gaussian onto G_M:")
print("tau      |U - G_M|_1 / M")
for rec, err in list(zip(traj.records, traj.l1_errors()))[::16]:
    print(f"{rec.time:5.2f}    {err / mass:.5f}")
