"""The exact 2D second-moment law, measured from simulation.

For a mass-M solution in two dimensions the second moment grows at the exact
rate 4M(1 - M/(8 pi)): positive below the 8 pi threshold, zero at it, and
negative above (which is how finite-time collapse is forced).  This script
sweeps three subcritical masses plus the critical one on a 256^2 grid and
compares fitted slopes against the law.
"""

import math

from pkslab import SolverConfig, evolve, fields
from pkslab.diagnostics import virial_prediction_2d, virial_slope

for mult in (2, 4, 6, 8):
    mass = mult * math.pi
    u0 = fields.gaussian_cartesian(mass, extent=20.0, size=256, t0=1.0)
    cfg = SolverConfig(t_init=1.0, t_end=5.0)
    traj = evolve(u0, cfg)
    slope = virial_slope(traj)
    law = virial_prediction_2d(mass)
    print(f"M = {mult}pi: fitted d/dt m2 = {slope:+.6f}   "
          f"law 4M(1 - M/8pi) = {law:+.6f}   "
          f"difference = {slope - law:+.2e}")

print("\nAt M = 10pi the same law predicts m2 -> 0 in finite time; see the")
print("blowup_sweep scenario for the detection run.")
