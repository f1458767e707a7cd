"""The second-order expansion profile W_star and the log-term constants.

In n = 3 the first nonlinear correction is -M^2 t^{-2} W_star(x/sqrt t) with
W_star an s-integral of the drift-diffusion semigroup applied to
div(G_3 grad V_3), computed by one boundary-value solve and checked against
the s-quadrature; in n = 3 and n = 4 the next order carries log(t) factors
whose coefficients c1 and c2 are plain quadratures.  Every number here is
computed two independent ways.
"""

import numpy as np

from pkslab import asymptotics as asy

ws = asy.w_star()
quad = asy.w_star_quadrature()
print("W_star by the boundary-value solve, against the s-quadrature")
print(f"  quadrature: {quad.s_nodes} s-nodes up to s_max = {quad.s_max:.1f}, "
      f"integrand decay exponent {quad.integrand_slope:.4f}  (theory 1/2)")
gap = np.abs(ws.field.values - quad.field.values).max() / np.abs(quad.field.values).max()
print(f"  max |solve - quadrature| / max |W_star|: {gap:.2e}")
print(f"  mass defect (null condition): {ws.mass_defect():.2e}")
for k in (0, 2, 4):
    print(f"  int |W_star| |xi|^{k} dxi = {ws.moment(k):.8f}")
print(f"  PDE residual at t = 1: {asy.w_pde_residual(ws):.2e}")

print("\nconstants:")
c2 = asy.constant_c2(1.0)
print(f"  c2(1) display quadrature : {c2:.12e}")
print(f"  c2(1) reduced 1D oracle  : {asy.constant_c2_oracle(1.0):.12e}")
print(f"  c2(1) closed form        : {asy.C2_UNIT_CLOSED_FORM:.12e}"
      "   (= 1/(256 pi^4))")

c1 = asy.constant_c1(1.0, ws)
mc = asy.constant_c1_monte_carlo(1.0, [1.0, 0.0, 0.0], ws, samples=2_000_000)
print(f"  c1(1, e1) quadrature     : {c1:.12e}")
print(f"  c1(1, e1) Monte Carlo    : {mc:.12e}")
print("  (the dipole block integrates to zero by parity; c1 scales as M^3)")

print("\nexpansion terms, n = 3, M = 1.5, B0 = 0.2 e1, order 1:")
terms = asy.expansion(3, 1.5, [0.2, 0.0, 0.0], 1, wstar=ws)
for term in terms:
    log = " log(t)" if term.log_factor else ""
    print(f"  {term.name:16s} coeff = {term.coefficient:+.6e}  "
          f"t^{float(term.t_exponent):+.1f}{log}")
