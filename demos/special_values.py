#!/usr/bin/env python3
"""Walk through the modular evaluators and their classical landmarks.

Covers theta1, eta, g2/g3, j, sigma, and the modular pair (p, q), checking
each computed value against an independently known closed form, and ends
with the two covariance laws of p.
"""

import cmath
import math

from sigmakit import (
    dedekind_eta,
    invert_j,
    j_invariant,
    lattice_from_rho_tau,
    modular_pq,
    sigma_eval,
    theta1_eval,
    weierstrass_g,
)

CORNER = 0.5 + 1j * math.sqrt(3) / 2


def show(label, value, reference=None):
    line = f"  {label:<38} = {value:.15g}"
    if reference is not None:
        line += f"   (reference {reference:.15g})"
    print(line)


print("== Dedekind eta ==")
show("eta(i)", dedekind_eta(1j), math.gamma(0.25) / (2 * math.pi**0.75))
show("eta(2i)", dedekind_eta(2j), math.gamma(0.25) / (2 ** (11 / 8) * math.pi**0.75))

print("\n== Weight-4 and weight-6 forms ==")
g2_i, g3_i = weierstrass_g(1j)
show("g2(i)", g2_i, math.gamma(0.25) ** 8 / (16 * math.pi**2))
show("g3(i)  (vanishes by symmetry)", g3_i)
g2_c, _ = weierstrass_g(CORNER)
show("g2(corner)  (vanishes by symmetry)", g2_c)

print("\n== Modular invariant ==")
show("j(i)", j_invariant(1j), 1728)
show("j(corner)", j_invariant(CORNER), 0)
show("j(2i)", j_invariant(2j), 66**3)
print("  inverting back:")
show("invert_j(1728)", invert_j(1728.0).value, 1j)
show("invert_j(0)  (the reduced corner)", invert_j(0.0).value, CORNER - 1)
show("invert_j(287496)", invert_j(287496.0).value, 2j)

print("\n== Theta and sigma ==")
show("theta1(0.25, i)", theta1_eval(0.25, 1j))
lat = lattice_from_rho_tau(1, 1j)
z0 = 0.3 + 0.2j
via_theta = sigma_eval(z0, lat)
# The canonical product z * prod (1 - z/l) exp(z/l + (z/l)^2/2) over the
# nonzero points l = m + n*i with |l| <= 50; the omitted tail is O(1/50).
via_product = z0
for m in range(-50, 51):
    for n in range(-50, 51):
        if (m or n) and m * m + n * n <= 2500:
            w = z0 / complex(m, n)
            via_product *= (1 - w) * cmath.exp(w + w * w / 2)
show("sigma(0.3+0.2i, Z+iZ) via theta", via_theta)
show("same via canonical product (R=50)", via_product)
show("sigma at the lattice point 1+i", sigma_eval(1 + 1j, lat))

print("\n== The pair (p, q) and its covariance ==")
tau = 0.3 + 1.1j
p0, q0 = modular_pq(tau)
show(f"p({tau})", p0)
show(f"q({tau})", q0)
p_shift, _ = modular_pq(tau + 1)
p_inv, _ = modular_pq(-1 / tau)
show("|p(tau+1) - i p(tau)|", abs(p_shift - 1j * p0))
show("|p(-1/tau) - i tau^7 p(tau)|", abs(p_inv - 1j * tau**7 * p0))
