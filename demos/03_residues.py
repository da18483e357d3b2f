"""Contour residues of the two quintic witness functions.

phi(z) = theta^5[1;1](z) / prod_k theta[1/5;k/5](z) is elliptic with five
simple poles; each residue has a theta-constant closed form, and the five
residues summing to zero is precisely the quintic identity among fifth
powers.  psi(z) does the same for the eps = 3/5 family.
"""

from theta5 import (PHI_WITNESS, PSI_WITNESS, residue_report, sample_tau)

tau = sample_tau(1, 1)[0]
print(f"tau = {tau:.6f}\n")

for witness in (PHI_WITNESS, PSI_WITNESS):
    rep = residue_report(witness, tau)
    print(f"{witness.name}: poles at", [f"{p:.3f}" for p in witness.pole_points(tau)])
    for num, closed in zip(rep.numeric, rep.closed_form):
        print(f"  contour {num:+.9f}   closed form {closed:+.9f}")
    print(f"  max relative error vs closed forms: {rep.max_rel_error:.2e}")
    print(f"  |sum of residues| (the identity):   {rep.sum_abs:.2e}")
    print(f"  quadrature nodes per pole (adaptive): {rep.samples}\n")
