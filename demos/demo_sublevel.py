"""Sublevel sets and the oscillation-to-sublevel constant.

A decay estimate |I(lambda)| <= A lambda^-delta forces every band
{|f - c| <= eps} to have measure at most C_delta * A * eps^delta, with
C_delta computable from a fixed smooth bump.  We measure bands of x^2
directly and compare; then we measure the planar band of xy at height 0,
whose area carries the tell-tale logarithmic factor.
"""

import math

import numpy as np

from oscint import (
    monomial,
    osc_to_sublevel_constant,
    sublevel_1d,
    sublevel_2d,
    xy_phase,
)

f = monomial(2, (-1.0, 1.0))
res = sublevel_1d(f, 0.25, 0.05)
print("bands of f(x) = x^2 around c = 0.25, eps = 0.05:")
for comp in res.components:
    print(f"  [{comp.lo:+.9f}, {comp.hi:+.9f}]")
print(f"  measure = {res.measure:.9f} "
      f"(exact 2(sqrt(0.3)-sqrt(0.2)) = {2*(math.sqrt(0.3)-math.sqrt(0.2)):.9f})")

C = osc_to_sublevel_constant(0.5)
print(f"\nC_delta at delta = 1/2: {C.C_delta:.6f}  (bump: {C.bump_spec})")
print("checking measure <= C_delta * eps^(1/2) for f = x^2 (A = 1 scale):")
for eps in (1e-3, 1e-2, 1e-1):
    m = sublevel_1d(f, 0.0, eps).measure
    print(f"  eps = {eps:g}: measure {m:.5f} vs bound {C.C_delta * math.sqrt(eps):.5f}")

print("\nplanar band of xy at height 0 shows the log factor:")
for eps in (1e-1, 1e-2, 1e-3):
    m = sublevel_2d(xy_phase(), 0.0, eps)[0]
    print(f"  eps = {eps:g}: area {m:.6f} = eps(1 + ln(1/eps)) "
          f"= {eps*(1+math.log(1/eps)):.6f}")
