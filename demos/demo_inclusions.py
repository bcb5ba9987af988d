"""Root-proximity covers and how they fail off the normalised class.

For a monic polynomial, {|P| <= eps^d} sits inside intervals of radius eps
around the root real parts.  For SND-normalised polynomials the same holds
with an empirical constant B_d.  Push the leading coefficient to zero along
the degenerate family and the minimal working radius blows up.
"""

from oscint import (
    Polynomial,
    classify,
    cover_ratio,
    degenerating_family,
    estimate_B,
    monic_sublevel_cover,
)

P = Polynomial((-1.0, 0.0, 1.0))  # x^2 - 1
cover = monic_sublevel_cover(P, 0.1)
print("monic cover of {|x^2 - 1| <= 0.01}:")
for iv in cover:
    print(f"  [{iv.lo:+.3f}, {iv.hi:+.3f}]")

for d in (2, 3):
    B = estimate_B(d, trials=200, seed=1)
    print(f"\nempirical SND cover constant, degree {d}: B = {B.B}")

print("\ndegenerate family eta * x * (x - eta^(-1/2))^2:")
print(f"{'eta':>8} {'classification':>15} {'minimal working B':>19}")
for eta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
    P = degenerating_family(2, eta)
    ratio = cover_ratio(P)
    print(f"{eta:8.0e} {classify(P).label:>15} {ratio:19.3f}")
print("the minimal radius grows like eta^(-1/4): no fixed constant can work")
