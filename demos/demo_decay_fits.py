"""Decay-exponent fits across the library's phase families.

Power phases recover 1/N; composing with a degree-d polynomial divides the
exponent by d; the product phase x^3 y^2 decays at the worse of the two
marginal rates; and |t|^s behaves like a degree-s polynomial.
"""

from oscint import (
    DecaySample,
    compose_with_polynomial,
    compose_with_power,
    fit_decay,
    geometric_grid,
    monomial,
    osc_integrate_1d,
    product_phase,
)
from oscint.reduction import product_monomial_integral

grid = geometric_grid(1e3, 1e6, 6)


def fit_magnitudes(phase):
    samples = []
    for lam in grid:
        q = osc_integrate_1d(phase, float(lam))
        samples.append(DecaySample(float(lam), abs(q.value), q.error_estimate))
    return fit_decay(samples).delta_hat


print(f"{'phase':<28} {'fitted':>8} {'predicted':>10}")
for n in (2, 3, 4):
    d = fit_magnitudes(monomial(n, (0.0, 1.0)))
    print(f"{'x^' + str(n):<28} {d:8.4f} {1.0 / n:10.4f}")

f = monomial(2, (0.0, 1.0))
composed = compose_with_polynomial(f, (0.0, 0.0, 0.5))
print(f"{'(x^2)^2/2 (d = 2)':<28} {fit_magnitudes(composed):8.4f} {0.25:10.4f}")

power = compose_with_power(f, 1.5)
print(f"{'|x^2|^1.5 (s = 3/2)':<28} {fit_magnitudes(power):8.4f} {1/3:10.4f}")

x3_y2 = product_phase(monomial(3, (0.0, 1.0)), monomial(2, (0.0, 1.0)))
quads = [product_monomial_integral(x3_y2, float(l)) for l in geometric_grid(1e3, 3e5, 8)]
samples = [DecaySample(q.lam, abs(q.value), q.error_estimate) for q in quads]
print(f"{'x^3 y^2 on the square':<28} {fit_decay(samples).delta_hat:8.4f} {1/3:10.4f}")
