"""Independent reference values for the outputs the benchmark checks.

None of this imports oscint.  Each reference takes its own route:
high-precision special functions (mpmath), closed forms, the factorised
Fourier transform of the proof bump, and companion-matrix roots on a dense
grid.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

mp.mp.dps = 30

# Tolerances for values that carry no error estimate of their own.
XY_ABS_TOL = 1e-12       # reduction values of int_[0,1]^2 e^{i lam x y}
BAND_REL_TOL = 1e-5      # planar band areas; observed up to 2.5e-6 (see README)
C_DELTA_REL_TOL = 1e-8   # C_delta (the program integrates to rel_tol 1e-9)
COVER_SLACK = 1e-8       # root-distance slack of the monic inclusion check
ROOT_REL_TOL = 1e-7      # program roots against companion eigenvalues


def monomial_integral(n: int, lam: float) -> complex:
    """int_0^1 e^{i lam x^n} dx: Fresnel integrals for n = 2, otherwise the
    rotated lower incomplete gamma function (1/n) (-i lam)^(-1/n) gamma(1/n, -i lam)."""
    lam_abs = mp.mpf(abs(lam))
    if n == 2:
        u = mp.sqrt(2 * lam_abs / mp.pi)
        val = mp.sqrt(mp.pi / (2 * lam_abs)) * (mp.fresnelc(u) + 1j * mp.fresnels(u))
    else:
        a = mp.mpf(1) / n
        z = -1j * lam_abs
        val = mp.gammainc(a, 0, z) * z ** (-a) / n
    out = complex(val)
    return out if lam >= 0 else out.conjugate()


def xy_square_integral(lam: float) -> complex:
    """int_[0,1]^2 e^{i lam x y} = (Si(lam) + i (gamma + ln lam - Ci(lam))) / lam."""
    lam_abs = mp.mpf(abs(lam))
    val = (mp.si(lam_abs) + 1j * (mp.euler + mp.log(lam_abs) - mp.ci(lam_abs))) / lam_abs
    out = complex(val)
    return out if lam >= 0 else out.conjugate()


def xy_band_area(eps: float) -> float:
    """Area of {(x, y) in [0,1]^2 : x y <= eps} for 0 < eps <= 1."""
    return eps * (1.0 + math.log(1.0 / eps))


# ---------------------------------------------------------------------------
# C_delta from the factorised bump transform
# ---------------------------------------------------------------------------

_T, _W = leggauss(400)
_RHO = np.exp(-1.0 / (1.0 - _T**2))
_RHO /= _RHO @ _W
_X, _WX = leggauss(48)


def rho_hat(eta) -> np.ndarray:
    """Transform of the unit mollifier c exp(-1/(1-t^2)) on (-1, 1)."""
    eta = np.asarray(eta, dtype=float)
    return np.cos(2.0 * np.pi * eta[..., None] * _T) @ (_RHO * _W)


def phi_hat(xi) -> np.ndarray:
    """Transform of 1_[-1.5,1.5] * rho_h, h = 1/2: sin(3 pi xi)/(pi xi) rho_hat(xi/2)."""
    xi = np.asarray(xi, dtype=float)
    return 3.0 * np.sinc(3.0 * xi) * rho_hat(0.5 * xi)


def _sign_changes(f, lo: float, hi: float, n: int) -> np.ndarray:
    xs = np.linspace(lo, hi, n)
    v = f(xs)
    i = np.flatnonzero(v[:-1] * v[1:] < 0.0)
    a, b, va = xs[i], xs[i + 1], v[i]
    for _ in range(60):
        m = 0.5 * (a + b)
        vm = f(m)
        same = np.sign(vm) == np.sign(va)
        a, b, va = np.where(same, m, a), np.where(same, b, m), np.where(same, vm, va)
    return 0.5 * (a + b)


def c_delta(delta: float, xi_cutoff: float = 64.0) -> float:
    """2 int_0^cutoff |phi_hat(xi)| xi^(-delta) d xi.

    Segments end at the exact sinc zeros k/3 and at the bisected zeros of
    rho_hat(xi/2), so |phi_hat| is smooth on each; the first segment uses
    xi = u^(1/(1-delta)), which removes the xi^(-delta) singularity.
    """
    zeros = _sign_changes(lambda x: rho_hat(0.5 * x), 1e-9, xi_cutoff, int(48 * xi_cutoff))
    cuts = np.unique(np.concatenate([np.arange(0, int(3 * xi_cutoff) + 1) / 3.0, zeros,
                                     [xi_cutoff]]))
    cuts = cuts[cuts <= xi_cutoff]
    p = 1.0 / (1.0 - delta)
    top = cuts[1] ** (1.0 - delta)
    u = 0.5 * top * (_X + 1.0)
    total = p * 0.5 * top * float(np.abs(phi_hat(u**p)) @ _WX)
    lo, hi = cuts[1:-1], cuts[2:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _X
    total += float(((np.abs(phi_hat(x)) * x ** (-delta)) @ _WX * half).sum())
    return 2.0 * total


# ---------------------------------------------------------------------------
# Monic root-proximity inclusion
# ---------------------------------------------------------------------------


def monic_draw(seed: int, trial: int, max_degree: int) -> tuple[np.ndarray, float]:
    """The T6 monic trial polynomial (ascending coefficients) and eps."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 6001, trial)))
    d = int(rng.integers(1, max_degree + 1))
    coeffs = rng.uniform(-1.0, 1.0, size=d + 1)
    coeffs[-1] = 1.0
    eps = float(rng.uniform(0.0, 1.0)) or 0.5
    return coeffs, eps


def companion_roots(coeffs) -> np.ndarray:
    """Roots of a monic polynomial (ascending coefficients) as the
    eigenvalues of its companion matrix."""
    c = np.asarray(coeffs, dtype=float)
    d = c.size - 1
    comp = np.zeros((d, d))
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -c[:-1]
    return np.linalg.eigvals(comp)


def root_match_error(found, coeffs) -> float:
    """Largest distance, relative to max(1, |z|), between each found root
    and the nearest companion eigenvalue not yet matched; inf when the
    counts differ."""
    left = list(companion_roots(coeffs))
    if len(found) != len(left):
        return math.inf
    worst = 0.0
    for z in found:
        j = min(range(len(left)), key=lambda k: abs(z - left[k]))
        worst = max(worst, abs(z - left.pop(j)) / max(1.0, abs(z)))
    return worst


def monic_inclusion_holds(coeffs, eps: float, n_grid: int = 20001) -> bool:
    """Every grid x with |P(x)| <= eps^d lies within eps of a root's real part.

    Roots are companion-matrix eigenvalues; the grid spans the root real
    parts widened by 2, which holds the whole sublevel set since
    |P(x)| >= dist(x, roots)^d.
    """
    c = np.asarray(coeffs, dtype=float)
    d = c.size - 1
    re = companion_roots(c).real
    xs = np.linspace(re.min() - 2.0, re.max() + 2.0, n_grid)
    inside = np.abs(np.polynomial.polynomial.polyval(xs, c)) <= eps**d
    dist = np.min(np.abs(xs[:, None] - re[None, :]), axis=1)
    return bool(np.all(dist[inside] <= eps + COVER_SLACK))
