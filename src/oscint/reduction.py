"""Slice-profile reduction for separable phases c * x^k * y^j on [0,1]^2.

By Fubini the double integral collapses to a single integral of the fixed
profile A_k(w) = int_0^1 e^{i w x^k} dx against the other variable:

    int int e^{i lam x^k y^j} dx dy = int_0^1 A_k(lam * y^j) dy.

The profile is evaluated in closed form for k = 1 and otherwise by a Taylor
series at small |w| together with the integration-by-parts recursion for the
tail int_1^inf e^{i w x^k} dx at large |w| (the full-line contribution is the
rotated Gamma integral).  The outer integral is panelised by the swing of
lam * y^j with the quadrature engine's swing refiner and summed with its
panel rule (the Kronrod sums of ``quadrature._kronrod``, with the profile's
real and imaginary parts as a pair), so large lambda costs O(lambda) instead
of the O(lambda^2) a planar quadrature needs.

Both the profile and the reduction are cross-checked in the test suite
against the planar integrator (moderate lambda) and high-precision oracles.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import PreconditionError
from .quadrature import _kronrod, _swing_panels

SERIES_SWITCH = 12.0
DIRECT_SWITCH = 48.0
# swing limit and budget of the outer panels in y
SWING_CAP = math.pi / 2.0
MAX_PANELS = 1 << 22


def _direct_rule():
    nodes, weights = leggauss(64)
    edges = np.linspace(0.0, 1.0, 7)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (mid[:, None] + half * nodes[None, :]).ravel()
    wts = np.tile(weights * half, 6)
    return pts, wts


_DIRECT_RULE = _direct_rule()


def monomial_profile(k: int, w) -> np.ndarray:
    """A_k(w) = int_0^1 e^{i w x^k} dx for real w, vectorised, ~1e-12 accurate."""
    if k < 1:
        raise PreconditionError("profile needs k >= 1")
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w).astype(float)
    out = np.empty(w.shape, dtype=complex)

    if k == 1:
        # (e^{iw} - 1)/(iw) = e^{iw/2} sinc(w/2pi), exact and stable
        out[:] = np.exp(0.5j * w) * np.sinc(w / (2.0 * math.pi))
        return out[0] if scalar else out

    aw = np.abs(w)
    small = aw <= SERIES_SWITCH
    mid = (~small) & (aw <= DIRECT_SWITCH)
    big = aw > DIRECT_SWITCH
    if small.any():
        ws = w[small]
        acc = np.zeros(ws.shape, dtype=complex)
        term = np.ones(ws.shape, dtype=complex)
        m = 0
        while True:
            contrib = term / (k * m + 1.0)
            acc += contrib
            if np.all(np.abs(contrib) < 1e-16):
                break
            m += 1
            term = term * (1j * ws) / m
            if m > 200:
                break
        out[small] = acc
    if mid.any():
        # fixed composite Gauss: swing at most ~DIRECT_SWITCH, 6x64 nodes ample
        pts, wts = _DIRECT_RULE
        xk = pts**k
        out[mid] = np.exp(1j * w[mid][:, None] * xk[None, :]) @ wts
    if big.any():
        awb = aw[big]
        # full line: int_0^inf e^{i|w|x^k} dx = Gamma(1+1/k) e^{i pi/(2k)} |w|^(-1/k)
        full = math.gamma(1.0 + 1.0 / k) * np.exp(1j * math.pi / (2.0 * k)) * awb ** (-1.0 / k)
        # tail int_1^inf by parts: S_m = -e^{i|w|}/(ik|w|) + ((mk+k-1)/(ik|w|)) S_{m+1};
        # term ratios stay below 1 for |w| > DIRECT_SWITCH, so 24 terms suffice
        ikw = 1j * k * awb
        tail = np.zeros(awb.shape, dtype=complex)
        coef = np.ones(awb.shape, dtype=complex)
        eiw = np.exp(1j * awb)
        for m in range(24):
            tail += coef * (-eiw / ikw)
            coef = coef * (m * k + k - 1.0) / ikw
            if np.all(np.abs(coef) < 1e-17):
                break
        vals = full - tail
        out[big] = np.where(w[big] >= 0, vals, np.conj(vals))
    return out[0] if scalar else out


def product_monomial_integral(k: int, j: int, lam: float, coeff: float = 1.0) -> complex:
    """int_0^1 int_0^1 e^{i lam coeff x^k y^j} dx dy via the profile reduction.

    Panels in y are sized so the oscillation carrier lam*coeff*y^j swings at
    most ``SWING_CAP`` per panel; the profile factor varies slowly on that scale.
    """
    if j < 1:
        raise PreconditionError("reduction needs j >= 1")
    lam_eff = lam * coeff
    if lam_eff == 0.0:
        return 1.0 + 0.0j
    la = abs(lam_eff)

    L, R = _swing_panels(lambda y: y**j, [0.0], [1.0], la, SWING_CAP, MAX_PANELS)

    def samples(y):
        a = monomial_profile(k, lam_eff * y**j)
        return a.real, a.imag

    val, _ = _kronrod(samples, L, R)
    return complex(val[0].sum(), val[1].sum())
