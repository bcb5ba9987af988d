"""Slice-profile reduction for separable phases c * x^k * y^j on [0,1]^2.

By Fubini the double integral collapses to a single integral of the fixed
profile A_k(w) = int_0^1 e^{i w x^k} dx against the other variable:

    int int e^{i lam x^k y^j} dx dy = int_0^1 A_k(lam * y^j) dy.

The profile is evaluated in closed form for k = 1 and otherwise by a fixed
6x64-node Gauss rule for |w| <= DIRECT_SWITCH, and for |w| > DIRECT_SWITCH
as the rotated Gamma integral over the half line less the tail
int_1^inf e^{i w x^k} dx = e^{iw} T_k(w), T_k summed by parts (for k = 1 it
stops after one term).

The outer integral splits at y0, where |lam c| y0^j = DIRECT_SWITCH.  With
y = y0 s the head on [0, y0] is y0 times int_0^1 A_k(w s^j) ds, where
w = min(|lam c|, DIRECT_SWITCH), so its swing is at most DIRECT_SWITCH at
any lambda: the profile's own 6x64 rule in s sums it, one tensor of
384 x 384 nodes, once per (k, j, w).  On [y0, 1] the Gamma term is a power
of y, integrated in closed form, and the tail -e^{i |lam| y^j} T_k(|lam| y^j)
is one slot of ``quadrature._pieces_integral`` in u = ln y, with the
amplitude e^u T_k(|lam| e^{ju}), smooth over the whole range, so that a few
order-24 Levin pieces carry it at any lambda: the cost of the reduction does
not grow with lambda.  The estimate adds ``PROFILE_ERR`` times y0 for each
axis of the head, the tail's estimate and the 8 eps floor.

Both the profile and the reduction are cross-checked in the test suite
against the planar integrator (moderate lambda) and high-precision oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import PreconditionError
from .phases import Phase2D, unit_square
from .quadrature import (_EPS, _LEVIN_24, DEFAULT_CONFIG, QuadResult, _gauss_panels,
                         _pieces_integral)

DIRECT_SWITCH = 48.0
# the tail's tolerance per unit length of u = ln y, times |head| + |power term|
TAIL_RTOL = 1e-14
# absolute error of the 6x64 rule on int_0^1 e^{i c t^m} dt for |c| <=
# DIRECT_SWITCH: against mpmath's 1F1 at steps of 0.02 in c, at most 1.7e-15
# for m = 1 and 9.5e-16 for m = 2..24
PROFILE_ERR = 2e-15


_DIRECT_RULE = _gauss_panels(6, leggauss(64), 0.0, 1.0)


def monomial_profile(k: int, w) -> np.ndarray:
    """A_k(w) = int_0^1 e^{i w x^k} dx for real w, vectorised.

    For |w| <= DIRECT_SWITCH and k >= 2 the 6x64 Gauss rule is within
    ``PROFILE_ERR`` of mpmath's 1F1 (9.5e-16 for k = 2..24).
    """
    if k < 1:
        raise PreconditionError("profile needs k >= 1")
    scalar = np.ndim(w) == 0
    w = np.atleast_1d(np.asarray(w, dtype=float))
    out = np.empty(w.shape, dtype=complex)

    if k == 1:
        # (e^{iw} - 1)/(iw) = e^{iw/2} sinc(w/2pi), exact and stable
        out[:] = np.exp(0.5j * w) * np.sinc(w / (2.0 * math.pi))
        return out[0] if scalar else out

    aw = np.abs(w)
    small = aw <= DIRECT_SWITCH
    big = ~small
    if small.any():
        # fixed composite Gauss: swing at most DIRECT_SWITCH, 6x64 nodes ample;
        # an elementwise sum, as a matrix product would wake a second BLAS
        # thread, 64 values of w at a time (390 KB per complex array)
        pts, wts = _DIRECT_RULE
        xk = pts**k
        ws = w[small]
        out[small] = np.concatenate([(np.exp(1j * ws[a:a + 64, None] * xk) * wts).sum(axis=1)
                                     for a in range(0, ws.size, 64)])
    if big.any():
        awb = aw[big]
        # full line: int_0^inf e^{i|w|x^k} dx = Gamma(1+1/k) e^{i pi/(2k)} |w|^(-1/k)
        full = math.gamma(1.0 + 1.0 / k) * np.exp(1j * math.pi / (2.0 * k)) * awb ** (-1.0 / k)
        vals = full - np.exp(1j * awb) * _tail_amplitude(k, awb)
        out[big] = np.where(w[big] >= 0, vals, np.conj(vals))
    return out[0] if scalar else out


def _tail_amplitude(k: int, w: np.ndarray) -> np.ndarray:
    """T_k(w) with int_1^inf e^{i w x^k} dx = e^{iw} T_k(w), for w > DIRECT_SWITCH.

    By parts S_m = -e^{iw}/(ikw) + ((mk+k-1)/(ikw)) S_{m+1}; the term ratios
    stay below 1 for w > DIRECT_SWITCH, so 24 terms suffice.
    """
    ikw = 1j * k * w
    out = np.zeros(w.shape, dtype=complex)
    coef = np.ones(w.shape, dtype=complex)
    for m in range(24):
        out -= coef / ikw
        coef = coef * (m * k + k - 1.0) / ikw
        if np.all(np.abs(coef) < 1e-17):
            break
    return out


@lru_cache
def _head_sum(k: int, j: int, w: float) -> complex:
    """int_0^1 A_k(w s^j) ds by the 6x64 rule in s; w is 48 for every la >= 48."""
    pts, wts = _DIRECT_RULE
    return complex(np.sum(monomial_profile(k, w * pts**j) * wts))


def _reduce(k: int, j: int, la: float) -> tuple[complex, float, int, bool]:
    """(int_0^1 A_k(la y^j) dy, its estimate, blocks, converged) for la > 0.

    The head on [0, y0] is one block, the tail's Levin pieces and panels the
    others.  The panels cover the tail's end of swing at most
    ``quadrature.LEVIN_SWING``, so their count does not grow with la; the
    Levin part grows as ln la, and halving it adds a piece at most each time
    that length doubles.  ``converged`` is the tail's refinement flag.
    """
    y0 = min(1.0, (DIRECT_SWITCH / la) ** (1.0 / j))
    # y = y0 s; the s-integrand is an x-average of e^{i c s^j}, |c| <=
    # DIRECT_SWITCH, so each axis costs at most PROFILE_ERR
    head = y0 * _head_sum(k, j, min(la, DIRECT_SWITCH))
    est = 2.0 * PROFILE_ERR * y0
    if y0 == 1.0:
        return head, est, 1, True

    # Gamma term: Gamma(1+1/k) e^{i pi/2k} la^(-1/k) int_{y0}^1 y^(-j/k) dy
    a = 1.0 - j / k
    pw = -math.log(y0) if j == k else -math.expm1(a * math.log(y0)) / a
    power = math.gamma(1.0 + 1.0 / k) * cmath.exp(0.5j * math.pi / k) * la ** (-1.0 / k) * pw

    # tail term in u = ln y: -int e^{i la e^{ju}} e^u T_k(la e^{ju}) du over [ln y0, 0]
    ev = lambda u, _: np.exp(j * u)
    tail, err, used, converged = _pieces_integral(
        ev, lambda u, _: j * ev(u, _), [la], [math.log(y0)], [0.0], [0], None,
        replace(DEFAULT_CONFIG, rel_tol=TAIL_RTOL * (abs(head) + abs(power))),
        h=lambda u, _: -np.exp(u) * _tail_amplitude(k, la * ev(u, _)), colloc=_LEVIN_24)
    return (head + power + complex(tail[0]), est + float(err[0]), 1 + int(used[0]),
            bool(converged[0]))


def product_monomial_integral(f: Phase2D, lam: float) -> QuadResult:
    """int_0^1 int_0^1 e^{i lam f} dx dy via the profile reduction, for f one
    term c x^k y^j (1 <= k, j <= 24) on the unit square; any other f raises
    PreconditionError.  Evaluated for |lam c| as in the module docstring; a
    negative product gives the complex conjugate.
    """
    C = np.asarray(f.coeffs)
    at = np.argwhere(C)
    # PROFILE_ERR is measured for exponents up to 24 only
    if f.domain != unit_square() or len(at) != 1 or at.min() < 1 or at.max() > 24:
        raise PreconditionError(f"the profile reduction needs one term c x^k y^j with "
                                f"1 <= k, j <= 24 on the unit square; {f.name!r} is not one")
    k, j = at[0].tolist()
    lam_eff = lam * float(C[k, j])
    if lam_eff == 0.0:
        return QuadResult(1.0 + 0.0j, float(8.0 * _EPS), 0, float(lam))
    value, err, used, converged = _reduce(k, j, abs(lam_eff))
    return QuadResult(value if lam_eff > 0 else value.conjugate(), float(err + 8.0 * _EPS),
                      used, float(lam), converged)
