"""Decay-exponent and log-model fitting from (lambda, magnitude) samples.

Fits are plain least squares in log-log coordinates.  The sup constant is
taken over the samples rather than from the regression intercept, so the
fitted pair (C_hat, delta_hat) always dominates the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSpanError, NoiseDominatedError

DEFAULT_PER_DECADE = 25
DEFAULT_DROP_LOW_DECADES = 0.5


def geometric_grid(lo: float, hi: float, per_decade: int = DEFAULT_PER_DECADE) -> np.ndarray:
    """Geometric grid with a fixed point count per decade, endpoints included."""
    if not (0 < lo < hi):
        raise InsufficientSpanError("grid endpoints must satisfy 0 < lo < hi")
    n = int(round(per_decade * math.log10(hi / lo))) + 1
    return np.geomspace(lo, hi, max(n, 2))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares line y ~ c0 + c1*x: the coefficients and R^2 in [0, 1]."""
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = float(np.sum((y - A @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return coef, 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


@dataclass(frozen=True)
class DecaySample:
    lam: float
    magnitude: float
    error: float = 0.0


@dataclass(frozen=True)
class DecayFit:
    delta_hat: float
    C_hat: float
    r_squared: float
    window: tuple[float, float]


def fit_decay(samples: Sequence[DecaySample],
              drop_low_decades: float = DEFAULT_DROP_LOW_DECADES) -> DecayFit:
    """Least-squares decay exponent of magnitude ~ C * lambda^(-delta).

    Requires at least 8 samples spanning two decades, with magnitudes well
    above their quadrature errors.  The lowest ``drop_low_decades`` of the
    lambda range is excluded from the regression to suppress preasymptotic
    bias; C_hat is the sup of magnitude * lambda^delta_hat over all samples.
    """
    samples = sorted(samples, key=lambda s: s.lam)
    if len(samples) < 8:
        raise InsufficientSpanError(f"need >= 8 samples, got {len(samples)}")
    lam = np.array([s.lam for s in samples])
    mag = np.array([s.magnitude for s in samples])
    err = np.array([s.error for s in samples])
    if lam[0] <= 0:
        raise InsufficientSpanError("lambda values must be positive")
    if math.log10(lam[-1] / lam[0]) < 2.0 - 1e-9:
        raise InsufficientSpanError("samples must span at least two decades")
    noisy = mag <= 10.0 * err
    if noisy.mean() > 0.20:
        raise NoiseDominatedError(
            f"{int(noisy.sum())}/{len(samples)} magnitudes within 10x of their errors"
        )
    cut = lam[0] * 10.0**drop_low_decades
    use = lam >= cut * (1.0 - 1e-12)
    if use.sum() < 8:
        use = np.ones_like(use, dtype=bool)
    lam_w, mag_w = lam[use], mag[use]
    positive = mag_w > 0
    if positive.sum() < 2 or np.ptp(np.log(lam_w[positive])) == 0.0:
        return DecayFit(0.0, float(mag.max(initial=0.0)), 0.0,
                        (float(lam_w[0]), float(lam_w[-1])))
    coef, r2 = _line_fit(np.log(lam_w[positive]), np.log(mag_w[positive]))
    delta = -float(coef[1])
    C_hat = float(np.max(mag * lam**delta))
    return DecayFit(delta, C_hat, r2, (float(lam_w[0]), float(lam_w[-1])))


def fit_log_model(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Fit measure = eps * (a + b*ln(1/eps)) by linear least squares.

    Returns (a, b, r_squared).  Needs 8 points spanning two decades of eps.
    """
    pts = sorted(points)
    if len(pts) < 8:
        raise InsufficientSpanError(f"need >= 8 points, got {len(pts)}")
    eps = np.array([e for e, _ in pts])
    meas = np.array([m for _, m in pts])
    if eps[0] <= 0 or math.log10(eps[-1] / eps[0]) < 2.0 - 1e-9:
        raise InsufficientSpanError("points must span at least two decades of eps")
    coef, r2 = _line_fit(np.log(1.0 / eps), meas / eps)
    return float(coef[0]), float(coef[1]), r2
