import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscint import (
    DecaySample,
    InsufficientSpanError,
    NoiseDominatedError,
    fit_decay,
    fit_log_model,
    geometric_grid,
)

from oracles import fresnel_integral, linear_phase_integral


def test_linear_phase_exponent():
    # |(e^{i lam}-1)/(i lam)| oscillates through zeros; sample the envelope at
    # odd multiples of pi where |sin(lam/2)| = 1
    ms = np.unique(np.round(np.geomspace(20, 2e5, 40)).astype(int))
    lams = (2 * ms + 1) * np.pi
    samples = [DecaySample(float(l), abs(linear_phase_integral(float(l)))) for l in lams]
    fit = fit_decay(samples)
    assert abs(fit.delta_hat - 1.0) < 0.01


def test_constant_magnitudes_give_zero():
    lams = geometric_grid(1.0, 1e3, 8)
    fit = fit_decay([DecaySample(float(l), 0.4) for l in lams])
    assert fit.delta_hat == pytest.approx(0.0, abs=1e-12)


def test_fresnel_exponent():
    lams = geometric_grid(1e2, 1e5, 10)
    samples = [DecaySample(float(l), abs(fresnel_integral(float(l)))) for l in lams]
    fit = fit_decay(samples)
    assert abs(fit.delta_hat - 0.5) < 0.02


@given(st.floats(0.05, 2.0), st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_exact_power_recovery(delta, log_c):
    C = 10.0**log_c
    lams = geometric_grid(1e1, 1e5, 6)
    fit = fit_decay([DecaySample(float(l), C * float(l) ** (-delta)) for l in lams])
    assert abs(fit.delta_hat - delta) < 1e-10
    assert fit.C_hat == pytest.approx(C, rel=1e-9)


def test_rescaling_invariance():
    lams = geometric_grid(1e1, 1e4, 8)
    mags = [float(l) ** (-0.7) * (1.0 + 0.01 * np.sin(i)) for i, l in enumerate(lams)]
    f1 = fit_decay([DecaySample(float(l), m) for l, m in zip(lams, mags)])
    f2 = fit_decay([DecaySample(float(l), 13.0 * m) for l, m in zip(lams, mags)])
    assert f1.delta_hat == pytest.approx(f2.delta_hat, abs=1e-12)
    assert f2.C_hat == pytest.approx(13.0 * f1.C_hat, rel=1e-12)


def test_insufficient_span():
    lams = geometric_grid(10.0, 90.0, 8)
    with pytest.raises(InsufficientSpanError):
        fit_decay([DecaySample(float(l), 1.0 / float(l)) for l in lams])
    with pytest.raises(InsufficientSpanError):
        fit_decay([DecaySample(10.0 * k, 1.0) for k in range(1, 6)])


def test_noise_dominated():
    lams = geometric_grid(1e1, 1e4, 6)
    samples = [DecaySample(float(l), 1e-9, error=1e-9) for l in lams]
    with pytest.raises(NoiseDominatedError):
        fit_decay(samples)


def test_log_model_recovers_itself():
    eps = np.geomspace(1e-4, 1e-1, 30)
    pts = [(float(e), float(e * (1.0 + np.log(1.0 / e)))) for e in eps]
    a, b, r2 = fit_log_model(pts)
    assert a == pytest.approx(1.0, abs=1e-9)
    assert b == pytest.approx(1.0, abs=1e-9)
    assert r2 > 0.999999


def test_log_model_pure_power_has_no_log():
    eps = np.geomspace(1e-4, 1e-1, 30)
    pts = [(float(e), float(e)) for e in eps]
    a, b, _ = fit_log_model(pts)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)


def test_log_model_span_check():
    eps = np.geomspace(0.02, 0.1, 10)
    with pytest.raises(InsufficientSpanError):
        fit_log_model([(float(e), float(e)) for e in eps])
