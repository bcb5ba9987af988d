import contextlib
import math
import time

import mpmath
import numpy as np
import pytest

from oscint import (
    DecaySample,
    NotNormalizedError,
    Polynomial,
    PowerTransform,
    PreconditionError,
    SliceOverflowError,
    certify_1d,
    certify_1d_sweep,
    certify_2d,
    certify_2d_sweep,
    compose_with_polynomial,
    compose_with_power,
    derivpush_bound,
    fit_decay,
    geometric_grid,
    ibp_bound,
    monic_sublevel_cover,
    monomial,
    monotone_partition,
    osc_integrate_1d,
    osc_integrate_2d,
    product_phase,
    sample_snd,
    snd_sublevel_cover,
    sublevel_1d,
    xy_phase,
    xy_quad_phase,
)
from oscint.certificates import _x_starts
from oscint.phases import Phase2D, PhaseMeta, closure_phase, flat_rows, merge_rows, unit_square

from oracles import x_start

P_HALF_SQUARE = Polynomial((0.0, 0.0, 0.5))          # t^2/2, P' = t monic
P_THIRD_CUBE = Polynomial((0.0, 0.0, 0.0, 1.0 / 3.0))  # t^3/3, P' = t^2 monic
P_SND = Polynomial((0.0, 0.0, 0.5, 1.0 / 3.0))       # P' = t^2 + t, monic and SND
P_SND_ONLY = Polynomial((0.0, 0.0, 0.5, 1.0 / 6.0))  # P' = 0.5 t^2 + t, SND not monic


def stopped_adaptive_slots(*args, **kwargs):
    """``quadrature._adaptive_slots``, reporting that a cap stopped every slot."""
    from oscint.quadrature import _adaptive_slots

    val, err, converged = _adaptive_slots(*args, **kwargs)
    return val, err, np.zeros_like(converged)


class TestFormulas:
    def test_derivpush_plugin(self):
        assert derivpush_bound(2.0, 0.5, 0.3) == pytest.approx(0.6)
        assert derivpush_bound(1.0, 0.5, 0.25) == pytest.approx(0.125)

    def test_derivpush_dominates_constructed_interval(self):
        # slow phase on [0, L]: f = r sin(x), |f'| <= r, sublevel constant
        # measured over a (c, alpha) grid
        r = 0.05
        f = closure_phase(
            [lambda x: r * np.sin(x), lambda x: r * np.cos(x),
             lambda x: -r * np.sin(x)],
            (0.0, 1.2), meta=PhaseMeta(N=1), name="slow")
        delta = 0.5
        B = 0.0
        for c in np.linspace(-r, r, 9):
            for alpha in np.geomspace(1e-4, 0.5, 12):
                res = sublevel_1d(f, float(c), float(alpha))
                B = max(B, res.measure / alpha**delta)
        bound = derivpush_bound(B, delta, r)
        assert f.domain.length <= bound

    def test_ibp_plugin(self):
        assert ibp_bound(1.0, 1.0, 2, 6.0) == pytest.approx(1.0)
        assert ibp_bound(1.0, 1.0, 2, 12.0) == pytest.approx(0.5)

    def test_ibp_dominates_numeric(self):
        # f = x on [1, 2], P = t^2/2: |f'| = 1 >= r, |P'(f)| = f >= 1
        f = monomial(1, (1.0, 2.0))
        comp = compose_with_polynomial(f, P_HALF_SQUARE.coeffs)
        for lam in (10.0, 100.0, 1000.0):
            quad = osc_integrate_1d(comp, lam)
            assert abs(quad.value) <= ibp_bound(1.0, 1.0, 2, lam)

    def test_formula_preconditions(self):
        with pytest.raises(PreconditionError):
            derivpush_bound(1.0, 1.5, 0.1)
        with pytest.raises(PreconditionError):
            ibp_bound(1.0, 1.0, 2, 0.0)


class TestCertify1D:
    def test_degree_one_rejected(self):
        f = monomial(2, (0.0, 1.0))
        with pytest.raises(PreconditionError):
            certify_1d(f, Polynomial((0.0, 1.0)), 100.0, "vdc")

    def test_not_normalized_rejected(self):
        f = monomial(2, (0.0, 1.0))
        # P' = 0.2 t^2 + 0.3: neither monic nor SND
        with pytest.raises(NotNormalizedError):
            certify_1d(f, Polynomial((0.0, 0.3, 0.0, 0.2 / 3.0)), 100.0, "vdc")

    def test_snd_needs_large_lambda(self):
        f = monomial(3, (0.0, 1.0))
        with pytest.raises(PreconditionError):
            certify_1d(f, P_SND, 0.5, "vdc")

    def test_vdc_square_sound_and_scaled(self):
        f = monomial(2, (0.0, 1.0))
        lam = 1e4
        cert = certify_1d(f, P_HALF_SQUARE, lam, "vdc")
        comp = compose_with_polynomial(f, P_HALF_SQUARE.coeffs)
        quad = osc_integrate_1d(comp, lam)
        assert cert.verify_against(quad)
        assert cert.total_bound <= 10.0 * lam**-0.25
        assert cert.params.epsilon == pytest.approx(lam**-0.5)
        assert cert.params.r == pytest.approx(lam**-0.25)

    def test_piece_accounting_tiles_domain(self):
        f = monomial(2, (0.0, 1.0))
        cert = certify_1d(f, P_SND, 1e4, "vdc")
        supports = sorted(p.support for p in cert.pieces)
        assert supports[0][0] == pytest.approx(0.0, abs=1e-9)
        assert supports[-1][1] == pytest.approx(1.0, abs=1e-9)
        for (a, b), (c, d) in zip(supports[:-1], supports[1:]):
            assert c <= b + 1e-9
        total_len = sum(b - a for a, b in supports)
        assert total_len == pytest.approx(1.0, abs=1e-8)

    def test_vdc_sweep_recovers_rate(self):
        f = monomial(3, (0.0, 1.0))
        lams = geometric_grid(1e4, 1e8, 6)
        totals = [DecaySample(float(l), certify_1d(f, P_SND, float(l), "vdc").total_bound)
                  for l in lams]
        fit = fit_decay(totals)
        assert abs(fit.delta_hat - 1.0 / 9.0) < 0.02

    def test_general_mode_needs_claims(self):
        f = monomial(2, (0.0, 1.0))
        with pytest.raises(PreconditionError):
            certify_1d(f, P_HALF_SQUARE, 100.0, "general")
        with pytest.raises(PreconditionError):
            certify_1d(f, P_HALF_SQUARE, 100.0, "general", delta=0.5, A=0.2)

    def test_general_mode_sound(self):
        f = monomial(2, (0.0, 1.0))
        lam = 2e3
        cert = certify_1d(f, P_THIRD_CUBE, lam, "general", delta=0.5, A=1.0)
        comp = compose_with_polynomial(f, P_THIRD_CUBE.coeffs)
        assert cert.verify_against(osc_integrate_1d(comp, lam))
        assert "C_delta" in cert.notes

    def test_c_delta_stop_is_noted(self, monkeypatch):
        f = monomial(2, (0.0, 1.0))
        cert = certify_1d(f, P_THIRD_CUBE, 2e3, "general", delta=0.5, A=1.0)
        assert "C_delta_converged" not in cert.notes
        monkeypatch.setattr("oscint.sublevel._constant_cache", {})
        monkeypatch.setattr("oscint.sublevel._adaptive_slots", stopped_adaptive_slots)
        stopped = certify_1d(f, P_THIRD_CUBE, 2e3, "general", delta=0.5, A=1.0)
        assert stopped.notes.pop("C_delta_converged") is False
        assert stopped.to_dict() == cert.to_dict()

    def test_vdc_N1_no_small_pieces(self):
        f = monomial(1, (0.0, 1.0))
        cert = certify_1d(f, P_HALF_SQUARE, 1e3, "vdc", N=1)
        assert not [p for p in cert.pieces if p.kind == "small_derivative"]
        assert cert.params.r == pytest.approx(1.0)

    def test_power_transform_sound(self):
        f = monomial(2, (0.0, 1.0))
        lam = 1e4
        cert = certify_1d(f, PowerTransform(1.5), lam, "vdc")
        comp = compose_with_power(f, 1.5)
        assert cert.verify_against(osc_integrate_1d(comp, lam))

    def test_power_exponent_validation(self):
        with pytest.raises(PreconditionError):
            PowerTransform(1.0)

    def test_serialization_lists_pieces(self):
        f = monomial(2, (0.0, 1.0))
        cert = certify_1d(f, P_HALF_SQUARE, 1e4, "vdc")
        doc = cert.to_dict()
        assert doc["total_bound"] == pytest.approx(cert.total_bound)
        kinds = {p["kind"] for p in doc["pieces"]}
        assert "integration_by_parts" in kinds
        for p in doc["pieces"]:
            assert {"kind", "support", "bound", "formula"} <= set(p)


# (phase, outer, mode, keywords): every outer model, and vdc at N = 1 to 3
SWEEP_CASES = {
    "monic_vdc_N1": (lambda: monomial(1, (0.0, 1.0)), P_HALF_SQUARE, "vdc", {"N": 1}),
    "monic_vdc_N2": (lambda: monomial(2, (0.0, 1.0)), P_HALF_SQUARE, "vdc", {}),
    "monic_vdc_N3_prime_break": (lambda: monomial(3, (-1.0, 1.0)), P_THIRD_CUBE, "vdc", {}),
    "monic_general": (lambda: monomial(2, (0.0, 1.0)), P_THIRD_CUBE, "general",
                      {"delta": 0.5, "A": 1.0}),
    "snd_general": (lambda: monomial(2, (0.0, 1.0)), P_SND_ONLY, "general",
                    {"delta": 0.5, "A": 1.0}),
    "snd_vdc_N3": (lambda: monomial(3, (0.0, 1.0)), P_SND_ONLY, "vdc", {}),
    "power_vdc": (lambda: monomial(2, (0.0, 1.0)), PowerTransform(1.5), "vdc", {}),
}
SWEEP_LAMS = [1e4, 30.0, -2e3, 1.0, 1e6, 5e2]


class TestCertify1DSweep:
    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_each_lambda_gets_its_own_certificate(self, case):
        make_f, P, mode, kw = SWEEP_CASES[case]
        f = make_f()
        certs = certify_1d_sweep(f, P, SWEEP_LAMS, mode, **kw)
        assert [c.to_dict() for c in certs] == \
            [certify_1d(f, P, lam, mode, **kw).to_dict() for lam in SWEEP_LAMS]

    def test_engine_gives_each_job_its_own_identity_decomposition(self):
        from oscint.certificates import _IDENTITY, _engine_1d

        f = monomial(2, (0.0, 1.0))
        lams = [30.0, -1e3, 1e5]
        rs = [abs(lam) ** -0.25 for lam in lams]
        ev = lambda order, x, _: f.eval_fn(order, x)
        base, mono = monotone_partition(f), monotone_partition(f, order_cap=1)
        together = _engine_1d(flat_rows(base, 3), flat_rows(mono, 3), ev, _IDENTITY, lams,
                              [1.0] * 3, rs, [None] * 3)
        assert together == [_engine_1d(flat_rows(base, 1), flat_rows(mono, 1), ev, _IDENTITY,
                                       [lam], [1.0], [r], [None])[0]
                            for lam, r in zip(lams, rs)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_lambda_before_any_work(self, bad):
        f = monomial(2, (0.0, 1.0))
        for call in (lambda: certify_1d_sweep(f, P_THIRD_CUBE, [1e3, bad], "vdc"),
                     lambda: certify_1d(f, P_THIRD_CUBE, bad, "vdc")):
            start = time.perf_counter()
            with pytest.raises(PreconditionError, match="finite"):
                call()
            assert time.perf_counter() - start < 0.1

    def test_rejects_what_a_lone_lambda_rejects(self):
        f = monomial(3, (0.0, 1.0))
        assert certify_1d_sweep(f, P_SND, [], "vdc") == []
        for lams in ([1e4, 0.0], [1e4, 0.5]):
            with pytest.raises(PreconditionError):
                certify_1d_sweep(f, P_SND, lams, "vdc")


@pytest.mark.parametrize("eps", [1e-3, 0.05, 0.4, 1.0])
def test_outer_cover_data_is_the_public_cover(eps):
    # the engine reads a cover as the model's centres -/+ its radius; merged,
    # that is P''s public monic or SND cover, or [-r, r] for a power transform
    from oscint.certificates import _outer, default_snd_constant

    def merged(outer):
        c, radius = np.array(outer.centers), outer.cover_radius(eps)
        _, lo, hi = merge_rows(np.zeros(c.size, dtype=np.intp), c - radius, c + radius, 1e-15)
        return list(zip(lo.tolist(), hi.tolist()))

    rng = np.random.default_rng(20261020)
    for d in (1, 2, 3, 1, 2, 3):
        snd = sample_snd(d, rng).coeffs
        # -P' is SND as well, and not monic where a draw of P' is
        snd = tuple(-a for a in snd) if snd[-1] == 1.0 else snd
        for label, dP in (("monic", np.append(rng.uniform(-3.0, 3.0, d), 1.0)), ("SND", snd)):
            outer = _outer(Polynomial((0.0,) + tuple(a / (k + 1) for k, a in enumerate(dP))), 1.0)
            assert outer.label == label
            if label == "monic":
                public = monic_sublevel_cover(outer.Pp, eps)
            else:
                with pytest.warns(UserWarning) if eps == 1.0 else contextlib.nullcontext():
                    public = snd_sublevel_cover(outer.Pp, eps, default_snd_constant(d))
            assert len(outer.centers) == d
            assert merged(outer) == [iv.as_tuple() for iv in public]
    for s in (1.5, 3.0):
        power = PowerTransform(s)
        assert merged(power) == [(-power.cover_radius(eps), power.cover_radius(eps))]


def wavy_phase() -> Phase2D:
    """f = x g(y) with g' = 1 + 0.9 T_8(2y - 1) >= 0.1: |d_y f| = x g'(y)
    crosses gamma = 0.01 at each of the four dips of g' for x in (0.0053, 0.1)."""
    dg = np.polynomial.Chebyshev.basis(8, domain=[0.0, 1.0]).convert(
        kind=np.polynomial.Polynomial) * 0.9 + 1.0
    g = dg.integ().coef
    return Phase2D((np.zeros_like(g), g), unit_square(), derivative_lower_bound=0.1, name="wavy")


class TestCertify2D:
    def test_base_case_sound(self):
        f2 = xy_phase()
        lam = 300.0
        cert = certify_2d(f2, Polynomial((0.0, 1.0)), lam)
        quad = osc_integrate_2d(f2, lam)
        assert cert.verify_against(quad)
        assert cert.params.gamma is not None

    def test_composed_sound(self):
        f2 = xy_quad_phase(0.1)
        lam = 200.0
        from oscint.phases import compose2d_with_polynomial

        comp = compose2d_with_polynomial(f2, P_HALF_SQUARE.coeffs)
        cert = certify_2d(f2, P_HALF_SQUARE, lam)
        quad = osc_integrate_2d(comp, lam)
        assert cert.verify_against(quad)
        kinds = {p.kind for p in cert.pieces}
        assert "slice_small_mixed" in kinds

    def test_base_case_sound_on_a_rectangle(self):
        # xy on [0.5, 2] x [1, 1.75]: the mixed derivative is 1 throughout
        f2 = product_phase(monomial(1, (0.5, 2.0)), monomial(1, (1.0, 1.75)))
        lam = 30.0
        cert = certify_2d(f2, Polynomial((0.0, 1.0)), lam)
        quad = osc_integrate_2d(f2, lam)
        assert cert.verify_against(quad)
        region2 = [p for p in cert.pieces if p.kind == "slice_small_mixed"]
        assert [p.support for p in region2] == [(0.5, 2.0, 1.0, 1.75)]

    def test_snd_needs_lambda_at_least_one(self):
        f2 = xy_phase()
        with pytest.raises(PreconditionError):
            certify_2d(f2, P_SND_ONLY, 0.25)
        cert = certify_2d(f2, P_SND_ONLY, 50.0)
        assert cert.total_bound > 0

    def test_outer_is_a_polynomial_with_unit_slope_or_degree_two(self):
        f2 = xy_phase()
        base = certify_2d(f2, Polynomial((0.0, 1.0)), 300.0)
        assert certify_2d(f2, Polynomial((0.3, 1.0)), 300.0).to_dict() == base.to_dict()
        for P in (PowerTransform(1.5), Polynomial((0.0, 2.0))):
            with pytest.raises(PreconditionError):
                certify_2d(f2, P, 300.0)

    def test_region_quadrature_stop_is_noted(self, monkeypatch):
        f2 = xy_quad_phase(0.1)
        cert = certify_2d(f2, P_HALF_SQUARE, 300.0)
        assert "region2_converged" not in cert.notes
        monkeypatch.setattr("oscint.certificates._adaptive_slots", stopped_adaptive_slots)
        stopped = certify_2d(f2, P_HALF_SQUARE, 300.0)
        assert stopped.notes.pop("region2_converged") is False
        assert stopped.to_dict() == cert.to_dict()

    def test_slice_with_too_many_runs_overflows(self):
        with pytest.raises(SliceOverflowError, match="decomposed into 5 intervals, cap 4"):
            certify_2d(wavy_phase(), Polynomial((0.0, 1.0)), 1e4)

    def test_region1_starts_at_the_closed_form_boundary(self):
        gammas = [lam ** (-1.0 / (2.0 * d)) for lam in (30.0, 1e3, 1e5) for d in (1.0, 2.0, 3.0)]
        # xy: d_y f = x reaches gamma at x = gamma, to the last bit
        assert _x_starts(xy_phase(), gammas) == gammas
        # xy + 0.1 x^2 y^2: the largest d_y f = x + 0.2 x^2 y sits at y = 1
        for gamma, x_start in zip(gammas, _x_starts(xy_quad_phase(0.1), gammas)):
            root = float(2.0 * mpmath.mpf(gamma)
                         / (1.0 + mpmath.sqrt(1.0 + 0.8 * mpmath.mpf(gamma))))
            assert abs(x_start - root) <= np.spacing(root), gamma
        # a rectangle whose slices all reach gamma starts at ax; one whose
        # slices never do has no region 1
        assert _x_starts(AT_AX, [0.1]) == [0.5]
        assert _x_starts(NARROW, [0.1]) == [None]

    def test_region1_runs_leave_out_a_narrow_gap(self):
        # f = xy + K (y - 1/2)^2 / 2: each slice's gap |d_y f| < gamma is
        # 2 gamma / K = 2e-5 wide; region 2 charges it, so region 1's runs
        # must leave it out, or it is charged twice
        K = 1e4
        f2 = Phase2D(((K / 8.0, -K / 2.0, K / 2.0), (0.0, 1.0, 0.0)), unit_square(), 1.0, "gap")
        cert = certify_2d(f2, Polynomial((0.0, 1.0)), 100.0)
        assert cert.params.gamma == 0.1
        small = [p for p in cert.pieces if p.kind == "small_derivative"]
        assert small and all(p.details["measured"] < 1e-9 for p in small)
        [region2] = [p for p in cert.pieces if p.kind == "slice_small_mixed"]
        assert region2.bound == pytest.approx(2e-5, rel=1e-6)
        assert cert.total_bound == pytest.approx(0.60002, abs=1e-8)
        # the same integral with x and y swapped, whose slices osc_integrate_2d
        # resolves within its panel budget
        swapped = Phase2D(np.transpose(f2.coeffs), unit_square(), 1.0, "gap_swapped")
        assert cert.verify_against(osc_integrate_2d(swapped, 100.0))

    # totals before the slices moved to one batched engine run
    @pytest.mark.parametrize("P, lam, frozen", [
        (Polynomial((0.0, 1.0)), 30.0, 0.7271154203074497),
        (Polynomial((0.0, 1.0)), 1e3, 0.12639193982031935),
        (Polynomial((0.0, 1.0)), 1e5, 0.01264811148303042),
        (P_HALF_SQUARE, 30.0, 1.4108292680813987),
        (P_HALF_SQUARE, 1e3, 1.1748063530299344),
        (P_HALF_SQUARE, 1e5, 0.44706460694568917),
    ])
    def test_xy_quad_total_parity(self, P, lam, frozen):
        assert certify_2d(xy_quad_phase(0.1), P, lam).total_bound == pytest.approx(frozen, rel=1e-12)

    def test_sweep_rate(self):
        f2 = xy_phase()
        lams = geometric_grid(1e4, 1e7, 6)
        totals = [DecaySample(float(l),
                              certify_2d(f2, P_HALF_SQUARE, float(l)).total_bound)
                  for l in lams]
        fit = fit_decay(totals)
        assert abs(fit.delta_hat - 0.25) < 0.02


def t3_lambdas() -> list[float]:
    """Every lambda the packaged T3 run certifies: its soundness grid, its
    ``hi_rows`` and its certificate sweep."""
    from oscint.harness import _grid, load_config

    opt = load_config("T3", "default").options
    hi_rows = [lam for case in opt["cases"] for lam in case.get("hi_rows", ())]
    return sorted({float(lam) for lam in [*_grid(opt["lambda_sound"]), *hi_rows,
                                          *_grid(opt["cert_sweep"])]})


# xy on [0.5, 2] x [1, 1.75]: d_y f = x >= 0.5, so every gamma <= 0.5 is
# reached at ax; xy on [0, 0.05] x [0, 1]: gamma = lambda^(-1/2) is reached
# only from lambda = 400 on
AT_AX = product_phase(monomial(1, (0.5, 2.0)), monomial(1, (1.0, 1.75)))
NARROW = product_phase(monomial(1, (0.0, 0.05)), monomial(1))


class TestCertify2DSweep:
    @pytest.mark.parametrize("f2, P", [
        (xy_phase(), Polynomial((0.0, 1.0))),
        (xy_quad_phase(0.1), P_HALF_SQUARE),
        # x < 0.05: below lambda = 400 no slice reaches gamma, so no region 1
        (NARROW, Polynomial((0.0, 1.0))),
    ], ids=["xy_base", "xyq_d2", "narrow"])
    def test_each_lambda_gets_its_lone_certificate(self, f2, P):
        # the packaged T3 grid, shuffled, with one lambda twice
        lams = np.random.default_rng(20261020).permutation(t3_lambdas()).tolist()
        lams.insert(5, lams[11])
        certs = certify_2d_sweep(f2, P, lams)
        assert [c.to_dict() for c in certs] == [certify_2d(f2, P, lam).to_dict() for lam in lams]

    @pytest.mark.parametrize("f2, P", [
        (xy_phase(), Polynomial((0.0, 1.0))),
        (xy_phase(), P_HALF_SQUARE),
        (xy_quad_phase(0.1), P_HALF_SQUARE),
        (NARROW, Polynomial((0.0, 1.0))),
    ], ids=["xy_base", "xy_d2", "xyq_d2", "narrow"])
    def test_x_starts_are_the_scalar_reference(self, f2, P):
        # the packaged T3 grid of each (f2, P) pair, and the narrow rectangle,
        # where the lambdas below 400 have no region 1
        gammas = [lam ** (-1.0 / (2.0 * P.degree)) for lam in t3_lambdas()]
        starts = _x_starts(f2, gammas)
        assert starts == [x_start(f2, gamma) for gamma in gammas]
        assert all(type(x) is float for x in starts if x is not None)
        assert (None in starts) == (f2 is NARROW)
        # gammas already reached at ax, 0.5 among them
        at_ax = _x_starts(AT_AX, [0.5, *gammas])
        assert at_ax == [x_start(AT_AX, gamma) for gamma in [0.5, *gammas]]
        assert at_ax.count(0.5) > 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_lambda_before_any_work(self, bad):
        f2 = xy_phase()
        for call in (lambda: certify_2d_sweep(f2, P_HALF_SQUARE, [1e3, bad]),
                     lambda: certify_2d(f2, P_HALF_SQUARE, bad)):
            start = time.perf_counter()
            with pytest.raises(PreconditionError, match="finite"):
                call()
            assert time.perf_counter() - start < 0.1

    def test_rejects_what_a_lone_lambda_rejects(self):
        f2 = xy_phase()
        assert certify_2d_sweep(f2, P_HALF_SQUARE, []) == []
        with pytest.raises(PreconditionError):
            certify_2d_sweep(f2, P_HALF_SQUARE, [1e3, 0.0, 30.0])
        # SND normalisation needs |lambda| >= 1 at every lambda of the sweep
        with pytest.raises(PreconditionError):
            certify_2d_sweep(f2, P_SND_ONLY, [50.0, 0.5, 1e3])
        with pytest.raises(SliceOverflowError, match="decomposed into 5 intervals, cap 4"):
            certify_2d_sweep(wavy_phase(), Polynomial((0.0, 1.0)), [1e3, 1e4, 1e5])
