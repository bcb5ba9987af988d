"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Suites execute once per session through fixtures; the
criteria assert on their reports plus direct oracle comparisons.
"""

import numpy as np
import pytest

from oscint import monomial, osc_integrate_1d
from oscint.harness import load_config, run_suite

from oracles import (fresnel_integral, linear_phase_integral, product_monomial_square_integral,
                     xy_square_integral)

_reports = {}


def suite_report(suite_id):
    if suite_id not in _reports:
        _reports[suite_id] = run_suite(load_config(suite_id))
    return _reports[suite_id]


def record(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion:2d}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def verdicts_for(report, check=None, case_prefix=None):
    out = []
    for v in report.verdicts:
        if check is not None and v["check"] != check:
            continue
        if case_prefix is not None and not v["case"].startswith(case_prefix):
            continue
        out.append(v)
    return out


def test_criterion_1_quadrature_oracles():
    lams = (1e2, 1e3, 1e4, 1e5)
    worst = 0.0
    for lam in lams:
        r1 = osc_integrate_1d(monomial(1, (0.0, 1.0)), lam)
        worst = max(worst, abs(r1.value - linear_phase_integral(lam))
                    / abs(linear_phase_integral(lam)))
        r2 = osc_integrate_1d(monomial(2, (0.0, 1.0)), lam)
        worst = max(worst, abs(r2.value - fresnel_integral(lam))
                    / abs(fresnel_integral(lam)))
    record(1, worst < 1e-8,
           f"linear/Fresnel oracle match, worst relative error {worst:.2e}")


def test_criterion_2_vdc_recovery():
    rep = suite_report("T2")
    checks = verdicts_for(rep, check="vdc_rate_recovered")
    assert len(checks) == 3
    devs = {v["case"]: abs(v["witness"]["delta_hat"] - v["witness"]["expected"])
            for v in checks}
    record(2, all(v["passed"] for v in checks),
           "fitted exponents for pure power phases within 0.03 of 1/N: "
           + ", ".join(f"{c}={d:.4f}" for c, d in sorted(devs.items())))


def test_criterion_3_composition_bounded():
    rep = suite_report("T1")
    checks = verdicts_for(rep, check="normalized_magnitudes_bounded",
                          case_prefix="x2_")
    assert len(checks) == 4  # monic d=2,3 and SND d=2,3
    ratios = {v["case"]: v["witness"]["max_over_median"] for v in checks}
    record(3, all(v["passed"] for v in checks),
           "|I| * lam^(1/2d) max/median <= 3 over the top two decades: "
           + ", ".join(f"{c}={r:.2f}" for c, r in sorted(ratios.items())))


def test_criterion_4_certificate_soundness_and_rate():
    sound_all, rate_all, n_cases = True, True, 0
    details = []
    for sid in ("T1", "T2", "T3", "T7"):
        rep = suite_report(sid)
        sound = verdicts_for(rep, check="certificate_soundness")
        rate = verdicts_for(rep, check="certificate_rate")
        n_cases += len(sound)
        sound_all = sound_all and all(v["passed"] for v in sound)
        rate_all = rate_all and all(v["passed"] for v in rate)
        worst = max((abs(v["witness"]["delta_hat"] - v["witness"]["expected"])
                     for v in rate), default=0.0)
        details.append(f"{sid}: {len(sound)} cases, worst rate dev {worst:.4f}")
    record(4, sound_all and rate_all,
           "zero soundness exceptions and certificate totals fit -delta/d "
           f"within 0.02 ({'; '.join(details)})")


def test_criterion_5_sublevel_constant():
    rep = suite_report("T5")
    checks = verdicts_for(rep, check="sublevel_within_constant")
    assert len(checks) == 2
    detail = ", ".join(
        f"{v['case']}: sup ratio {v['witness']['worst_ratio']:.3f} <= "
        f"C_delta {v['witness']['C_delta']:.3f}" for v in checks)
    record(5, all(v["passed"] for v in checks), detail)


def test_criterion_6_monic_inclusion():
    rep = suite_report("T6")
    v = verdicts_for(rep, check="zero_violations", case_prefix="monic_inclusion")[0]
    record(6, v["passed"], "1000 random monic polynomials, zero cover violations")


def test_criterion_7_snd_inclusion_and_failure():
    rep = suite_report("T6")
    snd = verdicts_for(rep, check="zero_violations", case_prefix="snd_inclusion")
    assert len(snd) == 4
    mono = verdicts_for(rep, check="b_min_monotone_in_inv_eta")[0]
    exceed = verdicts_for(rep, check="b_min_exceeds_10x_snd_constant")[0]
    ok = all(v["passed"] for v in snd) and mono["passed"] and exceed["passed"]
    record(7, ok,
           f"zero SND violations (d<=5); degenerate family B_min monotone, "
           f"last {exceed['witness']['b_min_last']:.2f} > "
           f"threshold {exceed['witness']['threshold']:.2f}")


def test_criterion_8_product_phases_and_log_factor():
    t4 = suite_report("T4")
    joint = verdicts_for(t4, check="joint_decay_exponent")[0]
    hlog = suite_report("H-LOG")
    logfit = verdicts_for(hlog, check="log_factor_present")[0]
    decay = verdicts_for(hlog, check="near_unit_decay")[0]
    xchecks = (verdicts_for(t4, check="reduction_cross_check")
               + verdicts_for(hlog, check="reduction_cross_check"))
    ok = (joint["passed"] and logfit["passed"] and decay["passed"]
          and all(v["passed"] for v in xchecks))
    record(8, ok,
           f"joint exponent {joint['witness']['delta_hat']:.4f} (target 1/3 +- 0.04); "
           f"log factor b={logfit['witness']['b']:.3f}, r2={logfit['witness']['r_squared']:.4f}; "
           f"xy decay {decay['witness']['delta_hat']:.3f} >= 0.9")


def test_criterion_9_planar_composition():
    rep = suite_report("T3")
    composed = verdicts_for(rep, check="composed_decay_at_least", case_prefix="xyq")
    sound = verdicts_for(rep, check="certificate_soundness")
    assert composed
    ok = all(v["passed"] for v in composed) and all(v["passed"] for v in sound)
    record(9, ok,
           f"perturbed planar phase composed exponent "
           f"{composed[0]['witness']['delta_hat']:.3f} >= 0.2 and certify_2d sound")


def test_criterion_10_power_transform():
    rep = suite_report("T7")
    v = verdicts_for(rep, check="power_decay_exponent")[0]
    record(10, v["passed"],
           f"|t|^1.5 outer transform exponent {v['witness']['delta_hat']:.4f} "
           f"within 0.05 of 1/3")


# the lambda-independent oracle of each T3, T4 and H-LOG case whose rows are
# integrals: xy_d2 is (xy)^2 / 2, the term 0.5 x^2 y^2; xyq_d2, the same P
# of xy + 0.1 x^2 y^2, has no oracle that holds at every lambda of its grid
ROW_ORACLES = {
    "xy_base": xy_square_integral,
    "xy_decay": xy_square_integral,
    "xy_d2": lambda lam: product_monomial_square_integral(2, 2, 0.5 * lam),
    "x3_y2": lambda lam: product_monomial_square_integral(3, 2, lam),
}
NO_ORACLE = {"xyq_d2"}


def test_every_planar_and_reduction_row_is_within_its_estimate():
    seen = set()
    for sid in ("T3", "T4", "H-LOG"):
        for row in suite_report(sid).rows:
            if "err_est" not in row or row["case"] in NO_ORACLE:
                continue
            oracle = ROW_ORACLES[row["case"]](row["lambda"])
            assert abs(complex(row["value_re"], row["value_im"]) - oracle) <= row["err_est"], row
            seen.add(row["case"])
    assert seen == set(ROW_ORACLES)
