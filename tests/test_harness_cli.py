import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscint
from oscint.errors import ConfigError
from oscint.harness import ExperimentConfig, SuiteReport, load_config, run_suite
from oscint.quadrature import QuadConfig

SMALL_T6 = {
    "monic_trials": 40,
    "monic_max_degree": 4,
    "snd_trials": 100,
    "snd_degrees": [2],
    "etas": [0.1, 0.01],
    "family_k": 2,
    "young_trials": 20,
}


def small_t6_config() -> ExperimentConfig:
    return ExperimentConfig(suite="T6", seed=7, options=dict(SMALL_T6))


def test_default_configs_load():
    for sid in ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "H-LOG"):
        cfg = load_config(sid)
        assert cfg.suite == sid
        assert cfg.seed == 20260809
        assert cfg.quad.phase_variation_cap == pytest.approx(2.8)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        load_config("T9")


def test_include_merge(tmp_path):
    (tmp_path / "base.json").write_text(json.dumps(
        {"seed": 5, "options": {"a": 1, "grid": {"lo": 1, "hi": 100}}}))
    (tmp_path / "own.json").write_text(json.dumps(
        {"suite": "T6", "include": ["base.json"],
         "options": {"grid": {"hi": 10.0}, "b": 2}}))
    from oscint.harness import _load_json_with_includes

    data = _load_json_with_includes(tmp_path / "own.json")
    assert data["seed"] == 5
    assert data["options"]["grid"] == {"lo": 1, "hi": 10.0}
    assert data["options"]["a"] == 1 and data["options"]["b"] == 2


def test_malformed_json_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"suite": "T6",\n  "seed": }')
    with pytest.raises(ConfigError, match="line 2"):
        load_config("T6", str(bad))


def test_rerun_byte_identical_csv():
    rep1 = run_suite(small_t6_config())
    rep2 = run_suite(small_t6_config())
    assert rep1.csv_body() == rep2.csv_body()
    assert rep1.passed


def test_report_written_and_recomputable(tmp_path):
    rep = run_suite(small_t6_config())
    csv_path, json_path = rep.write(tmp_path)
    body = csv_path.read_text()
    header = body.splitlines()[0].split(",")
    assert header == ["suite", "case", "lambda", "eps", "c", "value_re", "value_im",
                      "magnitude", "err_est", "bound", "delta_hat", "verdict"]
    doc = json.loads(json_path.read_text())
    assert doc["suite"] == "T6" and doc["passed"] is True
    assert doc["stamp"]["seed"] == 7
    assert doc["stamp"]["numpy"] == np.__version__
    # the monic verdict is recomputable from the rows alone
    lines = [ln.split(",") for ln in body.splitlines()[1:]]
    monic_rows = [ln for ln in lines if ln[1] == "monic_inclusion"]
    assert monic_rows and float(monic_rows[0][7]) == 0.0


def _run_python(*args, **env_vars):
    # pytest's `pythonpath` setting reaches this process only; the child
    # imports the same oscint through PYTHONPATH
    src = str(Path(oscint.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=300, env=env,
    )


def _run_cli(*args, **env_vars):
    return _run_python("-m", "oscint.cli", *args, **env_vars)


def test_cli_integrate_example():
    out = _run_cli("integrate", "--family", "monomial", "--n", "2",
                   "--lambda", "100", "--interval", "0", "1")
    assert out.returncode == 0
    assert "value" in out.stdout and "error_estimate" in out.stdout
    # matches the Fresnel oracle magnitude
    mag = float(out.stdout.split("|value| = ")[1].splitlines()[0])
    assert mag == pytest.approx(0.08378682517, abs=1e-8)


def test_cli_integrate_warns_when_refinement_does_not_converge():
    out = _run_cli("integrate", "--family", "monomial", "--n", "2",
                   "--lambda", "1e4", "--rel-tol", "1e-16")
    assert out.returncode == 0
    assert "warning: refinement did not converge" in out.stderr
    assert "value" in out.stdout


def test_cli_integrate_silent_when_converged():
    out = _run_cli("integrate", "--family", "monomial", "--n", "2", "--lambda", "1e4")
    assert out.returncode == 0
    assert "warning" not in out.stdout + out.stderr


@pytest.mark.parametrize("family, key", [("monomial", "n")])
def test_cli_family_missing_key_is_a_typed_error(family, key):
    out = _run_cli("integrate", "--family", family, "--lambda", "10")
    assert out.returncode == 2
    assert "config error:" in out.stderr and f"'{key}'" in out.stderr
    assert "Traceback" not in out.stderr


_FAMILIES = ("monomial", "polynomial", "sin", "exp", "monomial_sin", "xy", "xy_quad")


def test_cli_unknown_family_names_every_family():
    out = _run_cli("integrate", "--family", "product_monomial", "--lambda", "10")
    assert out.returncode == 2
    assert "config error:" in out.stderr and "Traceback" not in out.stderr
    assert all(fam in out.stderr for fam in _FAMILIES)


def test_cli_integrate_help_lists_exactly_the_families():
    out = _run_cli("integrate", "--help")
    assert out.returncode == 0
    listed = " ".join(out.stdout.split()).split("Phase family: ")[1].split(" (on")[0]
    assert listed == "1D monomial, polynomial, sin, exp, monomial_sin; 2D xy, xy_quad"


def test_cli_integrate_2d_family():
    out = _run_cli("integrate", "--family", "xy", "--lambda", "10")
    assert out.returncode == 0, out.stderr
    assert "|value| = " in out.stdout


# Integrators, the lambda sweep that T1, T2 and T7 run among them, and roots
# and cover ratios: their bits must not depend on how many threads OpenBLAS
# uses.  Levin solves, roots and cover ratios run through LAPACK; the panel
# rule and the Levin residual are one-row products, rounded from each row's
# own data.
_BITS_SCRIPT = """
from oscint import (Polynomial, compose_with_polynomial, cover_ratio, degenerating_family,
                    monomial, osc_integrate_1d, osc_integrate_1d_sweep, osc_integrate_2d, roots,
                    xy_phase)
from oscint.phases import compose2d_with_polynomial
from oscint.reduction import product_monomial_integral
from oscint.sublevel import osc_to_sublevel_constant
print(repr(osc_integrate_1d(monomial(2), 2e5)))
print(repr(osc_integrate_1d(monomial(3), 1e8)))
print(repr(osc_integrate_1d(compose_with_polynomial(monomial(2), (0.0, 0.0, 0.5, 1.0 / 3.0)), 1e6)))
print(repr(osc_integrate_1d_sweep(compose_with_polynomial(monomial(2), (0.0, 0.0, 0.5)),
                                  [0.0, 30.0, -1e3, 1e5, 1e7])))
print(repr(osc_integrate_2d(xy_phase(), 300.0)))
half_xy2 = compose2d_with_polynomial(xy_phase(), (0.0, 0.0, 0.5))
print(repr(osc_integrate_2d(half_xy2, 1e3)))
print(repr(product_monomial_integral(half_xy2, 1e5)))
print(repr(osc_to_sublevel_constant(0.5)))
print(repr(roots(Polynomial((-3.0, 1.0, 0.0, -2.0, 0.0, 1.0)))))
print(repr(roots(degenerating_family(2, 1e-4))))
print(repr(cover_ratio(degenerating_family(2, 1e-4))))
"""


def test_results_do_not_depend_on_blas_threads():
    outs = [_run_python("-c", _BITS_SCRIPT, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
    assert all(o.returncode == 0 for o in outs), [o.stderr for o in outs]
    assert outs[0].stdout == outs[1].stdout
    assert outs[0].stdout.count("\n") == 11


def test_cover_ratio_and_certify_2d_leave_numpy_ma_unimported():
    # in numpy 2.4, the first np.unique call imports numpy.ma, about 30 ms
    out = _run_python("-c", f"""
import sys
from oscint import Polynomial, cover_ratio, degenerating_family, xy_phase
from oscint.certificates import certify_2d
from oscint.harness import ExperimentConfig, run_suite
cover_ratio(degenerating_family(2, 1e-4))
certify_2d(xy_phase(), Polynomial((0.0, 1.0)), 300.0)
run_suite(ExperimentConfig(suite="T6", seed=7, options={SMALL_T6!r}))
print("numpy.ma" in sys.modules)
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_cli_sublevel():
    out = _run_cli("sublevel", "--family", "monomial", "--n", "1",
                   "--c", "0.5", "--eps", "0.1")
    assert out.returncode == 0
    assert float(out.stdout.split("measure = ")[1].splitlines()[0]) == pytest.approx(0.2, abs=1e-10)


def test_cli_certify_verify():
    out = _run_cli("certify", "--family", "monomial", "--n", "2",
                   "--poly", "0", "--poly", "0", "--poly", "0.5",
                   "--lambda", "10000", "--mode", "vdc", "--verify")
    assert out.returncode == 0
    assert "total_bound" in out.stdout and "sound = True" in out.stdout


@pytest.mark.parametrize("outer", [(), ("--poly", "0", "--poly", "0", "--poly", "0.5",
                                        "--power", "1.5")])
def test_cli_certify_needs_exactly_one_outer_exit_2(outer):
    out = _run_cli("certify", "--family", "monomial", "--n", "2", *outer,
                   "--lambda", "10000")
    assert out.returncode == 2
    assert "exactly one of --poly and --power" in out.stderr


def test_cli_certify_power():
    out = _run_cli("certify", "--family", "monomial", "--n", "2", "--power", "1.5",
                   "--lambda", "10000", "--verify")
    assert out.returncode == 0, out.stderr
    assert "sound = True" in out.stdout


def test_cli_fit(tmp_path):
    rows = ["lambda,magnitude"] + [f"{l},{l**-0.5}" for l in
                                   (1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6)]
    p = tmp_path / "mags.csv"
    p.write_text("\n".join(rows) + "\n")
    out = _run_cli("fit", str(p))
    assert out.returncode == 0
    assert "delta_hat = 0.5000" in out.stdout


def test_cli_fit_skips_rows_without_lambda(tmp_path):
    # a suite CSV: band rows carry a magnitude but no lambda, fit rows neither
    header = "suite,case,lambda,eps,c,magnitude,err_est,delta_hat,verdict"
    band = [f"H-LOG,xy_sublevel,,{e},0.0,{2 * e},,," for e in (1e-3, 1e-2, 1e-1)]
    decay = [f"H-LOG,xy_decay,{l},,,{l**-0.5},1e-14,," for l in
             (1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6)]
    fitrow = ["H-LOG,xy_decay,,,,,,0.5,fit_ok"]
    p = tmp_path / "h_log_rows.csv"
    p.write_text("\n".join([header] + band + decay + fitrow) + "\n")
    out = _run_cli("fit", str(p))
    assert out.returncode == 0, out.stderr
    assert "delta_hat = 0.5000" in out.stdout


def test_cli_fit_with_no_decay_rows_exit_2(tmp_path):
    # a T5 or T6 rows CSV: every column is there, but no row has a lambda
    p = tmp_path / "t6_rows.csv"
    p.write_text("suite,case,lambda,eps,c,magnitude,err_est,verdict\n"
                 "T6,monic_d2,,0.1,,1.2,,ok\nT6,monic_d2,,0.01,,1.3,,ok\n")
    out = _run_cli("fit", str(p))
    assert out.returncode == 2
    assert "config error:" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("header", ["eps,magnitude", "lambda,value_re"])
def test_cli_fit_without_a_needed_column_exit_2(tmp_path, header):
    p = tmp_path / "bad.csv"
    p.write_text(header + "\n0.1,0.2\n")
    out = _run_cli("fit", str(p))
    assert out.returncode == 2
    assert "config error:" in out.stderr and "Traceback" not in out.stderr


def test_cli_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope}")
    out = _run_cli("suite", "T6", "--config", str(bad))
    assert out.returncode == 2


@pytest.mark.parametrize("demo", ["demo_certificates", "demo_decay_fits", "demo_inclusions",
                                  "demo_quadrature", "demo_sublevel"])
def test_demo_runs(demo):
    path = Path(__file__).resolve().parents[1] / "demos" / f"{demo}.py"
    out = _run_python(str(path))
    assert out.returncode == 0, out.stderr


def test_cli_estimate_b():
    out = _run_cli("estimate-b", "--degree", "1", "--trials", "100", "--seed", "1")
    assert out.returncode == 0
    assert "B(1) = 1.0" in out.stdout


def test_cli_suite_small(tmp_path):
    cfg = {"suite": "T6", "seed": 7, "options": dict(SMALL_T6)}
    p = tmp_path / "t6_small.json"
    p.write_text(json.dumps(cfg))
    out = _run_cli("suite", "T6", "--config", str(p), "--out", str(tmp_path / "rep"))
    assert out.returncode == 0, out.stderr
    assert "[PASS]" in out.stdout
    assert (tmp_path / "rep" / "t6_rows.csv").exists()


# fit_decay needs at least 8 samples over two decades
SOUND_GRID = {"lo": 1e3, "hi": 1e5, "per_decade": 4}
CERT_GRID = {"lo": 1e4, "hi": 1e6, "per_decade": 4}

SMALL_T1 = {
    "lambda_sound": SOUND_GRID, "cert_sweep": CERT_GRID, "bounded_window": [1e3, 1e5],
    "cases": [
        {"name": "x2_monic_d2", "f": {"family": "monomial", "n": 2}, "delta": 0.5,
         "poly": [0.0, 0.0, 0.5]},
        {"name": "x2_snd_d3", "f": {"family": "monomial", "n": 2}, "delta": 0.5,
         "poly": [0.0, 0.0, 0.5, 1.0 / 3.0]},
    ],
}

SMALL_T2 = {
    "baselines": [2],
    "baseline_grid": SOUND_GRID,
    "lambda_sound": SOUND_GRID,
    "cert_sweep": CERT_GRID,
    "cases": [{"name": "x2_monic_d2_N2", "f": {"family": "monomial", "n": 2}, "N": 2,
               "poly": [0.0, 0.0, 0.5]}],
}


def test_cli_suite_warns_when_refinement_does_not_converge(tmp_path):
    # no panel reaches a relative tolerance of 1e-15 within the refinement's
    # pass cap, so the integrals stop over tolerance
    cfg = {"suite": "T2", "quad": {"rel_tol": 1e-15, "phase_variation_cap": 2.8},
           "options": SMALL_T2}
    p = tmp_path / "t2_tight.json"
    p.write_text(json.dumps(cfg))
    out = _run_cli("suite", "T2", "--config", str(p), "--out", str(tmp_path / "rep"))
    assert out.returncode == 0, out.stderr
    assert "warning: refinement did not converge" in out.stderr
    doc = json.loads((tmp_path / "rep" / "t2_report.json").read_text())
    assert doc["nonconverged"]["count"] > 0
    assert doc["nonconverged"]["first"] == {"case": "baseline_N2", "lambda": 1000.0}


SMALL_T3 = {
    "lambda_sound": {"lo": 10.0, "hi": 1000.0, "per_decade": 4}, "cert_sweep": CERT_GRID,
    "cases": [{"name": "xy_base", "f2": {"family": "xy"}, "poly": [0.0, 1.0]}],
}


def test_cli_t3_hi_rows_need_a_phase_the_reduction_takes(tmp_path):
    # xyq_d2 integrates P(xy + 0.1 x^2 y^2), not one term c x^k y^j
    case = {"name": "xyq_d2", "f2": {"family": "xy_quad", "c": 0.1}, "poly": [0.0, 0.0, 0.5],
            "hi_rows": [1e4]}
    p = tmp_path / "t3_hi.json"
    p.write_text(json.dumps({"suite": "T3", "options": {
        "lambda_sound": {"lo": 10.0, "hi": 100.0, "per_decade": 1}, "cert_sweep": CERT_GRID,
        "cases": [case]}}))
    out = _run_cli("suite", "T3", "--config", str(p), "--out", str(tmp_path / "rep"))
    assert out.returncode == 1
    assert "error [PRECONDITION]" in out.stderr and "Traceback" not in out.stderr


def test_t3_notes_certificates_whose_region_quadrature_stops(monkeypatch):
    from oscint import harness
    from test_certificates import stopped_adaptive_slots

    monkeypatch.setattr("oscint.certificates._adaptive_slots", stopped_adaptive_slots)
    rep = run_suite(ExperimentConfig(suite="T3", quad=QuadConfig(phase_variation_cap=2.8),
                                     options=SMALL_T3))
    lams = [float(l) for key in ("lambda_sound", "cert_sweep")
            for l in harness._grid(SMALL_T3[key])]
    assert rep.unconverged == [{"case": "xy_base", "lambda": l} for l in lams]


def test_t4_notes_reductions_whose_tail_refinement_stops(monkeypatch):
    # no Levin piece or panel of the tail reaches a tolerance of 1e-30: the
    # pieces are halved down to panels, whose refinement hits its pass cap
    from oscint import harness

    monkeypatch.setattr("oscint.reduction.TAIL_RTOL", 1e-30)
    grid = {"lo": 50.0, "hi": 5000.0, "per_decade": 4}
    rep = run_suite(ExperimentConfig(suite="T4", options={"cases": [
        {"name": "x3_y2", "k": 3, "j": 2, "lambda_grid": grid}]}))
    assert rep.unconverged == [{"case": "x3_y2", "lambda": float(l)}
                               for l in harness._grid(grid)]


def test_hlog_notes_band_areas_whose_quadrature_stops(monkeypatch):
    from oscint import harness
    from test_certificates import stopped_adaptive_slots

    monkeypatch.setattr("oscint.sublevel._adaptive_slots", stopped_adaptive_slots)
    opts = {"eps_grid": {"lo": 1e-3, "hi": 0.1, "per_decade": 4},
            "lambda_grid": {"lo": 1e3, "hi": 1e5, "per_decade": 4}, "cross_check": [100.0]}
    rep = run_suite(ExperimentConfig(suite="H-LOG", quad=QuadConfig(phase_variation_cap=2.8),
                                     options=opts))
    assert rep.unconverged == [{"case": "xy_sublevel", "eps": float(e)}
                               for e in harness._grid(opts["eps_grid"])]


def test_t1_notes_certificates_whose_c_delta_quadrature_stops(monkeypatch):
    from oscint import harness
    from test_certificates import stopped_adaptive_slots

    monkeypatch.setattr("oscint.sublevel._constant_cache", {})
    monkeypatch.setattr("oscint.sublevel._adaptive_slots", stopped_adaptive_slots)
    rep = run_suite(ExperimentConfig(suite="T1", quad=QuadConfig(phase_variation_cap=2.8),
                                     options=SMALL_T1))
    assert rep.unconverged == [{"case": case["name"], "lambda": float(l)}
                               for case in SMALL_T1["cases"]
                               for key in ("lambda_sound", "cert_sweep")
                               for l in harness._grid(SMALL_T1[key])]


def test_t1_fits_each_base_phase_once(monkeypatch):
    """Two T1 cases that share f build it once and sweep its integrals once."""
    from oscint import harness

    built, swept = [], []
    build, integrate = harness.phase_from_config, harness.osc_integrate_1d_sweep

    def counted_build(spec):
        built.append(build(spec))
        return built[-1]

    def counted_integrate(g, lams, cfg):
        if any(g is f for f in built):
            swept.append(list(lams))
        return integrate(g, lams, cfg=cfg)

    monkeypatch.setattr(harness, "phase_from_config", counted_build)
    monkeypatch.setattr(harness, "osc_integrate_1d_sweep", counted_integrate)
    rep = run_suite(ExperimentConfig(suite="T1", quad=QuadConfig(phase_variation_cap=2.8),
                                     options=SMALL_T1))
    assert len(built) == 1
    assert swept == [[float(lam) for lam in harness._grid(SMALL_T1["lambda_sound"])]]
    checks = [v["check"] for v in rep.verdicts]
    assert checks.count("base_rate_recovered") == len(SMALL_T1["cases"]) == 2


def test_planar_suites_integrate_each_grid_in_one_sweep(monkeypatch):
    """A T3 case integrates its grid in one osc_integrate_2d_sweep call, and
    a T4 or H-LOG cross-check its lambdas in one."""
    from oscint import harness

    swept = []
    sweep = harness.osc_integrate_2d_sweep

    def counted_sweep(g, lams, cfg):
        swept.append(list(lams))
        return sweep(g, lams, cfg=cfg)

    monkeypatch.setattr(harness, "osc_integrate_2d_sweep", counted_sweep)
    cases = [*SMALL_T3["cases"], {"name": "xy_d2", "f2": {"family": "xy"}, "poly": [0.0, 0.0, 0.5]}]
    run_suite(ExperimentConfig(suite="T3", quad=QuadConfig(phase_variation_cap=2.8),
                               options={**SMALL_T3, "cases": cases}))
    assert swept == [[float(l) for l in harness._grid(SMALL_T3["lambda_sound"])]] * 2
    swept.clear()
    run_suite(ExperimentConfig(suite="T4", options={"cases": [
        {"name": "x3_y2", "k": 3, "j": 2, "lambda_grid": {"lo": 50.0, "hi": 5000.0,
                                                          "per_decade": 4},
         "cross_check": [316.0, 1000.0]}]}))
    assert swept == [[316.0, 1000.0]]
    swept.clear()
    run_suite(ExperimentConfig(suite="H-LOG", quad=QuadConfig(phase_variation_cap=2.8), options={
        "eps_grid": {"lo": 1e-3, "hi": 0.1, "per_decade": 4},
        "lambda_grid": {"lo": 1e3, "hi": 1e5, "per_decade": 4}, "cross_check": [100.0, 1e3]}))
    assert swept == [[100.0, 1e3]]


@pytest.mark.parametrize("degrees", [[2, 3], [2]])
def test_t6_computes_each_cover_ratio_once(monkeypatch, degrees):
    """Each monic draw, SND draw and eta goes through the cover kernel once:
    T6 reads the SND ratios estimate_B computed, and estimates the reference
    degree of the 10x check (3 here) only when it has not already."""
    from oscint import harness, polynomials

    calls = {"rows": 0, "estimate_B": 0}
    kernel, estimate = polynomials._band_candidates, harness.estimate_B

    def counted_kernel(c, re, eps):
        calls["rows"] += c.shape[0]
        return kernel(c, re, eps)

    def counted_estimate(*args, **kwargs):
        calls["estimate_B"] += 1
        return estimate(*args, **kwargs)

    monkeypatch.setattr(polynomials, "_band_candidates", counted_kernel)
    monkeypatch.setattr(harness, "estimate_B", counted_estimate)
    opts = dict(SMALL_T6, snd_degrees=degrees, exceed_at_eta=0.01)
    rep = run_suite(ExperimentConfig(suite="T6", seed=7, options=opts))
    checks = [v["check"] for v in rep.verdicts]
    assert "b_min_exceeds_10x_snd_constant" in checks
    assert checks.count("zero_violations") == len(degrees) + 2
    assert calls["estimate_B"] == 2
    # no retry fires on this seed
    assert calls["rows"] == (SMALL_T6["monic_trials"] + 2 * SMALL_T6["snd_trials"]
                             + len(SMALL_T6["etas"]))
    assert rep.unconverged == []


def test_t6_notes_snd_trials_retried_at_the_looser_root_tolerance(monkeypatch):
    from oscint import polynomials

    # a negative tolerance fails every strict residual check; degree 2 draws
    # and the quadratic monic draws take closed forms, which have none
    monkeypatch.setattr(polynomials, "COVER_ROOT_TOL", -1.0)
    opts = dict(SMALL_T6, monic_max_degree=2, snd_degrees=[2, 3])
    rep = run_suite(ExperimentConfig(suite="T6", seed=7, options=opts))
    assert rep.passed
    assert rep.unconverged == [{"case": "snd_inclusion_d3", "trial": t, "root_tol": 1e-5}
                               for t in range(SMALL_T6["snd_trials"])]


def test_t6_threshold_cover_check_fails_on_short_thresholds(monkeypatch):
    """The product threshold cover verdict fails, with a witness, when the
    thresholds multiply to less than eps."""
    import dataclasses

    from oscint import harness

    young_cover = harness.young_cover

    def short(factors, eps):
        yc = young_cover(factors, eps)
        return dataclasses.replace(yc, thresholds=tuple(0.5 * t for t in yc.thresholds))

    monkeypatch.setattr(harness, "young_cover", short)
    rep = run_suite(small_t6_config())
    verdict = next(v for v in rep.verdicts if v["case"] == "product_threshold_cover")
    assert not verdict["passed"] and verdict["witness"]["trial"] == 0
    assert verdict["witness"]["threshold_product"] < verdict["witness"]["eps"]
    row = next(r for r in rep.rows if r["case"] == "product_threshold_cover")
    assert row["magnitude"] == SMALL_T6["young_trials"]
