"""Tests of the benchmark's own code: span arithmetic, tracing, references, seeding."""

import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import closed_forms
import spans
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def make_span(name, sid, parent, t0, t1, **counts):
    s = spans.Span(name, sid, parent)
    s.t0, s.t1 = t0, t1
    s.counts.update(counts)
    return s


# ---------------------------------------------------------------------------
# span and self-time arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("intervals, expected", [
    ([], 0.0),
    ([(1.0, 2.0), (3.0, 4.0)], 2.0),          # disjoint
    ([(1.0, 3.0), (2.0, 4.0)], 3.0),          # overlapping (two worker threads)
    ([(1.0, 5.0), (2.0, 3.0)], 4.0),          # nested
    ([(-1.0, 1.0), (9.0, 12.0)], 2.0),        # clipped to [0, 10]
])
def test_covered_is_union_length(intervals, expected):
    assert spans.covered(0.0, 10.0, intervals) == pytest.approx(expected)


def test_self_time_subtracts_union_of_children():
    sp = [
        make_span("a", 2, 1, 1.0, 4.0),
        make_span("b", 3, 1, 2.0, 6.0),       # overlaps a (another thread)
        make_span("c", 4, 3, 2.5, 3.0),       # grandchild: not subtracted from root
        make_span("harness.run_suite", 1, None, 0.0, 10.0),
    ]
    st = spans.self_times(sp)
    assert st[1] == pytest.approx(10.0 - 5.0)
    assert st[3] == pytest.approx(4.0 - 0.5)
    assert st[2] == pytest.approx(3.0)


def test_inclusive_counts_sum_descendants():
    sp = [
        make_span("c", 3, 2, 0.0, 1.0, phase_calls=5),
        make_span("b", 2, 1, 0.0, 2.0, phase_calls=2),
        make_span("a", 1, None, 0.0, 3.0, phase_calls=1),
    ]
    inc = spans.inclusive_counts(sp, {"phase_calls"})
    assert (inc[3]["phase_calls"], inc[2]["phase_calls"], inc[1]["phase_calls"]) == (5, 7, 8)


def test_layer_metrics_and_combine():
    sp = [
        make_span("quadrature.osc_integrate_1d", 2, 1, 1.0, 2.0, panels=10, phase_points=220),
        make_span("quadrature.osc_integrate_1d", 3, 1, 2.0, 4.0, panels=30, phase_points=700),
        make_span("harness.run_suite", 1, None, 0.0, 5.0),
    ]
    m = spans.layer_metrics(sp, "T2")
    assert set(m) == set(spans.metric_names())
    assert m["quadrature.osc_integrate_1d.calls"] == 2
    assert m["quadrature.osc_integrate_1d.self_s"] == pytest.approx(3.0)
    assert m["quadrature.osc_integrate_1d.points_per_panel"] == pytest.approx(23.0)
    assert m["harness.run_suite.self_s"] == pytest.approx(2.0)
    assert m["harness.T2.wall_s"] == pytest.approx(5.0)
    both = spans.combine([m, m])
    assert both["quadrature.osc_integrate_1d.panels"] == 80
    assert both["quadrature.osc_integrate_1d.points_per_panel"] == pytest.approx(23.0)


def test_tracer_parents_raises_and_evaluator_counts():
    tr = spans.Tracer()
    ev = tr.count_eval(lambda order, x: np.asarray(x) * 2.0)
    nested = tr.count_eval(lambda order, x: ev(order, x) + 1.0)

    def inner(x):
        return nested(0, x)

    def failing():
        raise ValueError("boom")

    w_inner = tr.wrap("inner", inner)
    w_fail = tr.wrap("fail", failing)
    w_outer = tr.wrap("outer", lambda: (w_inner(np.zeros(7)), ev(0, np.zeros((2, 3)))))
    w_outer()
    with pytest.raises(ValueError):
        w_fail()
    by_name = {s.name: s for s in tr.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["fail"].parent is None and by_name["fail"].counts["raised"] == 1
    # the nested evaluator call is counted once, at the outermost evaluator
    assert by_name["inner"].counts["phase_calls"] == 1
    assert by_name["inner"].counts["phase_points"] == 7
    assert by_name["outer"].counts["phase_points"] == 6


def test_worker_thread_spans_hang_off_the_suite_span():
    tr = spans.Tracer()
    work = tr.wrap("work", lambda: None)

    def suite():
        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tr._root = None
    w_suite = tr.wrap("harness.run_suite", suite,
                      before=lambda s, a, k: setattr(tr, "_root", s.id))
    w_suite()
    by_name = {s.name: s for s in tr.spans}
    assert by_name["work"].parent == by_name["harness.run_suite"].id


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _gauss(f, a, b, panels=400, order=20):
    x, w = leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    pts = mid[:, None] + half[:, None] * x
    return ((f(pts) @ w) * half).sum()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("lam", [7.0, 150.0, -40.0])
def test_monomial_integral_matches_direct_quadrature(n, lam):
    direct = _gauss(lambda x: np.exp(1j * lam * x**n), 0.0, 1.0)
    assert abs(closed_forms.monomial_integral(n, lam) - direct) < 1e-12


@pytest.mark.parametrize("lam", [3.0, 80.0])
def test_xy_integral_matches_direct_quadrature(lam):
    # int_0^1 (e^{i lam y} - 1) / (i lam y) dy, the x integral done exactly
    direct = _gauss(lambda y: np.expm1(1j * lam * y) / (1j * lam * y), 0.0, 1.0)
    assert abs(closed_forms.xy_square_integral(lam) - direct) < 1e-12


def test_band_area_matches_midpoint_rule():
    eps = 0.03
    y = (np.arange(4000) + 0.5) / 4000
    # exact slice measure min(1, eps / y), integrated by the midpoint rule
    area = np.minimum(1.0, eps / y).mean()
    assert closed_forms.xy_band_area(eps) == pytest.approx(area, rel=1e-4)


def test_phi_hat_matches_direct_transform_of_the_bump():
    # phi = indicator[-1.5, 1.5] convolved with rho_h, h = 1/2, tabulated by quadrature
    t, w = leggauss(400)
    rho = np.exp(-1.0 / (1.0 - t**2))
    rho /= rho @ w
    xs, wx = leggauss(200)
    x = 2.0 * xs  # [-2, 2]
    inside = np.abs(x[:, None] - 0.5 * t[None, :]) <= 1.5
    phi = (inside * rho * w).sum(axis=1)
    for xi in (0.0, 0.4, 1.3):
        direct = 2.0 * (phi * np.cos(2 * np.pi * xi * x)) @ wx
        assert float(closed_forms.phi_hat(xi)) == pytest.approx(direct, abs=2e-3)
    assert float(closed_forms.phi_hat(0.0)) == pytest.approx(3.0, rel=1e-13)


@pytest.mark.parametrize("delta", [0.5, 1.0 / 3.0])
def test_c_delta_matches_brute_force_integral(delta):
    # xi = u^p over uniform panels that ignore the zeros of phi_hat
    p = 1.0 / (1.0 - delta)
    brute = p * _gauss(lambda u: np.abs(closed_forms.phi_hat(u**p)), 0.0, 64.0 ** (1.0 / p),
                       panels=6000, order=6)
    assert closed_forms.c_delta(delta) == pytest.approx(2.0 * brute, rel=1e-6)


def test_monic_inclusion_check(monkeypatch):
    coeffs = np.array([-0.25, 0.0, 1.0])   # (x - 1/2)(x + 1/2)
    assert closed_forms.monic_inclusion_holds(coeffs, 0.1)
    monkeypatch.setattr(closed_forms, "COVER_SLACK", -0.099)
    assert not closed_forms.monic_inclusion_holds(coeffs, 0.1)


def test_root_match_error():
    coeffs = np.array([-0.25, 0.0, 1.0])   # roots -1/2, 1/2
    assert closed_forms.root_match_error([0.5, -0.5], coeffs) < 1e-15
    assert closed_forms.root_match_error([0.5, -0.5 + 1e-6], coeffs) == pytest.approx(1e-6)
    assert closed_forms.root_match_error([0.5, 0.5], coeffs) == pytest.approx(1.0)
    assert closed_forms.root_match_error([0.5], coeffs) == math.inf


def test_monic_draw_is_seeded():
    a, ea = closed_forms.monic_draw(5, 3, 6)
    b, eb = closed_forms.monic_draw(5, 3, 6)
    assert np.array_equal(a, b) and ea == eb and a[-1] == 1.0


# ---------------------------------------------------------------------------
# seeding and operation counts
# ---------------------------------------------------------------------------


def base_options(suite):
    from oscint import harness

    return harness.load_config(suite, str(workloads.config_path(suite))).options


def test_seeded_grids_shift_down_within_a_fraction_of_a_step():
    base = base_options("H-LOG")
    one = workloads.seeded_options("H-LOG", base, 1)
    assert one == workloads.seeded_options("H-LOG", base, 1)
    assert one != workloads.seeded_options("H-LOG", base, 2)
    for key in ("eps_grid", "lambda_grid"):
        spec, orig = one[key], base[key]
        ratio = spec["hi"] / orig["hi"]
        assert spec["lo"] / orig["lo"] == pytest.approx(ratio)
        assert 10 ** (-workloads.SHIFT_STEPS / orig["per_decade"]) <= ratio <= 1.0
        assert workloads.grid_size(spec) == workloads.grid_size(orig)


def test_seeded_config_and_t6_sample_follow_the_seed():
    cfg = workloads.seeded_config("T6", 7)
    assert cfg.seed == 7
    assert cfg.options == workloads.seeded_options("T6", base_options("T6"), 7)
    sample = workloads.t6_sample(7, 200)
    assert sample == workloads.t6_sample(7, 200) != workloads.t6_sample(8, 200)
    assert len(set(sample)) == workloads.T6_ORACLE_SAMPLE and 0 <= min(sample) <= max(sample) < 200


@pytest.mark.parametrize("outcome", ["crash", "oscint_error"])
def test_run_without_a_completed_round_reports_nothing(monkeypatch, outcome):
    import run

    def fake_child(suite, seed, env, deadline, cpus, mode=""):
        if outcome == "crash":
            raise run.SuiteFailed(f"{suite} exited 1")
        return {"setup_s": 0.1, "wall_s": 0.01, "cpu_s": 0.01, "peak_rss_mb": 40.0,
                "error": "RootConvergenceError: no", "verdicts": [], "rows": [],
                "c_delta": []}, 1.0

    monkeypatch.setattr(run, "run_child", fake_child)
    assert run.run("covers", 1, 0.0, False) is None


def test_scale_times_scales_times_only():
    import run

    res = run.scale_times({"setup_s": 1.0, "wall_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 40.0,
                           "layers": {"a.b.self_s": 4.0, "a.b.calls": 7}}, 0.5)
    assert res == {"setup_s": 0.5, "wall_s": 1.0, "cpu_s": 1.5, "peak_rss_mb": 40.0,
                   "layers": {"a.b.self_s": 2.0, "a.b.calls": 7}}
    assert run.cpu_speed() > 0


def test_grid_size_matches_oscint_grid():
    from oscint.decay import geometric_grid

    for lo, hi, pd in [(316.0, 3e5, 3), (1e-4 * 0.99, 0.1 * 0.99, 4), (1e3, 1e6, 3)]:
        spec = {"lo": lo, "hi": hi, "per_decade": pd}
        assert workloads.grid_size(spec) == geometric_grid(lo, hi, pd).size


def test_expected_ops_counts_every_workload_suite():
    for wl in workloads.WORKLOADS.values():
        for suite in wl["suites"]:
            verdicts, oracles = workloads.expected_ops(suite, base_options(suite))
            assert verdicts >= 1 and oracles >= 0
    assert workloads.expected_ops("T6", base_options("T6")) == (8, 32)
    assert math.isclose(workloads.config_seed(-1), 2**32 - 1)


def test_benchmark_json_matches_what_the_runs_report():
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, spans.metric_unit(n)) for n in spans.metric_names()]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
