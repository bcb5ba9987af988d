"""Experiment suites wiring configs to the library, with CSV/JSON reports.

Each suite checks one family of estimates end to end and reports one row per
(case, lambda) or (case, eps) plus per-case verdicts carrying witnesses.
Reruns with the same config and seed produce byte-identical CSV bodies; the
environment stamp lives in the JSON report only.

The runners share their steps, which work on whole lambda grids: a 1D grid
is integrated by one `osc_integrate_1d_sweep` call (`_integrals`), and a
composition case certifies its soundness grid and its certificate sweep in
one `certify_1d_sweep` run (`_composition_case`), and a T3 case integrates
its grid in one `osc_integrate_2d_sweep` call and certifies all its lambdas
in one `certify_2d_sweep` call.  `_soundness_sweep` turns a grid's
integrals and certificates into rows (1D and planar), noting in
`unconverged`, lambda by lambda, each integral and then each certificate
whose quadrature stopped over tolerance; `_reduction_sweep` runs the
profile reduction with its planar cross-check, one `osc_integrate_2d_sweep`
call, and notes both so, `_value_row` and `_sample` turn an integral into a
row and a decay sample, and `_rate_check` fits a decay exponent and judges
it.

Suites:
  T1     polynomial composition under a decay hypothesis (general mode)
  T2     derivative-lower-bound composition (vdc mode) plus pure baselines
  T3     planar composition at n = 2 with mixed-derivative hypotheses
  T4     product phases f(x) g(y)
  T5     the oscillation-to-sublevel constant against measured sublevels
  T6     root-proximity covers: monic, SND, product thresholds, degeneration
  T7     outer power transform |t|^s
  H-LOG  the xy phase: sublevel log factor and near-1 oscillatory decay
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import PowerTransform, certify_1d_sweep, certify_2d_sweep
from .decay import DecaySample, fit_decay, fit_log_model, geometric_grid
from .errors import ConfigError
from .phases import (
    compose2d_with_polynomial,
    compose_with_polynomial,
    compose_with_power,
    flat_rows,
    monotone_partition,
    phase2d_from_config,
    phase_from_config,
    xy_phase,
)
from .polynomials import (
    Polynomial,
    RETRY_ROOT_TOL,
    cover_ratio,
    cover_violations_rows,
    degenerating_family,
    estimate_B,
    young_cover,
)
from .quadrature import QuadConfig, osc_integrate_1d_sweep, osc_integrate_2d_sweep
from .reduction import product_monomial_integral
from .sublevel import band_sets, osc_to_sublevel_constant, sublevel_2d_sweep

CSV_COLUMNS = ("suite", "case", "lambda", "eps", "c", "value_re", "value_im",
               "magnitude", "err_est", "bound", "delta_hat", "verdict")

SUITE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "H-LOG")


# ---------------------------------------------------------------------------
# Config loading with includes
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    suite: str
    seed: int = 20260809
    output_dir: str = "reports"
    quad: QuadConfig = field(default_factory=QuadConfig)
    options: dict = field(default_factory=dict)


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _load_json_with_includes(path: Path, stack: tuple = ()) -> dict:
    if str(path) in stack:
        raise ConfigError(f"include cycle through {path}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    merged: dict = {}
    for inc in data.pop("include", []):
        inc_path = (path.parent / inc).resolve()
        merged = _deep_merge(merged, _load_json_with_includes(inc_path, stack + (str(path),)))
    return _deep_merge(merged, data)


def _default_config_path(suite: str) -> Path:
    name = suite.replace("-", "_").lower() + ".json"
    ref = resources.files("oscint") / "configs" / name
    with resources.as_file(ref) as p:
        return Path(p)


def load_config(suite: str, config: str = "default") -> ExperimentConfig:
    if suite not in SUITE_IDS:
        raise ConfigError(f"unknown suite {suite!r} (at $.suite); known: {', '.join(SUITE_IDS)}")
    path = _default_config_path(suite) if config == "default" else Path(config)
    data = _load_json_with_includes(path.resolve())
    if data.get("suite", suite) != suite:
        raise ConfigError(f"config {path} declares suite {data.get('suite')!r}, expected {suite!r}")
    quad_args = data.get("quad", {})
    try:
        quad = QuadConfig(**quad_args)
    except TypeError as exc:
        raise ConfigError(f"bad quad config (at $.quad): {exc}") from exc
    return ExperimentConfig(
        suite=suite,
        seed=int(data.get("seed", 20260809)),
        output_dir=str(data.get("output_dir", "reports")),
        quad=quad,
        options=data.get("options", {}),
    )


def _grid(spec: dict) -> np.ndarray:
    try:
        return geometric_grid(float(spec["lo"]), float(spec["hi"]), int(spec["per_decade"]))
    except KeyError as exc:
        raise ConfigError(f"grid spec missing key {exc} (need lo/hi/per_decade)") from exc


# ---------------------------------------------------------------------------
# Report model
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


@dataclass
class SuiteReport:
    suite: str
    rows: list[dict]
    verdicts: list[dict]
    stamp: dict
    # case and lambda (H-LOG: eps, T5: delta) of each integral that stopped over tolerance
    unconverged: list[dict]

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def csv_body(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_fmt(row.get(col, "")) for col in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def write(self, output_dir: str | Path) -> tuple[Path, Path]:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        tag = self.suite.replace("-", "_").lower()
        csv_path = out / f"{tag}_rows.csv"
        csv_path.write_text(self.csv_body())
        json_path = out / f"{tag}_report.json"
        json_path.write_text(json.dumps(
            {"suite": self.suite, "passed": self.passed, "stamp": self.stamp,
             "verdicts": self.verdicts, "n_rows": len(self.rows),
             "nonconverged": {"count": len(self.unconverged),
                              "first": self.unconverged[0] if self.unconverged else None}},
            indent=2, sort_keys=True, default=_jsonable) + "\n")
        return csv_path, json_path


def _row(suite, case, **kw) -> dict:
    return {"suite": suite, "case": case, **kw}


# ---------------------------------------------------------------------------
# Shared steps: sweep lambda, verify each value, fit a decay exponent, judge it
# ---------------------------------------------------------------------------


def _value_row(suite, case, q, **kw) -> dict:
    """The row of one integral ``q``: its lambda, value and estimate."""
    return _row(suite, case, **{"lambda": q.lam}, value_re=q.value.real, value_im=q.value.imag,
                magnitude=abs(q.value), err_est=q.error_estimate, **kw)


def _sample(q) -> DecaySample:
    return DecaySample(q.lam, abs(q.value), q.error_estimate)


def _checked(q, case, unconverged: list):
    """``q``, after noting its case and lambda in ``unconverged`` when its
    refinement stopped with panels still over tolerance."""
    if not q.converged:
        unconverged.append({"case": case, "lambda": q.lam})
    return q


def _cert_checked(cert, case, unconverged: list):
    """``cert``, after noting its case and lambda in ``unconverged`` when one
    of its quadratures stopped over tolerance (``C_delta`` in 1D, the second
    region's measure in 2D)."""
    if False in (cert.notes.get("C_delta_converged"), cert.notes.get("region2_converged")):
        unconverged.append({"case": case, "lambda": cert.params.lam})
    return cert


def _integrals(f, lam_grid, quad_cfg, case, unconverged: list) -> list:
    """f integrated at every lambda of the grid in one sweep, each checked."""
    return [_checked(q, case, unconverged) for q in osc_integrate_1d_sweep(f, lam_grid, quad_cfg)]


def _rate_check(suite, case, check, samples, expected, tol=None,
                labels=("fit_ok", "fit_off"), **witness) -> tuple[dict, dict]:
    """Fit a decay exponent and judge it: within ``tol`` of ``expected``, or,
    without a tolerance, at least ``expected`` (a threshold).

    Returns the fit row, whose verdict is ``labels[0]`` on a pass and
    ``labels[1]`` otherwise, and the verdict.
    """
    delta_hat = fit_decay(samples).delta_hat
    if tol is None:
        passed = delta_hat >= expected
        witness = {"delta_hat": delta_hat, "threshold": expected}
    else:
        passed = abs(delta_hat - expected) <= tol
        witness = {"delta_hat": delta_hat, "expected": expected, **witness}
    return (_row(suite, case, delta_hat=delta_hat, verdict=labels[0] if passed else labels[1]),
            {"case": case, "check": check, "passed": passed, "witness": witness})


def _soundness_sweep(suite, case, quads, certs, unconverged):
    """One row per lambda of a grid's integrals and certificates; at each
    lambda the integral is checked, then the certificate.

    Returns the rows, the decay samples of the integrals and the first
    violation (None when every certificate dominates its integral).
    """
    rows, samples, witness = [], [], None
    for quad, cert in zip(quads, certs):
        _checked(quad, case, unconverged)
        _cert_checked(cert, case, unconverged)
        ok = cert.verify_against(quad)
        if not ok and witness is None:
            witness = {"lambda": quad.lam, "magnitude": abs(quad.value),
                       "bound": cert.total_bound}
        samples.append(_sample(quad))
        rows.append(_value_row(suite, case, quad, bound=cert.total_bound,
                               verdict="sound" if ok else "violation"))
    return rows, samples, witness


def _reduction_sweep(suite, case, f2, lam_grid, cross_lams, quad_cfg, unconverged):
    """Profile-reduction rows for f2 over ``lam_grid``, and planar
    integrator rows at ``cross_lams`` that must agree with it to 1e-7 relative.

    Returns the rows, the decay samples of the reduction and the
    cross-check verdict, witnessed by the largest relative difference and
    its lambda.
    """
    quads = [_checked(product_monomial_integral(f2, lam), case, unconverged)
             for lam in map(float, lam_grid)]
    rows = [_value_row(suite, case, q) for q in quads]
    diffs = []
    cross_lams = [float(lam) for lam in cross_lams]
    for lam, quad in zip(cross_lams, osc_integrate_2d_sweep(f2, cross_lams, cfg=quad_cfg)):
        red = product_monomial_integral(f2, lam).value
        quad = _checked(quad, case, unconverged)
        diff = abs(red - quad.value) / max(abs(quad.value), 1e-300)
        diffs.append((diff, lam))
        rows.append(_value_row(suite, case, quad,
                               verdict="xcheck_ok" if diff <= 1e-7 else "xcheck_off"))
    worst, at = max(diffs, default=(0.0, None))
    return rows, [_sample(q) for q in quads], {
        "case": case, "check": "reduction_cross_check", "passed": worst <= 1e-7,
        "witness": {"max_rel_diff": worst, "lambda": at}}


def _composition_case(suite, name, f, outer_obj, composed, mode, lam_grid,
                      cert_grid, cfg, unconverged, rate, cert_fit_tol, mode_kwargs,
                      bounded_window=None, bounded_ratio_max=3.0):
    """Soundness rows + certificate sweep fit for one (f, P) pair: the
    soundness lambdas and the certificate sweep's are certified in one run.

    Returns the rows, the verdicts and the decay samples of the soundness
    sweep.
    """
    n = len(lam_grid)
    certs = certify_1d_sweep(f, outer_obj, [*lam_grid, *cert_grid], mode, **mode_kwargs)
    rows, samples, witness = _soundness_sweep(
        suite, name, osc_integrate_1d_sweep(composed, lam_grid, cfg), certs[:n], unconverged)
    certs = [_cert_checked(c, name, unconverged) for c in certs[n:]]
    row, cert_rate = _rate_check(
        suite, name, "certificate_rate",
        [DecaySample(float(lam), c.total_bound) for lam, c in zip(cert_grid, certs)],
        rate, cert_fit_tol, ("cert_fit_ok", "cert_fit_off"), tolerance=cert_fit_tol)
    rows.append(row)
    verdicts = [{"case": name, "check": "certificate_soundness",
                 "passed": witness is None, "witness": witness}, cert_rate]
    if mode == "vdc" and mode_kwargs.get("N") == 1:
        no_small = not any(p.kind == "small_derivative" for c in certs for p in c.pieces)
        verdicts.append({"case": name, "check": "no_small_derivative_pieces",
                         "passed": no_small, "witness": None})
    seq = [s.magnitude * s.lam**rate for s in samples
           if bounded_window and bounded_window[0] <= s.lam <= bounded_window[1]]
    if seq:
        ratio = max(seq) / float(np.median(seq))
        verdicts.append({"case": name, "check": "normalized_magnitudes_bounded",
                         "passed": ratio <= bounded_ratio_max,
                         "witness": {"max_over_median": ratio}})
    return rows, verdicts, samples


# ---------------------------------------------------------------------------
# T1: composition under a decay hypothesis
# ---------------------------------------------------------------------------


def _run_t1(cfg: ExperimentConfig, unconverged: list) -> tuple[list[dict], list[dict]]:
    opt = cfg.options
    lam_grid = _grid(opt["lambda_sound"])
    cert_grid = _grid(opt["cert_sweep"])
    bounded_window = tuple(opt.get("bounded_window", (1e4, 1e6)))
    rows, verdicts = [], []
    bases = {}  # each distinct base phase is built and fitted once
    for case in opt["cases"]:
        fkey = json.dumps(case["f"], sort_keys=True)
        if fkey not in bases:
            f = phase_from_config(case["f"])
            fit = fit_decay([_sample(q) for q in _integrals(f, lam_grid, cfg.quad, case["name"],
                                                            unconverged)])
            bases[fkey] = f, max(1.0, fit.C_hat), fit.delta_hat
        f, A, delta_hat_base = bases[fkey]
        P = Polynomial(tuple(case["poly"]))
        composed = compose_with_polynomial(f, P.coeffs)
        delta = float(case["delta"])
        rate = delta / P.degree
        r, v, _ = _composition_case(
            "T1", case["name"], f, P, composed, "general", lam_grid, cert_grid,
            cfg.quad, unconverged, rate, float(opt.get("cert_fit_tol", 0.02)),
            {"delta": delta, "A": A},
            bounded_window=bounded_window,
            bounded_ratio_max=float(opt.get("bounded_ratio_max", 3.0)),
        )
        rows += r
        verdicts += v + [{"case": case["name"], "check": "base_rate_recovered",
                          "passed": abs(delta_hat_base - delta) <= 0.03,
                          "witness": {"delta_hat": delta_hat_base, "claimed": delta}}]
    return rows, verdicts


# ---------------------------------------------------------------------------
# T2: vdc mode and pure van der Corput baselines
# ---------------------------------------------------------------------------


def _run_t2(cfg: ExperimentConfig, unconverged: list) -> tuple[list[dict], list[dict]]:
    from .phases import monomial

    opt = cfg.options
    baseline_grid = _grid(opt["baseline_grid"])
    lam_grid = _grid(opt["lambda_sound"])
    cert_grid = _grid(opt["cert_sweep"])
    rows, verdicts = [], []
    for n in opt.get("baselines", (2, 3, 4)):
        name = f"baseline_N{n}"
        quads = _integrals(monomial(int(n), (0.0, 1.0)), baseline_grid, cfg.quad, name,
                           unconverged)
        row, verdict = _rate_check("T2", name, "vdc_rate_recovered",
                                   [_sample(q) for q in quads], 1.0 / n, 0.03)
        rows += [_value_row("T2", name, q) for q in quads] + [row]
        verdicts.append(verdict)
    for case in opt["cases"]:
        f = phase_from_config(case["f"])
        P = Polynomial(tuple(case["poly"]))
        composed = compose_with_polynomial(f, P.coeffs)
        N = int(case["N"])
        rate = 1.0 / (N * P.degree)
        r, v, _ = _composition_case(
            "T2", case["name"], f, P, composed, "vdc", lam_grid, cert_grid,
            cfg.quad, unconverged, rate, float(opt.get("cert_fit_tol", 0.02)), {"N": N},
        )
        rows += r
        verdicts += v
    return rows, verdicts


# ---------------------------------------------------------------------------
# T3: planar composition at n = 2
# ---------------------------------------------------------------------------


def _run_t3(cfg: ExperimentConfig, unconverged: list) -> tuple[list[dict], list[dict]]:
    opt = cfg.options
    lam_grid = _grid(opt["lambda_sound"])
    cert_grid = _grid(opt["cert_sweep"])
    fit_min = float(opt.get("composed_fit_min", 0.2))
    tol = float(opt.get("cert_fit_tol", 0.02))
    rows, verdicts = [], []
    for case in opt["cases"]:
        f2 = phase2d_from_config(case["f2"])
        P = Polynomial(tuple(case["poly"]))
        composed = compose2d_with_polynomial(f2, P.coeffs)
        rate = 1.0 / (2 * P.degree)
        name = case["name"]
        # one-term phases reach higher lambda through the profile reduction
        lams = [float(lam) for lam in lam_grid]
        quads = osc_integrate_2d_sweep(composed, lams, cfg=cfg.quad)
        hi_lams = [float(lam) for lam in case.get("hi_rows", ())]
        quads += [product_monomial_integral(composed, lam) for lam in hi_lams]
        certs = certify_2d_sweep(f2, P, [*(q.lam for q in quads), *map(float, cert_grid)])
        r, samples, witness = _soundness_sweep("T3", name, quads, certs[:len(quads)],
                                               unconverged)
        soundness = {"case": name, "check": "certificate_soundness",
                     "passed": witness is None, "witness": witness}
        fit_row, decay = _rate_check("T3", name, "composed_decay_at_least", samples[:len(lams)],
                                     min(rate - 0.05, fit_min),
                                     labels=("composed_fit", "composed_fit"))
        totals = [DecaySample(float(l), _cert_checked(c, name, unconverged).total_bound)
                  for l, c in zip(cert_grid, certs[len(quads):])]
        cert_row, cert_rate = _rate_check("T3", name, "certificate_rate", totals, rate,
                                          tol, ("cert_fit_ok", "cert_fit_off"))
        rows += r + [fit_row, cert_row]
        verdicts += [soundness, decay, cert_rate]
    return rows, verdicts


# ---------------------------------------------------------------------------
# T4: product phases
# ---------------------------------------------------------------------------


def _run_t4(cfg: ExperimentConfig, unconverged: list) -> tuple[list[dict], list[dict]]:
    from .phases import monomial, product_phase

    rows, verdicts = [], []
    for case in cfg.options["cases"]:
        k, j = int(case["k"]), int(case["j"])
        f2 = product_phase(monomial(k, (0.0, 1.0)), monomial(j, (0.0, 1.0)))
        r, samples, xcheck = _reduction_sweep("T4", case["name"], f2, _grid(case["lambda_grid"]),
                                              case.get("cross_check", ()), cfg.quad, unconverged)
        row, verdict = _rate_check("T4", case["name"], "joint_decay_exponent", samples,
                                   1.0 / max(k, j), float(case.get("fit_tol", 0.04)))
        rows += r + [row]
        verdicts += [verdict, xcheck]
    return rows, verdicts


# ---------------------------------------------------------------------------
# T5: the oscillation-to-sublevel constant
# ---------------------------------------------------------------------------


def _run_t5(cfg: ExperimentConfig, unconverged: list) -> tuple[list[dict], list[dict]]:
    opt = cfg.options
    lam_grid = _grid(opt["lambda_grid"])
    rows, verdicts = [], []
    for case in opt["cases"]:
        f = phase_from_config(case["f"])
        delta = float(case["delta"])
        fit = fit_decay([_sample(q) for q in _integrals(f, lam_grid, cfg.quad, case["name"],
                                                        unconverged)])
        A = max(1.0, fit.C_hat)
        C = osc_to_sublevel_constant(delta)
        if not C.converged:
            unconverged.append({"case": case["name"], "delta": delta})
        c_grid = np.geomspace(*opt.get("c_range", (1e-2, 1.0)), int(opt.get("n_c", 50)))
        eps_grid = np.geomspace(*opt.get("eps_range", (1e-2, 1.0)), int(opt.get("n_eps", 50)))
        # the sublevel sets of every (eps, c) pair, as rows of one band solve
        ee, cc = np.meshgrid(eps_grid, c_grid, indexing="ij")
        row, lo, hi = band_sets(lambda x, _: f.eval_fn(0, x),
                                flat_rows(monotone_partition(f, order_cap=1), ee.size),
                                (cc - ee).ravel(), (cc + ee).ravel())
        measures = iter(np.bincount(row, hi - lo, ee.size).tolist())
        worst = 0.0
        worst_at = None
        for eps in eps_grid:
            sup_c = 0.0
            arg_c = None
            for c in c_grid.tolist():
                ratio = next(measures) / (A * eps**delta)
                if ratio > sup_c:
                    sup_c, arg_c = ratio, c
            rows.append(_row("T5", case["name"], eps=float(eps), c=arg_c,
                             magnitude=sup_c, bound=C.C_delta,
                             verdict="within" if sup_c <= C.C_delta else "exceeds"))
            if sup_c > worst:
                worst, worst_at = sup_c, {"eps": float(eps), "c": arg_c}
        verdicts.append({
            "case": case["name"], "check": "sublevel_within_constant",
            "passed": worst <= C.C_delta,
            "witness": {"worst_ratio": worst, "C_delta": C.C_delta, "A": A,
                        "at": worst_at, "base_delta_hat": fit.delta_hat},
        })
    return rows, verdicts


# ---------------------------------------------------------------------------
# T6: root-proximity covers
# ---------------------------------------------------------------------------


def _run_t6(cfg: ExperimentConfig, unconverged: list) -> tuple[list[dict], list[dict]]:
    opt = cfg.options
    seed = cfg.seed
    rows, verdicts = [], []

    def zero_violations(case, count, witness, **kw):
        rows.append(_row("T6", case, magnitude=float(count), **kw,
                         verdict="violations" if count else "zero_violations"))
        verdicts.append({"case": case, "check": "zero_violations",
                         "passed": count == 0, "witness": witness})

    # monic inclusion: every trial drawn first, then one cover kernel call per degree
    trials = int(opt.get("monic_trials", 1000))
    max_deg = int(opt.get("monic_max_degree", 6))
    draws = []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 6001, t)))
        d = int(rng.integers(1, max_deg + 1))
        coeffs = rng.uniform(-1.0, 1.0, size=d + 1)
        coeffs[-1] = 1.0
        draws.append((coeffs, float(rng.uniform(0.0, 1.0)) or 0.5))
    degrees = np.array([coeffs.size - 1 for coeffs, _ in draws])
    bad: dict[int, list[dict]] = {}
    for d in sorted(set(degrees.tolist())):
        ts = np.flatnonzero(degrees == d).tolist()
        found = cover_violations_rows(np.array([draws[t][0] for t in ts]), 1.0,
                                      np.array([draws[t][1] for t in ts]))
        bad.update((t, b) for t, b in zip(ts, found) if b)
    witness = None
    if bad:
        t = min(bad)
        witness = {"trial": t, "coeffs": draws[t][0].tolist(), "eps": draws[t][1],
                   "first": bad[t][0]}
    zero_violations("monic_inclusion", len(bad), witness)

    # SND inclusion, checked on the per-trial ratios of the estimator's own
    # seeded sample: B is their maximum rounded up, so no draw here exceeds
    # it; only draws the estimate did not see could
    snd_trials = int(opt.get("snd_trials", 1000))

    def snd_constant(d):
        """estimate_B at degree d, noting each trial it retried at the looser
        root tolerance."""
        B = estimate_B(d, trials=snd_trials, seed=seed)
        unconverged.extend({"case": f"snd_inclusion_d{d}", "trial": t, "root_tol": RETRY_ROOT_TOL}
                           for t in B.retried)
        return B

    b_by_degree = {}
    for d in opt.get("snd_degrees", (2, 3, 4, 5)):
        d = int(d)
        B = snd_constant(d)
        b_by_degree[d] = B.B
        over = [t for t, ratio in enumerate(B.ratios) if ratio > B.B]
        wit = {"trial": over[0], "ratio": B.ratios[over[0]], "B": B.B} if over else None
        zero_violations(f"snd_inclusion_d{d}", len(over), wit, bound=B.B)

    # degenerating family: minimal working B grows without bound
    etas = [float(e) for e in opt.get("etas", (1e-1, 1e-2, 1e-3, 1e-4, 1e-5))]
    k = int(opt.get("family_k", 2))
    b_mins = []
    for eta in etas:
        P = degenerating_family(k, eta)
        ratio = cover_ratio(P)
        b_mins.append(ratio)
        rows.append(_row("T6", f"degenerating_eta{eta:g}", eps=eta, magnitude=ratio,
                         verdict="witnessed"))
    monotone = all(b > a for a, b in zip(b_mins[:-1], b_mins[1:]))
    verdicts.append({"case": "degenerating_family", "check": "b_min_monotone_in_inv_eta",
                     "passed": bool(monotone), "witness": {"b_mins": b_mins}})
    # the 10x comparison needs the family pushed far enough into degeneracy
    if min(etas) <= float(opt.get("exceed_at_eta", 1e-5)):
        ref_d = 2 * k - 1
        if ref_d not in b_by_degree:
            b_by_degree[ref_d] = snd_constant(ref_d).B
        threshold = 10.0 * b_by_degree[ref_d]
        verdicts.append({"case": "degenerating_family",
                         "check": "b_min_exceeds_10x_snd_constant",
                         "passed": bool(b_mins[-1] > threshold),
                         "witness": {"b_min_last": b_mins[-1], "threshold": threshold}})

    # product threshold cover: a point with every factor above its threshold
    # has product above prod(thresholds), so the cover holds when that product
    # reaches eps; checked up to the rounding of the thresholds
    yc_trials = int(opt.get("young_trials", 200))
    yc_viol = 0
    yc_wit = None
    for t in range(yc_trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 6002, t)))
        n_factors = int(rng.integers(2, 5))
        deltas = rng.uniform(0.2, 1.0, size=n_factors)
        eps = float(rng.uniform(1e-3, 0.5))
        yc = young_cover([(1.0, float(dl)) for dl in deltas], eps)
        product = float(np.prod(yc.thresholds))
        if product < eps * (1.0 - 8.0 * np.finfo(float).eps):
            yc_viol += 1
            if yc_wit is None:
                yc_wit = {"trial": t, "eps": eps, "threshold_product": product}
    zero_violations("product_threshold_cover", yc_viol, yc_wit)
    return rows, verdicts


# ---------------------------------------------------------------------------
# T7: outer power transform
# ---------------------------------------------------------------------------


def _run_t7(cfg: ExperimentConfig, unconverged: list) -> tuple[list[dict], list[dict]]:
    opt = cfg.options
    lam_grid = _grid(opt["lambda_sound"])
    cert_grid = _grid(opt["cert_sweep"])
    rows, verdicts = [], []
    for case in opt["cases"]:
        f = phase_from_config(case["f"])
        s = float(case["exponent"])
        N = int(case["N"])
        composed = compose_with_power(f, s)
        rate = 1.0 / (N * s)
        r, v, samples = _composition_case(
            "T7", case["name"], f, PowerTransform(s), composed, "vdc", lam_grid, cert_grid,
            cfg.quad, unconverged, rate, float(opt.get("cert_fit_tol", 0.02)), {"N": N},
        )
        row, verdict = _rate_check("T7", case["name"], "power_decay_exponent", samples,
                                   rate, float(case.get("fit_tol", 0.05)))
        rows += r + [row]
        verdicts += v + [verdict]
    return rows, verdicts


# ---------------------------------------------------------------------------
# H-LOG: the xy phase
# ---------------------------------------------------------------------------


def _run_hlog(cfg: ExperimentConfig, unconverged: list) -> tuple[list[dict], list[dict]]:
    opt = cfg.options
    rows, verdicts = [], []
    f2 = xy_phase()

    eps_grid = _grid(opt["eps_grid"])
    points = []
    for eps, (m, _, converged) in zip(eps_grid, sublevel_2d_sweep(f2, 0.0, eps_grid)):
        if not converged:
            unconverged.append({"case": "xy_sublevel", "eps": float(eps)})
        points.append((float(eps), m))
        rows.append(_row("H-LOG", "xy_sublevel", eps=float(eps), c=0.0, magnitude=m))
    a, b, r2 = fit_log_model(points)
    rows.append(_row("H-LOG", "xy_sublevel", magnitude=b, delta_hat=a,
                     verdict="log_factor" if b > 0 else "no_log_factor"))
    verdicts.append({"case": "xy_sublevel", "check": "log_factor_present",
                     "passed": b > 0.0 and r2 >= 0.99,
                     "witness": {"a": a, "b": b, "r_squared": r2}})

    r, samples, xcheck = _reduction_sweep("H-LOG", "xy_decay", f2, _grid(opt["lambda_grid"]),
                                          opt.get("cross_check", (1e2, 1e3)), cfg.quad,
                                          unconverged)
    row, verdict = _rate_check("H-LOG", "xy_decay", "near_unit_decay", samples,
                               float(opt.get("decay_min", 0.9)))
    rows += r + [row]
    verdicts += [verdict, xcheck]
    return rows, verdicts


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "T1": _run_t1,
    "T2": _run_t2,
    "T3": _run_t3,
    "T4": _run_t4,
    "T5": _run_t5,
    "T6": _run_t6,
    "T7": _run_t7,
    "H-LOG": _run_hlog,
}


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    if cfg.suite not in _RUNNERS:
        raise ConfigError(f"unknown suite {cfg.suite!r} (at $.suite)")
    unconverged: list[dict] = []
    rows, verdicts = _RUNNERS[cfg.suite](cfg, unconverged)
    for v in verdicts:
        v["passed"] = bool(v["passed"])
    stamp = {"version": __version__, "seed": cfg.seed,
             "python": sys.version.split()[0], "numpy": np.__version__}
    return SuiteReport(cfg.suite, rows, verdicts, stamp, unconverged)
