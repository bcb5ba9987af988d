"""Command-line interface: integrate | sublevel | certify | fit | suite | estimate-b.

Exit codes: 0 success, 1 assertion failure (witnesses printed), 2 config or
usage error.
"""

from __future__ import annotations

import csv as _csv
import json
import sys
from pathlib import Path

import click

from .certificates import PowerTransform, certify_1d
from .decay import DecaySample, fit_decay
from .errors import ConfigError, OscintError
from .harness import SUITE_IDS, load_config, run_suite
from .phases import _FAMILIES_1D, _FAMILIES_2D, phase2d_from_config, phase_from_config
from .polynomials import Polynomial, estimate_B
from .quadrature import QuadConfig, osc_integrate_1d, osc_integrate_2d
from .sublevel import sublevel_1d

_NONCONVERGED = "warning: refinement did not converge; some panels remain over tolerance"
_FAMILY_HELP = (f"Phase family: 1D {', '.join(_FAMILIES_1D)}; "
                f"2D {', '.join(_FAMILIES_2D)} (on the unit square)")


def _phase_spec(family: str, n: int | None, coeffs: tuple[float, ...],
                domain: tuple[float, float]) -> dict:
    spec: dict = {"family": family, "domain": list(domain)}
    if n is not None:
        spec["n"] = n
    if coeffs:
        spec["coeffs"] = list(coeffs)
    return spec


@click.group()
def main():
    """Oscillatory-integral decay toolkit."""


@main.command()
@click.option("--family", default="monomial", show_default=True, help=_FAMILY_HELP)
@click.option("--n", type=int, default=None, help="Monomial degree")
@click.option("--coeffs", type=float, multiple=True, help="Polynomial coefficients, ascending")
@click.option("--lambda", "lam", type=float, required=True, help="Frequency parameter")
@click.option("--interval", nargs=2, type=float, default=(0.0, 1.0), show_default=True,
              help="The phase's domain (1D families)")
@click.option("--rel-tol", type=float, default=1e-10, show_default=True)
def integrate(family, n, coeffs, lam, interval, rel_tol):
    """Evaluate the oscillatory integral of e^{i*lambda*f} and print value + error."""
    cfg = QuadConfig(rel_tol=rel_tol)
    if family in _FAMILIES_2D:
        res = osc_integrate_2d(phase2d_from_config({"family": family}), lam, cfg=cfg)
    elif family in _FAMILIES_1D:
        res = osc_integrate_1d(phase_from_config(_phase_spec(family, n, coeffs, interval)),
                               lam, cfg=cfg)
    else:
        raise ConfigError(f"unknown phase family {family!r}; {_FAMILY_HELP}")
    click.echo(f"value = {res.value.real:+.12e} {res.value.imag:+.12e}i")
    click.echo(f"|value| = {abs(res.value):.12e}")
    click.echo(f"error_estimate = {res.error_estimate:.3e}  panels = {res.panels_used}")
    if not res.converged:
        click.echo(_NONCONVERGED, err=True)


@main.command()
@click.option("--family", default="monomial", show_default=True)
@click.option("--n", type=int, default=None)
@click.option("--coeffs", type=float, multiple=True)
@click.option("--c", type=float, required=True, help="Level")
@click.option("--eps", type=float, required=True, help="Band half-width")
@click.option("--interval", nargs=2, type=float, default=(0.0, 1.0), show_default=True)
def sublevel(family, n, coeffs, c, eps, interval):
    """Measure and components of {x : |f(x) - c| <= eps}."""
    res = sublevel_1d(phase_from_config(_phase_spec(family, n, coeffs, interval)), c, eps)
    click.echo(f"measure = {res.measure:.12e}")
    for comp in res.components:
        click.echo(f"component [{comp.lo:.12g}, {comp.hi:.12g}]")


@main.command()
@click.option("--family", default="monomial", show_default=True)
@click.option("--n", type=int, default=None)
@click.option("--coeffs", type=float, multiple=True)
@click.option("--interval", nargs=2, type=float, default=(0.0, 1.0), show_default=True)
@click.option("--poly", type=float, multiple=True,
              help="Outer polynomial coefficients, ascending; repeat per coefficient")
@click.option("--power", type=float, default=None,
              help="Outer transform |t|^s instead of a polynomial (give exactly one)")
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--mode", type=click.Choice(["general", "vdc"]), default="vdc",
              show_default=True)
@click.option("--delta", type=float, default=None, help="Decay exponent claim (general mode)")
@click.option("--big-a", "big_a", type=float, default=None, help="Decay constant claim (general mode)")
@click.option("--order", "n_hyp", type=int, default=None, help="Derivative order N (vdc mode)")
@click.option("--verify/--no-verify", default=False, help="Compare against the integrator")
@click.option("--json-out", type=click.Path(dir_okay=False), default=None)
def certify(family, n, coeffs, interval, poly, power, lam, mode, delta, big_a,
            n_hyp, verify, json_out):
    """Produce a bound certificate for the composed phase and print the pieces."""
    if bool(poly) == (power is not None):
        raise click.UsageError("give exactly one of --poly and --power")
    f = phase_from_config(_phase_spec(family, n, coeffs, interval))
    outer = PowerTransform(power) if power is not None else Polynomial(tuple(poly))
    cert = certify_1d(f, outer, lam, mode, delta=delta, A=big_a, N=n_hyp)
    for p in cert.pieces:
        support = ", ".join(f"{v:.6g}" for v in p.support)
        click.echo(f"{p.kind:22s} [{support}]  bound = {p.bound:.6e}  ({p.formula})")
    click.echo(f"total_bound = {cert.total_bound:.6e}")
    sound = None
    if verify:
        from .phases import compose_with_polynomial, compose_with_power

        composed = (compose_with_power(f, power) if power is not None
                    else compose_with_polynomial(f, tuple(poly)))
        quad = osc_integrate_1d(composed, lam)
        sound = cert.verify_against(quad)
        click.echo(f"|integral| = {abs(quad.value):.6e}  sound = {sound}")
    if json_out:
        Path(json_out).write_text(json.dumps(cert.to_dict(), indent=2) + "\n")
    if sound is False:
        sys.exit(1)


@main.command()
@click.argument("csv_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--drop-low-decades", type=float, default=0.5, show_default=True)
def fit(csv_path, drop_low_decades):
    """Fit a decay exponent to the CSV rows with both a lambda and a magnitude."""
    samples = []
    with open(csv_path, newline="") as fh:
        reader = _csv.DictReader(fh)
        missing = sorted({"lambda", "magnitude"} - set(reader.fieldnames or ()))
        if missing:
            raise ConfigError(f"{csv_path} has no {' or '.join(missing)} column")
        for row in reader:
            if not (row["lambda"] and row["magnitude"]):
                continue
            samples.append(DecaySample(
                float(row["lambda"]), float(row["magnitude"]),
                float(row.get("error") or row.get("err_est") or 0.0)))
    if not samples:
        raise ConfigError(f"{csv_path} has no row with both a lambda and a magnitude")
    result = fit_decay(samples, drop_low_decades=drop_low_decades)
    click.echo(f"delta_hat = {result.delta_hat:.6f}")
    click.echo(f"C_hat = {result.C_hat:.6e}")
    click.echo(f"r_squared = {result.r_squared:.6f}")
    click.echo(f"window = [{result.window[0]:g}, {result.window[1]:g}]")


@main.command()
@click.argument("suite_id", type=click.Choice(SUITE_IDS))
@click.option("--config", default="default", show_default=True,
              help="'default' for the packaged config or a path to a JSON file")
@click.option("--out", default=None, help="Output directory override")
def suite(suite_id, config, out):
    """Run a named experiment suite and emit CSV + JSON reports."""
    cfg = load_config(suite_id, config)
    if out:
        cfg.output_dir = out
    report = run_suite(cfg)
    csv_path, json_path = report.write(cfg.output_dir)
    for v in report.verdicts:
        status = "PASS" if v["passed"] else "FAIL"
        click.echo(f"[{status}] {report.suite} {v['case']}: {v['check']}")
        if not v["passed"] and v.get("witness") is not None:
            click.echo(f"    witness: {json.dumps(v['witness'])}")
    click.echo(f"rows: {csv_path}")
    click.echo(f"report: {json_path}")
    if report.unconverged:
        click.echo(f"{_NONCONVERGED} ({len(report.unconverged)} integrals, first: "
                   f"{json.dumps(report.unconverged[0])})", err=True)
    if not report.passed:
        sys.exit(1)


@main.command("estimate-b")
@click.option("--degree", type=int, required=True)
@click.option("--trials", type=int, default=400, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def estimate_b(degree, trials, seed):
    """Empirical cover constant for SND polynomials of the given degree."""
    B = estimate_B(degree, trials=trials, seed=seed)
    click.echo(f"B({degree}) = {B.B}")


def entry() -> int:
    try:
        main.main(standalone_mode=False)
    except click.exceptions.UsageError as exc:
        click.echo(f"usage error: {exc}", err=True)
        return 2
    except click.exceptions.Abort:
        return 2
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    except OscintError as exc:
        click.echo(f"error [{exc.code}]: {exc}", err=True)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


if __name__ == "__main__":
    sys.exit(entry())
