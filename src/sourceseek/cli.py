"""Command-line front end.

Subcommands
-----------
simulate       integrate one closed loop, write the trajectory CSV and summary
compare        run both schemes on identical conditions and compare entry times
sweep-omega    full-vs-averaged deviation and residual-ball table across frequencies
sweep-hessian  averaged decay-rate table across field curvatures
average        run the averaging engine on a named scheme and print the
               coefficient/assumption report
certify        build the Lyapunov/ISS certificate and check its margins

Exit codes: 0 when every check passes, 1 when any check fails or an
integration aborts, 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import build_averaged_field, check_assumptions, default_omega_grid
from .experiments import AppConfig, ConfigError, load_config, run_compare, \
    run_hessian_invariance, run_omega_sweep, run_simulate
from .ode import IntegrationAborted
from .seekers import AveragedForm, Scheme, averaged_closed_loop, \
    gradient_affine_system, newton_affine_system
from .stability import build_certificate, iss_bound_check, linearize, \
    stability_report, vdot_margin

PASS, FAIL, CONFIG_ERROR = 0, 1, 2


def _override(config, **changes):
    """``config`` with command-line values; a value the config rejects is a
    configuration error, as it is from a config file."""
    try:
        return replace(config, **changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Each command returns (report file name, report text, whether every check
# passed); main writes, prints and maps the verdict to the exit code.


def _cmd_simulate(app: AppConfig, args) -> tuple[str, str, bool]:
    result = run_simulate(app.scenario, out_dir=args.out)
    return "simulate_report.txt", result.report(), result.passed


def _cmd_compare(app: AppConfig, args) -> tuple[str, str, bool]:
    report = run_compare(app.compare, out_dir=args.out)
    text = report.report() + report.newton.report() + report.gradient.report()
    return "compare_report.txt", text, report.passed


def _cmd_sweep_omega(app: AppConfig, args) -> tuple[str, str, bool]:
    config = app.sweep_omega
    if args.omega:
        config = _override(config, omegas=tuple(args.omega))
    report = run_omega_sweep(config)
    return "omega_sweep_report.txt", report.report(), report.passed


def _cmd_sweep_hessian(app: AppConfig, args) -> tuple[str, str, bool]:
    config = app.sweep_hessian
    if args.hessian:
        config = _override(config, hessians=tuple(args.hessian))
    report = run_hessian_invariance(config)
    return "hessian_sweep_report.txt", report.report(), report.passed


def _cmd_average(app: AppConfig, args) -> tuple[str, str, bool]:
    scheme = Scheme(args.scheme)
    if scheme is Scheme.NEWTON:
        system = newton_affine_system(app.params, app.field)
        form = AveragedForm.NEWTON
    else:
        system = gradient_affine_system(app.params, app.field)
        form = AveragedForm.GRADIENT
    grid = default_omega_grid(app.params.omega)
    assumptions = check_assumptions(system)
    engine = build_averaged_field(system, grid)
    closed = averaged_closed_loop(form, app.params, app.field)

    rng = np.random.default_rng(app.seed)
    worst = 0.0
    for _ in range(10):
        state = rng.uniform(-3.0, 3.0, size=system.dimension)
        if system.dimension == 4:
            state[2] = rng.uniform(0.1, 2.0 / app.field.hessian)
        reference = closed(0.0, state)
        scale = max(1.0, float(np.linalg.norm(reference)))
        worst = max(worst, float(np.linalg.norm(engine(state) - reference)) / scale)
    agreement_ok = worst <= 1e-4

    text = (
        str(assumptions)
        + "\n"
        + engine.report()
        + "\n[closed_form_agreement]\n"
        + f"worst_relative_defect = {worst:.3e}\n"
        + f"check_agreement = {'pass' if agreement_ok else 'FAIL'}\n"
    )
    return (f"averaging_report_{scheme.value}.txt", text,
            assumptions.ok and agreement_ok)


def _cmd_certify(app: AppConfig, args) -> tuple[str, str, bool]:
    params, field = app.params, app.field
    cert = build_certificate(params.alpha, params.omega0, params.omega_d,
                             field.hessian)

    grid = np.linspace(-5.0, 5.0, 40)
    z1, z2, dh = np.meshgrid(grid, grid, np.linspace(-2.0, 2.0, 21),
                             indexing="ij")
    z = np.stack([z1, z2], axis=-1)
    margins = vdot_margin(z, dh, cert)

    rng = np.random.default_rng(app.seed)
    r = rng.uniform(-3.0, 3.0, size=1000)
    z_rand = rng.uniform(-5.0, 5.0, size=(1000, 2))
    dh_rand = rng.uniform(-2.0, 2.0, size=1000)
    iss_margins = iss_bound_check(r, z_rand, dh_rand, field.hessian,
                                  params.h_gain, cert)

    lin_grad = linearize(
        lambda s: averaged_closed_loop(AveragedForm.GRADIENT, params, field)(0.0, s),
        np.array([0.0, 0.0, field.f_star]),
    )
    lin_newton = linearize(
        lambda s: averaged_closed_loop(AveragedForm.NEWTON, params, field)(0.0, s),
        np.array([0.0, 0.0, 1.0 / field.hessian, field.f_star]),
    )

    vdot_ok = bool(np.max(margins) <= 1e-9)
    iss_ok = bool(np.min(iss_margins) >= -1e-9)
    text = stability_report(
        {"averaged_gradient": lin_grad, "averaged_newton": lin_newton},
        cert=cert,
        grid_margins={
            "vdot_margin_max": float(np.max(margins)),
            "iss_margin_min": float(np.min(iss_margins)),
        },
    )
    text += f"check_vdot = {'pass' if vdot_ok else 'FAIL'}\n"
    text += f"check_iss = {'pass' if iss_ok else 'FAIL'}\n"
    return "stability_report.txt", text, vdot_ok and iss_ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sourceseek",
        description="Source-seeking simulation and verification toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="key = value configuration file")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default ./out)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for the sample states of average and the "
                            "ISS points of certify (default 0)")

    common(sub.add_parser("simulate", help="integrate one closed loop"))
    common(sub.add_parser("compare", help="gradient vs curvature-inverting run"))

    p = sub.add_parser("sweep-omega", help="full-vs-averaged frequency sweep")
    common(p)
    p.add_argument("--omega", type=float, action="append", default=None,
                   help="frequency (repeatable, overrides config list)")

    p = sub.add_parser("sweep-hessian", help="decay-rate curvature sweep")
    common(p)
    p.add_argument("--hessian", type=float, action="append", default=None,
                   help="curvature (repeatable, overrides config list)")

    p = sub.add_parser("average", help="coefficient/assumption report")
    common(p)
    p.add_argument("--scheme", choices=[s.value for s in Scheme],
                   default=Scheme.NEWTON.value)

    common(sub.add_parser("certify", help="Lyapunov/ISS certificate checks"))
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "sweep-omega": _cmd_sweep_omega,
    "sweep-hessian": _cmd_sweep_hessian,
    "average": _cmd_average,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        app = load_config(args.config)
        if args.seed is not None:
            app = _override(app, seed=args.seed)
        name, text, passed = _COMMANDS[args.command](app, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except IntegrationAborted as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return FAIL
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / name).write_text(text)
    print(text, end="")
    return PASS if passed else FAIL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
