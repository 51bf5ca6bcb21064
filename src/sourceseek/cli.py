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

Exit codes: 0 when every check passes, 1 when a check fails or an
integration aborts, 2 on a configuration error. The checks are the
``check_*`` lines of the study's own report section (``[simulate]``,
``[compare]``, ``[omega_sweep]``, ``[hessian_sweep]``,
``[closed_form_agreement]``, ``[grid_margins]``), so exit 1 from a failed
check always shows a ``FAIL`` line there; the two run sections that
``compare`` appends after its own keep their check lines for information.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .experiments import AppConfig, ConfigError, load_config, run_average, \
    run_certify, run_compare, run_hessian_invariance, run_omega_sweep, run_simulate
from .ode import IntegrationAborted
from .seekers import Scheme

PASS, FAIL, CONFIG_ERROR = 0, 1, 2


def _override(config, **changes):
    """``config`` with command-line values; a value the config rejects is a
    configuration error, as it is from a config file."""
    try:
        return replace(config, **changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Each command returns (report file name, study result); main writes the
# result's report() and maps its ``passed`` to the exit code.


def _cmd_simulate(app: AppConfig, args):
    return "simulate_report.txt", run_simulate(app.scenario, out_dir=args.out)


def _cmd_compare(app: AppConfig, args):
    return "compare_report.txt", run_compare(app.compare, out_dir=args.out)


def _cmd_sweep_omega(app: AppConfig, args):
    config = app.sweep_omega
    if args.omega:
        config = _override(config, omegas=tuple(args.omega))
    return "omega_sweep_report.txt", run_omega_sweep(config)


def _cmd_sweep_hessian(app: AppConfig, args):
    config = app.sweep_hessian
    if args.hessian:
        config = _override(config, hessians=tuple(args.hessian))
    return "hessian_sweep_report.txt", run_hessian_invariance(config)


def _cmd_average(app: AppConfig, args):
    return (f"averaging_report_{args.scheme}.txt",
            run_average(Scheme(args.scheme), app.params, app.field, seed=app.seed))


def _cmd_certify(app: AppConfig, args):
    return "stability_report.txt", run_certify(app.params, app.field, seed=app.seed)


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
        name, result = _COMMANDS[args.command](app, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except IntegrationAborted as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return FAIL
    text = result.report()
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / name).write_text(text)
    print(text, end="")
    return PASS if result.passed else FAIL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
