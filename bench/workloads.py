"""Seeded workloads for the sourceseek benchmark.

Each workload is a generator of task specs made only of plain numbers and
strings, drawn from ``random.Random`` so that a seed gives the same inputs on
every platform and numpy version. ``run_task`` turns one spec into calls on
the public API of ``sourceseek.experiments``, ``sourceseek.averaging`` and
``sourceseek.stability`` and returns a summary; ``check_task`` decides
whether that summary is correct.

Public functions are always looked up through their module at call time
(``experiments.run_simulate``, never a bare imported name), so that the
traced run can wrap them without editing any source file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from sourceseek import averaging, experiments, seekers, stability
from sourceseek.model import FieldParams, SeekerParams

#: Summaries of the default seed are compared with values recorded from the
#: parent code in ``reference.json``.
REFERENCE_SEED = 0

#: Reference gains and field, shared by every workload.
F_STAR = 5.0
SOURCE = (1.0, -1.0)
OMEGA0, H_GAIN, OMEGA_D = 1.0, 1.0, 0.3

#: Ball used for the seek checks. The package's own 0.5 default sits below
#: the 0.70 dither envelope alpha*omega**(p-1) of the reference gains, so no
#: run can settle inside it; 0.75 is the smallest round radius above it.
SEEK_BALL = 0.75
SEEK_COMBOS = (
    ("gradient", "original"),
    ("gradient", "rotating_z"),
    ("newton", "original"),
    ("newton", "rotating_z"),
    ("newton", "rotating_z_log_d"),
)
#: engine-vs-closed-form threshold of the CLI's ``average`` subcommand
ENGINE_DEFECT_LIMIT = 1e-4
ENGINE_STATES = 50
ISS_POINTS = 1000
MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: untraced seconds one round takes on 2 x86-64 cores; sizes traced runs
    nominal_round_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seek",
            "full oscillatory run_simulate loops of both schemes in every full "
            "frame: the headline use, dominated by the seekers rhs and the RK4 "
            "loop; never touches the averaging engine",
            nominal_round_s=4.0,
        ),
        Workload(
            "curvature_sweep",
            "run_hessian_invariance on curvature ladders over two decades: long "
            "averaged runs with a cheap autonomous rhs and every step recorded, "
            "so integrate's own loop and estimate_rate dominate",
            nominal_round_s=1.8,
        ),
        Workload(
            "verify",
            "averaging engine build and evaluation against the closed form plus "
            "the Lyapunov/ISS certificate on seeded gains: bypasses ode and "
            "seekers completely",
            nominal_round_s=0.25,
        ),
    )
}


# ---------------------------------------------------------------------------
# generators


def _start_point(rng: random.Random) -> list:
    r = rng.uniform(3.0, 6.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [SOURCE[0] + r * math.cos(phi), SOURCE[1] + r * math.sin(phi)]


def _seek_round(rng: random.Random, first_index: int) -> list:
    # Each curvature-inverting combination runs twice per round. A Newton
    # run costs about twice a gradient run, so the median task falls among
    # the Newton runs: with one run of each combination it would fall in
    # their low tail, which moves by up to 15% between runs of the same code;
    # with these shares it falls a third of the way into them.
    combos = [c for c in SEEK_COMBOS for _ in range(1 + (c[0] == "newton"))]
    rng.shuffle(combos)
    return [
        {"index": first_index + k, "scheme": scheme, "frame": frame,
         "x0": _start_point(rng)}
        for k, (scheme, frame) in enumerate(combos)
    ]


def _curvature_round(rng: random.Random, first_index: int) -> list:
    # The averaged gradient row at the smallest curvature runs the longest
    # (its horizon scales as 1/H), so the narrow ranges keep a task's cost,
    # and with it the run's throughput, nearly independent of the seed.
    h_min = rng.uniform(0.0098, 0.0102)
    h_mid = h_min * 10.0 ** rng.uniform(0.9, 1.1)
    h_max = h_min * 10.0 ** rng.uniform(2.0, 2.1)
    return [{"index": first_index, "hessians": [h_min, h_mid, h_max],
             "x0": _start_point(rng)}]


def _verify_round(rng: random.Random, first_index: int) -> list:
    hessian = 10.0 ** rng.uniform(-2.0, 0.0)

    def states(dim: int) -> list:
        out = []
        for _ in range(ENGINE_STATES):
            s = [rng.uniform(-3.0, 3.0) for _ in range(dim)]
            if dim == 4:
                s[2] = rng.uniform(0.1, 2.0 / hessian)
            out.append(s)
        return out

    spec = {
        "index": first_index,
        "p_exp": rng.uniform(0.55, 0.8),
        "omega": rng.uniform(10.0, 30.0),
        "alpha": rng.uniform(1.0, 3.0),
        "hessian": hessian,
        "states_gradient": states(3),
        "states_newton": states(4),
        "iss_r": [rng.uniform(-3.0, 3.0) for _ in range(ISS_POINTS)],
        "iss_z": [[rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]
                  for _ in range(ISS_POINTS)],
        "iss_dh": [rng.uniform(-2.0, 2.0) for _ in range(ISS_POINTS)],
    }
    return [spec]


_ROUNDS = {
    "seek": _seek_round,
    "curvature_sweep": _curvature_round,
    "verify": _verify_round,
}


def generate(workload: str, seed: int, stream: str = "main"):
    """Endless task specs for ``workload``, one round at a time.

    ``stream`` separates independent sequences of the same seed (the warm-up
    task draws from its own stream so it never repeats a timed input).
    """
    make_round = _ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}:{stream}")
    index = 0
    while True:
        batch = make_round(rng, index)
        index += len(batch)
        yield batch


def take_rounds(workload: str, seed: int, n_rounds: int, stream: str = "main") -> list:
    gen = generate(workload, seed, stream)
    return [spec for _ in range(n_rounds) for spec in next(gen)]


# ---------------------------------------------------------------------------
# inputs


def _field(hessian: float = 0.01) -> FieldParams:
    return FieldParams(f_star=F_STAR, hessian=hessian, source=np.array(SOURCE))


def _params(omega=15.0, alpha=2.0, p_exp=0.61) -> SeekerParams:
    return SeekerParams(omega=omega, omega0=OMEGA0, alpha=alpha, p_exp=p_exp,
                        h_gain=H_GAIN, omega_d=OMEGA_D)


def build_inputs(workload: str, spec: dict):
    """Package objects a task starts from."""
    if workload == "seek":
        return experiments.Scenario(
            scheme=seekers.Scheme(spec["scheme"]),
            frame=seekers.Frame(spec["frame"]),
            field=_field(), params=_params(), x0=tuple(spec["x0"]),
            ball_radius=SEEK_BALL,
        )
    if workload == "curvature_sweep":
        return experiments.HessianSweepConfig(
            hessians=tuple(spec["hessians"]), params=_params(), field=_field(),
            x0=tuple(spec["x0"]),
        )
    return (_params(spec["omega"], spec["alpha"], spec["p_exp"]),
            _field(spec["hessian"]))


# ---------------------------------------------------------------------------
# tasks


def _seek(spec: dict) -> tuple[dict, str]:
    scenario = build_inputs("seek", spec)
    result = experiments.run_simulate(scenario)
    text = result.report()
    traj = result.trajectory
    config = scenario.integrator_config()
    summary = {
        "final_distance": result.final_distance,
        "final_d": result.final_d,
        "d_window_mean": result.d_window_mean,
        "entry_time": result.entry_time,
        "n_samples": int(traj.times.shape[0]),
        "final_state": [float(v) for v in traj.states[-1]],
        "t_last": float(traj.times[-1]),
        "finite": bool(np.all(np.isfinite(traj.states))),
        "checks": dict(result.checks),
        "expected_samples": expected_samples(scenario.t_end, config.dt,
                                             config.output_stride),
        "t_end": scenario.t_end,
        "start_distance": math.dist(spec["x0"], SOURCE),
        "envelope": scenario.params.alpha
        * scenario.params.omega ** (scenario.params.p_exp - 1.0),
    }
    return summary, text


def expected_samples(t_end: float, dt: float, stride: int) -> int:
    """Samples a fixed-step run from 0 to ``t_end`` records: the start, every
    ``stride``-th step before the last, and the final state. The last step is
    shortened to land on ``t_end`` when ``dt`` does not divide it."""
    n_full = math.floor(t_end / dt * (1.0 + 1e-12))
    has_tail = t_end - n_full * dt > 1e-12 * max(t_end, dt)
    steps = n_full + int(has_tail)
    return 1 + (steps - 1) // stride + 1


def _curvature(spec: dict) -> tuple[dict, str]:
    config = build_inputs("curvature_sweep", spec)
    report = experiments.run_hessian_invariance(config)
    text = report.report()
    summary = {
        "passed": bool(report.passed),
        "newton_rates": [r.newton.rate for r in report.rows],
        "gradient_rates": [r.gradient.rate for r in report.rows],
        "newton_r2": [r.newton.r_squared for r in report.rows],
        "gradient_r2": [r.gradient.r_squared for r in report.rows],
        "n_points": [[r.newton.n_points, r.gradient.n_points] for r in report.rows],
    }
    return summary, text


_CERTIFY_AXIS = np.linspace(-5.0, 5.0, 40)
_CERTIFY_DHAT = np.linspace(-2.0, 2.0, 21)


def _verify(spec: dict) -> tuple[dict, str]:
    params, field = build_inputs("verify", spec)
    summary: dict = {}
    texts = []
    closed_forms = {}
    for scheme, make, form in (
        ("gradient", seekers.gradient_affine_system, seekers.AveragedForm.GRADIENT),
        ("newton", seekers.newton_affine_system, seekers.AveragedForm.NEWTON),
    ):
        system = make(params, field)
        assumptions = averaging.check_assumptions(system)
        engine = averaging.build_averaged_field(
            system, averaging.default_omega_grid(params.omega)
        )
        closed = closed_forms[scheme] = seekers.averaged_closed_loop(form, params, field)
        worst = 0.0
        for state in spec[f"states_{scheme}"]:
            x = np.array(state)
            reference = closed(0.0, x)
            scale = max(1.0, float(np.linalg.norm(reference)))
            worst = max(worst, float(np.linalg.norm(engine(x) - reference)) / scale)
        texts.append(str(assumptions))
        texts.append(engine.report())
        summary[f"assumptions_ok_{scheme}"] = bool(assumptions.ok)
        summary[f"defect_{scheme}"] = worst

    cert = stability.build_certificate(params.alpha, params.omega0,
                                       params.omega_d, field.hessian)
    z1, z2, dh = np.meshgrid(_CERTIFY_AXIS, _CERTIFY_AXIS, _CERTIFY_DHAT,
                             indexing="ij")
    vdot = stability.vdot_margin(np.stack([z1, z2], axis=-1), dh, cert)
    iss = stability.iss_bound_check(
        np.array(spec["iss_r"]), np.array(spec["iss_z"]), np.array(spec["iss_dh"]),
        field.hessian, params.h_gain, cert,
    )
    lin = {
        "averaged_gradient": stability.linearize(
            lambda s: closed_forms["gradient"](0.0, s),
            np.array([0.0, 0.0, field.f_star]),
        ),
        "averaged_newton": stability.linearize(
            lambda s: closed_forms["newton"](0.0, s),
            np.array([0.0, 0.0, 1.0 / field.hessian, field.f_star]),
        ),
    }
    margins = {"vdot_margin_max": float(np.max(vdot)),
               "iss_margin_min": float(np.min(iss))}
    texts.append(stability.stability_report(lin, cert=cert, grid_margins=margins))
    summary.update(
        cert_b=float(cert.b),
        cert_lam_min=float(cert.lam_min_p),
        vdot_max=margins["vdot_margin_max"],
        iss_min=margins["iss_margin_min"],
        abscissa_gradient=lin["averaged_gradient"].spectral_abscissa,
        abscissa_newton=lin["averaged_newton"].spectral_abscissa,
    )
    return summary, "".join(texts)


_TASKS = {"seek": _seek, "curvature_sweep": _curvature, "verify": _verify}


def run_task(workload: str, spec: dict) -> tuple[dict, str]:
    """Run one task; returns its summary and the report text it rendered."""
    return _TASKS[workload](spec)


# ---------------------------------------------------------------------------
# checks

#: Summary fields that must match the recorded reference of the default seed.
REFERENCE_FIELDS = {
    "seek": ("final_distance", "final_d", "d_window_mean", "entry_time",
             "n_samples", "final_state"),
    "curvature_sweep": ("newton_rates", "gradient_rates", "newton_r2",
                        "gradient_r2", "n_points"),
    "verify": ("cert_b", "cert_lam_min", "vdot_max", "iss_min"),
}
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12


def close_enough(a, b, rtol: float = REFERENCE_RTOL, atol: float = REFERENCE_ATOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
                and len(a) == len(b)
                and all(close_enough(x, y, rtol, atol) for x, y in zip(a, b)))
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_task(workload: str, summary: dict, reference: dict | None = None) -> list:
    """Return the list of failed checks (empty when the task is correct)."""
    problems = []
    if workload == "seek":
        if not summary["finite"]:
            problems.append("non-finite state")
        if summary["n_samples"] != summary["expected_samples"]:
            problems.append(f"{summary['n_samples']} samples, expected "
                            f"{summary['expected_samples']}")
        if summary["t_last"] != summary["t_end"]:
            problems.append(f"run ended at t={summary['t_last']}")
        if summary["final_d"] is not None:
            failed = [k for k, ok in summary["checks"].items() if not ok]
            if failed:
                problems.append(f"run_simulate checks failed: {failed}")
        elif summary["final_distance"] > summary["start_distance"] + summary["envelope"]:
            problems.append(f"gradient run drifted away: final distance "
                            f"{summary['final_distance']:.6g}")
    elif workload == "curvature_sweep":
        if not summary["passed"]:
            problems.append("hessian sweep report did not pass")
    else:
        for scheme in ("gradient", "newton"):
            if not summary[f"assumptions_ok_{scheme}"]:
                problems.append(f"{scheme} assumptions not ok")
            if not summary[f"defect_{scheme}"] <= ENGINE_DEFECT_LIMIT:
                problems.append(f"{scheme} engine defect {summary[f'defect_{scheme}']:.3e}")
            if not summary[f"abscissa_{scheme}"] < 0.0:
                problems.append(f"averaged {scheme} linearization is not stable")
        if not summary["vdot_max"] <= MARGIN_TOL:
            problems.append(f"vdot margin {summary['vdot_max']:.3e} > 0")
        if not summary["iss_min"] >= -MARGIN_TOL:
            problems.append(f"iss margin {summary['iss_min']:.3e} < 0")
    if reference is not None:
        for key in REFERENCE_FIELDS[workload]:
            if not close_enough(summary[key], reference[key]):
                problems.append(f"{key} = {summary[key]!r} differs from the "
                                f"reference {reference[key]!r}")
    return problems


def reference_record(workload: str, summary: dict) -> dict:
    return {key: summary[key] for key in REFERENCE_FIELDS[workload]}
