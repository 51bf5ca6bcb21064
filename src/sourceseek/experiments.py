"""Scenario configuration and the standard simulation studies.

Four studies are provided, mirroring the verification suite:

* :func:`run_simulate` - integrate one closed loop, export the trajectory,
  and summarize convergence (residual distance, Riccati settling, entry time
  into the target ball).
* :func:`run_compare` - run both schemes on identical field and initial
  conditions and compare entry times.
* :func:`run_omega_sweep` - quantify how the full oscillatory loops shadow
  their averaged limits as the dither frequency grows.
* :func:`run_hessian_invariance` - fit decay rates of the averaged loops
  across field curvatures.

Success thresholds (ball radius, Riccati tolerance, slack factors) are data,
not code: they live in the scenario/config objects, with defaults matching
the reference simulation setup used throughout the test suite.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import FieldParams, SeekerParams, eval_field
from .ode import IntegratorConfig, Trajectory, first_entry_time, integrate
from .seekers import (
    FRAME_SPECS,
    Frame,
    FrameSpec,
    Scheme,
    averaged_closed_loop,
    closed_loop,
    to_rotating_frame,
)

__all__ = [
    "ConfigError",
    "DEFAULT_FIELD",
    "DEFAULT_PARAMS",
    "DEFAULT_X0",
    "Scenario",
    "RateEstimate",
    "estimate_rate",
    "SimulateResult",
    "run_simulate",
    "CompareConfig",
    "CompareReport",
    "run_compare",
    "OmegaSweepConfig",
    "OmegaSweepReport",
    "run_omega_sweep",
    "HessianSweepConfig",
    "HessianSweepReport",
    "run_hessian_invariance",
    "AppConfig",
    "load_config",
]

TWO_PI = 2.0 * math.pi

DEFAULT_FIELD = FieldParams(f_star=5.0, hessian=0.01, source=np.array([1.0, -1.0]))
DEFAULT_PARAMS = SeekerParams(
    omega=15.0, omega0=1.0, alpha=2.0, p_exp=0.61, h_gain=1.0, omega_d=0.3
)
DEFAULT_X0 = (4.0, -4.0)


class ConfigError(ValueError):
    """Configuration file could not be parsed or validated."""


def _check_start(nu0: float, d0: float, newton: bool) -> None:
    """Reject a filter start that no run can integrate; ``d0`` matters only
    when a curvature-inverting run is made."""
    if not math.isfinite(nu0):
        raise ValueError(f"nu0 must be finite, got {nu0}")
    if newton and not 0.0 < d0 < math.inf:
        raise ValueError(
            f"d0={d0} rejected: the Riccati filter state must start "
            "finite and strictly positive (d <= 0 leaves its invariant "
            "basin d > 0)"
        )


@dataclass(frozen=True)
class Scenario:
    """One fully specified simulation run."""

    scheme: Scheme
    frame: Frame = Frame.ORIGINAL
    field: FieldParams = DEFAULT_FIELD
    params: SeekerParams = DEFAULT_PARAMS
    x0: tuple = DEFAULT_X0
    nu0: float = 0.0
    d0: float = 1.0
    t_end: float = 50.0
    samples_per_period: int = 60
    output_stride: int = 10
    ball_radius: float = 0.5
    d_tolerance: float = 0.1
    tail_fraction: float = 0.2
    out_path: str | None = None

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise ValueError(f"horizon must be positive, got t_end={self.t_end}")
        if not self.ball_radius > 0.0:
            raise ValueError("ball_radius must be positive")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError("tail_fraction must lie in (0, 1)")
        if (self.scheme, self.frame) not in FRAME_SPECS:
            raise ValueError(
                f"frame {self.frame.value!r} is undefined for scheme "
                f"{self.scheme.value!r}"
            )
        _check_start(self.nu0, self.d0, newton=self.scheme is Scheme.NEWTON)
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (2,) or not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must be a finite 2-vector, got {self.x0}")
        object.__setattr__(self, "x0", (float(x0[0]), float(x0[1])))

    # -- derived pieces -----------------------------------------------------

    @property
    def _spec(self) -> FrameSpec:
        return FRAME_SPECS[(self.scheme, self.frame)]

    @property
    def is_averaged(self) -> bool:
        return self._spec.form is not None

    def initial_state(self) -> np.ndarray:
        spec = self._spec
        x0 = np.asarray(self.x0, dtype=float)
        if spec.plane:
            start = x0
        else:
            start = to_rotating_frame(0.0, x0, self.field.source, self.params.omega0)
        offset = self.nu0 - eval_field(x0, self.field)
        return np.array(
            spec.layout(start, self.nu0, self.d0, offset, self.field.hessian)
        )

    def build_rhs(self):
        form = self._spec.form
        if form is None:
            return closed_loop(self.scheme, self.frame, self.params, self.field)
        return averaged_closed_loop(form, self.params, self.field)

    def integrator_config(self) -> IntegratorConfig:
        if self.is_averaged:
            omega_eff = max(self.params.omega0, self.params.h_gain,
                            self.params.omega_d)
            dt = TWO_PI / (omega_eff * self.samples_per_period)
            return IntegratorConfig(dt=dt,
                                    samples_per_period=self.samples_per_period,
                                    output_stride=1)
        omega_max = self.params.omega
        if self.scheme is Scheme.NEWTON:
            omega_max = 2.0 * self.params.omega  # double-frequency demodulation
        return IntegratorConfig.for_frequency(
            omega_max, self.samples_per_period, self.output_stride
        )

    def guard(self):
        """Positivity guard on the raw Riccati component, where one exists."""
        if self._spec.raw_d:
            return lambda t, s: s[2] > 0.0
        return None

    def position_ball(self) -> tuple[tuple[int, int], np.ndarray]:
        """(component indices, center) of the position ball for this frame."""
        spec = self._spec
        center = self.field.source if spec.plane else np.zeros(2)
        return spec.position, np.asarray(center, dtype=float)

    def d_series(self, traj: Trajectory) -> np.ndarray | None:
        """Riccati state along the trajectory, mapped back to raw d units."""
        d_of = self._spec.d_of
        return None if d_of is None else d_of(traj.states, self.field.hessian)


# ---------------------------------------------------------------------------
# decay-rate fitting


@dataclass(frozen=True)
class RateEstimate:
    """Fitted exponential decay rate with its fit window and quality."""

    rate: float
    window: tuple
    r_squared: float
    n_points: int

    @property
    def reliable(self) -> bool:
        return self.r_squared >= 0.9


def estimate_rate(traj: Trajectory, window, components=(0, 1)) -> RateEstimate:
    """Least-squares decay rate of ``|state[components]|`` over ``window``.

    When the magnitude oscillates, the fit uses its per-oscillation maxima
    (interior peaks) as envelope points; otherwise every sample in the
    window enters. The rate is minus the slope of the log magnitude.

    Raises
    ------
    ValueError
        If the window leaves fewer than 5 usable points, exceeds the
        trajectory span, or the magnitude is not strictly positive.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not (t1 > t0):
        raise ValueError(f"empty window {window}")
    times = traj.times
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise ValueError(
            f"window {window} outside trajectory span "
            f"[{times[0]}, {times[-1]}]"
        )
    mask = (times >= t0) & (times <= t1)
    ts = times[mask]
    magnitude = np.linalg.norm(traj.states[mask][:, list(components)], axis=1)
    if np.any(magnitude <= 0.0):
        raise ValueError("signal magnitude must stay positive over the window")

    interior = np.arange(1, len(magnitude) - 1)
    peaks = interior[
        (magnitude[interior] > magnitude[interior - 1])
        & (magnitude[interior] >= magnitude[interior + 1])
    ]
    if len(peaks) >= 2:
        ts_fit, mag_fit = ts[peaks], magnitude[peaks]
        if len(peaks) < 5:
            raise ValueError(
                f"only {len(peaks)} envelope points in window {window}; "
                "need at least 5"
            )
    else:
        ts_fit, mag_fit = ts, magnitude
        if len(ts_fit) < 5:
            raise ValueError(f"only {len(ts_fit)} samples in window {window}")

    y = np.log(mag_fit)
    design = np.column_stack([np.ones_like(ts_fit), ts_fit])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot < 1e-20:
        r_squared = 1.0 if ss_res < 1e-16 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return RateEstimate(
        rate=-float(coef[1]),
        window=(t0, t1),
        r_squared=r_squared,
        n_points=int(len(ts_fit)),
    )


# ---------------------------------------------------------------------------
# simulate


@dataclass
class SimulateResult:
    scenario: Scenario
    trajectory: Trajectory
    csv_path: Path | None
    final_distance: float
    final_d: float | None
    d_window_mean: float | None
    entry_time: float | None
    checks: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def report(self) -> str:
        lines = ["[simulate]"]
        lines.append(f"scheme = {self.scenario.scheme.value}")
        lines.append(f"frame = {self.scenario.frame.value}")
        for key, value in self.scenario.params.as_dict().items():
            lines.append(f"param_{key} = {value:.12g}")
        fld = self.scenario.field
        lines.append(f"field_f_star = {fld.f_star:g}")
        lines.append(f"field_hessian = {fld.hessian:g}")
        lines.append(f"field_source = {fld.source[0]:g}, {fld.source[1]:g}")
        lines.append(f"x0 = {self.scenario.x0[0]:g}, {self.scenario.x0[1]:g}")
        lines.append(f"t_end = {self.scenario.t_end:g}")
        lines.append(f"ball_radius = {self.scenario.ball_radius:g}")
        lines.append(f"final_distance = {self.final_distance:.9g}")
        if self.final_d is not None:
            lines.append(f"final_d = {self.final_d:.9g}")
            lines.append(f"d_window_mean = {self.d_window_mean:.9g}")
        entry = "none" if self.entry_time is None else f"{self.entry_time:.9g}"
        lines.append(f"entry_time = {entry}")
        for name, ok in self.checks.items():
            lines.append(f"check_{name} = {'pass' if ok else 'FAIL'}")
        if self.csv_path is not None:
            lines.append(f"trajectory_csv = {self.csv_path}")
        return "\n".join(lines) + "\n"


def run_simulate(scenario: Scenario, out_dir=None) -> SimulateResult:
    """Integrate the scenario's loop and summarize convergence.

    The summary reports the final distance to the target, the final and
    trailing-window-mean Riccati state (curvature-inverting runs), and the
    first time after which the position stays inside the configured ball.
    """
    config = scenario.integrator_config()
    traj = integrate(
        scenario.build_rhs(),
        scenario.initial_state(),
        0.0,
        scenario.t_end,
        config,
        guard=scenario.guard(),
        frame=scenario.frame.value,
        scheme=scenario.scheme.value,
        params=scenario.params.as_dict(),
    )
    comps, center = scenario.position_ball()
    positions = traj.states[:, list(comps)]
    final_distance = float(np.linalg.norm(positions[-1] - center))
    entry = first_entry_time(traj, center, scenario.ball_radius, comps)

    checks = {"ball_entry": entry is not None}
    d_vals = scenario.d_series(traj)
    final_d = d_window_mean = None
    if d_vals is not None:
        final_d = float(d_vals[-1])
        tail_start = scenario.t_end * (1.0 - scenario.tail_fraction)
        tail = d_vals[traj.times >= tail_start]
        d_window_mean = float(tail.mean())
        target = 1.0 / scenario.field.hessian
        checks["d_window_mean"] = (
            abs(d_window_mean - target) <= scenario.d_tolerance * target
        )

    csv_path = None
    if scenario.out_path is not None:
        csv_path = traj.to_csv(scenario.out_path)
    elif out_dir is not None:
        name = f"trajectory_{scenario.scheme.value}_{scenario.frame.value}.csv"
        csv_path = traj.to_csv(Path(out_dir) / name)

    return SimulateResult(
        scenario=scenario,
        trajectory=traj,
        csv_path=csv_path,
        final_distance=final_distance,
        final_d=final_d,
        d_window_mean=d_window_mean,
        entry_time=entry,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# compare


@dataclass(frozen=True)
class CompareConfig:
    field: FieldParams = DEFAULT_FIELD
    params: SeekerParams = DEFAULT_PARAMS
    x0: tuple = DEFAULT_X0
    nu0: float = 0.0
    d0: float = 1.0
    t_end: float = 50.0
    ball_radius: float = 0.5
    samples_per_period: int = 60
    output_stride: int = 10

    def __post_init__(self):
        _check_start(self.nu0, self.d0, newton=True)


@dataclass
class CompareReport:
    newton: SimulateResult
    gradient: SimulateResult
    entry_ratio: float | None

    @property
    def ordering_ok(self) -> bool:
        """Curvature-inverting entry strictly earlier than gradient entry
        (a missing gradient entry counts as infinitely late)."""
        t_n = self.newton.entry_time
        t_g = self.gradient.entry_time
        if t_n is None:
            return False
        return t_g is None or t_n < t_g

    @property
    def passed(self) -> bool:
        return self.ordering_ok

    def report(self) -> str:
        fmt = lambda v: "none" if v is None else f"{v:.9g}"
        lines = ["[compare]"]
        lines.append(f"ball_radius = {self.newton.scenario.ball_radius:g}")
        lines.append(f"newton_entry_time = {fmt(self.newton.entry_time)}")
        lines.append(f"gradient_entry_time = {fmt(self.gradient.entry_time)}")
        lines.append(f"entry_ratio = {fmt(self.entry_ratio)}")
        lines.append(f"check_ordering = {'pass' if self.ordering_ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def run_compare(config: CompareConfig, out_dir=None) -> CompareReport:
    """Run both schemes on identical field and initial conditions."""
    common = dict(
        field=config.field,
        params=config.params,
        x0=config.x0,
        nu0=config.nu0,
        t_end=config.t_end,
        ball_radius=config.ball_radius,
        samples_per_period=config.samples_per_period,
        output_stride=config.output_stride,
    )
    newton = run_simulate(
        Scenario(scheme=Scheme.NEWTON, d0=config.d0, **common), out_dir=out_dir
    )
    gradient = run_simulate(Scenario(scheme=Scheme.GRADIENT, **common), out_dir=out_dir)
    ratio = None
    if newton.entry_time is not None and gradient.entry_time is not None:
        ratio = newton.entry_time / gradient.entry_time
    return CompareReport(newton=newton, gradient=gradient, entry_ratio=ratio)


# ---------------------------------------------------------------------------
# frequency sweep


@dataclass(frozen=True)
class OmegaSweepConfig:
    omegas: tuple = (20.0, 40.0, 80.0)
    schemes: tuple = (Scheme.GRADIENT, Scheme.NEWTON)
    field: FieldParams = DEFAULT_FIELD
    params: SeekerParams = DEFAULT_PARAMS  # omega replaced per run
    x0: tuple = DEFAULT_X0
    nu0: float = 0.0
    d0: float = 1.0
    t_end: float = 30.0
    record_dt: float = 0.05
    tail_fraction: float = 0.5
    slack: float = 0.2
    samples_per_period: int = 60

    def __post_init__(self):
        omegas = tuple(float(w) for w in self.omegas)
        if len(omegas) < 3 or any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValueError("omegas must be an increasing list of >= 3 entries")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "schemes", tuple(self.schemes))
        _check_start(self.nu0, self.d0, newton=Scheme.NEWTON in self.schemes)


@dataclass
class OmegaSweepRow:
    scheme: str
    omega: float
    deviation: float | None
    ball_radius: float | None
    error: str | None = None


@dataclass
class OmegaSweepReport:
    rows: list
    slack: float
    averaged_identical: bool

    def column(self, scheme: Scheme, attr: str) -> list:
        return [getattr(r, attr) for r in self.rows if r.scheme == scheme.value]

    def _monotone(self, scheme: Scheme, attr: str) -> bool:
        values = [getattr(r, attr) for r in self.rows if r.scheme == scheme.value]
        if any(v is None for v in values):
            return False
        return all(b <= (1.0 + self.slack) * a for a, b in zip(values, values[1:]))

    def deviation_ok(self, scheme: Scheme) -> bool:
        return self._monotone(scheme, "deviation")

    def ball_ok(self, scheme: Scheme) -> bool:
        return self._monotone(scheme, "ball_radius")

    @property
    def passed(self) -> bool:
        schemes = {Scheme(r.scheme) for r in self.rows}
        return all(
            self.deviation_ok(s) and self.ball_ok(s) for s in schemes
        ) and all(r.error is None for r in self.rows)

    def report(self) -> str:
        lines = ["[omega_sweep]", f"slack = {self.slack:g}",
                 f"averaged_identical_across_sweep = {self.averaged_identical}"]
        for r in self.rows:
            if r.error is not None:
                lines.append(f"{r.scheme}_omega_{r.omega:g} = ERROR {r.error}")
            else:
                lines.append(
                    f"{r.scheme}_omega_{r.omega:g} = deviation {r.deviation:.6g}, "
                    f"residual_ball {r.ball_radius:.6g}"
                )
        schemes = {r.scheme for r in self.rows}
        for s in sorted(schemes):
            sch = Scheme(s)
            lines.append(f"check_{s}_deviation = "
                         f"{'pass' if self.deviation_ok(sch) else 'FAIL'}")
            lines.append(f"check_{s}_ball = "
                         f"{'pass' if self.ball_ok(sch) else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _matched_config(record_dt: float, dt_max: float,
                    omega_max: float | None, spp: int) -> IntegratorConfig:
    substeps = max(1, int(math.ceil(record_dt / dt_max - 1e-12)))
    return IntegratorConfig(
        dt=record_dt / substeps,
        samples_per_period=spp,
        output_stride=substeps,
        omega_max=omega_max,
    )


def run_omega_sweep(config: OmegaSweepConfig) -> OmegaSweepReport:
    """Integrate full and averaged loops across the frequency ladder.

    For each frequency the full rotating-frame loop and its averaged limit
    start from matched initial conditions and are recorded on the same time
    grid; the table carries the sup-norm state deviation and the radius of
    the ball that contains the full position trajectory over the trailing
    window. A RuntimeError or ValueError (an aborted integration, a grid
    mismatch, a rejected input) is recorded in that frequency's row with
    its type; any other exception propagates.
    """
    rows: list[OmegaSweepRow] = []
    averaged_runs: dict[str, list[np.ndarray]] = {}
    tail_start = config.t_end * (1.0 - config.tail_fraction)

    for scheme in config.schemes:
        frame = Frame.ROTATING_Z
        # the averaged limit has the rotating frame's state layout
        avg_frame = Frame(f"averaged_{scheme.value}")
        for omega in config.omegas:
            try:
                params = replace(config.params, omega=omega)
                base = dict(
                    field=config.field, params=params, x0=config.x0,
                    nu0=config.nu0, d0=config.d0, t_end=config.t_end,
                    samples_per_period=config.samples_per_period,
                )
                full_scn = Scenario(scheme=scheme, frame=frame, **base)
                avg_scn = Scenario(scheme=scheme, frame=avg_frame, **base)

                fast = full_scn.integrator_config()
                full_cfg = _matched_config(
                    config.record_dt, fast.dt, fast.omega_max,
                    config.samples_per_period,
                )
                # the averaged loop has no fast forcing; a fixed substep makes
                # its trajectory identical across the sweep
                avg_cfg = _matched_config(
                    config.record_dt, config.record_dt / 8.0, None,
                    config.samples_per_period,
                )

                full = integrate(
                    full_scn.build_rhs(), full_scn.initial_state(), 0.0,
                    config.t_end, full_cfg, guard=full_scn.guard(),
                    frame=frame.value, scheme=scheme.value,
                )
                avg = integrate(
                    avg_scn.build_rhs(), avg_scn.initial_state(), 0.0,
                    config.t_end, avg_cfg, guard=avg_scn.guard(),
                    frame=avg_frame.value, scheme=scheme.value,
                )
                if full.times.shape != avg.times.shape or not np.allclose(
                    full.times, avg.times, atol=1e-9
                ):
                    raise RuntimeError("recording grids failed to match")
                deviation = float(np.max(np.abs(full.states - avg.states)))
                tail = full.times >= tail_start
                ball = float(
                    np.max(np.linalg.norm(full.states[tail][:, :2], axis=1))
                )
                averaged_runs.setdefault(scheme.value, []).append(avg.states)
                rows.append(OmegaSweepRow(scheme.value, omega, deviation, ball))
            except (RuntimeError, ValueError) as exc:
                # per-frequency isolation: IntegrationAborted and a grid
                # mismatch are RuntimeErrors, bad inputs ValueErrors; any
                # other exception is a bug and propagates
                rows.append(OmegaSweepRow(
                    scheme.value, omega, None, None, f"{type(exc).__name__}: {exc}"
                ))

    identical = all(
        all(np.array_equal(states, runs[0]) for states in runs[1:])
        for runs in averaged_runs.values()
        if runs
    )
    return OmegaSweepReport(rows=rows, slack=config.slack,
                            averaged_identical=identical)


# ---------------------------------------------------------------------------
# curvature sweep


@dataclass(frozen=True)
class HessianSweepConfig:
    hessians: tuple = (0.01, 0.1, 1.0)
    params: SeekerParams = DEFAULT_PARAMS
    field: FieldParams = DEFAULT_FIELD  # hessian replaced per run
    x0: tuple = DEFAULT_X0
    nu0: float = 0.0
    d0: float = 1.0
    newton_tolerance: float = 0.10
    gradient_tolerance: float = 0.15

    def __post_init__(self):
        hs = tuple(float(h) for h in self.hessians)
        if len(hs) < 2 or max(hs) / min(hs) < 100.0 * (1.0 - 1e-9):
            raise ValueError("hessians must span at least two decades")
        object.__setattr__(self, "hessians", hs)
        _check_start(self.nu0, self.d0, newton=True)


@dataclass
class HessianSweepRow:
    hessian: float
    newton: RateEstimate
    gradient: RateEstimate


@dataclass
class HessianSweepReport:
    rows: list
    newton_tolerance: float
    gradient_tolerance: float

    def newton_invariant(self) -> bool:
        rates = [r.newton.rate for r in self.rows]
        return max(rates) / min(rates) - 1.0 <= self.newton_tolerance

    def gradient_proportional(self) -> bool:
        ratios = [r.gradient.rate / r.hessian for r in self.rows]
        return max(ratios) / min(ratios) - 1.0 <= self.gradient_tolerance

    @property
    def passed(self) -> bool:
        return (
            self.newton_invariant()
            and self.gradient_proportional()
            and all(r.newton.reliable and r.gradient.reliable for r in self.rows)
        )

    def report(self) -> str:
        lines = ["[hessian_sweep]"]
        for r in self.rows:
            flag_n = "" if r.newton.reliable else " UNRELIABLE"
            flag_g = "" if r.gradient.reliable else " UNRELIABLE"
            lines.append(
                f"H_{r.hessian:g} = newton_rate {r.newton.rate:.6g} "
                f"(R2 {r.newton.r_squared:.4f}{flag_n}), gradient_rate "
                f"{r.gradient.rate:.6g} (R2 {r.gradient.r_squared:.4f}{flag_g})"
            )
        lines.append(
            f"check_newton_invariant = "
            f"{'pass' if self.newton_invariant() else 'FAIL'}"
        )
        lines.append(
            f"check_gradient_proportional = "
            f"{'pass' if self.gradient_proportional() else 'FAIL'}"
        )
        return "\n".join(lines) + "\n"


def run_hessian_invariance(config: HessianSweepConfig) -> HessianSweepReport:
    """Fit averaged decay rates across curvatures.

    The curvature-inverting rows fit after the inverse-curvature filter has
    settled (ten filter time constants plus margin); the gradient rows fit
    from the start over a horizon scaled to the expected decay so every fit
    sees comparable decay depth.
    """
    rows = []
    params = config.params
    for hess in config.hessians:
        field = replace(config.field, hessian=hess)
        base = dict(field=field, params=params, x0=config.x0, nu0=config.nu0)

        fit_start = 10.0 / params.omega_d + 2.0
        horizon = fit_start + 35.0
        newton_scn = Scenario(
            scheme=Scheme.NEWTON, frame=Frame.AVERAGED_NEWTON, d0=config.d0,
            t_end=horizon, samples_per_period=120, **base,
        )
        traj_n = integrate(
            newton_scn.build_rhs(), newton_scn.initial_state(), 0.0, horizon,
            newton_scn.integrator_config(), guard=newton_scn.guard(),
        )
        rate_n = estimate_rate(traj_n, (fit_start, horizon))

        grad_horizon = 48.0 / (params.alpha * hess)
        grad_scn = Scenario(
            scheme=Scheme.GRADIENT, frame=Frame.AVERAGED_GRADIENT,
            t_end=grad_horizon, samples_per_period=120, **base,
        )
        traj_g = integrate(
            grad_scn.build_rhs(), grad_scn.initial_state(), 0.0, grad_horizon,
            grad_scn.integrator_config(),
        )
        rate_g = estimate_rate(traj_g, (0.0, grad_horizon))
        rows.append(HessianSweepRow(hessian=hess, newton=rate_n, gradient=rate_g))
    return HessianSweepReport(
        rows=rows,
        newton_tolerance=config.newton_tolerance,
        gradient_tolerance=config.gradient_tolerance,
    )


# ---------------------------------------------------------------------------
# config files


@dataclass
class AppConfig:
    field: FieldParams
    params: SeekerParams
    scenario: dict
    compare: dict
    sweep_omega: dict
    sweep_hessian: dict
    seed: int | None = None  # sample states of `average`, ISS points of `certify`

    def make_scenario(self) -> Scenario:
        kwargs = {"scheme": Scheme.NEWTON, **self.scenario}
        return Scenario(field=self.field, params=self.params, **kwargs)

    def make_compare(self) -> CompareConfig:
        return CompareConfig(field=self.field, params=self.params, **self.compare)

    def make_omega_sweep(self) -> OmegaSweepConfig:
        return OmegaSweepConfig(field=self.field, params=self.params,
                                **self.sweep_omega)

    def make_hessian_sweep(self) -> HessianSweepConfig:
        return HessianSweepConfig(field=self.field, params=self.params,
                                  **self.sweep_hessian)


def _parse_floats(raw: str) -> tuple:
    return tuple(float(part.strip()) for part in raw.split(",") if part.strip())


_SCENARIO_KEYS = {
    "scheme": lambda v: Scheme(v.strip().lower()),
    "frame": lambda v: Frame(v.strip().lower()),
    "x0": _parse_floats,
    "nu0": float,
    "d0": float,
    "t_end": float,
    "samples_per_period": int,
    "output_stride": int,
    "ball_radius": float,
    "d_tolerance": float,
    "tail_fraction": float,
    "out_path": str,
}

_COMPARE_KEYS = {
    "x0": _parse_floats,
    "nu0": float,
    "d0": float,
    "t_end": float,
    "ball_radius": float,
    "samples_per_period": int,
    "output_stride": int,
}

_SWEEP_OMEGA_KEYS = {
    "omegas": _parse_floats,
    "schemes": lambda v: tuple(Scheme(s.strip().lower()) for s in v.split(",")),
    "x0": _parse_floats,
    "nu0": float,
    "d0": float,
    "t_end": float,
    "record_dt": float,
    "tail_fraction": float,
    "slack": float,
    "samples_per_period": int,
}

_SWEEP_HESSIAN_KEYS = {
    "hessians": _parse_floats,
    "x0": _parse_floats,
    "nu0": float,
    "d0": float,
    "newton_tolerance": float,
    "gradient_tolerance": float,
}


def _parse_section(parser, name: str, converters: dict) -> dict:
    if not parser.has_section(name):
        return {}
    out = {}
    for key, raw in parser.items(name):
        if key not in converters:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        try:
            out[key] = converters[key](raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(
                f"bad value for {key!r} in section [{name}]: {raw!r} ({exc})"
            ) from exc
    return out


def load_config(path=None) -> AppConfig:
    """Load a key = value experiment configuration.

    All sections and keys are optional; anything omitted falls back to the
    reference defaults (dither frequency 15, turn rate 1, feedback scale 2,
    exponent 0.61, filter gain 1, Riccati gain 0.3; field peak 5 with
    curvature 0.01 at (1, -1); start (4, -4), horizon 50).
    """
    parser = configparser.ConfigParser()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc

    field_kwargs = _parse_section(
        parser, "field",
        {"f_star": float, "hessian": float, "source": _parse_floats},
    )
    params_kwargs = _parse_section(
        parser, "params",
        {k: float for k in ("omega", "omega0", "alpha", "p_exp", "h_gain", "omega_d")},
    )
    try:
        field = (
            replace(DEFAULT_FIELD, **field_kwargs) if field_kwargs else DEFAULT_FIELD
        )
        params = (
            replace(DEFAULT_PARAMS, **params_kwargs) if params_kwargs
            else DEFAULT_PARAMS
        )
        app = AppConfig(
            field=field,
            params=params,
            scenario=_parse_section(parser, "scenario", _SCENARIO_KEYS),
            compare=_parse_section(parser, "compare", _COMPARE_KEYS),
            sweep_omega=_parse_section(parser, "sweep_omega", _SWEEP_OMEGA_KEYS),
            sweep_hessian=_parse_section(parser, "sweep_hessian", _SWEEP_HESSIAN_KEYS),
        )
        if parser.has_section("run") and parser.has_option("run", "seed"):
            app.seed = parser.getint("run", "seed")
        # construct eagerly so validation errors surface as config errors
        app.make_scenario()
        app.make_compare()
        app.make_omega_sweep()
        app.make_hessian_sweep()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return app
