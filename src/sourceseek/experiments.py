"""Scenario configuration and the standard studies.

Six studies are provided, one per subcommand; each returns a result with a
``passed`` verdict and a key = value ``report()``:

* :func:`run_simulate` - integrate one closed loop, export the trajectory,
  and summarize convergence (residual distance, Riccati settling, entry time
  into the target ball).
* :func:`run_compare` - run both schemes on identical field and initial
  conditions and compare entry times.
* :func:`run_omega_sweep` - quantify how the full oscillatory loops shadow
  their averaged limits as the dither frequency grows.
* :func:`run_hessian_invariance` - fit decay rates of the averaged loops
  across field curvatures.
* :func:`run_average` - run the averaging engine on one scheme's loop and
  check it against the closed-form average.
* :func:`run_certify` - build the Lyapunov/ISS certificate, check its
  margins and linearize both averaged loops at their equilibria.

Success thresholds (ball radius, Riccati tolerance, slack factors) are data,
not code: they live in the scenario/config objects, with defaults matching
the reference simulation setup used throughout the test suite. Each study
config builds the :class:`Scenario` objects its run integrates when it is
constructed, so a config that constructs is one whose runs can start.
"""

from __future__ import annotations

import configparser
import enum
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .averaging import AssumptionReport, AveragedField, build_averaged_field, \
    check_assumptions, default_omega_grid
from .model import FieldParams, SeekerParams
from .numdiff import directional_derivative
from .ode import IntegratorConfig, Trajectory, first_entry_time, integrate
from .seekers import FRAME_SPECS, AveragedForm, Frame, FrameSpec, Scheme, \
    averaged_closed_loop, closed_loop, gradient_affine_system, \
    newton_affine_system, to_rotating_frame
from .stability import LyapunovCertificate, build_certificate, iss_bound_check, \
    linearize, stability_report, vdot_margin

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
    "AverageReport",
    "run_average",
    "CertifyReport",
    "run_certify",
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


def _positive(name: str, values) -> tuple:
    """``values`` as a tuple of floats, each finite and strictly positive."""
    values = tuple(float(v) for v in values)
    if not all(0.0 < v < math.inf for v in values):
        raise ValueError(f"{name} must be finite and positive, got {values}")
    return values


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

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"horizon t_end must be finite and > 0, got {self.t_end}")
        _positive("ball_radius and d_tolerance", (self.ball_radius, self.d_tolerance))
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError("tail_fraction must lie in (0, 1)")
        if (self.scheme, self.frame) not in FRAME_SPECS:
            raise ValueError(
                f"frame {self.frame.value!r} is undefined for scheme "
                f"{self.scheme.value!r}"
            )
        if not math.isfinite(self.nu0):
            raise ValueError(f"nu0 must be finite, got {self.nu0}")
        # d0 matters only for a curvature-inverting run
        if self.scheme is Scheme.NEWTON and not 0.0 < self.d0 < math.inf:
            raise ValueError(
                f"d0={self.d0} rejected: the Riccati filter state must start "
                "finite and strictly positive (d <= 0 leaves its invariant "
                "basin d > 0)"
            )
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (2,) or not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must be a finite 2-vector, got {self.x0}")
        object.__setattr__(self, "x0", (float(x0[0]), float(x0[1])))
        self.integrator_config()  # rejects the step policy's own bad values

    # -- derived pieces -----------------------------------------------------

    @property
    def _spec(self) -> FrameSpec:
        return FRAME_SPECS[(self.scheme, self.frame)]

    @property
    def is_averaged(self) -> bool:
        return self._spec.form is not None

    def _coordinates(self):
        """The frame's map ``(to, back)``, or None for the identity."""
        coordinates = self._spec.coordinates
        return coordinates and coordinates(self.field)

    def initial_state(self) -> np.ndarray:
        """The loop's own start ``[p1, p2, d0, nu0]`` (``[p1, p2, nu0]`` for
        the gradient scheme) in the frame's coordinates."""
        x0 = np.asarray(self.x0, dtype=float)
        p = x0 if self._spec.plane else to_rotating_frame(
            0.0, x0, self.field.source, self.params.omega0)
        d0 = () if self.scheme is Scheme.GRADIENT else (self.d0,)
        state, coordinates = (p[0], p[1], *d0, self.nu0), self._coordinates()
        return np.array(state if coordinates is None else coordinates[0](state))

    def build_rhs(self):
        """The frame's closed loop; an averaged form is pushed forward through
        the frame's map, ``y' = Dto(x)[f(x)]`` at ``x = back(y)``."""
        form, coordinates = self._spec.form, self._coordinates()
        if form is None:
            return closed_loop(self.scheme, self.frame, self.params, self.field)
        rhs = averaged_closed_loop(form, self.params, self.field)
        if coordinates is None:
            return rhs
        to, back = coordinates

        def pushed(t, y):
            x = back(y)
            return tuple(directional_derivative(to, x, rhs(t, x)))

        return pushed

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

    def run(self, config: IntegratorConfig | None = None) -> Trajectory:
        """Integrate this run's loop from its start over ``[0, t_end]``, with
        ``config`` in place of :meth:`integrator_config` when given."""
        return integrate(self.build_rhs(), self.initial_state(), 0.0, self.t_end,
                         config or self.integrator_config(), guard=self.guard())

    def guard(self):
        """Positivity guard on the raw Riccati component, where one exists."""
        if self.scheme is Scheme.NEWTON and self._spec.coordinates is None:
            return lambda t, s: s[2] > 0.0
        return None

    def position_ball(self) -> tuple[tuple[int, int], np.ndarray]:
        """(component indices, center) of the position ball for this frame."""
        spec = self._spec
        center = self.field.source if spec.plane else np.zeros(2)
        return spec.position, np.asarray(center, dtype=float)

    def d_series(self, traj: Trajectory) -> np.ndarray | None:
        """Riccati state along the trajectory, mapped back to raw d units."""
        if self.scheme is Scheme.GRADIENT:
            return None
        states, coordinates = traj.states.T, self._coordinates()
        return (states if coordinates is None else coordinates[1](states))[2]


def _check_lines(checks: dict) -> list[str]:
    """One ``check_<name> = pass|FAIL`` report line per entry of ``checks``."""
    return [f"check_{name} = {'pass' if ok else 'FAIL'}" for name, ok in checks.items()]


def _scenario(config, **changes) -> Scenario:
    """A :class:`Scenario` that takes every field it shares by name with the
    study ``config``, then ``changes``."""
    shared = {f.name: getattr(config, f.name) for f in fields(Scenario)
              if hasattr(config, f.name)}
    return Scenario(**{**shared, **changes})


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
        lines += _check_lines(self.checks)
        if self.csv_path is not None:
            lines.append(f"trajectory_csv = {self.csv_path}")
        return "\n".join(lines) + "\n"


def run_simulate(scenario: Scenario, out_dir=None) -> SimulateResult:
    """Integrate the scenario's loop and summarize convergence.

    The summary reports the final distance to the target, the final and
    trailing-window-mean Riccati state (curvature-inverting runs), and the
    first time after which the position stays inside the configured ball.
    """
    traj = scenario.run()
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
    if out_dir is not None:
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
    """Both schemes from one start; ``scenarios`` holds the curvature-inverting
    run and the gradient run, built at construction."""

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
        newton = _scenario(self, scheme=Scheme.NEWTON)
        gradient = replace(newton, scheme=Scheme.GRADIENT)
        object.__setattr__(self, "scenarios", (newton, gradient))


@dataclass
class CompareReport:
    """The two runs of :func:`run_compare`; the report carries both runs'
    own reports after its comparison."""

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
        lines += _check_lines({"ordering": self.ordering_ok})
        return "\n".join(lines) + "\n" + self.newton.report() + self.gradient.report()


def run_compare(config: CompareConfig, out_dir=None) -> CompareReport:
    """Run both schemes on identical field and initial conditions."""
    newton, gradient = (run_simulate(s, out_dir=out_dir) for s in config.scenarios)
    ratio = None
    # a gradient run that starts inside the ball enters at t = 0
    if newton.entry_time is not None and (gradient.entry_time or 0.0) > 0.0:
        ratio = newton.entry_time / gradient.entry_time
    return CompareReport(newton=newton, gradient=gradient, entry_ratio=ratio)


# ---------------------------------------------------------------------------
# frequency sweep


@dataclass(frozen=True)
class OmegaSweepConfig:
    """Full loops against their averaged limits across a frequency ladder.

    ``runs`` holds, for each scheme and then each omega, the tuple (full
    rotating-frame Scenario, its integrator config, averaged Scenario, its
    integrator config), built at construction; both configs record every
    ``record_dt``.
    """

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
        omegas = _positive("omegas", self.omegas)
        if len(omegas) < 3 or any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValueError("omegas must be an increasing list of >= 3 entries")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.schemes or len(set(self.schemes)) < len(self.schemes):
            raise ValueError("schemes must name at least one scheme, none twice")
        if not 0.0 < self.record_dt < math.inf:
            raise ValueError(f"record_dt must be finite and positive, got "
                             f"{self.record_dt}")
        if not self.slack >= 0.0:
            raise ValueError(f"slack must be >= 0, got {self.slack}")
        # the averaged loop has no fast forcing; a fixed substep makes its
        # trajectory identical across the sweep
        avg_config = _matched_config(self.record_dt, self.record_dt / 8.0, None,
                                     self.samples_per_period)
        runs = []
        for scheme in self.schemes:
            for omega in omegas:
                # tail_fraction is shared, so the Scenario checks it too
                full = _scenario(self, scheme=scheme, frame=Frame.ROTATING_Z,
                                 params=replace(self.params, omega=omega))
                # the averaged limit has the rotating frame's state layout
                avg = replace(full, frame=Frame(f"averaged_{scheme.value}"))
                fast = full.integrator_config()
                full_config = _matched_config(self.record_dt, fast.dt,
                                              fast.omega_max, self.samples_per_period)
                runs.append((full, full_config, avg, avg_config))
        object.__setattr__(self, "runs", tuple(runs))


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
        values = self.column(scheme, attr)
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
        for s in sorted({r.scheme for r in self.rows}):
            lines += _check_lines({f"{s}_deviation": self.deviation_ok(Scheme(s)),
                                   f"{s}_ball": self.ball_ok(Scheme(s))})
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
    mismatch, a rejected start) is recorded in that frequency's row with
    its type; any other exception propagates.
    """
    rows: list[OmegaSweepRow] = []
    averaged_runs: dict[str, list[np.ndarray]] = {}
    tail_start = config.t_end * (1.0 - config.tail_fraction)

    for full_scn, full_config, avg_scn, avg_config in config.runs:
        scheme, omega = full_scn.scheme.value, full_scn.params.omega
        try:
            full = full_scn.run(full_config)
            avg = avg_scn.run(avg_config)
            if full.times.shape != avg.times.shape or not np.allclose(
                full.times, avg.times, atol=1e-9
            ):
                raise RuntimeError("recording grids failed to match")
            deviation = float(np.max(np.abs(full.states - avg.states)))
            tail = full.times >= tail_start
            ball = float(np.max(np.linalg.norm(full.states[tail][:, :2], axis=1)))
            averaged_runs.setdefault(scheme, []).append(avg.states)
            rows.append(OmegaSweepRow(scheme, omega, deviation, ball))
        except (RuntimeError, ValueError) as exc:
            # per-frequency isolation: IntegrationAborted and a grid mismatch
            # are RuntimeErrors, a start the guard rejects a ValueError; any
            # other exception is a bug and propagates
            rows.append(OmegaSweepRow(
                scheme, omega, None, None, f"{type(exc).__name__}: {exc}"
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
    """Averaged decay rates across field curvatures.

    ``runs`` holds, for each curvature, the averaged curvature-inverting
    Scenario, the averaged gradient Scenario and the former's fit window,
    built at construction. The curvature-inverting run is fitted after its
    inverse-curvature filter has settled (ten filter time constants plus
    margin); the gradient run is fitted from the start over a horizon scaled
    to its expected decay, so every fit sees comparable decay depth.
    """

    hessians: tuple = (0.01, 0.1, 1.0)
    params: SeekerParams = DEFAULT_PARAMS
    field: FieldParams = DEFAULT_FIELD  # hessian replaced per run
    x0: tuple = DEFAULT_X0
    nu0: float = 0.0
    d0: float = 1.0
    newton_tolerance: float = 0.10
    gradient_tolerance: float = 0.15

    def __post_init__(self):
        hs = _positive("hessians", self.hessians)
        if len(hs) < 2 or max(hs) / min(hs) < 100.0 * (1.0 - 1e-9):
            raise ValueError("hessians must span at least two decades")
        if np.array_equal(self.x0, self.field.source):
            raise ValueError("x0 is the source: the runs have no decay to fit")
        object.__setattr__(self, "hessians", hs)
        _positive("newton_tolerance and gradient_tolerance",
                  (self.newton_tolerance, self.gradient_tolerance))
        fit_start = 10.0 / self.params.omega_d + 2.0
        window = (fit_start, fit_start + 35.0)
        runs = []
        for hess in hs:
            newton = _scenario(
                self, scheme=Scheme.NEWTON, frame=Frame.AVERAGED_NEWTON,
                field=replace(self.field, hessian=hess), t_end=window[1],
                samples_per_period=120,
            )
            gradient = replace(newton, scheme=Scheme.GRADIENT,
                               frame=Frame.AVERAGED_GRADIENT,
                               t_end=48.0 / (self.params.alpha * hess))
            runs.append((newton, gradient, window))
        object.__setattr__(self, "runs", tuple(runs))


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
        lines += _check_lines({"newton_invariant": self.newton_invariant(),
                               "gradient_proportional": self.gradient_proportional()})
        return "\n".join(lines) + "\n"


def run_hessian_invariance(config: HessianSweepConfig) -> HessianSweepReport:
    """Fit the decay rate of each of ``config.runs``."""
    rows = []
    for newton, gradient, window in config.runs:
        rate_n = estimate_rate(newton.run(), window)
        rate_g = estimate_rate(gradient.run(), (0.0, gradient.t_end))
        rows.append(HessianSweepRow(hessian=newton.field.hessian,
                                    newton=rate_n, gradient=rate_g))
    return HessianSweepReport(
        rows=rows,
        newton_tolerance=config.newton_tolerance,
        gradient_tolerance=config.gradient_tolerance,
    )


# ---------------------------------------------------------------------------
# averaging engine and certificate


@dataclass
class AverageReport:
    """The engine's hypotheses and field for one scheme, and its worst
    relative defect against the closed-form average on seeded states."""

    assumptions: AssumptionReport
    engine: AveragedField
    worst_defect: float

    @property
    def agreement_ok(self) -> bool:
        return self.worst_defect <= 1e-4

    @property
    def passed(self) -> bool:
        return self.assumptions.ok and self.agreement_ok

    def report(self) -> str:
        lines = [str(self.assumptions), self.engine.report(), "[closed_form_agreement]",
                 f"worst_relative_defect = {self.worst_defect:.3e}",
                 *_check_lines({"agreement": self.agreement_ok})]
        return "\n".join(lines) + "\n"


def run_average(scheme: Scheme, params: SeekerParams, field: FieldParams,
                seed: int = 0) -> AverageReport:
    """Check the averaging hypotheses of ``scheme``'s rotating-frame loop,
    build its averaged field, and compare it with the closed-form average at
    10 states drawn from ``seed``."""
    make = newton_affine_system if scheme is Scheme.NEWTON else gradient_affine_system
    system = make(params, field)
    assumptions = check_assumptions(system)
    engine = build_averaged_field(system, default_omega_grid(params.omega))
    closed = averaged_closed_loop(AveragedForm(scheme.value), params, field)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        state = rng.uniform(-3.0, 3.0, size=system.dimension)
        if system.dimension == 4:
            state[2] = rng.uniform(0.1, 2.0 / field.hessian)
        reference = closed(0.0, state)
        scale = max(1.0, float(np.linalg.norm(reference)))
        worst = max(worst, float(np.linalg.norm(engine(state) - reference)) / scale)
    return AverageReport(assumptions=assumptions, engine=engine, worst_defect=worst)


@dataclass
class CertifyReport:
    """The Lyapunov/ISS certificate, its worst margins (``vdot_margin_max``
    over a grid, ``iss_margin_min`` over seeded points) and the
    linearizations of both averaged loops at their equilibria."""

    certificate: LyapunovCertificate
    linearizations: dict
    margins: dict

    @property
    def checks(self) -> dict:
        """Both margins on the right side of zero, within 1e-9."""
        return {"vdot": self.margins["vdot_margin_max"] <= 1e-9,
                "iss": self.margins["iss_margin_min"] >= -1e-9}

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def report(self) -> str:
        text = stability_report(self.linearizations, cert=self.certificate,
                                grid_margins=self.margins)
        return text + "\n".join(_check_lines(self.checks)) + "\n"


def run_certify(params: SeekerParams, field: FieldParams,
                seed: int = 0) -> CertifyReport:
    """Certify the averaged Newton cascade: the Lyapunov derivative margin on
    a 40 x 40 x 21 grid of ``(z, d_hat)``, the ISS bound at 1000 points drawn
    from ``seed``, and the spectra of both averaged loops."""
    cert = build_certificate(params.alpha, params.omega0, params.omega_d,
                             field.hessian)
    axis = np.linspace(-5.0, 5.0, 40)
    z1, z2, dh = np.meshgrid(axis, axis, np.linspace(-2.0, 2.0, 21), indexing="ij")
    vdot = vdot_margin(np.stack([z1, z2], axis=-1), dh, cert)

    rng = np.random.default_rng(seed)  # offset r, then z, then d_hat
    iss = iss_bound_check(rng.uniform(-3.0, 3.0, 1000),
                          rng.uniform(-5.0, 5.0, (1000, 2)),
                          rng.uniform(-2.0, 2.0, 1000), field.hessian,
                          params.h_gain, cert)

    equilibria = {AveragedForm.GRADIENT: [0.0, 0.0, field.f_star],
                  AveragedForm.NEWTON: [0.0, 0.0, 1.0 / field.hessian, field.f_star]}
    linearizations = {}
    for form, x_eq in equilibria.items():
        rhs = averaged_closed_loop(form, params, field)
        linearizations[f"averaged_{form.value}"] = linearize(
            lambda s: rhs(0.0, s), np.array(x_eq))
    margins = {"vdot_margin_max": float(np.max(vdot)),
               "iss_margin_min": float(np.min(iss))}
    return CertifyReport(cert, linearizations, margins)


# ---------------------------------------------------------------------------
# config files


@dataclass(frozen=True)
class AppConfig:
    """Everything one configuration file describes, built and validated."""

    field: FieldParams
    params: SeekerParams
    scenario: Scenario
    compare: CompareConfig
    sweep_omega: OmegaSweepConfig
    sweep_hessian: HessianSweepConfig
    seed: int = 0  # sample states of `average`, ISS points of `certify`

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _value_parser(default):
    """Parser of a config value for a field whose default is ``default``:
    a comma-separated list for a tuple (or array), a member name for an
    enum, otherwise the default's own type."""
    if isinstance(default, (tuple, np.ndarray)):
        item = _value_parser(default[0]) if isinstance(default[0], enum.Enum) else float
        return lambda raw: tuple(item(part) for part in raw.split(",") if part.strip())
    if isinstance(default, enum.Enum):
        return lambda raw: type(default)(raw.strip().lower())
    return type(default)


def _parse_section(parser, name: str, default):
    """``default`` with the values that section ``[name]`` sets.

    The section's keys are the dataclass fields of ``default`` other than
    ``field`` and ``params``, which have sections of their own.
    """
    if not parser.has_section(name):
        return default
    keys = [f.name for f in fields(default) if f.name not in ("field", "params")]
    changes = {}
    for key, raw in parser.items(name):
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        try:
            changes[key] = _value_parser(getattr(default, key))(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(
                f"bad value for {key!r} in section [{name}]: {raw!r} ({exc})"
            ) from exc
    return replace(default, **changes)


def load_config(path=None) -> AppConfig:
    """Load a key = value experiment configuration.

    All sections and keys are optional, and an unknown one is a
    ConfigError; anything omitted falls back to the reference defaults
    (dither frequency 15, turn rate 1, feedback scale 2, exponent 0.61,
    filter gain 1, Riccati gain 0.3; field peak 5 with curvature 0.01 at
    (1, -1); start (4, -4), horizon 50). Every run the file describes is
    built here, so a value no run can use is a ConfigError.
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
    sections = {f.name for f in fields(AppConfig)} - {"seed"} | {"run"}
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"unknown section [{name}]")
    for key in parser.options("run") if parser.has_section("run") else ():
        if key != "seed":
            raise ConfigError(f"unknown key {key!r} in section [run]")

    try:
        field = _parse_section(parser, "field", DEFAULT_FIELD)
        params = _parse_section(parser, "params", DEFAULT_PARAMS)
        shared = dict(field=field, params=params)
        return AppConfig(
            scenario=_parse_section(parser, "scenario",
                                    Scenario(scheme=Scheme.NEWTON, **shared)),
            compare=_parse_section(parser, "compare", CompareConfig(**shared)),
            sweep_omega=_parse_section(parser, "sweep_omega",
                                       OmegaSweepConfig(**shared)),
            sweep_hessian=_parse_section(parser, "sweep_hessian",
                                         HessianSweepConfig(**shared)),
            seed=parser.getint("run", "seed", fallback=0),
            **shared,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
