"""Scenario configuration and the standard studies.

Six studies are provided, one per subcommand. Each returns a
:class:`StudyResult`: a ``checks`` table, check name to outcome, and a
key = value ``report()`` that prints the table as the ``check_*`` lines of
the study's own section. The ``passed`` verdict, which the command line maps
to its exit code, is the conjunction of those lines, so a failed study
always shows which check of its own section failed:

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
from .model import FieldParams, SeekerParams, _positive, _section
from .ode import IntegratorConfig, Trajectory, _check_stride, first_entry_time, integrate
from .seekers import Frame, FrameSpec, Scheme, affine_system, averaged_closed_loop, \
    closed_loop, frame_spec, to_rotating_frame
from .stability import LyapunovCertificate, _grid_margins, build_certificate, \
    iss_bound_check, linearize, stability_report, vdot_margin

__all__ = [
    "ConfigError",
    "DEFAULT_FIELD",
    "DEFAULT_PARAMS",
    "DEFAULT_X0",
    "Scenario",
    "RateEstimate",
    "estimate_rate",
    "StudyResult",
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

DEFAULT_FIELD = FieldParams(f_star=5.0, hessian=0.01, source=np.array([1.0, -1.0]))
DEFAULT_PARAMS = SeekerParams(
    omega=15.0, omega0=1.0, alpha=2.0, p_exp=0.61, h_gain=1.0, omega_d=0.3
)
DEFAULT_X0 = (4.0, -4.0)


class ConfigError(ValueError):
    """Configuration file could not be parsed or validated."""


@dataclass(frozen=True, kw_only=True)
class _Start:
    """The field, the gains and the initial state ``(x0, nu0, d0)`` that a run
    starts from, and that a study shares among its runs."""

    field: FieldParams = DEFAULT_FIELD
    params: SeekerParams = DEFAULT_PARAMS
    x0: tuple = DEFAULT_X0
    nu0: float = 0.0
    d0: float = 1.0


@dataclass(frozen=True, kw_only=True)
class Scenario(_Start):
    """One fully specified simulation run."""

    scheme: Scheme
    frame: Frame = Frame.ORIGINAL
    t_end: float = 50.0
    samples_per_period: int = 60
    output_stride: int = 10
    ball_radius: float = 0.5
    d_tolerance: float = 0.1
    tail_fraction: float = 0.2

    def __post_init__(self):
        _positive("horizon t_end", (self.t_end,))
        _positive("ball_radius and d_tolerance", (self.ball_radius, self.d_tolerance))
        _check_stride(self.output_stride)  # also where every step is recorded
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError("tail_fraction must lie in (0, 1)")
        frame_spec(self.scheme, self.frame)  # refuses a pair outside FRAME_SPECS
        if not math.isfinite(self.nu0):
            raise ValueError(f"nu0 must be finite, got {self.nu0}")
        if self.scheme is Scheme.NEWTON:  # d0 matters only for this scheme
            _positive(f"d0={self.d0} rejected: the Riccati filter state, whose "
                      "invariant basin is d > 0,", (self.d0,))
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (2,) or not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must be a finite 2-vector, got {self.x0}")
        object.__setattr__(self, "x0", (float(x0[0]), float(x0[1])))
        self.integrator_config()  # rejects the step policy's own bad values

    # -- derived pieces -----------------------------------------------------

    @property
    def spec(self) -> FrameSpec:
        """The :data:`~sourceseek.seekers.FRAME_SPECS` entry of the run's pair."""
        return frame_spec(self.scheme, self.frame)

    def _coordinates(self):
        """The frame's map ``(to, back)``, or None for the identity."""
        coordinates = self.spec.coordinates
        return coordinates and coordinates(self.field)

    def initial_state(self) -> np.ndarray:
        """The loop's own start ``[p1, p2, d0, nu0]`` (``[p1, p2, nu0]`` for
        the gradient scheme) in the frame's coordinates."""
        x0 = np.asarray(self.x0, dtype=float)
        p = x0 if self.spec.plane else to_rotating_frame(
            0.0, x0, self.field.source, self.params.omega0)
        d0 = () if self.scheme is Scheme.GRADIENT else (self.d0,)
        state, coordinates = (p[0], p[1], *d0, self.nu0), self._coordinates()
        return np.array(state if coordinates is None else coordinates[0](state))

    def build_rhs(self):
        """The frame's closed loop (:func:`~sourceseek.seekers.closed_loop`)."""
        return closed_loop(self.scheme, self.frame, self.params, self.field)

    def integrator_config(self) -> IntegratorConfig:
        if self.spec.averaged:  # its fastest rate, recorded at every step
            return IntegratorConfig.for_frequency(
                max(self.params.omega0, self.params.h_gain, self.params.omega_d),
                self.samples_per_period)
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
        if self.scheme is Scheme.NEWTON and self.spec.coordinates is None:
            return lambda t, s: s[2] > 0.0
        return None

    def position_ball(self) -> tuple[tuple[int, int], np.ndarray]:
        """(component indices, center) of the position ball for this frame."""
        center = self.field.source if self.spec.plane else np.zeros(2)
        return self.spec.position, np.asarray(center, dtype=float)

    def d_series(self, traj: Trajectory) -> np.ndarray | None:
        """Riccati state along the trajectory, mapped back to raw d units."""
        if self.scheme is Scheme.GRADIENT:
            return None
        states, coordinates = traj.states.T, self._coordinates()
        return (states if coordinates is None else coordinates[1](states))[2]


def _fmt(value: float | None) -> str:
    """An optional time as report text: ``none``, or 9 significant digits."""
    return "none" if value is None else f"{value:.9g}"


class StudyResult:
    """Base of the six study results. Each has a ``checks`` table, check name
    to outcome, that its ``report()`` prints as the ``check_*`` lines of its
    own section; the study passes when every check does."""

    checks: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


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
class SimulateResult(StudyResult):
    scenario: Scenario
    trajectory: Trajectory
    csv_path: Path | None
    final_distance: float
    final_d: float | None
    d_window_mean: float | None
    entry_time: float | None

    @property
    def checks(self) -> dict:
        """The position settles into the ball and, for a curvature-inverting
        run, the trailing mean of the Riccati state lies within
        ``d_tolerance`` of the inverse curvature."""
        checks = {"ball_entry": self.entry_time is not None}
        if self.d_window_mean is not None:
            scn = self.scenario
            target = 1.0 / scn.field.hessian
            checks["d_window_mean"] = (
                abs(self.d_window_mean - target) <= scn.d_tolerance * target)
        return checks

    def report(self) -> str:
        scn, fld = self.scenario, self.scenario.field
        items = [("scheme", scn.scheme.value), ("frame", scn.frame.value)]
        items += [(f"param_{key}", f"{value:.12g}")
                  for key, value in scn.params.as_dict().items()]
        items += [("field_f_star", f"{fld.f_star:g}"),
                  ("field_hessian", f"{fld.hessian:g}"),
                  ("field_source", f"{fld.source[0]:g}, {fld.source[1]:g}"),
                  ("x0", f"{scn.x0[0]:g}, {scn.x0[1]:g}"),
                  ("t_end", f"{scn.t_end:g}"),
                  ("ball_radius", f"{scn.ball_radius:g}")]
        if not scn.spec.averaged:  # the dither's swing of the position
            p = scn.params
            items.append(("dither_envelope", f"{p.alpha * p.omega ** (p.p_exp - 1.0):.9g}"))
        items.append(("final_distance", f"{self.final_distance:.9g}"))
        if self.final_d is not None:
            items += [("final_d", f"{self.final_d:.9g}"),
                      ("d_window_mean", f"{self.d_window_mean:.9g}")]
        items += [("entry_time", _fmt(self.entry_time)),
                  ("steps", str(self.trajectory.steps))]
        text = _section("simulate", items, self.checks)
        if self.csv_path is not None:
            text += f"trajectory_csv = {self.csv_path}\n"
        return text


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

    d_vals = scenario.d_series(traj)
    final_d = d_window_mean = None
    if d_vals is not None:
        final_d = float(d_vals[-1])
        tail_start = scenario.t_end * (1.0 - scenario.tail_fraction)
        d_window_mean = float(d_vals[traj.times >= tail_start].mean())

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
    )


# ---------------------------------------------------------------------------
# compare


@dataclass(frozen=True, kw_only=True)
class CompareConfig(_Start):
    """Both schemes from one start; ``scenarios`` holds the curvature-inverting
    run and the gradient run, built at construction."""

    t_end: float = 50.0
    ball_radius: float = 0.5
    samples_per_period: int = 60
    output_stride: int = 10

    def __post_init__(self):
        newton = _scenario(self, scheme=Scheme.NEWTON)
        gradient = replace(newton, scheme=Scheme.GRADIENT)
        object.__setattr__(self, "scenarios", (newton, gradient))


@dataclass
class CompareReport(StudyResult):
    """The two runs of :func:`run_compare`. The report carries both runs' own
    reports after its ``[compare]`` section; only the ``[compare]`` check is
    the verdict, the runs' checks are information."""

    newton: SimulateResult
    gradient: SimulateResult

    @property
    def entry_ratio(self) -> float | None:
        """Curvature-inverting over gradient entry time, where both runs
        enter and the gradient run does so after ``t = 0`` (it enters at 0
        when it starts inside the ball)."""
        t_n, t_g = self.newton.entry_time, self.gradient.entry_time
        return t_n / t_g if t_n is not None and (t_g or 0.0) > 0.0 else None

    @property
    def checks(self) -> dict:
        """Curvature-inverting entry strictly earlier than gradient entry (a
        missing gradient entry counts as infinitely late)."""
        t_n, t_g = self.newton.entry_time, self.gradient.entry_time
        return {"ordering": t_n is not None and (t_g is None or t_n < t_g)}

    def report(self) -> str:
        items = [("ball_radius", f"{self.newton.scenario.ball_radius:g}"),
                 ("newton_entry_time", _fmt(self.newton.entry_time)),
                 ("gradient_entry_time", _fmt(self.gradient.entry_time)),
                 ("entry_ratio", _fmt(self.entry_ratio))]
        return (_section("compare", items, self.checks) + self.newton.report()
                + self.gradient.report())


def run_compare(config: CompareConfig, out_dir=None) -> CompareReport:
    """Run both schemes on identical field and initial conditions."""
    newton, gradient = (run_simulate(s, out_dir=out_dir) for s in config.scenarios)
    return CompareReport(newton=newton, gradient=gradient)


# ---------------------------------------------------------------------------
# frequency sweep


@dataclass(frozen=True, kw_only=True)
class OmegaSweepConfig(_Start):
    """Full loops against their averaged limits across a frequency ladder.

    ``runs`` holds, for each scheme and then each omega, the tuple (full
    rotating-frame Scenario, its integrator config, averaged Scenario, its
    integrator config), built at construction; both configs record every
    ``record_dt``. Each run replaces the ``omega`` of ``params`` with its own.
    """

    omegas: tuple = (20.0, 40.0, 80.0)
    schemes: tuple = (Scheme.GRADIENT, Scheme.NEWTON)
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
        _positive("record_dt", (self.record_dt,))
        if not 0.0 <= self.slack < math.inf:
            raise ValueError(f"slack must be finite and >= 0, got {self.slack}")
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
class OmegaSweepReport(StudyResult):
    rows: list
    slack: float
    averaged_identical: bool

    def column(self, scheme: Scheme, attr: str) -> list:
        return [getattr(r, attr) for r in self.rows if r.scheme == scheme.value]

    @property
    def checks(self) -> dict:
        """Per scheme, in name order: the deviation and the residual ball each
        grow by at most ``slack`` from one frequency to the next; a row that
        failed fails both."""
        def settles(values):
            return None not in values and all(
                b <= (1.0 + self.slack) * a for a, b in zip(values, values[1:]))

        checks = {}
        for name in sorted({r.scheme for r in self.rows}):
            scheme = Scheme(name)
            checks[f"{name}_deviation"] = settles(self.column(scheme, "deviation"))
            checks[f"{name}_ball"] = settles(self.column(scheme, "ball_radius"))
        return checks

    def report(self) -> str:
        items = [("slack", f"{self.slack:g}"),
                 ("averaged_identical_across_sweep", str(self.averaged_identical))]
        for r in self.rows:
            value = (f"ERROR {r.error}" if r.error is not None else
                     f"deviation {r.deviation:.6g}, residual_ball {r.ball_radius:.6g}")
            items.append((f"{r.scheme}_omega_{r.omega:g}", value))
        return _section("omega_sweep", items, self.checks)


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


@dataclass(frozen=True, kw_only=True)
class HessianSweepConfig(_Start):
    """Averaged decay rates across field curvatures.

    ``runs`` holds, for each curvature, the averaged curvature-inverting
    Scenario, the averaged gradient Scenario and the former's fit window,
    built at construction. Each run replaces the ``hessian`` of ``field``
    with its own. The curvature-inverting run is fitted after its
    inverse-curvature filter has settled (ten filter time constants plus
    margin); the gradient run is fitted from the start over a horizon scaled
    to its expected decay, so every fit sees comparable decay depth.
    """

    hessians: tuple = (0.01, 0.1, 1.0)
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
class HessianSweepReport(StudyResult):
    rows: list
    newton_tolerance: float
    gradient_tolerance: float

    @property
    def checks(self) -> dict:
        """The curvature-inverting rates spread by at most
        ``newton_tolerance``, the gradient rates per unit curvature by at
        most ``gradient_tolerance``, and every fit is reliable. A spread is
        infinite unless every rate is finite and positive: a growing or
        stalled fit shows no decay to compare."""
        def spread(values):
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                return math.inf
            return max(values) / min(values) - 1.0

        newton = [r.newton.rate for r in self.rows]
        gradient = [r.gradient.rate / r.hessian for r in self.rows]
        return {"newton_invariant": spread(newton) <= self.newton_tolerance,
                "gradient_proportional": spread(gradient) <= self.gradient_tolerance,
                "fits_reliable": all(r.newton.reliable and r.gradient.reliable
                                     for r in self.rows)}

    def report(self) -> str:
        def fit(rate: RateEstimate) -> str:
            flag = "" if rate.reliable else " UNRELIABLE"
            return f"{rate.rate:.6g} (R2 {rate.r_squared:.4f}{flag})"

        items = [(f"H_{r.hessian:g}", f"newton_rate {fit(r.newton)}, "
                  f"gradient_rate {fit(r.gradient)}") for r in self.rows]
        return _section("hessian_sweep", items, self.checks)


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
class AverageReport(StudyResult):
    """The engine's hypotheses and field for one scheme, and its worst
    relative defect against the closed-form average on seeded states."""

    assumptions: AssumptionReport
    engine: AveragedField
    worst_defect: float

    @property
    def checks(self) -> dict:
        return {"assumptions": self.assumptions.ok,
                "agreement": self.worst_defect <= 1e-4}

    def report(self) -> str:
        section = _section("closed_form_agreement",
                           [("worst_relative_defect", f"{self.worst_defect:.3e}")],
                           self.checks)
        return "\n".join([str(self.assumptions), self.engine.report(), section])


def run_average(scheme: Scheme, params: SeekerParams, field: FieldParams,
                seed: int = 0) -> AverageReport:
    """Check the averaging hypotheses of ``scheme``'s rotating-frame loop,
    build its averaged field, and compare it with the closed-form average at
    10 states drawn from ``seed``."""
    system = affine_system(scheme, params, field)
    assumptions = check_assumptions(system)
    engine = build_averaged_field(system, default_omega_grid(params.omega))
    closed = averaged_closed_loop(scheme, params, field)
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
class CertifyReport(StudyResult):
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

    def report(self) -> str:
        return "\n".join([stability_report(self.linearizations, cert=self.certificate),
                          _grid_margins(self.margins, self.checks)])


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

    equilibria = {Scheme.GRADIENT: [0.0, 0.0, field.f_star],
                  Scheme.NEWTON: [0.0, 0.0, 1.0 / field.hessian, field.f_star]}
    linearizations = {}
    for scheme, x_eq in equilibria.items():
        rhs = averaged_closed_loop(scheme, params, field)
        linearizations[f"averaged_{scheme.value}"] = linearize(
            lambda s: rhs(0.0, s), np.array(x_eq))
    margins = {"vdot_margin_max": float(np.max(vdot)),
               "iss_margin_min": float(np.min(iss))}
    return CertifyReport(cert, linearizations, margins)


# ---------------------------------------------------------------------------
# config files


@dataclass(frozen=True)
class AppConfig:
    """Everything one configuration file describes, built and validated.
    The ``[field]`` and ``[params]`` sections are the start every run of the
    file shares; ``field`` and ``params`` read them from ``scenario``."""

    scenario: Scenario
    compare: CompareConfig
    sweep_omega: OmegaSweepConfig
    sweep_hessian: HessianSweepConfig
    seed: int = 0  # sample states of `average`, ISS points of `certify`

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def field(self) -> FieldParams:
        return self.scenario.field

    @property
    def params(self) -> SeekerParams:
        return self.scenario.params


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
    sections = {f.name for f in fields(AppConfig)} - {"seed"} | {"run", "field", "params"}
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
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
