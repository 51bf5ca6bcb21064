"""Deterministic fixed-step integration with sampled-trajectory output.

The integrator is a classical fourth-order Runge-Kutta scheme with a fixed
step; the final step is shortened so the requested end time is hit exactly.
There is deliberately no adaptive error control: the systems in this package
are forced at known frequencies, so the step is tied to the fastest
oscillation and results are bit-for-bit reproducible.

The step loop runs on Python floats: ``rhs(t, y)`` and ``guard(t, y)``
receive the state as a tuple of floats, and ``rhs`` returns a sequence of
the same length (a tuple, a list or a 1-D array). The states are small (three
or four components), so per-call array construction would cost more than the
arithmetic. Recorded samples are written into arrays sized up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "IntegrationAborted",
    "integrate",
    "first_entry_time",
]

TWO_PI = 2.0 * math.pi


class IntegrationAborted(RuntimeError):
    """Raised when integration cannot continue.

    Attributes
    ----------
    last_valid_time : float
        Last time at which the state was still acceptable.
    partial : Trajectory
        Samples recorded up to (and including) the last valid state.
    """

    def __init__(self, message: str, last_valid_time: float, partial: "Trajectory"):
        super().__init__(message)
        self.last_valid_time = last_valid_time
        self.partial = partial


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size policy for :func:`integrate`.

    ``dt`` must resolve the fastest forcing frequency with at least
    ``samples_per_period`` steps per period; pass ``omega_max`` to have that
    checked (use the highest input frequency, which for the
    curvature-inverting scheme is twice the dither frequency because of the
    double-frequency demodulation).
    """

    dt: float
    samples_per_period: int = 60
    output_stride: int = 1
    omega_max: float | None = None

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.samples_per_period < 40:
            raise ValueError(
                f"samples_per_period must be >= 40, got {self.samples_per_period}"
            )
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")
        if self.omega_max is not None:
            limit = TWO_PI / (self.omega_max * self.samples_per_period)
            if self.dt > limit * (1.0 + 1e-12):
                raise ValueError(
                    f"dt={self.dt} too large for omega_max={self.omega_max}: "
                    f"need dt <= {limit}"
                )

    @classmethod
    def for_frequency(
        cls, omega_max: float, samples_per_period: int = 60, output_stride: int = 1
    ) -> "IntegratorConfig":
        """Config whose step resolves ``omega_max`` at the requested resolution."""
        dt = TWO_PI / (omega_max * samples_per_period)
        return cls(
            dt=dt,
            samples_per_period=samples_per_period,
            output_stride=output_stride,
            omega_max=omega_max,
        )


@dataclass
class Trajectory:
    """Time-stamped state samples."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states must be (n_samples, dim) matching times")

    def validate(self) -> None:
        """Check sample-grid invariants: strictly increasing, uniform spacing
        (the final gap may be shorter when the last step was shortened)."""
        diffs = np.diff(self.times)
        if len(diffs) == 0:
            return
        if not np.all(diffs > 0.0):
            raise ValueError("times must be strictly increasing")
        if len(diffs) >= 2:
            spacing = diffs[0]
            if not np.allclose(diffs[:-1], spacing, rtol=1e-9, atol=1e-12):
                raise ValueError("recorded times are not uniformly spaced")
            if diffs[-1] > spacing * (1.0 + 1e-9):
                raise ValueError("final gap exceeds the recording stride")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def to_csv(self, path) -> Path:
        """Write ``t,s0,s1,...`` rows in full double precision."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = "t," + ",".join(f"s{i}" for i in range(self.dim))
        data = np.column_stack([self.times, self.states])
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
        return path


def integrate(rhs, x0, t0: float, t1: float, config: IntegratorConfig,
              guard=None) -> Trajectory:
    """Integrate ``dx/dt = rhs(t, x)`` from ``t0`` to ``t1`` with fixed-step RK4.

    Parameters
    ----------
    rhs : callable
        ``rhs(t, x) -> dx`` with ``x`` a tuple of floats and ``dx`` a
        sequence of the same length. The length is checked once, on the
        first evaluation.
    guard : callable, optional
        ``guard(t, x) -> bool``, with ``x`` the same tuple of floats,
        evaluated after every accepted step; a False result aborts with a
        step-size violation report.

    Returns
    -------
    Trajectory
        States recorded every ``config.output_stride`` steps; the initial and
        final states are always included.

    Raises
    ------
    IntegrationAborted
        On a non-finite state (including an ``OverflowError`` raised inside
        a stage) or a guard violation; carries the last valid time and the
        partial trajectory.
    ValueError
        On ``t1 <= t0``, a non-finite initial state or one that violates
        the guard, or an ``rhs`` whose output length differs from the
        state length.
    """
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    dt = config.dt
    span = t1 - t0
    n_full = int(math.floor(span / dt * (1.0 + 1e-12)))
    remainder = span - n_full * dt
    # a span too short for one full step is still one (shortened) step
    has_tail = n_full == 0 or remainder > 1e-12 * max(span, dt)
    total_steps = n_full + (1 if has_tail else 0)
    stride = config.output_stride

    y = tuple(np.array(x0, dtype=float).ravel().tolist())
    dim = len(y)
    if not all(map(math.isfinite, y)):
        raise ValueError(f"initial state is not finite: {y}")
    if guard is not None and not guard(t0, y):
        raise ValueError(f"initial state violates the guard at t={t0}")

    # interior samples every ``stride`` steps, plus the initial and final states
    n_samples = 1 + ((total_steps - 1) // stride + 1 if total_steps else 0)
    times = np.empty(n_samples)
    states = np.empty((n_samples, dim))
    times[0] = t0
    states[0] = y
    n_rec = 1

    def aborted(what: str, last_valid_time: float, n_rec: int) -> IntegrationAborted:
        partial = Trajectory(times[:n_rec].copy(), states[:n_rec].copy())
        return IntegrationAborted(
            f"{what}; last valid time t={last_valid_time}", last_valid_time, partial
        )

    try:
        k1 = rhs(t0, y)
    except OverflowError as exc:
        t_new = t1 if total_steps <= 1 else t0 + dt
        raise aborted(f"non-finite state at t={t_new}", t0, n_rec) from exc
    if len(k1) != dim:
        raise ValueError(
            f"rhs returned {len(k1)} components for a state of length {dim}"
        )

    isfinite = math.isfinite
    t = t0
    h = dt
    for i in range(total_steps):
        if i == n_full:  # shortened final step
            h = remainder
        half = 0.5 * h
        t_new = t1 if i + 1 == total_steps else t0 + (i + 1) * dt
        try:
            if i:
                k1 = rhs(t, y)
            k2 = rhs(t + half, tuple([a + half * b for a, b in zip(y, k1)]))
            k3 = rhs(t + half, tuple([a + half * b for a, b in zip(y, k2)]))
            k4 = rhs(t + h, tuple([a + h * b for a, b in zip(y, k3)]))
        except OverflowError as exc:
            raise aborted(f"non-finite state at t={t_new}", t, n_rec) from exc
        sixth = h / 6.0
        y = tuple([
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ])
        if not all(map(isfinite, y)):
            raise aborted(f"non-finite state at t={t_new}", t, n_rec)
        if guard is not None and not guard(t_new, y):
            raise aborted(
                f"state guard violated at t={t_new} (step-size violation: "
                f"reduce dt below {h})",
                t,
                n_rec,
            )
        t = t_new
        if i + 1 == total_steps or (i + 1) % stride == 0:
            times[n_rec] = t
            states[n_rec] = y
            n_rec += 1

    return Trajectory(times, states)


def first_entry_time(traj: Trajectory, center, radius: float, components) -> float | None:
    """Earliest recorded time after which the selected components stay inside
    the ball of ``radius`` around ``center`` through the end of the trajectory.

    Returns None when the trajectory never settles into the ball.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    comps = list(components)
    if len(comps) == 0:
        raise ValueError("components must be a non-empty index set")
    center = np.asarray(center, dtype=float)
    if center.shape != (len(comps),):
        raise ValueError(
            f"center shape {center.shape} does not match {len(comps)} components"
        )
    sel = traj.states[:, comps]
    inside = np.linalg.norm(sel - center, axis=1) <= radius
    if inside.all():
        return float(traj.times[0])
    last_outside = int(np.where(~inside)[0][-1])
    if last_outside == len(inside) - 1:
        return None
    return float(traj.times[last_outside + 1])
