import functools
import itertools
import math
import numbers
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import sourceseek.averaging as averaging
from sourceseek import (
    DEFAULT_FIELD,
    DEFAULT_PARAMS,
    FRAME_SPECS,
    ControlAffineSystem,
    FieldParams,
    Frame,
    IntegrationAborted,
    IntegratorConfig,
    OscillatoryInput,
    Scenario,
    Scheme,
    SeekerParams,
    Trajectory,
    averaged_closed_loop,
    build_averaged_field,
    closed_loop,
    default_omega_grid,
    first_entry_time,
    gradient_affine_system,
    integrate,
    lie_bracket,
    newton_affine_system,
    ode,
)
from sourceseek.numdiff import Sym, Tape, _live, cos, sin


def _config(dt, stride=1):
    return IntegratorConfig(dt=dt, output_stride=stride)


def _assert_sample_grid(traj):
    """Recorded times increase strictly at one spacing; the final gap may be
    shorter, where the last step was shortened."""
    diffs = np.diff(traj.times)
    assert np.all(diffs > 0.0)
    if len(diffs) >= 2:
        spacing = diffs[0]
        np.testing.assert_allclose(diffs[:-1], spacing, rtol=1e-9, atol=1e-12)
        assert diffs[-1] <= spacing * (1.0 + 1e-9)


class TestIntegrate:
    def test_zero_rhs_constant_trajectory(self):
        traj = integrate(lambda t, y: (0.0, 0.0), [1.0, -2.0], 0.0, 1.0, _config(0.1))
        _assert_sample_grid(traj)
        np.testing.assert_array_equal(traj.states, np.tile([1.0, -2.0], (len(traj.times), 1)))

    def test_exponential_decay(self):
        traj = integrate(lambda t, y: (-y[0],), [1.0], 0.0, 1.0, _config(0.01))
        assert traj.times[-1] == 1.0
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_planar_rotation_closes_after_one_period(self):
        traj = integrate(
            lambda t, y: (y[1], -y[0]), [1.0, 0.0], 0.0, 2.0 * math.pi, _config(0.01)
        )
        np.testing.assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-6)

    def test_order_four_error_reduction(self):
        def err(dt):
            traj = integrate(lambda t, y: (-y[0],), [1.0], 0.0, 1.0, _config(dt))
            return abs(traj.states[-1, 0] - math.exp(-1.0))

        factor = err(0.02) / err(0.01)
        assert 12.0 <= factor <= 20.0

    def test_span_shorter_than_one_step_is_one_shortened_step(self):
        # 1e-15 is below 1e-12 * dt: no full step fits, yet the run ends at t1
        traj = integrate(lambda t, y: (1.0,), [0.0], 0.0, 1e-15, _config(0.01))
        np.testing.assert_array_equal(traj.times, [0.0, 1e-15])
        assert traj.states[-1, 0] == pytest.approx(1e-15, rel=1e-12)

    def test_a_whole_span_far_from_zero_is_whole_steps(self):
        # t1 - t0 rounds 7.4e-11 above 20 * dt, past the tail threshold, but
        # the stamp t0 + 20 * dt of the 20th step is t1 itself, so no 21st,
        # shortened step is planned, whose stamp would repeat t1
        t0, dt = 1048574.0, 0.10471975511965977
        t1 = t0 + 20 * dt
        assert t1 - t0 - 20 * dt > 1e-12 * (t1 - t0)

        def rhs(t, y):
            return (y[1], 1e-6 * t - y[0])

        traj = integrate(rhs, [1.0, 0.0], t0, t1, _config(dt))
        assert traj.steps == 20 and len(traj.times) == 21 and traj.times[-1] == t1
        times, states = _array_rk4(rhs, [1.0, 0.0], t0, t1, _config(dt))
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()

    def test_bit_identical_reruns(self):
        def rhs(t, y):
            return (math.sin(3.0 * t) * y[0], -0.5 * y[1])

        a = integrate(rhs, [1.0, 2.0], 0.0, 5.0, _config(0.01, stride=7))
        b = integrate(rhs, [1.0, 2.0], 0.0, 5.0, _config(0.01, stride=7))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_final_time_hit_exactly_with_short_last_step(self):
        traj = integrate(lambda t, y: (-y[0],), [1.0], 0.0, 1.0, _config(0.03))
        assert traj.times[-1] == 1.0
        _assert_sample_grid(traj)
        # interior spacing is the step, the tail gap is shorter
        diffs = np.diff(traj.times)
        assert diffs[-1] < diffs[0]
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_stride_recording_uniform(self):
        traj = integrate(lambda t, y: (-y[0],), [1.0], 0.0, 1.0, _config(0.01, stride=10))
        _assert_sample_grid(traj)
        np.testing.assert_allclose(np.diff(traj.times), 0.1, rtol=1e-12)
        assert len(traj.times) == 11

    def test_aborts_on_nonfinite_state(self):
        # finite-time blowup of y' = y**2 from y(0) = 1 at t = 1: a float
        # power overflows inside a stage, a product only makes the state
        # infinite; both stop at the oracle's last finite sample
        for square in (lambda v: v ** 2, lambda v: v * v):
            def rhs(t, y):
                return (square(y[0]),)

            with pytest.raises(IntegrationAborted) as excinfo, np.errstate(
                over="ignore", invalid="ignore"
            ):
                integrate(rhs, [1.0], 0.0, 2.0, _config(0.001))
            err = excinfo.value
            assert 0.9 < err.last_valid_time < 1.1
            assert err.partial.times[-1] <= err.last_valid_time
            assert np.all(np.isfinite(err.partial.states))
            with np.errstate(over="ignore", invalid="ignore"):
                times, states = _array_rk4(rhs, [1.0], 0.0, 2.0, _config(0.001))
            _assert_oracle_prefix(err, times, states, np.isfinite(states).all(axis=1))

    def test_guard_violation_names_the_component_and_its_value(self):
        with pytest.raises(IntegrationAborted) as excinfo:
            integrate(lambda t, y: (-10.0,), [1.0], 0.0, 2.0, _config(0.01), guard=(0,))
        times, states = _array_rk4(lambda t, y: (-10.0,), [1.0], 0.0, 2.0,
                                   _config(0.01))
        n = int(np.argmin(states[:, 0] > 0.0))
        assert str(excinfo.value) == (
            f"state guard violated at t={float(times[n])}: component 0 = "
            f"{float(states[n, 0])!r}, not > 0; last valid time t={float(times[n - 1])}")
        assert "step-size" not in str(excinfo.value)
        assert excinfo.value.reason == "guard"
        assert excinfo.value.last_valid_time == pytest.approx(0.1, abs=0.02)
        _assert_oracle_prefix(excinfo.value, times, states, states[:, 0] > 0.0)

    @pytest.mark.parametrize("t1", [1.0, 1.005])
    def test_rhs_is_called_four_times_per_step(self, t1):
        # float(t) refuses a symbol, so this rhs is called at every stage,
        # and nowhere else: no call is made before the first step
        calls = []

        def rhs(t, y):
            calls.append(float(t))
            return (-y[0], y[0])

        traj = integrate(rhs, [1.0, 0.0], 0.0, t1, _config(0.01))
        steps = len(traj.times) - 1
        assert steps == (100 if t1 == 1.0 else 101)
        assert len(calls) == 4 * steps
        assert calls[::4] == traj.times[:-1].tolist()
        assert (traj.steps, traj.rhs_calls) == (steps, 4 * steps)

    @pytest.mark.parametrize("t1", [1.0, 1.005])
    def test_traceable_rhs_runs_once(self, t1):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return (-y[0], y[0] * t)

        traj = integrate(rhs, [1.0, 0.0], 0.0, t1, _config(0.01))
        steps = len(traj.times) - 1
        assert len(calls) == 1
        assert (traj.steps, traj.rhs_calls) == (steps, 1)
        called = integrate(_called(rhs), [1.0, 0.0], 0.0, t1, _config(0.01))
        assert called.rhs_calls == 4 * steps
        assert np.array_equal(traj.times, called.times)
        assert np.array_equal(traj.states, called.states)

    def test_shortened_tail_times_are_the_array_loops(self):
        # the loop's own locals must not be overwritten by the traced
        # step's temporaries t0, t1, ...: a span end named t1 would be
        # overwritten and shift every recorded time
        def rhs(t, y):
            return (y[1] * t, -y[0] - 0.5 * y[1])

        for stride in (1, 3):
            traj = integrate(rhs, [1.0, 0.5], 0.25, 1.3371, _config(0.01, stride))
            times, states = _array_rk4(rhs, [1.0, 0.5], 0.25, 1.3371,
                                       _config(0.01, stride))
            assert traj.rhs_calls == 1
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)

    @pytest.mark.parametrize("rhs", [
        lambda t, y: tuple(_MATRIX @ np.asarray(y)),  # BLAS, not object arrays
        lambda t, y: (np.sin(t) * y[1], -y[0]),  # a numpy ufunc of the time
        lambda t, y: (y[1], -y[0]) if t < 0.5 else (y[1], y[0]),  # a branch
        lambda t, y: (abs(y[1]), -y[0]),
    ], ids=["matmul", "ufunc", "branch", "abs"])
    def test_refused_rhs_is_called_on_floats(self, rhs):
        traj = integrate(rhs, [1.0, 0.5], 0.0, 1.005, _config(0.01))
        times, states = _array_rk4(rhs, [1.0, 0.5], 0.0, 1.005, _config(0.01))
        assert traj.rhs_calls == 4 * traj.steps == 4 * 101
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)

    def test_other_errors_while_tracing_propagate(self):
        # only the typed refusal falls back to calls on floats; each rhs
        # works on floats, but not on a symbol
        def floats_only(t, y):
            if not isinstance(t, float):
                raise TypeError("floats only")
            return (-y[0],)

        with pytest.raises(TypeError, match="floats only"):
            integrate(floats_only, [1.5], 0.0, 1.0, _config(0.1))
        with pytest.raises(AttributeError, match="is_integer"):
            integrate(lambda t, y: (0.0 if y[0].is_integer() else -y[0],), [1.5],
                      0.0, 1.0, _config(0.1))

    def test_rejects_nonfinite_initial_state(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="initial state is not finite"):
                integrate(lambda t, y: (0.0, 0.0), [1.0, bad], 0.0, 1.0, _config(0.1))

    def test_rejects_rhs_of_wrong_length(self):
        with pytest.raises(ValueError, match="2 components for a state of length 1"):
            integrate(lambda t, y: (0.0, 0.0), [1.0], 0.0, 1.0, _config(0.1))

    def test_length_is_checked_at_every_stage(self):
        # the branch on t refuses tracing, so the rhs is called; its value
        # grows a component from t = 0.5 on, deep inside the run
        def rhs(t, y):
            return (y[1], -y[0]) if t < 0.5 else (y[1], -y[0], 0.0)

        with pytest.raises(ValueError, match="3 components for a state of length 2"):
            integrate(rhs, [1.0, 0.0], 0.0, 1.0, _config(0.01))

    def test_rejects_reversed_time(self):
        with pytest.raises(ValueError):
            integrate(lambda t, y: (-y[0],), [1.0], 1.0, 0.0, _config(0.01))

    @pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (-math.inf, 1.0),
                                        (math.nan, 1.0), (0.0, math.nan)])
    def test_rejects_a_span_end_that_is_not_finite(self, t0, t1):
        message = re.escape(f"must be finite, got [{t0}, {t1}]")
        with pytest.raises(ValueError, match=message):
            integrate(lambda t, y: (-y[0],), [1.0], t0, t1, _config(0.01))

    @pytest.mark.parametrize("stride", [1, 3])
    def test_refuses_a_step_below_the_float_spacing_before_the_first_step(self, stride):
        # at t = 1e6 the float spacing is 1.16e-10, so the 101 sample times
        # of dt = 1e-11 on a span of 1e-9 take about 10 distinct values
        calls = []

        def rhs(t, y):
            calls.append(t)
            return (-y[0],)

        config = IntegratorConfig(dt=1e-11, output_stride=stride)
        message = re.escape("dt=1e-11 is below the float spacing of the sample times "
                            "t0 + i * dt on [t0=1000000.0, t1=1000000.000000001]")
        with pytest.raises(ValueError, match=message):
            integrate(rhs, [1.0], 1e6, 1e6 + 1e-9, config)
        assert calls == []


class TestIntegratorConfig:
    def test_is_a_step_and_a_stride(self):
        """The frequency and its sampling set the step in
        :meth:`~IntegratorConfig.for_frequency`, which checks them, and are
        no settings of the config."""
        assert [f.name for f in fields(IntegratorConfig)] == ["dt", "output_stride"]
        with pytest.raises(TypeError, match="omega_max"):
            IntegratorConfig(0.01, omega_max=1.0)
        with pytest.raises(TypeError, match="samples_per_period"):
            IntegratorConfig(dt=0.01, samples_per_period=60)

    @pytest.mark.parametrize("omega_max", [0.0, -5.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_frequency_that_is_not_finite_and_positive(self, omega_max):
        with pytest.raises(ValueError, match=f"omega_max must be finite and > 0, "
                                             f"got {omega_max}"):
            IntegratorConfig.for_frequency(omega_max)

    @pytest.mark.parametrize("omega_max, samples, match", [
        (30.0, 0, "samples_per_period must be >= 40, got 0"),
        (30.0, -1, "samples_per_period must be >= 40, got -1"),
        (30.0, 39, "samples_per_period must be >= 40, got 39"),
        (1e-320, 60, r"omega_max=1e-320 has no positive finite step .* dt=inf"),
        (1e308, 60, r"omega_max=1e\+308 has no positive finite step .* dt=0.0"),
    ])
    def test_for_frequency_names_a_step_it_cannot_take(self, omega_max, samples, match):
        with pytest.raises(ValueError, match=match):
            IntegratorConfig.for_frequency(omega_max, samples_per_period=samples)

    @pytest.mark.parametrize("stride", [2.5, 2.0, math.nan, 0, -1, "10"])
    def test_rejects_a_stride_that_is_not_a_positive_integer(self, stride):
        with pytest.raises(ValueError, match=f"output_stride must be an integer >= 1, "
                                             f"got {re.escape(repr(stride))}"):
            IntegratorConfig(dt=0.1, output_stride=stride)

    def test_accepts_a_numpy_integer_stride(self):
        assert IntegratorConfig(dt=0.1, output_stride=np.int64(3)).output_stride == 3

    def test_for_frequency_resolves_fastest_oscillation(self):
        cfg = IntegratorConfig.for_frequency(30.0, samples_per_period=60)
        assert cfg.dt == pytest.approx(2.0 * math.pi / (30.0 * 60.0))


class TestTrajectory:
    @pytest.mark.parametrize("times", [
        [0.0, 1.0, 1.0, 2.0], [-0.0, 0.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0],
        [3.0, 2.0, 1.0, 0.0], [0.0, math.nan, 2.0, 3.0], [math.nan, 1.0, 2.0, 3.0],
        [0.0, 1.0, 2.0, math.nan],
    ], ids=["equal", "signed-zeros", "falling-once", "falling", "nan-inside", "nan-first",
            "nan-last"])
    def test_refuses_times_that_do_not_strictly_increase(self, times):
        """The window of a rate fit and the entry time read the samples in
        time order: an equal, a falling or a NaN time is refused."""
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            Trajectory(times, np.zeros((4, 2)))

    @pytest.mark.parametrize("times", [[], [math.nan], [-0.0, 1e-300, 1.0]],
                             ids=["empty", "one-sample", "increasing"])
    def test_accepts_times_with_no_pair_out_of_order(self, times):
        assert Trajectory(times, np.zeros((len(times), 2))).times.shape == (len(times),)

    def test_each_column_holds_its_own_component_by_default(self):
        traj = Trajectory([0.0, 1.0], np.zeros((2, 3)))
        assert traj.components == (0, 1, 2)
        assert traj.columns((2, 0)) == [2, 0]

    def test_columns_are_found_by_the_component_they_hold(self):
        traj = Trajectory([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]], components=(1, 3))
        assert traj.columns((3,)) == [1]
        assert traj.columns([1, 3]) == [0, 1]
        with pytest.raises(ValueError, match=r"holds state components \(1, 3\), not \[0, 2\]"):
            traj.columns((0, 1, 2))

    @pytest.mark.parametrize("components", [(0,), (0, 1, 2), (1, 1)],
                             ids=["too-few", "too-many", "repeated"])
    def test_refuses_components_that_do_not_name_each_column_once(self, components):
        with pytest.raises(ValueError, match="columns of states once each"):
            Trajectory([0.0, 1.0], np.zeros((2, 2)), components=components)


class TestFirstEntryTime:
    def test_trajectory_already_at_center(self):
        traj = Trajectory(np.linspace(0.0, 1.0, 11), np.zeros((11, 2)))
        assert first_entry_time(traj, np.zeros(2), 0.5, (0, 1)) == 0.0

    def test_never_inside(self):
        times = np.linspace(0.0, 1.0, 11)
        states = np.tile([5.0, 5.0], (11, 1))
        traj = Trajectory(times, states)
        assert first_entry_time(traj, np.zeros(2), 0.5, (0, 1)) is None

    def test_decaying_spiral_matches_brute_force(self):
        t = np.linspace(0.0, 30.0, 1501)
        states = np.column_stack(
            [3.0 * np.exp(-0.2 * t) * np.cos(t), 3.0 * np.exp(-0.2 * t) * np.sin(t)]
        )
        traj = Trajectory(t, states)
        radius = 0.5
        found = first_entry_time(traj, np.zeros(2), radius, (0, 1))

        inside = np.linalg.norm(states, axis=1) <= radius
        brute = None
        for i in range(len(t)):
            if inside[i:].all():
                brute = t[i]
                break
        assert found == brute is not None

    def test_exits_again_counts_from_last_reentry(self):
        times = np.arange(5.0)
        states = np.array([[2.0], [0.1], [2.0], [0.1], [0.2]])
        traj = Trajectory(times, states)
        assert first_entry_time(traj, np.zeros(1), 0.5, (0,)) == 3.0

    def test_rejects_bad_arguments(self):
        traj = Trajectory(np.linspace(0.0, 1.0, 3), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            first_entry_time(traj, np.zeros(2), -1.0, (0, 1))
        with pytest.raises(ValueError):
            first_entry_time(traj, np.zeros(0), 0.5, ())

    def test_reads_the_columns_of_the_components_it_is_given(self):
        """A trajectory holding components 1 and 2 is read by component, and
        a component it does not hold is named, not read from another
        column."""
        times = np.arange(4.0)
        states = np.array([[2.0, 9.0], [0.1, 9.0], [0.1, 0.2], [0.0, 0.1]])
        traj = Trajectory(times, states, components=(1, 2))
        assert first_entry_time(traj, np.zeros(1), 0.5, (1,)) == 1.0
        assert first_entry_time(traj, np.zeros(1), 0.5, (2,)) == 2.0
        with pytest.raises(ValueError, match=r"not \[0\]"):
            first_entry_time(traj, np.zeros(2), 0.5, (0, 1))


class TestCsvExport:
    def test_header_and_exact_roundtrip(self, tmp_path):
        traj = integrate(
            lambda t, y: (-y[0], y[1] / 3.0),
            [1.0, 1.0 / 3.0],
            0.0,
            1.0,
            _config(0.01, stride=10),
        )
        path = traj.to_csv(tmp_path / "traj.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,s0,s1"
        reduced = Trajectory(traj.times, traj.states[:, 1:], components=(1,))
        assert reduced.to_csv(tmp_path / "s1.csv").read_text().splitlines()[0] == "t,s1"
        parsed = np.loadtxt(path, delimiter=",", skiprows=1)
        # 17 significant digits reproduce doubles exactly
        np.testing.assert_array_equal(parsed[:, 0], traj.times)
        np.testing.assert_array_equal(parsed[:, 1:], traj.states)


def _array_rk4(rhs, x0, t0, t1, config, stop=False):
    """The array-based RK4 loop the float loop replaced, kept as the
    reference for bit-for-bit agreement (no guard, no finiteness check).
    Stage 4 runs at the time the new state is stamped with, ``t0 + (i + 1)
    * dt`` or ``t1`` at the last step, where the next step starts. With
    ``stop``, the loop ends at its first non-finite state, which it records,
    or at the first step that raises, whose state it records as NaNs: an
    ArithmeticError, or the ValueError of a ``math.log`` at zero, where a
    numpy scalar's division by zero, which a float's raises, gave an
    infinity."""
    dt, span, stride = config.dt, t1 - t0, config.output_stride
    n_full = int(math.floor(span / dt * (1.0 + 1e-12)))
    remainder = span - n_full * dt
    tail = remainder > 1e-12 * max(span, dt) and t0 + n_full * dt < t1
    total = n_full + (1 if tail else 0)
    y, t = np.array(x0, dtype=float), t0
    times, states = [t0], [y.copy()]
    for i in range(total):
        h = dt if i < n_full else remainder
        t_next = t1 if i + 1 == total else t0 + (i + 1) * dt
        try:
            k1 = np.asarray(rhs(t, y))
            k2 = np.asarray(rhs(t + 0.5 * h, y + (0.5 * h) * k1))
            k3 = np.asarray(rhs(t + 0.5 * h, y + (0.5 * h) * k2))
            k4 = np.asarray(rhs(t_next, y + h * k3))
        except (ArithmeticError, ValueError):
            if not stop:
                raise
            y = np.full_like(y, math.nan)
        else:
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_next
        ended = stop and not np.isfinite(y).all()
        if (i + 1) % stride == 0 or i + 1 == total or ended:
            times.append(t)
            states.append(y.copy())
        if ended:
            break
    return np.array(times), np.array(states)


_MATRIX = np.array([[0.1, 1.0], [-1.0, 0.1]])


def _called(rhs):
    """``rhs`` behind a ``float(t)``, which a traced time refuses: the step
    loop calls it on floats at every stage, with the same arguments."""
    def called(t, y):
        return rhs(float(t), y)
    return called


def _assert_oracle_prefix(err, times, states, valid, stride=1):
    """``err`` (an abort at output ``stride``) holds every ``stride``-th of
    the oracle's samples at stride 1 up to its first invalid one, and its
    last valid time is the last valid sample's."""
    n = int(np.argmin(valid))
    assert n > 0 and not valid[n]
    assert np.array_equal(err.partial.times, times[:n:stride])
    assert np.array_equal(err.partial.states, states[:n:stride])
    assert err.last_valid_time == times[n - 1]


def _linear_rhs(dim):
    """``y' = A y`` with a fixed, mixed-sign ``A``, summed in Python floats."""
    a = [[0.3 * ((i + 2 * j) % 5 - 2) for j in range(dim)] for i in range(dim)]

    def rhs(t, y):
        return tuple(sum(aij * v for aij, v in zip(row, y)) for row in a)

    return rhs


_REF_FIELD = FieldParams(f_star=5.0, hessian=0.01, source=np.array([1.0, -1.0]))
_REF_PARAMS = SeekerParams(
    omega=15.0, omega0=1.0, alpha=2.0, p_exp=0.61, h_gain=1.0, omega_d=0.3
)
# start points where the loops stay finite over the unit horizon (a Riccati
# state far above 1 / (demod_gain * |y - nu|) diverges and aborts by design)
_POSITION = st.floats(-5.0, 5.0)
_RICCATI = st.floats(0.5, 1.5)
_FILTER = st.floats(2.0, 8.0)

#: (rhs, start-point strategy, fastest forcing frequency) for every full
#: scheme/frame closure, both averaged forms and a linear system at the
#: state lengths no closure has
_LOOPS = {
    "gradient-original": (
        closed_loop(Scheme.GRADIENT, Frame.ORIGINAL, _REF_PARAMS, _REF_FIELD),
        st.tuples(_POSITION, _POSITION, _FILTER), 15.0,
    ),
    "gradient-rotating_z": (
        closed_loop(Scheme.GRADIENT, Frame.ROTATING_Z, _REF_PARAMS, _REF_FIELD),
        st.tuples(_POSITION, _POSITION, _FILTER), 15.0,
    ),
    "newton-original": (
        closed_loop(Scheme.NEWTON, Frame.ORIGINAL, _REF_PARAMS, _REF_FIELD),
        st.tuples(_POSITION, _POSITION, _RICCATI, _FILTER), 30.0,
    ),
    "newton-rotating_z": (
        closed_loop(Scheme.NEWTON, Frame.ROTATING_Z, _REF_PARAMS, _REF_FIELD),
        st.tuples(_POSITION, _POSITION, _RICCATI, _FILTER), 30.0,
    ),
    "newton-rotating_z_log_d": (
        closed_loop(Scheme.NEWTON, Frame.ROTATING_Z_LOG_D, _REF_PARAMS, _REF_FIELD),
        st.tuples(_POSITION, _POSITION, st.floats(-0.7, 0.4), _FILTER), 30.0,
    ),
    "averaged-newton": (
        averaged_closed_loop(Scheme.NEWTON, _REF_PARAMS, _REF_FIELD),
        st.tuples(_POSITION, _POSITION, st.floats(0.5, 200.0), _FILTER), 1.0,
    ),
    "averaged-gradient": (
        averaged_closed_loop(Scheme.GRADIENT, _REF_PARAMS, _REF_FIELD),
        st.tuples(_POSITION, _POSITION, _FILTER), 1.0,
    ),
    **{f"linear-{dim}": (_linear_rhs(dim), st.tuples(*[_POSITION] * dim), 1.0)
       for dim in (1, 2, 5, 6)},
}


#: starts of a run, ``-0.0``, negative and large, from which ``t + h``
#: and the stamped time ``t0 + i * dt`` may round apart
_T0 = st.one_of(st.just(-0.0), st.floats(-1e3, -1.0), st.floats(1e3, 1e7))


@pytest.mark.parametrize("loop", sorted(_LOOPS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_float_loop_is_bit_identical_to_the_array_loop(loop, data):
    """Every loop steps as the array loop does, bit for bit, from any start,
    recording every step or every 10th, with a shortened last step whose
    stage 4 runs at ``t1``, or aborts at the step where the array loop's
    state first is not finite, with its samples before that step."""
    rhs, start, omega_max = _LOOPS[loop]
    x0, t0 = data.draw(start), data.draw(_T0)
    stride = data.draw(st.sampled_from([1, 10]))
    config = IntegratorConfig.for_frequency(omega_max, 60, output_stride=stride)
    t1 = t0 + 1.0
    assert ((t1 - t0) / config.dt) % 1.0 > 1e-6  # the final step is shortened
    try:
        traj = integrate(rhs, x0, t0, t1, config)
    except IntegrationAborted as err:
        # from some phases a Newton loop escapes within the horizon
        with np.errstate(all="ignore"):
            times, states = _array_rk4(rhs, x0, t0, t1, _config(config.dt), stop=True)
        valid = np.isfinite(states).all(axis=1)
        assert str(err).startswith(f"non-finite state at t={float(times[np.argmin(valid)])}")
        assert err.reason in ("nonfinite", "arithmetic")
        _assert_oracle_prefix(err, times, states, valid, stride)
        return
    times, states = _array_rk4(rhs, x0, t0, t1, config)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("loop", ["newton-original", "newton-rotating_z"])
def test_a_newton_loop_that_escapes_aborts_where_the_array_loop_does(loop, stride):
    """From the Riccati state 1.5 at the source, with the dither phase of
    ``t0 = -1.5``, both full Newton loops leave the finite floats within
    the unit horizon; each aborts at the array loop's first non-finite
    state, with its samples before it."""
    rhs, _, omega_max = _LOOPS[loop]
    x0, t0 = (0.0, 0.0, 1.5, 8.0), -1.5
    config = IntegratorConfig.for_frequency(omega_max, 60, output_stride=stride)
    with pytest.raises(IntegrationAborted) as info:
        integrate(rhs, x0, t0, t0 + 1.0, config)
    with np.errstate(all="ignore"):
        times, states = _array_rk4(rhs, x0, t0, t0 + 1.0, _config(config.dt), stop=True)
    valid = np.isfinite(states).all(axis=1)
    assert str(info.value).startswith("non-finite state at t=-1.4406588054321927;")
    assert float(times[np.argmin(valid)]) == -1.4406588054321927
    assert info.value.reason == "nonfinite"
    _assert_oracle_prefix(info.value, times, states, valid, stride)


#: (start, end, steps) at dt = 0.25 of the three shapes a span takes: one
#: shortened step, a whole number of steps, and whole steps then a
#: shortened one
_SPANS = {"lone": (0.5, 0.6, 1), "whole": (0.5, 2.5, 8), "tail": (0.5, 2.6, 9)}
_SPAN_RHS = {
    "timed": lambda t, y: (y[1] * t, -y[0] - 0.5 * y[1]),
    "autonomous": _linear_rhs(2),
}


@pytest.mark.parametrize("span", sorted(_SPANS))
@pytest.mark.parametrize("stride", [1, 3, 50])
@pytest.mark.parametrize("rhs", sorted(_SPAN_RHS))
def test_every_span_shape_is_the_array_loop(span, stride, rhs):
    """The loop's steps and the last step after it record the array loop's
    samples in every span shape, at strides below and above the number of
    steps, traced and called."""
    (t0, t1, steps), rhs = _SPANS[span], _SPAN_RHS[rhs]
    config = _config(0.25, stride)
    times, states = _array_rk4(rhs, [1.0, 0.5], t0, t1, config)
    made = []  # the called rhs's calls: four per step, none before the first

    def counted(t, y):
        made.append(t)
        return rhs(t, y)

    for run, calls in ((rhs, 1), (_called(counted), 4 * steps)):
        traj = integrate(run, [1.0, 0.5], t0, t1, config)
        assert (traj.steps, traj.rhs_calls) == (steps, calls)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
    assert len(made) == 4 * steps


def _last_stage_time(t0, t1, dt):
    """The time of the second stage of the last step of a run, as the step
    loop computes it: the last step starts at ``t0 + (steps - 1) * dt``."""
    n_full = int(math.floor((t1 - t0) / dt * (1.0 + 1e-12)))
    remainder = (t1 - t0) - n_full * dt
    tail = n_full == 0 or remainder > 1e-12 * max(t1 - t0, dt)
    start = t0 + (n_full - (0 if tail else 1)) * dt if n_full else t0
    return start + 0.5 * (remainder if tail else dt)


#: the :attr:`~sourceseek.ode.IntegrationAborted.reason` of each abort of
#: the last step
_LAST_STEP_REASONS = {"zero_division": "arithmetic", "infinite": "nonfinite", "guard": "guard"}


def _last_step_case(span, abort):
    """(rhs, guard) of a run from ``[1.0, 0.5]`` over the span that aborts at
    its last step; the guarded component falls at a constant rate to zero
    0.05 before the span's end."""
    t0, t1, _ = _SPANS[span]
    stage = _last_stage_time(t0, t1, 0.25)
    guard = ()
    if abort == "zero_division":  # 1 / 0 at the last step's second stage
        def rhs(t, y):
            return (y[1], 1.0 / (stage - t))
    elif abort == "infinite":  # 1e300 / 1 ulp overflows to inf there
        after = math.nextafter(stage, math.inf)

        def rhs(t, y):
            return (y[1], 1e300 / (after - t))
    else:
        rate = 1.0 / (t1 - t0 - 0.05)

        def rhs(t, y):
            return (-rate, -y[0])

        guard = (0,)
    return rhs, guard


@pytest.mark.parametrize("span", sorted(_SPANS))
@pytest.mark.parametrize("stride", [1, 3, 50])
@pytest.mark.parametrize("abort", sorted(_LAST_STEP_REASONS))
def test_an_abort_on_the_last_step_is_the_called_filling_s(span, stride, abort):
    """Each way to abort, raised by the last step (a lone step in the
    ``lone`` span), carries the called filling's message, last valid time
    and partial trajectory."""
    t0, t1, _ = _SPANS[span]
    rhs, guard = _last_step_case(span, abort)
    config = _config(0.25, stride)
    traced = _outcome(rhs, [1.0, 0.5], t1, config, guard, t0=t0)
    called = _outcome(_called(rhs), [1.0, 0.5], t1, config, guard, t0=t0)
    assert isinstance(traced, tuple) and f"at t={t1}" in traced[0]
    assert traced[4] == _LAST_STEP_REASONS[abort]
    _assert_same_outcome(traced, called)
    if abort == "zero_division":  # the array loop raises too
        return
    with np.errstate(over="ignore", invalid="ignore"):
        times, states = _array_rk4(rhs, [1.0, 0.5], t0, t1, _config(0.25))
    assert traced[1] == times[-2]
    assert np.array_equal(traced[2], times[:-1][::stride])
    assert np.array_equal(traced[3], states[:-1][::stride])


def _outcome(rhs, x0, t_end, config, guard=None, t0=0.0):
    """A run's trajectory, or what its abort carries."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return integrate(rhs, x0, t0, t_end, config, guard=guard)
    except IntegrationAborted as err:
        return (str(err), err.last_valid_time, err.partial.times, err.partial.states,
                err.reason)


def _assert_same_outcome(traced, called):
    if isinstance(traced, tuple):
        assert isinstance(called, tuple), "only the traced run aborted"
        assert traced[:2] == called[:2] and traced[4] == called[4]
        assert np.array_equal(traced[2], called[2])
        assert np.array_equal(traced[3], called[3])
    else:
        assert not isinstance(called, tuple), "only the called run aborted"
        assert np.array_equal(traced.times, called.times)
        assert np.array_equal(traced.states, called.states)
        assert (traced.rhs_calls, called.rhs_calls) == (1, 4 * traced.steps)


_GAIN = st.floats(0.5, 2.0)


@pytest.mark.parametrize("pair", sorted(FRAME_SPECS, key=str),
                         ids=lambda pair: f"{pair[0].value}-{pair[1].value}")
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_traced_step_is_the_called_step(pair, data):
    """Every frame's traced RK4 step gives the trajectory, or the abort, of
    its rhs called at every stage, bit for bit."""
    scheme, frame = pair
    params = SeekerParams(
        omega=data.draw(st.floats(8.0, 30.0)), omega0=data.draw(_GAIN),
        alpha=data.draw(st.floats(0.5, 3.0)), p_exp=data.draw(st.floats(0.55, 0.9)),
        h_gain=data.draw(_GAIN), omega_d=data.draw(st.floats(0.1, 0.5)),
    )
    field = FieldParams(f_star=data.draw(st.floats(-5.0, 5.0)),
                        hessian=data.draw(st.floats(0.01, 2.0)),
                        source=np.array([1.0, -1.0]))
    scenario = Scenario(scheme=scheme, frame=frame, field=field, params=params,
                        x0=(data.draw(_POSITION), data.draw(_POSITION)))
    config = replace(scenario.integrator_config(),
                     output_stride=data.draw(st.sampled_from([1, 10])))
    # a whole number of steps, or one more shortened step
    tail = data.draw(st.sampled_from([0.0, 0.37]))
    scenario = replace(scenario, t_end=(data.draw(st.integers(20, 200)) + tail) * config.dt)
    rhs, x0 = scenario.build_rhs(), scenario.initial_state()
    _assert_same_outcome(
        _outcome(rhs, x0, scenario.t_end, config, scenario.guard()),
        _outcome(_called(rhs), x0, scenario.t_end, config, scenario.guard()),
    )


@pytest.mark.parametrize("tail", [0.0, 0.37], ids=["whole", "shortened"])
@pytest.mark.parametrize("pair", sorted(FRAME_SPECS, key=str),
                         ids=lambda pair: f"{pair[0].value}-{pair[1].value}")
def test_a_strided_run_keeps_every_stride_th_sample_of_the_full_record(pair, tail):
    """A run at stride 10 records, bit for bit, every 10th interior sample
    of the same run at stride 1, the initial state first, and its last
    sample, for every frame's loop."""
    scenario = Scenario(scheme=pair[0], frame=pair[1])
    config = scenario.integrator_config()
    rhs, x0, guard = scenario.build_rhs(), scenario.initial_state(), scenario.guard()
    t1 = (137 + tail) * config.dt
    every = integrate(rhs, x0, 0.0, t1, replace(config, output_stride=1), guard)
    strided = integrate(rhs, x0, 0.0, t1, replace(config, output_stride=10), guard)
    assert strided.steps == every.steps == 137 + (tail > 0.0)
    for name in ("times", "states"):
        full = getattr(every, name)
        kept = np.concatenate([full[:-1][::10], full[-1:]])
        assert getattr(strided, name).tobytes() == kept.tobytes(), name


@pytest.mark.parametrize("guard", [(), (0,)], ids=["plain", "guarded"])
def test_a_run_that_records_every_step_stores_at_the_step_number(guard):
    """Where every step is recorded, sample ``i`` is step ``i``'s state: the
    loop and the last step store ``s<j>[i] = x<j>``, with no ``%`` test
    and no offset, and an abort counts ``i`` samples written. A strided
    loop keeps one sample counter ``n``, started once and advanced once,
    under one ``if i % stride == 0:``."""
    shape, _ = ode._trace(_linear_rhs(3), 3)
    every = ode._traced_kernel(shape, guard, False)[0].source
    strided = ode._traced_kernel(shape, guard, True)[0].source
    assert "%" not in every and not re.search(r"\b(at|n)\b", every)
    lines = [line.strip() for line in every.splitlines()]
    for j in range(3):
        assert lines.count(f"s{j}[i] = x{j}") == 2
    assert set(re.findall(r"aborted\(i, (\w+)", every)) == {"i"}
    assert not re.search(r"\bat\b", strided)
    lines = [line.strip() for line in strided.splitlines()]
    assert (lines.count("if i % stride == 0:"), lines.count("n = 1"),
            lines.count("n += 1")) == (1, 1, 1)
    for j in range(3):
        assert lines.count(f"s{j}[n] = x{j}") == 2 and f"s{j}[i]" not in strided
    assert set(re.findall(r"aborted\(i, (\w+)", strided)) == {"n"}


#: (rhs, guard, reason) of the three ways a run aborts: y' = y**2 blows up
#: at t = 1 / y(0), where a float power overflows inside a stage and a
#: product makes the state infinite; a falling state trips a positivity
#: guard
_ABORTS = {
    "overflow": (lambda t, y: (y[0] ** 2,), (), "arithmetic"),
    "infinite": (lambda t, y: (y[0] * y[0],), (), "nonfinite"),
    "guard": (lambda t, y: (-10.0,), (0,), "guard"),
}


@pytest.mark.parametrize("abort", sorted(_ABORTS))
@settings(max_examples=8, deadline=None)
@given(y0=st.floats(0.5, 2.0), dt=st.floats(1e-3, 1e-2),
       stride=st.sampled_from([1, 10]))
def test_traced_step_aborts_as_the_called_step(abort, y0, dt, stride):
    rhs, guard, reason = _ABORTS[abort]
    traced = _outcome(rhs, [y0], 3.0, _config(dt, stride), guard)
    assert isinstance(traced, tuple) and traced[4] == reason
    _assert_same_outcome(traced, _outcome(_called(rhs), [y0], 3.0, _config(dt, stride), guard))


@pytest.mark.parametrize("rhs", [lambda t, y: (0.0 / 0.0,), lambda t, y: (y[0] / 0.0,)],
                         ids=["called", "traced"])
def test_an_arithmetic_abort_names_its_error(rhs):
    with pytest.raises(IntegrationAborted, match=r"^non-finite state at t=0\.1 "
                                                 r"\(ZeroDivisionError\('.+'\)\); "
                                                 r"last valid time t=0\.0$") as excinfo:
        integrate(rhs, [1.0], 0.0, 1.0, _config(0.1))
    assert excinfo.value.reason == "arithmetic"


def test_rhs_that_differ_only_in_a_constant_component_share_a_kernel():
    """A component that is a number is one of the record's constants, so two
    rhs that differ only in its value have one record shape and one step
    loop, and each steps as the array loop does, bit for bit."""
    rhs = {c: (lambda t, y, c=c: (y[1], c)) for c in (1.0, 2.0)}
    shapes = {c: ode._trace(f, 2)[0] for c, f in rhs.items()}
    assert shapes[1.0] == shapes[2.0]
    assert ode._traced_kernel(shapes[1.0]) is ode._traced_kernel(shapes[2.0])
    for f in rhs.values():
        traj = integrate(f, (0.5, -1.0), 0.0, 1.0, _config(0.03, 3))
        times, states = _array_rk4(f, (0.5, -1.0), 0.0, 1.0, _config(0.03, 3))
        assert traj.rhs_calls == 1
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)


def test_every_frame_is_traced():
    # an rhs that calls math.sin where it should call its elementary form
    # would still run, once per stage: this catches it
    for scheme, frame in FRAME_SPECS:
        scenario = Scenario(scheme=scheme, frame=frame, t_end=1.0)
        traj = scenario.run()
        assert traj.rhs_calls == 1, (scheme, frame)
        assert traj.steps == math.ceil(1.0 / scenario.integrator_config().dt)


def test_no_full_frame_traces_a_numpy_call_or_a_power():
    # a numpy ufunc on a float costs several times math's, and a float power
    # three times a product; either would still trace, and run, unnoticed
    for (scheme, frame), spec in FRAME_SPECS.items():
        if spec.averaged:
            continue
        scenario = Scenario(scheme=scheme, frame=frame)
        (lines, _, _), constants = ode._trace(scenario.build_rhs(),
                                              len(scenario.initial_state()))
        for _, template, operands in lines:
            assert "**" not in template, (frame, template)
            modules = [getattr(constants[int(o[1:])], "__module__", None) or ""
                       for o in operands if o.startswith("k")]
            assert not any(m.split(".")[0] == "numpy" for m in modules), (frame, template)


def _loop_lines(lines):
    """The stripped lines under the ``for`` of a rendered loop's ``lines``."""
    start = lines.index("    for i in range(1, total_steps):")
    return [line.strip() for line in itertools.takewhile(
        lambda line: line.startswith("        "), lines[start + 1:])]


def _loop_body(source):
    """The assignments the rendered step loop runs at every step, each as
    ``(target, names read)``: the lines under its ``for``."""
    return [(target, set(re.findall(r"[A-Za-z_]\w*", expression)))
            for target, _, expression in (line.partition(" = ")
                                          for line in _loop_lines(source.splitlines()))
            if expression]


@pytest.mark.parametrize("loop, dim", [("averaged-gradient", 3), ("averaged-newton", 4),
                                       ("linear-5", 5)])
def test_an_autonomous_step_loop_computes_no_stage_time_or_step_size(loop, dim):
    """An rhs that reads no time leaves the stage times ``t + h/2`` and
    ``tn`` unused, so the traced step drops them, and ``0.5 * h`` and ``h /
    6.0`` run once per step size, outside the loop. The loop carries no time
    at all, computes no ``tn = start + i * dt``, as a timed loop does, and
    records none: the sample times are computed after it."""
    shape, _ = ode._trace(_LOOPS[loop][0], dim)
    source = ode._traced_kernel(shape)[0].source
    body = _loop_body(source)
    per_step = [(target, names) for target, names in body
                if re.fullmatch(r"t\d+|x\d+(, x\d+)*,", target)]
    assert len(per_step) > dim
    for target, names in per_step:
        assert "t" not in names, (target, names)
        assert not names <= {"h"} | {n for n in names if re.fullmatch(r"k\d+", n)}, target
    assert not [target for target, _ in body if target in ("t", "tn")]
    assert "times" not in source
    assert not re.search(r"\b(t|tn|end)\b", source.partition("\n")[2])
    # a rhs that reads its time keeps its stage times in the loop, computes
    # the time of its stage 4 and of its new state there, and starts the
    # next step at it
    shape, _ = ode._trace(_LOOPS["newton-rotating_z"][0], 4)
    timed = _loop_body(ode._traced_kernel(shape)[0].source)
    assert any("t" in names and target != "t" for target, names in timed)
    assert timed[0] == ("tn", {"start", "i", "dt"})
    assert ("t", {"tn"}) in timed


def _binary_operations(source):
    """The binary float operations the rendered loop runs in one step: the
    operators between operands in the lines of the step's ``try`` block and
    in the loop's lines that carry a time (``t``, ``tn``)."""
    lines = source.splitlines()
    start = lines.index("    for i in range(1, total_steps):")
    body = list(itertools.takewhile(lambda line: line.startswith("        "),
                                    lines[start + 1:]))
    step = itertools.takewhile(lambda line: line.startswith("            "),
                               body[body.index("        try:") + 1:])
    clock = [line for line in body if re.match(r" +(t|tn) = ", line)]
    return sum(len(re.findall(r" [-+*/] ", line)) for line in [*step, *clock])


@pytest.mark.parametrize("scheme, dim, operations", [(Scheme.GRADIENT, 3, 71),
                                                     (Scheme.NEWTON, 4, 104)],
                         ids=["gradient", "newton"])
def test_the_default_averaged_step_folds_its_unit_gains(scheme, dim, operations):
    """With the default gains ``omega0 = h_gain = 1``, the averaged step
    multiplies by neither and carries no time: 71 and 104 binary operations
    a step, where multiplying by both and carrying ``t_new = start + i * dt``
    made 85 and 118."""
    rhs = averaged_closed_loop(scheme, DEFAULT_PARAMS, DEFAULT_FIELD)
    shape, constants = ode._trace(rhs, dim)
    assert -1.0 not in constants  # -omega0 * z1 is -z1
    assert _binary_operations(ode._traced_kernel(shape)[0].source) == operations


@pytest.mark.parametrize("scheme, dim, operations", [(Scheme.GRADIENT, 3, 96),
                                                     (Scheme.NEWTON, 4, 141)],
                         ids=["gradient", "newton"])
def test_the_default_original_step_reads_the_plain_offset(scheme, dim, operations):
    """The original-frame step takes its map at ``x - x*``, whose length is
    that of ``z = Y^T (x - x*)``, without rotating it at each stage, 24
    binary operations fewer than the rotated offset; with its stage-1 time
    values carried from the step before and stage 4 at ``tn = start + i *
    dt``, not at ``t + h``, that is 96 and 141 a step."""
    rhs = closed_loop(scheme, Frame.ORIGINAL, DEFAULT_PARAMS, DEFAULT_FIELD)
    shape, _ = ode._trace(rhs, dim)
    assert _binary_operations(ode._traced_kernel(shape)[0].source) == operations


def _engine_rhs(field):
    """An rhs that runs ``field``'s drift and finite brackets on its state,
    as the engine's own rendering traces them, so it tests every field
    value a bracket takes for finiteness
    (:meth:`~sourceseek.numdiff.Tape.require`)."""
    system = field.system

    def rhs(t, x):
        out = list(system.drift(x))
        for c in field.coefficients.values():
            if c.kind == "finite":
                bracket = lie_bracket(*averaging._bracket(system, c.indices), x)
                out = [o + c.raw * b for o, b in zip(out, bracket)]
        return tuple(out)

    return rhs


@pytest.mark.parametrize("make, x0", [(gradient_affine_system, (4.0, -4.0, 5.0)),
                                      (newton_affine_system, (4.0, -4.0, 1.0, 5.0))],
                         ids=["gradient", "newton"])
def test_an_engine_field_steps_traced(make, x0):
    """The engine's drift and brackets, finiteness tests included, trace
    into the step loop, and step as the rendered field called at every
    stage does, bit for bit."""
    field = build_averaged_field(make(DEFAULT_PARAMS, DEFAULT_FIELD),
                                 default_omega_grid(DEFAULT_PARAMS.omega))
    traced = integrate(_engine_rhs(field), x0, 0.0, 200.0, _config(0.05))
    called = integrate(lambda t, x: field._evaluate(x), x0, 0.0, 200.0, _config(0.05))
    assert (traced.steps, traced.rhs_calls, called.rhs_calls) == (4000, 1, 16000)
    assert np.array_equal(traced.times, called.times)
    assert np.array_equal(traced.states, called.states)


def test_a_failed_finiteness_test_raises_the_field_s_error_traced_and_called():
    """A live finite bracket of a field that overflows once ``|x0|`` passes
    about 1.3e4: the recorded test fails mid-run, and the traced step raises
    the rendered field's ValueError, message included."""
    system = ControlAffineSystem(
        drift=lambda s: (0.0, 0.0),
        channels=((lambda s: (0.0, 1e300 * (s[0] * s[0])), OscillatoryInput(np.sin, 1, 0.5)),
                  (lambda s: (s[1], 0.0), OscillatoryInput(np.cos, 1, 0.5))),
        dimension=2,
    )
    field = build_averaged_field(system, default_omega_grid(10.0))
    assert field.coefficients[(0, 1)].kind == "finite"
    calls, engine = [], _engine_rhs(field)

    def counted(t, x):
        calls.append(t)
        return engine(t, x)

    messages = []
    for rhs in (counted, lambda t, x: field._evaluate(x)):
        with pytest.raises(ValueError, match="non-finite field evaluation at") as excinfo:
            integrate(rhs, (0.5, 3.0), 0.0, 200.0, _config(0.05))
        messages.append(str(excinfo.value))
    assert len(calls) == 1
    assert messages[0] == messages[1]


#: starts of runs over ``t0 + [0, 2.6]`` at dt = 0.25: ten full steps and a
#: shortened eleventh
_STARTS = [0.0, 3.7, -0.0]
_RECORDS = {"autonomous": _linear_rhs(2), "timed": lambda t, y: (y[1], -y[0] * t)}


def _hex_list(values):
    return [float(v).hex() for v in values]


def _step_times(t0, steps, stride):
    """``t0``, then ``t0 + i * dt`` at every ``stride``-th of ``steps``
    steps, as Python floats."""
    return [t0] + [t0 + i * 0.25 for i in range(stride, steps, stride)]


@pytest.mark.parametrize("t0", _STARTS, ids=repr)
@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("record", sorted(_RECORDS))
def test_the_sample_times_are_t0_plus_i_dt(record, stride, t0):
    """The sample times, computed after the loop, are ``t0 + i * dt`` bit
    for bit, ``t0 = -0.0`` included, and ``t1`` last; the states are the
    array loop's."""
    rhs, t1 = _RECORDS[record], t0 + 2.6
    traj = integrate(rhs, (1.0, 0.5), t0, t1, _config(0.25, stride))
    assert traj.steps == 11
    assert _hex_list(traj.times) == _hex_list(_step_times(t0, 11, stride) + [t1])
    _, states = _array_rk4(rhs, (1.0, 0.5), t0, t1, _config(0.25, stride))
    assert np.array_equal(traj.states, states)


def _abort_case(record, abort, t0):
    """(rhs, start, guard) of a run from ``t0`` that aborts: an
    ArithmeticError in a stage (an autonomous power overflows at the first
    step, a timed division by zero at the sixth), a non-finite state (an
    autonomous product at the third step, a timed quotient at the sixth), or
    the guard at the shortened last step, on a third component that falls
    at unit rate from 2.55."""
    t = (t0 + 5 * 0.25) + 0.5 * 0.25  # the sixth step's stage time, as the loop has it
    after = math.nextafter(t, math.inf)
    cases = {
        ("autonomous", "arithmetic"): (lambda t, y: (y[1], y[0] ** 2), (1e200, 1.0)),
        ("autonomous", "nonfinite"): (lambda t, y: (y[1], y[0] * y[0]), (1.0, 1e20)),
        ("timed", "arithmetic"): (lambda s, y: (y[1], 1.0 / (t - s)), (1.0, 0.5)),
        ("timed", "nonfinite"): (lambda s, y: (y[1], 1e300 / (after - s)), (1.0, 0.5)),
    }
    rhs, start = cases.get((record, abort), (_RECORDS[record], (1.0, 0.5)))
    if abort != "guard":
        return rhs, start, ()

    def guarded(s, y):
        return (*rhs(s, y[:2]), -1.0)

    return guarded, (*start, 2.55), (2,)


#: the messages and reasons of the aborts of :func:`_abort_case`, by
#: record, abort and start, pinned: each time in them is computed from a
#: step number, and a guard trip's value is the array loop's state there
_ABORT_MESSAGES = {
    ("autonomous", "arithmetic", "0.0"): (
        "non-finite state at t=0.25 (OverflowError(34, 'Numerical result out of range')); "
        "last valid time t=0.0", "arithmetic"),
    ("autonomous", "arithmetic", "3.7"): (
        "non-finite state at t=3.95 (OverflowError(34, 'Numerical result out of range')); "
        "last valid time t=3.7", "arithmetic"),
    ("autonomous", "arithmetic", "-0.0"): (
        "non-finite state at t=0.25 (OverflowError(34, 'Numerical result out of range')); "
        "last valid time t=-0.0", "arithmetic"),
    ("autonomous", "nonfinite", "0.0"): (
        "non-finite state at t=0.75; last valid time t=0.5", "nonfinite"),
    ("autonomous", "nonfinite", "3.7"): (
        "non-finite state at t=4.45; last valid time t=4.2", "nonfinite"),
    ("autonomous", "nonfinite", "-0.0"): (
        "non-finite state at t=0.75; last valid time t=0.5", "nonfinite"),
    ("timed", "arithmetic", "0.0"): (
        "non-finite state at t=1.5 (ZeroDivisionError('float division by zero')); "
        "last valid time t=1.25", "arithmetic"),
    ("timed", "arithmetic", "3.7"): (
        "non-finite state at t=5.2 (ZeroDivisionError('float division by zero')); "
        "last valid time t=4.95", "arithmetic"),
    ("timed", "arithmetic", "-0.0"): (
        "non-finite state at t=1.5 (ZeroDivisionError('float division by zero')); "
        "last valid time t=1.25", "arithmetic"),
    ("timed", "nonfinite", "0.0"): (
        "non-finite state at t=1.5; last valid time t=1.25", "nonfinite"),
    ("timed", "nonfinite", "3.7"): (
        "non-finite state at t=5.2; last valid time t=4.95", "nonfinite"),
    ("timed", "nonfinite", "-0.0"): (
        "non-finite state at t=1.5; last valid time t=1.25", "nonfinite"),
    **{(record, "guard", start): (message, "guard")
       for record in ("autonomous", "timed")
       for start, message in (
           ("0.0", "state guard violated at t=2.6: component 2 = -0.050000000000000266, "
                   "not > 0; last valid time t=2.5"),
           ("3.7", "state guard violated at t=6.300000000000001: component 2 = "
                   "-0.05000000000000071, not > 0; last valid time t=6.2"),
           ("-0.0", "state guard violated at t=2.6: component 2 = -0.050000000000000266, "
                    "not > 0; last valid time t=2.5"))},
}


@pytest.mark.parametrize("t0", _STARTS, ids=repr)
@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("record, abort", itertools.product(
    ["autonomous", "timed"], ["arithmetic", "nonfinite", "guard"]))
def test_an_abort_names_its_step_s_times_and_keeps_the_samples_before_it(
        record, abort, stride, t0):
    """Each abort names the time of the failed step and the last valid one,
    computed from the step's number, and carries the samples before it:
    ``t0 + i * dt`` and the array loop's states up to the last valid
    time."""
    rhs, start, guard = _abort_case(record, abort, t0)
    with pytest.raises(IntegrationAborted) as excinfo:
        integrate(rhs, start, t0, t0 + 2.6, _config(0.25, stride), guard=guard)
    err = excinfo.value
    assert (str(err), err.reason) == _ABORT_MESSAGES[record, abort, repr(t0)]
    valid = float(str(err).rpartition("t=")[2])
    steps = round((valid - t0) / 0.25)  # the steps taken before the abort
    assert err.last_valid_time.hex() == (t0 if steps == 0 else t0 + steps * 0.25).hex()
    assert _hex_list(err.partial.times) == _hex_list(_step_times(t0, steps + 1, stride))
    _, states = _array_rk4(rhs, start, t0, err.last_valid_time, _config(0.25))
    assert np.array_equal(err.partial.states, states[::stride])


def _unfolded_operator(operator, reflected=False):
    """``Sym``'s ``operator`` recording every operation it meets, as a tape
    records when it folds none."""
    template = "{} " + operator + " {}"

    def op(self, other):
        if not isinstance(other, (Sym, numbers.Real)):
            return NotImplemented
        a, b = self.name, self.tape.name(other)
        if reflected:
            a, b = b, a
        return self.tape._record(f"{a} {operator} {b}", template, (a, b))
    return op


_UNFOLDED = {f"__{r}{name}__": _unfolded_operator(op, bool(r))
             for name, op in (("add", "+"), ("sub", "-"), ("mul", "*")) for r in ("", "r")}
_UNFOLDED["__neg__"] = lambda self: self.tape.record("-{}", self)


@functools.cache
def _folding_rhs():
    """Every frame's rhs at the default gains (``omega0 = h_gain = 1``) and
    both engine fields, each with its state length."""
    out = {f"{s.value}-{f.value}": (Scenario(scheme=s, frame=f).build_rhs(),
                                    3 if s is Scheme.GRADIENT else 4)
           for s, f in FRAME_SPECS}
    for name, make, dim in (("gradient", gradient_affine_system, 3),
                            ("newton", newton_affine_system, 4)):
        field = build_averaged_field(make(DEFAULT_PARAMS, DEFAULT_FIELD),
                                     default_omega_grid(DEFAULT_PARAMS.omega))
        out[f"engine-{name}"] = (_engine_rhs(field), dim)
    return out


_FOLDING_RHS = sorted([f"{s.value}-{f.value}" for s, f in FRAME_SPECS]
                      + ["engine-gradient", "engine-newton"])


@functools.cache
def _records(name):
    """The tape of ``rhs(t, x)`` on the symbols ``(t, *x)``, and its
    rendered function, folded and as recorded without folding."""
    rhs, dim = _folding_rhs()[name]
    out = []
    for patch in ({}, _UNFOLDED):
        with pytest.MonkeyPatch.context() as mp:
            for attribute, op in patch.items():
                mp.setattr(Sym, attribute, op)
            tape = Tape(dim + 1, object_arrays=False)
            outputs = rhs(tape.state[0], tape.state[1:])
            out.append((tape, outputs, tape.render(outputs)))
    return out


def _raising_lines(tape, lines):
    """The lines that can raise on floats, all but ``+``, ``-``, ``*`` and
    negations, as ``(template, function called)``."""
    return [(template, getattr(f, "__name__", type(f).__name__))
            for _, template, operands in lines
            if template not in ("{} + {}", "{} - {}", "{} * {}", "-{}")
            for f in [tape.constants[int(operands[0][1:])] if template.startswith("{}(")
                      else None]]


_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 1e300,
                          math.inf, -math.inf, math.nan])
_ANY_FLOAT = st.one_of(_EDGES, st.floats(-10.0, 10.0), st.floats())


def _outcome_hex(function, x):
    """``function(x)`` as ``float.hex`` strings (every NaN reads ``nan``), or
    the error it raised."""
    try:
        return [float(v).hex() for v in function(x)]
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", _FOLDING_RHS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_folded_record_is_the_unfolded_record(name, data):
    """Folding ``x * 1.0``, ``x * -1.0``, ``a + (-b)`` and the other exact
    rules changes no value, bit for bit, at any float state, zeros of both
    signs, subnormals, infinities and NaNs among them, nor the error raised;
    and it drops no line that can raise."""
    (folded, outputs, fast), (unfolded, raw_outputs, slow) = _records(name)
    assert len(folded.lines) <= len(unfolded.lines)
    assert _raising_lines(folded, folded.lines) == _raising_lines(unfolded, unfolded.lines)
    assert (_raising_lines(folded, _live(folded.lines, [folded.name(v) for v in outputs],
                                         folded.constants))
            == _raising_lines(unfolded, _live(unfolded.lines,
                                              [unfolded.name(v) for v in raw_outputs],
                                              unfolded.constants)))
    x = data.draw(st.tuples(*[_ANY_FLOAT] * len(folded.state)))
    assert _outcome_hex(fast, x) == _outcome_hex(slow, x)


def test_a_called_step_reads_each_stage_s_value_by_subscript():
    """A call record's step checks each stage's value once, then reads its
    components by subscript, one line each."""
    shape, _ = ode._call_record(_called(_linear_rhs(3)), 3)
    body = [line.strip() for line in ode._traced_kernel(shape)[0].source.splitlines()]
    calls = [line for line in body if re.match(r"t\d+ = k0\(k1\(", line)]
    assert len(calls) == 8  # four stages, in the loop and after it
    reads = [line for line in body if re.fullmatch(r"t\d+ = t\d+\[[012]\]", line)]
    assert len(reads) == 3 * len(calls)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("at", range(4))
def test_the_finite_test_is_exact_at_the_largest_and_smallest_floats(bad, at):
    """A state of the largest and smallest finite floats, whose product
    overflows and underflows, steps on; one component turned infinite or NaN
    by the step aborts it."""
    big = (1.7e308, -1.7e308, 1e308, 5e-324)
    traj = integrate(lambda t, y: (0.0, 0.0, 0.0, 0.0), big, 0.0, 1.0, _config(0.25))
    assert np.array_equal(traj.states[-1], big)
    rhs = lambda t, y: tuple(bad * 4.0 if j == at else 0.0 for j in range(4))
    with pytest.raises(IntegrationAborted, match=r"^non-finite state at t=0\.25; "
                                                 r"last valid time t=0\.0$"):
        integrate(rhs, big, 0.0, 1.0, _config(0.25))


@pytest.mark.parametrize("frame", [Frame.ORIGINAL, Frame.ROTATING_Z, Frame.AVERAGED_NEWTON],
                         ids=lambda frame: frame.value)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_guard_trips_at_the_array_loop_s_first_non_positive_riccati_state(frame, data):
    """With random gains and a step 1.5 to 32 times its own, a newton frame
    that keeps the raw Riccati state ``d`` aborts where the array loop's
    ``d`` first is not above zero, or its state first is not finite, which
    is tested first: with that step's message, reason and last valid time,
    and the array loop's samples before it."""
    params = SeekerParams(
        omega=data.draw(st.floats(8.0, 30.0)), omega0=data.draw(_GAIN),
        alpha=data.draw(st.floats(0.5, 3.0)), p_exp=data.draw(st.floats(0.55, 0.9)),
        h_gain=data.draw(_GAIN), omega_d=data.draw(st.floats(0.1, 0.5)),
    )
    field = FieldParams(f_star=data.draw(st.floats(-5.0, 5.0)),
                        hessian=data.draw(st.floats(0.01, 2.0)),
                        source=np.array([1.0, -1.0]))
    scenario = Scenario(scheme=Scheme.NEWTON, frame=frame, field=field, params=params,
                        x0=(data.draw(_POSITION), data.draw(_POSITION)),
                        d0=data.draw(st.floats(0.5, 50.0)))
    dt = scenario.integrator_config().dt * data.draw(st.floats(1.5, 32.0))
    stride, t1 = data.draw(st.sampled_from([1, 10])), 200.37 * dt
    rhs, x0 = scenario.build_rhs(), scenario.initial_state()
    with np.errstate(all="ignore"):
        times, states = _array_rk4(rhs, x0, 0.0, t1, _config(dt))
    valid = np.isfinite(states).all(axis=1) & (states[:, 2] > 0.0)
    n = int(np.argmin(valid))
    assume(n > 0)  # the run stops
    with pytest.raises(IntegrationAborted) as excinfo:
        integrate(rhs, x0, 0.0, t1, _config(dt, stride), guard=scenario.guard())
    err = excinfo.value
    if np.isfinite(states[n]).all():
        what, reason = (f"state guard violated at t={float(times[n])}: component 2 = "
                        f"{float(states[n, 2])!r}, not > 0", "guard")
    else:
        what, reason = f"non-finite state at t={float(times[n])}", "nonfinite"
    assert str(err) == f"{what}; last valid time t={float(times[n - 1])}"
    assert err.reason == reason
    _assert_oracle_prefix(err, times, states, valid, stride)


@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("pair", sorted(FRAME_SPECS, key=str),
                         ids=lambda pair: f"{pair[0].value}-{pair[1].value}")
def test_a_guard_is_one_comparison_per_positive_component(pair, stride):
    """A frame's kernel tests each component its spec keeps positive, ``if
    not x<j> > 0.0:``, in the loop and in the last step, and is the
    unguarded kernel but for those tests: no constant, time or call of
    its own."""
    scenario = Scenario(scheme=pair[0], frame=pair[1])
    positive, dim = scenario.guard(), len(scenario.initial_state())
    shape, _ = ode._trace(scenario.build_rhs(), dim)
    guarded, constants = ode._traced_kernel(shape, positive, stride > 1)
    plain, _ = ode._traced_kernel(shape, (), stride > 1)
    lines = guarded.source.splitlines()
    tests = [line.strip() for line in lines if "if not" in line]
    assert tests == [f"if not x{j} > 0.0:" for j in positive] * 2
    assert [line for line in lines if "if not" not in line and "tripped" not in line] \
        == plain.source.splitlines()
    assert len(re.findall(r"k\d+", lines[1])) == shape[2] + len(constants)


@pytest.mark.parametrize("guard", [lambda t, y: y[0] > 0.0, 1, (0.0,), ("0",), (True,),
                                   (1, 1), (2,), (-1,)],
                         ids=["callable", "integer", "float", "string", "bool", "repeated",
                              "past-the-end", "negative"])
def test_refuses_a_guard_that_is_not_distinct_component_indices(guard):
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (y[1], -y[0])

    with pytest.raises(ValueError, match=r"^guard must be distinct indices of the 2 state "
                                         r"components, got "):
        integrate(rhs, [1.0, 0.5], 0.0, 1.0, _config(0.25), guard=guard)
    assert calls == []


@pytest.mark.parametrize("value", [0.0, -0.0, -1e-300])
def test_refuses_a_start_whose_guarded_component_is_not_positive(value):
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (y[1], -y[0])

    message = f"initial state violates the guard at t=0.5: component 1 is {value}, not > 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(rhs, [1.0, value], 0.5, 1.0, _config(0.25), guard=(0, 1))
    assert calls == []


#: timed records whose stage 1 reads the time through lines of their own,
#: which a step takes from the stage 4 of the step before it, with a start
#: state and the number of calls in those lines: trigonometry, a quotient,
#: a cosine after a power that can raise, and the newton rotating-frame
#: loop's three waves
_CLOCKED = {
    "sine": (lambda t, y: (y[1], -y[0] + 0.3 * sin(1.7 * t)), (1.0, 0.5), 1),
    "quotient": (lambda t, y: (y[1], -y[0] * (1.0 / (t + 9.0))), (1.0, 0.5), 0),
    "after-a-power": (lambda t, y: (0.01 * y[1] ** 2 - y[0], cos(2.0 * t) - y[1]),
                      (1.0, 0.5), 1),
    "newton-rotating_z": (_LOOPS["newton-rotating_z"][0], (1.0, 0.5, 1.0, 5.0), 3),
}


def _time_lines(lines):
    """The numbers of the ``lines`` of a rendered loop that compute a value
    from the time ``t`` and constants alone, directly or through such
    values."""
    clock, found = {"t"}, []
    for n, line in enumerate(lines):
        target, _, expression = line.strip().rpartition(" = ")
        names = set(re.findall(r"[A-Za-z_]\w*", expression))
        if names & clock and all(m in clock or re.fullmatch(r"k\d+", m) for m in names):
            found.append(n)
            clock.add(target)
    return found


def _time_reads(lines):
    """How often the loop of a rendered loop's ``lines`` reads the time
    ``t``."""
    return sum(len(re.findall(r"\bt\b", line.partition(" = ")[2]))
               for line in _loop_lines(lines))


@pytest.mark.parametrize("t0", _STARTS, ids=repr)
@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("record", sorted(_CLOCKED))
def test_a_step_takes_its_stage_one_clock_from_the_step_before(record, stride, t0):
    """Stage 4 runs at ``tn``, the time the next step starts at, so the
    loop computes its stage-1 time values once, before it, with no ``tc``
    and no test of the time; after the finite test each step hands its
    stage-4 values to the next step's stage-1 names, and ``tn`` to ``t``.
    Every step's state is a kernel's that computes them at every step, the
    called run's and the array loop's, bit for bit, with a shortened last
    step."""
    rhs, x0, calls = _CLOCKED[record]
    shape, _ = ode._trace(rhs, len(x0))
    lines = ode._traced_kernel(shape)[0].source.splitlines()
    assert not [line for line in lines if re.search(r"\btc\b", line)]
    loop = lines.index("    for i in range(1, total_steps):")
    clock = _time_lines(lines)
    assert clock and lines.index("    try:") < clock[0] and clock[-1] < loop
    assert all(lines.count(lines[n]) == 1 for n in clock)
    assert len(re.findall(r"k\d+\(", "\n".join(lines[n] for n in clock))) == calls
    assert lines[lines.index("    try:") - 1] == "    t = start"
    assert lines[loop - 2:loop] == ["    except ArithmeticError as exc:",
                                    "        raise aborted(1, 1, exc) from exc"]
    body = _loop_lines(lines)
    assert body[:2] == ["tn = start + i * dt", "try:"]
    handed = body[body.index("raise aborted(i, i)") + 1:body.index("t = tn")]
    assert all(re.fullmatch(r"t\d+ = t\d+", line) for line in handed)
    # each stage-1 time value that the step reads, and only those
    read = {n for line in body[:body.index("except ArithmeticError as exc:")]
            for n in re.findall(r"[A-Za-z_]\w*", line.partition(" = ")[2])}
    targets = {lines[n].strip().partition(" = ")[0] for n in clock}
    assert {line.partition(" = ")[0] for line in handed} == targets & read != set()

    t1, config = t0 + 2.63, _config(0.1, stride)
    traj = integrate(rhs, x0, t0, t1, config)
    assert (traj.steps, traj.rhs_calls) == (27, 1)
    with pytest.MonkeyPatch.context() as mp:  # a kernel that carries nothing
        mp.setattr(ode, "_carried", lambda lines, pairs: (lines, {}))
        mp.setattr(ode, "_traced_kernel", ode._traced_kernel.__wrapped__)
        every = ode._traced_kernel(shape)[0].source.splitlines()
        assert not [line for line in every if "aborted(1, 1" in line]
        assert _time_reads(every) > _time_reads(lines)
        recomputed = integrate(rhs, x0, t0, t1, config)
    called = integrate(_called(rhs), x0, t0, t1, config)
    times, states = _array_rk4(rhs, x0, t0, t1, config)
    for other in (recomputed, called, Trajectory(times, states)):
        assert traj.times.tobytes() == other.times.tobytes()
        assert traj.states.tobytes() == other.states.tobytes()


def _unread_quotient(t, y):
    1.0 / (t - 3.7)  # read by nothing, it stops the run all the same
    return (y[1], -y[0])


#: (rhs, start, t0, error) of runs that raise in a stage: a power of the
#: state and a quotient of the time in the first step's stage 1, in either
#: order; a quotient of the time alone at ``t0``, read or not; and the same
#: at the stamp ``tn`` of the fifth step, at dt = 0.1, where its stage 4
#: runs
_FIRST_ERRORS = {
    "unread-at-the-start": (_unread_quotient, (1.0, 0.5), 3.7, "ZeroDivisionError"),
    "power-first": (lambda t, y: (y[0] ** 2, 1.0 / t - y[1]), (1e200, 1.0), 0.0,
                    "OverflowError"),
    "quotient-first": (lambda t, y: (1.0 / t - y[1], y[0] ** 2), (1e200, 1.0), 0.0,
                       "ZeroDivisionError"),
    "at-the-start": (lambda t, y: (y[1], 1.0 / (t - 3.7) - y[0]), (1.0, 0.5), 3.7,
                     "ZeroDivisionError"),
    "at-a-stamp": (lambda t, y: (y[1], 1.0 / (t - (3.7 + 5 * 0.1)) - y[0]), (1.0, 0.5),
                   3.7, "ZeroDivisionError"),
}


@pytest.mark.parametrize("record", sorted(_FIRST_ERRORS))
def test_a_carried_clock_keeps_the_error_that_comes_first(record):
    """The traced step raises the error the called step raises first. The
    first step's stage 1 runs before the loop, its lines that can raise in
    the rhs's order, so a time value that raises at ``t0`` aborts the first
    step, unless a line before it in the rhs raises first. A later step
    computes no stage-1 time value: each ran at the stage 4 before it, at
    the same float, so one that raises at a step's stamp ``tn`` raises in
    that step's stage 4, as the called step's does."""
    rhs, x0, t0, error = _FIRST_ERRORS[record]
    shape, _ = ode._trace(rhs, 2)
    assert "raise aborted(1, 1, exc) from exc" in ode._traced_kernel(shape)[0].source
    traced = _outcome(rhs, x0, t0 + 1.0, _config(0.1), t0=t0)
    _assert_same_outcome(traced, _outcome(_called(rhs), x0, t0 + 1.0, _config(0.1), t0=t0))
    assert traced[4] == "arithmetic" and error in traced[0]
    steps = 5 if record == "at-a-stamp" else 1
    assert traced[1] == t0 + (steps - 1) * 0.1
    assert f"non-finite state at t={t0 + steps * 0.1} " in traced[0]
    assert len(traced[2]) == steps


def _run(rhs, x0, t0, t1, config, guard=(), components=None):
    """A run's trajectory, or its abort."""
    try:
        return integrate(rhs, x0, t0, t1, config, guard=guard, components=components)
    except IntegrationAborted as err:
        return err


def _kept(result, components) -> tuple:
    """What a reader of ``components`` sees of a :func:`_run`: the steps of
    a trajectory, or an abort's message, last valid time and reason, then
    the times and the columns of ``components``, as bytes."""
    if isinstance(result, IntegrationAborted):
        traj, head = result.partial, (str(result), result.last_valid_time, result.reason)
    else:
        traj, head = result, ("completed", result.steps)
    return (*head, traj.times.tobytes(), traj.states[:, traj.columns(components)].tobytes())


def _frozen(rhs, stepped):
    """``rhs`` with a zero rate for each component outside ``stepped``: the
    full loop whose other components keep their start."""
    def frozen(t, y):
        return tuple([v if j in stepped else 0.0 for j, v in enumerate(rhs(t, y))])
    return frozen


#: per averaged (scheme, frame) pair, the components that each component's
#: rate reads (:func:`~sourceseek.seekers.averaged_closed_loop`, pushed
#: forward through the frame's map); in a full loop every rate reads every
#: component, through the filter's error
_READS = {
    (Scheme.GRADIENT, Frame.AVERAGED_GRADIENT): ({1}, {0, 1}, {0, 1, 2}),
    (Scheme.NEWTON, Frame.AVERAGED_NEWTON): ({1}, {0, 1, 2}, {2}, {0, 1, 3}),
    (Scheme.NEWTON, Frame.AVERAGED_NEWTON_EXP): ({1}, {0, 1, 2}, {2}, {0, 1, 3}),
    (Scheme.NEWTON, Frame.CASCADE_SHIFTED): ({0, 1, 2, 3}, {2}, {1, 2, 3}, {3}),
}


def _closure(pair, wanted, dim) -> set:
    """The components a run of ``pair`` that reads ``wanted`` must step."""
    reads = _READS.get(pair, [set(range(dim))] * dim)
    stepped = set(wanted)
    while not (more := stepped.union(*(reads[j] for j in stepped))) <= stepped:
        stepped = more
    return stepped


_PAIRS = sorted(FRAME_SPECS, key=str)


def _pair_id(pair):
    return f"{pair[0].value}-{pair[1].value}"


def _subsets(dim):
    return [c for n in range(1, dim + 1) for c in itertools.combinations(range(dim), n)]


@pytest.mark.parametrize("pair", _PAIRS, ids=_pair_id)
def test_a_step_steps_the_closure_of_the_components_it_records(pair):
    """For every set of recorded components, the step updates, tests for a
    non-finite value and stores exactly those that the components it
    records or guards read, however indirectly, and takes its other
    components' starts unchanged; a full loop steps them all."""
    scenario = Scenario(scheme=pair[0], frame=pair[1])
    guard, dim = scenario.guard(), len(scenario.initial_state())
    shape, _ = ode._trace(scenario.build_rhs(), dim)
    for components in _subsets(dim):
        source = ode._traced_kernel(shape, guard, False, components)[0].source
        stepped = sorted(_closure(pair, {*components, *guard}, dim))
        body = _loop_lines(source.splitlines())
        names = [f"x{j}" for j in stepped]
        [update] = [line for line in body if line.startswith("x") and ", = " in line]
        assert update.startswith(f"{', '.join(names)}, = ")
        assert f"if {' * '.join(['0.0', *names])} != 0.0:" in body
        assert [line for line in body if line.startswith("s")] == [
            f"s{j}[i] = x{j}" for j in components]
        assert f"[{', '.join(f's{j}' for j in components)}] = states" in source
        assert f"[{', '.join(f'x{j}' for j in range(dim))}] = y" in source


_HUGE = st.floats(1e150, 1e170)


@pytest.mark.parametrize("pair", _PAIRS, ids=_pair_id)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_run_of_some_components_records_the_full_run_s_columns(pair, data):
    """A run that records some components gives the full run's columns of
    them, its times and its steps, bit for bit. It steps the closure of its
    recorded and guarded components, so it aborts as the full run whose
    other components keep their start does: at the same step, for the same
    reason, with the same samples. So where the full run trips its guard or
    steps nothing more, both abort alike, and where the full run aborts on
    an unstepped component, the reduced run carries on past it. A called
    rhs has no record, so it steps every component, as the full run does."""
    scheme, frame = pair
    params = SeekerParams(
        omega=data.draw(st.floats(8.0, 30.0)), omega0=data.draw(_GAIN),
        alpha=data.draw(st.floats(0.5, 3.0)), p_exp=data.draw(st.floats(0.55, 0.9)),
        h_gain=data.draw(_GAIN), omega_d=data.draw(st.floats(0.1, 0.5)),
    )
    field = FieldParams(f_star=data.draw(st.floats(-5.0, 5.0)),
                        hessian=data.draw(st.floats(0.01, 2.0)),
                        source=np.array([1.0, -1.0]))
    # a huge position overflows the field's map, a huge Riccati state the
    # step; the cascade frame's own start holds the map
    huge = frame is not Frame.CASCADE_SHIFTED and data.draw(st.booleans())
    position = st.one_of(_HUGE, _HUGE.map(lambda v: -v)) if huge else _POSITION
    scenario = Scenario(scheme=scheme, frame=frame, field=field, params=params,
                        x0=(data.draw(position), data.draw(_POSITION)),
                        d0=data.draw(st.one_of(_RICCATI, st.floats(1e3, 1e8))),
                        nu0=data.draw(st.floats(-10.0, 10.0)))
    rhs, x0, guard = scenario.build_rhs(), scenario.initial_state(), scenario.guard()
    dim = len(x0)
    components = data.draw(st.sampled_from(_subsets(dim)))
    config = replace(scenario.integrator_config(),
                     output_stride=data.draw(st.sampled_from([1, 10])))
    # a whole number of steps, or one more shortened step
    t0, tail = data.draw(_T0), data.draw(st.sampled_from([0.0, 0.37]))
    t1 = t0 + (data.draw(st.integers(20, 200)) + tail) * config.dt
    stepped = _closure(pair, {*components, *guard}, dim)

    def run(rhs, components=None):
        return _run(rhs, x0, t0, t1, config, guard, components)

    full, reduced = run(rhs), run(rhs, components)
    event(" ".join(getattr(r, "reason", "completed") for r in (full, reduced)))
    kept = _kept(reduced, components)
    traj = reduced.partial if isinstance(reduced, IntegrationAborted) else reduced
    assert traj.components == components and traj.dim == len(components)
    assert kept == _kept(run(_frozen(rhs, stepped)), components)
    assert _kept(run(_called(rhs), components), components) == _kept(full, components)
    if not isinstance(full, IntegrationAborted) or full.reason == "guard" or len(stepped) == dim:
        assert kept == _kept(full, components)
    else:  # on an unstepped component, perhaps: its samples begin the reduced run's
        n = len(full.partial.times)
        assert traj.times[:n].tobytes() == full.partial.times.tobytes()
        assert (traj.states[:n].tobytes()
                == full.partial.states[:, list(components)].tobytes())


@pytest.mark.parametrize("components", [(), [], (1, 0), (0, 0), (0, 2), (-1,), (0.0,),
                                        (True,), "01", range(2), {0, 1}, np.array([0, 1]),
                                        1],
                         ids=["empty", "empty-list", "unsorted", "repeated", "past-the-end",
                              "negative", "float", "bool", "string", "range", "set",
                              "array", "integer"])
def test_refuses_components_that_are_not_increasing_component_indices(components):
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (y[1], -y[0])

    with pytest.raises(ValueError, match=r"^components must be increasing indices of the 2 "
                                         r"state components, got "):
        integrate(rhs, [1.0, 0.5], 0.0, 1.0, _config(0.25), components=components)
    assert calls == []


def test_a_guarded_component_that_is_not_recorded_is_stepped_and_trips():
    """Component 0 falls by 1 a unit time and no other reads it. Guarded,
    it is stepped where only component 1 is recorded, and trips where the
    full run trips, named by its state index; unguarded, it is not
    stepped, and the run completes."""
    def rhs(t, y):
        return (-1.0, -0.5 * y[1])

    x0, config = (0.35, 1.0), _config(0.1)
    reduced = _run(rhs, x0, 0.0, 1.0, config, guard=(0,), components=(1,))
    assert isinstance(reduced, IntegrationAborted) and reduced.reason == "guard"
    assert str(reduced).startswith("state guard violated at t=0.4: component 0 = -0.05")
    assert _kept(reduced, (1,)) == _kept(_run(rhs, x0, 0.0, 1.0, config, guard=(0,)), (1,))
    assert reduced.partial.components == (1,) and reduced.partial.dim == 1
    unguarded = integrate(rhs, x0, 0.0, 1.0, config, components=(1,))
    assert _kept(unguarded, (1,)) == _kept(integrate(rhs, x0, 0.0, 1.0, config), (1,))


def test_an_unread_component_that_overflows_aborts_only_the_full_run():
    """Component 1 leaves the finite floats in the first step, and no other
    reads it: the full run aborts, and the run that records component 0
    completes, as the loop of component 0 alone does, bit for bit."""
    def rhs(t, y):
        return (-y[0], y[1] * y[1])

    x0, config = (1.0, 1e200), _config(0.1)
    full = _run(rhs, x0, 0.0, 1.0, config)
    assert isinstance(full, IntegrationAborted) and full.reason == "nonfinite"
    reduced = integrate(rhs, x0, 0.0, 1.0, config, components=(0,))
    alone = integrate(lambda t, y: (-y[0],), (1.0,), 0.0, 1.0, config)
    assert reduced.components == (0,) and reduced.steps == alone.steps == 10
    assert reduced.times.tobytes() == alone.times.tobytes()
    assert reduced.states.tobytes() == alone.states.tobytes()


@pytest.mark.parametrize("pair", _PAIRS, ids=_pair_id)
def test_recording_every_component_is_the_default_kernel(pair, monkeypatch):
    """Every component named is the run that names none: the same cached
    kernel, and the same trajectory, bit for bit."""
    scenario = Scenario(scheme=pair[0], frame=pair[1], t_end=1.0)
    dim, kernels = len(scenario.initial_state()), []
    cached = ode._traced_kernel

    def kernel(*args):
        kernels.append(cached(*args))
        return kernels[-1]

    monkeypatch.setattr(ode, "_traced_kernel", kernel)
    default, every = scenario.run(), scenario.run(components=tuple(range(dim)))
    assert kernels[0] is kernels[1]
    assert default.components == every.components == tuple(range(dim))
    assert _kept(default, range(dim)) == _kept(every, range(dim))


#: every frame's kernel at output strides 1 and 10, with its guard and
#: without, written out in one process
_KERNEL_SOURCES = """\
import sys
from sourceseek import FRAME_SPECS, Scenario, ode
for scheme, frame in sorted(FRAME_SPECS, key=str):
    scenario = Scenario(scheme=scheme, frame=frame)
    shape, _ = ode._trace(scenario.build_rhs(), len(scenario.initial_state()))
    for guard in (scenario.guard(), ()):
        for stride in (1, 10):
            sys.stdout.write(ode._traced_kernel(shape, guard, stride > 1)[0].source)
"""


def test_a_kernel_s_source_is_the_same_under_every_hash_seed():
    """A kernel's source depends on its cache key alone: rendered in two
    processes whose string hashes differ, every frame's kernels are the
    same text, the order of the lines that hand a step's time values to the
    next among them."""
    src = Path(__file__).resolve().parents[1] / "src"
    sources = [subprocess.run(
        [sys.executable, "-c", _KERNEL_SOURCES], capture_output=True, text=True,
        check=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
    ).stdout for seed in ("0", "1")]
    assert sources[0].count("def step_loop(") == 4 * len(FRAME_SPECS)
    assert sources[0] == sources[1]
