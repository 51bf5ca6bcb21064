import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourceseek import (
    AveragedForm,
    FieldParams,
    Frame,
    IntegrationAborted,
    IntegratorConfig,
    Scheme,
    SeekerParams,
    Trajectory,
    averaged_closed_loop,
    closed_loop,
    first_entry_time,
    integrate,
)


def _config(dt, stride=1):
    return IntegratorConfig(dt=dt, output_stride=stride)


class TestIntegrate:
    def test_zero_rhs_constant_trajectory(self):
        traj = integrate(lambda t, y: (0.0, 0.0), [1.0, -2.0], 0.0, 1.0, _config(0.1))
        traj.validate()
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
        traj.validate()
        # interior spacing is the step, the tail gap is shorter
        diffs = np.diff(traj.times)
        assert diffs[-1] < diffs[0]
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_stride_recording_uniform(self):
        traj = integrate(lambda t, y: (-y[0],), [1.0], 0.0, 1.0, _config(0.01, stride=10))
        traj.validate()
        np.testing.assert_allclose(np.diff(traj.times), 0.1, rtol=1e-12)
        assert len(traj.times) == 11

    def test_aborts_on_nonfinite_state(self):
        # finite-time blowup of y' = y**2 from y(0) = 1 at t = 1
        with pytest.raises(IntegrationAborted) as excinfo, np.errstate(
            over="ignore", invalid="ignore"
        ):
            integrate(lambda t, y: (y[0] ** 2,), [1.0], 0.0, 2.0, _config(0.001))
        err = excinfo.value
        assert 0.9 < err.last_valid_time < 1.1
        assert err.partial.times[-1] <= err.last_valid_time
        assert np.all(np.isfinite(err.partial.states))

    def test_guard_violation_reports_step_size(self):
        with pytest.raises(IntegrationAborted) as excinfo:
            integrate(
                lambda t, y: (-10.0,),
                [1.0],
                0.0,
                2.0,
                _config(0.01),
                guard=lambda t, y: y[0] > 0.0,
            )
        assert "step-size violation" in str(excinfo.value)
        assert excinfo.value.last_valid_time == pytest.approx(0.1, abs=0.02)

    def test_rejects_nonfinite_initial_state(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="initial state is not finite"):
                integrate(lambda t, y: (0.0, 0.0), [1.0, bad], 0.0, 1.0, _config(0.1))

    def test_rejects_rhs_of_wrong_length(self):
        with pytest.raises(ValueError, match="2 components for a state of length 1"):
            integrate(lambda t, y: (0.0, 0.0), [1.0], 0.0, 1.0, _config(0.1))

    def test_rejects_reversed_time(self):
        with pytest.raises(ValueError):
            integrate(lambda t, y: (-y[0],), [1.0], 1.0, 0.0, _config(0.01))


class TestIntegratorConfig:
    def test_rejects_coarse_period_sampling(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.01, samples_per_period=39)

    def test_rejects_step_too_large_for_frequency(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, samples_per_period=60, omega_max=30.0)

    def test_for_frequency_resolves_fastest_oscillation(self):
        cfg = IntegratorConfig.for_frequency(30.0, samples_per_period=60)
        assert cfg.dt == pytest.approx(2.0 * math.pi / (30.0 * 60.0))


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
        parsed = np.loadtxt(path, delimiter=",", skiprows=1)
        # 17 significant digits reproduce doubles exactly
        np.testing.assert_array_equal(parsed[:, 0], traj.times)
        np.testing.assert_array_equal(parsed[:, 1:], traj.states)


def _array_rk4(rhs, x0, t0, t1, config):
    """The array-based RK4 loop the float loop replaced, kept as the
    reference for bit-for-bit agreement (no guard, no finiteness check)."""
    dt, span, stride = config.dt, t1 - t0, config.output_stride
    n_full = int(math.floor(span / dt * (1.0 + 1e-12)))
    remainder = span - n_full * dt
    total = n_full + (1 if remainder > 1e-12 * max(span, dt) else 0)
    y, t = np.array(x0, dtype=float), t0
    times, states = [t0], [y.copy()]
    for i in range(total):
        h = dt if i < n_full else remainder
        k1 = np.asarray(rhs(t, y))
        k2 = np.asarray(rhs(t + 0.5 * h, y + (0.5 * h) * k1))
        k3 = np.asarray(rhs(t + 0.5 * h, y + (0.5 * h) * k2))
        k4 = np.asarray(rhs(t + h, y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t1 if i + 1 == total else t0 + (i + 1) * dt
        if (i + 1) % stride == 0 or i + 1 == total:
            times.append(t)
            states.append(y.copy())
    return np.array(times), np.array(states)


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
#: scheme/frame closure and one averaged form
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
        averaged_closed_loop(AveragedForm.NEWTON, _REF_PARAMS, _REF_FIELD),
        st.tuples(_POSITION, _POSITION, st.floats(0.5, 200.0), _FILTER), 1.0,
    ),
}


@pytest.mark.parametrize("loop", sorted(_LOOPS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_float_loop_is_bit_identical_to_the_array_loop(loop, data):
    rhs, start, omega_max = _LOOPS[loop]
    x0 = data.draw(start)
    config = IntegratorConfig.for_frequency(omega_max, 60, output_stride=7)
    t_end = 1.0
    assert (t_end / config.dt) % 1.0 > 1e-6  # the final step is shortened
    traj = integrate(rhs, x0, 0.0, t_end, config)
    times, states = _array_rk4(rhs, x0, 0.0, t_end, config)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
