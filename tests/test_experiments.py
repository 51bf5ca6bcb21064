import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourceseek import (
    CompareConfig,
    ConfigError,
    DEFAULT_FIELD,
    DEFAULT_PARAMS,
    FRAME_SPECS,
    Frame,
    HessianSweepConfig,
    IntegratorConfig,
    OmegaSweepConfig,
    RateEstimate,
    Scenario,
    Scheme,
    SeekerParams,
    Trajectory,
    build_averaged_field,
    default_omega_grid,
    estimate_rate,
    gradient_affine_system,
    integrate,
    load_config,
    run_average,
    run_certify,
    run_compare,
    run_hessian_invariance,
    run_omega_sweep,
    run_simulate,
)
from sourceseek import experiments
from sourceseek.averaging import AssumptionClause, AssumptionReport
from sourceseek.experiments import (
    AverageReport,
    CertifyReport,
    CompareReport,
    HessianSweepReport,
    HessianSweepRow,
    OmegaSweepReport,
    OmegaSweepRow,
    SimulateResult,
    StudyResult,
)


class TestScenarioValidation:
    def test_newton_requires_positive_riccati_start(self):
        with pytest.raises(ValueError, match="d > 0"):
            Scenario(scheme=Scheme.NEWTON, d0=0.0)
        with pytest.raises(ValueError, match="d > 0"):
            Scenario(scheme=Scheme.NEWTON, d0=-1.0)

    def test_gradient_ignores_riccati_start(self):
        Scenario(scheme=Scheme.GRADIENT, d0=-1.0)  # unused, accepted

    def test_rejects_nonfinite_starts(self):
        with pytest.raises(ValueError, match="nu0 must be finite"):
            Scenario(scheme=Scheme.GRADIENT, nu0=math.nan)
        with pytest.raises(ValueError, match="nu0 must be finite"):
            Scenario(scheme=Scheme.NEWTON, nu0=math.inf)
        with pytest.raises(ValueError, match="d0=inf rejected"):
            Scenario(scheme=Scheme.NEWTON, d0=math.inf)
        with pytest.raises(ValueError, match="d0=nan rejected"):
            Scenario(scheme=Scheme.NEWTON, d0=math.nan)

    def test_horizon_positive(self):
        with pytest.raises(ValueError, match="horizon"):
            Scenario(scheme=Scheme.GRADIENT, t_end=0.0)

    @pytest.mark.parametrize("stride", [2.5, 0])
    @pytest.mark.parametrize("pair", sorted(FRAME_SPECS, key=str),
                             ids=lambda pair: f"{pair[0].value}-{pair[1].value}")
    def test_rejects_a_bad_stride_at_construction(self, pair, stride):
        # an averaged frame records every step, and refuses a bad value too
        with pytest.raises(ValueError, match=f"output_stride must be an integer >= 1, "
                                             f"got {stride!r}"):
            Scenario(scheme=pair[0], frame=pair[1], output_stride=stride)

    def test_frame_scheme_compatibility(self):
        with pytest.raises(ValueError, match="undefined"):
            Scenario(scheme=Scheme.GRADIENT, frame=Frame.AVERAGED_NEWTON)
        with pytest.raises(ValueError, match="undefined"):
            Scenario(scheme=Scheme.NEWTON, frame=Frame.AVERAGED_GRADIENT)

    def test_initial_state_layouts(self):
        scn = Scenario(scheme=Scheme.NEWTON, frame=Frame.ROTATING_Z)
        np.testing.assert_allclose(scn.initial_state(), [3.0, 3.0, 1.0, 0.0])
        scn = Scenario(scheme=Scheme.NEWTON, frame=Frame.ROTATING_Z_LOG_D, d0=2.0)
        np.testing.assert_allclose(
            scn.initial_state(), [3.0, 3.0, math.log(2.0), 0.0]
        )
        scn = Scenario(scheme=Scheme.NEWTON, frame=Frame.CASCADE_SHIFTED)
        # offset r0 = nu0 - field(x0) and dhat0 = log(d0 * H)
        np.testing.assert_allclose(
            scn.initial_state(), [-4.91, 3.0, 3.0, math.log(0.01)]
        )

    def test_averaged_frames_use_slow_step(self):
        scn = Scenario(scheme=Scheme.NEWTON, frame=Frame.AVERAGED_NEWTON)
        cfg = scn.integrator_config()
        assert cfg.dt == pytest.approx(2.0 * math.pi / 60.0)
        full = Scenario(scheme=Scheme.NEWTON, frame=Frame.ORIGINAL)
        assert full.integrator_config().dt == pytest.approx(
            2.0 * math.pi / (2.0 * 15.0 * 60.0)
        )


class TestFrameSpecs:
    """Every (scheme, frame) entry of the table, read through Scenario."""

    @pytest.mark.parametrize(
        "key", sorted(FRAME_SPECS, key=lambda k: (k[0].value, k[1].value)),
        ids=lambda k: f"{k[0].value}-{k[1].value}",
    )
    @settings(max_examples=20, deadline=None)
    @given(
        x0=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
        nu0=st.floats(-10.0, 10.0),
        d0=st.floats(0.01, 500.0),
    )
    def test_start_follows_the_spec(self, key, x0, nu0, d0):
        scheme, frame = key
        dim = 3 if scheme is Scheme.GRADIENT else 4
        scn = Scenario(scheme=scheme, frame=frame, x0=x0, nu0=nu0, d0=d0)
        state = scn.initial_state()
        assert state.shape == (dim,)
        out = scn.build_rhs()(0.0, tuple(state.tolist()))
        assert len(out) == dim and all(map(math.isfinite, out))

        d = scn.d_series(Trajectory(np.zeros(1), state[None, :]))
        if scheme is Scheme.NEWTON:
            assert d[0] == pytest.approx(d0, rel=1e-12)
            # a trajectory without every component is refused, not misread
            reduced = Trajectory(np.zeros(1), state[None, [0, 1, 3]], components=(0, 1, 3))
            with pytest.raises(ValueError, match=r"not \[2\]"):
                scn.d_series(reduced)
        else:
            assert d is None

        comps, center = scn.position_ball()
        assert np.linalg.norm(state[list(comps)] - center) == pytest.approx(
            math.dist(x0, DEFAULT_FIELD.source), rel=1e-12, abs=1e-12
        )

    def test_the_frames_that_keep_the_raw_riccati_state_guard_it(self):
        """A newton frame with no map holds the raw ``d`` at component 2,
        which its run keeps above zero; no other frame has a guard."""
        guarded = {pair: Scenario(scheme=pair[0], frame=pair[1]).guard()
                   for pair in FRAME_SPECS}
        assert {pair: positive for pair, positive in guarded.items() if positive} == {
            (Scheme.NEWTON, Frame.ORIGINAL): (2,),
            (Scheme.NEWTON, Frame.ROTATING_Z): (2,),
            (Scheme.NEWTON, Frame.AVERAGED_NEWTON): (2,),
        }
        assert set(guarded.values()) == {(), (2,)}

    def test_pairs_missing_from_the_table_are_undefined(self):
        missing = {(s, f) for s in Scheme for f in Frame if (s, f) not in FRAME_SPECS}
        assert missing == {
            (Scheme.GRADIENT, Frame.ROTATING_Z_LOG_D),
            (Scheme.GRADIENT, Frame.CASCADE_SHIFTED),
            (Scheme.GRADIENT, Frame.AVERAGED_NEWTON),
            (Scheme.GRADIENT, Frame.AVERAGED_NEWTON_EXP),
            (Scheme.NEWTON, Frame.AVERAGED_GRADIENT),
        }
        for scheme, frame in missing:
            with pytest.raises(ValueError, match="undefined"):
                Scenario(scheme=scheme, frame=frame)


class TestEstimateRate:
    def _traj(self, t, values):
        """A position ``(values, 0)`` of magnitude ``values``, and a third
        component, which the fit does not read, growing fast."""
        return Trajectory(times=t, states=np.column_stack(
            [values, np.zeros_like(values), np.exp(3.0 * t)]))

    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 1001)
        est = estimate_rate(self._traj(t, np.exp(-0.5 * t)), (0.0, 10.0))
        assert est.rate == pytest.approx(0.5, abs=1e-6)
        assert est.reliable

    def test_the_fit_reads_the_position_alone(self):
        t = np.linspace(0.0, 10.0, 1001)
        traj = self._traj(t, np.exp(-0.5 * t))
        with pytest.raises(TypeError):
            estimate_rate(traj, (0.0, 10.0), (0, 1, 2))
        position = Trajectory(times=t, states=traj.states[:, :2])
        assert estimate_rate(traj, (0.0, 10.0)) == estimate_rate(position, (0.0, 10.0))

    def test_the_fit_reads_the_position_by_component(self):
        """A trajectory that holds the position in other columns fits as the
        whole one does, bit for bit; one without it is refused, naming the
        component it lacks, and never read from another column."""
        t = np.linspace(0.0, 10.0, 1001)
        traj = self._traj(t, np.exp(-0.5 * t) * (2.0 + np.cos(6.0 * t)))
        swapped = Trajectory(t, traj.states[:, [2, 1, 0]], components=(2, 1, 0))
        assert estimate_rate(swapped, (0.0, 10.0)) == estimate_rate(traj, (0.0, 10.0))
        shifted = Trajectory(t, traj.states[:, 1:], components=(1, 2))
        with pytest.raises(ValueError, match=r"not \[0\]"):
            estimate_rate(shifted, (0.0, 10.0))

    def test_damped_rotation_envelope(self):
        # spiral with spectral abscissa 1/2: alpha 2, omega0 1, unit curvature
        traj = integrate(
            lambda t, y: (y[1], -y[0] - y[1]), [3.0, 3.0], 0.0, 20.0,
            IntegratorConfig(dt=0.01),
        )
        est = estimate_rate(traj, (0.0, 20.0))
        assert est.rate == pytest.approx(0.5, rel=0.05)
        assert est.n_points >= 5

    def test_constant_signal_rate_zero(self):
        t = np.linspace(0.0, 10.0, 101)
        est = estimate_rate(self._traj(t, np.full(101, 2.0)), (0.0, 10.0))
        assert est.rate == pytest.approx(0.0, abs=1e-12)
        assert est.reliable

    def test_noisy_constant_flagged_unreliable(self, rng):
        t = np.linspace(0.0, 10.0, 101)
        values = 2.0 * (1.0 + 0.01 * rng.standard_normal(101))
        values = np.abs(values)
        est = estimate_rate(self._traj(t, values), (0.0, 10.0))
        assert abs(est.rate) < 0.01
        assert not est.reliable

    def test_too_few_envelope_points_rejected(self):
        t = np.linspace(0.0, 10.0, 1001)
        values = np.exp(-0.1 * t) * np.abs(np.cos(t))
        values[values <= 0.0] = 1e-6
        with pytest.raises(ValueError, match="envelope"):
            estimate_rate(self._traj(t, values), (0.0, 10.0))

    def test_window_outside_span_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="span"):
            estimate_rate(self._traj(t, np.exp(-t)), (0.0, 2.0))

    @pytest.mark.parametrize("scheme, frame, hessian, t_end, window, expected, lstsq", [
        (Scheme.GRADIENT, Frame.AVERAGED_GRADIENT, 0.05, 400.0, (0.0, 400.0),
         ("0x1.999a424c2e65cp-6", "0x1.fffec5a1b723fp-1", 3821),
         ("0x1.999a424c2e660p-6", "0x1.fffec5a1b723fp-1", 3821)),
        (Scheme.NEWTON, Frame.AVERAGED_NEWTON, 0.01, 60.0, (20.0, 60.0),
         ("0x1.fc87c1451b1f8p-2", "0x1.ff6e6bad6b099p-1", 383),
         ("0x1.fc87c1451b1fap-2", "0x1.ff6e6bad6b099p-1", 383)),
        (Scheme.GRADIENT, Frame.ORIGINAL, 0.5, 30.0, (0.0, 30.0),
         ("0x1.0f5c3b5615ce7p-5", "0x1.5531ae4a09527p-1", 76),
         ("0x1.0f5c3b5615ce2p-5", "0x1.5531ae4a09526p-1", 76)),
    ], ids=["averaged-gradient", "averaged-newton", "gradient-original"])
    def test_recorded_runs_fit_as_the_norm_of_whole_rows_did(self, scheme, frame, hessian,
                                                               t_end, window, expected,
                                                               lstsq):
        """The magnitude built from the two position columns alone gives the
        points that ``np.linalg.norm`` of the masked state rows gave: every
        sample of two averaged runs, and a full run's envelope. The
        closed-form line is pinned; it lies within 8 ulps of the fit that
        ``np.linalg.lstsq`` made of the same points (``lstsq``), on the same
        number of points."""
        scenario = Scenario(scheme=scheme, frame=frame, t_end=t_end,
                            field=replace(DEFAULT_FIELD, hessian=hessian))
        est = estimate_rate(scenario.run(), window)
        assert (est.rate.hex(), est.r_squared.hex(), est.n_points) == expected
        for new, old in zip((est.rate, est.r_squared), map(float.fromhex, lstsq)):
            assert abs(new - old) <= 8 * math.ulp(old)
        assert est.n_points == lstsq[2]

    def test_zero_magnitude_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="positive"):
            estimate_rate(self._traj(t, np.zeros(11)), (0.0, 1.0))


def _fancy_peaks(magnitude):
    """The interior peaks of ``magnitude`` as fancy indices picked them."""
    interior = np.arange(1, len(magnitude) - 1)
    return interior[(magnitude[interior] > magnitude[interior - 1])
                    & (magnitude[interior] >= magnitude[interior + 1])]


def _masked_points(traj, window, components):
    """The window's times and magnitude, and its interior peaks, as the
    boolean mask and the fancy indices of the first rate fits chose them."""
    times = traj.times
    mask = (times >= window[0]) & (times <= window[1])
    magnitude = np.zeros(int(mask.sum()))
    for c in components:
        column = traj.states[:, c][mask]
        magnitude += column * column
    np.sqrt(magnitude, out=magnitude)
    return times[mask], magnitude, _fancy_peaks(magnitude)


def _lstsq_rate(traj, window, components):
    """The rate fit as ``np.linalg.lstsq`` on the two-column design made it,
    with its residual formula, from the masked points: ``(rate, r_squared,
    n_points, scale)``, or the ValueError it raised. ``scale``, the root of
    the ratio of the sums of squared deviations of the log magnitude and of
    the times, bounds the size of the slope, and is the slope's where the
    points lie on a line (r² = 1)."""
    times = traj.times
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        return ValueError(f"empty window {window}")
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        return ValueError(f"window {window} outside trajectory span "
                          f"[{times[0]}, {times[-1]}]")
    ts, magnitude, peaks = _masked_points(traj, (t0, t1), components)
    if np.any(magnitude <= 0.0):
        return ValueError("signal magnitude must stay positive over the window")
    if len(peaks) >= 2:
        ts, magnitude = ts[peaks], magnitude[peaks]
        if len(peaks) < 5:
            return ValueError(f"only {len(peaks)} envelope points in window {window}; "
                              "need at least 5")
    elif len(ts) < 5:
        return ValueError(f"only {len(ts)} samples in window {window}")
    y = np.log(magnitude)
    design = np.column_stack([np.ones_like(ts), ts])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    ss_res = float(np.sum((y - design @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot < 1e-20:
        r_squared = 1.0 if ss_res < 1e-16 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    scale = math.sqrt(ss_tot / float(np.sum((ts - ts.mean()) ** 2)))
    return -float(coef[1]), r_squared, len(ts), scale


@st.composite
def _decays(draw):
    """A two-component trajectory of 5 to 10^4 strictly increasing samples,
    whose log magnitude is a line with an oscillation on it, resolved by 20
    or more samples a period, or with noise too small to turn the line over
    5 samples, and a window whose ends lie on a sample, within 1e-12 of
    one, or halfway between two."""
    n = draw(st.integers(5, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacing = draw(st.floats(0.05, 1.0))
    start = draw(st.floats(-10.0, 10.0))
    steps = spacing * rng.uniform(0.5, 1.5, n - 1)
    times = start + np.concatenate([[0.0], np.cumsum(steps)])
    # a log change of 1 to 50 over the run, falling or rising
    rate = draw(st.floats(1.0, 50.0)) / (times[-1] - start) * draw(st.sampled_from([1, -1]))
    log_m = draw(st.floats(-5.0, 5.0)) - rate * (times - start)
    if draw(st.booleans()):
        period = spacing * draw(st.integers(20, 200))
        log_m += np.log(1.5 + np.cos(2.0 * np.pi * (times - start) / period))
    else:
        noise = draw(st.floats(0.0, 1.0)) * 0.25 * abs(rate) * spacing
        log_m += noise * rng.uniform(-1.0, 1.0, n)
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    magnitude = np.exp(log_m)
    traj = Trajectory(times, np.column_stack([magnitude * np.cos(angle),
                                              magnitude * np.sin(angle)]))

    def end(i):
        shift = draw(st.sampled_from([0.0, -1e-12, 1e-12, -0.5, 0.5]))
        if abs(shift) < 1.0e-6:
            return times[i] + shift
        j = min(max(i + (1 if shift > 0.0 else -1), 0), n - 1)
        return 0.5 * (times[i] + times[j])

    first = draw(st.integers(0, n - 1))
    last = draw(st.integers(first, n - 1))
    return traj, (end(first), end(last))


class TestRateFitPoints:
    """The slice window, the slice peaks and the closed-form line of
    :func:`estimate_rate` against the masked selection and ``lstsq`` fit
    they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(case=_decays(), ties=st.lists(st.integers(0, 3), max_size=40))
    def test_the_slices_select_the_masked_points_in_order(self, case, ties):
        traj, window = case
        rows = experiments._window(traj.times, *window)
        ts, magnitude, peaks = _masked_points(traj, window, (0, 1))
        assert np.array_equal(traj.times[rows], ts)
        assert np.array_equal(np.arange(len(traj.times))[rows],
                              np.flatnonzero((traj.times >= window[0])
                                             & (traj.times <= window[1])))
        assert np.array_equal(experiments._peaks(magnitude), peaks)
        # plateaus: a peak is above the sample before it, not below the next
        plateau = np.array(ties, dtype=float)
        assert np.array_equal(experiments._peaks(plateau), _fancy_peaks(plateau))

    @settings(max_examples=150, deadline=None)
    @given(case=_decays())
    def test_the_closed_form_line_is_the_lstsq_line(self, case):
        """Both lines are the least-squares line of the same points, and
        differ by rounding alone: the rate by at most 1e-12 of the slope's
        scale (its size where the points lie near a line), r² by at most
        1e-12 of its unit range, and any ValueError is the same."""
        traj, window = case
        expected = _lstsq_rate(traj, window, (0, 1))
        if isinstance(expected, ValueError):
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected))}$"):
                estimate_rate(traj, window)
            return
        est = estimate_rate(traj, window)
        rate, r_squared, n_points, scale = expected
        assert est.n_points == n_points
        assert abs(est.rate - rate) <= 1e-12 * scale, (est, expected)
        assert abs(est.r_squared - r_squared) <= 1e-12, (est, expected)


class TestRunSimulate:
    def test_reference_newton_run(self, tmp_path):
        scn = Scenario(scheme=Scheme.NEWTON)
        result = run_simulate(scn, out_dir=tmp_path)
        # the inverse-curvature estimate settles on 100 within 10%
        assert result.checks["d_window_mean"]
        assert result.d_window_mean == pytest.approx(100.0, rel=0.1)
        assert result.csv_path.exists()
        # the persistent dither keeps |x - x*| swinging up to
        # alpha * omega**(p-1) ~ 0.70, so no trajectory of this loop can
        # settle inside the default 0.5 ball
        assert result.entry_time is None
        assert not result.checks["ball_entry"]
        assert result.final_distance < 1.0

    def test_horizon_shorter_than_one_step_ends_at_t_end(self):
        # no full step fits in 1e-16; the one shortened step still lands on it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_simulate(Scenario(scheme=Scheme.NEWTON, t_end=1e-16))
        np.testing.assert_array_equal(result.trajectory.times, [0.0, 1e-16])
        assert result.d_window_mean == pytest.approx(1.0)

    def test_reference_newton_enters_wider_ball(self):
        scn = Scenario(scheme=Scheme.NEWTON, ball_radius=0.75)
        result = run_simulate(scn)
        assert result.checks["ball_entry"]
        assert result.entry_time == pytest.approx(22.5, abs=2.0)
        assert result.passed

    def test_zero_distance_start_stays_in_dither_envelope(self):
        scn = Scenario(scheme=Scheme.NEWTON, x0=(1.0, -1.0), t_end=40.0)
        result = run_simulate(scn)
        traj = result.trajectory
        dist = np.linalg.norm(traj.states[:, :2] - DEFAULT_FIELD.source, axis=1)
        envelope = DEFAULT_PARAMS.alpha_tilde / DEFAULT_PARAMS.omega
        # transient excursion while the inverse-curvature filter ramps up,
        # then the bare dither envelope
        assert dist.max() <= 4.5 * envelope
        assert dist[traj.times >= 30.0].max() <= 1.1 * envelope

    def test_averaged_frames_tell_one_story(self):
        """The plain, exponential, and shifted-cascade averaged frames are
        bijective images of each other: same entry time, same settled
        Riccati value."""
        results = {}
        for frame in (Frame.AVERAGED_NEWTON, Frame.AVERAGED_NEWTON_EXP,
                      Frame.CASCADE_SHIFTED):
            results[frame] = run_simulate(
                Scenario(scheme=Scheme.NEWTON, frame=frame, t_end=50.0)
            )
        entries = [r.entry_time for r in results.values()]
        assert all(e is not None for e in entries)
        assert max(entries) - min(entries) < 1e-6
        finals = [r.final_d for r in results.values()]
        assert max(finals) - min(finals) < 1e-6
        for r in results.values():
            assert r.checks["ball_entry"] and r.checks["d_window_mean"]

    def test_averaged_gradient_pace_set_by_curvature(self):
        # contraction at alpha*H/4 = 0.005 cannot reach the ball within 50
        result = run_simulate(
            Scenario(scheme=Scheme.GRADIENT, frame=Frame.AVERAGED_GRADIENT,
                     t_end=50.0)
        )
        assert result.entry_time is None
        assert result.final_distance > 2.0

    def test_report_embeds_resolved_parameters(self):
        scn = Scenario(scheme=Scheme.GRADIENT, t_end=1.0, samples_per_period=40)
        result = run_simulate(scn)
        text = result.report()
        assert "param_c = " in text
        assert "param_alpha_tilde = " in text
        assert f"param_omega = {DEFAULT_PARAMS.omega:.12g}" in text


class TestRunCompare:
    def test_reference_ordering(self):
        report = run_compare(CompareConfig(ball_radius=0.75))
        assert report.newton.entry_time is not None
        assert report.gradient.entry_time is None
        assert report.checks["ordering"] and report.passed
        assert report.entry_ratio is None

    def test_matched_curvature_entry_times_comparable(self):
        # with unit curvature the averaged damping entries of the two
        # schemes coincide, so entry times should be within a factor two
        config = CompareConfig(
            field=replace(DEFAULT_FIELD, hessian=1.0), ball_radius=1.0, t_end=30.0
        )
        report = run_compare(config)
        assert report.entry_ratio is not None
        assert 0.5 <= report.entry_ratio <= 2.0

    @pytest.mark.parametrize("x0, radius", [((4.0, -4.0), 10.0), ((1.0, -1.0), 5.0)])
    def test_gradient_start_inside_the_ball_has_no_ratio(self, x0, radius):
        # the gradient run enters at t = 0, so there is no ratio to form
        report = run_compare(CompareConfig(x0=x0, ball_radius=radius, t_end=5.0))
        assert report.gradient.entry_time == 0.0
        assert report.entry_ratio is None
        assert "entry_ratio = none" in report.report()

    def test_deterministic_repeat(self):
        config = CompareConfig(ball_radius=0.75, t_end=20.0)
        a = run_compare(config)
        b = run_compare(config)
        assert a.newton.entry_time == b.newton.entry_time
        assert a.gradient.entry_time == b.gradient.entry_time
        assert np.array_equal(a.newton.trajectory.states, b.newton.trajectory.states)
        assert a.report() == b.report()

    def test_report_carries_both_runs(self):
        report = run_compare(CompareConfig(ball_radius=0.75, t_end=5.0))
        text = report.report()
        assert text.startswith("[compare]\n")
        assert text.count("[simulate]") == 2
        own, newton, gradient = text.split("[simulate]")
        assert "[simulate]" + newton == report.newton.report()
        assert "[simulate]" + gradient == report.gradient.report()
        assert "scheme = newton" in newton and "scheme = gradient" in gradient


class TestRunOmegaSweep:
    def test_short_horizon_sweep(self):
        report = run_omega_sweep(OmegaSweepConfig(t_end=12.0))
        assert all(row.error is None for row in report.rows)
        for scheme in (Scheme.GRADIENT, Scheme.NEWTON):
            assert report.checks[f"{scheme.value}_deviation"]
            assert report.checks[f"{scheme.value}_ball"]
            devs = report.column(scheme, "deviation")
            assert len(devs) == 3 and all(np.isfinite(devs))
        assert report.passed
        text = report.report()
        assert "gradient_omega_20" in text and "newton_omega_80" in text

    def test_config_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            OmegaSweepConfig(omegas=(20.0, 40.0))
        with pytest.raises(ValueError, match="increasing"):
            OmegaSweepConfig(omegas=(40.0, 20.0, 80.0))

    def test_per_frequency_failures_are_isolated(self, monkeypatch):
        import sourceseek.experiments as experiments

        real_integrate = experiments.integrate
        config = OmegaSweepConfig(schemes=(Scheme.NEWTON,), t_end=6.0)
        (_, at_80), = [run for run in config.runs if run[0].params.omega == 80.0]

        def flaky(rhs, x0, t0, t1, step, **kwargs):
            # the full run at omega 80
            if step is at_80:
                raise RuntimeError("injected failure")
            return real_integrate(rhs, x0, t0, t1, step, **kwargs)

        monkeypatch.setattr(experiments, "integrate", flaky)
        report = experiments.run_omega_sweep(config)
        by_omega = {row.omega: row for row in report.rows}
        assert by_omega[80.0].error is not None
        assert "injected failure" in by_omega[80.0].error
        assert "RuntimeError" in by_omega[80.0].error
        assert by_omega[20.0].error is None and by_omega[20.0].deviation is not None
        assert by_omega[40.0].error is None
        assert not report.passed

    def test_each_scheme_s_averaged_loop_runs_once(self, monkeypatch):
        """Every row of a scheme reads one averaged run: integrate sees one
        run at the averaged loop's fixed substep, ``record_dt / 8``, per
        scheme, and one full run per row."""
        import sourceseek.experiments as experiments

        real_integrate, steps = experiments.integrate, []

        def counted(rhs, x0, t0, t1, step, **kwargs):
            steps.append(step.dt)
            return real_integrate(rhs, x0, t0, t1, step, **kwargs)

        monkeypatch.setattr(experiments, "integrate", counted)
        config = OmegaSweepConfig(t_end=3.0)
        report = experiments.run_omega_sweep(config)
        assert all(row.error is None for row in report.rows)
        assert len(steps) == 2 + 6
        assert steps.count(config.record_dt / 8.0) == 2

    def test_a_failed_averaged_run_fails_every_row_of_its_scheme(self, monkeypatch):
        import sourceseek.experiments as experiments

        real_integrate = experiments.integrate
        config = OmegaSweepConfig(schemes=(Scheme.GRADIENT,), t_end=3.0)
        (_, averaged), = config.averaged

        def flaky(rhs, x0, t0, t1, step, **kwargs):
            if step is averaged:
                raise RuntimeError("injected failure")
            return real_integrate(rhs, x0, t0, t1, step, **kwargs)

        monkeypatch.setattr(experiments, "integrate", flaky)
        report = experiments.run_omega_sweep(config)
        assert [row.error for row in report.rows] == ["RuntimeError: injected failure"] * 3

    def test_unexpected_errors_propagate(self, monkeypatch):
        import sourceseek.experiments as experiments

        def broken(rhs, x0, t0, t1, config, **kwargs):
            raise TypeError("injected bug")

        monkeypatch.setattr(experiments, "integrate", broken)
        with pytest.raises(TypeError, match="injected bug"):
            experiments.run_omega_sweep(
                OmegaSweepConfig(schemes=(Scheme.NEWTON,), t_end=6.0)
            )


class TestRunHessianInvariance:
    def test_rates_across_two_decades(self):
        report = run_hessian_invariance(HessianSweepConfig())
        assert report.checks["newton_invariant"]
        assert report.checks["gradient_proportional"]
        assert report.passed
        rates_n = [row.newton.rate for row in report.rows]
        # curvature-free contraction at alpha/4 = 0.5
        for rate in rates_n:
            assert rate == pytest.approx(0.5, rel=0.05)
        for row in report.rows:
            assert row.gradient.rate == pytest.approx(
                0.25 * DEFAULT_PARAMS.alpha * row.hessian, rel=0.10
            )
            assert row.newton.reliable and row.gradient.reliable

    def test_feedback_scale_doubles_rate(self):
        """With the curvature normalized away, doubling the feedback scale
        doubles the contraction rate (underdamped regime)."""
        rates = {}
        for alpha in (1.0, 2.0):
            params = replace(DEFAULT_PARAMS, alpha=alpha)
            scn = Scenario(
                scheme=Scheme.NEWTON, frame=Frame.AVERAGED_NEWTON,
                field=replace(DEFAULT_FIELD, hessian=0.1), params=params,
                t_end=70.0, samples_per_period=120,
            )
            traj = integrate(
                scn.build_rhs(), scn.initial_state(), 0.0, 70.0,
                scn.integrator_config(), guard=scn.guard(),
            )
            rates[alpha] = estimate_rate(traj, (37.0, 70.0)).rate
        assert rates[2.0] / rates[1.0] == pytest.approx(2.0, rel=0.1)

    def test_requires_two_decades(self):
        with pytest.raises(ValueError, match="decades"):
            HessianSweepConfig(hessians=(0.1, 1.0))

    def test_each_run_records_what_its_fit_reads(self, monkeypatch):
        """Every run records its position alone, the Newton run under its
        Riccati guard, and each fit is the fit of the run that records every
        component, bit for bit."""
        config = HessianSweepConfig()
        runs = []

        def recorded(rhs, *args, **kwargs):
            traj = integrate(rhs, *args, **kwargs)
            runs.append((kwargs["guard"], traj.components, traj.states.shape[1]))
            return traj

        monkeypatch.setattr(experiments, "integrate", recorded)
        report = run_hessian_invariance(config)
        assert runs == [((2,), (0, 1), 2), ((), (0, 1), 2)] * len(config.hessians)
        for row, (newton, gradient, window) in zip(report.rows, config.runs):
            assert row.newton == estimate_rate(newton.run(), window)
            assert row.gradient == estimate_rate(gradient.run(), (0.0, gradient.t_end))


class TestRunAverage:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_engine_matches_the_closed_form(self, scheme):
        study = run_average(scheme, DEFAULT_PARAMS, DEFAULT_FIELD)
        assert study.assumptions.ok
        assert study.worst_defect <= 1e-12
        assert study.passed
        assert study.engine.system.dimension == (4 if scheme is Scheme.NEWTON else 3)
        text = study.report()
        assert text.startswith(str(study.assumptions) + "\n" + study.engine.report())
        assert text.endswith("[closed_form_agreement]\nworst_relative_defect = "
                             f"{study.worst_defect:.3e}\ncheck_assumptions = pass\n"
                             "check_agreement = pass\n")

    def test_seed_draws_the_sample_states(self):
        first, again, other = (run_average(Scheme.NEWTON, DEFAULT_PARAMS,
                                           DEFAULT_FIELD, seed=s) for s in (1, 1, 2))
        assert first.worst_defect == again.worst_defect
        assert first.worst_defect != other.worst_defect


class TestRunCertify:
    def test_reference_certificate_passes(self):
        study = run_certify(DEFAULT_PARAMS, DEFAULT_FIELD)
        assert study.passed and study.checks == {"vdot": True, "iss": True}
        assert study.margins["vdot_margin_max"] < 0.0 < study.margins["iss_margin_min"]
        assert list(study.linearizations) == ["averaged_gradient", "averaged_newton"]
        np.testing.assert_array_equal(
            study.linearizations["averaged_newton"].equilibrium,
            [0.0, 0.0, 1.0 / DEFAULT_FIELD.hessian, DEFAULT_FIELD.f_star])
        assert study.report().endswith("check_vdot = pass\ncheck_iss = pass\n")

    def test_deterministic_per_seed(self):
        first, again, other = (run_certify(DEFAULT_PARAMS, DEFAULT_FIELD, seed=s)
                               for s in (3, 3, 4))
        assert first.report() == again.report()
        assert first.margins == again.margins
        assert first.margins["iss_margin_min"] != other.margins["iss_margin_min"]
        # the grid margin does not depend on the seed
        assert first.margins["vdot_margin_max"] == other.margins["vdot_margin_max"]

    @pytest.mark.parametrize("hessian", [0.01, 0.1, 1.0])
    def test_position_rates(self, hessian):
        # the gradient position block decays at alpha*H/4, the inverting one
        # at alpha/4 whatever the curvature
        study = run_certify(DEFAULT_PARAMS, replace(DEFAULT_FIELD, hessian=hessian))
        rates = {name: max(v.real for v in lin.eigenvalues if abs(v.imag) > 1e-9)
                 for name, lin in study.linearizations.items()}
        alpha = DEFAULT_PARAMS.alpha
        assert rates["averaged_gradient"] == pytest.approx(-alpha * hessian / 4.0)
        assert rates["averaged_newton"] == pytest.approx(-alpha / 4.0)


class TestConfigFiles:
    def test_defaults_without_file(self):
        app = load_config(None)
        assert app.field == DEFAULT_FIELD
        assert app.params == DEFAULT_PARAMS
        assert app.scenario == Scenario(scheme=Scheme.NEWTON)
        assert app.compare == CompareConfig()
        assert app.sweep_omega == OmegaSweepConfig()
        assert app.sweep_hessian == HessianSweepConfig()
        assert app.seed == 0

    def test_parse_full_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
[field]
f_star = 3.0
hessian = 0.5
source = 0.0, 2.0

[params]
omega = 20.0
alpha = 1.5

[scenario]
scheme = gradient
frame = rotating_z
x0 = 1.0, 1.0
t_end = 12.5
ball_radius = 0.8

[sweep_omega]
omegas = 25, 50, 100
schemes = newton

[run]
seed = 7
"""
        )
        app = load_config(path)
        assert app.field.f_star == 3.0
        assert app.field.hessian == 0.5
        np.testing.assert_array_equal(app.field.source, [0.0, 2.0])
        assert app.params.omega == 20.0
        assert app.params.alpha == 1.5
        assert app.params.omega0 == DEFAULT_PARAMS.omega0
        assert app.seed == 7
        scn = app.scenario
        assert scn.scheme is Scheme.GRADIENT
        assert scn.frame is Frame.ROTATING_Z
        assert scn.t_end == 12.5
        sweep = app.sweep_omega
        assert sweep.omegas == (25.0, 50.0, 100.0)
        assert sweep.schemes == (Scheme.NEWTON,)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nwhatever = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nt_end = soon\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_invalid_scenario_surfaces_as_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nscheme = newton\nd0 = -1.0\n")
        with pytest.raises(ConfigError, match="d > 0"):
            load_config(path)

    def test_nonfinite_start_surfaces_as_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for line in ("nu0 = nan", "d0 = inf"):
            path.write_text(f"[scenario]\nscheme = newton\n{line}\n")
            with pytest.raises(ConfigError, match="finite"):
                load_config(path)

    @pytest.mark.parametrize("section, line", [
        ("sweep_hessian", "hessians = 0, 1"),
        ("sweep_hessian", "hessians = -1, 1"),
        ("sweep_hessian", "hessians = nan, 0.01, 1"),
        ("sweep_hessian", "hessians = 0.01, inf"),
        ("sweep_omega", "omegas = -20, 40, 80"),
        ("sweep_omega", "omegas = 0, 40, 80"),
        ("sweep_omega", "omegas = 20, 40, inf"),
        ("sweep_omega", "omegas = nan, 40, 80"),
    ])
    def test_nonpositive_sweep_values_surface_as_config_error(self, tmp_path,
                                                              section, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match="must be finite and positive"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")


_SECTION_KEYS = {
    "field": {"f_star", "hessian", "source"},
    "params": {"omega", "omega0", "alpha", "p_exp", "h_gain", "omega_d"},
    "scenario": {"scheme", "frame", "x0", "nu0", "d0", "t_end",
                 "samples_per_period", "output_stride", "ball_radius",
                 "d_tolerance", "tail_fraction"},
    "compare": {"x0", "nu0", "d0", "t_end", "ball_radius", "samples_per_period",
                "output_stride"},
    "sweep_omega": {"omegas", "schemes", "x0", "nu0", "d0", "t_end", "record_dt",
                    "tail_fraction", "slack", "samples_per_period"},
    "sweep_hessian": {"hessians", "x0", "nu0", "d0", "newton_tolerance",
                      "gradient_tolerance"},
}

_PARAMS = SeekerParams(omega=20.0, omega0=1.5, alpha=1.5, p_exp=0.7, h_gain=2.0,
                       omega_d=0.4)

# section -> (every key set to a non-default value, the object built directly)
_ROUND_TRIP = {
    "params": (
        "omega = 20\nomega0 = 1.5\nalpha = 1.5\np_exp = 0.7\nh_gain = 2\n"
        "omega_d = 0.4\n",
        _PARAMS,
    ),
    "scenario": (
        "scheme = gradient\nframe = rotating_z\nx0 = 1, 1\nnu0 = 0.5\nd0 = 2\n"
        "t_end = 12.5\nsamples_per_period = 80\noutput_stride = 5\n"
        "ball_radius = 0.8\nd_tolerance = 0.2\ntail_fraction = 0.3\n",
        Scenario(scheme=Scheme.GRADIENT, frame=Frame.ROTATING_Z, x0=(1.0, 1.0),
                 nu0=0.5, d0=2.0, t_end=12.5, samples_per_period=80,
                 output_stride=5, ball_radius=0.8, d_tolerance=0.2,
                 tail_fraction=0.3),
    ),
    "compare": (
        "x0 = 1, 2\nnu0 = 0.5\nd0 = 2\nt_end = 20\nball_radius = 0.8\n"
        "samples_per_period = 80\noutput_stride = 5\n",
        CompareConfig(x0=(1.0, 2.0), nu0=0.5, d0=2.0, t_end=20.0, ball_radius=0.8,
                      samples_per_period=80, output_stride=5),
    ),
    "sweep_omega": (
        "omegas = 25, 50, 100\nschemes = newton\nx0 = 1, 2\nnu0 = 0.5\nd0 = 2\n"
        "t_end = 8\nrecord_dt = 0.1\ntail_fraction = 0.4\nslack = 0.3\n"
        "samples_per_period = 80\n",
        OmegaSweepConfig(omegas=(25.0, 50.0, 100.0), schemes=(Scheme.NEWTON,),
                         x0=(1.0, 2.0), nu0=0.5, d0=2.0, t_end=8.0, record_dt=0.1,
                         tail_fraction=0.4, slack=0.3, samples_per_period=80),
    ),
    "sweep_hessian": (
        "hessians = 0.02, 0.2, 2\nx0 = 1, 2\nnu0 = 0.5\nd0 = 2\n"
        "newton_tolerance = 0.2\ngradient_tolerance = 0.25\n",
        HessianSweepConfig(hessians=(0.02, 0.2, 2.0), x0=(1.0, 2.0), nu0=0.5,
                           d0=2.0, newton_tolerance=0.2, gradient_tolerance=0.25),
    ),
}


class TestConfigRoundTrip:
    @pytest.mark.parametrize("section", sorted(_SECTION_KEYS))
    def test_accepted_keys(self, tmp_path, section):
        path = tmp_path / "probe.cfg"
        candidates = set().union(*_SECTION_KEYS.values()) | {
            "field", "params", "seed", "scenarios", "runs", "out_path"}
        accepted = set()
        for key in sorted(candidates):
            path.write_text(f"[{section}]\n{key} = 1\n")
            try:
                load_config(path)
            except ConfigError as exc:
                if "unknown key" in str(exc):
                    continue
            accepted.add(key)
        assert accepted == _SECTION_KEYS[section]

    def test_field_section_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[field]\nf_star = 3\nhessian = 0.5\nsource = 0, 2\n")
        field = load_config(path).field
        assert (field.f_star, field.hessian) == (3.0, 0.5)
        np.testing.assert_array_equal(field.source, [0.0, 2.0])

    @pytest.mark.parametrize("section", sorted(_ROUND_TRIP))
    def test_section_round_trip(self, tmp_path, section):
        text, expected = _ROUND_TRIP[section]
        assert {line.split(" = ")[0] for line in text.splitlines()} == \
            _SECTION_KEYS[section]
        path = tmp_path / "run.cfg"
        path.write_text(f"[{section}]\n{text}")
        app = load_config(path)
        assert getattr(app, section) == expected

    def test_params_reach_every_study(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"[params]\n{_ROUND_TRIP['params'][0]}")
        app = load_config(path)
        assert app.scenario == Scenario(scheme=Scheme.NEWTON, params=_PARAMS)
        assert app.compare == CompareConfig(params=_PARAMS)
        assert app.sweep_omega == OmegaSweepConfig(params=_PARAMS)
        assert app.sweep_hessian == HessianSweepConfig(params=_PARAMS)


class TestStudyRuns:
    def test_compare_builds_both_schemes(self):
        config = CompareConfig(x0=(2.0, 0.0), d0=3.0, t_end=7.0, output_stride=4)
        newton, gradient = config.scenarios
        assert (newton.scheme, gradient.scheme) == (Scheme.NEWTON, Scheme.GRADIENT)
        for scn in config.scenarios:
            assert scn.frame is Frame.ORIGINAL
            assert (scn.x0, scn.t_end, scn.output_stride) == ((2.0, 0.0), 7.0, 4)
        assert newton.d0 == 3.0

    def test_omega_sweep_runs_share_the_recording_grid(self):
        config = OmegaSweepConfig(schemes=(Scheme.NEWTON,), record_dt=0.1)
        assert len(config.runs) == 3
        (avg, avg_cfg), = config.averaged
        assert avg.frame is Frame.AVERAGED_NEWTON and avg.params == config.params
        assert avg_cfg.dt * avg_cfg.output_stride == pytest.approx(0.1)
        for (full, full_cfg), omega in zip(config.runs, config.omegas):
            assert full.params.omega == omega
            assert full.frame is Frame.ROTATING_Z
            assert full_cfg.dt * full_cfg.output_stride == pytest.approx(0.1)
            assert full_cfg.dt <= full.integrator_config().dt * (1.0 + 1e-12)

    def test_hessian_sweep_runs(self):
        config = HessianSweepConfig(hessians=(0.01, 1.0))
        for (newton, gradient, window), hess in zip(config.runs, config.hessians):
            assert newton.field.hessian == gradient.field.hessian == hess
            assert newton.frame is Frame.AVERAGED_NEWTON
            assert gradient.frame is Frame.AVERAGED_GRADIENT
            assert window == (10.0 / 0.3 + 2.0, newton.t_end)
            assert gradient.t_end == pytest.approx(48.0 / (2.0 * hess))

    def test_scenario_run_integrates_its_own_policy(self):
        scn = Scenario(scheme=Scheme.NEWTON, t_end=2.0)
        traj = integrate(scn.build_rhs(), scn.initial_state(), 0.0, 2.0,
                         scn.integrator_config(), guard=scn.guard())
        run = scn.run()
        np.testing.assert_array_equal(run.times, traj.times)
        np.testing.assert_array_equal(run.states, traj.states)

    @pytest.mark.parametrize("make, message", [
        (lambda: OmegaSweepConfig(tail_fraction=2.0), "tail_fraction"),
        (lambda: OmegaSweepConfig(record_dt=math.inf), "record_dt"),
        (lambda: OmegaSweepConfig(schemes=()), "schemes"),
        (lambda: OmegaSweepConfig(schemes=(Scheme.NEWTON, Scheme.NEWTON)),
         "none twice"),
        (lambda: Scenario(scheme=Scheme.NEWTON, samples_per_period=39),
         "samples_per_period"),
        (lambda: OmegaSweepConfig(slack=math.inf), r"slack must be finite and >= 0"),
        (lambda: OmegaSweepConfig(slack=math.nan), r"slack must be finite and >= 0"),
        (lambda: OmegaSweepConfig(slack=-0.1), r"slack must be finite and >= 0"),
    ], ids=["tail-fraction", "record-dt-inf", "no-schemes", "repeated-scheme",
            "coarse-sampling", "slack-inf", "slack-nan", "slack-negative"])
    def test_construction_rejects(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


#: the section of each study's report that holds its verdict
_OWN_SECTION = {
    SimulateResult: "simulate",
    CompareReport: "compare",
    OmegaSweepReport: "omega_sweep",
    HessianSweepReport: "hessian_sweep",
    AverageReport: "closed_form_agreement",
    CertifyReport: "grid_margins",
}


def _section_checks(text: str) -> dict:
    """``{section: {check name: passed}}`` from the ``check_*`` lines of a
    report, each under the ``[section]`` header above it (the first section
    of a name when it repeats)."""
    sections, current = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            current = None if line[1:-1] in sections else line[1:-1]
            if current is not None:
                sections[current] = {}
        elif line.startswith("check_") and current is not None:
            key, value = line.split(" = ")
            assert value in ("pass", "FAIL"), line
            sections[current][key[len("check_"):]] = value == "pass"
    return sections


def _fit(rate: float, r_squared: float = 0.999) -> RateEstimate:
    return RateEstimate(rate=rate, window=(0.0, 1.0), r_squared=r_squared,
                        n_points=10)


def _hessian_report(gradient_r_squared: float = 0.999, newton=(0.5, 0.5, 0.5),
                    gradient_scale: float = 0.5) -> HessianSweepReport:
    rows = [HessianSweepRow(h, _fit(n), _fit(gradient_scale * h, gradient_r_squared))
            for h, n in zip((0.01, 0.1, 1.0), newton)]
    return HessianSweepReport(rows, newton_tolerance=0.1, gradient_tolerance=0.15)


def _average_report(assumptions: AssumptionReport) -> AverageReport:
    engine = build_averaged_field(gradient_affine_system(DEFAULT_PARAMS, DEFAULT_FIELD),
                                  default_omega_grid(DEFAULT_PARAMS.omega))
    return AverageReport(assumptions, engine, worst_defect=0.0)


_STUDIES = {
    "simulate-pass": lambda: run_simulate(
        Scenario(scheme=Scheme.GRADIENT, t_end=1.0, ball_radius=10.0)),
    "simulate-fail": lambda: run_simulate(Scenario(scheme=Scheme.NEWTON, t_end=1.0)),
    "compare-fail": lambda: run_compare(CompareConfig(ball_radius=0.75, t_end=5.0)),
    "omega-pass": lambda: run_omega_sweep(
        OmegaSweepConfig(schemes=(Scheme.GRADIENT,), t_end=6.0)),
    "omega-row-error": lambda: OmegaSweepReport(
        [OmegaSweepRow("newton", 20.0, 1.0, 1.0),
         OmegaSweepRow("newton", 40.0, 0.5, 0.5),
         OmegaSweepRow("newton", 80.0, None, None, "RuntimeError: aborted")],
        slack=0.2),
    "hessian-pass": lambda: run_hessian_invariance(HessianSweepConfig()),
    "hessian-unreliable-fit": lambda: _hessian_report(gradient_r_squared=0.5),
    "hessian-growing-fits": lambda: _hessian_report(newton=(-0.5, -0.5, -0.5),
                                                    gradient_scale=-0.5),
    "hessian-mixed-sign-rates": lambda: _hessian_report(newton=(0.5, -0.5, 0.5)),
    "hessian-zero-rate": lambda: _hessian_report(newton=(0.5, 0.0, 0.5)),
    "average-pass": lambda: run_average(Scheme.GRADIENT, DEFAULT_PARAMS, DEFAULT_FIELD),
    "average-assumptions-fail": lambda: _average_report(AssumptionReport(
        [AssumptionClause("input_0_zero_mean", True, False, "mean defect 5e-01")])),
    "certify-pass": lambda: run_certify(DEFAULT_PARAMS, DEFAULT_FIELD),
}

#: the failing check lines of the sweep reports whose rates show no decay
_NO_DECAY_FAILS = {
    "hessian-growing-fits": {"newton_invariant", "gradient_proportional"},
    "hessian-mixed-sign-rates": {"newton_invariant"},
    "hessian-zero-rate": {"newton_invariant"},
}


class TestVerdictRule:
    """Each study passes exactly when every check line of its own report
    section passes, and those lines are its ``checks``."""

    @pytest.mark.parametrize("name", list(_STUDIES))
    def test_verdict_is_the_own_section_checks(self, name):
        result = _STUDIES[name]()
        assert isinstance(result, StudyResult)
        sections = _section_checks(result.report())
        own = sections.pop(_OWN_SECTION[type(result)])
        assert own == result.checks and own
        assert result.passed == all(own.values())
        assert result.passed == name.endswith("-pass")
        if name in _NO_DECAY_FAILS:
            assert {key for key, ok in own.items() if not ok} == _NO_DECAY_FAILS[name]
        # only compare carries other check lines: its runs', which inform
        others = {key for checks in sections.values() for key in checks}
        assert others == (set() if type(result) is not CompareReport
                          else {"ball_entry", "d_window_mean"})

    def test_unreliable_fit_fails_its_check(self):
        report = _hessian_report(gradient_r_squared=0.5)
        assert report.checks == {"newton_invariant": True,
                                 "gradient_proportional": True,
                                 "fits_reliable": False}
        text = report.report()
        assert "(R2 0.5000 UNRELIABLE)" in text
        assert text.endswith("check_fits_reliable = FAIL\n")
        assert _hessian_report(gradient_r_squared=0.9).passed

    def test_failed_assumptions_fail_their_check(self):
        report = _average_report(AssumptionReport(
            [AssumptionClause("input_0_zero_mean", True, False)]))
        assert report.checks == {"assumptions": False, "agreement": True}
        assert report.report().endswith("[closed_form_agreement]\n"
                                        "worst_relative_defect = 0.000e+00\n"
                                        "check_assumptions = FAIL\n"
                                        "check_agreement = pass\n")

    def test_failed_row_fails_both_checks_of_its_scheme(self):
        report = _STUDIES["omega-row-error"]()
        assert report.checks == {"newton_deviation": False, "newton_ball": False}
        assert "newton_omega_80 = ERROR RuntimeError: aborted" in report.report()
