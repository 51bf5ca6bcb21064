import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourceseek import (
    DEFAULT_FIELD,
    DEFAULT_PARAMS,
    FRAME_SPECS,
    AveragedForm,
    Frame,
    IntegrationAborted,
    IntegratorConfig,
    Scenario,
    Scheme,
    averaged_closed_loop,
    closed_loop,
    gradient_affine_system,
    integrate,
    newton_affine_system,
    rotation_matrix,
    to_rotating_frame,
)

TWO_PI = 2.0 * math.pi


class TestRotationFrame:
    def test_orthogonality(self, rng):
        for _ in range(20):
            t = rng.uniform(-50.0, 50.0)
            y = rotation_matrix(t, 1.7)
            np.testing.assert_allclose(y.T @ y, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(y @ y.T, np.eye(2), atol=1e-12)

    def test_transpose_derivative_identity(self, rng):
        # d/dt Y^T = Y^T S with S = [[0, w0], [-w0, 0]], by central differences
        w0, h = 1.3, 1e-6
        spin = np.array([[0.0, w0], [-w0, 0.0]])
        for _ in range(10):
            t = rng.uniform(0.0, 20.0)
            dy = (rotation_matrix(t + h, w0).T - rotation_matrix(t - h, w0).T) / (2 * h)
            np.testing.assert_allclose(
                dy, rotation_matrix(t, w0).T @ spin, atol=1e-7
            )

    def test_frame_matrix_at_time_zero(self):
        np.testing.assert_allclose(
            rotation_matrix(0.0, 2.0), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15
        )

    def test_roundtrip_inverse(self, rng):
        for _ in range(50):
            t = rng.uniform(0.0, 30.0)
            x = rng.normal(size=2) * 5.0
            x_star = rng.normal(size=2)
            z = to_rotating_frame(t, x, x_star, 1.0)
            back = x_star + rotation_matrix(t, 1.0) @ z
            np.testing.assert_allclose(back, x, atol=1e-12)

    def test_source_maps_to_origin(self, rng):
        x_star = np.array([1.0, -1.0])
        for t in rng.uniform(0.0, 100.0, size=10):
            np.testing.assert_allclose(
                to_rotating_frame(t, x_star, x_star, 3.0), np.zeros(2), atol=1e-15
            )

    def test_time_zero_mapping(self):
        # Y(0) = [[0, 1], [-1, 0]] so z = (-(x2 - x2*), x1 - x1*)
        x, x_star = np.array([4.0, -4.0]), np.array([1.0, -1.0])
        z = to_rotating_frame(0.0, x, x_star, 7.0)
        np.testing.assert_allclose(z, [3.0, 3.0], atol=1e-15)

    def test_norm_preserved(self, rng):
        for _ in range(100):
            t = rng.uniform(0.0, 50.0)
            x = rng.normal(size=2) * 10.0
            x_star = rng.normal(size=2)
            z = to_rotating_frame(t, x, x_star, 0.8)
            assert np.linalg.norm(z) == pytest.approx(
                np.linalg.norm(x - x_star), rel=1e-12, abs=1e-12
            )


class TestControlLaws:
    """The control laws as they act inside the rotating-frame closed loops,
    where ``y = F(z)`` and the forward speed ``u1`` drives ``z2``."""

    def test_converged_filter_leaves_pure_dither(self, ref_params, ref_field):
        # sin(w t) = 0 and cos(w t) = 1 at t = 0; nu = F(z) zeroes the feedback
        rhs = closed_loop(Scheme.GRADIENT, Frame.ROTATING_Z, ref_params, ref_field)
        nu = ref_field.f_star - 0.5 * ref_field.hessian * 1.0
        dz1, u1, nu_dot = rhs(0.0, (0.0, 1.0, nu))
        assert u1 == pytest.approx(ref_params.alpha_tilde, rel=1e-14)
        assert dz1 == ref_params.omega0
        assert nu_dot == 0.0

    def test_filter_state_drive(self, ref_params, ref_field):
        rhs = closed_loop(Scheme.GRADIENT, Frame.ROTATING_Z, ref_params, ref_field)
        _, _, nu_dot = rhs(0.3, (0.0, 0.0, ref_field.f_star - 3.0))
        assert nu_dot == pytest.approx(ref_params.h_gain * 3.0, rel=1e-14)

    def test_riccati_zero_is_invariant(self, ref_params, ref_field, rng):
        rhs = closed_loop(Scheme.NEWTON, Frame.ROTATING_Z, ref_params, ref_field)
        for t in rng.uniform(0.0, 10.0, size=10):
            z1, z2, nu = rng.normal(size=3)
            _, _, dee_dot, _ = rhs(t, (z1, z2, 0.0, nu))
            assert dee_dot == 0.0

    def test_riccati_growth_with_converged_filter(self, ref_params, ref_field):
        rhs = closed_loop(Scheme.NEWTON, Frame.ROTATING_Z, ref_params, ref_field)
        _, _, dee_dot, _ = rhs(0.7, (0.0, 0.0, 5.0, ref_field.f_star))
        assert dee_dot == pytest.approx(ref_params.omega_d * 5.0, rel=1e-14)

    def test_riccati_demodulation_gain(self, ref_params, ref_field):
        # at t = 0: cos(2wt) = 1, sin(wt) = 0
        rhs = closed_loop(Scheme.NEWTON, Frame.ROTATING_Z, ref_params, ref_field)
        dee, nu = 2.0, ref_field.f_star - 0.3
        err = ref_field.f_star - nu
        _, _, dee_dot, _ = rhs(0.0, (0.0, 0.0, dee, nu))
        expected = ref_params.omega_d * dee * (1.0 - dee * ref_params.demod_gain * err)
        assert dee_dot == pytest.approx(expected, rel=1e-14)


class TestClosedLoopRhs:
    def test_gradient_rotating_at_source(self, ref_params, ref_field, rng):
        rhs = closed_loop(Scheme.GRADIENT, Frame.ROTATING_Z, ref_params, ref_field)
        for t in rng.uniform(0.0, 10.0, size=10):
            out = rhs(t, (0.0, 0.0, ref_field.f_star))
            forcing = ref_params.alpha_tilde * math.cos(ref_params.omega * t)
            np.testing.assert_allclose(out, [0.0, forcing, 0.0], atol=1e-12)

    def test_incompatible_frame_rejected(self, ref_params, ref_field):
        with pytest.raises(ValueError):
            closed_loop(Scheme.GRADIENT, Frame.ROTATING_Z_LOG_D, ref_params, ref_field)
        with pytest.raises(ValueError):
            closed_loop(Scheme.NEWTON, Frame.AVERAGED_NEWTON, ref_params, ref_field)

    def test_original_frame_equals_transformed_rotating(self, ref_params, ref_field):
        """Co-integrating both frames must agree through x = x* + Y(t) z."""
        cfg = IntegratorConfig.for_frequency(ref_params.omega, 60, output_stride=10)
        x0, nu0 = np.array([4.0, -4.0]), 0.0
        z0 = to_rotating_frame(0.0, x0, ref_field.source, ref_params.omega0)

        orig = integrate(
            closed_loop(Scheme.GRADIENT, Frame.ORIGINAL, ref_params, ref_field),
            np.array([*x0, nu0]), 0.0, 10.0, cfg,
        )
        rot = integrate(
            closed_loop(Scheme.GRADIENT, Frame.ROTATING_Z, ref_params, ref_field),
            np.array([*z0, nu0]), 0.0, 10.0, cfg,
        )
        assert np.allclose(orig.times, rot.times)
        worst = 0.0
        for t, xs, zs in zip(rot.times, orig.states, rot.states):
            mapped = ref_field.source + rotation_matrix(t, ref_params.omega0) @ zs[:2]
            worst = max(worst, float(np.max(np.abs(mapped - xs[:2]))))
        assert worst < 1e-6

    def test_log_riccati_frame_is_bijective_image(self, ref_params, ref_field):
        """Trajectories in the log-Riccati frame map onto the plain rotating
        frame through d = exp(dtilde)."""
        cfg = IntegratorConfig.for_frequency(2.0 * ref_params.omega, 240, output_stride=40)
        z0 = to_rotating_frame(
            0.0, np.array([4.0, -4.0]), ref_field.source, ref_params.omega0
        )
        plain = integrate(
            closed_loop(Scheme.NEWTON, Frame.ROTATING_Z, ref_params, ref_field),
            np.array([*z0, 1.0, 0.0]), 0.0, 10.0, cfg,
        )
        logd = integrate(
            closed_loop(Scheme.NEWTON, Frame.ROTATING_Z_LOG_D, ref_params, ref_field),
            np.array([*z0, 0.0, 0.0]), 0.0, 10.0, cfg,
        )
        np.testing.assert_allclose(plain.states[:, :2], logd.states[:, :2], atol=1e-6)
        np.testing.assert_allclose(plain.states[:, 3], logd.states[:, 3], atol=1e-6)
        np.testing.assert_allclose(
            plain.states[:, 2], np.exp(logd.states[:, 2]), atol=1e-6
        )

    def test_log_riccati_overflow_aborts_at_the_start(self, ref_params, ref_field):
        # exp(710) overflows a double: the first stage raises OverflowError
        cfg = IntegratorConfig.for_frequency(2.0 * ref_params.omega, 60)
        with pytest.raises(IntegrationAborted, match="non-finite state") as excinfo:
            integrate(
                closed_loop(Scheme.NEWTON, Frame.ROTATING_Z_LOG_D, ref_params, ref_field),
                [3.0, 3.0, 710.0, 0.0], 0.0, 1.0, cfg,
            )
        assert excinfo.value.last_valid_time == 0.0
        np.testing.assert_array_equal(excinfo.value.partial.states, [[3.0, 3.0, 710.0, 0.0]])

    def test_riccati_stays_positive_under_guard(self, ref_params, ref_field):
        cfg = IntegratorConfig.for_frequency(2.0 * ref_params.omega, 60, output_stride=10)
        z0 = to_rotating_frame(
            0.0, np.array([4.0, -4.0]), ref_field.source, ref_params.omega0
        )
        traj = integrate(
            closed_loop(Scheme.NEWTON, Frame.ROTATING_Z, ref_params, ref_field),
            np.array([*z0, 1.0, 0.0]), 0.0, 30.0, cfg,
            guard=lambda t, s: s[2] > 0.0,
        )
        assert traj.states[:, 2].min() > 0.0


def _averaged(frame, params, field):
    """The averaged curvature-inverting loop in ``frame``, pushed forward
    through the frame's map."""
    return Scenario(scheme=Scheme.NEWTON, frame=frame, params=params,
                    field=field).build_rhs()


class TestAveragedRhs:
    def test_riccati_equilibrium_is_stationary(self, ref_params, ref_field):
        state = np.array([0.0, 0.0, 1.0 / ref_field.hessian, ref_field.f_star])
        out = averaged_closed_loop(AveragedForm.NEWTON, ref_params, ref_field)(0.0, state)
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-13)

    def test_cascade_origin_is_equilibrium(self, ref_params, ref_field):
        rhs = _averaged(Frame.CASCADE_SHIFTED, ref_params, ref_field)
        out = rhs(0.0, (0.0, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_gradient_damping_entry(self, ref_params, ref_field):
        # with alpha = 2 and curvature 0.01 the damping entry is -0.01
        rhs = averaged_closed_loop(AveragedForm.GRADIENT, ref_params, ref_field)
        out = rhs(0.0, (0.0, 1.0, ref_field.f_star))
        expected_damping = -0.5 * ref_params.alpha * ref_field.hessian
        assert out[1] == pytest.approx(expected_damping, rel=1e-14)
        assert out[0] == ref_params.omega0
        # filter sees the field drop away from the source
        assert out[2] == pytest.approx(
            -ref_params.h_gain * 0.5 * ref_field.hessian, rel=1e-12
        )

    def test_exp_form_matches_plain_form(self, ref_params, ref_field, rng):
        plain = averaged_closed_loop(AveragedForm.NEWTON, ref_params, ref_field)
        exp = _averaged(Frame.AVERAGED_NEWTON_EXP, ref_params, ref_field)
        for _ in range(20):
            z = rng.uniform(-5.0, 5.0, size=2)
            d = rng.uniform(0.1, 150.0)
            nu = rng.uniform(-2.0, 8.0)
            out_plain = plain(0.0, np.array([*z, d, nu]))
            out_exp = exp(0.0, np.array([*z, math.log(d), nu]))
            np.testing.assert_allclose(out_exp[:2], out_plain[:2], rtol=1e-12)
            np.testing.assert_allclose(out_exp[3], out_plain[3], rtol=1e-12)
            # chain rule: dtilde' = d'/d
            assert out_exp[2] == pytest.approx(out_plain[2] / d, rel=1e-12)

    @pytest.mark.parametrize("hessian", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("d0_scale", [0.02, 1.0, 3.0])
    def test_riccati_converges_to_inverse_curvature(
        self, ref_params, ref_field, hessian, d0_scale
    ):
        field = replace(ref_field, hessian=hessian)
        target = 1.0 / hessian
        d0 = d0_scale * target
        rhs = averaged_closed_loop(AveragedForm.NEWTON, ref_params, field)
        horizon = 10.0 / ref_params.omega_d
        traj = integrate(
            rhs, np.array([0.1, 0.1, d0, 0.0]), 0.0, horizon,
            IntegratorConfig(dt=0.005),
        )
        d = traj.states[:, 2]
        assert abs(d[-1] - target) < 0.01 * target
        gaps = np.abs(d - target)
        assert np.all(np.diff(gaps) <= 1e-12 * target)  # monotone approach


def _newton_exp_oracle(params, field):
    """The averaged loop in ``(z, dtilde, nu)``, written out by hand:
    ``d = exp(dtilde)`` and ``dtilde' = omega_d (1 - H exp(dtilde))``."""
    w0, h, wd = params.omega0, params.h_gain, params.omega_d
    fs, hess = field.f_star, field.hessian
    lam = -0.5 * params.alpha * hess

    def rhs(t, s):
        z1, z2, dtilde, nu = s
        ed = math.exp(dtilde)
        nu_dot = h * (fs - 0.5 * hess * (z1 * z1 + z2 * z2) - nu)
        return (w0 * z2, -w0 * z1 + lam * ed * z2, wd * (1.0 - hess * ed), nu_dot)

    return rhs


def _cascade_oracle(params, field):
    """The averaged loop in the shifted cascade ``(r, z, dhat)``, written out
    by hand: ``r' = -h r + H z^T (S + Lt e^dhat) z``,
    ``z' = (S + Lt e^dhat) z`` and ``dhat' = -omega_d (e^dhat - 1)``, with
    ``Lt = diag(0, -alpha / 2)``."""
    w0, h, wd = params.omega0, params.h_gain, params.omega_d
    hess, lam_t = field.hessian, -0.5 * params.alpha

    def rhs(t, s):
        r, z1, z2, dhat = s
        ed = math.exp(dhat)
        dz1 = w0 * z2
        dz2 = -w0 * z1 + lam_t * ed * z2
        r_dot = -h * r + hess * (z1 * dz1 + z2 * dz2)
        return (r_dot, dz1, dz2, -wd * (ed - 1.0))

    return rhs


_UNIT = st.floats(-1.0, 1.0)


class TestFrameMaps:
    """The log-Riccati and cascade frames are the averaged loop pushed
    forward through one map each; the hand-written forms are the oracles."""

    @settings(max_examples=200, deadline=None)
    @given(
        gains=st.tuples(st.floats(0.3, 3.0), st.floats(0.2, 3.0),
                        st.floats(0.1, 3.0), st.floats(0.05, 1.0)),
        hessian=st.floats(1e-3, 0.1),
        unit=st.tuples(_UNIT, _UNIT, _UNIT, _UNIT),
        d_scale=st.floats(0.1, 3.0),
    )
    def test_pushed_forward_forms_match_the_hand_formulas(self, gains, hessian,
                                                         unit, d_scale):
        alpha, omega0, h_gain, omega_d = gains
        params = replace(DEFAULT_PARAMS, alpha=alpha, omega0=omega0,
                         h_gain=h_gain, omega_d=omega_d)
        field = replace(DEFAULT_FIELD, hessian=hessian)
        z1, z2 = 5.0 * unit[0], 5.0 * unit[1]
        cases = [
            (Frame.AVERAGED_NEWTON_EXP, _newton_exp_oracle,
             (z1, z2, math.log(d_scale / hessian), 3.0 + 5.0 * unit[2])),
            (Frame.CASCADE_SHIFTED, _cascade_oracle,
             (3.0 * unit[2], z1, z2, 2.0 * unit[3])),
        ]
        for frame, oracle, state in cases:
            got = np.array(_averaged(frame, params, field)(0.0, state))
            want = np.array(oracle(params, field)(0.0, state))
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("frame", [Frame.ROTATING_Z_LOG_D,
                                       Frame.AVERAGED_NEWTON_EXP,
                                       Frame.CASCADE_SHIFTED])
    @settings(max_examples=50, deadline=None)
    @given(unit=st.tuples(_UNIT, _UNIT, _UNIT), d_scale=st.floats(0.01, 5.0))
    def test_back_inverts_to(self, frame, unit, d_scale):
        to, back = FRAME_SPECS[(Scheme.NEWTON, frame)].coordinates(DEFAULT_FIELD)
        x = (5.0 * unit[0], 5.0 * unit[1], d_scale / DEFAULT_FIELD.hessian,
             3.0 + 5.0 * unit[2])
        np.testing.assert_allclose(back(to(x)), x, rtol=1e-14, atol=1e-14)
        y = to(x)
        np.testing.assert_allclose(to(back(y)), y, rtol=1e-14, atol=1e-14)


class TestAveragingConsistency:
    """The full oscillatory loops shadow their averaged limits, closer for
    faster dithers."""

    @pytest.mark.parametrize("scheme", [Scheme.GRADIENT, Scheme.NEWTON])
    def test_deviation_shrinks_with_frequency(self, ref_params, ref_field, scheme):
        devs = []
        for omega in (20.0, 40.0):
            params = replace(ref_params, omega=omega)
            omega_fast = 2.0 * omega if scheme is Scheme.NEWTON else omega
            substeps = max(1, math.ceil(0.05 / (TWO_PI / (omega_fast * 60.0))))
            cfg = IntegratorConfig(dt=0.05 / substeps, output_stride=substeps)
            acfg = IntegratorConfig(dt=0.05 / 8.0, output_stride=8)
            if scheme is Scheme.NEWTON:
                state0 = np.array([3.0, 3.0, 1.0, 0.0])
                form = AveragedForm.NEWTON
            else:
                state0 = np.array([3.0, 3.0, 0.0])
                form = AveragedForm.GRADIENT
            full = integrate(
                closed_loop(scheme, Frame.ROTATING_Z, params, ref_field),
                state0, 0.0, 10.0, cfg,
            )
            avg = integrate(
                averaged_closed_loop(form, params, ref_field), state0, 0.0, 10.0, acfg
            )
            assert np.allclose(full.times, avg.times, atol=1e-9)
            devs.append(
                float(np.max(np.linalg.norm(full.states[:, :2] - avg.states[:, :2], axis=1)))
            )
        assert all(np.isfinite(devs))
        assert devs[1] <= 1.2 * devs[0]


class TestAffineDecompositions:
    def test_gradient_decomposition_reassembles_closed_loop(
        self, ref_params, ref_field, rng
    ):
        system = gradient_affine_system(ref_params, ref_field)
        rhs = closed_loop(Scheme.GRADIENT, Frame.ROTATING_Z, ref_params, ref_field)
        w = ref_params.omega
        for _ in range(20):
            t = rng.uniform(0.0, 10.0)
            s = np.array([*rng.uniform(-5, 5, 2), rng.uniform(-2, 8)])
            assembled = np.asarray(system.drift(s), dtype=float).copy()
            for i in range(system.n_channels):
                inp = system.input(i)
                assembled += (
                    np.asarray(system.field(i)(s))
                    * w**inp.p_i
                    * inp.wave(float(inp.k) * w * t)
                )
            np.testing.assert_allclose(assembled, rhs(t, s), rtol=1e-12, atol=1e-12)

    def test_newton_decomposition_reassembles_closed_loop(
        self, ref_params, ref_field, rng
    ):
        system = newton_affine_system(ref_params, ref_field)
        rhs = closed_loop(Scheme.NEWTON, Frame.ROTATING_Z, ref_params, ref_field)
        w = ref_params.omega
        for _ in range(20):
            t = rng.uniform(0.0, 10.0)
            s = np.array(
                [*rng.uniform(-5, 5, 2), rng.uniform(0.1, 150.0), rng.uniform(-2, 8)]
            )
            assembled = np.asarray(system.drift(s), dtype=float).copy()
            for i in range(system.n_channels):
                inp = system.input(i)
                assembled += (
                    np.asarray(system.field(i)(s))
                    * w**inp.p_i
                    * inp.wave(float(inp.k) * w * t)
                )
            np.testing.assert_allclose(assembled, rhs(t, s), rtol=1e-12, atol=1e-12)

    def test_channel_frequencies_and_exponents(self, ref_params, ref_field):
        system = newton_affine_system(ref_params, ref_field)
        p = ref_params.p_exp
        assert [float(system.input(i).k) for i in range(3)] == [1.0, 1.0, 2.0]
        np.testing.assert_allclose(
            [system.input(i).p_i for i in range(3)], [1.0 - p, p, 2.0 - 2.0 * p]
        )
