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
    FieldParams,
    Frame,
    IntegrationAborted,
    IntegratorConfig,
    Scenario,
    Scheme,
    SeekerParams,
    averaged_closed_loop,
    closed_loop,
    gradient_affine_system,
    integrate,
    newton_affine_system,
    to_rotating_frame,
)
from sourceseek.seekers import push_forward
from sourceseek.numdiff import Tape

TWO_PI = 2.0 * math.pi


def _frame_matrix(t, omega0):
    """The frame matrix Y(t) = [[sin w0 t, cos w0 t], [-cos w0 t, sin w0 t]]."""
    s, c = math.sin(omega0 * t), math.cos(omega0 * t)
    return np.array([[s, c], [-c, s]])


_finite = st.floats(-1e3, 1e3, allow_nan=False)


class TestRotationFrame:
    def test_orthogonality(self, rng):
        for _ in range(20):
            t = rng.uniform(-50.0, 50.0)
            y = _frame_matrix(t, 1.7)
            np.testing.assert_allclose(y.T @ y, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(y @ y.T, np.eye(2), atol=1e-12)

    def test_transpose_derivative_identity(self, rng):
        # d/dt Y^T = Y^T S with S = [[0, w0], [-w0, 0]], by central differences
        w0, h = 1.3, 1e-6
        spin = np.array([[0.0, w0], [-w0, 0.0]])
        for _ in range(10):
            t = rng.uniform(0.0, 20.0)
            dy = (_frame_matrix(t + h, w0).T - _frame_matrix(t - h, w0).T) / (2 * h)
            np.testing.assert_allclose(
                dy, _frame_matrix(t, w0).T @ spin, atol=1e-7
            )

    def test_frame_matrix_at_time_zero(self):
        np.testing.assert_allclose(
            _frame_matrix(0.0, 2.0), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15
        )

    def test_roundtrip_inverse(self, rng):
        for _ in range(50):
            t = rng.uniform(0.0, 30.0)
            x = rng.normal(size=2) * 5.0
            x_star = rng.normal(size=2)
            z = to_rotating_frame(t, x, x_star, 1.0)
            back = x_star + _frame_matrix(t, 1.0) @ z
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

    @settings(max_examples=200, deadline=None)
    @given(t=_finite, x=st.tuples(_finite, _finite), x_star=st.tuples(_finite, _finite),
           w0=st.floats(1e-3, 10.0), scheme=st.sampled_from(Scheme))
    def test_rotating_frame_inverts_and_is_the_loops_own(self, t, x, x_star, w0, scheme):
        """``Y z`` returns ``x - x*``; and the original-frame loop reads the
        plain offset ``x - x*``, not ``z``, since its map depends on the
        offset's length alone: on a tape that has traced the loop, ``x - x*``
        records no new line, and rendered it gives ``np.subtract``'s bits."""
        z = to_rotating_frame(t, x, x_star, w0)
        back = np.add(x_star, _frame_matrix(t, w0) @ z)
        scale = max(1.0, *np.abs(x), *np.abs(x_star))
        np.testing.assert_allclose(back, x, rtol=0.0, atol=1e-12 * scale)

        params = replace(DEFAULT_PARAMS, omega0=w0)
        field = replace(DEFAULT_FIELD, source=np.array(x_star))
        rhs = closed_loop(scheme, Frame.ORIGINAL, params, field)
        dim = 4 if scheme is Scheme.NEWTON else 3
        tape = Tape(dim + 1)  # the time, then the state
        ts, xs = tape.state[0], tape.state[1:]
        rhs(ts, xs)
        recorded = len(tape.lines)
        offset = (xs[0] - x_star[0], xs[1] - x_star[1])
        assert len(tape.lines) == recorded
        rest = (1.0,) * (dim - 2)
        assert tape.render(offset)((t, *x, *rest)) == tuple(np.subtract(x, x_star).tolist())

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
        with pytest.raises(ValueError, match="'rotating_z_log_d' is undefined for "
                                             "scheme 'gradient'"):
            closed_loop(Scheme.GRADIENT, Frame.ROTATING_Z_LOG_D, ref_params, ref_field)

    @pytest.mark.parametrize("scheme, frame", [
        ("newton", Frame.ORIGINAL),
        (Scheme.NEWTON, "original"),
        ("gradient", "rotating_z"),
    ], ids=["scheme", "frame", "both"])
    @pytest.mark.parametrize("build", [
        lambda scheme, frame: closed_loop(scheme, frame, DEFAULT_PARAMS, DEFAULT_FIELD),
        lambda scheme, frame: Scenario(scheme=scheme, frame=frame),
    ], ids=["closed_loop", "Scenario"])
    def test_string_scheme_or_frame_rejected(self, build, scheme, frame):
        """A member's value is not the member: the pair check refuses it
        with a ValueError that names what it was given."""
        with pytest.raises(ValueError, match="must be Scheme and Frame members"):
            build(scheme, frame)

    @pytest.mark.parametrize("pair", sorted(
        (pair for pair, spec in FRAME_SPECS.items() if spec.averaged), key=str),
        ids=lambda pair: pair[1].value)
    def test_averaged_frame_is_the_closed_form_pushed_forward(self, pair, rng):
        """``closed_loop`` on an averaged pair is the closed-form average,
        pushed forward through the frame's map where it has one, bit for
        bit."""
        scheme, frame = pair
        params, field = DEFAULT_PARAMS, DEFAULT_FIELD
        want = averaged_closed_loop(scheme, params, field)
        coordinates = FRAME_SPECS[pair].coordinates
        if coordinates is not None:
            want = push_forward(want, coordinates(field))
        got = closed_loop(scheme, frame, params, field)
        dim = 3 if scheme is Scheme.GRADIENT else 4
        for _ in range(20):
            state = rng.uniform(-3.0, 3.0, size=dim)
            if dim == 4 and coordinates is None:  # a raw d stays positive
                state[2] = rng.uniform(0.1, 200.0)
            t, state = float(rng.uniform(0.0, 50.0)), tuple(state.tolist())
            assert np.array(got(t, state)).tobytes() == np.array(want(t, state)).tobytes()

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
            mapped = ref_field.source + _frame_matrix(t, ref_params.omega0) @ zs[:2]
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
            guard=(2,),
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
        out = averaged_closed_loop(Scheme.NEWTON, ref_params, ref_field)(0.0, state)
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-13)

    def test_cascade_origin_is_equilibrium(self, ref_params, ref_field):
        rhs = _averaged(Frame.CASCADE_SHIFTED, ref_params, ref_field)
        out = rhs(0.0, (0.0, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_gradient_damping_entry(self, ref_params, ref_field):
        # with alpha = 2 and curvature 0.01 the damping entry is -0.01
        rhs = averaged_closed_loop(Scheme.GRADIENT, ref_params, ref_field)
        out = rhs(0.0, (0.0, 1.0, ref_field.f_star))
        expected_damping = -0.5 * ref_params.alpha * ref_field.hessian
        assert out[1] == pytest.approx(expected_damping, rel=1e-14)
        assert out[0] == ref_params.omega0
        # filter sees the field drop away from the source
        assert out[2] == pytest.approx(
            -ref_params.h_gain * 0.5 * ref_field.hessian, rel=1e-12
        )

    @pytest.mark.parametrize("scheme", [Scheme.GRADIENT, Scheme.NEWTON])
    def test_filter_reads_the_fields_map(self, scheme, ref_params, ref_field, rng):
        """nu' = h (F(z) - nu) with F the field's one map, bit for bit."""
        rhs = averaged_closed_loop(scheme, ref_params, ref_field)
        for _ in range(50):
            z1, z2, nu = rng.uniform(-30.0, 30.0, size=3).tolist()
            d = () if scheme is Scheme.GRADIENT else (rng.uniform(0.1, 150.0),)
            want = ref_params.h_gain * (ref_field.at_offset(z1, z2) - nu)
            assert rhs(0.0, (z1, z2, *d, nu))[-1] == want

    @pytest.mark.parametrize("scheme", [Scheme.GRADIENT, Scheme.NEWTON])
    def test_an_array_state_computes_on_floats(self, scheme, ref_params, ref_field, rng):
        """An array state is unpacked through ``tolist()``, so the closure
        computes on floats, not numpy scalars, and gives the values of the
        same state as a tuple, bit for bit."""
        rhs = averaged_closed_loop(scheme, ref_params, ref_field)
        state = rng.uniform(0.1, 5.0, size=3 if scheme is Scheme.GRADIENT else 4)
        out = rhs(0.0, state)
        assert all(type(v) is float for v in out)
        assert out == rhs(0.0, tuple(state.tolist()))

    def test_exp_form_matches_plain_form(self, ref_params, ref_field, rng):
        plain = averaged_closed_loop(Scheme.NEWTON, ref_params, ref_field)
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
        rhs = averaged_closed_loop(Scheme.NEWTON, ref_params, field)
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
            else:
                state0 = np.array([3.0, 3.0, 0.0])
            full = integrate(
                closed_loop(scheme, Frame.ROTATING_Z, params, ref_field),
                state0, 0.0, 10.0, cfg,
            )
            avg = integrate(
                averaged_closed_loop(scheme, params, ref_field), state0, 0.0, 10.0, acfg
            )
            assert np.allclose(full.times, avg.times, atol=1e-9)
            devs.append(
                float(np.max(np.linalg.norm(full.states[:, :2] - avg.states[:, :2], axis=1)))
            )
        assert all(np.isfinite(devs))
        assert devs[1] <= 1.2 * devs[0]


def _hand_closed_loop(scheme, frame, params, field):
    """The full loops as they were written out by hand, one fused closure
    per frame, with the heading eliminated: the oracles of the loops that
    ``closed_loop`` renders from the affine systems."""
    w0 = params.omega0
    h = params.h_gain
    fs, hess = field.f_star, field.hessian
    xs1, xs2 = float(field.source[0]), float(field.source[1])
    c, at, wd = params.c, params.alpha_tilde, params.omega_d
    w, g2 = params.omega, params.demod_gain
    sin, cos = math.sin, math.cos

    if scheme is Scheme.GRADIENT and frame is Frame.ORIGINAL:

        def rhs(t, s):
            x1, x2, nu = s
            dx1, dx2 = x1 - xs1, x2 - xs2
            y = fs - 0.5 * hess * (dx1 * dx1 + dx2 * dx2)
            err = y - nu
            u1 = c * err * sin(w * t) + at * cos(w * t)
            return (u1 * cos(w0 * t), u1 * sin(w0 * t), h * err)

    elif scheme is Scheme.GRADIENT and frame is Frame.ROTATING_Z:

        def rhs(t, s):
            z1, z2, nu = s
            y = fs - 0.5 * hess * (z1 * z1 + z2 * z2)
            err = y - nu
            u1 = c * err * sin(w * t) + at * cos(w * t)
            return (w0 * z2, -w0 * z1 + u1, h * err)

    elif scheme is Scheme.NEWTON and frame is Frame.ORIGINAL:

        def rhs(t, s):
            x1, x2, d, nu = s
            dx1, dx2 = x1 - xs1, x2 - xs2
            y = fs - 0.5 * hess * (dx1 * dx1 + dx2 * dx2)
            err = y - nu
            u1 = c * d * err * sin(w * t) + at * cos(w * t)
            ddot = wd * d * (1.0 - d * g2 * err * cos(2.0 * w * t))
            return (u1 * cos(w0 * t), u1 * sin(w0 * t), ddot, h * err)

    elif scheme is Scheme.NEWTON and frame is Frame.ROTATING_Z:

        def rhs(t, s):
            z1, z2, d, nu = s
            y = fs - 0.5 * hess * (z1 * z1 + z2 * z2)
            err = y - nu
            u1 = c * d * err * sin(w * t) + at * cos(w * t)
            ddot = wd * d * (1.0 - d * g2 * err * cos(2.0 * w * t))
            return (w0 * z2, -w0 * z1 + u1, ddot, h * err)

    elif scheme is Scheme.NEWTON and frame is Frame.ROTATING_Z_LOG_D:

        def rhs(t, s):
            z1, z2, dtilde, nu = s
            y = fs - 0.5 * hess * (z1 * z1 + z2 * z2)
            ed, err = math.exp(dtilde), y - nu
            u1 = c * ed * err * sin(w * t) + at * cos(w * t)
            dtdot = wd * (1.0 - ed * g2 * err * cos(2.0 * w * t))
            return (w0 * z2, -w0 * z1 + u1, dtdot, h * err)

    return rhs


_FULL_FRAMES = sorted((pair for pair, spec in FRAME_SPECS.items() if not spec.averaged),
                      key=str)
_OFFSET = st.floats(-3.0, 3.0)


class TestRenderedLoops:
    """``closed_loop`` renders every full frame from its scheme's affine
    system; the hand-fused closures are the oracles."""

    @pytest.mark.parametrize("pair", _FULL_FRAMES,
                             ids=lambda pair: f"{pair[0].value}-{pair[1].value}")
    @settings(max_examples=60, deadline=None)
    @given(
        gains=st.tuples(st.floats(8.0, 30.0), st.floats(0.5, 2.0), st.floats(1.0, 3.0),
                        st.floats(0.55, 0.9), st.floats(0.5, 2.0), st.floats(0.1, 0.5)),
        f_star=st.floats(-5.0, 5.0),
        hessian=st.floats(1e-3, 0.1),
        offset=st.tuples(_OFFSET, _OFFSET),
        d=st.floats(0.5, 1.5),
        err=st.floats(-5.0, 5.0),
        t=st.floats(0.0, 100.0),
    )
    def test_rendered_loop_is_the_hand_closure(self, pair, gains, f_star, hessian,
                                              offset, d, err, t):
        """To ``1e-14`` of ``max(1, |value|)``. The affine split orders the
        float operations differently, and the original frame computes the
        field from the rotated offset, whose squared norm is ``|x - x*|**2``
        to a few ulps; the Riccati drive multiplies that by ``d**2`` and the
        demodulation gain, so the draws keep to curvatures, offsets and
        dither amplitudes around the reference run's."""
        scheme, frame = pair
        omega, omega0, alpha, p_exp, h_gain, omega_d = gains
        params = SeekerParams(omega=omega, omega0=omega0, alpha=alpha, p_exp=p_exp,
                              h_gain=h_gain, omega_d=omega_d)
        field = FieldParams(f_star=f_star, hessian=hessian, source=np.array([1.0, -1.0]))
        p = np.add(offset, field.source) if FRAME_SPECS[pair].plane else offset
        riccati = () if scheme is Scheme.GRADIENT else (
            math.log(d) if frame is Frame.ROTATING_Z_LOG_D else d,)
        state = (float(p[0]), float(p[1]), *riccati, f_star + err)
        got = np.array(closed_loop(scheme, frame, params, field)(t, state))
        want = np.array(_hand_closed_loop(scheme, frame, params, field)(t, state))
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("pair", _FULL_FRAMES,
                             ids=lambda pair: f"{pair[0].value}-{pair[1].value}")
    def test_rendered_loop_keeps_the_fourth_order(self, pair):
        """Acceptance criterion 7's step-halving factor, on the rendered
        loops: the end-state change from ``dt/2`` to ``dt/4`` is about 16
        times that from ``dt/4`` to ``dt/8``."""
        scenario = Scenario(scheme=pair[0], frame=pair[1], t_end=5.0)
        dt = scenario.integrator_config().dt
        ends = [integrate(scenario.build_rhs(), scenario.initial_state(), 0.0, 5.0,
                          IntegratorConfig(dt=dt / 2**k)).states[-1] for k in (1, 2, 3)]
        factor = np.max(np.abs(ends[0] - ends[1])) / np.max(np.abs(ends[1] - ends[2]))
        assert 12.0 <= factor <= 20.0

    @pytest.mark.parametrize("make", [gradient_affine_system, newton_affine_system])
    @settings(max_examples=30, deadline=None)
    @given(omega0=st.floats(0.1, 5.0), state=st.tuples(*[st.floats(-1e3, 1e3)] * 4))
    def test_drift_position_block_is_the_turn(self, make, omega0, state):
        # the original frame drops it: Y(t) absorbs the turn exactly
        system = make(replace(DEFAULT_PARAMS, omega0=omega0), DEFAULT_FIELD)
        s = state[:system.dimension]
        assert system.drift(s)[:2] == (omega0 * s[1], -omega0 * s[0])


class TestAffineDecompositions:
    def test_gradient_decomposition_reassembles_closed_loop(
        self, ref_params, ref_field, rng
    ):
        system = gradient_affine_system(ref_params, ref_field)
        rhs = _hand_closed_loop(Scheme.GRADIENT, Frame.ROTATING_Z, ref_params, ref_field)
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
        rhs = _hand_closed_loop(Scheme.NEWTON, Frame.ROTATING_Z, ref_params, ref_field)
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
