import math

import numpy as np
import pytest

from sourceseek import FieldParams, Frame, Scheme, SeekerParams, closed_loop
from sourceseek.model import eval_field


class TestField:
    def test_peak_at_source(self, ref_field):
        assert eval_field(np.array([1.0, -1.0]), ref_field) == 5.0

    def test_known_offset_value(self, ref_field):
        # |x - source|^2 = 18, value 5 - 0.5*0.01*18
        assert eval_field(np.array([4.0, -4.0]), ref_field) == pytest.approx(
            4.91, abs=1e-12
        )

    def test_radial_symmetry(self, ref_field, rng):
        for _ in range(20):
            v = rng.normal(size=2) * 3.0
            plus = eval_field(ref_field.source + v, ref_field)
            minus = eval_field(ref_field.source - v, ref_field)
            assert plus == pytest.approx(minus, abs=1e-12)

    def test_broadcasts_over_samples(self, ref_field):
        pts = np.array([[1.0, -1.0], [4.0, -4.0]])
        np.testing.assert_allclose(eval_field(pts, ref_field), [5.0, 4.91])

    def test_gradient_matches_finite_differences(self, ref_field, rng):
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-10.0, 10.0, size=2)
            grad_fd = np.array(
                [
                    (eval_field(x + h * e, ref_field) - eval_field(x - h * e, ref_field))
                    / (2.0 * h)
                    for e in np.eye(2)
                ]
            )
            grad_exact = -ref_field.hessian * (x - ref_field.source)
            np.testing.assert_allclose(grad_fd, grad_exact, rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("bad_h", [0.0, -0.5, math.nan])
    def test_rejects_bad_curvature(self, bad_h):
        with pytest.raises(ValueError):
            FieldParams(f_star=5.0, hessian=bad_h, source=np.zeros(2))

    def test_rejects_bad_source(self):
        with pytest.raises(ValueError):
            FieldParams(f_star=5.0, hessian=1.0, source=np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            FieldParams(f_star=5.0, hessian=1.0, source=np.zeros(3))


class TestUnicycle:
    @pytest.mark.parametrize("scheme", [Scheme.GRADIENT, Scheme.NEWTON])
    def test_original_frame_moves_at_the_speed_law_along_the_heading(
        self, scheme, ref_params, ref_field, rng
    ):
        """Unicycle kinematics: x' = u1 (cos theta, sin theta) with heading
        theta = omega0 t and forward speed
        u1 = c d^k (F(x) - nu) sin(omega t) + alpha_tilde cos(omega t),
        where k = 1 for the curvature-inverting scheme and 0 otherwise."""
        p = ref_params
        rhs = closed_loop(scheme, Frame.ORIGINAL, p, ref_field)
        for _ in range(50):
            t = rng.uniform(0.0, 50.0)
            x, nu, d = rng.uniform(-10.0, 10.0, size=2), rng.normal(), rng.uniform(0.1, 200.0)
            if scheme is Scheme.NEWTON:
                state, gain = (x[0], x[1], d, nu), d
            else:
                state, gain = (x[0], x[1], nu), 1.0
            u1 = (p.c * gain * (eval_field(x, ref_field) - nu) * math.sin(p.omega * t)
                  + p.alpha_tilde * math.cos(p.omega * t))
            heading = np.array([math.cos(p.omega0 * t), math.sin(p.omega0 * t)])
            velocity = np.array(rhs(t, state)[:2])
            scale = max(1.0, abs(u1))
            assert velocity @ heading == pytest.approx(u1, rel=1e-12, abs=1e-12)
            normal = np.array([-heading[1], heading[0]])
            assert abs(velocity @ normal) <= 1e-12 * scale


class TestSeekerParams:
    def test_derived_gains(self, ref_params):
        assert ref_params.c == pytest.approx(15.0**0.39, rel=1e-14)
        assert ref_params.alpha_tilde == pytest.approx(2.0 * 15.0**0.61, rel=1e-14)
        # frozen regression values
        assert ref_params.c == pytest.approx(2.87524986, rel=1e-8)
        assert ref_params.alpha_tilde == pytest.approx(10.43387582, rel=1e-8)

    def test_demod_gain_value(self, ref_params):
        expected = 8.0 * 15.0**2 / (2.0 * 15.0**0.61) ** 2
        assert ref_params.demod_gain == pytest.approx(expected, rel=1e-14)
        assert ref_params.demod_gain == pytest.approx(16.53412352, rel=1e-8)

    def test_derived_gains_track_base_parameters(self):
        a = SeekerParams(omega=15.0, omega0=1.0, alpha=2.0, p_exp=0.61, h_gain=1.0)
        b = SeekerParams(omega=30.0, omega0=1.0, alpha=2.0, p_exp=0.61, h_gain=1.0)
        assert b.c == pytest.approx(30.0**0.39)
        assert b.alpha_tilde == pytest.approx(2.0 * 30.0**0.61)
        assert a.c != b.c

    @pytest.mark.parametrize("p", [0.5, 1.0, 0.3, 1.2])
    def test_rejects_exponent_outside_open_interval(self, p):
        with pytest.raises(ValueError):
            SeekerParams(omega=15.0, omega0=1.0, alpha=2.0, p_exp=p, h_gain=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega": -1.0},
            {"omega0": 0.0},
            {"alpha": -2.0},
            {"h_gain": 0.0},
            {"omega_d": -0.3},
        ],
    )
    def test_rejects_nonpositive_gains(self, kwargs):
        base = dict(omega=15.0, omega0=1.0, alpha=2.0, p_exp=0.61, h_gain=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SeekerParams(**base)

    def test_as_dict_carries_derived_values(self, ref_params):
        resolved = ref_params.as_dict()
        assert resolved["c"] == ref_params.c
        assert resolved["alpha_tilde"] == ref_params.alpha_tilde
        assert resolved["demod_gain"] == ref_params.demod_gain
