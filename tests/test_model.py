import math
import re
from dataclasses import replace

import numpy as np
import pytest

from sourceseek import (
    DEFAULT_FIELD,
    DEFAULT_PARAMS,
    FieldParams,
    Frame,
    HessianSweepConfig,
    OmegaSweepConfig,
    Scenario,
    Scheme,
    SeekerParams,
    build_averaged_field,
    build_certificate,
    closed_loop,
    default_omega_grid,
    newton_affine_system,
)


class TestField:
    def test_peak_at_source(self, ref_field):
        assert ref_field.at_offset(0.0, 0.0) == 5.0

    def test_known_offset_value(self, ref_field):
        # |x - source|^2 = 18, value 5 - 0.5*0.01*18
        assert ref_field.at_offset(3.0, -3.0) == pytest.approx(4.91, abs=1e-12)

    def test_radial_symmetry(self, ref_field, rng):
        for _ in range(20):
            v = rng.normal(size=2) * 3.0
            plus = ref_field.at_offset(v[0], v[1])
            minus = ref_field.at_offset(-v[0], -v[1])
            assert plus == pytest.approx(minus, abs=1e-12)
            # a quarter turn of the offset keeps its length
            assert ref_field.at_offset(-v[1], v[0]) == pytest.approx(plus, abs=1e-12)

    def test_broadcasts_over_samples(self, ref_field):
        np.testing.assert_allclose(
            ref_field.at_offset(np.array([0.0, 3.0]), np.array([0.0, -3.0])), [5.0, 4.91])

    def test_floats_and_arrays_give_the_same_bits(self, ref_field, rng):
        z1, z2 = rng.uniform(-50.0, 50.0, size=(2, 200))
        on_arrays = ref_field.at_offset(z1, z2)
        on_floats = [ref_field.at_offset(a, b) for a, b in zip(z1.tolist(), z2.tolist())]
        assert on_arrays.tolist() == on_floats

    def test_gradient_matches_finite_differences(self, ref_field, rng):
        h = 1e-6
        for _ in range(20):
            z = rng.uniform(-10.0, 10.0, size=2)
            grad_fd = np.array(
                [
                    (ref_field.at_offset(*(z + h * e)) - ref_field.at_offset(*(z - h * e)))
                    / (2.0 * h)
                    for e in np.eye(2)
                ]
            )
            grad_exact = -ref_field.hessian * z
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
            field = ref_field.at_offset(*(x - ref_field.source))
            u1 = (p.c * gain * (field - nu) * math.sin(p.omega * t)
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


_SYSTEM = newton_affine_system(DEFAULT_PARAMS, DEFAULT_FIELD)
_CERTIFICATE = {"alpha": 2.0, "omega0": 1.0, "omega_d": 0.3, "hessian": 0.01}

#: every setting the one finite-and-positive check guards: the name its
#: message gives, and a callable that sets the setting to a value
_POSITIVE_SETTINGS = {
    "field_hessian": ("hessian", lambda v: replace(DEFAULT_FIELD, hessian=v)),
    **{f"params_{name}": (name, lambda v, name=name: replace(DEFAULT_PARAMS, **{name: v}))
       for name in ("omega", "omega0", "alpha", "h_gain", "omega_d")},
    **{f"scenario_{name}": (name, lambda v, name=name: Scenario(scheme=Scheme.NEWTON,
                                                                **{name: v}))
       for name in ("t_end", "ball_radius", "d_tolerance", "d0")},
    "sweep_omegas": ("omegas", lambda v: OmegaSweepConfig(omegas=(v, 40.0, 80.0))),
    "sweep_record_dt": ("record_dt", lambda v: OmegaSweepConfig(record_dt=v)),
    "sweep_hessians": ("hessians", lambda v: HessianSweepConfig(hessians=(0.01, 0.1, v))),
    **{f"sweep_{name}": (name, lambda v, name=name: HessianSweepConfig(**{name: v}))
       for name in ("newton_tolerance", "gradient_tolerance")},
    **{f"certificate_{name}": (name, lambda v, name=name: build_certificate(
        **{**_CERTIFICATE, name: v})) for name in _CERTIFICATE},
    "coefficient_at": ("omega", lambda v: _SYSTEM.coefficients[(0, 1)].at(v)),
    "default_omega_grid": ("omega_anchor", default_omega_grid),
    "averaged_field_grid": ("omega grid",
                            lambda v: build_averaged_field(_SYSTEM, (15.0, v))),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("setting", sorted(_POSITIVE_SETTINGS))
def test_every_positive_setting_is_refused_by_the_one_check(setting, value):
    name, make = _POSITIVE_SETTINGS[setting]
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b.* must be finite "
                                         rf"and positive, got \("):
        make(value)
