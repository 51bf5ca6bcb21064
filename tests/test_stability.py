import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sourceseek import (
    AveragedForm,
    EquilibriumError,
    Frame,
    Scenario,
    Scheme,
    averaged_closed_loop,
    build_certificate,
    closed_loop,
    iss_bound_check,
    linearize,
    lyapunov_V,
    stability_report,
    vdot_margin,
)
from sourceseek.stability import _cascade_dr, _cascade_dz


def _averaged_field(form, params, field):
    rhs = averaged_closed_loop(form, params, field)
    return lambda s: rhs(0.0, s)


def _newton_equilibrium(field):
    return np.array([0.0, 0.0, 1.0 / field.hessian, field.f_star])


def _gradient_equilibrium(field):
    return np.array([0.0, 0.0, field.f_star])


# The certificate grid in its matrix form, an oracle for the 2x2 component
# arithmetic of ``stability``. Each oracle margin comes with the size of the
# terms it is a difference of, the scale of its rounding.


def _einsum_quad_form(z, mat):
    return np.einsum("...i,ij,...j->...", z, mat, z)


def _einsum_cascade_dz(z, ed, cert):
    """``dz = (S + Lt) z + (e^dhat - 1) Lt z`` as matrix products."""
    a_lin = cert.spin + cert.lam_tilde
    return np.einsum("ij,...j->...i", a_lin, z) + (ed - 1.0)[..., None] * np.einsum(
        "ij,...j->...i", cert.lam_tilde, z
    )


def _einsum_vdot_margin(z, d_hat, cert):
    ed = np.exp(d_hat)
    dz = _einsum_cascade_dz(z, ed, cert)
    quad = _einsum_quad_form(z, cert.P)
    pz = np.einsum("ij,...j->...i", cert.P, z)
    flow = 2.0 * np.sum(pz * dz, axis=-1) / (1.0 + quad)
    riccati = cert.b * (ed - 1.0) ** 2
    bound = (-0.5 * np.sum(z * z, axis=-1) - riccati) / (1.0 + quad)
    terms = 2.0 * np.sum(np.abs(pz * dz), axis=-1) / (1.0 + quad) + riccati
    return flow - riccati - bound, terms + np.abs(bound)


def _einsum_iss_margin(r, z, d_hat, hessian, h_gain, cert):
    dz = _einsum_cascade_dz(z, np.exp(d_hat), cert)
    r_dot = -h_gain * r + hessian * np.sum(z * dz, axis=-1)
    abs_r_rate = np.where(r != 0.0, np.sign(r) * r_dot, np.abs(r_dot))
    g_norm = np.sqrt(np.sum(z * z, axis=-1) + d_hat**2)
    bound = -h_gain * np.abs(r) + hessian * (2.0 * g_norm) ** 2 * (
        cert.omega0 + np.exp(2.0 * g_norm) * 0.5 * cert.alpha
    )
    terms = np.abs(bound) + h_gain * np.abs(r) + hessian * np.sum(np.abs(z * dz), axis=-1)
    return bound - abs_r_rate, terms


class TestLinearize:
    def test_known_diagonal_spectrum(self):
        a_mat = np.diag([2.0, -3.0, 5.0])
        x0 = np.array([1.0, -1.0, 0.5])
        lin = linearize(lambda x: a_mat @ (x - x0), x0)
        np.testing.assert_allclose(sorted(lin.eigenvalues.real), [-3.0, 2.0, 5.0],
                                   atol=1e-12)
        np.testing.assert_allclose(lin.eigenvalues.imag, 0.0, atol=1e-9)

    def test_newton_averaged_spectrum(self, ref_params, ref_field):
        """alpha 2, omega0 1, omega_d 0.3, h 1: the position block contributes
        -1/2 +/- i sqrt(3)/2, the Riccati and filter states -0.3 and -1."""
        f = _averaged_field(AveragedForm.NEWTON, ref_params, ref_field)
        lin = linearize(f, _newton_equilibrium(ref_field))
        got = sorted(lin.eigenvalues, key=lambda v: (round(v.real, 6), v.imag))
        expected = [
            -1.0 + 0.0j,
            -0.5 - 0.5 * math.sqrt(3.0) * 1.0j,
            -0.5 + 0.5 * math.sqrt(3.0) * 1.0j,
            -0.3 + 0.0j,
        ]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gradient_averaged_spectrum_carries_curvature(self, ref_params, ref_field):
        f = _averaged_field(AveragedForm.GRADIENT, ref_params, ref_field)
        lin = linearize(f, _gradient_equilibrium(ref_field))
        pair = sorted(v for v in lin.eigenvalues if abs(v.imag) > 1e-9)
        # real part is -alpha*H/4 = -0.005
        assert pair[0].real == pytest.approx(-0.005, abs=1e-9)
        assert pair[1].real == pytest.approx(-0.005, abs=1e-9)

    def test_rejects_non_equilibrium(self, ref_params, ref_field):
        f = _averaged_field(AveragedForm.NEWTON, ref_params, ref_field)
        with pytest.raises(EquilibriumError) as excinfo:
            linearize(f, np.array([1.0, 1.0, 50.0, 0.0]))
        assert excinfo.value.residual > 1e-6

    def test_rejects_a_field_that_is_not_plain_arithmetic(self, ref_params,
                                                         ref_field):
        # the full-loop log-Riccati closure calls math.exp on its state; less
        # its own value at a point, at a fixed t, it has an equilibrium there
        rhs = closed_loop(Scheme.NEWTON, Frame.ROTATING_Z_LOG_D, ref_params,
                          ref_field)
        point = np.array([0.0, 0.0, -math.log(ref_field.hessian), ref_field.f_star])
        f = lambda s: np.subtract(rhs(1.0, s), rhs(1.0, point))
        assert np.linalg.norm(f(point)) == 0.0
        with pytest.raises(TypeError):
            linearize(f, point)

    @pytest.mark.parametrize("hessian", [0.01, 1.0])
    def test_log_riccati_form_has_the_raw_spectrum(self, ref_params, ref_field,
                                                   hessian):
        """dtilde = log d is a change of coordinates, so the pushed-forward
        form linearizes to a similar matrix."""
        field = replace(ref_field, hessian=hessian)
        raw = linearize(_averaged_field(AveragedForm.NEWTON, ref_params, field),
                        _newton_equilibrium(field))
        rhs = Scenario(scheme=Scheme.NEWTON, frame=Frame.AVERAGED_NEWTON_EXP,
                       params=ref_params, field=field).build_rhs()
        lin = linearize(lambda s: rhs(0.0, s),
                        [0.0, 0.0, -math.log(hessian), field.f_star])
        np.testing.assert_allclose(np.sort_complex(lin.eigenvalues),
                                   np.sort_complex(raw.eigenvalues), atol=1e-12)

    def test_trace_det_residuals(self, ref_params, ref_field, rng):
        lins = [
            linearize(
                _averaged_field(AveragedForm.NEWTON, ref_params, ref_field),
                _newton_equilibrium(ref_field),
            ),
            linearize(
                _averaged_field(AveragedForm.GRADIENT, ref_params, ref_field),
                _gradient_equilibrium(ref_field),
            ),
        ]
        a_mat = rng.normal(size=(5, 5))
        lins.append(linearize(lambda x: a_mat @ x, np.zeros(5)))
        for lin in lins:
            assert lin.trace_residual < 1e-8
            assert lin.det_residual < 1e-8

    def test_newton_spectrum_curvature_invariant(self, ref_params, ref_field):
        """The position block of the curvature-inverting averaged loop is
        literally curvature free; its spectrum repeats across two decades."""
        spectra = []
        for hessian in (0.01, 0.1, 1.0):
            field = replace(ref_field, hessian=hessian)
            lin = linearize(
                _averaged_field(AveragedForm.NEWTON, ref_params, field),
                _newton_equilibrium(field),
            )
            spectra.append(np.sort_complex(lin.eigenvalues))
        np.testing.assert_allclose(spectra[0], spectra[1], atol=1e-12)
        np.testing.assert_allclose(spectra[0], spectra[2], atol=1e-12)

    def test_gradient_abscissa_scales_with_curvature(self, ref_params, ref_field):
        abscissas = {}
        for hessian in (0.01, 0.1, 1.0):
            field = replace(ref_field, hessian=hessian)
            lin = linearize(
                _averaged_field(AveragedForm.GRADIENT, ref_params, field),
                _gradient_equilibrium(field),
            )
            pair = [v for v in lin.eigenvalues if abs(v.imag) > 1e-9]
            abscissas[hessian] = max(v.real for v in pair)
        for h_lo, h_hi in [(0.01, 0.1), (0.1, 1.0)]:
            ratio = abscissas[h_hi] / abscissas[h_lo]
            assert ratio == pytest.approx(h_hi / h_lo, rel=0.05)


class TestCertificate:
    def test_reference_matrix(self):
        cert = build_certificate(alpha=2.0, omega0=1.0, omega_d=0.3)
        np.testing.assert_allclose(cert.P, [[1.5, 0.5], [0.5, 1.0]], atol=1e-14)
        assert cert.lyapunov_residual < 1e-12

    def test_spectral_quantities_match_closed_forms(self):
        cert = build_certificate(alpha=2.0, omega0=1.0, omega_d=0.3)
        g_sq = 2.0 + 4.0 / 16.0 + 0.5 * math.sqrt(4.0 + 16.0)
        assert cert.g_norm**2 == pytest.approx(g_sq, rel=1e-12)
        assert cert.g_norm**2 == pytest.approx(4.486, abs=5e-4)
        lam_min = 1.0 + 0.25 - 0.5 * math.sqrt(0.25 + 1.0)
        assert cert.lam_min_p == pytest.approx(lam_min, rel=1e-12)
        assert cert.lam_min_p == pytest.approx(0.691, abs=5e-4)
        assert cert.b == pytest.approx(cert.g_norm**2 / (2.0 * cert.lam_min_p),
                                       rel=1e-14)

    def test_g_matrix_closed_form(self):
        cert = build_certificate(alpha=2.0, omega0=1.0, omega_d=0.3)
        np.testing.assert_allclose(cert.G, [[0.0, -0.5], [-0.5, -2.0]], atol=1e-14)

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(omega0=-1.0), dict(omega_d=0.0), dict(hessian=-0.1),
    ])
    def test_rejects_nonpositive_parameters(self, bad):
        kwargs = dict(alpha=2.0, omega0=1.0, omega_d=0.3, hessian=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            build_certificate(**kwargs)

    def test_value_at_origin(self):
        cert = build_certificate(2.0, 1.0, 0.3)
        assert lyapunov_V(np.zeros(2), 0.0, cert) == 0.0

    def test_positive_away_from_origin(self, rng):
        cert = build_certificate(2.0, 1.0, 0.3)
        z = rng.uniform(-5.0, 5.0, size=(1000, 2))
        dh = rng.uniform(-2.0, 2.0, size=1000)
        keep = (np.linalg.norm(z, axis=1) > 1e-12) | (np.abs(dh) > 1e-12)
        values = lyapunov_V(z[keep], dh[keep], cert)
        assert np.all(values > 0.0)

    def test_reference_value(self):
        cert = build_certificate(2.0, 1.0, 0.3)
        got = lyapunov_V(np.array([1.0, 0.0]), 0.0, cert)
        assert got == pytest.approx(math.log(2.5), rel=1e-14)


class TestVdotMargin:
    def test_zero_at_origin(self):
        cert = build_certificate(2.0, 1.0, 0.3)
        assert vdot_margin(np.zeros(2), 0.0, cert) == 0.0

    def test_nonpositive_on_grid(self):
        cert = build_certificate(2.0, 1.0, 0.3)
        g = np.linspace(-5.0, 5.0, 40)
        z1, z2, dh = np.meshgrid(g, g, np.linspace(-2.0, 2.0, 21), indexing="ij")
        z = np.stack([z1, z2], axis=-1)
        margins = vdot_margin(z, dh, cert)
        assert margins.max() <= 1e-9

    def test_derivative_negative_away_from_origin(self):
        cert = build_certificate(2.0, 1.0, 0.3)
        g = np.linspace(-5.0, 5.0, 40)
        z1, z2, dh = np.meshgrid(g, g, np.linspace(-2.0, 2.0, 21), indexing="ij")
        z = np.stack([z1, z2], axis=-1)
        quad = _einsum_quad_form(z, cert.P)
        bound = (
            -0.5 * np.sum(z * z, axis=-1) - cert.b * (np.exp(dh) - 1.0) ** 2
        ) / (1.0 + quad)
        vdot = vdot_margin(z, dh, cert) + bound
        nonzero = (np.sum(z * z, axis=-1) > 1e-20) | (np.abs(dh) > 1e-12)
        assert np.all(vdot[nonzero] < 0.0)

    def test_certificate_soundness_random_parameters(self, rng):
        g = np.linspace(-5.0, 5.0, 40)
        z1, z2, dh = np.meshgrid(g, g, np.linspace(-2.0, 2.0, 21), indexing="ij")
        z = np.stack([z1, z2], axis=-1)
        for _ in range(20):
            alpha, omega0, omega_d = rng.uniform(0.5, 5.0, size=3)
            cert = build_certificate(alpha, omega0, omega_d)
            assert cert.lam_min_p > 0.0
            assert cert.lyapunov_residual < 1e-10
            assert vdot_margin(z, dh, cert).max() <= 1e-9


_GAIN = st.floats(0.3, 5.0)


@settings(max_examples=60, deadline=None)
@given(alpha=_GAIN, omega0=_GAIN, omega_d=_GAIN,
       hessian=st.floats(0.001, 10.0), h_gain=st.floats(0.1, 5.0),
       data=st.data(), n=st.integers(1, 30))
def test_grid_margins_match_the_einsum_oracle(alpha, omega0, omega_d, hessian,
                                               h_gain, data, n):
    """vdot_margin, iss_bound_check and lyapunov_V agree with their matrix
    forms to 1e-13 of the terms that each is a sum or difference of."""
    cert = build_certificate(alpha, omega0, omega_d, hessian)
    z = data.draw(arrays(float, (n, 2), elements=st.floats(-5.0, 5.0)))
    dh = data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    r = data.draw(arrays(float, n, elements=st.floats(-3.0, 3.0)))

    want, terms = _einsum_vdot_margin(z, dh, cert)
    assert np.all(np.abs(vdot_margin(z, dh, cert) - want) <= 1e-13 * terms)
    want, terms = _einsum_iss_margin(r, z, dh, hessian, h_gain, cert)
    got = iss_bound_check(r, z, dh, hessian, h_gain, cert)
    assert np.all(np.abs(got - want) <= 1e-13 * terms)
    log_quad, scale = np.log1p(_einsum_quad_form(z, cert.P)), cert.b / cert.omega_d
    want = log_quad + scale * (np.exp(dh) - dh - 1.0)
    terms = log_quad + scale * (np.exp(dh) + np.abs(dh) + 1.0)
    assert np.all(np.abs(lyapunov_V(z, dh, cert) - want) <= 1e-13 * terms)
    assert isinstance(vdot_margin(z[0], dh[0], cert), float)  # one point


class TestCascadeFlow:
    def test_restated_flow_is_the_pushed_forward_cascade(self, ref_params,
                                                          ref_field, rng):
        """``_cascade_dz`` and the offset rate of ``iss_bound_check`` are the
        averaged loop pushed forward into the cascade frame."""
        for hessian in (0.01, 1.0):
            field = replace(ref_field, hessian=hessian)
            rhs = Scenario(scheme=Scheme.NEWTON, frame=Frame.CASCADE_SHIFTED,
                           params=ref_params, field=field).build_rhs()
            cert = build_certificate(ref_params.alpha, ref_params.omega0,
                                     ref_params.omega_d, hessian)
            for _ in range(100):
                r, dh = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
                z = rng.uniform(-5.0, 5.0, 2)
                dz = _cascade_dz(*z, np.exp(dh), cert)
                got = [_cascade_dr(r, *z, dz, hessian, ref_params.h_gain), *dz]
                want = rhs(0.0, (r, *z, dh))[:3]
                np.testing.assert_allclose(
                    got, want, rtol=0.0,
                    atol=1e-12 * max(1.0, float(np.max(np.abs(want)))))


class TestIssBound:
    def test_pure_offset_decay(self):
        cert = build_certificate(2.0, 1.0, 0.3)
        for r in (0.5, 3.0, -2.0):
            margin = iss_bound_check(r, np.zeros(2), 0.0, 0.01, 1.0, cert)
            assert margin == pytest.approx(0.0, abs=1e-12)

    def test_margin_nonnegative_on_random_points(self, rng):
        cert = build_certificate(2.0, 1.0, 0.3)
        r = rng.uniform(-3.0, 3.0, size=1000)
        z = rng.uniform(-5.0, 5.0, size=(1000, 2))
        dh = rng.uniform(-2.0, 2.0, size=1000)
        margins = iss_bound_check(r, z, dh, 0.01, 1.0, cert)
        assert margins.min() >= -1e-9

    def test_gain_functions_have_class_k_shape(self):
        cert = build_certificate(2.0, 1.0, 0.3)
        h_gain, hessian = 1.0, 0.01
        s = np.linspace(0.0, 5.0, 200)
        rho1 = h_gain * s
        rho2 = hessian * (2.0 * s) ** 2 * (
            cert.omega0 + np.exp(2.0 * s) * 0.5 * cert.alpha
        )
        assert rho1[0] == 0.0 and rho2[0] == 0.0
        assert np.all(np.diff(rho1) > 0.0)
        assert np.all(np.diff(rho2) > 0.0)


class TestReport:
    def test_report_contents(self, ref_params, ref_field):
        lin = linearize(
            _averaged_field(AveragedForm.NEWTON, ref_params, ref_field),
            _newton_equilibrium(ref_field),
        )
        cert = build_certificate(2.0, 1.0, 0.3)
        text = stability_report(
            {"averaged_newton": lin}, cert=cert, grid_margins={"vdot_margin_max": -0.01}
        )
        assert "[linearization averaged_newton]" in text
        assert "eigenvalues =" in text
        assert "trace_residual" in text
        assert "P = [" in text
        assert "decay_rate_note" in text
        assert "vdot_margin_max" in text
