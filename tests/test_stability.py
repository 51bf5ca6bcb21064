import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sourceseek import (
    EquilibriumError,
    Frame,
    LyapunovCertificate,
    Scenario,
    Scheme,
    averaged_closed_loop,
    build_certificate,
    iss_bound_check,
    linearize,
    stability_report,
    vdot_margin,
)
from sourceseek.stability import _BLOCK, _cascade_dr, _cascade_dz


def _averaged_field(scheme, params, field):
    rhs = averaged_closed_loop(scheme, params, field)
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


def _expression_vdot_margin(z_bar, d_hat, cert):
    """``vdot_margin`` as whole-array expressions, one new array per
    operation: the form it had before it reused a fixed set of buffers, and
    the oracle of its bits."""
    z = np.asarray(z_bar, dtype=float)
    z1, z2 = z[..., 0], z[..., 1]
    ed = np.exp(np.asarray(d_hat, dtype=float))
    lam_z2 = -0.5 * cert.alpha * z2
    dz1, dz2 = cert.omega0 * z2, (-cert.omega0 * z1 + lam_z2) + (ed - 1.0) * lam_z2
    (m11, m12), (m21, m22) = cert.P.tolist()
    pz1, pz2 = m11 * z1 + m12 * z2, m21 * z1 + m22 * z2
    denom = 1.0 + (z1 * pz1 + z2 * pz2)
    riccati = cert.b * (ed - 1.0) ** 2
    vdot = 2.0 * (pz1 * dz1 + pz2 * dz2) / denom - riccati
    bound = (-0.5 * (z1 * z1 + z2 * z2) - riccati) / denom
    out = vdot - bound
    return float(out) if np.ndim(out) == 0 else out


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


def _certify_grid():
    """The certify grid: ``z`` of shape (40, 40, 21, 2) and ``d_hat`` of
    shape (40, 40, 21)."""
    g = np.linspace(-5.0, 5.0, 40)
    z1, z2, dh = np.meshgrid(g, g, np.linspace(-2.0, 2.0, 21), indexing="ij")
    return np.stack([z1, z2], axis=-1), dh


class TestLinearize:
    def test_the_field_runs_on_floats(self, ref_params, ref_field):
        """``f`` sees an array equilibrium as a tuple of floats, and each
        column's dual point carries float parts, not numpy scalars."""
        rhs, seen = averaged_closed_loop(Scheme.NEWTON, ref_params, ref_field), []

        def f(s):
            seen.append(s)
            return rhs(0.0, s)

        linearize(f, _newton_equilibrium(ref_field))
        point, *duals = seen
        assert type(point) is tuple and {type(v) for v in point} == {float}
        assert len(duals) == 4
        assert {type(part) for s in duals for v in s for part in (v.real, v.dual)} == {float}

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
        f = _averaged_field(Scheme.NEWTON, ref_params, ref_field)
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
        f = _averaged_field(Scheme.GRADIENT, ref_params, ref_field)
        lin = linearize(f, _gradient_equilibrium(ref_field))
        pair = sorted(v for v in lin.eigenvalues if abs(v.imag) > 1e-9)
        # real part is -alpha*H/4 = -0.005
        assert pair[0].real == pytest.approx(-0.005, abs=1e-9)
        assert pair[1].real == pytest.approx(-0.005, abs=1e-9)

    def test_rejects_non_equilibrium(self, ref_params, ref_field):
        f = _averaged_field(Scheme.NEWTON, ref_params, ref_field)
        with pytest.raises(EquilibriumError) as excinfo:
            linearize(f, np.array([1.0, 1.0, 50.0, 0.0]))
        assert excinfo.value.residual > 1e-6

    def test_rejects_a_field_that_is_not_plain_arithmetic(self):
        # math.exp takes no dual; the field has an equilibrium at the origin
        f = lambda s: (math.exp(s[0]) - 1.0, s[0] - s[1])
        point = np.zeros(2)
        assert np.linalg.norm(f(point)) == 0.0
        with pytest.raises(TypeError):
            linearize(f, point)

    @pytest.mark.parametrize("hessian", [0.01, 1.0])
    def test_log_riccati_form_has_the_raw_spectrum(self, ref_params, ref_field,
                                                   hessian):
        """dtilde = log d is a change of coordinates, so the pushed-forward
        form linearizes to a similar matrix."""
        field = replace(ref_field, hessian=hessian)
        raw = linearize(_averaged_field(Scheme.NEWTON, ref_params, field),
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
                _averaged_field(Scheme.NEWTON, ref_params, ref_field),
                _newton_equilibrium(ref_field),
            ),
            linearize(
                _averaged_field(Scheme.GRADIENT, ref_params, ref_field),
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
                _averaged_field(Scheme.NEWTON, ref_params, field),
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
                _averaged_field(Scheme.GRADIENT, ref_params, field),
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

    def test_function_is_zero_only_at_origin(self, rng):
        """V = ln(1 + z^T P z) + (b/omega_d)(e^dhat - dhat - 1) is 0 at the
        origin and positive elsewhere: P is positive definite and b > 0."""
        cert = build_certificate(2.0, 1.0, 0.3)
        assert cert.lam_min_p > 0.0 and cert.b > 0.0
        z = rng.uniform(-5.0, 5.0, size=(1000, 2))
        dh = rng.uniform(-2.0, 2.0, size=1000)
        keep = (np.linalg.norm(z, axis=1) > 1e-12) | (np.abs(dh) > 1e-12)
        values = np.log1p(_einsum_quad_form(z[keep], cert.P)) + (
            cert.b / cert.omega_d) * (np.exp(dh[keep]) - dh[keep] - 1.0)
        assert np.all(values > 0.0)

    def test_reference_value(self):
        # V((1, 0), 0) = ln(1 + P[0, 0]) = ln 2.5
        cert = build_certificate(2.0, 1.0, 0.3)
        assert cert.P[0, 0] == 1.5

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(0.05, 20.0), omega0=st.floats(0.05, 20.0),
           omega_d=st.floats(0.01, 5.0))
    def test_gains_alone_give_the_built_certificate(self, alpha, omega0, omega_d):
        """A certificate built from its three gains holds build_certificate's
        matrices, bit for bit, and both hold the closed form's float
        operations."""
        hand = LyapunovCertificate(alpha, omega0, omega_d)
        built = build_certificate(alpha, omega0, omega_d)
        p_mat = np.array([[alpha / (4.0 * omega0**2) + 2.0 / alpha, 1.0 / (2.0 * omega0)],
                          [1.0 / (2.0 * omega0), 2.0 / alpha]])
        lam_tilde = np.diag([0.0, -0.5 * alpha])
        g_mat = p_mat @ lam_tilde + lam_tilde.T @ p_mat
        lam_min = np.linalg.eigvalsh(p_mat)[0]
        b = float(np.max(np.abs(np.linalg.eigvalsh(g_mat)))) ** 2 / (2.0 * lam_min)
        for cert in (hand, built):
            assert cert.P.tobytes() == p_mat.tobytes()
            assert cert.G.tobytes() == g_mat.tobytes()
            assert np.float64(cert.b).tobytes() == np.float64(b).tobytes()
            assert np.float64(cert.lam_min_p).tobytes() == lam_min.tobytes()
        assert hand == built


class TestVdotMargin:
    def test_zero_at_origin(self):
        cert = build_certificate(2.0, 1.0, 0.3)
        assert vdot_margin(np.zeros(2), 0.0, cert) == 0.0

    def test_nonpositive_on_grid(self):
        cert = build_certificate(2.0, 1.0, 0.3)
        z, dh = _certify_grid()
        margins = vdot_margin(z, dh, cert)
        assert margins.max() <= 1e-9

    def test_derivative_negative_away_from_origin(self):
        cert = build_certificate(2.0, 1.0, 0.3)
        z, dh = _certify_grid()
        quad = _einsum_quad_form(z, cert.P)
        bound = (
            -0.5 * np.sum(z * z, axis=-1) - cert.b * (np.exp(dh) - 1.0) ** 2
        ) / (1.0 + quad)
        vdot = vdot_margin(z, dh, cert) + bound
        nonzero = (np.sum(z * z, axis=-1) > 1e-20) | (np.abs(dh) > 1e-12)
        assert np.all(vdot[nonzero] < 0.0)

    def test_certificate_soundness_random_parameters(self, rng):
        z, dh = _certify_grid()
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
    """vdot_margin and iss_bound_check agree with their matrix forms to
    1e-13 of the terms that each is a sum or difference of."""
    cert = build_certificate(alpha, omega0, omega_d, hessian)
    z = data.draw(arrays(float, (n, 2), elements=st.floats(-5.0, 5.0)))
    dh = data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    r = data.draw(arrays(float, n, elements=st.floats(-3.0, 3.0)))

    want, terms = _einsum_vdot_margin(z, dh, cert)
    assert np.all(np.abs(vdot_margin(z, dh, cert) - want) <= 1e-13 * terms)
    want, terms = _einsum_iss_margin(r, z, dh, hessian, h_gain, cert)
    got = iss_bound_check(r, z, dh, hessian, h_gain, cert)
    assert np.all(np.abs(got - want) <= 1e-13 * terms)
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
                dz = _cascade_dz(*z, np.exp(dh) - 1.0, cert)
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
            _averaged_field(Scheme.NEWTON, ref_params, ref_field),
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


def _accepted_certificate(alpha, omega0, omega_d):
    try:
        return build_certificate(alpha, omega0, omega_d)
    except (ValueError, ArithmeticError):
        reject()


_ACCEPTED_GAIN = st.floats(0.01, 100.0)
_D_HAT = st.floats(-800.0, 800.0) | st.sampled_from([math.inf, -math.inf, math.nan])


def _laid_out(a: np.ndarray, layout: str) -> np.ndarray:
    """``a`` in C order, in Fortran order, or as every other row of an array
    twice as long."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        wide = np.empty((2 * a.shape[0], *a.shape[1:]))
        wide[::2] = a
        return wide[::2]
    return np.ascontiguousarray(a)


#: shapes of ``z_bar[..., 0]`` and ``d_hat``: grids of one element less
#: than a block, one block, one more and two blocks and three, two empty
#: grids, a broadcast that fits in a block and one that spans two
_MARGIN_SHAPES = [((n,), (n,)) for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)] + [
    ((0,), (0,)), ((0, 1), (9,)), ((5, 1), (1, 9)), ((683, 1), (6,))]


class TestVdotMarginBuffers:
    """``vdot_margin`` computes block by block in five arrays that in-place
    ufuncs reuse, by the same float operations on every element as its
    expression form."""

    @settings(max_examples=15, deadline=None)
    @given(alpha=_ACCEPTED_GAIN, omega0=_ACCEPTED_GAIN, omega_d=_ACCEPTED_GAIN)
    def test_the_certify_grid_is_the_expression_form_s_bytes(self, alpha, omega0,
                                                             omega_d):
        cert = _accepted_certificate(alpha, omega0, omega_d)
        z, dh = _certify_grid()
        assert vdot_margin(z, dh, cert).tobytes() == _expression_vdot_margin(
            z, dh, cert).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(alpha=_ACCEPTED_GAIN, omega0=_ACCEPTED_GAIN, omega_d=_ACCEPTED_GAIN,
           shapes=st.sampled_from(_MARGIN_SHAPES) | st.tuples(
               st.integers(1, 6), st.integers(1, 6)).map(lambda nm: ((nm[0], 1), (nm[1],))),
           layout=st.sampled_from(["C", "F", "strided"]),
           z_cycle=arrays(float, (7, 2), elements=st.floats(-1e3, 1e3)),
           dh_cycle=arrays(float, 5, elements=_D_HAT))
    def test_every_grid_layout_and_point_is_the_expression_form_s_bytes(
            self, alpha, omega0, omega_d, shapes, layout, z_cycle, dh_cycle):
        """On each shape, with ``z_bar`` and ``d_hat`` in C order, in
        Fortran order or strided, filled by repeating a drawn cycle of
        states and of ``d_hat`` values (``+-inf`` and NaN among them), and
        at one point, which is a float."""
        cert = _accepted_certificate(alpha, omega0, omega_d)
        z_shape, dh_shape = shapes
        z = _laid_out(np.resize(z_cycle, (*z_shape, 2)), layout)
        dh = _laid_out(np.resize(dh_cycle, dh_shape), layout)
        with np.errstate(all="ignore"):
            got, want = vdot_margin(z, dh, cert), _expression_vdot_margin(z, dh, cert)
            point = vdot_margin(z_cycle[0], float(dh_cycle[0]), cert)
            point_want = _expression_vdot_margin(z_cycle[0], float(dh_cycle[0]), cert)
        assert got.shape == np.broadcast_shapes(z_shape, dh_shape)
        assert got.tobytes() == want.tobytes()
        assert type(point) is float
        assert np.float64(point).tobytes() == np.float64(point_want).tobytes()

    @pytest.mark.parametrize("n", [40, 80])
    def test_a_call_holds_its_result_and_five_blocks(self, n):
        """Past its result, a call holds five blocks of floats and 8 KiB for
        the interpreter's own objects, the same bound at either grid size."""
        g = np.linspace(-5.0, 5.0, n)
        z1, z2, dh = np.meshgrid(g, g, np.linspace(-2.0, 2.0, 21), indexing="ij")
        z = np.stack([z1, z2], axis=-1)
        cert = build_certificate(2.0, 1.0, 0.3)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = vdot_margin(z, dh, cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.size > 4 * _BLOCK
        assert peak - result.nbytes <= 5 * _BLOCK * 8 + 8192


@st.composite
def _scaled_states(draw):
    """``(z, d_hat)``: up to 30 states, ``z`` a draw of ``[-1, 1]^2`` times a
    scale from 1e-6 to 10, ``d_hat`` from ``[-3, 3]``."""
    n = draw(st.integers(1, 30))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 10.0]))
    z = scale * draw(arrays(float, (n, 2), elements=st.floats(-1.0, 1.0)))
    return z, draw(arrays(float, n, elements=st.floats(-3.0, 3.0)))


#: the spacing of the floats below 2**-1022 (subnormal and smallest normal)
_TINY = 2.0 ** -1074


@settings(max_examples=80, deadline=None)
@given(alpha=_ACCEPTED_GAIN, omega0=_ACCEPTED_GAIN, omega_d=_ACCEPTED_GAIN,
       states=_scaled_states())
@example(alpha=1.0, omega0=1.0, omega_d=1.0,
         states=(1e-6 * np.array([[6.4671752e-155, 0.0]]), np.array([0.0])))
def test_the_margin_is_the_closed_form_identity_and_never_positive(alpha, omega0,
                                                                   omega_d, states):
    """With ``y = e^dhat - 1`` and ``q = z^T P z``,
    ``vdot_margin * (1 + q) = -|z|^2/2 + y z^T G z - b y^2 q``, which is at
    most ``-(|z|^2/2)(1 - |G| |y|)^2``: both to 1e-14 of ``S``, the sum of
    the magnitudes of the terms the margin and the identity are computed
    from, ``S = 2 sum_i |(Pz)_i dz_i| + 2 b y^2 (1 + q) + |z|^2 + |y z^T G z|``
    (the worst of 3000 random draws of gains and 200 states each was
    4.1e-16 of it), plus ``k = 11`` spacings of ``2**-1074``.

    That absolute term is for underflow. A product or quotient below
    ``2**-1022`` is rounded to a multiple of ``2**-1074``: besides its
    relative error, it may be off by half that spacing, which no multiple of
    ``S`` bounds when every term is that small (the example: ``|z|^2`` is
    about 4e-321, and the relative term underflows to 0). Sums and
    differences of such numbers are exact. The absolute errors matter only
    where ``y = 0``: otherwise ``|y| >= 2**-53`` (``e^dhat`` rounds to a
    float next to 1) and ``b >= |G|^2 / (2 P22) >= 0.01`` (``|G| >= 2``, the
    magnitude of ``G22``, and ``P22 = 2/alpha <= 200``), so ``1e-14 S`` is
    above 1e-48 and covers any subnormal error a bounded factor carries.
    With ``y = 0``, ``b y^2 = 0`` and ``y z^T G z = 0`` exactly, and the
    roundings that can underflow are, in half spacings:

    * the margin: the products ``pz1 dz1`` and ``pz2 dz2``, doubled by
      ``2 (...)`` (4), the quotient of that by ``1 + q >= 1`` (1), the
      squares ``z1 z1`` and ``z2 z2``, halved by ``-0.5 (...)`` (1), that
      halving (1), the bound's quotient (1), and ``margin * (1 + q)``, with
      ``1 + q`` one float above 1 at most where anything underflows (1):
      9 in all;
    * the identity ``-0.5 |z|^2``: the two squares, halved (1), and the
      halving (1): 2.

    That is 11 half spacings between ``lhs`` and the identity, 2 between the
    identity and the ceiling ``-0.5 |z|^2 (1 - |G| |y|)^2`` (which computes
    ``-0.5 |z|^2`` the same way, and ``(1 - 0)^2 = 1``), and 8 in the margin
    before its last product; ``k = 11`` whole spacings bounds each with a
    factor of two to spare.
    """
    cert = _accepted_certificate(alpha, omega0, omega_d)
    z, dh = states
    margin = vdot_margin(z, dh, cert)

    y = np.exp(dh) - 1.0
    q, zgz = _einsum_quad_form(z, cert.P), _einsum_quad_form(z, cert.G)
    zz = np.sum(z * z, axis=-1)
    dz = _einsum_cascade_dz(z, np.exp(dh), cert)
    pz = np.einsum("ij,...j->...i", cert.P, z)
    terms = (2.0 * np.sum(np.abs(pz * dz), axis=-1) + 2.0 * cert.b * y * y * (1.0 + q)
             + zz + np.abs(y * zgz))
    tol = 1e-14 * terms + 11 * _TINY
    lhs = margin * (1.0 + q)
    assert np.all(np.abs(lhs - (-0.5 * zz + y * zgz - cert.b * y * y * q)) <= tol)
    assert np.all(lhs <= -0.5 * zz * (1.0 - cert.g_norm * np.abs(y)) ** 2 + tol)
    assert np.all(margin <= 1e-14 * terms / (1.0 + q) + 11 * _TINY)
