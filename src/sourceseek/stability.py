"""Linearization, eigenvalues, and explicit Lyapunov/ISS certificates.

Eigenvalues are always computed numerically from the exact (dual-number)
Jacobian (LAPACK Hessenberg reduction plus shifted QR via
``numpy.linalg.eigvals``) and are cross-checked against the trace and
determinant. Decay rates quoted
from the 2x2 position block equal half its trace, i.e. -alpha*H/4 for the
gradient scheme and -alpha/4 for the curvature-inverting scheme in the
underdamped regime; a rate constant of -alpha*H/2 (resp. -alpha/2) would
overstate the contraction by a factor of two, which is why reports derived
here always carry matrix-derived eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numdiff import central_jacobian

__all__ = [
    "Linearization",
    "LyapunovCertificate",
    "EquilibriumError",
    "linearize",
    "build_certificate",
    "lyapunov_V",
    "vdot_margin",
    "iss_bound_check",
    "stability_report",
]

#: equilibrium residual above which linearize() refuses the point
EQUILIBRIUM_TOL = 1e-6
#: permitted defect in eigenvalue trace/determinant reconstruction
EIG_RESIDUAL_TOL = 1e-8
#: permitted residual in the algebraic Lyapunov identity
LYAP_RESIDUAL_TOL = 1e-10


class EquilibriumError(ValueError):
    """The supplied point is not an equilibrium of the field."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Linearization:
    """Jacobian at an equilibrium with its numerically computed spectrum."""

    equilibrium: np.ndarray
    jacobian: np.ndarray
    eigenvalues: np.ndarray

    @property
    def trace_residual(self) -> float:
        return abs(complex(self.eigenvalues.sum()) - np.trace(self.jacobian))

    @property
    def det_residual(self) -> float:
        return abs(complex(np.prod(self.eigenvalues)) - np.linalg.det(self.jacobian))

    @property
    def spectral_abscissa(self) -> float:
        return float(np.max(self.eigenvalues.real))


def linearize(f, x_eq) -> Linearization:
    """Linearize the autonomous field ``f`` around the equilibrium ``x_eq``.

    The Jacobian is exact, one dual evaluation of ``f`` per column, and the
    spectrum comes from QR iteration on the Hessenberg form (LAPACK). The
    eigenvalues must reproduce the trace and determinant of the Jacobian to
    1e-8.

    Raises
    ------
    EquilibriumError
        If ``|f(x_eq)|`` exceeds 1e-6.
    TypeError
        If ``f`` is not arithmetic of the state and ``numdiff.exp``/``log``
        (it calls ``math.exp``, say).
    """
    x_eq = np.asarray(x_eq, dtype=float)
    residual = float(np.linalg.norm(np.asarray(f(x_eq), dtype=float)))
    if residual > EQUILIBRIUM_TOL:
        raise EquilibriumError(
            f"field residual {residual:.3e} at the supplied point exceeds "
            f"{EQUILIBRIUM_TOL}", residual,
        )
    jac = central_jacobian(f, x_eq)
    eig = np.linalg.eigvals(jac)
    lin = Linearization(equilibrium=x_eq, jacobian=jac, eigenvalues=eig)
    if lin.trace_residual > EIG_RESIDUAL_TOL * max(1.0, abs(np.trace(jac))):
        raise ArithmeticError(
            f"eigenvalue sum misses the trace by {lin.trace_residual:.3e}"
        )
    if lin.det_residual > EIG_RESIDUAL_TOL * max(1.0, abs(np.linalg.det(jac))):
        raise ArithmeticError(
            f"eigenvalue product misses the determinant by {lin.det_residual:.3e}"
        )
    return lin


# ---------------------------------------------------------------------------
# Lyapunov certificate for the shifted cascade coordinates


@dataclass(frozen=True)
class LyapunovCertificate:
    """Explicit certificate for the position/filter cascade.

    ``P`` solves ``P A + A^T P = -I`` for the damped rotation block
    ``A = [[0, w0], [-w0, -alpha/2]]``; ``G = P Lt + Lt^T P`` collects the
    curvature-normalized damping ``Lt = diag(0, -alpha/2)``; and
    ``b = |G|^2 / (2 lambda_min(P))`` balances the cross term in the
    Lyapunov derivative.
    """

    P: np.ndarray
    G: np.ndarray
    b: float
    alpha: float
    omega0: float
    omega_d: float

    @property
    def lam_tilde(self) -> np.ndarray:
        return np.diag([0.0, -0.5 * self.alpha])

    @property
    def spin(self) -> np.ndarray:
        return np.array([[0.0, self.omega0], [-self.omega0, 0.0]])

    @property
    def lam_min_p(self) -> float:
        return float(np.linalg.eigvalsh(self.P)[0])

    @property
    def g_norm(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.G))))

    @property
    def lyapunov_residual(self) -> float:
        a = self.spin + self.lam_tilde
        return float(
            np.max(np.abs(self.P @ a + a.T @ self.P + np.eye(2)))
        )


def build_certificate(alpha: float, omega0: float, omega_d: float,
                      hessian: float = 1.0) -> LyapunovCertificate:
    """Assemble the closed-form certificate and verify its invariants.

    The curvature ``hessian`` must be positive but cancels out of the
    certificate itself (the cascade coordinates normalize it away); it is
    accepted here so callers can state the full parameter set in one place.

    Raises
    ------
    ValueError
        On a non-positive parameter or if the closed-form matrix fails
        positivity or the algebraic identity.
    """
    for name, value in (("alpha", alpha), ("omega0", omega0),
                        ("omega_d", omega_d), ("hessian", hessian)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive, got {value}")

    p_mat = np.array(
        [
            [alpha / (4.0 * omega0**2) + 2.0 / alpha, 1.0 / (2.0 * omega0)],
            [1.0 / (2.0 * omega0), 2.0 / alpha],
        ]
    )
    lam_tilde = np.diag([0.0, -0.5 * alpha])
    g_mat = p_mat @ lam_tilde + lam_tilde.T @ p_mat

    eigs = np.linalg.eigvalsh(p_mat)
    if eigs[0] <= 0.0:
        raise ValueError(
            f"parameter regime rejected: certificate matrix has "
            f"lambda_min = {eigs[0]:.3e} <= 0"
        )
    g_norm_sq = float(np.max(np.abs(np.linalg.eigvalsh(g_mat)))) ** 2
    b = g_norm_sq / (2.0 * eigs[0])
    cert = LyapunovCertificate(
        P=p_mat, G=g_mat, b=b, alpha=alpha, omega0=omega0, omega_d=omega_d
    )

    if cert.lyapunov_residual >= LYAP_RESIDUAL_TOL:
        raise ValueError(
            f"algebraic identity residual {cert.lyapunov_residual:.3e} "
            f"exceeds {LYAP_RESIDUAL_TOL}"
        )
    # closed-form cross-checks of the spectral quantities
    g_norm_closed = (
        2.0 + alpha**2 / (16.0 * omega0**2)
        + math.sqrt(alpha**2 + 16.0 * omega0**2) / (2.0 * omega0)
    )
    lam_min_closed = (
        2.0 / alpha + alpha / (8.0 * omega0**2)
        - math.sqrt(alpha**2 / 16.0 + omega0**2) / (2.0 * omega0**2)
    )
    if abs(g_norm_sq - g_norm_closed) > 1e-9 * max(1.0, g_norm_closed):
        raise ArithmeticError(
            f"|G|^2 = {g_norm_sq} disagrees with closed form {g_norm_closed}"
        )
    if abs(eigs[0] - lam_min_closed) > 1e-9 * max(1.0, abs(lam_min_closed)):
        raise ArithmeticError(
            f"lambda_min(P) = {eigs[0]} disagrees with closed form {lam_min_closed}"
        )
    return cert


def _components(z) -> tuple[np.ndarray, np.ndarray]:
    """The component views ``z1, z2`` of ``z`` (..., 2)."""
    z = np.asarray(z, dtype=float)
    return z[..., 0], z[..., 1]


def _mat_vec(mat: np.ndarray, z1, z2) -> tuple:
    """``M z`` of a 2x2 matrix, one component array at a time."""
    (m11, m12), (m21, m22) = mat.tolist()
    return m11 * z1 + m12 * z2, m21 * z1 + m22 * z2


def _quad_form(z1, z2, mat) -> np.ndarray:
    """``z^T M z`` of the components ``z1, z2``."""
    m1, m2 = _mat_vec(mat, z1, z2)
    return z1 * m1 + z2 * m2


def lyapunov_V(z_bar, d_hat, cert: LyapunovCertificate):
    """Certificate function ln(1 + z^T P z) + (b/omega_d)(e^dhat - dhat - 1).

    Broadcasts over leading axes of ``z_bar`` (..., 2) and ``d_hat`` (...).
    """
    d_hat = np.asarray(d_hat, dtype=float)
    quad = _quad_form(*_components(z_bar), cert.P)
    out = np.log1p(quad) + (cert.b / cert.omega_d) * (np.exp(d_hat) - d_hat - 1.0)
    return float(out) if np.ndim(out) == 0 else out


def _cascade_dz(z1, z2, ed, cert: LyapunovCertificate) -> tuple:
    """The cascade flow ``dz = (S + Lt) z + (e^dhat - 1) Lt z``, given
    ``ed = e^dhat``, as its two components. ``S`` has only the off-diagonal
    entries ``+-omega0`` and ``Lt`` only its lower corner ``-alpha/2``, so the
    products are written out."""
    lam_z2 = -0.5 * cert.alpha * z2
    return cert.omega0 * z2, (-cert.omega0 * z1 + lam_z2) + (ed - 1.0) * lam_z2


def _cascade_dr(r, z1, z2, dz, hessian: float, h_gain: float):
    """The offset flow ``dr = -h r + H z^T dz`` along the cascade."""
    return -h_gain * r + hessian * (z1 * dz[0] + z2 * dz[1])


def vdot_margin(z_bar, d_hat, cert: LyapunovCertificate):
    """Chain-rule derivative of the certificate along the cascade flow minus
    its negative-definite bound; a valid certificate keeps this <= 0.

    The derivative uses dz = (S + Lt e^dhat) z and
    d(dhat) = -omega_d (e^dhat - 1); the bound is
    (-|z|^2 / 2 - b (e^dhat - 1)^2) / (1 + z^T P z).
    """
    z1, z2 = _components(z_bar)
    ed = np.exp(np.asarray(d_hat, dtype=float))
    dz1, dz2 = _cascade_dz(z1, z2, ed, cert)
    pz1, pz2 = _mat_vec(cert.P, z1, z2)
    denom = 1.0 + (z1 * pz1 + z2 * pz2)  # 1 + z^T P z
    riccati = cert.b * (ed - 1.0) ** 2
    vdot = 2.0 * (pz1 * dz1 + pz2 * dz2) / denom - riccati
    bound = (-0.5 * (z1 * z1 + z2 * z2) - riccati) / denom
    out = vdot - bound
    return float(out) if np.ndim(out) == 0 else out


def iss_bound_check(r, z_bar, d_hat, hessian: float, h_gain: float,
                    cert: LyapunovCertificate):
    """Margin of the filter-offset decay bound; nonnegative when the bound holds.

    The offset coordinate obeys dr = -h r + H z^T (S + Lt e^dhat) z along the
    cascade. The bound compares the one-sided derivative of |r| against
    -h |r| + H (2|g|)^2 (|S| + e^(2|g|) |Lt|) with g = (z, dhat), and the
    returned margin is bound minus actual.
    """
    r = np.asarray(r, dtype=float)
    z1, z2 = _components(z_bar)
    d_hat = np.asarray(d_hat, dtype=float)
    dz = _cascade_dz(z1, z2, np.exp(d_hat), cert)
    r_dot = _cascade_dr(r, z1, z2, dz, hessian, h_gain)
    abs_r_rate = np.where(r != 0.0, np.sign(r) * r_dot, np.abs(r_dot))
    g_norm = np.sqrt(z1 * z1 + z2 * z2 + d_hat**2)
    spin_norm = cert.omega0
    lam_norm = 0.5 * cert.alpha
    bound = -h_gain * np.abs(r) + hessian * (2.0 * g_norm) ** 2 * (
        spin_norm + np.exp(2.0 * g_norm) * lam_norm
    )
    out = bound - abs_r_rate
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# report


def _format_matrix(name: str, mat: np.ndarray) -> list[str]:
    rows = ["; ".join(f"{v:.12g}" for v in row) for row in np.atleast_2d(mat)]
    return [f"{name} = [{' | '.join(rows)}]"]


def stability_report(linearizations: dict, cert: LyapunovCertificate | None = None,
                     grid_margins: dict | None = None) -> str:
    """Structured key-value text with matrices, spectra, residuals, and
    worst-case certificate margins."""
    lines = ["[stability_report]"]
    for name, lin in linearizations.items():
        lines.append(f"[linearization {name}]")
        lines += _format_matrix("equilibrium", lin.equilibrium)
        lines += _format_matrix("jacobian", lin.jacobian)
        eig = ", ".join(f"{v.real:.9g}{v.imag:+.9g}j" for v in lin.eigenvalues)
        lines.append(f"eigenvalues = {eig}")
        lines.append(f"spectral_abscissa = {lin.spectral_abscissa:.9g}")
        lines.append(f"trace_residual = {lin.trace_residual:.3e}")
        lines.append(f"det_residual = {lin.det_residual:.3e}")
        lines.append("")
    lines.append(
        "decay_rate_note = position-block decay equals half the block trace "
        "(-alpha*H/4 gradient, -alpha/4 newton); constants -alpha*H/2 / "
        "-alpha/2 overstate it twofold"
    )
    if cert is not None:
        lines.append("")
        lines.append("[certificate]")
        lines += _format_matrix("P", cert.P)
        lines += _format_matrix("G", cert.G)
        lines.append(f"b = {cert.b:.12g}")
        lines.append(f"lambda_min_P = {cert.lam_min_p:.12g}")
        lines.append(f"g_norm = {cert.g_norm:.12g}")
        lines.append(f"lyapunov_residual = {cert.lyapunov_residual:.3e}")
    if grid_margins:
        lines.append("")
        lines.append("[grid_margins]")
        for key, value in grid_margins.items():
            lines.append(f"{key} = {value:.6e}")
    return "\n".join(lines) + "\n"
