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
from functools import cached_property

import numpy as np

from .model import _positive, _section
from .numdiff import central_jacobian

__all__ = [
    "Linearization",
    "LyapunovCertificate",
    "EquilibriumError",
    "linearize",
    "build_certificate",
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

    ``f`` takes the state as a tuple: it is evaluated at ``x_eq`` as a tuple
    of floats, not numpy scalars. The Jacobian is exact, one dual evaluation
    of ``f`` per column, and the spectrum comes from QR iteration on the
    Hessenberg form (LAPACK). The eigenvalues must reproduce the trace and
    determinant of the Jacobian to 1e-8.

    Raises
    ------
    EquilibriumError
        If ``|f(x_eq)|`` exceeds 1e-6.
    TypeError
        If ``f`` is not arithmetic of the state and ``numdiff.exp``/``log``
        (it calls ``math.exp``, say).
    """
    x_eq = np.asarray(x_eq, dtype=float)
    point = tuple(x_eq.tolist())
    residual = float(np.linalg.norm(np.asarray(f(point), dtype=float)))
    if residual > EQUILIBRIUM_TOL:
        raise EquilibriumError(
            f"field residual {residual:.3e} at the supplied point exceeds "
            f"{EQUILIBRIUM_TOL}", residual,
        )
    jac = central_jacobian(f, point)
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
    """Explicit certificate for the position/filter cascade, derived from
    its three gains alone.

    ``P`` solves ``P A + A^T P = -I`` for the damped rotation block
    ``A = [[0, w0], [-w0, -alpha/2]]``; ``G = P Lt + Lt^T P`` collects the
    curvature-normalized damping ``Lt = diag(0, -alpha/2)``; and
    ``b = |G|^2 / (2 lambda_min(P))`` balances the cross term in the
    Lyapunov derivative. The certificate function is
    ``V = ln(1 + z^T P z) + (b/omega_d)(e^dhat - dhat - 1)``, whose
    derivative :func:`vdot_margin` bounds. :func:`build_certificate` checks
    the gains and the derived quantities.
    """

    alpha: float
    omega0: float
    omega_d: float

    @cached_property
    def P(self) -> np.ndarray:
        a, w0 = self.alpha, self.omega0
        return np.array([[a / (4.0 * w0**2) + 2.0 / a, 1.0 / (2.0 * w0)],
                         [1.0 / (2.0 * w0), 2.0 / a]])

    @cached_property
    def lam_tilde(self) -> np.ndarray:
        return np.diag([0.0, -0.5 * self.alpha])

    @cached_property
    def G(self) -> np.ndarray:
        return self.P @ self.lam_tilde + self.lam_tilde.T @ self.P

    @cached_property
    def b(self) -> float:
        return self.g_norm ** 2 / (2.0 * self.lam_min_p)

    @property
    def spin(self) -> np.ndarray:
        return np.array([[0.0, self.omega0], [-self.omega0, 0.0]])

    @cached_property
    def lam_min_p(self) -> float:
        return float(np.linalg.eigvalsh(self.P)[0])

    @cached_property
    def g_norm(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.G))))

    @property
    def lyapunov_residual(self) -> float:
        a = self.spin + self.lam_tilde
        return float(np.max(np.abs(self.P @ a + a.T @ self.P + np.eye(2))))


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
    _positive("alpha, omega0, omega_d and hessian", (alpha, omega0, omega_d, hessian))
    cert = LyapunovCertificate(alpha=alpha, omega0=omega0, omega_d=omega_d)
    lam_min = cert.lam_min_p
    if lam_min <= 0.0:
        raise ValueError(
            f"parameter regime rejected: certificate matrix has "
            f"lambda_min = {lam_min:.3e} <= 0"
        )
    if cert.lyapunov_residual >= LYAP_RESIDUAL_TOL:
        raise ValueError(
            f"algebraic identity residual {cert.lyapunov_residual:.3e} "
            f"exceeds {LYAP_RESIDUAL_TOL}"
        )
    # closed-form cross-checks of the spectral quantities
    g_norm_sq = cert.g_norm ** 2
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
    if abs(lam_min - lam_min_closed) > 1e-9 * max(1.0, abs(lam_min_closed)):
        raise ArithmeticError(
            f"lambda_min(P) = {lam_min} disagrees with closed form {lam_min_closed}"
        )
    return cert


#: the elements of the broadcast grid that :func:`vdot_margin` evaluates at
#: a time. Its five scratch arrays of this length stay in cache across the
#: ufuncs of a block, and at 32 KiB each they come from the allocator's
#: heap, where one array of 160 KiB may be mapped, and its pages first
#: touched, afresh on every call. A smaller block pays the ufuncs' call
#: overhead more often per element; a larger one touches more fresh pages
_BLOCK = 4096


def _components(z) -> tuple[np.ndarray, np.ndarray]:
    """The component views ``z1, z2`` of ``z`` (..., 2)."""
    z = np.asarray(z, dtype=float)
    return z[..., 0], z[..., 1]


def _mat_vec(mat: np.ndarray, z1, z2, out: tuple, scratch) -> tuple:
    """``M z`` of a 2x2 matrix into the pair ``out``, one component at a
    time, as ``m11 z1 + m12 z2`` and ``m21 z1 + m22 z2``; ``scratch``, an
    array of the same shape, holds each second product."""
    (m11, m12), (m21, m22) = mat.tolist()
    for row, (a, c) in zip(out, ((m11, m12), (m21, m22))):
        np.multiply(a, z1, out=row)
        np.add(row, np.multiply(c, z2, out=scratch), out=row)
    return out


def _cascade_dz(z1, z2, y, cert: LyapunovCertificate, out: tuple | None = None) -> tuple:
    """The cascade flow ``dz = (S + Lt) z + y Lt z``, given ``y = e^dhat - 1``,
    as its two components. ``S`` has only the off-diagonal entries
    ``+-omega0`` and ``Lt`` only its lower corner ``-alpha/2``, so the
    products are written out: ``dz1 = omega0 z2`` and
    ``dz2 = (-omega0 z1 + lam_z2) + y lam_z2`` with ``lam_z2 = -alpha/2 z2``.
    They are written into ``out``, a pair of arrays of the broadcast shape
    (new ones where it is None), the first holding ``lam_z2`` until ``dz2``
    is done."""
    if out is None:
        shape = np.broadcast_shapes(np.shape(z1), np.shape(z2), np.shape(y))
        out = np.empty(shape), np.empty(shape)
    dz1, dz2 = out
    lam_z2 = np.multiply(-0.5 * cert.alpha, z2, out=dz1)
    np.multiply(-cert.omega0, z1, out=dz2)
    np.add(dz2, lam_z2, out=dz2)
    np.add(dz2, np.multiply(y, lam_z2, out=lam_z2), out=dz2)
    np.multiply(cert.omega0, z2, out=dz1)
    return out


def _cascade_dr(r, z1, z2, dz, hessian: float, h_gain: float):
    """The offset flow ``dr = -h r + H z^T dz`` along the cascade."""
    return -h_gain * r + hessian * (z1 * dz[0] + z2 * dz[1])


def vdot_margin(z_bar, d_hat, cert: LyapunovCertificate):
    """Chain-rule derivative of the certificate along the cascade flow minus
    its negative-definite bound; a valid certificate keeps this <= 0.

    With ``y = e^dhat - 1`` and ``q = z^T P z``, the certificate
    ``V = ln(1 + q) + (b/omega_d)(e^dhat - dhat - 1)`` has, along
    ``dz = (S + Lt) z + y Lt z`` and ``d(dhat) = -omega_d y``, the derivative

        Vdot = 2 z^T P dz / (1 + q) - b y^2
             = (-|z|^2 + y z^T G z) / (1 + q) - b y^2,

    since ``2 z^T P (S + Lt) z = z^T (P A + A^T P) z = -|z|^2`` and
    ``2 z^T P Lt z = z^T (P Lt + Lt^T P) z = z^T G z``. The bound is
    ``(-|z|^2 / 2 - b y^2) / (1 + q)``, so the margin obeys

        vdot_margin * (1 + q) = -|z|^2 / 2 + y z^T G z - b y^2 q.

    With ``|z^T G z| <= |G| |z|^2``, ``q >= lambda_min(P) |z|^2`` and
    ``b = |G|^2 / (2 lambda_min(P))``, the right side is at most
    ``-|z|^2 / 2 + |G| |y| |z|^2 - (|G|^2 / 2) y^2 |z|^2
    = -(|z|^2 / 2)(1 - |G| |y|)^2 <= 0``: the margin is nonpositive at every
    state, for any gains :func:`build_certificate` accepts, and sampling it
    catches coding errors, not a false claim.

    The value is computed as written above the identity, by the same float
    operations on every element: ``2 (pz1 dz1 + pz2 dz2) / (1 + q) - b y^2``
    minus the bound. One pass over the broadcast grid of ``z_bar[..., 0]``
    and ``d_hat``, in C order, takes it in blocks of at most ``_BLOCK``
    elements (strided and broadcast inputs are read through the iterator,
    never copied whole). Each block computes in five scratch arrays of
    ``_BLOCK`` floats, allocated once per call, which in-place ufuncs reuse:
    ``y``, then ``b y^2``, and four that first hold ``P z`` and ``dz``. Its
    last operation writes the block of the result, the call's one array of
    the grid's size. A 0-d result is returned as a float.
    """
    z1, z2 = _components(z_bar)
    it = np.nditer([z1, z2, np.asarray(d_hat, dtype=float), None],
                   flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"]] * 3 + [["writeonly", "allocate"]],
                   order="C", buffersize=_BLOCK)
    scratch = [np.empty(min(it.itersize, _BLOCK)) for _ in range(5)]
    with it:
        for c1, c2, d_block, out in it:
            y, pz1, pz2, dz1, dz2 = (row[:out.size] for row in scratch)
            np.exp(d_block, out=y)
            np.subtract(y, 1.0, out=y)
            _mat_vec(cert.P, c1, c2, (pz1, pz2), scratch=dz1)
            _cascade_dz(c1, c2, y, cert, out=(dz1, dz2))
            flow = np.multiply(pz1, dz1, out=dz1)  # z^T P dz
            np.add(flow, np.multiply(pz2, dz2, out=dz2), out=flow)
            denom = np.multiply(c1, pz1, out=pz1)  # 1 + z^T P z
            np.add(denom, np.multiply(c2, pz2, out=pz2), out=denom)
            np.add(1.0, denom, out=denom)
            riccati = np.multiply(y, y, out=y)  # b y^2
            np.multiply(cert.b, riccati, out=riccati)
            vdot = np.multiply(2.0, flow, out=flow)
            np.divide(vdot, denom, out=vdot)
            np.subtract(vdot, riccati, out=vdot)
            bound = np.multiply(c1, c1, out=dz2)  # (-|z|^2 / 2 - b y^2) / (1 + q)
            np.add(bound, np.multiply(c2, c2, out=pz2), out=bound)
            np.multiply(-0.5, bound, out=bound)
            np.subtract(bound, riccati, out=bound)
            np.divide(bound, denom, out=bound)
            np.subtract(vdot, bound, out=out)
        result = it.operands[3]
    return float(result) if result.ndim == 0 else result


def iss_bound_check(r, z_bar, d_hat, hessian: float, h_gain: float,
                    cert: LyapunovCertificate):
    """Margin of the filter-offset decay bound; nonnegative when the bound holds.

    The offset coordinate obeys dr = -h r + H z^T (S + Lt e^dhat) z along the
    cascade. The bound compares the one-sided derivative of |r| against
    -h |r| + H (2|g|)^2 (|S| + e^(2|g|) |Lt|) with g = (z, dhat), and the
    returned margin is bound minus actual.

    It holds at every point, for any gains: the one-sided derivative is
    ``sign(r) dr <= -h |r| + H |z^T dz|`` where ``r != 0`` and
    ``|dr| = H |z^T dz|`` where ``r = 0``, and
    ``|z^T dz| <= |z|^2 (|S| + e^dhat |Lt|) = |z|^2 (omega0 + e^dhat alpha/2)``.
    Since ``|g| >= |z|`` and ``2|g| >= |dhat| >= dhat``, the stated bound is
    at least that large, so the margin is nonnegative: ``r`` is
    input-to-state stable with respect to ``g``, with the class-K gains
    ``h s`` and ``H (2s)^2 (omega0 + e^(2s) alpha/2)``.
    """
    r = np.asarray(r, dtype=float)
    z1, z2 = _components(z_bar)
    d_hat = np.asarray(d_hat, dtype=float)
    dz = _cascade_dz(z1, z2, np.exp(d_hat) - 1.0, cert)
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


def _matrix(mat: np.ndarray) -> str:
    """A matrix as report text, ``[row; row | row; row]``."""
    rows = ["; ".join(f"{v:.12g}" for v in row) for row in np.atleast_2d(mat).tolist()]
    return f"[{' | '.join(rows)}]"


def _grid_margins(margins: dict, checks: dict | None = None) -> str:
    """The ``[grid_margins]`` section: each worst-case margin, then ``checks``."""
    return _section("grid_margins", [(k, f"{v:.6e}") for k, v in margins.items()], checks)


def stability_report(linearizations: dict, cert: LyapunovCertificate | None = None,
                     grid_margins: dict | None = None) -> str:
    """Structured key-value text: the ``[stability_report]`` section with the
    decay-rate note, then matrices, spectra, residuals, and worst-case
    certificate margins."""
    note = ("position-block decay equals half the block trace (-alpha*H/4 gradient, "
            "-alpha/4 newton); constants -alpha*H/2 / -alpha/2 overstate it twofold")
    blocks = [_section("stability_report", [("decay_rate_note", note)])]
    for name, lin in linearizations.items():
        eig = ", ".join(f"{v.real:.9g}{v.imag:+.9g}j" for v in lin.eigenvalues.tolist())
        blocks.append(_section(f"linearization {name}", [
            ("equilibrium", _matrix(lin.equilibrium)),
            ("jacobian", _matrix(lin.jacobian)),
            ("eigenvalues", eig),
            ("spectral_abscissa", f"{lin.spectral_abscissa:.9g}"),
            ("trace_residual", f"{lin.trace_residual:.3e}"),
            ("det_residual", f"{lin.det_residual:.3e}"),
        ]))
    if cert is not None:
        blocks.append(_section("certificate", [
            ("P", _matrix(cert.P)),
            ("G", _matrix(cert.G)),
            ("b", f"{cert.b:.12g}"),
            ("lambda_min_P", f"{cert.lam_min_p:.12g}"),
            ("g_norm", f"{cert.g_norm:.12g}"),
            ("lyapunov_residual", f"{cert.lyapunov_residual:.3e}"),
        ]))
    if grid_margins:
        blocks.append(_grid_margins(grid_margins))
    return "\n".join(blocks)
