"""Closed-loop source-seeking schemes and their averaged counterparts.

Two schemes are implemented. The gradient seeker modulates the forward speed
with a dithered, high-pass-filtered field measurement while the turn rate is
held constant; its mean motion climbs the field gradient, so its convergence
rate inherits the unknown field curvature. The curvature-inverting (newton)
seeker adds a scalar Riccati filter that estimates the inverse curvature from
a double-frequency demodulation and feeds it back into the forward speed,
which makes the mean convergence rate a pure function of the chosen gains.

Because the turn rate is constant, the heading is eliminated analytically
(theta = omega0 * t) in every closed-loop right-hand side here, so no
three-state unicycle model is needed: in the original frame the velocity is
the forward speed ``u1`` along the heading ``omega0 * t``.

Each defined (scheme, frame) pair has one entry in :data:`FRAME_SPECS`;
any other pair is undefined. The flat states are

=================================  =========================  ===============
(scheme, frame)                    flat state                 averaged form
=================================  =========================  ===============
gradient, original                 ``[x1, x2, nu]``
gradient, rotating_z               ``[z1, z2, nu]``
gradient, averaged_gradient        ``[z1, z2, nu]``           gradient
newton, original                   ``[x1, x2, d, nu]``
newton, rotating_z                 ``[z1, z2, d, nu]``
newton, rotating_z_log_d           ``[z1, z2, dtilde, nu]``
newton, averaged_newton            ``[z1, z2, d, nu]``        newton
newton, averaged_newton_exp        ``[z1, z2, dtilde, nu]``   newton_exp
newton, cascade_shifted            ``[r, z1, z2, dhat]``      newton_cascade
=================================  =========================  ===============

with ``z = Y(t)^T (x - x*)`` the co-rotating offset, ``dtilde = log(d)``,
``dhat = log(d H)`` and ``r = nu - F(x)`` the filter offset. The full
frames are integrated by :func:`closed_loop`, the averaged ones by
:func:`averaged_closed_loop`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .averaging import ControlAffineSystem, OscillatoryInput
from .model import FieldParams, SeekerParams

__all__ = [
    "Scheme",
    "Frame",
    "AveragedForm",
    "FrameSpec",
    "FRAME_SPECS",
    "rotation_matrix",
    "to_rotating_frame",
    "closed_loop",
    "averaged_closed_loop",
    "gradient_affine_system",
    "newton_affine_system",
]


class Scheme(enum.Enum):
    GRADIENT = "gradient"
    NEWTON = "newton"


class Frame(enum.Enum):
    ORIGINAL = "original"
    ROTATING_Z = "rotating_z"
    ROTATING_Z_LOG_D = "rotating_z_log_d"
    CASCADE_SHIFTED = "cascade_shifted"
    AVERAGED_GRADIENT = "averaged_gradient"
    AVERAGED_NEWTON = "averaged_newton"
    AVERAGED_NEWTON_EXP = "averaged_newton_exp"


class AveragedForm(enum.Enum):
    GRADIENT = "gradient"
    NEWTON = "newton"
    NEWTON_EXP = "newton_exp"
    NEWTON_CASCADE = "newton_cascade"


@dataclass(frozen=True)
class FrameSpec:
    """What the package knows about one (scheme, frame) pair.

    ``layout(p, nu0, d0, r0, hessian)`` builds the initial state from the
    frame's start position ``p`` (``x0`` when ``plane`` is set, else
    ``z0``), the filter start, the Riccati start, the filter offset
    ``r0 = nu0 - F(x0)`` and the field curvature. ``d_of(states, hessian)``
    maps recorded states back to raw ``d``.
    """

    dim: int
    form: AveragedForm | None  # closed-form averaged system; None for a full loop
    layout: Callable
    d_of: Callable | None  # None for the gradient scheme, which has no d
    raw_d: bool  # index 2 is a raw Riccati state that must stay positive
    position: tuple[int, int]  # state components holding the position
    plane: bool  # position is x, centred on the source; else z, centred on 0


def _plain(p, nu, d, r, hess):
    return (p[0], p[1], nu)


def _riccati(p, nu, d, r, hess):
    return (p[0], p[1], d, nu)


def _log_riccati(p, nu, d, r, hess):
    return (p[0], p[1], math.log(d), nu)


def _cascade(p, nu, d, r, hess):
    return (r, p[0], p[1], math.log(d * hess))


def _raw_d(states, hess):
    return states[:, 2]


def _exp_d(states, hess):
    return np.exp(states[:, 2])


def _cascade_d(states, hess):
    return np.exp(states[:, 3]) / hess


_G, _N, _F, _A = Scheme.GRADIENT, Scheme.NEWTON, Frame, AveragedForm

#: every defined (scheme, frame) pair; columns: dim, averaged form, layout,
#: d map, raw d, position components, plane
FRAME_SPECS: dict[tuple[Scheme, Frame], FrameSpec] = {
    (_G, _F.ORIGINAL): FrameSpec(3, None, _plain, None, False, (0, 1), True),
    (_G, _F.ROTATING_Z): FrameSpec(3, None, _plain, None, False, (0, 1), False),
    (_G, _F.AVERAGED_GRADIENT):
        FrameSpec(3, _A.GRADIENT, _plain, None, False, (0, 1), False),
    (_N, _F.ORIGINAL): FrameSpec(4, None, _riccati, _raw_d, True, (0, 1), True),
    (_N, _F.ROTATING_Z): FrameSpec(4, None, _riccati, _raw_d, True, (0, 1), False),
    (_N, _F.ROTATING_Z_LOG_D):
        FrameSpec(4, None, _log_riccati, _exp_d, False, (0, 1), False),
    (_N, _F.AVERAGED_NEWTON):
        FrameSpec(4, _A.NEWTON, _riccati, _raw_d, True, (0, 1), False),
    (_N, _F.AVERAGED_NEWTON_EXP):
        FrameSpec(4, _A.NEWTON_EXP, _log_riccati, _exp_d, False, (0, 1), False),
    (_N, _F.CASCADE_SHIFTED):
        FrameSpec(4, _A.NEWTON_CASCADE, _cascade, _cascade_d, False, (1, 2), False),
}


# ---------------------------------------------------------------------------
# rotating frame


def rotation_matrix(t: float, omega0: float) -> np.ndarray:
    """The 2x2 frame matrix Y(t) = [[sin w0 t, cos w0 t], [-cos w0 t, sin w0 t]]."""
    s, c = math.sin(omega0 * t), math.cos(omega0 * t)
    return np.array([[s, c], [-c, s]])


def to_rotating_frame(t: float, x, x_star, omega0: float) -> np.ndarray:
    """Co-rotating offset z = Y(t)^T (x - x_star)."""
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    return rotation_matrix(t, omega0).T @ (x - x_star)


# ---------------------------------------------------------------------------
# closed loops


def closed_loop(scheme: Scheme, frame: Frame, params: SeekerParams,
                field: FieldParams):
    """Build ``rhs(t, state)`` for the selected closed loop.

    The heading is eliminated (theta = omega0 t); see the module docstring
    for the state layout per (scheme, frame). The closure follows the
    :func:`~sourceseek.ode.integrate` contract: it takes the state as a
    sequence of floats and returns a tuple, without checking the state
    length (``integrate`` checks it once). It is immutable after
    construction and safe to evaluate concurrently. A pair with no closed
    loop raises ValueError.
    """
    w0 = params.omega0
    h = params.h_gain
    fs, hess = field.f_star, field.hessian
    xs1, xs2 = float(field.source[0]), float(field.source[1])
    c, at, wd = params.c, params.alpha_tilde, params.omega_d
    w, g2 = params.omega, params.demod_gain

    if scheme is Scheme.GRADIENT and frame is Frame.ORIGINAL:

        def rhs(t, s):
            x1, x2, nu = s
            dx1, dx2 = x1 - xs1, x2 - xs2
            y = fs - 0.5 * hess * (dx1 * dx1 + dx2 * dx2)
            err = y - nu
            u1 = c * err * math.sin(w * t) + at * math.cos(w * t)
            return (u1 * math.cos(w0 * t), u1 * math.sin(w0 * t), h * err)

    elif scheme is Scheme.GRADIENT and frame is Frame.ROTATING_Z:

        def rhs(t, s):
            z1, z2, nu = s
            y = fs - 0.5 * hess * (z1 * z1 + z2 * z2)
            err = y - nu
            u1 = c * err * math.sin(w * t) + at * math.cos(w * t)
            return (w0 * z2, -w0 * z1 + u1, h * err)

    elif scheme is Scheme.NEWTON and frame is Frame.ORIGINAL:

        def rhs(t, s):
            x1, x2, d, nu = s
            dx1, dx2 = x1 - xs1, x2 - xs2
            y = fs - 0.5 * hess * (dx1 * dx1 + dx2 * dx2)
            err = y - nu
            u1 = c * d * err * math.sin(w * t) + at * math.cos(w * t)
            ddot = wd * d * (1.0 - d * g2 * err * math.cos(2.0 * w * t))
            return (u1 * math.cos(w0 * t), u1 * math.sin(w0 * t), ddot, h * err)

    elif scheme is Scheme.NEWTON and frame is Frame.ROTATING_Z:

        def rhs(t, s):
            z1, z2, d, nu = s
            y = fs - 0.5 * hess * (z1 * z1 + z2 * z2)
            err = y - nu
            u1 = c * d * err * math.sin(w * t) + at * math.cos(w * t)
            ddot = wd * d * (1.0 - d * g2 * err * math.cos(2.0 * w * t))
            return (w0 * z2, -w0 * z1 + u1, ddot, h * err)

    elif scheme is Scheme.NEWTON and frame is Frame.ROTATING_Z_LOG_D:
        # substituting d = exp(dtilde) removes the unstable d = 0 fixed point

        def rhs(t, s):
            z1, z2, dtilde, nu = s
            y = fs - 0.5 * hess * (z1 * z1 + z2 * z2)
            ed, err = math.exp(dtilde), y - nu
            u1 = c * ed * err * math.sin(w * t) + at * math.cos(w * t)
            dtdot = wd * (1.0 - ed * g2 * err * math.cos(2.0 * w * t))
            return (w0 * z2, -w0 * z1 + u1, dtdot, h * err)

    else:
        raise ValueError(
            f"frame {frame.value!r} is not a closed-loop frame for scheme "
            f"{scheme.value!r}"
        )

    return rhs


# ---------------------------------------------------------------------------
# averaged systems (closed form)


def averaged_closed_loop(form: AveragedForm, params: SeekerParams,
                         field: FieldParams):
    """Build ``rhs(t, state)`` for the closed-form averaged system (ignores
    ``t``):

    gradient:        z' = (S + L) z,          nu' = h (F(z) - nu)
    newton:          z' = (S + L d) z,        d' = omega_d d (1 - H d),
                     nu' = h (F(z) - nu)
    newton_exp:      d replaced by exp(dtilde),
                     dtilde' = omega_d (1 - H exp(dtilde))
    newton_cascade:  shifted coordinates (r, z, dhat) with
                     r' = -h r + H z^T (S + Lt e^dhat) z,
                     z' = (S + Lt e^dhat) z, dhat' = -omega_d (e^dhat - 1)

    where S = [[0, omega0], [-omega0, 0]] is the constant-turn generator,
    L = diag(0, -alpha H / 2), and Lt = L / H is the curvature-normalized
    damping. Like :func:`closed_loop`, the closure takes a sequence of
    floats and returns a tuple without checking the state length.
    """
    w0, h, wd = params.omega0, params.h_gain, params.omega_d
    fs, hess = field.f_star, field.hessian
    lam = -0.5 * params.alpha * hess  # damping entry of L
    lam_t = -0.5 * params.alpha      # damping entry of Lt = L / H

    if form is AveragedForm.GRADIENT:

        def rhs(t, s):
            z1, z2, nu = s
            nu_dot = h * (fs - 0.5 * hess * (z1 * z1 + z2 * z2) - nu)
            return (w0 * z2, -w0 * z1 + lam * z2, nu_dot)

    elif form is AveragedForm.NEWTON:

        def rhs(t, s):
            z1, z2, d, nu = s
            nu_dot = h * (fs - 0.5 * hess * (z1 * z1 + z2 * z2) - nu)
            return (w0 * z2, -w0 * z1 + lam * d * z2, wd * d * (1.0 - hess * d), nu_dot)

    elif form is AveragedForm.NEWTON_EXP:

        def rhs(t, s):
            z1, z2, dtilde, nu = s
            ed = math.exp(dtilde)
            nu_dot = h * (fs - 0.5 * hess * (z1 * z1 + z2 * z2) - nu)
            return (w0 * z2, -w0 * z1 + lam * ed * z2, wd * (1.0 - hess * ed), nu_dot)

    elif form is AveragedForm.NEWTON_CASCADE:

        def rhs(t, s):
            r, z1, z2, dhat = s
            ed = math.exp(dhat)
            dz1 = w0 * z2
            dz2 = -w0 * z1 + lam_t * ed * z2
            r_dot = -h * r + hess * (z1 * dz1 + z2 * dz2)
            return (r_dot, dz1, dz2, -wd * (ed - 1.0))

    else:  # pragma: no cover
        raise ValueError(f"unsupported averaged form {form}")

    return rhs


# ---------------------------------------------------------------------------
# input-affine decompositions for the averaging engine


def gradient_affine_system(params: SeekerParams, field: FieldParams) -> ControlAffineSystem:
    """Gradient closed loop in the rotating frame, split into drift plus the
    two oscillatory channels scaled by omega**(1-p) and omega**p."""
    w0, h, alpha = params.omega0, params.h_gain, params.alpha
    fs, hess = field.f_star, field.hessian

    def drift(s):
        return np.array(
            [w0 * s[1], -w0 * s[0],
             h * (fs - 0.5 * hess * (s[0] ** 2 + s[1] ** 2) - s[2])]
        )

    def feedback_field(s):
        return np.array([0.0, fs - 0.5 * hess * (s[0] ** 2 + s[1] ** 2) - s[2], 0.0])

    def dither_field(s):
        return np.array([0.0, alpha, 0.0])

    return ControlAffineSystem(
        drift=drift,
        channels=(
            (feedback_field, OscillatoryInput(np.sin, 1, 1.0 - params.p_exp)),
            (dither_field, OscillatoryInput(np.cos, 1, params.p_exp)),
        ),
        dimension=3,
    )


def newton_affine_system(params: SeekerParams, field: FieldParams) -> ControlAffineSystem:
    """Curvature-inverting closed loop in the rotating frame, split into
    drift plus three oscillatory channels (feedback at omega, dither at
    omega, demodulation at 2*omega)."""
    w0, h, alpha, wd = params.omega0, params.h_gain, params.alpha, params.omega_d
    fs, hess = field.f_star, field.hessian
    demod = 8.0 * wd / alpha**2

    def err(s):
        return fs - 0.5 * hess * (s[0] ** 2 + s[1] ** 2) - s[3]

    def drift(s):
        return np.array([w0 * s[1], -w0 * s[0], wd * s[2], h * err(s)])

    def feedback_field(s):
        return np.array([0.0, s[2] * err(s), 0.0, 0.0])

    def dither_field(s):
        return np.array([0.0, alpha, 0.0, 0.0])

    def demod_field(s):
        return np.array([0.0, 0.0, -demod * s[2] ** 2 * err(s), 0.0])

    return ControlAffineSystem(
        drift=drift,
        channels=(
            (feedback_field, OscillatoryInput(np.sin, 1, 1.0 - params.p_exp)),
            (dither_field, OscillatoryInput(np.cos, 1, params.p_exp)),
            (demod_field, OscillatoryInput(np.cos, 2, 2.0 - 2.0 * params.p_exp)),
        ),
        dimension=4,
    )
