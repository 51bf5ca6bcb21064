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
any other pair is undefined. The loop's own state is ``[p1, p2, d, nu]``
(``[p1, p2, nu]`` for the gradient scheme), with ``p`` the position ``x`` in
the ``original`` frame and the co-rotating offset ``z = Y(t)^T (x - x*)`` in
every other. Two maps ``(to, back)`` change coordinates:

* ``_log_d`` to ``[z1, z2, dtilde, nu]`` with ``dtilde = log d``, in the
  ``rotating_z_log_d`` and ``averaged_newton_exp`` frames;
* ``_cascade`` to ``[r, z1, z2, dhat]`` with the filter offset
  ``r = nu - F(z)`` and ``dhat = log(d H)``, in the ``cascade_shifted`` frame.

The full frames are integrated by :func:`closed_loop`. An averaged frame is
one of the two forms of :func:`averaged_closed_loop`, which
``Scenario.build_rhs`` pushes forward through the frame's map, if any.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .averaging import ControlAffineSystem, OscillatoryInput
from .model import FieldParams, SeekerParams
from .numdiff import exp, log

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


@dataclass(frozen=True)
class FrameSpec:
    """What the package knows about one (scheme, frame) pair."""

    form: AveragedForm | None  # averaged system; None for a full loop
    # field -> (to, back) between the loop's own state and the frame's; None
    # is the identity, where a newton state holds the raw d, which stays > 0
    coordinates: Callable | None
    position: tuple[int, int]  # state components holding the position
    plane: bool  # position is x, centred on the source; else z, centred on 0


def _log_d(field):
    """``dtilde = log d``, which removes the unstable fixed point d = 0."""
    return (lambda x: (x[0], x[1], log(x[2]), x[3]),
            lambda y: (y[0], y[1], exp(y[2]), y[3]))


def _cascade(field):
    """``(r, z1, z2, dhat) = (nu - F(z), z1, z2, log(d H))``."""
    fs, hess = field.f_star, field.hessian

    def f(z1, z2):
        return fs - 0.5 * hess * (z1 * z1 + z2 * z2)

    return (lambda x: (x[3] - f(x[0], x[1]), x[0], x[1], log(x[2] * hess)),
            lambda y: (y[1], y[2], exp(y[3]) / hess, y[0] + f(y[1], y[2])))


_G, _N, _F, _A = Scheme.GRADIENT, Scheme.NEWTON, Frame, AveragedForm

#: every defined (scheme, frame) pair
FRAME_SPECS: dict[tuple[Scheme, Frame], FrameSpec] = {
    (_G, _F.ORIGINAL): FrameSpec(None, None, (0, 1), True),
    (_G, _F.ROTATING_Z): FrameSpec(None, None, (0, 1), False),
    (_G, _F.AVERAGED_GRADIENT): FrameSpec(_A.GRADIENT, None, (0, 1), False),
    (_N, _F.ORIGINAL): FrameSpec(None, None, (0, 1), True),
    (_N, _F.ROTATING_Z): FrameSpec(None, None, (0, 1), False),
    (_N, _F.ROTATING_Z_LOG_D): FrameSpec(None, _log_d, (0, 1), False),
    (_N, _F.AVERAGED_NEWTON): FrameSpec(_A.NEWTON, None, (0, 1), False),
    (_N, _F.AVERAGED_NEWTON_EXP): FrameSpec(_A.NEWTON, _log_d, (0, 1), False),
    (_N, _F.CASCADE_SHIFTED): FrameSpec(_A.NEWTON, _cascade, (1, 2), False),
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

    gradient:  z' = (S + L) z,     nu' = h (F(z) - nu)
    newton:    z' = (S + L d) z,   d' = omega_d d (1 - H d),
               nu' = h (F(z) - nu)

    where S = [[0, omega0], [-omega0, 0]] is the constant-turn generator and
    L = diag(0, -alpha H / 2). The log-Riccati and cascade frames are the
    newton form pushed forward through their maps (see :data:`FRAME_SPECS`).
    Like :func:`closed_loop`, the closure takes a sequence of floats and
    returns a tuple without checking the state length.
    """
    w0, h, wd = params.omega0, params.h_gain, params.omega_d
    fs, hess = field.f_star, field.hessian
    lam = -0.5 * params.alpha * hess  # damping entry of L

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

    else:  # pragma: no cover
        raise ValueError(f"unsupported averaged form {form}")

    return rhs


# ---------------------------------------------------------------------------
# input-affine decompositions for the averaging engine


def gradient_affine_system(params: SeekerParams, field: FieldParams) -> ControlAffineSystem:
    """Gradient closed loop in the rotating frame, split into drift plus the
    two oscillatory channels scaled by omega**(1-p) and omega**p. Each field
    takes the state as a tuple and returns a tuple (see
    :class:`~sourceseek.averaging.ControlAffineSystem`)."""
    w0, h, alpha = params.omega0, params.h_gain, params.alpha
    fs, hess = field.f_star, field.hessian

    def drift(s):
        return (w0 * s[1], -w0 * s[0],
                h * (fs - 0.5 * hess * (s[0] ** 2 + s[1] ** 2) - s[2]))

    def feedback_field(s):
        return (0.0, fs - 0.5 * hess * (s[0] ** 2 + s[1] ** 2) - s[2], 0.0)

    def dither_field(s):
        return (0.0, alpha, 0.0)

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
    omega, demodulation at 2*omega), each a field on tuples as in
    :func:`gradient_affine_system`."""
    w0, h, alpha, wd = params.omega0, params.h_gain, params.alpha, params.omega_d
    fs, hess = field.f_star, field.hessian
    demod = 8.0 * wd / alpha**2

    def err(s):
        return fs - 0.5 * hess * (s[0] ** 2 + s[1] ** 2) - s[3]

    def drift(s):
        return (w0 * s[1], -w0 * s[0], wd * s[2], h * err(s))

    def feedback_field(s):
        return (0.0, s[2] * err(s), 0.0, 0.0)

    def dither_field(s):
        return (0.0, alpha, 0.0, 0.0)

    def demod_field(s):
        return (0.0, 0.0, -demod * s[2] ** 2 * err(s), 0.0)

    return ControlAffineSystem(
        drift=drift,
        channels=(
            (feedback_field, OscillatoryInput(np.sin, 1, 1.0 - params.p_exp)),
            (dither_field, OscillatoryInput(np.cos, 1, params.p_exp)),
            (demod_field, OscillatoryInput(np.cos, 2, 2.0 - 2.0 * params.p_exp)),
        ),
        dimension=4,
    )
