"""Closed-loop source-seeking schemes and their averaged counterparts.

Two schemes are implemented. The gradient seeker modulates the forward speed
with a dithered, high-pass-filtered field measurement while the turn rate is
held constant; its mean motion climbs the field gradient, so its convergence
rate inherits the unknown field curvature. The curvature-inverting (newton)
seeker adds a scalar Riccati filter that estimates the inverse curvature from
a double-frequency demodulation and feeds it back into the forward speed,
which makes the mean convergence rate a pure function of the chosen gains.

Each defined (scheme, frame) pair has one entry in :data:`FRAME_SPECS`;
any other pair is undefined. The loop's own state is ``[p1, p2, d, nu]``
(``[p1, p2, nu]`` for the gradient scheme), with ``p`` the position ``x`` in
the ``original`` frame and the co-rotating offset ``z = Y(t)^T (x - x*)`` in
every other; the field's map at ``z`` is ``F(z) = f* - H/2 |z|^2``
(:meth:`~sourceseek.model.FieldParams.at_offset`). Two maps ``(to, back)``
change coordinates:

* ``_log_d`` to ``[z1, z2, dtilde, nu]`` with ``dtilde = log d``, in the
  ``rotating_z_log_d`` and ``averaged_newton_exp`` frames;
* ``_cascade`` to ``[r, z1, z2, dhat]`` with the filter offset
  ``r = nu - F(z)`` and ``dhat = log(d H)``, in the ``cascade_shifted`` frame.

A full frame is its scheme's affine system (:func:`gradient_affine_system`,
:func:`newton_affine_system`), the one definition of its dynamics, rendered
by :func:`closed_loop`: ``drift(z) + sum_i omega**p_i u_i(k_i omega t) f_i(z)``
in ``rotating_z``. The turn rate is constant, so the heading
``theta = omega0 t`` is eliminated and no three-state unicycle model is
needed: ``original`` hands the fields the plain offset ``x - x*`` where
``rotating_z`` hands them ``z = Y(t)^T (x - x*)``, since they read the
position only through the map, which depends on the distance alone
(:meth:`~sourceseek.model.FieldParams.at_offset`), and gives ``x' = Y(t)``
times the channels' position block, the forward speed along the heading,
since ``Y`` absorbs the drift's position block, the turn
``(omega0 z2, -omega0 z1)``, which ``original`` discards with the rest of
that block. An averaged frame is its scheme's
:func:`averaged_closed_loop`, and a frame with a map is its loop pushed
forward through it (:func:`push_forward`); :func:`closed_loop` builds every
pair, so it is the one place that picks the rendered loop or the closed
form. Every closure is traceable
(:mod:`sourceseek.numdiff`: arithmetic and numdiff's ``sin``, ``cos``,
``exp`` and ``log``, ``math``'s on floats), so
:func:`~sourceseek.ode.integrate` steps it as straight-line code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .averaging import ControlAffineSystem, OscillatoryInput
from .model import FieldParams, SeekerParams
from .numdiff import Sym, Tape, cos, directional_derivative, exp, log, sin

__all__ = [
    "Scheme",
    "Frame",
    "FrameSpec",
    "FRAME_SPECS",
    "frame_spec",
    "to_rotating_frame",
    "push_forward",
    "closed_loop",
    "averaged_closed_loop",
    "affine_system",
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


#: the averaged systems are named by :class:`Scheme`; bench/workloads.py
#: still reads them by this name
AveragedForm = Scheme


@dataclass(frozen=True)
class FrameSpec:
    """What the package knows about one (scheme, frame) pair."""

    averaged: bool  # the scheme's averaged system; else its full loop
    # field -> (to, back) between the loop's own state and the frame's, or None
    coordinates: Callable | None
    position: tuple[int, int]  # state components holding the position
    plane: bool  # position is x, centred on the source; else z, centred on 0
    # components that must stay > 0 after every step (integrate's guard): a
    # newton state's raw d, whose invariant basin is d > 0
    positive: tuple[int, ...]


def _log_d(field):
    """``dtilde = log d``, which removes the unstable fixed point d = 0."""
    return (lambda x: (x[0], x[1], log(x[2]), x[3]),
            lambda y: (y[0], y[1], exp(y[2]), y[3]))


def _cascade(field):
    """``(r, z1, z2, dhat) = (nu - F(z), z1, z2, log(d H))``."""
    f, hess = field.at_offset, field.hessian
    return (lambda x: (x[3] - f(x[0], x[1]), x[0], x[1], log(x[2] * hess)),
            lambda y: (y[1], y[2], exp(y[3]) / hess, y[0] + f(y[1], y[2])))


_G, _N, _F = Scheme.GRADIENT, Scheme.NEWTON, Frame

#: every defined (scheme, frame) pair
FRAME_SPECS: dict[tuple[Scheme, Frame], FrameSpec] = {
    (_G, _F.ORIGINAL): FrameSpec(False, None, (0, 1), True, ()),
    (_G, _F.ROTATING_Z): FrameSpec(False, None, (0, 1), False, ()),
    (_G, _F.AVERAGED_GRADIENT): FrameSpec(True, None, (0, 1), False, ()),
    (_N, _F.ORIGINAL): FrameSpec(False, None, (0, 1), True, (2,)),
    (_N, _F.ROTATING_Z): FrameSpec(False, None, (0, 1), False, (2,)),
    (_N, _F.ROTATING_Z_LOG_D): FrameSpec(False, _log_d, (0, 1), False, ()),
    (_N, _F.AVERAGED_NEWTON): FrameSpec(True, None, (0, 1), False, (2,)),
    (_N, _F.AVERAGED_NEWTON_EXP): FrameSpec(True, _log_d, (0, 1), False, ()),
    (_N, _F.CASCADE_SHIFTED): FrameSpec(True, _cascade, (1, 2), False, ()),
}


def frame_spec(scheme: Scheme, frame: Frame) -> FrameSpec:
    """The :data:`FRAME_SPECS` entry of the pair; ValueError for a pair
    outside it, or a scheme or frame that is not a member."""
    if not (isinstance(scheme, Scheme) and isinstance(frame, Frame)):
        raise ValueError(f"scheme and frame must be Scheme and Frame members, "
                         f"got {scheme!r} and {frame!r}")
    spec = FRAME_SPECS.get((scheme, frame))
    if spec is None:
        raise ValueError(f"frame {frame.value!r} is undefined for scheme {scheme.value!r}")
    return spec


def push_forward(rhs, coordinates):
    """``rhs(t, x)`` in the coordinates of the map ``(to, back)``:
    ``y' = Dto(x)[rhs(t, x)]`` at ``x = back(y)``."""
    to, back = coordinates

    def pushed(t, y):
        x = back(y)
        return directional_derivative(to, x, rhs(t, x))

    return pushed


# ---------------------------------------------------------------------------
# rotating frame


def _unrotate(s, c, d1, d2) -> tuple:
    """``Y^T d`` of the frame matrix ``Y = [[s, c], [-c, s]]``, with
    ``s, c = sin(omega0 t), cos(omega0 t)``."""
    return s * d1 - c * d2, c * d1 + s * d2


def to_rotating_frame(t: float, x, x_star, omega0: float) -> np.ndarray:
    """Co-rotating offset z = Y(t)^T (x - x_star)."""
    d1, d2 = np.subtract(x, x_star, dtype=float).tolist()
    return np.array(_unrotate(sin(omega0 * t), cos(omega0 * t), d1, d2))


# ---------------------------------------------------------------------------
# closed loops


def closed_loop(scheme: Scheme, frame: Frame, params: SeekerParams,
                field: FieldParams):
    """Build ``rhs(t, state)`` for ``scheme`` in ``frame`` (see the module
    docstring): the full loop rendered from the scheme's affine system, or
    its closed-form :func:`averaged_closed_loop`, pushed forward through the
    frame's map where it has one. A pure function of the time and a sequence
    of scalars (floats, or the symbols :func:`~sourceseek.ode.integrate`
    traces it on) that returns a tuple. A pair outside :data:`FRAME_SPECS`
    raises ValueError."""
    spec = frame_spec(scheme, frame)
    if spec.averaged:
        rhs = averaged_closed_loop(scheme, params, field)
    else:
        rhs = _full_loop(affine_system(scheme, params, field), spec.plane, params, field)
    return push_forward(rhs, spec.coordinates(field)) if spec.coordinates else rhs


def _full_loop(system: ControlAffineSystem, plane: bool, params: SeekerParams,
               field: FieldParams):
    """The full loop of ``system`` in ``z``, or in ``x`` on the ``plane``.
    On the plane the fields take the offset ``x - x*`` in place of ``z``:
    they read the position only through the map, whose value depends on
    the offset's length alone, and ``original`` keeps only the fields'
    other components and the channels' position block, turned by ``Y``."""
    drift, oscillation = system.drift, _oscillation(system, params.omega)
    w0, xs1, xs2 = params.omega0, float(field.source[0]), float(field.source[1])

    def rotating(t, z):
        return tuple(map(_plus, drift(z), oscillation(t, z)))

    def original(t, x):
        s, c = sin(w0 * t), cos(w0 * t)
        z = (x[0] - xs1, x[1] - xs2, *x[2:])  # |x - x*| = |z|
        p1, p2, *other = oscillation(t, z)
        return (_dot(s, c, p1, p2), _dot(-c, s, p1, p2),
                *map(_plus, drift(z)[2:], other))

    return original if plane else rotating


def _oscillation(system: ControlAffineSystem, omega: float):
    """``(t, z) -> sum_i omega**p_i u_i(k_i omega t) f_i(z)`` as a list, None
    where no channel moves the component; each field's symbolic and constant
    components (``c``, folded as ``(omega**p_i c) u_i``) are found on symbols,
    once, so the same operations run at every state."""
    symbols, channels = Tape(system.dimension).state, []
    for f, inp in system.channels:
        scale, traced = omega ** inp.p_i, f(symbols)
        terms = [(j, None if type(c) is Sym else scale * c)
                 for j, c in enumerate(traced) if type(c) is Sym or c != 0.0]
        channels.append((f, inp.wave, float(inp.k) * omega, scale, terms))

    def oscillation(t, z):
        out = [None] * len(z)
        for f, wave, frequency, scale, terms in channels:
            u = wave(frequency * t)
            gain, values = scale * u, f(z)
            for j, c in terms:
                out[j] = _plus(out[j], gain * values[j] if c is None else c * u)
        return out

    return oscillation


def _plus(a, b):
    """``a + b``, where None is a structural zero."""
    return a if b is None else b if a is None else a + b


def _dot(a, b, p, q):
    """``a p + b q``, where None is a structural zero."""
    out = _plus(None if p is None else a * p, None if q is None else b * q)
    return 0.0 if out is None else out


# ---------------------------------------------------------------------------
# averaged systems (closed form)


def averaged_closed_loop(scheme: Scheme, params: SeekerParams,
                         field: FieldParams):
    """Build ``rhs(t, state)`` for the closed-form averaged system of
    ``scheme`` (ignores ``t``):

    gradient:  z' = (S + L) z,     nu' = h (F(z) - nu)
    newton:    z' = (S + L d) z,   d' = omega_d d (1 - H d),
               nu' = h (F(z) - nu)

    where S = [[0, omega0], [-omega0, 0]] is the constant-turn generator and
    L = diag(0, -alpha H / 2), and F is the field's map
    (:meth:`~sourceseek.model.FieldParams.at_offset`). The log-Riccati and
    cascade frames are the newton system pushed forward through their maps
    (see :data:`FRAME_SPECS`).
    Like :func:`closed_loop`, the closure takes a sequence of floats and
    returns a tuple without checking the state length; it unpacks an array
    state through ``tolist()``, so that it computes on floats, not on numpy
    scalars.
    """
    w0, h, wd, hess = params.omega0, params.h_gain, params.omega_d, field.hessian
    f = field.at_offset
    lam = -0.5 * params.alpha * hess  # damping entry of L

    if scheme is Scheme.GRADIENT:

        def rhs(t, s):
            z1, z2, nu = s.tolist() if type(s) is np.ndarray else s
            nu_dot = h * (f(z1, z2) - nu)
            return (w0 * z2, -w0 * z1 + lam * z2, nu_dot)

    elif scheme is Scheme.NEWTON:

        def rhs(t, s):
            z1, z2, d, nu = s.tolist() if type(s) is np.ndarray else s
            nu_dot = h * (f(z1, z2) - nu)
            return (w0 * z2, -w0 * z1 + lam * d * z2, wd * d * (1.0 - hess * d), nu_dot)

    else:  # pragma: no cover
        raise ValueError(f"unsupported scheme {scheme}")

    return rhs


# ---------------------------------------------------------------------------
# input-affine systems: the full loops and the averaging engine's input


def affine_system(scheme: Scheme, params: SeekerParams,
                  field: FieldParams) -> ControlAffineSystem:
    """The affine system of ``scheme``'s loop in the rotating frame. The
    builder is the module attribute read at this call, so a replaced
    attribute is the one that builds."""
    return (newton_affine_system if scheme is Scheme.NEWTON
            else gradient_affine_system)(params, field)


def gradient_affine_system(params: SeekerParams, field: FieldParams) -> ControlAffineSystem:
    """Gradient closed loop in the rotating frame, split into drift plus the
    two oscillatory channels scaled by omega**(1-p) and omega**p. Each field
    takes the state as a tuple and returns a tuple (see
    :class:`~sourceseek.averaging.ControlAffineSystem`)."""
    w0, h, alpha = params.omega0, params.h_gain, params.alpha
    f = field.at_offset

    def err(s):
        return f(s[0], s[1]) - s[2]

    def drift(s):
        return (w0 * s[1], -w0 * s[0], h * err(s))

    def feedback_field(s):
        return (0.0, err(s), 0.0)

    def dither_field(s):
        return (0.0, alpha, 0.0)

    return ControlAffineSystem(
        drift=drift,
        channels=(
            (feedback_field, OscillatoryInput(sin, 1, 1.0 - params.p_exp)),
            (dither_field, OscillatoryInput(cos, 1, params.p_exp)),
        ),
        dimension=3,
    )


def newton_affine_system(params: SeekerParams, field: FieldParams) -> ControlAffineSystem:
    """Curvature-inverting closed loop in the rotating frame, split into
    drift plus three oscillatory channels (feedback at omega, dither at
    omega, demodulation at 2*omega), each a field on tuples as in
    :func:`gradient_affine_system`."""
    w0, h, alpha, wd = params.omega0, params.h_gain, params.alpha, params.omega_d
    f, demod = field.at_offset, 8.0 * wd / alpha**2

    def err(s):
        return f(s[0], s[1]) - s[3]

    def drift(s):
        return (w0 * s[1], -w0 * s[0], wd * s[2], h * err(s))

    def feedback_field(s):
        return (0.0, s[2] * err(s), 0.0, 0.0)

    def dither_field(s):
        return (0.0, alpha, 0.0, 0.0)

    def demod_field(s):
        return (0.0, 0.0, -demod * (s[2] * s[2]) * err(s), 0.0)

    return ControlAffineSystem(
        drift=drift,
        channels=(
            (feedback_field, OscillatoryInput(sin, 1, 1.0 - params.p_exp)),
            (dither_field, OscillatoryInput(cos, 1, params.p_exp)),
            (demod_field, OscillatoryInput(cos, 2, 2.0 - 2.0 * params.p_exp)),
        ),
        dimension=4,
    )
