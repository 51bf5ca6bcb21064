"""Signal-field and controller-parameter primitives, the report section and
the finite-and-positive check.

Everything here is a plain value type or a pure function; the rest of the
package builds its dynamics on top of these, its reports from
:func:`_section` and its checks of positive settings with :func:`_positive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldParams",
    "SeekerParams",
]


def _section(name: str, items, checks: dict | None = None) -> str:
    """Report section ``[name]``: one ``key = value`` line per pair of
    ``items``, then one ``check_<key> = pass|FAIL`` line per entry of
    ``checks``. Every report of the package is made of these sections."""
    lines = [f"[{name}]", *(f"{key} = {value}" for key, value in items)]
    lines += [f"check_{key} = {'pass' if ok else 'FAIL'}"
              for key, ok in (checks or {}).items()]
    return "\n".join(lines) + "\n"


def _positive(name: str, values) -> tuple:
    """``values`` as a tuple of floats, each finite and strictly positive:
    the one such check of the package's settings."""
    values = tuple(map(float, values))
    for v in values:
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {values}")
    return values


def _as_point(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"{name} must be a 2-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


@dataclass(frozen=True)
class FieldParams:
    """Radially symmetric quadratic signal field.

    The field peaks at ``source`` with value ``f_star`` and falls off with
    the squared distance, scaled by the positive curvature ``hessian``.
    Units are treated as dimensionless throughout the code.
    """

    f_star: float
    hessian: float
    source: np.ndarray

    def __post_init__(self):
        _positive("hessian", (self.hessian,))
        if not math.isfinite(self.f_star):
            raise ValueError("f_star must be finite")
        object.__setattr__(self, "source", _as_point(self.source, "source"))

    def at_offset(self, z1, z2):
        """The field at the offset ``(z1, z2)`` from the source,
        ``f* - H/2 (z1 z1 + z2 z2)``, the one definition of the map. It
        depends on the distance from the source alone, so the offset may be
        ``x - x*`` or, since a rotation keeps its length, the co-rotating
        ``z``, with the same value up to rounding: the original-frame loop
        takes it at ``x - x*`` for this
        (:func:`~sourceseek.seekers.closed_loop`). The entries may be
        floats, arrays or the duals and symbols of :mod:`sourceseek.numdiff`,
        with the same float operations on each."""
        return self.f_star - 0.5 * self.hessian * (z1 * z1 + z2 * z2)


@dataclass(frozen=True)
class SeekerParams:
    """Gains and frequencies shared by both seeking schemes.

    The derived quantities ``c`` (feedback gain), ``alpha_tilde`` (dither
    amplitude) and ``demod_gain`` are exposed as properties so they can never
    drift out of sync with the base parameters.
    """

    omega: float
    omega0: float
    alpha: float
    p_exp: float
    h_gain: float
    omega_d: float = 0.3

    def __post_init__(self):
        _positive("omega, omega0, alpha, h_gain and omega_d",
                  (self.omega, self.omega0, self.alpha, self.h_gain, self.omega_d))
        if not (0.5 < self.p_exp < 1.0):
            raise ValueError(f"p_exp must lie strictly in (0.5, 1), got {self.p_exp}")

    @property
    def c(self) -> float:
        """Feedback gain omega**(1 - p_exp)."""
        return self.omega ** (1.0 - self.p_exp)

    @property
    def alpha_tilde(self) -> float:
        """Dither amplitude alpha * omega**p_exp."""
        return self.alpha * self.omega ** self.p_exp

    @property
    def demod_gain(self) -> float:
        """Demodulation gain 8*omega**2 / alpha_tilde**2 of the inverse-curvature filter."""
        return 8.0 * self.omega**2 / self.alpha_tilde**2

    def as_dict(self) -> dict[str, float]:
        """Full resolved parameter set, derived values included."""
        return {
            "omega": self.omega,
            "omega0": self.omega0,
            "alpha": self.alpha,
            "p_exp": self.p_exp,
            "h_gain": self.h_gain,
            "omega_d": self.omega_d,
            "c": self.c,
            "alpha_tilde": self.alpha_tilde,
            "demod_gain": self.demod_gain,
        }
