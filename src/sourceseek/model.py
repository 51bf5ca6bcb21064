"""Signal-field and controller-parameter primitives.

Everything here is a plain value type or a pure function; the rest of the
package builds its dynamics on top of these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldParams",
    "SeekerParams",
    "eval_field",
]


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
        if not 0.0 < self.hessian < math.inf:
            raise ValueError(f"hessian must be finite and > 0, got {self.hessian}")
        if not math.isfinite(self.f_star):
            raise ValueError("f_star must be finite")
        object.__setattr__(self, "source", _as_point(self.source, "source"))


def eval_field(x, field: FieldParams) -> float | np.ndarray:
    """Evaluate the field at ``x``; broadcasts over leading axes of ``x``."""
    x = np.asarray(x, dtype=float)
    offset = x - field.source
    sq = np.sum(offset * offset, axis=-1)
    out = field.f_star - 0.5 * field.hessian * sq
    return float(out) if np.ndim(out) == 0 else out


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
        for name in ("omega", "omega0", "alpha", "h_gain", "omega_d"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
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
