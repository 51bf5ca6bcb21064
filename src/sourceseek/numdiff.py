"""Central finite differences for vector fields."""

from __future__ import annotations

import numpy as np

__all__ = ["fd_step_length", "central_jacobian", "directional_derivative"]

#: cube root of machine epsilon, the standard central-difference step scale
_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


def fd_step_length(x: np.ndarray) -> float:
    """Central-difference step eps**(1/3) * max(1, ||x||).

    Scaling by the state norm rather than per-coordinate magnitudes keeps
    the difference quotients conditioned when the state mixes O(1) and
    O(100) components but the field couples them.
    """
    return _EPS_CBRT * max(1.0, float(np.linalg.norm(x)))


def _evaluate(f, x: np.ndarray) -> np.ndarray:
    out = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"non-finite field evaluation at {x}")
    return out


def central_jacobian(f, x, step=None) -> np.ndarray:
    """Jacobian of ``f`` at ``x`` by central differences.

    Parameters
    ----------
    f : callable
        Maps an (n,) array to an (m,) array.
    x : array_like, shape (n,)
        Evaluation point.
    step : float or array_like, optional
        Step per component; defaults to :func:`fd_step_length` of ``x`` for
        every component.

    Raises
    ------
    ValueError
        If any evaluation returns a non-finite value; the offending point
        is included in the message.
    """
    x = np.asarray(x, dtype=float)
    h = np.broadcast_to(
        fd_step_length(x) if step is None else np.asarray(step, dtype=float), x.shape
    )
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h[j]
        xm[j] -= h[j]
        fp = _evaluate(f, xp)
        fm = _evaluate(f, xm)
        cols.append((fp - fm) / (2.0 * h[j]))
    return np.column_stack(cols)


def directional_derivative(f, x, v, step=None) -> np.ndarray:
    """``Df(x)[v]`` by one central difference along ``v``.

    ``f`` is evaluated at ``x +/- step * v / ||v||`` (two evaluations), so
    the displacement has length ``step`` whatever the size of ``v``;
    ``step`` defaults to :func:`fd_step_length` of ``x``. A zero direction
    gives zeros of the shape of ``v`` without evaluating ``f``, so ``f``
    must map into the space of ``v`` (a vector field).

    Raises
    ------
    ValueError
        If an evaluation returns a non-finite value; the offending point is
        included in the message.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    length = float(np.linalg.norm(v))
    if length == 0.0:
        return np.zeros_like(v)
    h = fd_step_length(x) if step is None else float(step)
    dx = (h / length) * v
    return (_evaluate(f, x + dx) - _evaluate(f, x - dx)) * (length / (2.0 * h))
