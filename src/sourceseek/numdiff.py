"""Exact first derivatives of vector fields by forward-mode dual numbers.

``f`` evaluated once at the dual point ``x + eps v`` (``eps**2 = 0``) has
dual part ``Df(x)[v]``, exact to rounding. The parts of a :class:`Dual` may
be duals, so a derivative of a derivative (a nested Lie bracket) is the same
call at a dual point. A differentiated field must be arithmetic of its state
(``+``, ``-``, ``*``, ``/`` and integer ``**``) and this module's :func:`exp`
and :func:`log`; ``math.exp`` or a numpy ufunc of a dual raises ``TypeError``.

Fields take their state as a tuple of scalars, floats at a real point and
:class:`Dual` s at a dual one, and return a sequence of components, one per
state entry; a component that does not depend on the state may be a plain
float. Treating the state as an array (``2 * s``, ``-s``) is outside this
contract. Tuples keep a dual evaluation to one Python object per component,
with no object array built around them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["central_jacobian", "directional_derivative", "exp", "log"]


class Dual:
    """``real + dual * eps`` with ``eps**2 = 0``; either part may be a Dual."""

    __slots__ = ("real", "dual")
    __array_ufunc__ = None  # numpy scalars and arrays defer to these methods

    def __init__(self, real, dual):
        self.real = real
        self.dual = dual

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.real + other.real, self.dual + other.dual)
        return Dual(self.real + other, self.dual)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.real, -self.dual)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.real * other.real,
                        self.real * other.dual + self.dual * other.real)
        return Dual(self.real * other, self.dual * other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return Dual(self.real ** n, n * self.real ** (n - 1) * self.dual)

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return self * other ** -1
        return Dual(self.real / other, self.dual / other)

    def __rtruediv__(self, other):
        return other * self ** -1


def exp(x):
    """``e**x`` of a float, an array or a :class:`Dual`."""
    if isinstance(x, Dual):
        e = exp(x.real)
        return Dual(e, e * x.dual)
    return np.exp(x)


def log(x):
    """Natural logarithm of a float, an array or a :class:`Dual`."""
    if isinstance(x, Dual):
        return Dual(log(x.real), x.dual / x.real)
    return np.log(x)


def directional_derivative(f, x, v) -> np.ndarray | tuple:
    """``Df(x)[v]``, the dual part of ``f(x + eps v)``; ``x`` and ``v`` are
    sequences of scalars, and ``x`` is either real or a dual point, with a
    dual in every entry; ``v`` may hold duals. An entry of ``f``'s value that
    is not a dual does not depend on the state and has derivative 0. A zero
    direction gives zeros of the length of ``v`` without evaluating ``f``, so
    ``f`` must map into the space of ``v`` (a vector field).

    Returns a float array at a real point and a tuple at a dual one, where
    the result is a field value that the next derivative differentiates.
    """
    if not any(v):
        out = [0.0] * len(v)
    else:
        out = [y.dual if isinstance(y, Dual) else 0.0
               for y in f(tuple(map(Dual, x, v)))]
    return tuple(out) if isinstance(x[0], Dual) else np.array(out)


def central_jacobian(f, x) -> np.ndarray:
    """Jacobian of ``f`` at ``x``, one dual evaluation per column. The name
    predates the dual path; bench/tracer.py wraps it by name."""
    return np.column_stack([directional_derivative(f, x, e) for e in np.eye(len(x))])
