"""Exact first derivatives of vector fields by forward-mode dual numbers, and
straight-line code traced from them.

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

Tracing (tape-based code generation; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008). The same code runs once on the symbols
of a :class:`Tape`, and the parts of a dual may be symbols, so a nested
derivative traces like a value. Each float operation on a :class:`Sym` is
recorded once (value numbering), and :meth:`Tape.render` turns the record
into one straight-line function of the state tuple ``x`` that repeats those
operations, in the same order on the same operands: its results are
bit-for-bit those of the traced code run on floats. The tracing contract is
stricter than the dual one. A field is traced once, before any state is
known, so it must not branch on its state (``Sym.__bool__``, ``==`` and
``!=`` raise ``TypeError``) or convert it to a float (``math.exp`` raises too); the test
that a float evaluation makes per state, a finiteness check or a zero
direction, is recorded instead (:func:`require`, :func:`all_finite`,
:func:`directional_derivative`). The constants met on the way are arguments
of the rendered function, so its source depends only on the operations,
and one compiled code object serves every tape of the same source.
"""

from __future__ import annotations

import functools
import math
import numbers
import string

import numpy as np

__all__ = ["Tape", "central_jacobian", "directional_derivative", "exp", "log"]


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


#: what a symbol combines with (Python and numpy ints and floats among
#: them); anything else, a Dual included, is left to the other operand's
#: reflected method
_OPERANDS = numbers.Real


def _binary(operator: str, reflected: bool = False):
    def op(self, other):
        if type(other) is Sym:
            b = other.name
        elif isinstance(other, _OPERANDS):
            b = self.tape.name(other)
        else:
            return NotImplemented
        a = self.name
        return self.tape.record(f"{b} {operator} {a}" if reflected
                                else f"{a} {operator} {b}")
    return op


class Sym:
    """A scalar of a :class:`Tape`: each operation on it is recorded there
    and returns the symbol of its result."""

    __slots__ = ("tape", "name")
    __array_ufunc__ = None  # numpy scalars and arrays defer to these methods

    def __init__(self, tape: "Tape", name: str):
        self.tape = tape
        self.name = name

    __add__ = _binary("+")
    __radd__ = _binary("+", reflected=True)
    __sub__ = _binary("-")
    __rsub__ = _binary("-", reflected=True)
    __mul__ = _binary("*")
    __rmul__ = _binary("*", reflected=True)
    __truediv__ = _binary("/")
    __rtruediv__ = _binary("/", reflected=True)
    __le__ = _binary("<=")

    def __neg__(self):
        return self.tape.record(f"-{self.name}")

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return self.tape.record(f"{self.name} ** {self.tape.name(n)}")

    def __bool__(self):
        raise TypeError(f"the truth of {self.name} is only known at run time, "
                        "but a traced field runs once, before any state")

    def __eq__(self, other):
        # a comparison is a branch on the state; identity equality would
        # trace one side of it for every state
        raise TypeError(f"{self.name} is only known at run time, so it "
                        "cannot be compared while a field is traced")

    __ne__ = __eq__
    __hash__ = object.__hash__


class Tape:
    """The record of one straight-line function of a state tuple ``x`` of
    ``dimension`` entries, whose symbols are ``state``.

    :meth:`record` numbers values: an operation already recorded on the same
    operands returns its earlier symbol, so a repeated sub-expression is
    computed once. An operand that is not a symbol is a constant, one
    argument ``k0``, ``k1``, ... per distinct value (``0.0`` and ``-0.0``
    are two values).
    """

    def __init__(self, dimension: int):
        self.state = tuple(Sym(self, f"x{i}") for i in range(dimension))
        self.lines: list[str] = []
        self.constants: list = []
        self._constant_names: dict = {}
        self._values: dict[str, Sym] = {}

    def name(self, value) -> str:
        """The source name of a symbol or a constant."""
        if type(value) is Sym:
            return value.name
        key = (type(value), repr(value)) if isinstance(value, _OPERANDS) else id(value)
        name = self._constant_names.get(key)
        if name is None:
            name = self._constant_names[key] = f"k{len(self.constants)}"
            self.constants.append(value)
        return name

    def call(self, function: str, *operands) -> Sym:
        """The symbol of ``function(*operands)``, ``function`` a name of the
        rendered function's namespace (:func:`_factory`)."""
        return self.record(f"{function}({', '.join(map(self.name, operands))})")

    def record(self, expression: str) -> Sym:
        """The symbol of ``expression``, source over names of this tape."""
        sym = self._values.get(expression)
        if sym is None:
            sym = self._values[expression] = Sym(self, f"t{len(self._values)}")
            self.lines.append(f"{sym.name} = {expression}")
        return sym

    def require(self, condition, error) -> None:
        """At run time, ``raise error(x)`` where the recorded ``condition`` is
        false; a constant condition is decided now, and a false one raises
        at every state."""
        if isinstance(condition, Sym):
            self.lines += [f"if not {condition.name}:",
                           f"    raise {self.name(error)}(x)"]
        elif not condition:
            self.lines.append(f"raise {self.name(error)}(x)")

    def render(self, outputs):
        """The recorded function ``x -> tuple(outputs)``, from a code object
        shared by every tape of the same source."""
        returned = ", ".join(map(self.name, outputs))
        source = _RENDERED.substitute(
            constants=", ".join(f"k{i}" for i in range(len(self.constants))),
            state=", ".join(s.name for s in self.state),
            body="".join(f"        {line}\n" for line in self.lines),
            outputs=returned,
        )
        return _factory(source)(tuple(self.constants))


#: the source of a rendered tape: ``factory`` binds the constants, and the
#: function it returns runs the recorded lines on a state tuple ``x``
_RENDERED = string.Template("""\
def factory(k):
    [$constants] = k
    def rendered(x):
        [$state] = x
$body        return ($outputs,)
    return rendered
""")


@functools.lru_cache(maxsize=256)
def _factory(source: str):
    """The ``factory`` of a rendered ``source``, compiled once per text."""
    namespace = {"isfinite": math.isfinite, "hypot": math.hypot,
                 "exp": np.exp, "log": np.log}
    exec(compile(source, "<rendered tape>", "exec"), namespace)
    return namespace["factory"]


def exp(x):
    """``e**x`` of a float, an array, a :class:`Dual` or a :class:`Sym`."""
    if isinstance(x, Dual):
        e = exp(x.real)
        return Dual(e, e * x.dual)
    if isinstance(x, Sym):
        return x.tape.call("exp", x)
    return np.exp(x)


def log(x):
    """Natural logarithm of a float, an array, a :class:`Dual` or a :class:`Sym`."""
    if isinstance(x, Dual):
        return Dual(log(x.real), x.dual / x.real)
    if isinstance(x, Sym):
        return x.tape.call("log", x)
    return np.log(x)


def hypot(*values):
    """``math.hypot`` of floats; recorded when a :class:`Sym` is among them."""
    for v in values:
        if isinstance(v, Sym):
            return v.tape.call("hypot", *values)
    return math.hypot(*values)


def all_finite(values):
    """Whether every value is finite; the recorded test of the symbols among
    them when the constants are all finite."""
    syms = [v for v in values if isinstance(v, Sym)]
    constants_finite = all(math.isfinite(v) for v in values if not isinstance(v, Sym))
    if not (syms and constants_finite):
        return constants_finite
    return syms[0].tape.record(" and ".join(f"isfinite({s.name})" for s in syms))


def require(condition, error, x) -> None:
    """``raise error(x)`` unless ``condition`` holds; at a traced state ``x``
    the test goes on the tape instead (:meth:`Tape.require`)."""
    if isinstance(x[0], Sym):
        x[0].tape.require(condition, error)
    elif not condition:
        raise error(x)


def directional_derivative(f, x, v) -> np.ndarray | tuple:
    """``Df(x)[v]``, the dual part of ``f(x + eps v)``; ``x`` and ``v`` are
    sequences of scalars, and ``x`` is either real or a dual point, with a
    dual in every entry; ``v`` may hold duals. An entry of ``f``'s value that
    is not a dual does not depend on the state and has derivative 0. A zero
    direction gives zeros of the length of ``v`` without evaluating ``f``, so
    ``f`` must map into the space of ``v`` (a vector field); at a traced
    state, see :func:`_traced_derivative`.

    Returns a float array at a real point and a tuple at a dual one, where
    the result is a field value that the next derivative differentiates.
    """
    if isinstance(x[0], Sym):
        out = _traced_derivative(f, x, v)
    elif any(v):
        out = _dual_part(f, x, v)
    else:
        out = [0.0] * len(v)
    return tuple(out) if isinstance(x[0], Dual) else np.array(out)


def _dual_part(f, x, v) -> list:
    return [y.dual if isinstance(y, Dual) else 0.0 for y in f(tuple(map(Dual, x, v)))]


def _traced_derivative(f, x, v) -> list:
    """``Df(x)[v]`` at a traced state ``x``. A direction whose constants are
    zero is zero at the states where its symbols all are, and a float
    evaluation skips ``f`` there; so the derivative is recorded, and each
    entry that is not ``+0.0`` anyway is selected as ``0.0`` at those
    states. It is still computed there: an operation of ``f`` that raises
    on floats (division by zero, an overflowing ``**``) raises there too."""
    symbols = [c for c in v if isinstance(c, Sym)]
    if any(c for c in v if not isinstance(c, Sym)):
        return _dual_part(f, x, v)
    if not symbols:
        return [0.0] * len(v)
    out = _dual_part(f, x, v)
    if all(map(_plus_zero, out)):
        return out
    tape = symbols[0].tape
    moving = tape.record(" or ".join(s.name for s in symbols))
    return [y if _plus_zero(y) else tape.record(f"{tape.name(y)} if {moving.name} else 0.0")
            for y in out]


def _plus_zero(y) -> bool:
    return type(y) is float and y == 0.0 and math.copysign(1.0, y) > 0.0


def central_jacobian(f, x) -> np.ndarray:
    """Jacobian of ``f`` at ``x``, one dual evaluation per column. The name
    predates the dual path; bench/tracer.py wraps it by name."""
    return np.column_stack([directional_derivative(f, x, e) for e in np.eye(len(x))])
