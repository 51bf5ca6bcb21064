"""Exact first derivatives of vector fields by forward-mode dual numbers, and
straight-line code traced from them.

``f`` evaluated once at the dual point ``x + eps v`` (``eps**2 = 0``) has
dual part ``Df(x)[v]``, exact to rounding. The parts of a :class:`Dual` may
be duals, so a derivative of a derivative (a nested Lie bracket) is the same
call at a dual point. A differentiated field must be arithmetic of its state
(``+``, ``-``, ``*``, ``/`` and integer ``**``) and this module's :func:`exp`
and :func:`log` (``math``'s on a float, numpy's on an array, as :func:`sin`
and :func:`cos`); ``math.exp`` or a numpy ufunc of a dual raises ``TypeError``.

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
recorded once (value numbering), an operation whose result is exactly
another value (``x * 1.0``, ``-(-x)``, ``a + (-b)``) is folded to it (see
:class:`Tape`), and :meth:`Tape.render` turns the record
into one straight-line function of the state tuple ``x`` that repeats those
operations, in the same order on the same operands: its results are
bit-for-bit those of the traced code run on floats, up to the sign bit of a
NaN that a fold can flip. The tracing contract is
stricter than the dual one. Code is traced once, before any state is known,
so it must not branch on its state, compare it or convert it to a float
(``math.exp`` of a symbol converts it): a symbol raises :class:`Untraceable`,
a ``TypeError``, for its truth, ``==``, ``!=``, a conversion, a numpy
function other than arithmetic, and, on a tape of float code, an array.
On a symbol, :func:`sin`, :func:`cos`, :func:`exp` and :func:`log` record a
call of their ``math`` function. The one test that a float evaluation
makes per state, that values are finite, is recorded instead, as a call
that raises where the test fails (:func:`require`, :func:`all_finite`), so
every line of a record is an operation. The lines that can neither change
the outputs nor stop the run are not rendered (:func:`_live`). The
constants met on the way, functions among them, are arguments of the
rendered function, so its source depends only on the operations, and one
compiled code object serves every tape of the same source.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import string

import numpy as np

__all__ = ["Tape", "Untraceable", "central_jacobian", "cos", "directional_derivative",
           "exp", "log", "sin"]


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
        if isinstance(other, Dual):  # the quotient rule, never forming b**-2
            q = self.real / other.real
            return Dual(q, (self.dual - q * other.dual) / other.real)
        return Dual(self.real / other, self.dual / other)

    def __rtruediv__(self, other):
        q = other / self.real
        return Dual(q, -(q * self.dual) / self.real)


class Untraceable(TypeError):
    """Raised by a :class:`Sym` asked for what only a run-time value has: its
    truth, an equality, a conversion (``float``, ``math.sin``, ``np.asarray``)
    or an operation the tape does not record. Code that meets it cannot be
    traced and must run on floats."""


#: what a symbol combines with (Python and numpy ints and floats among
#: them); anything else, a Dual included, is left to the other operand's
#: reflected method
_OPERANDS = numbers.Real


#: per operator, the constant ``c`` with ``x op c == x`` on every float:
#: ``x * 1.0``, ``x + (-0.0)`` and ``x - 0.0`` (``x + 0.0`` is not ``x`` at
#: ``x = -0.0``, nor is ``x * 0.0`` at an infinite ``x``)
_IDENTITIES = {"*": 1.0, "+": -0.0, "-": 0.0}


def _binary(operator: str, reflected: bool = False):
    """The operator on a symbol, folded where the result is another value
    exactly (see :class:`Tape`): ``x op c`` is ``x`` at the identity ``c``,
    ``x * -1.0`` is ``-x``, ``a + (-b)`` and ``(-b) + a`` are ``a - b``, and
    ``a - (-b)`` is ``a + b``."""
    template = "{} " + operator + " {}"
    # NaN, which equals no float, where the operator has no identity
    identity = math.nan if reflected and operator == "-" else _IDENTITIES.get(operator, math.nan)
    sign = math.copysign(1.0, identity)
    negator = -1.0 if operator == "*" else math.nan
    signed = operator in ("+", "-") and not reflected

    def op(self, other):
        tape = self.tape
        if type(other) is Sym:
            if signed:
                negated = tape._negations.get(other.name)
                if negated is not None:
                    return self - negated if operator == "+" else self + negated
                negated = tape._negations.get(self.name) if operator == "+" else None
                if negated is not None:
                    return other - negated
            b = other.name
        elif type(other) is float:
            if other == identity and math.copysign(1.0, other) == sign:
                return self
            if other == negator:
                return -self
            b = tape.name(other)
        elif isinstance(other, _OPERANDS):
            b = tape.name(other)
        else:
            return NotImplemented
        a = self.name
        if reflected:
            a, b = b, a
        return tape._record(f"{a} {operator} {b}", template, (a, b))
    return op


def _refused(what: str):
    def refuse(self, *args, **kwargs):
        raise Untraceable(f"{self.name} is only known at run time, so {what} "
                          "while it is traced")
    return refuse


class Sym:
    """A scalar of a :class:`Tape`: each operation on it is recorded there
    and returns the symbol of its result."""

    __slots__ = ("tape", "name")

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
    __lt__ = _binary("<")
    __ge__ = _binary(">=")
    __gt__ = _binary(">")

    def __neg__(self):
        negated = self.tape._negations.get(self.name)
        return self.tape.record("-{}", self) if negated is None else negated

    def __pow__(self, n):
        if not isinstance(n, int):
            raise Untraceable(f"{self.name} ** {n!r}: only integer powers are traced")
        return self.tape.record("{} ** {}", self, n)

    # the truth of a symbol, or a comparison, is a branch on the state;
    # identity equality would trace one side of it for every state
    __bool__ = _refused("it has no truth value")
    __eq__ = __ne__ = _refused("it cannot be compared")
    __float__ = __int__ = __index__ = __complex__ = _refused("it is not a number")
    __round__ = __trunc__ = __floor__ = __ceil__ = __abs__ = __mod__ = __rmod__ = \
        __floordiv__ = __rfloordiv__ = __rpow__ = _refused("this operation is not recorded")
    __hash__ = object.__hash__

    def __array__(self, dtype=None, copy=None):
        """An entry of an object array, as a :class:`Dual` is; refused on a
        tape without ``object_arrays``, whose code runs on float arrays,
        which numpy computes in an order of its own (BLAS, pairwise sums)."""
        if not self.tape.object_arrays:
            raise Untraceable(f"{self.name} is only known at run time, so it "
                              "cannot enter an array while it is traced")
        out = np.empty((), dtype=object)
        out[()] = self
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """A numpy scalar combined with a symbol (``np.float64(2.0) * s``)
        records the Python operator; any other ufunc is refused."""
        op = _UFUNC_OPERATORS.get(ufunc)
        if op and method == "__call__" and not kwargs and len(inputs) == 2:
            a, b = inputs
            out = op[0](a, b) if type(a) is Sym else op[1](b, a)
            if out is not NotImplemented:
                return out
        raise Untraceable(f"numpy's {ufunc.__name__} of {self.name} cannot be traced")


_UFUNC_OPERATORS = {
    np.add: (Sym.__add__, Sym.__radd__),
    np.subtract: (Sym.__sub__, Sym.__rsub__),
    np.multiply: (Sym.__mul__, Sym.__rmul__),
    np.true_divide: (Sym.__truediv__, Sym.__rtruediv__),
}

#: an inlined expression nests at most this deep, far below the parser's
#: limit on nested parentheses
_MAX_DEPTH = 32


class Tape:
    """The record of one straight-line function of a state tuple ``x`` of
    ``dimension`` entries, whose symbols are ``state``; ``inputs`` names
    further symbols, free variables of the rendered function. With
    ``object_arrays``, a symbol may be an entry of a numpy object array, as
    in code traced for duals, which make object arrays too; without it the
    traced code must be the code that runs on floats, and an array of
    symbols is refused (:meth:`Sym.__array__`).

    Every line of the record is one operation ``(name, template, operand
    names)``; a test of the state is one too, a recorded call
    (:meth:`require`). :meth:`record` numbers values: an operation already
    recorded on the same operands returns its earlier symbol, so a repeated
    sub-expression is computed once. An operand that is not a symbol is a
    constant, one argument ``k0``, ``k1``, ... per distinct value (``0.0``
    and ``-0.0`` are two values; a function is a constant too). Each
    temporary is named ``t0``, ``t1``, ...

    An operation whose value is known exactly is folded, not recorded. A
    symbol stands for a float, and a constant is folded only where it is a
    Python float, so the rules hold on every float, zeros of either sign,
    infinities and NaNs among them:

    * ``x * 1.0``, ``1.0 * x``, ``x + (-0.0)``, ``(-0.0) + x`` and
      ``x - 0.0`` are ``x``; these are exact on every float (``x + 0.0``
      and ``x * 0.0`` are not, at ``x = -0.0`` and at an infinite ``x``, and
      are recorded);
    * ``-(-x)`` is ``x``, bit for bit, since a negation flips the sign bit;
    * ``x * -1.0`` and ``-1.0 * x`` are ``-x``, ``a + (-b)`` and
      ``(-b) + a`` are ``a - b``, and ``a - (-b)`` is ``a + b``: IEEE 754
      rounds both forms of the same exact value, zeros included, so they
      differ at most in the sign bit of a NaN.

    A folded operation never raises on floats, so folding drops no line
    that could stop a run. The record, and the source rendered from it,
    depends on which constants fold (a factor ``±1.0``, an addend ``-0.0``,
    a subtrahend ``0.0``): records that differ only in such a constant
    differ in shape.
    """

    def __init__(self, dimension: int, inputs=(), object_arrays: bool = True):
        self.state = tuple(Sym(self, f"x{i}") for i in range(dimension))
        self.inputs = tuple(Sym(self, name) for name in inputs)
        self.object_arrays = object_arrays
        #: ``(name, template, operand names)`` per operation
        self.lines: list = []
        self.constants: list = []
        self._constant_names: dict = {}
        self._values: dict[str, Sym] = {}
        self._negations: dict[str, Sym] = {}  # name of -b -> b
        self._temporaries = itertools.count()

    def name(self, value) -> str:
        """The source name of a symbol or a constant."""
        if type(value) is Sym:
            return value.name
        real = type(value) is float or isinstance(value, _OPERANDS)
        key = (type(value), repr(value)) if real else id(value)
        name = self._constant_names.get(key)
        if name is None:
            name = self._constant_names[key] = f"k{len(self.constants)}"
            self.constants.append(value)
        return name

    def call(self, function, *operands) -> Sym:
        """The symbol of ``function(*operands)``; the function is a constant."""
        return self.record("{}(" + ", ".join(["{}"] * len(operands)) + ")",
                           function, *operands)

    def record(self, template: str, *operands) -> Sym:
        """The symbol of ``template.format`` of the operands' names. The
        template must evaluate every operand, left to right (no ``and``,
        ``or`` or ``if``), so that an operand used nowhere else may be
        written into it (:func:`_statements`)."""
        names = tuple([o.name if type(o) is Sym else self.name(o) for o in operands])
        sym = self._record(template.format(*names), template, names)
        if template == "-{}" and type(operands[0]) is Sym:
            self._negations[sym.name] = operands[0]
        return sym

    def _record(self, expression: str, template: str, names: tuple) -> Sym:
        sym = self._values.get(expression)
        if sym is None:
            sym = self._values[expression] = Sym(self, f"t{next(self._temporaries)}")
            self.lines.append((sym.name, template, names))
        return sym

    def reserve(self, n: int) -> tuple[Sym, ...]:
        """``n`` constants that come first among the rendered function's
        constants, their values left to its caller: symbols named like
        constants, never numbered together with a recorded one."""
        first = len(self.constants)
        self.constants += [None] * n
        return tuple(Sym(self, f"k{i}") for i in range(first, first + n))

    def require(self, condition, error) -> None:
        """At run time, ``raise error(x)`` where the recorded ``condition`` is
        false: a recorded call of :func:`_check` on the condition and the
        state, which no other line reads. A true constant records nothing;
        a false one records a call that raises at every state."""
        if isinstance(condition, Sym) or not condition:
            self.call(_check, condition, error, *self.state)

    def render(self, outputs):
        """The recorded function ``x -> tuple(outputs)``, from a code object
        shared by every tape of the same record; it runs the :func:`_live`
        lines."""
        returned = tuple([self.name(o) for o in outputs])
        factory = _factory(_live(self.lines, returned, self.constants), returned,
                           len(self.state), len(self.constants))
        return factory(tuple(self.constants))


def _check(ok, error, *x) -> None:
    """``raise error(x)`` unless ``ok``: the call :meth:`Tape.require`
    records."""
    if not ok:
        raise error(x)


#: the templates of the operations that never raise on floats
_SILENT = ("{} + {}", "{} - {}", "{} * {}", "-{}")


def _live(lines, outputs, constants) -> tuple:
    """The lines of a record that can change ``outputs``, names of its
    values, or stop the run. An unused ``+``, ``-`` or ``*`` never raises
    on floats and is dropped, as is an unused ``math.log``, whose argument
    is taken to be positive: a frame map's ``log d`` of ``d = exp(dtilde)``
    raises only at ``d = 0``, where the pushforward's ``1 / d`` raises
    first. Every other line, a recorded call among them, is kept."""
    used, live = set(outputs), []
    for line in reversed(lines):
        name, template, operands = line
        if name in used or not (template in _SILENT or template == "{}({})"
                                and constants[int(operands[0][1:])] is math.log):
            used.update(operands)
            live.append(line)
    return tuple(live[::-1])


def _statements(lines, outputs) -> tuple[list[str], list[str]]:
    """``lines``, a tape's record, as statements, and the expressions of the
    ``outputs`` names. A temporary used once is written into its user where
    that keeps the order in which the operations run, so the first one to
    raise is the same: it must be the last of the temporaries still pending
    when its user takes it. A line whose value nothing reads (a
    :meth:`Tape.require` call) is a bare expression."""
    uses: dict[str, int] = {}
    for _, _, names in lines:
        for n in names:
            uses[n] = uses.get(n, 0) + 1
    for n in outputs:
        uses[n] = uses.get(n, 0) + 1
    pending: dict[str, tuple[str, int]] = {}  # name -> (expression, depth)
    out: list[str] = []

    def flush():
        out.extend(f"{n} = {expression}" for n, (expression, _) in pending.items())
        pending.clear()

    def inline(names):
        """``names`` with the pending ones written in, and their depth."""
        inlined = [n for n in names if n in pending]
        if not inlined:
            return names, 0
        if list(pending)[-len(inlined):] != inlined:
            flush()
            return names, 0
        depth = max(pending[n][1] for n in inlined)
        return [f"({pending.pop(n)[0]})" if n in inlined else n for n in names], depth

    for name, template, names in lines:
        names, depth = inline(names)
        expression = template.format(*names)
        if uses.get(name) == 1 and depth < _MAX_DEPTH:
            pending[name] = (expression, depth + 1)
        else:
            flush()
            out.append(f"{name} = {expression}" if name in uses else expression)
    outputs, _ = inline(outputs)
    flush()
    return out, outputs


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
def _factory(lines: tuple, outputs: tuple, dimension: int, n_constants: int):
    """The ``factory`` of a rendered tape, compiled once per record."""
    body, returned = _statements(lines, outputs)
    source = _RENDERED.substitute(
        constants=", ".join(f"k{i}" for i in range(n_constants)),
        state=", ".join(f"x{i}" for i in range(dimension)),
        body="".join(f"        {line}\n" for line in body),
        outputs=", ".join(returned),
    )
    namespace: dict = {}
    exec(compile(source, "<rendered tape>", "exec"), namespace)
    return namespace["factory"]


def _elementary(scalar, array, x):
    """``array`` of an array, else ``scalar``, recorded on a :class:`Sym`."""
    if type(x) is Sym:
        return x.tape.call(scalar, x)
    return array(x) if isinstance(x, np.ndarray) else scalar(x)


def sin(x):
    """``math.sin`` of a float or a :class:`Sym`, ``np.sin`` of an array."""
    return _elementary(math.sin, np.sin, x)


def cos(x):
    """``math.cos`` of a float or a :class:`Sym`, ``np.cos`` of an array."""
    return _elementary(math.cos, np.cos, x)


def exp(x):
    """``e**x``: of a :class:`Dual` by the chain rule, else as :func:`sin`."""
    if isinstance(x, Dual):
        e = exp(x.real)
        return Dual(e, e * x.dual)
    return _elementary(math.exp, np.exp, x)


def log(x):
    """``log x``: of a :class:`Dual` by the chain rule, else as :func:`sin`."""
    if isinstance(x, Dual):  # a zero real part raises ZeroDivisionError first
        dual = x.dual / x.real
        return Dual(log(x.real), dual)
    return _elementary(math.log, np.log, x)


def hypot(*values):
    """``math.hypot`` of numbers (an array raises ``TypeError``), recorded
    when a :class:`Sym` is among them."""
    syms = [v for v in values if type(v) is Sym]
    return syms[0].tape.call(math.hypot, *values) if syms else math.hypot(*values)


def all_finite(values):
    """Whether every value is finite; when the constants all are, the
    recorded ``&`` chain of the tests of the symbols among them."""
    syms = [v for v in values if isinstance(v, Sym)]
    constants_finite = all(math.isfinite(v) for v in values if not isinstance(v, Sym))
    if not (syms and constants_finite):
        return constants_finite
    tape = syms[0].tape
    return tape.record(" & ".join(["{}({})"] * len(syms)),
                       *(v for s in syms for v in (math.isfinite, s)))


def require(condition, error, x) -> None:
    """``raise error(x)`` unless ``condition`` holds; at a traced state ``x``
    the test goes on the tape instead (:meth:`Tape.require`)."""
    if isinstance(x[0], Sym):
        x[0].tape.require(condition, error)
    elif not condition:
        raise error(x)


def directional_derivative(f, x, v) -> tuple:
    """``Df(x)[v]``, the dual parts of ``f(x + eps v)`` as a tuple, by the
    same code at a real, a dual and a traced point: ``x`` and ``v`` are
    sequences of scalars, and ``v`` may hold duals. An entry of ``f``'s
    value that is not a dual does not depend on the state and has
    derivative 0. A zero direction is evaluated like any other."""
    return tuple([y.dual if isinstance(y, Dual) else 0.0 for y in f(tuple(map(Dual, x, v)))])


def central_jacobian(f, x) -> np.ndarray:
    """Jacobian of ``f`` at ``x``, one dual evaluation per column, along the
    rows of the identity as floats. The name predates the dual path;
    bench/tracer.py wraps it by name."""
    return np.column_stack([directional_derivative(f, x, e)
                            for e in np.eye(len(x)).tolist()])
