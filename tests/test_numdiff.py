import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sourceseek import lie_bracket
from sourceseek.numdiff import (Dual, Sym, Tape, Untraceable, _statements, central_jacobian,
                                cos, directional_derivative, exp, hypot, log, sin)


class TestDual:
    def test_arithmetic_rules(self):
        x = Dual(3.0, 1.0)
        for value, real, dual in [
            (x + 2.0, 5.0, 1.0), (2.0 + x, 5.0, 1.0), (x - 2.0, 1.0, 1.0),
            (2.0 - x, -1.0, -1.0), (-x, -3.0, -1.0), (2.0 * x, 6.0, 2.0),
            (x * x, 9.0, 6.0), (x ** 3, 27.0, 27.0), (x + x * x - x, 9.0, 6.0),
        ]:
            assert (value.real, value.dual) == (real, dual)

    def test_numpy_scalars_defer_to_the_dual(self):
        x = Dual(3.0, 1.0)
        value = np.float64(2.0) * x - np.float64(1.0)
        assert isinstance(value, Dual) and (value.real, value.dual) == (5.0, 2.0)

    def test_nested_parts_give_the_mixed_second_derivative(self):
        # f(x, y) = x**2 y at (2, 5), seeded along x outside and y inside
        x = Dual(Dual(2.0, 0.0), Dual(1.0, 0.0))
        y = Dual(Dual(5.0, 1.0), Dual(0.0, 0.0))
        value = x ** 2 * y
        assert value.real.real == 20.0    # f
        assert value.real.dual == 4.0     # df/dy = x**2
        assert value.dual.real == 20.0    # df/dx = 2 x y
        assert value.dual.dual == 4.0     # d2f/dxdy = 2 x

    def test_division_exp_and_log_follow_the_chain_rule(self):
        x = Dual(2.0, 1.0)
        for value, real, dual in [
            (x / 4.0, 0.5, 0.25), (1.0 / x, 0.5, -0.25), (x / x, 1.0, 0.0),
            (exp(x), math.exp(2.0), math.exp(2.0)), (log(x), math.log(2.0), 0.5),
        ]:
            assert value.real == pytest.approx(real, rel=1e-15)
            assert value.dual == pytest.approx(dual, rel=1e-15, abs=1e-15)

    def test_division_by_a_dual_is_the_quotient_rule(self):
        # d(1/x)[v] = -(v / x) / x = -1e120 here; through x ** -2, which
        # overflows at x = 1e-160, it raised OverflowError
        assert directional_derivative(lambda s: (1.0 / s[0],), (1e-160,),
                                      (1e-200,)) == (-1e120,)
        assert directional_derivative(lambda s: (s[1] / s[0],), (1e-160, 1.0),
                                      (1e-200, 0.0)) == (-1e120,)
        # (a / b)' = (a' - q b') / b with q = a / b
        value = Dual(3.0, 1.0) / Dual(2.0, 0.5)
        assert (value.real, value.dual) == (1.5, (1.0 - 1.5 * 0.5) / 2.0)

    def test_nested_exp_and_log_give_second_derivatives(self):
        # f(x) = exp(x) log(x) / x at x = 2, seeded inside and outside:
        # f' = e^x (1 + log x) / 4 and f'' = e^x (1 + 2 log x) / 8 there
        x = Dual(Dual(2.0, 1.0), Dual(1.0, 0.0))
        value = log(x) * exp(x) / x
        e, l = math.exp(2.0), math.log(2.0)
        first = e * (1.0 + l) / 4.0
        second = e * (1.0 + 2.0 * l) / 8.0
        assert value.real.dual == pytest.approx(first, rel=1e-14)
        assert value.dual.real == pytest.approx(first, rel=1e-14)
        assert value.dual.dual == pytest.approx(second, rel=1e-14)

    def test_exp_and_log_of_arrays_are_numpy_ufuncs(self):
        a = np.array([0.5, 1.0, 7.0])
        np.testing.assert_array_equal(exp(a), np.exp(a))
        np.testing.assert_array_equal(log(a), np.log(a))

    def test_non_arithmetic_operations_raise_type_error(self):
        x = Dual(0.5, 1.0)
        with pytest.raises(TypeError):
            np.sin(x)
        with pytest.raises(TypeError):
            x ** 0.5
        with pytest.raises(TypeError):
            float(x)


def test_directional_derivative_of_a_polynomial_field():
    def f(x):
        return np.array([x[0] * x[1], x[1] ** 2 - 3.0 * x[0], 7.0])

    out = directional_derivative(f, np.array([2.0, -1.0, 0.0]), np.array([1.0, 2.0, 0.0]))
    # (x1 v0 + x0 v1, 2 x1 v1 - 3 v0, 0)
    assert isinstance(out, tuple) and out == (3.0, -7.0, 0.0)
    assert all(isinstance(v, float) for v in out)


def test_hypot_is_maths_on_numbers_only():
    assert hypot(3.0, 4.0, 12.0) == 13.0
    # numpy's hypot would take a third array as its output
    values = np.array([3.0]), np.array([4.0]), np.array([12.0])
    with pytest.raises(TypeError):
        hypot(*values)
    assert values[2].tolist() == [12.0]
    tape = Tape(2)
    x, y = tape.state
    value = hypot(x, 4.0, y)
    assert tape.constants == [math.hypot, 4.0]
    assert tape.render([value])((3.0, 12.0)) == (13.0,)


_SQUARE = arrays(float, (4, 4), elements=st.floats(-10.0, 10.0))
_VECTOR = arrays(float, 4, elements=st.floats(-10.0, 10.0))


@settings(max_examples=50, deadline=None)
@given(a=_SQUARE, b=_SQUARE, x=_VECTOR)
def test_linear_fields_differentiate_exactly(a, b, x):
    """The Jacobian of ``x -> A x`` is ``A`` bit for bit, and the bracket
    of the linear fields ``A x`` and ``B x`` is ``(B A - A B) x``."""
    np.testing.assert_array_equal(central_jacobian(lambda y: a @ y, x), a)
    bracket = lie_bracket(lambda y: a @ y, lambda y: b @ y, x)
    expect = (b @ a - a @ b) @ x
    # relative to the size of the terms that cancel in the difference, down
    # to the underflow threshold
    scale = (np.abs(b) @ np.abs(a) + np.abs(a) @ np.abs(b)) @ np.abs(x)
    assert np.all(np.abs(bracket - expect) <= 1e-13 * scale + np.finfo(float).tiny)


def _hex(values):
    return tuple(float(v).hex() for v in values)


def _run(fn, x):
    try:
        with np.errstate(all="ignore"):
            return _hex(fn(x))
    except ArithmeticError as exc:
        return type(exc).__name__


class TestTape:
    """A tape records the float operations run on its symbols and renders
    them as one function that repeats them on floats."""

    @staticmethod
    def rendered(field, dimension):
        tape = Tape(dimension)
        return tape.render(field(tape.state))

    def test_symbols_have_no_truth_value(self):
        (x,) = Tape(1).state
        with pytest.raises(TypeError, match="only known at run time"):
            bool(x)
        with pytest.raises(TypeError):
            math.exp(x)

    def test_duals_of_symbols_trace_derivatives(self):
        # a symbol defers to a Dual, so a dual of symbols differentiates
        (x,) = Tape(1).state
        value = 3.0 * Dual(x, 1.0) ** 2 - Dual(x, 1.0)
        assert isinstance(value, Dual) and isinstance(value.dual, Sym)

    def test_repeated_operations_are_recorded_once(self):
        tape = Tape(2)
        a, b = tape.state
        assert (a * b + 1.0) is (a * b + 1.0)
        assert len(tape.lines) == 2
        # 0.0 and -0.0 are two constants, so these are two operations
        assert (a * 0.0) is not (a * -0.0)
        assert tape.constants == [1.0, 0.0, -0.0]

    @settings(max_examples=50, deadline=None)
    @given(x=st.tuples(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e200]),
                       st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e200])))
    def test_rendered_operations_are_the_float_operations(self, x):
        # bit for bit, and raising where floats raise (0 division, ** overflow)
        def field(s):
            return (s[0] * s[1] - 0.5 / s[1], s[0] ** 3 + exp(s[1] / 1e3) * -s[0],
                    1.5, s[1] - s[0] * 2)

        assert _run(self.rendered(field, 2), x) == _run(field, x)

    def test_exact_rules_fold_and_the_others_record(self):
        tape = Tape(2)
        a, b = tape.state
        # x op c == x on every float
        assert all(v is a for v in (a * 1.0, 1.0 * a, a + -0.0, -0.0 + a, a - 0.0))
        assert -(-a) is a and -(a * -1.0) is a
        # the same value, one operation fewer
        assert (a * -1.0).name == (-1.0 * a).name == (-a).name
        assert (a + -b).name == (-b + a).name == (a - b).name
        assert (a - -b).name == (a + b).name
        assert tape.constants == []
        # x + 0.0 is 0.0 at x = -0.0, x * 0.0 is NaN at an infinite x, and a
        # numpy 1.0 would turn the float result into a numpy scalar
        recorded = (a + 0.0, 0.0 + a, a - -0.0, -0.0 - a, a * 0.0, a / 1.0,
                    a * np.float64(1.0), np.float64(-1.0) * a, a * 1)
        assert all(type(v) is Sym and v is not a for v in recorded)
        assert len({v.name for v in recorded}) == len(recorded)

    @settings(max_examples=80, deadline=None)
    @given(x=st.tuples(*[st.sampled_from([0.0, -0.0, 5e-324, -1.0, 3.5, math.inf,
                                          -math.inf, math.nan]) | st.floats()] * 2))
    def test_folded_operations_are_the_float_operations(self, x):
        # bit for bit; a NaN of either sign is a NaN
        def field(s):
            a, b = s
            return (a * 1.0, 1.0 * a, a * -1.0, a + -b, -b + a, a - -b, -(-a), a - 0.0,
                    a + -0.0, -0.0 + a, a + 0.0, a * 0.0, -(a * -1.0) + b)

        assert _run(self.rendered(field, 2), x) == _run(field, x)

    def test_index_lines_read_their_value_by_subscript(self):
        # as a call record indexes the checked value of its call
        tape = Tape(1)
        (x,) = tape.state
        value = tape.call(divmod, x, 2.0)
        parts = [tape.record(f"{{}}[{j}]", value) for j in range(2)]
        lines, outputs = _statements(tape.lines, [tape.name(o) for o in parts])
        assert lines == ["t0 = k0(x0, k1)"] and outputs == ["(t0[0])", "(t0[1])"]
        assert tape.render(parts)((7.5,)) == (3.0, 1.5)

    def test_constants_are_arguments_of_one_compiled_source(self):
        def field(gain):
            return lambda s: (gain * s[0] + s[1], s[1] / gain)

        slow, fast = self.rendered(field(0.5), 2), self.rendered(field(4.0), 2)
        assert slow.__code__ is fast.__code__
        assert slow((1.0, 2.0)) == (2.5, 4.0) and fast((1.0, 2.0)) == (6.0, 0.5)

    def test_required_conditions_raise_at_run_time(self):
        tape = Tape(1)
        (x,) = tape.state
        tape.require(x * x <= 4.0, lambda state: ValueError(f"large at {state}"))
        rendered = tape.render([x])
        assert rendered((-2.0,)) == (-2.0,)
        with pytest.raises(ValueError, match=r"large at \(3\.0,\)"):
            rendered((3.0,))
        # a condition known when tracing is decided then: a false one raises
        # at every state
        tape = Tape(1)
        tape.require(False, lambda state: ValueError("always"))
        with pytest.raises(ValueError, match="always"):
            tape.render(tape.state)((0.0,))

    def test_direction_that_vanishes_at_run_time_is_differentiated(self):
        # a zero direction is no special case: f is differentiated along it,
        # which gives -0.0 in the first entry, on floats and rendered alike
        def f(s):
            return (-s[0] * s[1], s[1] * s[1])

        def along_the_state(s):
            return directional_derivative(f, s, (s[0] * s[1], 0.0))

        rendered = self.rendered(along_the_state, 2)
        for x in [(0.0, 2.0), (3.0, 0.0)]:
            assert _hex(along_the_state(x)) == _hex((-0.0, 0.0)), x
            assert _hex(rendered(x)) == _hex((-0.0, 0.0)), x
        for x in [(-0.0, -1.0), (3.0, 2.0)]:
            assert _hex(rendered(x)) == _hex(along_the_state(x)), x


class TestRefusal:
    """A symbol refuses, with one exception type, whatever needs a value it
    has only at run time; the tracer of a float loop falls back on it."""

    @pytest.mark.parametrize("use", [
        bool, float, int, abs, math.sin, lambda s: s == 1.0, lambda s: s != 1.0,
        lambda s: 1.0 if s < 2.0 else 0.0, lambda s: s ** 0.5, np.sin,
        lambda s: np.array([1.0, 2.0]) * s,
    ], ids=["bool", "float", "int", "abs", "math.sin", "eq", "ne", "branch", "pow",
            "ufunc", "array-times"])
    def test_refused_uses(self, use):
        (x,) = Tape(1).state
        with pytest.raises(Untraceable):
            use(x)

    def test_arrays_of_symbols_only_where_the_code_makes_object_arrays(self):
        # fields traced for their dual path may build arrays, as duals do;
        # a tape of float code refuses, since numpy computes a float array
        # in an order of its own (a BLAS product, a pairwise sum)
        (x,) = Tape(1).state
        assert np.array([0.0, x]).dtype == object
        (y,) = Tape(1, object_arrays=False).state
        with pytest.raises(Untraceable):
            np.asarray((y, 0.0))

    @pytest.mark.parametrize("scalar", [np.float64(2.5), np.int64(3), np.float32(0.1)])
    def test_numpy_scalars_record_the_python_operator(self, scalar):
        tape = Tape(1)
        (x,) = tape.state
        values = (scalar * x, x * scalar, scalar + x, scalar - x, x / scalar, scalar / x)
        rendered = tape.render(values)
        for v in (1.5, -4.0, 7.0):
            assert _hex(rendered((v,))) == _hex((scalar * v, v * scalar, scalar + v,
                                                 scalar - v, v / scalar, scalar / v))

    def test_elementary_functions_are_the_math_ones(self):
        a = np.linspace(0.1, 3.0, 7)
        for function, scalar, array in [(sin, math.sin, np.sin), (cos, math.cos, np.cos),
                                        (exp, math.exp, np.exp), (log, math.log, np.log)]:
            assert function(0.3) == scalar(0.3) and type(function(0.3)) is float
            assert function(np.float64(0.3)) == scalar(0.3)
            np.testing.assert_array_equal(function(a), array(a))
            tape = Tape(1)
            (x,) = tape.state
            value = function(2.0 * x)
            assert scalar in tape.constants and function(2.0 * x) is value
            assert array not in tape.constants
            assert tape.render([value])((0.7,)) == (scalar(1.4),)

    def test_directional_derivative_at_a_traced_point_is_a_tuple(self):
        tape = Tape(2, object_arrays=False)
        x = tape.state
        out = directional_derivative(lambda s: (s[0] * s[1], s[1]), x, (1.0, 0.0))
        assert isinstance(out, tuple) and len(out) == 2


class TestInlining:
    """A temporary used once is written into its user only where the
    operations still run in their recorded order."""

    @staticmethod
    def source(field, dimension):
        tape = Tape(dimension)
        values = field(tape.state)
        lines, outputs = _statements(tape.lines, [tape.name(v) for v in values])
        return lines, outputs, tape.render(field(tape.state))

    def test_single_uses_are_written_in(self):
        lines, outputs, _ = self.source(lambda s: (s[0] * s[1] + 1.0,), 2)
        assert lines == [] and outputs == ["((x0 * x1) + k0)"]

    @staticmethod
    def used_twice(s):
        # ``b`` is computed between ``a`` and its user, so ``a`` must not be
        # written into that user, past ``b``
        a = s[0] ** 2
        b = 1.0 / s[1]
        return (a + b, b * s[2] ** 3)

    @staticmethod
    def used_in_reverse(s):
        # each used once, but by users in the reverse order
        a = s[0] ** 2
        b = 1.0 / s[1]
        return (b * s[2], a + 1.0)

    @pytest.mark.parametrize("field", ["used_twice", "used_in_reverse"])
    @settings(max_examples=60, deadline=None)
    @given(x=st.tuples(*[st.sampled_from([0.0, 1.0, -2.0, 1e200, 3.0])] * 3))
    def test_the_first_operation_to_raise_is_the_floats(self, field, x):
        # ``a`` may overflow and ``b`` divide by zero
        field = getattr(self, field)
        lines, _, rendered = self.source(field, 3)
        assert _run(rendered, x) == _run(field, x)
        assert lines[0].startswith("t0 = x0 ** ")
