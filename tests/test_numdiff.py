import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sourceseek import lie_bracket
from sourceseek.numdiff import Dual, central_jacobian, directional_derivative, exp, log


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
    np.testing.assert_array_equal(out, [3.0, -7.0, 0.0])
    assert out.dtype == float


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
