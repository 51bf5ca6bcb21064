import dis
import functools
import itertools
import math
import operator
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sourceseek.averaging as averaging
from sourceseek import (
    Coefficient,
    ControlAffineSystem,
    DivergentAverageError,
    FieldParams,
    OscillatoryInput,
    QuadratureError,
    Scheme,
    SeekerParams,
    averaged_closed_loop,
    build_averaged_field,
    check_assumptions,
    default_omega_grid,
    gamma_pair,
    gamma_triple,
    gradient_affine_system,
    lie_bracket,
    newton_affine_system,
)
from sourceseek.numdiff import Tape, directional_derivative

TWO_PI = 2.0 * math.pi
_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def quad_settings(monkeypatch):
    """``monkeypatch``, for a test that changes a ``QUAD_*`` setting: the
    ladder cache is keyed by the channels alone, so it is cleared before the
    test and again once the settings are back, and no ladder built under
    one setting is served under another."""
    averaging._ladder.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    averaging._ladder.cache_clear()


class TestOscillatoryInput:
    def test_accepts_standard_waves(self):
        OscillatoryInput(np.sin, 1, 0.39)
        OscillatoryInput(np.cos, 2, 0.78)
        OscillatoryInput(np.cos, Fraction(1, 2), 0.5)

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValueError, match="mean"):
            OscillatoryInput(lambda s: 0.5 * (1.0 + np.sin(s)), 1, 0.5)

    def test_rejects_unbounded_wave(self):
        with pytest.raises(ValueError, match="magnitude"):
            OscillatoryInput(lambda s: 1.5 * np.sin(s), 1, 0.5)

    def test_a_bad_wave_is_refused_at_every_construction(self):
        # the checks run once per wave; their verdict is kept, not skipped
        for wave, match in [(lambda s: 0.5 * (1.0 + np.sin(s)), "mean"),
                            (lambda s: 1.5 * np.sin(s), "magnitude")]:
            for _ in range(2):
                with pytest.raises(ValueError, match=match):
                    OscillatoryInput(wave, 1, 0.5)

    def test_an_unhashable_wave_is_validated(self):
        class Wave:
            __hash__ = None

            def __call__(self, s):
                return 2.0 * np.sin(s)

        with pytest.raises(ValueError, match="magnitude"):
            OscillatoryInput(Wave(), 1, 0.5)

    def test_validation_cannot_be_switched_off(self):
        # averaging holds only for bounded zero-mean inputs, so every input
        # is checked; the refused wave's record still reads its mean
        wave = lambda s: 0.5 * (1.0 + np.sin(s))  # noqa: E731
        with pytest.raises(TypeError, match="validate"):
            OscillatoryInput(wave, 1, 0.5, validate=False)
        assert [f.name for f in fields(OscillatoryInput)] == ["wave", "k", "p_i"]
        bounded, mean = averaging._wave_checks(wave)
        assert bounded and mean == pytest.approx(0.5)

    def test_construction_reads_the_reported_mean(self):
        """cos(1000 s) has zero mean. On 1000 nodes it aliases onto the mean
        (1000 s is a whole number of turns at every node); on the 4096 that
        construction and the report share it does not."""
        wave = lambda s: np.cos(1000.0 * s)  # noqa: E731
        inp = OscillatoryInput(wave, 1, 0.5)
        assert inp.wave_checks == (True, pytest.approx(0.0, abs=averaging.MEAN_TOL))
        nodes = np.arange(1000) * (2.0 * math.pi / 1000)
        assert abs(np.mean(wave(nodes))) == pytest.approx(1.0)
        system = ControlAffineSystem(
            drift=lambda s: (0.0,), channels=((lambda s: (1.0,), inp),), dimension=1)
        clauses = {c.name: c for c in check_assumptions(system).clauses}
        assert clauses["input_0_zero_mean"].passed
        assert clauses["input_0_bounded"].passed

    def test_a_second_check_reads_the_wave_record(self, ref_params, ref_field):
        """The wave checks run once per hashable wave: a second
        check_assumptions on a built system calls its waves 0 times."""
        class CountingSine:
            calls = 0

            def __call__(self, s):
                CountingSine.calls += 1
                return np.sin(s)

        base = gradient_affine_system(ref_params, ref_field)
        (feedback, inp), dither = base.channels
        system = replace(base, channels=(
            (feedback, OscillatoryInput(CountingSine(), inp.k, inp.p_i)), dither))
        first = str(check_assumptions(system))
        CountingSine.calls = 0
        assert str(check_assumptions(system)) == first
        assert CountingSine.calls == 0

    def test_rejects_bad_multiplier_and_exponent(self):
        with pytest.raises(ValueError):
            OscillatoryInput(np.sin, 0, 0.5)
        with pytest.raises(ValueError):
            OscillatoryInput(np.sin, -2, 0.5)
        with pytest.raises(ValueError):
            OscillatoryInput(np.sin, 1, 1.5)


@pytest.fixture
def newton_system(ref_params, ref_field):
    return newton_affine_system(ref_params, ref_field)


@pytest.fixture
def gradient_system(ref_params, ref_field):
    return gradient_affine_system(ref_params, ref_field)


class TestGammaQuadrature:
    """Golden coefficient values for the sin/cos/cos-double channel triple
    with exponents (1-p, p, 2-2p)."""

    def test_feedback_dither_pair(self, newton_system):
        assert gamma_pair(0, 1, newton_system, 15.0) == pytest.approx(-0.5, abs=1e-9)

    def test_vanishing_pairs(self, newton_system):
        assert abs(gamma_pair(0, 2, newton_system, 15.0)) < 1e-10
        assert abs(gamma_pair(1, 2, newton_system, 15.0)) < 1e-10

    @pytest.mark.parametrize("omega", [10.0, 15.0, 40.0])
    def test_scaling_triples(self, newton_system, omega):
        p = 0.61
        got = gamma_triple(0, 1, 0, newton_system, omega)
        assert got == pytest.approx(1.0 / (2.0 * omega**p), rel=1e-9)
        got = gamma_triple(0, 2, 0, newton_system, omega)
        assert got == pytest.approx(-1.0 / (8.0 * omega ** (4.0 * p - 2.0)), rel=1e-9)

    def test_constant_triple(self, newton_system):
        assert gamma_triple(1, 2, 1, newton_system, 15.0) == pytest.approx(
            0.125, abs=1e-9
        )

    @pytest.mark.parametrize(
        "indices", [(0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 2, 0), (1, 2, 2)]
    )
    def test_vanishing_triples(self, newton_system, indices):
        assert abs(gamma_triple(*indices, newton_system, 15.0)) < 1e-9

    def test_index_order_enforced(self, newton_system):
        with pytest.raises(ValueError):
            gamma_pair(1, 1, newton_system, 15.0)
        with pytest.raises(ValueError):
            gamma_pair(2, 0, newton_system, 15.0)
        with pytest.raises(ValueError):
            gamma_triple(1, 0, 0, newton_system, 15.0)

    def test_other_index_tuples_and_frequencies_rejected(self, newton_system):
        for indices in ((0,), (0, 1, 3), (0, 1, -1), (0, 1, 2, 0)):
            assert indices not in newton_system.coefficients
            with pytest.raises(ValueError, match="no coefficient"):
                averaging._coefficient(newton_system, indices)
        with pytest.raises(ValueError, match="no coefficient"):
            gamma_triple(0, 1, 3, newton_system, 15.0)
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            gamma_pair(0, 1, newton_system, 0.0)
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            gamma_triple(1, 2, 1, newton_system, -15.0)

    def test_nonconvergent_quadrature_reported(self, newton_system, quad_settings):
        # a jump off the dyadic node grid keeps the ladder from settling
        # within a small node budget
        # admissible: its samples half a period apart cancel, so its mean
        # on the record's 4096 nodes is zero
        square = OscillatoryInput(lambda s: np.sign(np.sin(s + 0.3)), 1, 0.61)
        assert square.wave_checks == (True, 0.0)
        system = ControlAffineSystem(
            drift=lambda s: np.zeros(2),
            channels=(
                (lambda s: np.array([0.0, 1.0]), square),
                (lambda s: np.array([1.0, 0.0]), OscillatoryInput(np.cos, 1, 0.39)),
            ),
            dimension=2,
        )
        quad_settings.setattr(averaging, "QUAD_MAX_NODES", 2048)
        # the table is checked once, when it is built, whoever reads it
        with pytest.raises(QuadratureError, match="did not converge"):
            gamma_pair(0, 1, system, 10.0)
        with pytest.raises(QuadratureError,
                           match=r"for channels \(0, 1, 0\) at 2048 nodes"):
            build_averaged_field(system, default_omega_grid(10.0))
        with pytest.raises(QuadratureError, match="did not converge"):
            check_assumptions(system)


def test_assumption_sample_states_are_tuples_of_floats(monkeypatch):
    """``check_assumptions`` tests a bracket past its exponent budget at
    sample states that are tuples of floats, not arrays of numpy scalars."""
    system = ControlAffineSystem(
        drift=lambda s: (0.0, 0.0),
        channels=((lambda s: (0.0, s[0]), OscillatoryInput(np.sin, 1, 0.7)),
                  (lambda s: (1.0, 0.0), OscillatoryInput(np.cos, 1, 0.7))),
        dimension=2,
    )
    seen, vanishes = [], averaging._vanishes

    def recorded(f, g, x):
        seen.append(x)
        return vanishes(f, g, x)

    monkeypatch.setattr(averaging, "_vanishes", recorded)
    check_assumptions(system)
    assert seen and {type(x) for x in seen} == {tuple}
    assert {type(v) for x in seen for v in x} == {float}
    assert {type(v) for x in seen for v in x} == {float}


class TestLieBracket:
    def test_self_bracket_vanishes(self, newton_system, rng):
        f = newton_system.field(0)
        for _ in range(5):
            x = rng.normal(size=4) * 3.0
            np.testing.assert_array_equal(lie_bracket(f, f, x), np.zeros(4))

    def test_antisymmetry(self, newton_system, rng):
        f, g = newton_system.field(0), newton_system.field(2)
        for _ in range(10):
            x = np.array(
                [*rng.uniform(-5, 5, 2), rng.uniform(0.1, 50.0), rng.uniform(-2, 8)]
            )
            ab = lie_bracket(f, g, x)
            ba = lie_bracket(g, f, x)
            np.testing.assert_array_equal(ab, -ba)

    def test_nonfinite_evaluation_reported(self):
        def bad(x):
            return np.array([1.0 / x[0], 0.0])

        with pytest.raises(ValueError, match="non-finite"), np.errstate(
            divide="ignore"
        ):
            lie_bracket(bad, lambda x: np.ones(2), np.zeros(2))

    def test_gradient_scheme_bracket_displays(self, gradient_system, ref_params,
                                              ref_field, rng):
        """Closed-form first- and second-order brackets of the gradient
        decomposition, checked at 20 random states."""
        a, hess = ref_params.alpha, ref_field.hessian
        fs = ref_field.f_star
        f0, f1 = gradient_system.field(0), gradient_system.field(1)
        for _ in range(20):
            s = np.array([*rng.uniform(-5, 5, 2), rng.uniform(-2, 8)])
            err = fs - 0.5 * hess * (s[0] ** 2 + s[1] ** 2) - s[2]
            pair = lie_bracket(f0, f1, s)
            expect = np.array([0.0, a * hess * s[1], 0.0])
            np.testing.assert_allclose(
                pair, expect, atol=1e-12 * max(1.0, np.abs(expect).max())
            )
            nested = lie_bracket(lambda x: lie_bracket(f0, f1, x), f0, s)
            expect = np.array(
                [0.0, -a * hess * err - a * hess**2 * s[1] ** 2, 0.0]
            )
            np.testing.assert_allclose(
                nested, expect, atol=1e-12 * max(1.0, np.abs(expect).max())
            )

    def test_newton_scheme_bracket_displays(self, newton_system, ref_params,
                                            ref_field, rng):
        """Closed-form brackets of the curvature-inverting decomposition,
        including the Riccati-convergence generator, at 20 random states."""
        a, hess, wd = ref_params.alpha, ref_field.hessian, ref_params.omega_d
        f0, f1, f2 = (newton_system.field(i) for i in range(3))
        for _ in range(20):
            s = np.array(
                [*rng.uniform(-5, 5, 2), rng.uniform(0.1, 200.0), rng.uniform(-2, 8)]
            )
            d, z2 = s[2], s[1]
            pair01 = lie_bracket(f0, f1, s)
            expect = np.array([0.0, d * a * hess * z2, 0.0, 0.0])
            np.testing.assert_allclose(
                pair01, expect, atol=1e-12 * max(1.0, np.abs(expect).max())
            )
            pair12 = lie_bracket(f1, f2, s)
            expect = np.array([0.0, 0.0, d**2 * hess * (8.0 * wd / a) * z2, 0.0])
            np.testing.assert_allclose(
                pair12, expect, atol=1e-12 * max(1.0, np.abs(expect).max())
            )
            err = ref_field.f_star - 0.5 * hess * (s[0] ** 2 + z2**2) - s[3]
            nested010 = lie_bracket(lambda x: lie_bracket(f0, f1, x), f0, s)
            expect = np.array(
                [0.0, -hess * a * d**2 * err - a * (hess * d * z2) ** 2, 0.0, 0.0]
            )
            np.testing.assert_allclose(
                nested010, expect, atol=1e-12 * max(1.0, np.abs(expect).max())
            )
            nested121 = lie_bracket(lambda x: lie_bracket(f1, f2, x), f1, s)
            expect = np.array([0.0, 0.0, -8.0 * wd * hess * d**2, 0.0])
            np.testing.assert_allclose(
                nested121, expect, atol=1e-12 * max(1.0, np.abs(expect).max())
            )


class TestNonArithmeticFields:
    """Brackets differentiate fields at dual points, so a field must be
    plain arithmetic of its state; anything else fails at construction and
    names the field."""

    @staticmethod
    def system(drift, channel):
        return ControlAffineSystem(
            drift=drift,
            channels=(
                (lambda s: np.array([0.0, s[0]]), OscillatoryInput(np.sin, 1, 0.5)),
                (channel, OscillatoryInput(np.cos, 1, 0.5)),
            ),
            dimension=2,
        )

    def test_channel_calling_math_exp(self):
        with pytest.raises(TypeError, match="channel 1 is not plain arithmetic"):
            self.system(lambda s: np.zeros(2),
                        lambda s: np.array([math.exp(s[0]), 0.0]))

    def test_channel_branching_on_its_state(self):
        # a Dual is always truthy, so a dual evaluation passes this field;
        # the engine traces each field once, and a symbol has no truth value
        def channel(s):
            return (s[0] if s[0] else 1.0, 0.0)

        directional_derivative(channel, (0.5, 0.5), (1.0, 1.0))
        with pytest.raises(TypeError, match="channel 1 is not plain arithmetic"
                                            ".* no branch on the state"):
            self.system(lambda s: np.zeros(2), channel)

    @pytest.mark.parametrize("compare", [operator.ne, operator.eq])
    def test_channel_comparing_its_state(self, compare):
        # without a Sym.__eq__ of its own, s[0] != 0.0 would compare by
        # identity and trace one branch for every state
        def channel(s):
            return (s[0] if compare(s[0], 0.0) else 1.0, 0.0)

        with pytest.raises(TypeError, match="channel 1 is not plain arithmetic"
                                            ".* cannot be compared"):
            self.system(lambda s: np.zeros(2), channel)

    def test_numpy_integer_constants(self):
        # numpy integers combine with a symbol as Python ints do, and the
        # rendered field repeats their float operations bit for bit
        system = self.system(lambda s: (np.int64(2) * s[1], s[0] * np.int32(-3)),
                             lambda s: (np.int64(1) + s[1] * s[1], np.uint8(1)))
        engine = build_averaged_field(system, default_omega_grid(15.0))
        _assert_rendered_is_dual_path(engine, [(0.5, -2.0), (0.0, 3.0)])

    def test_drift_calling_a_numpy_ufunc(self):
        with pytest.raises(TypeError, match="drift is not plain arithmetic"):
            self.system(lambda s: np.sin(s), lambda s: np.array([1.0, 0.0]))

    def test_field_that_repeats_its_state_tuple(self):
        # 2 * s scales an array but repeats a tuple: four components, not two
        with pytest.raises(ValueError, match=r"drift returned shape \(4,\)"):
            self.system(lambda s: 2 * s, lambda s: (1.0, 0.0))

    def test_field_that_negates_its_state_tuple(self):
        # -s negates an array but is undefined on a tuple
        with pytest.raises(TypeError, match="channel 1 is not plain arithmetic"):
            self.system(lambda s: (0.0, 0.0), lambda s: -s)

    def test_probe_runs_once_per_field(self):
        calls = [0]

        def channel(s):
            calls[0] += 1
            return np.array([s[1] * s[1], 1.0])

        self.system(lambda s: np.zeros(2), channel)
        assert calls[0] == 3  # two real probe states and one symbolic probe


def _live_pair_system(p: float = 0.7) -> ControlAffineSystem:
    """Two channels whose pair exponent sum 2p exceeds 1 and whose bracket
    [f_0, f_1] = (0, -1) never vanishes."""
    return ControlAffineSystem(
        drift=lambda s: np.zeros(2),
        channels=(
            (lambda s: np.array([0.0, s[0]]), OscillatoryInput(np.sin, 1, p)),
            (lambda s: np.array([1.0, 0.0]), OscillatoryInput(np.cos, 1, p)),
        ),
        dimension=2,
    )


class TestClassifyLimit:
    """Limits come from the exact exponent q and the quadrature's own error
    estimate, never from a fit over frequencies."""

    def test_constant_samples_are_finite(self, gradient_system, newton_system):
        # q == 0: the coefficient is the constant raw at every frequency
        entry = gradient_system.coefficients[(0, 1)]
        assert entry.exponent == 0.0
        coefficient = Coefficient((0, 1), 0.0, entry.raw, entry.disagreement,
                                  entry.rounding, entry.nodes)
        assert coefficient == entry
        assert coefficient.kind == "finite" and coefficient.exponent == 0.0
        assert coefficient.limit == entry.raw == pytest.approx(-0.5, abs=1e-9)
        grid = default_omega_grid(15.0)
        engine = build_averaged_field(newton_system, grid)
        entry = engine.coefficients[(1, 2, 1)]
        assert entry.kind == "finite"
        assert entry.limit == pytest.approx(0.125, abs=1e-9)
        assert tuple(entry.at(w) for w in grid) == (entry.raw,) * 4

    def test_rounded_exponent_sums_are_exactly_zero(self, ref_params, ref_field):
        # (1 - p) + p and p + (2 - 2p) + p may round one ulp off the integer
        from dataclasses import replace

        for p in np.linspace(0.501, 0.999, 499):
            params = replace(ref_params, p_exp=float(p))
            gradient = gradient_affine_system(params, ref_field)
            assert gradient.coefficients[(0, 1)].exponent == 0.0
            newton = newton_affine_system(params, ref_field)
            assert newton.coefficients[(0, 1)].exponent == 0.0
            assert newton.coefficients[(1, 2, 1)].exponent == 0.0

    def test_small_exponent_excess_is_not_rounded_away(self):
        system = ControlAffineSystem(
            drift=lambda s: np.zeros(1),
            channels=(
                (lambda s: np.ones(1), OscillatoryInput(np.sin, 1, 0.5)),
                (lambda s: np.ones(1), OscillatoryInput(np.cos, 1, 0.5 + 1e-12)),
            ),
            dimension=1,
        )
        coefficient = system.coefficients[(0, 1)]
        assert coefficient.exponent == pytest.approx(1e-12, rel=1e-3)
        assert coefficient.kind == "divergent"

    def test_decaying_power_law_is_zero(self, newton_system, ref_params):
        # raw is 1/2, far from zero, but gamma = omega**(-p) / 2 vanishes
        engine = build_averaged_field(newton_system, default_omega_grid(15.0))
        entry = engine.coefficients[(0, 1, 0)]
        assert entry.raw == pytest.approx(0.5, abs=1e-9)
        assert entry.kind == "zero" and entry.limit == 0.0
        assert entry.exponent == pytest.approx(-ref_params.p_exp, abs=1e-12)
        coefficient = Coefficient((0, 1), -0.3, 0.5, 1e-12, 1e-13, 2048)
        assert coefficient.kind == "zero" and coefficient.exponent == -0.3

    def test_growing_power_law_is_divergent(self):
        system = _live_pair_system()
        engine = build_averaged_field(system, default_omega_grid(10.0))
        coefficient = engine.coefficients[(0, 1)]
        assert coefficient.kind == "divergent" and coefficient.limit is None
        assert coefficient.exponent == pytest.approx(0.4, abs=1e-12)
        assert abs(coefficient.raw) > 1e3 * coefficient.error

    def test_negligible_samples_shortcut(self, ref_params, ref_field):
        from dataclasses import replace

        # at p = 0.55 the pair (0, 2) and the triple (1, 2, 2) grow like
        # omega**0.35 but their iterated integrals vanish; both rungs are
        # exact to rounding, so |raw| and the ladder disagreement are
        # rounding noise, and the measured rounding allowance covers them
        # with a wide margin while staying far below the live pair (0, 1)
        system = newton_affine_system(replace(ref_params, p_exp=0.55), ref_field)
        engine = build_averaged_field(system, default_omega_grid(15.0))
        for indices in ((0, 2), (1, 2, 2)):
            entry = engine.coefficients[indices]
            assert entry.kind == "zero"
            assert entry.exponent == pytest.approx(0.35, abs=1e-12)
            assert abs(entry.raw) <= entry.error
            assert 100.0 * max(abs(entry.raw), entry.disagreement) < entry.rounding
        live = engine.coefficients[(0, 1)]
        assert live.kind == "finite"
        assert abs(live.raw) > 1e9 * live.error

    def test_rounding_allowance_decides_a_tiny_raw(self):
        assert Coefficient((1, 2), 0.35, 5e-17, 4e-17, 0.0, 2048).kind == "divergent"
        assert Coefficient((1, 2), 0.35, 5e-17, 4e-17, 1e-13, 2048).kind == "zero"
        # a zero raw at exponent 0 is zero, not a finite zero constant
        assert Coefficient((1, 2), 0.0, 5e-17, 4e-17, 1e-13, 2048).kind == "zero"

    def test_rounding_allowance_is_measured_not_fixed(self, newton_system):
        # nodes * eps * mean of |integrand|: tiny next to any live
        # coefficient, and different for integrands of different size; the
        # band-limited inputs stop at the second rung of the 1024-node ladder
        eps = float(np.finfo(float).eps)
        pair = newton_system.coefficients[(0, 1)]
        triple = newton_system.coefficients[(1, 2, 1)]
        for raw in (pair, triple):
            assert raw.nodes == 2048
            assert 0.0 < raw.rounding < raw.nodes * eps
        assert pair.rounding != triple.rounding

    def test_samples_follow_the_exact_power_law(self, newton_system):
        grid = default_omega_grid(15.0)
        engine = build_averaged_field(newton_system, grid)
        text = engine.report()
        for entry in engine.coefficients.values():
            # q = p_i + p_j - 1 or p_i + p_j + p_m - 2, up to the rounding of
            # a sum that is exactly an integer
            p_sum = sum(newton_system.input(k).p_i for k in entry.indices)
            q = entry.exponent
            assert abs(q - (p_sum - len(entry.indices) + 1)) <= 4 * math.ulp(p_sum)
            samples = tuple(w**q * entry.raw for w in grid)
            assert tuple(entry.at(w) for w in grid) == samples
            listed = ", ".join(f"{v:.12g}" for v in samples)
            assert f"samples=[{listed}]" in text

    def test_gamma_is_the_power_law_of_raw(self, newton_system):
        c = newton_system.coefficients[(0, 2, 0)]
        assert gamma_triple(0, 2, 0, newton_system, 40.0) == 40.0**c.exponent * c.raw

    def test_one_coefficient_per_index_tuple_pairs_first(self, newton_system):
        # the engine sums its brackets in this order, and check_assumptions
        # draws its sample states in it
        engine = build_averaged_field(newton_system, default_omega_grid(15.0))
        pairs = [(0, 1), (0, 2), (1, 2)]
        triples = [(i, j, m) for i, j in pairs for m in range(3)]
        assert engine.coefficients is newton_system.coefficients
        assert list(engine.coefficients) == pairs + triples
        assert all(c.indices == ix for ix, c in engine.coefficients.items())
        names = [c.name for c in check_assumptions(newton_system).clauses
                 if c.name.endswith("_exponent_budget")]
        assert names == [f"pair_({i},{j})_exponent_budget" for i, j in pairs] + [
            f"triple_({i},{j},{m})_exponent_budget" for i, j, m in triples
        ]

    def test_sample_grid_validation(self, gradient_system):
        with pytest.raises(ValueError, match="omega grid"):
            build_averaged_field(gradient_system, ())
        with pytest.raises(ValueError, match="omega grid"):
            build_averaged_field(gradient_system, (10.0, -20.0))

    def test_default_grid(self):
        assert default_omega_grid(15.0) == (15.0, 30.0, 60.0, 120.0)


class TestAveragedField:
    def test_single_zero_mean_channel_averages_to_nothing(self, rng):
        system = ControlAffineSystem(
            drift=lambda s: np.zeros(2),
            channels=((lambda s: np.array([1.0, s[0]]), OscillatoryInput(np.sin, 1, 0.7)),),
            dimension=2,
        )
        engine = build_averaged_field(system, default_omega_grid(10.0))
        for _ in range(5):
            x = rng.normal(size=2)
            np.testing.assert_array_equal(engine(x), np.zeros(2))

    def test_matches_gradient_closed_form(self, gradient_system, ref_params,
                                          ref_field, rng):
        engine = build_averaged_field(gradient_system, default_omega_grid(15.0))
        reference = averaged_closed_loop(Scheme.GRADIENT, ref_params, ref_field)
        for _ in range(5):
            s = np.array([*rng.uniform(-5, 5, 2), rng.uniform(-2, 8)])
            ref = reference(0.0, s)
            np.testing.assert_allclose(
                engine(s), ref, atol=1e-12 * max(1.0, float(np.linalg.norm(ref)))
            )

    def test_matches_newton_closed_form(self, newton_system, ref_params,
                                        ref_field, rng):
        engine = build_averaged_field(newton_system, default_omega_grid(15.0))
        reference = averaged_closed_loop(Scheme.NEWTON, ref_params, ref_field)
        for _ in range(5):
            s = np.array(
                [*rng.uniform(-5, 5, 2), rng.uniform(0.1, 200.0), rng.uniform(-2, 8)]
            )
            ref = reference(0.0, s)
            np.testing.assert_allclose(
                engine(s), ref, atol=1e-12 * max(1.0, float(np.linalg.norm(ref)))
            )

    def test_single_evaluation_matches_closed_form(self, gradient_system,
                                                   ref_params, ref_field):
        s = np.array([1.0, -2.0, 3.0])
        reference = averaged_closed_loop(Scheme.GRADIENT, ref_params, ref_field)
        out = build_averaged_field(gradient_system, default_omega_grid(15.0))(s)
        np.testing.assert_allclose(out, reference(0.0, s), atol=1e-12)

    def test_divergent_coefficient_with_live_bracket_raises(self):
        # exponents sum above 1 on channels whose bracket does not vanish
        def f1(s):
            return np.array([0.0, s[0]])

        def f2(s):
            return np.array([1.0, 0.0])

        system = ControlAffineSystem(
            drift=lambda s: np.zeros(2),
            channels=(
                (f1, OscillatoryInput(np.sin, 1, 0.7)),
                (f2, OscillatoryInput(np.cos, 1, 0.7)),
            ),
            dimension=2,
        )
        engine = build_averaged_field(system, default_omega_grid(10.0))
        assert engine.coefficients[(0, 1)].kind == "divergent"
        with pytest.raises(DivergentAverageError, match="grows like"):
            engine(np.array([1.0, 2.0]))

    def test_a_nonzero_mean_channel_is_refused_before_any_build(self):
        # its term omega**0.6 * mean * f_0 diverges and no bracket expansion
        # holds, so the input is refused and there is no system to build
        with pytest.raises(ValueError, match=r"\|waveform mean\| 5\.000e-01 is not zero"):
            OscillatoryInput(lambda s: 0.5 * (1.0 + np.sin(s)), 1, 0.6)
        # the same wave without its mean builds
        system = ControlAffineSystem(
            drift=lambda s: (0.0,),
            channels=(
                (lambda s: (1.0,), OscillatoryInput(lambda s: 0.5 * np.sin(s), 1, 0.6)),
                (lambda s: (s[0],), OscillatoryInput(np.cos, 1, 0.4)),
            ),
            dimension=1,
        )
        build_averaged_field(system, default_omega_grid(10.0))

    def test_report_lists_every_coefficient(self, newton_system):
        engine = build_averaged_field(newton_system, default_omega_grid(15.0))
        text = engine.report()
        assert "gamma_0_1 = class=finite" in text
        assert "gamma_1_2_1 = class=finite" in text
        # 3 pairs + 9 triples
        assert text.count("class=") == 12
        assert "exponent=" in text and "samples=[" in text

    def test_report_lists_quadrature_nodes_and_error(self, newton_system):
        engine = build_averaged_field(newton_system, default_omega_grid(15.0))
        lines = [l for l in engine.report().splitlines() if l.startswith("gamma_")]
        assert len(lines) == 12
        for line, c in zip(lines, engine.coefficients.values()):
            assert c.nodes == 2048 and 0.0 < c.error < 1e-12
            assert line.endswith(f" nodes=2048 error={c.error:.3e}")
        assert lines[0] == ("gamma_0_1 = class=finite value=-0.5 exponent=0.0000 "
                            "samples=[-0.5, -0.5, -0.5, -0.5] nodes=2048 "
                            f"error={engine.coefficients[(0, 1)].error:.3e}")


class TestVanishingRule:
    """One scale-free rule decides every divergent coefficient, in the
    engine and in check_assumptions: a bracket vanishes at x when
    |[f, g](x)| <= BRACKET_RTOL * (|Dg(x)[f(x)]| + |Df(x)[g(x)]|)."""

    @staticmethod
    def demodulated_newton(ref_params, ref_field):
        """The Newton loop at alpha 0.3 and H 0.001 with its demodulation
        channel driven by 0.5 cos 2s + 0.5 cos 3s at multiplier 1: the
        (1, 2, 2) coefficient grows like omega**0.17 against a bracket that
        is identically zero."""
        from dataclasses import replace

        base = newton_affine_system(replace(ref_params, alpha=0.3),
                                    replace(ref_field, hessian=0.001))
        wave = OscillatoryInput(lambda s: 0.5 * np.cos(2 * s) + 0.5 * np.cos(3 * s),
                                1, base.input(2).p_i)
        channels = base.channels[:2] + ((base.field(2), wave),)
        return ControlAffineSystem(drift=base.drift, channels=channels,
                                   dimension=4)

    def test_identically_zero_bracket_at_large_states(self, ref_params, ref_field):
        # an absolute tolerance of 1e-10 * (1 + |x|) rejected 22 of these
        # 50 states while check_assumptions accepted the system
        system = self.demodulated_newton(ref_params, ref_field)
        engine = build_averaged_field(system, default_omega_grid(15.0))
        assert engine.coefficients[(1, 2, 2)].kind == "divergent"
        assert check_assumptions(system).ok
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-3.0, 3.0, 4)
            x[2] = rng.uniform(1.0 / 0.001, 2.0 / 0.001)
            assert np.all(np.isfinite(engine(x)))

    def test_zero_bracket_passes_with_a_margin(self, ref_params, ref_field,
                                               monkeypatch):
        # rounding leaves about one eps of its terms in the identically zero
        # (1, 2, 2) bracket of the Newton loop; the rule holds even at an
        # eighth of its tolerance, across gains and engine-like states
        from dataclasses import replace

        monkeypatch.setattr(averaging, "BRACKET_RTOL", averaging.BRACKET_RTOL / 8)
        rng = np.random.default_rng(3)
        for _ in range(40):
            params = replace(ref_params, alpha=rng.uniform(0.3, 3.0),
                             p_exp=rng.uniform(0.55, 0.8))
            hessian = 10.0 ** rng.uniform(-3.0, 1.0)
            system = newton_affine_system(params, replace(ref_field, hessian=hessian))
            f, g = averaging._bracket(system, (1, 2, 2))
            for _ in range(5):
                x = np.array([*rng.uniform(-3.0, 3.0, 2), rng.uniform(0.1, 2.0 / hessian),
                              rng.uniform(-3.0, 3.0)])
                assert averaging._vanishes(f, g, x)

    def test_tiny_live_bracket_is_not_zero(self):
        # [f_0, f_1] = (0, -1e-24): far below any absolute tolerance, but
        # each of its terms is that large too, so it does not vanish
        system = ControlAffineSystem(
            drift=lambda s: np.zeros(2),
            channels=(
                (lambda s: np.array([0.0, 1e-12 * s[0]]),
                 OscillatoryInput(np.sin, 1, 0.7)),
                (lambda s: np.array([1e-12, 0.0]), OscillatoryInput(np.cos, 1, 0.7)),
            ),
            dimension=2,
        )
        engine = build_averaged_field(system, default_omega_grid(10.0))
        with pytest.raises(DivergentAverageError, match="grows like"):
            engine(np.array([1.0, 2.0]))
        clause = {c.name: c for c in check_assumptions(system).clauses}[
            "pair_(0,1)_exponent_budget"]
        assert clause.triggered and not clause.passed

    @pytest.mark.parametrize("delta, vanishes",
                             [(0.0, True), (1.0, True), (4.0, False)])
    def test_threshold_is_relative_to_the_terms(self, delta, vanishes):
        # f = A x and g = B x with A = diag(1, 1 + d) and B the swap: at
        # (c, c) the terms B A x and A B x differ by d c in two entries, so
        # |[f, g]| is d/2 of the sum of their norms at every scale c
        d = delta * averaging.BRACKET_RTOL

        def f(s):
            return np.array([s[0], (1.0 + d) * s[1]])

        def g(s):
            return np.array([s[1], s[0]])

        for c in (1e-150, 1.0, 1e150):
            assert averaging._vanishes(f, g, np.array([c, c])) is vanishes


_SOURCE = np.array([1.0, -1.0])


@settings(max_examples=25, deadline=None)
@given(
    p_exp=st.floats(0.55, 0.8),
    omega=st.floats(10.0, 30.0),
    alpha=st.floats(0.3, 3.0),
    hessian=st.floats(0.001, 10.0),
)
def test_engine_matches_closed_form_across_gains(p_exp, omega, alpha, hessian):
    """Below p = 2/3 the pair (0, 2) of the Newton loop grows like
    omega**(2 - 3p) with a vanishing integral, so the zero test is pinned
    on part of this range."""
    params = SeekerParams(omega=omega, omega0=1.0, alpha=alpha, p_exp=p_exp,
                          h_gain=1.0, omega_d=0.3)
    field = FieldParams(f_star=5.0, hessian=hessian, source=_SOURCE)
    rng = np.random.default_rng(7)
    for make, scheme, finite in (
        (gradient_affine_system, Scheme.GRADIENT, {(0, 1)}),
        (newton_affine_system, Scheme.NEWTON, {(0, 1), (1, 2, 1)}),
    ):
        system = make(params, field)
        engine = build_averaged_field(system, default_omega_grid(omega))
        assert {ix for ix, c in engine.coefficients.items()
                if c.kind == "finite"} == finite
        closed = averaged_closed_loop(scheme, params, field)
        for _ in range(5):
            state = rng.uniform(-3.0, 3.0, size=system.dimension)
            if system.dimension == 4:
                state[2] = rng.uniform(0.1, 2.0 / hessian)
            reference = closed(0.0, state)
            defect = float(np.linalg.norm(engine(state) - reference))
            assert defect <= 1e-12 * max(1.0, float(np.linalg.norm(reference)))


#: engine outputs at fixed states, as float.hex, from the object-array dual
#: engine that the tuple path replaced: (alpha, p, omega, hessian) -> scheme
#: -> [(state, output)]
_ENGINE_PINS = {
    (2.0, 0.61, 15.0, 0.01): {
        "gradient": [
            ((1.0, -2.0, 3.0), ("-0x1.0000000000000p+1", "-0x1.f5c28f5c28f5cp-1",
                                "0x1.f999999999998p+0")),
            ((-2.5, 0.75, 4.0), ("0x1.8000000000000p-1", "0x1.3f0a3d70a3d71p+1",
                                 "0x1.ee8f5c28f5c28p-1")),
            ((0.3, 2.9, -1.5), ("0x1.7333333333333p+1", "-0x1.50e5604189374p-2",
                                "0x1.9d47ae147ae14p+2")),
        ],
        "newton": [
            ((1.0, 2.0, 30.0, 4.0), ("0x1.0000000000000p+1", "-0x1.9999999999999p+0",
                                     "0x1.9333333333333p+2", "0x1.f333333333330p-1")),
            ((-2.5, 0.75, 150.0, -1.0), ("0x1.8000000000000p-1", "0x1.6000000000001p+0",
                                         "-0x1.6800000000000p+4",
                                         "0x1.7dd1eb851eb85p+2")),
            ((0.3, -2.9, 0.5, 6.0), ("-0x1.7333333333333p+1", "-0x1.245a1cac08312p-2",
                                     "0x1.31a9fbe76c8b4p-3", "-0x1.0ae147ae147b0p+0")),
        ],
    },
    (0.7, 0.7, 23.0, 3.0): {
        "gradient": [
            ((1.0, -2.0, 3.0), ("-0x1.0000000000000p+1", "0x1.1999999999996p+0",
                                "-0x1.6000000000000p+2")),
            ((-2.5, 0.75, 4.0), ("0x1.8000000000000p-1", "0x1.b666666666668p+0",
                                 "-0x1.2700000000000p+3")),
            ((0.3, 2.9, -1.5), ("0x1.7333333333333p+1", "-0x1.ac28f5c28f5c0p+1",
                                "-0x1.9000000000000p+2")),
        ],
        "newton": [
            ((1.0, 2.0, 30.0, 4.0), ("0x1.0000000000000p+1", "-0x1.ffffffffffffcp+5",
                                     "-0x1.907ffffffffffp+9", "-0x1.a000000000000p+2")),
            ((-2.5, 0.75, 150.0, -1.0), ("0x1.8000000000000p-1", "-0x1.ce7fffffffffdp+6",
                                         "-0x1.3bb3fffffffffp+14",
                                         "-0x1.0e00000000000p+2")),
            ((0.3, -2.9, 0.5, 6.0), ("-0x1.7333333333333p+1", "0x1.38f5c28f5c28dp+0",
                                     "-0x1.3333333333332p-4", "-0x1.b800000000000p+3")),
        ],
    },
}


@pytest.mark.parametrize("gains", list(_ENGINE_PINS), ids=["reference", "steep"])
def test_engine_outputs_are_pinned_bit_for_bit(gains):
    """The engine's rounding is part of its contract: criterion 2's defects
    and the CLI's average report are stated to the last digit."""
    alpha, p_exp, omega, hessian = gains
    params = SeekerParams(omega=omega, omega0=1.0, alpha=alpha, p_exp=p_exp,
                          h_gain=1.0, omega_d=0.3)
    field = FieldParams(f_star=5.0, hessian=hessian, source=_SOURCE)
    for scheme, make in (("gradient", gradient_affine_system),
                         ("newton", newton_affine_system)):
        engine = build_averaged_field(make(params, field), default_omega_grid(omega))
        for state, expected in _ENGINE_PINS[gains][scheme]:
            got = engine(np.array(state))
            assert got.dtype == float
            assert tuple(float(v).hex() for v in got) == expected, (scheme, state)


@pytest.mark.parametrize("make", [gradient_affine_system, newton_affine_system],
                         ids=["gradient", "newton"])
def test_rendered_field_stores_no_temporary_it_never_loads(make, ref_params, ref_field):
    """The rendered field runs only the lines that can change its value or
    stop it: an unused ``+``, ``-`` or ``*`` is dropped, and a recorded
    finiteness test, whose value nothing reads, is a bare call."""
    engine = build_averaged_field(make(ref_params, ref_field),
                                  default_omega_grid(ref_params.omega))
    stored, loaded = set(), set()
    for ins in dis.get_instructions(engine._evaluate):
        names = ins.argval if isinstance(ins.argval, tuple) else (ins.argval,)
        for kind, name in zip(re.findall(r"(LOAD|STORE)_FAST", ins.opname), names):
            (stored if kind == "STORE" else loaded).add(name)
    temporaries = {n for n in stored if re.fullmatch(r"t\d+", n)}
    assert temporaries and temporaries <= loaded, temporaries - loaded


@settings(max_examples=60, deadline=None)
@given(
    a=st.sampled_from([1, 2, 3]),
    b=st.sampled_from([1, 2, 3]),
    phase_i=st.floats(-math.pi, math.pi),
    phase_j=st.floats(-math.pi, math.pi),
)
def test_pair_coefficient_matches_closed_form(a, b, phase_i, phase_j):
    """cos(a s + phase_i) against cos(b s + phase_j): the pair coefficient is
    sin(phase_i - phase_j) / (2a) at equal frequencies and zero otherwise."""
    system = ControlAffineSystem(
        drift=lambda s: np.zeros(1),
        channels=(
            (lambda s: np.ones(1),
             OscillatoryInput(lambda s: np.cos(s + phase_i), a, 0.5)),
            (lambda s: np.ones(1),
             OscillatoryInput(lambda s: np.cos(s + phase_j), b, 0.5)),
        ),
        dimension=1,
    )
    coefficient = system.coefficients[(0, 1)]
    if a == b:
        expected = math.sin(phase_i - phase_j) / (2 * a)
        assert abs(coefficient.raw - expected) <= 1e-14
    else:
        assert coefficient.kind == "zero"


def _three_channels(*channels):
    """Unit fields driven by the ``(wave, multiplier)`` channels."""
    def unit(s):
        return np.ones(1)

    return ControlAffineSystem(
        drift=lambda s: np.zeros(1),
        channels=tuple((unit, OscillatoryInput(wave, k, 0.5))
                       for wave, k in channels),
        dimension=1,
    )


@pytest.mark.parametrize("a, r, harmonic", [
    (1, 64, 1), (64, 1, 1), (Fraction(1, 64), 1, 1), (1, Fraction(1, 64), 1),
    (1, 2048, 1), (Fraction(1, 2048), 1, 1), (1, 1, 64),
], ids=["1:64", "64:1", "1/64:1", "1:1/64", "1:2048", "1/2048:1",
        "waves-at-64"])
def test_far_apart_frequencies_against_closed_form(a, r, harmonic):
    """sin(a s) against sin(b s), cos(b s) with b = harmonic * r far from
    a, so the fast harmonic sits at a multiple of small grids (2048 at a
    multiple of the second rung of the 1024-node floor); harmonic 64 puts
    it inside the waves, at multiplier 1. Every coefficient matches its
    closed form, the vanishing ones are zero within their error, and the
    live ones are not."""
    system = _three_channels((np.sin, a),
                             (lambda s: np.sin(harmonic * s), r),
                             (lambda s: np.cos(harmonic * s), r))
    a, b = float(a), float(harmonic * r)
    expected = {
        (0, 1): 0.0, (0, 2): 0.0, (1, 2): -1.0 / (2.0 * b),
        (0, 1, 0): 0.0, (0, 1, 1): 0.0, (0, 1, 2): -1.0 / (6.0 * a * b),
        (0, 2, 0): 0.0, (0, 2, 1): 1.0 / (6.0 * a * b), (0, 2, 2): 0.0,
        (1, 2, 0): 1.0 / (3.0 * a * b), (1, 2, 1): 1.0 / (2.0 * b * b),
        (1, 2, 2): 0.0,
    }
    scale = max(abs(v) for v in expected.values())
    for indices, value in expected.items():
        c = system.coefficients[indices]
        assert abs(c.raw - value) <= 1e-12 * scale
        assert (abs(c.raw) <= c.error) == (value == 0.0)


def test_multipliers_beyond_the_node_cap_rejected():
    # 10**5 cycles of the fast channel per common period need a first rung
    # of 2**20 nodes, so the ladder would exceed QUAD_MAX_NODES
    system = _three_channels((np.sin, 1), (np.sin, 10**5), (np.cos, 10**5))
    with pytest.raises(QuadratureError, match="cycles per common period"):
        system.coefficients


def _reference_table() -> dict:
    return _three_channels((np.sin, 1), (np.cos, 1), (np.cos, 2)).coefficients


def test_a_node_cap_the_first_rung_cannot_meet_refuses_every_build(quad_settings):
    """A wave set of hashable waves whose first rung needs more nodes than
    the cap is refused at every build: a refusal is not cached."""
    quad_settings.setattr(averaging, "QUAD_MAX_NODES", 1024)
    for _ in range(2):
        with pytest.raises(QuadratureError, match="needs 2048 nodes, above 1024"):
            _reference_table()
    assert averaging._ladder.cache_info().currsize == 0


def test_a_finer_first_rung_is_the_ladder_s_first(quad_settings):
    """A ladder climbs from the ``QUAD_MIN_NODES`` read at its build, and
    later systems on the same waves read it from the cache."""
    quad_settings.setattr(averaging, "QUAD_MIN_NODES", 4096)
    table = _reference_table()
    assert {c.nodes for c in table.values()} == {8192}
    hits = averaging._ladder.cache_info().hits
    assert _reference_table() == table
    assert averaging._ladder.cache_info().hits == hits + 1


class _Unhashable:
    """A wave that keys no cache: it calls ``wave``."""

    __hash__ = None

    def __init__(self, wave):
        self.wave = wave

    def __call__(self, s):
        return self.wave(s)


def _hexed(c: Coefficient) -> tuple:
    fields = (c.indices, c.exponent, c.raw, c.disagreement, c.rounding,
              c.nodes, c.error, c.kind, c.limit)
    return tuple(v.hex() if isinstance(v, float) else v for v in fields)


@settings(max_examples=25, deadline=None)
@given(
    p_exp=st.floats(0.55, 0.8),
    alpha=st.floats(0.3, 3.0),
    omega=st.floats(10.0, 30.0),
    hessian=st.floats(0.001, 10.0),
)
def test_cached_table_is_the_uncached_build_across_gains(p_exp, alpha, omega,
                                                         hessian):
    """A table read from the shared ladder of its wave set matches, field by
    field and bit for bit, the table of the same system on unhashable
    copies of its waves, whose ladder runs uncached."""
    params = SeekerParams(omega=omega, omega0=1.0, alpha=alpha, p_exp=p_exp,
                          h_gain=1.0, omega_d=0.3)
    field = FieldParams(f_star=5.0, hessian=hessian, source=_SOURCE)
    for make in (gradient_affine_system, newton_affine_system):
        make(params, field).coefficients
        hits = averaging._ladder.cache_info().hits
        system = make(params, field)
        cached = system.coefficients
        assert averaging._ladder.cache_info().hits == hits + 1
        bypass = replace(system, channels=tuple(
            (f, replace(inp, wave=_Unhashable(inp.wave)))
            for f, inp in system.channels))
        info = averaging._ladder.cache_info()
        uncached = bypass.coefficients
        assert averaging._ladder.cache_info() == info
        assert list(cached) == list(uncached)
        assert ([_hexed(c) for c in cached.values()]
                == [_hexed(c) for c in uncached.values()])


def _cumulative_trapezoid(values, s):
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(s))
    return out


def test_nonzero_mean_channels_against_nested_trapezoid():
    """The ladder's channels of nonzero mean, which no input admits but
    whose mean terms keep a mean below ``MEAN_TOL`` exact, and fractional
    multipliers: every ``raw`` matches a nested trapezoid rule on 2**15
    intervals, whose own error is below 1e-8 here."""
    channels = ((lambda s: 0.5 + 0.5 * np.sin(s), Fraction(1)),
                (np.cos, Fraction(1, 2)),
                (lambda s: 0.3 - 0.6 * np.cos(2 * s + 0.4), Fraction(3)))
    ladder = averaging._ladder(channels)
    span = 4.0 * math.pi
    s = np.linspace(0.0, span, 2**15 + 1)
    waves = [np.asarray(wave(float(k) * s)) for wave, k in channels]
    running = [_cumulative_trapezoid(w, s) for w in waves]
    indices = averaging._index_tuples(3)
    assert len(ladder) == len(indices)
    for (i, j, *m), (raw, _, _, _) in zip(indices, ladder):
        if m:
            inner = _cumulative_trapezoid(waves[j] * running[i]
                                          - waves[i] * running[j], s)
            expected = _cumulative_trapezoid(waves[m[0]] * inner, s)[-1] / (3.0 * span)
        else:
            expected = _cumulative_trapezoid(waves[j] * running[i], s)[-1] / span
        assert raw == pytest.approx(expected, abs=1e-7)


def test_import_does_not_load_scipy():
    code = ("import sys, sourceseek; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(_SRC)})
    assert out.stdout.strip() == "[]"


def test_checking_the_default_systems_does_not_load_numpy_random():
    """check_assumptions draws its sample states from the standard library,
    so verifying both default loops leaves numpy.random unimported."""
    code = ("import sys, sourceseek as s; "
            "[s.check_assumptions(make(s.DEFAULT_PARAMS, s.DEFAULT_FIELD)) "
            " for make in (s.gradient_affine_system, s.newton_affine_system)]; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(_SRC)})
    assert out.stdout.strip() == "[]"


class TestEvaluationCost:
    """Field evaluations, counted on wrapped fields: one per field value and
    one per dual directional derivative. A bracket costs four of them and a
    nested one ten; the engine pays them once, when it traces its brackets
    at build, and evaluates a state without calling a field. A return to
    Jacobian products (about 170 evaluations per nested bracket of the
    four-state loop), to central differences (6 per pair bracket, 21 per
    nested one) or to brackets evaluated per state fails here by name."""

    @staticmethod
    def counted(system):
        counts = [0]

        def wrap(fn):
            def field(x):
                counts[0] += 1
                return fn(x)
            return field

        wrapped = ControlAffineSystem(
            drift=wrap(system.drift),
            channels=tuple((wrap(f), u) for f, u in system.channels),
            dimension=system.dimension,
        )
        counts[0] = 0  # construction probes every field
        return wrapped, counts

    STATE = np.array([1.0, 2.0, 30.0, 4.0])

    def test_pair_bracket_costs_four_evaluations(self, newton_system):
        system, counts = self.counted(newton_system)
        lie_bracket(system.field(1), system.field(2), self.STATE)
        assert counts[0] == 4

    def test_nested_bracket_costs_ten_evaluations(self, newton_system):
        # the inner bracket at x (4), f_1 at x and at a dual point (2), and
        # the inner bracket at a dual point (4)
        system, counts = self.counted(newton_system)
        lie_bracket(*averaging._bracket(system, (1, 2, 1)), self.STATE)
        assert counts[0] == 10

    def assert_traced_once_per_build(self, system, per_build):
        system, counts = self.counted(system)
        engine = build_averaged_field(system, default_omega_grid(15.0))
        assert counts[0] == per_build
        counts[0] = 0
        for scale in (1.0, -0.5, 3.0):
            engine(scale * self.STATE[:system.dimension])
        assert counts[0] == 0

    def test_newton_engine_evaluation_cost(self, newton_system):
        # drift, the finite pair [f_0, f_1] and the finite triple
        # [[f_1, f_2], f_1] at build; every vanishing coefficient is skipped
        self.assert_traced_once_per_build(newton_system, 1 + 4 + 10)

    def test_gradient_engine_evaluation_cost(self, gradient_system):
        # drift and the finite pair [f_0, f_1] at build; the triples all
        # vanish
        self.assert_traced_once_per_build(gradient_system, 1 + 4)

    @staticmethod
    def steep(ref_params, ref_field):
        return newton_affine_system(replace(ref_params, alpha=0.7, p_exp=0.7),
                                    replace(ref_field, hessian=3.0))

    def test_gains_share_one_compiled_field(self, newton_system, ref_params,
                                            ref_field):
        # the gains are arguments of the rendered source, which depends only
        # on the operations, so it is compiled once for both
        a = build_averaged_field(newton_system, default_omega_grid(15.0))
        b = build_averaged_field(self.steep(ref_params, ref_field),
                                 default_omega_grid(23.0))
        assert a._evaluate.__code__ is b._evaluate.__code__
        assert not np.array_equal(a(self.STATE), b(self.STATE))

    def test_a_later_build_leaves_an_engine_alone(self, newton_system,
                                                  ref_params, ref_field):
        a = build_averaged_field(newton_system, default_omega_grid(15.0))
        before = [v.hex() for v in a(self.STATE)]
        b = build_averaged_field(self.steep(ref_params, ref_field),
                                 default_omega_grid(23.0))
        b(self.STATE)
        assert [v.hex() for v in a(self.STATE)] == before


def _dual_path(engine, x) -> np.ndarray:
    """The engine's field at ``x`` through duals at the state, every live
    bracket by :func:`lie_bracket` and the vanishing rule by
    ``_vanishes``: the oracle of the rendered field."""
    x = tuple(map(float, x))
    out = np.array(engine.system.drift(x), dtype=float)
    for c in engine.coefficients.values():
        if c.kind == "zero":
            continue
        f, g = averaging._bracket(engine.system, c.indices)
        if c.kind == "finite":
            out += c.raw * lie_bracket(f, g, x)
        elif not averaging._vanishes(f, g, x):
            raise DivergentAverageError(
                f"coefficient for channels {c.indices} grows like "
                f"omega**{c.exponent:.3f} against a non-vanishing "
                f"bracket at x={x}"
            )
    return out


def _outcome(evaluate, x):
    """``evaluate(x)`` as float.hex strings, or the type and text of the
    exception it raised."""
    try:
        with np.errstate(all="ignore"):
            return tuple(float(v).hex() for v in evaluate(x))
    except (ArithmeticError, ValueError, DivergentAverageError) as exc:
        return type(exc).__name__, str(exc)


def _assert_rendered_is_dual_path(engine, states):
    oracle = functools.partial(_dual_path, engine)
    for x in states:
        assert _outcome(engine, x) == _outcome(oracle, x), x


#: state entries with exact zeros of both signs and values whose squares
#: overflow (1e300: an OverflowError from a float power, an infinite
#: product) or whose sum of squares does (1.3e154, an infinite field value)
_SPECIAL = (0.0, -0.0, 1.0, -2.5, 5.0, 1e300)


def _squared_by_power(params, field):
    """The gradient loop's system with its squares written ``** 2``, which
    raises OverflowError where a product is infinite."""
    w0, h, alpha, p = params.omega0, params.h_gain, params.alpha, params.p_exp
    fs, hess = field.f_star, field.hessian

    def err(s):
        return fs - 0.5 * hess * (s[0] ** 2 + s[1] ** 2) - s[2]

    return ControlAffineSystem(
        drift=lambda s: (w0 * s[1], -w0 * s[0], h * err(s)),
        channels=((lambda s: (0.0, err(s), 0.0), OscillatoryInput(np.sin, 1, 1.0 - p)),
                  (lambda s: (0.0, alpha, 0.0), OscillatoryInput(np.cos, 1, p))),
        dimension=3,
    )


@pytest.mark.parametrize("make", [gradient_affine_system, newton_affine_system,
                                  _squared_by_power])
def test_rendered_field_is_the_dual_path_on_a_grid(make, ref_params, ref_field):
    """Every state over the special entries: ``d = 0``, ``z = 0``, ``-0.0``,
    ``err = 0`` (``z = 0`` and the last entry ``f_star = 5``, where the
    feedback field, a direction of the brackets, is zero), and overflow,
    where both raise the same exception."""
    engine = build_averaged_field(make(ref_params, ref_field),
                                  default_omega_grid(15.0))
    states = list(itertools.product(_SPECIAL, repeat=engine.system.dimension))
    states += [(1.3e154, 1.3e154, 1.0, 0.5)[:engine.system.dimension]]
    _assert_rendered_is_dual_path(engine, states)
    outcomes = {_outcome(engine, x)[0] for x in states}
    if make is _squared_by_power:
        assert {"OverflowError", "ValueError"} <= outcomes
    assert "ValueError" in outcomes


_ENTRY = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.3e154]))


@settings(max_examples=25, deadline=None)
@given(
    p_exp=st.floats(0.55, 0.8),
    alpha=st.floats(0.3, 3.0),
    hessian=st.floats(0.001, 10.0),
    omega=st.floats(10.0, 30.0),
    states=st.lists(st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY), min_size=1,
                    max_size=6),
)
def test_rendered_field_is_the_dual_path_across_gains(p_exp, alpha, hessian,
                                                      omega, states):
    params = SeekerParams(omega=omega, omega0=1.0, alpha=alpha, p_exp=p_exp,
                          h_gain=1.0, omega_d=0.3)
    field = FieldParams(f_star=5.0, hessian=hessian, source=_SOURCE)
    for make in (gradient_affine_system, newton_affine_system):
        engine = build_averaged_field(make(params, field), default_omega_grid(omega))
        _assert_rendered_is_dual_path(
            engine, [x[:engine.system.dimension] for x in states])


def test_rendered_divergent_brackets_are_the_dual_path(ref_params, ref_field):
    """The vanishing rule per state: the identically zero (1, 2, 2) bracket
    of :meth:`TestVanishingRule.demodulated_newton` passes it, and a live
    bracket fails it with the same message."""
    system = TestVanishingRule.demodulated_newton(ref_params, ref_field)
    engine = build_averaged_field(system, default_omega_grid(15.0))
    assert engine.coefficients[(1, 2, 2)].kind == "divergent"
    rng = np.random.default_rng(0)
    states = [(*rng.uniform(-3.0, 3.0, 2), rng.uniform(1e3, 2e3), rng.uniform(-3.0, 3.0))
              for _ in range(20)]
    _assert_rendered_is_dual_path(engine, states + [(0.0, 0.0, 0.0, 0.0),
                                                    (-0.0, 0.0, 1e3, 5.0)])
    live = build_averaged_field(_live_pair_system(), default_omega_grid(10.0))
    for x in [(1.0, 2.0), (0.0, -0.0)]:
        outcome = _outcome(live, x)
        assert outcome[0] == "DivergentAverageError"
        assert outcome == _outcome(functools.partial(_dual_path, live), x)


def test_a_direction_zero_at_some_states_is_the_dual_path():
    """A zero direction is differentiated like any other, so a derivative
    that raises where its value does not raises on both paths: ``f_1`` is
    ``s[0] ** -1`` of ``s[0] + 1e-160``, whose derivative overflows in
    ``** -2`` at ``s[0] = 0``, along ``f_0 = (s[1], 0)``, zero where
    ``s[1]`` is. Elsewhere both give the same floats, ``-0.0`` included."""
    def direction(s):
        return (s[1], 0.0)

    def steep(s):
        return ((s[0] + 1e-160) ** -1, 0.0)

    states = [(0.0, 0.0), (-0.0, 0.0), (0.0, 2.0), (1.0, 0.0), (-3.0, 0.0),
              (2.0, 3.0), (-1e-160, 1.0), (-1e-160, 0.0)]
    tape = Tape(2)
    rendered = tape.render(lie_bracket(direction, steep, tape.state))
    bracket = functools.partial(lie_bracket, direction, steep)
    for x in states:
        assert _outcome(rendered, x) == _outcome(bracket, x), x
    assert _outcome(bracket, (0.0, 0.0))[0] == "OverflowError"
    assert _outcome(bracket, (-1e-160, 0.0))[0] == "ZeroDivisionError"
    assert _outcome(bracket, (1.0, 0.0)) == ((-0.0).hex(), (0.0).hex())

    system = ControlAffineSystem(
        drift=lambda s: (-0.0, 0.0),
        channels=((direction, OscillatoryInput(np.sin, 1, 0.5)),
                  (steep, OscillatoryInput(np.cos, 1, 0.5))),
        dimension=2,
    )
    engine = build_averaged_field(system, default_omega_grid(10.0))
    assert engine.coefficients[(0, 1)].kind == "finite"
    _assert_rendered_is_dual_path(engine, states)
    assert _outcome(engine, (0.0, 0.0))[0] == "OverflowError"


@pytest.mark.parametrize("make", [gradient_affine_system, newton_affine_system])
def test_state_of_the_wrong_length_is_rejected(make, ref_params, ref_field):
    engine = build_averaged_field(make(ref_params, ref_field),
                                  default_omega_grid(15.0))
    n = engine.system.dimension
    for x in (np.arange(n + 1.0), np.arange(n - 1.0)):
        with pytest.raises(ValueError, match=rf"state of shape \({len(x)},\), "
                                             rf"but system.dimension is {n}"):
            engine(x)


class TestCheckAssumptions:
    def test_engine_and_checks_read_one_table(self, newton_system, ref_params,
                                              ref_field, monkeypatch):
        # one ladder per wave set, 1024 then 2048 nodes, whoever reads it
        # first; a second system on the same waves adds only its exponents
        averaging._ladder.cache_clear()
        rungs = []
        rung = averaging._rung

        def counted(channels, span, n):
            rungs.append(n)
            return rung(channels, span, n)

        monkeypatch.setattr(averaging, "_rung", counted)
        check_assumptions(newton_system)
        engine = build_averaged_field(newton_system, default_omega_grid(15.0))
        assert gamma_pair(0, 1, newton_system, 15.0) == pytest.approx(-0.5, abs=1e-15)
        assert rungs == [1024, 2048]
        assert engine.coefficients is newton_system.coefficients

        other = newton_affine_system(
            replace(ref_params, alpha=0.7, h_gain=2.5, omega_d=1.1, p_exp=0.7),
            replace(ref_field, hessian=3.0))
        check_assumptions(other)
        other_engine = build_averaged_field(other, default_omega_grid(20.0))
        assert rungs == [1024, 2048]
        assert other_engine.coefficients is other.coefficients
        assert list(other.coefficients) == list(newton_system.coefficients)
        for ix, c in other.coefficients.items():
            first = newton_system.coefficients[ix]
            assert ([v.hex() for v in (c.raw, c.disagreement, c.rounding, c.error)]
                    == [v.hex() for v in (first.raw, first.disagreement,
                                          first.rounding, first.error)])
            assert c.nodes == first.nodes == 2048
            # exponents from p = 0.7: channels (0.3, 0.7, 0.6)
            p_sum = sum(other.input(k).p_i for k in ix)
            assert c.exponent == pytest.approx(p_sum - (len(ix) - 1), abs=1e-12)
        assert other.coefficients[(0, 1)].exponent == 0.0
        assert other.coefficients[(1, 2, 1)].exponent == 0.0
        assert other.coefficients[(1, 2)].exponent == pytest.approx(0.3, abs=1e-12)
        assert newton_system.coefficients[(1, 2)].exponent == pytest.approx(0.39,
                                                                            abs=1e-12)

    def test_newton_system_passes(self, newton_system):
        report = check_assumptions(newton_system)
        assert report.ok
        by_name = {c.name: c for c in report.clauses}
        # high-exponent pairs discharge through vanishing iterated integrals
        assert by_name["pair_(0,2)_exponent_budget"].triggered
        assert by_name["pair_(0,2)_exponent_budget"].passed
        assert by_name["pair_(1,2)_exponent_budget"].triggered
        assert by_name["triple_(1,2,2)_exponent_budget"].triggered
        assert not by_name["pair_(0,1)_exponent_budget"].triggered

    def test_live_bracket_fails_its_budget(self):
        # the pair (0, 1) grows like omega**0.4 and [f_0, f_1] = (0, -1)
        report = check_assumptions(_live_pair_system())
        assert not report.ok
        clause = {c.name: c for c in report.clauses}["pair_(0,1)_exponent_budget"]
        assert clause.triggered and not clause.passed
        assert "bracket both non-vanishing" in clause.detail

    def test_gradient_system_vacuous(self, gradient_system):
        report = check_assumptions(gradient_system)
        assert report.ok
        exponent_clauses = [
            c for c in report.clauses if "exponent_budget" in c.name and c.triggered
        ]
        assert exponent_clauses == []

    def test_zero_mean_violation_flagged(self, monkeypatch):
        # no input admits such a wave; the input clauses read the wave's
        # record, here one of an unbounded wave of mean 0.5
        system = ControlAffineSystem(
            drift=lambda s: np.zeros(1),
            channels=((lambda s: np.ones(1), OscillatoryInput(np.sin, 1, 0.6)),),
            dimension=1,
        )
        monkeypatch.setattr(averaging, "_wave_checks", lambda wave: (False, 0.5))
        report = check_assumptions(system)
        assert not report.ok
        by_name = {c.name: c for c in report.clauses}
        assert not by_name["input_0_zero_mean"].passed
        assert by_name["input_0_zero_mean"].detail == "mean defect 5.000e-01"
        assert not by_name["input_0_bounded"].passed
        assert by_name["input_0_bounded"].detail == "|u| exceeds 1"

    def test_fourth_order_clause_reports_declared_flag(self, ref_params, ref_field):
        from dataclasses import replace

        steep = replace(ref_params, p_exp=0.55)  # demodulation exponent 0.9
        system = newton_affine_system(steep, ref_field)
        report = check_assumptions(system)
        by_name = {c.name: c for c in report.clauses}
        clause = by_name["fourth_order_flatness"]
        assert clause.triggered and clause.passed
        assert "declared" in clause.detail

        undeclared = ControlAffineSystem(
            drift=system.drift,
            channels=system.channels,
            dimension=system.dimension,
            smooth_remainder=False,
        )
        report = check_assumptions(undeclared)
        assert not report.ok

    def test_report_renders(self, gradient_system):
        text = str(check_assumptions(gradient_system))
        assert "ok = True" in text
        assert "input_0_zero_mean = pass" in text
