import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sourceseek.averaging as averaging
from sourceseek import (
    ControlAffineSystem,
    DivergentAverageError,
    FieldParams,
    LimitClass,
    OscillatoryInput,
    QuadratureError,
    SeekerParams,
    averaged_closed_loop,
    averaged_vector_field,
    build_averaged_field,
    check_assumptions,
    common_period,
    default_omega_grid,
    gamma_pair,
    gamma_triple,
    gradient_affine_system,
    lie_bracket,
    newton_affine_system,
)
from sourceseek.averaging import (
    Quadrature,
    coefficient_exponent,
    pair_quadrature,
    triple_quadrature,
)
from sourceseek.seekers import AveragedForm

TWO_PI = 2.0 * math.pi


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

    def test_validation_can_be_deferred(self):
        inp = OscillatoryInput(lambda s: 0.5 * (1.0 + np.sin(s)), 1, 0.5, validate=False)
        assert inp.zero_mean_defect() > 1e-3

    def test_rejects_bad_multiplier_and_exponent(self):
        with pytest.raises(ValueError):
            OscillatoryInput(np.sin, 0, 0.5)
        with pytest.raises(ValueError):
            OscillatoryInput(np.sin, -2, 0.5)
        with pytest.raises(ValueError):
            OscillatoryInput(np.sin, 1, 1.5)


class TestCommonPeriod:
    def test_mixed_integer_multipliers(self):
        inputs = [
            OscillatoryInput(np.sin, 1, 0.39),
            OscillatoryInput(np.cos, 1, 0.61),
            OscillatoryInput(np.cos, 2, 0.78),
        ]
        assert common_period(inputs, 15.0) == pytest.approx(TWO_PI / 15.0, rel=1e-15)

    def test_single_input(self):
        assert common_period(
            [OscillatoryInput(np.sin, 1, 0.5)], 3.0
        ) == pytest.approx(TWO_PI / 3.0, rel=1e-15)

    def test_fractional_multipliers_against_grid_search(self):
        omega = 2.0
        ks = [Fraction(1, 2), Fraction(1, 3)]
        inputs = [OscillatoryInput(np.sin, k, 0.6) for k in ks]
        period = common_period(inputs, omega)
        assert period == pytest.approx(6.0 * TWO_PI / omega, rel=1e-12)

        # brute force: smallest multiple of the finest sub-period that is a
        # common period of every driven input on a sample grid
        base = TWO_PI / omega / 6.0
        ts = np.linspace(0.0, 5.0, 401)
        found = None
        for mult in range(1, 80):
            cand = mult * base
            if all(
                np.allclose(
                    np.sin(float(k) * omega * (ts + cand)),
                    np.sin(float(k) * omega * ts),
                    atol=1e-9,
                )
                for k in ks
            ):
                found = cand
                break
        assert found == pytest.approx(period, rel=1e-12)

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            common_period([Fraction(0)], 1.0)
        with pytest.raises(ValueError):
            common_period([Fraction(-1, 2)], 1.0)


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

    def test_nonconvergent_quadrature_reported(self, newton_system, monkeypatch):
        # a jump off the dyadic node grid keeps composite Simpson from
        # settling within a small node budget
        square = OscillatoryInput(
            lambda s: np.sign(np.sin(s + 0.3)), 1, 0.61, validate=False
        )
        system = ControlAffineSystem(
            drift=lambda s: np.zeros(2),
            channels=(
                (lambda s: np.array([0.0, 1.0]), square),
                (lambda s: np.array([1.0, 0.0]), OscillatoryInput(np.cos, 1, 0.39)),
            ),
            dimension=2,
        )
        monkeypatch.setattr(averaging, "QUAD_MAX_NODES", 2048)
        with pytest.raises(QuadratureError, match="did not converge"):
            gamma_pair(0, 1, system, 10.0)


class TestLieBracket:
    def test_self_bracket_vanishes(self, newton_system, rng):
        f = newton_system.field(0)
        for _ in range(5):
            x = rng.normal(size=4) * 3.0
            np.testing.assert_allclose(lie_bracket(f, f, x), np.zeros(4), atol=1e-8)

    def test_antisymmetry(self, newton_system, rng):
        f, g = newton_system.field(0), newton_system.field(2)
        for _ in range(10):
            x = np.array(
                [*rng.uniform(-5, 5, 2), rng.uniform(0.1, 50.0), rng.uniform(-2, 8)]
            )
            ab = lie_bracket(f, g, x)
            ba = lie_bracket(g, f, x)
            np.testing.assert_allclose(ab, -ba, atol=1e-6 * (1 + np.abs(ab).max()))

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
                pair, expect, atol=1e-5 * max(1.0, np.abs(expect).max())
            )
            nested = lie_bracket(lambda x: lie_bracket(f0, f1, x), f0, s)
            expect = np.array(
                [0.0, -a * hess * err - a * hess**2 * s[1] ** 2, 0.0]
            )
            np.testing.assert_allclose(
                nested, expect, atol=1e-5 * max(1.0, np.abs(expect).max())
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
                pair01, expect, atol=1e-5 * max(1.0, np.abs(expect).max())
            )
            pair12 = lie_bracket(f1, f2, s)
            expect = np.array([0.0, 0.0, d**2 * hess * (8.0 * wd / a) * z2, 0.0])
            np.testing.assert_allclose(
                pair12, expect, atol=1e-5 * max(1.0, np.abs(expect).max())
            )
            err = ref_field.f_star - 0.5 * hess * (s[0] ** 2 + z2**2) - s[3]
            nested010 = lie_bracket(lambda x: lie_bracket(f0, f1, x), f0, s)
            expect = np.array(
                [0.0, -hess * a * d**2 * err - a * (hess * d * z2) ** 2, 0.0, 0.0]
            )
            np.testing.assert_allclose(
                nested010, expect, atol=1e-5 * max(1.0, np.abs(expect).max())
            )
            nested121 = lie_bracket(lambda x: lie_bracket(f1, f2, x), f1, s)
            expect = np.array([0.0, 0.0, -8.0 * wd * hess * d**2, 0.0])
            np.testing.assert_allclose(
                nested121, expect, atol=1e-5 * max(1.0, np.abs(expect).max())
            )


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
        raw = pair_quadrature(gradient_system, 0, 1)
        assert coefficient_exponent(gradient_system, (0, 1)) == 0.0
        limit = LimitClass.of(raw, 0.0)
        assert limit.is_finite and limit.exponent == 0.0
        assert limit.value == raw.value == pytest.approx(-0.5, abs=1e-9)
        engine = build_averaged_field(newton_system, default_omega_grid(15.0))
        entry = engine._entry(engine.triples, (1, 2, 1))
        assert entry.limit.is_finite
        assert entry.limit.value == pytest.approx(0.125, abs=1e-9)
        assert entry.samples == (entry.raw.value,) * 4

    def test_rounded_exponent_sums_are_exactly_zero(self, ref_params, ref_field):
        # (1 - p) + p and p + (2 - 2p) + p may round one ulp off the integer
        from dataclasses import replace

        for p in np.linspace(0.501, 0.999, 499):
            params = replace(ref_params, p_exp=float(p))
            gradient = gradient_affine_system(params, ref_field)
            assert coefficient_exponent(gradient, (0, 1)) == 0.0
            newton = newton_affine_system(params, ref_field)
            assert coefficient_exponent(newton, (0, 1)) == 0.0
            assert coefficient_exponent(newton, (1, 2, 1)) == 0.0

    def test_small_exponent_excess_is_not_rounded_away(self):
        system = ControlAffineSystem(
            drift=lambda s: np.zeros(1),
            channels=(
                (lambda s: np.ones(1), OscillatoryInput(np.sin, 1, 0.5)),
                (lambda s: np.ones(1), OscillatoryInput(np.cos, 1, 0.5 + 1e-12)),
            ),
            dimension=1,
        )
        q = coefficient_exponent(system, (0, 1))
        assert q == pytest.approx(1e-12, rel=1e-3)
        assert LimitClass.of(pair_quadrature(system, 0, 1), q).is_divergent

    def test_decaying_power_law_is_zero(self, newton_system, ref_params):
        # raw is 1/2, far from zero, but gamma = omega**(-p) / 2 vanishes
        engine = build_averaged_field(newton_system, default_omega_grid(15.0))
        entry = engine._entry(engine.triples, (0, 1, 0))
        assert entry.raw.value == pytest.approx(0.5, abs=1e-9)
        assert entry.limit.is_zero
        assert entry.limit.exponent == pytest.approx(-ref_params.p_exp, abs=1e-12)
        limit = LimitClass.of(Quadrature(0.5, 1e-12, 1e-13, 2048), -0.3)
        assert limit.is_zero and limit.exponent == -0.3

    def test_growing_power_law_is_divergent(self):
        system = _live_pair_system()
        engine = build_averaged_field(system, default_omega_grid(10.0))
        limit = engine.pair_limit(0, 1)
        assert limit.is_divergent
        assert limit.exponent == pytest.approx(0.4, abs=1e-12)
        raw = pair_quadrature(system, 0, 1)
        assert abs(raw.value) > 1e3 * raw.error

    def test_negligible_samples_shortcut(self, ref_params, ref_field):
        from dataclasses import replace

        # at p = 0.55 the pair (0, 2) and the triple (1, 2, 2) grow like
        # omega**0.35 but their iterated integrals vanish; for (1, 2, 2) the
        # Richardson disagreement alone is smaller than |raw|
        system = newton_affine_system(replace(ref_params, p_exp=0.55), ref_field)
        engine = build_averaged_field(system, default_omega_grid(15.0))
        for entries, indices in ((engine.pairs, (0, 2)), (engine.triples, (1, 2, 2))):
            entry = engine._entry(entries, indices)
            assert entry.limit.is_zero
            assert entry.limit.exponent == pytest.approx(0.35, abs=1e-12)
            assert abs(entry.raw.value) <= entry.raw.error
        raw = engine._entry(engine.triples, (1, 2, 2)).raw
        assert abs(raw.value) > raw.disagreement
        assert raw.rounding > 0.0

    def test_rounding_allowance_decides_a_tiny_raw(self):
        tiny = Quadrature(5e-17, 4e-17, 0.0, 2048)
        assert LimitClass.of(tiny, 0.35).is_divergent
        tiny = Quadrature(5e-17, 4e-17, 1e-13, 2048)
        assert LimitClass.of(tiny, 0.35).is_zero
        # a zero raw at exponent 0 is zero, not a finite zero constant
        assert LimitClass.of(tiny, 0.0).is_zero

    def test_rounding_allowance_is_measured_not_fixed(self, newton_system):
        # nodes * eps * integral of |integrand|: tiny next to any live
        # coefficient, and different for integrands of different size
        eps = float(np.finfo(float).eps)
        pair = pair_quadrature(newton_system, 0, 1)
        triple = triple_quadrature(newton_system, 1, 2, 1)
        for raw in (pair, triple):
            assert raw.nodes == 2048
            assert 0.0 < raw.rounding < raw.nodes * eps
        assert pair.rounding != triple.rounding

    def test_samples_follow_the_exact_power_law(self, newton_system):
        grid = default_omega_grid(15.0)
        engine = build_averaged_field(newton_system, grid)
        for entry in engine.pairs + engine.triples:
            q = coefficient_exponent(newton_system, entry.indices)
            assert entry.samples == tuple(w**q * entry.raw.value for w in grid)

    def test_gamma_is_the_power_law_of_raw(self, newton_system):
        raw = triple_quadrature(newton_system, 0, 2, 0)
        q = coefficient_exponent(newton_system, (0, 2, 0))
        assert gamma_triple(0, 2, 0, newton_system, 40.0) == 40.0**q * raw.value

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
        reference = averaged_closed_loop(AveragedForm.GRADIENT, ref_params, ref_field)
        for _ in range(5):
            s = np.array([*rng.uniform(-5, 5, 2), rng.uniform(-2, 8)])
            ref = reference(0.0, s)
            np.testing.assert_allclose(
                engine(s), ref, atol=1e-4 * max(1.0, float(np.linalg.norm(ref)))
            )

    def test_matches_newton_closed_form(self, newton_system, ref_params,
                                        ref_field, rng):
        engine = build_averaged_field(newton_system, default_omega_grid(15.0))
        reference = averaged_closed_loop(AveragedForm.NEWTON, ref_params, ref_field)
        for _ in range(5):
            s = np.array(
                [*rng.uniform(-5, 5, 2), rng.uniform(0.1, 200.0), rng.uniform(-2, 8)]
            )
            ref = reference(0.0, s)
            np.testing.assert_allclose(
                engine(s), ref, atol=1e-4 * max(1.0, float(np.linalg.norm(ref)))
            )

    def test_one_shot_wrapper(self, gradient_system, ref_params, ref_field):
        s = np.array([1.0, -2.0, 3.0])
        reference = averaged_closed_loop(AveragedForm.GRADIENT, ref_params, ref_field)
        out = averaged_vector_field(gradient_system, s, default_omega_grid(15.0))
        np.testing.assert_allclose(out, reference(0.0, s), atol=1e-6)

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
        assert engine.pair_limit(0, 1).is_divergent
        with pytest.raises(DivergentAverageError, match="grows like"):
            engine(np.array([1.0, 2.0]))

    def test_report_lists_every_coefficient(self, newton_system):
        engine = build_averaged_field(newton_system, default_omega_grid(15.0))
        text = engine.report()
        assert "gamma_0_1 = class=finite" in text
        assert "gamma_1_2_1 = class=finite" in text
        # 3 pairs + 9 triples
        assert text.count("class=") == 12
        assert "exponent=" in text and "samples=[" in text


_SOURCE = np.array([1.0, -1.0])


@settings(max_examples=25, deadline=None)
@given(
    p_exp=st.floats(0.55, 0.8),
    omega=st.floats(10.0, 30.0),
    alpha=st.floats(1.0, 3.0),
    hessian=st.floats(0.01, 1.0),
)
def test_engine_matches_closed_form_across_gains(p_exp, omega, alpha, hessian):
    """Below p = 2/3 the pair (0, 2) of the Newton loop grows like
    omega**(2 - 3p) with a vanishing integral, so the zero test is pinned
    on part of this range."""
    params = SeekerParams(omega=omega, omega0=1.0, alpha=alpha, p_exp=p_exp,
                          h_gain=1.0, omega_d=0.3)
    field = FieldParams(f_star=5.0, hessian=hessian, source=_SOURCE)
    rng = np.random.default_rng(7)
    for make, form, finite in (
        (gradient_affine_system, AveragedForm.GRADIENT, {(0, 1)}),
        (newton_affine_system, AveragedForm.NEWTON, {(0, 1), (1, 2, 1)}),
    ):
        system = make(params, field)
        engine = build_averaged_field(system, default_omega_grid(omega))
        assert {e.indices for e in engine.pairs + engine.triples
                if e.limit.is_finite} == finite
        closed = averaged_closed_loop(form, params, field)
        for _ in range(5):
            state = rng.uniform(-3.0, 3.0, size=system.dimension)
            if system.dimension == 4:
                state[2] = rng.uniform(0.1, 2.0 / hessian)
            reference = closed(0.0, state)
            defect = float(np.linalg.norm(engine(state) - reference))
            assert defect <= 1e-4 * max(1.0, float(np.linalg.norm(reference)))


class TestEvaluationCost:
    """Field evaluations per bracket, counted on wrapped fields; a return to
    Jacobian products (about 170 evaluations per nested bracket of the
    four-state loop) fails here by name."""

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

    def test_pair_bracket_costs_six_evaluations(self, newton_system):
        system, counts = self.counted(newton_system)
        lie_bracket(system.field(1), system.field(2), self.STATE)
        assert counts[0] == 6

    def test_nested_bracket_costs_twenty_one_evaluations(self, newton_system):
        system, counts = self.counted(newton_system)
        averaging._nested_bracket(system, 1, 2, 1)(self.STATE)
        assert counts[0] == 21

    def test_zero_direction_costs_nothing(self):
        calls = [0]

        def g(x):
            calls[0] += 1
            return np.array([x[0] ** 2, 1.0])

        out = lie_bracket(lambda x: np.zeros(2), g, np.array([3.0, 1.0]))
        # f = 0: the term along f(x) is zero without evaluating g off x
        np.testing.assert_array_equal(out, np.zeros(2))
        assert calls[0] == 1

    def test_newton_engine_evaluation_cost(self, newton_system):
        # drift, the finite pair [f_0, f_1] and the finite triple
        # [[f_1, f_2], f_1]; every vanishing coefficient is skipped
        system, counts = self.counted(newton_system)
        engine = build_averaged_field(system, default_omega_grid(15.0))
        counts[0] = 0
        engine(self.STATE)
        assert counts[0] == 1 + 6 + 21


class TestCheckAssumptions:
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

    def test_gradient_system_vacuous(self, gradient_system):
        report = check_assumptions(gradient_system)
        assert report.ok
        exponent_clauses = [
            c for c in report.clauses if "exponent_budget" in c.name and c.triggered
        ]
        assert exponent_clauses == []

    def test_zero_mean_violation_flagged(self):
        biased = OscillatoryInput(
            lambda s: 0.5 * (1.0 + np.sin(s)), 1, 0.6, validate=False
        )
        system = ControlAffineSystem(
            drift=lambda s: np.zeros(1),
            channels=((lambda s: np.ones(1), biased),),
            dimension=1,
        )
        report = check_assumptions(system)
        assert not report.ok
        by_name = {c.name: c for c in report.clauses}
        assert not by_name["input_0_zero_mean"].passed

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
