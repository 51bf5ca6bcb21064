"""Second-order averaging engine for control-affine systems with oscillatory inputs.

Systems handled here have the shape

    dx/dt = f0(x) + sum_i f_i(x) * omega**p_i * u_i(k_i * omega * t)

with bounded, zero-mean, 2*pi-periodic waveforms ``u_i``. As the base
frequency ``omega`` grows, the trajectories approach those of an autonomous
system assembled from the drift, the pairwise Lie brackets ``[f_i, f_j]``
weighted by iterated-integral coefficients ``gamma_ij``, and the nested
brackets ``[[f_i, f_j], f_m]`` weighted by ``gamma_ijm``. This module
computes those coefficients by quadrature, classifies their large-``omega``
limits, and assembles the limiting vector field numerically.

Channel indices are 0-based everywhere (``gamma_pair(0, 1, ...)`` couples the
first two channels).

Conventions fixed by the implementation:

* ``gamma_pair``: prefactor ``omega**(p_i + p_j) / T`` on the double iterated
  integral of ``u_j(k_j w s) u_i(k_i w p)`` over one common period ``T``.
* ``gamma_triple``: prefactor ``omega**(p_i + p_j + p_m) / (3 T)`` on the
  triple iterated integral of the antisymmetrized product; the factor 3 in
  the denominator makes the constant-coefficient reference case
  (sin/cos../cos 2. channels) come out at exactly 1/8.

All quadrature is performed in the phase variable ``tau = omega * t``, where
the integrands are independent of ``omega``; the frequency enters only
through an exact power-law prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .numdiff import central_jacobian

__all__ = [
    "OscillatoryInput",
    "ControlAffineSystem",
    "LimitClass",
    "QuadratureError",
    "UnclassifiableLimitError",
    "DivergentAverageError",
    "common_period",
    "gamma_pair",
    "gamma_triple",
    "lie_bracket",
    "classify_limit",
    "default_omega_grid",
    "build_averaged_field",
    "averaged_vector_field",
    "AveragedField",
    "check_assumptions",
    "AssumptionClause",
    "AssumptionReport",
]

TWO_PI = 2.0 * math.pi

#: Richardson halving stops once successive estimates agree this closely.
QUAD_HALT_TOL = 1e-9
#: ... and is declared non-convergent if disagreement still exceeds this.
QUAD_FAIL_TOL = 1e-7
#: node cap for the Richardson ladder
QUAD_MAX_NODES = 2**20
#: magnitudes below this are treated as exactly zero when classifying limits
ZERO_FILTER = 1e-8


class QuadratureError(RuntimeError):
    """Quadrature failed to converge within the node budget."""


class UnclassifiableLimitError(RuntimeError):
    """Coefficient samples fit no clean power law."""


class DivergentAverageError(RuntimeError):
    """A divergent coefficient multiplies a non-vanishing bracket."""


# ---------------------------------------------------------------------------
# inputs and systems


def _as_fraction(k) -> Fraction:
    if isinstance(k, float):
        frac = Fraction(k).limit_denominator(10**6)
        if abs(float(frac) - k) > 1e-12 * max(1.0, abs(k)):
            raise ValueError(f"frequency multiplier {k} is not a small rational")
        return frac
    return Fraction(k)


@dataclass(frozen=True)
class OscillatoryInput:
    """One oscillatory channel: a 2*pi-periodic waveform ``wave`` driven at
    ``k * omega`` and scaled by ``omega**p_i``.

    Parameters
    ----------
    wave : callable
        Vectorized map phase -> value, 2*pi-periodic, bounded by 1 in
        magnitude, zero mean over one period.
    k : int, Fraction or str
        Positive rational frequency multiplier.
    p_i : float
        Amplitude exponent, strictly inside (0, 1).
    validate : bool
        Check boundedness and zero mean on construction. Disable only to
        build deliberately non-conforming inputs for diagnostics.
    """

    wave: object
    k: Fraction
    p_i: float
    validate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "k", _as_fraction(self.k))
        if self.k <= 0:
            raise ValueError(f"frequency multiplier must be positive, got {self.k}")
        if self.k.numerator > 10**6 or self.k.denominator > 10**6:
            raise ValueError(f"frequency multiplier {self.k} out of supported range")
        if not (0.0 < self.p_i < 1.0):
            raise ValueError(f"p_i must lie in (0, 1), got {self.p_i}")
        if self.validate:
            phases = np.linspace(0.0, TWO_PI, 1001)
            values = np.asarray(self.wave(phases), dtype=float)
            if np.any(np.abs(values) > 1.0 + 1e-12):
                raise ValueError("waveform exceeds unit magnitude")
            mean = simpson(values, x=phases) / TWO_PI
            if abs(mean) >= 1e-10:
                raise ValueError(f"waveform mean {mean} is not zero")

    def bounded_ok(self, n: int = 1000) -> bool:
        phases = np.linspace(0.0, TWO_PI, n + 1)
        return bool(np.all(np.abs(np.asarray(self.wave(phases))) <= 1.0 + 1e-12))

    def zero_mean_defect(self, n: int = 4096) -> float:
        phases = np.linspace(0.0, TWO_PI, n + 1)
        return abs(simpson(np.asarray(self.wave(phases), dtype=float), x=phases)) / TWO_PI


@dataclass(frozen=True)
class ControlAffineSystem:
    """Drift plus oscillatory channels ``(vector field, input)``.

    ``smooth_remainder`` is a declared flag standing in for the
    fourth-derivative flatness condition on high-exponent index combinations;
    it is reported, never verified numerically (fourth-order numerical
    differentiation is too noisy to be trustworthy).
    """

    drift: object
    channels: tuple
    dimension: int
    smooth_remainder: bool = True

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(tuple(ch) for ch in self.channels))
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        for probe in (np.zeros(self.dimension), 0.5 * np.ones(self.dimension)):
            for name, fn in [("drift", self.drift)] + [
                (f"channel {i}", ch[0]) for i, ch in enumerate(self.channels)
            ]:
                out = np.asarray(fn(probe), dtype=float)
                if out.shape != (self.dimension,):
                    raise ValueError(
                        f"{name} returned shape {out.shape}, expected ({self.dimension},)"
                    )
                if not np.all(np.isfinite(out)):
                    raise ValueError(f"{name} is non-finite at probe state {probe}")

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def field(self, i: int):
        return self.channels[i][0]

    def input(self, i: int) -> OscillatoryInput:
        return self.channels[i][1]


# ---------------------------------------------------------------------------
# periods and quadrature


def _lcm_fraction(values: list[Fraction]) -> Fraction:
    num = 1
    den = 0
    for v in values:
        num = math.lcm(num, v.numerator)
        den = math.gcd(den, v.denominator)
    return Fraction(num, den)


def common_period(inputs, omega: float) -> float:
    """Smallest common period of ``u_i(k_i * omega * t)`` over the inputs.

    Computed exactly as ``(2*pi/omega) * lcm(1/k_1, ..., 1/k_l)`` with the
    rational lcm ``lcm(numerators)/gcd(denominators)``.
    """
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    inputs = list(inputs)
    if not inputs:
        raise ValueError("need at least one input")
    inverses = []
    for inp in inputs:
        k = inp.k if isinstance(inp, OscillatoryInput) else _as_fraction(inp)
        if k <= 0:
            raise ValueError(f"frequency multiplier must be positive, got {k}")
        inverses.append(1 / k)
    return float(_lcm_fraction(inverses)) * TWO_PI / omega


def _phase_span(system: ControlAffineSystem) -> float:
    """Common period expressed in the phase variable (omega scaled out)."""
    return common_period([system.input(i) for i in range(system.n_channels)], 1.0)


def _pair_raw(system: ControlAffineSystem, i: int, j: int, span: float, n: int) -> float:
    """Iterated integral of u_j(k_j s) * u_i(k_i p) over 0 <= p <= s <= span."""
    s = np.linspace(0.0, span, n + 1)
    ui = np.asarray(system.input(i).wave(float(system.input(i).k) * s), dtype=float)
    uj = np.asarray(system.input(j).wave(float(system.input(j).k) * s), dtype=float)
    cum_i = cumulative_simpson(ui, x=s, initial=0.0)
    return float(simpson(uj * cum_i, x=s))


def _triple_raw(system: ControlAffineSystem, i: int, j: int, m: int,
                span: float, n: int) -> float:
    """Iterated integral of u_m(k_m tau) times the antisymmetrized double
    integral of channels i, j, nested as p <= s <= tau <= span."""
    s = np.linspace(0.0, span, n + 1)
    ui = np.asarray(system.input(i).wave(float(system.input(i).k) * s), dtype=float)
    uj = np.asarray(system.input(j).wave(float(system.input(j).k) * s), dtype=float)
    um = np.asarray(system.input(m).wave(float(system.input(m).k) * s), dtype=float)
    cum_i = cumulative_simpson(ui, x=s, initial=0.0)
    cum_j = cumulative_simpson(uj, x=s, initial=0.0)
    inner = uj * cum_i - ui * cum_j
    cum_inner = cumulative_simpson(inner, x=s, initial=0.0)
    return float(simpson(um * cum_inner, x=s))


def _richardson(evaluate, n0: int = 1024) -> float:
    n = n0
    previous = evaluate(n)
    disagreement = math.inf
    while n < QUAD_MAX_NODES:
        n *= 2
        current = evaluate(n)
        disagreement = abs(current - previous)
        if disagreement < QUAD_HALT_TOL:
            return current
        previous = current
    if disagreement > QUAD_FAIL_TOL:
        raise QuadratureError(
            f"iterated-integral quadrature did not converge: disagreement "
            f"{disagreement:.3e} at {n} nodes"
        )
    return previous


def gamma_pair(i: int, j: int, system: ControlAffineSystem, omega: float) -> float:
    """First-order averaging coefficient for the channel pair ``i < j``.

    Equals ``omega**(p_i + p_j) / T`` times the iterated double integral of
    ``u_j(k_j omega s) u_i(k_i omega p)`` over one common period ``T``,
    evaluated by composite Simpson quadrature with Richardson halving.
    """
    if not 0 <= i < j < system.n_channels:
        raise ValueError(f"need channel indices 0 <= i < j < l, got ({i}, {j})")
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    span = _phase_span(system)
    exponent = system.input(i).p_i + system.input(j).p_i - 1.0
    scale = omega**exponent / span

    def estimate(n: int) -> float:
        return scale * _pair_raw(system, i, j, span, n)

    return _richardson(estimate)


def gamma_triple(i: int, j: int, m: int, system: ControlAffineSystem,
                 omega: float) -> float:
    """Second-order averaging coefficient for the bracket ``[[f_i, f_j], f_m]``.

    Prefactor ``omega**(p_i + p_j + p_m) / (3 T)`` on the nested triple
    integral of ``u_m * (u_j U_i - u_i U_j)``; the normalization is pinned by
    the sin/cos/cos-double reference system, whose (1, 2, 1)-coefficient
    (0-based) is exactly 1/8.
    """
    if not 0 <= i < j < system.n_channels:
        raise ValueError(f"need channel indices 0 <= i < j < l, got ({i}, {j})")
    if not 0 <= m < system.n_channels:
        raise ValueError(f"channel index m={m} out of range")
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    span = _phase_span(system)
    p_sum = system.input(i).p_i + system.input(j).p_i + system.input(m).p_i
    scale = omega ** (p_sum - 2.0) / (3.0 * span)

    def estimate(n: int) -> float:
        return scale * _triple_raw(system, i, j, m, span, n)

    return _richardson(estimate)


# ---------------------------------------------------------------------------
# brackets


def lie_bracket(f, g, x, step=None) -> np.ndarray:
    """Lie bracket ``[f, g](x) = Jg(x) f(x) - Jf(x) g(x)``.

    Jacobians are taken by central finite differences with the step
    ``eps**(1/3) * max(1, ||x||)``, scaled by the state norm and the same
    for every component (:func:`~sourceseek.numdiff.default_fd_step`),
    unless ``step`` is given.
    """
    x = np.asarray(x, dtype=float)
    jf = central_jacobian(f, x, step)
    jg = central_jacobian(g, x, step)
    fx = np.asarray(f(x), dtype=float)
    gx = np.asarray(g(x), dtype=float)
    if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(gx))):
        raise ValueError(f"non-finite field evaluation at {x}")
    return jg @ fx - jf @ gx


def _nested_bracket(system: ControlAffineSystem, i: int, j: int, m: int):
    """Callable for [[f_i, f_j], f_m] with the inner bracket re-differenced."""

    def inner(x):
        return lie_bracket(system.field(i), system.field(j), x)

    def nested(x):
        return lie_bracket(inner, system.field(m), x)

    return nested


# ---------------------------------------------------------------------------
# limit classification


@dataclass(frozen=True)
class LimitClass:
    """Large-frequency behaviour of a coefficient: vanishing, a finite
    constant (carried in ``value``), or divergent with fitted growth
    exponent ``exponent``."""

    kind: str
    value: float | None = None
    exponent: float | None = None

    @classmethod
    def zero(cls, exponent: float | None = None) -> "LimitClass":
        return cls("zero", value=0.0, exponent=exponent)

    @classmethod
    def finite(cls, value: float) -> "LimitClass":
        return cls("finite", value=float(value), exponent=0.0)

    @classmethod
    def divergent(cls, exponent: float) -> "LimitClass":
        return cls("divergent", value=None, exponent=float(exponent))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_divergent(self) -> bool:
        return self.kind == "divergent"


def default_omega_grid(omega_anchor: float) -> tuple[float, ...]:
    """Geometric frequency ladder {w, 2w, 4w, 8w} used for limit fits."""
    if not omega_anchor > 0.0:
        raise ValueError("omega_anchor must be positive")
    return tuple(omega_anchor * 2.0**k for k in range(4))


def classify_limit(omegas, values) -> LimitClass:
    """Classify coefficient samples on a geometric frequency grid.

    Fits ``|value| ~ c * omega**q`` by log-log least squares. Exponents
    below -0.05 classify as vanishing, within +/-0.05 as a finite constant
    (the mean sample value), above +0.05 as divergent.

    Raises
    ------
    UnclassifiableLimitError
        If the power-law fit explains less than 90% of the variance and the
        samples are not uniformly negligible.
    """
    omegas = np.asarray(omegas, dtype=float)
    values = np.asarray(values, dtype=float)
    if omegas.shape != values.shape or omegas.size < 4:
        raise ValueError("need >= 4 (omega, value) samples")
    ratios = omegas[1:] / omegas[:-1]
    if np.any(ratios < 2.0 - 1e-9):
        raise ValueError("omega grid ratios must be >= 2")

    magnitudes = np.abs(values)
    if np.all(magnitudes < ZERO_FILTER):
        return LimitClass.zero()

    keep = magnitudes > 1e-14
    if keep.sum() < 2 or keep.sum() < omegas.size:
        # mixed negligible/non-negligible samples never fit one power law
        raise UnclassifiableLimitError(
            f"samples mix negligible and finite magnitudes: {values}"
        )
    logw = np.log(omegas)
    logv = np.log(magnitudes)
    design = np.column_stack([np.ones_like(logw), logw])
    coef, *_ = np.linalg.lstsq(design, logv, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    if ss_tot < 1e-20:
        r_squared = 1.0 if ss_res < 1e-16 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    q = float(coef[1])
    if r_squared < 0.9:
        raise UnclassifiableLimitError(
            f"power-law fit unreliable (R^2 = {r_squared:.3f}) for samples {values}"
        )
    if q < -0.05:
        return LimitClass.zero(exponent=q)
    if q > 0.05:
        return LimitClass.divergent(exponent=q)
    return LimitClass.finite(float(values.mean()))


# ---------------------------------------------------------------------------
# averaged field assembly


@dataclass(frozen=True)
class CoefficientEntry:
    indices: tuple
    samples: tuple
    limit: LimitClass


class AveragedField:
    """Assembled large-frequency limit field of a control-affine system.

    Calling the object evaluates

        drift(x) + sum finite gamma_ij * [f_i, f_j](x)
                 + sum finite gamma_ijm * [[f_i, f_j], f_m](x)

    Vanishing coefficients drop their brackets entirely; a divergent
    coefficient is an error as soon as its bracket fails to vanish at the
    evaluation point.
    """

    def __init__(self, system: ControlAffineSystem, omega_grid):
        self.system = system
        self.omega_grid = tuple(float(w) for w in omega_grid)
        self.pairs: list[CoefficientEntry] = []
        self.triples: list[CoefficientEntry] = []
        l = system.n_channels
        # a vanishing pair coefficient does not silence the second-order
        # terms of the same channels, so every (i, j, m) is classified
        for i in range(l):
            for j in range(i + 1, l):
                samples = tuple(gamma_pair(i, j, system, w) for w in self.omega_grid)
                limit = classify_limit(self.omega_grid, samples)
                self.pairs.append(CoefficientEntry((i, j), samples, limit))
                for m in range(l):
                    tsamples = tuple(
                        gamma_triple(i, j, m, system, w) for w in self.omega_grid
                    )
                    tlimit = classify_limit(self.omega_grid, tsamples)
                    self.triples.append(CoefficientEntry((i, j, m), tsamples, tlimit))

    @staticmethod
    def _entry(entries, indices):
        for e in entries:
            if e.indices == tuple(indices):
                return e
        raise KeyError(indices)

    def pair_limit(self, i: int, j: int) -> LimitClass:
        return self._entry(self.pairs, (i, j)).limit

    def triple_limit(self, i: int, j: int, m: int) -> LimitClass:
        return self._entry(self.triples, (i, j, m)).limit

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.system.drift(x), dtype=float).copy()
        tol = 1e-9 * (1.0 + float(np.linalg.norm(x)))
        for entry in self.pairs:
            if entry.limit.is_zero:
                continue
            i, j = entry.indices
            bracket = lie_bracket(self.system.field(i), self.system.field(j), x)
            if entry.limit.is_divergent:
                if np.linalg.norm(bracket) > tol:
                    raise DivergentAverageError(
                        f"coefficient for channels {entry.indices} grows like "
                        f"omega**{entry.limit.exponent:.3f} against a "
                        f"non-vanishing bracket at x={x}"
                    )
                continue
            out += entry.limit.value * bracket
        for entry in self.triples:
            if entry.limit.is_zero:
                continue
            i, j, m = entry.indices
            bracket = _nested_bracket(self.system, i, j, m)(x)
            if entry.limit.is_divergent:
                if np.linalg.norm(bracket) > tol:
                    raise DivergentAverageError(
                        f"coefficient for channels {entry.indices} grows like "
                        f"omega**{entry.limit.exponent:.3f} against a "
                        f"non-vanishing bracket at x={x}"
                    )
                continue
            out += entry.limit.value * bracket
        return out

    def report(self) -> str:
        """Structured key-value text listing every coefficient, its samples'
        classification, and the fitted exponent. Indices are 0-based."""
        lines = [
            "[averaged_field]",
            f"channels = {self.system.n_channels}",
            f"dimension = {self.system.dimension}",
            f"omega_grid = {', '.join(f'{w:g}' for w in self.omega_grid)}",
            "",
            "[pair_coefficients]",
        ]
        for entry in self.pairs:
            lines.append(_format_entry("gamma", entry))
        lines.append("")
        lines.append("[triple_coefficients]")
        for entry in self.triples:
            lines.append(_format_entry("gamma", entry))
        return "\n".join(lines) + "\n"


def _format_entry(prefix: str, entry: CoefficientEntry) -> str:
    tag = "_".join(str(ix) for ix in entry.indices)
    limit = entry.limit
    value = "none" if limit.value is None else f"{limit.value:.12g}"
    exponent = "none" if limit.exponent is None else f"{limit.exponent:.4f}"
    samples = ", ".join(f"{s:.12g}" for s in entry.samples)
    return (
        f"{prefix}_{tag} = class={limit.kind} value={value} "
        f"exponent={exponent} samples=[{samples}]"
    )


def build_averaged_field(system: ControlAffineSystem, omega_grid) -> AveragedField:
    """Compute all coefficients once and return the assembled limit field."""
    return AveragedField(system, omega_grid)


def averaged_vector_field(system: ControlAffineSystem, x, omega_grid) -> np.ndarray:
    """One-shot evaluation of the averaged field at ``x``.

    For repeated evaluations build the field once with
    :func:`build_averaged_field`; the coefficient quadratures are state
    independent.
    """
    return build_averaged_field(system, omega_grid)(x)


# ---------------------------------------------------------------------------
# hypothesis checking


@dataclass(frozen=True)
class AssumptionClause:
    name: str
    triggered: bool
    passed: bool
    detail: str = ""


@dataclass
class AssumptionReport:
    clauses: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.clauses)

    def __str__(self) -> str:
        lines = ["[assumption_report]", f"ok = {self.ok}"]
        for c in self.clauses:
            status = "pass" if c.passed else "FAIL"
            trig = "triggered" if c.triggered else "vacuous"
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"{c.name} = {status} [{trig}]{detail}")
        return "\n".join(lines) + "\n"


def _bracket_vanishes(bracket, dimension: int, rng: np.random.Generator,
                      n_states: int = 10, tol: float = 1e-7) -> bool:
    for _ in range(n_states):
        x = rng.standard_normal(dimension)
        if np.linalg.norm(bracket(x), ord=np.inf) > tol:
            return False
    return True


def check_assumptions(system: ControlAffineSystem, seed: int = 0) -> AssumptionReport:
    """Verify the averaging hypotheses clause by clause.

    Every input is re-checked for boundedness and zero mean. For index
    combinations whose exponents exceed the first- or second-order budget
    (pair sums above 1, triple sums above 2), the corresponding bracket must
    vanish on a random state sample or the matching raw iterated integral
    must vanish. Combinations whose four-exponent sum reaches 3 fall under
    the declared ``smooth_remainder`` flag and are reported, not computed.
    """
    rng = np.random.default_rng(seed)
    clauses: list[AssumptionClause] = []
    span = _phase_span(system)
    l = system.n_channels

    for idx in range(l):
        inp = system.input(idx)
        bounded = inp.bounded_ok()
        clauses.append(
            AssumptionClause(
                name=f"input_{idx}_bounded",
                triggered=True,
                passed=bounded,
                detail="|u| <= 1 on phase grid" if bounded else "|u| exceeds 1",
            )
        )
        defect = inp.zero_mean_defect()
        clauses.append(
            AssumptionClause(
                name=f"input_{idx}_zero_mean",
                triggered=True,
                passed=defect < 1e-10,
                detail=f"mean defect {defect:.3e}",
            )
        )

    int_tol = 1e-8
    for i in range(l):
        for j in range(i + 1, l):
            p_sum = system.input(i).p_i + system.input(j).p_i
            name = f"pair_({i},{j})_exponent_budget"
            if p_sum <= 1.0:
                clauses.append(AssumptionClause(name, False, True, f"p_i+p_j={p_sum:g}"))
                continue
            raw = _richardson(lambda n: _pair_raw(system, i, j, span, n) / span)
            if abs(raw) < int_tol:
                clauses.append(
                    AssumptionClause(name, True, True, f"iterated integral {raw:.2e}")
                )
                continue
            def pair_bracket(x, _i=i, _j=j):
                return lie_bracket(system.field(_i), system.field(_j), x)
            vanishes = _bracket_vanishes(pair_bracket, system.dimension, rng)
            clauses.append(
                AssumptionClause(
                    name, True, vanishes,
                    "bracket vanishes on sample states" if vanishes
                    else f"integral {raw:.2e} and bracket both non-vanishing",
                )
            )

    for i in range(l):
        for j in range(i + 1, l):
            for m in range(l):
                p_sum = (
                    system.input(i).p_i + system.input(j).p_i + system.input(m).p_i
                )
                name = f"triple_({i},{j},{m})_exponent_budget"
                if p_sum <= 2.0:
                    clauses.append(
                        AssumptionClause(name, False, True, f"sum={p_sum:g}")
                    )
                    continue
                raw = _richardson(
                    lambda n: _triple_raw(system, i, j, m, span, n) / span
                )
                if abs(raw) < int_tol:
                    clauses.append(
                        AssumptionClause(name, True, True, f"iterated integral {raw:.2e}")
                    )
                    continue
                vanishes = _bracket_vanishes(
                    _nested_bracket(system, i, j, m), system.dimension, rng
                )
                clauses.append(
                    AssumptionClause(
                        name, True, vanishes,
                        "bracket vanishes on sample states" if vanishes
                        else f"integral {raw:.2e} and bracket both non-vanishing",
                    )
                )

    quad_combos = [
        (i, j, m, q)
        for i in range(l)
        for j in range(i + 1, l)
        for m in range(l)
        for q in range(l)
        if system.input(i).p_i + system.input(j).p_i
        + system.input(m).p_i + system.input(q).p_i >= 3.0
    ]
    if quad_combos:
        clauses.append(
            AssumptionClause(
                name="fourth_order_flatness",
                triggered=True,
                passed=system.smooth_remainder,
                detail=(
                    f"declared smooth_remainder={system.smooth_remainder} for "
                    f"{len(quad_combos)} combination(s), first {quad_combos[0]}"
                ),
            )
        )
    else:
        clauses.append(
            AssumptionClause(
                name="fourth_order_flatness",
                triggered=False,
                passed=True,
                detail="no four-index exponent sum reaches 3",
            )
        )
    return AssumptionReport(clauses)
