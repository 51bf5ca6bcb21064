"""Second-order averaging engine for control-affine systems with oscillatory inputs.

Systems handled here have the shape

    dx/dt = f0(x) + sum_i f_i(x) * omega**p_i * u_i(k_i * omega * t)

with bounded, zero-mean, 2*pi-periodic waveforms ``u_i``. As the base
frequency ``omega`` grows, the trajectories approach those of an autonomous
system assembled from the drift and one bracket term per index tuple: the
Lie bracket ``[f_i, f_j]`` of a pair ``(i, j)`` and the nested bracket
``[[f_i, f_j], f_m]`` of a triple ``(i, j, m)``, each weighted by an
iterated-integral coefficient. Every step below (quadrature, coefficient
record, bracket, vanishing rule) is one code path keyed by the index tuple.

All quadrature is performed in the phase variable ``tau = omega * t``, where
the integrands do not depend on ``omega``, so each coefficient is
``gamma(omega) = omega**q * raw`` with ``raw`` computed once and the
exponent known exactly: ``q = p_i + p_j - 1`` for a pair and
``q = p_i + p_j + p_m - 2`` for a triple.

Each system holds its coefficients as one :class:`Coefficient` record per
index tuple in ``system.coefficients``, built once, on first use, which the
engine, ``check_assumptions`` and ``gamma_pair``/``gamma_triple`` all read.
Every ``raw`` comes from one spectral ladder per wave set: the integrals
depend on each channel's wave and multiplier ``k`` alone, never on the
gains or the ``p_i``, so every system on the same waves reads one ladder
and adds only its own exponents. Each rung samples every channel once on a
periodic grid over the common phase period and takes running integrals
with one FFT (bin ``k`` divided by ``i k``), so
band-limited inputs, such as the sin, cos and cos-2 waves of both loops, are
integrated exactly to rounding. The grid starts at ``QUAD_MIN_NODES`` nodes
per common period, or 8 per cycle of the fastest channel if that is more,
and is doubled until two rungs agree; any other wave climbs the same ladder.

A coefficient's limit is zero when ``q < 0`` or when ``raw`` lies within the
quadrature's own error estimate (ladder disagreement plus rounding
allowance), the finite constant ``raw`` when ``q == 0``, divergent when
``q > 0``. A divergent coefficient is admissible only where its bracket
vanishes, which one scale-free rule decides: ``|[f, g](x)|`` is at most
``BRACKET_RTOL`` times ``|Dg(x)[f(x)]| + |Df(x)[g(x)]|``. Brackets are exact
directional derivatives by dual numbers, never Jacobians.

The averaged field does not evaluate its brackets per state. When it is
built, the drift and every bracket that does not drop run once on the
symbols of a :class:`~sourceseek.numdiff.Tape`, and the record renders as
one straight-line function of the state: the same float operations in the
same order, with each bracket's finiteness test and each divergent
bracket's vanishing rule, so it returns bit-for-bit what the duals would
and raises their errors at the same states. The gains are arguments of
that function, so every system of one structure shares one compiled code
object. This is the tape-based code generation of Griewank & Walther
(*Evaluating Derivatives*, 2nd ed., SIAM 2008) applied to the Lie-bracket
averaging of Dürr, Stanković, Ebenbauer & Johansson (Automatica 2013).

Channel indices are 0-based everywhere (``gamma_pair(0, 1, ...)`` couples the
first two channels).

Conventions fixed by the implementation:

* pair ``(i, j)``: prefactor ``omega**(p_i + p_j) / T`` on the double
  iterated integral of ``u_j(k_j w s) u_i(k_i w p)`` over one common period
  ``T``.
* triple ``(i, j, m)``: prefactor ``omega**(p_i + p_j + p_m) / (3 T)`` on the
  triple iterated integral of the antisymmetrized product; the factor 3 in
  the denominator makes the constant-coefficient reference case
  (sin/cos../cos 2. channels) come out at exactly 1/8.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Hashable
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .model import _positive, _section
# central_jacobian is not called here; bench/tracer.py wraps
# averaging.central_jacobian by name, so the name stays in this namespace
from .numdiff import central_jacobian  # noqa: F401
from .numdiff import (Dual, Sym, Tape, all_finite, directional_derivative,
                      hypot, require)

__all__ = [
    "OscillatoryInput",
    "ControlAffineSystem",
    "Coefficient",
    "QuadratureError",
    "DivergentAverageError",
    "gamma_pair",
    "gamma_triple",
    "lie_bracket",
    "default_omega_grid",
    "build_averaged_field",
    "AveragedField",
    "check_assumptions",
    "AssumptionClause",
    "AssumptionReport",
]

TWO_PI = 2.0 * math.pi

#: the ladder stops doubling its grid once successive estimates agree this closely
QUAD_HALT_TOL = 1e-9
#: ... and is declared non-convergent if disagreement still exceeds this.
QUAD_FAIL_TOL = 1e-7
#: node cap for the ladder
QUAD_MAX_NODES = 2**20
#: the ladder's first rung has at least this many nodes per common period,
#: for harmonics inside a wave that the multipliers do not show: content at
#: a multiple of twice the first rung samples alike on the first two rungs,
#: which then agree on a wrong value ...
QUAD_MIN_NODES = 1024
#: ... and at least this many per cycle of the fastest channel, so that
#: triple products of the channels stay below the Nyquist bin
QUAD_NODES_PER_CYCLE = 8
#: an exponent sum this many ulps from an integer is that integer
EXPONENT_ULPS = 4
_EPS = float(np.finfo(float).eps)
#: a waveform has zero mean when its mean over one period is below this
MEAN_TOL = 1e-10
#: a bracket vanishes at x when its norm is at most this multiple of the sum
#: of its two terms' norms; the identically zero (1, 2, 2) bracket of the
#: Newton loop reads at most 1.15 eps of its terms (900 draws of alpha in
#: 0.3-3, H in 0.001-10, p in 0.55-0.8, 20 states each), 55 times below this
BRACKET_RTOL = 64 * _EPS


class QuadratureError(RuntimeError):
    """Quadrature failed to converge within the node budget."""


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
            bounded, mean = self.wave_checks
            if not bounded:
                raise ValueError("waveform exceeds unit magnitude")
            if mean >= MEAN_TOL:
                raise ValueError(f"|waveform mean| {mean:.3e} is not zero")

    @property
    def wave_checks(self) -> tuple[bool, float]:
        """The wave's record ``(bounded, |mean|)`` (:func:`_wave_checks`),
        computed once per hashable wave."""
        hashable = isinstance(self.wave, Hashable)
        return (_wave_checks if hashable else _wave_checks.__wrapped__)(self.wave)


@functools.lru_cache(maxsize=256)
def _wave_checks(wave) -> tuple[bool, float]:
    """Whether ``|wave| <= 1`` on 1001 phases over one period, ends
    included, and ``|mean|`` over one period on 4096 nodes, endpoint
    excluded, exact for a band below 2048. They depend on the wave alone,
    so the construction of an input, the engine and ``check_assumptions``
    share one record per wave."""
    bounded = np.abs(np.asarray(wave(np.linspace(0.0, TWO_PI, 1001)))) <= 1.0 + 1e-12
    phases = np.arange(4096) * (TWO_PI / 4096)
    return bool(np.all(bounded)), abs(float(np.mean(np.asarray(wave(phases), dtype=float))))


@dataclass(frozen=True)
class ControlAffineSystem:
    """Drift plus oscillatory channels ``(vector field, input)``.

    A field takes its state as a tuple of ``dimension`` scalars and returns
    ``dimension`` components. The engine traces it once, on a tuple of
    :class:`~sourceseek.numdiff.Sym` s and, for brackets, of
    :class:`~sourceseek.numdiff.Dual` s of them, and ``check_assumptions``
    calls it on floats and duals, so it must be plain arithmetic of the
    entries that does not branch on them (see :mod:`sourceseek.numdiff`);
    a component that does not depend on the state may be a plain float.
    Construction probes every field twice on floats and once on symbols,
    so a field that treats its state as an array or branches on it fails
    here and names itself: ``2 * s`` repeats the tuple and returns the
    wrong number of components (``ValueError``); ``-s``, ``math.exp(s[0])``
    and ``s[0] if s[0] else 1.0`` raise ``TypeError``.

    ``smooth_remainder`` is a declared flag standing in for the
    fourth-derivative flatness condition on high-exponent index combinations;
    it is reported, never verified numerically.
    """

    drift: object
    channels: tuple
    dimension: int
    smooth_remainder: bool = True

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(tuple(ch) for ch in self.channels))
        n = self.dimension
        if n < 1:
            raise ValueError("dimension must be >= 1")
        probes = ((0.0,) * n, (0.5,) * n)
        symbols = Tape(n).state
        for name, fn in [("drift", self.drift)] + [
            (f"channel {i}", ch[0]) for i, ch in enumerate(self.channels)
        ]:
            try:  # the engine traces every field on symbols
                values = [fn(probe) for probe in probes]
                fn(symbols)
            except TypeError as exc:
                raise TypeError(f"{name} is not plain arithmetic of the state "
                                f"tuple (+, -, *, /, integer ** and "
                                f"numdiff.exp/log only, with no branch on "
                                f"the state): {exc}") from exc
            for probe, out in zip(probes, values):
                out = np.asarray(out, dtype=float)
                if out.shape != (n,):
                    raise ValueError(
                        f"{name} returned shape {out.shape} at the state tuple "
                        f"{probe}, expected ({n},): one component per entry"
                    )
                if not np.all(np.isfinite(out)):
                    raise ValueError(f"{name} is non-finite at probe state {probe}")

    @cached_property
    def coefficients(self) -> dict:
        """One :class:`Coefficient` per index tuple, keyed by its indices,
        pairs first; built once per system, on first use, from the exponents
        of its ``p_i`` and the ladder that every system on the same
        ``(wave, k)`` channels shares, a wave keyed by its identity or hash
        (see :func:`_coefficient_table`)."""
        return _coefficient_table(self)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def field(self, i: int):
        return self.channels[i][0]

    def input(self, i: int) -> OscillatoryInput:
        return self.channels[i][1]


# ---------------------------------------------------------------------------
# coefficients


def _lcm_fraction(values: list[Fraction]) -> Fraction:
    num = 1
    den = 0
    for v in values:
        num = math.lcm(num, v.numerator)
        den = math.gcd(den, v.denominator)
    return Fraction(num, den)


def _waves(channels: tuple, s: np.ndarray) -> np.ndarray:
    """Every channel's ``u_i(k_i s)``, one row per ``(wave, k)`` channel."""
    return np.array([np.asarray(wave(float(k) * s), dtype=float)
                     for wave, k in channels])


#: section names of the index tuples by length
_ORDER_NAMES = {2: "pair", 3: "triple"}


def _index_tuples(l: int) -> list[tuple]:
    """Indices of every coefficient of ``l`` channels: the pairs ``(i, j)``
    with ``i < j``, then the triples ``(i, j, m)``, each in lexicographic
    order. A vanishing pair does not silence the second-order terms of the
    same channels, so every ``m`` is listed."""
    pairs = [(i, j) for i in range(l) for j in range(i + 1, l)]
    return pairs + [(i, j, m) for i, j in pairs for m in range(l)]


@dataclass(frozen=True)
class Coefficient:
    """Averaging coefficient ``gamma(omega) = omega**exponent * raw`` of one
    index tuple, as built by :func:`_coefficient_table`.

    ``exponent`` is exact; ``raw`` is the iterated integral over one common
    phase period divided by its length for a pair ``(i, j)``, and by three
    times its length for a triple ``(i, j, m)``, estimated on the finest rung
    of the ladder (``nodes`` grid points per common phase period).
    ``disagreement`` is its distance from the rung before and ``rounding``
    the floating-point allowance ``nodes * eps * mean(|outer integrand|)``
    of the finest rung, both in the normalization of ``raw``.

    Its large-frequency ``kind`` is ``"zero"`` when ``raw`` cannot be told
    apart from zero (``|raw| <= error``) or the exponent is negative,
    otherwise ``"finite"`` at exponent 0 and ``"divergent"`` at a positive
    exponent.
    """

    indices: tuple
    exponent: float
    raw: float
    disagreement: float
    rounding: float
    nodes: int

    @property
    def error(self) -> float:
        return self.disagreement + self.rounding

    @cached_property
    def kind(self) -> str:
        if abs(self.raw) <= self.error or self.exponent < 0.0:
            return "zero"
        return "finite" if self.exponent == 0.0 else "divergent"

    @property
    def limit(self) -> float | None:
        """``gamma`` as omega grows: 0.0, the constant ``raw``, or None when
        it diverges."""
        kind = self.kind
        if kind == "divergent":
            return None
        return self.raw if kind == "finite" else 0.0

    def at(self, omega: float) -> float:
        """``gamma`` at the base frequency ``omega``."""
        _positive("omega", (omega,))
        return omega ** self.exponent * self.raw


def _running_integral(g: np.ndarray,
                      integrator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running integral ``int_0^tau g`` of periodic samples (one function per
    row, ``n`` nodes over one period, endpoint excluded), split as
    ``mean * tau + P(tau)``; returns ``(mean, P)`` with ``P`` periodic and
    ``P(0) = 0``.

    ``integrator`` holds ``1 / (i w_k)`` for the rfft bins ``k`` (``w_k`` the
    angular frequency of bin ``k``), zero on the mean and on the Nyquist
    bin, which has no antiderivative on the grid."""
    n = g.shape[-1]
    spectrum = np.fft.rfft(g)
    antiderivative = np.fft.irfft(spectrum * integrator, n)
    return spectrum[..., 0].real / n, antiderivative - antiderivative[..., :1]


def _rung(channels: tuple, span: float,
          n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every coefficient's ``raw`` and the mean magnitude of its outer
    integrand on ``n`` nodes over the common phase period ``span``, in
    :func:`_index_tuples` order, for the ``(wave, k)`` channels.

    Pair ``(i, j)``: the mean of ``u_j U_i``, ``U_i`` the running integral
    of ``u_i``; one matrix product gives all pairs. Triple ``(i, j, m)``: a
    third of the mean of ``u_m V_ij``, ``V_ij`` the running integral of the
    antisymmetrized ``u_j U_i - u_i U_j``. Each running integral is
    ``mean * tau + P`` with ``P`` periodic, and the ramp ``tau`` enters the
    full-period means through its Fourier series, so a channel of nonzero
    mean is integrated exactly too: with ``U_i = c_i tau + P_i``,
    integration by parts gives ``V_ij = J[f] + tau H`` for
    ``H = c_i P_j - c_j P_i``, ``f = u_j P_i - u_i P_j - H`` and ``J`` the
    running integral (``H = 0`` for zero-mean channels).
    """
    i, j = np.array([ix for ix in _index_tuples(len(channels))
                     if len(ix) == 2]).T
    integrator = np.zeros(n // 2 + 1, dtype=complex)
    integrator[1:n // 2] = span / (TWO_PI * 1j * np.arange(1, n // 2))
    # tau's Fourier series span/2 - sum_k 2 sin(w_k tau) / w_k below the
    # Nyquist bin: mean(q * ramp) is int_0^span tau q(tau) dtau / span
    # exactly for every periodic q of a lower band
    ramp = span / 2.0 - n * np.fft.irfft(integrator, n)
    w = _waves(channels, np.arange(n) * (span / n))
    c, p = _running_integral(w, integrator)
    u = p + c[:, None] * ramp
    h = c[i, None] * p[j] - c[j, None] * p[i]
    c0, pv = _running_integral(w[j] * p[i] - w[i] * p[j] - h, integrator)
    v = (pv + ramp * (c0[:, None] + h)) / 3.0
    values = np.concatenate([(u @ w.T)[i, j], (v @ w.T).ravel()]) / n
    magnitudes = np.concatenate([(np.abs(u) @ np.abs(w).T)[i, j],
                                 (np.abs(v) @ np.abs(w).T).ravel()]) / n
    return values, magnitudes


def _coefficient_table(system: ControlAffineSystem) -> dict[tuple, Coefficient]:
    """One :class:`Coefficient` per index tuple of ``system``, in
    :func:`_index_tuples` order: its ``raw``, ``disagreement``, ``rounding``
    and ``nodes`` from the ladder of the system's ``(wave, k)`` channels
    (:func:`_ladder`), and its exponent from the channels' ``p_i``.

    The ladder depends on the waves and multipliers alone, never on the
    gains or the ``p_i``, so every system on one wave set reads one ladder:
    a wave is keyed by its identity or hash, as
    :attr:`OscillatoryInput.wave_checks` keys it, and a set holding an
    unhashable wave runs its ladder uncached. The ``QUAD_*`` settings read
    now are part of the key, so a ladder built under other settings is
    never served.

    An exponent ``q`` within ``EXPONENT_ULPS`` units in the last place of
    its exponent sum is exactly 0: it is the rounding of a sum such as
    ``(1 - p) + p``.

    Raises
    ------
    QuadratureError
        From :func:`_ladder`; a failed ladder is not cached.
    """
    channels = tuple((inp.wave, inp.k) for _, inp in system.channels)
    settings = (QUAD_MIN_NODES, QUAD_NODES_PER_CYCLE, QUAD_HALT_TOL,
                QUAD_FAIL_TOL, QUAD_MAX_NODES)
    hashable = all(isinstance(wave, Hashable) for wave, _ in channels)
    ladder = (_ladder if hashable else _ladder.__wrapped__)(channels, settings)
    table = {}
    for ix, (raw, disagreement, rounding, nodes) in zip(
            _index_tuples(system.n_channels), ladder):
        p_sum = sum(system.input(k).p_i for k in ix)
        q = p_sum - (len(ix) - 1)
        q = 0.0 if abs(q) <= EXPONENT_ULPS * math.ulp(p_sum) else q
        table[ix] = Coefficient(ix, q, raw, disagreement, rounding, nodes)
    return table


@functools.lru_cache(maxsize=256)
def _ladder(channels: tuple, settings: tuple) -> tuple:
    """``(raw, disagreement, rounding, nodes)`` of every index tuple of the
    ``(wave, k)`` channels, in :func:`_index_tuples` order, from one ladder
    of spectral rungs run under ``settings``, the values of
    ``(QUAD_MIN_NODES, QUAD_NODES_PER_CYCLE, QUAD_HALT_TOL, QUAD_FAIL_TOL,
    QUAD_MAX_NODES)``.

    The first rung has ``QUAD_MIN_NODES`` nodes per common phase period, or
    more so that the fastest channel gets at least ``QUAD_NODES_PER_CYCLE``
    nodes per cycle of its multiplier, rounded up to a power of two. The grid
    then doubles until every value agrees with the rung before within
    ``QUAD_HALT_TOL`` or the node count reaches ``QUAD_MAX_NODES``.

    Raises
    ------
    QuadratureError
        If the first rung would need more than half of ``QUAD_MAX_NODES``,
        or if a coefficient's ladder disagreement still exceeds
        ``QUAD_FAIL_TOL`` on the last rung.
    """
    min_nodes, per_cycle, halt_tol, fail_tol, max_nodes = settings
    tuples = _index_tuples(len(channels))
    if not tuples:
        return ()
    multipliers = [k for _, k in channels]
    cycles = _lcm_fraction([1 / k for k in multipliers])
    span = float(cycles) * TWO_PI
    fastest = int(max(multipliers) * cycles)
    n = 1 << (max(min_nodes, per_cycle * fastest) - 1).bit_length()
    if 2 * n > max_nodes:
        raise QuadratureError(
            f"the fastest channel runs {fastest} cycles per common period, "
            f"which needs {2 * n} nodes, above {max_nodes}"
        )
    previous, _ = _rung(channels, span, n)
    while True:
        n *= 2
        values, magnitudes = _rung(channels, span, n)
        disagreement = np.abs(values - previous)
        if disagreement.max() < halt_tol or n >= max_nodes:
            break
        previous = values
    worst = int(np.argmax(disagreement))
    if disagreement[worst] > fail_tol:
        raise QuadratureError(
            f"iterated-integral quadrature did not converge: disagreement "
            f"{disagreement[worst]:.3e} for channels {tuples[worst]} at {n} nodes"
        )
    return tuple((float(v), float(d), float(n * _EPS * m), n)
                 for v, d, m in zip(values, disagreement, magnitudes))


def _coefficient(system: ControlAffineSystem, indices: tuple) -> Coefficient:
    """The record of ``indices`` in ``system.coefficients``."""
    try:
        return system.coefficients[indices]
    except KeyError:
        raise ValueError(f"no coefficient for channels {indices}: need "
                         "0 <= i < j < l and 0 <= m < l") from None


def gamma_pair(i: int, j: int, system: ControlAffineSystem, omega: float) -> float:
    """First-order averaging coefficient for the channel pair ``i < j``:
    ``omega**(p_i + p_j) / T`` times the iterated double integral of
    ``u_j(k_j omega s) u_i(k_i omega p)`` over one common period ``T``."""
    return _coefficient(system, (i, j)).at(omega)


def gamma_triple(i: int, j: int, m: int, system: ControlAffineSystem,
                 omega: float) -> float:
    """Second-order averaging coefficient for the bracket ``[[f_i, f_j], f_m]``:
    ``omega**(p_i + p_j + p_m) / (3 T)`` times the nested triple integral of
    ``u_m * (u_j U_i - u_i U_j)``; the sin/cos/cos-double reference system's
    (1, 2, 1)-coefficient (0-based) is exactly 1/8."""
    return _coefficient(system, (i, j, m)).at(omega)


# ---------------------------------------------------------------------------
# brackets


def lie_bracket(f, g, x) -> np.ndarray | tuple:
    """Lie bracket ``[f, g](x) = Dg(x)[f(x)] - Df(x)[g(x)]``.

    Each term is one exact directional derivative, not a Jacobian product:
    ``g`` is evaluated at the dual point ``x + eps f(x)`` and ``f`` at
    ``x + eps g(x)``, four field evaluations in all, a zero direction
    included. At a dual ``x`` this differentiates the bracket itself, which
    is how :func:`_bracket` nests it.

    Returns a float array at a real ``x``, and a tuple at a dual or a traced
    one, like :func:`~sourceseek.numdiff.directional_derivative`.

    Raises
    ------
    ValueError
        If a field value at a real ``x`` is non-finite; the message names
        the point. At a traced ``x`` the test is recorded instead
        (:func:`~sourceseek.numdiff.require`).
    """
    bracket = tuple(map(operator.sub, *_bracket_terms(f, g, x)))
    return bracket if isinstance(x[0], (Dual, Sym)) else np.array(bracket)


def _bracket_terms(f, g, x) -> tuple:
    """The two terms ``(Dg(x)[f(x)], Df(x)[g(x)])`` of ``[f, g](x)``, each
    a tuple."""
    fx, gx = f(x), g(x)
    # at a dual x the real parts of these values were checked at a real one
    if not isinstance(x[0], Dual):
        require(all_finite((*fx, *gx)), _nonfinite, x)
    return directional_derivative(g, x, fx), directional_derivative(f, x, gx)


def _nonfinite(x) -> ValueError:
    return ValueError(f"non-finite field evaluation at {x}")


def _bracket(system: ControlAffineSystem, indices) -> tuple:
    """The fields ``(f, g)`` of the outer bracket of ``indices``:
    ``(f_i, f_j)`` for a pair and ``([f_i, f_j], f_m)`` for a triple, the
    inner bracket a callable that :func:`lie_bracket` differentiates at a
    dual point."""
    *inner, m = indices
    if len(inner) == 1:
        return system.field(inner[0]), system.field(m)
    fi, fj = _bracket(system, inner)
    return (lambda x: lie_bracket(fi, fj, x)), system.field(m)


def _vanishes(f, g, x) -> bool:
    """The vanishing rule: ``|[f, g](x)| <= BRACKET_RTOL (|Dg[f]| + |Df[g]|)``;
    a bool at a real ``x``, the recorded test at a traced one."""
    dg_f, df_g = _bracket_terms(f, g, x)
    # hypot neither overflows nor underflows where squares would
    return (hypot(*map(operator.sub, dg_f, df_g))
            <= BRACKET_RTOL * (hypot(*dg_f) + hypot(*df_g)))


def default_omega_grid(omega_anchor: float) -> tuple[float, ...]:
    """Geometric frequency ladder {w, 2w, 4w, 8w} on which the engine report
    lists each coefficient."""
    _positive("omega_anchor", (omega_anchor,))
    return tuple(omega_anchor * 2.0**k for k in range(4))


# ---------------------------------------------------------------------------
# averaged field assembly


class AveragedField:
    """Assembled large-frequency limit field of a control-affine system.

    ``coefficients`` is the system's own table (``system.coefficients``):
    one :class:`Coefficient` per index tuple, keyed by its indices, pairs
    first. Calling the object with a state of ``system.dimension`` entries
    evaluates

        drift(x) + sum finite gamma_ij * [f_i, f_j](x)
                 + sum finite gamma_ijm * [[f_i, f_j], f_m](x)

    Vanishing coefficients drop their brackets entirely, once, when the
    field is built; a divergent coefficient is an error as soon as its
    bracket fails the vanishing rule (:func:`_vanishes`) at the evaluation
    point. The fields run only when the field is built, which traces them
    into one function of the state (:meth:`_render`); a call runs that
    function on the state as a tuple of floats.

    Raises
    ------
    DivergentAverageError
        If an input built with ``validate=False`` has a nonzero mean: its
        term ``omega**p_i * mean * f_i`` grows without bound, and no bracket
        expansion holds. Checked after the coefficient table is built. At a
        call, if a divergent coefficient's bracket fails the vanishing rule.
    ValueError
        At a call, if the state does not have ``system.dimension`` entries,
        or if a field value of a bracket is non-finite there.
    """

    def __init__(self, system: ControlAffineSystem, omega_grid):
        self.system = system
        self.omega_grid = _positive("omega grid", omega_grid)
        if not self.omega_grid:
            raise ValueError("omega grid must be non-empty")
        self.coefficients: dict[tuple, Coefficient] = system.coefficients
        for i, (_, inp) in enumerate(system.channels):
            # a validated input had its mean checked at construction
            if not inp.validate and (mean := inp.wave_checks[1]) >= MEAN_TOL:
                raise DivergentAverageError(
                    f"channel {i} has |mean| {mean:.3e}: its term "
                    f"omega**{inp.p_i:g} * mean * f_{i} diverges"
                )
        self._evaluate = self._render()

    def _render(self):
        """The field as one straight-line function of the state tuple: the
        drift and every bracket that does not drop, traced once on the
        symbols of a :class:`~sourceseek.numdiff.Tape` by the code that
        evaluates them at floats (:func:`lie_bracket`, :func:`_vanishes`),
        so the operations and the tests come in the same order."""
        tape = Tape(self.system.dimension)
        x = tape.state
        out = list(self.system.drift(x))
        for c in self.coefficients.values():
            if c.kind == "finite":
                bracket = lie_bracket(*_bracket(self.system, c.indices), x)
                out = [o + c.raw * b for o, b in zip(out, bracket)]
            elif c.kind == "divergent":
                require(_vanishes(*_bracket(self.system, c.indices), x),
                        functools.partial(_divergent, c), x)
        return tape.render(out)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.system.dimension,):
            raise ValueError(f"state of shape {x.shape}, but system.dimension "
                             f"is {self.system.dimension}")
        return np.array(self._evaluate(tuple(x.tolist())), dtype=float)

    def report(self) -> str:
        """Structured key-value text listing every coefficient with its limit
        class, exact exponent, values on the omega grid, and the node count
        and error estimate of its quadrature. Indices are 0-based."""
        items = [("channels", self.system.n_channels),
                 ("dimension", self.system.dimension),
                 ("omega_grid", ", ".join(f"{w:g}" for w in self.omega_grid))]
        sections = [_section("averaged_field", items)]
        for order, name in _ORDER_NAMES.items():
            sections.append(_section(f"{name}_coefficients", [
                self._item(c) for c in self.coefficients.values() if len(c.indices) == order]))
        return "\n".join(sections)

    def _item(self, c: Coefficient) -> tuple[str, str]:
        value = "none" if c.limit is None else f"{c.limit:.12g}"
        samples = ", ".join(f"{c.at(w):.12g}" for w in self.omega_grid)
        return ("gamma_" + "_".join(str(ix) for ix in c.indices),
                f"class={c.kind} value={value} exponent={c.exponent:.4f} "
                f"samples=[{samples}] nodes={c.nodes} error={c.error:.3e}")


def _divergent(c: Coefficient, x) -> DivergentAverageError:
    return DivergentAverageError(
        f"coefficient for channels {c.indices} grows like "
        f"omega**{c.exponent:.3f} against a non-vanishing bracket at x={x}"
    )


def build_averaged_field(system: ControlAffineSystem, omega_grid) -> AveragedField:
    """Compute all coefficients once and return the assembled limit field."""
    return AveragedField(system, omega_grid)


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
        items = [("ok", self.ok)]
        for c in self.clauses:
            status = "pass" if c.passed else "FAIL"
            trig = "triggered" if c.triggered else "vacuous"
            detail = f" ({c.detail})" if c.detail else ""
            items.append((c.name, f"{status} [{trig}]{detail}"))
        return _section("assumption_report", items)


def check_assumptions(system: ControlAffineSystem) -> AssumptionReport:
    """Verify the averaging hypotheses clause by clause.

    Every input reports its wave's boundedness and zero mean from the
    record that its construction read (:attr:`OscillatoryInput.wave_checks`).
    For index combinations whose exponents exceed the first- or
    second-order budget (pair sums above 1, triple sums above 2), the
    matching raw iterated integral must vanish within its quadrature error
    estimate or the corresponding bracket must pass the vanishing rule
    (:func:`_vanishes`) on 10 standard-normal sample states drawn from
    seed 0. The coefficients
    are the records of ``system.coefficients``, which the engine reads too;
    their integrals come from the ladder shared by every system on the same
    waves, so a check on a second system of one wave set runs no ladder.
    Combinations whose four-exponent sum reaches 3 fall under the declared
    ``smooth_remainder`` flag and are reported, not computed.
    """
    rng = np.random.default_rng(0)
    clauses: list[AssumptionClause] = []
    l = system.n_channels

    for idx in range(l):
        inp = system.input(idx)
        bounded, defect = inp.wave_checks
        clauses += [
            AssumptionClause(f"input_{idx}_bounded", True, bounded,
                             "|u| <= 1 on phase grid" if bounded else "|u| exceeds 1"),
            AssumptionClause(f"input_{idx}_zero_mean", True, defect < MEAN_TOL,
                             f"mean defect {defect:.3e}"),
        ]

    def budget(c: Coefficient) -> AssumptionClause:
        tag = ",".join(str(ix) for ix in c.indices)
        name = f"{_ORDER_NAMES[len(c.indices)]}_({tag})_exponent_budget"
        if c.exponent <= 0.0:
            p_sum = sum(system.input(ix).p_i for ix in c.indices)
            return AssumptionClause(name, False, True, f"exponent sum {p_sum:g}")
        if c.kind == "zero":
            return AssumptionClause(
                name, True, True,
                f"iterated integral {c.raw:.2e} within error {c.error:.1e}",
            )
        f, g = _bracket(system, c.indices)
        # all() stops at the first failing state, so the draws stay in order
        vanishes = all(_vanishes(f, g, rng.standard_normal(system.dimension))
                       for _ in range(10))
        return AssumptionClause(
            name, True, vanishes,
            "bracket vanishes on sample states" if vanishes
            else f"integral {c.raw:.2e} and bracket both non-vanishing",
        )

    clauses += [budget(c) for c in system.coefficients.values()]

    quad_combos = [
        (i, j, m, q)
        for i in range(l)
        for j in range(i + 1, l)
        for m in range(l)
        for q in range(l)
        if system.input(i).p_i + system.input(j).p_i
        + system.input(m).p_i + system.input(q).p_i >= 3.0
    ]
    clauses.append(AssumptionClause(
        name="fourth_order_flatness",
        triggered=bool(quad_combos),
        passed=system.smooth_remainder if quad_combos else True,
        detail=(
            f"declared smooth_remainder={system.smooth_remainder} for "
            f"{len(quad_combos)} combination(s), first {quad_combos[0]}"
        ) if quad_combos else "no four-index exponent sum reaches 3",
    ))
    return AssumptionReport(clauses)
