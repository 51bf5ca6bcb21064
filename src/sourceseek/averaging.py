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

Each system builds its coefficients once, on first use, as one
:class:`Coefficient` record per index tuple in ``system.coefficients``,
which the engine, ``check_assumptions`` and ``gamma_pair``/``gamma_triple``
all read. Every ``raw`` comes from one spectral table: each rung samples
every channel once on a periodic grid over the common phase period and takes
running integrals with one FFT (bin ``k`` divided by ``i k``), so
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

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

# central_jacobian is not called here; bench/tracer.py wraps
# averaging.central_jacobian by name, so the name stays in this namespace
from .numdiff import central_jacobian  # noqa: F401
from .numdiff import Dual, directional_derivative

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
            if not self.bounded_ok():
                raise ValueError("waveform exceeds unit magnitude")
            defect = self.zero_mean_defect(1000)
            if defect >= 1e-10:
                raise ValueError(f"|waveform mean| {defect:.3e} is not zero")

    def bounded_ok(self, n: int = 1000) -> bool:
        phases = np.linspace(0.0, TWO_PI, n + 1)
        return bool(np.all(np.abs(np.asarray(self.wave(phases))) <= 1.0 + 1e-12))

    def zero_mean_defect(self, n: int = 4096) -> float:
        """``|mean|`` over one period on ``n`` nodes, endpoint excluded:
        exact for a band below ``n / 2``."""
        phases = np.arange(n) * (TWO_PI / n)
        return abs(float(np.mean(np.asarray(self.wave(phases), dtype=float))))


@dataclass(frozen=True)
class ControlAffineSystem:
    """Drift plus oscillatory channels ``(vector field, input)``.

    A field takes its state as a tuple of ``dimension`` scalars and returns
    ``dimension`` components. The engine calls it on tuples of floats and,
    for brackets, on tuples of :class:`~sourceseek.numdiff.Dual` s, so it
    must be plain arithmetic of the entries (see :mod:`sourceseek.numdiff`);
    a component that does not depend on the state may be a plain float.
    Construction probes every field once on each kind of tuple, so a field
    that treats its state as an array fails here and names itself:
    ``2 * s`` repeats the tuple and returns the wrong number of components
    (``ValueError``), ``-s`` raises ``TypeError``.

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
        for name, fn in [("drift", self.drift)] + [
            (f"channel {i}", ch[0]) for i, ch in enumerate(self.channels)
        ]:
            try:  # brackets evaluate every field at dual points too
                values = [fn(probe) for probe in probes]
                directional_derivative(fn, probes[-1], (1.0,) * n)
            except TypeError as exc:
                raise TypeError(f"{name} is not plain arithmetic of the state "
                                f"tuple (+, -, *, /, integer ** and "
                                f"numdiff.exp/log only): {exc}") from exc
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
        pairs first; built once, on first use (see :func:`_coefficient_table`)."""
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


def _waves(system: ControlAffineSystem, s: np.ndarray) -> np.ndarray:
    """Every channel's ``u_i(k_i s)``, one row per channel."""
    return np.array([np.asarray(inp.wave(float(inp.k) * s), dtype=float)
                     for _, inp in system.channels])


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
        if not omega > 0.0:
            raise ValueError("omega must be positive")
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


def _rung(system: ControlAffineSystem, span: float,
          n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every coefficient's ``raw`` and the mean magnitude of its outer
    integrand on ``n`` nodes over the common phase period ``span``, in
    :func:`_index_tuples` order.

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
    l = system.n_channels
    i, j = np.array([ix for ix in _index_tuples(l) if len(ix) == 2]).T
    integrator = np.zeros(n // 2 + 1, dtype=complex)
    integrator[1:n // 2] = span / (TWO_PI * 1j * np.arange(1, n // 2))
    # tau's Fourier series span/2 - sum_k 2 sin(w_k tau) / w_k below the
    # Nyquist bin: mean(q * ramp) is int_0^span tau q(tau) dtau / span
    # exactly for every periodic q of a lower band
    ramp = span / 2.0 - n * np.fft.irfft(integrator, n)
    w = _waves(system, np.arange(n) * (span / n))
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
    :func:`_index_tuples` order, every ``raw`` from one ladder of spectral
    rungs.

    The first rung has ``QUAD_MIN_NODES`` nodes per common phase period, or
    more so that the fastest channel gets at least ``QUAD_NODES_PER_CYCLE``
    nodes per cycle of its multiplier, rounded up to a power of two. The grid
    then doubles until every value agrees with the rung before within
    ``QUAD_HALT_TOL`` or the node count reaches ``QUAD_MAX_NODES``.

    An exponent ``q`` within ``EXPONENT_ULPS`` units in the last place of
    its exponent sum is exactly 0: it is the rounding of a sum such as
    ``(1 - p) + p``.

    Raises
    ------
    QuadratureError
        If the first rung would need more than half of ``QUAD_MAX_NODES``,
        or if a coefficient's ladder disagreement still exceeds
        ``QUAD_FAIL_TOL`` on the last rung.
    """
    tuples = _index_tuples(system.n_channels)
    if not tuples:
        return {}
    multipliers = [system.input(i).k for i in range(system.n_channels)]
    cycles = _lcm_fraction([1 / k for k in multipliers])
    span = float(cycles) * TWO_PI
    fastest = int(max(multipliers) * cycles)
    n = 1 << (max(QUAD_MIN_NODES, QUAD_NODES_PER_CYCLE * fastest) - 1).bit_length()
    if 2 * n > QUAD_MAX_NODES:
        raise QuadratureError(
            f"the fastest channel runs {fastest} cycles per common period, "
            f"which needs {2 * n} nodes, above {QUAD_MAX_NODES}"
        )
    previous, _ = _rung(system, span, n)
    while True:
        n *= 2
        values, magnitudes = _rung(system, span, n)
        disagreement = np.abs(values - previous)
        if disagreement.max() < QUAD_HALT_TOL or n >= QUAD_MAX_NODES:
            break
        previous = values
    worst = int(np.argmax(disagreement))
    if disagreement[worst] > QUAD_FAIL_TOL:
        raise QuadratureError(
            f"iterated-integral quadrature did not converge: disagreement "
            f"{disagreement[worst]:.3e} for channels {tuples[worst]} at {n} nodes"
        )
    table = {}
    for ix, v, d, m in zip(tuples, values, disagreement, magnitudes):
        p_sum = sum(system.input(k).p_i for k in ix)
        q = p_sum - (len(ix) - 1)
        q = 0.0 if abs(q) <= EXPONENT_ULPS * math.ulp(p_sum) else q
        table[ix] = Coefficient(ix, q, float(v), float(d), float(n * _EPS * m), n)
    return table


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
    ``x + eps g(x)``, four field evaluations in all (a zero direction
    contributes zero and costs none). At a dual ``x`` this differentiates
    the bracket itself, which is how :func:`_bracket` nests it.

    Returns a float array at a real ``x`` and a tuple at a dual one, like
    :func:`~sourceseek.numdiff.directional_derivative`.

    Raises
    ------
    ValueError
        If a field value at a real ``x`` is non-finite; the message names
        the point.
    """
    dg_f, df_g = _bracket_terms(f, g, x)
    if isinstance(dg_f, tuple):
        return tuple(map(operator.sub, dg_f, df_g))
    return dg_f - df_g


def _bracket_terms(f, g, x) -> tuple:
    """The two terms ``(Dg(x)[f(x)], Df(x)[g(x)])`` of ``[f, g](x)``: float
    arrays at a real ``x``, tuples at a dual one."""
    fx, gx = f(x), g(x)
    # at a dual x the real parts of these values were checked at a real one
    if not isinstance(x[0], Dual) and not (all(map(math.isfinite, fx))
                                           and all(map(math.isfinite, gx))):
        raise ValueError(f"non-finite field evaluation at {x}")
    return directional_derivative(g, x, fx), directional_derivative(f, x, gx)


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
    """The vanishing rule: ``|[f, g](x)| <= BRACKET_RTOL (|Dg[f]| + |Df[g]|)``."""
    dg_f, df_g = _bracket_terms(f, g, x)
    # hypot neither overflows nor underflows where squares would
    return math.hypot(*(dg_f - df_g)) <= BRACKET_RTOL * (math.hypot(*dg_f)
                                                         + math.hypot(*df_g))


def default_omega_grid(omega_anchor: float) -> tuple[float, ...]:
    """Geometric frequency ladder {w, 2w, 4w, 8w} on which the engine report
    lists each coefficient."""
    if not omega_anchor > 0.0:
        raise ValueError("omega_anchor must be positive")
    return tuple(omega_anchor * 2.0**k for k in range(4))


# ---------------------------------------------------------------------------
# averaged field assembly


class AveragedField:
    """Assembled large-frequency limit field of a control-affine system.

    ``coefficients`` is the system's own table (``system.coefficients``):
    one :class:`Coefficient` per index tuple, keyed by its indices, pairs
    first. Calling the object evaluates

        drift(x) + sum finite gamma_ij * [f_i, f_j](x)
                 + sum finite gamma_ijm * [[f_i, f_j], f_m](x)

    Vanishing coefficients drop their brackets entirely, once, when the
    field is built; a divergent coefficient is an error as soon as its
    bracket fails the vanishing rule (:func:`_vanishes`) at the evaluation
    point. The state reaches the fields as a tuple of floats.
    """

    def __init__(self, system: ControlAffineSystem, omega_grid):
        self.system = system
        self.omega_grid = tuple(float(w) for w in omega_grid)
        if not self.omega_grid or not all(w > 0.0 for w in self.omega_grid):
            raise ValueError(f"omega grid must be non-empty and positive: {omega_grid}")
        self.coefficients: dict[tuple, Coefficient] = system.coefficients
        # (coefficient, f, g) of every bracket that does not drop, in order
        self._live = [(c, *_bracket(system, c.indices))
                      for c in self.coefficients.values() if c.kind != "zero"]

    def __call__(self, x) -> np.ndarray:
        x = tuple(map(float, x))
        out = np.array(self.system.drift(x), dtype=float)
        for c, f, g in self._live:
            if c.kind == "finite":
                out += c.raw * lie_bracket(f, g, x)
            elif not _vanishes(f, g, x):
                raise DivergentAverageError(
                    f"coefficient for channels {c.indices} grows like "
                    f"omega**{c.exponent:.3f} against a non-vanishing "
                    f"bracket at x={x}"
                )
        return out

    def report(self) -> str:
        """Structured key-value text listing every coefficient with its limit
        class, exact exponent, values on the omega grid, and the node count
        and error estimate of its quadrature. Indices are 0-based."""
        lines = [
            "[averaged_field]",
            f"channels = {self.system.n_channels}",
            f"dimension = {self.system.dimension}",
            f"omega_grid = {', '.join(f'{w:g}' for w in self.omega_grid)}",
        ]
        for order, name in _ORDER_NAMES.items():
            lines += ["", f"[{name}_coefficients]"]
            lines += [self._format(c) for c in self.coefficients.values()
                      if len(c.indices) == order]
        return "\n".join(lines) + "\n"

    def _format(self, c: Coefficient) -> str:
        tag = "_".join(str(ix) for ix in c.indices)
        limit = c.limit
        value = "none" if limit is None else f"{limit:.12g}"
        samples = ", ".join(f"{c.at(w):.12g}" for w in self.omega_grid)
        return (
            f"gamma_{tag} = class={c.kind} value={value} "
            f"exponent={c.exponent:.4f} samples=[{samples}] "
            f"nodes={c.nodes} error={c.error:.3e}"
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
        lines = ["[assumption_report]", f"ok = {self.ok}"]
        for c in self.clauses:
            status = "pass" if c.passed else "FAIL"
            trig = "triggered" if c.triggered else "vacuous"
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"{c.name} = {status} [{trig}]{detail}")
        return "\n".join(lines) + "\n"


def check_assumptions(system: ControlAffineSystem, seed: int = 0) -> AssumptionReport:
    """Verify the averaging hypotheses clause by clause.

    Every input is re-checked for boundedness and zero mean. For index
    combinations whose exponents exceed the first- or second-order budget
    (pair sums above 1, triple sums above 2), the matching raw iterated
    integral must vanish within its quadrature error estimate or the
    corresponding bracket must pass the vanishing rule (:func:`_vanishes`)
    on 10 standard-normal sample states. The coefficients are the records
    of ``system.coefficients``, which the engine reads too. Combinations whose
    four-exponent sum reaches 3 fall under the declared
    ``smooth_remainder`` flag and are reported, not computed.
    """
    rng = np.random.default_rng(seed)
    clauses: list[AssumptionClause] = []
    l = system.n_channels

    for idx in range(l):
        inp = system.input(idx)
        bounded, defect = inp.bounded_ok(), inp.zero_mean_defect()
        clauses += [
            AssumptionClause(f"input_{idx}_bounded", True, bounded,
                             "|u| <= 1 on phase grid" if bounded else "|u| exceeds 1"),
            AssumptionClause(f"input_{idx}_zero_mean", True, defect < 1e-10,
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
