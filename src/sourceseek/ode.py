"""Deterministic fixed-step integration with sampled-trajectory output.

The integrator is a classical fourth-order Runge-Kutta scheme with a fixed
step; the final step is shortened so the requested end time is hit exactly.
There is deliberately no adaptive error control: the systems in this package
are forced at known frequencies, so the step is tied to the fastest
oscillation and results are bit-for-bit reproducible.

The step loop runs on Python floats: ``rhs(t, y)`` receives the state as a
tuple of floats, or the symbols of a tape when it is traced, and returns a
sequence of the same length (a tuple, a list or a 1-D array). The states are
small (three or four components), so per-call array construction would cost
more than the arithmetic. There is one loop template (:data:`_STEP_LOOP`),
unrolled over the components, and one RK4 step (:func:`_rk4_step`), whose
float operations, and their order, are those of the array form of RK4, so
trajectories are bit-for-bit those of an array loop. The step replays one
record of ``rhs`` (a :class:`~sourceseek.numdiff.Tape`'s) at each of its
four stages, and :func:`_traced_kernel` renders and compiles it once per
record shape:

* ``rhs`` runs once, on symbols, and the record is its float operations, so
  a step is one straight-line block with no call of ``rhs``; a value the
  stages share (the trigonometry of ``t + h/2``) is computed once, a
  temporary used once is written into its user, and an unused ``+``, ``-``,
  ``*`` or ``math.log`` is dropped (:func:`~sourceseek.numdiff._live`),
  from the rhs's record and then from the step's. So ``rhs`` must be a pure
  function of ``(t, y)``: it never sees a float.
* where the tape refuses ``rhs`` (:class:`~sourceseek.numdiff.Untraceable`:
  it branches on, compares or converts its time or state, calls a ``math``
  or numpy function of them, or builds an array of them), the record is one
  call of it (:func:`_call_record`), which each stage makes on floats,
  checks for length and reads by subscript, ``4 * steps`` calls in all.
  These records differ only in ``rhs``, so one step loop per state length
  serves them all.

Both give the same trajectory, bit for bit, and the same aborts. A caller
that reads some state components only names them (``components``): the step
then computes only their closure with the guarded components
(:func:`_stepped`), and the other components keep their start.
"""

from __future__ import annotations

import functools
import math
import numbers
import string
import textwrap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numdiff import Sym, Tape, Untraceable, _live, _statements

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "IntegrationAborted",
    "integrate",
    "first_entry_time",
]

TWO_PI = 2.0 * math.pi


class IntegrationAborted(RuntimeError):
    """Raised when integration cannot continue.

    Attributes
    ----------
    last_valid_time : float
        Last time at which the state was still acceptable.
    partial : Trajectory
        Samples recorded up to (and including) the last valid state.
    reason : str
        What stopped the run: ``"arithmetic"``, an ArithmeticError in a
        stage (an overflow, a division by zero); ``"nonfinite"``, a new
        state with an infinity or a NaN; ``"guard"``, a new state with a
        guarded component that is not above zero.
    """

    def __init__(self, message: str, last_valid_time: float, partial: "Trajectory",
                 reason: str):
        super().__init__(message)
        self.last_valid_time = last_valid_time
        self.partial = partial
        self.reason = reason


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size policy for :func:`integrate`: the step ``dt`` and the
    ``output_stride``, the number of steps between recorded samples.
    :meth:`for_frequency` sets ``dt`` from the fastest forcing frequency."""

    dt: float
    output_stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        _check_stride(self.output_stride)

    @classmethod
    def for_frequency(
        cls, omega_max: float, samples_per_period: int = 60, output_stride: int = 1
    ) -> "IntegratorConfig":
        """Config whose step takes ``samples_per_period`` steps, at least 40,
        per period of ``omega_max``: use the highest input frequency, which
        for the curvature-inverting scheme is twice the dither frequency
        because of the double-frequency demodulation. ``omega_max`` must be
        finite and positive, and the step it gives a positive float."""
        if not (math.isfinite(omega_max) and omega_max > 0.0):
            raise ValueError(f"omega_max must be finite and > 0, got {omega_max}")
        if not samples_per_period >= 40:
            raise ValueError(f"samples_per_period must be >= 40, got {samples_per_period}")
        dt = TWO_PI / (omega_max * samples_per_period)
        if not 0.0 < dt < math.inf:
            raise ValueError(f"omega_max={omega_max} has no positive finite step at "
                             f"{samples_per_period} samples per period, got dt={dt}")
        return cls(dt=dt, output_stride=output_stride)


def _check_stride(output_stride: int) -> None:
    if not (isinstance(output_stride, numbers.Integral) and output_stride >= 1):
        raise ValueError(f"output_stride must be an integer >= 1, got {output_stride!r}")


@dataclass
class Trajectory:
    """Time-stamped state samples at strictly increasing times, which
    :func:`first_entry_time` and :func:`~sourceseek.experiments.estimate_rate`
    read in order; ``steps`` and ``rhs_calls`` are what :func:`integrate`
    did to make them (0 where it did not). Column ``c`` of ``states`` holds
    the state component ``components[c]``, by default ``c`` itself; a run
    that records some components only holds those (:meth:`columns`)."""

    times: np.ndarray
    states: np.ndarray
    steps: int = 0
    rhs_calls: int = 0
    components: tuple | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states must be (n_samples, dim) matching times")
        # a NaN compares false, so it is refused with an equal or falling time
        if not np.all(self.times[1:] > self.times[:-1]):
            raise ValueError("times must be strictly increasing")
        self.components = tuple(range(self.dim) if self.components is None
                                else self.components)
        if not len(set(self.components)) == len(self.components) == self.dim:
            raise ValueError(f"components {self.components} do not name the "
                             f"{self.dim} columns of states once each")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def columns(self, components) -> list[int]:
        """The columns of ``states`` that hold the state ``components``, in
        their order; ValueError naming those this trajectory does not hold."""
        held = self.components
        missing = [j for j in components if j not in held]
        if missing:
            raise ValueError(f"the trajectory holds state components {held}, "
                             f"not {missing}")
        return [held.index(j) for j in components]

    def to_csv(self, path) -> Path:
        """Write ``t,s<j>,...`` rows, one column per held state component
        ``j``, in full double precision."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = "t," + ",".join(f"s{j}" for j in self.components)
        data = np.column_stack([self.times, self.states])
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
        return path


#: The RK4 step loop, one source for every rhs, filled by
#: :func:`_traced_kernel`: ``$x`` stands for ``x0, x1, ...``, the state's
#: locals, ``$s`` for ``s<j>, ...``, one memoryview per recorded component
#: ``j`` over its column of the state array, and ``$constants`` for ``k0,
#: k1, ...``, the record's constants (a call record's rhs among them), then
#: the step's. The loop runs steps ``1 .. total_steps - 1`` at ``h = dt``,
#: ``i`` being the number of the step it takes; the last step, full or
#: shortened, runs after it at ``h = last`` to the time ``end`` and is always
#: recorded, so no step tests whether it is the last. ``$per_size`` runs
#: once per step size and ``$clock`` once, before the first step. The loop's
#: own locals (``start``, ``end``, ``h``, ``i``, ``n``, ``t``, ``tn``,
#: ``s<j>``) take no name of the tape's values ``t<n>``, ``k<n>`` and
#: ``x<n>``.
_STEP_LOOP = string.Template("""\
def step_loop(y, start, end, dt, last, total_steps, stride, states, aborted, constants):
    [$constants] = constants
    [$x] = y
    [$s] = states
$count
    h = dt
$per_size
$clock
    for i in range(1, total_steps):
$step
$record
    i, h = total_steps, last
$per_size
$last_step
$last_record
""")

#: One RK4 step of number ``i``: ``$tick`` computes the time ``tn`` of its
#: new state, and ``$lines`` leave the new state of the stepped components
#: in their locals. The finite test is one float expression, ``0.0 * x0 *
#: x1 * ... != 0.0``: its running product is a zero until it meets an
#: infinity or a NaN, and NaN from then on, so it never overflows and is
#: true exactly when some component is not finite. It comes before the
#: guard, so a NaN aborts as a non-finite state, not as a guard trip.
#: ``$advance`` hands the step's carried values to the next step. An
#: ArithmeticError of a line aborts the step; any other error, a failed
#: :meth:`~sourceseek.numdiff.Tape.require` of the record among them, leaves
#: the loop as it is. An abort hands ``aborted`` the number of samples
#: written, ``$written``, and a guard trip also the component and its value.
_STEP = string.Template("""\
$tick
try:
$lines
except ArithmeticError as exc:
    raise aborted(i, $written, exc) from exc
if $finite != 0.0:
    raise aborted(i, $written)
$advance
$guard""")


def _rk4_step(stage, t, tn, h, y) -> tuple:
    """The new state after one RK4 step of ``stage(t, y)`` from ``(t, y)``
    to the time ``tn``, the operations of the array form component by
    component: ``y + half * k`` for a stage argument and ``y + sixth * (k1 +
    2 k2 + 2 k3 + k4)`` for the update. Stage 4 runs at ``tn``, the time the
    new state is stamped with and the next step starts at, not at ``t +
    h``, which may round apart from it. The step of :data:`_STEP_LOOP` is
    this function run on the symbols of a tape."""
    half = 0.5 * h
    a = stage(t, y)
    b = stage(t + half, tuple(v + half * k for v, k in zip(y, a)))
    c = stage(t + half, tuple(v + half * k for v, k in zip(y, b)))
    e = stage(tn, tuple(v + h * k for v, k in zip(y, c)))
    sixth = h / 6.0
    return tuple(v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                 for v, k1, k2, k3, k4 in zip(y, a, b, c, e))


def _trace(rhs, dim: int) -> tuple:
    """``rhs`` run once on the symbols of a tape: the shape of its record
    (its :func:`~sourceseek.numdiff._live` lines, output names and the
    number of constants), and its constants. A component that is a number
    is named as a constant, so records that differ only in its value share
    a shape and a kernel.

    The tape folds as it records (:class:`~sourceseek.numdiff.Tape`), so a
    constant that folds (a factor ``±1.0``, an addend ``-0.0``, a
    subtrahend ``0.0``) is no constant of the record: records that differ
    only in a constant share a kernel only where neither value folds."""
    tape = Tape(dim, ("t",), object_arrays=False)
    outputs = []
    for v in _checked(rhs(*tape.inputs, tape.state), dim):
        if not isinstance(v, (Sym, numbers.Real)):
            raise Untraceable(f"the rhs gave a {type(v).__name__}, not a number")
        outputs.append(tape.name(v))
    lines = _live(tape.lines, outputs, tape.constants)
    return (lines, tuple(outputs), len(tape.constants)), tape.constants


def _call_record(rhs, dim: int) -> tuple:
    """The record of one call of ``rhs``, in the shape :func:`_trace`
    returns: ``_checked(rhs(t, (x0, ...)), dim)`` and one ``value[j]`` per
    component. Records of one ``dim`` differ only in their constant
    ``rhs``, so they share one shape and one kernel."""
    tape = Tape(dim, ("t",), object_arrays=False)
    value = tape.record("{}({}({}, (" + "{}, " * dim + f")), {dim})",
                        _checked, rhs, *tape.inputs, *tape.state)
    outputs = tuple([tape.record(f"{{}}[{j}]", value).name for j in range(dim)])
    return (tuple(tape.lines), outputs, len(tape.constants)), tape.constants


@functools.lru_cache(maxsize=64)
def _traced_kernel(shape: tuple, positive: tuple = (), strided: bool = False,
                   recorded: tuple | None = None):
    """The step loop (:data:`_STEP_LOOP`) for an rhs record of this shape
    (:func:`_trace`, :func:`_call_record`), of one state component per
    output, that aborts where a component of ``positive`` is not above zero
    after a step, recording the components of ``recorded`` (None: every
    component) at every step, or at every ``stride``-th where ``strided``.
    Each stage of :func:`_rk4_step` replays the record on its time and
    state, so the step's tape numbers values across stages, and the step
    runs the :func:`~sourceseek.numdiff._live` lines of the new state of
    the components it steps (:func:`_stepped`). Returns the kernel, which
    keeps its source as ``source``, and the constants the step recorded
    after the record's own. The source depends on the arguments alone."""
    lines, outputs, n_constants = shape
    dim = len(outputs)
    step = Tape(dim, inputs=("t", "tn", "h"), object_arrays=False)
    constants = {k.name: k for k in step.reserve(n_constants)}
    stages = []

    def stage(t, y):
        syms = {"t": t, **constants, **{f"x{i}": v for i, v in enumerate(y)}}
        for name, template, operands in lines:
            syms[name] = step.record(template, *[syms[o] for o in operands])
        stages.append(syms)
        return tuple(syms[o] for o in outputs)

    new = _rk4_step(stage, *step.inputs, step.state)
    recorded = tuple(range(dim)) if recorded is None else recorded
    live, stepped = _stepped(step, new, {*recorded, *positive})
    # a line that reads only h and constants (0.5 * h, h / 6.0) runs once
    # per step size, before the loop and before the last step
    per_size, per_step, sized = [], [], {"h"}
    for line in live:
        name, template, operands = line
        if all(o in sized or o[0] == "k" for o in operands):
            sized.add(name)
            per_size.append(f"{name} = {template.format(*operands)}")
        else:
            per_step.append(line)
    # only a step that reads its time carries ``t``, the time it starts at,
    # and computes ``tn``, which ``t`` takes after the step
    timed = any("t" in operands for _, _, operands in per_step)
    # the record's lines that read only the time and constants, in the
    # record's order; a step takes their stage-1 values from the stage 4 of
    # the step before it (:func:`_carried`)
    clock = ["t"]
    for name, _, operands in lines:
        if any(o in clock for o in operands) and all(o in clock or o[0] == "k"
                                                     for o in operands):
            clock.append(name)
    first, fourth = stages[0], stages[-1]
    rest, carry = _carried(per_step, {first[n].name: fourth[n].name for n in clock[1:]})
    start = ["t = start"] * timed
    if len(rest) < len(per_step):
        # the first step's stage-1 lines that can raise or that its carried
        # values read run before the loop, in the rhs's order, and abort that
        # step where one raises. A name given twice as an output of
        # _statements is assigned, not written into its user: so is each
        # carried value, here and in the step
        opening = {first[name].name for name, _, _ in lines}
        head = _live([line for line in per_step if line[0] in opening], carry, step.constants)
        head, _ = _statements(head, [*carry, *carry])
        start += ["try:", *("    " + line for line in head),
                  "except ArithmeticError as exc:", "    raise aborted(1, 1, exc) from exc"]
    x = [f"x{j}" for j in stepped]
    body, values = _statements(rest, [*(step.name(new[j]) for j in stepped),
                                      *carry.values(), *carry.values()])
    update = [*body, f"{', '.join(x)}, = {', '.join(values[:len(x)])},"]
    written = "n" if strided else "i"  # the number of samples stored before step i
    guard = [line for j in positive for line in (
        f"if not x{j} > 0.0:", f"    raise aborted(i, {written}, tripped=({j}, x{j}))")]

    def block(tn, advance):
        return _STEP.substitute(
            tick=f"tn = {tn}" * timed,
            lines=textwrap.indent("\n".join(update), " " * 4), advance="\n".join(advance),
            guard="\n".join(guard), written=written, finite=" * ".join(["0.0", *x]))

    # a run that records every step stores sample i at step i; a strided
    # one stores every stride-th step at its sample counter n, the initial
    # state being sample 0
    store = [f"s{j}[{written}] = x{j}" for j in recorded]
    record = ["if i % stride == 0:", *("    " + line for line in store),
              "    n += 1"] if strided else store
    advance = [f"{name} = {value}" for name, value in carry.items()] + ["t = tn"] * timed
    source = _STEP_LOOP.substitute(
        constants=", ".join(f"k{i}" for i in range(len(step.constants))),
        x=", ".join(v.name for v in step.state),
        s=", ".join(f"s{j}" for j in recorded),
        count="    n = 1" * strided,
        per_size=textwrap.indent("\n".join(per_size), " " * 4),
        clock=textwrap.indent("\n".join(start), " " * 4),
        step=textwrap.indent(block("start + i * dt", advance), " " * 8),
        record=textwrap.indent("\n".join(record), " " * 8),
        last_step=textwrap.indent(block("end", []), " " * 4),
        last_record=textwrap.indent("\n".join(store), " " * 4),
    )
    source = "".join(line + "\n" for line in source.splitlines() if line.strip())
    namespace: dict = {}
    exec(compile(source, "<RK4 step loop>", "exec"), namespace)
    kernel = namespace["step_loop"]
    kernel.source = source
    return kernel, tuple(step.constants[n_constants:])


def _stepped(step: Tape, new, wanted) -> tuple[tuple, list[int]]:
    """The :func:`~sourceseek.numdiff._live` lines of ``step``, a tape of
    :func:`_rk4_step` whose new state is ``new``, that give the new state
    of the components it steps, and those components, in order: the
    closure of ``wanted``, the least set of components holding ``wanted``
    and every component that the live lines of their new state read. These
    include the lines that ``_live`` keeps whatever reads them (a call, a
    ``/``), so a component that such a line reads is stepped. A component
    outside the closure never changes a stepped one, so dropping its lines
    changes no value and no error of the others."""
    stepped = set(wanted)
    while True:
        lines = _live(step.lines, [new[j].name for j in sorted(stepped)], step.constants)
        read = {int(o[1:]) for _, _, operands in lines for o in operands if o[0] == "x"}
        if read <= stepped:
            return lines, sorted(stepped)
        stepped |= read


def _guarded(guard, dim: int) -> tuple:
    """``guard``, a tuple or list of distinct ints in ``range(dim)``, as a
    tuple; None is no guard."""
    positive = () if guard is None else guard
    if not (isinstance(positive, (tuple, list)) and len(set(positive)) == len(positive)
            and all(type(j) is int and 0 <= j < dim for j in positive)):
        raise ValueError(f"guard must be distinct indices of the {dim} state "
                         f"components, got {guard!r}")
    return tuple(positive)


def _recorded(components, dim: int) -> tuple:
    """``components``, a non-empty tuple or list of increasing ints in
    ``range(dim)``, as a tuple; None is every component."""
    if components is None:
        return tuple(range(dim))
    if not (isinstance(components, (tuple, list)) and components
            and all(type(j) is int and 0 <= j < dim for j in components)
            and all(a < b for a, b in zip(components, components[1:]))):
        raise ValueError(f"components must be increasing indices of the {dim} state "
                         f"components, got {components!r}")
    return tuple(components)


def _checked(value, dim: int):
    """``value``, an rhs's, once it has ``dim`` components."""
    if len(value) != dim:
        raise ValueError(f"rhs returned {len(value)} components for a state of length {dim}")
    return value


def _carried(lines, pairs) -> tuple[list, dict]:
    """The step's ``lines`` but the stage-1 lines it takes from the step
    before it, and the values of those that the other lines read, ``{stage-1
    name: stage-4 name}``. ``pairs`` holds, per line of the rhs's record
    that reads only the time and constants, its values at stage 1 and at
    stage 4; a step takes a pair whose values are both ``lines`` of it.
    Stage 4 runs at ``tn``, the time the next step starts at, so its values
    are the next step's stage-1 values, bit for bit: equal floats give equal
    values. No error is lost: a stage-1 line that raises at a step's start
    raised at the stage 4 of the step before it, and the first step runs
    these lines before the loop, with its other stage-1 lines that can raise
    (:data:`_STEP_LOOP`)."""
    at = {name for name, _, _ in lines}
    pairs = {a: b for a, b in pairs.items() if a in at and b in at}
    rest = [line for line in lines if line[0] not in pairs]
    read = {o for _, _, operands in rest for o in operands}
    return rest, {a: b for a, b in pairs.items() if a in read}


def integrate(rhs, x0, t0: float, t1: float, config: IntegratorConfig,
              guard=None, components=None) -> Trajectory:
    """Integrate ``dx/dt = rhs(t, x)`` from ``t0`` to ``t1`` with fixed-step RK4.

    Parameters
    ----------
    rhs : callable
        ``rhs(t, x) -> dx`` with ``x`` a tuple of floats and ``dx`` a
        sequence of the same length. It must be a pure function of
        ``(t, x)``: it is first run once on symbols (see the module
        docstring), and where that is refused it is called ``4 * steps``
        times on floats, the first call being the first step's first stage.
        The length of its value is checked on that run and at every call,
        with a ValueError naming both lengths.
    config : IntegratorConfig
        The step ``dt`` and the ``output_stride``.
    guard : tuple or list of int, optional
        The indices of the state components that must stay above zero; a
        step that leaves one of them at or below zero aborts, naming the
        component and its new value. None or ``()`` is no guard.
    components : tuple or list of int, optional
        The increasing indices of the state components the caller reads;
        None is every component. Only these are recorded, and only their
        closure with the guarded components is stepped (see the module
        docstring): the least set of components holding them and every
        component the step's lines for their new state read, a call's or a
        ``/``'s operands among them. So a called rhs steps every component.
        The recorded columns, the times and the steps are those of the full
        run, bit for bit, and so is an abort on a stepped component. A
        component outside the closure keeps its start and cannot abort the
        run: where the full run aborts on it alone, this run completes.

    Returns
    -------
    Trajectory
        States recorded every ``config.output_stride`` steps; the initial and
        final states are always included, so at stride 1 sample ``i`` is the
        state after step ``i``. The step loop stores each recorded component
        through a memoryview of its column of the C-ordered ``(n_samples,
        len(components))`` array, at the step's number at stride 1, else at
        a sample counter; ``components`` names the column's component.
        ``steps`` counts the steps and ``rhs_calls`` the runs of ``rhs``: 1
        where it was traced.

    Raises
    ------
    IntegrationAborted
        On a non-finite state (an overflow or a division by zero in a stage
        among them, whose error the message names) or a guard violation;
        carries the last valid time, the partial trajectory and the
        reason.
    ValueError
        On a non-finite ``t0`` or ``t1``, ``t1 <= t0``, sample times that
        do not strictly increase (a ``dt`` below their float spacing), a
        non-finite initial state or one that violates the guard, a
        ``guard`` that is not distinct component indices (a callable among
        them), ``components`` that are not a non-empty increasing tuple or
        list of component indices, or an ``rhs`` whose output length differs
        from the state length. All but the last are raised before ``rhs``
        runs.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got [{t0}, {t1}]")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    dt = config.dt
    span = t1 - t0
    n_full = int(math.floor(span / dt * (1.0 + 1e-12)))
    remainder = span - n_full * dt
    # a span too short for one full step is still one (shortened) step; a
    # longer span ends in one only where the last full step's stamp falls
    # short of t1, which ``span``, rounded far from zero, may overstate
    has_tail = n_full == 0 or (remainder > 1e-12 * max(span, dt)
                               and t0 + n_full * dt < t1)
    total_steps = n_full + (1 if has_tail else 0)
    stride = config.output_stride

    y = tuple(np.array(x0, dtype=float).ravel().tolist())
    dim = len(y)
    if not all(map(math.isfinite, y)):
        raise ValueError(f"initial state is not finite: {y}")
    positive = _guarded(guard, dim)
    recorded = _recorded(components, dim)
    for j in positive:
        if not y[j] > 0.0:
            raise ValueError(f"initial state violates the guard at t={t0}: "
                             f"component {j} is {y[j]}, not > 0")

    # interior samples every ``stride`` steps, plus the initial and final states
    n_samples = 1 + (total_steps - 1) // stride + 1
    # ``t0``, then ``t0 + i * dt`` at every ``stride``-th step ``i``, by the
    # float operations of the scalar expression, one ufunc each, then ``t1``
    times = t0 + np.arange(0, n_samples * stride, stride) * dt
    times[0] = t0  # t0 + 0.0 is not t0 at t0 = -0.0
    times[-1] = t1
    if not (times[1:] > times[:-1]).all():
        raise ValueError(f"dt={dt} is below the float spacing of the sample times "
                         f"t0 + i * dt on [t0={t0}, t1={t1}]: they do not strictly "
                         f"increase")
    states = np.empty((n_samples, len(recorded)))
    states[0] = [y[j] for j in recorded]
    last = remainder if has_tail else dt

    def aborted(i: int, n: int, exc=None, tripped=None) -> IntegrationAborted:
        """The abort of step ``i`` once ``n`` samples of ``states`` are
        written: by ``exc``, an ArithmeticError of a stage, by the guard
        where ``tripped`` is the component's index and new value, else by a
        non-finite state."""
        when = t1 if i == total_steps else t0 + i * dt
        valid = t0 if i == 1 else t0 + (i - 1) * dt
        if tripped is not None:
            j, value = tripped
            what = f"state guard violated at t={when}: component {j} = {value!r}, not > 0"
            reason = "guard"
        else:
            what = f"non-finite state at t={when}" + ("" if exc is None else f" ({exc!r})")
            reason = "nonfinite" if exc is None else "arithmetic"
        partial = Trajectory(times[:n].copy(), states[:n].copy(), components=recorded)
        return IntegrationAborted(f"{what}; last valid time t={valid}", valid, partial,
                                  reason)

    try:
        shape, supplied = _trace(rhs, dim)
        rhs_calls = 1
    # an rhs whose arithmetic fails on its constants alone fails at every
    # state, and its first call in the step loop aborts the first step
    except (Untraceable, ArithmeticError):
        shape, supplied = _call_record(rhs, dim)
        rhs_calls = 4 * total_steps
    kernel, constants = _traced_kernel(shape, positive, stride > 1, recorded)
    kernel(y, t0, t1, dt, last, total_steps, stride, tuple(map(memoryview, states.T)),
           aborted, (*supplied, *constants))
    return Trajectory(times, states, steps=total_steps, rhs_calls=rhs_calls,
                      components=recorded)


def first_entry_time(traj: Trajectory, center, radius: float, components) -> float | None:
    """Earliest recorded time after which the selected state components stay
    inside the ball of ``radius`` around ``center`` through the end of the
    trajectory, read from their columns (:meth:`Trajectory.columns`).

    Returns None when the trajectory never settles into the ball; raises
    ValueError naming any of ``components`` that the trajectory does not
    hold.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    comps = list(components)
    if len(comps) == 0:
        raise ValueError("components must be a non-empty index set")
    center = np.asarray(center, dtype=float)
    if center.shape != (len(comps),):
        raise ValueError(
            f"center shape {center.shape} does not match {len(comps)} components"
        )
    sel = traj.states[:, traj.columns(comps)]
    inside = np.linalg.norm(sel - center, axis=1) <= radius
    if inside.all():
        return float(traj.times[0])
    last_outside = int(np.where(~inside)[0][-1])
    if last_outside == len(inside) - 1:
        return None
    return float(traj.times[last_outside + 1])
