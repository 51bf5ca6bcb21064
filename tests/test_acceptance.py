"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criterion 3 reads its balls from what the method promises. Convergence is
semiglobal and practical: at a fixed dither frequency the vehicle reaches a
neighbourhood of the source, and the neighbourhood shrinks only as omega
grows. The forward-speed dither alpha_tilde * cos(omega t) swings the position
along the heading with amplitude alpha_tilde / omega = alpha * omega**(p - 1)
~ 0.696 at the reference gains, so the raw position is checked against a 0.75
ball, which the test asserts lies outside that envelope. The 0.5 ball is kept
where the method promises it: on the moving mean of the position over one
dither period, which averages the swing away.
"""

import math
import time

import numpy as np

from sourceseek import (
    CompareConfig,
    DEFAULT_FIELD,
    DEFAULT_PARAMS,
    DEFAULT_X0,
    AveragedForm,
    HessianSweepConfig,
    IntegratorConfig,
    OmegaSweepConfig,
    Scheme,
    Trajectory,
    averaged_closed_loop,
    build_averaged_field,
    build_certificate,
    default_omega_grid,
    first_entry_time,
    gamma_pair,
    gamma_triple,
    gradient_affine_system,
    integrate,
    iss_bound_check,
    linearize,
    newton_affine_system,
    run_compare,
    run_hessian_invariance,
    run_omega_sweep,
    run_simulate,
    vdot_margin,
)

P_EXP = 0.61
RAW_BALL = 0.75  # raw position: just outside the dither envelope ~0.696
MEAN_BALL = 0.5  # one-period moving mean of the position


def _period_mean(traj: Trajectory, period: float) -> Trajectory:
    """Moving mean of the recorded states over one period, stamped at the last
    sample of each window. A shortened final sample is left out so that every
    window spans exactly one period."""
    spacing = traj.times[1] - traj.times[0]
    n = round(period / spacing)
    assert abs(n * spacing - period) <= 1e-9 * period, (
        f"period {period} is not a whole number of {spacing} sample gaps"
    )
    count = len(traj.times)
    if traj.times[-1] - traj.times[-2] < spacing * (1.0 - 1e-9):
        count -= 1
    windows = np.lib.stride_tricks.sliding_window_view(traj.states[:count], n, axis=0)
    return Trajectory(traj.times[n - 1:count], windows.mean(axis=-1))


def _verdict(number: int, ok: bool, detail: str, elapsed: float | None = None) -> bool:
    stamp = "" if elapsed is None else f" [{elapsed:.1f}s]"
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}{stamp}: {detail}")
    return ok


def test_criterion_1_coefficient_oracle(ref_params, ref_field):
    """Twelve iterated-integral coefficients reproduced by quadrature."""
    start = time.perf_counter()
    system = newton_affine_system(ref_params, ref_field)

    ok = True
    details = []
    value = gamma_pair(0, 1, system, 15.0)
    ok &= abs(value - (-0.5)) < 1e-6
    details.append(f"pair(0,1)={value:.9f}")
    value = gamma_triple(1, 2, 1, system, 15.0)
    ok &= abs(value - 0.125) < 1e-6
    details.append(f"triple(1,2,1)={value:.9f}")

    for omega in (10.0, 15.0, 40.0):
        value = gamma_triple(0, 1, 0, system, omega)
        expected = 1.0 / (2.0 * omega**P_EXP)
        ok &= abs(value - expected) < 1e-6 * abs(expected)
        value = gamma_triple(0, 2, 0, system, omega)
        expected = -1.0 / (8.0 * omega ** (4.0 * P_EXP - 2.0))
        ok &= abs(value - expected) < 1e-6 * abs(expected)
    details.append("scaling laws at omega 10/15/40")

    zero_pairs = [(0, 2), (1, 2)]
    zero_triples = [(0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 2, 0), (1, 2, 2)]
    worst = max(
        [abs(gamma_pair(i, j, system, 15.0)) for i, j in zero_pairs]
        + [abs(gamma_triple(i, j, m, system, 15.0)) for i, j, m in zero_triples]
    )
    ok &= worst < 1e-8
    details.append(f"eight vanishing cases < {worst:.1e}")

    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert _verdict(1, ok, "coefficient oracle: " + "; ".join(details), elapsed)


def test_criterion_2_engine_matches_closed_forms(ref_params, ref_field):
    """Generic averaging engine reproduces both closed-form averaged loops."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    grid = default_omega_grid(ref_params.omega)

    engine_g = build_averaged_field(gradient_affine_system(ref_params, ref_field), grid)
    closed_g = averaged_closed_loop(AveragedForm.GRADIENT, ref_params, ref_field)
    worst_g = 0.0
    for _ in range(50):
        state = np.array([*rng.uniform(-5, 5, 2), rng.uniform(-2, 8)])
        reference = closed_g(0.0, state)
        defect = np.linalg.norm(engine_g(state) - reference)
        worst_g = max(worst_g, defect / max(1.0, float(np.linalg.norm(reference))))

    engine_n = build_averaged_field(newton_affine_system(ref_params, ref_field), grid)
    closed_n = averaged_closed_loop(AveragedForm.NEWTON, ref_params, ref_field)
    worst_n = 0.0
    for _ in range(50):
        state = np.array(
            [*rng.uniform(-5, 5, 2), rng.uniform(0.1, 200.0), rng.uniform(-2, 8)]
        )
        reference = closed_n(0.0, state)
        defect = np.linalg.norm(engine_n(state) - reference)
        worst_n = max(worst_n, defect / max(1.0, float(np.linalg.norm(reference))))

    elapsed = time.perf_counter() - start
    ok = worst_g <= 1e-4 and worst_n <= 1e-4 and elapsed < 120.0
    assert _verdict(
        2,
        ok,
        f"engine vs closed forms at 50 states each: gradient defect "
        f"{worst_g:.2e}, curvature-inverting defect {worst_n:.2e}",
        elapsed,
    )


def test_criterion_3_reference_run():
    """Reference closed-loop run: Riccati settling, ball entry, ordering.

    3a: the Riccati state's trailing-window mean is within 10% of 1/H = 100.
    3b: the raw position enters and stays in the 0.75 ball, which must exceed
    the dither envelope alpha_tilde / omega (~0.696) that no faithful
    integration can get inside; and the one-period moving mean of the
    position, where the swing averages out, enters and stays in the 0.5 ball.
    3c: the curvature-inverting loop enters the 0.75 ball before the gradient
    loop. One integration of each loop serves all three.
    """
    start = time.perf_counter()
    envelope = DEFAULT_PARAMS.alpha_tilde / DEFAULT_PARAMS.omega
    assert RAW_BALL > envelope, (
        f"raw-position ball {RAW_BALL} no longer exceeds the dither envelope "
        f"alpha_tilde/omega = {envelope:.4f}: the reference gains changed"
    )
    compare = run_compare(CompareConfig(
        field=DEFAULT_FIELD, params=DEFAULT_PARAMS, x0=DEFAULT_X0, t_end=50.0,
        ball_radius=RAW_BALL,
    ))
    newton = compare.newton
    assert newton.scenario.d_tolerance == 0.1

    d_ok = newton.checks["d_window_mean"]
    print(
        f"  criterion 3a (riccati mean {newton.d_window_mean:.2f} within 10% "
        f"of 100): {'PASS' if d_ok else 'FAIL'}"
    )

    fmt = lambda t: "none" if t is None else f"{t:.2f}"
    raw_ok = newton.checks["ball_entry"]
    print(
        f"  criterion 3b (raw position enters and stays in {RAW_BALL} ball, "
        f"envelope {envelope:.3f}, entry={fmt(newton.entry_time)}): "
        f"{'PASS' if raw_ok else 'FAIL'}"
    )
    comps, center = newton.scenario.position_ball()
    mean = _period_mean(newton.trajectory, 2.0 * math.pi / DEFAULT_PARAMS.omega)
    mean_entry = first_entry_time(mean, center, MEAN_BALL, comps)
    mean_ok = mean_entry is not None
    print(
        f"  criterion 3b (one-period mean position enters and stays in "
        f"{MEAN_BALL} ball, entry={fmt(mean_entry)}): {'PASS' if mean_ok else 'FAIL'}"
    )

    order_ok = compare.ordering_ok
    print(
        f"  criterion 3c (curvature-inverting enters {RAW_BALL} ball before "
        f"gradient, {fmt(newton.entry_time)} vs "
        f"{fmt(compare.gradient.entry_time)}): {'PASS' if order_ok else 'FAIL'}"
    )
    elapsed = time.perf_counter() - start
    ok = d_ok and raw_ok and mean_ok and order_ok and elapsed < 60.0
    assert _verdict(
        3, ok,
        f"reference run: riccati window mean, {RAW_BALL}-ball raw entry, "
        f"{MEAN_BALL}-ball one-period-mean entry, scheme ordering at {RAW_BALL}",
        elapsed,
    )


def test_criterion_4_curvature_invariance():
    """Averaged decay rates: curvature-free for the inverting scheme,
    proportional to curvature for the gradient scheme."""
    start = time.perf_counter()
    report = run_hessian_invariance(HessianSweepConfig(hessians=(0.01, 0.1, 1.0)))
    rates_n = [row.newton.rate for row in report.rows]
    spread = max(rates_n) / min(rates_n) - 1.0
    ratios = [row.gradient.rate / row.hessian for row in report.rows]
    wobble = max(ratios) / min(ratios) - 1.0
    ok = report.newton_invariant() and report.gradient_proportional()
    elapsed = time.perf_counter() - start
    assert _verdict(
        4, ok,
        f"decay rates across H in {{0.01, 0.1, 1}}: inverting spread "
        f"{spread:.1%} (<=10%), gradient proportionality wobble "
        f"{wobble:.1%} (<=15%)",
        elapsed,
    )


def test_criterion_5_certificate():
    """Explicit certificate: matrix identity, derivative bound, offset bound."""
    start = time.perf_counter()
    cert = build_certificate(
        DEFAULT_PARAMS.alpha, DEFAULT_PARAMS.omega0, DEFAULT_PARAMS.omega_d,
        DEFAULT_FIELD.hessian,
    )
    p_ok = bool(
        np.allclose(cert.P, [[1.5, 0.5], [0.5, 1.0]], atol=1e-12)
        and cert.lyapunov_residual < 1e-10
    )

    axis = np.linspace(-5.0, 5.0, 40)
    z1, z2, dh = np.meshgrid(axis, axis, np.linspace(-2.0, 2.0, 21), indexing="ij")
    z = np.stack([z1, z2], axis=-1)
    vdot_max = float(vdot_margin(z, dh, cert).max())

    rng = np.random.default_rng(7)
    iss_min = float(
        iss_bound_check(
            rng.uniform(-3.0, 3.0, 1000),
            rng.uniform(-5.0, 5.0, (1000, 2)),
            rng.uniform(-2.0, 2.0, 1000),
            DEFAULT_FIELD.hessian,
            DEFAULT_PARAMS.h_gain,
            cert,
        ).min()
    )
    elapsed = time.perf_counter() - start
    ok = p_ok and vdot_max <= 1e-9 and iss_min >= -1e-9 and elapsed < 30.0
    assert _verdict(
        5, ok,
        f"certificate: residual {cert.lyapunov_residual:.1e}, grid derivative "
        f"margin max {vdot_max:.2e}, offset margin min {iss_min:.2e}",
        elapsed,
    )


def test_criterion_6_practical_stability_sweep():
    """Full-vs-averaged deviation and residual ball shrink with frequency."""
    start = time.perf_counter()
    report = run_omega_sweep(OmegaSweepConfig(omegas=(20.0, 40.0, 80.0), t_end=30.0))
    ok = all(row.error is None for row in report.rows)
    details = []
    for scheme in (Scheme.GRADIENT, Scheme.NEWTON):
        dev_ok = report.deviation_ok(scheme)
        ball_ok = report.ball_ok(scheme)
        ok &= dev_ok and ball_ok
        devs = report.column(scheme, "deviation")
        balls = report.column(scheme, "ball_radius")
        details.append(
            f"{scheme.value}: dev {'/'.join(f'{v:.2f}' for v in devs)} "
            f"ball {'/'.join(f'{v:.2f}' for v in balls)}"
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    assert _verdict(
        6, ok, "frequency sweep non-increasing within 20%: " + "; ".join(details),
        elapsed,
    )


def test_criterion_7_numerical_hygiene(ref_params, ref_field):
    """Integrator order and eigenvalue reconstruction residuals."""
    start = time.perf_counter()

    def final_error(dt):
        traj = integrate(
            lambda t, y: (-y[0],), [1.0], 0.0, 1.0, IntegratorConfig(dt=dt)
        )
        return abs(traj.states[-1, 0] - math.exp(-1.0))

    factor = final_error(0.02) / final_error(0.01)
    order_ok = 12.0 <= factor <= 20.0

    worst_residual = 0.0
    for form, equilibrium in (
        (AveragedForm.GRADIENT, np.array([0.0, 0.0, ref_field.f_star])),
        (AveragedForm.NEWTON,
         np.array([0.0, 0.0, 1.0 / ref_field.hessian, ref_field.f_star])),
    ):
        rhs = averaged_closed_loop(form, ref_params, ref_field)
        lin = linearize(lambda s: rhs(0.0, s), equilibrium)
        worst_residual = max(worst_residual, lin.trace_residual, lin.det_residual)
    rng = np.random.default_rng(3)
    a_mat = rng.normal(size=(5, 5))
    lin = linearize(lambda x: a_mat @ x, np.zeros(5))
    worst_residual = max(worst_residual, lin.trace_residual, lin.det_residual)
    eig_ok = worst_residual < 1e-8

    elapsed = time.perf_counter() - start
    ok = order_ok and eig_ok
    assert _verdict(
        7, ok,
        f"step-halving error factor {factor:.1f} in [12, 20]; eigenvalue "
        f"trace/determinant residual max {worst_residual:.1e} < 1e-8",
        elapsed,
    )
