"""Rederive the averaged dynamics numerically from the oscillatory loops.

Both closed loops are written as a drift plus oscillatory channels
f_i(x) * omega**p_i * u_i(k_i omega t). The averaging engine then:

1. checks the hypotheses (bounded zero-mean waveforms, exponent budgets),
2. computes each coefficient's frequency-free iterated integral once by
   quadrature and classifies its large-frequency limit from the exact
   exponent omega**q,
3. assembles drift + sum(coefficient * bracket) numerically, with brackets
   taken as central differences along the field directions,

and the result lands on the closed-form averaged systems without ever
differentiating by hand.
"""

import numpy as np

from sourceseek import (
    AveragedForm,
    DEFAULT_FIELD,
    DEFAULT_PARAMS,
    averaged_closed_loop,
    build_averaged_field,
    check_assumptions,
    default_omega_grid,
    gradient_affine_system,
    newton_affine_system,
)

grid = default_omega_grid(DEFAULT_PARAMS.omega)
print(f"frequencies the report lists each coefficient at: {grid}")
print()

for name, system, form in (
    ("gradient", gradient_affine_system(DEFAULT_PARAMS, DEFAULT_FIELD),
     AveragedForm.GRADIENT),
    ("curvature-inverting", newton_affine_system(DEFAULT_PARAMS, DEFAULT_FIELD),
     AveragedForm.NEWTON),
):
    print(f"=== {name} loop ({system.n_channels} channels, "
          f"dimension {system.dimension}) ===")
    report = check_assumptions(system)
    print(f"averaging hypotheses: {'satisfied' if report.ok else 'VIOLATED'}")
    for clause in report.clauses:
        if clause.triggered and "exponent" in clause.name:
            print(f"  {clause.name}: {clause.detail}")

    engine = build_averaged_field(system, grid)
    print(engine.report())

    closed = averaged_closed_loop(form, DEFAULT_PARAMS, DEFAULT_FIELD)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(25):
        state = rng.uniform(-4.0, 4.0, size=system.dimension)
        if system.dimension == 4:
            state[2] = rng.uniform(0.5, 150.0)  # riccati state stays positive
        reference = closed(0.0, state)
        defect = np.linalg.norm(engine(state) - reference)
        worst = max(worst, defect / max(1.0, float(np.linalg.norm(reference))))
    print(f"worst relative defect against the closed form at 25 states: "
          f"{worst:.2e}")
    print()
