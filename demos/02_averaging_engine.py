"""Rederive the averaged dynamics numerically from the oscillatory loops.

Both closed loops are a drift plus oscillatory channels
f_i(x) * omega**p_i * u_i(k_i omega t). For each, ``run_average`` (the study
behind ``sourceseek average``) checks the averaging hypotheses (bounded
zero-mean waveforms, exponent budgets), takes every frequency-free iterated
integral from one FFT table of the waveforms (exact for these band-limited
inputs), classifies each coefficient's limit from its exact exponent
omega**q, assembles drift + sum(coefficient * bracket) with brackets taken
exactly by forward-mode dual numbers, and lands on the closed-form averaged
system at 10 seeded states without ever differentiating by hand.
"""

from sourceseek import DEFAULT_FIELD, DEFAULT_PARAMS, Scheme, run_average

for scheme in Scheme:
    study = run_average(scheme, DEFAULT_PARAMS, DEFAULT_FIELD)
    system = study.engine.system
    print(f"=== {scheme.value} loop ({system.n_channels} channels, "
          f"dimension {system.dimension}) ===")
    print(f"averaging hypotheses: {'satisfied' if study.assumptions.ok else 'VIOLATED'}")
    for clause in study.assumptions.clauses:
        if clause.triggered and "exponent" in clause.name:
            print(f"  {clause.name}: {clause.detail}")
    print(study.engine.report())
    print(f"worst relative defect against the closed form: {study.worst_defect:.2e}\n")
