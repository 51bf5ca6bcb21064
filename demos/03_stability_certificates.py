"""Why the curvature-inverting seeker earns its name.

Linearizing both averaged loops around their equilibria shows the gradient
loop's contraction rate dragging the unknown curvature along (-alpha*H/4),
while the inverting loop's position block is literally curvature-free
(-alpha/4). An explicit Lyapunov function then certifies global asymptotic
stability of the inverting loop's position/filter cascade, and an
input-to-state bound covers the remaining measurement-offset coordinate.
All of it comes from ``run_certify``, the study behind ``sourceseek certify``.
"""

from dataclasses import replace

from sourceseek import DEFAULT_FIELD, DEFAULT_PARAMS, run_certify


def _position_rate(lin):
    """Real part of the oscillatory position pair."""
    return max(v.real for v in lin.eigenvalues if abs(v.imag) > 1e-9)


print("decay rate of the position spiral across curvatures:")
for hessian in (0.01, 0.1, 1.0):
    lins = run_certify(DEFAULT_PARAMS,
                       replace(DEFAULT_FIELD, hessian=hessian)).linearizations
    print(f"  H = {hessian:>5}: "
          f"gradient {_position_rate(lins['averaged_gradient']):+.4f}   "
          f"curvature-inverting {_position_rate(lins['averaged_newton']):+.4f}")
print()

print(run_certify(DEFAULT_PARAMS, DEFAULT_FIELD).report(), end="")
