"""Drive both seekers to a hidden field maximum.

The vehicle is a constant-turn-rate unicycle that can only sample the field
value at its own position. The gradient seeker dithers its forward speed and
converges at a pace set by the (unknown) field curvature; the
curvature-inverting seeker adds a scalar Riccati filter that learns the
inverse curvature on the fly and contracts at a gain-chosen pace instead.

Writes trajectory CSVs next to the chosen output directory and prints the
entry times into a 0.75-radius neighborhood of the source.
"""

import sys
from pathlib import Path

from sourceseek import CompareConfig, DEFAULT_FIELD, DEFAULT_PARAMS, run_compare

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out_demos")

# The turn rate is constant, so the closed loops eliminate the heading
# analytically (theta = omega0 * t) and carry only position and filter states.
print(f"field: peak {DEFAULT_FIELD.f_star} at {DEFAULT_FIELD.source}, "
      f"curvature {DEFAULT_FIELD.hessian}")
print(f"gains: omega {DEFAULT_PARAMS.omega}, dither amplitude "
      f"{DEFAULT_PARAMS.alpha_tilde:.3f}, feedback gain {DEFAULT_PARAMS.c:.3f}")
print()

report = run_compare(CompareConfig(ball_radius=0.75), out_dir=out_dir)
print(report.report())

newton = report.newton
print(f"riccati state settled at {newton.d_window_mean:.2f} "
      f"(inverse curvature is {1.0 / DEFAULT_FIELD.hessian:.0f})")
print(f"final distance to source: curvature-inverting "
      f"{newton.final_distance:.3f}, gradient {report.gradient.final_distance:.3f}")
print()
print("note: the persistent dither keeps the vehicle oscillating around the")
print(f"source with amplitude ~ alpha_tilde/omega = "
      f"{DEFAULT_PARAMS.alpha_tilde / DEFAULT_PARAMS.omega:.3f}; neighborhoods")
print("smaller than that are never settled into, by design of the dither.")
print(f"trajectories written to {out_dir}/")
