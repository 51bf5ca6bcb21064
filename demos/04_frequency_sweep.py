"""How closely do the full oscillatory loops shadow their averaged limits?

For each dither frequency, the rotating-frame loop and its averaged limit
start from the same state and are sampled on the same grid. Two numbers
summarize the match: the sup-norm deviation between the two trajectories,
and the radius of the ball that eventually contains the full trajectory
(the residual set carved out by the persistent dither). Both shrink as the
frequency grows, which is the practical-stability picture in table form.
"""

from sourceseek import OmegaSweepConfig, run_omega_sweep

report = run_omega_sweep(OmegaSweepConfig(omegas=(20.0, 40.0, 80.0), t_end=30.0))
print(report.report())

print("reading the table: deviation is sup |full - averaged| over all state")
print("components on [0, 30]; residual_ball is max |position| over the")
print("trailing half of the run. The averaged loop reads no dither frequency,")
print("so each scheme's averaged trajectory is integrated once and serves")
print("every row.")
