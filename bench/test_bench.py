"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import pytest  # noqa: E402

import benchstats  # noqa: E402
import compare  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from sourceseek import averaging, experiments, stability  # noqa: E402


# -- tail percentile ---------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert benchstats.tail(values) == (90, 90.0)
    value, pct = benchstats.tail(range(11))
    assert value == 0 and pct == pytest.approx(100.0 / 11.0)
    assert sum(v > value for v in range(11)) == 10


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert benchstats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert benchstats.tail(range(10)) == (9, 100.0)
    with pytest.raises(ValueError):
        benchstats.tail([])


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert list(tracing.self_times(start, end, parent)) == [6.0, 2.0, 1.0, 1.0]


def test_wrapped_calls_nest_under_the_open_span():
    tr = tracing.Tracer()
    leaf = tr.wrap("leaf", lambda x: x + 1)
    mid = tr.wrap("mid", lambda x: leaf(leaf(x)))
    assert tr.run_task(7, mid, 1) == 3
    data = tr.arrays()
    names = [tr.names[i] for i in data["name"]]
    assert names == ["task", "mid", "leaf", "leaf"]
    assert list(data["parent"]) == [-1, 0, 1, 1]
    assert list(data["task"]) == [7, 7, 7, 7]
    own = tracing.self_times(data["start"], data["end"], data["parent"])
    assert (own >= 0).all()
    assert own.sum() == pytest.approx(data["end"][0] - data["start"][0])


def test_installed_restores_every_name():
    before = (experiments.integrate, averaging.lie_bracket,
              averaging.AveragedField.__call__, stability.central_jacobian)
    with tracing.installed(tracing.Tracer()):
        assert experiments.integrate is not before[0]
        assert averaging.lie_bracket is not before[1]
    after = (experiments.integrate, averaging.lie_bracket,
             averaging.AveragedField.__call__, stability.central_jacobian)
    assert after == before


def test_traced_counts_repeat_and_outputs_match():
    spec = workloads.take_rounds("verify", 3, 1)[0]
    plain, _ = workloads.run_task("verify", spec)
    runs = []
    for _ in range(2):
        tr = tracing.Tracer()
        with tracing.installed(tr):
            summary, _ = tr.run_task(0, workloads.run_task, "verify", spec)
        assert summary == plain
        runs.append(tracing.layer_metrics(tr))
    counts = [n for n, unit in tracing.LAYER_METRICS if unit == "count"]
    assert {n: runs[0][n] for n in counts} == {n: runs[1][n] for n in counts}
    assert runs[0]["averaging.eval_calls"] == 2 * workloads.ENGINE_STATES
    assert runs[0]["seekers.rhs_calls"] == 0 and runs[0]["ode.steps"] == 0
    assert runs[0]["numdiff.jacobians"] > 0 and runs[0]["averaging.field_evals"] > 0


# -- speed scale -------------------------------------------------------------


def test_scale_uses_the_kernel_times_around_each_task(monkeypatch):
    times = iter([0.010, 0.020, 0.005])
    monkeypatch.setattr(speed, "kernel_s", lambda: next(times))
    scale = speed.Scale()
    for _ in range(3):
        scale.mark()
    ref = speed.REFERENCE_S
    assert scale.scaled([3.0, 1.0]) == pytest.approx([3.0 * ref / 0.015, ref / 0.0125])
    with pytest.raises(ValueError):
        scale.scaled([1.0])


# -- compare verdicts --------------------------------------------------------


def _verdict(base, change, better="lower", bound=0.1):
    return benchstats.verdict(base, change, list(zip(base, change)), better, bound)


BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_verdict_improved_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    assert _verdict(BASE, [v * 0.8 for v in BASE]) == benchstats.IMPROVED
    assert _verdict(BASE, [v * 1.25 for v in BASE], better="higher") == benchstats.IMPROVED
    # wins every pair but by less than the base's own spread
    assert _verdict(BASE, [v - 0.001 for v in BASE]) == benchstats.NO_WORSE
    # too few pairs to claim anything
    assert _verdict(BASE[:5], [v * 0.8 for v in BASE[:5]]) == benchstats.NO_WORSE


def test_verdict_regressed_beyond_the_bound():
    assert _verdict(BASE, [v * 1.2 for v in BASE]) == benchstats.REGRESSED
    assert _verdict(BASE, [v * 1.05 for v in BASE]) == benchstats.NO_WORSE
    assert _verdict(BASE, [v * 0.8 for v in BASE], better="higher") == benchstats.REGRESSED


def test_verdict_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    assert _verdict(noisy, [v * 1.05 for v in reversed(noisy)]) == benchstats.UNRESOLVED
    assert _verdict(noisy, [0.3] * 10) == benchstats.IMPROVED
    # every change run beats every base run, by less than the base's spread
    assert _verdict(noisy, [0.55 + 0.001 * i for i in range(10)]) == benchstats.NO_WORSE
    assert _verdict(noisy, [3.0] * 10) == benchstats.REGRESSED


def test_compare_pairs_runs_by_seed():
    spec = {"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": []}

    def records(scale):
        return [{"workload": "w", "seed": s, "metrics": {"t": {"value": scale * v}}}
                for s, v in enumerate(BASE)]

    rows = compare.compare(records(1.0), records(0.5), spec)
    assert len(rows) == 1
    assert rows[0]["pairs"] == 10 and rows[0]["wins"] == 10
    assert rows[0]["verdict"] == benchstats.IMPROVED


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    first = workloads.take_rounds(name, 11, 2)
    assert first == workloads.take_rounds(name, 11, 2)
    assert first != workloads.take_rounds(name, 12, 2)
    assert first != workloads.take_rounds(name, 11, 2, stream="warmup")
    assert [s["index"] for s in first] == list(range(len(first)))


def test_seek_rounds_cover_every_scheme_and_full_frame():
    for batch in (workloads.take_rounds("seek", 5, 1), workloads.take_rounds("seek", 6, 1)):
        combos = sorted((s["scheme"], s["frame"]) for s in batch)
        newton = [c for c in workloads.SEEK_COMBOS if c[0] == "newton"]
        assert combos == sorted(list(workloads.SEEK_COMBOS) + newton)


def test_expected_samples_matches_the_integrator():
    scenario = workloads.build_inputs("seek", workloads.take_rounds("seek", 0, 1)[0])
    config = scenario.integrator_config()
    traj = experiments.integrate(scenario.build_rhs(), scenario.initial_state(),
                                 0.0, 2.0, config, guard=scenario.guard())
    assert len(traj.times) == workloads.expected_samples(2.0, config.dt,
                                                         config.output_stride)


def test_reference_mismatch_fails_the_task():
    summary = {"cert_b": 1.0, "cert_lam_min": 0.5, "vdot_max": -0.1, "iss_min": 0.2,
               "assumptions_ok_gradient": True, "assumptions_ok_newton": True,
               "defect_gradient": 1e-12, "defect_newton": 5e-7,
               "abscissa_gradient": -0.1, "abscissa_newton": -0.2}
    ref = workloads.reference_record("verify", summary)
    assert workloads.check_task("verify", summary, ref) == []
    moved = dict(ref, cert_b=1.0 + 1e-6)
    assert workloads.check_task("verify", summary, moved)
    assert workloads.check_task("verify", dict(summary, defect_newton=2e-4))
