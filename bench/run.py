"""Run one workload of the sourceseek benchmark and print its metrics.

    python3 bench/run.py --workload seek --seed 0 --seconds 35 --trace 0

Run from anywhere inside a source checkout: the package is imported from
the checkout's ``src`` directory, never from an installed copy. One process,
one client, closed loop: the next task starts when the previous one ends.
BLAS and OpenMP are pinned to one thread.

``--trace 0`` times tasks for ``--seconds`` seconds, in whole rounds, and
reports the end-to-end metrics. Their times are scaled to one machine speed
by a reference kernel timed between tasks (see ``speed.py``); the raw wall
times are printed next to them and kept in the full record. ``--trace 1`` runs each task of a fixed,
seed-determined list twice, untraced and traced, and reports the per-layer
metrics of the traced runs plus the tracing overhead (traced minus untraced
wall time of the same tasks). The last line of standard output is one JSON
object; the full record, with the environment, goes to
``.bench_results/`` at the checkout root, and the spans of a traced pass
next to it.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"

#: fresh processes timed for ``setup_s``; the median is reported
SETUP_PROBES = 3
#: a traced run's task list is sized to this share of ``--seconds`` of
#: untraced work, so that both of its passes fit in about one run length
TRACE_SHARE = 1.0 / 3.0

SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "import numpy, scipy, sourceseek, workloads; "
    "spec = next(workloads.generate(sys.argv[3], int(sys.argv[4])))[0]; "
    "workloads.build_inputs(sys.argv[3], spec)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("seek", "curvature_sweep", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import sourceseek from this checkout's ``src``; None when it has none."""
    if not (SRC / "sourceseek" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import sourceseek

    if Path(sourceseek.__file__).resolve().parent != (SRC / "sourceseek").resolve():
        return None
    return sourceseek


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Scaled and raw wall times of fresh processes that import the package
    and build the first task's inputs."""
    import speed

    scale = speed.Scale()
    scale.mark()
    raw = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
             workload, str(seed)],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        raw.append(time.perf_counter() - t0)
        scale.mark()
    return scale.scaled(raw), raw


def environment() -> dict:
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sourceseek").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def load_reference(workload: str, seed: int) -> list:
    import workloads

    if seed != workloads.REFERENCE_SEED:
        return []
    data = json.loads((BENCH_DIR / "reference.json").read_text())
    return data["tasks"][workload]


class Outcomes:
    """Task latencies, summaries and failures of one pass."""

    def __init__(self, workload: str, reference: list):
        self.workload = workload
        self.reference = reference
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.kernel_s: list[float] = []
        self.summaries: dict[int, dict] = {}
        self.failures: dict[int, str] = {}

    def run(self, spec: dict, call) -> None:
        t0 = time.perf_counter()
        try:
            summary, _ = call(self.workload, spec)
        except Exception:  # a task that raises counts as failed; keep going
            self.failures[spec["index"]] = (f"task {spec['index']} raised:\n"
                                            + traceback.format_exc())
        else:
            self.summaries[spec["index"]] = summary
        finally:
            self.latencies.append(time.perf_counter() - t0)

    def check(self) -> None:
        import workloads

        for index, summary in self.summaries.items():
            ref = self.reference[index] if index < len(self.reference) else None
            problems = workloads.check_task(self.workload, summary, ref)
            if problems:
                self.failures[index] = f"task {index}: " + "; ".join(problems)


@dataclass
class Result:
    metrics: dict  # name -> (value, unit)
    notes: dict  # name -> text printed next to the value
    attempted: int
    failures: list
    extra: dict = field(default_factory=dict)
    tracer: object = None


def timed_pass(workload: str, seed: int, seconds: float, reference: list):
    """Closed loop over the seeded sequence for ``seconds``, in whole rounds,
    with the speed kernel timed before the first task and after each one."""
    import speed
    import workloads

    out = Outcomes(workload, reference)
    rounds = workloads.generate(workload, seed)
    scale = speed.Scale()
    scale.mark()
    t_begin = time.perf_counter()
    while time.perf_counter() - t_begin < seconds:
        for spec in next(rounds):
            out.run(spec, workloads.run_task)
            scale.mark()
    wall = time.perf_counter() - t_begin
    out.scaled = scale.scaled(out.latencies)
    out.kernel_s = scale.kernel_times
    out.check()
    return out, wall


def warm_up(workload: str, seed: int) -> list[str]:
    """One task from a separate stream, so lazy set-up is done before timing."""
    import workloads

    out = Outcomes(workload, [])
    out.run(workloads.take_rounds(workload, seed, 1, stream="warmup")[0],
            workloads.run_task)
    out.check()
    return list(out.failures.values())


def end_to_end(args, setup: tuple[list[float], list[float]]) -> Result:
    import benchstats

    reference = load_reference(args.workload, args.seed)
    out, wall = timed_pass(args.workload, args.seed, args.seconds, reference)
    n = len(out.latencies)
    tail_value, tail_pct = benchstats.tail(out.scaled)
    raw_tail, _ = benchstats.tail(out.latencies)
    failed = len(out.failures)
    setup_scaled, setup_raw = setup
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "tasks_per_s": (n / sum(out.scaled), "1/s"),
        "task_s_p50": (statistics.median(out.scaled), "s"),
        "task_s_tail": (tail_value, "s"),
        "ok_frac": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_scaled)} fresh processes; "
                   f"{statistics.median(setup_raw):.4g} s unscaled",
        "tasks_per_s": f"{n} tasks in {sum(out.scaled):.3f} s scaled task time; "
                       f"{n / wall:.4g} 1/s unscaled over {wall:.3f} s of wall time",
        "task_s_p50": f"{n} tasks; {statistics.median(out.latencies):.4g} s unscaled",
        "task_s_tail": f"p{tail_pct:.1f} of {n} tasks; {raw_tail:.4g} s unscaled",
        "ok_frac": f"failed_frac = {failed / n:.6g}, {failed} of {n} tasks failed",
        "peak_rss_mb": "max resident set of this process",
    }
    extra = {"wall_s": wall, "latencies_s": out.latencies,
             "scaled_latencies_s": out.scaled, "kernel_s": out.kernel_s,
             "setup_raw_s": setup_raw,
             "setup_scaled_s": setup_scaled, "tail_percentile": tail_pct,
             "samples": n}
    return Result(metrics, notes, n, list(out.failures.values()), extra)


def traced(args, setup) -> Result:
    import tracer as tracing
    import workloads

    nominal = workloads.WORKLOADS[args.workload].nominal_round_s
    n_rounds = max(1, round(args.seconds * TRACE_SHARE / nominal))
    specs = workloads.take_rounds(args.workload, args.seed, n_rounds)
    reference = load_reference(args.workload, args.seed)

    tr = tracing.Tracer()
    plain = Outcomes(args.workload, reference)
    spans = Outcomes(args.workload, reference)

    def untraced_run(spec) -> float:
        t0 = time.perf_counter()
        plain.run(spec, workloads.run_task)
        return time.perf_counter() - t0

    def traced_run(spec) -> float:
        with tracing.installed(tr):
            t0 = time.perf_counter()
            spans.run(spec, lambda w, s: tr.run_task(s["index"], workloads.run_task, w, s))
            return time.perf_counter() - t0

    # Each task runs untraced and traced back to back, in alternating order,
    # so that both passes see the same machine speed.
    untraced_wall = traced_wall = 0.0
    for k, spec in enumerate(specs):
        if k % 2:
            traced_wall += traced_run(spec)
            untraced_wall += untraced_run(spec)
        else:
            untraced_wall += untraced_run(spec)
            traced_wall += traced_run(spec)
    plain.check()
    spans.check()
    for index, summary in spans.summaries.items():
        if index in plain.summaries and summary != plain.summaries[index]:
            spans.failures.setdefault(
                index, f"task {index}: traced output differs from untraced")

    layer = tracing.layer_metrics(tr)
    metrics = {name: (layer[name], unit) for name, unit in tracing.LAYER_METRICS}
    defects = [max(s["defect_gradient"], s["defect_newton"])
               for s in spans.summaries.values() if "defect_newton" in s]
    overhead = traced_wall - untraced_wall
    metrics["averaging.engine_defect_max"] = (max(defects, default=0.0), "ratio")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / untraced_wall, "ratio")
    notes = {"trace.overhead_s": f"{traced_wall:.3f} s traced, "
                                 f"{untraced_wall:.3f} s untraced, {len(specs)} tasks",
             "averaging.engine_defect_max": "largest engine vs closed-form gap"}
    extra = {"trace_tasks": len(specs), "untraced_wall_s": untraced_wall,
             "traced_wall_s": traced_wall, "spans": len(tr.name),
             "span_table": tracing.span_table(tr)}
    failures = list(plain.failures.values()) + list(spans.failures.values())
    return Result(metrics, notes, 2 * len(specs), failures, extra, tr)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if import_package() is None:
        print(f"no sourceseek sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import speed
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    speed.pin_to_one_cpu()
    setup = measure_setup(args.workload, args.seed)
    warm_failures = warm_up(args.workload, args.seed)
    result = (traced if args.trace else end_to_end)(args, setup)
    for problem in warm_failures + result.failures:
        print(problem, file=sys.stderr)

    env = environment()
    print(f"workload = {workload.name}: {workload.why}")
    print(f"seed = {args.seed}, seconds = {args.seconds:g}, trace = {args.trace}")
    for row in result.extra.get("span_table", []):
        print("span {name} = {calls} calls, {total_s:.6g} s total, "
              "{self_s:.6g} s self".format(**row))
    for name, (value, unit) in result.metrics.items():
        note = f"  ({result.notes[name]})" if name in result.notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print("environment = " + json.dumps(env, sort_keys=True))

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                          f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "attempted": result.attempted, "failed": len(result.failures),
        "failures": result.failures, "warm_up_failures": warm_failures,
        **result.extra,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if result.tracer is not None:
        result.tracer.save(stem.with_suffix(".spans.npz"))
    print(f"results = {stem.with_suffix('.json')}")
    print(json.dumps({
        "correct": not result.failures and not warm_failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
