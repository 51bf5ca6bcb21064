"""Record the reference summaries the default seed is checked against.

    python3 bench/record_reference.py

Runs the first tasks of every workload for ``workloads.REFERENCE_SEED`` and
writes their summaries to ``bench/reference.json``. Record it once from the
code a benchmark baseline is taken on; a later run of the default seed then
reports a changed step, horizon or sample count as a failed task. Tasks past
the recorded ones get every other check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

#: tasks recorded per workload, more than a 35 s run completes on two cores;
#: a changed step or horizon moves every task, so the first ones catch it
RECORDED_TASKS = {"seek": 150, "curvature_sweep": 40, "verify": 300}


def main() -> int:
    tasks = {}
    for name, count in RECORDED_TASKS.items():
        records = []
        for batch in workloads.generate(name, workloads.REFERENCE_SEED):
            for spec in batch:
                summary, _ = workloads.run_task(name, spec)
                problems = workloads.check_task(name, summary)
                if problems:
                    print(f"{name} task {spec['index']}: {problems}", file=sys.stderr)
                    return 1
                records.append(workloads.reference_record(name, summary))
            if len(records) >= count:
                break
        tasks[name] = records
        print(f"{name}: {len(records)} tasks recorded")
    out = {"seed": workloads.REFERENCE_SEED, "tasks": tasks}
    (BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
