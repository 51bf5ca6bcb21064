"""Compare two sets of benchmark results, metric by metric and workload by
workload.

    python3 bench/compare.py BASE CHANGE

BASE and CHANGE are result records written by ``run.py`` (files, or
directories searched for ``*.json``), for example two copies of
``.bench_results/`` made on the parent commit and on the change. Runs of
the same workload and seed on both sides form a pair. For every metric named
in ``BENCHMARK.json`` and every workload that reported it, one row gives the
median and quartiles of each side, the pairs the change won, and a verdict:
improved, no worse within the bound, regressed, or unresolved (see
``benchstats.verdict``). Per-layer metrics have no bound, so any shift
beyond the noise decides them. Exits 1 when a row regressed.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
from pathlib import Path

import benchstats

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        record = json.loads(f.read_text())
        if {"workload", "seed", "metrics"} <= set(record):
            records.append(record)
    return records


def values(records: list[dict]) -> dict:
    """{(workload, metric): {seed: [values in run order]}}"""
    out: dict = collections.defaultdict(lambda: collections.defaultdict(list))
    for r in records:
        for name, m in r["metrics"].items():
            out[(r["workload"], name)][r["seed"]].append(m["value"])
    return out


def pairs_of(base: dict, change: dict) -> list[tuple]:
    return [(b, c) for seed in sorted(set(base) & set(change))
            for b, c in zip(base[seed], change[seed])]


def compare(base_records, change_records, spec: dict) -> list[dict]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = values(base_records), values(change_records)
    rows = []
    for key in sorted(set(base) & set(change)):
        workload, name = key
        if name not in metrics:
            continue
        m = metrics[name]
        b = [v for vs in base[key].values() for v in vs]
        c = [v for vs in change[key].values() for v in vs]
        pairs = pairs_of(base[key], change[key])
        sign = 1 if m["better"] == "higher" else -1
        rows.append({
            "workload": workload, "metric": name, "unit": m["unit"],
            "base": benchstats.quartiles(b), "change": benchstats.quartiles(c),
            "wins": sum(1 for x, y in pairs if sign * (y - x) > 0),
            "pairs": len(pairs),
            "verdict": benchstats.verdict(b, c, pairs, m["better"], m.get("bound", 0.0)),
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    rows = compare(load(args.base), load(args.change), spec)
    if not rows:
        print("no metric reported on both sides", file=sys.stderr)
        return 2

    def fmt(q) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print(f"{'workload':16} {'metric':34} {'base median [q1, q3]':40} "
          f"{'change median [q1, q3]':40} {'wins':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:16} {r['metric'] + ' (' + r['unit'] + ')':34} "
              f"{fmt(r['base']):40} {fmt(r['change']):40} "
              f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return 1 if any(r["verdict"] == benchstats.REGRESSED for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
