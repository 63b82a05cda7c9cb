"""Compare the benchmark results of two commits.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the ``--record`` lines of ``run.py`` for one commit,
written by runs alternating between the commits (parent, change, change,
parent, ...).  The i-th end-to-end run of a workload on one side is
paired with the i-th on the other.  For each workload and end-to-end
metric this prints both sides' median and quartiles and a verdict:

``worse``       the change's median is worse than the parent's by more
                than the bound in ``BENCHMARK.json``;
``improved``    the change wins at least 9/10 of the pairs (ties count
                for neither) and the medians differ by more than the
                parent's interquartile range;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, and not every change run beats every parent run,
                or the change fails more operations than the parent;
``unchanged``   otherwise.

Exits with code 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> dict[str, list[dict]]:
    """End-to-end records per workload, in file order."""
    out: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec.get("trace") == 0:
                out.setdefault(rec["workload"], []).append(rec)
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool = False) -> tuple[str, int, int]:
    """(verdict, pairs the change won, pairs compared) for one metric."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: b is better than a
    p_med, c_med = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse", wins, len(pairs)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    if (not more_failures and pairs and wins >= 0.9 * len(pairs)
            and sign * (p_med - c_med) > p_q3 - p_q1):
        return "improved", wins, len(pairs)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if more_failures or (spread > bound and not every_run_better):
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> list[dict]:
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            continue
        more_failures = sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            result, wins, pairs = verdict(p_vals, c_vals, metric["better"], metric["bound"],
                                          more_failures)
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "parent": (statistics.median(p_vals), *quartiles(p_vals), len(p_vals)),
                         "change": (statistics.median(c_vals), *quartiles(c_vals), len(c_vals)),
                         "wins": wins, "pairs": pairs, "verdict": result})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare the benchmark results of two commits")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    rows = compare(load_records(args.parent), load_records(args.change), spec)
    print(f"{'workload':<18} {'metric':<12} {'unit':<5} {'parent median [q1, q3] n':<34} "
          f"{'change median [q1, q3] n':<34} {'ratio':>6} {'won':>6}  verdict")
    for r in rows:
        sides = [f"{m:.5g} [{q1:.5g}, {q3:.5g}] n={n}" for m, q1, q3, n in (r["parent"], r["change"])]
        print(f"{r['workload']:<18} {r['metric']:<12} {r['unit']:<5} {sides[0]:<34} {sides[1]:<34} "
              f"{r['change'][0] / r['parent'][0]:>6.3f} {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
