"""``--compare A.json B.json``: is B within the benchmark's bounds of A?

One row per (workload, end-to-end metric): B's relative worsening
against the bound ``BENCHMARK.json`` fixes for that metric.  A metric
either side could not report (too few samples for its percentile) is
``unresolved``, never ``ok``.
"""

from __future__ import annotations

import json
from pathlib import Path


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def _untraced(document: dict) -> dict[str, dict]:
    return {
        result["workload"]: result
        for result in document["results"]
        if not result["traced"]
    }


def rows(a: dict, b: dict, spec: dict) -> list[dict]:
    out = []
    side_a, side_b = _untraced(a), _untraced(b)
    for workload in sorted(set(side_a) | set(side_b)):
        for entry in spec["end_to_end"]:
            name = entry["name"]
            values = []
            for side in (side_a, side_b):
                reported = side.get(workload, {}).get("metrics", {}).get(name)
                values.append(reported["value"] if reported else None)
            row = {
                "workload": workload, "metric": name, "a": values[0],
                "b": values[1], "bound": entry["bound"], "worsening": None,
            }
            if None in values:
                row["verdict"] = "unresolved"
            else:
                row["worsening"] = worsening(values[0], values[1], entry["better"])
                breach = row["worsening"] > entry["bound"]
                row["verdict"] = "BREACH" if breach else "ok"
            out.append(row)
        errors = [side.get(workload, {}).get("failed") for side in (side_a, side_b)]
        out.append({
            "workload": workload, "metric": "failed", "a": errors[0],
            "b": errors[1], "bound": 0, "worsening": None,
            "verdict": "ok" if errors == [0, 0] else "BREACH",
        })
    return out


def main(path_a: Path, path_b: Path, spec: dict) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        table = rows(json.load(fa), json.load(fb), spec)
    workload = None
    for row in table:
        if row["workload"] != workload:
            workload = row["workload"]
            print(f"\n== {workload}")
        shown = [
            "n/a" if row[side] is None else f"{row[side]:.4f}" for side in ("a", "b")
        ]
        change = "" if row["worsening"] is None else f"{row['worsening']:+.3f}"
        print(
            f"  {row['metric']:<26}{shown[0]:>14}{shown[1]:>14}{change:>9} "
            f"(bound {row['bound']:.2f})  {row['verdict']}"
        )
    breaches = [row for row in table if row["verdict"] == "BREACH"]
    unresolved = [row for row in table if row["verdict"] == "unresolved"]
    print(f"\n{len(breaches)} breach(es), {len(unresolved)} unresolved")
    return 1 if breaches else 0
