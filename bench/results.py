"""Result files: merge runs into medians, compare two results metric by metric.

A run file (written by run.py) holds one workload's metrics. A merged file
holds, per workload, the median, quartiles and count of each metric over
several runs, plus the environments they ran in. Both load into the same
shape: {workload: {metric: {"value", "unit", ...}}}.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def median(values: list[float]) -> float:
    return statistics.median(values)


def load_run(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def merge(runs: list[dict]) -> dict:
    """Median and quartiles of every metric, per workload and trace mode."""
    grouped: dict[str, dict[str, list[tuple[float, str]]]] = {}
    envs: dict[str, list[dict]] = {}
    for run in runs:
        env = run["env"]
        key = env["workload"] if not env["trace"] else f"{env['workload']}+trace"
        envs.setdefault(key, []).append(env)
        for name, entry in run["metrics"].items():
            grouped.setdefault(key, {}).setdefault(name, []).append(
                (entry["value"], entry["unit"])
            )
    merged: dict = {"workloads": {}}
    for key, metrics in sorted(grouped.items()):
        out = {}
        for name, pairs in metrics.items():
            values = [v for v, _ in pairs]
            entry = {"value": median(values), "unit": pairs[0][1], "runs": len(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3)
            out[name] = entry
        merged["workloads"][key] = {
            "metrics": out,
            "seeds": sorted({env["seed"] for env in envs[key]}),
            "environment": {
                k: envs[key][0][k]
                for k in ("python", "implementation", "nproc", "platform", "machine")
            },
        }
    return merged


def load(path) -> dict:
    """Any result (run file, merged file or a directory of run files) as
    {workload: {metric: entry}}."""
    path = Path(path)
    if path.is_dir():
        data = merge([load_run(p) for p in sorted(path.glob("*-trace[01].json"))])
    else:
        data = load_run(path)
        if "workloads" not in data:
            data = merge([data])
    return {name: entry["metrics"] for name, entry in data["workloads"].items()}


def compare(old: dict, new: dict) -> list[tuple[str, str, float | None, float | None, float | None, str]]:
    """Rows of (workload, metric, old, new, new/old, unit) for the workloads
    both results have; None where one side lacks the metric."""
    rows = []
    for workload in sorted(set(old) & set(new)):
        left = old[workload]
        right = new[workload]
        for metric in sorted(set(left) | set(right)):
            a = left.get(metric, {}).get("value")
            b = right.get(metric, {}).get("value")
            ratio = b / a if a not in (None, 0) and b is not None else None
            unit = (left.get(metric) or right.get(metric))["unit"]
            rows.append((workload, metric, a, b, ratio, unit))
    return rows


def compare_text(old: dict, new: dict) -> str:
    def fmt(value):
        return "absent" if value is None else f"{value:.6g}"

    lines = [f"{'workload':<22} {'metric':<48} {'old':>12} {'new':>12} {'new/old':>8}  unit"]
    for workload, metric, a, b, ratio, unit in compare(old, new):
        lines.append(
            f"{workload:<22} {metric:<48} {fmt(a):>12} {fmt(b):>12} {fmt(ratio):>8}  {unit}"
        )
    return "\n".join(lines)
