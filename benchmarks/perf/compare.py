"""``compare A.json B.json``: per (workload, metric) verdicts between two runs.

A verdict is read against the metric's bound from ``BENCHMARK.json``,
or a reading's bound from ``spec.READINGS`` (a share of A's median;
the quality readings use an absolute bound):

* ``worse`` / ``improved`` -- B's median moved past the bound;
* ``unchanged`` -- it stayed within the bound;
* ``unresolved`` -- the run-to-run spread (interquartile distance over
  the median, the larger of the two sides) exceeds the bound, so the
  medians cannot be told apart -- unless every run on one side beats
  every run on the other *and* the medians moved past the bound.  Two
  sets that separate completely but moved by less than the bound are
  ``unchanged``: a slow stretch of the host can shift a whole set.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.perf import spec
from benchmarks.perf.stats import relative_spread, summarize

IMPROVED, UNCHANGED, WORSE, UNRESOLVED = "improved", "unchanged", "worse", "unresolved"


def verdict(
    a: Sequence[float],
    b: Sequence[float],
    better: str,
    bound: float,
    absolute: bool = False,
) -> str:
    """Verdict of B against A for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    sa, sb = summarize(a), summarize(b)
    if absolute:
        change = sign * (sb["median"] - sa["median"])
        spread = max(sa["q3"] - sa["q1"], sb["q3"] - sb["q1"])
    else:
        change = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
        spread = max(relative_spread(sa), relative_spread(sb))
    separated = all(y < x for x in a for y in b) or all(y > x for x in a for y in b)
    if spread > bound and not separated:
        return UNRESOLVED
    if change > bound:
        return WORSE
    if change < -bound:
        return IMPROVED
    return UNCHANGED


def compare(a: Dict, b: Dict, bounds: Optional[Dict[str, float]] = None) -> List[Dict]:
    """One row per (workload, metric) present in both run files.

    ``bounds`` (metric -> bound) overrides the bounds the files recorded;
    ``main`` passes the ones ``BENCHMARK.json`` declares.
    """
    bounds = bounds or {}
    rows: List[Dict] = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name, {"status": "missing"})
        if wa["status"] != "ok" or wb["status"] != "ok":
            rows.append(
                {"workload": name, "metric": "-",
                 "verdict": f"not compared (A {wa['status']}, B {wb['status']})"}
            )
            continue
        same_digest = set(wa["digests"]) == set(wb["digests"]) and len(set(wa["digests"])) == 1
        for kind in ("metrics", "readings"):
            for metric, ma in wa[kind].items():
                mb = wb[kind].get(metric)
                if mb is None:
                    continue
                bound = bounds.get(metric, ma["bound"])
                rows.append(
                    {
                        "workload": name,
                        "metric": metric,
                        "unit": ma.get("unit", ""),
                        "a": summarize(ma["values"]),
                        "b": summarize(mb["values"]),
                        "bound": bound,
                        "verdict": verdict(
                            ma["values"], mb["values"], ma["better"], bound,
                            absolute=ma.get("absolute", False),
                        ),
                    }
                )
        rows.append(
            {
                "workload": name,
                "metric": "failed_share",
                "a_value": wa["failed_share"],
                "b_value": wb["failed_share"],
                "digests_equal": same_digest,
                "verdict": UNCHANGED
                if same_digest and wa["failed_share"] == wb["failed_share"] == 0
                else WORSE,
            }
        )
    return rows


def _fmt(s: Dict) -> str:
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"


def render(rows: List[Dict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':<36} "
        f"{'B median [q1, q3]':<36} {'bound':>7}  verdict"
    ]
    for row in rows:
        if "a" in row:
            lines.append(
                f"{row['workload']:<14} {row['metric']:<18} {_fmt(row['a']):<36} "
                f"{_fmt(row['b']):<36} {row['bound']:>7.3g}  {row['verdict']}"
            )
        elif "a_value" in row:
            lines.append(
                f"{row['workload']:<14} {row['metric']:<18} {row['a_value']:<36.6g} "
                f"{row['b_value']:<36.6g} {'0':>7}  {row['verdict']} "
                f"(digests {'equal' if row['digests_equal'] else 'DIFFER'})"
            )
        else:
            lines.append(f"{row['workload']:<14} {'-':<18} {row['verdict']}")
    return "\n".join(lines)


def main(paths: Sequence[str]) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    declared = {m["name"]: m["bound"] for m in spec.load()["end_to_end"]}
    rows = compare(a, b, declared)
    print(render(rows))
    return 0
