"""Judge one result file against another with the benchmark's fixed bounds.

One row per workload x end-to-end metric, and one more for each timed
metric taken over the whole run: both headline values, both
inter-quartile ranges, the bound, a verdict.  ``unresolved`` — a side's
own spread exceeds the bound — is not ``unchanged``: it means the
measurement cannot tell, unless every repetition of one side beats every
repetition of the other.  Counters that are exact on the memory
transport get ``==`` rows; a moved counter is ``drift`` (an optimisation
moves them on purpose; a refactor must not).
"""

from __future__ import annotations

from . import spec, stats

WORSE, BETTER, UNCHANGED, UNRESOLVED = "worse", "better", "unchanged", "unresolved"


def verdict(metric: spec.Metric, before: dict, after: dict) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    moved = sign * (after["value"] - before["value"])
    beyond = abs(moved) > metric.bound * before["value"]
    if max(stats.spread(before), stats.spread(after)) > metric.bound:
        old = [sign * v for v in before["per_repetition"]]
        new = [sign * v for v in after["per_repetition"]]
        if max(new) < min(old):
            return BETTER
        if beyond and min(new) > max(old):
            return WORSE
        return UNRESOLVED
    if not beyond:
        return UNCHANGED
    return WORSE if moved > 0 else BETTER


def _exact_rows(name: str, before: dict, after: dict) -> list[dict]:
    """``==`` rows for the work counts of the timed units and, when both
    sides carry a traced pass, for every per-layer metric marked exact."""
    pairs = [
        (f"counters.{key}", before["counters"].get(key), after["counters"].get(key))
        for key in sorted(set(before["counters"]) | set(after["counters"]))
    ]
    if "traced" in before and "traced" in after:
        old, new = before["traced"]["layers"], after["traced"]["layers"]
        pairs += [
            (m.name, old.get(m.name), new.get(m.name))
            for m in spec.PER_LAYER
            if m.exact and (m.name in old or m.name in new)
        ]
    return [
        {
            "workload": name, "metric": key, "before": old, "after": new,
            "verdict": "==" if old == new else "drift",
        }
        for key, old, new in pairs
    ]


def compare(before: dict, after: dict) -> tuple[list[dict], bool]:
    """(rows, failed): *failed* on any ``worse`` end-to-end row or a
    higher ``failed_share``.  The whole-run rows are shown with their
    verdict and gate nothing: two sets of one commit taken back to back
    on the box this was sized on differed by 14-21% in whole-run
    throughput and 10-53% in whole-run tail when a slow spell of the
    machine fell into one of them."""
    rows: list[dict] = []
    for workload in spec.WORKLOADS:
        old = before["workloads"].get(workload.name)
        new = after["workloads"].get(workload.name)
        if old is None or new is None:
            continue
        # Every end-to-end metric, then the timed ones again over every
        # unit of the run, not only its quiet quarter.
        for section, suffix in (("end_to_end", ""), ("whole_run", " (whole run)")):
            for metric in spec.END_TO_END:
                a, b = old[section].get(metric.name), new[section].get(metric.name)
                if a is None or b is None:  # not in this section, or nothing completed
                    continue
                rows.append({
                    "workload": workload.name, "metric": metric.name + suffix,
                    "unit": metric.unit,
                    "before": a["value"], "before_iqr": (a["q1"], a["q3"]),
                    "after": b["value"], "after_iqr": (b["q1"], b["q3"]),
                    "bound": metric.bound, "verdict": verdict(metric, a, b),
                    "gated": section == "end_to_end",
                })
        rows.append({
            "workload": workload.name, "metric": spec.FAILED_SHARE.name, "unit": "ratio",
            "before": old["failed_share"], "after": new["failed_share"], "bound": 0.0,
            "verdict": WORSE if new["failed_share"] > old["failed_share"] else UNCHANGED,
            "gated": True,
        })
        if workload.deterministic and before.get("seed") == after.get("seed"):
            rows += _exact_rows(workload.name, old, new)
    return rows, any(row["verdict"] == WORSE and row.get("gated") for row in rows)


def render(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        if "before_iqr" in row:
            change = (row["after"] - row["before"]) / row["before"] * 100 if row["before"] else 0.0
            lines.append(
                f"{row['workload']:<20} {row['metric']:<30} "
                f"{row['before']:>11.4f} [{row['before_iqr'][0]:.4f}, {row['before_iqr'][1]:.4f}] -> "
                f"{row['after']:>11.4f} [{row['after_iqr'][0]:.4f}, {row['after_iqr'][1]:.4f}] "
                f"{row['unit']:<4} {change:+6.1f}% (bound {row['bound'] * 100:.0f}%)  {row['verdict']}"
                + ("" if row["gated"] else ", not gated")
            )
        elif row["verdict"] != "==":
            lines.append(
                f"{row['workload']:<20} {row['metric']:<18} {row['before']} -> {row['after']}  "
                f"{row['verdict']}"
            )
    same = sum(1 for row in rows if row["verdict"] == "==")
    lines.append(f"{same} exact counters identical")
    return "\n".join(lines)
