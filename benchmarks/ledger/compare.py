"""Compare two results files of the ledger, metric by metric.

    python3 benchmarks/ledger/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric): base, new, ratio (new/base,
given with its base), the bound from ``BENCHMARK.json`` and a verdict:

``improved``    better than base by more than the bound *and* the two
                sides' quartile ranges do not touch;
``regressed``   worse than base by more than the bound;
``unresolved``  neither of the above, but the two sides' quartile ranges
                overlap, or either side spreads, by more than the bound —
                the runs cannot tell "unchanged" from a change that size;
``unchanged``   anything else.

Virtual metrics and ``ops_failed_share`` repeat exactly at a fixed seed,
so for them any difference is a verdict (by direction) and the bound
does not apply.  Exit code 1 on any ``regressed`` row (a higher
``ops_failed_share`` is one); 2 when the files cannot be compared: another
seed or size, or a workload or metric present on one side only.
``run.py --baseline BASE.json`` runs the same comparison after a run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Host metrics: noisy, compared against the bound.  Everything else in a
#: record's ``end_to_end`` block is exact.
HOST_METRICS = ("setup_s", "wall_s", "peak_rss_mb")


def load_bounds(path: Path = BENCHMARK) -> Dict[str, float]:
    with open(path) as handle:
        return {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def verdict_host(base: Dict[str, Any], new: Dict[str, Any], bound: float) -> str:
    """Lower is better for every host metric."""
    reference = base["median"]
    change = (new["median"] - reference) / reference
    if change > bound:
        return "regressed"
    if change < -bound and new["q3"] < base["q1"]:
        return "improved"
    overlap = min(base["q3"], new["q3"]) - max(base["q1"], new["q1"])
    widest = max(base["q3"] - base["q1"], new["q3"] - new["q1"])
    if max(overlap, widest) / reference > bound:
        return "unresolved"
    return "unchanged"


def verdict_exact(base: float, new: float) -> str:
    if new == base:
        return "unchanged"
    return "regressed" if new > base else "improved"


class Incomparable(ValueError):
    """The two results files do not describe the same measurements."""


def compare(
    base: Dict[str, Any], new: Dict[str, Any], bounds: Dict[str, float]
) -> List[Tuple[str, str, float, float, Optional[float], Optional[float], str]]:
    """Rows of (workload, metric, base, new, ratio, bound, verdict).

    Both sides must hold the same workloads with the same metrics at the
    same seed and size: a results file that lost a workload must not
    compare as "nothing regressed".
    """
    for what in ("seed", "smoke"):
        sides = [side["env"]["seed"] if what == "seed" else side[what]
                 for side in (base, new)]
        if sides[0] != sides[1]:
            raise Incomparable(
                f"{what} differs ({sides[0]} vs {sides[1]}): virtual metrics "
                f"are only comparable at one seed and size"
            )
    if set(base["workloads"]) != set(new["workloads"]):
        raise Incomparable(
            "workloads differ: " + ", ".join(
                sorted(set(base["workloads"]) ^ set(new["workloads"]))
            ) + " on one side only"
        )
    rows = []
    for workload, base_record in base["workloads"].items():
        new_metrics = new["workloads"][workload]["end_to_end"]
        if set(base_record["end_to_end"]) != set(new_metrics):
            raise Incomparable(
                f"{workload}: metrics differ: " + ", ".join(
                    sorted(set(base_record["end_to_end"]) ^ set(new_metrics))
                ) + " on one side only"
            )
        for metric, base_entry in base_record["end_to_end"].items():
            new_entry = new_metrics[metric]
            old, now = base_entry["value"], new_entry["value"]
            if metric in HOST_METRICS:
                bound: Optional[float] = bounds[metric]
                verdict = verdict_host(base_entry, new_entry, bounds[metric])
            else:
                bound = None
                verdict = verdict_exact(old, now)
            ratio = now / old if old else None
            rows.append((workload, metric, old, now, ratio, bound, verdict))
    return rows


def report(base: Dict[str, Any], new: Dict[str, Any]) -> int:
    """Print the table; the exit code (0 fine, 1 regressed, 2 incomparable)."""
    try:
        rows = compare(base, new, load_bounds())
    except Incomparable as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    print(f"{'workload':<11} {'metric':<18} {'base':>14} {'new':>14} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    for workload, metric, old, now, ratio, bound, verdict in rows:
        ratio_text = f"{ratio:9.4f}" if ratio is not None else f"{'-':>9}"
        bound_text = f"{bound:6.2f}" if bound is not None else " exact"
        print(f"{workload:<11} {metric:<18} {old:>14.8g} {now:>14.8g} "
              f"{ratio_text} {bound_text}  {verdict}")
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("  ".join(f"{name}: {count}" for name, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(args[0]) as handle:
        base = json.load(handle)
    with open(args[1]) as handle:
        new = json.load(handle)
    return report(base, new)


if __name__ == "__main__":
    sys.exit(main())
