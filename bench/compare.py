"""Compare two result sets of the benchmark, one per commit.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``BENCH_<workload>-s<seed>-t0.json`` files of
untraced runs. Runs pair up by workload and seed. For every workload and
end-to-end metric one row gives each side's median and quartiles, the
pairs each side won, both sides' ``fail_ratio`` and a verdict:

* ``improved``: the change won at least nine tenths of at least ten
  pairs (ties count for neither side), and the medians differ by more
  than the distance between the parent's quartiles;
* ``unresolved``: the relative spread (quartile distance over median) of
  either side is wider than the metric's bound, and neither side read
  better than the other on every run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
* ``within bound``: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better: str, bound: float) -> tuple:
    """Verdict on paired samples, and the pairs each side won."""
    sign = 1.0 if better == "higher" else -1.0
    p = [sign * x for x in parent]
    c = [sign * x for x in change]
    change_wins = sum(ci > pi for pi, ci in zip(p, c))
    parent_wins = sum(pi > ci for pi, ci in zip(p, c))
    pairs = min(len(p), len(c))
    q1, p_med, q3 = quartiles(p)
    gain = statistics.median(c) - p_med  # > 0: the change reads better
    wins = (parent_wins, change_wins)
    if pairs >= 10 and change_wins >= 0.9 * pairs and gain > q3 - q1:
        return "improved", wins
    separated = min(c) > max(p) or max(c) < min(p)
    if max(rel_spread(parent), rel_spread(change)) > bound and not separated:
        return "unresolved", wins
    if -gain > bound * abs(p_med):
        return "worse", wins
    return "within bound", wins


def load(directory) -> dict:
    """workload -> seed -> result record of untraced runs."""
    out = {}
    for path in sorted(Path(directory).glob("BENCH_*-t0.json")):
        with open(path, "r", encoding="ascii") as fh:
            result = json.load(fh)
        out.setdefault(result["workload"], {})[result["seed"]] = result
    return out


def compare(parent_dir, change_dir, spec: dict) -> list:
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[workload][s]["metrics"][name]["value"] for s in seeds]
            c = [change[workload][s]["metrics"][name]["value"] for s in seeds]
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"], "pairs": len(seeds),
                "parent": quartiles(p), "change": quartiles(c), "wins": wins,
                "fail_ratio": tuple(
                    sum(side[workload][s]["failed"] for s in seeds)
                    / sum(side[workload][s]["attempted"] for s in seeds)
                    for side in (parent, change)
                ),
                "verdict": result,
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK_FILE, "r", encoding="ascii") as fh:
        spec = json.load(fh)
    rows = compare(argv[0], argv[1], spec)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':20s} {'metric':12s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}"
          f" {'wins p/c':>9s} {'fail p/c':>11s}  verdict")
    for r in rows:
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:20s} {r['metric']:12s} {p:>28s} {r['unit']:3s} {c:>28s} {r['unit']:3s}"
              f" {r['wins'][0]:4d}/{r['wins'][1]:<4d} {r['fail_ratio'][0]:5.3f}/{r['fail_ratio'][1]:<5.3f}"
              f"  {r['verdict']} ({r['pairs']} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
