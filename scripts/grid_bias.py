"""The feedback-sweep slope bias as a function of the power grid.

Runs the feedback-sweep benchmark argv (``bench/workloads.py``) at full
size (20 trials) and at tiny size (2 trials) with only the power grid
moved: 2^4..2^14 (today's), 2^8..2^18, 2^12..2^22 and 2^16..2^26, 11
points each, at CLI seeds 0-39. For each grid, size and alpha it reports
the alpha user's mean slope deviation (the fitted slope minus its
expected ``alpha * 2/3``) over the seeds and its standard deviation, and
for each grid and size how many runs exit 1.

The grid rule, fixed before any exit count is read: the lowest of these
grids on which every alpha's mean deviation at full size lies within a
third of ``--slope-tol`` (0.1) of zero.

Writes ``scripts/grid_bias.json``. Run from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/grid_bias.py

It takes about 6 s on one core.
"""

import dataclasses
import json
import re
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

from iafb.cli import main  # noqa: E402

GRIDS = [(4, 14), (8, 18), (12, 22), (16, 26)]
SEEDS = range(40)
SLOPE_TOL = 0.1
TRAILER = re.compile(r"# slope alpha=(\S+) user=(\d+) slope=(\S+) expected=(\S+) ok=")


def run(workload, seed, tiny, out):
    """(exit code, {alpha: slope deviation of the alpha user}) of one invocation."""
    code = main(workload.argv(seed, tiny) + ["--out", str(out)])
    user = int(workload.options["alpha-user"])
    deviation = {}
    for line in out.read_text().splitlines():
        match = TRAILER.match(line)
        if match and int(match[2]) == user:
            deviation[match[1]] = float(match[3]) - float(match[4])
    return code, deviation


def main_():
    base = WORKLOADS["feedback-sweep"]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        for lo, hi in GRIDS:
            grid = {"p-log2-min": float(lo), "p-log2-max": float(hi)}
            workload = dataclasses.replace(base, options={**base.options, **grid})
            row = {"grid": f"2^{lo}..2^{hi}"}
            for size, tiny in (("full", False), ("tiny", True)):
                codes, deviations = [], {}
                for seed in SEEDS:
                    code, deviation = run(workload, seed, tiny, out)
                    codes.append(code)
                    for alpha, d in deviation.items():
                        deviations.setdefault(alpha, []).append(d)
                row[size] = {
                    "exits_1": codes.count(1),
                    "runs": len(codes),
                    "deviation": {
                        alpha: {"mean": statistics.fmean(d), "sd": statistics.stdev(d)} for alpha, d in deviations.items()
                    },
                }
            rows.append(row)
            print(row["grid"], {s: row[s]["exits_1"] for s in ("full", "tiny")}, flush=True)
    picked = next(
        (r["grid"] for r in rows if all(abs(d["mean"]) < SLOPE_TOL / 3 for d in r["full"]["deviation"].values())),
        None,
    )
    result = {
        "argv": " ".join(base.argv(0)[:-2]),
        "moved": "--p-log2-min and --p-log2-max, per grid; --trials 2 at tiny size",
        "seeds": f"{SEEDS.start}-{SEEDS.stop - 1}",
        "rule": "the lowest grid whose every alpha has |mean full-size deviation| < slope_tol / 3",
        "slope_tol": SLOPE_TOL,
        "picked": picked,
        "grids": rows,
    }
    (ROOT / "scripts" / "grid_bias.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main_()
