"""One-off measurement behind the benchmark's one-thread BLAS pin.

    python3 bench/blas_threads.py

Times one untraced align-leakage cycle (workload seed 0, one ``ia-run``
invocation per pool seed) and a 128x128 complex Hermitian ``eigh`` in
fresh interpreters pinned to 1 and to 2 BLAS threads, alternating, and
writes the times to ``bench/blas_threads.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, environment, import_cli, pin_threads, run_cycles
from workloads import WORKLOADS

RESULT_FILE = Path(__file__).with_name("blas_threads.json")
THREADS = (1, 2)
REPEATS = 3


def eigh_128_s() -> float:
    """Median time of one 128x128 complex Hermitian eigendecomposition."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    a = a @ a.conj().T
    times = []
    for _ in range(51):
        start = time.perf_counter()
        np.linalg.eigh(a)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child(threads: int) -> None:
    pin_threads(threads)
    cli = import_cli()
    records = run_cycles(cli, WORKLOADS["align-leakage"], 0, 0.0)
    if not all(r["ok"] for r in records):
        raise SystemExit(f"align-leakage failed at {threads} threads")
    print(json.dumps({
        "cycle_s": sum(r["wall_s"] for r in records), "eigh_128_s": eigh_128_s(),
        "environment": environment(0),
    }))


def main() -> int:
    walls = {t: [] for t in THREADS}
    eigh = {t: [] for t in THREADS}
    env = {}
    for _ in range(REPEATS):
        for t in THREADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", str(t)], cwd=ROOT,
                capture_output=True, text=True, timeout=300, check=True,
            )
            out = json.loads(proc.stdout.splitlines()[-1])
            walls[t].append(out["cycle_s"])
            eigh[t].append(out["eigh_128_s"])
            env[t] = out["environment"]
    result = {
        "workload": "align-leakage, workload seed 0, one cycle",
        "cycle_s": {f"{t}_threads": walls[t] for t in THREADS},
        "median_cycle_s": {f"{t}_threads": statistics.median(walls[t]) for t in THREADS},
        "eigh_128_s": {f"{t}_threads": eigh[t] for t in THREADS},
        "environment": {k: v for k, v in env[1].items() if k not in ("threads", "workload_seed")},
    }
    with open(RESULT_FILE, "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"median_cycle_s": result["median_cycle_s"], "eigh_128_s": result["eigh_128_s"]}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(int(sys.argv[2]))
    else:
        sys.exit(main())
