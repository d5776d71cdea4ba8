"""Record the reference outputs that the benchmark checks against.

    python3 bench/record_reference.py

Runs every workload's argv at every ``POOL`` seed at benchmark size, and
the ``SMOKE_SEED`` cycle at smoke-test size, and writes the CSV texts to
``bench/reference.json``.
Run it only at a commit whose outputs are known good: every later run is
held to these values within ``workloads.RTOL`` / ``workloads.ATOL``.
"""

from __future__ import annotations

import json
import sys

from run import OUT, import_cli, pin_threads
from workloads import POOL, REFERENCE_FILE, SMOKE_SEED, WORKLOADS, cycle, reference_key


def main() -> int:
    pin_threads(1)
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    out_csv = OUT / "reference.csv"
    references = {}
    for workload in WORKLOADS.values():
        runs = [(seed, False) for seed in POOL]
        runs += [(int(argv[-1]), True) for argv in cycle(workload, SMOKE_SEED, tiny=True)]
        for seed, tiny in runs:
            code = cli.main(workload.argv(seed, tiny) + ["--out", str(out_csv)])
            if code != 0:
                print(f"{workload.name} seed {seed}: exit code {code}", file=sys.stderr)
                return 1
            references[reference_key(workload, seed, tiny)] = out_csv.read_text(encoding="ascii")
            print(reference_key(workload, seed, tiny), flush=True)
    with open(REFERENCE_FILE, "w", encoding="ascii") as fh:
        json.dump(references, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
