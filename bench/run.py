"""Closed-loop benchmark of the ``iafb`` CLI.

Run from the root of a source checkout::

    python3 bench/run.py --workload align-leakage --seed 0 --seconds 27 --trace 0
    python3 bench/run.py --workload all            # every workload, both modes

One process drives ``iafb.cli.main(argv)`` for one workload, with
``--jobs 1`` and every BLAS/OpenMP pool pinned to one thread before numpy
is imported. The run repeats the workload's argv cycle (see
``workloads.py``) until ``--seconds`` is nearly spent, always in whole
cycles, and checks every invocation's outputs against the CLI's own gate,
the CSV column contract and the recorded reference values.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced cycle with a traced one (layer wrappers from ``tracer.py``) and
prints the per-layer metrics, as means per traced invocation, with
``trace.overhead_s`` (traced minus untraced wall per invocation).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record, with the
environment and every invocation, goes to ``.bench_out/BENCH_*.json``;
``python3 bench/compare.py PARENT_DIR CHANGE_DIR`` compares two sets of
them. The benchmark's own tests: ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path

from tracer import Tracer, per_layer_metrics, self_times
from workloads import WORKLOADS, check_output, cycle, load_references, reference_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# fresh interpreters timed per run, half before the measured loop and
# half after it, so that the median spans the run's changes in machine
# speed; one more, uncounted, writes the bytecode caches first
SETUP_REPEATS = 10

SETUP_CODE = (
    "import time; t = time.perf_counter(); import iafb.cli; "
    "print(repr(time.perf_counter() - t))"
)

END_TO_END_UNITS = {"setup_s": "s", "units_per_s": "1/s", "unit_p50_s": "s", "peak_rss_mb": "MB"}


def pin_threads(count: int) -> None:
    """Set every BLAS/OpenMP thread count; must run before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is already imported; thread pins would not apply")
    for var in THREAD_VARS:
        os.environ[var] = str(count)


def import_cli():
    """Import ``iafb.cli`` from this checkout's sources."""
    if not (SRC / "iafb" / "cli.py").is_file():
        raise FileNotFoundError(f"no iafb sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from iafb import cli

    if Path(cli.__file__).resolve().parent != (SRC / "iafb").resolve():
        raise ImportError(f"iafb imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(repeats: int) -> list:
    """Import times of ``iafb.cli`` in `repeats` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout))
    return samples


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def invoke(cli, workload, argv, out_csv: Path, reference, tiny: bool) -> dict:
    """Run one CLI invocation; any failure becomes a recorded reason."""
    out_csv.unlink(missing_ok=True)
    stderr = io.StringIO()
    code, reason, trace = None, "", ""
    start = time.perf_counter()
    try:
        with redirect_stderr(stderr):
            code = cli.main(argv + ["--out", str(out_csv)])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:
        reason, trace = f"{type(exc).__name__}: {exc}", traceback.format_exc()
    wall = time.perf_counter() - start
    if not reason:
        if not out_csv.is_file():
            reason = f"no CSV written (exit code {code}) {stderr.getvalue().strip()}"
        else:
            try:
                check_output(workload, code, out_csv.read_text(encoding="ascii"), reference)
            except ValueError as exc:  # OutputError, or a cell that is not a number
                reason = f"{type(exc).__name__}: {exc}"
    return {
        "argv": argv, "wall_s": wall, "ok": not reason, "reason": reason, "traceback": trace,
        "units": workload.units(tiny) if not reason else 0,
    }


def run_cycles(cli, workload, seed: int, seconds: float, tracer=None, tiny: bool = False):
    """Repeat the workload's cycle in whole blocks until `seconds` is nearly spent.

    A block is one cycle, or with a tracer an untraced cycle followed by
    the same cycle traced. Another block starts only while half of the
    last one still fits, so a run overshoots `seconds` by at most half a
    block and always runs at least one.
    """
    references = load_references()
    argvs = cycle(workload, seed, tiny)
    OUT.mkdir(exist_ok=True)
    out_csv = OUT / f"{workload.name}-s{seed}.csv"
    records = []
    t0 = time.perf_counter()
    for block in itertools.count():
        block_start = time.perf_counter()
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
            try:
                for argv in argvs:
                    if traced:
                        tracer.invocation = len(records)
                    ref = references.get(reference_key(workload, int(argv[-1]), tiny))
                    record = invoke(cli, workload, argv, out_csv, ref, tiny)
                    record["traced"] = traced
                    record["block"] = block
                    records.append(record)
            finally:
                if traced:
                    tracer.remove()
        now = time.perf_counter()
        if now - t0 + 0.5 * (now - block_start) >= seconds:
            return records


def tail(walls: list):
    """Highest percentile with at least ten invocations beyond it."""
    if len(walls) < 11:
        return None
    ordered = sorted(walls)
    k = len(ordered) - 11
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / len(ordered), "count": len(ordered)}


def end_to_end(records: list, setup: list) -> tuple:
    """End-to-end metrics of an untraced run.

    ``units_per_s`` is the median over cycles of a cycle's units over its
    wall time: a cycle does the same work in every run, and the median
    keeps one cycle slowed by a neighbour on the machine from moving it.
    """
    walls = [r["wall_s"] for r in records]
    blocks = {}
    for r in records:
        units, wall = blocks.get(r["block"], (0, 0.0))
        blocks[r["block"]] = (units + r["units"], wall + r["wall_s"])
    metrics = {
        "setup_s": statistics.median(setup),
        "units_per_s": statistics.median(units / wall for units, wall in blocks.values()),
        "unit_p50_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "unit_tail_s": tail(walls),
        "fail_ratio": sum(not r["ok"] for r in records) / len(records),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, extra


def layer_report(records: list, tracer: Tracer) -> dict:
    traced = {i: r["wall_s"] for i, r in enumerate(records) if r["traced"]}
    untraced = [r["wall_s"] for r in records if not r["traced"]]
    overhead = (sum(traced.values()) - sum(untraced)) / len(traced)
    return per_layer_metrics(self_times(tracer.spans, traced), len(traced), overhead)


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full result record."""
    workload = WORKLOADS[workload_name]
    setup = [] if trace else measure_setup(1 + SETUP_REPEATS // 2)[1:]
    cli = import_cli()
    tracer = Tracer() if trace else None
    records = run_cycles(cli, workload, seed, seconds, tracer, tiny)
    if not trace:
        setup += measure_setup(SETUP_REPEATS - len(setup))
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "unit": workload.unit, "environment": environment(seed),
        "cycle": cycle(workload, seed, tiny), "setup_samples_s": setup,
    }
    if trace:
        result["metrics"] = layer_report(records, tracer)
        tracer.write(OUT / f"spans_{workload.name}-s{seed}.jsonl")
    else:
        result["metrics"], extra = end_to_end(records, setup)
        result.update(extra)
    result["attempted"] = len(records)
    result["failed"] = sum(not r["ok"] for r in records)
    result["invocations"] = records
    with open(OUT / f"BENCH_{workload.name}-s{seed}-t{int(trace)}.json", "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name:20s} {metric:28s} {entry['value']:14.6g} {entry['unit']}")
    if not result["trace"]:
        t = result["unit_tail_s"]
        if t is None:
            print(f"{name:20s} {'unit_tail_s':28s} {'n/a':>14s} s  ({result['attempted']} invocations, needs 11)")
        else:
            print(f"{name:20s} {'unit_tail_s':28s} {t['value']:14.6g} s  (p{t['percentile']:.1f} of {t['count']})")
        print(f"{name:20s} {'fail_ratio':28s} {result['fail_ratio']:14.6g} ratio")
    for r in result["invocations"]:
        if not r["ok"]:
            print(f"{name:20s} FAILED {' '.join(r['argv'])}: {r['reason']}")
    print(json.dumps({
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
    }))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own fresh interpreter, untraced then traced."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, timeout=600,
            )
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=27.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "iafb" / "cli.py").is_file():
        print(f"error: no iafb sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    pin_threads(1)
    print_result(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
