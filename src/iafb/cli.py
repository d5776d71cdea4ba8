"""Batch experiment runner: reproduces each headline result at desk scale.

Subcommands::

    volume-check       closed-form vs Monte Carlo ball volumes
    quantizer-scaling  distortion-vs-bits scaling exponent
    ia-run             one feedback -> alignment -> rate pipeline run
    dof-sweep          DoF slopes over a power grid x alpha list
    mimo-reduce        antenna-discarding reduction arithmetic

Every subcommand accepts ``--config FILE`` holding flat ``key=value``
lines (same keys as the long flags, dashes as underscores); explicit
flags override the file. All outputs are deterministic given the
resolved config and seed, byte for byte, regardless of ``--jobs``:
per-trial RNG streams are derived from (seed, trial index), and
Monte Carlo chunks from (seed, task, chunk).

Exit codes: 0 on pass, 1 when a built-in assertion fails or an alignment
build fails (a dropped dof-sweep trial, or ia-run's one build; the CSV is
still written, with a ``# failed trial=<t> reason=...`` line per failed
trial), 2 on a usage error. Every check
of the input raises `UsageError`, and `main` alone prints it and returns
2, before any channel draw, Monte Carlo chunk or codebook build and
before any output is written. Each option's domain sits in `_OPTIONS`
and holds for flags and ``--config`` values alike (every float must also
be finite); the checks that read several options, or an input file, run
at the top of their command.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import cache, partial

import numpy as np

from . import __version__
from .alignment import (
    ENGINES,
    build_beamformers,
    cj3_parameters,
    ia_parameters,
    mimo_reduce,
)
from .channel import (
    generate_channel,
    load_channel,
    receiver_feedback,
    reconstruct,
    save_channel,
    to_tone_domain,
)
from .grassmann import MC_CHUNK, ball_hit_count, ball_volume_normalized, sample_uniform
from .quantizer import (
    MAX_MATERIALIZED_BITS,
    FeedbackBudget,
    budget_distortions,
    build_random_codebook,
    distortion_oracle_quantize,
    distortion_scaling_exponent,
    save_codebook,
)
from .rates import CSV_COLUMNS, achievable_rates, dof_fit, interference_slope
from .rng import trial_generator, trial_normals


# --------------------------------------------------------------------------
# config plumbing


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters of one subcommand invocation."""

    command: str
    values: dict

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def comment_line(self) -> str:
        pairs = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.values.items()))
        return f"# iafb {__version__} | {self.command} | {pairs}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        if value and all(isinstance(v, tuple) for v in value):
            return ",".join(":".join(str(x) for x in v) for v in value)
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _parse_float_list(text: str):
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip())


def _parse_pair_list(text: str):
    return tuple((int(n), int(k)) for n, k in (tok.split(":") for tok in str(text).split(",") if tok.strip()))


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "floatlist": _parse_float_list,
    "pairlist": _parse_pair_list,
}


class UsageError(Exception):
    """An input the run cannot take: `main` prints it and returns 2."""


# Option domains. Each gets the flag and the parsed value, and returns why
# the value lies outside the domain, or "" if it does not.


def _at_least(low, flag, value):
    return "" if value >= low else f"{flag} must be >= {low}, got {value!r}"


# a gate threshold, which a negative value would make unpassable, or a
# seed, the entropy of every derived stream (see `trial_generator`)
_nonnegative = partial(_at_least, 0)


def _positive(flag, value):
    return "" if value > 0 else f"{flag} must be > 0, got {value!r}"


def _log2_power(flag, value):
    try:
        power = 2.0**value
    except OverflowError:
        power = math.inf
    return "" if 0.0 < power < math.inf else f"{flag} must give a finite positive power, got 2**{value!r} = {power!r}"


def _trials(flag, value):
    return "" if value >= 1 else f"need at least one trial, got {flag} {value}"


def _out_dir(flag, path):
    # an output path, or a prefix of several; "" writes nothing
    folder = os.path.dirname(path)
    return "" if not folder or os.path.isdir(folder) else f"{flag} {path}: no such directory {folder}"


def _out_file(flag, path):
    # an output file: a directory of that name cannot be opened for writing
    return f"{flag} {path}: is a directory, not a file" if os.path.isdir(path) else _out_dir(flag, path)


def _engine(flag, value):
    return "" if value in ENGINES else f"unknown engine {value!r}; choose from {', '.join(ENGINES)}"


def _feedback(command, modes, flag, value):
    return "" if value in modes else f"{command} supports feedback = {' | '.join(modes)}, got {value!r}"


def _manifolds(flag, pairs):
    if not pairs:
        return f"{flag} lists no n:K pair"
    return next((f"invalid manifold n={n}, K={K}" for n, K in pairs if n < 2 or K < 1), "")


def _radii(flag, deltas):
    if not deltas:
        return f"{flag} lists no radius"
    bad = [d for d in deltas if d < 0 or d * d > 1.0]
    return f"delta={bad[0]} outside the closed form's domain (need 0 <= delta <= 1)" if bad else ""


def _budgets(flag, bits):
    bad = [b for b in bits if not (float(b).is_integer() and 0 <= b <= MAX_MATERIALIZED_BITS)]
    if bad:
        shown = ", ".join(f"{b:g}" for b in bad)
        return f"bit budgets must be integers in [0, {MAX_MATERIALIZED_BITS}], got {shown}"
    return "" if len(set(bits)) >= 3 else "need at least three distinct bit budgets"


def _fractions(flag, alphas):
    shown = ", ".join(f"{a:g}" for a in alphas if not 0.0 <= a <= 1.0)
    return f"feedback fractions must lie in [0, 1], got {shown or 'none'}" if shown or not alphas else ""


def _user_choice(flag, value):
    if value != "all":
        try:
            int(value)
        except ValueError:
            return f"alpha_user must be 'all' or a user index, got {value!r}"
    return ""


def _grid_step(flag, value):
    return "" if value > 0 else f"the power grid step must be positive, got {flag} {value:g}"


# per-subcommand option tables: name -> (type key, default, help, domain or None)
_OPTIONS = {
    "volume-check": {
        "pairs": ("pairlist", ((2, 1), (2, 2), (3, 2), (2, 3)), "n:K manifold list", _manifolds),
        "deltas": ("floatlist", (0.3, 0.5, 0.8), "ball radii", _radii),
        "trials": ("int", 1_000_000, "Monte Carlo samples per (n, K, delta)", _trials),
        "seed": ("int", 0, "base seed", _nonnegative),
        "jobs": ("int", 1, "parallel workers", None),
        "sigmas": ("float", 3.0, "pass threshold in binomial standard errors", _nonnegative),
        "out": ("str", "volume_check.csv", "output CSV path", _out_file),
    },
    "quantizer-scaling": {
        # G_{n,1}^K has K(n-1) complex dimensions: n >= 2 and K >= 1 leave at least one
        "n": ("int", 2, "ambient dimension", partial(_at_least, 2)),
        "K": ("int", 1, "manifold components", partial(_at_least, 1)),
        "bits": ("floatlist", (4, 6, 8, 10, 12), "bit budgets", _budgets),
        "trials": ("int", 10_000, "sources per budget", _trials),
        "seed": ("int", 0, "base seed", _nonnegative),
        "tolerance": ("float", 0.2, "relative slope tolerance", _nonnegative),
        "codebook_out": ("str", "", "save each codebook to <prefix><bits>.txt", _out_dir),
        "out": ("str", "quantizer_scaling.csv", "output CSV path", _out_file),
    },
    "ia-run": {
        "K": ("int", 3, "users", None),
        "R": ("int", 1, "receive antennas", None),
        "L": ("int", 2, "channel taps", None),
        "n": ("int", 1, "auxiliary alignment parameter", None),
        "engine": ("str", "leakage-min", "leakage-min or cj3", _engine),
        "feedback": (
            "str", "perfect", "perfect, oracle, or codebook",
            partial(_feedback, "ia-run", ("perfect", "oracle", "codebook")),
        ),
        "bits": ("int", 8, "codebook bits (feedback=codebook)", None),
        "alpha": ("float", 1.0, "feedback scaling fraction (feedback=oracle)", None),
        "p_log2": ("float", 10.0, "log2 of the transmit power", _log2_power),
        "noise": ("float", 1.0, "noise power", _positive),
        "seed": ("int", 0, "base seed", _nonnegative),
        "align_tol": ("float", 1e-8, "alignment residual tolerance", _nonnegative),
        "c_min": ("float", 1e-6, "minimum desired-signal inner product", _nonnegative),
        "max_iters": ("int", 5000, "leakage-min iteration cap", None),
        "shared": ("int", 0, "1 = shared transmit directions per group", None),
        "channel_file": ("str", "", "load the channel from this archive", None),
        "save_channel": ("str", "", "write the drawn channel to this archive", _out_file),
        "out": ("str", "ia_run.csv", "output CSV path", _out_file),
    },
    "dof-sweep": {
        "K": ("int", 3, "users", None),
        "R": ("int", 1, "receive antennas", None),
        "L": ("int", 2, "channel taps", None),
        "n": ("int", 1, "auxiliary alignment parameter", None),
        "engine": ("str", "cj3", "leakage-min or cj3", _engine),
        "feedback": ("str", "oracle", "perfect or oracle", partial(_feedback, "dof-sweep", ("perfect", "oracle"))),
        "alphas": ("floatlist", (1.0,), "feedback fractions to sweep", _fractions),
        "alpha_user": ("str", "all", "'all' or a user index receiving alpha", _user_choice),
        "p_log2_min": ("float", 4.0, "grid start (log2)", _log2_power),
        "p_log2_max": ("float", 14.0, "grid end (log2, inclusive)", _log2_power),
        "p_log2_step": ("float", 1.0, "grid step (log2)", _grid_step),
        "trials": ("int", 20, "channel realizations per point", _trials),
        # under perfect CSI, 1e-9 places the default grid in the asymptotic
        # regime of the rate expression. Under oracle feedback the bounded
        # residual interference sets the floor instead, so the default grid
        # is pre-asymptotic there and the default run misses its sum-slope
        # gate (1.254 against 4/3)
        "noise": ("float", 1e-9, "noise power", _positive),
        "seed": ("int", 0, "base seed", _nonnegative),
        "jobs": ("int", 1, "parallel trial workers", None),
        "slope_tol": ("float", 0.1, "per-user slope tolerance", _nonnegative),
        "sum_slope_tol": ("float", 0.05, "sum-slope tolerance", _nonnegative),
        "align_tol": ("float", 1e-8, "alignment residual tolerance", _nonnegative),
        "max_iters": ("int", 5000, "leakage-min iteration cap", None),
        "out": ("str", "dof_sweep.csv", "output CSV path", _out_file),
    },
    "mimo-reduce": {
        "K": ("int", 3, "users", None),
        "Mt": ("int", 2, "transmit antennas", None),
        "Mr": ("int", 4, "receive antennas", None),
        "L": ("int", 1, "channel taps", None),
        "p_log2": ("float", 10.0, "log2 of the transmit power", _log2_power),
        "out": ("str", "", "optional JSON output path", _out_file),
    },
}


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line: {raw.rstrip()}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve_config(command: str, namespace: argparse.Namespace) -> ExperimentConfig:
    """The command's config: flags over ``--config`` values over defaults, each in its domain.

    Every float must be finite: a NaN compares false against every gate,
    so it would pass or fail one silently.
    """
    table = _OPTIONS[command]
    file_values = _load_config_file(namespace.config) if namespace.config else {}
    unknown = set(file_values) - set(table)
    if unknown:
        raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
    values = {}
    for name, (kind, default, _help, domain) in table.items():
        flag = "--" + name.replace("_", "-")
        value = getattr(namespace, name)
        if value is None and name in file_values:
            try:
                value = _PARSERS[kind](file_values[name])
            except ValueError as exc:
                raise UsageError(f"{flag}: {exc}") from None
        values[name] = value = default if value is None else value
        floats = (value,) if kind == "float" else value if kind == "floatlist" else ()
        if not all(map(math.isfinite, floats)):
            raise UsageError(f"{flag} must be finite, got {_fmt(value)}")
        error = domain(flag, value) if domain else ""
        if error:
            raise UsageError(error)
    return ExperimentConfig(command=command, values=values)


def _write_csv(path: str, config: ExperimentConfig, header, rows, trailer=()):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(config.comment_line() + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[col]) for col in header) + "\n")
        for line in trailer:
            fh.write(line + "\n")


def _map(fn, args, jobs: int) -> list:
    """[fn(a) for a in args], on up to `jobs` worker processes, never more than tasks or usable CPUs.

    The pool starts all its workers at the first task, so one with more
    workers than tasks would start processes that never work, and one with
    more workers than the CPUs this process may run on only adds processes
    that wait for a CPU. Tasks go out in about four batches per worker,
    the split `multiprocessing.Pool.map` uses, so many short tasks do not
    each pay a round trip to a worker. The pool's modules are imported
    only here, so a run on one worker never loads `concurrent.futures`
    or `multiprocessing`.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(args), cpus)
    if workers <= 1:
        return [fn(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args, chunksize=max(1, len(args) // (4 * workers))))


# --------------------------------------------------------------------------
# volume-check


def _volume_span_hits(args) -> int:
    """Hits of one task's chunks first..stop-1, drawn one chunk at a time.

    Chunk c holds MC_CHUNK samples (the task's last chunk the rest) from
    its own stream, trial_generator(seed, task, c), so a span's hits do not
    depend on how the chunks are split into spans.
    """
    n, K, delta, seed, task, trials, first, stop = args
    return sum(
        ball_hit_count(n, K, delta, min(MC_CHUNK, trials - c * MC_CHUNK), trial_generator(seed, task, c))
        for c in range(first, stop)
    )


def cmd_volume_check(config: ExperimentConfig) -> int:
    tasks = [(n, K, delta) for n, K in config.pairs for delta in config.deltas]
    # each task's chunks in at most `jobs` spans of consecutive chunks: the
    # work list does not grow with --trials, and each worker draws its
    # chunks lazily
    chunks = -(-config.trials // MC_CHUNK)
    spans = min(chunks, max(1, config.jobs))
    jobs_args = [
        (n, K, delta, config.seed, t_idx, config.trials, chunks * s // spans, chunks * (s + 1) // spans)
        for t_idx, (n, K, delta) in enumerate(tasks)
        for s in range(spans)
    ]

    hits = [0] * len(tasks)
    for args, h in zip(jobs_args, _map(_volume_span_hits, jobs_args, config.jobs)):
        hits[args[4]] += h

    # each cell is gated at `sigmas` binomial standard errors on its own.
    # Under the normal approximation a 3-sigma gate fails a correct closed
    # form with probability 0.0027 per cell, so the 12 cells of the default
    # grid fail one or more with probability 1 - (1 - 0.0027)**12, about
    # 3.2%: at --trials 200000 and seed 0, cell (3, 2, 0.8) lands at 3.05
    # sigma. The gate is not widened for it.
    rows, all_ok = [], True
    for t_idx, (n, K, delta) in enumerate(tasks):
        analytic = ball_volume_normalized(n, K, delta)
        empirical = hits[t_idx] / config.trials
        stderr = math.sqrt(max(analytic * (1.0 - analytic), 1e-300) / config.trials)
        z = abs(empirical - analytic) / stderr
        ok = z <= config.sigmas
        all_ok &= ok
        rows.append(
            {
                "n": n, "K": K, "delta": delta, "analytic": analytic,
                "empirical": empirical, "stderr": stderr, "z": z, "ok": int(ok),
            }
        )
    _write_csv(config.out, config, ("n", "K", "delta", "analytic", "empirical", "stderr", "z", "ok"), rows)
    return 0 if all_ok else 1


# --------------------------------------------------------------------------
# quantizer-scaling


def cmd_quantizer_scaling(config: ExperimentConfig) -> int:
    bits_list = [int(b) for b in config.bits]
    rows = []
    save = (lambda cb: save_codebook(cb, f"{config.codebook_out}{cb.bits}.txt")) if config.codebook_out else None
    budgets = budget_distortions(
        config.n, config.K, bits_list, config.trials, trial_generator(config.seed, 0), save
    )
    for bits, dists in zip(bits_list, budgets):
        rows.append(
            {
                "n": config.n, "K": config.K, "bits": bits,
                "mean_sq_distortion": float(dists.mean()),
                "max_sq_distortion": float(dists.max()),
                "trials": config.trials,
            }
        )
    slope = distortion_scaling_exponent(
        config.n, config.K, bits_list, config.trials, trial_generator(config.seed, 1)
    )
    target = -1.0 / (config.K * (config.n - 1))
    ok = abs(slope - target) <= config.tolerance * abs(target)
    trailer = [f"# slope={slope!r} target={target!r} ok={int(ok)}"]
    _write_csv(
        config.out, config,
        ("n", "K", "bits", "mean_sq_distortion", "max_sq_distortion", "trials"),
        rows, trailer,
    )
    return 0 if ok else 1


# --------------------------------------------------------------------------
# shared pipeline pieces


def _make_params(K, R, L, n, engine):
    if engine == "cj3":
        if (K, R) != (3, 1):
            raise ValueError(f"the cj3 engine is specific to K=3, R=1, got K={K}, R={R}")
        return cj3_parameters(n)
    return ia_parameters(K, R, n)


# The most complex entries a sizing's K^2 dense R*N x N link matrices,
# leakage-min's working set, may hold: 2^26, or 1 GiB of complex128. The
# largest sizing in use, K=4 R=2 n=1 (N=768), takes 18.9 million (302 MB);
# the next, K=4 R=1 n=2 (N=13,122), would take 2.75 billion (44 GB), and
# K=5 n=1 (N=65,536) 107 billion.
MAX_DENSE_ENTRIES = 1 << 26


def _pipeline_params(config: ExperimentConfig):
    """ia-run's or dof-sweep's sizing; a UsageError if R*L < 2, the engine cannot size it, or N < L or N is too large.

    A fed-back direction is a line in C^(R*L), so R*L = 1 has none. The
    tone transform zero-pads L taps to N tones, which needs N >= L (cj3 at
    n = 1 has N = 3). A sizing whose dense link matrices exceed
    `MAX_DENSE_ENTRIES` is refused for either engine, before anything is
    allocated. leakage-min's N = (R+1)(n+1)^gamma, gamma = K R (K-R-1),
    has about gamma log2(n+1) bits (10^8 at K=10,000 n=2), so the entry
    count's log2 is bounded in floating point before `ia_parameters` forms
    any power. That bound refuses only sizings more than twice over the
    cap, so rounding in the logarithms cannot refuse one that the exact
    count admits.
    """
    K, R, n = config.K, config.R, config.n
    if R * config.L < 2:
        raise UsageError(f"need R*L >= 2 to feed back a direction, got --R {R} --L {config.L}")
    if config.engine == "leakage-min" and K > R >= 1 and n >= 1:
        log2_tones = math.log2(R + 1) + K * R * (K - R - 1) * math.log2(n + 1)
        log2_entries = 2.0 * math.log2(K) + math.log2(R) + 2.0 * log2_tones
        if log2_entries > math.log2(MAX_DENSE_ENTRIES) + 1.0:
            raise UsageError(
                f"the sizing K={K} R={R} n={n} has N=2^{log2_tones:.1f} tones, whose dense link matrices "
                f"hold 2^{log2_entries:.1f} complex entries, more than the {MAX_DENSE_ENTRIES:,} allowed"
            )
    try:
        params = _make_params(K, R, config.L, n, config.engine)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if params.N < config.L:
        raise UsageError(f"the sizing K={K} R={R} n={n} has N={params.N} tones, fewer than the --L {config.L} taps")
    entries = params.K**2 * params.R * params.N**2
    if entries > MAX_DENSE_ENTRIES:
        raise UsageError(
            f"the sizing K={K} R={R} n={n} has N={params.N} tones, whose dense link "
            f"matrices hold {entries:,} complex entries, more than the {MAX_DENSE_ENTRIES:,} allowed"
        )
    return params


def _oracle_rows(exact: np.ndarray, delta_sq: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Oracle feedback of (M, K, R*L) exact directions, one squared radius and normal draw per row.

    ``normals`` holds each row's (2, K, R*L) standard normals. A NaN
    radius marks a user who feeds back nothing: that row is the uniformly
    random estimate its normals give. Every other row is
    `distortion_oracle_quantize` of its exact directions.
    """
    fed = exact.copy()
    silent = np.isnan(delta_sq)
    if silent.any():
        fed[silent] = sample_uniform(exact.shape[-1], exact.shape[-2], normals[silent])
    if not silent.all():
        fed[~silent] = distortion_oracle_quantize(exact[~silent], delta_sq[~silent], normals[~silent])
    return fed


def _oracle_radii(K: int, R: int, L: int, P: float, user_alphas) -> list:
    """One point's oracle radii `FeedbackBudget.delta_star`, one per user; NaN for a silent (alpha 0) user.

    Each distinct alpha's budget is built once, for the (K, R*L)
    directions its users feed back.
    """
    radius = {al: FeedbackBudget(K=K, R=R, L=L, P=P, alpha=al).delta_star for al in set(user_alphas) if al}
    return [radius.get(al, math.nan) for al in user_alphas]


def _channel_normals(config: ExperimentConfig, trials: range) -> np.ndarray:
    """Each trial's channel normals, (T, 2, K, K, L, R), trial t's from stream (seed, t)."""
    K, R, L = config.K, config.R, config.L
    return trial_normals(config.seed, np.arange(trials.start, trials.stop)[:, None], (K, K, L, R))


def _rate_rows(config: ExperimentConfig, P: float, alpha: float, stats: np.ndarray) -> list:
    """The CSV_COLUMNS rows of one (power, alpha) point from its (K, 5) user stats."""
    return [
        {
            "seed": config.seed, "K": config.K, "R": config.R, "L": config.L, "n": config.n,
            "P_log2": math.log2(P), "alpha": alpha, "user": i, "rate": float(s[0]),
            "I1": float(s[1]), "I2": float(s[2]), "signal": float(s[3]),
        }
        for i, s in enumerate(stats)
    ]


def _evaluate(config: ExperimentConfig, params, taps: np.ndarray, fed: np.ndarray, P, rngs, **build):
    """Align a block's elements against their fed-back directions and rate each on its trial's true channel.

    ``taps`` holds the block's T true channels, (T, K, K, L, R), and ``fed``
    its elements' fed-back directions, (T*E, K, K, R*L), element e of trial
    t in row t*E + e. One reconstruction FFT and one batched
    `build_beamformers` call serve every element, with ``rngs`` as its
    `rng` (leakage-min's generators) and `build` as further options. One
    `achievable_rates` call rates each element on its trial's tones at `P`,
    which broadcasts against the elements. Returns the stats, the
    `BeamformerSet` and each trial's failure: the AlignmentError of its
    first failing element, or None.
    """
    tones = to_tone_domain(taps, params.N)
    bf = build_beamformers(
        reconstruct(fed, params.N, R=config.R), params, config.engine,
        tol=config.align_tol, max_iters=config.max_iters, rng=rngs, **build,
    )
    per_trial = len(fed) // len(taps)
    stats = achievable_rates(np.repeat(tones, per_trial, axis=0), bf, P, config.noise)
    failures = [
        next((f for f in bf.failures[t * per_trial : (t + 1) * per_trial] if f is not None), None)
        for t in range(len(taps))
    ]
    return stats, bf, failures


# --------------------------------------------------------------------------
# ia-run


def _fed_back(taps: np.ndarray, config: ExperimentConfig, P: float) -> np.ndarray:
    """ia-run's fed-back directions of its (K, K, L, R) taps, (K, K, R*L).

    Oracle user i draws from trial_generator(seed, 1009 + i); codebook
    user i quantizes with the codebook of seed `seed + i`, built as it is read.
    """
    K, R, L = config.K, config.R, config.L
    if config.feedback == "codebook":
        codebooks = (build_random_codebook(R * L, K, config.bits, seed=config.seed + i) for i in range(K))
        return receiver_feedback(taps, codebooks)
    exact = receiver_feedback(taps)
    if config.feedback == "perfect":
        return exact
    delta_sq = np.square(_oracle_radii(K, R, L, P, [config.alpha] * K))
    keys = 1009 + np.arange(K)[:, None]
    return _oracle_rows(exact, delta_sq, trial_normals(config.seed, keys, (K, R * L)))


def cmd_ia_run(config: ExperimentConfig) -> int:
    params = _pipeline_params(config)
    if config.feedback == "oracle" and not 0.0 <= config.alpha <= 1.0:
        raise UsageError(f"the feedback fraction must lie in [0, 1], got --alpha {config.alpha:g}")
    if config.feedback == "codebook" and not 0 <= config.bits <= MAX_MATERIALIZED_BITS:
        raise UsageError(f"codebook bits must lie in [0, {MAX_MATERIALIZED_BITS}], got --bits {config.bits}")
    if config.engine == "cj3" and config.shared:
        raise UsageError(f"the cj3 construction has no shared-direction variant, got --shared {config.shared}")
    if config.channel_file:
        try:
            taps = load_channel(config.channel_file)
        except FileNotFoundError:
            raise UsageError(f"channel file not found: {config.channel_file}") from None
        except (OSError, ValueError) as exc:
            raise UsageError(f"malformed channel file {config.channel_file}: {exc}") from None
        if taps.shape != (config.K, config.K, config.L, config.R):
            raise UsageError("channel file dimensions do not match the configuration")
    else:
        # trial 0's channel, drawn as dof-sweep draws it
        taps = generate_channel(config.K, config.R, config.L, _channel_normals(config, range(1))[0])
    if config.save_channel:
        save_channel(taps, config.save_channel)

    # one trial at one point: a block of one element
    P = 2.0**config.p_log2
    stats, bf, (failure,) = _evaluate(
        config, params, taps[None], _fed_back(taps, config, P)[None], P, [trial_generator(config.seed, 2)],
        c_min=config.c_min, shared=bool(config.shared),
    )
    if failure is not None:
        _write_csv(config.out, config, CSV_COLUMNS, [], [f"# failed trial=0 reason={failure}"])
        return 1
    rows = _rate_rows(config, P, config.alpha, stats[0])
    trailer = [
        f"# alignment_residual={float(bf.alignment_residual[0])!r}",
        f"# signal_min={float(bf.signal_min[0])!r}",
        f"# rate_sum={float(stats[0, :, 0].sum())!r}",
    ]
    _write_csv(config.out, config, CSV_COLUMNS, rows, trailer)
    return 0


# --------------------------------------------------------------------------
# dof-sweep


@dataclass(frozen=True)
class SweepResult:
    """Per-trial statistics of one dof-sweep run.

    ``stats`` has shape (trial, alpha, P, user, 5) and holds the trials
    that completed, in trial order. Per user the five stats are the rate,
    the worst stream's I1 and I2, the weakest stream's signal, and the
    worst stream's total interference (`rates.achievable_rates`).
    ``failures`` lists (trial, reason) for every trial dropped because
    alignment failed.
    """

    grid: list
    stats: np.ndarray
    failures: list


def _user_alphas(config: ExperimentConfig, alpha: float) -> list:
    if config.alpha_user == "all":
        return [alpha] * config.K
    alphas = [1.0] * config.K
    alphas[int(config.alpha_user)] = alpha
    return alphas


def _oracle_feedback(config: ExperimentConfig, trials: range, exact: np.ndarray, grid) -> np.ndarray:
    """Oracle-quantized directions of a block's elements, (T*A*J, K, K, R*L).

    ``exact`` holds each trial's exact directions, (T, K, K, R*L). Element
    (t, a, j), the trial ``trials[t]`` at point (a, j), is row (t*A + a)*J + j.
    Its user i draws from its own stream,
    trial_generator(seed, (trial*100_000 + a*1_000 + j)*1009 + i); a user
    with alpha = 0 is silent (see `_oracle_rows`). The block's keys are
    formed as one integer array, by broadcasting over (trial, a, j, i),
    and one `trial_normals` call draws every stream's normals (a key
    passes 2^32, and takes two seed words, from trial 43 on). Each
    (alpha, power) point's squared radii are computed once and tiled over
    the trials.
    """
    K, R, L = config.K, config.R, config.L
    radii = []
    for alpha in config.alphas:
        user_alphas = _user_alphas(config, alpha)
        for P in grid:
            radii += _oracle_radii(K, R, L, P, user_alphas)
    points = len(config.alphas) * len(grid)
    t, a, j, i = np.ix_(
        np.arange(trials.start, trials.stop), np.arange(len(config.alphas)), np.arange(len(grid)), np.arange(K)
    )
    keys = ((t * 100_000 + a * 1_000 + j) * 1009 + i).reshape(-1, 1)
    rows = np.repeat(exact, points, axis=0).reshape(-1, K, R * L)
    delta_sq = np.tile(np.square(radii), len(trials))
    fed = _oracle_rows(rows, delta_sq, trial_normals(config.seed, keys, (K, R * L)))
    return fed.reshape(-1, K, K, R * L)


def _block_stats(config: ExperimentConfig, trials: range):
    """A block of trials: per-(trial, alpha, P, user) stats, (T, A, J, K, 5), and each trial's failure.

    Every stage runs once over the block's trial x alpha x power elements:
    one channel draw and one direction pass, one oracle call, then `_evaluate`'s
    channel FFT, reconstruction FFT, batched build and batched rate
    evaluation, with the draws of the point-by-point pipeline (see
    `_oracle_feedback`). Perfect feedback is the same at every point, so it
    builds once per trial and evaluates every power from one set of
    couplings. A trial's failure is the AlignmentError of its first failing
    element in (alpha, power) order, or None; a failed trial's stats are
    those of zero beamformers and mean nothing.
    """
    K, R, L = config.K, config.R, config.L
    params = _make_params(K, R, L, config.n, config.engine)
    grid = _power_grid(config)
    T = len(trials)
    taps = generate_channel(K, R, L, _channel_normals(config, trials))
    exact = receiver_feedback(taps)
    if config.feedback == "perfect":
        # powers on their own leading axis: rates come out (J, T, K, 5)
        fed, P = exact, np.array(grid)[:, None]
    else:
        fed, P = _oracle_feedback(config, trials, exact, grid), np.tile(grid, T * len(config.alphas))
    rngs = None
    if config.engine == "leakage-min":
        # every point of a trial starts leakage-min from its own copy of one stream
        rngs = [trial_generator(config.seed, 7_000_000 + t) for t in trials for _ in range(len(fed) // T)]
    stats, _, failures = _evaluate(config, params, taps, fed, P, rngs)
    if config.feedback == "perfect":
        stats = np.moveaxis(stats, 0, 1)
    shape = (T, len(config.alphas), len(grid), K, 5)
    return np.broadcast_to(stats.reshape(T, -1, *shape[2:]), shape).copy(), failures


def _sweep_block(args):
    """(stats, failures) of a block: the completed trials' stats and (trial, reason) per dropped one."""
    values, trials = args
    stats, failures = _block_stats(ExperimentConfig("dof-sweep", values), trials)
    ok = [f is None for f in failures]
    return stats[ok], [(t, str(f)) for t, f in zip(trials, failures) if f is not None]


# trial x alpha x power elements in one pass of `_block_stats`, at most.
# Each pass pays a fixed cost, and its memory grows with its elements (the
# oracle's normals take 96 B per element and user; no generator outlives
# its row). Curve on the feedback-sweep argv (20 trials of 33 elements;
# median ms per invocation over runs of 30, traced peak MiB, process peak
# RSS MB; one BLAS thread, 2-core shared VM): 200 elements (four blocks of
# 5 trials) 29-47, 0.66, 39.1; 330 (two of 10) 25-36, 1.24, 39.0; 660
# (one block) 28-36, 2.38, 39.9. The traced peak grows about 3.5 KiB per
# element, so a block of 396 (12 trials) would reach about 1.47 MiB, at
# `test_block_bounds_peak_memory`'s 1.5 MiB bound; past 330 the time no
# longer falls while the traced memory doubles.
SWEEP_BLOCK = 330


# the oracle stream tag trial*100_000 + a*1_000 + j (see `_oracle_feedback`)
# gives each alpha 1,000 grid slots: a longer grid would hand two points one
# stream. A slope fit needs a few dozen points. Checking the count before
# the grid is built also turns a mistyped step into a usage error instead
# of a list that exhausts memory.
MAX_GRID_POINTS = 1_000


def _grid_size(config):
    """The power grid's point count, without building it; inf if the count overflows."""
    span = max((config.p_log2_max - config.p_log2_min) / config.p_log2_step, -1.0)
    return round(span) + 1 if span < math.inf else math.inf


def _power_grid(config):
    lo, step = config.p_log2_min, config.p_log2_step
    return [2.0 ** (lo + i * step) for i in range(_grid_size(config))]


# (trial, alpha, power, user, stat) float64 entries that dof-sweep's stats
# may hold: 2^26, or 512 MiB, twice that while the blocks' arrays are joined
# (the 1 GiB of `MAX_DENSE_ENTRIES`). The feedback-sweep grid (3 alphas x
# 11 powers x 3 users x 5 stats) reaches it at 135,573 trials, about 7
# minutes of work at 20 trials per 60 ms; the default grid at 406,720.
MAX_SWEEP_STATS = 1 << 26


def run_dof_sweep(config: ExperimentConfig) -> SweepResult:
    """Run dof-sweep's trials in blocks on `config.jobs` workers; gates and CSV aside.

    The trials split into the fewest blocks of whole trials that hold at
    most `SWEEP_BLOCK` elements each (one trial at least), as even as
    possible. Each trial's random streams derive from (seed, trial), so
    the result depends neither on the worker count nor on the block split.
    """
    grid = _power_grid(config)
    T = config.trials
    per_block = max(1, SWEEP_BLOCK // (len(config.alphas) * len(grid)))
    count = -(-T // per_block)
    blocks = [range(T * b // count, T * (b + 1) // count) for b in range(count)]
    results = _map(_sweep_block, [(config.values, b) for b in blocks], config.jobs)
    return SweepResult(
        grid=grid,
        stats=np.concatenate([stats for stats, _ in results]),
        failures=[f for _, failures in results for f in failures],
    )


def cmd_dof_sweep(config: ExperimentConfig) -> int:
    params = _pipeline_params(config)
    if config.alpha_user != "all" and not 0 <= int(config.alpha_user) < config.K:
        raise UsageError(f"alpha_user {config.alpha_user} out of range")
    points = _grid_size(config)
    if points > MAX_GRID_POINTS:
        raise UsageError(
            f"the power grid 2^{config.p_log2_min:g}..2^{config.p_log2_max:g} in steps of "
            f"{config.p_log2_step:g} has {points:g} points, more than the {MAX_GRID_POINTS} allowed"
        )
    try:
        _power_grid(config)
    except OverflowError:
        raise UsageError(
            f"the power grid overflows: its last point lies up to half a step past --p-log2-max {config.p_log2_max:g}"
        ) from None
    if points < 3:
        raise UsageError(
            f"a slope fit needs at least 3 power points, the grid 2^{config.p_log2_min:g}.."
            f"2^{config.p_log2_max:g} in steps of {config.p_log2_step:g} has {points}"
        )
    entries = config.trials * len(config.alphas) * points * config.K * 5
    if entries > MAX_SWEEP_STATS:
        raise UsageError(
            f"--trials {config.trials} over {len(config.alphas)} alphas x {points} powers x {config.K} users "
            f"gives {entries:,} stats entries, more than the {MAX_SWEEP_STATS:,} allowed"
        )

    result = run_dof_sweep(config)
    grid = result.grid
    failed = [f"# failed trial={t} reason={reason}" for t, reason in result.failures]
    if not len(result.stats):
        _write_csv(config.out, config, CSV_COLUMNS, [], failed)
        return 1
    mean_stats = result.stats.mean(axis=0)                   # (alpha, P, user, 5)
    rates = mean_stats[..., 0]
    # worst over trials of worst-stream I1 plus worst-stream I2, per (alpha, P, user)
    worst = (result.stats[..., 1] + result.stats[..., 2]).max(axis=0)

    rows, trailer, all_ok = [], [], not failed
    for a, alpha in enumerate(config.alphas):
        for j, P in enumerate(grid):
            rows += _rate_rows(config, P, alpha, mean_stats[a, j])
        for i in range(config.K):
            slope = dof_fit(zip(grid, rates[a, :, i]))
            share = _user_alphas(config, alpha)[i] if config.feedback == "oracle" else 1.0
            expected = share * params.dof_target(i)
            ok = abs(slope - expected) <= config.slope_tol
            all_ok &= ok
            trailer.append(
                f"# slope alpha={alpha!r} user={i} slope={slope!r} "
                f"expected={expected!r} ok={int(ok)}"
            )
        sum_slope = dof_fit(zip(grid, rates[a].sum(axis=1)))
        if config.alpha_user == "all":
            expected_sum = (alpha if config.feedback == "oracle" else 1.0) * sum(
                params.dof_target(i) for i in range(config.K)
            )
            ok = abs(sum_slope - expected_sum) <= config.sum_slope_tol
            all_ok &= ok
            trailer.append(
                f"# slope alpha={alpha!r} user=sum slope={sum_slope!r} "
                f"expected={expected_sum!r} ok={int(ok)}"
            )
        else:
            # single-user alpha: the per-user checks above are the contract
            trailer.append(f"# slope alpha={alpha!r} user=sum slope={sum_slope!r}")
        slope = interference_slope(zip(grid, worst[a].max(axis=1)))
        trailer.append(f"# interference alpha={alpha!r} slope={slope!r}")
    _write_csv(config.out, config, CSV_COLUMNS, rows, trailer + failed)
    return 0 if all_ok else 1


# --------------------------------------------------------------------------
# mimo-reduce


def cmd_mimo_reduce(config: ExperimentConfig) -> int:
    try:
        red = mimo_reduce(config.K, config.Mt, config.Mr, config.L, 2.0**config.p_log2)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    text = json.dumps(asdict(red), indent=2, sort_keys=True)
    if config.out:
        with open(config.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# --------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "volume-check": cmd_volume_check,
    "quantizer-scaling": cmd_quantizer_scaling,
    "ia-run": cmd_ia_run,
    "dof-sweep": cmd_dof_sweep,
    "mimo-reduce": cmd_mimo_reduce,
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="iafb",
        description="interference alignment under finite-rate feedback: experiment runner",
    )
    parser.add_argument("--version", action="version", version=f"iafb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key=value config file")
        for name, (kind, _default, help_text, _domain) in table.items():
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, type=_PARSERS[kind], default=None, help=help_text)
    return parser


def parse_config(argv=None) -> ExperimentConfig:
    """Resolve a command line and its ``--config`` file as `main` does; a bad input raises `UsageError`."""
    namespace = _build_parser().parse_args(argv)
    return _resolve_config(namespace.command, namespace)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        return _COMMANDS[config.command](config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
