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

Exit codes: 0 on pass, 1 when a built-in assertion fails or a dof-sweep
trial is dropped (data is still written), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .alignment import (
    AlignmentError,
    build_beamformers,
    cj3_parameters,
    ia_parameters,
    mimo_reduce,
)
from .channel import (
    FeedbackMessage,
    generate_channel,
    load_channel,
    receiver_feedback,
    reconstruct,
    save_channel,
)
from .grassmann import MC_CHUNK, BallVolumeSpec, ball_hit_count, ball_volume_normalized, sample_uniform
from .quantizer import (
    FeedbackBudget,
    build_random_codebook,
    distortion_scaling_exponent,
    measure_distortion,
    save_codebook,
)
from .rates import CSV_COLUMNS, achievable_rates, dof_fit, interference_boundedness, rate_csv_rows
from .rng import trial_generator


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
    pairs = []
    for tok in str(text).split(","):
        if not tok.strip():
            continue
        n, k = tok.split(":")
        pairs.append((int(n), int(k)))
    return tuple(pairs)


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "floatlist": _parse_float_list,
    "pairlist": _parse_pair_list,
}

# per-subcommand option tables: name -> (type key, default, help)
_OPTIONS = {
    "volume-check": {
        "pairs": ("pairlist", ((2, 1), (2, 2), (3, 2), (2, 3)), "n:K manifold list"),
        "deltas": ("floatlist", (0.3, 0.5, 0.8), "ball radii"),
        "trials": ("int", 1_000_000, "Monte Carlo samples per (n, K, delta)"),
        "seed": ("int", 0, "base seed"),
        "jobs": ("int", 1, "parallel workers"),
        "sigmas": ("float", 3.0, "pass threshold in binomial standard errors"),
        "out": ("str", "volume_check.csv", "output CSV path"),
    },
    "quantizer-scaling": {
        "n": ("int", 2, "ambient dimension"),
        "K": ("int", 1, "manifold components"),
        "bits": ("floatlist", (4, 6, 8, 10, 12), "bit budgets"),
        "trials": ("int", 10_000, "sources per budget"),
        "seed": ("int", 0, "base seed"),
        "tolerance": ("float", 0.2, "relative slope tolerance"),
        "codebook_out": ("str", "", "save each codebook to <prefix><bits>.txt"),
        "out": ("str", "quantizer_scaling.csv", "output CSV path"),
    },
    "ia-run": {
        "K": ("int", 3, "users"),
        "R": ("int", 1, "receive antennas"),
        "L": ("int", 2, "channel taps"),
        "n": ("int", 1, "auxiliary alignment parameter"),
        "engine": ("str", "leakage-min", "leakage-min or cj3"),
        "feedback": ("str", "perfect", "perfect, oracle, or codebook"),
        "bits": ("int", 8, "codebook bits (feedback=codebook)"),
        "alpha": ("float", 1.0, "feedback scaling fraction (feedback=oracle)"),
        "p_log2": ("float", 10.0, "log2 of the transmit power"),
        "noise": ("float", 1.0, "noise power"),
        "seed": ("int", 0, "base seed"),
        "align_tol": ("float", 1e-8, "alignment residual tolerance"),
        "c_min": ("float", 1e-6, "minimum desired-signal inner product"),
        "max_iters": ("int", 5000, "leakage-min iteration cap"),
        "shared": ("int", 0, "1 = shared transmit directions per group"),
        "channel_file": ("str", "", "load the channel from this archive"),
        "save_channel": ("str", "", "write the drawn channel to this archive"),
        "out": ("str", "ia_run.csv", "output CSV path"),
    },
    "dof-sweep": {
        "K": ("int", 3, "users"),
        "R": ("int", 1, "receive antennas"),
        "L": ("int", 2, "channel taps"),
        "n": ("int", 1, "auxiliary alignment parameter"),
        "engine": ("str", "cj3", "leakage-min or cj3"),
        "feedback": ("str", "oracle", "perfect or oracle"),
        "alphas": ("floatlist", (1.0,), "feedback fractions to sweep"),
        "alpha_user": ("str", "all", "'all' or a user index receiving alpha"),
        "p_log2_min": ("float", 4.0, "grid start (log2)"),
        "p_log2_max": ("float", 14.0, "grid end (log2, inclusive)"),
        "p_log2_step": ("float", 1.0, "grid step (log2)"),
        "trials": ("int", 20, "channel realizations per point"),
        # 1e-9 places the default grid in the asymptotic regime of the rate
        # expression, where the regression reads off the true DoF slope
        "noise": ("float", 1e-9, "noise power"),
        "seed": ("int", 0, "base seed"),
        "jobs": ("int", 1, "parallel trial workers"),
        "slope_tol": ("float", 0.1, "per-user slope tolerance"),
        "sum_slope_tol": ("float", 0.05, "sum-slope tolerance"),
        "align_tol": ("float", 1e-8, "alignment residual tolerance"),
        "max_iters": ("int", 5000, "leakage-min iteration cap"),
        "out": ("str", "dof_sweep.csv", "output CSV path"),
    },
    "mimo-reduce": {
        "K": ("int", 3, "users"),
        "Mt": ("int", 2, "transmit antennas"),
        "Mr": ("int", 4, "receive antennas"),
        "L": ("int", 1, "channel taps"),
        "p_log2": ("float", 10.0, "log2 of the transmit power"),
        "out": ("str", "", "optional JSON output path"),
    },
}


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve_config(command: str, namespace: argparse.Namespace) -> ExperimentConfig:
    table = _OPTIONS[command]
    values = {}
    file_values = {}
    if getattr(namespace, "config", None):
        file_values = _load_config_file(namespace.config)
        unknown = set(file_values) - set(table)
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
    for name, (kind, default, _help) in table.items():
        parse = _PARSERS[kind]
        if getattr(namespace, name) is not None:
            values[name] = getattr(namespace, name)
        elif name in file_values:
            values[name] = parse(file_values[name])
        else:
            values[name] = default
    return ExperimentConfig(command=command, values=values)


def _write_csv(path: str, config: ExperimentConfig, header, rows, trailer=()):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(config.comment_line() + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[col]) for col in header) + "\n")
        for line in trailer:
            fh.write(line + "\n")


# --------------------------------------------------------------------------
# volume-check


def _volume_chunk_hits(args) -> int:
    n, K, delta, seed, task, chunk, count = args
    rng = np.random.default_rng(np.random.SeedSequence([seed, task, chunk]))
    return ball_hit_count(n, K, delta, count, rng)


def cmd_volume_check(config: ExperimentConfig) -> int:
    for n, K in config.pairs:
        if n < 2 or K < 1:
            print(f"invalid manifold n={n}, K={K}", file=sys.stderr)
            return 2
    for delta in config.deltas:
        if delta < 0 or delta * delta > 1.0:
            print(
                f"delta={delta} outside the closed form's domain (need 0 <= delta <= 1)",
                file=sys.stderr,
            )
            return 2

    tasks = []
    for n, K in config.pairs:
        for delta in config.deltas:
            tasks.append((n, K, delta))
    jobs_args = []
    for t_idx, (n, K, delta) in enumerate(tasks):
        remaining, chunk_idx = config.trials, 0
        while remaining > 0:
            count = min(MC_CHUNK, remaining)
            jobs_args.append((n, K, delta, config.seed, t_idx, chunk_idx, count))
            remaining -= count
            chunk_idx += 1

    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            hit_list = list(pool.map(_volume_chunk_hits, jobs_args, chunksize=4))
    else:
        hit_list = [_volume_chunk_hits(a) for a in jobs_args]

    hits = {}
    for args, h in zip(jobs_args, hit_list):
        hits[args[4]] = hits.get(args[4], 0) + h

    rows, all_ok = [], True
    for t_idx, (n, K, delta) in enumerate(tasks):
        analytic = ball_volume_normalized(BallVolumeSpec(n=n, K=K, delta=delta))
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
    if len(set(bits_list)) < 3:
        print("need at least three distinct bit budgets", file=sys.stderr)
        return 2
    if config.K * (config.n - 1) < 1:
        print("need K*(n-1) >= 1 for a nontrivial manifold", file=sys.stderr)
        return 2

    rows = []
    rng = trial_generator(config.seed, 0)
    for bits in bits_list:
        cb = build_random_codebook(config.n, config.K, bits, seed=int(rng.integers(2**63)))
        if config.codebook_out:
            save_codebook(cb, f"{config.codebook_out}{bits}.txt")
        report = measure_distortion(cb, config.trials, rng)
        rows.append(
            {
                "n": config.n, "K": config.K, "bits": bits,
                "mean_sq_distortion": report.mean_observed,
                "max_sq_distortion": report.max_observed,
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
            raise ValueError("the cj3 engine is specific to K=3, R=1")
        return cj3_parameters(n)
    return ia_parameters(K, R, n)


def _feedback_messages(ch, mode, alphas, P, bits, rng_tag, trial):
    """One FeedbackMessage per user for the requested feedback mode.

    ``alphas`` holds one fraction per user; alpha = 0 means no feedback at
    all, modeled as an independent uniformly random direction estimate.
    """
    msgs = []
    for i in range(ch.K):
        if mode == "perfect":
            msgs.append(receiver_feedback(ch, i))
            continue
        rng = trial_generator(rng_tag, trial * 1009 + i)
        if mode == "codebook":
            cb = build_random_codebook(ch.R * ch.L, ch.K, bits, seed=rng_tag + i)
            msgs.append(receiver_feedback(ch, i, cb))
        elif mode == "oracle":
            alpha = alphas[i]
            if alpha == 0.0:
                point = sample_uniform(ch.R * ch.L, ch.K, rng)
                msgs.append(FeedbackMessage(user=i, point=point, R=ch.R, L=ch.L, bits=0))
            else:
                budget = FeedbackBudget(K=ch.K, R=ch.R, L=ch.L, P=P, alpha=alpha)
                msgs.append(receiver_feedback(ch, i, budget, rng=rng))
        else:
            raise ValueError(f"unknown feedback mode {mode!r}")
    return msgs


# --------------------------------------------------------------------------
# ia-run


def cmd_ia_run(config: ExperimentConfig) -> int:
    try:
        params = _make_params(config.K, config.R, config.L, config.n, config.engine)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if config.channel_file:
        try:
            ch = load_channel(config.channel_file)
        except FileNotFoundError:
            print(f"channel file not found: {config.channel_file}", file=sys.stderr)
            return 2
        if (ch.K, ch.R, ch.L) != (config.K, config.R, config.L):
            print("channel file dimensions do not match the configuration", file=sys.stderr)
            return 2
    else:
        ch = generate_channel(config.K, config.R, config.L, seed=trial_generator(config.seed, 0))
    if config.save_channel:
        save_channel(ch, config.save_channel)

    from .channel import to_tone_domain  # local import keeps module init light

    P = 2.0**config.p_log2
    tone = to_tone_domain(ch, params.N)
    alphas = [config.alpha] * config.K
    try:
        msgs = _feedback_messages(ch, config.feedback, alphas, P, config.bits, config.seed, 1)
        rec = reconstruct(msgs, params.N)
        bf = build_beamformers(
            rec, params, config.engine, tol=config.align_tol, c_min=config.c_min,
            max_iters=config.max_iters, rng=trial_generator(config.seed, 2),
            shared=bool(config.shared),
        )
    except (AlignmentError, ValueError) as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 1

    report = achievable_rates(tone, bf, P, noise_power=config.noise)
    rows = rate_csv_rows(
        report, seed=config.seed, K=config.K, R=config.R, L=config.L,
        n=config.n, alpha=config.alpha,
    )
    trailer = [
        f"# alignment_residual={bf.alignment_residual!r}",
        f"# signal_min={bf.signal_min!r}",
        f"# rate_sum={report.rate_sum!r}",
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
    worst stream's total interference (`RateReport.max_interference`).
    ``failures`` lists (trial, reason) for every trial dropped because
    alignment failed.
    """

    grid: list
    stats: np.ndarray
    failures: list


def _trial_stats(config: ExperimentConfig, trial: int) -> np.ndarray:
    """One channel realization: per-(alpha, P, user) stats."""
    from .channel import to_tone_domain

    params = _make_params(config.K, config.R, config.L, config.n, config.engine)
    grid = _power_grid(config)
    ch = generate_channel(config.K, config.R, config.L, seed=trial_generator(config.seed, trial))
    tone = to_tone_domain(ch, params.N)
    stats = np.zeros((len(config.alphas), len(grid), config.K, 5))

    def build(rec):
        return build_beamformers(
            rec, params, config.engine, tol=config.align_tol,
            max_iters=config.max_iters, rng=trial_generator(config.seed, 7_000_000 + trial),
        )

    def fill(a, j, rep):
        for i in range(config.K):
            stats[a, j, i] = (
                rep.rates[i],
                float(np.max(rep.interference_own[i])),
                float(np.max(rep.interference_cross[i])),
                float(np.min(rep.signal[i])),
                rep.max_interference(i),
            )

    if config.feedback == "perfect":
        rec = reconstruct([receiver_feedback(ch, i) for i in range(config.K)], params.N)
        bf = build(rec)
        for a in range(len(config.alphas)):
            for j, P in enumerate(grid):
                fill(a, j, achievable_rates(tone, bf, P, noise_power=config.noise))
        return stats

    for a, alpha in enumerate(config.alphas):
        if config.alpha_user == "all":
            alphas = [alpha] * config.K
        else:
            alphas = [1.0] * config.K
            alphas[int(config.alpha_user)] = alpha
        for j, P in enumerate(grid):
            msgs = _feedback_messages(
                ch, config.feedback, alphas, P, 0, config.seed,
                trial * 100_000 + a * 1_000 + j,
            )
            rec = reconstruct(msgs, params.N)
            bf = build(rec)
            fill(a, j, achievable_rates(tone, bf, P, noise_power=config.noise))
    return stats


def _sweep_trial(args):
    """(trial, stats, None), or (trial, None, reason) when alignment fails."""
    values, trial = args
    try:
        return trial, _trial_stats(ExperimentConfig("dof-sweep", values), trial), None
    except AlignmentError as exc:
        return trial, None, str(exc)


def _power_grid(config):
    lo, hi, step = config.p_log2_min, config.p_log2_max, config.p_log2_step
    count = int(round((hi - lo) / step)) + 1
    return [2.0 ** (lo + i * step) for i in range(count)]


def run_dof_sweep(config: ExperimentConfig) -> SweepResult:
    """Run dof-sweep's trials on `config.jobs` workers; gates and CSV aside.

    Each trial's random streams derive from (seed, trial), so the result
    does not depend on the worker count.
    """
    args = [(config.values, t) for t in range(config.trials)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_sweep_trial, args))
    else:
        results = [_sweep_trial(a) for a in args]
    grid = _power_grid(config)
    done = [stats for _, stats, _ in results if stats is not None]
    return SweepResult(
        grid=grid,
        stats=np.stack(done) if done else np.zeros((0, len(config.alphas), len(grid), config.K, 5)),
        failures=[(t, reason) for t, _, reason in results if reason is not None],
    )


def cmd_dof_sweep(config: ExperimentConfig) -> int:
    try:
        params = _make_params(config.K, config.R, config.L, config.n, config.engine)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if config.alpha_user != "all" and not 0 <= int(config.alpha_user) < config.K:
        print(f"alpha_user {config.alpha_user} out of range", file=sys.stderr)
        return 2
    if config.feedback not in ("perfect", "oracle"):
        print("dof-sweep supports feedback = perfect | oracle", file=sys.stderr)
        return 2

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
            for i in range(config.K):
                rows.append(
                    {
                        "seed": config.seed, "K": config.K, "R": config.R,
                        "L": config.L, "n": config.n, "P_log2": math.log2(P),
                        "alpha": alpha, "user": i, "rate": float(rates[a, j, i]),
                        "I1": float(mean_stats[a, j, i, 1]),
                        "I2": float(mean_stats[a, j, i, 2]),
                        "signal": float(mean_stats[a, j, i, 3]),
                    }
                )
        user_slopes = []
        for i in range(config.K):
            est = dof_fit(zip(grid, rates[a, :, i]))
            user_slopes.append(est.slope)
            if config.feedback == "perfect" or config.alpha_user == "all":
                expected = (alpha if config.feedback == "oracle" else 1.0) * params.dof_target(i)
            else:
                expected = (alpha if i == int(config.alpha_user) else 1.0) * params.dof_target(i)
            ok = abs(est.slope - expected) <= config.slope_tol
            all_ok &= ok
            trailer.append(
                f"# slope alpha={alpha!r} user={i} slope={est.slope!r} "
                f"expected={expected!r} ok={int(ok)}"
            )
        sum_est = dof_fit(zip(grid, rates[a].sum(axis=1)))
        if config.alpha_user == "all":
            expected_sum = (alpha if config.feedback == "oracle" else 1.0) * sum(
                params.dof_target(i) for i in range(config.K)
            )
            ok = abs(sum_est.slope - expected_sum) <= config.sum_slope_tol
            all_ok &= ok
            trailer.append(
                f"# slope alpha={alpha!r} user=sum slope={sum_est.slope!r} "
                f"expected={expected_sum!r} ok={int(ok)}"
            )
        else:
            # single-user alpha: the per-user checks above are the contract
            trailer.append(f"# slope alpha={alpha!r} user=sum slope={sum_est.slope!r}")
        bound = interference_boundedness(zip(grid, worst[a].max(axis=1)), floor=1e-10)
        trailer.append(f"# interference alpha={alpha!r} slope={bound.slope!r}")
    _write_csv(config.out, config, CSV_COLUMNS, rows, trailer + failed)
    return 0 if all_ok else 1


# --------------------------------------------------------------------------
# mimo-reduce


def cmd_mimo_reduce(config: ExperimentConfig) -> int:
    try:
        red = mimo_reduce(config.K, config.Mt, config.Mr, config.L, 2.0**config.p_log2)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iafb",
        description="interference alignment under finite-rate feedback: experiment runner",
    )
    parser.add_argument("--version", action="version", version=f"iafb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key=value config file")
        for name, (kind, default, help_text) in table.items():
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, type=_PARSERS[kind], default=None, help=help_text)
    return parser


def parse_config(argv=None) -> ExperimentConfig:
    """Resolve a command line and its ``--config`` file as `main` does."""
    namespace = _build_parser().parse_args(argv)
    return _resolve_config(namespace.command, namespace)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except (ValueError, OSError) as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    return _COMMANDS[config.command](config)


if __name__ == "__main__":
    sys.exit(main())
