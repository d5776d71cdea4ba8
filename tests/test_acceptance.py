"""Acceptance suite: one test per headline claim, at desk scale.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. Criteria 1 and 2 run ``iafb volume-check`` and ``iafb
quantizer-scaling`` and read their CSVs and exit codes; the slope
experiments (criteria 4-6) run ``iafb dof-sweep``'s own trial loop. Slope
experiments place the power grid in the asymptotic regime of the rate
expression via the experiment noise floor (1e-9 for absolute-slope
targets, 0.1 for the perfect-vs-limited comparison, where both arms share
the same floor); the rate expression itself is never altered.
"""

import time

import numpy as np
import pytest

import dense_reference as dense
from iafb.alignment import build_beamformers, cj3_parameters, ia_parameters, mimo_reduce
from iafb.channel import receiver_feedback, reconstruct, to_tone_domain
from iafb.cli import main, parse_config, run_dof_sweep
from iafb.rates import dof_fit, interference_slope

GRID = [2.0**t for t in range(4, 15)]
RATE, WORST_INTERFERENCE = 0, 4  # stat indices of `run_dof_sweep`


def sweep(*flags):
    """Stats (trial, alpha, P, user, stat) of ``iafb dof-sweep --trials 20 <flags>``."""
    result = run_dof_sweep(parse_config(["dof-sweep", "--trials", "20", *flags]))
    assert result.failures == [] and result.grid == GRID
    return result.stats


def run_cli(out, *argv):
    """Exit code, config, rows and trailer lines of ``iafb <argv> --out <out>``'s CSV."""
    code = main([*argv, "--out", str(out)])
    comment, header, *body = out.read_text().splitlines()
    config = dict(pair.split("=", 1) for pair in comment.split(" | ")[2].split())
    rows = [dict(zip(header.split(","), line.split(","))) for line in body if not line.startswith("#")]
    return code, config, rows, [line for line in body if line.startswith("#")]


def sum_rate_slope(stats):
    """DoF slope of the trial-mean sum rate at the sweep's first alpha."""
    return dof_fit(zip(GRID, stats[:, 0, :, :, RATE].mean(axis=0).sum(axis=1)))


def report(num, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {verdict} ({detail})")
    return passed


def test_criterion_1_ball_volume_exactness(tmp_path):
    # volume-check at its defaults: 12 cells of 10^6 samples, each gated at 3 sigma
    start = time.time()
    code, config, rows, _ = run_cli(tmp_path / "volume_check.csv", "volume-check", "--seed", "1")
    elapsed = time.time() - start
    cells = [(int(r["n"]), int(r["K"]), float(r["delta"])) for r in rows]
    worst = max(float(r["z"]) for r in rows)
    passed = (
        code == 0
        and (config["trials"], config["sigmas"]) == ("1000000", "3.0")
        and cells == [(n, K, d) for n, K in ((2, 1), (2, 2), (3, 2), (2, 3)) for d in (0.3, 0.5, 0.8)]
        and all(r["ok"] == "1" for r in rows)
        and worst <= 3.0
        and elapsed < 60.0
    )
    assert report(
        1, "ball-volume exactness", passed,
        f"exit {code}, worst deviation {worst:.2f} sigma over {len(rows)} cells, {elapsed:.1f}s",
    )


def test_criterion_2_distortion_scaling_exponent(tmp_path):
    start = time.time()
    results = []
    ok = True
    for n, K in ((2, 1), (2, 2), (3, 1)):
        code, _, _, trailer = run_cli(
            tmp_path / f"quantizer_scaling_{n}_{K}.csv", "quantizer-scaling", "--n", str(n), "--K", str(K),
            "--bits", "6,8,10,12,14", "--trials", "10000", "--seed", "2",
        )
        fit = dict(pair.split("=", 1) for pair in trailer[0].removeprefix("# ").split())
        slope, target = float(fit["slope"]), -1.0 / (K * (n - 1))
        ok &= code == 0 and abs(slope - target) <= 0.2 * abs(target)
        results.append(f"(n={n},K={K}): {slope:.3f} vs {target:.3f}, exit {code}")
    elapsed = time.time() - start
    passed = ok and elapsed < 300.0
    assert report(2, "distortion scaling exponent", passed, "; ".join(results) + f", {elapsed:.0f}s")


def test_criterion_3_alignment_exactness():
    start = time.time()
    params = ia_parameters(3, 1, 1)
    hits = 0
    for seed in range(20):
        rec = reconstruct(receiver_feedback(dense.seeded_channel(3, 1, 2, seed))[None], params.N, R=1)
        bf = build_beamformers(rec, params, "leakage-min", tol=1e-8, rng=[np.random.default_rng(seed)])
        hits += bf.failures == (None,) and bf.alignment_residual[0] <= 1e-8

    cj3 = cj3_parameters(2)
    cj3_worst = 0.0
    cj3_built = deterministic = True
    for seed in range(5):
        rec = reconstruct(receiver_feedback(dense.seeded_channel(3, 1, 2, 100 + seed))[None], cj3.N, R=1)
        first = build_beamformers(rec, cj3, "cj3", tol=1e-9)
        again = build_beamformers(rec, cj3, "cj3", tol=1e-9)
        cj3_built &= first.failures == again.failures == (None,)
        cj3_worst = max(cj3_worst, first.alignment_residual[0])
        deterministic &= first.alignment_residual[0] == again.alignment_residual[0]
    elapsed = time.time() - start
    passed = hits >= 19 and cj3_built and cj3_worst <= 1e-9 and deterministic and elapsed < 60.0
    assert report(
        3, "alignment exactness", passed,
        f"leakage-min {hits}/20 at 1e-8, cj3 worst {cj3_worst:.1e}, {elapsed:.1f}s",
    )


def test_criterion_4_perfect_csi_dof():
    start = time.time()
    perfect = ("--feedback", "perfect", "--noise", "1e-9")
    gj = ia_parameters(3, 1, 1)
    slope_gj = sum_rate_slope(sweep("--engine", "leakage-min", "--n", "1", "--seed", "400", *perfect))
    target_gj = sum(gj.d) / gj.N  # 17/16

    slope_cj3 = sum_rate_slope(sweep("--engine", "cj3", "--n", "3", "--seed", "450", *perfect))
    target_cj3 = 10.0 / 7.0
    elapsed = time.time() - start
    passed = (
        abs(slope_gj - target_gj) <= 0.05
        and abs(slope_cj3 - target_cj3) <= 0.05
        and elapsed < 600.0
    )
    assert report(
        4, "perfect-CSI DoF", passed,
        f"leakage-min {slope_gj:.4f} vs {target_gj:.4f}, cj3 {slope_cj3:.4f} vs {target_cj3:.4f}, {elapsed:.0f}s",
    )


def test_criterion_5_full_budget_feedback_keeps_dof():
    start = time.time()
    # shared noise floor for both arms; see module docstring
    arm = ("--engine", "cj3", "--n", "1", "--noise", "0.1", "--seed", "500")
    perfect = sweep("--feedback", "perfect", *arm)
    limited = sweep("--feedback", "oracle", "--alphas", "1.0", *arm)

    worst = limited[:, 0, :, :, WORST_INTERFERENCE].max(axis=(0, 2))
    # interference floor 1e-10 (`rates.INTERFERENCE_FLOOR`)
    int_slope = interference_slope(zip(GRID, worst))
    slope_lf = sum_rate_slope(limited)
    slope_pf = sum_rate_slope(perfect)
    elapsed = time.time() - start
    passed = int_slope <= 0.1 and abs(slope_lf - slope_pf) <= 0.05
    assert report(
        5, "full-budget feedback keeps DoF", passed,
        f"interference slope {int_slope:.3f} (<=0.1), rate slopes {slope_lf:.3f} vs {slope_pf:.3f}, {elapsed:.0f}s",
    )


def test_criterion_6_partial_feedback_tradeoff():
    start = time.time()
    params = cj3_parameters(1)
    dt = [params.dof_target(i) for i in range(3)]
    alphas = (1.0, 0.75, 0.5, 0.25)
    stats = sweep(
        "--engine", "cj3", "--n", "1", "--feedback", "oracle", "--noise", "1e-9",
        "--alphas", ",".join(map(str, alphas)), "--alpha-user", "0", "--seed", "600",
    ).mean(axis=0)

    baselines = None
    ok = True
    details = []
    for a, alpha in enumerate(alphas):
        slopes = [dof_fit(zip(GRID, stats[a, :, i, RATE])) for i in range(3)]
        # mean worst-stream interference at receiver 1
        int_slope = interference_slope(zip(GRID, stats[a, :, 0, WORST_INTERFERENCE]))

        if baselines is None:
            baselines = slopes
        ok &= abs(slopes[0] - alpha * dt[0]) <= 0.1
        ok &= abs(slopes[1] - baselines[1]) <= 0.1
        ok &= abs(slopes[2] - baselines[2]) <= 0.1
        ok &= abs(int_slope - (1.0 - alpha)) <= 0.1
        details.append(f"a={alpha}: u1 {slopes[0]:.3f}/{alpha * dt[0]:.3f}, int {int_slope:.2f}/{1 - alpha:.2f}")
    elapsed = time.time() - start
    assert report(6, "partial-feedback tradeoff", ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_7_mimo_reduction_arithmetic():
    # independent spreadsheet-style oracle, regenerated here
    cases = [
        (3, 2, 4, 1, 10), (3, 1, 1, 2, 10), (4, 2, 5, 2, 12), (3, 4, 2, 3, 8),
        (5, 1, 3, 2, 6), (4, 3, 3, 2, 20), (6, 2, 7, 1, 15), (3, 5, 2, 2, 7),
        (7, 1, 2, 4, 9), (4, 2, 2, 3, 11),
    ]
    ok = True
    for K, Mt, Mr, L, p_log2 in cases:
        lo, hi = min(Mt, Mr), max(Mt, Mr)
        oracle_bits = lo * lo * K * ((hi // lo) * L - 1) * p_log2
        fwd = mimo_reduce(K, Mt, Mr, L, 2.0**p_log2)
        rev = mimo_reduce(K, Mr, Mt, L, 2.0**p_log2)
        ok &= fwd.bits_per_original_receiver == pytest.approx(oracle_bits)
        ok &= fwd.bits_per_original_receiver == rev.bits_per_original_receiver
        ok &= fwd.R == rev.R and fwd.virtual_users == rev.virtual_users
    assert report(7, "mimo reduction arithmetic", ok, f"{len(cases)} cases + swaps")


def test_criterion_8_pipeline_identities():
    start = time.time()
    rng = np.random.default_rng(8)
    worst = {"wnorm": 0.0, "parseval": 0.0, "pseudo": 0.0, "chain": 0.0}
    for instance in range(1000):
        K, R, L = 2, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if R * L < 2:  # scalar directions carry no quantizable information
            L = 2
        N = L + int(rng.integers(0, 4))
        taps = dense.seeded_channel(K, R, L, int(rng.integers(2**31)))
        tones = to_tone_domain(taps, N)
        rec = reconstruct(receiver_feedback(taps), N, R=R)
        i, k = int(rng.integers(K)), int(rng.integers(K))

        # reconstructed directions keep unit norm
        worst["wnorm"] = max(worst["wnorm"], abs(np.linalg.norm(rec[i, k]) - 1.0))
        # unnormalized-DFT Parseval
        F = tones[i, k]
        T = taps[i, k]
        worst["parseval"] = max(
            worst["parseval"],
            abs(np.linalg.norm(F) ** 2 - N * np.linalg.norm(T) ** 2) / max(1.0, N * np.linalg.norm(T) ** 2),
        )
        # u^H Hbar v = hbar^H b for random filters
        u = rng.standard_normal(R * N) + 1j * rng.standard_normal(R * N)
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        lhs = np.conj(u) @ (dense.hbar_matrix(tones, i, k) @ v)
        rhs = np.conj(dense.hbar(tones, i, k)) @ (np.conj(u) * np.repeat(v, R))
        worst["pseudo"] = max(worst["pseudo"], abs(lhs - rhs) / max(1.0, abs(lhs)))
        # stacked-tone norm equals vectorized-tap norm
        worst["chain"] = max(
            worst["chain"],
            abs(
                np.linalg.norm(dense.hbar(tones, i, k)) ** 2
                - np.linalg.norm(dense.direction(T) * np.linalg.norm(T)) ** 2
            )
            / max(1.0, np.linalg.norm(T) ** 2),
        )
    elapsed = time.time() - start
    passed = all(v <= 1e-10 for v in worst.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    assert report(8, "pipeline identities", passed, detail + f", {elapsed:.0f}s")
