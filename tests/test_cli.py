import concurrent.futures
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from iafb.alignment import AlignmentError, build_beamformers, cj3_parameters, ia_parameters
import iafb.cli
import dense_reference as dense
from iafb.channel import reconstruct, save_channel, to_tone_domain
from iafb.cli import main, parse_config, run_dof_sweep
from iafb.grassmann import sample_uniform
from iafb.quantizer import _GEN_CHUNK, build_random_codebook, distortion_oracle_quantize, encode, feedback_bits, oracle_radius
from iafb.rates import CSV_COLUMNS, achievable_rates
from iafb.rng import complex_normal, trial_generator


def read(path):
    return path.read_bytes()


def data_bytes(path):
    """Everything below the config comment (which embeds jobs/out paths)."""
    return b"\n".join(path.read_bytes().splitlines()[1:])


class TestVolumeCheck:
    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "vol.csv"
        code = main([
            "volume-check", "--pairs", "2:1,2:2", "--deltas", "0.5,0.8",
            "--trials", "50000", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# iafb")
        assert lines[1] == "n,K,delta,analytic,empirical,stderr,z,ok"
        assert len(lines) == 2 + 4

    def test_zero_radius_row(self, tmp_path):
        out = tmp_path / "vol.csv"
        code = main([
            "volume-check", "--pairs", "3:2", "--deltas", "0.0",
            "--trials", "1000", "--out", str(out),
        ])
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert float(row[3]) == 0.0 and float(row[4]) == 0.0

    def test_radius_outside_domain_is_usage_error(self, tmp_path):
        code = main([
            "volume-check", "--pairs", "2:2", "--deltas", "1.5",
            "--trials", "1000", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_is_usage_error(self, tmp_path, capsys, trials):
        out = tmp_path / "x.csv"
        code = main(["volume-check", "--pairs", "2:2", "--deltas", "0.5", f"--trials={trials}", "--out", str(out)])
        assert code == 2
        assert f"--trials {trials}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_work_list_does_not_grow_with_trials(self, tmp_path, monkeypatch, jobs):
        # 1,000 chunks per task: the work list holds min(chunks, jobs) spans
        # per task, not one entry per chunk
        lengths = []
        monkeypatch.setattr(iafb.cli, "_map", lambda fn, args, jobs: lengths.append(len(args)) or [0] * len(args))
        trials = 1000 * iafb.cli.MC_CHUNK
        main([
            "volume-check", "--pairs", "2:1,2:2", "--deltas", "0.5", "--trials", str(trials),
            "--jobs", str(jobs), "--out", str(tmp_path / "x.csv"),
        ])
        assert lengths == [2 * jobs]

    def test_spans_add_up_to_their_chunks(self):
        # three chunks, the last one short, each from its own stream
        chunk, trials = iafb.cli.MC_CHUNK, 2 * iafb.cli.MC_CHUNK + 123
        sizes = [min(chunk, trials - c * chunk) for c in range(3)]
        per_chunk = [
            round(iafb.cli.empirical_ball_cdf(2, 2, 0.5, m, trial_generator(9, 4, c)) * m) for c, m in enumerate(sizes)
        ]
        spans = [iafb.cli._volume_span_hits((2, 2, 0.5, 9, 4, trials, a, b)) for a, b in [(0, 3), (0, 1), (1, 3)]]
        assert spans == [sum(per_chunk), per_chunk[0], sum(per_chunk[1:])]

    # a whole chunk (2^16 samples) and the last chunks of 10^3, 5*10^4 (the
    # benchmark's tiny size), 2*10^5 and 10^6 samples (its full size)
    @pytest.mark.parametrize("m", [iafb.cli.MC_CHUNK, 1000, 50_000, 200_000 % 2**16, 1_000_000 % 2**16])
    def test_chunk_count_is_recovered_from_its_fraction(self, m):
        # volume-check adds each chunk's count as round(p * m) of its
        # fraction p = count / m; every count of the chunk comes back exactly
        counts = np.arange(m + 1)
        assert np.array_equal(np.round(counts / m * m), counts)

    def test_chunks_bound_peak_memory(self, tmp_path):
        # three chunks and 17 samples at (n, K) = (4, 3): one chunk's draw at a
        # time, within the bound of test_grassmann's one-chunk peak test
        argv = ["volume-check", "--pairs", "4:3", "--deltas", "0.8", "--out", str(tmp_path / "x.csv")]
        main(argv + ["--trials", "10"])  # first-call imports, about 0.9 MiB
        tracemalloc.start()
        try:
            code = main(argv + ["--trials", str(3 * iafb.cli.MC_CHUNK + 17)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 7 * 2**20

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["volume-check", "--pairs", "2:2", "--deltas", "0.5", "--trials", "200000", "--seed", "9"]
        assert main(args + ["--out", str(a), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(b), "--jobs", "3"]) == 0
        assert data_bytes(a) == data_bytes(b)


class TestQuantizerScaling:
    def test_uniform_manifold(self, tmp_path):
        out = tmp_path / "scal.csv"
        code = main([
            "quantizer-scaling", "--n", "2", "--K", "1",
            "--bits", "4,6,8,10", "--trials", "2000", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "# slope=" in text and "ok=1" in text

    def test_too_few_budgets(self, tmp_path):
        code = main([
            "quantizer-scaling", "--bits", "4,6", "--trials", "100",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    # fractional, negative and past the materialization guard (26 bits)
    @pytest.mark.parametrize("bits, shown", [("4.5,6,8", "got 4.5"), ("-2,4,6", "got -2"), ("4,6,27", "got 27")])
    def test_invalid_budget_is_usage_error(self, tmp_path, capsys, bits, shown):
        out = tmp_path / "x.csv"
        code = main(["quantizer-scaling", f"--bits={bits}", "--trials", "100", "--out", str(out)])
        assert code == 2
        assert shown in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_is_usage_error(self, tmp_path, capsys, trials):
        out = tmp_path / "x.csv"
        code = main(["quantizer-scaling", "--bits", "4,6,8", f"--trials={trials}", "--out", str(out)])
        assert code == 2
        assert f"--trials {trials}" in capsys.readouterr().err
        assert not out.exists()

    def test_peak_memory(self, tmp_path):
        # codebook-distortion's argv: each codebook dropped before the next
        # is built, and sources embedded sub-block by sub-block, 3.2 MiB
        # traced; a codebook kept through the slope pass, whole complex
        # source draws and chunk lists took 4.6 MiB
        def run(bits):
            return main(["quantizer-scaling", "--n", "2", "--K", "2", "--bits", bits, "--trials", "10000",
                         "--out", str(tmp_path / "q.csv")])

        assert run("4,5,6") == 0  # first-call allocations
        tracemalloc.start()
        try:
            assert run("6,8,10,12,14") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * 2**20

    def test_codebook_export(self, tmp_path):
        prefix = str(tmp_path / "cb_")
        code = main([
            "quantizer-scaling", "--n", "2", "--K", "1", "--bits", "4,5,6",
            "--trials", "500", "--codebook-out", prefix,
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 0
        # one file per budget, each the codebook of its own seed
        seeds = [dense.codebook_file_seed(tmp_path / f"cb_{bits}.txt", 2, 1, bits) for bits in (4, 5, 6)]
        assert len(set(seeds)) == 3


# (ia-run flags, a substring of the usage error they must give)
INVALID_RUNS = [
    pytest.param(["--engine", "cj3", "--K", "4"], "K=4", id="cj3-K4"),
    pytest.param(["--engine", "bogus"], "'bogus'", id="engine"),
    pytest.param(["--feedback", "bogus"], "'bogus'", id="feedback"),
    pytest.param(["--feedback", "oracle", "--alpha", "1.5"], "--alpha 1.5", id="alpha-high"),
    pytest.param(["--feedback", "oracle", "--alpha=-0.5"], "--alpha -0.5", id="alpha-low"),
    pytest.param(["--feedback", "codebook", "--bits", "27"], "--bits 27", id="bits-high"),
    pytest.param(["--feedback", "codebook", "--bits=-1"], "--bits -1", id="bits-low"),
    pytest.param(["--engine", "cj3", "--shared", "1"], "--shared 1", id="cj3-shared"),
    pytest.param(["--R", "1", "--L", "1"], "--R 1 --L 1", id="scalar-tap"),
    pytest.param(["--K", "5"], "dense link matrices", id="oversized"),  # N = 65,536
    # fewer tones than taps: N = 3 at cj3 n=1 and at leakage-min K=3 R=2
    pytest.param(["--engine", "cj3", "--n", "1", "--L", "4"], "N=3 tones, fewer than the --L 4 taps",
                 id="cj3-few-tones"),
    pytest.param(["--K", "3", "--R", "2", "--L", "4", "--n", "1"], "N=3 tones, fewer than the --L 4 taps",
                 id="leakage-min-few-tones"),
]


class TestIaRun:
    def test_perfect_csi_run(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "ia-run", "--K", "3", "--R", "1", "--L", "2", "--n", "1",
            "--engine", "leakage-min", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        residual = float(text.split("# alignment_residual=")[1].splitlines()[0])
        assert residual <= 1e-8
        assert text.splitlines()[1].startswith("seed,K,R,L,n,P_log2")

    @pytest.mark.parametrize(
        "flags",
        [["--engine", "cj3", "--n", "2", "--feedback", "oracle", "--seed", "7"], ["--R", "2", "--seed", "1"]],
    )
    def test_rate_sum_is_the_sum_of_the_rows(self, tmp_path, flags):
        out = tmp_path / "run.csv"
        assert main(["ia-run", *flags, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        column = lines[1].split(",").index("rate")
        rates = [float(line.split(",")[column]) for line in lines[2:] if not line.startswith("#")]
        rate_sum = float(lines[-1].removeprefix("# rate_sum="))
        assert len(rates) == 3
        assert rate_sum == sum(rates)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["ia-run", "--engine", "cj3", "--n", "2", "--feedback", "oracle",
                "--p-log2", "8", "--seed", "11"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert data_bytes(a) == data_bytes(b)

    def test_missing_channel_file(self, tmp_path):
        code = main([
            "ia-run", "--channel-file", str(tmp_path / "absent.txt"),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_channel_file_round_trip(self, tmp_path):
        # a saved channel, read back, gives the run its drawn channel gave:
        # cj3 with codebook feedback (R*L = 2) and leakage-min with oracle
        # feedback at R = 2
        for flags in (
            ["--engine", "cj3", "--n", "1", "--feedback", "codebook", "--bits", "6", "--seed", "5"],
            ["--R", "2", "--L", "2", "--engine", "leakage-min", "--feedback", "oracle", "--seed", "1"],
        ):
            chan, drawn, loaded = tmp_path / "chan.txt", tmp_path / "drawn.csv", tmp_path / "loaded.csv"
            assert main(["ia-run", *flags, "--save-channel", str(chan), "--out", str(drawn)]) == 0
            assert main(["ia-run", *flags, "--channel-file", str(chan), "--out", str(loaded)]) == 0
            assert data_bytes(loaded) == data_bytes(drawn)

    def test_channel_is_dof_sweep_trial_0(self, tmp_path, monkeypatch):
        # ia-run draws the channel dof-sweep's trial 0 draws, byte for byte
        taps = []

        def recording_evaluate(config, params, block_taps, *args, **build):
            taps.append(block_taps.copy())
            return evaluate(config, params, block_taps, *args, **build)

        evaluate = iafb.cli._evaluate
        monkeypatch.setattr(iafb.cli, "_evaluate", recording_evaluate)
        flags = ["--engine", "cj3", "--n", "1", "--feedback", "perfect", "--seed", "4"]
        assert main(["ia-run", *flags, "--out", str(tmp_path / "run.csv")]) == 0
        assert main(["dof-sweep", *flags, "--trials", "2", "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(taps) == 2 and taps[0].shape == (1, 3, 3, 2, 1) and taps[1].shape == (2, 3, 3, 2, 1)
        assert taps[0][0].tobytes() == taps[1][0].tobytes()

    def test_codebook_feedback_mode(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "ia-run", "--engine", "cj3", "--n", "1", "--feedback", "codebook",
            "--bits", "6", "--seed", "3", "--out", str(out),
        ])
        assert code == 0

    @pytest.mark.parametrize("flags, shown", INVALID_RUNS)
    def test_invalid_run_is_usage_error(self, tmp_path, capsys, no_work, flags, shown):
        # rejected before the channel is drawn: no CSV
        out = tmp_path / "x.csv"
        assert main(["ia-run", *flags, "--out", str(out)]) == 2
        assert shown in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, reason",
        [
            # cj3 at n=16 puts a desired stream inside the interference span
            (["--engine", "cj3", "--n", "16", "--feedback", "perfect"],
             "receiver 0, stream 6: desired direction is swallowed"),
            # a stream below c_min = 1e-6
            (["--engine", "cj3", "--n", "5", "--seed", "1"],
             "cj3 construction failed: residual=7.706e-17, signal_min=7.766e-09"),
        ],
    )
    def test_failed_build_is_recorded(self, tmp_path, capsys, flags, reason):
        out = tmp_path / "run.csv"
        assert main(["ia-run", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("# iafb ") and "| ia-run |" in lines[0]
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert lines[2].startswith(f"# failed trial=0 reason={reason}")

    def test_run_is_a_block_of_one(self, tmp_path, monkeypatch):
        # one _evaluate call of one channel and one element, with the
        # leakage-min stream trial_generator(seed, 2)
        calls = []

        def recording_evaluate(config, params, taps, fed, P, rngs, **build):
            calls.append((taps.shape, fed.shape, P, [g.bit_generator.state for g in rngs], build))
            return evaluate(config, params, taps, fed, P, rngs, **build)

        evaluate = iafb.cli._evaluate
        monkeypatch.setattr(iafb.cli, "_evaluate", recording_evaluate)
        argv = ["ia-run", "--seed", "6", "--c-min", "1e-7", "--out", str(tmp_path / "run.csv")]
        assert main(argv) == 0
        state = trial_generator(6, 2).bit_generator.state
        assert calls == [((1, 3, 3, 2, 1), (1, 3, 3, 2), 1024.0, [state], {"c_min": 1e-7, "shared": False})]


class TestIaRunFeedback:
    """ia-run feeds back what each user's own batch-of-one quantizer call gives."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--feedback", "oracle", "--p-log2", "10"],
            ["--feedback", "oracle", "--alpha", "0.5", "--p-log2", "12"],
            ["--feedback", "oracle", "--alpha", "0"],
            ["--feedback", "codebook", "--bits", "6"],
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fed_back_matches_per_user_reference(self, tmp_path, monkeypatch, flags, seed):
        seen = []

        def recording_reconstruct(directions, N, *, R):
            seen.append(np.array(directions))
            return reconstruct(directions, N, R=R)

        monkeypatch.setattr(iafb.cli, "reconstruct", recording_reconstruct)
        argv = ["ia-run", "--engine", "cj3", "--n", "1", *flags, "--seed", str(seed)]
        assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 0
        config = parse_config(argv)

        taps = dense.seeded_channel(3, 1, 2, trial_generator(seed, 0))
        codebook_seeds = trial_generator(seed, 3).integers(2**63, size=3)
        reference = []
        for i in range(3):
            rng = trial_generator(seed, 1009 + i)
            if config.feedback == "codebook":
                cb = build_random_codebook(2, 3, config.bits, seed=int(codebook_seeds[i]))
                reference.append(cb.points[encode(dense.directions(taps)[i], cb)])
            elif config.alpha == 0.0:
                reference.append(sample_uniform(2, 3, complex_normal(rng, (1, 3, 2)))[0])
            else:
                radius = oracle_radius(feedback_bits(3, 1, 2, 2.0**config.p_log2, config.alpha), 3, 2)
                normals = complex_normal(rng, (1, 3, 2))
                delta_sq = np.square([radius])
                reference.append(distortion_oracle_quantize(dense.directions(taps)[i][None], delta_sq, normals)[0])
        # one reconstruction of a batch of one element
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.stack(reference)[None])

    @pytest.mark.parametrize("bits", [4, 16])
    def test_codebook_streams_are_their_own(self, tmp_path, monkeypatch, bits):
        # codebook chunk c of seed s draws from SeedSequence([s, c]); no
        # chunk may hash to the state of ia-run's channel (seed, 0), its
        # leakage-min start (seed, 2), the codebook seeds' stream (seed, 3),
        # an oracle user's stream (seed, 1009 + i) or another chunk
        seeds = []

        def recording_build(n, K, bits, *, seed):
            seeds.append(seed)
            return build(n, K, bits, seed=seed)

        build = iafb.cli.build_random_codebook
        monkeypatch.setattr(iafb.cli, "build_random_codebook", recording_build)
        argv = ["ia-run", "--engine", "cj3", "--n", "1", "--feedback", "codebook", "--bits", str(bits), "--seed", "0"]
        assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 0
        assert len(seeds) == 3

        def state(*entropy):
            return tuple(np.random.SeedSequence(list(entropy)).generate_state(4))

        others = {state(0, key) for key in (0, 2, 3, 1009, 1010, 1011)}
        count = -(-(1 << bits) // _GEN_CHUNK)
        chunks = {state(s, c) for s in seeds for c in range(count)}
        assert len(chunks) == 3 * count and not chunks & others


# (dof-sweep flags after --trials 2, a substring of the usage error they must give)
INVALID_SWEEPS = [
    (["--alphas", "0.5,1.5"], "got 1.5"),
    (["--alphas", "-0.25"], "got -0.25"),
    (["--trials", "0"], "--trials 0"),
    (["--trials", "-5"], "--trials -5"),
    (["--p-log2-step", "0"], "--p-log2-step 0"),
    (["--p-log2-step", "-1"], "--p-log2-step -1"),
    (["--p-log2-max", "5"], "has 2"),
    (["--p-log2-max", "2"], "has 0"),
    (["--alpha-user", "x"], "got 'x'"),
    (["--alpha-user", "1.5"], "got '1.5'"),
    (["--engine", "bogus"], "'bogus'"),
    (["--feedback", "codebook"], "'codebook'"),
    (["--R", "1", "--L", "1"], "--R 1 --L 1"),
    (["--p-log2-step", "0.01"], "has 1001 points"),
    (["--engine", "leakage-min", "--K", "4", "--n", "2"], "dense link matrices"),  # N = 13,122
    (["--engine", "cj3", "--n", "100000"], "dense link matrices"),  # N = 200,001
    (["--L", "4"], "N=3 tones, fewer than the --L 4 taps"),  # cj3 at n=1
    # trial t's alpha 100 would take the oracle streams of trial t+1's alpha 0
    (["--alphas", ",".join(["1"] * 101)], "--alphas lists 101 fractions, more than the 100 allowed"),
]


class TestDofSweep:
    def test_trials_cap(self, tmp_path, capsys, monkeypatch):
        # the default grid: 1 alpha x 11 powers x 3 users x 5 stats per trial
        most = iafb.cli.MAX_SWEEP_STATS // 165

        def reached(config):
            raise RuntimeError(f"sweep of {config.trials} trials started")

        monkeypatch.setattr(iafb.cli, "run_dof_sweep", reached)
        out = tmp_path / "dof.csv"
        with pytest.raises(RuntimeError, match=f"sweep of {most} trials started"):
            main(["dof-sweep", "--trials", str(most), "--out", str(out)])
        for trials in (most + 1, 10**9):
            assert main(["dof-sweep", "--trials", str(trials), "--out", str(out)]) == 2
            assert f"--trials {trials} over 1 alphas x 11 powers x 3 users" in capsys.readouterr().err
        assert not out.exists()

    def test_perfect_feedback_slopes(self, tmp_path):
        out = tmp_path / "dof.csv"
        code = main([
            "dof-sweep", "--engine", "cj3", "--n", "1", "--feedback", "perfect",
            "--trials", "4", "--p-log2-max", "12", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "# slope alpha=1.0 user=sum" in text
        assert "ok=1" in text

    def test_oracle_alpha_sweep_single_user(self, tmp_path):
        out = tmp_path / "dof.csv"
        code = main([
            "dof-sweep", "--engine", "cj3", "--n", "1", "--feedback", "oracle",
            "--alphas", "0.5,1.0", "--alpha-user", "0", "--trials", "6",
            "--out", str(out),
        ])
        assert code == 0

    def test_jobs_do_not_change_output(self, tmp_path):
        # short noisy run: slope checks may fail (exit 1) but the written
        # data and the verdict must not depend on the worker count
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dof-sweep", "--engine", "cj3", "--n", "1", "--feedback", "oracle",
                "--trials", "4", "--p-log2-max", "10", "--seed", "2"]
        code_a = main(args + ["--out", str(a), "--jobs", "1"])
        code_b = main(args + ["--out", str(b), "--jobs", "2"])
        assert code_a == code_b
        assert data_bytes(a) == data_bytes(b)

    def test_no_feedback_alpha_zero_gives_flat_rates(self, tmp_path):
        out = tmp_path / "dof.csv"
        code = main([
            "dof-sweep", "--engine", "cj3", "--n", "1", "--feedback", "oracle",
            "--alphas", "0.0", "--trials", "4", "--slope-tol", "0.1",
            "--sum-slope-tol", "0.15", "--out", str(out),
        ])
        assert code == 0
        for line in out.read_text().splitlines():
            if line.startswith("# slope") and "user=sum" not in line:
                slope = float(line.split("slope=")[1].split()[0])
                assert abs(slope) <= 0.1

    def test_failed_trials_are_dropped_and_reported(self, tmp_path):
        # at n=4, trials 3 and 5 of seed 0 leave a stream below c_min
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dof-sweep", "--engine", "cj3", "--n", "4", "--trials", "6"]
        assert main(args + ["--out", str(a), "--jobs", "1"]) == 1
        assert main(args + ["--out", str(b), "--jobs", "2"]) == 1
        assert data_bytes(a) == data_bytes(b)
        lines = a.read_text().splitlines()
        failed = [ln for ln in lines if ln.startswith("# failed ")]
        assert [ln.split()[2] for ln in failed] == ["trial=3", "trial=5"]
        assert all(" reason=cj3 construction failed" in ln for ln in failed)
        assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 11 * 3

    def test_every_trial_failed(self, tmp_path):
        out = tmp_path / "dof.csv"
        code = main([
            "dof-sweep", "--engine", "cj3", "--n", "16", "--trials", "2", "--out", str(out),
        ])
        assert code == 1
        lines = out.read_text().splitlines()
        assert lines[1].startswith("seed,K,R,L,n,P_log2")
        assert [ln.split()[2] for ln in lines[2:]] == ["trial=0", "trial=1"]

    def test_bad_alpha_user(self, tmp_path):
        code = main([
            "dof-sweep", "--alpha-user", "7", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("flags, shown", INVALID_SWEEPS)
    def test_invalid_sweep_is_usage_error(self, tmp_path, capsys, no_work, flags, shown):
        out = tmp_path / "x.csv"
        code = main(["dof-sweep", "--trials", "2", *flags, "--out", str(out)])
        assert code == 2
        assert shown in capsys.readouterr().err
        assert not out.exists()

    def test_grid_count_checked_before_the_grid_is_built(self, tmp_path, capsys, monkeypatch):
        def no_grid(config):
            raise AssertionError("the grid list was built")

        monkeypatch.setattr(iafb.cli, "_power_grid", no_grid)
        out = tmp_path / "x.csv"
        assert main(["dof-sweep", "--p-log2-step", "1e-300", "--out", str(out)]) == 2
        assert "has 1e+301 points" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_streams_match_per_key_reference(self, monkeypatch):
        # a block of trials 42 and 43, whose keys cross 2^32; silent users
        # (alpha 0) take their streams' normals through sample_uniform, the
        # others through the oracle. The reference draws one stream per key
        config = parse_config(["dof-sweep", "--alphas", "0,0.5,1", "--alpha-user", "0", "--seed", "5"])
        trials = range(42, 44)
        taps = [dense.seeded_channel(3, 1, 2, trial_generator(config.seed, t)) for t in trials]
        exact = np.stack([dense.directions(t) for t in taps])
        grid = iafb.cli._power_grid(config)
        batched = iafb.cli._oracle_feedback(config, trials, exact, grid)

        def per_key(seed, keys, shape):
            return np.stack([complex_normal(trial_generator(seed, key), shape) for key in keys])

        monkeypatch.setattr(iafb.cli, "trial_normals", per_key)
        assert np.array_equal(batched, iafb.cli._oracle_feedback(config, trials, exact, grid))


def per_point_trial(config, trial):
    """One dof-sweep trial evaluated point by point through the public calls.

    The reference for the batched `_block_stats`: every (alpha, power)
    point runs its own feedback, reconstruction, build and rate evaluation,
    in alpha-major order, with the streams the sweep documents. Each user's
    feedback is its own batch-of-one quantizer call.
    """
    K, R, L = config.K, config.R, config.L
    params = cj3_parameters(config.n) if config.engine == "cj3" else ia_parameters(K, R, config.n)
    count = int(round((config.p_log2_max - config.p_log2_min) / config.p_log2_step)) + 1
    grid = [2.0 ** (config.p_log2_min + t * config.p_log2_step) for t in range(count)]
    taps = dense.seeded_channel(K, R, L, trial_generator(config.seed, trial))
    tones = to_tone_domain(taps, params.N)[None]
    stats = np.zeros((len(config.alphas), len(grid), K, 5))

    def build(fed):
        """The batch-of-one set built on `fed`; raises its failure, as a point-by-point run stops."""
        bf = build_beamformers(
            reconstruct(fed[None], params.N, R=R), params, config.engine, tol=config.align_tol,
            max_iters=config.max_iters, rng=[trial_generator(config.seed, 7_000_000 + trial)],
        )
        if bf.failures[0] is not None:
            raise bf.failures[0]
        return bf

    if config.feedback == "perfect":
        bf = build(dense.directions(taps))
        for a in range(len(config.alphas)):
            for j, P in enumerate(grid):
                stats[a, j] = achievable_rates(tones, bf, P, config.noise)[0]
        return stats
    for a, alpha in enumerate(config.alphas):
        alphas = [alpha] * K
        if config.alpha_user != "all":
            alphas = [1.0] * K
            alphas[int(config.alpha_user)] = alpha
        for j, P in enumerate(grid):
            fed = []
            for i in range(K):
                rng = trial_generator(config.seed, (trial * 100_000 + a * 1_000 + j) * 1009 + i)
                normals = complex_normal(rng, (1, K, R * L))
                if alphas[i] == 0.0:
                    fed.append(sample_uniform(R * L, K, normals)[0])
                else:
                    delta_sq = np.square([oracle_radius(feedback_bits(K, R, L, P, alphas[i]), K, R * L)])
                    fed.append(distortion_oracle_quantize(dense.directions(taps)[i][None], delta_sq, normals)[0])
            bf = build(np.stack(fed))
            stats[a, j] = achievable_rates(tones, bf, P, config.noise)[0]
    return stats


def per_point_sweep(config):
    stats, failures = [], []
    for trial in range(config.trials):
        try:
            stats.append(per_point_trial(config, trial))
        except AlignmentError as exc:
            failures.append((trial, str(exc)))
    return np.array(stats), failures


class TestSweepMatchesPerPoint:
    """The batched sweep keeps every draw and the per-point failure order, whatever its blocks."""

    @staticmethod
    def blocks_of(monkeypatch, config, trials):
        """Make `run_dof_sweep` cut blocks of at most `trials` trials."""
        points = len(config.alphas) * len(iafb.cli._power_grid(config))
        monkeypatch.setattr(iafb.cli, "SWEEP_BLOCK", trials * points)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--engine", "cj3", "--n", "1", "--feedback", "oracle", "--alphas", "0,0.5,1", "--alpha-user", "0"],
            ["--engine", "cj3", "--n", "2", "--feedback", "oracle", "--alphas", "0,0.5,1", "--alpha-user", "0"],
            ["--engine", "cj3", "--n", "1", "--feedback", "oracle", "--alphas", "0,0.25,1"],
            ["--engine", "cj3", "--n", "2", "--feedback", "perfect", "--alphas", "0.5,1"],
            ["--engine", "leakage-min", "--feedback", "perfect", "--p-log2-max", "6"],
            ["--engine", "leakage-min", "--feedback", "oracle", "--alphas", "0.5,1",
             "--alpha-user", "2", "--p-log2-max", "6"],
        ],
    )
    def test_stats_match(self, flags):
        trials = "1" if "leakage-min" in flags else "3"
        config = parse_config(["dof-sweep", "--trials", trials, "--seed", "5", *flags])
        result = run_dof_sweep(config)
        stats, failures = per_point_sweep(config)
        assert result.failures == failures == []
        np.testing.assert_allclose(result.stats, stats, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--engine", "cj3", "--n", "1", "--feedback", "oracle", "--alphas", "0,0.5,1", "--alpha-user", "0"],
            ["--engine", "cj3", "--n", "2", "--feedback", "perfect", "--alphas", "0.5,1"],
        ],
    )
    def test_block_split_does_not_change_stats(self, monkeypatch, flags):
        # one trial per block, 7 trials in blocks of 2, 2 and 3, one block
        config = parse_config(["dof-sweep", "--trials", "7", "--seed", "5", *flags])
        results = []
        for per_block in (1, 3, 7):
            self.blocks_of(monkeypatch, config, per_block)
            results.append(run_dof_sweep(config))
        assert all(r.failures == [] for r in results)
        assert np.array_equal(results[0].stats, results[1].stats)
        assert np.array_equal(results[0].stats, results[2].stats)
        stats, failures = per_point_sweep(config)
        assert failures == []
        np.testing.assert_allclose(results[0].stats, stats, rtol=1e-9, atol=1e-12)

    def test_failures_inside_a_block(self, monkeypatch):
        # blocks of trials 0-2 and 3-5: trials 3 and 5 fail beside trial 4
        config = parse_config(["dof-sweep", "--engine", "cj3", "--n", "4", "--trials", "6"])
        self.blocks_of(monkeypatch, config, 4)
        result = run_dof_sweep(config)
        stats, failures = per_point_sweep(config)
        assert [t for t, _ in result.failures] == [3, 5]
        assert result.failures == failures
        np.testing.assert_allclose(result.stats, stats, rtol=1e-9, atol=1e-12)

    def test_jobs_do_not_change_output_across_blocks(self, tmp_path, monkeypatch):
        argv = ["dof-sweep", "--engine", "cj3", "--n", "1", "--feedback", "oracle", "--alphas", "0.25,0.5,1.0",
                "--alpha-user", "0", "--trials", "7"]
        self.blocks_of(monkeypatch, parse_config(argv), 2)  # blocks of 1, 2, 2 and 2 trials
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--jobs", "1", "--out", str(a)]) == main(argv + ["--jobs", "3", "--out", str(b)])
        assert data_bytes(a) == data_bytes(b)

    def test_block_bounds_peak_memory(self):
        # the feedback-sweep argv: 20 trials of 33 elements. Blocks of at
        # most SWEEP_BLOCK = 330 elements (two of 10 trials) peak at 1.24 MiB
        # traced; one pass over all 660 elements peaks at 2.38 MiB, and
        # blocks of 200 (four of 5 trials) at 0.66 MiB. The oracle holds its
        # drawn normals, not one generator per element and user
        config = parse_config([
            "dof-sweep", "--engine", "cj3", "--n", "1", "--feedback", "oracle", "--alphas", "0.25,0.5,1.0",
            "--alpha-user", "0", "--trials", "20",
        ])
        tracemalloc.start()
        try:
            run_dof_sweep(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("n, trials", [(4, 6), (16, 2)])
    def test_same_trials_dropped_for_the_same_reason(self, n, trials):
        config = parse_config(["dof-sweep", "--engine", "cj3", "--n", str(n), "--trials", str(trials)])
        result = run_dof_sweep(config)
        stats, failures = per_point_sweep(config)
        assert failures and result.failures == failures
        assert len(result.stats) == len(stats) == trials - len(failures)
        if len(stats):
            np.testing.assert_allclose(result.stats, stats, rtol=1e-9, atol=1e-12)


# Each command's runs at the benchmark argvs (seed 0), plus the feedback
# modes and the engine they leave out, so that every stage derives its keys
STREAM_RUNS = {
    "ia-run": [
        ["ia-run", "--K", "3", "--R", "1", "--L", "2", "--n", "2", "--engine", "leakage-min", "--feedback", "perfect"],
        ["ia-run", "--engine", "cj3", "--n", "1", "--feedback", "oracle"],
        ["ia-run", "--engine", "cj3", "--n", "1", "--feedback", "codebook", "--bits", "4"],
    ],
    "dof-sweep": [
        ["dof-sweep", "--engine", "cj3", "--n", "1", "--feedback", "oracle", "--alphas", "0.25,0.5,1.0",
         "--alpha-user", "0", "--trials", "20", "--p-log2-min", "4", "--p-log2-max", "14"],
        ["dof-sweep", "--engine", "leakage-min", "--feedback", "oracle", "--trials", "2", "--p-log2-max", "6"],
    ],
    "volume-check": [["volume-check", "--pairs", "2:1,2:2,3:2,2:3", "--deltas", "0.3,0.5,0.8", "--trials", "1000000"]],
    "quantizer-scaling": [["quantizer-scaling", "--n", "2", "--K", "2", "--bits", "6,8,10,12,14", "--trials", "10000"]],
}


def listed_keys(command):
    """(stage, entropy) of every stream the `STREAM_RUNS` of `command` derive at seed 0."""
    if command == "ia-run":
        oracle = {("_fed_back", (0, 1009 + i)) for i in range(3)}
        return {("_channel_normals", (0, 0)), ("cmd_ia_run", (0, 2)), ("_fed_back", (0, 3))} | oracle
    if command == "dof-sweep":
        channels = {("_channel_normals", (0, t)) for t in range(20)}
        tags = [(t * 100_000 + a * 1_000 + j) * 1009 + i for t in range(20) for a in range(3) for j in range(11)
                for i in range(3)]
        leakage_min = {("_block_stats", (0, 7_000_000 + t)) for t in range(2)}
        return channels | {("_oracle_feedback", (0, tag)) for tag in tags} | leakage_min
    if command == "volume-check":
        return {("_volume_span_hits", (0, task, c)) for task in range(12) for c in range(16)}
    return {("cmd_quantizer_scaling", (0, 0)), ("cmd_quantizer_scaling", (0, 1))}


# stream entropies that two stages of one command share. The oracle tag of
# dof-sweep trial 0's first point, (0*100_000 + 0*1_000 + 0)*1009 + i, is i,
# so that point feeds back user i with trial i's channel stream (ROADMAP
# item 7). Across commands, volume-check's chunk 0 of task t hashes
# [s, t, 0] as dof-sweep's channel stream [s, t] (ROADMAP item 18)
KNOWN_ALIASES = {
    "dof-sweep": {frozenset({("_channel_normals", (0, i)), ("_oracle_feedback", (0, i))}) for i in range(3)},
}


@pytest.mark.parametrize("command", STREAM_RUNS)
def test_stream_keys_are_distinct(tmp_path, monkeypatch, command):
    # every (seed, *key) a command hands to trial_generator or trial_normals,
    # with the function that derives it, is the listed one, and distinct
    # entropies hash to distinct SeedSequence states
    seen = set()
    generator, normals = iafb.cli.trial_generator, iafb.cli.trial_normals

    def stage():
        frame = sys._getframe(2)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
            frame = frame.f_back
        return frame.f_code.co_name

    def recording_generator(seed, *key):
        seen.add((stage(), (int(seed), *map(int, key))))
        return generator(seed, *key)

    def recording_normals(seed, keys, shape):
        name = stage()
        seen.update((name, (int(seed), int(k))) for k in keys)
        return normals(seed, keys, shape)

    monkeypatch.setattr(iafb.cli, "trial_generator", recording_generator)
    monkeypatch.setattr(iafb.cli, "trial_normals", recording_normals)
    # volume-check's keys do not depend on its counts: draw no samples
    monkeypatch.setattr(iafb.cli, "empirical_ball_cdf", lambda *args: 0.0)
    for r, argv in enumerate(STREAM_RUNS[command]):
        assert main(argv + ["--seed", "0", "--out", str(tmp_path / f"run{r}.csv")]) in (0, 1)
    assert seen == listed_keys(command)

    owners = {}
    for stage_, entropy in seen:
        state = tuple(np.random.SeedSequence(list(entropy)).generate_state(4))
        owners.setdefault(state, set()).add((stage_, entropy))
    assert {frozenset(o) for o in owners.values() if len(o) > 1} == KNOWN_ALIASES.get(command, set())


class TestMimoReduce:
    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "red.json"
        code = main([
            "mimo-reduce", "--K", "3", "--Mt", "2", "--Mr", "4", "--L", "1",
            "--p-log2", "10", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["R"] == 2
        assert data["bits_per_original_receiver"] == 120.0
        assert json.loads(capsys.readouterr().out) == data

    def test_zero_forcing_regime_exit(self, tmp_path, capsys):
        assert main(["mimo-reduce", "--K", "2", "--Mt", "2", "--Mr", "4", "--L", "1"]) == 2
        assert "zero-forcing" in capsys.readouterr().err


# (argv, the option its message must name)
USAGE_ERRORS = [
    # NaN passes or fails a gate silently
    (["ia-run", "--engine", "cj3", "--n", "1", "--align-tol", "nan"], "--align-tol"),
    (["ia-run", "--p-log2", "nan"], "--p-log2"),
    (["mimo-reduce", "--p-log2", "nan"], "--p-log2"),
    (["volume-check", "--deltas", "nan"], "--deltas"),
    (["quantizer-scaling", "--tolerance", "nan"], "--tolerance"),
    (["dof-sweep", "--slope-tol", "nan"], "--slope-tol"),
    (["volume-check", "--deltas", "0.3,inf"], "--deltas"),
    (["ia-run", "--feedback", "oracle", "--alpha=-inf"], "--alpha"),
    # the noise power must be positive
    (["ia-run", "--noise", "0"], "--noise"),
    (["ia-run", "--noise=-1"], "--noise"),
    (["dof-sweep", "--noise", "0", "--trials", "1"], "--noise"),
    # 2**p_log2 must be a finite positive float
    (["ia-run", "--p-log2", "2000"], "--p-log2"),
    (["ia-run", "--p-log2=-2000"], "--p-log2"),
    (["mimo-reduce", "--p-log2", "1024"], "--p-log2"),
    (["dof-sweep", "--p-log2-max", "1100", "--p-log2-step", "100"], "--p-log2-max"),
    (["dof-sweep", "--p-log2-min=-1100"], "--p-log2-min"),
    # the last grid point rounds to 1024, half a step past the end
    (["dof-sweep", "--p-log2-min", "1000", "--p-log2-max", "1023", "--p-log2-step", "3"], "--p-log2-max"),
    # gate thresholds must be >= 0
    (["volume-check", "--sigmas=-1"], "--sigmas"),
    (["quantizer-scaling", "--tolerance=-0.1"], "--tolerance"),
    (["dof-sweep", "--slope-tol=-0.1"], "--slope-tol"),
    (["dof-sweep", "--sum-slope-tol=-0.1"], "--sum-slope-tol"),
    (["ia-run", "--align-tol=-1e-8"], "--align-tol"),
    (["ia-run", "--c-min=-1e-6"], "--c-min"),
    # a seed is the entropy of every derived stream, which must be >= 0
    (["volume-check", "--seed=-1"], "--seed"),
    (["quantizer-scaling", "--seed=-1"], "--seed"),
    (["ia-run", "--seed=-1"], "--seed"),
    (["dof-sweep", "--seed=-1"], "--seed"),
    # a point of G_{n,1}^K needs n >= 2 and K >= 1
    (["quantizer-scaling", "--n", "0", "--K", "-1"], "--n must be >= 2, got 0"),
    (["quantizer-scaling", "--n", "1"], "--n must be >= 2, got 1"),
    (["quantizer-scaling", "--K", "0"], "--K must be >= 1, got 0"),
    # an iteration cap and a worker count take at least one; --shared is a
    # switch. -3 iterations would run three empty attempts, -4 jobs one worker
    (
        ["ia-run", "--K", "3", "--R", "1", "--L", "2", "--n", "1", "--engine", "leakage-min", "--max-iters=-3"],
        "--max-iters must be >= 1, got -3",
    ),
    (["ia-run", "--max-iters", "0"], "--max-iters must be >= 1, got 0"),
    (["dof-sweep", "--engine", "leakage-min", "--max-iters", "0"], "--max-iters must be >= 1, got 0"),
    (["volume-check", "--jobs=-4"], "--jobs must be >= 1, got -4"),
    (["volume-check", "--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["dof-sweep", "--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["ia-run", "--shared", "2"], "--shared must be 0 or 1, got 2"),
    (["ia-run", "--shared=-1"], "--shared must be 0 or 1, got -1"),
]


@pytest.fixture
def no_work(monkeypatch):
    """Fail any run that draws a channel, counts a Monte Carlo chunk, builds a codebook or reduces a network."""

    def work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    for name in ("trial_normals", "generate_channel", "empirical_ball_cdf", "build_random_codebook", "mimo_reduce"):
        monkeypatch.setattr(iafb.cli, name, work)


class TestNumericDomains:
    """Non-finite and out-of-range numeric options are usage errors, caught before any work."""

    @pytest.mark.parametrize("argv, flag", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
    def test_usage_error_before_any_work(self, tmp_path, capsys, no_work, argv, flag):
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestInputChecks:
    """Every bad input exits 2 with its message before any work, whether it comes from a flag or an archive."""

    @pytest.mark.parametrize(
        "flags, shown",
        [
            (["--pairs", ""], "--pairs lists no n:K pair"),
            (["--pairs", ","], "--pairs lists no n:K pair"),
            (["--deltas", ""], "--deltas lists no radius"),
        ],
    )
    def test_empty_volume_check_list(self, tmp_path, capsys, no_work, flags, shown):
        out = tmp_path / "vol.csv"
        assert main(["volume-check", *flags, "--out", str(out)]) == 2
        assert shown in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fault, shown",
        [
            ("magic", "first line"),
            ("header", "the header lacks L"),
            ("short-row", "tap 0 of link (0, 0) holds 1 values, not R=2"),
            ("missing-link", "missing link entries"),
            ("zero-link", "link (0, 0) is identically zero"),
            ("nan-tap", "link (0, 0) holds a non-finite tap"),
            # 262 TiB of taps, were they allocated before the header is checked
            ("huge", "the header gives (K, K, L, R) = (3000000, 3000000, 2, 1), not (3, 3, 2, 2)"),
        ],
    )
    def test_malformed_channel_archive(self, tmp_path, capsys, no_work, fault, shown):
        chan = tmp_path / "chan.txt"
        save_channel(dense.seeded_channel(3, 2, 2, 5), chan)
        lines = chan.read_text().splitlines()
        if fault == "magic":
            lines[0] = "# iafb-channel v2"
        elif fault == "header":
            lines[1] = lines[1].replace(" L=2", "")
        elif fault == "short-row":
            lines[3] = lines[3].split()[0]
        elif fault == "zero-link":
            lines[3] = lines[4] = "0j 0j"  # both taps of link (0, 0)
        elif fault == "nan-tap":
            lines[4] = "nanj " + lines[4].split()[1]  # tap 1, antenna 0 of link (0, 0)
        elif fault == "huge":
            lines = [lines[0], "K=3000000 R=1 L=2"]
        else:
            lines = lines[:-3]  # the entry of link (2, 2): its tag and L = 2 tap rows
        chan.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run.csv"
        tracemalloc.start()
        try:
            code = main(["ia-run", "--R", "2", "--channel-file", str(chan), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed channel file" in err and shown in err
        assert not out.exists()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["volume-check", "--pairs", "2:1", "--deltas", "0.5", "--trials", "1000"], "--out"),
            (["quantizer-scaling", "--bits", "2,3,4", "--trials", "100"], "--out"),
            (["quantizer-scaling", "--bits", "2,3,4", "--trials", "100", "--codebook-out", "MISSING/cb_"],
             "--codebook-out"),
            (["ia-run", "--engine", "cj3"], "--out"),
            (["ia-run", "--engine", "cj3", "--save-channel", "MISSING/chan.txt"], "--save-channel"),
            (["dof-sweep", "--trials", "1"], "--out"),
            (["mimo-reduce"], "--out"),
        ],
    )
    def test_output_directory_must_exist(self, tmp_path, capsys, no_work, argv, flag):
        missing = tmp_path / "missing"
        argv = [arg.replace("MISSING", str(missing)) for arg in argv]
        out = (missing if flag == "--out" else tmp_path) / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"{flag} {missing}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["volume-check", "--pairs", "2:1", "--deltas", "0.5", "--trials", "1000"], "--out"),
            (["quantizer-scaling", "--bits", "2,3,4", "--trials", "100"], "--out"),
            (["ia-run", "--engine", "cj3"], "--out"),
            (["ia-run", "--engine", "cj3"], "--save-channel"),
            (["dof-sweep", "--trials", "1"], "--out"),
            (["mimo-reduce"], "--out"),
        ],
    )
    def test_output_path_must_not_be_a_directory(self, tmp_path, capsys, no_work, argv, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        out = folder if flag == "--out" else tmp_path / "out.csv"
        extra = [flag, str(folder)] if flag != "--out" else []
        assert main([*argv, *extra, "--out", str(out)]) == 2
        assert f"{flag} {folder}: is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [folder] and list(folder.iterdir()) == []

    def test_codebook_prefix_may_name_a_directory(self, tmp_path):
        # --codebook-out is a prefix: "<dir>" writes "<dir>6.txt" beside it
        config = parse_config(["quantizer-scaling", "--codebook-out", str(tmp_path)])
        assert config.codebook_out == str(tmp_path)

    @pytest.mark.parametrize("command", ["ia-run", "dof-sweep"])
    def test_huge_sizing_refused_before_any_power(self, tmp_path, capsys, monkeypatch, command):
        # K=10,000 n=2: N = 2 * 3^gamma with gamma = 99,980,000, an integer
        # of 1.6e8 bits; building the sizing at all fails this test
        def no_sizing(*args):
            raise AssertionError("the sizing was built before its size was bounded")

        monkeypatch.setattr(iafb.cli, "_make_params", no_sizing)
        argv = [command, "--engine", "leakage-min", "--K", "10000", "--n", "2", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "dense link matrices" in err and "N=2^158464551.8 tones" in err
        assert list(tmp_path.iterdir()) == []

    def test_log_bound_refuses_only_what_the_exact_count_refuses(self):
        for K in range(3, 8):
            for R in range(1, K):
                for n in range(1, 5):
                    gamma = K * R * (K - R - 1)
                    entries = K**2 * R * ((R + 1) * (n + 1) ** gamma) ** 2
                    config = parse_config(["ia-run", "--K", str(K), "--R", str(R), "--n", str(n)])
                    if entries <= iafb.cli.MAX_DENSE_ENTRIES:
                        assert iafb.cli._pipeline_params(config).N ** 2 * K**2 * R == entries
                    else:
                        with pytest.raises(iafb.cli.UsageError, match="dense link matrices"):
                            iafb.cli._pipeline_params(config)

    def test_largest_sizing_in_use_passes_the_cap(self):
        # K=4 R=2 n=1: N = 768, 18.9 million dense entries (302 MB)
        params = iafb.cli._pipeline_params(parse_config(["ia-run", "--K", "4", "--R", "2", "--n", "1"]))
        assert params.N == 768
        assert params.K**2 * params.R * params.N**2 <= iafb.cli.MAX_DENSE_ENTRIES


def usable_cpus(monkeypatch, count):
    """Make the CPU count `_map` reads `count`, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every process pool a run makes; each pool runs its tasks in this process.

    The run sees 64 usable CPUs, so only its task count and --jobs bound
    its workers unless a test sets another count.
    """
    usable_cpus(monkeypatch, 64)
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args, chunksize=1):
            return map(fn, args)

    # `_map` imports the pool class from its package when it needs workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


class TestWorkerCount:
    """No run starts more worker processes than it has tasks or usable CPUs."""

    def test_map_caps_workers_at_tasks(self, pool_sizes):
        assert iafb.cli._map(abs, [-1, -2, -3], 5000) == [1, 2, 3]
        assert iafb.cli._map(abs, [-4], 5000) == [4]
        assert iafb.cli._map(abs, [], 5000) == []
        assert pool_sizes == [3]

    def test_map_caps_workers_at_usable_cpus(self, monkeypatch, pool_sizes):
        # --jobs 5000 over a million tasks on two CPUs: two workers; on
        # one CPU the tasks run in this process
        tasks = range(-1000, 0)
        usable_cpus(monkeypatch, 2)
        assert iafb.cli._map(abs, tasks, 5000) == list(range(1000, 0, -1))
        usable_cpus(monkeypatch, 1)
        assert iafb.cli._map(abs, tasks[:3], 5000) == [1000, 999, 998]
        assert pool_sizes == [2]

    @pytest.mark.parametrize(
        "argv, workers",
        [
            # two (n, K, delta) tasks of one Monte Carlo chunk each
            (["volume-check", "--pairs", "2:1", "--deltas", "0.5,0.8", "--trials", "1000"], [2]),
            # a single block, run in this process
            (["dof-sweep", "--trials", "1", "--p-log2-max", "6"], []),
        ],
    )
    def test_many_jobs_start_no_idle_workers(self, tmp_path, pool_sizes, argv, workers):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*argv, "--jobs", "5000", "--out", str(a)]) == main([*argv, "--jobs", "1", "--out", str(b)])
        assert pool_sizes == workers
        assert data_bytes(a) == data_bytes(b)


# one argv per subcommand, each setting options of several kinds
PARSE_ARGV = {
    "volume-check": ["volume-check", "--pairs", "2:2,3:2", "--deltas", "0.5", "--seed", "3"],
    "quantizer-scaling": ["quantizer-scaling", "--bits", "4,6,8", "--trials", "100"],
    "ia-run": ["ia-run", "--engine", "cj3", "--feedback", "oracle", "--alpha", "0.5"],
    "dof-sweep": ["dof-sweep", "--alphas", "0.25,1", "--alpha-user", "0", "--trials", "3"],
    "mimo-reduce": ["mimo-reduce", "--Mt", "3", "--p-log2", "12"],
}


class TestParser:
    @pytest.mark.parametrize("command", list(PARSE_ARGV))
    def test_one_parser_parses_alike_first_and_after_another(self, command):
        iafb.cli._build_parser.cache_clear()
        first = parse_config(PARSE_ARGV[command])
        other = next(c for c in PARSE_ARGV if c != command)
        assert parse_config(PARSE_ARGV[other]).command == other
        assert parse_config(PARSE_ARGV[command]) == first
        assert first.command == command
        assert iafb.cli._build_parser.cache_info().misses == 1


def test_import_leaves_numpy_random_unloaded():
    # importing numpy.random costs every CLI start about 15 ms; the library
    # imports it on the first draw (see `rng._seed_words_type`)
    src = str(Path(iafb.cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, iafb.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_one_worker_run_loads_no_process_pool(tmp_path):
    # a --jobs 1 run imports neither concurrent.futures nor multiprocessing:
    # `_map` imports the pool only when it starts workers
    src = str(Path(iafb.cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "dof.csv"
    code = (
        "import sys, iafb.cli\n"
        "pool = ('concurrent.futures', 'multiprocessing')\n"
        "print(sorted(m for m in sys.modules if m.startswith(pool)))\n"
        "argv = ['dof-sweep', '--feedback', 'perfect', '--trials', '2', '--p-log2-max', '6', '--jobs', '1']\n"
        "assert iafb.cli.main(argv + ['--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(pool)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["[]", "[]", ""]


class TestConfigFile:
    """A CSV's first line records the run's options."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["volume-check", "--pairs", "2:1", "--deltas", "0.5", "--trials", "1000"],
            ["quantizer-scaling", "--bits", "2,3,4", "--trials", "100"],
            ["ia-run", "--engine", "cj3"],
            ["dof-sweep", "--trials", "1", "--p-log2-max", "6"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_config_line_names_each_option_once(self, tmp_path, argv):
        # the parsed namespace also holds the subcommand, which the line
        # names once, apart from the options
        out = tmp_path / "run.csv"
        main([*argv, "--out", str(out)])
        _, command, pairs = out.read_text().splitlines()[0].split(" | ")
        assert command == argv[0]
        assert [pair.partition("=")[0] for pair in pairs.split(" ")] == sorted(iafb.cli._OPTIONS[command])

    def test_config_comment_embedded_in_csv(self, tmp_path):
        out = tmp_path / "v.csv"
        main([
            "volume-check", "--pairs", "2:1", "--deltas", "0.5",
            "--trials", "1000", "--seed", "77", "--out", str(out),
        ])
        head = out.read_text().splitlines()[0]
        assert "seed=77" in head and "volume-check" in head and "pairs=2:1" in head
