import json

from iafb.channel import generate_channel, save_channel
from iafb.cli import main


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

    def test_codebook_export(self, tmp_path):
        from iafb.quantizer import load_codebook

        prefix = str(tmp_path / "cb_")
        code = main([
            "quantizer-scaling", "--n", "2", "--K", "1", "--bits", "4,5,6",
            "--trials", "500", "--codebook-out", prefix,
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 0
        cb = load_codebook(tmp_path / "cb_6.txt")
        assert (cb.n, cb.K, cb.bits) == (2, 1, 6)


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
        chan = tmp_path / "chan.txt"
        save_channel(generate_channel(3, 1, 2, seed=5), chan)
        out = tmp_path / "run.csv"
        code = main([
            "ia-run", "--channel-file", str(chan), "--engine", "cj3", "--n", "1",
            "--out", str(out),
        ])
        assert code == 0

    def test_codebook_feedback_mode(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "ia-run", "--engine", "cj3", "--n", "1", "--feedback", "codebook",
            "--bits", "6", "--seed", "3", "--out", str(out),
        ])
        assert code == 0

    def test_wrong_engine_parametrization(self, tmp_path):
        code = main([
            "ia-run", "--engine", "cj3", "--K", "4",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2


class TestDofSweep:
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


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("K=3\nMt=2\nMr=4\nL=1\np_log2=10\n")
        assert main(["mimo-reduce", "--config", str(cfg)]) == 0
        base = json.loads(capsys.readouterr().out)
        assert base["bits_per_original_receiver"] == 120.0
        # explicit flag wins over the file
        assert main(["mimo-reduce", "--config", str(cfg), "--p-log2", "20"]) == 0
        over = json.loads(capsys.readouterr().out)
        assert over["bits_per_original_receiver"] == 240.0

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["mimo-reduce", "--config", str(cfg)]) == 2

    def test_config_comment_embedded_in_csv(self, tmp_path):
        out = tmp_path / "v.csv"
        main([
            "volume-check", "--pairs", "2:1", "--deltas", "0.5",
            "--trials", "1000", "--seed", "77", "--out", str(out),
        ])
        head = out.read_text().splitlines()[0]
        assert "seed=77" in head and "volume-check" in head and "pairs=2:1" in head
