import numpy as np
import pytest

import dense_reference as dense
from iafb.alignment import BeamformerSet, IaParameters, build_beamformers, cj3_parameters
from iafb.channel import receiver_feedback, reconstruct, to_tone_domain
from iafb.quantizer import distortion_oracle_quantize, feedback_bits, oracle_radius
from iafb.cli import _rate_rows, parse_config
from iafb.rates import (
    achievable_rates,
    dof_fit,
    interference_slope,
    CSV_COLUMNS,
    interference_terms,
)
from iafb.rng import trial_normals


def aligned_setup(seed, n=2):
    """A cj3 sizing, one channel's (K, K, N, R) tones and the batch-of-one set built on its perfect feedback."""
    params = cj3_parameters(n)
    taps = dense.seeded_channel(3, 1, 2, seed)
    rec = reconstruct(receiver_feedback(taps)[None], params.N, R=1)
    bf = build_beamformers(rec, params, "cj3")
    assert bf.failures == (None,)
    return params, to_tone_domain(taps, params.N), bf


class TestInterferenceTerms:
    def test_perfect_alignment_kills_interference(self):
        _, tones, bf = aligned_setup(seed=0)
        P = 2.0**12
        _, own, cross = interference_terms(tones, bf, P)
        for i in range(3):
            assert np.max(own[i]) <= 1e-9 * P
            assert np.max(cross[i]) <= 1e-9 * P

    def test_single_user_has_no_cross_interference(self):
        taps = (np.ones((1, 1, 2, 1)) + 1j * np.ones((1, 1, 2, 1))) / 2.0
        tones = to_tone_domain(taps.astype(complex), 2)
        params = IaParameters(K=1, R=1, n=1, N=2, d=(1,))
        v = np.array([[[1.0], [0.0]]], dtype=complex)
        u = np.array([[[1.0], [0.0]]], dtype=complex)
        bf = BeamformerSet(
            v=(v,), u=(u,), params=params, alignment_residual=np.zeros(1), signal_min=np.ones(1),
            failures=(None,),
        )
        _, own, cross = interference_terms(tones[None], bf, 8.0)
        assert cross[0].shape == (1, 1)
        assert np.all(cross[0] == 0.0)

    def test_matches_pseudo_beamformer_path(self):
        # independent algebra: signal terms recomputed as hbar^H b with the
        # pseudo-beamformer b = conj(u) * (v kron ones(R))
        params, tones, bf = aligned_setup(seed=1)
        P = 64.0
        signal, _, _ = interference_terms(tones[None], bf, P)
        for i in range(3):
            hbar = dense.hbar(tones, i, i)
            for m in range(params.d[i]):
                b = np.conj(bf.u[i][0, :, m]) * np.repeat(bf.v[i][0, :, m], params.R)
                expect = (P / (3 * params.d[i])) * abs(np.vdot(hbar, b)) ** 2
                assert signal[i][0, m] == pytest.approx(expect, rel=1e-10)

    def test_requires_positive_power(self):
        _, tones, bf = aligned_setup(seed=2)
        with pytest.raises(ValueError):
            interference_terms(tones[None], bf, 0.0)

    def test_shape_mismatch_rejected(self):
        params, _, bf = aligned_setup(seed=3)
        other = to_tone_domain(dense.seeded_channel(3, 1, 2, 4), params.N + 2)
        with pytest.raises(ValueError, match="do not match"):
            interference_terms(other[None], bf, 4.0)

    def test_power_decomposition_additivity(self):
        # u^H Cov(y) u recomputed from the dense covariance must equal
        # signal + I1 + I2 + noise for every stream
        params, tones, bf = aligned_setup(seed=5)
        P, noise = 2.0**9, 1.0
        signal, own, cross = interference_terms(tones[None], bf, P)
        for i in range(3):
            cov = noise * np.eye(params.N, dtype=complex)
            for k in range(3):
                img = dense.hbar_matrix(tones, i, k) @ bf.v[k][0]
                cov += (P / (3 * params.d[k])) * (img @ img.conj().T)
            for m in range(params.d[i]):
                u = bf.u[i][0, :, m]
                total = float(np.real(np.conj(u) @ cov @ u))
                expect = signal[i][0, m] + own[i][0, m] + cross[i][0, m] + noise
                assert total == pytest.approx(expect, rel=1e-9)


class TestAchievableRates:
    def test_unit_sinr_stream_contribution(self):
        # signal equal to the noise floor and no interference adds
        # log2(2)/N = 1/N to the user's rate
        params, tones, bf = aligned_setup(seed=6)
        signal, own, cross = interference_terms(tones[None], bf, 16.0)
        stats = achievable_rates(tones[None], bf, 16.0, 1.0)
        manual = sum(np.log2(1.0 + signal[0][0] / (own[0][0] + cross[0][0] + 1.0))) / params.N
        assert stats[0, 0, 0] == pytest.approx(manual, rel=1e-12)

    def test_monotone_in_power(self):
        _, tones, bf = aligned_setup(seed=7)
        rates = [achievable_rates(tones[None], bf, P, 1.0)[0, :, 0].sum() for P in (4.0, 16.0, 64.0, 256.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_noise_increase_decreases_rates(self):
        _, tones, bf = aligned_setup(seed=8)
        low = achievable_rates(tones[None], bf, 64.0, 1.0)
        high = achievable_rates(tones[None], bf, 64.0, 2.0)
        assert np.all(high[..., 0] < low[..., 0])

    def test_rejects_bad_noise(self):
        _, tones, bf = aligned_setup(seed=9)
        with pytest.raises(ValueError, match="noise power"):
            achievable_rates(tones[None], bf, 4.0, 0.0)

    def test_user_stats_summarize_streams(self):
        params, tones, bf = aligned_setup(seed=10)
        stats = achievable_rates(tones[None], bf, 32.0, 1.0)
        signal, own, cross = interference_terms(tones[None], bf, 32.0)
        assert stats.shape == (1, 3, 5)
        for i in range(3):
            s, i1, i2 = signal[i][0], own[i][0], cross[i][0]
            rate = np.sum(np.log2(1.0 + s / (i1 + i2 + 1.0))) / params.N
            assert list(stats[0, i]) == [rate, i1.max(), i2.max(), s.min(), max(i1 + i2)]
        # powers on a leading axis broadcast against the batch axis
        swept = achievable_rates(tones[None], bf, np.array([32.0, 64.0])[:, None], 1.0)
        assert swept.shape == (2, 1, 3, 5)
        np.testing.assert_array_equal(swept[0], stats)

    def test_csv_rows_contract(self):
        _, tones, bf = aligned_setup(seed=10)
        stats = achievable_rates(tones[None], bf, 32.0, 1.0)[0]
        _, _, cross = interference_terms(tones[None], bf, 32.0)
        config = parse_config(["ia-run", "--engine", "cj3", "--n", "2", "--seed", "10"])
        rows = _rate_rows(config, 32.0, 1.0, stats)
        assert len(rows) == 3
        assert tuple(rows[0]) == CSV_COLUMNS
        assert rows[1]["user"] == 1
        assert rows[0]["P_log2"] == 5.0
        assert rows[2]["rate"] == stats[2, 0]
        assert rows[2]["I2"] == cross[2][0].max()


class TestDofFit:
    def test_exact_line(self):
        pts = [(2.0**t, 1.2 * t + 3.0) for t in range(4, 15)]
        assert dof_fit(pts) == pytest.approx(1.2, abs=1e-12)

    def test_constant_values(self):
        assert dof_fit([(2.0**t, 5.5) for t in range(4, 10)]) == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_distinct_powers(self):
        with pytest.raises(ValueError):
            dof_fit([(4.0, 1.0), (4.0, 2.0), (8.0, 3.0)])


class TestInterferenceBoundedness:
    def test_floor_clamps_numerical_residue(self):
        # interference at the alignment noise floor must read as bounded;
        # the floor sits at 1e-10, so growth that stays below it is flat too
        for scale in (1e-26, 1e-15):
            sweep = [(2.0**t, scale * 2.0**t) for t in range(4, 15)]
            assert abs(interference_slope(sweep)) <= 1e-9

    def test_growing_interference_fails(self):
        sweep = [(2.0**t, 1e-3 * 2.0**t) for t in range(4, 15)]
        assert interference_slope(sweep) == pytest.approx(1.0, abs=1e-9)

    def test_fractional_growth_slope(self):
        sweep = [(2.0**t, 2.0 ** (0.5 * t)) for t in range(4, 15)]
        assert interference_slope(sweep) == pytest.approx(0.5, abs=1e-9)

    def test_oracle_feedback_interference_is_bounded(self):
        params = cj3_parameters(1)
        grid = [2.0**t for t in (4, 6, 8, 10, 12, 14)]
        worst = []
        for j, P in enumerate(grid):
            acc = 0.0
            for trial in range(5):
                taps = dense.seeded_channel(3, 1, 2, trial)
                fed = distortion_oracle_quantize(
                    receiver_feedback(taps),
                    np.full(3, oracle_radius(feedback_bits(3, 1, 2, P, 1.0), 3, 2) ** 2),
                    trial_normals(3, trial * 100 + j * 10 + np.arange(3), (3, 2)),
                )
                bf = build_beamformers(reconstruct(fed[None], params.N, R=1), params, "cj3")
                assert bf.failures == (None,)
                acc = max(acc, achievable_rates(to_tone_domain(taps, params.N)[None], bf, P, 1.0)[..., 4].max())
            worst.append((P, acc))
        assert interference_slope(worst) <= 0.1
