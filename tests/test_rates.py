import numpy as np
import pytest

from iafb.alignment import BeamformerSet, IaParameters, build_beamformers, cj3_parameters
from iafb.channel import (
    ChannelRealization,
    generate_channel,
    receiver_feedback,
    reconstruct,
    to_tone_domain,
)
from iafb.quantizer import FeedbackBudget
from iafb.rates import (
    achievable_rates,
    dof_fit,
    interference_boundedness,
    interference_terms,
    rate_csv_rows,
)
from iafb.rng import trial_generator


def aligned_setup(seed, n=2):
    params = cj3_parameters(n)
    ch = generate_channel(3, 1, 2, seed=seed)
    tone = to_tone_domain(ch, params.N)
    rec = reconstruct([receiver_feedback(ch, i) for i in range(3)], params.N)
    bf = build_beamformers(rec, params, "cj3")
    return params, tone, bf


class TestInterferenceTerms:
    def test_perfect_alignment_kills_interference(self):
        _, tone, bf = aligned_setup(seed=0)
        P = 2.0**12
        _, own, cross = interference_terms(tone, bf, P)
        for i in range(3):
            assert np.max(own[i]) <= 1e-9 * P
            assert np.max(cross[i]) <= 1e-9 * P

    def test_single_user_has_no_cross_interference(self):
        taps = (np.ones((1, 1, 2, 1)) + 1j * np.ones((1, 1, 2, 1))) / 2.0
        ch = ChannelRealization(K=1, R=1, L=2, taps=taps.astype(complex))
        tone = to_tone_domain(ch, 2)
        params = IaParameters(K=1, R=1, n=1, N=2, d=(1,))
        v = np.array([[1.0], [0.0]], dtype=complex)
        u = np.array([[1.0], [0.0]], dtype=complex)
        bf = BeamformerSet(
            v=(v,), u=(u,), params=params, alignment_residual=0.0,
            signal_min=1.0, engine="leakage-min",
        )
        _, own, cross = interference_terms(tone, bf, 8.0)
        assert np.all(cross[0] == 0.0)

    def test_matches_pseudo_beamformer_path(self):
        # independent algebra: signal terms recomputed as hbar^H b with the
        # pseudo-beamformer b = conj(u) * (v kron ones(R))
        params, tone, bf = aligned_setup(seed=1)
        P = 64.0
        signal, _, _ = interference_terms(tone, bf, P)
        for i in range(3):
            hbar = tone.hbar(i, i)
            for m in range(params.d[i]):
                b = np.conj(bf.u[i][:, m]) * np.repeat(bf.v[i][:, m], tone.R)
                expect = (P / (3 * params.d[i])) * abs(np.vdot(hbar, b)) ** 2
                assert signal[i][m] == pytest.approx(expect, rel=1e-10)

    def test_requires_positive_power(self):
        _, tone, bf = aligned_setup(seed=2)
        with pytest.raises(ValueError):
            interference_terms(tone, bf, 0.0)

    def test_shape_mismatch_rejected(self):
        params, tone, bf = aligned_setup(seed=3)
        other = to_tone_domain(generate_channel(3, 1, 2, seed=4), params.N + 2)
        with pytest.raises(ValueError):
            interference_terms(other, bf, 4.0)

    def test_power_decomposition_additivity(self):
        # u^H Cov(y) u recomputed from the dense covariance must equal
        # signal + I1 + I2 + noise for every stream
        params, tone, bf = aligned_setup(seed=5)
        P, noise = 2.0**9, 1.0
        signal, own, cross = interference_terms(tone, bf, P)
        for i in range(3):
            cov = noise * np.eye(params.N, dtype=complex)
            for k in range(3):
                img = tone.hbar_matrix(i, k) @ bf.v[k]
                cov += (P / (3 * params.d[k])) * (img @ img.conj().T)
            for m in range(params.d[i]):
                u = bf.u[i][:, m]
                total = float(np.real(np.conj(u) @ cov @ u))
                expect = signal[i][m] + own[i][m] + cross[i][m] + noise
                assert total == pytest.approx(expect, rel=1e-9)


class TestAchievableRates:
    def test_unit_sinr_stream_contribution(self):
        # signal equal to the noise floor and no interference adds
        # log2(2)/N = 1/N to the user's rate
        params, tone, bf = aligned_setup(seed=6)
        signal, own, cross = interference_terms(tone, bf, 16.0)
        report = achievable_rates(tone, bf, 16.0)
        manual = sum(
            np.log2(1.0 + signal[0] / (own[0] + cross[0] + tone.noise_power))
        ) / params.N
        assert report.rates[0] == pytest.approx(manual, rel=1e-12)
        assert report.rate_sum == pytest.approx(float(np.sum(report.rates)), rel=1e-12)

    def test_monotone_in_power(self):
        _, tone, bf = aligned_setup(seed=7)
        rates = [achievable_rates(tone, bf, P).rate_sum for P in (4.0, 16.0, 64.0, 256.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_noise_increase_decreases_rates(self):
        _, tone, bf = aligned_setup(seed=8)
        low = achievable_rates(tone, bf, 64.0, noise_power=1.0)
        high = achievable_rates(tone, bf, 64.0, noise_power=2.0)
        assert np.all(high.rates < low.rates)

    def test_rejects_bad_noise(self):
        _, tone, bf = aligned_setup(seed=9)
        with pytest.raises(ValueError):
            achievable_rates(tone, bf, 4.0, noise_power=0.0)

    def test_csv_rows_contract(self):
        _, tone, bf = aligned_setup(seed=10)
        report = achievable_rates(tone, bf, 32.0)
        rows = rate_csv_rows(report, seed=10, K=3, R=1, L=2, n=2, alpha=1.0)
        assert len(rows) == 3
        assert list(rows[0]) == [
            "seed", "K", "R", "L", "n", "P_log2", "alpha", "user",
            "rate", "I1", "I2", "signal",
        ]
        assert rows[1]["user"] == 1
        assert rows[0]["P_log2"] == 5.0


class TestDofFit:
    def test_exact_line(self):
        pts = [(2.0**t, 1.2 * t + 3.0) for t in range(4, 15)]
        est = dof_fit(pts)
        assert est.slope == pytest.approx(1.2, abs=1e-12)
        assert est.intercept == pytest.approx(3.0, abs=1e-9)
        assert est.fit_quality == pytest.approx(1.0)

    def test_constant_values(self):
        est = dof_fit([(2.0**t, 5.5) for t in range(4, 10)])
        assert est.slope == pytest.approx(0.0, abs=1e-12)
        assert est.fit_quality == pytest.approx(1.0)

    def test_needs_three_distinct_powers(self):
        with pytest.raises(ValueError):
            dof_fit([(4.0, 1.0), (4.0, 2.0), (8.0, 3.0)])

    def test_fit_quality_below_one_for_scatter(self):
        rng = np.random.default_rng(0)
        pts = [(2.0**t, t + float(rng.standard_normal())) for t in range(4, 15)]
        est = dof_fit(pts)
        assert 0.0 < est.fit_quality < 1.0


class TestInterferenceBoundedness:
    def test_floor_clamps_numerical_residue(self):
        # interference at the alignment noise floor must read as bounded
        sweep = [(2.0**t, 1e-26 * 2.0**t) for t in range(4, 15)]
        report = interference_boundedness(sweep)
        assert report.passed and abs(report.slope) <= 1e-9

    def test_growing_interference_fails(self):
        sweep = [(2.0**t, 1e-3 * 2.0**t) for t in range(4, 15)]
        report = interference_boundedness(sweep)
        assert not report.passed
        assert report.slope == pytest.approx(1.0, abs=1e-9)

    def test_fractional_growth_slope(self):
        sweep = [(2.0**t, 2.0 ** (0.5 * t)) for t in range(4, 15)]
        report = interference_boundedness(sweep, slope_max=0.1)
        assert report.slope == pytest.approx(0.5, abs=1e-9)
        assert not report.passed

    def test_oracle_feedback_interference_is_bounded(self):
        params = cj3_parameters(1)
        grid = [2.0**t for t in (4, 6, 8, 10, 12, 14)]
        worst = []
        for j, P in enumerate(grid):
            acc = 0.0
            for trial in range(5):
                ch = generate_channel(3, 1, 2, seed=trial)
                tone = to_tone_domain(ch, params.N)
                msgs = [
                    receiver_feedback(
                        ch, i, FeedbackBudget(K=3, R=1, L=2, P=P, alpha=1.0),
                        rng=trial_generator(3, trial * 100 + j * 10 + i),
                    )
                    for i in range(3)
                ]
                rec = reconstruct(msgs, params.N)
                bf = build_beamformers(rec, params, "cj3")
                rep = achievable_rates(tone, bf, P)
                acc = max(acc, max(rep.max_interference(i) for i in range(3)))
            worst.append((P, acc))
        report = interference_boundedness(worst, floor=1e-10)
        assert report.passed
