import re
import warnings

import numpy as np
import pytest

import dense_reference as dense
from iafb import alignment
from iafb.alignment import (
    ENGINES,
    RANK_RTOL,
    AlignmentError,
    IaParameters,
    _finish,
    _thin_svd,
    build_beamformers,
    cj3_parameters,
    ia_parameters,
    mimo_reduce,
)
from iafb.channel import generate_channel, receiver_feedback, reconstruct, to_tone_domain
from iafb.quantizer import distortion_oracle_quantize, feedback_bits, oracle_radius
from iafb.rng import complex_normal, trial_normals


def trial_channels(K, R, seed, trials):
    """dof-sweep's channels (L = 2) of `trials` at `seed`, one (T, K, K, 2, R) tap array."""
    return generate_channel(K, R, 2, trial_normals(seed, np.array(trials)[:, None], (K, K, 2, R)))


def perfect_reconstruction(K, R, L, N, seed):
    """A batch of one perfect-feedback reconstruction, N tones."""
    return reconstruct(receiver_feedback(dense.seeded_channel(K, R, L, seed))[None], N, R=R)


def assert_failed(bf, pattern):
    """The batch-of-one set `bf` records an AlignmentError whose message matches `pattern`; returns it."""
    (failure,) = bf.failures
    assert isinstance(failure, AlignmentError) and re.search(pattern, str(failure)), failure
    return failure


class TestIaParameters:
    def test_three_user_single_antenna(self):
        p = ia_parameters(3, 1, 1)
        assert (p.gamma, p.N, p.d) == (3, 16, (8, 8, 1))
        assert p.dof_sum_limit == pytest.approx(1.5)
        assert p.dof_target(0) == pytest.approx(0.5)

    def test_four_user_single_antenna(self):
        # gamma = 4*1*2 = 8, N = 2*2^8, streams R(n+1)^gamma then R n^gamma
        p = ia_parameters(4, 1, 1)
        assert (p.gamma, p.N) == (8, 512)
        assert p.d == (256, 256, 1, 1)

    def test_two_antennas_no_aux_growth(self):
        p = ia_parameters(3, 2, 1)
        assert (p.gamma, p.N, p.d) == (0, 3, (2, 2, 2))
        assert sum(p.d) / p.N == pytest.approx(p.dof_sum_limit)

    def test_zero_forcing_regime_rejected(self):
        with pytest.raises(ValueError, match="zero-forcing"):
            ia_parameters(2, 2, 1)

    def test_dof_increases_toward_limit(self):
        p_prev = 0.0
        for n in (1, 2, 3, 4):
            p = ia_parameters(3, 1, n)
            dof = sum(p.d) / p.N
            assert p_prev < dof <= p.dof_sum_limit
            p_prev = dof

    def test_cj3_parameters(self):
        p = cj3_parameters(3)
        assert (p.N, p.d, p.scheme) == (7, (4, 3, 3), "cj3")
        assert sum(p.d) / p.N == pytest.approx(10.0 / 7.0)

    def test_invalid_allocation_rejected(self):
        with pytest.raises(ValueError):
            IaParameters(K=3, R=1, n=1, N=4, d=(8, 8, 1))


class TestFeasibilityGuard:
    def test_overfull_receiver_rejected(self):
        # hand-built allocation: 8 desired + 8 aligned interference > R*N
        params = IaParameters(K=3, R=1, n=1, N=12, d=(8, 8, 1), scheme="gj-simo")
        rec = perfect_reconstruction(3, 1, 2, 12, seed=0)
        with pytest.raises(AlignmentError, match="cannot fit"):
            build_beamformers(rec, params, "leakage-min", rng=[np.random.default_rng(0)])


class TestLeakageMinEngine:
    def test_reaches_tolerance_on_seeded_channels(self):
        params = ia_parameters(3, 1, 1)
        for seed in range(3):
            rec = perfect_reconstruction(3, 1, 2, params.N, seed=seed)
            bf = build_beamformers(rec, params, "leakage-min", rng=[np.random.default_rng(seed + 100)])
            assert bf.failures == (None,)
            assert bf.alignment_residual[0] <= 1e-8
            assert bf.signal_min[0] >= 1e-6
            assert all(abs(np.linalg.norm(v, axis=-2) - 1).max() < 1e-9 for v in bf.v)
            assert all(abs(np.linalg.norm(u, axis=-2) - 1).max() < 1e-9 for u in bf.u)

    def test_shared_mode_constrains_directions(self):
        # all K = R+1 users share one direction block at this sizing
        params = ia_parameters(3, 2, 1)
        rec = perfect_reconstruction(3, 2, 2, params.N, seed=3)
        bf = build_beamformers(rec, params, "leakage-min", rng=[np.random.default_rng(7)], shared=True)
        assert bf.failures == (None,)
        assert np.array_equal(bf.v[0], bf.v[1]) and np.array_equal(bf.v[1], bf.v[2])
        assert bf.alignment_residual[0] <= 1e-8
        assert bf.signal_min[0] >= 1e-6

    def test_shared_mode_never_returns_degenerate_sets(self):
        # at the tight (K=3, R=1) sizing with few taps, shared directions may
        # be infeasible; the engine must then fail loudly instead of handing
        # back filters with no usable signal
        params = ia_parameters(3, 1, 1)
        rec = perfect_reconstruction(3, 1, 2, params.N, seed=3)
        bf = build_beamformers(
            rec, params, "leakage-min", rng=[np.random.default_rng(7)], shared=True, max_iters=2000
        )
        if bf.failures[0] is not None:
            assert assert_failed(bf, "leakage-min did not reach").history
        else:
            assert bf.alignment_residual[0] <= 1e-8
            assert bf.signal_min[0] >= 1e-6

    def test_works_with_multiple_receive_antennas(self):
        params = ia_parameters(3, 2, 1)
        rec = perfect_reconstruction(3, 2, 2, params.N, seed=4)
        bf = build_beamformers(rec, params, "leakage-min", rng=[np.random.default_rng(5)])
        assert bf.failures == (None,)
        assert bf.alignment_residual[0] <= 1e-8

    @pytest.mark.parametrize(
        "rng",
        [None, 7, np.random.default_rng(7), [], [np.random.default_rng(7)] * 2, [7]],
        ids=["none", "int", "generator", "empty-list", "two-for-one", "int-in-list"],
    )
    def test_needs_one_generator_per_element(self, rng):
        # an unseeded or shared stream would tie an element's start to the
        # rest of the batch, or not repeat at all
        params = ia_parameters(3, 1, 1)
        rec = perfect_reconstruction(3, 1, 2, params.N, seed=3)
        with pytest.raises(ValueError, match="one per batch element"):
            build_beamformers(rec, params, "leakage-min", rng=rng)

    def test_failure_carries_history(self):
        # one iteration per attempt: the first run and two restarts
        params = ia_parameters(3, 1, 1)
        rec = perfect_reconstruction(3, 1, 2, params.N, seed=6)
        bf = build_beamformers(rec, params, "leakage-min", rng=[np.random.default_rng(8)], max_iters=1)
        assert len(assert_failed(bf, "x 3 attempts").history) == 3
        assert not any(arr.any() for arr in bf.v + bf.u)


class TestLeakageMinLoop:
    """Each image W_ik V_k is formed once per iteration.

    V, U and the leakage history match, bit for bit, the loop that forms
    every image twice per iteration.
    """

    @pytest.mark.parametrize("R", [1, 2])
    @pytest.mark.parametrize("shared, max_iters", [(False, 5000), (True, 300)])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_reference_loop(self, R, shared, max_iters, seed):
        # 300 shared iterations: 180 with the tie-breaker, then the polish
        params = ia_parameters(3, R, 1)
        rec = perfect_reconstruction(3, R, 2, params.N, seed=seed)
        Wm = alignment._wtilde_matrices(rec[0])
        target = (0.5 * 1e-8) ** 2
        args = (params, target, max_iters)
        V, U, history = alignment._leakage_min_directions(Wm, *args, np.random.default_rng(seed), shared)
        V_ref, U_ref, history_ref = dense.leakage_min_directions(Wm, *args, np.random.default_rng(seed), shared)
        assert history == history_ref
        # an unshared K=3, R=2 allocation leaves every receiver a null space
        # whatever V is, so that build stops after one iteration
        assert len(history) > 1 or (R == 2 and not shared)
        assert all(np.array_equal(a, b) for a, b in zip(V, V_ref, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(U, U_ref, strict=True))


class TestCj3Engine:
    def test_residual_near_machine_precision(self):
        params = cj3_parameters(2)
        for seed in range(5):
            rec = perfect_reconstruction(3, 1, 2, params.N, seed=seed)
            bf = build_beamformers(rec, params, "cj3", tol=1e-9)
            assert bf.failures == (None,)
            assert bf.alignment_residual[0] <= 1e-9
            assert bf.signal_min[0] >= 1e-6

    def test_rejects_wrong_parametrization(self):
        params = ia_parameters(3, 1, 1)
        rec = perfect_reconstruction(3, 1, 2, params.N, seed=1)
        with pytest.raises(ValueError, match="cj3"):
            build_beamformers(rec, params, "cj3")

    def test_rejects_an_unbatched_reconstruction(self):
        params = cj3_parameters(1)
        unbatched = reconstruct(cli_directions(params, 0), params.N, R=1)
        for engine in ENGINES:
            with pytest.raises(ValueError, match="batch of reconstructions"):
                build_beamformers(unbatched, params, engine)

    @pytest.mark.parametrize(
        "K, N, R",
        [(4, 3, 1), (3, 5, 1), (3, 3, 2)],
        ids=["K", "N", "R"],
    )
    def test_rejects_a_reconstruction_off_its_parameters(self, K, N, R):
        # cj3_parameters(1) sizes K=3, N=3, R=1; each case differs in one.
        # R=2 reads the R*L=2 directions as L=1 taps of two antennas
        params = cj3_parameters(1)
        fed = receiver_feedback(trial_channels(K, 1, 0, [0]))
        rec = reconstruct(fed, N, R=R)
        expect = re.escape(f"(B, 3, 3, 3, 1), got {rec.shape}")
        for engine in ENGINES:
            with pytest.raises(ValueError, match=expect):
                build_beamformers(rec, params, engine, rng=[np.random.default_rng(0)])

    def test_leakage_min_agrees_on_cj3_sizing(self):
        # both engines align the cj3 sizing
        params = cj3_parameters(1)
        rec = perfect_reconstruction(3, 1, 2, params.N, seed=2)
        for engine in ("cj3", "leakage-min"):
            bf = build_beamformers(rec, params, engine, rng=[np.random.default_rng(3)])
            assert bf.failures == (None,)
            assert bf.alignment_residual[0] <= 1e-8
            assert bf.signal_min[0] >= 1e-6

    def test_batched_build_records_each_failure(self):
        # element 1's link (0, 1) feeds back a zero direction, so its tone
        # gains are singular; elements 0 and 2 build as they do alone
        params = cj3_parameters(1)
        fed = receiver_feedback(trial_channels(3, 1, 0, range(3)))
        fed[1, 0, 1] = 0.0
        rec = reconstruct(fed, params.N, R=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bf = build_beamformers(rec, params, "cj3")
            assert_failed(build_beamformers(reconstruct(fed[1:2], params.N, R=1), params, "cj3"),
                          "invertible per-tone channels")
        assert bf.failures[0] is None and bf.failures[2] is None
        assert "invertible per-tone channels" in str(bf.failures[1])
        assert not any(arr[1].any() for arr in bf.v + bf.u)
        for b in (0, 2):
            alone = build_beamformers(reconstruct(fed[b : b + 1], params.N, R=1), params, "cj3")
            assert alone.failures == (None,)
            for got, want in zip(bf.v + bf.u, alone.v + alone.u):
                assert np.array_equal(got[b], want[0])


def reference_filters(rec, bf):
    """Zero-forcing filters one stream at a time, by full SVDs.

    ``rec`` is one unbatched (K, K, N, R) reconstruction and ``bf`` the
    batch-of-one set built on it. Interference basis as in the library;
    then each stream's filter is the unit projection of its desired image
    onto the orthogonal complement of that basis plus the other desired
    images.
    """
    params = bf.params
    K, d, RN = params.K, params.d, params.R * params.N
    V = [v[0] for v in bf.v]
    Wm = alignment._wtilde_matrices(rec)
    U = []
    for i in range(K):
        J = np.concatenate([Wm[i][k] @ V[k] for k in range(K) if k != i], axis=1)
        left, sing, _ = np.linalg.svd(J, full_matrices=False)
        keep = min(RN - d[i], J.shape[1], int(np.count_nonzero(sing > RANK_RTOL * sing[0])))
        basis = left[:, :keep]
        desired = Wm[i][i] @ V[i]
        filters = np.empty((RN, d[i]), dtype=complex)
        for m in range(d[i]):
            nuisance = np.concatenate([basis, np.delete(desired, m, axis=1)], axis=1)
            full_left, sing, _ = np.linalg.svd(nuisance, full_matrices=True)
            comp = full_left[:, int(np.count_nonzero(sing > 1e-13 * sing[0])):]
            proj = comp @ (comp.conj().T @ desired[:, m])
            filters[:, m] = proj / np.linalg.norm(proj)
        U.append(filters)
    return U


def cli_directions(params, trial):
    """Perfect feedback of dof-sweep's trial `trial` at seed 0, (K, K, R*L)."""
    return receiver_feedback(trial_channels(params.K, params.R, 0, [trial]))[0]


class TestZeroForcing:
    @pytest.mark.parametrize(
        "engine,sizing,shared",
        [("leakage-min", (3, 1, 1), False), ("leakage-min", (3, 2, 1), False),
         ("leakage-min", (3, 2, 1), True)]
        + [("cj3", n, False) for n in range(1, 6)],
    )
    def test_matches_per_stream_reference(self, engine, sizing, shared):
        params = ia_parameters(*sizing) if engine == "leakage-min" else cj3_parameters(sizing)
        # shared (3, 2, 1) directions fail alignment on trial 2 before and
        # after the one-SVD filters; feasibility is not under test here
        for trial in range(2):
            fed = cli_directions(params, trial)
            # weak desired signals at large cj3 n still have well-defined filters
            bf = build_beamformers(
                reconstruct(fed[None], params.N, R=params.R), params, engine, c_min=1e-12,
                rng=[np.random.default_rng(trial + 20)], shared=shared,
            )
            assert bf.failures == (None,)
            for u, ref in zip(bf.u, reference_filters(reconstruct(fed, params.N, R=params.R), bf)):
                overlap = np.abs(np.sum(u[0].conj() * ref, axis=0))
                assert overlap.min() >= 1 - 1e-12

    @pytest.mark.parametrize("n", [5, 6])
    def test_ill_conditioned_cj3_stays_aligned(self, n):
        # the Vandermonde-like cj3 directions make D^H D ill-conditioned at
        # these sizes; filters must still sit at rounding level off the
        # interference span
        params = cj3_parameters(n)
        for trial in range(12):
            rec = reconstruct(cli_directions(params, trial)[None], params.N, R=1)
            bf = build_beamformers(rec, params, "cj3", c_min=1e-12)
            assert bf.failures == (None,)
            assert bf.alignment_residual[0] <= 1e-14

    def test_swallowed_stream_raises(self):
        # R=1: W_00 v = W_01 v' when v = (w01/w00) v', so stream 0 of user 0
        # arrives inside user 1's (aligned) interference image
        params = cj3_parameters(1)
        fed = cli_directions(params, 0)
        rec = reconstruct(fed[None], params.N, R=1)
        bf = build_beamformers(rec, params, "cj3")
        assert bf.failures == (None,)
        Wm = alignment._wtilde_matrices(reconstruct(fed, params.N, R=1))
        V = [v.copy() for v in bf.v]
        V[0][0, :, 0] = np.diagonal(Wm[0][1]) / np.diagonal(Wm[0][0]) * V[1][0, :, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_failed(_finish(rec, V, params, "cj3", 1e-8, 1e-6), "receiver 0, stream 0: .* swallowed")
            # a zero transmit column gives an exactly zero singular value
            V = [v.copy() for v in bf.v]
            V[0][0, :, 1] = 0.0
            assert_failed(_finish(rec, V, params, "cj3", 1e-8, 1e-6), "receiver 0, stream 1: .* swallowed")


def batched_reconstruction(params, trials):
    return reconstruct(receiver_feedback(trial_channels(params.K, params.R, 0, trials)), params.N, R=params.R)


def verdicts(bf):
    """Per element: "ok", "swallowed" or "gate" (any other failure)."""
    return ["ok" if f is None else "swallowed" if "swallowed" in str(f) else "gate" for f in bf.failures]


def lapack_only(patch):
    """Patch every closed-form factorization of the zero-forcing step off."""
    patch.setattr(alignment, "_thin_svd", lambda A: np.linalg.svd(A, full_matrices=False))
    patch.setattr(alignment, "_rank2_span", lambda J: (None, np.zeros(len(J), dtype=bool)))
    patch.setattr(alignment, "_rank1_span", lambda J: (None, np.zeros(len(J), dtype=bool)))


class TestZeroForcingVerdicts:
    """The closed-form factorizations leave every build's verdict as LAPACK's gives it."""

    @staticmethod
    def lapack_build(monkeypatch, *args, **kwargs):
        with monkeypatch.context() as patch:
            lapack_only(patch)
            return build_beamformers(*args, **kwargs)

    @staticmethod
    def assert_same_build(bf, ref):
        assert verdicts(bf) == verdicts(ref)
        ok = np.array(verdicts(bf)) == "ok"
        for u, u_ref in zip(bf.u, ref.u):
            overlap = np.abs(np.sum(u.conj() * u_ref, axis=-2))[ok]
            assert overlap.min(initial=1.0) >= 1 - 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cj3(self, monkeypatch, n):
        params = cj3_parameters(n)
        rec = batched_reconstruction(params, range(20))
        bf = build_beamformers(rec, params, "cj3")
        self.assert_same_build(bf, self.lapack_build(monkeypatch, rec, params, "cj3"))
        if n == 1:
            assert verdicts(bf) == ["ok"] * 20

    @pytest.mark.parametrize("oracle", [False, True])
    def test_cj3_rank2_closed_form(self, monkeypatch, oracle):
        # cj3 at n = 1 (the feedback-sweep sizing): receivers 1 and 2 see
        # 3x3 interference stacks of rank 2, on 200 channels, with perfect
        # feedback or with the oracle at 2^4..2^14 and alpha 0.25
        params = cj3_parameters(1)
        fed = receiver_feedback(trial_channels(3, 1, 1, range(200)))
        if oracle:
            P = 2.0 ** np.arange(4, 15)[np.arange(600) % 11]
            delta_sq = np.array([oracle_radius(feedback_bits(3, 1, 2, p, 0.25), 3, 2) for p in P]) ** 2
            normals = trial_normals(1, [[9, r] for r in range(600)], (3, 2))
            rows = distortion_oracle_quantize(fed.reshape(-1, 3, 2), delta_sq, normals)
            fed = rows.reshape(fed.shape)
        rec = reconstruct(fed, params.N, R=1)
        certified = []
        closed_form = alignment._rank2_span

        def recorded(J):
            span, ok = closed_form(J)
            certified.append(ok)
            return span, ok

        with monkeypatch.context() as patch:
            patch.setattr(alignment, "_rank2_span", recorded)
            bf = build_beamformers(rec, params, "cj3")
        assert len(certified) == 2 and all(c.all() for c in certified)
        self.assert_same_build(bf, self.lapack_build(monkeypatch, rec, params, "cj3"))
        assert verdicts(bf) == ["ok"] * 200

    @pytest.mark.parametrize("oracle", [False, True])
    def test_cj3_rank1_closed_form(self, monkeypatch, oracle):
        # cj3 at n = 1: receiver 0 sees a 3x2 interference stack of rank 1,
        # capped at one column, on 200 channels with perfect feedback or
        # with the oracle at 2^4..2^14 and alpha 0.25
        params = cj3_parameters(1)
        fed = receiver_feedback(trial_channels(3, 1, 2, range(200)))
        if oracle:
            P = 2.0 ** np.arange(4, 15)[np.arange(600) % 11]
            delta_sq = np.array([oracle_radius(feedback_bits(3, 1, 2, p, 0.25), 3, 2) for p in P]) ** 2
            normals = trial_normals(2, [[9, r] for r in range(600)], (3, 2))
            rows = distortion_oracle_quantize(fed.reshape(-1, 3, 2), delta_sq, normals)
            fed = rows.reshape(fed.shape)
        rec = reconstruct(fed, params.N, R=1)
        certified = []
        closed_form = alignment._rank1_span

        def recorded(J):
            span, ok = closed_form(J)
            certified.append(ok)
            return span, ok

        with monkeypatch.context() as patch:
            patch.setattr(alignment, "_rank1_span", recorded)
            bf = build_beamformers(rec, params, "cj3")
        assert len(certified) == 1 and certified[0].all()
        self.assert_same_build(bf, self.lapack_build(monkeypatch, rec, params, "cj3"))
        assert verdicts(bf) == ["ok"] * 200

    @pytest.mark.parametrize("sizing,trials", [((3, 1, 1), 20), ((3, 1, 2), 2)])
    def test_leakage_min(self, monkeypatch, sizing, trials):
        params = ia_parameters(*sizing)
        rec = batched_reconstruction(params, range(trials))

        def rngs():
            return [np.random.default_rng(t + 20) for t in range(trials)]

        bf = build_beamformers(rec, params, "leakage-min", rng=rngs())
        self.assert_same_build(bf, self.lapack_build(monkeypatch, rec, params, "leakage-min", rng=rngs()))


class TestThinSvd:
    """`_thin_svd` against LAPACK on one- and two-column stacks."""

    @staticmethod
    def draw(shape, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def assert_matches_lapack(A):
        u, s, vh = _thin_svd(A)
        U, S, Vh = np.linalg.svd(A, full_matrices=False)
        assert (u.shape, s.shape, vh.shape) == (U.shape, S.shape, Vh.shape)
        assert np.abs(s - S).max() <= 1e-14
        assert np.abs((u * s[..., None, :]) @ vh - A).max() <= 1e-14
        # u and Z^H are orthonormal even where a singular value is zero
        for q in (u, np.swapaxes(vh, -1, -2)):
            assert np.abs(np.conj(np.swapaxes(q, -1, -2)) @ q - np.eye(q.shape[-1])).max() <= 1e-14
        # the left singular subspace of each nonzero singular value
        nonzero = S > 1e-12 * np.maximum(S[..., :1], 1e-300)
        for j in range(S.shape[-1]):
            proj = u[..., :, j, None] * u[..., None, :, j].conj()
            ref = U[..., :, j, None] * U[..., None, :, j].conj()
            assert np.abs(proj - ref)[nonzero[..., j]].max(initial=0.0) <= 1e-14

    @pytest.mark.parametrize("shape", [(3, 1), (3, 2), (2, 2), (198, 3, 1), (198, 3, 2), (4, 5, 7, 2)])
    def test_random(self, shape):
        self.assert_matches_lapack(self.draw(shape))

    @pytest.mark.parametrize("shape", [(3, 2), (50, 3, 2), (50, 2, 2)])
    def test_rank_deficient(self, shape):
        a = self.draw(shape[:-1] + (1,))
        self.assert_matches_lapack(np.concatenate([a, (0.3 - 2j) * a], axis=-1))

    @pytest.mark.parametrize("zero", [0, 1])
    @pytest.mark.parametrize("shape", [(3, 2), (50, 3, 2)])
    def test_one_zero_column(self, shape, zero):
        A = self.draw(shape)
        A[..., zero] = 0.0
        self.assert_matches_lapack(A)
        # a unit basis vector as the column, including the one |u0| entry is smallest at
        A = np.zeros((3, 2), dtype=complex)
        A[1, zero] = 2.0
        self.assert_matches_lapack(A)

    @pytest.mark.parametrize("shape", [(3, 1), (3, 2), (5, 3, 1), (5, 3, 2)])
    def test_all_zero_keeps_lapack_basis(self, shape):
        A = np.zeros(shape, dtype=complex)
        for got, want in zip(_thin_svd(A), np.linalg.svd(A, full_matrices=False)):
            assert np.array_equal(got, want)

    def test_batch_mixes_cases(self):
        # one stack with random, rank-deficient, one-zero-column and zero elements
        A = self.draw((4, 3, 2))
        A[1, :, 1] = 1j * A[1, :, 0]
        A[2, :, 0] = 0.0
        A[3] = 0.0
        self.assert_matches_lapack(A)

    @pytest.mark.parametrize("shape", [(3, 3), (20, 3, 3), (20, 54, 8), (20, 1, 2)])
    def test_other_shapes_are_lapack(self, shape):
        A = self.draw(shape)
        for got, want in zip(_thin_svd(A), np.linalg.svd(A, full_matrices=False)):
            assert np.array_equal(got, want)


class TestRank2Span:
    """3x3 stacks: the closed form takes exactly the certified rank-2 elements, LAPACK the rest."""

    draw = staticmethod(TestThinSvd.draw)

    @classmethod
    def with_singular_values(cls, sing, seed):
        q1, _ = np.linalg.qr(cls.draw((3, 3), seed))
        q2, _ = np.linalg.qr(cls.draw((3, 3), seed + 1))
        return (q1 * np.asarray(sing)) @ q2

    @classmethod
    def rank2(cls, count, seed=0):
        ab = cls.draw((count, 3, 2), seed)
        return np.concatenate([ab, ab @ cls.draw((count, 2, 1), seed + 1)], axis=-1)

    @staticmethod
    def lapack_basis(monkeypatch, J):
        with monkeypatch.context() as patch:
            lapack_only(patch)
            return alignment._interference_basis(J, 2)

    def test_exact_rank_two(self, monkeypatch):
        J = self.rank2(50)
        # column orders and scales that make each pair the best-conditioned one
        J[1] = J[1][:, [2, 0, 1]]
        J[2] = J[2][:, [1, 2, 0]] * np.array([1e-3, 1.0, 1e3])
        _, certified = alignment._rank2_span(J)
        assert certified.all()
        basis = alignment._interference_basis(J, 2)
        ref = self.lapack_basis(monkeypatch, J)
        assert basis.shape == ref.shape == (50, 3, 2)
        assert np.abs(np.swapaxes(basis.conj(), -1, -2) @ basis - np.eye(2)).max() <= 1e-14
        # both projectors onto the span carry rounding of order 1e-16
        # sigma_1 / sigma_2, which the scaled element raises to 1e-13
        proj = basis @ np.swapaxes(basis.conj(), -1, -2)
        sing = np.linalg.svd(J, compute_uv=False)
        gap = np.abs(proj - ref @ np.swapaxes(ref.conj(), -1, -2)).max(axis=(-2, -1))
        assert (gap <= 1e-14 * sing[:, 0] / sing[:, 1]).all()
        assert (np.abs(proj @ J - J).max(axis=(-2, -1)) <= 1e-14 * sing[:, 0]).all()

    # rank 3, rank 1, all zero, sigma_3 at RANK_RTOL sigma_1, and sigma_2
    # near RANK_RTOL sigma_1
    OTHERS = {
        "rank-3": lambda cls: cls.draw((3, 3), 5),
        "rank-1": lambda cls: cls.draw((3, 1), 6) * cls.draw((1, 3), 7),
        "zero": lambda cls: np.zeros((3, 3), dtype=complex),
        "sigma3-at-rtol": lambda cls: cls.with_singular_values([1.0, 0.5, RANK_RTOL], 8),
        "sigma2-near-rtol": lambda cls: cls.with_singular_values([1.0, 10 * RANK_RTOL, 0.0], 10),
    }

    @pytest.mark.parametrize("case", list(OTHERS))
    def test_other_elements_take_lapack(self, monkeypatch, case):
        other = self.OTHERS[case](type(self))
        # alone and between certified rank-2 elements of one stack
        for J, at in ((other[None], 0), (np.concatenate([self.rank2(2, 11), other[None], self.rank2(2, 12)]), 2)):
            _, certified = alignment._rank2_span(J)
            assert np.flatnonzero(~certified).tolist() == [at]
            basis = alignment._interference_basis(J, 2)
            ref = self.lapack_basis(monkeypatch, J)
            assert basis.shape == ref.shape
            assert np.array_equal(basis[at], ref[at])

    def test_cap_below_two_is_lapack(self, monkeypatch):
        J = self.rank2(4)
        assert np.array_equal(alignment._interference_basis(J, 1), self.lapack_basis(monkeypatch, J)[..., :1])


class TestRank1Span:
    """3x2 stacks: the closed form takes exactly the certified rank-1 elements, `_thin_svd` the rest."""

    draw = staticmethod(TestThinSvd.draw)

    @classmethod
    def rank1(cls, count, seed=0):
        a = cls.draw((count, 3, 1), seed)
        return a * cls.draw((count, 1, 2), seed + 1)

    @staticmethod
    def fallback_basis(monkeypatch, J, cap=1):
        with monkeypatch.context() as patch:
            patch.setattr(alignment, "_rank1_span", lambda J: (None, np.zeros(len(J), dtype=bool)))
            return alignment._interference_basis(J, cap)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_exact_rank_one(self, monkeypatch, cap):
        J = self.rank1(50)
        # a zero column, and columns whose scales differ by 1e6, either first
        J[1, :, 0] = 0.0
        J[2] *= np.array([1e-3, 1e3])
        J[3] *= np.array([1e3, 1e-3])
        _, certified = alignment._rank1_span(J)
        assert certified.all()
        basis = alignment._interference_basis(J, cap)
        ref = self.fallback_basis(monkeypatch, J, cap)
        lapack = TestRank2Span.lapack_basis(monkeypatch, J)[..., :1]
        assert basis.shape == ref.shape == lapack.shape == (50, 3, 1)
        assert np.abs(np.linalg.norm(basis, axis=-2) - 1.0).max() <= 1e-15
        # the projector onto the span is the fallback's and LAPACK's to rounding
        proj = basis @ np.swapaxes(basis.conj(), -1, -2)
        for other in (ref, lapack):
            assert np.abs(proj - other @ np.swapaxes(other.conj(), -1, -2)).max() <= 1e-15
        assert np.abs(proj @ J - J).max() <= 1e-14 * np.abs(J).max()

    @classmethod
    def with_singular_values(cls, sing, seed):
        q1, _ = np.linalg.qr(cls.draw((3, 3), seed))
        q2, _ = np.linalg.qr(cls.draw((2, 2), seed + 1))
        return (q1[:, :2] * np.asarray(sing)) @ q2

    def test_certificate_bounds_sigma_ratio(self):
        # sigma_2 / sigma_1 = 4e-13 passes (2 P / F^2 = 8e-13), 1e-12 does not
        J = np.stack([self.with_singular_values([1.0, ratio], 3) for ratio in (4e-13, 1e-12)])
        assert alignment._rank1_span(J)[1].tolist() == [True, False]

    # rank 2, all zero, sigma_2 / sigma_1 at 1e-12, a non-finite entry, and a
    # subnormal Frobenius norm
    OTHERS = {
        "rank-2": lambda cls: cls.draw((3, 2), 5),
        "zero": lambda cls: np.zeros((3, 2), dtype=complex),
        "near-threshold": lambda cls: cls.with_singular_values([1.0, 1e-12], 6),
        "not-finite": lambda cls: np.where(np.eye(3, 2, dtype=bool), np.inf, cls.rank1(1, 7)[0]),
        "subnormal": lambda cls: cls.rank1(1, 8)[0] * 1e-160,
    }

    @pytest.mark.parametrize("case", list(OTHERS))
    def test_other_elements_take_thin_svd(self, monkeypatch, case):
        other = self.OTHERS[case](type(self))
        # alone and between certified rank-1 elements of one stack
        for J, at in ((other[None], 0), (np.concatenate([self.rank1(2, 11), other[None], self.rank1(2, 12)]), 2)):
            _, certified = alignment._rank1_span(J)
            assert np.flatnonzero(~certified).tolist() == [at]
            with np.errstate(all="ignore"):  # `_thin_svd` of the non-finite and subnormal elements
                basis = alignment._interference_basis(J, 1)
                ref = self.fallback_basis(monkeypatch, J)
            assert basis.shape == ref.shape
            assert np.array_equal(basis[at], ref[at], equal_nan=True)

    def test_cap_zero_and_other_shapes_take_thin_svd(self, monkeypatch):
        J = self.rank1(4)
        assert np.array_equal(alignment._interference_basis(J, 0), self.fallback_basis(monkeypatch, J, 0))
        J = self.draw((4, 4, 1)) * self.draw((4, 1, 2), 1)
        assert np.array_equal(alignment._interference_basis(J, 1), self.fallback_basis(monkeypatch, J))


class TestMimoReduce:
    # independent spreadsheet-style oracle for the reduction arithmetic
    @staticmethod
    def oracle(K, Mt, Mr, L, p_log2):
        lo, hi = min(Mt, Mr), max(Mt, Mr)
        R = hi // lo
        return R, lo * lo * K * (R * L - 1) * p_log2

    # (K, Mt, Mr, L, p_log2) -> (R, virtual users, discarded, per-receiver bits)
    CASES = [
        ((3, 2, 4, 1, 10), (2, 6, 0, 120.0)),
        ((3, 1, 1, 2, 10), (1, 3, 0, 30.0)),
        ((4, 2, 5, 2, 12), (2, 8, 1, 576.0)),
        ((3, 4, 2, 3, 8), (2, 6, 0, 480.0)),
        ((5, 1, 3, 2, 6), (3, 5, 0, 150.0)),
        ((4, 3, 3, 2, 20), (1, 12, 0, 720.0)),
        ((6, 2, 7, 1, 15), (3, 12, 1, 720.0)),
        ((3, 5, 2, 2, 7), (2, 6, 1, 252.0)),
        ((7, 1, 2, 4, 9), (2, 7, 0, 441.0)),
        ((4, 2, 2, 3, 11), (1, 8, 0, 352.0)),
    ]

    @pytest.mark.parametrize("case,expected", CASES)
    def test_against_frozen_table(self, case, expected):
        K, Mt, Mr, L, p_log2 = case
        red = mimo_reduce(K, Mt, Mr, L, 2.0**p_log2)
        r_oracle, bits_oracle = self.oracle(*case)
        assert red.R == expected[0] == r_oracle
        assert red.virtual_users == expected[1]
        assert red.discarded_rx_antennas == expected[2]
        assert red.bits_per_original_receiver == pytest.approx(expected[3])
        assert red.bits_per_original_receiver == pytest.approx(bits_oracle)

    @pytest.mark.parametrize("case,expected", CASES)
    def test_reciprocity_symmetry(self, case, expected):
        K, Mt, Mr, L, p_log2 = case
        fwd = mimo_reduce(K, Mt, Mr, L, 2.0**p_log2)
        rev = mimo_reduce(K, Mr, Mt, L, 2.0**p_log2)
        assert fwd.bits_per_original_receiver == rev.bits_per_original_receiver
        assert fwd.bits_per_virtual_user == rev.bits_per_virtual_user
        assert fwd.R == rev.R

    def test_simo_consistency(self):
        # Mt=1 reduces to the plain SIMO budget K (RL-1) log2 P
        red = mimo_reduce(3, 1, 1, 2, 2.0**10)
        assert red.bits_per_original_receiver == pytest.approx(30.0)

    def test_no_discard_when_ratio_exact(self):
        assert mimo_reduce(3, 2, 4, 3, 16.0).discarded_rx_antennas == 0

    def test_zero_forcing_regime_rejected(self):
        with pytest.raises(ValueError, match="zero-forcing"):
            mimo_reduce(2, 2, 4, 1, 16.0)

    def test_virtual_user_budget(self):
        red = mimo_reduce(3, 2, 4, 1, 2.0**10)
        assert red.bits_per_virtual_user == pytest.approx(6 * 1 * 10.0)


class TestQuantizedAlignment:
    def test_residual_small_against_reconstruction_not_truth(self):
        # alignment is exact w.r.t. the reconstruction; against the true
        # channel the same filters leak at the quantization level
        params = cj3_parameters(1)
        taps = dense.seeded_channel(3, 1, 2, 16)
        radius = oracle_radius(feedback_bits(3, 1, 2, 2.0**8), 3, 2)
        exact = receiver_feedback(taps)
        normals = np.stack([complex_normal(np.random.default_rng(17 + i), (3, 2)) for i in range(3)])
        fed = distortion_oracle_quantize(exact, np.full(3, radius**2), normals)
        bf = build_beamformers(reconstruct(fed[None], params.N, R=1), params, "cj3")
        assert bf.failures == (None,)
        assert bf.alignment_residual[0] <= 1e-9

        # |U_i^H Hbar_ik V_k| on the true channel, normalized per link
        tones = to_tone_domain(taps, params.N)
        leak = max(
            np.abs(bf.u[i][0].conj().T @ dense.hbar_matrix(tones, i, k) @ bf.v[k][0]).max()
            / np.linalg.norm(taps[i, k])
            for i in range(3) for k in range(3) if k != i
        )
        assert leak > 1e-5
