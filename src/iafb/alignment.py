"""Interference alignment: stream bookkeeping, beamformer engines, checks.

Two engines construct transmit directions v_k^m (length N) and receive
filters u_i^m (length R*N) against a reconstructed channel surrogate:

* ``leakage-min`` - block-coordinate descent on the total cross-user
  leakage sum_{i != k} ||U_i^H W_ik V_k||_F^2 with orthonormal-column
  variables. Either block update is an exact minimizer (smallest
  eigenvectors of the corresponding covariance), so the objective is
  monotone and, for feasible stream allocations, converges to zero.
  Works for any (K, R, n) sized by `ia_parameters`.
* ``cj3`` - the classical closed-form three-user single-antenna
  construction over N = 2n+1 tones with streams (n+1, n, n): transmit
  directions are monomial powers of the diagonal cross-channel ratio
  matrix applied to the all-ones vector, which aligns interference
  exactly by construction.

Both engines finish with the same zero-forcing step: at each receiver an
orthonormal basis of the (R*N - d_i)-dimensional aligned-interference
subspace is estimated from the interference images, and each stream's
filter is the projection of its desired image onto the orthogonal
complement of that basis plus the other desired images. Same-user stream
separation is therefore exact to machine precision, and residual
cross-user leakage equals whatever alignment error the engine left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ReconstructedChannel
from .rng import as_generator, complex_normal

__all__ = [
    "IaParameters",
    "BeamformerSet",
    "MimoReduction",
    "AlignmentReport",
    "AlignmentError",
    "ia_parameters",
    "cj3_parameters",
    "build_beamformers",
    "verify_alignment",
    "mimo_reduce",
]

ENGINES = ("leakage-min", "cj3")


class AlignmentError(RuntimeError):
    """Raised when an engine cannot satisfy the alignment conditions.

    ``history`` carries the leakage trajectory of the failed run(s) so the
    caller can distinguish slow convergence from infeasibility.
    """

    def __init__(self, message, history=None, residual=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []
        self.residual = residual


@dataclass(frozen=True)
class IaParameters:
    """Stream allocation for one alignment problem.

    ``scheme`` is "gj-simo" for the general SIMO bookkeeping
    (gamma = K R (K-R-1), N = (R+1)(n+1)^gamma tones, the first R+1 users
    carrying R(n+1)^gamma streams and the rest R n^gamma) or "cj3" for the
    three-user closed form (N = 2n+1, streams (n+1, n, n)).
    """

    K: int
    R: int
    n: int
    N: int
    d: tuple
    gamma: int | None = None
    scheme: str = "gj-simo"

    def __post_init__(self):
        if len(self.d) != self.K:
            raise ValueError("need one stream count per user")
        if any(di < 1 for di in self.d):
            raise ValueError("every user needs at least one stream")
        if any(di > self.R * self.N for di in self.d):
            raise ValueError("stream count exceeds receiver dimension R*N")
        # the K R/(R+1) ceiling is an alignment-regime bound; degenerate
        # K <= R setups (zero-forcing territory) are not held to it
        if self.K > self.R and sum(self.d) / self.N > self.dof_sum_limit + 1e-12:
            raise ValueError("stream allocation exceeds the K R/(R+1) spatial limit")

    @property
    def dof_sum_limit(self) -> float:
        """Spatial multiplexing ceiling K R / (R + 1) for K > R."""
        return self.K * self.R / (self.R + 1)

    def dof_target(self, i: int) -> float:
        """Per-user degrees of freedom d_i / N realized by this allocation."""
        return self.d[i] / self.N


def ia_parameters(K: int, R: int, n: int) -> IaParameters:
    """General SIMO stream bookkeeping for auxiliary parameter n.

    Requires K > R: with at least as many receive antennas as users,
    plain zero-forcing already attains the maximum K degrees of freedom
    and no alignment is called for.
    """
    if R < 1 or n < 1:
        raise ValueError("need R >= 1 and n >= 1")
    if K <= R:
        raise ValueError(
            f"K={K} <= R={R}: zero-forcing reaches the maximal K degrees of freedom; "
            "interference alignment applies only for K > R"
        )
    gamma = K * R * (K - R - 1)
    N = (R + 1) * (n + 1) ** gamma
    d = tuple(
        R * (n + 1) ** gamma if i < R + 1 else R * n**gamma for i in range(K)
    )
    return IaParameters(K=K, R=R, n=n, N=N, d=d, gamma=gamma, scheme="gj-simo")


def cj3_parameters(n: int) -> IaParameters:
    """Three-user single-antenna closed-form sizing: N = 2n+1, d = (n+1, n, n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return IaParameters(K=3, R=1, n=n, N=2 * n + 1, d=(n + 1, n, n), gamma=None, scheme="cj3")


@dataclass(frozen=True)
class BeamformerSet:
    """Transmit directions and receive filters found by an engine.

    ``v[k]`` is N x d_k with unit-norm columns; ``u[i]`` is R*N x d_i with
    unit-norm columns. ``alignment_residual`` is the largest violated
    inner product against the reconstruction the set was built on, and
    ``signal_min`` the smallest surviving desired-signal inner product.
    """

    v: tuple
    u: tuple
    params: IaParameters
    alignment_residual: float
    signal_min: float
    engine: str
    shared: bool = False
    iterations: int = 0
    leakage: float = 0.0


@dataclass(frozen=True)
class MimoReduction:
    """Antenna-discarding reduction of a MIMO network to a virtual SIMO one."""

    K: int
    M_t: int
    M_r: int
    L: int
    P: float
    R: int
    virtual_users: int
    virtual_rx_antennas: int
    discarded_rx_antennas: int
    bits_per_virtual_user: float
    bits_per_original_receiver: float


def mimo_reduce(K: int, M_t: int, M_r: int, L: int, P: float) -> MimoReduction:
    """Reduce a K-user M_t x M_r channel to a SIMO feedback problem.

    By reciprocity the smaller antenna count may be assumed at the
    transmitters; each receiver then discards M_r - R*M_t antennas and the
    network splits into K*M_t virtual single-antenna users with R receive
    antennas each. Every virtual user feeds back (K M_t)(R L - 1) log2(P)
    bits, i.e. min(M_t, M_r)^2 K (R L - 1) log2(P) per original receiver.
    """
    if M_t < 1 or M_r < 1 or L < 1 or K < 1:
        raise ValueError("antenna, tap and user counts must be positive")
    if P <= 0:
        raise ValueError("power must be positive")
    mt, mr = min(M_t, M_r), max(M_t, M_r)
    R = mr // mt
    if K <= R:
        raise ValueError(
            f"K={K} <= R={R}: the zero-forcing regime needs no alignment or feedback scaling"
        )
    log_p = math.log2(P)
    per_virtual = (K * mt) * (R * L - 1) * log_p
    return MimoReduction(
        K=K,
        M_t=M_t,
        M_r=M_r,
        L=L,
        P=P,
        R=R,
        virtual_users=K * mt,
        virtual_rx_antennas=R,
        discarded_rx_antennas=mr - R * mt,
        bits_per_virtual_user=per_virtual,
        bits_per_original_receiver=mt * mt * K * (R * L - 1) * log_p,
    )


def _wtilde_matrices(rec: ReconstructedChannel):
    return [[rec.wtilde_matrix(i, k) for k in range(rec.K)] for i in range(rec.K)]


def _rand_orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    mat = complex_normal(rng, (rows, cols))
    q, _ = np.linalg.qr(mat)
    return q


def _total_leakage(Wm, U, V) -> float:
    K = len(Wm)
    total = 0.0
    for i in range(K):
        for k in range(K):
            if k == i:
                continue
            M = U[i].conj().T @ (Wm[i][k] @ V[k])
            total += float(np.linalg.norm(M) ** 2)
    return total


def _leakage_min_directions(Wm, params: IaParameters, target: float, max_iters: int, rng, shared: bool):
    """Alternate exact block minimizers of the total leakage; returns (V, history).

    With shared directions the zero-leakage manifold contains degenerate
    points whose desired images collapse onto the interference (the same V
    feeds both), so the first 60% of shared-mode iterations subtract a
    small multiple of the desired-signal covariance from the V-step
    objective as a tie-breaker, and the remaining iterations polish the
    pure leakage objective from that basin.
    """
    K, d = params.K, params.d
    N, RN = params.N, params.R * params.N

    if shared:
        groups = [tuple(range(params.R + 1)), tuple(range(params.R + 1, K))]
        groups = [g for g in groups if g]
    else:
        groups = [(k,) for k in range(K)]
    V = [None] * K
    for g in groups:
        block = _rand_orthonormal(rng, N, d[g[0]])
        for k in g:
            V[k] = block
    U = [None] * K

    tie_active = shared
    history = []
    for it in range(max_iters):
        for i in range(K):
            cov = np.zeros((RN, RN), dtype=complex)
            for k in range(K):
                if k == i:
                    continue
                img = Wm[i][k] @ V[k]
                cov += img @ img.conj().T
            _, vecs = np.linalg.eigh(cov)
            U[i] = vecs[:, : d[i]]
        tie_break = 3e-2 if (tie_active and it < 0.6 * max_iters) else 0.0
        for g in groups:
            cov = np.zeros((N, N), dtype=complex)
            for k in g:
                for i in range(K):
                    if i == k:
                        continue
                    back = Wm[i][k].conj().T @ U[i]
                    cov += back @ back.conj().T
                if tie_break:
                    own = Wm[k][k].conj().T @ U[k]
                    cov -= tie_break * (own @ own.conj().T)
            _, vecs = np.linalg.eigh(cov)
            for k in g:
                V[k] = vecs[:, : d[g[0]]]
        leak = _total_leakage(Wm, U, V)
        history.append(leak)
        if leak <= target:
            if not tie_break:
                break
            tie_active = False  # polish without the tie-breaker from here on
        # bail out of plateaus so the caller can restart from fresh directions
        elif not tie_break and len(history) >= 200 and leak > 0.98 * history[-200]:
            break
    return V, history


def _cj3_directions(Wm, params: IaParameters):
    """Closed-form aligned transmit directions for K=3, R=1, N=2n+1."""
    n = params.n
    h = [[np.diagonal(Wm[i][k]) for k in range(3)] for i in range(3)]
    flat = np.concatenate([h[i][k] for i in range(3) for k in range(3)])
    scale = np.abs(flat).max()
    if scale == 0.0 or np.abs(flat).min() < 1e-12 * scale:
        raise AlignmentError("cj3 needs invertible per-tone channels; a tone gain is (near) zero")

    ratio = h[1][2] * h[0][1] * h[2][0] / (h[1][0] * h[0][2] * h[2][1])
    powers = np.column_stack([ratio**j for j in range(n + 1)])  # a_j = T^j 1
    v1 = powers
    v2 = (h[2][0] / h[2][1])[:, None] * powers[:, :n]
    v3 = (h[1][0] / h[1][2])[:, None] * powers[:, 1:]
    out = []
    for mat in (v1, v2, v3):
        out.append(mat / np.linalg.norm(mat, axis=0, keepdims=True))
    return out


def _zero_force_receivers(Wm, V, params: IaParameters, rank_rtol: float):
    """Per-stream receive filters orthogonal to aligned interference.

    At receiver i the interference images are compressed to a basis of at
    most R*N - d_i directions (singular vectors above `rank_rtol` of the
    largest); each stream's filter is then the unit projection of its
    desired image onto the complement of that basis plus the other desired
    images.
    """
    K, d, RN = params.K, params.d, params.R * params.N
    U = []
    for i in range(K):
        cols = [Wm[i][k] @ V[k] for k in range(K) if k != i]
        J = np.concatenate(cols, axis=1) if cols else np.zeros((RN, 0), dtype=complex)
        if J.shape[1]:
            left, sing, _ = np.linalg.svd(J, full_matrices=False)
            keep = min(RN - d[i], J.shape[1])
            if sing[0] > 0.0:
                keep = min(keep, int(np.count_nonzero(sing > rank_rtol * sing[0])))
            basis = left[:, :keep]
        else:
            basis = np.zeros((RN, 0), dtype=complex)
        desired = Wm[i][i] @ V[i]
        filters = np.empty((RN, d[i]), dtype=complex)
        for m in range(d[i]):
            others = np.delete(desired, m, axis=1)
            nuisance = np.concatenate([basis, others], axis=1)
            if nuisance.shape[1] == 0:
                comp = np.eye(RN, dtype=complex)
            else:
                full_left, sing, _ = np.linalg.svd(nuisance, full_matrices=True)
                rank = int(np.count_nonzero(sing > max(1e-13 * sing[0], 0.0)))
                comp = full_left[:, rank:]
            proj = comp @ (comp.conj().T @ desired[:, m])
            norm = np.linalg.norm(proj)
            if norm < 1e-12:
                raise AlignmentError(
                    f"receiver {i}, stream {m}: desired direction is swallowed by the "
                    "interference span; no usable zero-forcing filter exists"
                )
            filters[:, m] = proj / norm
        U.append(filters)
    return U


def _alignment_stats(Wm, V, U, K: int):
    """(signal_min, same-user max violation, cross-user max violation)."""
    signal_min = np.inf
    same_max = 0.0
    cross_max = 0.0
    for i in range(K):
        for k in range(K):
            M = np.abs(U[i].conj().T @ (Wm[i][k] @ V[k]))
            if k == i:
                signal_min = min(signal_min, float(M.diagonal().min()))
                off = M - np.diag(np.diag(M))
                if off.size:
                    same_max = max(same_max, float(off.max()))
            else:
                cross_max = max(cross_max, float(M.max()))
    return signal_min, same_max, cross_max


def _check_feasibility(params: IaParameters):
    RN = params.R * params.N
    for i in range(params.K):
        worst = max(dk for k, dk in enumerate(params.d) if k != i)
        if params.d[i] + worst > RN:
            raise AlignmentError(
                f"receiver {i}: d_i={params.d[i]} desired plus an aligned interference "
                f"subspace of at least {worst} dimensions cannot fit in R*N={RN}"
            )


def build_beamformers(
    rec: ReconstructedChannel,
    params: IaParameters,
    engine: str = "leakage-min",
    *,
    tol: float = 1e-8,
    c_min: float = 1e-6,
    max_iters: int = 5000,
    rng=None,
    shared: bool = False,
    restarts: int = 2,
    rank_rtol: float = 1e-7,
) -> BeamformerSet:
    """Find (u, v) satisfying the alignment conditions against `rec`.

    The returned set has every cross-user and cross-stream inner product
    below `tol` and every desired-signal inner product above `c_min`, all
    measured against the reconstructed channel (not the true one). The
    leakage-min engine restarts from fresh random directions up to
    `restarts` times before giving up; failures raise AlignmentError with
    the leakage trajectory attached.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if rec.K != params.K or rec.R != params.R or rec.N != params.N:
        raise ValueError(
            f"reconstruction shape (K={rec.K}, R={rec.R}, N={rec.N}) does not match "
            f"parameters (K={params.K}, R={params.R}, N={params.N})"
        )
    _check_feasibility(params)
    rng = as_generator(rng)
    Wm = _wtilde_matrices(rec)

    if engine == "cj3":
        if params.scheme != "cj3" or params.K != 3 or params.R != 1:
            raise ValueError("the cj3 engine needs cj3_parameters (K=3, R=1, N=2n+1)")
        if shared:
            raise ValueError("the cj3 construction has no shared-direction variant")
        V = _cj3_directions(Wm, params)
        U = _zero_force_receivers(Wm, V, params, rank_rtol)
        signal_min, same_max, cross_max = _alignment_stats(Wm, V, U, params.K)
        residual = max(same_max, cross_max)
        if residual > tol or signal_min < c_min:
            raise AlignmentError(
                f"cj3 construction failed: residual={residual:.3e}, signal_min={signal_min:.3e}",
                residual=residual,
            )
        return BeamformerSet(
            v=tuple(V), u=tuple(U), params=params, alignment_residual=residual,
            signal_min=signal_min, engine=engine,
        )

    target = (0.5 * tol) ** 2
    history_all = []
    attempts = max(1, restarts + 1)
    residual, signal_min = math.inf, 0.0
    for _ in range(attempts):
        V, history = _leakage_min_directions(Wm, params, target, max_iters, rng, shared)
        history_all.extend(history)
        try:
            U = _zero_force_receivers(Wm, V, params, rank_rtol)
        except AlignmentError:
            continue  # degenerate solution; restart from fresh directions
        signal_min, same_max, cross_max = _alignment_stats(Wm, V, U, params.K)
        residual = max(same_max, cross_max)
        if residual <= tol and signal_min >= c_min:
            return BeamformerSet(
                v=tuple(V), u=tuple(U), params=params, alignment_residual=residual,
                signal_min=signal_min, engine=engine, shared=shared,
                iterations=len(history), leakage=history[-1] if history else 0.0,
            )
    raise AlignmentError(
        f"leakage-min did not reach tol={tol:.1e} within {max_iters} iterations "
        f"x {attempts} attempts (last residual {residual:.3e}, signal {signal_min:.3e})",
        history=history_all,
        residual=residual,
    )


@dataclass(frozen=True)
class AlignmentReport:
    """Recomputed alignment quality of a beamformer set against a channel."""

    signal_min: float
    max_same_tx_violation: float
    max_cross_tx_violation: float
    residual: float
    stated_residual: float
    c_min: float
    passed: bool


def verify_alignment(
    bf: BeamformerSet, rec: ReconstructedChannel, c_min: float = 1e-6,
    residual_tol: float | None = None,
) -> AlignmentReport:
    """Recompute all alignment inner products of `bf` against `rec`.

    Passes when the largest violated inner product does not exceed the
    set's stated residual (or `residual_tol` when given) and the smallest
    desired-signal term stays above `c_min`.
    """
    Wm = _wtilde_matrices(rec)
    signal_min, same_max, cross_max = _alignment_stats(Wm, bf.v, bf.u, rec.K)
    residual = max(same_max, cross_max)
    allowed = bf.alignment_residual if residual_tol is None else residual_tol
    return AlignmentReport(
        signal_min=signal_min,
        max_same_tx_violation=same_max,
        max_cross_tx_violation=cross_max,
        residual=residual,
        stated_residual=allowed,
        c_min=c_min,
        passed=bool(residual <= allowed + 1e-12 and signal_min >= c_min),
    )
