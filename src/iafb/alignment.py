"""Interference alignment: stream bookkeeping, beamformer engines, zero-forcing.

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

Both engines finish with the same zero-forcing step, two factorizations
per receiver. One SVD of the interference images gives an orthonormal
basis B of the (at most R*N - d_i)-dimensional aligned-interference
subspace. The desired images projected off B form D, and one thin SVD
D = W S Z^H gives the filters as the unit columns of D (D^H D)^-1 =
W S^-1 Z^H: each is its stream's desired image projected off B and the
other desired images. Rounding in W S^-1 grows with 1/s, so the filters
are projected off B once more; without that, ill-conditioned cj3 sizings
(n = 5, 6) leak up to 2.5e-7 into the interference span. Same-user stream
separation is therefore exact to machine precision, and residual
cross-user leakage equals whatever alignment error the engine left.

Stacks of one or two columns factor in closed form (`_thin_svd`): a
column's norm, or one Jacobi rotation. cj3 at n = 1 has only such stacks
besides its interference images, which are of deficient rank there, and
their basis B is a closed form too, for every element certified with a
margin against RANK_RTOL: receivers 1 and 2 see 3x3 images of rank 2
(`_rank2_span`, a cross product of two columns), and receiver 0 sees a
3x2 image of rank 1 capped at one column (`_rank1_span`, its larger
column). Other ranks, all-zero and near-threshold elements go to
`_thin_svd` (LAPACK past two columns), as do all other shapes. At these
sizes LAPACK's per-matrix overhead, not its arithmetic, sets the cost. On 198-element stacks of
3-row matrices (one BLAS thread, 2-core shared VM) 3x1 took 27-40 us
against LAPACK's 410-680 us, 3x2 290-330 us against 780-1,350 us, the
3x3 rank-2 basis 285-335 us against 1.3-1.5 ms, and the 3x2 rank-1 basis
135 us against the Jacobi rotation's 415 us.

`build_beamformers` takes a batch of reconstructions, the (B, K, K, N, R)
tone array of `reconstruct` (a leading batch axis: dof-sweep stacks a
block of trials x alphas x powers, and ia-run builds a batch of one).
cj3 and the zero-forcing step run on the whole batch in stacked calls;
leakage-min iterates one element at a time. A build records each
element's failure instead of raising it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ReconstructedChannel, tone_images
from .rng import complex_normal

__all__ = [
    "IaParameters",
    "BeamformerSet",
    "MimoReduction",
    "AlignmentError",
    "ia_parameters",
    "cj3_parameters",
    "build_beamformers",
    "mimo_reduce",
]

ENGINES = ("leakage-min", "cj3")

# interference singular values at or below this fraction of the largest
# are treated as alignment residue, not as interference directions
RANK_RTOL = 1e-7


class AlignmentError(RuntimeError):
    """Raised when an engine cannot satisfy the alignment conditions.

    ``history`` carries the leakage trajectory of the failed run(s) so the
    caller can distinguish slow convergence from infeasibility.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


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
    return IaParameters(K=K, R=R, n=n, N=N, d=d, scheme="gj-simo")


def cj3_parameters(n: int) -> IaParameters:
    """Three-user single-antenna closed-form sizing: N = 2n+1, d = (n+1, n, n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return IaParameters(K=3, R=1, n=n, N=2 * n + 1, d=(n + 1, n, n), scheme="cj3")


@dataclass(frozen=True)
class BeamformerSet:
    """Transmit directions and receive filters found by an engine, for a batch of reconstructions.

    ``v[k]`` is (B, N, d_k) with unit-norm columns; ``u[i]`` is
    (B, R*N, d_i) with unit-norm columns. ``alignment_residual`` holds,
    per element, the largest violated inner product against the
    reconstruction the element was built on, and ``signal_min`` the
    smallest surviving desired-signal inner product. ``iterations`` sums
    leakage-min's iterations in each element's last attempt (0 for cj3).
    ``failures`` holds, per element, the AlignmentError of its build, or
    None. A failed element's ``v`` and ``u`` are zero, so rates evaluate
    it as silent rather than as NaN.
    """

    v: tuple
    u: tuple
    params: IaParameters
    alignment_residual: float
    signal_min: float
    iterations: int = 0
    failures: tuple = ()


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


def _wtilde_matrices(wtones):
    """Dense W_ik of one (K, K, N, R) reconstruction, [i][k]."""
    rec = ReconstructedChannel(wtones)
    return [[rec.wtilde_matrix(i, k) for k in range(len(wtones))] for i in range(len(wtones))]


def _rand_orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    mat = complex_normal(rng, (rows, cols))
    q, _ = np.linalg.qr(mat)
    return q


def _leakage_min_directions(Wm, params: IaParameters, target: float, max_iters: int, rng, shared: bool):
    """Alternate exact block minimizers of the total leakage; returns (V, U, history).

    The interference images ``Wm[i][k] @ V[k]`` are formed once per V
    step: they give that iteration's leakage and the next U step's
    covariances.

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
    others = [[k for k in range(K) if k != i] for i in range(K)]

    def interference_images():
        return [[Wm[i][k] @ V[k] for k in others[i]] for i in range(K)]

    images = interference_images()
    U = [None] * K

    tie_active = shared
    history = []
    for it in range(max_iters):
        for i in range(K):
            cov = np.zeros((RN, RN), dtype=complex)
            for img in images[i]:
                cov += img @ img.conj().T
            U[i] = np.linalg.eigh(cov)[1][:, : d[i]]
        tie_break = 3e-2 if (tie_active and it < 0.6 * max_iters) else 0.0
        for g in groups:
            cov = np.zeros((N, N), dtype=complex)
            for k in g:
                for i in others[k]:
                    back = Wm[i][k].conj().T @ U[i]
                    cov += back @ back.conj().T
                if tie_break:
                    own = Wm[k][k].conj().T @ U[k]
                    cov -= tie_break * (own @ own.conj().T)
            _, vecs = np.linalg.eigh(cov)
            for k in g:
                V[k] = vecs[:, : d[g[0]]]
        images = interference_images()
        leak = 0.0
        for i in range(K):
            Uh = U[i].conj().T
            for img in images[i]:
                leak += float(np.linalg.norm(Uh @ img) ** 2)
        history.append(leak)
        if leak <= target:
            if not tie_break:
                break
            tie_active = False  # polish without the tie-breaker from here on
        # bail out of plateaus so the caller can restart from fresh directions
        elif not tie_break and len(history) >= 200 and leak > 0.98 * history[-200]:
            break
    return V, U, history


def _cj3_singular(h) -> np.ndarray:
    """Per batch element: are its per-tone gains not all invertible?"""
    mag = np.abs(h).reshape(len(h), -1)
    scale = mag.max(axis=1)
    return (scale == 0.0) | (mag.min(axis=1) < 1e-12 * scale)


def _cj3_directions(h, params: IaParameters):
    """Closed-form aligned transmit directions for K=3, R=1, N=2n+1.

    ``h[..., i, k, :]`` holds the per-tone gains of link (i, k), the
    diagonal of W_ik; every operation is elementwise over the batch.
    """
    n = params.n
    ratio = (
        h[..., 1, 2, :] * h[..., 0, 1, :] * h[..., 2, 0, :]
        / (h[..., 1, 0, :] * h[..., 0, 2, :] * h[..., 2, 1, :])
    )
    powers = np.stack([ratio**j for j in range(n + 1)], axis=-1)  # a_j = T^j 1
    v1 = powers
    v2 = (h[..., 2, 0, :] / h[..., 2, 1, :])[..., None] * powers[..., :n]
    v3 = (h[..., 1, 0, :] / h[..., 1, 2, :])[..., None] * powers[..., 1:]
    return [mat / np.linalg.norm(mat, axis=-2, keepdims=True) for mat in (v1, v2, v3)]


def _hermitian(mat):
    return np.conj(np.swapaxes(mat, -1, -2))


def _thin_svd(A):
    """``np.linalg.svd(A, full_matrices=False)`` of a stack (..., r, m): closed forms for m <= 2, else LAPACK.

    One column is its norm times its unit column. Two columns [a, b]
    (r >= 2) take one complex one-sided Jacobi rotation (Hestenes 1958):
    with g = a^H b, zeta = (|b|^2 - |a|^2) / (2|g|), t = sign(zeta) /
    (|zeta| + sqrt(1 + zeta^2)) and c = 1 / sqrt(1 + t^2), the unitary
    Z = diag(1, conj(g)/|g|) [[c, c t], [-c t, c]] diagonalizes the Gram
    matrix (Golub and Van Loan's symmetric Schur step, with the phase of g
    factored out). The columns of A Z are therefore orthogonal. Their
    norms are the singular values, sorted in descending order together
    with the columns of Z, and their unit columns are U. A zero column
    gets an identity column instead, which for a zero matrix is LAPACK's
    identity.
    """
    r, m = A.shape[-2:]
    if m > 2 or m > r:
        return np.linalg.svd(A, full_matrices=False)
    if m == 1:
        s = np.linalg.norm(A, axis=-2)
        u = np.divide(A, s[..., None], out=np.zeros_like(A), where=s[..., None] > 0.0)
        u[..., 0, 0] += s[..., 0] == 0.0
        return u, s, np.ones_like(A[..., :1, :])
    a, b = A[..., 0], A[..., 1]
    g = (a.conj() * b).sum(-1)
    sq = (A.real**2 + A.imag**2).sum(-2)
    gap, two_g = sq[..., 1] - sq[..., 0], 2.0 * np.abs(g)
    # t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)) with 2|g| multiplied
    # through, so that g = 0 (no rotation) divides by nothing
    den = np.abs(gap) + np.hypot(gap, two_g)
    t = np.copysign(two_g, gap) / np.where(den > 0.0, den, 1.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    phase = np.divide(np.conj(g), 0.5 * two_g, out=np.ones_like(g), where=two_g > 0.0)
    Z = np.stack([np.stack([c, c * t], axis=-1), np.stack([-c * t * phase, c * phase], axis=-1)], axis=-2)
    cols = a[..., None] * Z[..., None, 0, :] + b[..., None] * Z[..., None, 1, :]  # A Z
    s = np.linalg.norm(cols, axis=-2)
    swap = s[..., :1] < s[..., 1:]
    s = np.where(swap, s[..., ::-1], s)
    Z = np.where(swap[..., None, :], Z[..., ::-1], Z)
    cols = np.where(swap[..., None, :], cols[..., ::-1], cols)
    # one rotation leaves the columns orthogonal only to rounding, so the
    # second unit column is taken off the first once more
    u0 = np.divide(cols[..., 0], s[..., :1], out=np.zeros_like(a), where=s[..., :1] > 0.0)
    u0[..., 0] += s[..., 0] == 0.0
    u1 = cols[..., 1] - u0 * (u0.conj() * cols[..., 1]).sum(-1, keepdims=True)
    norm = np.linalg.norm(u1, axis=-1, keepdims=True)
    if not norm.all():
        # a zero second column: e_k at the smallest |u0| entry, taken off u0
        k = np.argmin(np.abs(u0), axis=-1)[..., None]
        spare = np.eye(r, dtype=A.dtype)[k[..., 0]] - u0 * np.take_along_axis(u0, k, -1).conj()
        u1 = np.where(norm > 0.0, u1, spare)
        norm = np.linalg.norm(u1, axis=-1, keepdims=True)
    return np.stack([u0, u1 / norm], axis=-1), s, _hermitian(Z)


# cyclic successors of the indices 0, 1, 2
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(x, y):
    """Cross products x cross y along axis 1, which has length 3 (no conjugation)."""
    return x[:, _NEXT] * y[:, _AFTER] - x[:, _AFTER] * y[:, _NEXT]


def _rank2_span(J):
    """Closed-form orthonormal bases of 3x3 stacks that are certainly of rank 2: (basis, certified).

    The complement of a rank-2 span in C^3 is n = conj(x cross y) / |x cross
    y| for any two of its columns x, y that span it, since (x cross y) . x
    = 0; the basis is u0 = x / |x| and u1 = conj(n cross u0), orthonormal
    by Lagrange's identity |n cross u0|^2 = |n|^2 |u0|^2 - |n^H u0|^2. The
    three column cross products are the cofactors of J (column j holds
    column j+1 cross column j+2), and the pair taken is the
    best-conditioned one, the largest |x cross y| / (|x|^2 + |y|^2). With
    P = |x cross y|, F_p = ||[x y]||_F and F = ||J||_F, an element is
    certified, and gets the closed form, when

    * P > 1e3 RANK_RTOL F_p F, so sigma_2 >= P / F_p > 1e3 RANK_RTOL
      sigma_1: LAPACK counts at least two singular values above RANK_RTOL
      sigma_1, whatever its rounding;
    * |det J| F_p <= 1e-12 P^2. The third singular value sigma_3 <= |det
      J| / P, and each column lies within sigma_3 of LAPACK's leading
      2-dimensional left singular subspace, so the pair's span is within
      an angle sigma_3 F_p / P <= 1e-12 of it, and sigma_3 <= 1e-12
      sigma_1, five decades under RANK_RTOL.

    Every other element (rank 3, rank 1, all zero, near either threshold,
    not finite) is left to LAPACK. Returns the (M, 3, 2) bases, meaningful
    only where the (M,) mask `certified` is set.
    """
    cof = _cross(J[..., _NEXT], J[..., _AFTER])
    area = np.sqrt((cof.real**2 + cof.imag**2).sum(axis=1))
    col_sq = (J.real**2 + J.imag**2).sum(axis=1)
    total_sq = col_sq.sum(axis=1)
    pair_sq = total_sq[:, None] - col_sq
    pick = (np.arange(len(J)), np.argmax(np.divide(area, pair_sq, out=np.zeros_like(area), where=pair_sq > 0.0), 1))
    area, pair_f = area[pick], np.sqrt(pair_sq[pick])
    det = np.abs((cof[..., 0] * J[..., 0]).sum(axis=1))
    certified = (area > 1e3 * RANK_RTOL * pair_f * np.sqrt(total_sq)) & (det * pair_f <= 1e-12 * area**2)
    x, x_norm = J[pick[0], :, _NEXT[pick[1]]], np.sqrt(col_sq[pick[0], _NEXT[pick[1]]])
    with np.errstate(divide="ignore", invalid="ignore"):
        n = cof[pick[0], :, pick[1]].conj() / area[:, None]
        u0 = x / x_norm[:, None]
    u1 = _cross(n, u0).conj()
    return np.stack([u0, u1], axis=-1), certified


def _rank1_span(J):
    """Closed-form unit bases of 3x2 stacks that are certainly of rank 1: (basis, certified).

    For two columns x, y of C^3, |x cross y|^2 = |x|^2 |y|^2 - |x^H y|^2
    (Lagrange's identity) is sigma_1^2 sigma_2^2, and F^2 = |x|^2 + |y|^2
    is sigma_1^2 + sigma_2^2 <= 2 sigma_1^2. So with P = |x cross y| an
    element is certified when 2 P <= 1e-12 F^2, which bounds sigma_2 /
    sigma_1 = P / sigma_1^2 by 1e-12, five decades under RANK_RTOL: LAPACK
    counts one singular value above RANK_RTOL sigma_1, whatever its
    rounding. Its basis is the larger column over its norm, which lies
    within an angle sqrt(2) sigma_2 / sigma_1 of LAPACK's leading left
    singular vector. F^2 must be finite and at least the smallest normal
    float, so that no overflow or underflow in P passes the test. Every
    other element (rank 2, all zero, near the threshold, not finite) is
    left to `_thin_svd`. Returns the (M, 3, 1) bases, meaningful only
    where the (M,) mask `certified` is set.
    """
    rows = np.arange(len(J))
    with np.errstate(all="ignore"):
        cross = _cross(J[..., :1], J[..., 1:])[..., 0]
        area = np.sqrt((cross.real**2 + cross.imag**2).sum(axis=1))
        col_sq = (J.real**2 + J.imag**2).sum(axis=1)
        total_sq = col_sq.sum(axis=1)
        certified = (total_sq >= np.finfo(float).tiny) & (total_sq < np.inf) & (2.0 * area <= 1e-12 * total_sq)
        pick = np.argmax(col_sq, axis=1)
        u0 = J[rows, :, pick] / np.sqrt(col_sq[rows, pick])[:, None]
    return u0[..., None], certified


def _interference_basis(J, cap: int):
    """Orthonormal bases of a stack's interference spans, (M, r, width).

    Element b keeps its first min(cap, m, rank_b) left singular vectors,
    where rank_b counts its singular values above RANK_RTOL times the
    largest (r for a zero element); columns past them are zero. In a 3x3
    stack capped at 2 or more columns, the elements `_rank2_span`
    certifies take its closed form, and in a 3x2 stack capped at 1 or
    more, those `_rank1_span` certifies take its; every other element
    takes one stacked `_thin_svd` call.
    """
    M, r, m = J.shape
    span, certified = None, np.zeros(M, dtype=bool)
    if (r, m) == (3, 3) and cap >= 2:
        span, certified = _rank2_span(J)
    elif (r, m) == (3, 2) and cap >= 1:
        span, certified = _rank1_span(J)
    if span is not None and certified.all():
        return span
    rest = ~certified
    left, sing, _ = _thin_svd(J[rest] if certified.any() else J)
    rank = np.count_nonzero(sing > RANK_RTOL * sing[:, :1], axis=-1)
    keep = np.minimum(min(cap, m), np.where(sing[:, 0] > 0.0, rank, r))
    if certified.any():
        cols = span.shape[-1]
        full = np.zeros((M, r, left.shape[-1]), dtype=left.dtype)
        full[rest], full[certified, :, :cols] = left, span[certified]
        left, keep_all = full, np.full(M, cols)
        keep_all[rest] = keep
        keep = keep_all
    width = int(keep.max())
    return left[..., :width] * (np.arange(width) < keep[:, None])[:, None, :]


def _zero_force_receivers(images, params: IaParameters):
    """Unit receive filters against the interference basis (see module docstring).

    ``images[i][k]`` is W_ik V_k for a batch, shape (M, R*N, d_k); every
    factorization is one stacked call. Each element keeps its own
    interference rank: basis columns past it are zeroed. Returns the
    filters, U[i] of shape (M, R*N, d_i), and an (M, K) array holding each
    receiver's first swallowed stream, or -1. Column m of S^-1 Z^H has
    norm 1 / (distance of stream m's desired image from B and the other
    desired images): the "swallowed" test.
    """
    K, d, RN = params.K, params.d, params.R * params.N
    M = len(images[0][0])
    U = []
    swallowed = np.full((M, K), -1)
    for i in range(K):
        J = np.concatenate([images[i][k] for k in range(K) if k != i], axis=-1)
        basis = _interference_basis(J, RN - d[i])
        basis_h = _hermitian(basis)
        desired = images[i][i]
        w, s, zh = _thin_svd(desired - basis @ (basis_h @ desired))
        tiny = s[:, -1] < 1e-12  # no stream is closer than s[-1] to the others
        if tiny.any():
            # |S^-1 Z^H| without dividing by an exactly zero singular value:
            # its row is infinite for the streams its null direction involves
            blown = np.where(zh == 0, 0.0, np.inf)
            scale = np.divide(np.abs(zh), s[..., None], out=blown, where=s[..., None] > 0.0)
            lost = tiny[:, None] & (1.0 / np.linalg.norm(scale, axis=-2) < 1e-12)
            swallowed[:, i] = np.where(lost.any(axis=-1), lost.argmax(axis=-1), -1)
        filters = w @ (zh / s[..., None])
        filters -= basis @ (basis_h @ filters)
        U.append(filters / np.linalg.norm(filters, axis=-2, keepdims=True))
    return U, swallowed


def _alignment_stats(images, U):
    """Per element: (signal_min, same-user max violation, cross-user max violation)."""
    signal, same, cross = [], [], []
    for i, row in enumerate(images):
        uh = _hermitian(U[i])
        for k, image in enumerate(row):
            M = np.abs(uh @ image)
            if k == i:
                diag = np.arange(M.shape[-1])
                signal.append(M[..., diag, diag].min(axis=-1))
                M[..., diag, diag] = 0.0
                same.append(M.max(axis=(-2, -1)))
            else:
                cross.append(M.max(axis=(-2, -1)))
    return np.min(signal, axis=0), np.max(same, axis=0), np.max(cross, axis=0)


def _finish(wtones, V, params: IaParameters, engine: str, tol: float, c_min: float, failures=None, iterations=0):
    """Zero-force a batch of directions V against `wtones` and gate it against `tol` and `c_min`.

    ``wtones`` is (M, K, K, N, R) and ``V[k]`` (M, N, d_k). Records, per
    element, the AlignmentError of its build: the element's entry in
    `failures` if given and not None, else a swallowed stream, by
    receiver, else the gate. Failed elements get zero ``v`` and ``u``.
    """
    images = tone_images(wtones, V)
    # a swallowed stream divides by a zero singular value; it fails below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        U, swallowed = _zero_force_receivers(images, params)
        signal_min, same_max, cross_max = _alignment_stats(images, U)
    residual = np.maximum(same_max, cross_max)
    failures = [None] * len(residual) if failures is None else list(failures)
    gated = (swallowed >= 0).any(axis=1) | (residual > tol) | (signal_min < c_min)
    for b in np.flatnonzero(gated):
        if failures[b] is not None:
            continue
        lost = np.flatnonzero(swallowed[b] >= 0)
        if lost.size:
            failures[b] = AlignmentError(
                f"receiver {lost[0]}, stream {swallowed[b, lost[0]]}: desired direction is swallowed "
                "by the interference span; no usable zero-forcing filter exists"
            )
        else:
            failures[b] = AlignmentError(
                f"{engine} construction failed: residual={residual[b]:.3e}, signal_min={signal_min[b]:.3e}"
            )
    ok = np.array([f is None for f in failures])
    if not ok.all():
        V = [np.where(ok[:, None, None], v, 0.0) for v in V]
        U = [np.where(ok[:, None, None], u, 0.0) for u in U]
    return BeamformerSet(
        v=tuple(V), u=tuple(U), params=params, alignment_residual=residual,
        signal_min=signal_min, iterations=iterations, failures=tuple(failures),
    )


def _concatenated(sets) -> BeamformerSet:
    """Batched sets joined along their batch axis."""
    return replace(
        sets[0],
        v=tuple(np.concatenate(vs) for vs in zip(*(bf.v for bf in sets))),
        u=tuple(np.concatenate(us) for us in zip(*(bf.u for bf in sets))),
        alignment_residual=np.concatenate([bf.alignment_residual for bf in sets]),
        signal_min=np.concatenate([bf.signal_min for bf in sets]),
        iterations=sum(bf.iterations for bf in sets),
        failures=tuple(f for bf in sets for f in bf.failures),
    )


def build_beamformers(
    wtones: np.ndarray,
    params: IaParameters,
    engine: str = "leakage-min",
    *,
    tol: float = 1e-8,
    c_min: float = 1e-6,
    max_iters: int = 5000,
    rng=None,
    shared: bool = False,
) -> BeamformerSet:
    """Find (u, v) satisfying the alignment conditions against each reconstruction of the batch `wtones`.

    An element builds when every cross-user and cross-stream inner product
    is below `tol` and every desired-signal inner product above `c_min`,
    all measured against its reconstructed channel (not the true one).
    cj3 builds the whole batch at once and draws nothing. leakage-min
    iterates one element at a time, drawing from ``rng[b]``: `rng` must be
    a list or tuple of one ``numpy.random.Generator`` per element, so no
    element's start depends on the rest of the batch. It restarts from
    fresh random directions up to twice before giving up.

    A failing element does not raise: the set records, per element, its
    AlignmentError (singular per-tone gains, a swallowed stream, the gate,
    or leakage-min's last attempt with the leakage trajectory attached) in
    ``failures`` and zeroes its beamformers (see `BeamformerSet`). Usage
    errors raise ValueError: a wrong engine, sizing or generator list, or
    `wtones` that is not the (B, K, K, N, R) tone array of a batch of
    `reconstruct` calls at the K, R and N of `params`.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    expect = (params.K, params.K, params.N, params.R)
    if wtones.ndim != 5 or wtones.shape[1:] != expect:
        raise ValueError(f"need a batch of reconstructions (B, K, K, N, R) = (B, {str(expect)[1:]}, got {wtones.shape}")

    if engine == "cj3":
        if params.scheme != "cj3" or params.K != 3 or params.R != 1:
            raise ValueError("the cj3 engine needs cj3_parameters (K=3, R=1, N=2n+1)")
        if shared:
            raise ValueError("the cj3 construction has no shared-direction variant")
        # W_ik is diagonal at R=1: its diagonal is the conjugated tone row
        h = np.conj(wtones[..., 0])
        singular = _cj3_singular(h)
        failures = None
        if singular.any():
            # a singular element builds from unit gains, without dividing
            # by zero, and fails for its gains whatever the build gives
            h = np.where(singular[:, None, None, None], 1.0, h)
            failures = [
                AlignmentError("cj3 needs invertible per-tone channels; a tone gain is (near) zero") if s else None
                for s in singular
            ]
        return _finish(wtones, _cj3_directions(h, params), params, engine, tol, c_min, failures)

    rngs = list(rng) if isinstance(rng, (list, tuple)) else []
    if len(rngs) != len(wtones) or not all(isinstance(g, np.random.Generator) for g in rngs):
        raise ValueError(f"leakage-min needs a list of {len(wtones)} numpy Generators, one per batch element")
    return _concatenated([
        _leakage_min(w, params, tol, c_min, max_iters, g, shared)
        for w, g in zip(wtones, rngs)
    ])


def _leakage_min(wtones, params, tol, c_min, max_iters, rng, shared) -> BeamformerSet:
    """leakage-min on one (K, K, N, R) element of a batch; a batch-of-one set, its failure recorded."""
    Wm = _wtilde_matrices(wtones)
    target = (0.5 * tol) ** 2
    history_all = []
    attempts = 3  # the first run and up to two restarts
    for _ in range(attempts):
        V, _, history = _leakage_min_directions(Wm, params, target, max_iters, rng, shared)
        history_all.extend(history)
        bf = _finish(
            wtones[None], [v[None] for v in V], params, "leakage-min", tol, c_min,
            iterations=len(history),
        )
        last = bf.failures[0]
        if last is None:
            return bf
        # degenerate or unconverged; restart from fresh directions
    failure = AlignmentError(
        f"leakage-min did not reach tol={tol:.1e} within {max_iters} iterations "
        f"x {attempts} attempts (last: {last})",
        history=history_all,
    )
    return replace(bf, failures=(failure,))
