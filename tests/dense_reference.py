"""Direct and dense forms of the metric and the channel, the references for the batched and structured kernels.

`composite_dist_sq` is the direct formula of the composite Grassmann
metric, the reference for the quantizer's embedded scores. `hbar` and
`hbar_matrix` take a (K, K, N, R) tone array
(`iafb.channel.to_tone_domain`) and use the unitary scaling of the
`iafb.channel` module docstring. `direction` is one link's fed-back
direction, the reference for `iafb.channel.receiver_feedback`, and
`seeded_channel` draws a (K, K, L, R) tap array from one seed or generator.

`unit_rows` and `random_codebook_points` are the whole-array draws that
`iafb.rng.draw_unit_rows` makes in sub-blocks, and
`leakage_min_directions` is the leakage-min loop that forms every image
twice per iteration, the reference for
`iafb.alignment._leakage_min_directions`. `codebook_file_seed` checks a
`iafb.quantizer.save_codebook` file against the codebook its header names.
"""

from pathlib import Path

import numpy as np

from iafb.alignment import _rand_orthonormal
from iafb.channel import _block_diag_from_rows, generate_channel
from iafb.quantizer import _GEN_CHUNK, build_random_codebook
from iafb.rng import complex_normal, trial_generator


def composite_dist_sq(a, b):
    """Sum of per-component squared chordal distances 1 - |<a_k, b_k>|^2.

    ``a`` and ``b`` are broadcastable (..., K, n) arrays of unit rows; the
    (...) result lies in [0, K]. Each component's term is symmetric,
    phase-invariant and clamped to [0, 1]. A single line is the K = 1 case.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"need (..., K, n) points of one shape, got {a.shape} and {b.shape}")
    ip = np.einsum("...j,...j->...", a.conj(), b)
    return np.clip(1.0 - (ip.real * ip.real + ip.imag * ip.imag), 0.0, 1.0).sum(axis=-1)


def seeded_channel(K, R, L, seed):
    """The taps of one `complex_normal` draw of (K, K, L, R) off `seed` (an integer or a Generator)."""
    return generate_channel(K, R, L, complex_normal(np.random.default_rng(seed), (K, K, L, R)))


def direction(taps):
    """One link's L x R taps as a unit-norm column-major (R*L,) vector: ``v / np.linalg.norm(v)``."""
    v = np.asarray(taps).reshape(-1, order="F")
    return v / np.linalg.norm(v)


def directions(taps):
    """Every link's `direction`, (K, K, R*L), of an unbatched (K, K, L, R) tap array."""
    return np.array([[direction(link) for link in row] for row in taps])


def hbar(tones, i, k):
    """Stacked tone channel of link (i, k): length R*N, tone-major."""
    return tones[i, k].reshape(-1) / np.sqrt(tones.shape[-2])


def hbar_matrix(tones, i, k):
    """Dense R*N x N block-diagonal channel matrix of link (i, k).

    Block r (rows r*R..(r+1)*R, column r) holds the conjugated tone
    vector of tone r.
    """
    return _block_diag_from_rows(np.conj(tones[i, k]) / np.sqrt(tones.shape[-2]))


def unit_rows(rng, shape):
    """`complex_normal` of `shape` off `rng` (a seed or a Generator), normalized along its last axis in one go."""
    raw = complex_normal(np.random.default_rng(rng), shape)
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw


def random_codebook_points(n, K, bits, seed):
    """The codewords of ``build_random_codebook(n, K, bits, seed)``: one `unit_rows` per chunk stream, concatenated."""
    size = 1 << bits
    chunks = [
        unit_rows(trial_generator(seed, c), (min(_GEN_CHUNK, size - c * _GEN_CHUNK), K, n))
        for c in range((size + _GEN_CHUNK - 1) // _GEN_CHUNK)
    ]
    return np.concatenate(chunks)


def total_leakage(Wm, U, V):
    """Sum over links i != k of ||U_i^H W_ik V_k||_F^2, each image formed afresh."""
    K = len(Wm)
    total = 0.0
    for i in range(K):
        for k in range(K):
            if k == i:
                continue
            M = U[i].conj().T @ (Wm[i][k] @ V[k])
            total += float(np.linalg.norm(M) ** 2)
    return total


def leakage_min_directions(Wm, params, target, max_iters, rng, shared):
    """Leakage-min's alternating loop: returns (V, U, history).

    Every image ``Wm[i][k] @ V[k]`` is formed in the U step and again in
    `total_leakage`.
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
        leak = total_leakage(Wm, U, V)
        history.append(leak)
        if leak <= target:
            if not tie_break:
                break
            tie_active = False
        elif not tie_break and len(history) >= 200 and leak > 0.98 * history[-200]:
            break
    return V, U, history


def codebook_file_seed(path, n, K, bits):
    """Check that a codebook file is a pure function of its header; returns the header's seed.

    The header names n, K, bits, mode=materialized and a seed, and row c
    holds the K*n coordinates of codeword c of
    ``build_random_codebook(n, K, bits, seed)``, component-major, each as
    ``repr(complex(z))``.
    """
    magic, header, *rows = Path(path).read_text().splitlines()
    assert magic == "# iafb-codebook v1"
    fields = dict(item.split("=", 1) for item in header.split())
    assert fields.keys() == {"n", "K", "bits", "mode", "seed"}
    assert (fields["n"], fields["K"], fields["bits"], fields["mode"]) == (str(n), str(K), str(bits), "materialized")
    seed = int(fields["seed"])
    points = build_random_codebook(n, K, bits, seed=seed).points.reshape(1 << bits, K * n)
    assert rows == [" ".join(repr(complex(z)) for z in row) for row in points]
    return seed
