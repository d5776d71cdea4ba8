"""Interference alignment under finite-rate channel feedback.

Library layout:

* ``grassmann``  - composite Grassmann geometry on (..., K, n) point
  arrays: uniform sampling, exact and empirical ball volumes.
* ``quantizer``  - finite-rate codebooks, nearest-neighbor coding, the
  distortion oracle and distortion-vs-bits scaling.
* ``rng``        - per-trial streams and the one complex Gaussian draw:
  a block's complex normals in one call, large draws in two passes.
* ``channel``    - frequency-selective K-user channels as plain
  (..., K, K, L, R) tap arrays from drawn complex normals, tone transforms, and
  the feedback/reconstruction pipeline, each one array pass over a batch.
* ``alignment``  - stream bookkeeping, beamformer engines, and the
  MIMO-to-SIMO reduction.
* ``rates``      - SINR decomposition, achievable rates, DoF regression.
* ``cli``        - batch experiment runner (``iafb`` console script).

The package root re-exports nothing: import from the submodule, as in
``from iafb.channel import generate_channel``.
"""

__version__ = "0.1.0"
