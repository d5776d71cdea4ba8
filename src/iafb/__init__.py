"""Interference alignment under finite-rate channel feedback.

Library layout:

* ``grassmann``  - composite Grassmann geometry on (..., K, n) point
  arrays: distances, uniform sampling, exact and empirical ball volumes.
* ``quantizer``  - finite-rate codebooks, nearest-neighbor coding, the
  distortion oracle and distortion-vs-bits scaling.
* ``channel``    - frequency-selective K-user channels, tone transforms,
  and the feedback/reconstruction pipeline.
* ``alignment``  - stream bookkeeping, beamformer engines, and the
  MIMO-to-SIMO reduction.
* ``rates``      - SINR decomposition, achievable rates, DoF regression.
* ``cli``        - batch experiment runner (``iafb`` console script).
"""

from .grassmann import (
    BallVolumeSpec,
    ball_volume_normalized,
    composite_dist_sq,
    empirical_ball_cdf,
    sample_uniform,
    sum_dist_sq_cdf,
)
from .quantizer import (
    Codebook,
    DistortionReport,
    FeedbackBudget,
    build_random_codebook,
    distortion_oracle_quantize,
    distortion_scaling_exponent,
    encode,
    measure_distortion,
)
from .channel import (
    ChannelRealization,
    ReconstructedChannel,
    ToneChannel,
    generate_channel,
    receiver_feedback,
    reconstruct,
    to_tone_domain,
    vectorize_direction,
)
from .alignment import (
    AlignmentError,
    BeamformerSet,
    IaParameters,
    MimoReduction,
    build_beamformers,
    cj3_parameters,
    ia_parameters,
    mimo_reduce,
)
from .rates import (
    DofEstimate,
    RateReport,
    achievable_rates,
    dof_fit,
    interference_boundedness,
    interference_terms,
)

__version__ = "0.1.0"
