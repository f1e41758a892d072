"""qdl-lab: multiphoton quantum-data-locking toolkit.

Fock-space combinatorics, permanent-based linear-optics simulation,
seeded Monte Carlo estimation of scrambling statistics, closed-form
key-size and rate-loss bounds, and an end-to-end protocol simulator.
"""

__version__ = "0.1.0"

from .bounds import (
    KeySizeReport,
    failure_prob_bounds,
    k_epsilon_multi,
    k_epsilon_single,
    key_consumption_rate,
    mutual_info_lossy,
    rate_loss_curve,
)
from .errors import DomainError, ResourceError
from .exact import max_two_gamma, second_moment, two_gamma
from .fock import (
    CodeBook,
    ModeConfig,
    PhotonPattern,
    dim_hilbert,
    enumerate_basis,
    enumerate_patterns,
    log2_dim_hilbert,
    log2_num_codewords,
    num_codewords,
    sample_codebook,
)
from .linop import (
    UnitaryMatrix,
    haar_unitary,
    output_distribution,
    permanent,
)
from .mc import (
    GammaRecord,
    MomentEstimate,
    estimate_gamma_q,
    estimate_moments,
    estimate_raw_c_q,
    no_collision_values,
)
from .protocol import (
    ProtocolConfig,
    TrialRecord,
    TrialSummary,
    decode_with_key,
    empirical_mutual_info,
    gen_unitary_pool,
    run_trials,
)
