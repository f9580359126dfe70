"""mforge: a sieve laboratory for Mertens-adjacent arithmetic functions.

Exact per-n tables (mobius, liouville, prime-factor counts, the exponent
multinomial, and the Dirichlet inverse of omega + 1), truncated Dirichlet
algebra with a zero-tolerance identity suite, checkpointed summatory series,
distribution statistics, a randomized Mobius model, and scaled growth-ratio
traces.
"""

from .sieve import (
    DEFAULT_SEGMENT_CAPACITY,
    Factorization,
    Segment,
    factorize,
    primes_up_to,
)
from .arith import (
    ArithmeticProfile,
    c_omega,
    g_squarefree_closed_form,
    g_table,
    profile_range,
)
from .dirichlet import (
    IDENTITY_NAMES,
    IdentityReport,
    convolve,
    dirichlet_inverse,
    verify_identity,
)
from .summatory import (
    CheckpointPolicy,
    SummatoryRows,
    SummatorySeries,
    build_series,
    g_via_double_sum,
    mertens_via_G_over_primes,
    mertens_via_g_pi,
)
from .stats import (
    DensityReport,
    EmpiricalCdf,
    collect_counts,
    conditional_squarefree,
    d_m_coefficients,
    erdos_kac_cdf,
    excess_density,
    omega_k_density,
    prime_exponent_distribution,
    sign_balance,
)
from .randmodel import LIL_CONSTANT, ModelRun, lil_statistic, simulate, simulate_many
from .tracker import (
    RatioTrace,
    build_trace,
    heuristic_sums,
    qhat_prediction,
)
from .parallel import WorkerPool

__version__ = "0.1.0"
