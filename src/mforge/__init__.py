"""mforge: a sieve laboratory for Mertens-adjacent arithmetic functions.

Exact per-n tables (mobius, liouville, prime-factor counts, the exponent
multinomial, and the Dirichlet inverse of omega + 1), truncated Dirichlet
algebra with a zero-tolerance identity suite, checkpointed summatory series,
distribution statistics, a randomized Mobius model, and scaled growth-ratio
traces.

Public names are resolved lazily (PEP 562): ``import mforge`` loads no
numpy, and a name's module is imported on its first use.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The identity suite's names (``dirichlet``) and the first x at which the
#: iterated-logarithm statistic is defined (``randmodel``), kept here because
#: the command-line parser reads them before any numpy is loaded.
IDENTITY_NAMES = ("a", "b", "c", "d", "e", "f")
LIL_MIN_X = 16

#: Each module's public names.
_EXPORTS = {
    "sieve": ("DEFAULT_SEGMENT_CAPACITY", "Factorization", "Segment", "factorize",
              "primes_up_to"),
    "arith": ("ArithmeticProfile", "c_omega", "g_squarefree_closed_form", "g_table",
              "profile_range"),
    "dirichlet": ("IdentityReport", "convolve", "dirichlet_inverse", "verify_identity"),
    "summatory": ("CheckpointPolicy", "SummatoryRows", "build_series", "g_via_double_sum",
                  "mertens_via_G_over_primes", "mertens_via_g_pi", "quotient_closure"),
    "stats": ("DensityReport", "EmpiricalCdf", "collect_counts", "conditional_squarefree",
              "d_m_coefficients", "erdos_kac_cdf", "excess_density", "omega_k_density",
              "prime_exponent_distribution", "sign_balance"),
    "randmodel": ("LIL_CONSTANT", "ModelRun", "lil_statistic", "simulate", "simulate_many"),
    "tracker": ("RatioTrace", "build_trace", "heuristic_sums", "qhat_prediction"),
    "parallel": ("WorkerPool",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["IDENTITY_NAMES", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
