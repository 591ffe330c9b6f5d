"""Error-rate analysis of downlink power-domain NOMA under additive white
generalized Gaussian noise over ordered Rayleigh fading.

Analytic pairwise error probabilities (exact quadrature, Laplacian and
Gaussian closed forms), BER union bounds and diversity slopes, validated by
a seeded Monte Carlo link simulator.
"""

from .channel import OrderStatsTerm, order_terms, ordered_pdf, sample_ordered_gains
from .ggd import GGNoiseModel, lambda0, stream_rng
from .mc import McEstimate, estimate_pep_mc, simulate_ber, wilson_interval
from .noma import (
    BPSK,
    DegenerateEventError,
    ErrorEvent,
    SystemConfig,
    build_error_event,
    enumerate_error_events,
    sic_receive,
    superpose,
)
from .pep import (
    DiversityEstimate,
    NumericFailure,
    PepResult,
    UnionBoundResult,
    canonical_event,
    conditional_pep,
    diversity_order,
    pep_closed_form,
    pep_direct,
    pep_exact,
    union_bound,
)
from .specfun import (
    DomainError,
    QuadratureError,
    QuadratureSpec,
    erfcx,
    integrate_semi_infinite,
    lower_incomplete_gamma_reg,
    upper_incomplete_gamma_reg,
)

__version__ = "0.1.0"

__all__ = [
    "BPSK",
    "DegenerateEventError",
    "DiversityEstimate",
    "DomainError",
    "ErrorEvent",
    "GGNoiseModel",
    "McEstimate",
    "NumericFailure",
    "OrderStatsTerm",
    "PepResult",
    "QuadratureError",
    "QuadratureSpec",
    "SystemConfig",
    "UnionBoundResult",
    "build_error_event",
    "canonical_event",
    "conditional_pep",
    "diversity_order",
    "enumerate_error_events",
    "erfcx",
    "estimate_pep_mc",
    "integrate_semi_infinite",
    "lambda0",
    "lower_incomplete_gamma_reg",
    "order_terms",
    "ordered_pdf",
    "pep_closed_form",
    "pep_direct",
    "pep_exact",
    "sample_ordered_gains",
    "sic_receive",
    "simulate_ber",
    "stream_rng",
    "superpose",
    "union_bound",
    "upper_incomplete_gamma_reg",
    "wilson_interval",
]
