"""Exact machinery for simple and weighted voting games.

Models coalitions and game compositions in exact rational arithmetic,
verifies non-separability certificates, decides weighted separability on
small games, and searches hypergraph covers to establish dimension lower
bounds, including a full replay of the bound for the 2014 council rule.
"""

from .certificates import (
    BalanceCertificate,
    CertificateError,
    CertifiedFamily,
    build_anchor_certificate,
    build_pair_certificate,
    build_triple_certificate,
    lower_bound_dimension,
    nonseparable_family,
    verify_balance,
)
from .cover import (
    CoverSolution,
    DualWeightCertificate,
    Hypergraph,
    Refutation,
    enumerate_maximal_independent,
    is_independent,
    min_cover,
    no_k_cover,
    verify_dual_certificate,
)
from .eu import EuGame, MemberTable, build_eu_game, load_members, reference_coalitions
from .games import (
    Coalition,
    ExplicitGame,
    IntersectionGame,
    SimpleGame,
    UnionGame,
    WeightedGame,
    check_monotone,
    minimal_winning,
)
from .separation import (
    NotSeparable,
    Separable,
    SeparationInstance,
    is_nonseparable_exhaustive,
    lp_feasible,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceCertificate",
    "CertificateError",
    "CertifiedFamily",
    "Coalition",
    "CoverSolution",
    "DualWeightCertificate",
    "EuGame",
    "ExplicitGame",
    "Hypergraph",
    "IntersectionGame",
    "MemberTable",
    "NotSeparable",
    "Refutation",
    "Separable",
    "SeparationInstance",
    "SimpleGame",
    "UnionGame",
    "WeightedGame",
    "build_anchor_certificate",
    "build_eu_game",
    "build_pair_certificate",
    "build_triple_certificate",
    "check_monotone",
    "enumerate_maximal_independent",
    "is_independent",
    "is_nonseparable_exhaustive",
    "load_members",
    "lower_bound_dimension",
    "lp_feasible",
    "min_cover",
    "minimal_winning",
    "no_k_cover",
    "nonseparable_family",
    "reference_coalitions",
    "verify_balance",
    "verify_dual_certificate",
]
