"""Exact decomposition of finite normal-form games.

Splits any finite game into nonstrategic, gamma-potential, and
(mu, gamma)-harmonic components under exact rational arithmetic, applies the
strategic transformations that commute with the decomposition, and verifies
the associated equilibrium statements.
"""

from .errors import (
    GameDecompError,
    ParseError,
    PreconditionError,
    SolveError,
    ValidationError,
)
from .spaces import StrategySpace
from .games import (
    CoMeasureVector,
    Game,
    MeasureVector,
    MixedProfile,
    ScalarField,
)
from .decomposition import (
    Decomposition,
    decompose,
    extract_potential,
    is_gamma_potential,
    is_harmonic,
    is_mu_normalized,
    is_nonstrategic,
)
from .transforms import (
    DuplicationSpec,
    PermutationSpec,
    RedundancySpec,
    co_measure_inverse,
    co_measure_quotient,
    extend_duplicate,
    permute,
    permute_params,
    reduce_duplicate,
    reduce_redundant,
    scale,
    translate_nonstrategic,
)
from .equilibrium import (
    best_response_epsilon,
    expected_payoff,
    harmonic_equilibrium,
    map_equilibrium_under_scaling,
    pure_equilibrium_from_potential,
)
from .gamedoc import GameDocument, parse_game, serialize_game

__version__ = "0.1.0"

__all__ = [
    "CoMeasureVector",
    "Decomposition",
    "DuplicationSpec",
    "Game",
    "GameDecompError",
    "GameDocument",
    "MeasureVector",
    "MixedProfile",
    "ParseError",
    "PermutationSpec",
    "PreconditionError",
    "RedundancySpec",
    "ScalarField",
    "SolveError",
    "StrategySpace",
    "ValidationError",
    "best_response_epsilon",
    "co_measure_inverse",
    "co_measure_quotient",
    "decompose",
    "expected_payoff",
    "extend_duplicate",
    "extract_potential",
    "harmonic_equilibrium",
    "is_gamma_potential",
    "is_harmonic",
    "is_mu_normalized",
    "is_nonstrategic",
    "map_equilibrium_under_scaling",
    "parse_game",
    "permute",
    "permute_params",
    "pure_equilibrium_from_potential",
    "reduce_duplicate",
    "reduce_redundant",
    "scale",
    "serialize_game",
    "translate_nonstrategic",
]
