"""Blame attribution methods over a coalition inefficiency game.

All five methods consume a CharacteristicGame rather than a model and
behavior pair, so the planning cost is paid once and test generators can
inject synthetic games directly. `apply` runs a method by name, and `blame`
is the convenience wrapper that composes the game first.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .lp import PIVOT_TOL, LinearProgram, Resume, solve, solve_lexicographic
from .mmdp import _non_finite
from .planning import (CharacteristicGame, characteristic_game,
                       coalition_mask, coalition_sizes, coalition_sums,
                       marginal_masks, membership, memo)

PIVOTAL_TOL = 1e-9
_CLAMP_TOL = 1e-9
_HELD: dict[CharacteristicGame, dict] = {}  # per game, its results by name


@dataclass(frozen=True)
class BlameAssignment:
    method: str
    blames: np.ndarray

    def __post_init__(self):
        blames = as_blames(self.blames)
        if (blames < -_CLAMP_TOL).any():
            raise ValueError(f"{self.method}: negative blame {blames.min():.3g}")
        object.__setattr__(self, "blames", np.maximum(blames, 0.0))

    @property
    def total(self) -> float:
        return float(self.blames.sum())


@dataclass(frozen=True)
class Pivotality:
    flags: tuple[bool, ...]


def sequential_sums(terms: np.ndarray) -> np.ndarray:
    """Last-axis sums added left to right from 0.0, as a Python loop adds
    them. cumsum is sequential; sum and @ reorder the additions and change
    last bits. Adding 0.0 turns an all-(-0.0) row into 0.0, as the loop does."""
    return np.cumsum(terms, axis=-1)[..., -1:].reshape(terms.shape[:-1]) + 0.0


def marginals(values_with: np.ndarray, values_without: np.ndarray,
              n: int) -> np.ndarray:
    """(n, 2^(n-1)) table: row i holds values_with[S + i] - values_without[S]
    for the coalitions S without agent i, mask ascending."""
    without, with_ = marginal_masks(n)
    return values_with[with_] - values_without[without]


def weighted_marginals(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per agent i, the sum over row i of a `marginals` table, coalitions S
    without i (mask ascending), of weights[|S|] times its entry."""
    n = weights.size
    sizes = coalition_sizes(n)[marginal_masks(n)[0]]
    return sequential_sums(weights[sizes] * table)


def shapley_weights(n: int) -> np.ndarray:
    """Weight of a marginal to a coalition of each size 0..n-1."""
    return np.array([factorial(s) * factorial(n - s - 1) / factorial(n)
                     for s in range(n)])


def banzhaf_weights(n: int) -> np.ndarray:
    return np.full(n, 2.0 ** (1 - n))  # exact: a power of two


def _held(game: CharacteristicGame, key: str, compute):
    """compute() once per game in the `memo` _HELD, under `key`; read-only if an array."""
    if key not in (table := memo(_HELD, game, dict)):
        table[key] = compute()
        if isinstance(table[key], np.ndarray):
            table[key].setflags(write=False)
    return table[key]


def game_marginals(game: CharacteristicGame) -> np.ndarray:
    """marginals(values, values, n), once per game: SV, BI and R_I read it."""
    return _held(game, "marginals", lambda: marginals(game.values, game.values, game.num_agents))


def shapley(game: CharacteristicGame) -> BlameAssignment:
    """Shapley value of the inefficiency game, once per game."""
    return BlameAssignment("SV", _held(game, "SV", lambda: weighted_marginals(
        game_marginals(game), shapley_weights(game.num_agents))))


def banzhaf(game: CharacteristicGame) -> BlameAssignment:
    """Banzhaf index: uniform weight 1/2^(n-1) on every marginal."""
    return BlameAssignment("BI", weighted_marginals(
        game_marginals(game), banzhaf_weights(game.num_agents)))


def marginal_contribution(game: CharacteristicGame) -> BlameAssignment:
    return BlameAssignment("MC", game.values[1 << np.arange(game.num_agents)])


def mer(game: CharacteristicGame, tiebreak: int | None = None) -> BlameAssignment:
    """Maximum distributable blame under per-coalition rationality caps.

    Solves: maximize sum(beta) subject to sum_{i in S} beta_i <= value(S)
    for every nonempty coalition S, beta >= 0. The total is the same at
    every optimum; per-agent splits are not. `tiebreak` secondarily
    maximizes that agent's blame over the optimal face, which fixes that
    blame only: the others are the vertex Bland's rule reaches. It resumes
    the game's one primary, which keeps its own snapshot.
    The held LP has the live cap rows only. Where no value is negative, row
    S + i (S nonempty) goes when v(S + i) - v(S) > v({i}) + margin: rows S
    and {i} keep its slack at least margin. Dictionary entries are ratios
    of 0/1 determinants, at most 3645 in size up to 12 agents, so its ratio
    stays above the least by more than PIVOT_TOL and every pivot is the
    full LP's, bit for bit.
    Raises RuntimeError naming the LP that is not optimal: at values of 1e8
    and above the tiebreak's absolute face slack of 1e-9 can fail it."""
    n = game.num_agents
    def primary():
        values = game.values
        margin = 1e4 * PIVOT_TOL * max(1.0, values.max())
        implied = marginals(values, values, n) > values[1 << np.arange(n), None] + margin
        splits = np.bincount(marginal_masks(n)[1].ravel(), implied.ravel(), 1 << n)
        live = (splits == 0) | (values < 0).any()
        lp = LinearProgram(np.ones(n), membership(n)[live][1:], values[live][1:])
        return lp, (solve(lp, resume := Resume()), resume)
    lp, primary = _held(game, "MER", primary)
    sol = primary[0]
    if tiebreak is not None:
        coalition_mask((tiebreak,), n)  # refuses a non-integer or stray agent
        direction = np.zeros(n)
        direction[tiebreak] = 1.0
        sol = solve_lexicographic(lp, direction, primary)
    if sol.status != "optimal":
        name = "rationality LP" if sol is primary[0] else f"tiebreak LP for agent {tiebreak + 1}"
        raise RuntimeError(f"{name} came back {sol.status}")
    return BlameAssignment("MER", sol.point)


def pivotality(game: CharacteristicGame) -> Pivotality:
    """An agent is pivotal when it has any strictly positive marginal,
    detected as a Shapley value above tolerance; once per game."""
    return _held(game, "pivotality", lambda: Pivotality(
        tuple((shapley(game).blames > PIVOTAL_TOL).tolist())))


def participation(values: np.ndarray, sharers: np.ndarray,
                  pivotal: np.ndarray) -> np.ndarray:
    """Per pivotal agent i, the sum over coalitions S without i of
    values[S + i] / sharers[S], divided by 2^n - 1; 0 for other agents."""
    n = pivotal.size
    without, with_ = marginal_masks(n)
    w = 1.0 / max((1 << n) - 1, 1)  # a 0-agent game has no terms to weigh
    terms = w * values[with_] / sharers[without]
    return np.where(pivotal, sequential_sums(terms), 0.0)


def average_participation(game: CharacteristicGame) -> BlameAssignment:
    """Splits each coalition's inefficiency equally among its pivotal
    members, averaged over all coalitions."""
    pivotal = np.array(pivotality(game).flags, dtype=bool)
    sharers = coalition_sums(pivotal.astype(np.int64)) + 1
    return BlameAssignment("AP", participation(game.values, sharers, pivotal))


METHODS = {
    "MER": mer,
    "MC": marginal_contribution,
    "SV": shapley,
    "BI": banzhaf,
    "AP": average_participation,
}


def apply(method: str, game: CharacteristicGame,
          tiebreak: int | None = None) -> BlameAssignment:
    """Apply one attribution method by name; only MER reads `tiebreak`."""
    try:
        fn = METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; "
                         f"choose from {sorted(METHODS)}") from None
    return fn(game, tiebreak) if method == "MER" else fn(game)


def blame(m, behavior, method: str, tiebreak: int | None = None) -> BlameAssignment:
    """Compose the inefficiency game and apply one attribution method."""
    return apply(method, characteristic_game(m, behavior), tiebreak)


def as_blames(beta, n: int | None = None) -> np.ndarray:
    """The blame vector of a BlameAssignment, or an array-like as floats,
    refused if not finite, or not a vector of n blames when n is given."""
    blames = (beta.blames if isinstance(beta, BlameAssignment)  # checked where built
              else np.asarray(beta, dtype=float))
    if not isinstance(beta, BlameAssignment) and (problems := _non_finite(blames=blames)):
        raise ValueError(problems[0])
    if n is not None and blames.shape != (n,):
        raise ValueError(f"blame vector has shape {blames.shape}, expected ({n},)")
    return blames
