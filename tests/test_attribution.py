"""The five attribution methods against independent combinatorial oracles."""
import itertools
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blamekit import lp
from blamekit.attribution import (
    BlameAssignment,
    apply,
    average_participation,
    banzhaf,
    blame,
    marginal_contribution,
    mer,
    pivotality,
    shapley,
)
from blamekit.cli import _csv
from blamekit.planning import (CharacteristicGame, coalition_mask, membership,
                               mmdp_from_game)
from blamekit.properties import check_rationality, random_monotone_game
from helpers import (average_participation_loop, banzhaf_loop, masked_pivot,
                     pivotality_loop, rationality_loop, shapley_loop)


def game_from_values(values):
    n = int(np.log2(len(values)))
    return CharacteristicGame(n, np.asarray(values, dtype=float))


# Two hand fixtures reused throughout: in the first the agents are perfectly
# interchangeable, in the second only agent 0 ever moves the value.
SYMMETRIC = game_from_values([0.0, 2.0, 2.0, 2.0])
LOPSIDED = game_from_values([0.0, 1.1, 0.0, 1.1])


def shapley_permutation_oracle(game):
    n = game.num_agents
    out = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        mask = 0
        for i in perm:
            out[i] += game.values[mask | 1 << i] - game.values[mask]
            mask |= 1 << i
    return out / factorial(n)


def banzhaf_oracle(game):
    n = game.num_agents
    out = np.zeros(n)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for r in range(n):
            for subset in itertools.combinations(others, r):
                mask = coalition_mask(subset, n)
                out[i] += game.values[mask | 1 << i] - game.values[mask]
    return out / 2 ** (n - 1)


def pivotal_scan_oracle(game, tol=1e-7):
    """An agent is pivotal iff some coalition gains strictly by adding it."""
    n = game.num_agents
    flags = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        found = False
        for r in range(n):
            for subset in itertools.combinations(others, r):
                mask = coalition_mask(subset, n)
                if game.values[mask | 1 << i] - game.values[mask] > tol:
                    found = True
        flags.append(found)
    return tuple(flags)


def participation_oracle(game):
    n = game.num_agents
    pivotal = pivotal_scan_oracle(game)
    w = 1.0 / (2 ** n - 1)
    out = np.zeros(n)
    for i in range(n):
        if not pivotal[i]:
            continue
        others = [j for j in range(n) if j != i]
        for r in range(n):
            for subset in itertools.combinations(others, r):
                mask = coalition_mask(subset, n)
                sharers = 1 + sum(pivotal[j] for j in subset)
                out[i] += w * game.values[mask | 1 << i] / sharers
    return out


def mer_vertex_oracle(game):
    """Optimal total of the rationality LP by basic-point enumeration."""
    n = game.num_agents
    rows = [[float(mask >> i & 1) for i in range(n)]
            for mask in range(1, 1 << n)]
    a = np.vstack([np.array(rows), -np.eye(n)])
    b = np.concatenate([game.values[1:], np.zeros(n)])
    best = 0.0  # beta = 0 is always feasible
    for picks in itertools.combinations(range(len(a)), n):
        sub = a[list(picks)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, b[list(picks)])
        if (a @ x <= b + 1e-9).all():
            best = max(best, float(x.sum()))
    return best


def test_shapley_on_hand_fixtures():
    np.testing.assert_allclose(shapley(SYMMETRIC).blames, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(shapley(LOPSIDED).blames, [1.1, 0.0], atol=1e-12)


def test_shapley_matches_permutation_average():
    for seed in range(20):
        n = 2 + seed % 4
        game = random_monotone_game(n, seed=500 + seed)
        np.testing.assert_allclose(shapley(game).blames,
                                   shapley_permutation_oracle(game), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_shapley_distributes_the_total(n, seed):
    game = random_monotone_game(n, seed=seed)
    assert shapley(game).total == pytest.approx(game.total, abs=1e-9)


def test_banzhaf_matches_combination_sum():
    for seed in range(15):
        n = 2 + seed % 4
        game = random_monotone_game(n, seed=600 + seed)
        np.testing.assert_allclose(banzhaf(game).blames,
                                   banzhaf_oracle(game), atol=1e-9)


def test_banzhaf_on_hand_fixtures():
    np.testing.assert_allclose(banzhaf(SYMMETRIC).blames, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(banzhaf(LOPSIDED).blames, [1.1, 0.0], atol=1e-12)


def test_marginal_contribution_reads_singletons():
    game = game_from_values([0.0, 0.25, 0.5, 0.6, 0.1, 0.9, 0.9, 1.0])
    np.testing.assert_allclose(marginal_contribution(game).blames,
                               [0.25, 0.5, 0.1], atol=0)
    assert marginal_contribution(game).method == "MC"


def test_mer_total_matches_vertex_enumeration():
    for seed in range(12):
        n = 2 + seed % 3  # up to n=4 keeps the oracle cheap
        game = random_monotone_game(n, seed=700 + seed)
        got = mer(game)
        assert got.total == pytest.approx(mer_vertex_oracle(game), abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_mer_respects_every_coalition_cap(n, seed):
    game = random_monotone_game(n, seed=seed)
    beta = mer(game).blames
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        assert beta[members].sum() <= game.values[mask] + 1e-8


def test_mer_solves_twelve_agents_within_every_cap():
    game = random_monotone_game(12, 0)
    beta = mer(game).blames
    assert beta.shape == (12,) and beta.sum() > 0.0
    caps = membership(12)[1:].astype(float) @ beta
    assert (caps <= game.values[1:] + 1e-8).all()


def test_mer_totals_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for n in range(1, 11):
        for seed in range(2):
            game = random_monotone_game(n, seed=1100 + 10 * n + seed)
            rows = membership(n)[1:].astype(float)
            res = linprog(-np.ones(n), A_ub=rows, b_ub=game.values[1:],
                          bounds=(0, None), method="highs")
            assert res.status == 0
            assert mer(game).total == pytest.approx(-res.fun, rel=1e-9, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([1e-6, 1.0, 1e3]), st.floats(0.0, 2.0))
def test_array_methods_equal_per_mask_loops(n, seed, scale, stretch):
    """The array kernel adds the same terms in the same order as the plain
    loops, so every number is equal, not just close."""
    game = CharacteristicGame(n, scale * random_monotone_game(n, seed).values)
    sv = shapley(game).blames
    assert np.array_equal(sv, np.maximum(shapley_loop(game), 0.0))
    assert np.array_equal(banzhaf(game).blames,
                          np.maximum(banzhaf_loop(game), 0.0))
    assert pivotality(game).flags == pivotality_loop(game)
    assert np.array_equal(average_participation(game).blames,
                          average_participation_loop(game))
    # stretched SV over-blames some coalitions, so the witness is exercised
    for beta in (sv, stretch * sv, sv[::-1]):
        verdict = check_rationality(game, beta)
        gap, mask = rationality_loop(game, beta)
        assert verdict.holds == (gap <= 1e-12)
        if not verdict.holds:
            members = " ".join(str(i + 1) for i in range(n) if mask >> i & 1)
            assert verdict.witness == (f"coalition {{{members}}} blamed "
                                       f"{gap:.6g} beyond its inefficiency")


@pytest.mark.parametrize("n", range(1, 11))
def test_mer_is_bit_identical_under_the_masked_pivot(n, monkeypatch):
    """The unmasked pivot may turn a -0.0 into +0.0 and nothing else, and
    BlameAssignment's clamp at 0 normalizes that sign: every blame vector,
    with and without a tiebreak, is the same bytes."""
    games = [random_monotone_game(n, seed) for seed in range(3)]

    def blames():
        return [mer(game, tiebreak).blames.tobytes() for game in games
                for tiebreak in (None, 0, n - 1)]

    got = blames()
    monkeypatch.setattr(lp, "_pivot", masked_pivot)
    assert got == blames()


def test_mer_tiebreak_selects_extreme_optima():
    # Both optima of the symmetric fixture hand everything to one agent.
    favored_0 = mer(SYMMETRIC, tiebreak=0)
    np.testing.assert_allclose(favored_0.blames, [2.0, 0.0], atol=1e-7)
    favored_1 = mer(SYMMETRIC, tiebreak=1)
    np.testing.assert_allclose(favored_1.blames, [0.0, 2.0], atol=1e-7)
    assert favored_0.total == pytest.approx(favored_1.total, abs=1e-8)
    with pytest.raises(ValueError, match="out of range"):
        mer(SYMMETRIC, tiebreak=2)


def test_mer_on_degenerate_games():
    zero = game_from_values([0.0, 0.0, 0.0, 0.0])
    assert mer(zero).total == 0.0
    assert mer(LOPSIDED).total == pytest.approx(1.1, abs=1e-9)


def test_pivotality_matches_marginal_scan():
    for seed in range(15):
        n = 2 + seed % 4
        game = random_monotone_game(n, seed=800 + seed)
        assert pivotality(game).flags == pivotal_scan_oracle(game)
    assert pivotality(LOPSIDED).flags == (True, False)


def test_average_participation_matches_oracle():
    for seed in range(15):
        n = 2 + seed % 4
        game = random_monotone_game(n, seed=900 + seed)
        np.testing.assert_allclose(average_participation(game).blames,
                                   participation_oracle(game), atol=1e-9)


def test_average_participation_skips_non_pivotal_agents():
    got = average_participation(LOPSIDED)
    # Agent 0 is the only pivotal agent, so it takes v({0}) and v({0,1})
    # whole, averaged over the three nonempty coalitions.
    np.testing.assert_allclose(got.blames, [2.2 / 3.0, 0.0], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_average_participation_total_identity(n, seed):
    """The per-coalition shares always reassemble into sum(v) / (2^n - 1)."""
    game = random_monotone_game(n, seed=seed)
    expected = game.values.sum() / (2 ** n - 1)
    assert average_participation(game).total == pytest.approx(expected, abs=1e-9)


def test_blame_assignment_clamps_and_rejects():
    tiny = BlameAssignment("SV", np.array([1.0, -1e-12]))
    assert tiny.blames[1] == 0.0
    assert tiny.total == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(ValueError, match="negative blame"):
        BlameAssignment("SV", np.array([1.0, -0.5]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
def test_apply_equals_the_direct_call(n, seed):
    """The dispatcher hands a tiebreak to MER alone and changes no bit."""
    game = random_monotone_game(n, seed)
    for tiebreak in (None, seed % n):
        for name, fn in [("SV", shapley), ("BI", banzhaf),
                         ("MC", marginal_contribution),
                         ("AP", average_participation)]:
            got = apply(name, game, tiebreak)
            assert got.method == name
            assert got.blames.tobytes() == fn(game).blames.tobytes()
        got = apply("MER", game, tiebreak)
        assert got.method == "MER"
        assert got.blames.tobytes() == mer(game, tiebreak).blames.tobytes()


def test_apply_refuses_unknown_methods():
    with pytest.raises(ValueError, match="unknown method 'EQ'; choose from"):
        apply("EQ", SYMMETRIC)
    with pytest.raises(ValueError, match="unknown method 'sv'"):
        apply("sv", SYMMETRIC, 0)


@pytest.mark.parametrize("fn, name", [(shapley, "SV"), (banzhaf, "BI")])
def test_marginal_methods_refuse_a_non_monotone_game(fn, name):
    # agent 0 joining {1} drops the value from 1 to 0, so its blame is -1/2
    game = game_from_values([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match=f"{name}: negative blame -0.5"):
        fn(game)


def test_csv_row_format():
    res = BlameAssignment("BI", np.array([0.5, 1.25]))
    assert _csv(res.method, *res.blames, res.total) == "BI,0.5,1.25,1.75"


def test_blame_wrapper_composes_game_and_method():
    game = game_from_values([0.0, 0.4, 0.7, 1.0])
    model, behavior = mmdp_from_game(game)
    for name, fn in [("SV", shapley), ("BI", banzhaf),
                     ("MC", marginal_contribution), ("AP", average_participation)]:
        got = blame(model, behavior, name)
        np.testing.assert_allclose(got.blames, fn(game).blames, atol=1e-9)
        assert got.method == name
    got = blame(model, behavior, "MER", tiebreak=1)
    np.testing.assert_allclose(got.blames, mer(game, tiebreak=1).blames, atol=1e-7)
    with pytest.raises(ValueError, match="unknown method"):
        blame(model, behavior, "EQ")
