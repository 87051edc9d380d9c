"""The axiom checkers: verdicts, premises, witnesses, and slack handling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blamekit.attribution import apply, mer, pivotality, shapley
from blamekit.cli import _csv
from blamekit.planning import (CharacteristicGame, characteristic_game,
                               coalition_sizes)
from blamekit.properties import (
    PropertyVerdict,
    check_avg_efficiency,
    check_contribution_monotonicity,
    check_cpart,
    check_cperf,
    check_efficiency,
    check_invariance,
    check_performance_monotonicity,
    check_rationality,
    check_rcpart,
    check_symmetry,
    check_validity,
    impossibility_fixture,
    random_monotone_game,
)
from helpers import (check_rationality_where, check_symmetry_pairwise,
                     random_monotone_game_loop)


def game_of(values):
    return CharacteristicGame(int(np.log2(len(values))), np.asarray(values, float))


SYMMETRIC = game_of([0.0, 2.0, 2.0, 2.0])
LOPSIDED = game_of([0.0, 1.1, 0.0, 1.1])


def test_verdict_consistency_is_enforced():
    """A verdict holds exactly when it has no witness."""
    ok = PropertyVerdict("R_V", 0.0)
    assert ok.holds and ok.witness is None
    assert _csv(ok.property, ok.epsilon, ok.holds, ok.witness or "") \
        == "R_V,0,true,"
    bad = PropertyVerdict("R_E", 0.5, witness="total 3 differs from 2")
    assert not bad.holds
    assert _csv(bad.property, bad.epsilon, bad.holds, bad.witness or "") \
        == "R_E,0.5,false,total 3 differs from 2"
    # a positional third argument would be read as a witness
    with pytest.raises(TypeError):
        PropertyVerdict("R_V", 0.0, True)
    with pytest.raises(AttributeError):
        ok.holds = False


def test_validity_checker():
    assert check_validity(SYMMETRIC, np.array([1.0, 1.0])).holds
    v = check_validity(SYMMETRIC, np.array([1.5, 1.0]))
    assert not v.holds and "exceeds" in v.witness
    # epsilon absorbs the overshoot
    assert check_validity(SYMMETRIC, np.array([1.5, 1.0]), epsilon=0.5).holds


def test_efficiency_checker():
    assert check_efficiency(SYMMETRIC, np.array([0.5, 1.5])).holds
    v = check_efficiency(SYMMETRIC, np.array([0.5, 1.0]))
    assert not v.holds and "differs" in v.witness
    assert check_efficiency(SYMMETRIC, np.array([0.5, 1.0]), epsilon=0.5).holds


def test_rationality_checker_names_worst_coalition():
    game = game_of([0.0, 1.0, 1.0, 1.5])
    assert check_rationality(game, np.array([0.75, 0.75])).holds
    v = check_rationality(game, np.array([1.0, 1.0]))
    assert not v.holds
    assert "{1 2}" in v.witness
    v = check_rationality(game, np.array([1.2, 0.1]))
    assert "{1}" in v.witness
    assert check_rationality(game, np.array([1.0, 1.0]), epsilon=0.5).holds


def test_avg_efficiency_checker():
    # mean marginal inefficiency of the symmetric fixture is 6/3 = 2
    assert check_avg_efficiency(SYMMETRIC, np.array([1.0, 1.0])).holds
    assert not check_avg_efficiency(SYMMETRIC, np.array([1.0, 0.5])).holds
    assert check_avg_efficiency(LOPSIDED, np.array([2.2 / 3.0, 0.0])).holds


def test_symmetry_checker_applies_only_to_interchangeable_pairs():
    v = check_symmetry(SYMMETRIC, np.array([0.6, 1.4]))
    assert not v.holds and "agents 1 and 2" in v.witness
    assert check_symmetry(SYMMETRIC, np.array([1.0, 1.0])).holds
    # no symmetric pair, so any split is fine
    assert check_symmetry(LOPSIDED, np.array([0.0, 1.1])).holds
    assert check_symmetry(SYMMETRIC, np.array([0.6, 1.4]), epsilon=1.0).holds


def test_invariance_checker_targets_null_agents():
    null_second = game_of([0.0, 1.0, 0.0, 1.0])
    v = check_invariance(null_second, np.array([0.5, 0.5]))
    assert not v.holds and "agent 2" in v.witness
    assert check_invariance(null_second, np.array([1.0, 0.0])).holds
    no_nulls = game_of([0.0, 1.0, 1.0, 2.0])
    assert check_invariance(no_nulls, np.array([2.0, 0.0])).holds


def uplift_agent(game, agent, delta):
    """Add delta to every coalition containing `agent`."""
    values = game.values.copy()
    for mask in range(len(values)):
        if mask >> agent & 1:
            values[mask] += delta
    return CharacteristicGame(game.num_agents, values)


def test_contribution_monotonicity_checker():
    base = game_of([0.0, 0.4, 0.7, 1.2])
    lifted = uplift_agent(base, 0, 0.3)
    sv_base, sv_lifted = shapley(base), shapley(lifted)
    assert check_contribution_monotonicity(lifted, sv_lifted, base, sv_base).holds
    # hand the dominating instance less blame and the check must object
    v = check_contribution_monotonicity(lifted, sv_base, base, sv_lifted)
    assert not v.holds and "dominates marginally" in v.witness
    assert check_contribution_monotonicity(
        lifted, sv_base, base, sv_lifted, epsilon=1.0).holds
    with pytest.raises(ValueError, match="agent set"):
        check_contribution_monotonicity(base, sv_base,
                                        game_of([0.0, 1.0]), np.array([1.0]))


def test_performance_monotonicity_on_the_two_deviation_fixture():
    """The fixture that separates the marginal methods from the value-shaped
    ones: the better-performing deviation leaves agent 1 with a larger
    Shapley share, so SV fails while MC does not."""
    model, behavior, pi_1, pi_1_prime = impossibility_fixture()

    sv = check_performance_monotonicity(model, behavior, 0, pi_1, pi_1_prime, "SV")
    assert not sv.holds
    assert "performs worse" in sv.witness
    assert "1 < 1.1" in sv.witness

    mc = check_performance_monotonicity(model, behavior, 0, pi_1, pi_1_prime, "MC")
    assert mc.holds
    mer_v = check_performance_monotonicity(model, behavior, 0, pi_1, pi_1_prime,
                                           "MER", tiebreak=0)
    assert mer_v.holds
    # generous slack absorbs the 0.1 gap
    assert check_performance_monotonicity(model, behavior, 0, pi_1, pi_1_prime,
                                          "SV", epsilon=0.2).holds


def test_performance_monotonicity_is_vacuous_when_first_policy_wins():
    model, behavior, pi_1, pi_1_prime = impossibility_fixture()
    # swap the order: now the first deviation performs strictly better
    v = check_performance_monotonicity(model, behavior, 0, pi_1_prime, pi_1, "SV")
    assert v.holds


def test_fixture_games_are_the_documented_ones():
    model, behavior, pi_1, pi_1_prime = impossibility_fixture()
    g1 = characteristic_game(model, behavior.replace(0, pi_1))
    g2 = characteristic_game(model, behavior.replace(0, pi_1_prime))
    np.testing.assert_allclose(g1.values, SYMMETRIC.values, atol=1e-9)
    np.testing.assert_allclose(g2.values, LOPSIDED.values, atol=1e-9)


def test_cperf_vacuous_across_pivotality_change():
    """The same SV counterexample is excused once pivotality must match:
    agent 2 is pivotal under one deviation and null under the other."""
    model, behavior, pi_1, pi_1_prime = impossibility_fixture()
    assert pivotality(SYMMETRIC).flags != pivotality(LOPSIDED).flags
    v = check_cperf(model, behavior, 0, pi_1, pi_1_prime, "SV")
    assert v.holds


def test_cpart_checker():
    base = game_of([0.0, 0.5, 0.7, 1.0])
    lifted = CharacteristicGame(2, base.values + np.array([0.0, 0.2, 0.2, 0.2]))
    assert pivotality(base).flags == pivotality(lifted).flags == (True, True)
    sv_base, sv_lifted = shapley(base).blames, shapley(lifted).blames
    assert check_cpart(lifted, sv_lifted, base, sv_base).holds
    v = check_cpart(lifted, sv_base - np.array([0.2, 0.0]), base, sv_base)
    assert not v.holds and "dominating coalitions" in v.witness
    # pivotality mismatch makes any assignment pass
    assert check_cpart(SYMMETRIC, np.array([0.0, 5.0]),
                       LOPSIDED, np.array([9.0, 9.0])).holds


def test_rcpart_checker():
    base = game_of([0.0, 0.5, 0.7, 1.0])
    lifted = CharacteristicGame(2, base.values + np.array([0.0, 0.2, 0.2, 0.2]))
    sv_base, sv_lifted = shapley(base).blames, shapley(lifted).blames
    assert check_rcpart(lifted, sv_lifted, base, sv_base).holds
    # equal value increments but unequal blame increments between the agents
    v = check_rcpart(lifted, sv_base + np.array([0.2, 0.1]), base, sv_base)
    assert not v.holds and "gains inefficiency faster" in v.witness
    assert check_rcpart(lifted, sv_base + np.array([0.2, 0.1]), base, sv_base,
                        epsilon=0.2).holds
    assert check_rcpart(SYMMETRIC, np.array([0.0, 5.0]),
                        LOPSIDED, np.array([9.0, 9.0])).holds


EXPECTED_HOLD = {
    "MER": ("R_V", "R_R", "R_I"),
    "MC": ("R_S", "R_I"),
    "SV": ("R_V", "R_E", "R_S", "R_I"),
    "BI": ("R_S", "R_I"),
    "AP": ("R_V", "R_AE", "R_S", "R_I"),
}

CHECKERS = {
    "R_V": check_validity,
    "R_E": check_efficiency,
    "R_R": check_rationality,
    "R_AE": check_avg_efficiency,
    "R_S": check_symmetry,
    "R_I": check_invariance,
}


def test_methods_satisfy_their_guaranteed_properties():
    """A quick sweep; the full randomized matrix lives in the acceptance
    suite. Kept here so a regression points at the right module."""
    for seed in range(25):
        n = 2 + seed % 4
        game = random_monotone_game(n, seed=1000 + seed)
        for method, props in EXPECTED_HOLD.items():
            beta = apply(method, game, 0)
            for prop in props:
                verdict = CHECKERS[prop](game, beta)
                assert verdict.holds, (
                    f"{method} broke {prop} on seed {seed}: {verdict.witness}")


def test_known_failures_of_the_unguaranteed_cells():
    # MC over-blames when singleton inefficiencies overlap
    mc_beta = np.array([2.0, 2.0])
    assert not check_validity(SYMMETRIC, mc_beta).holds
    assert not check_efficiency(SYMMETRIC, mc_beta).holds
    # MER ignores symmetry under a deterministic tiebreak
    assert not check_symmetry(SYMMETRIC, mer(SYMMETRIC, tiebreak=0)).holds
    # SV violates rationality when the grand coalition dwarfs a singleton
    skewed = game_of([0.0, 0.0, 0.0, 3.0])
    assert not check_rationality(skewed, shapley(skewed)).holds


def test_random_monotone_game_shape_and_determinism():
    for seed in (0, 7, 123):
        game = random_monotone_game(4, seed=seed)
        again = random_monotone_game(4, seed=seed)
        np.testing.assert_array_equal(game.values, again.values)
        assert game.validate() == []
        assert game.values[0] == 0.0
    different = random_monotone_game(4, seed=1)
    assert not np.array_equal(different.values, random_monotone_game(4, 2).values)
    # zero increments appear often enough to exercise equality premises
    zeros = sum((random_monotone_game(3, seed=s).values == 0.0).sum()
                for s in range(20))
    assert zeros > 20


def test_random_monotone_game_matches_the_lattice_loop():
    """Byte for byte, so the draws are used in the loop's order."""
    for n in range(13):
        for seed in range(12 if n <= 10 else 2):
            assert (random_monotone_game(n, seed).values.tobytes()
                    == random_monotone_game_loop(n, seed).tobytes())


@pytest.mark.parametrize("length", [1, 3, 5])
@pytest.mark.parametrize("checker", [*CHECKERS.values(), check_contribution_monotonicity,
                                     check_cpart, check_rcpart],
                         ids=lambda checker: checker.__name__)
def test_checkers_refuse_a_blame_vector_of_the_wrong_length(checker, length):
    """Every checker refuses, by name and before any verdict, a vector that
    would otherwise broadcast, index out of range or be graded on its
    total alone."""
    game = random_monotone_game(4, 0)
    wrong, right = np.ones(length), shapley(game)
    message = rf"blame vector has shape \({length},\), expected \(4,\)"
    if checker in CHECKERS.values():
        calls = [(game, wrong)]
    else:
        calls = [(game, wrong, game, right), (game, right, game, wrong)]
    for args in calls:
        with pytest.raises(ValueError, match=message):
            checker(*args)


def _mirrored(values, n):
    """values made symmetric in each pair of agents (k, n - 1 - k): their
    maximum with the table whose agents trade places, pair by pair. The
    pairs nest, so the first witness depends on the order pairs are tried;
    monotone stays monotone."""
    masks = np.arange(1 << n)
    for k in range(n // 2):
        i, j = k, n - 1 - k
        swap = (masks & ~(1 << i | 1 << j)
                | (masks >> i & 1) << j | (masks >> j & 1) << i)
        values = np.maximum(values, values[swap])
    return values


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 31 - 1),
       kind=st.sampled_from(["random", "mirrored", "by size"]),
       epsilon=st.sampled_from([0.0, 1e-12, 0.3]), data=st.data())
def test_array_checkers_equal_their_loop_forms(n, seed, kind, epsilon, data):
    """check_rationality's kernel totals and check_symmetry's screened pairs
    give the verdicts and witnesses of the where + cumsum totals and the
    plain pairwise loop, on games with many interchangeable pairs and
    blames with ties, signed zeros and gaps on both sides of epsilon."""
    values = random_monotone_game(n, seed).values
    if kind == "mirrored":
        values = _mirrored(values, n)
    elif kind == "by size":
        # every pair interchangeable: the value grows with the size alone
        steps = np.concatenate([[0.0], np.cumsum(values[1 << np.arange(n)])])
        values = steps[coalition_sizes(n)]
    game = CharacteristicGame(n, values)
    beta = np.array(data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5 + 1e-13, 1.0, 2.5]),
        min_size=n, max_size=n)))
    assert check_rationality(game, beta, epsilon) == check_rationality_where(
        game, beta, epsilon)
    assert check_symmetry(game, beta, epsilon) == check_symmetry_pairwise(
        game, beta, epsilon)
