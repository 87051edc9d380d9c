"""The axiom checkers: verdicts, premises, witnesses, and slack handling."""
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blamekit import attribution, properties
from blamekit.attribution import apply, mer, pivotality, shapley
from blamekit.cli import _csv
from blamekit.planning import (CharacteristicGame, characteristic_game,
                               coalition_sizes, membership)
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
from helpers import (assert_same_model, check_contribution_monotonicity_loop,
                     check_cpart_loop, check_invariance_loop,
                     check_rationality_where, check_rcpart_loop,
                     check_symmetry_pairwise, check_symmetry_screened,
                     impossibility_fixture_loop, random_monotone_game_loop)


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


@pytest.mark.parametrize("checker", [check_performance_monotonicity, check_cperf],
                         ids=lambda checker: checker.__name__)
@pytest.mark.parametrize("agent, message", [
    (-1, "agent index -1 out of range"), (2, "agent index 2 out of range"),
    (True, "agent index True is not an integer"),
    (0.0, "agent index 0.0 is not an integer")])
def test_deviation_checks_refuse_a_stray_agent(checker, agent, message):
    """The deviating agent passes `coalition_mask`'s rule before any policy
    is replaced: -1 would check the last agent under the witness "agent 0",
    and 2 on the two-agent fixture would be a bare IndexError."""
    model, behavior, pi_1, pi_1_prime = impossibility_fixture()
    with pytest.raises(ValueError, match=re.escape(message)):
        checker(model, behavior, agent, pi_1, pi_1_prime, "SV")
    assert (checker(model, behavior, np.int64(0), pi_1, pi_1_prime, "SV")
            == checker(model, behavior, 0, pi_1, pi_1_prime, "SV"))


def test_fixture_matches_the_loop_reference():
    model, behavior, _, _ = impossibility_fixture()
    assert_same_model(model, behavior, *impossibility_fixture_loop())


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP 5: the checkers' SLACK is an absolute 1e-12")
def test_guaranteed_efficiency_cells_hold_at_a_power_of_two_scale():
    """Scaling a game by 2^k is exact, so no verdict may move with k; at
    2^12, SV's R_E reads false on 12 of these 20 games and AP's R_AE on 5."""
    failing = []
    for k in (0, 12, 20):
        for n in range(4, 9):
            for seed in range(4):
                game = random_monotone_game(n, seed)
                game = CharacteristicGame(n, game.values * 2.0 ** k)
                for method, check in (("SV", check_efficiency),
                                      ("AP", check_avg_efficiency)):
                    verdict = check(game, apply(method, game))
                    if not verdict.holds:
                        failing.append((k, n, seed, verdict.property))
    assert failing == []


def test_every_agent_checker_holds_on_a_zero_agent_game():
    """No agents, no blame: R_AE's mean over no nonempty coalition is 0,
    not a division by zero, and every other property holds vacuously."""
    game = random_monotone_game(0, 0)
    for method in EXPECTED_HOLD:
        beta = apply(method, game)
        for prop, checker in CHECKERS.items():
            assert checker(game, beta).holds, (method, prop)


def _epsilon_calls():
    """Each of the eleven checkers as a call of epsilon alone: the agent
    checkers on random_monotone_game(4, 3) with beta (5, 0, 0, 0), the pair
    checkers against random_monotone_game(4, 7) with beta reversed, and
    PerM and cPerM on the impossibility fixture's deviations under SV."""
    game, other = random_monotone_game(4, 3), random_monotone_game(4, 7)
    beta = np.array([5.0, 0.0, 0.0, 0.0])
    model, behavior, pi_1, pi_1_prime = impossibility_fixture()
    deviation = (model, behavior, 0, pi_1, pi_1_prime, "SV")
    calls = {prop: lambda eps, c=checker: c(game, beta, eps)
             for prop, checker in CHECKERS.items()}
    for prop, checker in (("R_CM", check_contribution_monotonicity),
                          ("R_cParM", check_cpart), ("R_RcParM", check_rcpart)):
        calls[prop] = lambda eps, c=checker: c(game, beta, other, beta[::-1], eps)
    calls["R_PerM"] = lambda eps: check_performance_monotonicity(*deviation, eps)
    calls["R_cPerM"] = lambda eps: check_cperf(*deviation, eps)
    return calls


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -1.0, True, np.True_, "0.1", None, [0.1]],
                         ids=["nan", "inf", "negative", "bool", "numpy-bool", "str", "none",
                              "list"])
@pytest.mark.parametrize("prop", ["R_V", "R_E", "R_R", "R_AE", "R_S", "R_I", "R_CM",
                                  "R_cParM", "R_RcParM", "R_PerM", "R_cPerM"])
def test_checkers_refuse_a_malformed_epsilon(prop, epsilon):
    """A NaN slack failed some checkers and passed others, an infinite one
    passed all eleven, a negative one mixed them again, and a bool was a
    slack of 1.0; every verdict now refuses an epsilon that is not a finite
    number >= 0. A str, None or a list raised TypeError from the first sum
    that read it."""
    call = _epsilon_calls()[prop]
    assert call(0.0).property == prop
    message = f"^{re.escape(f'epsilon {epsilon!r} is not a finite number >= 0')}$"
    with pytest.raises(ValueError, match=message):
        call(epsilon)
    with pytest.raises(ValueError, match=message):
        PropertyVerdict(prop, epsilon)


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
        for seed in range(12 if n <= 10 else 8):
            assert (random_monotone_game(n, seed).values.tobytes()
                    == random_monotone_game_loop(n, seed).tobytes())


class _FixedStream:
    """Stands in for `np.random.default_rng(seed)`: serves one fixed draw
    stream in order, to a batched `random(size)` and to single draws alike."""

    def __init__(self, draws):
        self.draws, self.used = draws, 0

    def random(self, size=None):
        taken = self.draws[self.used:self.used + (1 if size is None else size)]
        assert taken.size == (1 if size is None else size), "stream exhausted"
        self.used += taken.size
        return float(taken[0]) if size is None else taken.copy()

    def uniform(self, low, high):
        return low + (high - low) * self.random()


# Which draws of a stream are >= 0.3, by position k
_STREAM_KINDS = {
    "all below": lambda k: k < 0, "all at or above": lambda k: k >= 0,
    "alternating": lambda k: k % 2 == 0, "alternating from below": lambda k: k % 2 == 1,
    # every coalition opens >= 0.3, so the last takes the last two draws;
    # a third of the increments are >= 0.3 too
    "two draws each": lambda k: (k % 2 == 0) | (k % 6 == 1),
    # runs of r draws >= 0.3, each followed by one below
    **{f"runs of {r}": lambda k, r=r: k % (r + 1) != 0 for r in range(1, 7)}}


def _crafted_stream(kind, length):
    """`length` draws on the pattern `kind`; the values differ draw to draw,
    and every seventh sits on its side's edge (0.3 above, 0.0 below), so a
    draw read out of place shows."""
    u = np.random.default_rng(length).random(length)
    u[::7] = 0.0
    return np.where(_STREAM_KINDS[kind](np.arange(length)), 0.3 + 0.7 * u, 0.3 * u)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("kind", _STREAM_KINDS)
def test_random_monotone_game_parses_a_crafted_stream_as_the_loop_does(kind, n, monkeypatch):
    """The vectorized parse of the draw stream against the loop's one draw
    at a time, byte for byte, on streams that a seed rarely draws."""
    draws = _crafted_stream(kind, 2 * ((1 << n) - 1))
    loop_streams = []

    def fixed(seed):
        loop_streams.append(_FixedStream(draws))
        return loop_streams[-1]
    monkeypatch.setattr(np.random, "default_rng", fixed)
    values = random_monotone_game(n, 0).values
    assert values.tobytes() == random_monotone_game_loop(n, 0).tobytes()
    used = loop_streams[-1].used
    if kind in ("all at or above", "two draws each"):
        assert used == draws.size  # the last coalition took the last two draws
    elif kind == "all below":
        assert used == draws.size // 2 and (values == 0.0).all()


@pytest.mark.parametrize("n", [13, 64])
def test_random_monotone_game_refuses_more_agents_than_the_cap(n, monkeypatch):
    """Refused before any draw: at n = 30 the draws alone would be
    2 (2^30 - 1) floats, 16 GiB."""
    def refuse(seed):
        raise AssertionError("a generator was built")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=f"limited to 12 agents, not {n}$"):
        random_monotone_game(n, 0)


@pytest.mark.parametrize("wrong, message", [
    (np.ones(1), r"blame vector has shape \(1,\), expected \(4,\)"),
    (np.ones(3), r"blame vector has shape \(3,\), expected \(4,\)"),
    (np.ones(5), r"blame vector has shape \(5,\), expected \(4,\)"),
    ([1.0, np.nan, 0.0, 0.0], r"^blames\[1\] is nan, not finite$"),
    ([0.0, 0.0, 0.0, np.inf], r"^blames\[3\] is inf, not finite$")],
    ids=["1", "3", "5", "nan", "inf"])
@pytest.mark.parametrize("checker", [*CHECKERS.values(), check_contribution_monotonicity,
                                     check_cpart, check_rcpart],
                         ids=lambda checker: checker.__name__)
def test_checkers_refuse_a_blame_vector_of_the_wrong_length(checker, wrong, message):
    """Every checker refuses, by name and before any verdict, a vector that
    would otherwise broadcast, index out of range or be graded on its
    total alone, and one with a NaN or infinite entry, which failed R_V,
    R_E, R_R and R_AE but held the five others. (PerM and cPerM take no
    blame vector: theirs are BlameAssignments, which refuse one too.)"""
    game = random_monotone_game(4, 0)
    right = shapley(game)
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


def _test_game(n, seed, kind):
    values = random_monotone_game(n, seed).values
    if kind == "mirrored":
        values = _mirrored(values, n)
    elif kind == "by size":
        # every pair interchangeable: the value grows with the size alone
        steps = np.concatenate([[0.0], np.cumsum(values[1 << np.arange(n)])])
        values = steps[coalition_sizes(n)]
    return CharacteristicGame(n, values)


_GAME_KINDS = st.sampled_from(["random", "mirrored", "by size"])


def _draw_blames(data, n):
    """Ties, signed zeros and gaps on both sides of every epsilon drawn."""
    return np.array(data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5 + 1e-13, 1.0, 2.5]),
        min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 31 - 1), kind=_GAME_KINDS,
       epsilon=st.sampled_from([0.0, 1e-12, 0.3]), data=st.data())
def test_array_checkers_equal_their_loop_forms(n, seed, kind, epsilon, data):
    """check_rationality's kernel totals and check_symmetry's screened pairs
    give the verdicts and witnesses of the where + cumsum totals and the
    plain pairwise loop, on games with many interchangeable pairs and
    blames with ties, signed zeros and gaps on both sides of epsilon."""
    game = _test_game(n, seed, kind)
    beta = _draw_blames(data, n)
    assert check_rationality(game, beta, epsilon) == check_rationality_where(
        game, beta, epsilon)
    assert check_symmetry(game, beta, epsilon) == check_symmetry_pairwise(
        game, beta, epsilon)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 31 - 1), kind=_GAME_KINDS,
       other=st.sampled_from(["uplifted", "unrelated"]),
       lift=st.sampled_from([0.0, 1e-10, 0.25]), swap=st.booleans(),
       epsilon=st.sampled_from([0.0, 1e-12, 0.3]), data=st.data())
def test_agent_and_pair_checkers_equal_their_loop_forms(n, seed, kind, other, lift,
                                                        swap, epsilon, data):
    """The five checkers that flag violators in arrays name the violator
    that the one-agent and one-pair (row order) scans they replaced name
    first, on single games and on game pairs: one game with an agent's
    coalitions lifted (which makes the pair premises hold) or two unrelated
    games, either way round."""
    game = _test_game(n, seed, kind)
    beta1, beta2 = _draw_blames(data, n), _draw_blames(data, n)
    assert check_symmetry(game, beta1, epsilon) == check_symmetry_screened(
        game, beta1, epsilon)
    assert check_invariance(game, beta1, epsilon) == check_invariance_loop(
        game, beta1, epsilon)
    if other == "uplifted":
        agent = data.draw(st.integers(0, n - 1))
        second = CharacteristicGame(
            n, game.values + np.where(membership(n)[:, agent], lift, 0.0))
    else:
        second = _test_game(n, seed + 1, kind)
    first, second = (second, game) if swap else (game, second)
    for checker, loop in [
            (check_contribution_monotonicity, check_contribution_monotonicity_loop),
            (check_cpart, check_cpart_loop), (check_rcpart, check_rcpart_loop)]:
        assert checker(first, beta1, second, beta2, epsilon) == loop(
            first, beta1, second, beta2, epsilon)


def test_an_attribution_items_premises_are_built_once():
    """The six single-assignment checkers, run on each of an attribution
    item's six blame vectors (MER untied and tied, MC, SV, BI, AP), gather
    R_S's pair tables once per game; the held premises refuse a write."""
    game = _test_game(10, 5, "mirrored")
    betas = [mer(game), mer(game, 0), *(apply(name, game) for name in ("MC", "SV", "BI", "AP"))]
    with mock.patch.object(properties, "_pair_tables", wraps=properties._pair_tables) as tables:
        verdicts = [{prop: checker(game, beta) for prop, checker in CHECKERS.items()}
                    for beta in betas]
    assert tables.call_count == 1
    assert [row["R_S"] for row in verdicts] == [check_symmetry_pairwise(game, beta)
                                                for beta in betas]
    assert [row["R_I"] for row in verdicts] == [check_invariance_loop(game, beta)
                                                for beta in betas]
    held = attribution._HELD[game]
    assert held["R_S"].shape == (10, 10) and held["R_I"].shape == (10,)
    assert held["R_S"][np.arange(5), 9 - np.arange(5)].all()  # the mirrored pairs
    for key in ("R_S", "R_I"):
        with pytest.raises(ValueError, match="read-only"):
            held[key][0] = True
    assert held["R_AE"] == float(game.values.sum()) / 1023
    # at the agent cap, a game of every pair interchangeable: 66 pairs x 1,024
    largest = _test_game(12, 0, "by size")
    beta = np.arange(12.0)
    assert check_symmetry(largest, beta) == check_symmetry_screened(largest, beta)
    assert (attribution._HELD[largest]["R_S"] == np.triu(np.ones((12, 12), bool), 1)).all()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 31 - 1), kind=_GAME_KINDS,
       data=st.data())
def test_premises_held_across_calls_leave_each_call_its_own_verdict(n, seed, kind, data):
    """Several blame vectors checked in turn against one game, each at every
    epsilon, get the verdicts and witnesses of the loop forms and of a fresh
    copy of the game, which builds its premises for that call alone, while
    the game's premises are gathered once."""
    game = _test_game(n, seed, kind)
    calls = [(_draw_blames(data, n), epsilon) for _ in range(data.draw(st.integers(2, 4)))
             for epsilon in (0.0, 1e-12, 0.3)]
    checkers = (check_symmetry, check_invariance, check_avg_efficiency)
    cold = [[checker(CharacteristicGame(n, game.values), beta, epsilon) for checker in checkers]
            for beta, epsilon in calls]
    with mock.patch.object(properties, "_pair_tables", wraps=properties._pair_tables) as tables:
        for (beta, epsilon), want in zip(calls, cold):
            assert [checker(game, beta, epsilon) for checker in checkers] == want
            assert want[0] == check_symmetry_pairwise(game, beta, epsilon) \
                == check_symmetry_screened(game, beta, epsilon)
            assert want[1] == check_invariance_loop(game, beta, epsilon)
    assert tables.call_count == 1


PAIR_CHECKERS = {"R_CM": check_contribution_monotonicity, "R_cParM": check_cpart,
                 "R_RcParM": check_rcpart}


@pytest.mark.parametrize("prop", ["R_V", "R_E", "R_R", "R_AE", "R_S", "R_I", "R_CM",
                                  "R_cParM", "R_RcParM", "R_PerM", "R_cPerM"])
def test_a_refused_epsilon_or_blame_vector_leaves_nothing_held(monkeypatch, prop):
    """Every checker refuses a malformed slack, and each that takes a blame
    vector a malformed one, before it reads or builds any per-game result."""
    monkeypatch.setattr(attribution, "_HELD", {})
    with pytest.raises(ValueError, match="not a finite number >= 0"):
        _epsilon_calls()[prop](np.nan)
    assert attribution._HELD == {}
    if prop in ("R_PerM", "R_cPerM"):
        return  # their blame vectors are BlameAssignments, checked where built
    game, other, right = random_monotone_game(4, 3), random_monotone_game(4, 7), np.ones(4)
    for wrong in (np.ones(3), [0.0, np.nan, 0.0, 0.0]):
        args = ([(game, wrong)] if prop in CHECKERS else
                [(game, wrong, other, right), (game, right, other, wrong)])
        for call in args:
            with pytest.raises(ValueError, match="blame vector has shape|not finite"):
                {**CHECKERS, **PAIR_CHECKERS}[prop](*call)
    assert attribution._HELD == {}
