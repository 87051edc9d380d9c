"""The five attribution methods against independent combinatorial oracles."""
import itertools
import re
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blamekit import lp, properties
from blamekit.attribution import (
    METHODS,
    BlameAssignment,
    apply,
    average_participation,
    banzhaf,
    blame,
    game_marginals,
    marginal_contribution,
    mer,
    pivotality,
    shapley,
)
from blamekit.cli import _csv
from blamekit.planning import (CharacteristicGame, cap_rows, coalition_mask,
                               derived, membership, mmdp_from_game)
from blamekit.properties import check_rationality, random_monotone_game
from helpers import (average_participation_loop, banzhaf_loop, masked_pivot,
                     pivotality_loop, rationality_loop, shapley_loop,
                     solve_lexicographic_cold, solve_row_major)


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


@pytest.mark.parametrize("tiebreak", [True, 1.5, "1"])
def test_mer_refuses_a_tiebreak_that_is_not_an_integer(tiebreak):
    """By `coalition_mask`'s rule: a bool is not an integer, so True does
    not quietly mean agent 1, and 1.5 and "1" are refused alike."""
    with pytest.raises(ValueError, match="is not an integer"):
        mer(SYMMETRIC, tiebreak)


def test_mer_takes_a_numpy_integer_tiebreak():
    assert np.array_equal(mer(SYMMETRIC, np.int64(1)).blames,
                          mer(SYMMETRIC, 1).blames)


CHECKERS = ("check_validity", "check_efficiency", "check_rationality",
            "check_avg_efficiency", "check_symmetry", "check_invariance")


def _mer_cold(values, tiebreak):
    """MER's blames from the row-major simplex with cold solves only."""
    n = int(values.size).bit_length() - 1
    program = lp.LinearProgram(np.ones(n), membership(n)[1:].astype(float),
                               values[1:])
    sol = (solve_row_major(program) if tiebreak is None
           else solve_lexicographic_cold(program, np.eye(n)[tiebreak]))
    return BlameAssignment("MER", sol.point).blames


def _slot_corpus():
    """Raw, 0.1-rounded and x1e-6 random monotone games at n = 1-11, and
    one game with a value at -1e-17, whose MER primary runs phase 1."""
    rng = np.random.default_rng(2417)
    games = []
    for n in range(1, 12):
        values = random_monotone_game(n, int(rng.integers(10**6))).values
        games += [values, np.round(values, 1), values * 1e-6]
    dented = random_monotone_game(9, 5).values.copy()
    dented[77] = -1e-17
    return games + [dented]


def test_mer_held_primary_matches_the_cold_row_major_solves_bit_for_bit():
    """One game object's MER calls share its primary solve; every call order
    gives the blames of cold row-major solves: untied then tiebreaks 0 and
    n - 1, tiebreaks first, and two games interleaved so that the held
    slot turns over at every call."""
    corpus = _slot_corpus()
    for values, others in zip(corpus, corpus[1:] + corpus[:1]):
        n = int(values.size).bit_length() - 1
        m = int(others.size).bit_length() - 1
        want = {t: _mer_cold(values, t).tobytes() for t in (None, 0, n - 1)}
        for order in ((None, 0, n - 1), (0, n - 1, None), (n - 1, None, 0)):
            game = CharacteristicGame(n, values)
            for t in order:
                assert mer(game, t).blames.tobytes() == want[t], (n, order, t)
        game, other = CharacteristicGame(n, values), CharacteristicGame(m, others)
        for t, u in ((None, 0), (0, m - 1), (n - 1, None)):
            assert mer(game, t).blames.tobytes() == want[t], (n, t)
            assert (mer(other, u).blames.tobytes()
                    == _mer_cold(others, u).tobytes()), (m, u)


def _outputs(game):
    """The attribution workload's item: every method, pivotality and the six
    checkers on each blame vector, in plain comparable form."""
    n = game.num_agents
    results = [mer(game), mer(game, 0), mer(game, n - 1),
               marginal_contribution(game), shapley(game), banzhaf(game),
               average_participation(game)]
    verdicts = [getattr(properties, name)(game, beta)
                for beta in results for name in CHECKERS]
    return ([r.blames.tobytes() for r in results], pivotality(game), verdicts)


def test_warm_and_cold_slots_give_the_same_outputs_bit_for_bit():
    """Each output with the slot warm (the whole item on one game, in turn
    with a second game) equals the output of a first call on a fresh game."""
    corpus = _slot_corpus()
    for values, others in zip(corpus, corpus[1:] + corpus[:1]):
        n = int(values.size).bit_length() - 1
        game = CharacteristicGame(n, values)
        blames, pivotal, verdicts = _outputs(game)
        _outputs(CharacteristicGame(int(others.size).bit_length() - 1, others))
        assert _outputs(game) == (blames, pivotal, verdicts)

        def cold():
            return CharacteristicGame(n, values)

        fresh = [mer(cold()), mer(cold(), 0), mer(cold(), n - 1),
                 marginal_contribution(cold()), shapley(cold()),
                 banzhaf(cold()), average_participation(cold())]
        assert [r.blames.tobytes() for r in fresh] == blames
        assert pivotality(cold()) == pivotal
        assert [getattr(properties, name)(cold(), beta)
                for beta in fresh for name in CHECKERS] == verdicts


def test_a_returned_blame_vector_is_the_callers_own():
    """Writing into one call's blames leaves the held results alone."""
    game = random_monotone_game(4, 3)
    for call in (lambda: mer(game), lambda: mer(game, 1), lambda: shapley(game),
                 lambda: average_participation(game)):
        want = call().blames.copy()
        call().blames[:] = -7.0
        assert np.array_equal(call().blames, want)
    assert pivotality(game) == pivotality(CharacteristicGame(4, game.values))
    with pytest.raises(ValueError, match="read-only"):
        game_marginals(game)[0, 0] = 1.0


def test_a_switch_of_game_inside_the_slot_turnover_keeps_each_games_mer():
    """Another game's call that runs while the slot turns over (here from a
    finalizer of the outgoing table, as another thread could) does not hand
    its table, and with it its LP, to the game being served."""
    game, other = random_monotone_game(4, 3), random_monotone_game(3, 4)
    want = mer(CharacteristicGame(4, game.values), 0).blames.tobytes()
    held = []

    class Switch:
        def __del__(self):
            mer(other, 0)
            held.append(derived(other)["MER"])

    derived(random_monotone_game(2, 5))["switch"] = Switch()
    assert mer(game, 0).blames.tobytes() == want
    assert mer(game).blames.tobytes() == _mer_cold(game.values, None).tobytes()
    # the other game's held primary keeps its snapshot buffer: a tiebreak on
    # it, as a caller still holding it would make, resumes there
    (program, primary), = held
    assert primary[1].saved is not None
    sol = lp.solve_lexicographic(program, np.eye(3)[2], primary)
    assert (BlameAssignment("MER", sol.point).blames.tobytes()
            == _mer_cold(other.values, 2).tobytes())


def test_a_held_mer_primary_keeps_its_snapshot_after_another_games_mer(monkeypatch):
    """MER on a game, then on another of the same size, leaves the first
    game's held primary its own snapshot: its tiebreaks resume from it, with
    no cold solve, and equal the cold solves bit for bit."""
    first, second = random_monotone_game(9, 1), random_monotone_game(9, 2)
    mer(first)
    program, primary = derived(first)["MER"]
    saved = primary[1].saved
    mer(second)
    assert derived(second)["MER"][1][1].saved is not saved
    cold, solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda *args: cold.append(args) or solve(*args))
    for t in (0, 8):
        sol = lp.solve_lexicographic(program, np.eye(9)[t], primary)
        assert primary[1].saved is saved is not None and not cold
        assert (BlameAssignment("MER", sol.point).blames.tobytes()
                == _mer_cold(first.values, t).tobytes()), t


def test_games_of_one_size_share_one_read_only_cap_row_table():
    """MER's LP keeps the per-n cap rows as they are, no copy per game."""
    first, second = random_monotone_game(5, 1), random_monotone_game(5, 2)
    mer(first)
    rows = derived(first)["MER"][0].constraint_matrix
    mer(second)
    assert derived(second)["MER"][0].constraint_matrix is rows is cap_rows(5)
    assert not rows.flags.writeable and rows.flags.f_contiguous
    assert np.array_equal(rows, membership(5)[1:])


def test_mer_on_degenerate_games():
    zero = game_from_values([0.0, 0.0, 0.0, 0.0])
    assert mer(zero).total == 0.0
    assert mer(LOPSIDED).total == pytest.approx(1.1, abs=1e-9)


def test_every_method_blames_no_one_in_a_zero_agent_game():
    """At n = 0, BI's weight 2^-(n-1) must not shift by -1 nor AP's
    1 / (2^n - 1) divide by 0: every method returns an empty vector."""
    game = random_monotone_game(0, 0)
    for name in METHODS:
        got = apply(name, game)
        assert got.blames.shape == (0,) and got.total == 0.0, name


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


@pytest.mark.parametrize("values, first", [
    ([0.0, np.nan, 1.0, 2.0], "values[1] is nan"),
    ([0.0, np.inf, 1.0, np.inf], "values[1] is inf"),
    ([0.0, 1.0, -np.inf, 2.0], "values[2] is -inf")])
def test_non_finite_games_are_refused(values, first):
    """Construction names the first nan or infinite value, so neither
    `apply` nor `mer` is handed one: on such a game the marginal methods
    returned nan blames and MER died in numpy's bare argmin."""
    message = re.escape(f"invalid game: {first}, not finite")
    with pytest.raises(ValueError, match=message):
        CharacteristicGame(2, values)
    with pytest.raises(ValueError, match=message):
        apply("SV", CharacteristicGame(2, np.array(values)))
    with pytest.raises(ValueError, match=message):
        mer(CharacteristicGame(2, values), 0)


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
