"""Simplex solver checked against brute-force vertex enumeration."""
from contextlib import contextmanager
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blamekit import lp as lp_module
from blamekit.lp import LinearProgram, LpSolution, solve, solve_lexicographic
from blamekit.planning import membership
from blamekit.properties import random_monotone_game
from helpers import (finish_dropping_artificials, masked_pivot, primary_of,
                     solve_lexicographic_cold, solve_row_major)


def vertex_enumeration_optimum(c, a, b):
    """Max of c @ x over {A x <= b, x >= 0} by enumerating basic points.

    Every vertex of the polytope solves n active constraints drawn from the
    rows of A and the nonnegativity bounds. Assumes the feasible set is
    bounded and nonempty, which the random generator below arranges.
    """
    n = len(c)
    rows = np.vstack([a, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best = None
    for picks in itertools.combinations(range(len(rows)), n):
        sub = rows[list(picks)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, rhs[list(picks)])
        if (a @ x <= b + 1e-9).all() and (x >= -1e-9).all():
            value = float(c @ x)
            if best is None or value > best:
                best = value
    return best


def random_bounded_lp(rng, num_vars, num_rows):
    """Random LP with a bounding box so the optimum always exists."""
    a = rng.uniform(-1.0, 1.0, size=(num_rows, num_vars))
    b = rng.uniform(0.5, 2.0, size=num_rows)  # keeps the origin feasible
    a = np.vstack([a, np.eye(num_vars)])
    b = np.concatenate([b, np.full(num_vars, 5.0)])
    c = rng.uniform(-1.0, 1.0, size=num_vars)
    return LinearProgram(c, a, b)


def random_integer_lp(rng):
    """Small integer program, often infeasible, unbounded or degenerate."""
    num_vars = int(rng.integers(1, 6))
    num_rows = int(rng.integers(1, 8))
    a = rng.integers(-3, 4, size=(num_rows, num_vars)).astype(float)
    b = rng.integers(-3, 6, size=num_rows).astype(float)
    c = rng.integers(-2, 3, size=num_vars).astype(float)
    return LinearProgram(c, a, b)


def near_tie_box_lp(rng, noisy):
    """An adversary-style program over a distribution q in a box around p:
    `sum q = 1` as twin opposing rows, payoffs rounded to 0.1 (plus 1e-9
    noise when `noisy`) so optima tie or nearly tie."""
    d = int(rng.choice([2, 4, 8]))
    payoff = np.round(rng.uniform(-1.0, 1.0, d), 1)
    if noisy:
        payoff += rng.normal(0.0, 1e-9, d)
    p = rng.dirichlet(np.ones(d))
    a = np.vstack([np.ones(d), -np.ones(d), np.eye(d), -np.eye(d)])
    b = np.concatenate([[1.0, -1.0], np.minimum(p + 0.1, 1.0),
                        -np.maximum(p - 0.1, 0.0)])
    return LinearProgram(-payoff, a, b)


def mer_program(values):
    """MER's rationality LP over a game's values: max sum(beta) subject to
    each nonempty coalition's blame at most its value."""
    n = int(values.size).bit_length() - 1
    return LinearProgram(np.ones(n), membership(n)[1:].astype(float), values[1:])


def same_bits(got, want):
    """Equal status, point bytes and objective bits."""
    if got.status != want.status or (got.point is None) != (want.point is None):
        return False
    return got.point is None or (
        got.point.tobytes() == want.point.tobytes()
        and (np.float64(got.objective_value).tobytes()
             == np.float64(want.objective_value).tobytes()))


@pytest.fixture
def cold_solves(monkeypatch):
    """The programs handed to the module-global `solve` without a note,
    which `solve_lexicographic` makes only for the LPs it solves cold."""
    programs = []

    def recording(lp, note=None):
        if note is None:
            programs.append(lp)
        return solve(lp, note)

    monkeypatch.setattr(lp_module, "solve", recording)
    return programs


def test_matches_vertex_enumeration_on_random_problems():
    rng = np.random.default_rng(42)
    for trial in range(40):
        num_vars = int(rng.integers(2, 6))
        num_rows = int(rng.integers(1, 7))
        lp = random_bounded_lp(rng, num_vars, num_rows)
        got = solve(lp)
        assert got.status == "optimal"
        expected = vertex_enumeration_optimum(
            lp.objective, lp.constraint_matrix, lp.constraint_bounds)
        assert got.objective_value == pytest.approx(expected, abs=1e-7)
        # The returned point must itself be feasible and attain the value.
        x = got.point
        assert (x >= -1e-9).all()
        assert (lp.constraint_matrix @ x <= lp.constraint_bounds + 1e-9).all()
        assert float(lp.objective @ x) == pytest.approx(got.objective_value, abs=1e-9)


def test_simple_known_optimum():
    # max x + 2y  s.t.  x + y <= 4, y <= 3
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]], [4.0, 3.0])
    got = solve(lp)
    assert got.status == "optimal"
    assert got.objective_value == pytest.approx(7.0, abs=1e-9)
    np.testing.assert_allclose(got.point, [1.0, 3.0], atol=1e-9)


def test_detects_infeasible():
    # x <= -1 with x >= 0 has no feasible point.
    lp = LinearProgram([1.0], [[1.0]], [-1.0])
    got = solve(lp)
    assert got.status == "infeasible"
    assert got.point is None and got.objective_value is None


def test_detects_unbounded():
    # max x with only -x <= 0, i.e. x >= 0 again.
    lp = LinearProgram([1.0], [[-1.0]], [0.0])
    assert solve(lp).status == "unbounded"


def test_negative_bounds_need_phase_one():
    # -x - y <= -1 forces x + y >= 1; max -x - y should give exactly -1.
    lp = LinearProgram([-1.0, -1.0], [[-1.0, -1.0]], [-1.0])
    got = solve(lp)
    assert got.status == "optimal"
    assert got.objective_value == pytest.approx(-1.0, abs=1e-9)


def test_equality_via_opposing_rows():
    # x + y == 1 (two rows), max 3x + y -> x = 1.
    a = [[1.0, 1.0], [-1.0, -1.0]]
    lp = LinearProgram([3.0, 1.0], a, [1.0, -1.0])
    got = solve(lp)
    assert got.status == "optimal"
    assert got.objective_value == pytest.approx(3.0, abs=1e-8)
    np.testing.assert_allclose(got.point, [1.0, 0.0], atol=1e-8)


def test_beale_cycling_example_terminates():
    """The classic degenerate problem that cycles under naive pivoting.

    Bland's rule must terminate here with optimum 0.05 (stated as a max).
    """
    c = np.array([0.75, -150.0, 0.02, -6.0])
    a = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    got = solve(LinearProgram(c, a, b))
    assert got.status == "optimal"
    assert got.objective_value == pytest.approx(0.05, abs=1e-9)


def test_degenerate_vertex_does_not_stall():
    # Three constraints meet at (1, 1); the vertex is degenerate in 2-D.
    a = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    lp = LinearProgram([1.0, 1.0], a, [1.0, 1.0, 2.0])
    got = solve(lp)
    assert got.status == "optimal"
    assert got.objective_value == pytest.approx(2.0, abs=1e-9)


def test_lexicographic_tiebreak_selects_among_optima():
    """max x + y on x + y <= 1 with x <= 0.6 has a whole optimal edge."""
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.6])

    toward_y = solve_lexicographic(lp, np.array([0.0, 1.0]), primary_of(lp))
    assert toward_y.status == "optimal"
    assert toward_y.objective_value == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(toward_y.point, [0.0, 1.0], atol=1e-7)

    toward_x = solve_lexicographic(lp, np.array([1.0, 0.0]), primary_of(lp))
    np.testing.assert_allclose(toward_x.point, [0.6, 0.4], atol=1e-7)
    assert toward_x.objective_value == pytest.approx(1.0, abs=1e-8)


def test_the_tiebreak_states_its_optimal_face_as_one_row(monkeypatch,
                                                         cold_solves):
    """The tiebreak LP adds objective >= opt - 1e-9 alone, so it pairs no
    row with its exact negation: objective <= opt + 1e-9 binds no feasible
    point, and with it the two would be an equality's twin opposing rows.
    The primary runs on the LP's own rows. The face row is inserted at the
    resume as one dictionary row, the objective row negated, with its slack
    nonbasic and its artificial basic; a cold tiebreak solve starts from the
    LP's rows and that one row."""
    matrices, faces = [], []
    dictionary = lp_module._dictionary
    face_dictionary = lp_module.Resume.face_dictionary

    def recording_dictionary(a, b):
        matrices.append(a)
        return dictionary(a, b)

    def recording_face_dictionary(resume, rhs):
        got = face_dictionary(resume, rhs)
        faces.append(tuple(x.copy() for x in got))
        return got

    monkeypatch.setattr(lp_module, "_dictionary", recording_dictionary)
    monkeypatch.setattr(lp_module.Resume, "face_dictionary",
                        recording_face_dictionary)
    rng = np.random.default_rng(4409)
    paths = set()
    for _ in range(40):
        lp = random_bounded_lp(rng, int(rng.integers(2, 6)), int(rng.integers(1, 7)))
        matrices.clear()
        faces.clear()
        cold_solves.clear()
        assert solve_lexicographic(lp, rng.uniform(-1.0, 1.0, lp.objective.size),
                                   primary_of(lp)).status == "optimal"
        # the primary on the LP's rows, then a resumed or a cold tiebreak
        assert len(faces) + len(cold_solves) == 1
        assert len(matrices) == 1 + len(cold_solves)
        paths.add(len(cold_solves))
        assert np.array_equal(matrices[0], lp.constraint_matrix)
        for a in matrices[1:]:
            assert len(a) == len(lp.constraint_matrix) + 1
            assert np.array_equal(a[-1], -lp.objective)
            twins = (a[:, None] == -a).all(axis=2)
            np.fill_diagonal(twins, False)
            assert not twins.any()
        for tableau, basis, nonbasic in faces:
            num_vars, num_rows = lp.objective.size, lp.constraint_bounds.size
            assert tableau.shape == (num_vars + 2, num_rows + 2)
            assert basis[-1] == num_vars + num_rows + 1  # the artificial
            assert nonbasic[-1] == num_vars + num_rows  # the face row's slack
            assert (tableau[:-2, -2].tobytes()
                    == (0.0 - tableau[:-2, -1]).tobytes())
            assert tableau[-2, :-2].tobytes() == np.zeros(num_rows).tobytes()
            assert tableau[-2, -2:].tolist() == [-1.0, 1.0]
    assert paths == {0, 1}


def test_solves_match_the_row_major_cold_oracle_bit_for_bit(cold_solves):
    """The column-major dictionary and the resumed tiebreak give the bits of
    the row-major simplex with its cold second solve, on MER's LPs (random
    games, games rounded to 0.1, games rescaled by 10^k) and on small
    bounded, integer and near-tie programs. Most MER tiebreaks resume: they
    call the module-global `solve` not at all."""
    rng = np.random.default_rng(2113)
    mer_tiebreaks = resumed = 0
    statuses = set()
    for n in range(1, 12):
        for seed in rng.integers(0, 10**6, 3):
            values = random_monotone_game(n, int(seed)).values
            for game in (values, np.round(values, 1),
                         values * 10.0 ** int(rng.integers(-6, 7))):
                lp = mer_program(game)
                assert same_bits(solve(lp), solve_row_major(lp))
                for agent in sorted({0, n - 1}):
                    direction = np.eye(n)[agent]
                    cold_solves.clear()
                    assert same_bits(solve_lexicographic(lp, direction, primary_of(lp)),
                                     solve_lexicographic_cold(lp, direction))
                    if n >= 2:
                        mer_tiebreaks += 1
                        resumed += not cold_solves
    assert resumed >= 0.9 * mer_tiebreaks
    programs = ([random_bounded_lp(rng, int(rng.integers(2, 6)),
                                   int(rng.integers(1, 7))) for _ in range(150)]
                + [random_integer_lp(rng) for _ in range(150)]
                + [near_tie_box_lp(rng, k % 2) for k in range(150)])
    for lp in programs:
        got = solve(lp)
        statuses.add(got.status)
        assert same_bits(got, solve_row_major(lp))
        for direction in (np.ones(lp.objective.size),
                          rng.uniform(-1.0, 1.0, lp.objective.size)):
            assert same_bits(solve_lexicographic(lp, direction, primary_of(lp)),
                             solve_lexicographic_cold(lp, direction))
    assert statuses == {"optimal", "infeasible", "unbounded"}


def widened(rng, lp):
    """The program with redundant rows added at random places, up to
    `LIVE_MIN` rows, so that its stored columns are long: each has
    coefficients in {-2, -1, 0} and a bound of 0 or 1, so x >= 0 meets it."""
    extra = lp_module.LIVE_MIN - lp.constraint_bounds.size
    a = np.vstack([lp.constraint_matrix,
                   rng.integers(-2, 1, (extra, lp.objective.size))])
    b = np.concatenate([lp.constraint_bounds, rng.choice([0.0, 1.0], extra)])
    order = rng.permutation(b.size)
    return LinearProgram(lp.objective, a[order], b[order])


def test_wide_dictionaries_match_the_row_major_cold_oracle_bit_for_bit(
        monkeypatch):
    """Long columns update only the live columns and the right-hand side.
    That gives the bits of the full update on generic programs widened past
    the threshold (negative bounds, so phase 1 and drive-outs; objectives
    with zero entries) and on MER's LPs at n = 8-11 with one coalition
    value at -1e-17, which runs phase 1 untied. A drive-out on a zero
    right-hand side makes a -0.0 there that only the update turns back."""
    zero_drive_outs = []
    pivot = lp_module._pivot

    def recording_pivot(tableau, basis, nonbasic, row, pos, col):
        if tableau.shape[1] >= lp_module.LIVE_MIN and col[row] < 0:
            zero_drive_outs.append(tableau[-1, row] == 0)
        pivot(tableau, basis, nonbasic, row, pos, col)

    monkeypatch.setattr(lp_module, "_pivot", recording_pivot)
    rng = np.random.default_rng(2203)

    def zeroed(lp):
        c = np.where(rng.random(lp.objective.size) < 0.5, 0.0, lp.objective)
        return LinearProgram(c, lp.constraint_matrix, lp.constraint_bounds)

    programs = ([random_integer_lp(rng) for _ in range(1200)]
                + [random_bounded_lp(rng, int(rng.integers(2, 6)),
                                     int(rng.integers(1, 7))) for _ in range(100)])
    programs = [widened(rng, zeroed(lp) if k % 4 == 0 else lp)
                for k, lp in enumerate(programs)]
    for n in range(8, 12):
        for seed in rng.integers(0, 10**6, 3):
            values = random_monotone_game(n, int(seed)).values.copy()
            values[rng.integers(1, values.size)] = -1e-17
            programs.append(mer_program(values))
    statuses = set()
    for lp in programs:
        got = solve(lp)
        statuses.add(got.status)
        assert same_bits(got, solve_row_major(lp))
        for direction in (np.ones(lp.objective.size),
                          np.eye(lp.objective.size)[-1]):
            assert same_bits(solve_lexicographic(lp, direction, primary_of(lp)),
                             solve_lexicographic_cold(lp, direction))
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert sum(zero_drive_outs) >= 10


@pytest.mark.parametrize("tiebreak, message", [
    ([1.0], r"tiebreak has shape \(1,\), expected \(2,\)"),
    ([1.0, np.nan], r"tiebreak\[1\] is nan, not finite"),
], ids=["wrong-length", "nan"])
def test_the_tiebreak_is_validated_alone(tiebreak, message):
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError, match=message):
        solve_lexicographic(lp, tiebreak, primary_of(lp))


@pytest.mark.parametrize("lp, solves", [
    # a negative bound: the primary runs phase 1, which notes no pivots to
    # resume from, so the tiebreak is cold
    (LinearProgram([1.0, 1.0], [[1.0, 1.0], [-1.0, 0.0], [0.0, 1.0]],
                   [2.0, -0.5, 1.0]), 1),
    # the face row blocks alone at step 6, before the last pivot with a
    # least ratio > 0 (a rounding remnant): only the tiebreak is cold
    (mer_program(np.round(random_monotone_game(8, 3).values, 1)), 1),
], ids=["negative-bound", "early-block"])
def test_the_tiebreak_falls_back_to_cold_solves(lp, solves, cold_solves):
    direction = np.eye(lp.objective.size)[0]
    got = solve_lexicographic(lp, direction, primary_of(lp))
    assert len(cold_solves) == solves
    assert got.objective_value > 1e-9  # the face row's bound is negative
    assert same_bits(got, solve_lexicographic_cold(lp, direction))


def test_lexicographic_passes_through_nonoptimal_status():
    lp = LinearProgram([1.0], [[-1.0]], [0.0])
    assert solve_lexicographic(lp, np.array([1.0]), primary_of(lp)).status == "unbounded"


def test_lp_shape_validation():
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [[1.0]], [1.0])
    sol = LpSolution("optimal", np.zeros(1), 0.0)
    assert sol.status == "optimal"


@pytest.mark.parametrize("c, a, b, message", [
    ([np.nan, 1.0], [[1.0, 1.0]], [1.0], r"objective\[0\] is nan"),
    ([1.0, 1.0], [[1.0, 1.0], [np.nan, 1.0]], [1.0, 1.0],
     r"constraint_matrix\[1, 0\] is nan"),
    ([1.0], [[1.0], [1.0]], [1.0, -np.inf], r"constraint_bounds\[1\] is -inf"),
    ([1.0], [[1.0]], [np.nan], r"constraint_bounds\[0\] is nan"),
    ([1.0], [[1.0]], [np.inf], r"constraint_bounds\[0\] is inf"),
    ([1.0, 1.0], np.asfortranarray([[1.0, np.nan], [np.inf, 1.0]]), [1.0, 1.0],
     r"constraint_matrix\[0, 1\] is nan"),
], ids=["nan-objective", "nan-matrix", "minus-inf-bound", "nan-bound",
        "inf-bound", "column-major-matrix"])
def test_non_finite_entries_are_refused(c, a, b, message):
    """Without the check the simplex answers wrongly without a word (an
    `optimal` nan, `unbounded`, `infeasible`) or crashes on an empty ratio
    test; the error names the first bad entry."""
    with pytest.raises(ValueError, match=message + ", not finite"):
        LinearProgram(c, a, b)


def test_finite_entries_whose_sum_overflows_are_accepted():
    lp = LinearProgram([1e308, 1e308], [[1.0, 1.0]], [1.0])
    assert solve(lp).status == "optimal"


def test_agrees_with_highs_on_random_programs():
    """Status and optimum against scipy's HiGHS on small integer programs,
    which are often infeasible, unbounded or degenerate."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    statuses = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    rng = np.random.default_rng(2107)
    seen = set()
    for trial in range(400):
        lp = random_integer_lp(rng)
        a, b, c = lp.constraint_matrix, lp.constraint_bounds, lp.objective
        got = solve(lp)
        res = linprog(-c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        assert got.status == statuses[res.status], trial
        seen.add(got.status)
        if got.status == "optimal":
            assert got.objective_value == pytest.approx(-res.fun, abs=1e-9)
            assert (a @ got.point <= b + 1e-9).all()
            assert (got.point >= -1e-9).all()
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_unmasked_pivot_matches_the_masked_one(monkeypatch):
    """These programs' columns are all short, so each pivot takes the one
    broadcast update, in which a dictionary row with a zero in the entering
    column subtracts 0 * p. That keeps every value of a pivot that leaves
    such rows alone: statuses and objectives agree bit for bit, and points
    by value (a -0.0 may come back +0.0). Long columns skip dead columns
    instead, bit for bit (the wide-dictionary test above)."""
    rng = np.random.default_rng(3101)
    programs = ([random_bounded_lp(rng, int(rng.integers(2, 6)),
                                   int(rng.integers(1, 7))) for _ in range(150)]
                + [random_integer_lp(rng) for _ in range(150)]
                + [near_tie_box_lp(rng, k % 2) for k in range(150)])

    def solve_both(lp):
        return (solve(lp), solve_lexicographic(lp, np.ones(lp.objective.size),
                                               primary_of(lp)))

    got = [solve_both(lp) for lp in programs]
    monkeypatch.setattr(lp_module, "_pivot", masked_pivot)
    want = [solve_both(lp) for lp in programs]
    statuses = set()
    for pair_got, pair_want in zip(got, want):
        for x, y in zip(pair_got, pair_want):
            assert x.status == y.status
            statuses.add(x.status)
            if x.status == "optimal":
                assert (np.float64(x.objective_value).tobytes()
                        == np.float64(y.objective_value).tobytes())
                assert np.array_equal(x.point, y.point)
    assert statuses == {"optimal", "infeasible", "unbounded"}


@pytest.mark.parametrize("n", [9, 10, 11])
def test_a_resumed_tiebreak_copies_the_held_dictionary_once(cold_solves, n):
    """A resumed MER tiebreak copies the held primary's dictionary once, into
    the face dictionary, and runs both phases on that array: its tracemalloc
    peak stays under 1.5 face dictionaries (a second copy for phase 2 took
    it past 2)."""
    lp = mer_program(random_monotone_game(n, 0).values)
    primary = primary_of(lp)
    tracemalloc.start()
    try:
        solve_lexicographic(lp, np.eye(n)[n - 1], primary)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not cold_solves
    assert peak < 1.5 * (n + 2) * ((1 << n) + 1) * 8


@contextmanager
def phase_log():
    """Logs each `_finish` call as it starts: its artificials' count and
    first number and, per `_run_simplex` call, the artificials nonbasic at
    its start and every variable that entered. The dropping oracle runs
    `_run_simplex` unpatched and logs nothing."""
    log, call, entered = [], None, None  # entered: None outside a run
    finish, run, pivot = lp_module._finish, lp_module._run_simplex, lp_module._pivot

    def finishing(tableau, basis, nonbasic, c, note=None):
        nonlocal call
        log.append(call := {"first_art": c.size + basis.size,
                            "artificials": nonbasic.size - c.size, "runs": []})
        try:
            return finish(tableau, basis, nonbasic, c, note)
        finally:
            call = None

    def running(tableau, basis, nonbasic, limit, note=None):
        nonlocal entered
        call["runs"].append((int((nonbasic >= call["first_art"]).sum()), entered := []))
        try:
            return run(tableau, basis, nonbasic, limit, note)
        finally:
            entered = None

    def pivoting(tableau, basis, nonbasic, row, pos, col):
        if entered is not None:
            entered.append(int(nonbasic[pos]))
        pivot(tableau, basis, nonbasic, row, pos, col)

    with mock.patch.multiple(lp_module, _finish=finishing, _run_simplex=running,
                             _pivot=pivoting):
        yield log


def phase_two(call):
    """(artificials nonbasic at its start, entering variables) of a logged
    `_finish` call's phase 2: the run after phase 1, or its only run."""
    return call["runs"][1:] if call["artificials"] else call["runs"]


def same_as_dropping_oracle(solve_it):
    """solve_it() with `lp._finish`, bit for bit as with the oracle that drops
    the nonbasic artificials' rows before phase 2."""
    with mock.patch.object(lp_module, "_finish", finish_dropping_artificials):
        want = solve_it()
    assert same_bits(solve_it(), want)


def assert_no_artificial_enters_in_phase_two(log):
    for call in log:
        for _, entered in phase_two(call):
            assert all(v < call["first_art"] for v in entered), call


@st.composite
def phase_one_programs(draw):
    """Small integer programs with two or more negative bounds, so phase 1
    runs with several artificials; degenerate often enough that some are
    basic at zero after it and are driven out."""
    num_vars, num_rows = draw(st.integers(1, 5)), draw(st.integers(2, 7))
    def entries(lo, hi, size):
        return draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
    a = np.reshape(entries(-3, 3, num_rows * num_vars), (num_rows, num_vars))
    b = np.array(entries(-3, 5, num_rows), dtype=float)
    negative = draw(st.integers(2, num_rows))
    b[:negative] = -np.array(entries(1, 3, negative))
    return LinearProgram(entries(-2, 2, num_vars), a, b)


@settings(max_examples=300, deadline=None)
@given(phase_one_programs())
@example(LinearProgram([0.0, 2.0], [[2.0, -2.0], [2.0, -1.0], [-2.0, -2.0], [1.0, 2.0]],
                       [-1.0, -1.0, -2.0, 2.0]))
@example(LinearProgram([1.0], [[-1.0], [1.0]], [-2.0, 1.0]))
def test_phase_two_on_phase_one_dictionary_matches_the_dropping_oracle(lp):
    """Phase 2 on the dictionary phase 1 leaves, its nonbasic artificials'
    rows kept, gives the oracle's status, point bytes and objective bits,
    plain and as a tiebreak (cold: the primary ran phase 1), and no
    artificial enters in phase 2. In the first example phase 1 leaves two of
    three artificials nonbasic and drives the third out, and phase 2 then
    pivots; the second is infeasible."""
    with phase_log() as log:
        same_as_dropping_oracle(lambda: solve(lp))
        same_as_dropping_oracle(lambda: solve_lexicographic(
            lp, np.ones(lp.objective.size), primary_of(lp)))
    assert_no_artificial_enters_in_phase_two(log)


def test_mer_solves_match_the_dropping_oracle(cold_solves):
    """MER's primaries, on games as drawn and with one cap at -1e-17 (phase 1
    on one artificial) or -0.0 (no phase 1), and its tiebreaks for agents 0
    and n - 1, resumed from a held primary and cold, at n = 2-11: the
    dropping oracle's bits, and no artificial enters in phase 2. Each phase 1
    here (on the face row's artificial in a tiebreak) leaves an artificial
    nonbasic for phase 2."""
    rng = np.random.default_rng(5011)
    resumed = 0
    with phase_log() as log:
        for n in range(2, 12):
            for seed in rng.integers(0, 10**6, 2):
                values = random_monotone_game(n, int(seed)).values
                for cap in (None, -1e-17, -0.0):
                    game = values.copy()
                    if cap is not None:
                        game[rng.integers(1, game.size)] = cap
                    lp = mer_program(game)
                    same_as_dropping_oracle(lambda: solve(lp))
                    for agent, held in itertools.product(sorted({0, n - 1}), (True, False)):
                        direction = np.eye(n)[agent]
                        cold_solves.clear()
                        same_as_dropping_oracle(lambda: solve_lexicographic(
                            lp, direction,
                            primary_of(lp) if held else (solve(lp), lp_module.Resume())))
                        resumed += held and not cold_solves
    assert_no_artificial_enters_in_phase_two(log)
    kept = [left for call in log for left, _ in phase_two(call) if call["artificials"]]
    assert resumed >= 60 and sum(left > 0 for left in kept) >= 300
