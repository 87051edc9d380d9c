"""Simplex solver checked against brute-force vertex enumeration."""
import itertools

import numpy as np
import pytest

from blamekit import lp as lp_module
from blamekit.lp import LinearProgram, LpSolution, solve, solve_lexicographic
from helpers import masked_pivot


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

    toward_y = solve_lexicographic(lp, np.array([0.0, 1.0]))
    assert toward_y.status == "optimal"
    assert toward_y.objective_value == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(toward_y.point, [0.0, 1.0], atol=1e-7)

    toward_x = solve_lexicographic(lp, np.array([1.0, 0.0]))
    np.testing.assert_allclose(toward_x.point, [0.6, 0.4], atol=1e-7)
    assert toward_x.objective_value == pytest.approx(1.0, abs=1e-8)


def test_lexicographic_passes_through_nonoptimal_status():
    lp = LinearProgram([1.0], [[-1.0]], [0.0])
    assert solve_lexicographic(lp, np.array([1.0])).status == "unbounded"


def test_lp_shape_validation():
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [[1.0]], [1.0])
    sol = LpSolution("optimal", np.zeros(1), 0.0)
    assert sol.status == "optimal"


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
    """A row with a zero in the entering column subtracts 0 * p, which keeps
    every value: statuses and objectives agree bit for bit, and points by
    value (a -0.0 may come back +0.0)."""
    rng = np.random.default_rng(3101)
    programs = ([random_bounded_lp(rng, int(rng.integers(2, 6)),
                                   int(rng.integers(1, 7))) for _ in range(150)]
                + [random_integer_lp(rng) for _ in range(150)]
                + [near_tie_box_lp(rng, k % 2) for k in range(150)])

    def solve_both(lp):
        return (solve(lp), solve_lexicographic(lp, np.ones(lp.objective.size)))

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
