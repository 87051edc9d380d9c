"""Two-phase simplex in dictionary form for the linear programs used here.

Problems are stated as: maximize c @ x subject to A @ x <= b, x >= 0.
Equality constraints should be passed as two opposing inequalities.
Variables are numbered structural, then one slack per row, then one
artificial per row with a negative bound. Only the nonbasic columns and the
right-hand side are stored (Chvatal, Linear Programming, ch. 2-3), so MER's
2^n - 1 rows over n agents take 2^n x (n + 1) floats. A pivot is one rank-1
update doing a full tableau's arithmetic on those columns; Bland's rule
guarantees termination.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class LinearProgram:
    objective: np.ndarray
    constraint_matrix: np.ndarray
    constraint_bounds: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        a = np.atleast_2d(np.asarray(self.constraint_matrix, dtype=float))
        b = np.atleast_1d(np.asarray(self.constraint_bounds, dtype=float))
        if a.shape != (b.size, c.size):
            raise ValueError(f"constraint matrix is {a.shape}, "
                             f"expected ({b.size}, {c.size})")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "constraint_bounds", b)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal", "infeasible", or "unbounded"
    point: np.ndarray | None
    objective_value: float | None


def _pivot(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
           row: int, pos: int, col: np.ndarray) -> None:
    """Swap basis[row] with nonbasic[pos]; `col` is a copy of column `pos`,
    which is reused for the leaving variable (its column was e_row)."""
    tableau[:, pos] = 0.0
    tableau[row, pos] = 1.0
    tableau[row] /= col[row]
    col[row] = 0.0
    # A row with a zero in the entering column subtracts 0 * p: its values
    # stay, only a -0.0 may turn +0.0, a sign no tolerance test reads.
    tableau -= col[:, None] * tableau[row]
    basis[row], nonbasic[pos] = nonbasic[pos], basis[row]


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
                 limit: int) -> str:
    """Bland's rule on the given tableau; last row is the objective. Only
    variables numbered below `limit` may enter."""
    while True:
        entering = ((tableau[-1, :-1] < -PIVOT_TOL)
                    & (nonbasic < limit)).nonzero()[0]
        if entering.size == 0:
            return "optimal"
        pos = entering[nonbasic[entering].argmin()]
        col = tableau[:, pos].copy()
        rows = (col[:-1] > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = tableau[rows, -1] / col[rows]
        tied = rows[ratios <= ratios.min() + PIVOT_TOL]
        _pivot(tableau, basis, nonbasic, tied[basis[tied].argmin()], pos, col)


def solve(lp: LinearProgram) -> LpSolution:
    c = lp.objective
    a = lp.constraint_matrix
    b = lp.constraint_bounds
    num_rows, num_vars = a.shape
    first_art = num_vars + num_rows

    # Flip rows with negative bounds into >= rows: their slack (coefficient
    # -1) starts nonbasic and an artificial basic; other rows start on their
    # slack.
    flipped = (b < 0).nonzero()[0]
    tableau = np.zeros((num_rows + 1, num_vars + flipped.size + 1))
    tableau[:num_rows, :num_vars] = a
    tableau[flipped, :num_vars] *= -1.0
    tableau[flipped, num_vars + np.arange(flipped.size)] = -1.0
    tableau[:num_rows, -1] = np.abs(b)
    nonbasic = np.concatenate([np.arange(num_vars), num_vars + flipped])
    basis = np.arange(num_vars, first_art)
    basis[flipped] = first_art + np.arange(flipped.size)

    if flipped.size:
        # Phase 1: minimize artificial sum.
        for r in flipped:
            tableau[-1] -= tableau[r]
        status = _run_simplex(tableau, basis, nonbasic, first_art + flipped.size)
        if status != "optimal" or tableau[-1, -1] < -1e-8:
            return LpSolution("infeasible", None, None)
        # Drive any artificial still basic (at zero) out of the basis.
        for r in (basis >= first_art).nonzero()[0]:
            cand = ((nonbasic < first_art)
                    & (np.abs(tableau[r, :-1]) > PIVOT_TOL)).nonzero()[0]
            if cand.size:
                pos = cand[nonbasic[cand].argmin()]
                _pivot(tableau, basis, nonbasic, r, pos, tableau[:, pos].copy())
        # Artificials never re-enter: drop the nonbasic ones, and the limit
        # below bars one that leaves the basis in phase 2.
        keep = nonbasic < first_art
        tableau = tableau[:, np.append(keep, True)]
        nonbasic = nonbasic[keep]

    # Phase 2 objective (maximize c @ x as minimize -c @ x), priced out
    # row by row over the rows whose basic variable is structural.
    tableau[-1] = 0.0
    structural = nonbasic < num_vars
    tableau[-1, :-1][structural] = -c[nonbasic[structural]]
    for r in (basis < num_vars).nonzero()[0]:
        coef = -c[basis[r]]
        if coef != 0:
            tableau[-1] -= coef * tableau[r]
    if _run_simplex(tableau, basis, nonbasic, first_art) == "unbounded":
        return LpSolution("unbounded", None, None)
    x = np.zeros(num_vars)
    rows = (basis < num_vars).nonzero()[0]
    x[basis[rows]] = tableau[rows, -1]
    return LpSolution("optimal", x, float(c @ x))


def solve_lexicographic(lp: LinearProgram, tiebreak: np.ndarray) -> LpSolution:
    """Optimize lp, then break ties by maximizing `tiebreak` over its optimal
    face. The returned objective_value is still the primary one."""
    first = solve(lp)
    if first.status != "optimal":
        return first
    opt = first.objective_value
    a2 = np.vstack([lp.constraint_matrix, lp.objective, -lp.objective])
    b2 = np.concatenate([lp.constraint_bounds, [opt + 1e-9], [-opt + 1e-9]])
    second = solve(LinearProgram(np.asarray(tiebreak, dtype=float), a2, b2))
    if second.status != "optimal":
        return first
    return LpSolution("optimal", second.point,
                      float(lp.objective @ second.point))
