"""Two-phase simplex in dictionary form for the linear programs used here.

Problems are stated as: maximize c @ x subject to A @ x <= b, x >= 0.
An equality's two opposing rows trip the simplex; one such pair is left,
MER's tiebreak face row -objective <= -opt + 1e-9 against its all-ones
grand-coalition cap row wherever that cap can bind and MER keeps the row,
until the tiebreak walks the face (ROADMAP 4(a)).
Variables are numbered structural, then one slack per row, then one
artificial per row with a negative bound; phase 2 runs on the dictionary
phase 1 leaves, its entering `limit` barring every artificial. Only the
nonbasic columns and the right-hand side are stored (Chvatal, Linear
Programming, ch. 2-3), array row j holding dictionary column j: MER's r
live cap rows over n agents (60 of 2^n - 1 = 2047 on average at n = 11)
take (n + 1) x (r + 1) floats. A pivot updates every column in one
broadcast. Bland's rule guarantees termination.
`solve_lexicographic` resumes a primary solved with a `Resume` note, which
holds its own copy of what it resumes from."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mmdp import _non_finite

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
        if problems := _non_finite(objective=c, constraint_matrix=a, constraint_bounds=b):
            raise ValueError(problems[0])
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
    tableau[pos] = 0.0
    tableau[pos, row] = 1.0
    tableau[:, row] /= col[row]
    col[row] = 0.0
    tableau -= tableau[:, row, None] * col
    basis[row], nonbasic[pos] = nonbasic[pos], basis[row]


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
                 limit: int, note=None) -> str:
    """Bland's rule on the given dictionary; its last row is the objective.
    Only variables numbered below `limit` may enter. With `note`, each pivot
    first calls note(tableau, basis, nonbasic, col, row, least ratio)."""
    while True:
        entering = ((tableau[:-1, -1] < -PIVOT_TOL)
                    & (nonbasic < limit)).nonzero()[0]
        if entering.size == 0:
            return "optimal"
        pos = entering[nonbasic[entering].argmin()]
        col = tableau[pos].copy()
        rows = (col[:-1] > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = tableau[-1, rows] / col[rows]
        least = ratios.min()
        tied = rows[ratios <= least + PIVOT_TOL]
        row = tied[basis[tied].argmin()]
        if note is not None:
            note(tableau, basis, nonbasic, col, row, least)
        _pivot(tableau, basis, nonbasic, row, pos, col)


def _dictionary(a: np.ndarray, b: np.ndarray):
    """Dictionary of A @ x <= b: a row with a negative bound is flipped, its
    slack (coefficient -1) nonbasic and an artificial basic, priced into
    the phase 1 objective; other rows start on their slack."""
    num_rows, num_vars = a.shape
    flipped = (b < 0).nonzero()[0]
    tableau = np.zeros((num_vars + flipped.size + 1, num_rows + 1))
    tableau[:num_vars, :num_rows] = a.T
    tableau[-1, :num_rows] = np.abs(b)
    nonbasic = np.concatenate([np.arange(num_vars), num_vars + flipped])
    basis = np.arange(num_vars, num_vars + num_rows)
    if flipped.size:
        tableau[:num_vars, flipped] *= -1.0
        tableau[num_vars + np.arange(flipped.size), flipped] = -1.0
        basis[flipped] = num_vars + num_rows + np.arange(flipped.size)
        for r in flipped:
            tableau[:, -1] -= tableau[:, r]
    return tableau, basis, nonbasic


def _finish(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
            c: np.ndarray, note=None) -> LpSolution:
    """Phase 1 while an artificial is basic, then phase 2 for max c @ x;
    `note` sees phase 2's pivots where no phase 1 ran."""
    num_vars = c.size
    first_art = num_vars + basis.size
    if nonbasic.size > num_vars:
        note = None
        status = _run_simplex(tableau, basis, nonbasic, basis.size + nonbasic.size)
        if status != "optimal" or tableau[-1, -1] < -1e-8:
            return LpSolution("infeasible", None, None)
        # Drive any artificial still basic (at zero) out of the basis.
        for r in (basis >= first_art).nonzero()[0]:
            cand = ((nonbasic < first_art)
                    & (np.abs(tableau[:-1, r]) > PIVOT_TOL)).nonzero()[0]
            if cand.size:
                pos = cand[nonbasic[cand].argmin()]
                _pivot(tableau, basis, nonbasic, r, pos, tableau[pos].copy())

    # Phase 2 on phase 1's dictionary, `first_art` barring every artificial;
    # its objective (maximize c @ x as minimize -c @ x) is priced out over
    # the rows whose basic variable is structural.
    tableau[:, -1] = 0.0
    structural = nonbasic < num_vars
    tableau[:-1, -1][structural] = -c[nonbasic[structural]]
    for r in (basis < num_vars).nonzero()[0]:
        coef = -c[basis[r]]
        if coef != 0:
            tableau[:, -1] -= coef * tableau[:, r]
    if _run_simplex(tableau, basis, nonbasic, first_art, note) == "unbounded":
        return LpSolution("unbounded", None, None)
    x = np.zeros(num_vars)
    rows = (basis < num_vars).nonzero()[0]
    x[basis[rows]] = tableau[-1, rows]
    return LpSolution("optimal", x, float(c @ x))


def solve(lp: LinearProgram, note=None) -> LpSolution:
    return _finish(*_dictionary(lp.constraint_matrix, lp.constraint_bounds),
                   lp.objective, note)


class Resume:
    """A `note` keeping per pivot the entering column's face-row entry (its
    objective entry negated), value and least ratio, and a copy of the
    dictionary before the last pivot with a least ratio > 0, step `at`."""

    def __init__(self):
        self.steps, self.at, self.saved = [], None, None

    def __call__(self, tableau, basis, nonbasic, col, row, least):
        if least > 0:
            self.at, self.saved = len(self.steps), tableau.copy()
            self.basis, self.nonbasic = basis.copy(), nonbasic.copy()
        self.steps.append((-col[-1], tableau[-1, row] / col[row], least))

    def face_dictionary(self, rhs: float):
        """The tiebreak LP's dictionary from the saved one: the face row (its
        artificial basic, bound `rhs`) is 0.0 - the objective row; its
        slack's column is 0 but -1 there and 1 in phase 1's objective."""
        saved, slack = self.saved, self.nonbasic.size + self.basis.size
        face = np.zeros((saved.shape[0] + 1, saved.shape[1] + 1))
        face[:-2, :-2], face[-1, :-2] = saved[:-1, :-1], saved[-1, :-1]
        face[:-2, -1], face[:-2, -2] = saved[:-1, -1], 0.0 - saved[:-1, -1]
        face[-2:, -2:] = [[-1.0, 1.0], [rhs, -rhs]]
        return face, np.append(self.basis, slack + 1), np.append(self.nonbasic, slack)


def solve_lexicographic(lp: LinearProgram, tiebreak: np.ndarray, primary) -> LpSolution:
    """Break the ties of lp's optimum by maximizing `tiebreak` over its
    optimal face, one added row objective >= opt - 1e-9 (no feasible point
    exceeds opt). The returned objective_value is still the primary one; a
    primary or tiebreak LP that is not optimal comes back with its status.

    `primary` is (solve(lp, resume), resume) for a Resume, and may be shared.
    A cold tiebreak solve makes the primary's pivots until the face row
    blocks. Where it first blocks alone, at the last pivot with a least
    ratio > 0, phase 1 resumes from the dictionary saved before that pivot,
    the face row inserted and its bound replayed as a cold solve has it;
    all else, and a primary that ran phase 1 (no pivot noted), is cold."""
    tiebreak = np.atleast_1d(np.asarray(tiebreak, dtype=float))
    if tiebreak.shape != lp.objective.shape:
        raise ValueError(f"tiebreak has shape {tiebreak.shape}, expected {lp.objective.shape}")
    if problems := _non_finite(tiebreak=tiebreak):
        raise ValueError(problems[0])
    first, resume = primary
    if first.status != "optimal":
        return first
    bound = -first.objective_value + 1e-9
    rhs, second = abs(bound), None
    # An unflipped face row (opt <= 1e-9) leaves no phase 1 to resume.
    for step, (entry, p_rhs, least) in enumerate(resume.steps if bound < 0 else []):
        if entry > PIVOT_TOL and rhs / entry < least:
            if step == resume.at and least > rhs / entry + PIVOT_TOL:
                second = _finish(*resume.face_dictionary(rhs), tiebreak)
            break
        rhs = rhs - entry * p_rhs
    second = second or solve(LinearProgram(tiebreak, np.vstack(
        [lp.constraint_matrix, -lp.objective]), np.append(lp.constraint_bounds, bound)))
    if second.status != "optimal":
        return second
    return LpSolution("optimal", second.point, float(lp.objective @ second.point))
