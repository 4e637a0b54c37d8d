"""Shared numerical kernels.

Convex-combination membership with replayable certificates, singular values,
and symmetric inverse square roots.  Every function here is a pure function
of its inputs, so all of it is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Feasibility",
    "FeasibilityProblem",
    "FeasibilityCertificate",
    "solve_feasibility",
    "singular_values",
    "inverse_sqrt_spd",
    "checked_tolerance",
]

# Pivot/zero threshold for the simplex; the user-facing feasibility decision
# uses the problem's own tolerance instead.
_PIVOT_EPS = 1e-12


class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FeasibilityProblem:
    """Membership of ``target`` in the convex hull of candidate vectors.

    Parameters
    ----------
    columns : sequence of equal-length 1-D real vectors
        The candidate points.  A 2-D array is read row-wise (one candidate
        per row).  Stored column-stacked with shape ``(dim, n_columns)``.
    target : 1-D real vector of length ``dim``
        The point whose hull membership is decided.
    tolerance : float
        Finite, nonnegative max-norm slack allowed when replaying a feasible
        mixture.  Default 1e-9.
    """

    columns: np.ndarray
    target: np.ndarray
    tolerance: float = 1e-9

    def __post_init__(self):
        vectors = [np.asarray(c, dtype=float).ravel() for c in self.columns]
        if not vectors:
            raise ValueError("at least one column is required")
        target = np.asarray(self.target, dtype=float).ravel()
        if any(v.size != target.size for v in vectors):
            raise ValueError("all columns and the target must have identical length")
        stacked = np.column_stack(vectors)
        if not (np.all(np.isfinite(stacked)) and np.all(np.isfinite(target))):
            raise ValueError("columns and target must contain finite values")
        stacked.setflags(write=False)
        target.setflags(write=False)
        object.__setattr__(self, "columns", stacked)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "tolerance", checked_tolerance(self.tolerance))

    @property
    def n_columns(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Outcome of a hull-membership query.

    Feasible certificates carry convex ``weights`` whose recombination
    reproduces the target within the problem tolerance (``residual`` is the
    realized replay error).  Infeasible certificates carry a ``separator``
    ``h`` with ``<h, target> > max_j <h, column_j>``; for those, ``residual``
    holds the achieved separation margin.
    """

    status: Feasibility
    weights: np.ndarray | None
    separator: np.ndarray | None
    residual: float

    @property
    def feasible(self) -> bool:
        return self.status is Feasibility.FEASIBLE


def solve_feasibility(problem: FeasibilityProblem) -> FeasibilityCertificate:
    """Decide convex-hull membership and emit a replayable certificate.

    Runs a phase-1 revised simplex with Bland's rule on the standard-form
    system ``[A; 1^T] g = [target; 1], g >= 0``, stopping as soon as the
    phase-1 objective is within the tolerance.  The run is deterministic
    for a fixed input.  When the phase-1 optimum exceeds the tolerance, the
    final simplex multipliers give the separating functional directly.

    Returns
    -------
    FeasibilityCertificate
    """
    a = problem.columns
    dim, n = a.shape
    rows = np.vstack([a, np.ones((1, n))])
    rhs = np.append(problem.target, 1.0)
    flipped = rhs < 0.0
    rows = rows.copy()
    rows[flipped] *= -1.0
    rhs = np.abs(rhs)

    m = dim + 1
    full = np.hstack([rows, np.eye(m)])
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))

    x_basic = rhs.copy()
    y = cost[n:].copy()
    max_iter = 5000 + 50 * (n + m)
    for _ in range(max_iter):
        basis_matrix = full[:, basis]
        x_basic = np.linalg.solve(basis_matrix, rhs)
        # Once the phase-1 objective is within the tolerance the remaining
        # reduced costs are rounding noise; pivoting on them can reach a
        # near-singular basis whose weights no longer sum to 1.
        if float(cost[basis] @ x_basic) <= problem.tolerance:
            break
        y = np.linalg.solve(basis_matrix.T, cost[basis])
        reduced = cost - y @ full
        reduced[basis] = 0.0
        entering = np.nonzero(reduced < -_PIVOT_EPS)[0]
        if entering.size == 0:
            break
        j = int(entering[0])  # Bland: lowest eligible index enters
        direction = np.linalg.solve(basis_matrix, full[:, j])
        positive = direction > _PIVOT_EPS
        if not positive.any():
            raise ArithmeticError("phase-1 simplex reported an unbounded ray")
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(x_basic[positive], 0.0) / direction[positive]
        best = float(ratios.min())
        ties = np.nonzero(ratios <= best + _PIVOT_EPS)[0]
        leave = min(ties, key=lambda slot: basis[slot])  # Bland: lowest variable leaves
        basis[int(leave)] = j
    else:
        raise ArithmeticError("phase-1 simplex did not converge")

    objective = float(cost[basis] @ x_basic)
    if objective <= problem.tolerance:
        weights = np.zeros(n)
        for slot, var in enumerate(basis):
            if var < n:
                weights[var] = max(float(x_basic[slot]), 0.0)
        replay = a @ weights - problem.target
        residual = max(float(np.max(np.abs(replay))), abs(float(weights.sum()) - 1.0))
        return FeasibilityCertificate(Feasibility.FEASIBLE, weights, None, residual)

    multipliers = y.copy()
    multipliers[flipped] *= -1.0
    separator = multipliers[:dim]
    margin = float(separator @ problem.target - np.max(separator @ a))
    return FeasibilityCertificate(Feasibility.INFEASIBLE, None, separator, margin)


def singular_values(matrix) -> np.ndarray:
    """Nonincreasing singular values of a finite real matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("singular_values expects a 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("singular_values requires finite entries")
    return np.linalg.svd(matrix, compute_uv=False)


def inverse_sqrt_spd(matrix) -> np.ndarray:
    """Symmetric inverse square root of a symmetric positive-definite matrix.

    Returns ``S`` with ``S @ matrix @ S.T = I`` (within 1e-10 for
    well-conditioned desk-scale inputs).

    Raises
    ------
    ValueError
        If the input is not symmetric, or its smallest eigenvalue falls at or
        below ``1e-12`` times the largest (the offending eigenvalue is named).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("inverse_sqrt_spd expects a square matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite")
    scale = max(1.0, float(np.max(np.abs(matrix))))
    asymmetry = float(np.max(np.abs(matrix - matrix.T)))
    if asymmetry > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asymmetry:.3e}")
    eigenvalues, vectors = np.linalg.eigh(matrix)
    smallest, largest = float(eigenvalues[0]), float(eigenvalues[-1])
    if largest <= 0.0 or smallest <= 1e-12 * largest:
        raise ValueError(
            f"matrix is not positive definite: offending eigenvalue {smallest:.6e}"
        )
    return (vectors / np.sqrt(eigenvalues)) @ vectors.T


def checked_tolerance(tolerance) -> float:
    """``tolerance`` as a float; ValueError unless it is finite and >= 0."""
    tolerance = float(tolerance)
    if not 0.0 <= tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    return tolerance
