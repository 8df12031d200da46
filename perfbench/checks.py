"""Correctness checks for the benchmark's outputs, run outside the timed region.

The references are independent of the engine's certificates: the pattern
(2^K) oracle for the robust optimum, and ``oracle.robustness_matrix`` for
stored-set values.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from mprobust import PiEnumerationOracle, robustness_matrix

GAP_TOL = 1e-6
VALUE_TOL = 1e-9


def omega_vertices(omega) -> np.ndarray:
    """The 2^K corners of the interval budget domain."""
    return np.array(list(product(*zip(omega.lower, omega.upper))), dtype=float)


def interior_points(omega, rng, count: int) -> np.ndarray:
    """``count`` budget vectors drawn uniformly in the interval domain."""
    return omega.lower + rng.random((count, omega.num_groups)) * (omega.upper - omega.lower)


def reference(inst):
    """γ -> exact robust optimum, by the pattern oracle."""
    return PiEnumerationOracle(inst).robust_value


def gap_violation(inst, xs, epsilon: float, ref, points):
    """None if the set is within ``epsilon`` of the optimum at every point,
    else a message naming the worst point."""
    X = np.asarray(xs, dtype=float)
    worst, at = -np.inf, None
    for gamma in points:
        gap = float(robustness_matrix(inst, X, gamma).min()) - ref(gamma)
        if gap > worst:
            worst, at = gap, gamma
    if worst > epsilon + GAP_TOL:
        return f"gap {worst:.6g} > epsilon {epsilon:.6g} at gamma {np.round(at, 6).tolist()}"
    return None


def pick_ok(inst, X: np.ndarray, distinct: set, result, scenario: np.ndarray,
            is_cost: bool, index: int, value: float) -> bool:
    """The pick names a stored distinct solution and matches the set's best value."""
    if tuple(int(round(v)) for v in result.history[index].x) not in distinct:
        return False
    if is_cost:
        best = float((X @ scenario).min())
    else:
        best = float(robustness_matrix(inst, X, scenario).min())
    return abs(value - best) <= VALUE_TOL * max(1.0, abs(best))
