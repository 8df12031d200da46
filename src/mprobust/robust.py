"""The robust counterpart R(gamma): find x in X with minimal worst-case cost.

Three interchangeable routes:

* ``standard`` - the 0-1 ILP over (pi, rho, x) obtained by dualizing the
  inner worst-case LP and using that an optimal dual is 0-1.
* ``tu_relaxed`` - same model with rho and x relaxed to [0, 1]; valid when
  the nominal constraint matrix is totally unimodular (network instances),
  where the relaxed optimum is integral and rho can be rebuilt from (pi, x).
* ``variant`` - the fractional uncertainty model, reformulated through the
  breakpoint structure of the inner minimization so that the budgets
  multiply only 0-1 variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .milp import (
    INCUMBENT_ONLY, MilpModel, ModelBuilder, SolverConfig, SolverLimitError,
    relax_binaries, solve_milp,
)
from .uncertainty import (
    Instance, _check_gamma, robustness_value, robustness_value_variant,
)


class TuIntegralityError(RuntimeError):
    """Relaxed solve returned a fractional x on an instance declared TU."""


@dataclass
class RobustSolution:
    """Optimal robust solution plus its dual certificate.

    ``pi`` is 0-1 in the standard forms and carries the per-group breakpoint
    values in the variant form; ``rho`` follows the same convention.  ``w``
    and ``alpha`` are the variant's selector binaries (None otherwise).
    """

    x: np.ndarray
    pi: np.ndarray
    rho: np.ndarray
    value: float
    formulation: str
    w: Optional[np.ndarray] = None
    alpha: Optional[np.ndarray] = None


def cost_for_pi(inst: Instance, pi) -> np.ndarray:
    """c(pi): nominal cost in groups with an active budget, worst case elsewhere."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (inst.num_groups,):
        raise ValueError("pi dimension mismatch")
    c = inst.c_lower + inst.deviations
    for k, g in enumerate(inst.groups):
        if pi[k] > 0.5:
            idx = list(g)
            c[idx] = inst.c_lower[idx]
    return c


def _add_x_block(b: ModelBuilder, inst: Instance, obj=None) -> list:
    obj = inst.c_lower if obj is None else obj
    x = [b.add_binary(f"x{j}", obj=float(obj[j])) for j in range(inst.n)]
    for i in range(inst.x_coeffs.shape[0]):
        coeffs = {x[j]: float(inst.x_coeffs[i, j])
                  for j in np.flatnonzero(inst.x_coeffs[i])}
        b.add_row(coeffs, int(inst.x_senses[i]), float(inst.x_rhs[i]))
    return x


def build_robust_milp(inst: Instance, gamma) -> MilpModel:
    """0-1 ILP: min gamma'pi + d'rho + c'x with pi_k + rho_j - x_j >= 0.

    Variable layout: pi (one per group), rho (one per covered index, in
    sorted index order), then x.
    """
    gamma = _check_gamma(inst, gamma)
    b = ModelBuilder("robust")
    pi = [b.add_binary(f"pi{k}", obj=float(gamma[k])) for k in range(inst.num_groups)]
    cov = inst.covered
    rho = {int(j): b.add_binary(f"rho{j}", obj=float(inst.deviations[j])) for j in cov}
    x = _add_x_block(b, inst)
    for k, g in enumerate(inst.groups):
        for j in g:
            b.add_row({pi[k]: 1.0, rho[j]: 1.0, x[j]: -1.0}, ">=", 0.0)
    return b.build(maximize=False)


def build_robust_variant_milp(inst: Instance, gamma) -> MilpModel:
    """Variant R(gamma) with budgets on 0-1 selector variables.

    Variable layout: w (covered), alpha (covered), rho (covered,
    continuous), then x.  Per group the term sum_{s} d_s w_s plays the role
    of the continuous dual multiplier, restricted to its breakpoints.
    """
    gamma = _check_gamma(inst, gamma)
    b = ModelBuilder("robust_variant")
    cov = [int(j) for j in inst.covered]
    kof = inst.group_of()
    w = {j: b.add_binary(f"w{j}", obj=float(gamma[kof[j]] * inst.deviations[j]))
         for j in cov}
    alpha = {j: b.add_binary(f"a{j}") for j in cov}
    rho = {j: b.add_continuous(f"rho{j}", 0.0, np.inf, obj=1.0) for j in cov}
    x = _add_x_block(b, inst)
    for k, g in enumerate(inst.groups):
        wsum = {w[j]: float(inst.deviations[j]) for j in g}
        for j in g:
            row = dict(wsum)
            row[rho[j]] = row.get(rho[j], 0.0) + 1.0
            row[x[j]] = row.get(x[j], 0.0) - float(inst.deviations[j])
            b.add_row(row, ">=", 0.0)
        b.add_row({alpha[j]: 1.0 for j in g}, "<=", 1.0)
    for j in cov:
        b.add_row({w[j]: 1.0, alpha[j]: -1.0, x[j]: -1.0}, ">=", -1.0)
    return b.build(maximize=False)


def _split_standard(inst: Instance, values: np.ndarray):
    K = inst.num_groups
    cov = inst.covered
    pi = values[:K]
    rho = np.zeros(inst.n)
    rho[cov] = values[K:K + cov.size]
    x = values[K + cov.size:]
    return pi, rho, x


def _split_variant(inst: Instance, values: np.ndarray):
    cov = inst.covered
    m = cov.size
    w = np.zeros(inst.n)
    alpha = np.zeros(inst.n)
    rho = np.zeros(inst.n)
    w[cov] = values[:m]
    alpha[cov] = values[m:2 * m]
    rho[cov] = values[2 * m:3 * m]
    x = values[3 * m:]
    return w, alpha, rho, x


def solve_robust(inst: Instance, gamma, mode: str = "standard",
                 config: Optional[SolverConfig] = None) -> RobustSolution:
    """Solve R(gamma) in the requested formulation."""
    gamma = _check_gamma(inst, gamma)
    if mode == "standard":
        sol = _solve_or_raise(build_robust_milp(inst, gamma), config)
        pi, rho, x = _split_standard(inst, sol.values)
        out = RobustSolution(x=x, pi=np.round(pi), rho=np.round(rho),
                             value=float(sol.objective), formulation=mode)
        _check_certificate(inst, gamma, out, robustness_value)
        return out
    if mode == "tu_relaxed":
        if not _declares_tu(inst):
            raise ValueError("tu_relaxed requires an instance declared totally unimodular")
        model = build_robust_milp(inst, gamma)
        K = inst.num_groups
        relax_idx = np.arange(K, model.num_vars)
        sol = _solve_or_raise(relax_binaries(model, relax_idx), config)
        pi, rho_lp, x = _split_standard(inst, sol.values)
        frac = np.max(np.abs(x - np.round(x))) if x.size else 0.0
        if frac > 1e-6:
            raise TuIntegralityError(
                f"relaxed robust solve returned fractional x (max deviation {frac:.2e})")
        x = np.round(x)
        pi = np.round(pi)
        rho = _repair_rho(inst, pi, x)
        out = RobustSolution(x=x, pi=pi, rho=rho, value=float(sol.objective),
                             formulation=mode)
        _check_certificate(inst, gamma, out, robustness_value)
        return out
    if mode == "variant":
        sol = _solve_or_raise(build_robust_variant_milp(inst, gamma), config)
        w, alpha, rho, x = _split_variant(inst, sol.values)
        x = np.round(x)
        pi = np.array([float(inst.deviations[list(g)] @ w[list(g)])
                       for g in inst.groups])
        out = RobustSolution(x=x, pi=pi, rho=rho, value=float(sol.objective),
                             formulation=mode, w=w, alpha=alpha)
        _check_certificate(inst, gamma, out, robustness_value_variant)
        return out
    raise ValueError(f"unknown robust mode {mode!r}")


def _declares_tu(inst: Instance) -> bool:
    return bool(inst.metadata.get("tu", inst.kind == "SP"))


def _repair_rho(inst: Instance, pi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Optimal rho given (pi, x): rho_j = (1 - pi_k) x_j on covered indices."""
    rho = np.zeros(inst.n)
    for k, g in enumerate(inst.groups):
        idx = list(g)
        rho[idx] = (1.0 - pi[k]) * x[idx]
    return rho


def _solve_or_raise(model: MilpModel, config):
    sol = solve_milp(model, config)
    if sol.status == INCUMBENT_ONLY:
        raise SolverLimitError("robust solve stopped at a solver limit before proving "
                               f"optimality (best bound {sol.best_bound})")
    if sol.status != "optimal":
        raise RuntimeError(f"robust solve failed with status {sol.status}")
    return sol


def _check_certificate(inst, gamma, out: RobustSolution, evaluator) -> None:
    direct = evaluator(inst, out.x, gamma)
    scale = max(1.0, abs(direct))
    if abs(direct - out.value) > 1e-6 * scale:
        raise RuntimeError(
            f"certificate value {out.value} disagrees with closed form {direct}")
