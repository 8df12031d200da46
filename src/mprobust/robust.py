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


MODES = ("standard", "tu_relaxed", "variant")


class TuIntegralityError(RuntimeError):
    """Relaxed solve returned a fractional x on an instance declared TU."""


@dataclass
class RobustSolution:
    """Optimal robust solution plus its dual certificate.

    ``pi`` is 0-1 in the standard forms and carries the per-group breakpoint
    values in the variant form; ``rho`` follows the same convention.  ``w``
    holds the variant's selector binaries (None otherwise).
    """

    x: np.ndarray
    pi: np.ndarray
    rho: np.ndarray
    value: float
    formulation: str
    w: Optional[np.ndarray] = None


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


def _add_x(b: ModelBuilder, inst: Instance, obj) -> list:
    """x binaries with objective ``obj`` (block ``x``) and the rows of X."""
    x = [b.add_binary(f"x{j}", obj=float(obj[j]), block="x") for j in range(inst.n)]
    for i in range(inst.x_coeffs.shape[0]):
        coeffs = {x[j]: float(inst.x_coeffs[i, j])
                  for j in np.flatnonzero(inst.x_coeffs[i])}
        b.add_row(coeffs, int(inst.x_senses[i]), float(inst.x_rhs[i]))
    return x


def add_standard_certificate(b: ModelBuilder, inst: Instance, pi_obj, rho_obj, x_obj):
    """Blocks ``pi`` (per group), ``rho`` (per covered index, in sorted index
    order) and ``x``, all binary, with the rows of X and the coupling rows
    pi_k + rho_j - x_j >= 0.  Returns (pi, rho, x) column indices."""
    pi = [b.add_binary(f"pi{k}", obj=float(pi_obj[k]), block="pi")
          for k in range(inst.num_groups)]
    rho = {int(j): b.add_binary(f"rho{j}", obj=float(rho_obj[j]), block="rho")
           for j in inst.covered}
    x = _add_x(b, inst, x_obj)
    for k, g in enumerate(inst.groups):
        for j in g:
            b.add_row({pi[k]: 1.0, rho[j]: 1.0, x[j]: -1.0}, ">=", 0.0)
    return pi, rho, x


def add_variant_certificate(b: ModelBuilder, inst: Instance, w_obj, rho_obj, x_obj):
    """Blocks ``w`` and ``alpha`` (selector binaries), ``rho`` (continuous),
    each per covered index, and ``x``, with the rows of X.  Returns
    (w, alpha, rho, x) column indices; ``add_selector_rows`` links them."""
    cov = [int(j) for j in inst.covered]
    w = {j: b.add_binary(f"w{j}", obj=float(w_obj[j]), block="w") for j in cov}
    alpha = {j: b.add_binary(f"a{j}", block="alpha") for j in cov}
    rho = {j: b.add_continuous(f"rho{j}", 0.0, np.inf, obj=float(rho_obj[j]), block="rho")
           for j in cov}
    return w, alpha, rho, _add_x(b, inst, x_obj)


def add_selector_rows(b: ModelBuilder, inst: Instance, w, alpha, rho, x) -> None:
    """Per group, rho_j + sum_s d_s w_s >= d_j x_j for each index and at most
    one alpha; per covered index, w_j >= alpha_j + x_j - 1."""
    for k, g in enumerate(inst.groups):
        wsum = {w[j]: float(inst.deviations[j]) for j in g}
        for j in g:
            row = dict(wsum)
            row[rho[j]] = row.get(rho[j], 0.0) + 1.0
            row[x[j]] = row.get(x[j], 0.0) - float(inst.deviations[j])
            b.add_row(row, ">=", 0.0)
        b.add_row({alpha[j]: 1.0 for j in g}, "<=", 1.0)
    for j in inst.covered:
        j = int(j)
        b.add_row({w[j]: 1.0, alpha[j]: -1.0, x[j]: -1.0}, ">=", -1.0)


def build_robust_milp(inst: Instance, gamma) -> MilpModel:
    """0-1 ILP: min gamma'pi + d'rho + c'x with pi_k + rho_j - x_j >= 0.

    Blocks ``pi``, ``rho``, ``x`` (see ``add_standard_certificate``).
    """
    gamma = _check_gamma(inst, gamma)
    b = ModelBuilder("robust")
    add_standard_certificate(b, inst, gamma, inst.deviations, inst.c_lower)
    return b.build(maximize=False)


def build_robust_variant_milp(inst: Instance, gamma) -> MilpModel:
    """Variant R(gamma) with budgets on 0-1 selector variables.

    Blocks ``w``, ``alpha``, ``rho``, ``x`` (see ``add_variant_certificate``).
    Per group the term sum_{s} d_s w_s plays the role of the continuous dual
    multiplier, restricted to its breakpoints.
    """
    gamma = _check_gamma(inst, gamma)
    b = ModelBuilder("robust_variant")
    w_obj = np.zeros(inst.n)
    for k, g in enumerate(inst.groups):
        w_obj[list(g)] = gamma[k] * inst.deviations[list(g)]
    cert = add_variant_certificate(b, inst, w_obj, np.ones(inst.n), inst.c_lower)
    add_selector_rows(b, inst, *cert)
    return b.build(maximize=False)


def relax_rho_x(model: MilpModel) -> MilpModel:
    """The ``tu_relaxed`` form of a standard model: rho and x in [0, 1]."""
    return relax_binaries(model, np.concatenate([model.blocks["rho"], model.blocks["x"]]))


def read_certificate(inst: Instance, model: MilpModel, values, mode: str) -> tuple:
    """(pi, rho, x, w) from a solved robust counterpart or master of ``mode``.

    x and the binaries are rounded; rho and w are spread over all n indices
    (zero outside the groups).  A ``tu_relaxed`` solve must return an
    integral x (else TuIntegralityError), and rho is rebuilt from (pi, x).
    In ``variant`` mode pi holds the per-group breakpoint values
    sum_j d_j w_j; elsewhere w is None.
    """
    values = np.asarray(values, dtype=float)

    def spread(name):
        out = np.zeros(inst.n)
        out[inst.covered] = values[model.blocks[name]]
        return out

    x = values[model.blocks["x"]]
    if mode == "tu_relaxed":
        frac = float(np.max(np.abs(x - np.round(x)))) if x.size else 0.0
        if frac > 1e-6:
            raise TuIntegralityError(
                f"relaxed solve returned fractional x (max deviation {frac:.2e})")
    x = np.round(x)
    if mode == "variant":
        w = np.round(spread("w"))
        pi = np.array([float(inst.deviations[list(g)] @ w[list(g)]) for g in inst.groups])
        return pi, spread("rho"), x, w
    pi = np.round(values[model.blocks["pi"]])
    rho = _repair_rho(inst, pi, x) if mode == "tu_relaxed" else np.round(spread("rho"))
    return pi, rho, x, None


def solve_robust(inst: Instance, gamma, mode: str = "standard",
                 config: Optional[SolverConfig] = None) -> RobustSolution:
    """Solve R(gamma) in the requested formulation."""
    gamma = _check_gamma(inst, gamma)
    if mode not in MODES:
        raise ValueError(f"unknown robust mode {mode!r}")
    if mode == "tu_relaxed" and not _declares_tu(inst):
        raise ValueError("tu_relaxed requires an instance declared totally unimodular")
    if mode == "variant":
        model = build_robust_variant_milp(inst, gamma)
    else:
        model = build_robust_milp(inst, gamma)
        if mode == "tu_relaxed":
            model = relax_rho_x(model)
    sol = _solve_or_raise(model, config)
    pi, rho, x, w = read_certificate(inst, model, sol.values, mode)
    out = RobustSolution(x=x, pi=pi, rho=rho, value=float(sol.objective),
                         formulation=mode, w=w)
    _check_certificate(inst, gamma, out,
                       robustness_value_variant if mode == "variant" else robustness_value)
    return out


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
