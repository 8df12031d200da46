"""The robust counterpart R(gamma): find x in X with minimal worst-case cost.

Three interchangeable MILP formulations, all over the same column blocks
``pi`` (per group), ``rho`` (per covered index) and ``x``:

* ``standard`` - the 0-1 ILP obtained by dualizing the inner worst-case LP
  and using that an optimal dual is 0-1.
* ``tu_relaxed`` - same model with rho and x relaxed to [0, 1]; valid when
  the nominal constraint matrix is totally unimodular (network instances),
  where the relaxed optimum is integral and rho can be rebuilt from (pi, x).
* ``variant`` - the fractional uncertainty model as the continuous dual of
  its inner LP (Bertsimas & Sim 2003): theta_k + rho_j >= d_j x_j with theta
  (held in ``pi``) and rho continuous, so x holds the only binaries.

With the 0-1 dual fixed to a pattern pi, the ``standard`` optimum is
gamma . pi + N(pi), where N(pi) is the nominal optimum of ``cost_for_pi``:
R(gamma) is a minimum over the 2^K patterns (the locally budgeted form of
Bertsimas & Sim's "n + 1 nominal problems").  So ``solve_robust`` in
``standard`` and ``tu_relaxed`` mode answers from the instance's pattern
table (``oracle.shared_pattern_table``) whenever one is cached, and builds
it first on ``PATTERN_KINDS`` instances with ``TABLE_MIN_K`` to
``TABLE_MAX_K`` groups (the upper bound is a measured crossover against
one robust MILP).  The answer is the pattern with the smallest nominal
value plus each active gamma_k, added in group order
(``PiEnumerationOracle.best_pattern``; ties go to the first pattern), so
its value equals the table's ``robust_value`` to the bit.  The ``variant`` mode, p-median and generic
instances, and K outside those bounds without a cached table solve the
MILP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .milp import (
    INCUMBENT_ONLY, MilpModel, ModelBuilder, SolverConfig, SolverLimitError,
    relax_binaries, solve_milp,
)
from .oracle import (
    PATTERN_KINDS, PiEnumerationOracle, cached_pattern_table, shared_pattern_table,
)
from .uncertainty import (
    Instance, _check_gamma, robustness_value, robustness_value_variant,
)


MODES = ("standard", "tu_relaxed", "variant")

# Largest K at which ``solve_robust`` builds a missing pattern table rather
# than solve the robust MILP: the largest K at which one table build beat
# one robust MILP in most measured cases.  SP 20/25/30, partitions ``r``
# and ``d``, seeds 0-2, interval start vector with delta = 0.5, min of 3 on
# a 2-core VM: the table won every case at K <= 8, 15 of 17 at K = 9
# (worst loss 29 against 17 ms) and 7 of 16 at K = 10.  The table's time
# doubles with each K; the MILP's varies from 6 ms to 2 s.
TABLE_MAX_K = 9

# Smallest K at which ``solve_robust`` builds a missing pattern table.  The
# table would be faster below it too (SP 10-20, K = 2-3: 0.3-0.5 against
# 3.5-6 ms, min of 5 on a 2-core VM), but there the robust MILP costs only
# a few milliseconds, and keeping it leaves the configured solver backend
# on the solve path of the smallest instances: perfbench's tests inject
# backend faults and count ``milp.calls`` on a K = 2/3 workload.  Until
# that hook moves to a layer every solve reaches, these instances keep the
# MILP unless their table is already cached.
TABLE_MIN_K = 4


class TuIntegralityError(RuntimeError):
    """Relaxed solve returned a fractional x on an instance declared TU."""


@dataclass
class RobustSolution:
    """Optimal robust solution plus its dual certificate.

    ``pi`` and ``rho`` are 0-1 in the standard forms; in the variant form
    they are the continuous dual (theta, rho), with each theta_k at a
    breakpoint: 0 or some d_j x_j with j in group k.  ``rho`` spans all n
    indices (zero outside the groups).
    """

    x: np.ndarray
    pi: np.ndarray
    rho: np.ndarray
    value: float
    formulation: str


def _add_x(b: ModelBuilder, inst: Instance, obj) -> list:
    """x binaries with objective ``obj`` (block ``x``) and the rows of X."""
    x = [b.add_binary(f"x{j}", obj=float(obj[j]), block="x") for j in range(inst.n)]
    b.add_rows(x, inst.x_coeffs, inst.x_senses, inst.x_rhs)
    return x


def add_standard_certificate(b: ModelBuilder, inst: Instance, pi_obj, rho_obj, x_obj,
                             binary: bool = True, x_coeff=None):
    """Blocks ``pi`` (per group), ``rho`` (per covered index, in sorted index
    order) and ``x``, with the rows of X and the coupling rows pi_k + rho_j -
    a_j x_j >= 0 (a = ``x_coeff``, or ones); pi and rho are binary, or
    continuous and nonnegative if not ``binary``.  Returns (pi, rho, x)."""
    add = b.add_binary if binary else b.add_continuous
    b.declare_block("pi", "rho")
    pi = [add(f"pi{k}", obj=float(pi_obj[k]), block="pi") for k in range(inst.num_groups)]
    rho = {int(j): add(f"rho{j}", obj=float(rho_obj[j]), block="rho") for j in inst.covered}
    x = _add_x(b, inst, x_obj)
    for k, g in enumerate(inst.groups):
        for j in g:
            a = 1.0 if x_coeff is None else float(x_coeff[j])
            b.add_row({pi[k]: 1.0, rho[j]: 1.0, x[j]: -a}, ">=", 0.0)
    return pi, rho, x


def build_robust_milp(inst: Instance, gamma) -> MilpModel:
    """0-1 ILP: min gamma'pi + d'rho + c'x with pi_k + rho_j - x_j >= 0.

    Blocks ``pi``, ``rho``, ``x`` (see ``add_standard_certificate``).
    """
    gamma = _check_gamma(inst, gamma)
    b = ModelBuilder("robust")
    add_standard_certificate(b, inst, gamma, inst.deviations, inst.c_lower)
    return b.build(maximize=False)


def build_robust_variant_milp(inst: Instance, gamma) -> MilpModel:
    """Variant R(gamma) through the continuous dual of its inner LP:
    min gamma'theta + sum_j rho_j + c'x with theta_k + rho_j - d_j x_j >= 0.

    Blocks ``pi`` (theta), ``rho`` (both continuous) and ``x``, as in
    ``add_standard_certificate``.
    """
    gamma = _check_gamma(inst, gamma)
    b = ModelBuilder("robust_variant")
    add_standard_certificate(b, inst, gamma, np.ones(inst.n), inst.c_lower,
                             binary=False, x_coeff=inst.deviations)
    return b.build(maximize=False)


def relax_rho_x(model: MilpModel) -> MilpModel:
    """The ``tu_relaxed`` form of a standard model: rho and x in [0, 1]."""
    return relax_binaries(model, np.concatenate([model.blocks["rho"], model.blocks["x"]]))


def read_certificate(inst: Instance, model: MilpModel, values, mode: str) -> tuple:
    """(pi, rho, x) from a solved robust counterpart or master of ``mode``.

    x is rounded; rho is spread over all n indices (zero outside the
    groups).  The variant master has selectors ``w`` in place of ``pi`` and
    gives pi_k = sum_{j in P_k} d_j w_j; other variant models give the
    continuous dual.  Elsewhere pi and rho are rounded, and a ``tu_relaxed``
    solve must return an integral x (else TuIntegralityError), with rho
    rebuilt from (pi, x).
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
    if mode != "variant":
        pi = np.round(values[model.blocks["pi"]])
        rho = _repair_rho(inst, pi, x) if mode == "tu_relaxed" else np.round(spread("rho"))
    elif "w" in model.blocks:
        w = np.round(spread("w"))
        pi = np.array([float(inst.deviations[list(g)] @ w[list(g)]) for g in inst.groups])
        rho = spread("rho")
    else:
        pi, rho = values[model.blocks["pi"]], spread("rho")
    # rounding keeps the sign of a solver's tiny negative values; adding 0.0
    # turns every -0.0 into 0.0
    return pi + 0.0, rho + 0.0, x + 0.0


def solve_robust(inst: Instance, gamma, mode: str = "standard",
                 config: Optional[SolverConfig] = None) -> RobustSolution:
    """Solve R(gamma) in the requested formulation.

    Budgets must be finite and nonnegative.  In ``standard`` and
    ``tu_relaxed`` mode the answer comes from the instance's pattern table
    when one is cached or the instance qualifies for one (see the module
    docstring).  ``config.time_limit`` bounds the whole call: it is the
    deadline of a table build, and a table unfinished then leaves the solve
    to the MILP with the time left.  The table's pattern gives the 0-1
    certificate pi, its nominal solution x, and rho rebuilt from (pi, x).
    """
    gamma = _check_gamma(inst, gamma)
    bad = ~np.isfinite(gamma) | (gamma < 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"budget gamma[{k}] = {gamma[k]} is not finite and nonnegative")
    if mode not in MODES:
        raise ValueError(f"unknown robust mode {mode!r}")
    if mode == "tu_relaxed" and not _declares_tu(inst):
        raise ValueError("tu_relaxed requires an instance declared totally unimodular")
    deadline = None
    if config is not None and config.time_limit is not None:
        deadline = time.monotonic() + config.time_limit
    table = None if mode == "variant" else _pattern_table(inst, deadline)
    if table is None:
        if deadline is not None:
            config = replace(config, time_limit=max(0.0, deadline - time.monotonic()))
        return _solve_robust_milp(inst, gamma, mode, config)
    i, value = table.best_pattern(gamma)
    pi, rho, x = table_certificate(inst, table, i)
    out = RobustSolution(x=x, pi=pi, rho=rho, value=value, formulation=mode)
    _check_certificate(inst, gamma, out, robustness_value)
    return out


def table_certificate(inst: Instance, table: PiEnumerationOracle, i: int) -> tuple:
    """(pi, rho, x) of the table's pattern i: the pattern, its nominal
    solution, and rho rebuilt from (pi, x)."""
    pi = table.patterns[i].copy()
    x = table.solutions[i].astype(float)
    return pi, _repair_rho(inst, pi, x), x


def _pattern_table(inst: Instance, deadline: Optional[float]) -> Optional[PiEnumerationOracle]:
    """The shared pattern table ``solve_robust`` reads, or None for the MILP."""
    table = cached_pattern_table(inst)
    if (table is not None or inst.kind not in PATTERN_KINDS
            or not TABLE_MIN_K <= inst.num_groups <= TABLE_MAX_K):
        return table
    try:
        return shared_pattern_table(inst, deadline=deadline)
    except TimeoutError:
        return None


def _solve_robust_milp(inst: Instance, gamma, mode: str = "standard",
                       config: Optional[SolverConfig] = None) -> RobustSolution:
    """R(gamma) through the MILP of ``mode``, with its certificate checked."""
    if mode == "variant":
        model = build_robust_variant_milp(inst, gamma)
    else:
        model = build_robust_milp(inst, gamma)
        if mode == "tu_relaxed":
            model = relax_rho_x(model)
    sol = _solve_or_raise(model, config)
    pi, rho, x = read_certificate(inst, model, sol.values, mode)
    out = RobustSolution(x=x, pi=pi, rho=rho, value=float(sol.objective),
                         formulation=mode)
    _check_certificate(inst, gamma, out,
                       robustness_value_variant if mode == "variant" else robustness_value)
    return out


def _declares_tu(inst: Instance) -> bool:
    return bool(inst.metadata.get("tu", inst.kind == "SP"))


def _repair_rho(inst: Instance, pi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Optimal rho given (pi, x): rho_j = (1 - pi_k) x_j on covered indices.

    An index outside every group (group -1) reads the appended 1.0, so its
    rho is 0 * x_j = 0.0 for the 0-1 x.
    """
    return (1.0 - np.append(pi, 1.0)[inst.group_of()]) * x


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
