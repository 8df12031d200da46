"""Cutting-plane engine producing epsilon-optimal multiparametric robust sets.

The loop alternates two exact solves: the master problem searches the whole
budget domain for the gamma where the stored solutions are weakest (their
best certified value minus the true robust optimum), and the robust
counterpart at that gamma contributes a new solution plus its dual
certificate.  The master's optimum is itself a robust solution for the
gamma it returns, so each iteration appends one certified entry; the loop
stops once the certified worst-case gap drops to epsilon.

Master variants: one generic build that embeds the domain linearly, plus
the specialized forms (pure 0-1 master for interval domains, scalar-alpha
master for segments, slack-budget master for budgeted domains, and the
selector-variable master for the fractional uncertainty variant).  On an
interval domain with few enough groups (see ``uses_pattern_master``) the
0-1 master is replaced by the pattern master: once the activation pattern
pi is fixed, the interval master's optimum is ``min_e [const_e + pi_e .
gamma(pi)] - L . pi - nom(c(pi))``, and ``nom(c(pi))`` does not depend on
the history, so 2^K nominal solves per run turn every master into a numpy
argmax.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import oracle
from .milp import MilpModel, ModelBuilder, SolverConfig, relax_binaries, solve_milp
from .robust import (
    RobustSolution, TuIntegralityError, _check_certificate, _declares_tu, _repair_rho,
    cost_for_pi, solve_robust,
)
from .uncertainty import (
    Instance, OmegaSpec, robustness_value, robustness_value_variant,
    solution_signature,
)

STOP_TOL = 1e-9

# Largest group count served by the pattern master, which pays 2^K nominal
# solves up front; above it the interval master stays a MILP.  Measured
# against the MILP master on shortest-path instances (CHANGES.md): with
# Dijkstra as the nominal solver the pattern master still won at K = 16,
# the pattern oracle's own limit.
PATTERN_MAX_K = 16

# Instance kinds whose nominal problem the pattern table solves with
# ``oracle.nominal_minimize`` at a measured cost: Dijkstra on shortest-path
# instances, enumeration on the toy family.  The p-median scan costs
# comb(l, p) passes per pattern and has no measured crossover yet, so those
# instances stay on the MILP master.
PATTERN_KINDS = ("SP", "TOY")


@dataclass
class Budget:
    max_iters: int = 500
    time_limit: float = 3600.0


@dataclass
class HistoryEntry:
    """One stored solution with its certificate and provenance."""

    pi: np.ndarray          # 0-1 activations, or per-group breakpoint values
    rho: np.ndarray
    x: np.ndarray
    gamma: np.ndarray
    q_value: Optional[float] = None   # master value when discovered; None for the seed
    w: Optional[np.ndarray] = None    # variant selector certificate


@dataclass
class MprsResult:
    """Ordered iteration history plus the distinct-solution summary."""

    history: list
    q_values: list
    epsilon: float
    stop_reason: str                  # epsilon_met | stalled | budget_exceeded
    mode: str
    omega: OmegaSpec
    gamma_init: np.ndarray
    init_value: float                 # v(R(gamma_init))
    relative_error_bounds: list
    distinct_x: list
    distinct_signatures: list
    elapsed: float
    instance: Optional[Instance] = field(default=None, repr=False)

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def num_distinct(self) -> int:
        return len(self.distinct_signatures)

    @property
    def first_bound_pct(self) -> float:
        if not self.relative_error_bounds:
            return 0.0
        return 100.0 * self.relative_error_bounds[0]

    def solutions(self) -> list:
        return [np.asarray(t, dtype=float) for t in self.distinct_x]


def stored_value(inst: Instance, entry: HistoryEntry, gamma, variant: bool) -> float:
    """Certified upper bound of the entry's robustness at gamma."""
    gamma = np.asarray(gamma, dtype=float)
    if variant:
        return float(gamma @ entry.pi + entry.rho.sum() + inst.c_lower @ entry.x)
    return float(gamma @ entry.pi + inst.deviations @ entry.rho + inst.c_lower @ entry.x)


# ---------------------------------------------------------------------------
# master builders (standard certificates)
# ---------------------------------------------------------------------------

def _entry_const(inst: Instance, e: HistoryEntry, variant: bool = False) -> float:
    if variant:
        return float(e.rho.sum() + inst.c_lower @ e.x)
    return float(inst.deviations @ e.rho + inst.c_lower @ e.x)


def _require_history(history) -> list:
    if not history:
        raise ValueError("master problem needs at least one stored solution")
    return list(history)


def _std_blocks(b: ModelBuilder, inst: Instance, pi_obj=None):
    """pi, rho, x binaries with coupling and feasible-set rows."""
    pi = [b.add_binary(f"pi{k}",
                       obj=0.0 if pi_obj is None else -float(pi_obj[k]))
          for k in range(inst.num_groups)]
    cov = inst.covered
    rho = {int(j): b.add_binary(f"rho{j}", obj=-float(inst.deviations[j])) for j in cov}
    x = [b.add_binary(f"x{j}", obj=-float(inst.c_lower[j])) for j in range(inst.n)]
    for i in range(inst.x_coeffs.shape[0]):
        coeffs = {x[j]: float(inst.x_coeffs[i, j])
                  for j in np.flatnonzero(inst.x_coeffs[i])}
        b.add_row(coeffs, int(inst.x_senses[i]), float(inst.x_rhs[i]))
    for k, g in enumerate(inst.groups):
        for j in g:
            b.add_row({pi[k]: 1.0, rho[j]: 1.0, x[j]: -1.0}, ">=", 0.0)
    return pi, rho, x


def _omega_gamma_block(b: ModelBuilder, omega: OmegaSpec):
    """Continuous gamma variables constrained to the domain; returns indices."""
    K = omega.num_groups
    U = omega.upper_bound
    if omega.kind == "interval":
        return [b.add_continuous(f"g{k}", float(omega.lower[k]), float(U[k]))
                for k in range(K)]
    if omega.kind == "segment":
        gam = [b.add_continuous(f"g{k}", 0.0, float(U[k])) for k in range(K)]
        a = b.add_continuous("alpha", omega.alpha_lo, omega.alpha_hi)
        for k in range(K):
            b.add_row({gam[k]: 1.0, a: -float(omega.gamma0[k])}, "==", 0.0)
        return gam
    gam = [b.add_continuous(f"g{k}", float(omega.gamma_base[k]), float(U[k]))
           for k in range(K)]
    b.add_row({g: 1.0 for g in gam}, "<=",
              float(omega.gamma_base.sum() + omega.budget))
    return gam


def build_q_general(inst: Instance, omega: OmegaSpec, history) -> MilpModel:
    """Generic master over (sigma, gamma, w, pi, rho, x) for any linear domain."""
    history = _require_history(history)
    U = omega.upper_bound
    b = ModelBuilder("q_general")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    gam = _omega_gamma_block(b, omega)
    w = [b.add_continuous(f"w{k}", 0.0, np.inf, obj=-1.0)
         for k in range(inst.num_groups)]
    pi, rho, x = _std_blocks(b, inst)
    for e in history:
        row = {sigma: 1.0}
        for k in range(inst.num_groups):
            if e.pi[k]:
                row[gam[k]] = row.get(gam[k], 0.0) - float(e.pi[k])
        b.add_row(row, "<=", _entry_const(inst, e))
    for k in range(inst.num_groups):
        b.add_row({w[k]: 1.0, gam[k]: -1.0, pi[k]: -float(U[k])}, ">=", -float(U[k]))
    return b.build(maximize=True)


def build_q_interval(inst: Instance, omega: OmegaSpec, history) -> MilpModel:
    """Interval master: pure 0-1 program, gamma eliminated through pi."""
    if omega.kind != "interval":
        raise ValueError("interval master needs an interval domain")
    history = _require_history(history)
    L, U = omega.lower, omega.upper
    b = ModelBuilder("q_interval")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    pi, rho, x = _std_blocks(b, inst, pi_obj=L)
    for e in history:
        row = {sigma: 1.0}
        rhs = _entry_const(inst, e) + float(U @ e.pi)
        for k in range(inst.num_groups):
            f = (U[k] - L[k]) * e.pi[k]
            if f:
                row[pi[k]] = row.get(pi[k], 0.0) + float(f)
        b.add_row(row, "<=", rhs)
    return b.build(maximize=True)


def build_q_segment(inst: Instance, omega: OmegaSpec, history) -> MilpModel:
    """Segment master with the scalar position variable alpha."""
    if omega.kind != "segment":
        raise ValueError("segment master needs a segment domain")
    history = _require_history(history)
    g0 = omega.gamma0
    ah = omega.alpha_hi
    b = ModelBuilder("q_segment")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    a = b.add_continuous("alpha", omega.alpha_lo, omega.alpha_hi)
    w = [b.add_continuous(f"w{k}", 0.0, np.inf, obj=-1.0)
         for k in range(inst.num_groups)]
    pi, rho, x = _std_blocks(b, inst)
    for e in history:
        coeff = float(g0 @ e.pi)
        row = {sigma: 1.0}
        if coeff:
            row[a] = -coeff
        b.add_row(row, "<=", _entry_const(inst, e))
    for k in range(inst.num_groups):
        b.add_row({w[k]: 1.0, a: -float(g0[k]), pi[k]: -float(ah * g0[k])},
                  ">=", -float(ah * g0[k]))
    return b.build(maximize=True)


def build_q_budgeted(inst: Instance, omega: OmegaSpec, history) -> MilpModel:
    """Budgeted master with per-group slack variables beta."""
    if omega.kind != "budgeted":
        raise ValueError("budgeted master needs a budgeted domain")
    history = _require_history(history)
    base, spread = omega.gamma_base, omega.spread
    UB = base + spread
    b = ModelBuilder("q_budgeted")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    beta = [b.add_continuous(f"b{k}", 0.0, float(spread[k]))
            for k in range(inst.num_groups)]
    w = [b.add_continuous(f"w{k}", 0.0, np.inf, obj=-1.0)
         for k in range(inst.num_groups)]
    pi, rho, x = _std_blocks(b, inst)
    b.add_row({bk: 1.0 for bk in beta}, "<=", float(omega.budget))
    for e in history:
        row = {sigma: 1.0}
        for k in range(inst.num_groups):
            if e.pi[k]:
                row[beta[k]] = row.get(beta[k], 0.0) - float(e.pi[k])
        b.add_row(row, "<=", _entry_const(inst, e) + float(base @ e.pi))
    for k in range(inst.num_groups):
        b.add_row({w[k]: 1.0, beta[k]: -1.0, pi[k]: -float(UB[k])},
                  ">=", -float(spread[k]))
    return b.build(maximize=True)


def build_q_variant(inst: Instance, omega: OmegaSpec, history) -> MilpModel:
    """Variant master: budgets multiply the 0-1 selector variables.

    History certificates enter through their per-group breakpoint values;
    the bilinear gamma-times-selector terms of the new candidate are
    linearized with the domain upper bound as the big constant.
    """
    history = _require_history(history)
    U = omega.upper_bound
    kof = inst.group_of()
    cov = [int(j) for j in inst.covered]
    b = ModelBuilder("q_variant")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    gam = _omega_gamma_block(b, omega)
    z = {j: b.add_continuous(f"z{j}", 0.0, np.inf, obj=-float(inst.deviations[j]))
         for j in cov}
    w = {j: b.add_binary(f"w{j}") for j in cov}
    alpha = {j: b.add_binary(f"a{j}") for j in cov}
    rho = {j: b.add_continuous(f"rho{j}", 0.0, np.inf, obj=-1.0) for j in cov}
    x = [b.add_binary(f"x{j}", obj=-float(inst.c_lower[j])) for j in range(inst.n)]
    for i in range(inst.x_coeffs.shape[0]):
        coeffs = {x[j]: float(inst.x_coeffs[i, j])
                  for j in np.flatnonzero(inst.x_coeffs[i])}
        b.add_row(coeffs, int(inst.x_senses[i]), float(inst.x_rhs[i]))
    for e in history:
        row = {sigma: 1.0}
        for k in range(inst.num_groups):
            if e.pi[k]:
                row[gam[k]] = row.get(gam[k], 0.0) - float(e.pi[k])
        b.add_row(row, "<=", _entry_const(inst, e, variant=True))
    for j in cov:
        k = kof[j]
        b.add_row({z[j]: 1.0, gam[k]: -1.0, w[j]: -float(U[k])}, ">=", -float(U[k]))
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
    return b.build(maximize=True)


# ---------------------------------------------------------------------------
# layouts for extracting the master optimum
# ---------------------------------------------------------------------------

def _extract_standard(inst: Instance, omega: OmegaSpec, kind: str, values):
    """Returns (gamma, pi, rho_full, x) from a solved standard master."""
    K = inst.num_groups
    cov = inst.covered
    nc = cov.size
    if kind == "interval":
        pi = values[1:1 + K]
        rest = values[1 + K:]
        gamma = omega.lower * np.round(pi) + omega.upper * (1.0 - np.round(pi))
    elif kind == "segment":
        a = values[1]
        pi = values[2 + K:2 + 2 * K]
        rest = values[2 + 2 * K:]
        gamma = a * omega.gamma0
    elif kind == "budgeted":
        beta = values[1:1 + K]
        pi = values[1 + 2 * K:1 + 3 * K]
        rest = values[1 + 3 * K:]
        gamma = omega.gamma_base + beta
    else:  # general layout
        aux = 1 if omega.kind == "segment" else 0
        gamma = values[1:1 + K].copy()
        pi = values[1 + K + aux + K:1 + K + aux + 2 * K]
        rest = values[1 + K + aux + 2 * K:]
    rho = np.zeros(inst.n)
    rho[cov] = rest[:nc]
    x = rest[nc:nc + inst.n]
    return np.asarray(gamma, dtype=float), pi, rho, x


def _extract_variant(inst: Instance, omega: OmegaSpec, values):
    K = inst.num_groups
    aux = 1 if omega.kind == "segment" else 0
    cov = inst.covered
    nc = cov.size
    off = 1 + K + aux
    gamma = values[1:1 + K].copy()
    z = values[off:off + nc]
    w = np.zeros(inst.n)
    w[cov] = values[off + nc:off + 2 * nc]
    alpha = np.zeros(inst.n)
    alpha[cov] = values[off + 2 * nc:off + 3 * nc]
    rho = np.zeros(inst.n)
    rho[cov] = values[off + 3 * nc:off + 4 * nc]
    x = values[off + 4 * nc:off + 4 * nc + inst.n]
    return gamma, w, alpha, rho, x


_STANDARD_BUILDERS = {
    "interval": build_q_interval,
    "segment": build_q_segment,
    "budgeted": build_q_budgeted,
}


# ---------------------------------------------------------------------------
# pattern master (interval domains)
# ---------------------------------------------------------------------------

@dataclass
class PatternTable:
    """The 2^K activation patterns of an interval domain and their nominal optima.

    Row i holds pattern ``patterns[i]`` (the ordering of
    ``itertools.product((0, 1), repeat=K)``), its domain vertex
    ``gammas[i] = L*pi + U*(1-pi)``, the nominal optimum ``nominal[i]`` of
    ``c(pi)`` with its solution ``solutions[i]``, and ``own[i] = L.pi +
    nominal[i]``, the robust optimum at that vertex.
    """

    patterns: np.ndarray        # (P, K) 0-1 floats
    gammas: np.ndarray          # (P, K)
    nominal: np.ndarray         # (P,)
    solutions: np.ndarray       # (P, n) uint8
    own: np.ndarray             # (P,)
    build_s: float

    @property
    def size(self) -> int:
        return self.patterns.shape[0]


def build_pattern_table(inst: Instance, omega: OmegaSpec,
                        deadline: Optional[float] = None) -> Optional[PatternTable]:
    """One nominal solve per activation pattern of an interval domain.

    Returns None once ``time.monotonic()`` passes ``deadline`` before the
    table is complete.
    """
    if omega.kind != "interval":
        raise ValueError("pattern table needs an interval domain")
    t0 = time.monotonic()
    K = inst.num_groups
    P = 1 << K
    bits = np.arange(K - 1, -1, -1)
    patterns = ((np.arange(P)[:, None] >> bits) & 1).astype(float)
    gammas = omega.lower * patterns + omega.upper * (1.0 - patterns)
    nominal = np.empty(P)
    solutions = np.empty((P, inst.n), dtype=np.uint8)
    for i in range(P):
        if deadline is not None and time.monotonic() > deadline:
            return None
        nominal[i], x = oracle.nominal_minimize(inst, cost_for_pi(inst, patterns[i]))
        solutions[i] = np.round(x)
    own = patterns @ omega.lower + nominal
    return PatternTable(patterns=patterns, gammas=gammas, nominal=nominal,
                        solutions=solutions, own=own, build_s=time.monotonic() - t0)


class PatternMaster:
    """Interval master over a pattern table: Q(pi) = best(pi) - own(pi).

    ``best[i]`` is the smallest certified value any stored entry reaches at
    vertex i; each new entry lowers it in O(2^K K).
    """

    def __init__(self, inst: Instance, table: PatternTable):
        self.inst = inst
        self.table = table
        self.best = np.full(table.size, np.inf)

    def add(self, e: HistoryEntry) -> None:
        np.minimum(self.best, _entry_const(self.inst, e) + self.table.gammas @ e.pi,
                   out=self.best)

    def solve(self) -> tuple:
        """(pattern index, master value); ties go to the first index."""
        q = self.best - self.table.own
        i = int(np.argmax(q))
        return i, float(q[i])


def uses_pattern_master(inst: Instance, omega: OmegaSpec, mode: str) -> bool:
    """Whether ``run_aq`` serves this domain and mode with the pattern master."""
    return (omega.kind == "interval" and mode in ("standard", "tu_relaxed")
            and inst.kind in PATTERN_KINDS and inst.num_groups <= PATTERN_MAX_K)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def run_aq(inst: Instance, omega: OmegaSpec, epsilon: float,
           mode: str = "standard",
           config: Optional[SolverConfig] = None,
           budget: Optional[Budget] = None,
           trace: Optional[Callable[[dict], None]] = None) -> MprsResult:
    """Iterate master/robust solves until the certified gap is at most epsilon.

    ``mode`` selects the certificates: ``standard`` (0-1 masters),
    ``tu_relaxed`` (rho and x relaxed inside both solves; network instances
    only), or ``variant`` (fractional uncertainty).  The returned history
    always starts with the robust optimum at the domain's start vector.
    Interval domains with few enough groups use the pattern master (outside
    ``variant`` mode, see ``uses_pattern_master``); every other case solves
    MILP masters.

    The loop stops with ``epsilon_met`` once the master value is at most
    epsilon, with ``stalled`` when the master returns an entry already
    stored while its value is still above epsilon (the residual stays in
    ``q_values``), and with ``budget_exceeded`` at the iteration or time
    limit.  ``trace`` receives one header record, then one record per
    iteration.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if inst.num_groups != omega.num_groups:
        raise ValueError("omega dimension does not match the instance groups")
    if mode not in ("standard", "tu_relaxed", "variant"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "tu_relaxed" and not _declares_tu(inst):
        raise ValueError("tu_relaxed requires an instance declared totally unimodular")
    budget = budget or Budget()
    t0 = time.monotonic()

    gamma_init = np.asarray(omega.start_gamma, dtype=float)
    master = None
    if uses_pattern_master(inst, omega, mode):
        # a table left unfinished at the time limit falls back to the MILP
        # seed, after which the loop stops on the limit
        table = build_pattern_table(inst, omega, deadline=t0 + budget.time_limit)
        if table is not None:
            master = PatternMaster(inst, table)
    if master is not None:
        seed = _pattern_seed(inst, master.table, gamma_init, mode)
    else:
        seed = solve_robust(inst, gamma_init, mode=mode, config=config)
    init_value = seed.value
    history = [HistoryEntry(pi=seed.pi.copy(), rho=seed.rho.copy(),
                            x=seed.x.copy(), gamma=gamma_init,
                            q_value=None, w=None if seed.w is None else seed.w.copy())]
    if master is not None:
        master.add(history[0])
    q_values: list = []
    rel_bounds: list = []
    stop_reason = "budget_exceeded"
    seen = {_triple_key(history[0])}
    seen_x = {_x_key(history[0].x)}
    if trace is not None:
        trace({"record": "header", "mode": mode, "omega": omega.kind,
               "master": "milp" if master is None else "pattern",
               "pattern_solves": 0 if master is None else master.table.size,
               "pattern_build_s": 0.0 if master is None else master.table.build_s})

    while True:
        if len(q_values) >= budget.max_iters:
            break
        if time.monotonic() - t0 > budget.time_limit:
            break
        t_master = time.monotonic()
        if master is not None:
            i, vq = master.solve()
            gamma_star = master.table.gammas[i]
        else:
            sol, kind = _solve_milp_master(inst, omega, history, mode, config)
            vq = float(sol.objective)
            gamma_star = _extract_gamma(inst, omega, kind, mode, sol.values)
        master_s = time.monotonic() - t_master
        q_values.append(vq)
        rel_bounds.append(vq / init_value if abs(init_value) > 1e-12 else np.inf)
        if trace is not None:
            trace({"iteration": len(q_values), "q_value": vq,
                   "gamma": [float(v) for v in gamma_star],
                   "distinct": len(seen_x),
                   "master": "milp" if master is None else "pattern",
                   "master_s": master_s,
                   "elapsed": time.monotonic() - t0})
        if vq <= epsilon + STOP_TOL:
            stop_reason = "epsilon_met"
            break
        if master is not None:
            entry = _pattern_entry(inst, master.table, i, vq)
        else:
            entry = _extract_entry(inst, omega, kind, mode, sol.values, vq)
        key = _triple_key(entry)
        if key in seen:
            # exact arithmetic forbids a repeat with a positive gap: the
            # residual is solver noise or a faulty master, so stop on it
            stop_reason = "stalled"
            break
        seen.add(key)
        seen_x.add(_x_key(entry.x))
        history.append(entry)
        if master is not None:
            master.add(entry)

    dx, dsig = _distinct(inst, history)
    return MprsResult(
        history=history, q_values=q_values, epsilon=epsilon,
        stop_reason=stop_reason, mode=mode, omega=omega,
        gamma_init=gamma_init, init_value=init_value,
        relative_error_bounds=rel_bounds,
        distinct_x=dx, distinct_signatures=dsig,
        elapsed=time.monotonic() - t0, instance=inst)


def _pattern_seed(inst: Instance, table: PatternTable, gamma_init: np.ndarray,
                  mode: str) -> RobustSolution:
    """Robust optimum at the start vector: the pattern minimizing gamma.pi + N[pi]."""
    i = int(np.argmin(table.patterns @ gamma_init + table.nominal))
    pi = table.patterns[i].copy()
    x = table.solutions[i].astype(float)
    seed = RobustSolution(x=x, pi=pi, rho=_repair_rho(inst, pi, x),
                          value=float(gamma_init @ pi + table.nominal[i]),
                          formulation=mode)
    _check_certificate(inst, gamma_init, seed, robustness_value)
    return seed


def _pattern_entry(inst: Instance, table: PatternTable, i: int, vq: float) -> HistoryEntry:
    """Entry for pattern i at its vertex, with rho rebuilt from (pi, x)."""
    pi = table.patterns[i].copy()
    x = table.solutions[i].astype(float)
    return HistoryEntry(pi=pi, rho=_repair_rho(inst, pi, x), x=x,
                        gamma=table.gammas[i].copy(), q_value=vq)


def _solve_milp_master(inst, omega, history, mode, config):
    model, kind = _build_master(inst, omega, history, mode)
    if mode == "tu_relaxed":
        model = relax_binaries(model, _relaxable_indices(model))
    sol = solve_milp(model, config)
    if sol.status == "unbounded":
        raise RuntimeError("master problem unbounded: construction bug")
    if sol.status != "optimal":
        raise RuntimeError(f"master solve failed with status {sol.status}")
    return sol, kind


def _build_master(inst, omega, history, mode):
    if mode == "variant":
        return build_q_variant(inst, omega, history), "variant"
    builder = _STANDARD_BUILDERS.get(omega.kind, build_q_general)
    kind = omega.kind if omega.kind in _STANDARD_BUILDERS else "general"
    return builder(inst, omega, history), kind


def _relaxable_indices(model: MilpModel) -> list:
    """rho and x binaries of a standard master (names rho*/x*)."""
    return [j for j in range(model.num_vars)
            if model.is_binary[j]
            and (model.var_name(j).startswith("rho") or model.var_name(j).startswith("x"))]


def _extract_gamma(inst, omega, kind, mode, values) -> np.ndarray:
    if mode == "variant":
        return _extract_variant(inst, omega, values)[0]
    return _extract_standard(inst, omega, kind, values)[0]


def _extract_entry(inst, omega, kind, mode, values, vq) -> HistoryEntry:
    if mode == "variant":
        gamma, w, alpha, rho, x = _extract_variant(inst, omega, values)
        x = np.round(x)
        pi = np.array([float(inst.deviations[list(g)] @ np.round(w[list(g)]))
                       for g in inst.groups])
        return HistoryEntry(pi=pi, rho=rho, x=x, gamma=gamma, q_value=vq,
                            w=np.round(w))
    gamma, pi, rho, x = _extract_standard(inst, omega, kind, values)
    if mode == "tu_relaxed":
        frac = float(np.max(np.abs(x - np.round(x)))) if x.size else 0.0
        if frac > 1e-6:
            raise TuIntegralityError(
                f"relaxed master returned fractional x (max deviation {frac:.2e})")
        x = np.round(x)
        pi = np.round(pi)
        rho = _repair_rho(inst, pi, x)
    else:
        pi = np.round(pi)
        rho = np.round(rho)
        x = np.round(x)
    return HistoryEntry(pi=pi, rho=rho, x=x, gamma=np.asarray(gamma, float),
                        q_value=vq)


def _x_key(x) -> tuple:
    return tuple(int(round(v)) for v in x)


def _triple_key(e: HistoryEntry) -> tuple:
    return (tuple(np.round(np.asarray(e.pi, float), 9)),
            tuple(np.round(np.asarray(e.rho, float), 9)),
            _x_key(e.x))


def _distinct(inst: Instance, history) -> tuple:
    xs, sigs = [], []
    seen_x, seen_s = set(), set()
    for e in history:
        tx = _x_key(e.x)
        if tx not in seen_x:
            seen_x.add(tx)
            xs.append(tx)
        ts = solution_signature(inst, e.x)
        if ts not in seen_s:
            seen_s.add(ts)
            sigs.append(ts)
    return xs, sigs


def pick_best(result: MprsResult, gamma=None, cost=None):
    """Best stored entry for a scenario; ties break to the smallest index.

    Exactly one of ``gamma`` (budget vector; robustness comparison in the
    result's uncertainty model) or ``cost`` (plain cost vector) is given.
    Returns (index into the history, value).
    """
    if (gamma is None) == (cost is None):
        raise ValueError("give exactly one of gamma or cost")
    inst = result.instance
    if inst is None:
        raise ValueError("result carries no instance reference")
    if gamma is not None:
        f = robustness_value_variant if result.mode == "variant" else robustness_value
        vals = [f(inst, e.x, gamma) for e in result.history]
    else:
        c = np.asarray(cost, dtype=float)
        vals = [float(c @ e.x) for e in result.history]
    i = int(np.argmin(vals))
    return i, float(vals[i])


# ---------------------------------------------------------------------------
# generic engine for nominal problems with box-parameterized costs
# ---------------------------------------------------------------------------

@dataclass
class NominalMprsResult:
    history: list               # x vectors in discovery order
    q_values: list
    epsilon: float
    stop_reason: str
    distinct_x: list
    elapsed: float


def build_nominal_q_plus(x_model: MilpModel, lower, upper, history) -> MilpModel:
    """Appendix-style pure 0-1 master for a cost box over binary variables."""
    history = _require_history(history)
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    b = ModelBuilder("nominal_q_plus")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    x = [b.add_binary(f"x{j}", obj=-float(lower[j])) for j in range(x_model.num_vars)]
    for i in range(x_model.num_rows):
        coeffs = {x[j]: float(x_model.row_coeffs[i, j])
                  for j in np.flatnonzero(x_model.row_coeffs[i])}
        b.add_row(coeffs, int(x_model.row_senses[i]), float(x_model.row_rhs[i]))
    for xi in history:
        row = {sigma: 1.0}
        for j in range(x_model.num_vars):
            f = (upper[j] - lower[j]) * xi[j]
            if f:
                row[x[j]] = row.get(x[j], 0.0) + float(f)
        b.add_row(row, "<=", float(upper @ xi))
    return b.build(maximize=True)


def build_nominal_q_general(x_model: MilpModel, lower, upper, history) -> MilpModel:
    """Master with explicit cost variables and the product linearization."""
    history = _require_history(history)
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    n = x_model.num_vars
    b = ModelBuilder("nominal_q")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    cvars = [b.add_continuous(f"c{j}", float(lower[j]), float(upper[j]))
             for j in range(n)]
    w = [b.add_continuous(f"w{j}", 0.0, np.inf, obj=-1.0) for j in range(n)]
    x = [b.add_binary(f"x{j}") for j in range(n)]
    for i in range(x_model.num_rows):
        coeffs = {x[j]: float(x_model.row_coeffs[i, j])
                  for j in np.flatnonzero(x_model.row_coeffs[i])}
        b.add_row(coeffs, int(x_model.row_senses[i]), float(x_model.row_rhs[i]))
    for xi in history:
        row = {sigma: 1.0}
        for j in range(n):
            if xi[j]:
                row[cvars[j]] = row.get(cvars[j], 0.0) - float(xi[j])
        b.add_row(row, "<=", 0.0)
    for j in range(n):
        b.add_row({w[j]: 1.0, cvars[j]: -1.0, x[j]: -float(upper[j])},
                  ">=", -float(upper[j]))
    return b.build(maximize=True)


def run_multiparametric_nominal(x_model: MilpModel, lower, upper, epsilon: float,
                                config: Optional[SolverConfig] = None,
                                budget: Optional[Budget] = None,
                                use_general: bool = False) -> NominalMprsResult:
    """Solution set covering a box of cost vectors over an all-binary model.

    The budgeted-uncertainty loop is this engine instantiated with the
    robust counterpart's certificates; here the parameters are the costs
    themselves, so the master needs only the stored x vectors.
    """
    if x_model.num_binary != x_model.num_vars:
        raise ValueError("cost parameters must multiply 0-1 variables only")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (x_model.num_vars,) or upper.shape != lower.shape:
        raise ValueError("bound vectors must match the variable count")
    if np.any(lower < 0) or np.any(lower > upper):
        raise ValueError("need 0 <= lower <= upper costs")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    budget = budget or Budget()
    t0 = time.monotonic()

    from dataclasses import replace
    first = solve_milp(replace(x_model, objective=lower, maximize=False), config)
    if first.status != "optimal":
        raise RuntimeError(f"nominal solve failed: {first.status}")
    history = [np.round(first.values)]
    q_values: list = []
    stop_reason = "budget_exceeded"
    build = build_nominal_q_general if use_general else build_nominal_q_plus
    while len(q_values) < budget.max_iters and time.monotonic() - t0 <= budget.time_limit:
        model = build(x_model, lower, upper, history)
        sol = solve_milp(model, config)
        if sol.status != "optimal":
            raise RuntimeError(f"nominal master failed: {sol.status}")
        vq = float(sol.objective)
        q_values.append(vq)
        if vq <= epsilon + STOP_TOL:
            stop_reason = "epsilon_met"
            break
        x = np.round(sol.values[-x_model.num_vars:])
        if any(np.array_equal(x, h) for h in history):
            stop_reason = "stalled"
            break
        history.append(x)
    dx = []
    seen = set()
    for h in history:
        t = tuple(int(v) for v in h)
        if t not in seen:
            seen.add(t)
            dx.append(t)
    return NominalMprsResult(history=history, q_values=q_values, epsilon=epsilon,
                             stop_reason=stop_reason, distinct_x=dx,
                             elapsed=time.monotonic() - t0)
