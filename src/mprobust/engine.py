"""Cutting-plane engine producing epsilon-optimal multiparametric robust sets.

The loop alternates two exact solves: the master problem searches the whole
budget domain for the gamma where the stored solutions are weakest (their
best certified value minus the true robust optimum), and the robust
counterpart at that gamma contributes a new solution plus its dual
certificate.  The master's optimum is itself a robust solution for the
gamma it returns, so each iteration appends one certified entry; the loop
stops once the certified worst-case gap drops to epsilon.

Masters: a pure 0-1 master for interval domains; ``build_q_general`` for
segments and budgeted domains, which writes each gamma_k as an affine form
over the domain's own columns (the position alpha on a segment, the slacks
beta on a budgeted domain); and the selector-variable master for the
fractional uncertainty variant (any domain).  Each stored entry caps the
master's value sigma at its certified value ``c_e + p_e . gamma``, and one
writer, ``add_caps``, writes every master's caps through an affine form of
gamma: over the domain's columns (general and variant masters), or the
vertex form (y, diag(L - U), U), gamma_j = U_j + (L_j - U_j) y_j, that puts
gamma at the box vertex the candidate's 0-1 columns y pick (interval and
cost-box masters).  ``add_product_rows`` writes the big-M rows for gamma_k
times a 0-1 selector.
Every master names its column blocks, and one certificate reader
(``robust.read_certificate``) turns a solved master into the next entry.

On an interval domain with few enough groups (see ``uses_pattern_master``)
the 0-1 master is replaced by the pattern master: once the activation
pattern pi is fixed, the interval master's optimum is ``min_e [const_e +
pi_e . gamma(pi)] - L . pi - nom(c(pi))``, and ``nom(c(pi))`` does not
depend on the history, so the pattern oracle's table of 2^K nominal solves
(``oracle.PiEnumerationOracle``) turns every master into a numpy argmax.
The table is the instance's shared one (``oracle.shared_pattern_table``),
so ``solve_robust`` answers the seed from it and a later ``verify`` of the
same instance in the process reuses it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .milp import (
    INCUMBENT_ONLY, MilpModel, ModelBuilder, SolverConfig, SolverLimitError, solve_milp,
)
from .oracle import PATTERN_KINDS, PATTERN_MAX_K, PiEnumerationOracle, shared_pattern_table
from .robust import (
    MODES, _add_x, _declares_tu, _solve_robust_milp, add_standard_certificate,
    read_certificate, relax_rho_x, solve_robust, table_certificate,
)
from .uncertainty import (
    Instance, OmegaSpec, int_key, robustness_value, robustness_value_variant,
    solution_signature,
)

STOP_TOL = 1e-9


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
    seed_s: float = 0.0               # the seed robust solve
    table_s: float = 0.0              # the pattern table, finished or not
    master_s: float = 0.0             # every master solve
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


def add_caps(b: ModelBuilder, sigma: int, gamma_form: tuple, entries) -> None:
    """One cap ``sigma <= c_e + p_e . gamma`` per (c_e, p_e) in ``entries``,
    with gamma the affine form ``gamma_form`` = (cols, coef, base):
    ``gamma_k = base_k + sum_j coef[j, k] * cols[j]``.  The cols are the
    domain's own columns (gamma free in the domain), or the candidate's 0-1
    columns y in the vertex form (y, diag(L - U), U) that puts gamma at the
    box vertex ``gamma_j = U_j + (L_j - U_j) y_j``.

    sigma is measured from c0 = min of the row constants: the rows hold
    ``c_e + base . p_e - c0`` and a fixed last column carries c0 into the
    objective, so the row constants stay near zero.  With constants near
    1e4 and presolve off, HiGHS set sigma 1e-6 above such a row and then
    rejected its own point ("Solve error") on PLM budgeted masters.
    """
    cols, coef, base = gamma_form
    rows = []
    for const, p in entries:
        row = {sigma: 1.0}
        for col, a in zip(cols, coef):
            f = float(a @ p)
            if f:
                row[col] = -f
        rows.append((row, const + float(base @ p)))
    c0 = min(rhs for _, rhs in rows)
    for row, rhs in rows:
        b.add_row(row, "<=", rhs - c0)
    b.add_continuous("sigma_ref", c0, c0, obj=1.0)


def _vertex_form(y, lower, upper) -> tuple:
    """The vertex form (y, diag(L - U), U): gamma_j = U_j + (L_j - U_j) y_j."""
    return y, np.diag(lower - upper), upper


def add_product_rows(b: ModelBuilder, prods, sels, groups, upper, gamma_form: tuple) -> None:
    """``prod_i >= gamma_k - U_k (1 - sel_i)`` with k = ``groups[i]``, so that
    a maximized ``-prod_i`` reads gamma_k * sel_i for a 0-1 selector;
    ``gamma_form`` is as in ``add_caps``."""
    cols, coef, base = gamma_form
    for p, s, k in zip(prods, sels, groups):
        row = {p: 1.0, s: -float(upper[k])}
        for col, a in zip(cols, coef):
            if a[k]:
                row[col] = -float(a[k])
        b.add_row(row, ">=", float(base[k] - upper[k]))


def _std_blocks(b: ModelBuilder, inst: Instance, pi_obj=None):
    """The candidate's certificate in a maximizing master: the robust
    counterpart's columns and rows with its objective negated (pi pays
    ``-pi_obj``, nothing if None)."""
    pi_cost = np.zeros(inst.num_groups) if pi_obj is None else -pi_obj
    return add_standard_certificate(b, inst, pi_cost, -inst.deviations, -inst.c_lower)


def _omega_gamma_block(b: ModelBuilder, omega: OmegaSpec):
    """Continuous gamma variables (block ``gamma``) constrained to the domain."""
    K = omega.num_groups
    U = omega.upper_bound
    b.declare_block("gamma")
    if omega.kind == "interval":
        return [b.add_continuous(f"g{k}", float(omega.lower[k]), float(U[k]), block="gamma")
                for k in range(K)]
    if omega.kind == "segment":
        gam = [b.add_continuous(f"g{k}", 0.0, float(U[k]), block="gamma") for k in range(K)]
        a = b.add_continuous("alpha", omega.alpha_lo, omega.alpha_hi)
        for k in range(K):
            b.add_row({gam[k]: 1.0, a: -float(omega.gamma0[k])}, "==", 0.0)
        return gam
    gam = [b.add_continuous(f"g{k}", float(omega.gamma_base[k]), float(U[k]), block="gamma")
           for k in range(K)]
    b.add_row({g: 1.0 for g in gam}, "<=",
              float(omega.gamma_base.sum() + omega.budget))
    return gam


def _omega_affine_block(b: ModelBuilder, omega: OmegaSpec) -> tuple:
    """The domain's own columns, with gamma an affine form over them.

    Returns (cols, coef, base) with ``gamma_k = base_k + sum_j coef[j, k]
    * cols[j]``: an interval has a column ``g_k`` per group (block
    ``gamma``), a segment the one position column alpha (block
    ``position``) with gamma = alpha * gamma0, and a budgeted domain the
    slacks ``b_k`` (block ``beta``) with gamma = base + beta under the row
    sum beta <= budget.
    """
    K = omega.num_groups
    if omega.kind == "segment":
        a = b.add_continuous("alpha", omega.alpha_lo, omega.alpha_hi, block="position")
        return [a], omega.gamma0[None, :], np.zeros(K)
    if omega.kind == "interval":
        b.declare_block("gamma")
        cols = [b.add_continuous(f"g{k}", float(omega.lower[k]), float(omega.upper[k]),
                                 block="gamma") for k in range(K)]
        return cols, np.eye(K), np.zeros(K)
    b.declare_block("beta")
    cols = [b.add_continuous(f"b{k}", 0.0, float(omega.spread[k]), block="beta")
            for k in range(K)]
    b.add_row({c: 1.0 for c in cols}, "<=", float(omega.budget))
    return cols, np.eye(K), omega.gamma_base


def build_q_general(inst: Instance, omega: OmegaSpec, history) -> MilpModel:
    """Standard master over (sigma, domain columns, w, pi, rho, x) for any
    linear domain; the loop builds it for segments and budgeted domains.

    Each stored entry caps sigma at its certified value ``c_e + pi_e .
    gamma``, and w_k >= gamma_k - U_k (1 - pi_k) linearizes the candidate's
    gamma_k pi_k, both written through the domain's affine form of gamma.
    """
    history = _require_history(history)
    b = ModelBuilder("q_general")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    form = _omega_affine_block(b, omega)
    w = [b.add_continuous(f"w{k}", 0.0, np.inf, obj=-1.0)
         for k in range(inst.num_groups)]
    pi, rho, x = _std_blocks(b, inst)
    add_caps(b, sigma, form, [(_entry_const(inst, e), e.pi) for e in history])
    add_product_rows(b, w, pi, range(inst.num_groups), omega.upper_bound, form)
    return b.build(maximize=True)


def build_q_interval(inst: Instance, omega: OmegaSpec, history) -> MilpModel:
    """Interval master: pure 0-1 program, gamma eliminated through pi."""
    if omega.kind != "interval":
        raise ValueError("interval master needs an interval domain")
    history = _require_history(history)
    b = ModelBuilder("q_interval")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    pi, rho, x = _std_blocks(b, inst, pi_obj=omega.lower)
    add_caps(b, sigma, _vertex_form(pi, omega.lower, omega.upper),
             [(_entry_const(inst, e), e.pi) for e in history])
    return b.build(maximize=True)


def add_variant_certificate(b: ModelBuilder, inst: Instance, rho_obj, x_obj):
    """Blocks ``w`` and ``alpha`` (selector binaries), ``rho`` (continuous),
    each per covered index, and ``x``, with the rows of X.  Returns
    (w, alpha, rho, x) column indices; ``add_selector_rows`` links them."""
    cov = [int(j) for j in inst.covered]
    b.declare_block("w", "alpha", "rho")
    w = {j: b.add_binary(f"w{j}", block="w") for j in cov}
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


def build_q_variant(inst: Instance, omega: OmegaSpec, history) -> MilpModel:
    """Variant master: budgets multiply the 0-1 selector variables.

    History certificates enter through their per-group breakpoint values;
    the bilinear gamma-times-selector terms of the new candidate are
    linearized with the domain upper bound as the big constant.
    """
    history = _require_history(history)
    K = inst.num_groups
    cov = [int(j) for j in inst.covered]
    b = ModelBuilder("q_variant")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    # gamma is its own columns; a base of -0.0, the exact additive identity
    # (0.0 would turn a -U_k of U_k = 0 into 0.0), leaves every constant as is
    form = (_omega_gamma_block(b, omega), np.eye(K), np.full(K, -0.0))
    z = {j: b.add_continuous(f"z{j}", 0.0, np.inf, obj=-float(inst.deviations[j]))
         for j in cov}
    w, alpha, rho, x = add_variant_certificate(b, inst, -np.ones(inst.n), -inst.c_lower)
    add_caps(b, sigma, form, [(_entry_const(inst, e, variant=True), e.pi)
                              for e in history])
    add_product_rows(b, [z[j] for j in cov], [w[j] for j in cov], inst.group_of()[cov],
                     omega.upper_bound, form)
    add_selector_rows(b, inst, w, alpha, rho, x)
    return b.build(maximize=True)


def _master_gamma(omega: OmegaSpec, model: MilpModel, values) -> np.ndarray:
    """The budget vector a solved master picks, read from its blocks: its
    ``gamma`` columns wherever it has them, else the domain's own columns,
    else (the 0-1 interval master) the vertex its ``pi`` picks; a solver's
    -0.0 comes back as 0.0."""
    blocks = model.blocks
    if "gamma" in blocks:
        return values[blocks["gamma"]] + 0.0
    if "position" in blocks:
        return (values[blocks["position"]][0] + 0.0) * omega.gamma0
    if "beta" in blocks:
        return omega.gamma_base + values[blocks["beta"]]
    pi = np.round(values[blocks["pi"]])
    return omega.lower * pi + omega.upper * (1.0 - pi)


# ---------------------------------------------------------------------------
# pattern master (interval domains)
# ---------------------------------------------------------------------------

class PatternMaster:
    """Interval master over the pattern oracle's table: Q(pi) = best(pi) - own(pi).

    Pattern i has the domain vertex ``gammas[i] = L*pi + U*(1-pi)`` and the
    robust optimum ``own[i] = L.pi + N[pi]`` there.  ``best[i]`` is the
    smallest certified value any stored entry reaches at vertex i; each new
    entry lowers it in O(2^K K).
    """

    def __init__(self, inst: Instance, omega: OmegaSpec, table: PiEnumerationOracle):
        self.inst = inst
        self.table = table
        self.gammas = omega.lower * table.patterns + omega.upper * (1.0 - table.patterns)
        self.own = table.patterns @ omega.lower + table.nominal_values
        self.best = np.full(table.patterns.shape[0], np.inf)

    def add(self, e: HistoryEntry) -> None:
        np.minimum(self.best, _entry_const(self.inst, e) + self.gammas @ e.pi,
                   out=self.best)

    def solve(self) -> tuple:
        """(pattern index, master value); ties go to the first index."""
        q = self.best - self.own
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
    limit.  Every master solve gets the run's remaining time as its solver
    time limit, and the seed solve the whole limit (or the config's own
    limit, if smaller).  A MILP master stopped at a solver limit ends the
    loop with its best bound, an upper bound on the remaining gap, as the
    last q value: ``budget_exceeded``, or ``epsilon_met`` if even that bound
    is at most epsilon.  A seed solve stopped at a limit raises
    ``SolverLimitError``.  ``trace`` receives one header record, then one
    record per iteration.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if inst.num_groups != omega.num_groups:
        raise ValueError("omega dimension does not match the instance groups")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "tu_relaxed" and not _declares_tu(inst):
        raise ValueError("tu_relaxed requires an instance declared totally unimodular")
    budget = budget or Budget()
    config = config or SolverConfig()
    t0 = time.monotonic()

    gamma_init = np.asarray(omega.start_gamma, dtype=float)
    # every artifact needs the seed, so it gets the whole limit even after an
    # unfinished pattern table, after which the loop stops on the limit
    table, seed, table_s = _seed_solve(inst, omega, mode, _time_left(config, budget, t0),
                                       t0 + budget.time_limit)
    seed_s = time.monotonic() - t0 - table_s
    master = None if table is None else PatternMaster(inst, omega, table)
    init_value = seed.value
    history = [HistoryEntry(pi=seed.pi.copy(), rho=seed.rho.copy(),
                            x=seed.x.copy(), gamma=gamma_init, q_value=None)]
    if master is not None:
        master.add(history[0])
    q_values: list = []
    rel_bounds: list = []
    stop_reason = "budget_exceeded"
    master_total_s = 0.0
    seen = {_triple_key(history[0])}
    seen_x = {int_key(history[0].x)}
    if trace is not None:
        trace({"record": "header", "mode": mode, "omega": omega.kind,
               "backend": config.backend,
               "master": "milp" if master is None else "pattern",
               "pattern_solves": 0 if master is None else len(master.table.patterns),
               "pattern_build_s": 0.0 if master is None else master.table.build_s})

    while True:
        if len(q_values) >= budget.max_iters:
            break
        if time.monotonic() - t0 > budget.time_limit:
            break
        t_master = time.monotonic()
        status = "optimal"
        if master is not None:
            i, vq = master.solve()
            gamma_star = master.gammas[i]
            nodes, bound = 0, vq
            size = (0, 0, 0)
        else:
            model, sol = _solve_milp_master(inst, omega, history, mode,
                                            _time_left(config, budget, t0))
            status = sol.status
            gamma_star = (None if sol.values is None
                          else _master_gamma(omega, model, sol.values))
            vq = _master_value(sol)
            nodes, bound = sol.nodes, sol.best_bound
            size = (model.num_vars, model.num_rows, int(np.count_nonzero(model.row_coeffs)))
        master_s = time.monotonic() - t_master
        master_total_s += master_s
        q_values.append(vq)
        rel_bounds.append(vq / init_value if abs(init_value) > 1e-12 else np.inf)
        if trace is not None:
            trace({"iteration": len(q_values), "q_value": vq,
                   "gamma": [] if gamma_star is None else [float(v) for v in gamma_star],
                   "distinct": len(seen_x),
                   "master": "milp" if master is None else "pattern",
                   "status": status,
                   "vars": size[0], "rows": size[1], "nnz": size[2],
                   "nodes": nodes,
                   "best_bound": bound,
                   "master_s": master_s,
                   "elapsed": time.monotonic() - t0})
        if vq <= epsilon + STOP_TOL:
            stop_reason = "epsilon_met"
            break
        if status == INCUMBENT_ONLY:
            break
        if master is not None:
            entry = _pattern_entry(inst, master, i, vq)
        else:
            pi, rho, x = read_certificate(inst, model, sol.values, mode)
            entry = HistoryEntry(pi=pi, rho=rho, x=x, gamma=gamma_star, q_value=vq)
        key = _triple_key(entry)
        if key in seen:
            # exact arithmetic forbids a repeat with a positive gap: the
            # residual is solver noise or a faulty master, so stop on it
            stop_reason = "stalled"
            break
        seen.add(key)
        seen_x.add(int_key(entry.x))
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
        elapsed=time.monotonic() - t0, seed_s=seed_s, table_s=table_s,
        master_s=master_total_s, instance=inst)


def _seed_solve(inst: Instance, omega: OmegaSpec, mode: str, config: SolverConfig,
                deadline: float) -> tuple:
    """(table, seed, table_s): the seed decision of a run.

    A pattern-master run builds the shared pattern table first, with
    ``deadline``; a finished table serves the seed robust solve at the
    domain's start vector without a MILP, and an unfinished one (``table``
    None) sends the seed straight to the robust MILP, not to a second build
    of the table.  Other runs build no table (``table_s`` 0.0) and solve
    the seed with ``solve_robust``.  The seed solve gets ``config``.
    """
    table, table_s, solve = None, 0.0, solve_robust
    if uses_pattern_master(inst, omega, mode):
        t = time.monotonic()
        try:
            table = shared_pattern_table(inst, deadline=deadline)
        except TimeoutError:
            solve = _solve_robust_milp
        table_s = time.monotonic() - t
    return table, solve(inst, omega.start_gamma, mode=mode, config=config), table_s


def _time_left(config: SolverConfig, budget: Budget, start: float) -> SolverConfig:
    """``config`` with the budget's time left after ``start`` as its limit, if smaller."""
    left = max(0.0, budget.time_limit - (time.monotonic() - start))
    if config.time_limit is not None:
        left = min(left, config.time_limit)
    return replace(config, time_limit=left)


def _master_value(sol) -> float:
    """A solved master's value; at a solver limit the maximizing master's
    bound, so no parameter in the domain has a larger gap."""
    if sol.status == INCUMBENT_ONLY:
        return np.inf if sol.best_bound is None else float(sol.best_bound)
    return float(sol.objective)


def _pattern_entry(inst: Instance, master: PatternMaster, i: int, vq: float) -> HistoryEntry:
    """Entry for pattern i at its vertex, with rho rebuilt from (pi, x)."""
    pi, rho, x = table_certificate(inst, master.table, i)
    return HistoryEntry(pi=pi, rho=rho, x=x, gamma=master.gammas[i].copy(), q_value=vq)


def _solve_milp_master(inst, omega, history, mode, config) -> tuple:
    """(model, solution) of the MILP master for the stored history."""
    model = _build_master(inst, omega, history, mode)
    if mode == "tu_relaxed":
        model = relax_rho_x(model)
    sol = solve_milp(model, config)
    if sol.status == "unbounded":
        raise RuntimeError("master problem unbounded: construction bug")
    if sol.status not in ("optimal", INCUMBENT_ONLY):
        raise RuntimeError(f"master solve failed with status {sol.status}")
    return model, sol


def _build_master(inst, omega, history, mode) -> MilpModel:
    if mode == "variant":
        return build_q_variant(inst, omega, history)
    if omega.kind == "interval":
        return build_q_interval(inst, omega, history)
    return build_q_general(inst, omega, history)


def _triple_key(e: HistoryEntry) -> tuple:
    return (tuple(np.round(np.asarray(e.pi, float), 9).tolist()),
            tuple(np.round(np.asarray(e.rho, float), 9).tolist()),
            int_key(e.x))


def _distinct_x(xs) -> list:
    """The distinct ``int_key``s of the 0-1 vectors, in order of first occurrence."""
    return list(dict.fromkeys(map(int_key, xs)))


def _distinct(inst: Instance, history) -> tuple:
    return (_distinct_x(e.x for e in history),
            list(dict.fromkeys(solution_signature(inst, e.x) for e in history)))


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
    """Appendix-style pure 0-1 master for a cost box over binary variables:
    the costs sit at the box vertex that the candidate x picks."""
    history = _require_history(history)
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    b = ModelBuilder("nominal_q_plus")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    x = [b.add_binary(f"x{j}", obj=-float(lower[j]), block="x")
         for j in range(x_model.num_vars)]
    b.add_rows(x, x_model.row_coeffs, x_model.row_senses, x_model.row_rhs)
    add_caps(b, sigma, _vertex_form(x, lower, upper), [(0.0, xi) for xi in history])
    return b.build(maximize=True)


def run_multiparametric_nominal(x_model: MilpModel, lower, upper, epsilon: float,
                                config: Optional[SolverConfig] = None,
                                budget: Optional[Budget] = None) -> NominalMprsResult:
    """Solution set covering a box of cost vectors over an all-binary model.

    The budgeted-uncertainty loop is this engine instantiated with the
    robust counterpart's certificates; here the parameters are the costs
    themselves, so the master needs only the stored x vectors.  Limits act
    as in ``run_aq``: every master solve gets the remaining time as its
    solver time limit; a master stopped at a solver limit ends the loop with
    its bound as the last q value (``budget_exceeded``, or ``epsilon_met``
    if even the bound is at most epsilon); a first nominal solve stopped at
    a limit raises ``SolverLimitError``.
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
    config = config or SolverConfig()
    t0 = time.monotonic()

    first = solve_milp(replace(x_model, objective=lower, maximize=False),
                       _time_left(config, budget, t0))
    if first.status == INCUMBENT_ONLY:
        raise SolverLimitError("nominal solve stopped at a solver limit before proving "
                               f"optimality (best bound {first.best_bound})")
    if first.status != "optimal":
        raise RuntimeError(f"nominal solve failed: {first.status}")
    history = [np.round(first.values)]
    q_values: list = []
    stop_reason = "budget_exceeded"
    while len(q_values) < budget.max_iters and time.monotonic() - t0 <= budget.time_limit:
        model = build_nominal_q_plus(x_model, lower, upper, history)
        sol = solve_milp(model, _time_left(config, budget, t0))
        if sol.status not in ("optimal", INCUMBENT_ONLY):
            raise RuntimeError(f"nominal master failed: {sol.status}")
        vq = _master_value(sol)
        q_values.append(vq)
        if vq <= epsilon + STOP_TOL:
            stop_reason = "epsilon_met"
            break
        if sol.status == INCUMBENT_ONLY:
            break
        x = np.round(sol.values[model.blocks["x"]])
        if any(np.array_equal(x, h) for h in history):
            stop_reason = "stalled"
            break
        history.append(x)
    return NominalMprsResult(history=history, q_values=q_values, epsilon=epsilon,
                             stop_reason=stop_reason,
                             distinct_x=_distinct_x(history),
                             elapsed=time.monotonic() - t0)
