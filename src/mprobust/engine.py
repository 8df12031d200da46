"""Cutting-plane engine producing epsilon-optimal multiparametric robust sets.

The loop alternates two exact solves: the master problem searches the whole
budget domain for the gamma where the stored solutions are weakest (their
best certified value minus the true robust optimum), and the robust
counterpart at that gamma contributes a new solution plus its dual
certificate.  The master's optimum is itself a robust solution for the
gamma it returns, so each iteration appends one certified entry; the loop
stops once the certified worst-case gap drops to epsilon.

Masters: a pure 0-1 master for interval domains; ``build_q_general`` for
segments and budgeted domains; and, for the fractional uncertainty variant
on any domain, ``build_q_variant``: the variant robust counterpart's
continuous certificate with each theta_k held to one breakpoint, 0 or one
d_j of its group, by one-hot 0-1 selectors.  All three write the candidate's
certificate through ``robust.add_standard_certificate``.  All but the 0-1
interval master write gamma as an affine form over the domain's own columns
(``_domain_form``: g_k per group on an interval, the position alpha on a
segment, the slacks beta on a budgeted domain), which ``_master_gamma``
reads back.  Each stored entry caps the master's value sigma at its
certified value ``c_e + p_e . gamma``; ``add_caps`` writes every master's
caps through that form, or through the vertex form (y, diag(L - U), U),
gamma_j = U_j + (L_j - U_j) y_j, of the box vertex the candidate's 0-1
columns y pick (interval and cost-box masters).  ``add_product_rows`` writes
the big-M rows for gamma_k times a 0-1 selector.  One certificate reader
(``robust.read_certificate``) turns a solved master into the next entry
through its named column blocks.

On an interval domain of an instance whose table beats MILP masters (see
``uses_pattern_master``) the 0-1 master is replaced by the pattern master:
once the activation pattern pi is fixed, the interval master's optimum is
``min_e [const_e + pi_e . gamma(pi)] - L . pi - nom(c(pi))``, and
``nom(c(pi))`` does not depend on the history, so the pattern oracle's
table of 2^K nominal solves turns every master into a numpy argmax.
The table is the instance's shared one (``oracle.shared_pattern_table``),
so ``solve_robust`` answers the seed from it and a later ``verify`` of the
same instance in the process reuses it.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .milp import (
    INCUMBENT_ONLY, MilpModel, ModelBuilder, SolverConfig, SolverLimitError, solve_milp,
)
from .oracle import PiEnumerationOracle, pattern_table_pays, shared_pattern_table
from .robust import (
    MODES, _declares_tu, _solve_robust_milp, add_standard_certificate,
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
        """The first master's bound in percent; inf when no master ran."""
        if not self.relative_error_bounds:
            return np.inf
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


def _domain_form(omega: OmegaSpec) -> tuple:
    """(block, names, lower, upper, coef, base, cap): the domain's own columns
    t, with gamma = base + coef^T t and sum t <= cap unless cap is None.  An
    interval has a column ``g_k`` per group (block ``gamma``), a segment the
    position alpha (block ``position``, coef gamma0), and a budgeted domain
    the slacks ``b_k`` (block ``beta``, base ``gamma_base``, cap ``budget``)."""
    K = omega.num_groups
    if omega.kind == "segment":
        return ("position", ["alpha"], [omega.alpha_lo], [omega.alpha_hi],
                omega.gamma0[None, :], np.zeros(K), None)
    if omega.kind == "interval":
        return ("gamma", [f"g{k}" for k in range(K)], omega.lower, omega.upper,
                np.eye(K), np.zeros(K), None)
    return ("beta", [f"b{k}" for k in range(K)], np.zeros(K), omega.spread,
            np.eye(K), omega.gamma_base, omega.budget)


def _omega_affine_block(b: ModelBuilder, omega: OmegaSpec) -> tuple:
    """Writes the domain's own columns (``_domain_form``); returns gamma's
    affine form (cols, coef, base) over them, as ``add_caps`` takes it."""
    block, names, lower, upper, coef, base, cap = _domain_form(omega)
    b.declare_block(block)
    cols = [b.add_continuous(name, float(lo), float(hi), block=block)
            for name, lo, hi in zip(names, lower, upper)]
    if cap is not None:
        b.add_row({c: 1.0 for c in cols}, "<=", float(cap))
    return cols, coef, base


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
    pi, rho, x = add_standard_certificate(b, inst, np.zeros(inst.num_groups),
                                          -inst.deviations, -inst.c_lower)
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
    pi, rho, x = add_standard_certificate(b, inst, -omega.lower, -inst.deviations,
                                          -inst.c_lower)
    add_caps(b, sigma, _vertex_form(pi, omega.lower, omega.upper),
             [(_entry_const(inst, e), e.pi) for e in history])
    return b.build(maximize=True)


def build_q_variant(inst: Instance, omega: OmegaSpec, history) -> MilpModel:
    """Variant master: the variant robust counterpart's certificate with
    theta held to one breakpoint per group.

    The candidate is ``add_standard_certificate`` in its continuous form
    (theta in ``pi``, rho and x, as in ``build_robust_variant_milp``), with
    theta_k = sum_{j in G_k} d_j w_j over 0-1 selectors w (block ``w``), at
    most one per group.  For fixed (gamma, x) some optimal theta_k is 0 or
    one d_j x_j, so the one-hot selector keeps every optimum.  The cost
    gamma_k theta_k enters as sum_j d_j z_j with z_j = gamma_k w_j, linearized
    by ``add_product_rows`` with the domain upper bound as the big constant;
    stored entries enter the caps through their per-group breakpoint values.
    """
    history = _require_history(history)
    cov = [int(j) for j in inst.covered]
    b = ModelBuilder("q_variant")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    form = _omega_affine_block(b, omega)
    z = {j: b.add_continuous(f"z{j}", 0.0, np.inf, obj=-float(inst.deviations[j]))
         for j in cov}
    b.declare_block("w")
    w = {j: b.add_binary(f"w{j}", block="w") for j in cov}
    theta, _, _ = add_standard_certificate(b, inst, np.zeros(inst.num_groups),
                                           -np.ones(inst.n), -inst.c_lower, binary=False,
                                           x_coeff=inst.deviations)
    add_caps(b, sigma, form, [(_entry_const(inst, e, variant=True), e.pi)
                              for e in history])
    add_product_rows(b, [z[j] for j in cov], [w[j] for j in cov], inst.group_of()[cov],
                     omega.upper_bound, form)
    for k, g in enumerate(inst.groups):
        row = {w[j]: -float(inst.deviations[j]) for j in g}
        row[theta[k]] = 1.0
        b.add_row(row, "==", 0.0)
        b.add_row({w[j]: 1.0 for j in g}, "<=", 1.0)
    return b.build(maximize=True)


def _master_gamma(omega: OmegaSpec, model: MilpModel, values) -> np.ndarray:
    """The budget vector a solved master picks: base + coef^T t over the
    domain's own columns t wherever it has them, else (the 0-1 interval
    master) the vertex its ``pi`` picks; a solver's -0.0 comes back as 0.0."""
    block, _, _, _, coef, base, _ = _domain_form(omega)
    if block in model.blocks:
        return base + values[model.blocks[block]] @ coef + 0.0
    return _box_vertex(omega, np.round(values[model.blocks["pi"]]))


def _box_vertex(omega: OmegaSpec, pi: np.ndarray) -> np.ndarray:
    """The interval vertex gamma = L pi + U (1 - pi) of 0-1 pi (or of each row)."""
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
        self.gammas = _box_vertex(omega, table.patterns)
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
            and pattern_table_pays(inst))


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
    Interval domains of instances whose table beats MILP masters use the
    pattern master (outside ``variant`` mode, see ``uses_pattern_master``);
    every other case solves MILP masters.

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


# the finished seed solves of each instance, by mode, start vector and
# backend: ``mprobust run --epsilon-pct`` takes epsilon from the seed before
# ``run_aq`` starts, and the run reuses that seed rather than solve it again
_SEEDS: "weakref.WeakKeyDictionary[Instance, dict]" = weakref.WeakKeyDictionary()


def _seed_solve(inst: Instance, omega: OmegaSpec, mode: str, config: SolverConfig,
                deadline: float) -> tuple:
    """(table, seed, table_s): the seed decision of a run.

    A pattern-master run builds the shared pattern table first, with
    ``deadline``; a finished table serves the seed robust solve at the
    domain's start vector without a MILP, and an unfinished one (``table``
    None) sends the seed straight to the robust MILP, not to a second build
    of the table.  Other runs build no table (``table_s`` 0.0) and solve
    the seed with ``solve_robust``.  The seed solve gets ``config``.  Without
    a table, a seed this instance already has for the mode, start vector
    and backend is reused; a seed stopped at a limit raises and is not kept.
    """
    table, table_s, solve = None, 0.0, solve_robust
    if uses_pattern_master(inst, omega, mode):
        t = time.monotonic()
        try:
            table = shared_pattern_table(inst, deadline=deadline)
        except TimeoutError:
            solve = _solve_robust_milp
        table_s = time.monotonic() - t
    if table is not None:
        return table, solve(inst, omega.start_gamma, mode=mode, config=config), table_s
    seeds = _SEEDS.setdefault(inst, {})
    key = (mode, np.asarray(omega.start_gamma, dtype=float).tobytes(), config.backend)
    if key not in seeds:
        seeds[key] = solve(inst, omega.start_gamma, mode=mode, config=config)
    return None, seeds[key], table_s


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
