"""Shared test oracles, independent of the solver under test.

LP references go through scipy (HiGHS) or plain linear algebra (vertex
enumeration); MILP references enumerate binary assignments exhaustively and
complete each with a scipy LP solve.  Shortest-path references (Dijkstra,
simple-path enumeration) go through networkx.  The worst-case cross-checks (a
replayed worst-case cost vector, the primal and dual worst-case LPs, and a
history entry's certified value) stand beside the closed-form evaluators
of ``mprobust.uncertainty`` as independent references.
"""

import io
import itertools
from contextlib import contextmanager
from dataclasses import replace

import networkx as nx
import numpy as np
from scipy.optimize import linprog

from mprobust.milp import (
    _BACKENDS, GE, LE, EQ, MilpModel, ModelBuilder, SolverConfig, register_backend, write_mps,
)
from mprobust.uncertainty import _check_gamma, _check_x


@contextmanager
def wrapped_default_backend(wrap):
    """Serve the default backend's name with ``wrap(original)`` for the
    duration, so that fault injection reaches every caller; the original
    comes back in ``finally``."""
    name = SolverConfig().backend
    original = _BACKENDS[name]
    register_backend(name, wrap(original))
    try:
        yield
    finally:
        register_backend(name, original)


def scipy_lp(model: MilpModel, lower=None, upper=None):
    """Solve the LP relaxation with scipy; returns (status, objective)."""
    lo = model.lower if lower is None else lower
    up = model.upper if upper is None else upper
    c = -model.objective if model.maximize else model.objective
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i in range(model.num_rows):
        row = model.row_coeffs[i]
        if model.row_senses[i] == LE:
            A_ub.append(row); b_ub.append(model.row_rhs[i])
        elif model.row_senses[i] == GE:
            A_ub.append(-row); b_ub.append(-model.row_rhs[i])
        else:
            A_eq.append(row); b_eq.append(model.row_rhs[i])
    res = linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None, b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None, b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lo, up)), method="highs")
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    assert res.status == 0, res.message
    obj = -res.fun if model.maximize else res.fun
    return "optimal", float(obj)


def enum_milp(model: MilpModel):
    """Exhaustive enumeration over binary assignments, scipy-completed."""
    bin_idx = np.flatnonzero(model.is_binary)
    assert bin_idx.size <= 14, "oracle guard"
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=bin_idx.size):
        lo = model.lower.copy(); up = model.upper.copy()
        lo[bin_idx] = bits; up[bin_idx] = bits
        status, obj = scipy_lp(model, lo, up)
        if status != "optimal":
            continue
        if best is None or (obj < best if not model.maximize else obj > best):
            best = obj
    if best is None:
        return "infeasible", None
    return "optimal", best


def mps_string(model: MilpModel) -> str:
    """``write_mps``'s text for the model."""
    buf = io.StringIO()
    write_mps(model, buf)
    return buf.getvalue()


def build_nominal_q_general(x_model: MilpModel, lower, upper, history) -> MilpModel:
    """Reference for ``engine.build_nominal_q_plus``: the cost-box master with
    explicit cost columns c in [lower, upper] and the products w_j = c_j x_j
    linearized, where ``build_nominal_q_plus`` puts c at a box vertex."""
    assert history, "master problem needs at least one stored solution"
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    n = x_model.num_vars
    b = ModelBuilder("nominal_q")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    cvars = [b.add_continuous(f"c{j}", float(lower[j]), float(upper[j])) for j in range(n)]
    w = [b.add_continuous(f"w{j}", 0.0, np.inf, obj=-1.0) for j in range(n)]
    x = [b.add_binary(f"x{j}", block="x") for j in range(n)]
    b.add_rows(x, x_model.row_coeffs, x_model.row_senses, x_model.row_rhs)
    for xi in history:
        b.add_row({sigma: 1.0, **{cvars[j]: -float(xi[j]) for j in np.flatnonzero(xi)}},
                  "<=", 0.0)
    for j in range(n):
        b.add_row({w[j]: 1.0, cvars[j]: -1.0, x[j]: -float(upper[j])},
                  ">=", -float(upper[j]))
    return b.build(maximize=True)


def build_q_variant_free_selectors(inst, omega, history) -> MilpModel:
    """Reference for ``engine.build_q_variant``: the variant master with free
    0-1 selectors, theta_k = sum_{j in G_k} d_j w_j over any subset of the
    group, written straight into rho_j + sum_{s in G_k} d_s w_s >= d_j x_j.
    ``build_q_variant`` holds w to at most one per group; the optimum is the
    same, since for fixed (gamma, x) some optimal theta_k is 0 or one d_j.
    The gamma columns, caps and products z_j = gamma_k w_j are written out
    here, without the engine's row writers."""
    assert history, "master problem needs at least one stored solution"
    K, U, d = inst.num_groups, omega.upper_bound, inst.deviations
    b = ModelBuilder("q_variant_free")
    sigma = b.add_continuous("sigma", -np.inf, np.inf, obj=1.0)
    if omega.kind == "interval":
        g = [b.add_continuous(f"g{k}", float(omega.lower[k]), float(U[k])) for k in range(K)]
    elif omega.kind == "segment":
        g = [b.add_continuous(f"g{k}", 0.0, float(U[k])) for k in range(K)]
        a = b.add_continuous("alpha", omega.alpha_lo, omega.alpha_hi)
        for k in range(K):
            b.add_row({g[k]: 1.0, a: -float(omega.gamma0[k])}, "==", 0.0)
    else:
        g = [b.add_continuous(f"g{k}", float(omega.gamma_base[k]), float(U[k]))
             for k in range(K)]
        b.add_row({gk: 1.0 for gk in g}, "<=", float(omega.gamma_base.sum() + omega.budget))
    cov = [int(j) for j in inst.covered]
    z = {j: b.add_continuous(f"z{j}", 0.0, np.inf, obj=-float(d[j])) for j in cov}
    w = {j: b.add_binary(f"w{j}") for j in cov}
    rho = {j: b.add_continuous(f"rho{j}", 0.0, np.inf, obj=-1.0) for j in cov}
    x = [b.add_binary(f"x{j}", obj=-float(inst.c_lower[j])) for j in range(inst.n)]
    b.add_rows(x, inst.x_coeffs, inst.x_senses, inst.x_rhs)
    for e in history:
        b.add_row({sigma: 1.0, **{g[k]: -float(e.pi[k]) for k in range(K)}}, "<=",
                  float(e.rho.sum() + inst.c_lower @ e.x))
    for k, grp in enumerate(inst.groups):
        for j in grp:
            b.add_row({z[j]: 1.0, g[k]: -1.0, w[j]: -float(U[k])}, ">=", -float(U[k]))
            row = {w[s]: float(d[s]) for s in grp}
            row[rho[j]] = 1.0
            row[x[j]] = -float(d[j])
            b.add_row(row, ">=", 0.0)
    return b.build(maximize=True)


def vertex_lp(model: MilpModel):
    """Vertex enumeration for tiny LPs with finite bounds on every variable.

    Candidate vertices are intersections of n active constraints chosen from
    the rows (as equalities) and the bound planes.
    """
    n = model.num_vars
    rows = [(model.row_coeffs[i], model.row_rhs[i], int(model.row_senses[i]))
            for i in range(model.num_rows)]
    planes = [(row, rhs) for row, rhs, _ in rows]
    for j in range(n):
        e = np.zeros(n); e[j] = 1.0
        planes.append((e, model.lower[j]))
        planes.append((e.copy(), model.upper[j]))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[k][0] for k in combo])
        b = np.array([planes[k][1] for k in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if np.any(x < model.lower - 1e-8) or np.any(x > model.upper + 1e-8):
            continue
        ok = True
        for row, rhs, sense in rows:
            v = row @ x
            if sense == LE and v > rhs + 1e-8:
                ok = False; break
            if sense == GE and v < rhs - 1e-8:
                ok = False; break
            if sense == EQ and abs(v - rhs) > 1e-8:
                ok = False; break
        if not ok:
            continue
        obj = float(model.objective @ x)
        if best is None or (obj > best if model.maximize else obj < best):
            best = obj
    return best


def random_lp(rng, n=5, m=4, bounded=True) -> MilpModel:
    A = rng.normal(size=(m, n)).round(3)
    x0 = rng.uniform(0, 3, size=n)
    senses = rng.integers(-1, 2, size=m).astype(np.int8)
    rhs = A @ x0 + np.where(senses == LE, rng.uniform(0, 2, m),
                            np.where(senses == GE, -rng.uniform(0, 2, m), 0.0))
    lo = np.zeros(n)
    up = np.full(n, 10.0) if bounded else np.full(n, np.inf)
    return MilpModel(
        objective=rng.normal(size=n).round(3), maximize=False,
        lower=lo, upper=up,
        is_binary=np.zeros(n, dtype=bool),
        row_coeffs=A, row_senses=senses, row_rhs=rhs)


def random_milp(rng, n_bin=8, n_cont=2, m=6) -> MilpModel:
    n = n_bin + n_cont
    A = rng.normal(size=(m, n)).round(3)
    xb = rng.integers(0, 2, size=n_bin).astype(float)
    xc = rng.uniform(0, 2, size=n_cont)
    x0 = np.concatenate([xb, xc])
    senses = rng.integers(-1, 2, size=m).astype(np.int8)
    rhs = A @ x0 + np.where(senses == LE, rng.uniform(0, 1.5, m),
                            np.where(senses == GE, -rng.uniform(0, 1.5, m), 0.0))
    lower = np.concatenate([np.zeros(n_bin), np.zeros(n_cont)])
    upper = np.concatenate([np.ones(n_bin), np.full(n_cont, 4.0)])
    return MilpModel(
        objective=rng.normal(size=n).round(3),
        maximize=bool(rng.integers(0, 2)),
        lower=lower, upper=upper,
        is_binary=np.concatenate([np.ones(n_bin, dtype=bool), np.zeros(n_cont, dtype=bool)]),
        row_coeffs=A, row_senses=senses, row_rhs=rhs)


def random_instance(rng, n=6, K=2, cover_all=True):
    """Small CUSTOM instance: random costs/deviations, random group partition,
    X = one cardinality band so enumeration stays nontrivial."""
    from mprobust.uncertainty import Instance

    c = rng.uniform(1.0, 10.0, size=n).round(3)
    d = rng.uniform(0.0, 5.0, size=n).round(3)
    labels = rng.integers(0, K, size=n)
    labels[rng.integers(0, n)] = 0  # keep group 0 nonempty
    groups = [tuple(int(j) for j in np.flatnonzero(labels == k)) for k in range(K)]
    groups = [g for g in groups if g]
    if not cover_all:
        j = groups[0][0]
        if len(groups[0]) > 1:
            groups[0] = tuple(x for x in groups[0] if x != j)
            d[j] = 0.0
    lo_cnt = 1
    hi_cnt = max(2, n // 2)
    A = np.ones((2, n))
    senses = np.array([1, -1], dtype=np.int8)
    rhs = np.array([float(lo_cnt), float(hi_cnt)])
    return Instance(c_lower=c, deviations=d, groups=tuple(groups),
                    x_coeffs=A, x_senses=senses, x_rhs=rhs,
                    metadata={"kind": "CUSTOM"})


def primal_dual_pair(rng, n=6, m=4):
    """Random min c'x, Ax >= b, x >= 0 with c >= 0 plus its explicit dual."""
    A = rng.normal(size=(m, n)).round(3)
    x0 = rng.uniform(0, 2, size=n)
    b = A @ x0 - rng.uniform(0, 1, size=m)
    c = rng.uniform(0.1, 3.0, size=n).round(3)
    primal = MilpModel(
        objective=c, maximize=False,
        lower=np.zeros(n), upper=np.full(n, np.inf),
        is_binary=np.zeros(n, dtype=bool),
        row_coeffs=A, row_senses=np.full(m, GE, dtype=np.int8), row_rhs=b)
    dual = MilpModel(
        objective=b, maximize=True,
        lower=np.zeros(m), upper=np.full(m, np.inf),
        is_binary=np.zeros(m, dtype=bool),
        row_coeffs=A.T, row_senses=np.full(n, LE, dtype=np.int8), row_rhs=c)
    return primal, dual


def stored_value(inst, entry, gamma, variant: bool) -> float:
    """Certified upper bound of the entry's robustness at gamma."""
    gamma = np.asarray(gamma, dtype=float)
    if variant:
        return float(gamma @ entry.pi + entry.rho.sum() + inst.c_lower @ entry.x)
    return float(gamma @ entry.pi + inst.deviations @ entry.rho + inst.c_lower @ entry.x)


def worst_case_cost_vector(inst, x, gamma, variant: bool = False) -> np.ndarray:
    """A cost vector in the uncertainty set attaining the worst case for x."""
    x = _check_x(inst, x)
    gamma = _check_gamma(inst, gamma)
    lam = np.zeros(inst.n)
    for k, g in enumerate(inst.groups):
        rem = gamma[k]
        if variant:
            active = sorted((j for j in g if x[j] > 0.5),
                            key=lambda j: -inst.deviations[j])
            for j in active:
                take = min(1.0, rem)
                lam[j] = take
                rem -= take
                if rem <= 0:
                    break
        else:
            for j in g:
                if x[j] > 0.5:
                    take = min(inst.deviations[j], rem)
                    lam[j] = take
                    rem -= take
                    if rem <= 0:
                        break
    if variant:
        return inst.c_lower + lam * inst.deviations
    return inst.c_lower + lam


def build_w_lp(inst, x, gamma, variant: bool = False) -> MilpModel:
    """Primal worst-case LP in the deviation variables.

    Objective value of the solved LP plus ``c_lower @ x`` equals the
    robustness of x.
    """
    x = _check_x(inst, x)
    gamma = _check_gamma(inst, gamma)
    b = ModelBuilder("w_lp")
    lam = {}
    for j in range(inst.n):
        hi = 1.0 if variant else inst.deviations[j]
        coef = inst.deviations[j] * x[j] if variant else x[j]
        lam[j] = b.add_continuous(f"lam{j}", 0.0, hi, obj=coef)
    for k, g in enumerate(inst.groups):
        b.add_row({lam[j]: 1.0 for j in g}, "<=", gamma[k])
    return b.build(maximize=True)


def build_dw_lp(inst, x, gamma, variant: bool = False) -> MilpModel:
    """Dual worst-case LP in (pi, rho); value + ``c_lower @ x`` = robustness."""
    x = _check_x(inst, x)
    gamma = _check_gamma(inst, gamma)
    b = ModelBuilder("dw_lp")
    pi = [b.add_continuous(f"pi{k}", 0.0, np.inf, obj=gamma[k])
          for k in range(inst.num_groups)]
    rho = {}
    for k, g in enumerate(inst.groups):
        for j in g:
            cost = 1.0 if variant else inst.deviations[j]
            rho[j] = b.add_continuous(f"rho{j}", 0.0, np.inf, obj=cost)
            rhs = inst.deviations[j] * x[j] if variant else x[j]
            b.add_row({pi[k]: 1.0, rho[j]: 1.0}, ">=", rhs)
    return b.build(maximize=False)


def nx_arc_graph(inst, costs):
    """The arcs of a shortest-path instance as a networkx DiGraph; each edge
    holds its arc ``index`` and its cost ``w``.  A DiGraph keeps one edge
    per node pair: of parallel arcs, the last one."""
    g = nx.DiGraph()
    g.add_nodes_from(range(int(inst.metadata["num_nodes"])))
    for j, (u, v) in enumerate(inst.metadata["arcs"]):
        g.add_edge(int(u), int(v), index=j, w=float(costs[j]))
    return g


def _path_x(inst, g, path):
    x = np.zeros(inst.n)
    for a, b in zip(path[:-1], path[1:]):
        x[g[a][b]["index"]] = 1.0
    return x


def nx_shortest_path(inst, c):
    """(c @ x, x) for networkx Dijkstra's v0-w0 path x at arc costs c."""
    c = np.asarray(c, dtype=float)
    g = nx_arc_graph(inst, c)
    path = nx.dijkstra_path(g, inst.metadata["v0"], inst.metadata["w0"], weight="w")
    x = _path_x(inst, g, path)
    return float(c @ x), x


def nx_simple_paths(inst):
    """Every simple v0-w0 path, in ``nx.all_simple_paths`` order, as (num, n)."""
    g = nx_arc_graph(inst, inst.c_lower)
    rows = [_path_x(inst, g, path)
            for path in nx.all_simple_paths(g, inst.metadata["v0"], inst.metadata["w0"])]
    return np.array(rows).reshape(-1, inst.n)


def sp_with_arcs(inst, cols):
    """The shortest-path instance restricted to arcs ``cols`` (in that order;
    an index may repeat, to add a parallel copy).  Each kept arc keeps its
    costs and its budget group."""
    cols = np.asarray(cols, dtype=int)
    label = inst.group_of()[cols]
    groups = tuple(g for g in (tuple(np.flatnonzero(label == k).tolist())
                               for k in range(inst.num_groups)) if g)
    arcs = [tuple(inst.metadata["arcs"][j]) for j in cols]
    return replace(inst, c_lower=inst.c_lower[cols], deviations=inst.deviations[cols],
                   groups=groups, x_coeffs=inst.x_coeffs[:, cols],
                   metadata={**inst.metadata, "arcs": arcs},
                   var_names=tuple(f"e{u}_{v}" for u, v in arcs))


def per_pattern_table(inst, patterns):
    """Reference for the batched nominal kernels: one scan per pattern, as
    the pattern table once solved them.  A p-median pattern scans the
    median subsets in order, keeps the first unless a later one improves by
    more than 1e-15, and sends each location to its first cheapest median;
    any other instance takes the first minimum of ``X @ c`` over the
    enumerated feasible set.  Returns (values, solutions), the solutions as
    a (P, n) uint8 array."""
    from mprobust.oracle import cost_for_pi, enumerate_x

    X = None if inst.kind == "PLM" else enumerate_x(inst)
    values = np.empty(len(patterns))
    solutions = np.empty((len(patterns), inst.n), dtype=np.uint8)
    for i, pi in enumerate(patterns):
        c = cost_for_pi(inst, pi)
        values[i], x = _plm_scan(inst, c) if X is None else _enumerated_scan(X, c)
        solutions[i] = np.round(x)
    return values, solutions


def _enumerated_scan(X, c):
    vals = X @ c
    i = int(np.argmin(vals))
    return float(vals[i]), X[i].copy()


def _plm_scan(inst, c):
    l, p, off = (int(inst.metadata[k]) for k in ("l", "p", "y_offset"))
    cmat = c[: l * l].reshape(l, l)
    best = None
    for medians in itertools.combinations(range(l), p):
        rows = cmat[list(medians), :]
        pick = np.argmin(rows, axis=0)
        val = float(rows[pick, np.arange(l)].sum() + c[off:][list(medians)].sum())
        if best is None or val < best[0] - 1e-15:
            x = np.zeros(inst.n)
            for j in range(l):
                x[medians[pick[j]] * l + j] = 1.0
            for i in medians:
                x[off + i] = 1.0
            best = (val, x)
    return best
