"""Brute-force ground truth for the solver and engine modules.

Everything here is independent of the MILP machinery: feasible sets are
enumerated structurally (simple paths, median subsets, unit vectors, or raw
0-1 patterns), nominal problems are solved by Dijkstra or direct scans, and
robust values come from the closed-form evaluators.  A pattern table over a
shortest-path instance solves all its nominal problems at once with a
batched Bellman-Ford pass; Dijkstra stays the single-solve route.
"""

from __future__ import annotations

import itertools
import time
import weakref
from math import comb
from typing import Optional

import networkx as nx
import numpy as np

from .uncertainty import (
    Instance, OmegaSpec, robustness_value, robustness_value_variant, row_chunks,
)

MAX_PATH_NODES = 12
MAX_GENERIC_VARS = 24
MAX_ENUM = 2_000_000
MAX_MEDIAN_SUBSETS = 200_000    # median subsets the facility scan may visit
# Largest group count of a pattern table, which pays 2^K nominal solves
# (on shortest-path instances one batched kernel, about 1.8 s at K = 16 on
# SP 20).  The engine's pattern master shares the limit: measured against
# the MILP master on shortest-path instances (CHANGES.md), the pattern
# master still won at K = 16.
PATTERN_MAX_K = 16
# Instance kinds whose 2^K nominal problems the pattern table solves at a
# measured cost: one batched Bellman-Ford kernel on shortest-path instances,
# enumeration on the toy family.  The p-median scan costs comb(l, p) passes
# per pattern and has no measured crossover yet, so those instances stay on
# the MILP routes.
PATTERN_KINDS = ("SP", "TOY")


def cost_for_pi(inst: Instance, pi) -> np.ndarray:
    """c(pi): nominal cost in groups with an active budget, worst case elsewhere."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (inst.num_groups,):
        raise ValueError("pi dimension mismatch")
    return _pattern_costs(inst, pi[None, :])[0]


def _pattern_costs(inst: Instance, patterns: np.ndarray) -> np.ndarray:
    """c(pi) of every row of ``patterns`` (P, K), a group counting as active
    where pi_k > 0.5.  Indices outside every group (group -1) read a trailing
    active column; they carry no deviation, so they keep their nominal cost.
    The rows are C-contiguous: a dot product with one must take BLAS's route,
    as ``nominal_minimize``'s do, for pattern values to agree to the bit."""
    on = np.hstack([patterns > 0.5, np.ones((patterns.shape[0], 1), dtype=bool)])
    return np.ascontiguousarray(
        inst.c_lower + inst.deviations * (1.0 - on[:, inst.group_of()]))


def toy_instance(n: int):
    """The (n+1)-variable one-hot toy family with its two interval domains.

    Variables 1..n cost 10 with deviation 2; variable n+1 costs 11.5 with no
    deviation.  Every variable is its own budget group.  The first domain is
    the high-uncertainty box [2, 3]^(n+1) (one solution suffices), the second
    the low-uncertainty box [0, 1]^(n+1) (n solutions are needed).
    """
    if n < 1:
        raise ValueError("toy size must be >= 1")
    nv = n + 1
    c = np.full(nv, 10.0)
    c[n] = 11.5
    d = np.full(nv, 2.0)
    d[n] = 0.0
    inst = Instance(
        c_lower=c, deviations=d,
        groups=tuple((j,) for j in range(nv)),
        x_coeffs=np.ones((1, nv)), x_senses=np.array([0], dtype=np.int8),
        x_rhs=np.array([1.0]),
        metadata={"kind": "TOY", "toy_n": n},
        var_names=tuple(f"x{j+1}" for j in range(nv)))
    omega1 = OmegaSpec.interval(np.full(nv, 2.0), np.full(nv, 3.0))
    omega2 = OmegaSpec.interval(np.zeros(nv), np.ones(nv))
    return inst, omega1, omega2


def _sp_graph(inst: Instance) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(int(inst.metadata["num_nodes"])))
    for idx, (u, v) in enumerate(inst.metadata["arcs"]):
        g.add_edge(int(u), int(v), index=idx)
    return g


# one arc graph per shortest-path instance; readers never write to it
_SP_GRAPHS: "weakref.WeakKeyDictionary[Instance, nx.DiGraph]" = weakref.WeakKeyDictionary()


def _shared_sp_graph(inst: Instance) -> nx.DiGraph:
    g = _SP_GRAPHS.get(inst)
    if g is None:
        g = _SP_GRAPHS[inst] = _sp_graph(inst)
    return g


class _SpArcs:
    """The arcs of a shortest-path instance as arrays, sorted by head.

    ``order`` sorts the arcs by head (stably, so arcs into one node keep
    their index order); ``starts`` opens each head's run in that order,
    ``heads`` names the run's node and ``run`` maps each sorted arc to its
    run.
    """

    def __init__(self, inst: Instance):
        arcs = np.asarray(inst.metadata["arcs"], dtype=np.int64).reshape(-1, 2)
        self.tail = arcs[:, 0]
        self.order = np.argsort(arcs[:, 1], kind="stable")
        head = arcs[self.order, 1]
        self.sorted_tail = self.tail[self.order]
        new_run = np.r_[True, head[1:] != head[:-1]]
        self.starts = np.flatnonzero(new_run)
        self.heads = head[self.starts]
        self.run = np.cumsum(new_run) - 1


_SP_ARCS: "weakref.WeakKeyDictionary[Instance, _SpArcs]" = weakref.WeakKeyDictionary()


def _shared_sp_arcs(inst: Instance) -> _SpArcs:
    a = _SP_ARCS.get(inst)
    if a is None:
        a = _SP_ARCS[inst] = _SpArcs(inst)
    return a


def _sp_paths(inst: Instance, C: np.ndarray, deadline: Optional[float]) -> np.ndarray:
    """A shortest v0-w0 path for every cost row of C (R, n), as (R, n) 0-1 floats.

    Synchronous Bellman-Ford: each pass relaxes every arc for every row at
    once and keeps each node's minimum over its in-arcs
    (``np.minimum.reduceat`` over the head-sorted arcs); the passes stop at
    the first that changes nothing.  Costs are nonnegative, so a distance is
    the left-to-right float sum along a path, as in Dijkstra.  A node's
    predecessor arc (the first in-arc reaching the minimum) changes only on a
    strict improvement, so zero-cost arcs cannot close a cycle in the walk
    back from w0.  The arrays are node- and arc-major, so each reduction
    runs over contiguous rows of length R.  Each pass first reads the clock
    and raises TimeoutError once ``time.monotonic()`` is past ``deadline``.
    """
    a = _shared_sp_arcs(inst)
    v0, w0 = int(inst.metadata["v0"]), int(inst.metadata["w0"])
    R, m = C.shape
    dist = np.full((int(inst.metadata["num_nodes"]), R), np.inf)
    dist[v0] = 0.0
    pred = np.full(dist.shape, -1, dtype=np.int64)
    cost = np.ascontiguousarray(C.T[a.order])
    pos = np.arange(m)[:, None]
    for _ in range(dist.shape[0]):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("pattern table unfinished at the deadline")
        cand = dist[a.sorted_tail] + cost
        best = np.minimum.reduceat(cand, a.starts, axis=0)
        u, r = np.nonzero(best < dist[a.heads])
        if u.size == 0:
            break
        first = np.minimum.reduceat(np.where(cand == best[a.run], pos, m), a.starts, axis=0)
        dist[a.heads[u], r] = best[u, r]
        pred[a.heads[u], r] = a.order[first[u, r]]
    if np.isinf(dist[w0]).any():
        raise nx.NetworkXNoPath(f"node {w0} not reachable from {v0}")
    X = np.zeros((R, m))
    node = np.full(R, w0)
    live = np.flatnonzero(node != v0)
    while live.size:
        arc = pred[node[live], live]
        X[live, arc] = 1.0
        node[live] = a.tail[arc]
        live = live[node[live] != v0]
    return X


def _sp_pattern_table(inst: Instance, patterns: np.ndarray, deadline: Optional[float]):
    """(values, solutions) of every pattern's nominal problem on a
    shortest-path instance, one ``_sp_paths`` call per row chunk, which
    checks ``deadline`` once per Bellman-Ford pass."""
    P, n = patterns.shape[0], inst.n
    values = np.empty(P)
    solutions = np.empty((P, n), dtype=np.uint8)
    for rows in row_chunks(P, n):
        C = _pattern_costs(inst, patterns[rows])
        X = _sp_paths(inst, C, deadline)
        values[rows] = [float(C[p] @ X[p]) for p in range(C.shape[0])]
        solutions[rows] = X
    return values, solutions


def enumerate_x(inst: Instance) -> np.ndarray:
    """The feasible set as a (num, n) 0-1 matrix.

    Shortest-path instances enumerate simple source-target paths (feasible
    points with extra zero-cost-irrelevant cycles are dominated and skipped);
    facility instances enumerate median subsets crossed with all assignments;
    generic instances check every 0-1 pattern up to the size guard.
    """
    kind = inst.kind
    if kind == "TOY":
        return np.eye(inst.n)
    if kind == "SP":
        if int(inst.metadata["num_nodes"]) > MAX_PATH_NODES:
            raise ValueError("path enumeration limited to graphs with <= 12 nodes")
        g = _shared_sp_graph(inst)
        v0, w0 = int(inst.metadata["v0"]), int(inst.metadata["w0"])
        rows = []
        for path in nx.all_simple_paths(g, v0, w0):
            x = np.zeros(inst.n)
            for a, b in zip(path[:-1], path[1:]):
                x[g.edges[a, b]["index"]] = 1.0
            rows.append(x)
        return np.array(rows)
    if kind == "PLM":
        l = int(inst.metadata["l"])
        p = int(inst.metadata["p"])
        off = int(inst.metadata["y_offset"])
        if comb(l, p) * p ** l > MAX_ENUM:
            raise ValueError("facility enumeration would exceed the size guard")
        rows = []
        for medians in itertools.combinations(range(l), p):
            base = np.zeros(inst.n)
            for i in medians:
                base[off + i] = 1.0
            for assign in itertools.product(medians, repeat=l):
                x = base.copy()
                for j, i in enumerate(assign):
                    x[i * l + j] = 1.0
                rows.append(x)
        return np.array(rows)
    if inst.n > MAX_GENERIC_VARS:
        raise ValueError("generic enumeration limited to 24 variables")
    pats = np.array(list(itertools.product((0.0, 1.0), repeat=inst.n)))
    if inst.x_coeffs.shape[0] == 0:
        return pats
    vals = pats @ inst.x_coeffs.T
    ok = np.ones(pats.shape[0], dtype=bool)
    for i in range(inst.x_coeffs.shape[0]):
        r = vals[:, i] - inst.x_rhs[i]
        if inst.x_senses[i] < 0:
            ok &= r <= 1e-9
        elif inst.x_senses[i] > 0:
            ok &= r >= -1e-9
        else:
            ok &= np.abs(r) <= 1e-9
    return pats[ok]


def robustness_matrix(inst: Instance, X: np.ndarray, gamma, variant: bool = False) -> np.ndarray:
    """Robustness of every row of X at the given budget vector."""
    gamma = np.asarray(gamma, dtype=float)
    if variant:
        return np.array([robustness_value_variant(inst, x, gamma) for x in X])
    vals = X @ inst.c_lower
    for k, g in enumerate(inst.groups):
        idx = list(g)
        vals += np.minimum(gamma[k], X[:, idx] @ inst.deviations[idx])
    return vals


def brute_robust(inst: Instance, gamma, variant: bool = False,
                 X: Optional[np.ndarray] = None):
    """Exact robust optimum by enumeration: returns (value, argmin x)."""
    if X is None:
        X = enumerate_x(inst)
    if X.shape[0] == 0:
        raise ValueError("empty feasible set")
    vals = robustness_matrix(inst, X, gamma, variant=variant)
    i = int(np.argmin(vals))
    return float(vals[i]), X[i].copy()


def has_structural_nominal(inst: Instance) -> bool:
    """Whether ``nominal_minimize`` solves this instance without enumerating X."""
    return inst.kind in ("SP", "TOY") or (
        inst.kind == "PLM"
        and comb(int(inst.metadata["l"]), int(inst.metadata["p"])) <= MAX_MEDIAN_SUBSETS)


def nominal_minimize(inst: Instance, c, X: Optional[np.ndarray] = None):
    """min c'x over X by structure-aware enumeration; returns (value, x).

    Shortest-path instances use Dijkstra (costs must be nonnegative), the
    facility problem scans median subsets with per-location best assignment,
    everything else falls back to the enumerated feasible set.
    """
    c = np.asarray(c, dtype=float)
    kind = inst.kind
    if kind == "SP":
        if np.any(c < 0):
            raise ValueError("Dijkstra needs nonnegative costs")
        g = _shared_sp_graph(inst)
        cost = c.tolist()
        v0, w0 = int(inst.metadata["v0"]), int(inst.metadata["w0"])
        path = nx.dijkstra_path(g, v0, w0, weight=lambda u, v, d: cost[d["index"]])
        x = np.zeros(inst.n)
        for a, b in zip(path[:-1], path[1:]):
            x[g[a][b]["index"]] = 1.0
        return float(c @ x), x
    if kind == "PLM":
        l = int(inst.metadata["l"])
        p = int(inst.metadata["p"])
        off = int(inst.metadata["y_offset"])
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
    if X is None:
        X = enumerate_x(inst)
    vals = X @ c
    i = int(np.argmin(vals))
    return float(vals[i]), X[i].copy()


class PiEnumerationOracle:
    """Exact robust values and a zero-gap solution set via 2^K activation patterns.

    Solving the nominal problem for every on/off pattern of the group
    budgets yields a solution set hitting the robust optimum for every
    gamma; robust values follow as the pattern minimum of
    ``gamma @ pi + nominal(c(pi))``.  Row i holds pattern ``patterns[i]``
    (a (P, K) 0-1 array in ``itertools.product((0, 1), repeat=K)`` order),
    the nominal optimum ``nominal_values[i]`` of ``c(pi)`` and its solution
    ``solutions[i]`` (a (P, n) uint8 array).  Building the table raises
    TimeoutError once ``time.monotonic()`` passes ``deadline``.
    """

    def __init__(self, inst: Instance, deadline: Optional[float] = None):
        K = inst.num_groups
        if K > PATTERN_MAX_K:
            raise ValueError(f"pattern enumeration refused for K > {PATTERN_MAX_K}")
        t0 = time.monotonic()
        P = 1 << K
        bits = np.arange(K - 1, -1, -1)
        self.patterns = ((np.arange(P)[:, None] >> bits) & 1).astype(float)
        if inst.kind == "SP":
            self.nominal_values, self.solutions = _sp_pattern_table(
                inst, self.patterns, deadline)
        else:
            X = enumerate_x(inst) if inst.kind != "PLM" else None
            self.nominal_values = np.empty(P)
            self.solutions = np.empty((P, inst.n), dtype=np.uint8)
            for rows in row_chunks(P, inst.n):
                C = _pattern_costs(inst, self.patterns[rows])
                for i, c in zip(range(rows.start, rows.stop), C):
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError("pattern table unfinished at the deadline")
                    self.nominal_values[i], x = nominal_minimize(inst, c, X=X)
                    self.solutions[i] = np.round(x)
        self.build_s = time.monotonic() - t0

    def robust_value(self, gamma) -> float:
        gamma = np.asarray(gamma, dtype=float)
        return float(self.robust_values(gamma[None])[0])

    def robust_values(self, G) -> np.ndarray:
        """Robust optimum at every budget row of G (S, K), in row chunks.

        The minimum over patterns of nominal(pi) + sum_k gamma_k pi_k is taken
        one group at a time: from the table as a (2,)*K array, the leading
        pi_k axis is replaced by min(A[pi_k = 0], A[pi_k = 1] + gamma_k).
        Float addition is monotone, so this equals, to the bit, the pattern
        minimum of the nominal value plus each active gamma_k in group order;
        ``robust_grid`` makes the same additions.
        """
        G = np.asarray(G, dtype=float)
        K = self.patterns.shape[1]
        if G.ndim != 2 or G.shape[1] != K:
            raise ValueError(f"G has shape {G.shape}, expected (S, {K})")
        out = np.empty(G.shape[0])
        for rows in row_chunks(G.shape[0], self.patterns.shape[0]):
            A = self.nominal_values.reshape((2,) * K + (1,))
            for k in range(K):
                A = np.minimum(A[0], A[1] + G[rows, k])
            out[rows] = A
        return out

    def robust_grid(self, axes) -> np.ndarray:
        """Robust optimum on the product grid of ``axes`` (one array of
        budgets per group), shaped ``(len(axes[0]), ...)`` with the last axis
        fastest; equals ``robust_values`` of the grid's points to the bit.
        With two or more points per axis no temporary outgrows the output."""
        K = self.patterns.shape[1]
        if len(axes) != K:
            raise ValueError(f"{len(axes)} grid axes for {K} groups")
        A = self.nominal_values.reshape((2,) * K)
        for axis in axes:
            t = A[1][..., None] + axis
            A = np.minimum(A[0][..., None], t, out=t)
        return A

    def best_pattern(self, gamma) -> tuple:
        """(index, value) of the pattern minimizing nominal(pi) + gamma . pi.

        A pattern's value is its nominal value plus each active gamma_k,
        added in group order as ``robust_values`` adds them, so the value
        equals ``robust_value(gamma)`` to the bit; ties go to the first
        index.  Inactive groups add nothing, so an infinite budget only
        rules out the patterns that activate it.
        """
        gamma = np.asarray(gamma, dtype=float)
        K = self.patterns.shape[1]
        if gamma.shape != (K,):
            raise ValueError(f"gamma has shape {gamma.shape}, expected ({K},)")
        A = self.nominal_values.reshape((2,) * K).copy()
        for k in range(K):
            A[(slice(None),) * k + (1,)] += gamma[k]
        i = int(np.argmin(A))
        return i, float(A.flat[i])

    def best_solution(self, gamma) -> np.ndarray:
        return self.solutions[self.best_pattern(gamma)[0]].astype(float)

    def solution_set(self) -> list:
        _, first = np.unique(self.solutions, axis=0, return_index=True)
        return [self.solutions[i].astype(float) for i in sorted(first)]


# one finished pattern table per instance, shared by every reader in the
# process; a table must not refer to its instance, or the entry never goes
_PATTERN_TABLES: "weakref.WeakKeyDictionary[Instance, PiEnumerationOracle]" = (
    weakref.WeakKeyDictionary())


def shared_pattern_table(inst: Instance, deadline: Optional[float] = None) -> PiEnumerationOracle:
    """The instance's pattern table, built on first use and shared after.

    Only finished tables are kept: a TimeoutError at ``deadline`` (or the
    ValueError of a refused table) propagates and caches nothing.  The
    table's ``patterns``, ``nominal_values`` and ``solutions`` are
    read-only, so no reader changes what the next one sees.  The
    ``PiEnumerationOracle`` constructor still builds a fresh table.
    """
    table = _PATTERN_TABLES.get(inst)
    if table is None:
        table = PiEnumerationOracle(inst, deadline=deadline)
        for a in (table.patterns, table.nominal_values, table.solutions):
            a.flags.writeable = False
        _PATTERN_TABLES[inst] = table
    return table


def cached_pattern_table(inst: Instance) -> Optional[PiEnumerationOracle]:
    """The instance's finished shared table, or None; builds nothing."""
    return _PATTERN_TABLES.get(inst)


def exact_mprs_by_pi_enumeration(inst: Instance) -> list:
    """Solution set achieving gap 0 for every gamma (any omega over the groups)."""
    return shared_pattern_table(inst).solution_set()


# ---------------------------------------------------------------------------
# piecewise-linear auxiliary function (breakpoint optimality checks)
# ---------------------------------------------------------------------------

def piecewise_f(gamma: float, u, v, pi: float) -> float:
    """f(pi) = gamma*pi + sum_j u_j * max(0, v_j - pi) on pi >= 0."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("v must be strictly positive")
    if gamma < 0 or pi < 0:
        raise ValueError("gamma and pi must be nonnegative")
    return float(gamma * pi + u @ np.maximum(0.0, v - pi))


def piecewise_breakpoints(gamma: float, u, v):
    """Breakpoint set {0} union {v_j} (sorted) and the minimizing breakpoint."""
    v = np.asarray(v, dtype=float)
    pts = np.unique(np.concatenate([[0.0], v]))
    vals = np.array([piecewise_f(gamma, u, v, p) for p in pts])
    return pts, float(pts[int(np.argmin(vals))])
