"""Brute-force ground truth for the solver and engine modules.

Everything here is independent of the MILP machinery: feasible sets are
enumerated structurally (simple paths, median subsets, unit vectors, or raw
0-1 patterns), robust values come from the closed-form evaluators, and
nominal problems go through one batched kernel per family, ``(values, X) =
kernel(inst, C, deadline)`` over a block of cost rows: Bellman-Ford on
shortest-path instances, one scan of the median subsets on p-median
instances, a scan of the enumerated feasible set elsewhere.
"""

from __future__ import annotations

import itertools
import time
import weakref
from math import comb
from typing import Optional

import numpy as np

from .uncertainty import (
    Instance, OmegaSpec, robustness_value, robustness_value_variant, row_chunks,
)

MAX_PATH_NODES = 12
MAX_GENERIC_VARS = 24
MAX_ENUM = 2_000_000
# Largest group count of a pattern table, which pays 2^K nominal solves
# (on shortest-path instances one batched kernel, about 1.8 s at K = 16 on
# SP 20).  The engine's pattern master shares the limit: measured against
# the MILP master on shortest-path instances (CHANGES.md), the pattern
# master still won at K = 16.
PATTERN_MAX_K = 16
# Largest 2^K * comb(l, p), the (pattern, median subset) pairs its kernel
# scans, of a p-median table that serves the engine's pattern master.
# Measured against one robust MILP (PLM l = 10-40, p = 2-4, K = 4-12; the
# measurements are in CHANGES.md): within the bound the table won or lost
# by at most 0.13 s (l = 30, p = 3, K = 8: 0.21 against 0.08 s), and a run
# solves many MILP masters, not one; above it the table lost (l = 40,
# p = 4, K = 8: 8.4 against 2.3 s).
PLM_MAX_WORK = 1 << 22
# median subsets the p-median kernel scans between two reads of the clock
SUBSET_STRIDE = 64


def admits_pattern_table(inst: Instance) -> bool:
    """Whether ``PiEnumerationOracle`` builds this instance's table: at most
    ``PATTERN_MAX_K`` groups, and on generic instances at most
    ``MAX_GENERIC_VARS`` variables to enumerate.  Verify reads the table
    wherever one is admitted: its other exact reference evaluates every
    sampled point, at least the 2^K vertices, over the whole feasible set."""
    return inst.num_groups <= PATTERN_MAX_K and (
        inst.kind in ("SP", "TOY", "PLM") or inst.n <= MAX_GENERIC_VARS)


def pattern_table_pays(inst: Instance) -> bool:
    """Whether the table beats MILP masters, so the engine's pattern master
    serves the instance: admitted shortest-path and toy instances, p-median
    ones within ``PLM_MAX_WORK``; generic instances keep the MILP masters."""
    if not admits_pattern_table(inst):
        return False
    if inst.kind == "PLM":
        l, p = int(inst.metadata["l"]), int(inst.metadata["p"])
        return comb(l, p) << inst.num_groups <= PLM_MAX_WORK
    return inst.kind in ("SP", "TOY")


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
    The rows are C-contiguous: a dot product with one takes BLAS's route, as
    a one-row kernel call's does, so pattern values agree to the bit."""
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


class _SpArcs:
    """Arcs ``tail[j] -> head[j]``, kept as given and sorted by head.

    ``order`` sorts the arcs by head (stably, so arcs into one node keep
    their index order); ``starts`` opens each head's run in that order,
    ``heads`` names the run's node and ``run`` maps each sorted arc to its
    run.
    """

    def __init__(self, tail: np.ndarray, head: np.ndarray):
        self.tail, self.head = tail, head
        self.order = np.argsort(head, kind="stable")
        head = head[self.order]
        self.sorted_tail = self.tail[self.order]
        new_run = np.r_[True, head[1:] != head[:-1]]
        self.starts = np.flatnonzero(new_run)
        self.heads = head[self.starts]
        self.run = np.cumsum(new_run) - 1


_SP_ARCS: "weakref.WeakKeyDictionary[Instance, _SpArcs]" = weakref.WeakKeyDictionary()


def _shared_sp_arcs(inst: Instance) -> _SpArcs:
    a = _SP_ARCS.get(inst)
    if a is None:
        arcs = np.asarray(inst.metadata["arcs"], dtype=np.int64).reshape(-1, 2)
        a = _SP_ARCS[inst] = _SpArcs(arcs[:, 0], arcs[:, 1])
    return a


def _bellman_ford(a: _SpArcs, num_nodes: int, source: int, C: np.ndarray,
                  deadline: Optional[float]) -> tuple:
    """(dist, pred), both (num_nodes, R): distances from ``source`` for
    every cost row of C (R, m), inf where unreachable, and each node's
    predecessor arc (-1 where none).  Synchronous Bellman-Ford: each pass
    relaxes every arc for every row at once and keeps each node's minimum
    over its in-arcs (``np.minimum.reduceat`` over the head-sorted arcs);
    the passes stop at the first that changes nothing.  Costs are
    nonnegative, so a distance is the left-to-right float sum along a path,
    as in Dijkstra.  A node's predecessor arc (the first in-arc reaching the
    minimum) changes only on a strict improvement, so zero-cost arcs cannot
    close a cycle in the walk back along ``pred``.  The arrays are node- and
    arc-major, so each reduction runs over contiguous rows of length R; no
    row's result depends on another row.  Each pass first reads the clock
    and raises TimeoutError once ``time.monotonic()`` is past ``deadline``.
    """
    R, m = C.shape
    dist = np.full((num_nodes, R), np.inf)
    dist[source] = 0.0
    pred = np.full(dist.shape, -1, dtype=np.int64)
    cost = np.ascontiguousarray(C.T[a.order])
    pos = np.arange(m)[:, None]
    for _ in range(num_nodes):
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
    return dist, pred


def distances_to_target(inst: Instance) -> np.ndarray:
    """Each node's cheapest-path cost to w0 at the nominal costs (inf where
    w0 is unreachable): the kernel from w0 over the reversed arcs."""
    a = _shared_sp_arcs(inst)
    dist, _ = _bellman_ford(_SpArcs(a.head, a.tail), int(inst.metadata["num_nodes"]),
                            int(inst.metadata["w0"]), inst.c_lower[None], None)
    return dist[:, 0]


def _sp_kernel(inst: Instance, C: np.ndarray, deadline: Optional[float]) -> tuple:
    """(values, X) of every cost row of C (R, n) on a shortest-path instance:
    ``_bellman_ford`` from v0, the walk back from w0 along the predecessor
    arcs to a 0-1 path per row, and each row's value as its dot product with
    its path.  Raises ValueError when w0 is unreachable and TimeoutError
    past ``deadline``."""
    a = _shared_sp_arcs(inst)
    v0, w0 = int(inst.metadata["v0"]), int(inst.metadata["w0"])
    R, m = C.shape
    dist, pred = _bellman_ford(a, int(inst.metadata["num_nodes"]), v0, C, deadline)
    if np.isinf(dist[w0]).any():
        raise ValueError(f"node {w0} not reachable from {v0}")
    X = np.zeros((R, m))
    node = np.full(R, w0)
    live = np.flatnonzero(node != v0)
    while live.size:
        arc = pred[node[live], live]
        X[live, arc] = 1.0
        node[live] = a.tail[arc]
        live = live[node[live] != v0]
    return np.array([float(C[r] @ X[r]) for r in range(R)]), X


def _plm_kernel(inst: Instance, C: np.ndarray, deadline: Optional[float]) -> tuple:
    """(values, X) of every cost row of C on a p-median instance, by one
    scan of the median subsets that evaluates every row per subset.  A row
    keeps the first subset unless a later one improves by more than 1e-15,
    and a location goes to its first cheapest median of the subset.  The
    clock is read every ``SUBSET_STRIDE`` subsets, TimeoutError past
    ``deadline``."""
    l, p, off = (int(inst.metadata[key]) for key in ("l", "p", "y_offset"))
    R = C.shape[0]
    A = C[:, :l * l].reshape(R, l, l)       # A[r, i, j]: location j served by median i
    Y = C[:, off:off + l]
    values = np.full(R, np.inf)
    best = np.zeros((R, p), dtype=np.int64)
    for i, S in enumerate(itertools.combinations(range(l), p)):
        if i % SUBSET_STRIDE == 0 and deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("pattern table unfinished at the deadline")
        S = list(S)
        # take() keeps the (R, p) block C-ordered, so each row sums as a 1-d array does
        v = A[:, S, :].min(axis=1).sum(axis=1) + Y.take(S, axis=1).sum(axis=1)
        better = v < values - 1e-15
        values[better] = v[better]
        best[better] = S
    r = np.arange(R)[:, None]
    median = best[r, A[r[:, :, None], best[:, :, None], np.arange(l)].argmin(axis=1)]
    X = np.zeros((R, inst.n))
    X[r, median * l + np.arange(l)] = 1.0
    X[r, off + best] = 1.0
    return values, X


# the enumerated feasible set of each toy or generic instance a kernel reads
_FEASIBLE_SETS: "weakref.WeakKeyDictionary[Instance, np.ndarray]" = weakref.WeakKeyDictionary()


def _enumerated_kernel(inst: Instance, C: np.ndarray, deadline: Optional[float]) -> tuple:
    """(values, X) of every cost row c of C: the first minimum of ``X @ c``
    over the enumerated set X, the clock read before each row.  X is
    enumerated once per instance and shared by every call after."""
    X = _FEASIBLE_SETS.get(inst)
    if X is None:
        X = _FEASIBLE_SETS[inst] = enumerate_x(inst)
        X.flags.writeable = False
    values, best = np.empty(C.shape[0]), np.empty(C.shape[0], dtype=np.int64)
    for r, c in enumerate(C):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("pattern table unfinished at the deadline")
        v = X @ c
        best[r] = np.argmin(v)
        values[r] = v[best[r]]
    return values, X[best]


_KERNELS = {"SP": _sp_kernel, "PLM": _plm_kernel}      # any other kind: _enumerated_kernel


def _simple_paths(inst: Instance) -> np.ndarray:
    """Every simple v0-w0 path as a (num, n) 0-1 matrix, by an iterative
    depth-first search that takes each node's out-arcs in arc-index order,
    so the rows come in preorder; each parallel arc opens its own branch."""
    a = _shared_sp_arcs(inst)
    v0, w0 = int(inst.metadata["v0"]), int(inst.metadata["w0"])
    head, out = a.head.tolist(), [[] for _ in range(int(inst.metadata["num_nodes"]))]
    for j, u in enumerate(a.tail.tolist()):
        out[u].append(j)
    paths, stack = [], [(v0, [])]
    while stack:
        u, path = stack.pop()
        if u == w0:
            paths.append(path)
            continue
        on_path = {v0, *(head[j] for j in path)}
        stack += [(head[j], path + [j]) for j in reversed(out[u]) if head[j] not in on_path]
    X = np.zeros((len(paths), inst.n))
    for i, path in enumerate(paths):
        X[i, path] = 1.0
    return X


def _binary_rows(rows: slice, width: int) -> np.ndarray:
    """Rows ``rows`` of the (2^width, width) 0-1 float matrix whose row i is
    i in binary, most significant bit first: the order of
    ``itertools.product((0, 1), repeat=width)``."""
    bits = np.arange(width - 1, -1, -1)
    return ((np.arange(rows.start, rows.stop)[:, None] >> bits) & 1).astype(float)


def enumerate_x(inst: Instance) -> np.ndarray:
    """The feasible set as a (num, n) 0-1 matrix.

    Shortest-path instances enumerate simple source-target paths (feasible
    points with extra zero-cost-irrelevant cycles are dominated and skipped);
    facility instances enumerate median subsets crossed with all assignments;
    generic instances check every 0-1 pattern up to the size guard, in row
    chunks, so only the feasible rows are kept whole.
    """
    kind = inst.kind
    if kind == "TOY":
        return np.eye(inst.n)
    if kind == "SP":
        if int(inst.metadata["num_nodes"]) > MAX_PATH_NODES:
            raise ValueError("path enumeration limited to graphs with <= 12 nodes")
        return _simple_paths(inst)
    if kind == "PLM":
        l = int(inst.metadata["l"])
        p = int(inst.metadata["p"])
        off = int(inst.metadata["y_offset"])
        if comb(l, p) * p ** l > MAX_ENUM:
            raise ValueError("facility enumeration would exceed the size guard")
        blocks = []
        for medians in itertools.combinations(range(l), p):
            assign = np.array(list(itertools.product(medians, repeat=l)))
            X = np.zeros((assign.shape[0], inst.n))
            X[:, off + np.array(medians)] = 1.0
            np.put_along_axis(X, assign * l + np.arange(l), 1.0, axis=1)
            blocks.append(X)
        return np.vstack(blocks)
    if inst.n > MAX_GENERIC_VARS:
        raise ValueError("generic enumeration limited to 24 variables")
    s, keep = inst.x_senses, []
    for rows in row_chunks(1 << inst.n, inst.n):
        pats = _binary_rows(rows, inst.n)
        r = pats @ inst.x_coeffs.T - inst.x_rhs     # a sense < 0 is <=, > 0 is >=, 0 is =
        keep.append(pats[(((s > 0) | (r <= 1e-9)) & ((s < 0) | (r >= -1e-9))).all(axis=1)])
    return np.vstack(keep)


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


def nominal_minimize(inst: Instance, c):
    """min c'x over X, as (value, x): a one-row call of the family's kernel.
    Shortest-path costs must be nonnegative; the value equals Dijkstra's to
    the bit, and on tied costs the path may be another of equal value."""
    c = np.asarray(c, dtype=float)
    if inst.kind == "SP" and np.any(c < 0):
        raise ValueError("shortest paths need nonnegative costs")
    values, X = _KERNELS.get(inst.kind, _enumerated_kernel)(inst, c[None], None)
    return float(values[0]), X[0]


class PiEnumerationOracle:
    """Exact robust values and a zero-gap solution set via 2^K activation patterns.

    Solving the nominal problem for every on/off pattern of the group
    budgets yields a solution set hitting the robust optimum for every
    gamma; robust values follow as the pattern minimum of
    ``gamma @ pi + nominal(c(pi))``.  Row i holds pattern ``patterns[i]``
    (a (P, K) 0-1 array in ``itertools.product((0, 1), repeat=K)`` order),
    the nominal optimum ``nominal_values[i]`` of ``c(pi)`` and its solution
    ``solutions[i]`` (a (P, n) uint8 array), from the family's kernel on
    row chunks.  The build raises TimeoutError past ``deadline``.
    """

    def __init__(self, inst: Instance, deadline: Optional[float] = None):
        K = inst.num_groups
        if K > PATTERN_MAX_K:
            raise ValueError(f"pattern enumeration refused for K > {PATTERN_MAX_K}")
        t0 = time.monotonic()
        P = 1 << K
        self.patterns = _binary_rows(slice(0, P), K)
        kernel = _KERNELS.get(inst.kind, _enumerated_kernel)
        self.nominal_values = np.empty(P)
        self.solutions = np.empty((P, inst.n), dtype=np.uint8)
        for rows in row_chunks(P, inst.n):
            self.nominal_values[rows], self.solutions[rows] = kernel(
                inst, _pattern_costs(inst, self.patterns[rows]), deadline)
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
