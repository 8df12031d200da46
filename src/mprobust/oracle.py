"""Brute-force ground truth for the solver and engine modules.

Everything here is independent of the MILP machinery: feasible sets are
enumerated structurally (simple paths, median subsets, unit vectors, or raw
0-1 patterns), nominal problems are solved by Dijkstra or direct scans, and
robust values come from the closed-form evaluators.
"""

from __future__ import annotations

import itertools
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


def cost_for_pi_oracle(inst: Instance, pi) -> np.ndarray:
    """c(pi): nominal cost where the group budget is open, full deviation otherwise."""
    pi = np.asarray(pi, dtype=float)
    c = inst.c_lower + inst.deviations
    for k, g in enumerate(inst.groups):
        if pi[k] > 0.5:
            for j in g:
                c[j] = inst.c_lower[j]
    return c


class PiEnumerationOracle:
    """Exact robust values and a zero-gap solution set via 2^K activation patterns.

    Solving the nominal problem for every on/off pattern of the group
    budgets yields a solution set hitting the robust optimum for every
    gamma; robust values follow as the pattern minimum of
    ``gamma @ pi + nominal(c(pi))``.
    """

    def __init__(self, inst: Instance, config=None):
        K = inst.num_groups
        if K > 16:
            raise ValueError("pattern enumeration refused for K > 16")
        self.inst = inst
        X = enumerate_x(inst) if inst.kind not in ("SP", "PLM") else None
        self.patterns = np.array(list(itertools.product((0.0, 1.0), repeat=K)))
        self.nominal_values = np.empty(self.patterns.shape[0])
        self.solutions = []
        for i, pi in enumerate(self.patterns):
            val, x = nominal_minimize(inst, cost_for_pi_oracle(inst, pi), X=X)
            self.nominal_values[i] = val
            self.solutions.append(x)

    def robust_value(self, gamma) -> float:
        gamma = np.asarray(gamma, dtype=float)
        return float(np.min(self.patterns @ gamma + self.nominal_values))

    def robust_values(self, G) -> np.ndarray:
        """Robust optimum at every budget row of G (S, K), in row chunks."""
        G = np.asarray(G, dtype=float)
        out = np.empty(G.shape[0])
        for rows in row_chunks(G.shape[0], self.patterns.shape[0]):
            out[rows] = np.min(G[rows] @ self.patterns.T + self.nominal_values, axis=1)
        return out

    def best_solution(self, gamma):
        gamma = np.asarray(gamma, dtype=float)
        i = int(np.argmin(self.patterns @ gamma + self.nominal_values))
        return self.solutions[i]

    def solution_set(self) -> list:
        seen = {}
        for x in self.solutions:
            seen.setdefault(tuple(int(round(v)) for v in x), x)
        return list(seen.values())


def exact_mprs_by_pi_enumeration(inst: Instance, omega: Optional[OmegaSpec] = None,
                                 config=None) -> list:
    """Solution set achieving gap 0 for every gamma (any omega over the groups)."""
    return PiEnumerationOracle(inst, config).solution_set()


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
