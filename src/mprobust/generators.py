"""Random benchmark families and their budget-domain constructions.

Shortest-path instances: uniform points in [0,10]^2, source/target = the
farthest pair, nominal cost = arc length, deviation = half the length.  The
graph keeps round(0.3 N(N-1)) arcs of the complete digraph on N nodes.  It
removes arcs in the order (length descending, tail descending, head
descending): of the two equally long directions of a pair the one with the
larger tail goes first, so a surviving tied arc points from the smaller
node to the larger.  Kept arcs are numbered in row-major (tail, head)
order.  Facility instances: uniform points in [0,100]^2 with uniform
demands, assignment cost = distance times demand, deviation = half of it.

Partition schemes label items into K budget groups (empty groups are
dropped and the groups renumbered): ``r``/``lo`` draw labels uniformly,
``p`` buckets arc tails by cheapest-path cost to the target (the
Bellman-Ford kernel of ``oracle`` on the reversed arcs), ``d`` by
straight-line distance to the target, ``g`` buckets facility rows by total
deviation.  Buckets are half-open with the last one closed, so the maximal
item always lands in the last group.

The RNG is numpy's PCG64 (``np.random.default_rng``); a fixed seed gives a
bit-identical instance on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .milp import EQ, GE, LE
from .oracle import distances_to_target
from .uncertainty import Instance, OmegaSpec

SP_REMOVAL_FRACTION = 0.7
SP_MAX_RETRIES = 100        # seeds gen_sp tries before it gives up
DEVIATION_RATIO = 0.5


@dataclass(frozen=True)
class SpParams:
    num_nodes: int
    seed: int = 0

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ValueError("need at least two nodes")


@dataclass(frozen=True)
class PlmParams:
    l: int
    p: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("need at least one location")
        p = self.medians
        if not 1 <= p <= self.l:
            raise ValueError("median count must lie in [1, l]")

    @property
    def medians(self) -> int:
        return self.p if self.p is not None else max(1, self.l // 10)


@dataclass(frozen=True)
class PartitionScheme:
    kind: str           # r | p | d (shortest path); lo | g (facility)
    K: int

    def __post_init__(self):
        if self.kind not in ("r", "p", "d", "lo", "g"):
            raise ValueError(f"unknown partition scheme {self.kind!r}")
        if self.K < 1:
            raise ValueError("K must be >= 1")


def _sp_attempt(num_nodes: int, seed: int):
    rng = np.random.default_rng(seed)
    coords = rng.random((num_nodes, 2)) * 10.0
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))

    best = (-1.0, 0, 1)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if dist[i, j] > best[0] + 1e-15:
                best = (dist[i, j], i, j)
    v0, w0 = best[1], best[2]

    # arcs (u, v), u != v, in row-major order
    tails, heads = np.nonzero(~np.eye(num_nodes, dtype=bool))
    total = tails.size
    keep_count = int(round((1.0 - SP_REMOVAL_FRACTION) * total))
    # longest first; ties (the two directions of a pair) drop the
    # lexicographically later arc first, so a surviving tied arc points
    # forward where possible
    order = np.lexsort((-heads, -tails, -dist[tails, heads]))
    kept = np.ones(total, dtype=bool)
    kept[order[: total - keep_count]] = False
    tails, heads = tails[kept], heads[kept]

    reach = {v0}
    frontier = [v0]
    out = {}
    for u, v in zip(tails.tolist(), heads.tolist()):
        out.setdefault(u, []).append(v)
    while frontier:
        u = frontier.pop()
        for v in out.get(u, ()):
            if v not in reach:
                reach.add(v)
                frontier.append(v)
    if w0 not in reach:
        return None
    return coords, dist, v0, w0, tails, heads


class GenerationError(RuntimeError):
    """A generator found no instance for its parameters within its retries."""


def gen_sp(params: SpParams) -> Instance:
    """Random shortest-path instance; reseeds until the target is reachable,
    and raises GenerationError after ``SP_MAX_RETRIES`` failed seeds."""
    seed = params.seed
    for _ in range(SP_MAX_RETRIES):
        got = _sp_attempt(params.num_nodes, seed)
        if got is not None:
            break
        seed += 1
    else:
        raise GenerationError("could not generate a connected instance")
    coords, dist, v0, w0, tails, heads = got
    n = tails.size
    lengths = dist[tails, heads]
    rows = np.zeros((params.num_nodes, n))
    cols = np.arange(n)
    rows[tails, cols] = 1.0
    rows[heads, cols] = -1.0
    rhs = np.zeros(params.num_nodes)
    rhs[v0] = 1.0
    rhs[w0] = -1.0
    arcs = list(zip(tails.tolist(), heads.tolist()))
    return Instance(
        c_lower=lengths,
        deviations=DEVIATION_RATIO * lengths,
        groups=(tuple(range(n)),),
        x_coeffs=rows,
        x_senses=np.full(params.num_nodes, EQ, dtype=np.int8),
        x_rhs=rhs,
        metadata={
            "kind": "SP", "tu": True,
            "num_nodes": params.num_nodes,
            "v0": int(v0), "w0": int(w0),
            "arcs": arcs,
            "coords": coords.tolist(),
            "seed": params.seed, "effective_seed": seed,
        },
        var_names=tuple(f"e{u}_{v}" for u, v in arcs))


def gen_plm(params: PlmParams) -> Instance:
    """Random facility instance with l*l assignment variables plus l medians."""
    rng = np.random.default_rng(params.seed)
    l, p = params.l, params.medians
    coords = rng.random((l, 2)) * 100.0
    demands = rng.random(l) * 100.0
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    cmat = dist * demands[None, :]          # cost of serving j from i

    n = l * l + l
    c = np.zeros(n)
    c[: l * l] = cmat.reshape(-1)
    d = DEVIATION_RATIO * c
    # per (i, j): x_ij - y_i <= 0; then sum_i y_i = p; per j: sum_i x_ij = 1
    m = l * l + 1 + l
    a = np.arange(l * l)            # assignment a = i * l + j
    rows = np.zeros((m, n))
    rows[a, a] = 1.0
    rows[a, l * l + a // l] = -1.0
    rows[l * l, l * l:] = 1.0
    rows[l * l + 1 + a % l, a] = 1.0
    senses = np.full(m, LE, dtype=np.int8)
    senses[l * l:] = EQ
    rhs = np.zeros(m)
    rhs[l * l] = float(p)
    rhs[l * l + 1:] = 1.0
    return Instance(
        c_lower=c, deviations=d,
        groups=(tuple(range(l * l)),),
        x_coeffs=rows,
        x_senses=senses,
        x_rhs=rhs,
        metadata={
            "kind": "PLM", "tu": False,
            "l": l, "p": p, "y_offset": l * l,
            "coords": coords.tolist(), "demands": demands.tolist(),
            "seed": params.seed,
        },
        var_names=tuple(f"x{i}_{j}" for i in range(l) for j in range(l))
        + tuple(f"y{i}" for i in range(l)))


def _buckets(values: np.ndarray, K: int) -> np.ndarray:
    """Half-open buckets [(k-1)h, kh) of [0, max], last bucket closed.

    Infinite entries (unreachable nodes) land in the last bucket.
    """
    mask = np.isfinite(values)
    top = float(values[mask].max()) if np.any(mask) else 0.0
    if top <= 0.0 or K == 1:
        return np.zeros(values.shape, dtype=int)
    h = top / K
    safe = np.where(mask, values, 0.0)
    idx = np.minimum((safe // h).astype(int), K - 1)
    idx[~mask] = K - 1
    return idx


def partition(inst: Instance, scheme: PartitionScheme, seed: int = 0) -> tuple:
    """Group labels for the instance's deviating items under the scheme."""
    kind = inst.kind
    if scheme.kind in ("r", "p", "d") and kind != "SP":
        raise ValueError(f"scheme {scheme.kind!r} applies to shortest-path instances")
    if scheme.kind in ("lo", "g") and kind != "PLM":
        raise ValueError(f"scheme {scheme.kind!r} applies to facility instances")

    if kind == "SP":
        arcs = inst.metadata["arcs"]
        n = inst.n
        if scheme.kind == "r":
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, scheme.K, size=n)
        else:
            w0 = int(inst.metadata["w0"])
            if scheme.kind == "p":
                vals = distances_to_target(inst)
            else:
                coords = np.asarray(inst.metadata["coords"])
                vals = np.sqrt(((coords - coords[w0]) ** 2).sum(axis=1))
            tails = np.asarray(arcs, dtype=int).reshape(-1, 2)[:, 0]
            labels = _buckets(vals, scheme.K)[tails]
    else:
        l = int(inst.metadata["l"])
        if scheme.kind == "lo":
            rng = np.random.default_rng(seed)
            row_labels = rng.integers(0, scheme.K, size=l)
        else:
            dev = inst.deviations[: l * l].reshape(l, l)
            row_labels = _buckets(dev.sum(axis=1), scheme.K)
        labels = np.repeat(row_labels, l)

    # labels cover the SP arcs, or the PLM assignments x_ij at i * l + j
    index = np.arange(labels.size)
    groups = (tuple(index[labels == k].tolist()) for k in range(scheme.K))
    return tuple(g for g in groups if g)


def apply_partition(inst: Instance, scheme: PartitionScheme, seed: int = 0) -> Instance:
    return inst.with_groups(partition(inst, scheme, seed))


def build_omega(inst: Instance, kind: str, delta: float = 0.0,
                alpha_lo: float = 0.0, alpha_hi: float = 1.0,
                beta1: float = 0.5, beta2: float = 1.0,
                segment_scale: Optional[float] = None) -> OmegaSpec:
    """Budget domain over the instance's groups, scaled by max group deviation.

    interval: [delta, delta+1] times the group maximum (width independent of
    delta); segment: gamma0 = scale * maximum with scale defaulting to 1
    (assignment-count l*l for facility instances); budgeted: base = beta1 *
    maximum, spread = beta2 * base, total slack = delta * max spread.
    """
    M = np.array([float(inst.deviations[list(g)].max()) for g in inst.groups])
    if kind == "interval":
        if delta < 0:
            raise ValueError("delta must be >= 0")
        return OmegaSpec.interval(delta * M, (delta + 1.0) * M)
    if kind == "segment":
        scale = segment_scale
        if scale is None:
            scale = float(inst.metadata["l"]) ** 2 if inst.kind == "PLM" else 1.0
        return OmegaSpec.segment(scale * M, alpha_lo, alpha_hi)
    if kind == "budgeted":
        base = beta1 * M
        spread = beta2 * base
        return OmegaSpec.budgeted(base, spread, delta * float(spread.max(initial=0.0)))
    raise ValueError(f"unknown omega kind {kind!r}")

