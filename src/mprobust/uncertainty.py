"""Locally budgeted uncertainty sets and worst-case cost evaluation.

An :class:`Instance` couples a 0-1 feasible set X (linear rows over the
decision vector) with a nominal cost vector, per-component deviations, and a
partition of the deviating components into budget groups.  For a budget
vector ``gamma`` (one entry per group) the uncertain cost vector ranges over

    standard:  c = c_nom + lam,        0 <= lam_j <= dev_j,  sum_{P_k} lam_j <= gamma_k
    variant:   c_j = c_nom_j + lam_j * dev_j,  lam in [0,1]^n, sum_{P_k} lam_j <= gamma_k

Worst-case cost of a fixed solution has a closed form in both cases (group
cap / fractional knapsack); ``robustness_values`` evaluates the standard
form for a batch of solutions at a batch of budget vectors.

Budget vectors are plain numpy arrays of length K (no wrapper class).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional

import numpy as np

from .milp import MilpModel, solve_milp

MEMBERSHIP_TOL = 1e-9
CHUNK_ELEMS = 1 << 18       # float64 entries per temporary of the batched evaluators
GRID_MAX_POINTS = 2_000_000  # largest grid sample_gamma lists


@dataclass(frozen=True, eq=False)
class Instance:
    """Nominal 0-1 problem plus deviation data and budget groups.

    ``groups`` must be disjoint, nonempty, and cover every index with a
    positive deviation; indices outside all groups carry no uncertainty.
    """

    c_lower: np.ndarray                 # (n,) nominal costs, >= 0
    deviations: np.ndarray              # (n,) deviations, >= 0
    groups: tuple                       # K tuples of indices into [n]
    x_coeffs: np.ndarray                # (m, n) rows describing X
    x_senses: np.ndarray                # (m,)
    x_rhs: np.ndarray                   # (m,)
    metadata: dict = field(default_factory=dict)
    var_names: Optional[tuple] = None
    _group_of: np.ndarray = field(init=False, repr=False)   # read-only, see group_of
    _covered: np.ndarray = field(init=False, repr=False)    # read-only, see covered

    def __post_init__(self):
        c = np.asarray(self.c_lower, dtype=float)
        d = np.asarray(self.deviations, dtype=float)
        object.__setattr__(self, "c_lower", c)
        object.__setattr__(self, "deviations", d)
        n = c.shape[0]
        if d.shape != (n,):
            raise ValueError("c_lower and deviations must have equal length")
        if np.any(c < 0) or np.any(d < 0):
            raise ValueError("nominal costs and deviations must be nonnegative")
        groups = tuple(tuple(map(int, g)) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        owner = _group_owner(groups, n)
        uncovered = np.flatnonzero((owner < 0) & (d > 0))
        if uncovered.size:
            raise ValueError(f"deviating indices outside every group: {uncovered.tolist()}")
        if self.x_coeffs.shape[1] != n:
            raise ValueError("feasible-set rows must match the variable count")
        m = self.x_coeffs.shape[0]
        if np.shape(self.x_senses) != (m,) or np.shape(self.x_rhs) != (m,):
            raise ValueError(f"x_senses {np.shape(self.x_senses)} and x_rhs "
                             f"{np.shape(self.x_rhs)} must have shape ({m},), one entry "
                             f"per row of x_coeffs")
        covered = np.flatnonzero(owner >= 0)
        owner.flags.writeable = False
        covered.flags.writeable = False
        object.__setattr__(self, "_group_of", owner)
        object.__setattr__(self, "_covered", covered)

    @property
    def n(self) -> int:
        return self.c_lower.shape[0]

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def covered(self) -> np.ndarray:
        """Indices inside some group, ascending (read-only)."""
        return self._covered

    @property
    def kind(self) -> str:
        return self.metadata.get("kind", "CUSTOM")

    def group_of(self) -> np.ndarray:
        """Per-index group id, -1 outside every group (read-only)."""
        return self._group_of

    def with_groups(self, groups) -> "Instance":
        return replace(self, groups=tuple(tuple(g) for g in groups))

    def feasible_model(self, objective: Optional[np.ndarray] = None) -> MilpModel:
        """X as a standalone all-binary model minimizing the given objective."""
        obj = np.zeros(self.n) if objective is None else np.asarray(objective, dtype=float)
        return MilpModel(
            objective=obj, maximize=False,
            lower=np.zeros(self.n), upper=np.ones(self.n),
            is_binary=np.ones(self.n, dtype=bool),
            row_coeffs=self.x_coeffs, row_senses=self.x_senses, row_rhs=self.x_rhs,
            var_names=self.var_names, name=self.metadata.get("kind", "instance"))


def _group_owner(groups: tuple, n: int) -> np.ndarray:
    """Per-index group id (-1 outside every group) of disjoint, nonempty
    groups of indices in [0, n).

    Raises ValueError on the first fault that a walk over the groups in
    order, and over each group's indices in order, meets: an empty group,
    an index out of range, or an index already met.
    """
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    try:
        flat = np.array(list(chain.from_iterable(groups)), dtype=np.int64)
        valid = bool(sizes.all() and flat.min(initial=0) >= 0 and flat.max(initial=-1) < n
                     and np.bincount(flat, minlength=n).max(initial=0) <= 1)
    except OverflowError:       # an index beyond int64 is out of range
        valid = False
    if valid:
        owner = np.full(n, -1, dtype=int)
        owner[flat] = np.repeat(np.arange(len(groups)), sizes)
        return owner
    # some fault is there; the walk names the first one
    seen = set()
    for g in groups:
        if not g:
            raise ValueError("empty budget group")
        for j in g:
            if not 0 <= j < n:
                raise ValueError(f"group index {j} out of range")
            if j in seen:
                raise ValueError(f"index {j} appears in two groups")
            seen.add(j)


def verify_feasible(inst: Instance) -> None:
    """One-off feasibility solve of X; raises ValueError when X is empty."""
    sol = solve_milp(inst.feasible_model())
    if sol.status != "optimal":
        raise ValueError(f"instance feasible set is empty (solver: {sol.status})")


def solution_signature(inst: Instance, x) -> tuple:
    """Decision-maker identity of a solution.

    For facility instances two solutions with the same open medians count
    once (assignments are trivial to redo in real time); elsewhere the
    signature is the full 0-1 vector.
    """
    x = np.asarray(x)
    if inst.kind == "PLM":
        off = int(inst.metadata["y_offset"])
        return tuple(int(j) for j in range(off, inst.n) if x[j] > 0.5)
    return int_key(x)


def int_key(x) -> tuple:
    """Hashable identity of a 0-1 vector: its entries rounded to Python ints
    (half to even, as ``round``)."""
    return tuple(np.rint(np.asarray(x, dtype=float)).astype(np.int64).tolist())


@dataclass(frozen=True, eq=False)
class OmegaSpec:
    """Budget-vector domain: interval box, line segment, or budgeted polytope."""

    kind: str
    lower: Optional[np.ndarray] = None        # interval
    upper: Optional[np.ndarray] = None
    gamma0: Optional[np.ndarray] = None       # segment: alpha * gamma0
    alpha_lo: float = 0.0
    alpha_hi: float = 1.0
    gamma_base: Optional[np.ndarray] = None   # budgeted: base + beta
    spread: Optional[np.ndarray] = None       # per-group beta caps
    budget: float = 0.0                       # total beta cap

    def __post_init__(self):
        if self.kind == "interval":
            lo, hi = np.asarray(self.lower, float), np.asarray(self.upper, float)
            if lo.shape != hi.shape or np.any(lo < 0) or np.any(lo > hi):
                raise ValueError("interval needs 0 <= lower <= upper")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        elif self.kind == "segment":
            g0 = np.asarray(self.gamma0, float)
            if np.any(g0 < 0) or not (0 <= self.alpha_lo <= self.alpha_hi <= 1):
                raise ValueError("segment needs gamma0 >= 0 and 0 <= alpha_lo <= alpha_hi <= 1")
            object.__setattr__(self, "gamma0", g0)
        elif self.kind == "budgeted":
            base, spread = np.asarray(self.gamma_base, float), np.asarray(self.spread, float)
            if base.shape != spread.shape or np.any(base < 0) or np.any(spread < 0) or self.budget < 0:
                raise ValueError("budgeted needs base, spread >= 0 and budget >= 0")
            object.__setattr__(self, "gamma_base", base)
            object.__setattr__(self, "spread", spread)
        else:
            raise ValueError(f"unknown omega kind {self.kind!r}")

    @staticmethod
    def interval(lower, upper) -> "OmegaSpec":
        return OmegaSpec("interval", lower=np.asarray(lower, float),
                         upper=np.asarray(upper, float))

    @staticmethod
    def segment(gamma0, alpha_lo: float = 0.0, alpha_hi: float = 1.0) -> "OmegaSpec":
        return OmegaSpec("segment", gamma0=np.asarray(gamma0, float),
                         alpha_lo=float(alpha_lo), alpha_hi=float(alpha_hi))

    @staticmethod
    def budgeted(gamma_base, spread, budget) -> "OmegaSpec":
        return OmegaSpec("budgeted", gamma_base=np.asarray(gamma_base, float),
                         spread=np.asarray(spread, float), budget=float(budget))

    @property
    def num_groups(self) -> int:
        if self.kind == "interval":
            return self.lower.shape[0]
        if self.kind == "segment":
            return self.gamma0.shape[0]
        return self.gamma_base.shape[0]

    @property
    def upper_bound(self) -> np.ndarray:
        """Componentwise upper bound on every gamma in the set."""
        if self.kind == "interval":
            return self.upper
        if self.kind == "segment":
            return self.alpha_hi * self.gamma0
        return self.gamma_base + self.spread

    @property
    def start_gamma(self) -> np.ndarray:
        """Initial budget vector used to seed the multiparametric loop."""
        if self.kind == "interval":
            return self.lower
        if self.kind == "segment":
            return np.zeros(self.num_groups)
        return self.gamma_base


def _check_x(inst: Instance, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({inst.n},)")
    return x


def _check_gamma(inst: Instance, gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if g.shape != (inst.num_groups,):
        raise ValueError(f"gamma has shape {g.shape}, expected ({inst.num_groups},)")
    return g


def robustness_value(inst: Instance, x, gamma) -> float:
    """Worst-case cost of x: group deviations capped by the budgets."""
    x = _check_x(inst, x)
    gamma = _check_gamma(inst, gamma)
    total = float(inst.c_lower @ x)
    for k, g in enumerate(inst.groups):
        idx = list(g)
        room = float(inst.deviations[idx] @ x[idx])
        total += min(gamma[k], room)
    return total


def group_deviations(inst: Instance) -> np.ndarray:
    """(n, K) matrix whose column k holds the deviations of group k's indices."""
    M = np.zeros((inst.n, inst.num_groups))
    cov = inst.covered
    M[cov, inst.group_of()[cov]] = inst.deviations[cov]
    return M


def capped_values(base: np.ndarray, room: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``base[h] + sum_k min(G[s, k], room[h, k])`` as an (S, H) array.

    ``base`` (H,) and ``room`` (H, K) describe H solutions; summing group by
    group keeps every temporary at the output's size.
    """
    out = np.broadcast_to(base, (G.shape[0], base.shape[0])).copy()
    for k in range(G.shape[1]):
        out += np.minimum(G[:, k, None], room[None, :, k])
    return out


def capped_grid_min(base: np.ndarray, room: np.ndarray, axes) -> np.ndarray:
    """``capped_values(base, room, G).min(axis=1)`` on the product grid G of
    ``axes`` (one array of budgets per group), shaped ``(len(axes[0]), ...)``
    with the last axis fastest, as ``_box_grid`` lists G.

    Each solution's values are built as outer sums in group order, the same
    float additions ``capped_values`` makes, so the result equals it to the
    bit; a running minimum over the solutions keeps every temporary at the
    grid's size.
    """
    best = None
    for b, r in zip(base, room):
        v = np.array(b, dtype=float)
        for k, axis in enumerate(axes):
            v = np.add.outer(v, np.minimum(axis, r[k]))
        best = v if best is None else np.minimum(best, v, out=best)
    return best


def row_chunks(rows: int, width: int):
    """Slices of ``range(rows)`` whose (chunk, width) float arrays stay near 2 MB."""
    step = max(1, CHUNK_ELEMS // max(1, width))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def robustness_values(inst: Instance, X, G) -> np.ndarray:
    """Worst-case cost of every row of X (H, n) at every budget row of G (S, K).

    Returns an (S, H) array; entry (s, h) equals
    ``robustness_value(inst, X[h], G[s])`` up to summation order.
    """
    X = np.asarray(X, dtype=float)
    G = np.asarray(G, dtype=float)
    if X.ndim != 2 or X.shape[1] != inst.n:
        raise ValueError(f"X has shape {X.shape}, expected (H, {inst.n})")
    if G.ndim != 2 or G.shape[1] != inst.num_groups:
        raise ValueError(f"G has shape {G.shape}, expected (S, {inst.num_groups})")
    return capped_values(X @ inst.c_lower, X @ group_deviations(inst), G)


def robustness_value_variant(inst: Instance, x, gamma) -> float:
    """Worst-case cost under the fractional variant (unit budgets per item)."""
    x = _check_x(inst, x)
    gamma = _check_gamma(inst, gamma)
    total = float(inst.c_lower @ x)
    for k, g in enumerate(inst.groups):
        idx = np.asarray(g, dtype=int)
        devs = np.sort(inst.deviations[idx] * x[idx])[::-1]
        devs = devs[devs > 0]
        if devs.size == 0:
            continue
        take = np.clip(gamma[k] - np.arange(devs.size), 0.0, 1.0)
        total += float(devs @ take)
    return total


def contains(omega: OmegaSpec, gamma) -> bool:
    """Membership test with scaled tolerance on equalities and bounds."""
    g = np.asarray(gamma, dtype=float)
    if g.shape != (omega.num_groups,):
        raise ValueError("gamma dimension does not match omega")
    eps = MEMBERSHIP_TOL * np.maximum(1.0, omega.upper_bound)
    if np.any(g < -eps):
        return False
    if omega.kind == "interval":
        return bool(np.all(g >= omega.lower - eps) and np.all(g <= omega.upper + eps))
    if omega.kind == "segment":
        g0 = omega.gamma0
        if np.all(g0 <= 0):
            return bool(np.all(np.abs(g) <= eps))
        k = int(np.argmax(g0))
        alpha = g[k] / g0[k]
        if not (omega.alpha_lo - MEMBERSHIP_TOL <= alpha <= omega.alpha_hi + MEMBERSHIP_TOL):
            return False
        return bool(np.all(np.abs(g - alpha * g0) <= eps))
    beta = g - omega.gamma_base
    if np.any(beta < -eps) or np.any(beta > omega.spread + eps):
        return False
    slack = omega.budget + MEMBERSHIP_TOL * max(1.0, omega.budget)
    return bool(np.sum(np.clip(beta, 0.0, None)) <= slack)


def _box_axes(lo: np.ndarray, hi: np.ndarray, m: int) -> list:
    """The box grid's per-axis linspaces, m points each, endpoints included."""
    return [np.linspace(lo[k], hi[k], m) for k in range(lo.shape[0])]


def _grid_points(axes) -> np.ndarray:
    """The points of the axes' product grid as rows, last axis fastest; no
    axes give the one empty point."""
    if not axes:
        return np.zeros((1, 0))
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))


def _box_grid(lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    """The m**K points of the box's per-axis linspace grid, last axis fastest."""
    return _grid_points(_box_axes(lo, hi, m))


def interval_axes(omega: OmegaSpec, mode: str, m: int = 5) -> list:
    """The per-group axes whose product ``sample_gamma(omega, mode, m)``
    lists (last axis fastest) on an interval domain: m points each for
    ``grid``, the two bounds for ``vertices``."""
    if omega.kind != "interval":
        raise ValueError("product-grid axes apply to interval domains only")
    K = omega.num_groups
    if mode == "vertices":
        if K > 20:
            raise ValueError("vertex enumeration refused for K > 20")
        m = 2
    elif mode != "grid":
        raise ValueError(f"unknown product-grid mode {mode!r}")
    elif m < 2:
        raise ValueError("grid needs m >= 2")
    elif m ** K > GRID_MAX_POINTS:
        raise ValueError("grid would be too large")
    return _box_axes(omega.lower, omega.upper, m)


def _within_budget(omega: OmegaSpec, P: np.ndarray) -> np.ndarray:
    """``contains(omega, p)`` for every row p of P (N, K) on a budgeted domain."""
    eps = MEMBERSHIP_TOL * np.maximum(1.0, omega.upper_bound)
    beta = P - omega.gamma_base
    ok = np.all((P >= -eps) & (beta >= -eps) & (beta <= omega.spread + eps), axis=1)
    total = np.sum(np.clip(beta, 0.0, None), axis=1)
    return ok & (total <= omega.budget + MEMBERSHIP_TOL * max(1.0, omega.budget))


def sample_gamma(omega: OmegaSpec, mode: str, m: int = 5,
                 seed: int = 0, count: int = 100) -> np.ndarray:
    """Sample budget vectors from omega; returns an array of shape (N, K).

    Modes: ``grid`` (m points per axis, endpoints included), ``uniform``
    (seeded), ``vertices`` (box corners / budgeted extreme points; refused
    for segments and for K > 20).
    """
    K = omega.num_groups
    if omega.kind == "interval" and mode in ("grid", "vertices"):
        return _grid_points(interval_axes(omega, mode, m))
    if mode == "grid":
        if m < 2:
            raise ValueError("grid needs m >= 2")
        if omega.kind == "segment":
            alphas = np.linspace(omega.alpha_lo, omega.alpha_hi, m)
            return np.array([a * omega.gamma0 for a in alphas])
        if m ** K > GRID_MAX_POINTS:
            raise ValueError("grid would be too large")
        pts = _box_grid(omega.gamma_base, omega.gamma_base + omega.spread, m)
        verts = sample_gamma(omega, "vertices") if K <= 20 else omega.gamma_base[None]
        return np.unique(np.vstack([pts[_within_budget(omega, pts)], verts]), axis=0)
    if mode == "uniform":
        rng = np.random.default_rng(seed)
        if omega.kind == "interval":
            u = rng.random((count, K))
            return omega.lower + u * (omega.upper - omega.lower)
        if omega.kind == "segment":
            a = omega.alpha_lo + rng.random(count) * (omega.alpha_hi - omega.alpha_lo)
            return a[:, None] * omega.gamma0[None, :]
        beta = rng.random((count, K)) * omega.spread
        tot = beta.sum(axis=1)
        over = tot > omega.budget
        if np.any(over):
            with np.errstate(invalid="ignore", divide="ignore"):
                f = np.where(tot > 0, omega.budget / tot, 0.0)
            beta[over] *= f[over, None]
        return omega.gamma_base + beta
    if mode == "vertices":
        if K > 20:
            raise ValueError("vertex enumeration refused for K > 20")
        if omega.kind == "budgeted":
            pts = [omega.gamma_base.copy()]
            for k in range(K):
                p = omega.gamma_base.copy()
                p[k] += min(omega.budget, omega.spread[k])
                pts.append(p)
            return np.unique(np.array(pts), axis=0)
        raise ValueError("vertices mode applies to interval/budgeted domains only")
    raise ValueError(f"unknown sampling mode {mode!r}")
