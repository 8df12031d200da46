"""Generic mixed 0-1 linear models and the exact solvers behind them.

The model container is a plain dense-array description of

    min/max  c^T v
    s.t.     A v  {<=, =, >=}  rhs        (row-wise senses)
             lower <= v <= upper          (binaries implicitly in [0, 1])

Models name their column blocks (``MilpModel.blocks``), so callers read a
solution by block name instead of by position.

``solve_milp(model, config)`` dispatches to a named backend.  The default,
``scipy``, is HiGHS through ``scipy.optimize.milp``, run to a zero relative
gap; its points are polished so that they meet ``SolverConfig.feas_tol``
(the binaries rounded, the continuous columns re-solved as an LP with the
binaries fixed).  The opt-in ``bundled`` solver is a two-phase dense-tableau
simplex with bounded variables (Dantzig pricing, Bland fallback after
stalls) plus a best-first branch and bound over the binaries: exact and
deterministic, but slow past small models.  Other solvers attach through
``register_backend``; every backend's point is checked against the rows.
"""

from __future__ import annotations

import heapq
import io
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

LE, EQ, GE = -1, 0, 1

_SENSE_FROM_STR = {"<=": LE, "=": EQ, "==": EQ, ">=": GE}
_SENSE_TO_STR = {LE: "<=", EQ: "==", GE: ">="}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
INCUMBENT_ONLY = "incumbent_only"


class ModelError(ValueError):
    """Malformed model or bad argument (dimension/index problems)."""


class SolverNumericalError(RuntimeError):
    """Pivot breakdown or iteration blow-up; distinct from infeasible/unbounded."""


class SolverLimitError(RuntimeError):
    """A solve that needs a proven optimum stopped at a node or time limit."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MilpModel:
    """Immutable mixed 0-1 linear model (dense rows).

    ``blocks`` maps a block name to the column indices of that block, in
    declaration order; blocks are disjoint and need not cover every column.
    """

    objective: np.ndarray        # (n,)
    maximize: bool
    lower: np.ndarray            # (n,)
    upper: np.ndarray            # (n,)
    is_binary: np.ndarray        # (n,) bool
    row_coeffs: np.ndarray       # (m, n)
    row_senses: np.ndarray       # (m,) in {LE, EQ, GE}
    row_rhs: np.ndarray          # (m,)
    var_names: Optional[tuple] = None
    name: str = "model"
    blocks: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = self.objective.shape[0]
        m = self.row_rhs.shape[0]
        if self.row_coeffs.shape != (m, n):
            raise ModelError(f"row_coeffs shape {self.row_coeffs.shape} != ({m}, {n})")
        if self.lower.shape != (n,) or self.upper.shape != (n,) or self.is_binary.shape != (n,):
            raise ModelError("bound/kind arrays must match the variable count")
        if self.var_names is not None and len(self.var_names) != n:
            raise ModelError("var_names must match the variable count")
        if np.any(self.lower[self.is_binary] != 0.0) or np.any(self.upper[self.is_binary] != 1.0):
            raise ModelError("binary variables must have bounds [0, 1]")
        if np.any(self.lower > self.upper):
            raise ModelError("lower bound exceeds upper bound")
        if not np.all(np.isin(self.row_senses, (LE, EQ, GE))):
            raise ModelError("row senses must be LE/EQ/GE")
        for nm in ("objective", "lower", "upper", "is_binary", "row_coeffs", "row_senses", "row_rhs"):
            object.__setattr__(self, nm, _readonly(getattr(self, nm)))
        taken = np.zeros(n, dtype=int)
        blocks = {}
        for nm, idx in self.blocks.items():
            idx = np.asarray(idx, dtype=int).reshape(-1)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ModelError(f"block {nm!r} has a column index out of range")
            np.add.at(taken, idx, 1)
            blocks[nm] = _readonly(idx)
        if np.any(taken > 1):
            raise ModelError("blocks overlap")
        object.__setattr__(self, "blocks", MappingProxyType(blocks))

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.row_rhs.shape[0]

    @property
    def num_binary(self) -> int:
        return int(np.count_nonzero(self.is_binary))

    def var_name(self, j: int) -> str:
        if self.var_names is not None:
            return self.var_names[j]
        return f"x{j}"


class ModelBuilder:
    """Incremental construction of a MilpModel with sparse-row input."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._obj: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._binary: list[bool] = []
        self._names: list[str] = []
        self._blocks: dict[str, list[int]] = {}
        self._rows: list[tuple[dict, int, float]] = []

    @property
    def num_vars(self) -> int:
        return len(self._obj)

    def add_binary(self, name: Optional[str] = None, obj: float = 0.0,
                   block: Optional[str] = None) -> int:
        return self._add(name, obj, 0.0, 1.0, True, block)

    def add_continuous(self, name: Optional[str] = None, lower: float = 0.0,
                       upper: float = np.inf, obj: float = 0.0,
                       block: Optional[str] = None) -> int:
        return self._add(name, obj, lower, upper, False, block)

    def _add(self, name, obj, lower, upper, binary: bool, block) -> int:
        """Append one column, recording it in the named block if given."""
        j = len(self._obj)
        self._obj.append(float(obj))
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._binary.append(binary)
        self._names.append(name if name is not None else f"x{j}")
        if block is not None:
            self._blocks.setdefault(block, []).append(j)
        return j

    def add_row(self, coeffs, sense, rhs: float) -> int:
        """coeffs: mapping {var index -> coefficient} or iterable of (index, coeff)."""
        if isinstance(sense, str):
            try:
                sense = _SENSE_FROM_STR[sense]
            except KeyError:
                raise ModelError(f"bad sense {sense!r}") from None
        if sense not in (LE, EQ, GE):
            raise ModelError(f"bad sense {sense!r}")
        if isinstance(coeffs, Mapping):
            items = dict(coeffs)
        else:
            items = {}
            for j, a in coeffs:
                items[j] = items.get(j, 0.0) + float(a)
        for j in items:
            if not 0 <= j < len(self._obj):
                raise ModelError(f"constraint references undeclared variable {j}")
        self._rows.append((items, sense, float(rhs)))
        return len(self._rows) - 1

    def build(self, maximize: bool = False) -> MilpModel:
        n = len(self._obj)
        m = len(self._rows)
        A = np.zeros((m, n))
        senses = np.zeros(m, dtype=np.int8)
        rhs = np.zeros(m)
        for i, (items, sense, b) in enumerate(self._rows):
            for j, a in items.items():
                A[i, j] = a
            senses[i] = sense
            rhs[i] = b
        return MilpModel(
            objective=np.asarray(self._obj, dtype=float),
            maximize=maximize,
            lower=np.asarray(self._lower, dtype=float),
            upper=np.asarray(self._upper, dtype=float),
            is_binary=np.asarray(self._binary, dtype=bool),
            row_coeffs=A,
            row_senses=senses,
            row_rhs=rhs,
            var_names=tuple(self._names),
            name=self.name,
            blocks=self._blocks,
        )


def _default_backend() -> str:
    return os.environ.get("MPROBUST_BACKEND", "scipy")


@dataclass
class SolverConfig:
    """Tolerances and limits shared by every backend."""

    feas_tol: float = 1e-7
    int_tol: float = 1e-6
    pivot_tol: float = 1e-9
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    backend: str = field(default_factory=_default_backend)

    def __post_init__(self):
        if min(self.feas_tol, self.int_tol, self.pivot_tol) <= 0:
            raise ModelError("tolerances must be positive")


@dataclass
class MilpSolution:
    values: Optional[np.ndarray]
    objective: Optional[float]
    status: str
    best_bound: Optional[float] = None
    nodes: int = 0


def relax_binaries(model: MilpModel, subset: Iterable[int]) -> MilpModel:
    """Turn the given binary variables into continuous [0, 1] variables."""
    idx = sorted(set(int(j) for j in subset))
    if not idx:
        return replace(model)
    arr = np.asarray(idx, dtype=int)
    if arr.min() < 0 or arr.max() >= model.num_vars:
        raise ModelError("relax_binaries index out of range")
    if not np.all(model.is_binary[arr]):
        raise ModelError("relax_binaries applied to a non-binary variable")
    is_bin = model.is_binary.copy()
    is_bin[arr] = False
    return replace(model, is_binary=is_bin)


# ---------------------------------------------------------------------------
# bundled simplex
# ---------------------------------------------------------------------------

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2


class _LpCore:
    """Equality-form bounded-variable simplex over a fixed model skeleton.

    The skeleton (columns, slacks, recovery map) is built once; per-call
    bound overrides on the original variables make branch-and-bound cheap.
    """

    def __init__(self, model: MilpModel, cfg: SolverConfig):
        self.cfg = cfg
        self.n_orig = model.num_vars
        A, senses, b = model.row_coeffs, model.row_senses, model.row_rhs
        m = model.num_rows

        cols: list[np.ndarray] = []
        cost: list[float] = []
        self._ops: list[tuple] = []         # recovery: one op per original var
        self._col_of: list[int] = []        # first transformed column per original var
        obj_const = 0.0
        c = model.objective.copy()
        lo_o, up_o = model.lower, model.upper
        for j in range(self.n_orig):
            self._col_of.append(len(cols))
            if np.isneginf(lo_o[j]) and np.isposinf(up_o[j]):
                cols.append(A[:, j].copy()); cost.append(c[j])
                cols.append(-A[:, j]); cost.append(-c[j])
                self._ops.append(("split",))
            elif np.isneginf(lo_o[j]):
                # substitute v = upper - y, y >= 0
                cols.append(-A[:, j]); cost.append(-c[j])
                self._ops.append(("neg", up_o[j]))
                obj_const += c[j] * up_o[j]
            else:
                cols.append(A[:, j].copy()); cost.append(c[j])
                self._ops.append(("id",))
        self._b_shift = np.zeros(m)
        for j in range(self.n_orig):
            if self._ops[j][0] == "neg":
                self._b_shift += A[:, j] * self._ops[j][1]

        self._slack_of = np.full(m, -1, dtype=int)
        for i in range(m):
            if senses[i] == EQ:
                continue
            col = np.zeros(m)
            col[i] = 1.0 if senses[i] == LE else -1.0
            self._slack_of[i] = len(cols)
            cols.append(col)
            cost.append(0.0)

        self.N = len(cols)
        self.A = np.column_stack(cols) if cols else np.zeros((m, 0))
        self.c = np.asarray(cost)
        self.b = b - self._b_shift
        self.obj_const = obj_const
        self.m = m
        # static column bounds (original-variable bounds applied per call)
        self._lo0 = np.zeros(self.N)
        self._up0 = np.full(self.N, np.inf)
        self._scale = max(1.0, float(np.max(np.abs(self.c))) if self.N else 1.0)
        self._bscale = max(1.0, float(np.max(np.abs(self.b))) if m else 1.0)

    def _column_bounds(self, lower: np.ndarray, upper: np.ndarray):
        lo = self._lo0.copy()
        up = self._up0.copy()
        for j in range(self.n_orig):
            k = self._col_of[j]
            op = self._ops[j][0]
            if op == "id":
                lo[k] = lower[j]
                up[k] = upper[j]
            elif op == "neg":
                # y = fixed_upper - v, v in [lower, upper<=fixed_upper]
                uref = self._ops[j][1]
                lo[k] = uref - upper[j]
                up[k] = np.inf if np.isneginf(lower[j]) else uref - lower[j]
            # split: both parts stay [0, inf)
        return lo, up

    def _recover(self, y: np.ndarray) -> np.ndarray:
        x = np.empty(self.n_orig)
        for j in range(self.n_orig):
            k = self._col_of[j]
            op = self._ops[j]
            if op[0] == "id":
                x[j] = y[k]
            elif op[0] == "neg":
                x[j] = op[1] - y[k]
            else:
                x[j] = y[k] - y[k + 1]
        return x

    def solve(self, lower: np.ndarray, upper: np.ndarray):
        """Returns (status, x, objective) with objective in min sense."""
        lo, up = self._column_bounds(lower, upper)
        m, N = self.m, self.N
        T = self.A.copy()
        resid = self.b - T @ lo if N else self.b.copy()

        stat = np.full(N, _AT_LOWER, dtype=np.int8)
        basis = np.empty(m, dtype=int)
        art_cols = []
        art_data = []
        for i in range(m):
            si = self._slack_of[i]
            take_art = True
            if si >= 0:
                coef = self.A[i, si]
                val = resid[i] / coef
                if val >= 0.0:
                    basis[i] = si
                    stat[si] = _BASIC
                    take_art = False
            if take_art:
                coef = 1.0 if resid[i] >= 0 else -1.0
                col = np.zeros(m)
                col[i] = coef
                art_cols.append(col)
                art_data.append(i)
                basis[i] = N + len(art_cols) - 1
                # stat entry appended below

        n_art = len(art_cols)
        if n_art:
            T = np.column_stack([T] + art_cols)
            lo = np.concatenate([lo, np.zeros(n_art)])
            up = np.concatenate([up, np.full(n_art, np.inf)])
            stat = np.concatenate([stat, np.full(n_art, _BASIC, dtype=np.int8)])
        xB = np.empty(m)
        for i in range(m):
            piv = T[i, basis[i]]
            if piv != 1.0:
                T[i, :] /= piv
            xB[i] = resid[i] / piv

        total = N + n_art
        max_iter = 200 * (m + total) + 2000

        if n_art:
            c1 = np.zeros(total)
            c1[N:] = 1.0
            st = self._iterate(T, xB, basis, stat, lo, up, c1, max_iter, phase=1)
            if st == UNBOUNDED:
                raise SolverNumericalError("phase-1 simplex reported an unbounded direction")
            phase1 = float(c1[basis] @ xB)
            if phase1 > self.cfg.feas_tol * self._bscale:
                return INFEASIBLE, None, None
            # drive artificials out of the basis, dropping redundant rows
            keep_rows = np.ones(m, dtype=bool)
            for r in range(m):
                if basis[r] < N:
                    continue
                row = np.abs(T[r, :N])
                row_masked = np.where(stat[:N] != _BASIC, row, 0.0)
                jbest = int(np.argmax(row_masked))
                if row_masked[jbest] > self.cfg.pivot_tol:
                    self._pivot(T, xB, basis, stat, lo, up, r, jbest)
                else:
                    keep_rows[r] = False
            if not np.all(keep_rows):
                T = T[keep_rows]
                xB = xB[keep_rows]
                basis = basis[keep_rows]
                m = T.shape[0]
            T = np.ascontiguousarray(T[:, :N])
            lo, up, stat = lo[:N], up[:N], stat[:N]

        st = self._iterate(T, xB, basis, stat, lo, up, self.c, max_iter, phase=2)
        if st == UNBOUNDED:
            return UNBOUNDED, None, None

        y = np.where(stat == _AT_UPPER, up, lo)
        y[basis] = xB
        np.clip(y, lo, up, out=y)
        x = self._recover(y)
        obj = float(self.c @ y) + self.obj_const
        return OPTIMAL, x, obj

    def _pivot(self, T, xB, basis, stat, lo, up, r, j, enter_val=None):
        piv = T[r, j]
        col = T[:, j].copy()
        Trow = T[r] / piv
        T -= np.outer(col, Trow)
        T[r] = Trow
        T[:, j] = 0.0
        T[r, j] = 1.0
        leave = basis[r]
        if enter_val is None:
            enter_val = up[j] if stat[j] == _AT_UPPER else lo[j]
        stat[leave] = _AT_LOWER
        stat[j] = _BASIC
        basis[r] = j
        xB[r] = enter_val

    def _iterate(self, T, xB, basis, stat, lo, up, c, max_iter, phase):
        m = T.shape[0]
        y = c - T.T @ c[basis] if m else c.copy()
        cscale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
        tol_opt = self.cfg.pivot_tol * cscale
        tol_piv = self.cfg.pivot_tol
        room = up - lo
        bland = False
        stall = 0
        stall_limit = 4 * (m + T.shape[1]) + 50
        for _ in range(max_iter):
            viol = np.where(stat == _AT_LOWER, -y, y)
            viol[stat == _BASIC] = -np.inf
            viol[room <= 0.0] = -np.inf
            if bland:
                elig = np.flatnonzero(viol > tol_opt)
                if elig.size == 0:
                    return OPTIMAL
                j = int(elig[0])
            else:
                j = int(np.argmax(viol))
                if viol[j] <= tol_opt:
                    return OPTIMAL
            d = 1.0 if stat[j] == _AT_LOWER else -1.0
            g = d * T[:, j]

            t_bound = room[j]
            t_best = t_bound
            r_best = -1
            if m:
                with np.errstate(divide="ignore", invalid="ignore"):
                    dec = g > tol_piv
                    inc = g < -tol_piv
                    t_rows = np.full(m, np.inf)
                    if np.any(dec):
                        t_rows[dec] = np.maximum(xB[dec] - lo[basis[dec]], 0.0) / g[dec]
                    if np.any(inc):
                        ub_b = up[basis[inc]]
                        fin = np.isfinite(ub_b)
                        ii = np.flatnonzero(inc)[fin]
                        if ii.size:
                            t_rows[ii] = np.maximum(up[basis[ii]] - xB[ii], 0.0) / (-g[ii])
                tmin = float(np.min(t_rows)) if m else np.inf
                if tmin < t_best:
                    near = np.flatnonzero(t_rows <= tmin + 1e-12 * (1.0 + tmin))
                    if bland:
                        r_best = int(near[np.argmin(basis[near])])
                    else:
                        r_best = int(near[np.argmax(np.abs(g[near]))])
                    t_best = max(float(t_rows[r_best]), 0.0)
            if not np.isfinite(t_best):
                if phase == 1:
                    raise SolverNumericalError("phase-1 objective is bounded below; breakdown")
                return UNBOUNDED
            delta = y[j] * d * t_best
            if r_best < 0:
                # bound flip, no basis change
                if m:
                    xB -= t_best * g
                stat[j] = _AT_UPPER if stat[j] == _AT_LOWER else _AT_LOWER
            else:
                xB -= t_best * g
                leave = basis[r_best]
                leave_upper = g[r_best] < 0
                enter_val = (lo[j] if d > 0 else up[j]) + d * t_best
                yj = y[j]
                piv = T[r_best, j]
                col = T[:, j].copy()
                Trow = T[r_best] / piv
                T -= np.outer(col, Trow)
                T[r_best] = Trow
                T[:, j] = 0.0
                T[r_best, j] = 1.0
                y -= yj * Trow
                y[j] = 0.0
                stat[leave] = _AT_UPPER if leave_upper else _AT_LOWER
                stat[j] = _BASIC
                basis[r_best] = j
                xB[r_best] = enter_val
            if abs(delta) <= 1e-12 * cscale:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0
        raise SolverNumericalError("simplex iteration limit exceeded (cycling or pivot breakdown)")


def _row_tolerances(model: MilpModel, feas_tol: float) -> np.ndarray:
    if model.num_rows == 0:
        return np.zeros(0)
    norms = np.max(np.abs(model.row_coeffs), axis=1, initial=1.0)
    big = np.abs(model.row_rhs) > 1.0
    scale = np.where(big, np.maximum(1.0, norms), 1.0)
    return feas_tol * scale


def _check_primal(model: MilpModel, x: np.ndarray, feas_tol: float):
    if model.num_rows == 0:
        return
    r = model.row_coeffs @ x - model.row_rhs
    tol = _row_tolerances(model, feas_tol)
    bad = ((model.row_senses == LE) & (r > tol)) | \
          ((model.row_senses == GE) & (r < -tol)) | \
          ((model.row_senses == EQ) & (np.abs(r) > tol))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise SolverNumericalError(
            f"solution violates row {i} by {abs(r[i]):.3e} (tol {tol[i]:.3e})")


def _as_min(model: MilpModel) -> MilpModel:
    if not model.maximize:
        return model
    return replace(model, objective=-model.objective, maximize=False)


def _bundled_submit(model: MilpModel, cfg: SolverConfig) -> MilpSolution:
    mmin = _as_min(model)
    sign = -1.0 if model.maximize else 1.0
    if mmin.num_binary == 0:
        core = _LpCore(mmin, cfg)
        status, x, obj = core.solve(mmin.lower, mmin.upper)
        if status != OPTIMAL:
            return MilpSolution(None, None, status)
        return MilpSolution(x, sign * obj, OPTIMAL)
    sol = _branch_and_bound(mmin, cfg)
    if sol.objective is not None:
        sol.objective = sign * sol.objective
    if sol.best_bound is not None:
        sol.best_bound = sign * sol.best_bound
    return sol


def _branch_and_bound(model: MilpModel, cfg: SolverConfig) -> MilpSolution:
    """Best-first B&B over binaries; model must be in min sense."""
    core = _LpCore(model, cfg)
    bin_idx = np.flatnonzero(model.is_binary)
    lo0 = model.lower.copy()
    up0 = model.upper.copy()

    t0 = time.monotonic()
    heap: list[tuple] = [(-np.inf, 0, lo0, up0)]
    tick = 1
    inc_val = np.inf
    inc_x: Optional[np.ndarray] = None
    nodes = 0
    hit_limit = False

    def prune_tol() -> float:
        return 1e-9 * max(1.0, abs(inc_val)) if np.isfinite(inc_val) else 0.0

    while heap:
        if cfg.node_limit is not None and nodes >= cfg.node_limit:
            hit_limit = True
            break
        if cfg.time_limit is not None and time.monotonic() - t0 > cfg.time_limit:
            hit_limit = True
            break
        bound, _, lo, up = heapq.heappop(heap)
        if bound >= inc_val - prune_tol():
            continue
        status, x, obj = core.solve(lo, up)
        nodes += 1
        if status == INFEASIBLE:
            continue
        if status == UNBOUNDED:
            return MilpSolution(None, None, UNBOUNDED, nodes=nodes)
        if obj >= inc_val - prune_tol():
            continue
        frac = np.abs(x[bin_idx] - np.round(x[bin_idx]))
        if frac.size == 0 or float(np.max(frac)) <= cfg.int_tol:
            cand = np.round(x[bin_idx]).astype(int)
            if obj < inc_val - prune_tol():
                inc_val, inc_x = obj, x.copy()
                inc_x[bin_idx] = cand
            elif abs(obj - inc_val) <= prune_tol() and inc_x is not None:
                if tuple(cand) < tuple(np.round(inc_x[bin_idx]).astype(int)):
                    inc_val, inc_x = obj, x.copy()
                    inc_x[bin_idx] = cand
            continue
        j = bin_idx[int(np.argmax(frac))]
        lo_a, up_a = lo.copy(), up.copy()
        up_a[j] = 0.0
        lo_b, up_b = lo.copy(), up.copy()
        lo_b[j] = 1.0
        heapq.heappush(heap, (obj, tick, lo_a, up_a))
        heapq.heappush(heap, (obj, tick + 1, lo_b, up_b))
        tick += 2

    if inc_x is not None:
        # polish: fix binaries and re-solve the LP for exact continuous values
        lo_f, up_f = lo0.copy(), up0.copy()
        lo_f[bin_idx] = inc_x[bin_idx]
        up_f[bin_idx] = inc_x[bin_idx]
        status, x, obj = core.solve(lo_f, up_f)
        if status == OPTIMAL:
            x[bin_idx] = np.round(x[bin_idx])
            inc_x, inc_val = x, obj

    if hit_limit:
        # the optimum is at most the incumbent, even where every open node's
        # parent bound is above it
        bb = min([h[0] for h in heap] + [inc_val])
        return MilpSolution(inc_x, inc_val if inc_x is not None else None,
                            INCUMBENT_ONLY, best_bound=float(bb), nodes=nodes)
    if inc_x is None:
        return MilpSolution(None, None, INFEASIBLE, nodes=nodes)
    return MilpSolution(inc_x, float(inc_val), OPTIMAL,
                        best_bound=float(inc_val), nodes=nodes)


# ---------------------------------------------------------------------------
# scipy backend: HiGHS through scipy.optimize (the default)
# ---------------------------------------------------------------------------

def _scipy_submit(model: MilpModel, cfg: SolverConfig) -> MilpSolution:
    """HiGHS to a zero gap; a model with no binary is one polish LP."""
    mmin = _as_min(model)
    sign = -1.0 if model.maximize else 1.0
    if mmin.num_binary == 0:
        res, x = _highs_lp(mmin, np.zeros(mmin.num_vars), cfg)
        if res.status == 0:
            obj = float(model.objective @ x)
            return MilpSolution(x, obj, OPTIMAL, best_bound=obj)
        if res.status == 1:
            return MilpSolution(None, None, INCUMBENT_ONLY)
        return _failed(res.status, res.message, 0)
    res = _highs_milp(mmin, cfg, presolve=False)
    if res.status == 4 and cfg.node_limit is None:
        # HiGHS (scipy 1.17.1) ends some models in "Solve error" with
        # presolve off and others with it on; no one setting solves every
        # model of the test suite, so a solve error gets the other setting.
        res = _highs_milp(mmin, cfg, presolve=True)
    nodes = int(res.get("mip_node_count") or 0)
    # A node limit ends in HiGHS model status 16 ("Solution limit reached"),
    # which scipy 1.17.1 passes on as its catch-all status 4, with or
    # without a point; under a set node limit that status is the limit.
    hit_limit = res.status == 1 or (res.status == 4 and cfg.node_limit is not None)
    if res.status != 0 and not hit_limit:
        return _failed(res.status, res.message, nodes)
    x = None
    if res.x is not None:
        x = np.asarray(res.x, dtype=float)
        b = mmin.is_binary
        if np.any(np.abs(x[b] - np.round(x[b])) > cfg.int_tol):
            raise SolverNumericalError("backend returned non-integral binaries")
        x[b] = np.round(x[b])
        if not np.all(b):
            polished = _highs_lp(mmin, x, cfg)[1]
            # a failed polish leaves HiGHS's point to solve_milp's row check
            if polished is not None:
                x = polished
    obj = None if x is None else float(model.objective @ x)
    bound = res.get("mip_dual_bound")
    bound = None if bound is None else sign * float(bound)
    if res.status == 0:
        return MilpSolution(x, obj, OPTIMAL, best_bound=obj if bound is None else bound,
                            nodes=nodes)
    return MilpSolution(x, obj, INCUMBENT_ONLY, best_bound=bound, nodes=nodes)


@contextmanager
def _native_stdout_to_stderr():
    """Point file descriptor 1 at descriptor 2 for the duration.

    HiGHS prints some diagnostics from native code straight to descriptor 1
    (``HighsMipSolverData::transformNewIntegerFeasibleSolution ...`` after a
    solve error), past ``sys.stdout``; they would land in the output of
    ``mprobust run`` and of any caller.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        os.dup2(2, 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _highs_milp(mmin: MilpModel, cfg: SolverConfig, presolve: bool):
    """scipy.optimize.milp on the min-sense model, run to a zero gap."""
    from scipy import optimize, sparse

    A, senses, rhs = mmin.row_coeffs, mmin.row_senses, mmin.row_rhs
    lb = np.where(senses == LE, -np.inf, rhs)
    ub = np.where(senses == GE, np.inf, rhs)
    constraints = optimize.LinearConstraint(sparse.csr_matrix(A), lb, ub) if mmin.num_rows else ()
    # HiGHS's default mip_rel_gap of 1e-4 would stop short of the optimum
    options = {"mip_rel_gap": 0.0, "presolve": presolve}
    if cfg.time_limit is not None:
        options["time_limit"] = float(cfg.time_limit)
    if cfg.node_limit is not None:
        options["node_limit"] = int(cfg.node_limit)
    with _native_stdout_to_stderr():
        return optimize.milp(mmin.objective, constraints=constraints,
                             integrality=mmin.is_binary.astype(int),
                             bounds=optimize.Bounds(mmin.lower, mmin.upper), options=options)


def _highs_lp(mmin: MilpModel, x: np.ndarray, cfg: SolverConfig):
    """(scipy result, point or None) of the LP over the continuous columns of the
    min-sense model, its binaries fixed at their values in ``x``.

    HiGHS's MIP search accepts rows off by its own tolerance (1e-6); this
    re-solve puts the continuous part back within ``cfg.feas_tol``.
    """
    from scipy import optimize

    cont = ~mmin.is_binary
    A = mmin.row_coeffs[:, cont]
    rhs = mmin.row_rhs - mmin.row_coeffs[:, ~cont] @ x[~cont]
    senses = mmin.row_senses
    le, ge, eq = senses == LE, senses == GE, senses == EQ
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([rhs[le], -rhs[ge]])
    options = {"presolve": False, "primal_feasibility_tolerance": cfg.feas_tol}
    if cfg.time_limit is not None:
        options["time_limit"] = float(cfg.time_limit)
    with _native_stdout_to_stderr():
        res = optimize.linprog(
            mmin.objective[cont],
            A_ub=A_ub if b_ub.size else None, b_ub=b_ub if b_ub.size else None,
            A_eq=A[eq] if np.any(eq) else None, b_eq=rhs[eq] if np.any(eq) else None,
            bounds=np.column_stack([mmin.lower[cont], mmin.upper[cont]]),
            method="highs", options=options)
    if res.status != 0:
        return res, None
    out = x.copy()
    out[cont] = res.x
    return res, out


def _failed(status: int, message: str, nodes: int) -> MilpSolution:
    """Infeasible and unbounded outcomes of a HiGHS solve; anything else raises."""
    if status == 2:
        return MilpSolution(None, None, INFEASIBLE, nodes=nodes)
    if status == 3:
        return MilpSolution(None, None, UNBOUNDED, nodes=nodes)
    raise SolverNumericalError(f"scipy backend failed: {message}")


BackendFn = Callable[[MilpModel, SolverConfig], MilpSolution]

_BACKENDS: dict[str, BackendFn] = {
    "bundled": _bundled_submit,
    "scipy": _scipy_submit,
}


def register_backend(name: str, fn: BackendFn) -> None:
    """Attach an external solver behind the solve_milp(model, config) contract."""
    _BACKENDS[name] = fn


def solve_milp(model: MilpModel, config: Optional[SolverConfig] = None) -> MilpSolution:
    """Solve the mixed 0-1 model exactly through the configured backend.

    Binaries come back as exact 0/1.  Every returned point is row-checked:
    raises SolverNumericalError when it violates a row by more than the
    feasibility tolerance.
    """
    cfg = config or SolverConfig()
    try:
        fn = _BACKENDS[cfg.backend]
    except KeyError:
        raise ModelError(f"unknown solver backend {cfg.backend!r}") from None
    sol = fn(model, cfg)
    if sol.values is not None:
        _check_primal(model, np.asarray(sol.values, dtype=float), cfg.feas_tol)
    return sol


def solve_lp(model: MilpModel, config: Optional[SolverConfig] = None) -> MilpSolution:
    """Solve the LP (any binaries are relaxed to [0, 1])."""
    relaxed = relax_binaries(model, np.flatnonzero(model.is_binary))
    return solve_milp(relaxed, config)


# ---------------------------------------------------------------------------
# MPS export
# ---------------------------------------------------------------------------

def _mps_num(v: float) -> str:
    s = f"{v:.10G}"
    return s if len(s) <= 12 else f"{v:.6G}"


def write_mps(model: MilpModel, target) -> None:
    """Fixed-format MPS export (minimization sense; binaries marked integer).

    ``target`` is a path or a text file object.  A maximization model is
    exported with the objective negated so external solvers minimizing the
    COST row reproduce the same optimal solutions.
    """
    close = False
    if isinstance(target, (str, os.PathLike)):
        fh = open(target, "w")
        close = True
    else:
        fh = target
    try:
        _write_mps(model, fh)
    finally:
        if close:
            fh.close()


def _write_mps(model: MilpModel, fh: io.TextIOBase) -> None:
    rname = [f"R{i:07d}" for i in range(model.num_rows)]
    cname = [f"C{j:07d}" for j in range(model.num_vars)]
    obj = -model.objective if model.maximize else model.objective

    fh.write(f"NAME          {model.name[:8].upper() or 'MODEL'}\n")
    if model.maximize:
        fh.write("* objective negated on export (maximization model)\n")
    fh.write("ROWS\n")
    fh.write(" N  COST\n")
    tag = {LE: "L", EQ: "E", GE: "G"}
    for i in range(model.num_rows):
        fh.write(f" {tag[int(model.row_senses[i])]}  {rname[i]}\n")

    fh.write("COLUMNS\n")
    marker = 0
    in_int = False
    for j in range(model.num_vars):
        want_int = bool(model.is_binary[j])
        if want_int != in_int:
            kind = "'INTORG'" if want_int else "'INTEND'"
            fh.write(f"    MARKER{marker:04d}  'MARKER'                 {kind}\n")
            marker += 1
            in_int = want_int
        entries: list[tuple[str, float]] = []
        if obj[j] != 0.0:
            entries.append(("COST", float(obj[j])))
        for i in range(model.num_rows):
            a = model.row_coeffs[i, j]
            if a != 0.0:
                entries.append((rname[i], float(a)))
        if not entries:
            entries.append(("COST", 0.0))
        for k in range(0, len(entries), 2):
            pair = entries[k:k + 2]
            line = f"    {cname[j]:<8}  {pair[0][0]:<8}  {_mps_num(pair[0][1]):>12}"
            if len(pair) == 2:
                line += f"   {pair[1][0]:<8}  {_mps_num(pair[1][1]):>12}"
            fh.write(line + "\n")
    if in_int:
        fh.write(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'\n")

    fh.write("RHS\n")
    for i in range(model.num_rows):
        b = float(model.row_rhs[i])
        if b != 0.0:
            fh.write(f"    RHS       {rname[i]:<8}  {_mps_num(b):>12}\n")

    fh.write("BOUNDS\n")
    for j in range(model.num_vars):
        lo, up = float(model.lower[j]), float(model.upper[j])
        if model.is_binary[j]:
            fh.write(f" BV BND       {cname[j]}\n")
            continue
        if np.isneginf(lo) and np.isposinf(up):
            fh.write(f" FR BND       {cname[j]}\n")
            continue
        if lo == up:
            fh.write(f" FX BND       {cname[j]:<8}  {_mps_num(lo):>12}\n")
            continue
        if np.isneginf(lo):
            fh.write(f" MI BND       {cname[j]}\n")
        elif lo != 0.0:
            fh.write(f" LO BND       {cname[j]:<8}  {_mps_num(lo):>12}\n")
        if np.isposinf(up):
            if lo != 0.0 or np.isneginf(lo):
                fh.write(f" PL BND       {cname[j]}\n")
        else:
            fh.write(f" UP BND       {cname[j]:<8}  {_mps_num(up):>12}\n")
    fh.write("ENDATA\n")


def mps_string(model: MilpModel) -> str:
    buf = io.StringIO()
    _write_mps(model, buf)
    return buf.getvalue()
