"""Generic mixed 0-1 linear models and the exact solvers behind them.

The model container is a plain dense-array description of

    min/max  c^T v
    s.t.     A v  {<=, =, >=}  rhs        (row-wise senses)
             lower <= v <= upper          (binaries implicitly in [0, 1])

Models name their column blocks (``MilpModel.blocks``), so callers read a
solution by block name instead of by position.

``solve_milp(model, config)`` dispatches to a named backend.  The one
shipped, ``scipy``, is HiGHS through ``scipy.optimize.milp``, run to a zero
relative gap with presolve and the feasibility-jump heuristic off; its
points are polished so that they meet ``FEAS_TOL`` (the binaries rounded,
the continuous columns re-solved as an LP with the binaries fixed).
Other solvers attach through ``register_backend``; every backend's point
is checked against the rows.
"""

from __future__ import annotations

import io
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

LE, EQ, GE = -1, 0, 1

FEAS_TOL = 1e-7     # row tolerance of every returned point (scaled per row)
INT_TOL = 1e-6      # largest distance of a returned binary from 0 or 1

_SENSE_FROM_STR = {"<=": LE, "=": EQ, "==": EQ, ">=": GE}
_SENSE_TO_STR = {LE: "<=", EQ: "==", GE: ">="}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
INCUMBENT_ONLY = "incumbent_only"


class ModelError(ValueError):
    """Malformed model or bad argument (dimension/index problems)."""


class SolverNumericalError(RuntimeError):
    """A returned point violates a row, or HiGHS failed; distinct from
    infeasible/unbounded."""


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

    def add_row(self, coeffs: Mapping[int, float], sense, rhs: float) -> int:
        """coeffs: mapping {var index -> coefficient}; sense: LE/EQ/GE or
        one of "<=", "=", "==", ">="."""
        if isinstance(sense, str):
            try:
                sense = _SENSE_FROM_STR[sense]
            except KeyError:
                raise ModelError(f"bad sense {sense!r}") from None
        if sense not in (LE, EQ, GE):
            raise ModelError(f"bad sense {sense!r}")
        items = dict(coeffs)
        for j in items:
            if not 0 <= j < len(self._obj):
                raise ModelError(f"constraint references undeclared variable {j}")
        self._rows.append((items, sense, float(rhs)))
        return len(self._rows) - 1

    def add_rows(self, cols, A, senses, rhs) -> None:
        """One row per row of ``A`` over the columns ``cols``, its zero
        entries left out."""
        for a, sense, r in zip(A, senses, rhs):
            self.add_row({cols[j]: float(a[j]) for j in np.flatnonzero(a)}, int(sense),
                         float(r))

    def declare_block(self, *names: str) -> None:
        """Record the named blocks now, so that a model has them even when
        no column joins them (a block over no groups, say)."""
        for name in names:
            self._blocks.setdefault(name, [])

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


@dataclass
class SolverConfig:
    """Limits and the backend of a solve."""

    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    backend: str = "scipy"


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


def _row_tolerances(model: MilpModel) -> np.ndarray:
    if model.num_rows == 0:
        return np.zeros(0)
    norms = np.max(np.abs(model.row_coeffs), axis=1, initial=1.0)
    big = np.abs(model.row_rhs) > 1.0
    scale = np.where(big, np.maximum(1.0, norms), 1.0)
    return FEAS_TOL * scale


def _check_primal(model: MilpModel, x: np.ndarray):
    if model.num_rows == 0:
        return
    r = model.row_coeffs @ x - model.row_rhs
    tol = _row_tolerances(model)
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


# ---------------------------------------------------------------------------
# scipy backend: HiGHS through scipy.optimize
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
    res = _highs_milp(mmin, cfg)
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
        if np.any(np.abs(x[b] - np.round(x[b])) > INT_TOL):
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
    (``HighsMipSolverData::transformNewIntegerFeasibleSolution ...``), past
    ``sys.stdout``; they would land in the output of ``mprobust run`` and of
    any caller.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        os.dup2(2, 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _highs_milp(mmin: MilpModel, cfg: SolverConfig):
    """scipy.optimize.milp on the min-sense model, run to a zero gap."""
    from scipy import optimize, sparse

    A, senses, rhs = mmin.row_coeffs, mmin.row_senses, mmin.row_rhs
    lb = np.where(senses == LE, -np.inf, rhs)
    ub = np.where(senses == GE, np.inf, rhs)
    constraints = optimize.LinearConstraint(sparse.csr_matrix(A), lb, ub) if mmin.num_rows else ()
    # HiGHS's default mip_rel_gap of 1e-4 would stop short of the optimum.
    # Presolve slows the masters (run_aq on PLM l=10 segment: 2.6 s with it,
    # 0.9 s without). The feasibility-jump heuristic runs before the root LP
    # and costs more than the whole solve of most models here.
    options = {"mip_rel_gap": 0.0, "presolve": False,
               "mip_heuristic_run_feasibility_jump": False}
    if cfg.time_limit is not None:
        options["time_limit"] = float(cfg.time_limit)
    if cfg.node_limit is not None:
        options["node_limit"] = int(cfg.node_limit)
    with _native_stdout_to_stderr(), warnings.catch_warnings():
        # scipy passes options it does not name to HiGHS verbatim, and says so
        warnings.filterwarnings("ignore", message="Unrecognized options detected",
                                category=RuntimeWarning)
        return optimize.milp(mmin.objective, constraints=constraints,
                             integrality=mmin.is_binary.astype(int),
                             bounds=optimize.Bounds(mmin.lower, mmin.upper), options=options)


def _highs_lp(mmin: MilpModel, x: np.ndarray, cfg: SolverConfig):
    """(scipy result, point or None) of the LP over the continuous columns of the
    min-sense model, its binaries fixed at their values in ``x``.

    HiGHS's MIP search accepts rows off by its own tolerance (1e-6); this
    re-solve puts the continuous part back within ``FEAS_TOL``.
    """
    from scipy import optimize

    cont = ~mmin.is_binary
    A = mmin.row_coeffs[:, cont]
    rhs = mmin.row_rhs - mmin.row_coeffs[:, ~cont] @ x[~cont]
    senses = mmin.row_senses
    le, ge, eq = senses == LE, senses == GE, senses == EQ
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([rhs[le], -rhs[ge]])
    options = {"presolve": False, "primal_feasibility_tolerance": FEAS_TOL}
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
        _check_primal(model, np.asarray(sol.values, dtype=float))
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

