"""Spans at mprobust's module boundaries, recorded from outside the package.

A :class:`Tracer` keeps every span in memory as
``[name, start_ns, end_ns, parent_index, op_id, attrs]`` and writes them out
once, when the run ends.  :meth:`Tracer.installed` swaps the names through
which one module calls another (``engine.solve_robust``,
``cli.robustness_value``, the resolved MILP backend, ...) for span-recording
wrappers and puts the originals back on exit; nothing under ``src/`` is
edited.  :func:`layer_metrics` turns the spans into the per-layer figures.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mprobust import cli, engine, milp, oracle, register_backend, robust
from mprobust.milp import SolverConfig

MILP = "milp.submit"
RUN_AQ = "engine.run_aq"
PICK = "engine.pick_best"
SOLVE_ROBUST = "robust.solve_robust"
EVAL = "uncertainty.eval"
ORACLE_BUILD = "oracle.build"
ORACLE_NOMINAL = "oracle.nominal"
ORACLE_REF = "oracle.ref"
VERIFY = "cli.verify_solution_set"
GENERATE = "generators.generate"
ROUNDTRIP = "serialize.roundtrip"

# (module, attribute, span name): the names one layer calls another through
_BOUNDARIES = (
    (engine, "solve_robust", SOLVE_ROBUST),
    (engine, "robustness_value", EVAL),
    (robust, "robustness_value", EVAL),
    (cli, "robustness_value", EVAL),
    (cli, "robustness_matrix", ORACLE_REF),
    (cli, "solve_robust", SOLVE_ROBUST),
    (oracle, "nominal_minimize", ORACLE_NOMINAL),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = None

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                   self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            return out

        return traced

    def _traced_backend(self, fn):
        spans = self.spans
        inner = self.wrap(MILP, fn)

        def backend(model, cfg):
            idx = len(spans)
            sol = None
            try:
                sol = inner(model, cfg)
                return sol
            finally:
                spans[idx][5] = {
                    "vars": model.num_vars, "rows": model.num_rows,
                    "nnz": int(np.count_nonzero(model.row_coeffs)),
                    "nodes": 0 if sol is None else int(sol.nodes),
                    "optimal": sol is not None and sol.status == "optimal"}

        return backend

    def _oracle_factory(self, cls):
        build = self.wrap(ORACLE_BUILD, cls)

        def make(*args, **kwargs):
            obj = build(*args, **kwargs)
            obj.robust_value = self.wrap(ORACLE_REF, obj.robust_value)
            return obj

        return make

    @contextmanager
    def installed(self):
        """Route the package's cross-module calls through span wrappers."""
        backend = SolverConfig().backend
        original_backend = milp._BACKENDS[backend]     # no public getter exists
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _BOUNDARIES]
        saved.append((cli, "PiEnumerationOracle", cli.PiEnumerationOracle))
        try:
            register_backend(backend, self._traced_backend(original_backend))
            for mod, attr, name in _BOUNDARIES:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            cli.PiEnumerationOracle = self._oracle_factory(cli.PiEnumerationOracle)
            yield self
        finally:
            register_backend(backend, original_backend)
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path: Path) -> None:
        """All spans as gzip'd JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span wrapper adds to a call: best of ``repeats`` batches."""
    def noop():
        return None

    def batch(fn) -> float:
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t

    extra = min(batch(Tracer().wrap("calibrate", noop)) - batch(noop) for _ in range(repeats))
    return max(extra, 0.0) / calls


def layer_metrics(spans, facts: dict) -> dict:
    """Per-layer figures from the spans of one traced pass.

    ``facts`` carries what the spans cannot see: iteration and history
    counts of the solved sets, the γ-pick count with the distinct-set sizes
    those picks scanned, and verify's checked-point count and routes.
    """
    # a root span's parent index is -1, which picks the trailing "" / slot
    names = np.array([s[0] for s in spans] + [""])
    parents = np.array([s[3] for s in spans], dtype=int)
    parent_names = names[parents]
    dur = np.array([(s[2] - s[1]) * 1e-9 for s in spans], dtype=float)
    child = np.zeros(len(spans) + 1)
    np.add.at(child, parents, dur)
    self_time = dur - child[:-1]
    names = names[:-1]

    def where(name, parent=None):
        hit = names == name
        if parent is not None:
            hit &= parent_names == parent
        return np.flatnonzero(hit)

    def total(idx, arr=dur):
        return float(arr[idx].sum())

    milp_idx = where(MILP)
    attrs = [spans[i][5] for i in milp_idx]
    evals = where(EVAL)
    pick_evals = len(where(EVAL, PICK))
    gamma_picks = facts["gamma_picks"]
    verify_calls = facts["verify_calls"]
    return {
        "milp.calls": len(milp_idx),
        "milp.busy_s": total(milp_idx),
        "milp.nodes": sum(a["nodes"] for a in attrs),
        "milp.vars_max": max((a["vars"] for a in attrs), default=0),
        "milp.rows_max": max((a["rows"] for a in attrs), default=0),
        "milp.nnz_max": max((a["nnz"] for a in attrs), default=0),
        "milp.non_optimal": sum(not a["optimal"] for a in attrs),
        "engine.master_solve_s": total(where(MILP, RUN_AQ)),
        "engine.self_s": total(where(RUN_AQ), self_time),
        "engine.iterations": facts["iterations"],
        "engine.history_len": facts["history_len"],
        "engine.pick_s": total(where(PICK)),
        "engine.pick_evals_per_scenario": pick_evals / gamma_picks if gamma_picks else 0.0,
        "engine.pick_useful_ratio": facts["distinct_scanned"] / pick_evals if pick_evals else 0.0,
        "robust.seed_solves": len(where(SOLVE_ROBUST)),
        "robust.seed_solve_s": total(where(SOLVE_ROBUST)),
        "uncertainty.eval_calls": len(evals),
        "uncertainty.eval_s": total(evals),
        "uncertainty.eval_us_per_call": 1e6 * total(evals) / len(evals) if len(evals) else 0.0,
        "oracle.build_s": total(where(ORACLE_BUILD)),
        "oracle.nominal_solves": len(where(ORACLE_NOMINAL)),
        "oracle.ref_s": total(where(ORACLE_REF)),
        "cli.verify_points": facts["verify_points"],
        "cli.verify_pattern_ref_share": (facts["verify_pattern_routes"] / verify_calls
                                         if verify_calls else 0.0),
        "cli.verify_self_s": total(where(VERIFY), self_time),
        "generators.gen_s": total(where(GENERATE)),
        "serialize.roundtrip_s": total(where(ROUNDTRIP)),
    }
