"""Command-line harness: generate instances, run the loop, evaluate,
verify against oracles, and aggregate report tables.

Exit codes: 0 ok, 2 iteration/time budget or solver limit reached (a
master stopped at a limit keeps the partial artifacts, its bound is the last
q value; a seed solve stopped at a limit leaves no result), 3 verification
failed, 4 bad input, 5 the loop stalled on a repeated entry above epsilon
(artifacts are kept; the residual is the last q value), 6 solver fault (a
backend returned a point that violates a row, or a relaxed solve on an
instance declared totally unimodular returned a fractional x; no result).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .engine import Budget, MprsResult, _build_master, _seed_solve, pick_best, run_aq
from .generators import (
    GenerationError, PartitionScheme, PlmParams, SpParams, apply_partition, build_omega,
    gen_plm, gen_sp,
)
from .milp import SolverConfig, SolverLimitError, SolverNumericalError, write_mps
# PiEnumerationOracle and solve_robust stay bound here for perfbench, which
# hooks them by name
from .oracle import (
    MAX_ENUM, PiEnumerationOracle, admits_pattern_table, enumerate_x, robustness_matrix,
    shared_pattern_table, toy_instance,
)
from .robust import (
    TuIntegralityError, _solve_robust_milp, build_robust_milp, build_robust_variant_milp,
    solve_robust,
)
from .serialize import (
    dumps_canonical, instance_from_dict, instance_to_dict, load_json,
    omega_from_dict, omega_to_dict, result_from_dict, result_to_dict, save_json,
)
# robustness_value stays bound here for perfbench, which hooks it by name
from .uncertainty import (
    GRID_MAX_POINTS, Instance, OmegaSpec, capped_grid_min, capped_values, group_deviations,
    interval_axes, robustness_value, row_chunks, sample_gamma, solution_signature,
    verify_feasible,
)

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_VERIFY = 3
EXIT_BAD_INPUT = 4
EXIT_STALLED = 5
EXIT_SOLVER_FAULT = 6

_RUN_EXIT = {"epsilon_met": EXIT_OK, "budget_exceeded": EXIT_BUDGET,
             "stalled": EXIT_STALLED}


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# independent guarantee verification (reads only the stored x vectors)
# ---------------------------------------------------------------------------

def _set_minimum(inst: Instance, X: np.ndarray, variant: bool):
    """``G -> (S,)``: the least worst-case cost over the rows of X at each
    budget row of G, in row chunks outside ``variant`` mode."""
    if variant:
        return lambda G: np.array([robustness_matrix(inst, X, g, variant=True).min()
                                   for g in G])
    base, room = X @ inst.c_lower, X @ group_deviations(inst)

    def minimum(G):
        out = np.empty(G.shape[0])
        for rows in row_chunks(G.shape[0], X.shape[0]):
            out[rows] = capped_values(base, room, G[rows]).min(axis=1)
        return out
    return minimum


def _reference_fn(inst: Instance, mode: str, config):
    """Batched robust-value reference ``ref(G) -> (S,)``: the pattern table
    wherever one can be built (``oracle.admits_pattern_table``), else
    enumeration when small, else the solver; returns (ref, grid_ref,
    route).  ``grid_ref(axes)`` evaluates a product grid whole
    (``PiEnumerationOracle.robust_grid``); it is None outside the pattern
    route.  The pattern route reads the instance's shared table, which
    ``run_aq`` may already have built; the solver route solves the robust
    MILP, never that table."""
    variant = mode == "variant"
    if not variant and admits_pattern_table(inst):
        oracle = shared_pattern_table(inst)
        return oracle.robust_values, oracle.robust_grid, "pattern-oracle"
    try:
        X = enumerate_x(inst)
        if X.shape[0] <= MAX_ENUM:
            return _set_minimum(inst, X, variant), None, "enumeration"
    except ValueError:
        pass

    def by_solver(G):
        return np.array([_solve_robust_milp(inst, g, "variant" if variant else "standard",
                                            config).value for g in G])
    return by_solver, None, "solver"


def _nth_point(parts, i: int) -> list:
    """Point i of the concatenated parts of ``verify_solution_set``."""
    for points, gap, _ in parts:
        if i < gap.shape[0]:
            if isinstance(points, np.ndarray):
                return [float(v) for v in points[i]]
            at = np.unravel_index(i, [axis.shape[0] for axis in points])
            return [float(axis[j]) for axis, j in zip(points, at)]
        i -= gap.shape[0]
    raise IndexError(i)


def _grid_size(omega: OmegaSpec, m: int) -> Optional[int]:
    """The grid's points per axis: ``m`` on a segment or where its grid fits
    ``GRID_MAX_POINTS``, else the largest smaller count, at least 3, that
    fits; None, for no grid, when 3 points per axis do not fit.  A grid of
    2 points per axis is the box's corners, which the vertex sample lists
    already (2^K fits only at K <= 20, where vertices are checked)."""
    K = omega.num_groups
    if omega.kind == "segment" or m ** K <= GRID_MAX_POINTS:
        return m
    while m > 3 and m ** K > GRID_MAX_POINTS:
        m -= 1
    return m if m ** K <= GRID_MAX_POINTS else None


def verify_solution_set(inst: Instance, omega: OmegaSpec, xs, epsilon: float,
                        mode: str = "standard", grid_m: int = 5,
                        uniform: int = 100, config: Optional[SolverConfig] = None) -> dict:
    """Sample the domain and check min-over-set robustness against the optimum.

    Returns max absolute/relative gaps, the witness gamma (the first point
    with the largest gap), the pass flag (gap <= epsilon + 1e-6), and
    ``exact``: whether the check is a proof rather than a sample.  On an
    interval domain the gap is largest at a vertex (with the optimal pattern
    pi fixed, it falls in gamma_k where pi_k = 1 and rises where pi_k = 0),
    so checking every vertex against an exact reference proves the
    guarantee.  Only the solution vectors are consulted.

    The grid has ``grid_m`` points per axis, fewer where that grid would
    exceed ``GRID_MAX_POINTS`` and none where even 3 per axis would (the
    report's ``grid_m`` gives the count used, or None).

    On an interval domain with the pattern reference, the grid and vertex
    samples are product grids and are evaluated axis by axis
    (``PiEnumerationOracle.robust_grid``, ``capped_grid_min``) without
    listing their points; the other samples go through the batched
    evaluators in row chunks.  Both routes give the same values to the bit.
    """
    X = np.array([np.asarray(x, dtype=float) for x in xs])
    if X.shape[0] == 0:
        raise CliError("empty solution set")
    variant = mode == "variant"
    ref, grid_ref, route = _reference_fn(inst, mode, config)
    vertices = omega.kind != "segment" and omega.num_groups <= 20
    grid_m = _grid_size(omega, grid_m)
    kinds = ["grid"] * (grid_m is not None) + ["vertices"] * vertices
    product = grid_ref is not None and omega.kind == "interval"
    # (points, gap, opt) per part, in sample order; a product grid's points
    # are its axes
    parts = []
    if product:
        base, room = X @ inst.c_lower, X @ group_deviations(inst)
        for kind in kinds:
            axes = interval_axes(omega, kind, grid_m)
            opt = grid_ref(axes).ravel()
            parts.append((axes, capped_grid_min(base, room, axes).ravel() - opt, opt))
    samples = [] if product else [sample_gamma(omega, kind, m=grid_m) for kind in kinds]
    if uniform > 0:
        samples.append(sample_gamma(omega, "uniform", seed=0, count=uniform))
    if samples:
        G = np.vstack(samples)
        opt = ref(G)
        parts.append((G, _set_minimum(inst, X, variant)(G) - opt, opt))
    if not parts:
        raise CliError("no budget vectors to check: no grid or vertices fit, and --uniform 0")
    gap = np.concatenate([p[1] for p in parts])
    opt = np.concatenate([p[2] for p in parts])
    i = int(np.argmax(gap))
    scaled = opt > 1e-12
    worst_rel = max(0.0, float(np.max(gap[scaled] / opt[scaled]))) if scaled.any() else 0.0
    worst = float(gap[i])
    return {
        "max_gap": worst,
        "max_relative_gap": worst_rel,
        "witness_gamma": _nth_point(parts, i),
        "checked": int(gap.shape[0]),
        "grid_m": grid_m,
        "reference": route,
        "exact": bool(omega.kind == "interval" and vertices and not variant
                      and route in ("pattern-oracle", "enumeration")),
        "epsilon": float(epsilon),
        "ok": bool(worst <= epsilon + 1e-6),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_instance(path) -> Instance:
    try:
        inst = instance_from_dict(load_json(path))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot load instance {path}: {exc}") from exc
    return inst


def cmd_generate(args) -> int:
    if args.family == "sp":
        inst = gen_sp(SpParams(args.nodes, seed=args.seed))
        default_scheme = "r"
    elif args.family == "plm":
        inst = gen_plm(PlmParams(args.l, args.p, seed=args.seed))
        default_scheme = "lo"
    else:
        inst, omega1, omega2 = toy_instance(args.n)
        md = dict(inst.metadata)
        md["toy_omega1"] = omega_to_dict(omega1)
        md["toy_omega2"] = omega_to_dict(omega2)
        inst = replace(inst, metadata=md)
    if args.family != "toy" and args.k is not None:
        scheme = PartitionScheme(args.partition or default_scheme, args.k)
        inst = apply_partition(inst, scheme, seed=args.partition_seed)
    verify_feasible(inst)
    save_json(instance_to_dict(inst), args.out)
    print(f"wrote {inst.kind} instance: n={inst.n} K={inst.num_groups} -> {args.out}")
    return EXIT_OK


def _omega_from_args(inst: Instance, args) -> OmegaSpec:
    if args.omega in ("toy1", "toy2"):
        key = "toy_omega1" if args.omega == "toy1" else "toy_omega2"
        if key not in inst.metadata:
            raise CliError(f"instance has no stored {key}")
        return omega_from_dict(inst.metadata[key])
    return build_omega(inst, args.omega, delta=args.delta,
                       alpha_lo=args.alpha_lo, alpha_hi=args.alpha_hi,
                       beta1=args.beta1, beta2=args.beta2,
                       segment_scale=args.segment_scale)


def _seed_value(inst: Instance, omega: OmegaSpec, args) -> float:
    """Robust value at the domain's start vector, as ``run_aq`` will find it:
    its seed decision (``engine._seed_solve``), with the run's time limit
    as the seed's limit and the table's deadline, so ``run_aq`` reuses a
    finished table."""
    _, seed, _ = _seed_solve(inst, omega, args.mode, SolverConfig(time_limit=args.time_limit),
                             time.monotonic() + args.time_limit)
    return seed.value


def cmd_run(args) -> int:
    t0 = time.monotonic()
    inst = _load_instance(args.instance)
    omega = _omega_from_args(inst, args)

    if args.epsilon is not None:
        epsilon = args.epsilon
        eps_mode = {"kind": "absolute", "value": float(epsilon)}
    else:
        pct = args.epsilon_pct if args.epsilon_pct is not None else 1.0
        epsilon = (pct / 100.0) * _seed_value(inst, omega, args)
        eps_mode = {"kind": "relative", "pct": float(pct)}

    trace_fh = open(args.trace, "w") if args.trace else None

    def trace(rec):
        if trace_fh is not None:
            trace_fh.write(json.dumps(rec) + "\n")

    try:
        # --time-limit bounds the whole command: the loop gets what the
        # seed of --epsilon-pct left, and reuses that seed
        left = max(0.0, args.time_limit - (time.monotonic() - t0))
        res = run_aq(inst, omega, epsilon, mode=args.mode,
                     budget=Budget(max_iters=args.max_iters, time_limit=left),
                     trace=trace)
    finally:
        if trace_fh is not None:
            trace_fh.close()

    save_json(result_to_dict(res, instance_path=str(args.instance),
                             epsilon_mode=eps_mode), args.out)
    if args.mps_dir:
        outdir = Path(args.mps_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        rmodel = (build_robust_variant_milp if args.mode == "variant"
                  else build_robust_milp)(inst, omega.start_gamma)
        write_mps(rmodel, outdir / "r_init.mps")
        qmodel = _build_master(inst, omega, res.history, args.mode)
        write_mps(qmodel, outdir / "q_final.mps")
    print(f"stop={res.stop_reason} iterations={res.iterations} "
          f"distinct={res.num_distinct} first_bound_pct={res.first_bound_pct:.1f} "
          f"elapsed={res.elapsed:.2f}s -> {args.out}")
    return _RUN_EXIT[res.stop_reason]


def _load_result(args) -> tuple:
    d = load_json(args.result)
    inst_path = args.instance or d.get("instance_path")
    if not inst_path:
        raise CliError("result carries no instance path; pass --instance")
    inst = _load_instance(inst_path)
    return result_from_dict(d, instance=inst), inst, d


def _parse_vector(text: str, n: int, label: str) -> np.ndarray:
    try:
        v = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise CliError(f"bad {label} vector: {exc}") from exc
    if v.shape[0] != n:
        raise CliError(f"{label} vector needs {n} entries, got {v.shape[0]}")
    return v


def cmd_evaluate(args) -> int:
    res, inst, _ = _load_result(args)
    if (args.gamma is None) == (args.cost is None):
        raise CliError("give exactly one of --gamma or --cost")
    if args.gamma is not None:
        gamma = _parse_vector(args.gamma, inst.num_groups, "gamma")
        if not np.all(gamma >= 0):      # NaN fails the comparison too
            raise CliError(f"gamma entries must be nonnegative numbers or inf: {args.gamma}")
        idx, value = pick_best(res, gamma=gamma)
    else:
        cost = _parse_vector(args.cost, inst.n, "cost")
        if not np.all(np.isfinite(cost)):
            raise CliError(f"cost entries must be finite: {args.cost}")
        idx, value = pick_best(res, cost=cost)
    x = res.history[idx].x
    out = {
        "index": idx,
        "value": value,
        "x": [int(round(v)) for v in x],
        "signature": list(solution_signature(inst, x)),
    }
    print(dumps_canonical(out), end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    res, inst, _ = _load_result(args)
    report = verify_solution_set(
        inst, res.omega, [np.array(t, dtype=float) for t in res.distinct_x],
        res.epsilon, mode=res.mode, grid_m=args.grid, uniform=args.uniform)
    print(dumps_canonical(report), end="")
    return EXIT_OK if report["ok"] else EXIT_VERIFY


# mean per-stage totals of a result's timing block (0 where a result has none)
_LAYER_TIMES = ("seed_s", "table_s", "master_s")


def cmd_report(args) -> int:
    rows = {}
    paths = sorted(Path(args.dir).glob("*.json"))
    for path in paths:
        try:
            d = load_json(path)
        except (OSError, json.JSONDecodeError):
            continue
        if d.get("format") != "mprs-result-v1":
            continue
        em = d.get("epsilon_mode", {})
        eps_tag = (f"rel{em['pct']}%" if em.get("kind") == "relative"
                   else f"abs{em.get('value', d['epsilon'])}")
        key = (d.get("instance_kind") or "?", d["omega"]["kind"], d["mode"], eps_tag)
        rows.setdefault(key, []).append(d)
    if not rows:
        raise CliError(f"no result files under {args.dir}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("instance", "omega", "mode", "epsilon",
                     "runs", "t_avg", "t_max", "s_min", "s_avg", "s_max",
                     "eps1_avg") + _LAYER_TIMES)
    for key in sorted(rows):
        ds = rows[key]
        times = [d["timing"]["elapsed"] for d in ds]
        counts = [d["distinct_count"] for d in ds]
        firsts = [d["first_bound_pct"] for d in ds if d["first_bound_pct"] != "inf"]
        writer.writerow(list(key) + [
            len(ds),
            round(float(np.mean(times)), 1), round(float(np.max(times)), 1),
            int(np.min(counts)), round(float(np.mean(counts)), 1), int(np.max(counts)),
            round(float(np.mean(firsts)), 1) if firsts else "",
        ] + [round(float(np.mean([d["timing"].get(name, 0.0) for d in ds])), 6)
             for name in _LAYER_TIMES])
    text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mprobust", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate an instance file")
    g.add_argument("family", choices=["sp", "plm", "toy"])
    g.add_argument("--nodes", type=int, default=10, help="sp: node count")
    g.add_argument("--l", type=int, default=10, help="plm: location count")
    g.add_argument("--p", type=int, default=None, help="plm: median count (default l//10)")
    g.add_argument("--n", type=int, default=2, help="toy: size parameter")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--partition", choices=["r", "p", "d", "lo", "g"], default=None)
    g.add_argument("--k", type=int, default=None, help="group count for the partition")
    g.add_argument("--partition-seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    r = sub.add_parser("run", help="run the multiparametric loop")
    r.add_argument("--instance", required=True)
    r.add_argument("--omega", required=True,
                   choices=["interval", "segment", "budgeted", "toy1", "toy2"])
    r.add_argument("--delta", type=float, default=0.0)
    r.add_argument("--alpha-lo", type=float, default=0.0)
    r.add_argument("--alpha-hi", type=float, default=1.0)
    r.add_argument("--beta1", type=float, default=0.5)
    r.add_argument("--beta2", type=float, default=1.0)
    r.add_argument("--segment-scale", type=float, default=None)
    r.add_argument("--mode", choices=["standard", "tu_relaxed", "variant"],
                   default="standard")
    r.add_argument("--epsilon", type=float, default=None, help="absolute tolerance")
    r.add_argument("--epsilon-pct", type=float, default=None,
                   help="relative tolerance as a percent of the start robust value")
    r.add_argument("--max-iters", type=int, default=500,
                   help="most master solves; a run cut here ends budget_exceeded (exit 2)")
    r.add_argument("--time-limit", type=float, default=3600.0,
                   help="wall seconds for the whole command, the --epsilon-pct seed "
                        "included (exit 2 when spent); the first MILP of a process also "
                        "imports scipy.optimize (0.36-0.46 s cold on a 2-core Xeon VM), which "
                        "no limit bounds")
    r.add_argument("--trace", default=None, help="line-delimited iteration trace")
    r.add_argument("--mps-dir", default=None, help="export key models as MPS files")
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_run)

    e = sub.add_parser("evaluate", help="pick the best stored solution for a scenario")
    e.add_argument("--result", required=True)
    e.add_argument("--instance", default=None)
    e.add_argument("--gamma", default=None, help="comma-separated budget vector")
    e.add_argument("--cost", default=None, help="comma-separated cost vector")
    e.set_defaults(fn=cmd_evaluate)

    v = sub.add_parser("verify", help="independently check the epsilon guarantee")
    v.add_argument("--result", required=True)
    v.add_argument("--instance", default=None)
    v.add_argument("--grid", type=int, default=5)
    v.add_argument("--uniform", type=int, default=100)
    v.set_defaults(fn=cmd_verify)

    rep = sub.add_parser("report", help="aggregate result files into a CSV table")
    rep.add_argument("--dir", required=True)
    rep.add_argument("--out", default=None)
    rep.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_BAD_INPUT
    try:
        return args.fn(args)
    except SolverLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SolverNumericalError, TuIntegralityError) as exc:
        print(f"solver fault: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAULT
    except (CliError, GenerationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
