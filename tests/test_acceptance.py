"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and timings.
"""

import itertools
import json
import time

import numpy as np
import pytest

from mprobust.cli import main as cli_main
from mprobust.engine import run_aq
from mprobust.generators import (
    PartitionScheme, PlmParams, SpParams, apply_partition, build_omega,
    gen_plm, gen_sp,
)
from mprobust.milp import solve_lp, solve_milp
from mprobust.oracle import (
    PiEnumerationOracle, brute_robust, enumerate_x, exact_mprs_by_pi_enumeration,
    piecewise_breakpoints, piecewise_f, robustness_matrix, toy_instance,
)
from mprobust.robust import _solve_robust_milp, solve_robust
from mprobust.serialize import load_json
from mprobust.uncertainty import (
    OmegaSpec, robustness_value, robustness_value_variant, sample_gamma,
)

from helpers import enum_milp, primal_dual_pair, random_milp


def _verdict(num, name, ok, detail=""):
    print(f"\ncriterion {num} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- shared SP batch for criteria 3 and 4 -----------------------------------

@pytest.fixture(scope="module")
def sp_runs():
    """Ten interval-domain A-Q runs at the 1% relative tolerance."""
    runs = []
    sizes = [8, 10, 12, 8, 10, 12, 8, 10, 12, 10]
    deltas = [0.0, 0.5, 1.0] * 3 + [0.0]
    for seed, (nv, delta) in enumerate(zip(sizes, deltas)):
        inst = apply_partition(gen_sp(SpParams(nv, seed=seed)),
                               PartitionScheme("d", 3), seed=seed)
        omega = build_omega(inst, "interval", delta=delta)
        eps = 0.01 * solve_robust(inst, omega.start_gamma).value
        res = run_aq(inst, omega, epsilon=eps)
        X = enumerate_x(inst)
        gammas = np.vstack([sample_gamma(omega, "grid", m=5),
                            sample_gamma(omega, "vertices")])
        runs.append((inst, omega, eps, res, X, gammas))
    return runs


def test_criterion_1_toy_exactness():
    t0 = time.monotonic()
    inst2, omega1, _ = toy_instance(2)
    res1 = run_aq(inst2, omega1, epsilon=0.0)
    ok = res1.distinct_x == [(0, 0, 1)]
    for gamma in np.vstack([sample_gamma(omega1, "grid", m=3),
                            sample_gamma(omega1, "uniform", seed=0, count=50)]):
        ok &= abs(robustness_value(inst2, np.array([0, 0, 1.0]), gamma) - 11.5) <= 1e-6
    counts = {}
    for n in (2, 3, 4, 5):
        inst, _, omega2 = toy_instance(n)
        res = run_aq(inst, omega2, epsilon=0.0)
        counts[n] = len(res.distinct_x)
        ok &= counts[n] == n
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _verdict(1, "toy exactness", ok,
             f"box1 solutions={res1.distinct_x}, box2 counts={counts}, {elapsed:.2f}s (< 5s)")


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    checked = 0

    def check(inst, modes):
        nonlocal worst, checked
        X = enumerate_x(inst)
        omega = build_omega(inst, "interval", delta=0.25)
        gammas = sample_gamma(omega, "uniform", seed=17, count=14)
        sizes = np.array([len(g) for g in inst.groups], dtype=float)
        gammas_v = sample_gamma(OmegaSpec.interval(np.zeros_like(sizes), sizes),
                                "uniform", seed=18, count=6)
        for gamma in np.vstack([gammas, gammas_v]):
            ref = float(np.min(robustness_matrix(inst, X, gamma)))
            ref_v = float(np.min(robustness_matrix(inst, X, gamma, variant=True)))
            for mode in modes:
                want = ref_v if mode == "variant" else ref
                got = _solve_robust_milp(inst, gamma, mode=mode).value
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
                checked += 1

    for seed in range(25):
        nv = (8, 9, 10)[seed % 3]
        K = 2 + (seed % 2)
        scheme = ("r", "p", "d")[seed % 3]
        inst = apply_partition(gen_sp(SpParams(nv, seed=seed)),
                               PartitionScheme(scheme, K), seed=seed)
        check(inst, ("standard", "tu_relaxed", "variant"))
    for seed in range(10):
        l = (4, 5, 6)[seed % 3]
        inst = apply_partition(gen_plm(PlmParams(l, 2, seed=seed)),
                               PartitionScheme(("lo", "g")[seed % 2], 2), seed=seed)
        check(inst, ("standard", "variant"))

    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 300.0
    _verdict(2, "oracle equivalence", ok,
             f"{checked} solves, max relative mismatch {worst:.2e} (<= 1e-6), "
             f"{elapsed:.1f}s (< 300s)")


def test_criterion_3_epsilon_guarantee(sp_runs):
    t0 = time.monotonic()
    worst_rel = 0.0
    iters = []
    for inst, omega, eps, res, X, gammas in sp_runs:
        xs = [np.array(t, dtype=float) for t in res.distinct_x]
        iters.append(res.iterations)
        for gamma in gammas:
            ref = float(np.min(robustness_matrix(inst, X, gamma)))
            best = min(robustness_value(inst, x, gamma) for x in xs)
            worst_rel = max(worst_rel, (best - ref) / ref)
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 0.01 + 1e-6 and elapsed < 600.0
    _verdict(3, "1% guarantee", ok,
             f"max relative gap {worst_rel:.2e} (<= 0.01+1e-6), "
             f"iterations={iters}, check {elapsed:.1f}s (< 600s)")


def test_criterion_4_pattern_oracle(sp_runs):
    worst = 0.0
    for inst, omega, eps, res, X, gammas in sp_runs:
        xs = exact_mprs_by_pi_enumeration(inst)
        for gamma in gammas:
            ref = float(np.min(robustness_matrix(inst, X, gamma)))
            best = min(robustness_value(inst, x, gamma) for x in xs)
            worst = max(worst, best - ref)
    toy_ok = True
    detail_counts = []
    for n in (2, 3, 4):
        inst, omega1, omega2 = toy_instance(n)
        xhat = exact_mprs_by_pi_enumeration(inst)
        for omega in (omega1, omega2):
            res = run_aq(inst, omega, epsilon=0.0)
            detail_counts.append((n, len(res.distinct_x), len(xhat)))
            toy_ok &= len(res.distinct_x) <= len(xhat)
    ok = worst <= 1e-6 and toy_ok
    _verdict(4, "pattern-enumeration oracle", ok,
             f"max zero-gap violation {worst:.2e} (<= 1e-6), "
             f"(n, loop, pattern-set) counts {detail_counts}")


def test_criterion_5_uncertainty_level_trend():
    t0 = time.monotonic()
    means = {}
    for delta in (0.0, 1.0):
        counts = []
        for seed in range(10):
            inst = apply_partition(gen_sp(SpParams(15, seed=seed)),
                                   PartitionScheme("r", 3), seed=seed)
            omega = build_omega(inst, "interval", delta=delta)
            eps = 0.01 * solve_robust(inst, omega.start_gamma, mode="tu_relaxed").value
            res = run_aq(inst, omega, epsilon=eps, mode="tu_relaxed")
            counts.append(res.num_distinct)
        means[delta] = float(np.mean(counts))
    elapsed = time.monotonic() - t0
    ok = means[0.0] >= means[1.0]
    _verdict(5, "low uncertainty needs more solutions", ok,
             f"mean distinct: delta=0 -> {means[0.0]:.1f} >= delta=1 -> {means[1.0]:.1f}, "
             f"{elapsed:.1f}s")


def test_criterion_6_tu_integrality():
    t0 = time.monotonic()
    max_frac = 0.0
    max_gap_diff = 0.0
    for seed in range(50):
        inst = apply_partition(gen_sp(SpParams(8, seed=100 + seed)),
                               PartitionScheme(("r", "d")[seed % 2], 2 + seed % 2),
                               seed=seed)
        omega = build_omega(inst, "interval", delta=1.0)
        tu = run_aq(inst, omega, epsilon=0.0, mode="tu_relaxed")
        std = run_aq(inst, omega, epsilon=0.0, mode="standard")
        for e in tu.history:
            max_frac = max(max_frac, float(np.max(np.abs(e.x - np.round(e.x)))))
        max_gap_diff = max(max_gap_diff, abs(tu.q_values[-1] - std.q_values[-1]))
    elapsed = time.monotonic() - t0
    ok = max_frac <= 1e-6 and max_gap_diff <= 1e-6
    _verdict(6, "TU relaxation", ok,
             f"50 instances, max fractional part {max_frac:.2e} (<= 1e-6), "
             f"final-guarantee difference {max_gap_diff:.2e} (<= 1e-6), {elapsed:.1f}s")


def test_criterion_7_piecewise_function():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        q = int(rng.integers(1, 6))
        u = rng.integers(1, 7, size=q).astype(float)
        v = np.sort(rng.uniform(0.1, 8.0, size=q))
        v += 1e-3 * np.arange(q)  # keep breakpoints distinct
        gamma = float(rng.uniform(0.0, 1.3 * u.sum()))
        pts, best = piecewise_breakpoints(gamma, u, v)
        ok &= any(abs(best - p) == 0.0 for p in pts)
        grid = np.linspace(0.0, v.max() * 1.4, 300)
        vals = np.array([piecewise_f(gamma, u, v, p) for p in grid])
        ok &= piecewise_f(gamma, u, v, best) <= vals.min() + 1e-9
        mid = 0.5 * (vals[:-2] + vals[2:])
        ok &= bool(np.all(vals[1:-1] <= mid + 1e-9))
        for p in pts[pts > 0]:
            left = piecewise_f(gamma, u, v, p - 1e-12)
            right = piecewise_f(gamma, u, v, p + 1e-12)
            ok &= abs(left - right) <= 1e-9
    _verdict(7, "piecewise convex auxiliary", ok,
             "100 random triples: convexity, continuity (1e-9), breakpoint argmin")


def test_criterion_8_solver_soundness():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst_milp = 0.0
    n_milp = 0

    # pure-binary batch with a vectorized enumeration reference
    for _ in range(120):
        nb = int(rng.integers(4, 11))
        m = int(rng.integers(2, 6))
        model = random_milp(rng, n_bin=nb, n_cont=0, m=m)
        got = solve_milp(model)
        pats = np.array(list(itertools.product((0.0, 1.0), repeat=nb)))
        lhs = pats @ model.row_coeffs.T
        feas = np.ones(len(pats), dtype=bool)
        for i in range(m):
            r = lhs[:, i] - model.row_rhs[i]
            if model.row_senses[i] < 0:
                feas &= r <= 1e-9
            elif model.row_senses[i] > 0:
                feas &= r >= -1e-9
            else:
                feas &= np.abs(r) <= 1e-9
        if not np.any(feas):
            assert got.status == "infeasible"
        else:
            vals = pats[feas] @ model.objective
            want = float(vals.max() if model.maximize else vals.min())
            worst_milp = max(worst_milp, abs(got.objective - want) / max(1.0, abs(want)))
        n_milp += 1

    # mixed batch against the scipy-completed enumeration oracle
    for _ in range(80):
        model = random_milp(rng, n_bin=int(rng.integers(3, 8)),
                            n_cont=int(rng.integers(1, 5)), m=int(rng.integers(3, 7)))
        got = solve_milp(model)
        status, want = enum_milp(model)
        assert got.status == status
        if status == "optimal":
            worst_milp = max(worst_milp, abs(got.objective - want) / max(1.0, abs(want)))
        n_milp += 1

    worst_lp = 0.0
    for _ in range(200):
        primal, dual = primal_dual_pair(rng, n=int(rng.integers(3, 8)),
                                        m=int(rng.integers(2, 6)))
        ps, ds = solve_lp(primal), solve_lp(dual)
        assert ps.status == "optimal" and ds.status == "optimal"
        worst_lp = max(worst_lp,
                       abs(ps.objective - ds.objective) / max(1.0, abs(ps.objective)))

    elapsed = time.monotonic() - t0
    ok = worst_milp <= 1e-6 and worst_lp <= 1e-6
    _verdict(8, "solver soundness", ok,
             f"{n_milp} MILPs max mismatch {worst_milp:.2e}, "
             f"200 duality pairs max gap {worst_lp:.2e} (both <= 1e-6), {elapsed:.1f}s")


def test_criterion_9_run_determinism(tmp_path):
    def strip(d):
        d = dict(d)
        d.pop("timing", None)
        return d

    configs = []
    sp = tmp_path / "sp.json"
    cli_main(["generate", "sp", "--nodes", "9", "--seed", "3",
              "--partition", "p", "--k", "3", "--out", str(sp)])
    configs.append(["run", "--instance", str(sp), "--omega", "interval",
                    "--delta", "0.5", "--epsilon-pct", "1.0"])
    configs.append(["run", "--instance", str(sp), "--omega", "budgeted",
                    "--delta", "1.0", "--epsilon-pct", "1.0"])
    toy = tmp_path / "toy.json"
    cli_main(["generate", "toy", "--n", "3", "--out", str(toy)])
    configs.append(["run", "--instance", str(toy), "--omega", "toy2",
                    "--epsilon", "0", "--mode", "variant"])

    ok = True
    for i, cfg in enumerate(configs):
        outs = []
        for rep in range(2):
            out = tmp_path / f"res{i}_{rep}.json"
            code = cli_main(cfg + ["--out", str(out)])
            assert code == 0
            outs.append(strip(load_json(out)))
        ok &= json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)
    _verdict(9, "determinism", ok,
             f"{len(configs)} run configs executed twice, byte-equal modulo timing")
