"""Brute-force oracles: toy family, enumeration, pattern oracle, piecewise f."""

import numpy as np
import pytest

from mprobust.oracle import (
    PiEnumerationOracle, brute_robust, cost_for_pi_oracle, enumerate_x,
    exact_mprs_by_pi_enumeration, nominal_minimize, piecewise_breakpoints,
    piecewise_f, toy_instance,
)
from mprobust.uncertainty import contains, robustness_value, sample_gamma

from helpers import random_instance


def test_toy_fixture_data():
    inst, omega1, omega2 = toy_instance(4)
    assert inst.n == 5
    assert np.allclose(inst.c_lower, [10, 10, 10, 10, 11.5])
    assert np.allclose(inst.deviations, [2, 2, 2, 2, 0])
    assert inst.groups == tuple((j,) for j in range(5))
    # equal per-coordinate widths for the two boxes
    assert np.allclose(omega1.upper - omega1.lower, 1.0)
    assert np.allclose(omega2.upper - omega2.lower, 1.0)
    with pytest.raises(ValueError):
        toy_instance(0)


def test_toy_enumeration_and_brute_force():
    inst, omega1, omega2 = toy_instance(2)
    X = enumerate_x(inst)
    assert X.shape == (3, 3)
    assert np.allclose(X, np.eye(3))

    val, x = brute_robust(inst, np.array([2.0, 2.0, 2.0]))
    assert val == pytest.approx(11.5)
    assert np.allclose(x, [0, 0, 1])

    val0, _ = brute_robust(inst, np.zeros(3))
    assert val0 == pytest.approx(10.0)

    # inside the low-uncertainty box the cheap items win
    val2, x2 = brute_robust(inst, np.array([0.25, 0.75, 0.5]))
    assert val2 == pytest.approx(10.25)
    assert np.allclose(x2, [1, 0, 0])


def test_generic_enumeration_counts():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, n=6, K=2)
    X = enumerate_x(inst)
    # cardinality band 1..3 over 6 items
    from math import comb
    assert X.shape[0] == comb(6, 1) + comb(6, 2) + comb(6, 3)
    sums = X.sum(axis=1)
    assert sums.min() >= 1 and sums.max() <= 3


def test_sp_path_enumeration_cross_check():
    """Paths are exactly the minimal feasible points of the flow rows."""
    from dataclasses import replace
    from mprobust.generators import SpParams, gen_sp

    rng = np.random.default_rng(5)
    for seed in range(4):
        inst = gen_sp(SpParams(5, seed=seed))
        paths = enumerate_x(inst)
        generic = enumerate_x(replace(inst, metadata={"kind": "CUSTOM"}))
        gset = {tuple(row) for row in generic}
        assert all(tuple(p) in gset for p in paths)
        # optimizing over paths equals optimizing over the full feasible set
        for _ in range(5):
            c = rng.uniform(0.1, 2.0, size=inst.n)
            assert float(np.min(paths @ c)) == pytest.approx(
                float(np.min(generic @ c)), abs=1e-12)


def test_plm_enumeration_median_sets():
    from math import comb
    from mprobust.generators import PlmParams, gen_plm

    inst = gen_plm(PlmParams(4, 2, seed=0))
    X = enumerate_x(inst)
    off = inst.metadata["y_offset"]
    medians = {tuple(np.flatnonzero(row[off:])) for row in X}
    assert len(medians) == comb(4, 2) == 6
    assert X.shape[0] == 6 * 2 ** 4
    # nearest-assignment completion of every median pair is in the set
    cmat = inst.c_lower[:16].reshape(4, 4)
    rows = {tuple(row) for row in X}
    for pair in medians:
        x = np.zeros(inst.n)
        for i in pair:
            x[off + i] = 1.0
        for j in range(4):
            i = pair[int(np.argmin(cmat[list(pair), j]))]
            x[i * 4 + j] = 1.0
        assert tuple(x) in rows


def test_pattern_oracle_group_guard():
    rng = np.random.default_rng(7)
    inst = random_instance(rng, n=34, K=17)
    if inst.num_groups > 16:
        with pytest.raises(ValueError):
            PiEnumerationOracle(inst)


def test_cost_for_pi_oracle_values():
    inst, _, _ = toy_instance(2)
    assert np.allclose(cost_for_pi_oracle(inst, [1, 1, 1]), inst.c_lower)
    assert np.allclose(cost_for_pi_oracle(inst, [0, 0, 0]),
                       inst.c_lower + inst.deviations)
    assert np.allclose(cost_for_pi_oracle(inst, [1, 0, 1]), [10.0, 12.0, 11.5])


def test_pi_enumeration_oracle_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(8):
        inst = random_instance(rng, n=6, K=3)
        oracle = PiEnumerationOracle(inst)
        X = enumerate_x(inst)
        for _ in range(15):
            gamma = rng.uniform(0, 5, size=inst.num_groups)
            want, _ = brute_robust(inst, gamma, X=X)
            assert oracle.robust_value(gamma) == pytest.approx(want, abs=1e-9)
            xb = oracle.best_solution(gamma)
            assert robustness_value(inst, xb, gamma) == pytest.approx(want, abs=1e-9)


def test_exact_mprs_zero_gap_on_toy():
    inst, omega1, omega2 = toy_instance(2)
    xs = exact_mprs_by_pi_enumeration(inst, omega2)
    X = enumerate_x(inst)
    for omega in (omega1, omega2):
        for gamma in sample_gamma(omega, "grid", m=5):
            want, _ = brute_robust(inst, gamma, X=X)
            got = min(robustness_value(inst, x, gamma) for x in xs)
            assert got == pytest.approx(want, abs=1e-9)


def test_nominal_minimize_generic():
    rng = np.random.default_rng(13)
    inst = random_instance(rng, n=6, K=2)
    X = enumerate_x(inst)
    c = rng.uniform(0, 5, size=6)
    val, x = nominal_minimize(inst, c)
    assert val == pytest.approx(float(np.min(X @ c)), abs=1e-12)
    assert any(np.allclose(x, row) for row in X)


def test_piecewise_f_examples():
    assert piecewise_f(1.0, [2], [3], 0.0) == pytest.approx(6.0)
    assert piecewise_f(1.0, [2], [3], 3.0) == pytest.approx(3.0)
    pts, best = piecewise_breakpoints(1.0, [2], [3])
    assert np.allclose(pts, [0.0, 3.0])
    assert best == pytest.approx(3.0)

    # slope never negative once gamma covers the total weight
    pts, best = piecewise_breakpoints(5.0, [2, 2], [1.0, 3.0])
    assert best == pytest.approx(0.0)

    with pytest.raises(ValueError):
        piecewise_f(1.0, [1], [0.0], 0.5)
    with pytest.raises(ValueError):
        piecewise_f(-1.0, [1], [1.0], 0.5)


def test_piecewise_f_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        q = int(rng.integers(1, 5))
        u = rng.integers(1, 6, size=q).astype(float)
        v = np.sort(rng.uniform(0.2, 5.0, size=q))
        gamma = float(rng.uniform(0, u.sum() * 1.5))
        pts, best = piecewise_breakpoints(gamma, u, v)
        grid = np.linspace(0, v.max() * 1.5, 400)
        vals = np.array([piecewise_f(gamma, u, v, p) for p in grid])
        f_best = piecewise_f(gamma, u, v, best)
        assert f_best <= vals.min() + 1e-9
        # convexity on the grid (midpoint inequality)
        mid = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(vals[1:-1] <= mid + 1e-9)
        # continuity at breakpoints
        for p in pts:
            if p > 0:
                left = piecewise_f(gamma, u, v, max(p - 1e-9, 0.0))
                right = piecewise_f(gamma, u, v, p + 1e-9)
                assert abs(left - right) <= 1e-6


def test_sp_graph_built_once_per_instance(monkeypatch):
    """The pattern oracle and the pattern master share one arc graph."""
    from mprobust import oracle
    from mprobust.engine import run_aq
    from mprobust.generators import (
        PartitionScheme, SpParams, apply_partition, build_omega, gen_sp,
    )

    builds = []
    inner = oracle._sp_graph

    def counted(inst):
        builds.append(inst)
        return inner(inst)

    monkeypatch.setattr(oracle, "_sp_graph", counted)
    inst = apply_partition(gen_sp(SpParams(10, seed=4)), PartitionScheme("r", 3), seed=4)
    omega = build_omega(inst, "interval", delta=0.5)
    ref = PiEnumerationOracle(inst)
    res = run_aq(inst, omega, epsilon=0.0)
    assert res.stop_reason == "epsilon_met"
    assert len(builds) == 1 and builds[0] is inst
    # the shared graph carries no costs, so the two agree on every pattern
    X = enumerate_x(inst)
    for gamma in sample_gamma(omega, "vertices"):
        want, _ = brute_robust(inst, gamma, X=X)
        assert ref.robust_value(gamma) == pytest.approx(want, abs=1e-9)
    assert len(builds) == 1
    # another instance gets its own graph
    other = apply_partition(gen_sp(SpParams(10, seed=5)), PartitionScheme("r", 3), seed=5)
    nominal_minimize(other, other.c_lower)
    assert len(builds) == 2 and builds[1] is other
