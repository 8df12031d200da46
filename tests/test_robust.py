"""Robust counterpart formulations against the enumeration oracle."""

import numpy as np
import pytest

from mprobust.oracle import (
    brute_robust, enumerate_x, nominal_minimize, toy_instance,
)
from mprobust.robust import (
    RobustSolution, build_robust_milp, build_robust_variant_milp,
    cost_for_pi, solve_robust,
)
from mprobust.milp import solve_milp
from mprobust.uncertainty import robustness_value, robustness_value_variant

from helpers import random_instance


def test_toy_model_shape():
    inst, _, _ = toy_instance(2)
    model = build_robust_milp(inst, np.array([2.0, 2.0, 2.0]))
    assert model.num_vars == 9
    assert model.num_binary == 9
    assert model.num_rows == 4  # 1 assignment row + 3 coupling rows


def test_toy_paper_values():
    inst, _, _ = toy_instance(2)
    sol = solve_robust(inst, np.array([2.0, 2.0, 2.0]))
    assert sol.value == pytest.approx(11.5)
    assert np.allclose(sol.x, [0, 0, 1])

    sol = solve_robust(inst, np.array([0.5, 1.0, 2.0]))
    assert sol.value == pytest.approx(10.5)
    assert np.allclose(sol.x, [1, 0, 0])


def test_toy_high_uncertainty_box_always_same_solution():
    from mprobust.uncertainty import sample_gamma
    inst, omega1, _ = toy_instance(2)
    for gamma in sample_gamma(omega1, "grid", m=3):
        sol = solve_robust(inst, gamma)
        assert np.allclose(sol.x, [0, 0, 1])
        assert sol.value == pytest.approx(11.5)


def test_zero_budget_recovers_nominal():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, n=6, K=2)
    sol = solve_robust(inst, np.zeros(inst.num_groups))
    want, _ = nominal_minimize(inst, inst.c_lower)
    assert sol.value == pytest.approx(want, abs=1e-8)


def test_standard_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(12):
        inst = random_instance(rng, n=int(rng.integers(4, 8)), K=int(rng.integers(1, 4)))
        X = enumerate_x(inst)
        for _ in range(4):
            gamma = rng.uniform(0, 4, size=inst.num_groups)
            want, _ = brute_robust(inst, gamma, X=X)
            sol = solve_robust(inst, gamma)
            assert sol.value == pytest.approx(want, abs=1e-6)
            # certificate tightness
            assert sol.value == pytest.approx(
                robustness_value(inst, sol.x, gamma), abs=1e-6)
            # coupling rows hold
            for k, g in enumerate(inst.groups):
                for j in g:
                    assert sol.pi[k] + sol.rho[j] - sol.x[j] >= -1e-9


def test_variant_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(10):
        inst = random_instance(rng, n=int(rng.integers(4, 7)), K=int(rng.integers(1, 3)))
        X = enumerate_x(inst)
        for _ in range(3):
            gamma = rng.uniform(0, 3, size=inst.num_groups)
            want, _ = brute_robust(inst, gamma, variant=True, X=X)
            sol = solve_robust(inst, gamma, mode="variant")
            assert sol.value == pytest.approx(want, abs=1e-6)
            assert sol.value == pytest.approx(
                robustness_value_variant(inst, sol.x, gamma), abs=1e-6)


def test_variant_zero_deviation_degenerates():
    inst, _, _ = toy_instance(2)
    from dataclasses import replace
    flat = replace(inst, deviations=np.zeros(3))
    sol = solve_robust(flat, np.array([1.0, 1.0, 1.0]), mode="variant")
    assert sol.value == pytest.approx(10.0)  # nominal optimum, all certificates 0
    assert np.allclose(sol.rho, 0.0)


def test_variant_breakpoint_structure():
    # the continuous dual's theta_k lands on {0} or {d_j x_j : j in P_k}, rho is
    # the tight max(0, d_j x_j - theta_k), and the certificate bounds the
    # variant value at every gamma, with equality at the solve's own gamma
    from mprobust.engine import HistoryEntry, stored_value

    rng = np.random.default_rng(11)
    toy, _, toy_omega2 = toy_instance(3)
    cases = [(toy, toy_omega2.start_gamma)]
    for K in (1, 2, 3):
        for _ in range(6):
            inst = random_instance(rng, n=6, K=K)
            cases.append((inst, rng.uniform(0.1, 2.5, size=inst.num_groups)))
            cases.append((inst, rng.integers(0, 3, size=inst.num_groups).astype(float)))
    zero_groups = 0
    for inst, gamma in cases:
        sol = solve_robust(inst, gamma, mode="variant")
        dx = inst.deviations * sol.x
        for k, g in enumerate(inst.groups):
            idx = list(g)
            assert np.min(np.abs(sol.pi[k] - np.append(dx[idx], 0.0))) <= 1e-9
            assert np.allclose(sol.rho[idx], np.maximum(0.0, dx[idx] - sol.pi[k]),
                               rtol=0.0, atol=1e-9)
            zero_groups += not sol.x[idx].any()
        entry = HistoryEntry(pi=sol.pi, rho=sol.rho, x=sol.x, gamma=gamma)
        assert stored_value(inst, entry, gamma, variant=True) == pytest.approx(
            robustness_value_variant(inst, sol.x, gamma), rel=1e-12, abs=1e-9)
        for other in rng.uniform(0.0, 3.0, size=(20, inst.num_groups)):
            assert (stored_value(inst, entry, other, variant=True)
                    >= robustness_value_variant(inst, sol.x, other) - 1e-9)
    assert zero_groups > 0


def test_pi_enumeration_equivalence():
    rng = np.random.default_rng(13)
    for _ in range(8):
        inst = random_instance(rng, n=6, K=3)
        gamma = rng.uniform(0, 4, size=inst.num_groups)
        import itertools
        best = np.inf
        for bits in itertools.product((0.0, 1.0), repeat=inst.num_groups):
            pi = np.array(bits)
            nom = solve_milp(inst.feasible_model(cost_for_pi(inst, pi)))
            best = min(best, float(gamma @ pi) + nom.objective)
        sol = solve_robust(inst, gamma)
        assert sol.value == pytest.approx(best, abs=1e-6)


def test_cost_for_pi_values():
    inst, _, _ = toy_instance(2)
    assert np.allclose(cost_for_pi(inst, [1, 1, 1]), inst.c_lower)
    assert np.allclose(cost_for_pi(inst, [0, 0, 0]), inst.c_lower + inst.deviations)
    assert np.allclose(cost_for_pi(inst, [1, 0, 1]), [10.0, 12.0, 11.5])
    # agrees with an inline reference: the nominal cost where the index's
    # group budget is active, the worst case elsewhere
    rng = np.random.default_rng(3)
    for _ in range(10):
        other = random_instance(rng, n=6, K=2)
        pi = rng.integers(0, 2, size=other.num_groups).astype(float)
        kof = other.group_of()
        active = (kof >= 0) & (pi[kof] > 0.5)
        want = np.where(active, other.c_lower, other.c_lower + other.deviations)
        assert np.allclose(cost_for_pi(other, pi), want)
    with pytest.raises(ValueError):
        cost_for_pi(inst, [1.0])


def test_tu_mode_rejected_without_declaration():
    rng = np.random.default_rng(17)
    inst = random_instance(rng, n=5, K=2)
    with pytest.raises(ValueError):
        solve_robust(inst, np.zeros(inst.num_groups), mode="tu_relaxed")
    with pytest.raises(ValueError):
        solve_robust(inst, np.zeros(inst.num_groups), mode="other")


def test_tu_relaxed_matches_standard_on_sp():
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp

    rng = np.random.default_rng(23)
    for seed in range(6):
        inst = apply_partition(gen_sp(SpParams(8, seed=seed)),
                               PartitionScheme("r", 3), seed=seed)
        X = enumerate_x(inst)
        for _ in range(3):
            gamma = rng.uniform(0, 3, size=inst.num_groups)
            std = solve_robust(inst, gamma, mode="standard")
            tu = solve_robust(inst, gamma, mode="tu_relaxed")
            want, _ = brute_robust(inst, gamma, X=X)
            assert std.value == pytest.approx(want, abs=1e-6)
            assert tu.value == pytest.approx(want, abs=1e-6)
            assert np.array_equal(tu.x, np.round(tu.x))
            # repaired certificate is tight
            assert tu.value == pytest.approx(
                float(gamma @ tu.pi + inst.deviations @ tu.rho + inst.c_lower @ tu.x),
                abs=1e-6)
