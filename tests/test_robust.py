"""Robust counterpart formulations against the enumeration oracle."""

import numpy as np
import pytest

from mprobust.oracle import (
    brute_robust, cost_for_pi, enumerate_x, nominal_minimize, toy_instance,
)
from mprobust.robust import (
    RobustSolution, _solve_robust_milp, build_robust_milp, build_robust_variant_milp,
    solve_robust,
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
            std = _solve_robust_milp(inst, gamma, mode="standard")
            tu = _solve_robust_milp(inst, gamma, mode="tu_relaxed")
            want, _ = brute_robust(inst, gamma, X=X)
            assert std.value == pytest.approx(want, abs=1e-6)
            assert tu.value == pytest.approx(want, abs=1e-6)
            assert np.array_equal(tu.x, np.round(tu.x))
            # repaired certificate is tight
            assert tu.value == pytest.approx(
                float(gamma @ tu.pi + inst.deviations @ tu.rho + inst.c_lower @ tu.x),
                abs=1e-6)


def _sp(nodes, scheme, K, seed=0):
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp

    return apply_partition(gen_sp(SpParams(nodes, seed=seed)), PartitionScheme(scheme, K),
                           seed=seed)


def test_table_route_matches_milp_route():
    """The pattern-table route of ``solve_robust`` against the robust MILP
    on SP 8-20 and the toy family: values within 1e-9 relative and equal to
    the table's ``robust_value`` to the bit, with a tight 0-1 certificate."""
    from mprobust.generators import build_omega
    from mprobust.oracle import shared_pattern_table
    from mprobust.robust import TABLE_MAX_K

    rng = np.random.default_rng(29)
    cases = []
    for nodes, scheme in ((8, "r"), (14, "p"), (20, "d"), (20, "r")):
        for K in range(1, TABLE_MAX_K + 1):
            inst = _sp(nodes, scheme, K, seed=K)
            K = inst.num_groups     # a partition may come out with fewer groups
            omega = build_omega(inst, "interval", delta=0.5)
            corners = np.where(rng.random((2, K)) < 0.5, omega.lower, omega.upper)
            gammas = np.vstack([np.zeros(K), omega.lower, omega.upper, corners,
                                omega.lower + rng.random((2, K)) * (omega.upper - omega.lower)])
            cases.append((inst, gammas))
    for n in (1, 3, 6):
        inst, omega1, omega2 = toy_instance(n)
        cases.append((inst, np.vstack([np.zeros(n + 1), omega1.lower, omega1.upper,
                                       omega2.upper, rng.uniform(0, 3, size=(2, n + 1))])))
    for inst, gammas in cases:
        shared_pattern_table(inst)      # below TABLE_MIN_K only a cached table serves
        for gamma in gammas:
            want = _solve_robust_milp(inst, gamma).value
            for mode in ("standard", "tu_relaxed") if inst.kind == "SP" else ("standard",):
                sol = solve_robust(inst, gamma, mode=mode)
                assert sol.formulation == mode
                assert sol.value == pytest.approx(want, rel=1e-9, abs=1e-9)
                assert sol.value == shared_pattern_table(inst).robust_value(gamma)
                assert set(np.unique(np.r_[sol.pi, sol.rho, sol.x])) <= {0.0, 1.0}
                assert sol.value == pytest.approx(
                    float(gamma @ sol.pi + inst.deviations @ sol.rho + inst.c_lower @ sol.x),
                    rel=1e-12, abs=1e-12)
                assert sol.value == pytest.approx(robustness_value(inst, sol.x, gamma),
                                                  rel=1e-12, abs=1e-12)


def test_milp_calls_by_route():
    """No robust MILP on pattern kinds with TABLE_MIN_K to TABLE_MAX_K groups
    or on a cached table; one on ``variant``, on p-median, outside those K
    bounds without a table and after a table unfinished at the time limit,
    which then gets only the time left."""
    from dataclasses import replace

    from mprobust import oracle
    from mprobust.generators import PartitionScheme, PlmParams, apply_partition, gen_plm
    from mprobust.milp import _BACKENDS, SolverConfig, register_backend
    from mprobust.robust import TABLE_MAX_K, TABLE_MIN_K

    calls, limits = [], []
    scipy = _BACKENDS["scipy"]

    def counted(model, cfg):
        # the limit is dropped, so a solve after a timed-out table finishes
        calls.append(model.name)
        limits.append(cfg.time_limit)
        return scipy(model, replace(cfg, time_limit=None))

    def count(inst, mode="standard", time_limit=None):
        calls.clear()
        limits.clear()
        gamma = np.full(inst.num_groups, 0.7)
        sol = solve_robust(inst, gamma, mode=mode,
                           config=SolverConfig(backend="counted", time_limit=time_limit))
        assert sol.value == pytest.approx(_solve_robust_milp(inst, gamma, mode).value,
                                          rel=1e-9)
        return len(calls)

    def plm():
        return apply_partition(gen_plm(PlmParams(4, 2, seed=0)), PartitionScheme("lo", 2),
                               seed=0)

    register_backend("counted", counted)
    try:
        assert count(_sp(12, "r", TABLE_MAX_K)) == 0
        assert count(_sp(12, "d", TABLE_MIN_K), mode="tu_relaxed") == 0
        assert count(toy_instance(4)[0]) == 0
        assert count(_sp(12, "r", 3), mode="variant") == 1
        assert count(plm()) == 1
        big = _sp(12, "r", TABLE_MAX_K + 1)
        small = _sp(12, "r", TABLE_MIN_K - 1)
        for inst in (big, small):
            assert count(inst) == 1
            assert oracle.cached_pattern_table(inst) is None
        # a cached table serves any instance, whatever its kind or K
        for inst in (big, small):
            oracle.shared_pattern_table(inst)
            assert count(inst) == 0
        cached_plm = plm()
        oracle.shared_pattern_table(cached_plm)
        assert count(cached_plm) == 0
        late = _sp(12, "r", TABLE_MIN_K)
        for time_limit in (0.0, 1e-6):
            assert count(late, time_limit=time_limit) == 1
            assert oracle.cached_pattern_table(late) is None
            assert limits == [0.0]      # the table spent the limit
        assert count(_sp(12, "r", TABLE_MAX_K + 1), time_limit=5.0) == 1
        assert 4.0 < limits[0] <= 5.0   # no table tried: about the whole limit
    finally:
        _BACKENDS.pop("counted", None)


@pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf])
def test_budgets_must_be_finite_and_nonnegative(bad):
    """Both routes reject the same budgets with the same one-line error."""
    from mprobust.oracle import shared_pattern_table
    from mprobust.robust import TABLE_MAX_K

    tabled = _sp(10, "r", 3)
    shared_pattern_table(tabled)        # standard and tu_relaxed take the table route
    messages = set()
    for inst, mode in ((tabled, "standard"), (tabled, "tu_relaxed"),
                       (_sp(10, "r", 3), "variant"), (_sp(10, "r", TABLE_MAX_K + 1), "standard")):
        gamma = np.ones(inst.num_groups)
        gamma[1] = bad
        with pytest.raises(ValueError) as err:
            solve_robust(inst, gamma, mode=mode)
        messages.add(str(err.value))
    assert len(messages) == 1
    (msg,) = messages
    assert msg.startswith("budget gamma[1] = ") and "\n" not in msg
