"""Instance generators: arithmetic, determinism, TU behavior, partitions, omega."""

import networkx as nx
import numpy as np
import pytest

from mprobust.generators import (
    GenerationError, PartitionScheme, PlmParams, SpParams, apply_partition, build_omega,
    gen_plm, gen_sp, partition,
)
from mprobust.milp import solve_lp, solve_milp
from mprobust.oracle import distances_to_target, nominal_minimize
from mprobust.uncertainty import contains, sample_gamma, solution_signature, verify_feasible

from helpers import nx_arc_graph


def test_sp_arc_count_and_costs():
    for V in (5, 8, 10):
        inst = gen_sp(SpParams(V, seed=1))
        assert inst.n == round(0.3 * V * (V - 1))
        assert np.allclose(inst.deviations, 0.5 * inst.c_lower)
        assert inst.metadata["tu"] is True
        verify_feasible(inst)


def test_sp_determinism():
    a = gen_sp(SpParams(9, seed=42))
    b = gen_sp(SpParams(9, seed=42))
    assert np.array_equal(a.c_lower, b.c_lower)
    assert a.metadata["arcs"] == b.metadata["arcs"]
    assert a.metadata["v0"] == b.metadata["v0"]
    c = gen_sp(SpParams(9, seed=43))
    assert a.metadata["arcs"] != c.metadata["arcs"] or not np.array_equal(a.c_lower, c.c_lower)


def test_sp_nominal_matches_dijkstra():
    for seed in range(5):
        inst = gen_sp(SpParams(9, seed=seed))
        g = nx_arc_graph(inst, inst.c_lower)
        ref = nx.dijkstra_path_length(g, inst.metadata["v0"], inst.metadata["w0"], weight="w")
        sol = solve_milp(inst.feasible_model(inst.c_lower))
        assert sol.objective == pytest.approx(ref, abs=1e-8)
        val, _ = nominal_minimize(inst, inst.c_lower)
        assert val == pytest.approx(ref, abs=1e-8)


def test_p_partition_distances_match_dijkstra():
    """The ``p`` partition's distances to the target against networkx
    Dijkstra on the reversed arcs: equal to the bit, inf where unreachable."""

    checked = 0
    for nodes in range(2, 31):
        for seed in range(3):
            try:
                inst = gen_sp(SpParams(nodes, seed=seed))
            except GenerationError:
                continue
            g = nx_arc_graph(inst, inst.c_lower).reverse()
            want = np.full(nodes, np.inf)
            for v, dist in nx.single_source_dijkstra_path_length(
                    g, inst.metadata["w0"], weight="w").items():
                want[v] = dist
            assert np.array_equal(distances_to_target(inst), want), (nodes, seed)
            checked += 1
    assert checked >= 80


def test_sp_two_nodes_single_arc():
    inst = gen_sp(SpParams(2, seed=0))
    assert inst.n == 1
    assert inst.metadata["arcs"] == [(0, 1)]
    from mprobust.oracle import enumerate_x
    assert np.array_equal(enumerate_x(inst), [[1.0]])


def test_sp_lp_relaxation_integral():
    # 100 random (instance, cost-in-range) pairs stay integral under relaxation
    rng = np.random.default_rng(0)
    for seed in range(20):
        inst = gen_sp(SpParams(8, seed=seed))
        for _ in range(5):
            c = inst.c_lower + rng.random(inst.n) * inst.deviations
            sol = solve_lp(inst.feasible_model(c))
            assert sol.status == "optimal"
            assert np.max(np.abs(sol.values - np.round(sol.values))) <= 1e-7


def test_partition_properties_sp():
    inst = gen_sp(SpParams(10, seed=3))
    for kind in ("r", "p", "d"):
        for K in (1, 3, 5):
            groups = partition(inst, PartitionScheme(kind, K), seed=7)
            flat = [j for g in groups for j in g]
            assert sorted(flat) == list(range(inst.n))
            assert all(len(g) > 0 for g in groups)
            assert len(groups) <= K
    # same seed, same labels
    g1 = partition(inst, PartitionScheme("r", 4), seed=9)
    g2 = partition(inst, PartitionScheme("r", 4), seed=9)
    assert g1 == g2


def test_partition_d_groups_by_tail():
    inst = gen_sp(SpParams(10, seed=5))
    groups = partition(inst, PartitionScheme("d", 4), seed=0)
    arcs = inst.metadata["arcs"]
    tail_group = {}
    for k, g in enumerate(groups):
        for a in g:
            u = arcs[a][0]
            assert tail_group.setdefault(u, k) == k


def test_partition_scheme_compatibility():
    sp = gen_sp(SpParams(6, seed=0))
    plm = gen_plm(PlmParams(4, 2, seed=0))
    with pytest.raises(ValueError):
        partition(sp, PartitionScheme("lo", 2))
    with pytest.raises(ValueError):
        partition(plm, PartitionScheme("d", 2))
    with pytest.raises(ValueError):
        PartitionScheme("z", 2)
    with pytest.raises(ValueError):
        PartitionScheme("r", 0)


def test_plm_structure_and_special_cases():
    inst = gen_plm(PlmParams(5, 2, seed=1))
    l = 5
    assert inst.n == l * l + l
    assert inst.metadata["p"] == 2
    verify_feasible(inst)
    # groups cover assignment indices only; medians carry no deviation
    assert list(inst.covered) == list(range(l * l))

    # p = l: every location serves itself at zero cost
    allmed = gen_plm(PlmParams(4, 4, seed=2))
    val, _ = nominal_minimize(allmed, allmed.c_lower)
    assert val == pytest.approx(0.0, abs=1e-12)
    sol = solve_milp(allmed.feasible_model(allmed.c_lower))
    assert sol.objective == pytest.approx(0.0, abs=1e-9)

    # p = 1: best single median by direct scan
    one = gen_plm(PlmParams(5, 1, seed=3))
    cmat = one.c_lower[:25].reshape(5, 5)
    want = float(cmat.sum(axis=1).min())
    val, x = nominal_minimize(one, one.c_lower)
    assert val == pytest.approx(want, abs=1e-9)
    sol = solve_milp(one.feasible_model(one.c_lower))
    assert sol.objective == pytest.approx(want, abs=1e-9)

    # default median count follows l // 10
    assert PlmParams(50).medians == 5
    assert PlmParams(8).medians == 1
    with pytest.raises(ValueError):
        PlmParams(4, 9)


def test_plm_partitions_and_signature():
    inst = gen_plm(PlmParams(5, 2, seed=4))
    l = 5
    for kind in ("lo", "g"):
        groups = partition(inst, PartitionScheme(kind, 3), seed=11)
        flat = sorted(j for g in groups for j in g)
        assert flat == list(range(l * l))
        # whole rows stay together
        for g in groups:
            rows = {j // l for j in g}
            for i in rows:
                assert all(i * l + jj in g for jj in range(l))
    # the row with maximal total deviation lands in the last group
    dev_rows = inst.deviations[: l * l].reshape(l, l).sum(axis=1)
    gg = partition(inst, PartitionScheme("g", 3), seed=0)
    top_row = int(np.argmax(dev_rows))
    assert any(top_row * l in g for g in gg[-1:])

    inst2 = apply_partition(inst, PartitionScheme("lo", 2), seed=5)
    x = np.zeros(inst2.n)
    x[l * l + 1] = 1.0
    x[l * l + 3] = 1.0
    assert solution_signature(inst2, x) == (l * l + 1, l * l + 3)


def test_build_omega_families():
    inst = apply_partition(gen_sp(SpParams(8, seed=2)), PartitionScheme("r", 3), seed=1)
    M = np.array([inst.deviations[list(g)].max() for g in inst.groups])

    flat = build_omega(inst, "interval", delta=0.0)
    assert np.allclose(flat.lower, 0.0)
    assert np.allclose(flat.upper, M)
    shifted = build_omega(inst, "interval", delta=1.5)
    assert np.allclose(shifted.upper - shifted.lower, flat.upper - flat.lower)

    seg = build_omega(inst, "segment")
    assert np.allclose(seg.gamma0, M)

    bud = build_omega(inst, "budgeted", beta1=0.5, beta2=1.0, delta=2.0)
    assert np.allclose(bud.gamma_base, 0.5 * M)
    assert np.allclose(bud.spread, 0.5 * M)
    assert bud.budget == pytest.approx(2.0 * 0.5 * M.max())

    # large delta makes the budget slack: membership matches the plain box
    from mprobust.uncertainty import OmegaSpec
    loose = build_omega(inst, "budgeted", beta1=0.5, beta2=1.0, delta=10.0)
    box = OmegaSpec.interval(loose.gamma_base, loose.gamma_base + loose.spread)
    for g in sample_gamma(box, "uniform", seed=3, count=40):
        assert contains(loose, g)

    # facility segment domain scales by the assignment count
    plm = apply_partition(gen_plm(PlmParams(4, 2, seed=0)), PartitionScheme("g", 2), seed=0)
    Mp = np.array([plm.deviations[list(g)].max() for g in plm.groups])
    segp = build_omega(plm, "segment")
    assert np.allclose(segp.gamma0, 16.0 * Mp)
    over = build_omega(plm, "segment", segment_scale=2.0)
    assert np.allclose(over.gamma0, 2.0 * Mp)
