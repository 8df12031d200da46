"""Brute-force oracles: toy family, enumeration, pattern oracle, piecewise f."""

import numpy as np
import pytest

from mprobust.oracle import (
    PiEnumerationOracle, brute_robust, enumerate_x,
    exact_mprs_by_pi_enumeration, nominal_minimize, piecewise_breakpoints,
    piecewise_f, toy_instance,
)
from mprobust.uncertainty import contains, robustness_value, sample_gamma

from helpers import (
    nx_shortest_path, nx_simple_paths, per_pattern_table, random_instance, sp_with_arcs,
)


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


def test_generic_enumeration_keeps_exactly_the_feasible_patterns():
    """The generic scan against a per-row, per-pattern check of every 0-1
    pattern, with rows of all three senses; and on small facility
    instances, the structural enumeration gives the scan's set, each row
    once."""
    from dataclasses import replace
    from itertools import product

    from mprobust.generators import PlmParams, gen_plm

    for seed in range(6):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=7, K=2)
        A = rng.integers(-1, 3, size=(3, inst.n)).astype(float)
        senses = np.array([-1, 1, 0], dtype=np.int8)
        pick = rng.integers(0, 2, size=inst.n).astype(float)
        inst = replace(inst, x_coeffs=A, x_senses=senses, x_rhs=A @ pick)
        want = [x for x in product((0.0, 1.0), repeat=inst.n)
                if A[0] @ x <= inst.x_rhs[0] and A[1] @ x >= inst.x_rhs[1]
                and A[2] @ x == inst.x_rhs[2]]
        assert np.array_equal(enumerate_x(inst), np.array(want)), seed
    for p in (1, 2):
        inst = gen_plm(PlmParams(3, p, seed=p))
        X = enumerate_x(inst)
        generic = enumerate_x(replace(inst, metadata={"kind": "CUSTOM"}))
        assert len({tuple(x) for x in X}) == X.shape[0] == generic.shape[0]
        assert {tuple(x) for x in X} == {tuple(x) for x in generic}


def test_generic_enumeration_memory():
    """The generic scan keeps only the feasible rows whole: at n = 18 its
    peak allocation stays far below the 2^18 patterns listed at once
    (about 90 MB)."""
    import tracemalloc
    from dataclasses import replace

    inst = random_instance(np.random.default_rng(0), n=18, K=2)
    inst = replace(inst, x_rhs=np.array([1.0, 1.0]))     # exactly one variable set
    tracemalloc.start()
    try:
        X = enumerate_x(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(X, np.eye(18)[::-1])
    assert peak < 16 * 2 ** 20, peak


def _kernel_cases():
    """Instances of every kernel family, with random and with tied integer
    costs."""
    from dataclasses import replace

    from mprobust.generators import PartitionScheme, PlmParams, apply_partition, gen_plm

    for seed in range(3):
        for l, p, K in ((6, 2, 2), (10, 2, 8), (12, 3, 6), (20, 3, 4)):
            inst = apply_partition(gen_plm(PlmParams(l, p, seed=seed)),
                                   PartitionScheme("lo", K), seed=seed)
            yield inst
            # a few cost levels: many subsets and medians tie
            q = inst.c_lower.max() / 4
            yield replace(inst, c_lower=np.floor(inst.c_lower / q),
                          deviations=np.floor(inst.deviations / q))
        inst = random_instance(np.random.default_rng(seed), n=8, K=3)
        yield inst
        yield replace(inst, c_lower=np.round(inst.c_lower / 4), deviations=np.ones(inst.n))
    for n in (1, 3, 6):
        yield toy_instance(n)[0]


def test_kernels_match_per_pattern_scan():
    """The p-median, toy and generic tables against one scan per pattern
    (``helpers.per_pattern_table``): equal values to the bit and identical
    solutions, also on tied costs; one-row ``nominal_minimize`` calls give
    the same rows."""
    from mprobust.oracle import cost_for_pi

    kinds = set()
    for inst in _kernel_cases():
        table = PiEnumerationOracle(inst)
        values, solutions = per_pattern_table(inst, table.patterns)
        assert np.array_equal(table.nominal_values, values), inst.kind
        assert np.array_equal(table.solutions, solutions), inst.kind
        for i in (0, len(values) // 2, len(values) - 1):
            value, x = nominal_minimize(inst, cost_for_pi(inst, table.patterns[i]))
            assert value == values[i] and np.array_equal(x, solutions[i])
        kinds.add(inst.kind)
    assert kinds == {"PLM", "CUSTOM", "TOY"}


def test_plm_table_deadline_reads_the_clock_every_stride(monkeypatch):
    """The p-median kernel reads the clock once every ``SUBSET_STRIDE``
    median subsets, and stops at the first reading past the deadline; each
    reading below advances the clock by one."""
    import itertools
    from math import ceil, comb
    from types import SimpleNamespace

    from mprobust import oracle
    from mprobust.generators import PartitionScheme, PlmParams, apply_partition, gen_plm

    inst = apply_partition(gen_plm(PlmParams(12, 3, seed=0)), PartitionScheme("lo", 4), seed=0)
    C = oracle._pattern_costs(inst, PiEnumerationOracle(inst).patterns)

    def tick_clock():
        ticks = itertools.count(1)
        reads = []
        monkeypatch.setattr(oracle, "time", SimpleNamespace(
            monotonic=lambda: reads.append(1) or float(next(ticks))))
        return reads

    reads = tick_clock()
    oracle._plm_kernel(inst, C, deadline=float("inf"))
    assert len(reads) == ceil(comb(12, 3) / oracle.SUBSET_STRIDE) >= 3
    reads = tick_clock()
    with pytest.raises(TimeoutError):
        oracle._plm_kernel(inst, C, deadline=1.5)
    assert len(reads) == 2
    with pytest.raises(TimeoutError):
        oracle.shared_pattern_table(inst, deadline=0.5)
    assert oracle.cached_pattern_table(inst) is None


def test_pattern_oracle_group_guard():
    rng = np.random.default_rng(7)
    inst = random_instance(rng, n=34, K=17)
    if inst.num_groups > 16:
        with pytest.raises(ValueError):
            PiEnumerationOracle(inst)


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


def test_best_solution_with_infinite_budgets():
    """An infinite budget rules out the patterns that activate it: no
    0 * inf = nan in the pattern argmin, whose solution reaches the robust
    optimum, and whose value is ``robust_value`` to the bit."""
    import warnings

    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp

    rng = np.random.default_rng(31)
    for seed in range(6):
        for scheme in ("r", "p", "d"):
            inst = apply_partition(gen_sp(SpParams(14, seed=seed)),
                                   PartitionScheme(scheme, 4), seed=seed)
            oracle = PiEnumerationOracle(inst)
            K = inst.num_groups
            for _ in range(20):
                gamma = rng.uniform(0, 5, size=K)
                gamma[rng.integers(K)] = np.inf
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    want = oracle.robust_value(gamma)
                    i, value = oracle.best_pattern(gamma)
                    xb = oracle.best_solution(gamma)
                assert value == want
                assert robustness_value(inst, xb, gamma) == pytest.approx(want, rel=1e-12)
                assert np.array_equal(xb, oracle.solutions[i])


def test_exact_mprs_zero_gap_on_toy():
    inst, omega1, omega2 = toy_instance(2)
    xs = exact_mprs_by_pi_enumeration(inst)
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


def test_package_imports_without_networkx():
    """networkx is a test reference only: importing the package and its
    command line loads no networkx."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mprobust, mprobust.cli; print('networkx' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _dijkstra_table(inst, patterns):
    """One networkx Dijkstra per pattern: the table's reference."""
    from mprobust.oracle import cost_for_pi

    solved = [nx_shortest_path(inst, cost_for_pi(inst, p)) for p in patterns]
    return np.array([v for v, _ in solved]), np.array([x for _, x in solved])


def test_sp_table_matches_dijkstra_bit_for_bit():
    """The batched kernel against one Dijkstra per pattern: equal values to
    the bit and identical paths, over sizes, partitions and K = 1..10; so
    are ``nominal_minimize``'s one-row solves of the same patterns."""
    from itertools import product

    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp
    from mprobust.oracle import cost_for_pi

    cases = list(product((8, 14, 20, 25, 30), "rdp"))
    for i, (nodes, part) in enumerate(cases):
        seed, K = i % 5, 1 + i % 10
        inst = apply_partition(gen_sp(SpParams(nodes, seed=seed)),
                               PartitionScheme(part, K), seed=seed)
        table = PiEnumerationOracle(inst)
        values, X = _dijkstra_table(inst, table.patterns)
        assert np.array_equal(table.nominal_values, values), (nodes, part, K)
        assert np.array_equal(table.solutions, X), (nodes, part, K)
        solved = [nominal_minimize(inst, cost_for_pi(inst, p)) for p in table.patterns]
        assert np.array_equal([v for v, _ in solved], values), (nodes, part, K)
        assert np.array_equal([x for _, x in solved], X), (nodes, part, K)


def test_sp_table_with_zero_cost_arcs():
    """Zero-cost arcs in both directions (zero-cost cycles) still give each
    pattern its optimal value and a v0-w0 path that meets the flow rows."""
    from dataclasses import replace

    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp

    inst = apply_partition(gen_sp(SpParams(14, seed=3)), PartitionScheme("d", 4), seed=3)
    index = {tuple(a): j for j, a in enumerate(inst.metadata["arcs"])}
    free = np.zeros(inst.n, dtype=bool)
    for (u, v), j in index.items():
        if j % 3 == 0 and (v, u) in index:
            free[j] = free[index[v, u]] = True
    assert free.sum() >= 6
    inst = replace(inst, c_lower=np.where(free, 0.0, inst.c_lower),
                   deviations=np.where(free, 0.0, inst.deviations))
    table = PiEnumerationOracle(inst)
    values, _ = _dijkstra_table(inst, table.patterns)
    assert np.array_equal(table.nominal_values, values)
    X = table.solutions.astype(float)
    assert np.array_equal(X @ inst.x_coeffs.T, np.tile(inst.x_rhs, (X.shape[0], 1)))


def test_sp_nominal_matches_networkx_dijkstra():
    """``nominal_minimize`` against networkx Dijkstra on random and on
    integer (tied) costs: equal values to the bit, and a v0-w0 path (the
    flow rows hold) of that value; on ties the path may differ."""
    from mprobust.generators import SpParams, gen_sp

    rng = np.random.default_rng(11)
    for nodes in (8, 12, 16, 20, 25, 30):
        for seed in range(3):
            inst = gen_sp(SpParams(nodes, seed=seed))
            for t in range(10):
                c = (rng.uniform(0.0, 10.0, inst.n) if t % 2
                     else rng.integers(0, 4, inst.n).astype(float))
                value, x = nominal_minimize(inst, c)
                want, _ = nx_shortest_path(inst, c)
                assert value == want, (nodes, seed, t)
                assert np.array_equal(x @ inst.x_coeffs.T, inst.x_rhs)
                assert float(c @ x) == value


def test_enumerate_x_matches_networkx_simple_paths():
    """Path enumeration against ``nx.all_simple_paths``: the same rows in the
    same order, over SP 2-12 nodes and seeds 0-3."""
    from mprobust.generators import GenerationError, SpParams, gen_sp

    checked = 0
    for nodes in range(2, 13):
        for seed in range(4):
            try:
                inst = gen_sp(SpParams(nodes, seed=seed))
            except GenerationError:
                continue
            X = enumerate_x(inst)
            assert np.array_equal(X, nx_simple_paths(inst)), (nodes, seed)
            checked += 1
    assert checked >= 30


def test_sp_parallel_arcs_are_all_read():
    """A copy of an arc beside the original: the nominal solve, the pattern
    table and the path enumeration all see both copies, the cheaper one
    at the lower index."""
    from dataclasses import replace

    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp
    from mprobust.oracle import cost_for_pi

    base = apply_partition(gen_sp(SpParams(8, seed=1)), PartitionScheme("r", 2), seed=1)
    _, x = nominal_minimize(base, cost_for_pi(base, np.zeros(base.num_groups)))
    v0 = base.metadata["v0"]
    first = next(j for j in np.flatnonzero(x) if base.metadata["arcs"][j][0] == v0)
    inst = sp_with_arcs(base, list(range(base.n)) + [first])
    dup = base.n
    c, d = inst.c_lower.copy(), inst.deviations.copy()
    c[dup], d[dup] = c[first] + 1.0, d[first] + 0.5     # the copy costs more
    inst = replace(inst, c_lower=c, deviations=d)

    table = PiEnumerationOracle(inst)
    cost = cost_for_pi(inst, table.patterns[0])
    value, x = nominal_minimize(inst, cost)
    assert value == table.nominal_values[0]
    assert x[first] == 1.0 and x[dup] == 0.0
    X = enumerate_x(inst)
    assert X[:, first].any() and X[:, dup].any()
    assert not (X[:, first] * X[:, dup]).any()
    assert (X @ cost).min() == pytest.approx(value, rel=1e-12)


def test_sp_without_a_path():
    """No v0-w0 path: enumeration gives a (0, n) set, which brute force
    refuses, and the kernel raises ValueError."""
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp

    base = apply_partition(gen_sp(SpParams(8, seed=0)), PartitionScheme("r", 2), seed=0)
    w0 = base.metadata["w0"]
    inst = sp_with_arcs(base, [j for j, (_, v) in enumerate(base.metadata["arcs"]) if v != w0])
    X = enumerate_x(inst)
    assert X.shape == (0, inst.n)
    with pytest.raises(ValueError, match="empty feasible set"):
        brute_robust(inst, np.zeros(inst.num_groups), X=X)
    with pytest.raises(ValueError, match="not reachable"):
        nominal_minimize(inst, inst.c_lower)
    with pytest.raises(ValueError, match="not reachable"):
        PiEnumerationOracle(inst)


def test_enumerated_kernel_enumerates_once_per_instance(monkeypatch):
    """The toy and generic kernel reads one enumeration of X per instance,
    however many row chunks a table takes and however many one-row
    ``nominal_minimize`` calls follow; the table still equals the
    per-pattern scan."""
    from mprobust import oracle, uncertainty

    import itertools

    inst = random_instance(np.random.default_rng(3), n=8, K=4)
    want = per_pattern_table(inst, np.array(list(itertools.product((0, 1), repeat=4))))
    calls, inner = [], oracle.enumerate_x

    def counted(inst):
        calls.append(1)
        return inner(inst)

    monkeypatch.setattr(oracle, "enumerate_x", counted)
    monkeypatch.setattr(uncertainty, "CHUNK_ELEMS", 3 * inst.n + 1)
    assert len(uncertainty.row_chunks(2 ** 4, inst.n)) > 1
    table = PiEnumerationOracle(inst)
    nominal_minimize(inst, inst.c_lower)
    PiEnumerationOracle(inst)
    assert len(calls) == 1
    assert np.array_equal(table.nominal_values, want[0])
    assert np.array_equal(table.solutions, want[1])


def test_sp_table_unchanged_across_chunk_boundaries(monkeypatch):
    from mprobust import uncertainty
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp

    inst = apply_partition(gen_sp(SpParams(16, seed=1)), PartitionScheme("r", 7), seed=1)
    whole = PiEnumerationOracle(inst)
    monkeypatch.setattr(uncertainty, "CHUNK_ELEMS", 3 * inst.n + 1)
    assert len(uncertainty.row_chunks(2 ** 7, inst.n)) == 43
    chunked = PiEnumerationOracle(inst)
    assert np.array_equal(chunked.nominal_values, whole.nominal_values)
    assert np.array_equal(chunked.solutions, whole.solutions)


def test_grid_sweeps_equal_pointwise_evaluators():
    """On the materialized grid points, ``robust_grid`` equals ``robust_values``
    and ``capped_grid_min`` equals ``robustness_values``, to the bit; and
    ``robust_values`` equals the pattern minimum with each active gamma_k
    added to the nominal value in group order.  Covers K = 1, m = 2, a
    zero-width axis and a one-solution set."""
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp
    from mprobust.uncertainty import (
        OmegaSpec, _box_grid, capped_grid_min, group_deviations, interval_axes,
        robustness_values,
    )

    rng = np.random.default_rng(17)
    insts = [random_instance(rng, n=6, K=K) for K in (1, 2, 3, 4)]
    insts += [apply_partition(gen_sp(SpParams(nv, seed=nv)), PartitionScheme("r", K), seed=nv)
              for nv, K in ((12, 5), (20, 6))]
    assert insts[0].num_groups == 1
    for inst in insts:
        K = inst.num_groups
        oracle = PiEnumerationOracle(inst)
        full = np.array(oracle.solution_set())
        for m in (2, 3, 5):
            lo = rng.uniform(0.0, 3.0, K)
            hi = lo + rng.uniform(0.0, 4.0, K)
            if m == 3:
                hi[-1] = lo[-1]
            axes = interval_axes(OmegaSpec.interval(lo, hi), "grid", m)
            G = _box_grid(lo, hi, m)
            opt = oracle.robust_values(G)
            assert np.array_equal(oracle.robust_grid(axes).ravel(), opt)
            by_loop = np.broadcast_to(oracle.nominal_values, (G.shape[0], 1 << K)).copy()
            for k in range(K):
                by_loop += G[:, k, None] * oracle.patterns[:, k]
            assert np.array_equal(by_loop.min(axis=1), opt)
            assert oracle.robust_value(G[-1]) == opt[-1]
            for X in (full, full[:1]):
                base, room = X @ inst.c_lower, X @ group_deviations(inst)
                assert np.array_equal(capped_grid_min(base, room, axes).ravel(),
                                      robustness_values(inst, X, G).min(axis=1))
    with pytest.raises(ValueError):
        PiEnumerationOracle(insts[1]).robust_grid([np.zeros(2)])


def _sp20_r6():
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp

    return apply_partition(gen_sp(SpParams(20, seed=0)), PartitionScheme("r", 6), seed=0)


def test_shared_pattern_table_one_per_instance():
    """One read-only table per instance object, equal to the bit to a fresh
    build; an equal-content copy gets its own."""
    from dataclasses import replace

    from mprobust.oracle import shared_pattern_table

    for inst in (_sp20_r6(), toy_instance(3)[0]):
        table = shared_pattern_table(inst)
        assert shared_pattern_table(inst) is table
        copy = replace(inst)
        assert shared_pattern_table(copy) is not table
        fresh = PiEnumerationOracle(inst)
        assert fresh is not table
        for name in ("patterns", "nominal_values", "solutions"):
            got, want = getattr(table, name), getattr(fresh, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0
            assert want.flags.writeable


def test_shared_pattern_table_keeps_only_finished_tables():
    import time

    from mprobust import oracle

    inst = _sp20_r6()
    with pytest.raises(TimeoutError):
        oracle.shared_pattern_table(inst, deadline=time.monotonic() - 1.0)
    assert inst not in oracle._PATTERN_TABLES
    table = oracle.shared_pattern_table(inst, deadline=time.monotonic() + 60.0)
    assert oracle._PATTERN_TABLES[inst] is table


def test_sp_table_deadline_cuts_inside_a_chunk(monkeypatch):
    """A deadline that passes during the first Bellman-Ford pass of a
    one-chunk table stops it at the next pass: the table reads the clock
    once per pass, and each reading below advances it by one."""
    import itertools
    from types import SimpleNamespace

    from mprobust import oracle
    from mprobust.uncertainty import row_chunks

    inst = _sp20_r6()
    patterns = PiEnumerationOracle(inst).patterns
    assert len(row_chunks(patterns.shape[0], inst.n)) == 1
    C = oracle._pattern_costs(inst, patterns)

    def tick_clock():
        ticks = itertools.count(1)
        reads = []
        monkeypatch.setattr(oracle, "time", SimpleNamespace(
            monotonic=lambda: reads.append(1) or float(next(ticks))))
        return reads

    reads = tick_clock()
    oracle._sp_kernel(inst, C, deadline=float("inf"))
    passes = len(reads)
    assert passes >= 3
    reads = tick_clock()
    with pytest.raises(TimeoutError):
        # read 1 (1.0) lets pass 1 run; the deadline passes during it, and
        # read 2 (2.0), before pass 2, raises
        oracle._sp_kernel(inst, C, deadline=1.5)
    assert len(reads) == 2 < passes


def test_shared_pattern_table_goes_with_its_instance():
    import gc
    import weakref

    from mprobust import oracle

    inst = _sp20_r6()
    table = weakref.ref(oracle.shared_pattern_table(inst))
    # instances an earlier test left unreachable must go before the count
    gc.collect()
    before = len(oracle._PATTERN_TABLES)
    del inst
    gc.collect()
    assert table() is None
    assert len(oracle._PATTERN_TABLES) == before - 1


def test_run_aq_and_verify_build_one_table(monkeypatch):
    """``run_aq`` then ``verify_solution_set`` on one instance build its
    pattern table once, and the report equals one from a cold cache."""
    from dataclasses import replace

    from mprobust import oracle
    from mprobust.cli import verify_solution_set
    from mprobust.engine import run_aq
    from mprobust.generators import build_omega

    builds = []

    def counted(inst, deadline=None):
        builds.append(inst)
        return table_of(inst, deadline=deadline)

    table_of = oracle.PiEnumerationOracle
    monkeypatch.setattr(oracle, "PiEnumerationOracle", counted)
    inst = _sp20_r6()
    omega = build_omega(inst, "interval", delta=0.5)
    res = run_aq(inst, omega, epsilon=1.0)
    warm = verify_solution_set(inst, omega, res.solutions(), res.epsilon)
    assert len(builds) == 1
    cold = verify_solution_set(replace(inst), omega, res.solutions(), res.epsilon)
    assert len(builds) == 2
    assert warm == cold
    assert warm["reference"] == "pattern-oracle" and warm["exact"] is True
