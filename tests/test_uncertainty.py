"""Closed-form robustness vs LP oracles, membership tests, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mprobust.milp import solve_lp
from mprobust.oracle import toy_instance
from mprobust.uncertainty import (
    Instance, OmegaSpec, build_dw_lp, build_w_lp, contains,
    robustness_value, robustness_value_variant, robustness_values, sample_gamma,
    solution_signature, verify_feasible, worst_case_cost_vector,
)

from helpers import random_instance


def test_toy_worked_values():
    inst, omega1, _ = toy_instance(2)
    g = np.array([2.0, 2.0, 2.0])
    assert robustness_value(inst, [1, 0, 0], g) == pytest.approx(12.0)
    assert robustness_value(inst, [0, 1, 0], g) == pytest.approx(12.0)
    assert robustness_value(inst, [0, 0, 1], g) == pytest.approx(11.5)
    assert robustness_value(inst, [0, 0, 1], np.array([0.1, 3.0, 0.7])) == pytest.approx(11.5)
    # zero budget means nominal cost
    assert robustness_value(inst, [1, 0, 0], np.zeros(3)) == pytest.approx(10.0)
    assert contains(omega1, g)


def test_toy_dual_lp_value():
    inst, _, _ = toy_instance(2)
    x = np.array([1.0, 0.0, 0.0])
    gamma = np.array([2.0, 2.0, 2.0])
    dual = solve_lp(build_dw_lp(inst, x, gamma))
    assert dual.status == "optimal"
    assert float(inst.c_lower @ x) + dual.objective == pytest.approx(12.0, abs=1e-9)


def test_closed_form_matches_primal_and_dual_lp():
    rng = np.random.default_rng(17)
    for _ in range(100):
        inst = random_instance(rng, n=int(rng.integers(3, 8)), K=int(rng.integers(1, 4)))
        x = rng.integers(0, 2, size=inst.n).astype(float)
        gamma = rng.uniform(0, 6, size=inst.num_groups)
        want = robustness_value(inst, x, gamma)
        base = float(inst.c_lower @ x)
        primal = solve_lp(build_w_lp(inst, x, gamma))
        dual = solve_lp(build_dw_lp(inst, x, gamma))
        assert primal.status == "optimal" and dual.status == "optimal"
        assert base + primal.objective == pytest.approx(want, abs=1e-6)
        assert base + dual.objective == pytest.approx(want, abs=1e-6)


def test_variant_closed_form_matches_lps():
    rng = np.random.default_rng(19)
    for _ in range(100):
        inst = random_instance(rng, n=int(rng.integers(3, 8)), K=int(rng.integers(1, 4)))
        x = rng.integers(0, 2, size=inst.n).astype(float)
        gamma = rng.uniform(0, 4, size=inst.num_groups)
        want = robustness_value_variant(inst, x, gamma)
        base = float(inst.c_lower @ x)
        primal = solve_lp(build_w_lp(inst, x, gamma, variant=True))
        dual = solve_lp(build_dw_lp(inst, x, gamma, variant=True))
        assert base + primal.objective == pytest.approx(want, abs=1e-6)
        assert base + dual.objective == pytest.approx(want, abs=1e-6)


def test_variant_examples():
    inst = Instance(
        c_lower=np.array([3.0, 1.0]), deviations=np.array([4.0, 2.0]),
        groups=((0, 1),),
        x_coeffs=np.zeros((0, 2)), x_senses=np.zeros(0, dtype=np.int8),
        x_rhs=np.zeros(0))
    x = np.array([1.0, 1.0])
    # 1.5 units of budget: largest deviation in full, half of the next
    assert robustness_value_variant(inst, x, [1.5]) == pytest.approx(4.0 + 4.0 + 1.0)
    # saturated budget reaches the deterministic worst case
    assert robustness_value_variant(inst, x, [2.0]) == pytest.approx(4.0 + 6.0)
    assert robustness_value_variant(inst, np.zeros(2), [1.5]) == pytest.approx(0.0)


def test_caps_and_monotonicity_random():
    rng = np.random.default_rng(29)
    for _ in range(50):
        inst = random_instance(rng, n=6, K=2)
        x = rng.integers(0, 2, size=6).astype(float)
        g1 = rng.uniform(0, 5, size=inst.num_groups)
        g2 = g1 + rng.uniform(0, 3, size=inst.num_groups)
        v1, v2 = robustness_value(inst, x, g1), robustness_value(inst, x, g2)
        assert v1 <= v2 + 1e-12
        cap = float((inst.c_lower + inst.deviations) @ x)
        assert v2 <= cap + 1e-12
        big = np.full(inst.num_groups, 1e6)
        assert robustness_value(inst, x, big) == pytest.approx(cap)
        nact = np.array([sum(x[j] for j in g) for g in inst.groups])
        assert robustness_value_variant(inst, x, nact) == pytest.approx(cap)


@given(bits=st.lists(st.integers(0, 1), min_size=5, max_size=5),
       g1=st.lists(st.floats(0, 8, allow_nan=False), min_size=2, max_size=2),
       extra=st.lists(st.floats(0, 5, allow_nan=False), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_monotonicity_property(bits, g1, extra):
    inst = Instance(
        c_lower=np.array([2.0, 4.0, 1.0, 3.0, 5.0]),
        deviations=np.array([1.0, 0.5, 2.0, 0.0, 3.0]),
        groups=((0, 2), (1, 3, 4)),
        x_coeffs=np.zeros((0, 5)), x_senses=np.zeros(0, dtype=np.int8),
        x_rhs=np.zeros(0))
    x = np.array(bits, dtype=float)
    lo = np.array(g1)
    hi = lo + np.array(extra)
    assert robustness_value(inst, x, lo) <= robustness_value(inst, x, hi) + 1e-12
    assert robustness_value_variant(inst, x, lo) <= robustness_value_variant(inst, x, hi) + 1e-12


@st.composite
def _batched_case(draw):
    """(instance, X, G): groups cover some indices, the rest deviate by 0."""
    n = draw(st.integers(1, 7))
    K = draw(st.integers(1, min(3, n)))
    # index j goes to group owner[j], or to no group when owner[j] == K
    owner = draw(st.lists(st.integers(0, K), min_size=n, max_size=n))
    owner[:K] = range(K)                  # every group is nonempty
    owner = draw(st.permutations(owner))
    money = st.floats(0, 10, allow_nan=False)
    c = draw(st.lists(money, min_size=n, max_size=n))
    dev = [d if k < K else 0.0
           for d, k in zip(draw(st.lists(money, min_size=n, max_size=n)), owner)]
    inst = Instance(
        c_lower=np.array(c), deviations=np.array(dev),
        groups=tuple(tuple(j for j in range(n) if owner[j] == k) for k in range(K)),
        x_coeffs=np.zeros((0, n)), x_senses=np.zeros(0, dtype=np.int8),
        x_rhs=np.zeros(0))
    H = draw(st.integers(1, 4))
    X = [[0] * n] + [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
                     for _ in range(H - 1)]
    S = draw(st.integers(1, 5))
    G = [[0.0] * K] + [draw(st.lists(st.floats(0, 20, allow_nan=False),
                                     min_size=K, max_size=K)) for _ in range(S - 1)]
    return inst, np.array(X, dtype=float), np.array(G)


@given(case=_batched_case())
@settings(max_examples=80, deadline=None)
def test_robustness_values_matches_scalar(case):
    inst, X, G = case
    got = robustness_values(inst, X, G)
    assert got.shape == (G.shape[0], X.shape[0])
    for s, gamma in enumerate(G):
        for h, x in enumerate(X):
            want = robustness_value(inst, x, gamma)
            assert got[s, h] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_robustness_values_shape_checks():
    inst, _, _ = toy_instance(2)
    with pytest.raises(ValueError):
        robustness_values(inst, np.ones(3), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        robustness_values(inst, np.eye(3), np.zeros((1, 2)))


def test_worst_case_cost_vector_replay():
    inst, _, _ = toy_instance(2)
    g = np.array([2.0, 2.0, 2.0])
    c = worst_case_cost_vector(inst, [1, 0, 0], g)
    assert np.allclose(c, [12.0, 10.0, 11.5])
    assert c @ np.array([1.0, 0, 0]) == pytest.approx(12.0)
    # zero budget pins the nominal vector
    assert np.allclose(worst_case_cost_vector(inst, [1, 0, 0], np.zeros(3)),
                       inst.c_lower)

    rng = np.random.default_rng(31)
    for _ in range(40):
        inst = random_instance(rng, n=7, K=3)
        x = rng.integers(0, 2, size=7).astype(float)
        gamma = rng.uniform(0, 5, size=inst.num_groups)
        for variant in (False, True):
            c = worst_case_cost_vector(inst, x, gamma, variant=variant)
            lam = c - inst.c_lower
            if variant:
                frac = np.divide(lam, inst.deviations,
                                 out=np.zeros_like(lam), where=inst.deviations > 0)
                assert np.all(frac <= 1 + 1e-9)
                sums = [sum(frac[j] for j in g) for g in inst.groups]
            else:
                assert np.all(lam <= inst.deviations + 1e-9)
                sums = [sum(lam[j] for j in g) for g in inst.groups]
            assert np.all(lam >= -1e-12)
            assert np.all(np.array(sums) <= gamma + 1e-9)
            want = (robustness_value_variant if variant else robustness_value)(inst, x, gamma)
            assert float(c @ x) == pytest.approx(want, abs=1e-9)

    with pytest.raises(ValueError):
        robustness_value(inst, [1, 0], np.zeros(inst.num_groups))


def test_contains_per_kind():
    box = OmegaSpec.interval([1.0, 2.0], [3.0, 4.0])
    assert contains(box, [1.0, 2.0])
    assert contains(box, [3.0, 4.0])
    assert not contains(box, [0.5, 2.0])

    seg = OmegaSpec.segment([2.0, 4.0])
    assert contains(seg, [1.0, 2.0])
    assert not contains(seg, [1.0, 3.0])
    assert contains(seg, [0.0, 0.0])

    bud = OmegaSpec.budgeted([1.0, 1.0], [2.0, 2.0], 1.0)
    assert not contains(bud, [2.5, 1.0])
    assert contains(bud, [2.0, 1.0])
    assert contains(bud, [1.5, 1.5])      # beta sums exactly to the budget
    assert not contains(bud, [1.8, 1.5])  # beta sum 1.3 > 1


def test_sample_gamma_modes():
    box = OmegaSpec.interval([0.0, 1.0], [2.0, 3.0])
    corners = sample_gamma(box, "grid", m=2)
    assert corners.shape == (4, 2)
    verts = sample_gamma(box, "vertices")
    assert sorted(map(tuple, verts)) == sorted(map(tuple, corners))

    seg = OmegaSpec.segment([2.0, 4.0])
    pts = sample_gamma(seg, "grid", m=3)
    assert np.allclose(pts, [[0, 0], [1, 2], [2, 4]])

    bud = OmegaSpec.budgeted([1.0, 1.0], [2.0, 2.0], 1.0)
    vb = sample_gamma(bud, "vertices")
    assert any(np.allclose(v, [1, 1]) for v in vb)
    assert any(np.allclose(v, [2, 1]) for v in vb)

    for omega in (box, seg, bud):
        for mode, kw in (("grid", {"m": 4}), ("uniform", {"seed": 5, "count": 50})):
            pts = sample_gamma(omega, mode, **kw)
            assert len(pts) > 0
            assert all(contains(omega, p) for p in pts)

    with pytest.raises(ValueError):
        sample_gamma(seg, "vertices")
    with pytest.raises(ValueError):
        sample_gamma(box, "grid", m=1)
    big = OmegaSpec.interval(np.zeros(21), np.ones(21))
    with pytest.raises(ValueError):
        sample_gamma(big, "vertices")


def test_box_grid_matches_product_order():
    """The grid and the interval vertices are itertools.product over the
    per-axis linspace, bit for bit and in the same order, also on an axis
    with lo == hi."""
    from itertools import product

    rng = np.random.default_rng(3)
    for K in range(1, 8):
        lo = rng.random(K) * 3.0
        hi = lo + rng.random(K) * 2.0
        hi[K // 2] = lo[K // 2]
        box = OmegaSpec.interval(lo, hi)
        for m in range(2, 6):
            axes = [np.linspace(lo[k], hi[k], m) for k in range(K)]
            assert np.array_equal(sample_gamma(box, "grid", m=m), np.array(list(product(*axes))))
        corners = np.array(list(product(*zip(lo, hi))))
        assert np.array_equal(sample_gamma(box, "vertices"), corners)


def test_budgeted_grid_equals_membership_loop():
    """The budgeted grid keeps exactly the points a pointwise ``contains``
    loop keeps, including points whose beta sums to the budget or lands
    within the membership tolerance of it."""
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, build_omega, gen_sp
    from mprobust.uncertainty import _box_grid, _within_budget

    def by_loop(omega, m):
        pts = _box_grid(omega.gamma_base, omega.gamma_base + omega.spread, m)
        keep = [p for p in pts if contains(omega, p)]
        return np.unique(np.array(keep + list(sample_gamma(omega, "vertices"))), axis=0)

    sp = apply_partition(gen_sp(SpParams(20, seed=0)), PartitionScheme("r", 6), seed=0)
    omegas = [
        OmegaSpec.budgeted([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], 2.0),
        OmegaSpec.budgeted([0.0, 0.5], [1.0, 3.0], 1.5 - 1e-9),     # sum 1.5 kept
        OmegaSpec.budgeted([0.0, 0.5], [1.0, 3.0], 1.5 - 2e-9),     # sum 1.5 dropped
        OmegaSpec.budgeted([0.3, 0.1, 0.2, 0.7], [0.3, 0.3, 0.9, 0.6], 0.9),
        build_omega(sp, "budgeted", delta=1.0),
    ]
    on_boundary = 0
    for omega in omegas:
        for m in (2, 3, 5):
            got = sample_gamma(omega, "grid", m=m)
            assert np.array_equal(got, by_loop(omega, m))
            on_boundary += int(np.sum(np.isclose((got - omega.gamma_base).sum(axis=1),
                                                 omega.budget, rtol=0, atol=1e-8)))
    assert on_boundary > 0
    assert len(sample_gamma(omegas[1], "grid", m=3)) > len(sample_gamma(omegas[2], "grid", m=3))

    rng = np.random.default_rng(9)
    omega = omegas[3]
    P = omega.gamma_base + rng.uniform(-0.2, 1.2, (400, 4)) * omega.spread
    P[:50] -= 0.35                                  # some negative entries
    assert _within_budget(omega, P).tolist() == [contains(omega, p) for p in P]


def test_instance_validation_and_feasibility():
    with pytest.raises(ValueError):
        Instance(c_lower=np.array([1.0]), deviations=np.array([1.0]),
                 groups=(),  # deviating index 0 not covered
                 x_coeffs=np.zeros((0, 1)), x_senses=np.zeros(0, dtype=np.int8),
                 x_rhs=np.zeros(0))
    with pytest.raises(ValueError):
        Instance(c_lower=np.array([1.0, 1.0]), deviations=np.zeros(2),
                 groups=((0,), (0,)),
                 x_coeffs=np.zeros((0, 2)), x_senses=np.zeros(0, dtype=np.int8),
                 x_rhs=np.zeros(0))
    # infeasible X is rejected by the one-off feasibility solve
    bad = Instance(c_lower=np.ones(2), deviations=np.zeros(2), groups=((0, 1),),
                   x_coeffs=np.ones((2, 2)),
                   x_senses=np.array([1, -1], dtype=np.int8),
                   x_rhs=np.array([3.0, 1.0]))
    with pytest.raises(ValueError):
        verify_feasible(bad)


def _instance(groups, n=3, deviations=None, width=None):
    d = np.ones(n) if deviations is None else np.asarray(deviations, dtype=float)
    return Instance(c_lower=np.ones(n), deviations=d, groups=groups,
                    x_coeffs=np.zeros((0, n if width is None else width)),
                    x_senses=np.zeros(0, dtype=np.int8), x_rhs=np.zeros(0))


def _walk_fault(groups, n, d, width):
    """The message of the first fault a walk over the groups meets (None if
    valid): the reference the array checks of ``Instance`` must agree with."""
    seen = set()
    for g in groups:
        if not g:
            return "empty budget group"
        for j in g:
            if not 0 <= j < n:
                return f"group index {j} out of range"
            if j in seen:
                return f"index {j} appears in two groups"
            seen.add(j)
    uncovered = [j for j in range(n) if j not in seen and d[j] > 0]
    if uncovered:
        return f"deviating indices outside every group: {uncovered}"
    if width != n:
        return "feasible-set rows must match the variable count"
    return None


@pytest.mark.parametrize("groups, kwargs, message", [
    (((0, 1, 2), ()), {}, "empty budget group"),
    (((0, 1, 3),), {}, "group index 3 out of range"),
    (((0, -1, 2),), {}, "group index -1 out of range"),
    (((0, 1, 2**70),), {}, f"group index {2**70} out of range"),
    (((0, 1), (2, 1)), {}, "index 1 appears in two groups"),
    (((1,),), {"deviations": [1.0, 1.0, 0.0, 2.0], "n": 4},
     "deviating indices outside every group: [0, 3]"),
    (((0, 1, 2),), {"width": 4}, "feasible-set rows must match the variable count"),
    # several faults: the first one in group order wins
    (((0, 5), ()), {}, "group index 5 out of range"),
    (((0,), (), (5,)), {}, "empty budget group"),
    (((0, 1), (1, 7)), {}, "index 1 appears in two groups"),
    (((0, 7), (0,)), {}, "group index 7 out of range"),
    (((2, 0, 2), (9,), ()), {}, "index 2 appears in two groups"),
    (((0,),), {"width": 4}, "deviating indices outside every group: [1, 2]"),
])
def test_instance_error_messages(groups, kwargs, message):
    with pytest.raises(ValueError) as err:
        _instance(groups, **kwargs)
    assert str(err.value) == message


def test_instance_row_shapes():
    """``x_senses`` and ``x_rhs`` need one entry per row of ``x_coeffs``."""
    with pytest.raises(ValueError) as err:
        Instance(c_lower=np.ones(2), deviations=np.ones(2), groups=((0, 1),),
                 x_coeffs=np.ones((2, 2)), x_senses=np.zeros(1, np.int8), x_rhs=np.ones(3))
    assert str(err.value) == ("x_senses (1,) and x_rhs (3,) must have shape (2,), "
                              "one entry per row of x_coeffs")
    for senses, rhs in ((np.zeros(2, np.int8), np.ones((2, 1))),
                        (np.zeros((1, 2), np.int8), np.ones(2))):
        with pytest.raises(ValueError, match="one entry per row of x_coeffs"):
            Instance(c_lower=np.ones(2), deviations=np.ones(2), groups=((0, 1),),
                     x_coeffs=np.ones((2, 2)), x_senses=senses, x_rhs=rhs)
    ok = Instance(c_lower=np.ones(2), deviations=np.ones(2), groups=((0, 1),),
                  x_coeffs=np.ones((2, 2)), x_senses=np.zeros(2, np.int8), x_rhs=np.ones(2))
    assert ok.x_rhs.shape == (2,)


def test_instance_checks_match_group_walk():
    rng = np.random.default_rng(11)
    valid = 0
    for _ in range(400):
        n = int(rng.integers(1, 8))
        d = rng.choice([0.0, 1.0], size=n, p=[0.3, 0.7])
        width = n if rng.random() < 0.9 else n + 1
        groups = tuple(tuple(int(j) for j in rng.integers(-1, n + 2, size=rng.integers(0, 4)))
                       for _ in range(rng.integers(0, 4)))
        if rng.random() < 0.5:          # mostly well-formed groups
            perm = rng.permutation(n).tolist()
            cuts = sorted(rng.integers(1, n + 1, size=rng.integers(0, 3)).tolist())
            groups = tuple(tuple(perm[a:b]) for a, b in zip([0] + cuts, cuts + [n]) if b > a)
        expected = _walk_fault(groups, n, d, width)
        if expected is None:
            _instance(groups, n, d, width)
            valid += 1
        else:
            with pytest.raises(ValueError) as err:
                _instance(groups, n, d, width)
            assert str(err.value) == expected
    assert 50 < valid < 350


def test_covered_and_group_of_match_their_definitions():
    rng = np.random.default_rng(3)
    partial = 0
    for t in range(40):
        inst = random_instance(rng, n=int(rng.integers(2, 12)), K=int(rng.integers(1, 5)),
                               cover_all=bool(t % 2))
        covered = np.asarray(sorted(j for g in inst.groups for j in g), dtype=int)
        group_of = np.full(inst.n, -1, dtype=int)
        for k, g in enumerate(inst.groups):
            group_of[list(g)] = k
        for got, want in ((inst.covered, covered), (inst.group_of(), group_of)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[...] = 0
        assert inst.covered is inst.covered and inst.group_of() is inst.group_of()
        partial += covered.size < inst.n
    assert partial > 0


def test_solution_signature_generic():
    inst, _, _ = toy_instance(2)
    assert solution_signature(inst, [0, 0, 1]) == (0, 0, 1)


def test_int_key_matches_round():
    from mprobust.uncertainty import int_key

    rng = np.random.default_rng(5)
    vectors = [rng.integers(0, 2, size=n).astype(float) for n in (0, 1, 7, 114)]
    vectors.append(np.array([-0.0, 0.0, 0.9999999, 1.0000001, 1e-12, -1e-12, 0.5, 1.5, 2.5]))
    vectors.append(rng.integers(0, 2, size=50) + rng.uniform(-1e-6, 1e-6, size=50))
    for x in vectors:
        key = int_key(x)
        assert key == tuple(int(round(v)) for v in x)
        assert all(type(v) is int for v in key)
    assert int_key([-0.0, 0.9999999]) == (0, 1)
