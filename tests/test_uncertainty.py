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


def test_solution_signature_generic():
    inst, _, _ = toy_instance(2)
    assert solution_signature(inst, [0, 0, 1]) == (0, 0, 1)
