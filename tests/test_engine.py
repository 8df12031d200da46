"""Master problems and the full multiparametric loop."""

import numpy as np
import pytest

from mprobust.engine import (
    Budget, build_nominal_q_plus, build_q_general, build_q_interval, build_q_variant, pick_best,
    run_aq, run_multiparametric_nominal,
)
from mprobust.generators import PartitionScheme, SpParams, apply_partition, build_omega, gen_sp
from mprobust.milp import solve_milp
from mprobust.oracle import brute_robust, enumerate_x, toy_instance
from mprobust.robust import solve_robust
from mprobust.uncertainty import (
    OmegaSpec, contains, robustness_value, robustness_value_variant, sample_gamma,
)

from helpers import (
    build_nominal_q_general, build_q_variant_free_selectors, random_instance, stored_value,
)


def _history_at(inst, gammas, mode="standard"):
    from mprobust.engine import HistoryEntry
    out = []
    for g in gammas:
        sol = solve_robust(inst, np.asarray(g, float), mode=mode)
        out.append(HistoryEntry(pi=sol.pi, rho=sol.rho, x=sol.x,
                                gamma=np.asarray(g, float)))
    return out


def _max_gap(inst, result, omega, n_uniform=470):
    variant = result.mode == "variant"
    X = enumerate_x(inst)
    pts = [sample_gamma(omega, "grid", m=3)]
    if omega.kind != "segment":
        pts.append(sample_gamma(omega, "vertices"))
    pts.append(sample_gamma(omega, "uniform", seed=1, count=n_uniform))
    worst = 0.0
    f = robustness_value_variant if variant else robustness_value
    for gamma in np.vstack(pts):
        best = min(f(inst, np.asarray(t, float), gamma) for t in result.distinct_x)
        ref, _ = brute_robust(inst, gamma, variant=variant, X=X)
        worst = max(worst, best - ref)
    return worst


def test_toy_omega1_single_solution():
    inst, omega1, _ = toy_instance(2)
    res = run_aq(inst, omega1, epsilon=0.0)
    assert res.stop_reason == "epsilon_met"
    assert res.distinct_x == [(0, 0, 1)]
    assert res.q_values[0] == pytest.approx(0.0, abs=1e-9)
    assert res.iterations == 1
    for gamma in sample_gamma(omega1, "uniform", seed=2, count=25):
        assert robustness_value(inst, np.array([0, 0, 1.0]), gamma) == pytest.approx(11.5)


@pytest.mark.parametrize("n", [2, 3])
def test_toy_omega2_needs_n_solutions(n):
    inst, _, omega2 = toy_instance(n)
    res = run_aq(inst, omega2, epsilon=0.0)
    assert res.stop_reason == "epsilon_met"
    assert len(res.distinct_x) == n
    for t in res.distinct_x:
        x = np.array(t, dtype=float)
        assert x.sum() == 1.0 and x[n] == 0.0  # only the cheap unit vectors
    assert _max_gap(inst, res, omega2) <= 1e-6


def test_huge_epsilon_stops_immediately():
    inst, omega1, _ = toy_instance(3)
    cap = float((inst.c_lower + inst.deviations).sum())
    res = run_aq(inst, omega1, epsilon=cap)
    assert res.iterations == 1
    assert len(res.q_values) == 1
    assert res.stop_reason == "epsilon_met"


def test_budget_exceeded_partial_result():
    inst, _, omega2 = toy_instance(3)
    res = run_aq(inst, omega2, epsilon=0.0, budget=Budget(max_iters=1))
    assert res.stop_reason == "budget_exceeded"
    assert len(res.q_values) == 1
    assert res.iterations == 2


def test_master_value_nonnegative_and_agreement():
    """The general master against independent references: the 0-1 interval
    master on a box, and a dense alpha scan of the gap on a segment (the
    budgeted reference is ``test_budgeted_with_slack_budget_equals_interval``)."""
    rng = np.random.default_rng(3)
    alphas = np.linspace(0.1, 0.9, 801)
    for trial in range(6):
        inst = random_instance(rng, n=6, K=2)
        X = enumerate_x(inst)
        M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.5
        box = OmegaSpec.interval(0.3 * M, 1.3 * M)
        hist = _history_at(inst, [box.start_gamma, box.upper_bound])
        ref = solve_milp(build_q_interval(inst, box, hist))
        gen = solve_milp(build_q_general(inst, box, hist))
        assert ref.status == "optimal" and gen.status == "optimal"
        assert ref.objective >= -1e-9
        assert gen.objective == pytest.approx(ref.objective, abs=1e-6)

        seg = OmegaSpec.segment(M, 0.1, 0.9)
        hist = _history_at(inst, [seg.start_gamma, seg.upper_bound])
        sol = solve_milp(build_q_general(inst, seg, hist))
        assert sol.status == "optimal" and sol.objective >= -1e-9
        scan = max(min(stored_value(inst, e, a * M, variant=False) for e in hist)
                   - brute_robust(inst, a * M, X=X)[0] for a in alphas)
        # both terms grow with alpha at slopes in [0, sum M], so the gap
        # moves by at most sum(M) * step between grid points
        assert scan - 1e-6 <= sol.objective <= scan + M.sum() * (alphas[1] - alphas[0])


def test_budgeted_with_slack_budget_equals_interval():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, n=6, K=2)
    M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.5
    base, spread = 0.4 * M, 0.8 * M
    bud = OmegaSpec.budgeted(base, spread, float(spread.sum() + 1.0))
    box = OmegaSpec.interval(base, base + spread)
    hist = _history_at(inst, [base])
    vb = solve_milp(build_q_general(inst, bud, hist)).objective
    vi = solve_milp(build_q_interval(inst, box, hist)).objective
    assert vb == pytest.approx(vi, abs=1e-6)


def _cap_values(model, cand, y):
    """The value sigma + c0 that each cap row of a master allows at the 0-1
    setting ``y`` of the candidate columns ``cand`` (c0 is the fixed
    ``sigma_ref`` column); checks that the caps touch no other column."""
    from mprobust.milp import LE

    names = list(model.var_names)
    sigma, ref = names.index("sigma"), names.index("sigma_ref")
    c0 = model.lower[ref]
    assert model.upper[ref] == c0 and model.objective[ref] == 1.0
    caps = np.flatnonzero(model.row_coeffs[:, sigma])
    A = model.row_coeffs[caps]
    assert np.all(A[:, sigma] == 1.0) and np.all(model.row_senses[caps] == LE)
    rest = np.setdiff1d(np.arange(model.num_vars), np.append(cand, [sigma, ref]))
    assert not A[:, rest].any()
    return model.row_rhs[caps] - A[:, cand] @ y + c0


@pytest.mark.parametrize("case", ["toy2", "toy3", "random"])
def test_vertex_caps_read_back_at_every_vertex(case):
    """At every 0-1 setting of the candidate columns, each cap row of the
    interval master and of the cost-box master allows exactly c_e + p_e .
    gamma at the box vertex those columns pick: gamma_j = L_j where the
    column is 1 and U_j where it is 0."""
    from itertools import product

    if case == "random":
        inst = random_instance(np.random.default_rng(0), n=6, K=3)
    else:
        inst = toy_instance(int(case[-1]))[0]
    omega = build_omega(inst, "interval", delta=0.5)
    L, U = omega.lower, omega.upper
    history = run_aq(inst, omega, epsilon=0.0).history
    assert len({tuple(e.pi) for e in history}) == len(history) >= 3
    q = build_q_interval(inst, omega, history)
    for y in product((0.0, 1.0), repeat=inst.num_groups):
        gamma = np.where(np.array(y) == 1.0, L, U)
        want = [inst.deviations @ e.rho + inst.c_lower @ e.x + e.pi @ gamma for e in history]
        assert _cap_values(q, q.blocks["pi"], y) == pytest.approx(want, rel=1e-12, abs=1e-12)

    lower, upper = inst.c_lower, inst.c_lower + inst.deviations
    xs = [e.x for e in history]
    assert len({tuple(x) for x in xs}) >= 2
    nq = build_nominal_q_plus(inst.feasible_model(), lower, upper, xs)
    for y in product((0.0, 1.0), repeat=inst.n):
        cost = np.where(np.array(y) == 1.0, lower, upper)
        want = [x @ cost for x in xs]
        assert _cap_values(nq, nq.blocks["x"], y) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_empty_history_rejected():
    inst, omega1, _ = toy_instance(2)
    for build in (build_q_general, build_q_interval, build_q_variant):
        with pytest.raises(ValueError):
            build(inst, omega1, [])


def test_degenerate_domains_stop_immediately():
    inst, _, _ = toy_instance(2)
    point = np.array([1.0, 0.5, 0.25])
    # domains whose start vector is their only point: one iteration suffices
    for omega in (
        OmegaSpec.interval(point, point),                 # zero-width box
        OmegaSpec.budgeted(point, np.ones(3), 0.0),       # zero slack budget
        OmegaSpec.segment(np.zeros(3)),                   # zero direction
    ):
        res = run_aq(inst, omega, epsilon=0.0)
        assert res.iterations == 1
        assert res.q_values[0] == pytest.approx(0.0, abs=1e-9)
    res = run_aq(inst, OmegaSpec.interval(point, point), epsilon=0.0, mode="variant")
    assert res.iterations == 1
    assert res.q_values[0] == pytest.approx(0.0, abs=1e-9)


def test_pinned_segment_is_fixed_gamma_gap():
    # alpha_lo = alpha_hi pins the domain, but the seed still comes from
    # gamma = 0, so the first master value is exactly the gap at the point
    inst, _, _ = toy_instance(2)
    omega = OmegaSpec.segment(np.array([2.0, 1.0, 0.5]), 0.5, 0.5)
    gamma_hat = 0.5 * omega.gamma0
    res = run_aq(inst, omega, epsilon=0.0)
    seed = res.history[0]
    want = stored_value(inst, seed, gamma_hat, variant=False) - \
        brute_robust(inst, gamma_hat, X=enumerate_x(inst))[0]
    assert res.q_values[0] == pytest.approx(want, abs=1e-8)
    assert res.stop_reason == "epsilon_met"
    assert _max_gap(inst, res, omega, n_uniform=20) <= 1e-6


def test_budgeted_master_product_variable_replay():
    rng = np.random.default_rng(21)
    inst = random_instance(rng, n=6, K=2)
    K = inst.num_groups
    M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.2
    omega = OmegaSpec.budgeted(0.3 * M, 0.8 * M, float(M.mean()))
    hist = _history_at(inst, [omega.start_gamma, omega.upper_bound])
    sol = solve_milp(build_q_general(inst, omega, hist))
    beta = sol.values[1:1 + K]
    w = sol.values[1 + K:1 + 2 * K]
    pi = np.round(sol.values[1 + 2 * K:1 + 3 * K])
    gamma = omega.gamma_base + beta
    assert np.allclose(w, gamma * pi, atol=1e-7)


def test_master_gamma_reads_the_domain_columns():
    """A solved general or variant master's gamma is alpha * gamma0 to the
    bit on a segment, and lies in the domain on a budgeted one."""
    from mprobust.engine import _master_gamma

    rng = np.random.default_rng(23)
    for trial in range(4):
        inst = random_instance(rng, n=6, K=2)
        M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.5
        for omega in (OmegaSpec.segment(M, 0.1, 0.9),
                      OmegaSpec.budgeted(0.4 * M, 0.8 * M, float(0.6 * M.mean()))):
            for build, mode in ((build_q_general, "standard"), (build_q_variant, "variant")):
                model = build(inst, omega, _history_at(inst, [omega.start_gamma], mode=mode))
                sol = solve_milp(model)
                assert sol.status == "optimal"
                gamma = _master_gamma(omega, model, sol.values)
                assert contains(omega, gamma), model.name
                if omega.kind == "segment":
                    alpha = sol.values[model.blocks["position"]][0]
                    assert gamma.tobytes() == (alpha * omega.gamma0).tobytes()


def test_variant_segment_master_finds_a_small_alpha_gap():
    """On PLM 8 p=2 `lo` K=3 (seed 0), segment Omega with gamma0 near 2e5,
    the variant master on the run's first four entries is worth the
    certified gap at its own gamma, and no less than the gap at alpha =
    9.5e-7, where a scan of alpha finds about 75 (epsilon there is 1% of
    the seed value, about 74)."""
    from mprobust.engine import _entry_const, _master_gamma
    from mprobust.generators import PlmParams, gen_plm

    inst = apply_partition(gen_plm(PlmParams(8, 2, seed=0)), PartitionScheme("lo", 3), seed=0)
    omega = build_omega(inst, "segment")
    hist = run_aq(inst, omega, epsilon=0.0, mode="variant",
                  budget=Budget(max_iters=3)).history
    assert len(hist) == 4

    def certified_gap(gamma):
        cert = min(_entry_const(inst, e, variant=True) + e.pi @ gamma for e in hist)
        return cert - solve_robust(inst, gamma, mode="variant").value

    model = build_q_variant(inst, omega, hist)
    sol = solve_milp(model)
    assert sol.status == "optimal"
    gap = certified_gap(9.5e-7 * omega.gamma0)
    assert gap > 70.0
    assert sol.objective >= gap - 1e-6 * abs(gap)
    own = certified_gap(_master_gamma(omega, model, sol.values))
    assert sol.objective == pytest.approx(own, rel=1e-6)


def test_variant_master_product_variable_replay():
    """On every domain, a solved variant master's z_j is gamma_k * w_j, with
    some product nonzero."""
    from mprobust.engine import _master_gamma

    rng = np.random.default_rng(27)
    inst = random_instance(rng, n=5, K=2)
    cov = inst.covered
    sizes = np.array([len(g) for g in inst.groups], dtype=float)
    kof = inst.group_of()
    for omega in (OmegaSpec.interval(0.1 * sizes, 0.6 * sizes),
                  OmegaSpec.segment(sizes, 0.1, 0.9),
                  OmegaSpec.budgeted(0.2 * sizes, 0.6 * sizes, float(0.4 * sizes.mean()))):
        hist = _history_at(inst, [omega.start_gamma], mode="variant")
        model = build_q_variant(inst, omega, hist)
        sol = solve_milp(model)
        assert sol.status == "optimal"
        gamma = _master_gamma(omega, model, sol.values)
        z = sol.values[[model.var_names.index(f"z{j}") for j in cov]]
        w = np.round(sol.values[model.blocks["w"]])
        assert [model.var_name(j) for j in model.blocks["w"]] == [f"w{j}" for j in cov]
        assert np.allclose(z, gamma[kof[cov]] * w, atol=1e-7), omega.kind
        assert np.any(z > 1e-6), omega.kind
        # theta (block pi) is one breakpoint per group: at most one selector
        # is 1, and theta_k = sum_{j in G_k} d_j w_j
        theta = sol.values[model.blocks["pi"]]
        wn = np.zeros(inst.n)
        wn[cov] = w
        for k, g in enumerate(inst.groups):
            g = list(g)
            assert wn[g].sum() <= 1.0, omega.kind
            assert theta[k] == pytest.approx(inst.deviations[g] @ wn[g], abs=1e-9)


def test_variant_zero_deviation_one_iteration():
    from dataclasses import replace
    inst, omega1, _ = toy_instance(2)
    flat = replace(inst, deviations=np.zeros(3))
    res = run_aq(flat, omega1, epsilon=0.0, mode="variant")
    assert res.iterations == 1
    assert res.q_values[0] == pytest.approx(0.0, abs=1e-9)


def test_variant_master_matches_grid_scan():
    rng = np.random.default_rng(27)
    inst = random_instance(rng, n=5, K=2)
    sizes = np.array([len(g) for g in inst.groups], dtype=float)
    X = enumerate_x(inst)
    # (domain, spacing): each domain point lies within ``spacing`` of a
    # grid point in every coordinate
    for omega, spacing in (
            (OmegaSpec.interval(np.zeros(2), sizes), np.max(sizes) / 16),
            (OmegaSpec.segment(sizes, 0.1, 0.9), np.max(sizes) * 0.8 / 16),
            (OmegaSpec.budgeted(0.2 * sizes, 0.8 * sizes, float(0.5 * sizes.sum())),
             np.max(0.8 * sizes) / 16)):
        hist = _history_at(inst, [omega.start_gamma], mode="variant")
        vq = solve_milp(build_q_variant(inst, omega, hist)).objective
        gaps = []
        for gamma in sample_gamma(omega, "grid", m=17):
            stored = min(stored_value(inst, e, gamma, variant=True) for e in hist)
            ref, _ = brute_robust(inst, gamma, variant=True, X=X)
            gaps.append(stored - ref)
        grid_max = max(gaps)
        assert vq >= grid_max - 1e-9, omega.kind
        assert vq <= grid_max + 2 * float(spacing) * np.sum(hist[0].pi + 1.0), omega.kind


@pytest.mark.parametrize("kind", ["interval", "segment", "budgeted"])
def test_variant_master_matches_free_selector_reference(kind):
    """On the same histories, the one-hot master's value equals that of the
    free-selector reference (``helpers.build_q_variant_free_selectors``)."""
    rng = np.random.default_rng(43)
    insts = [toy_instance(2)[0], toy_instance(3)[0], random_instance(rng, n=6, K=2)]
    for inst in insts:
        M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.3
        omega = {"interval": OmegaSpec.interval(0.2 * M, 1.2 * M),
                 "segment": OmegaSpec.segment(1.5 * M),
                 "budgeted": OmegaSpec.budgeted(0.3 * M, 0.9 * M, float(M.mean()))}[kind]
        res = run_aq(inst, omega, epsilon=0.0, mode="variant")
        hist = res.history
        tol = 1e-6 * max(1.0, abs(res.init_value))
        for r in sorted({1, min(2, len(hist)), len(hist)}):
            want = solve_milp(build_q_variant_free_selectors(inst, omega, hist[:r]))
            got = solve_milp(build_q_variant(inst, omega, hist[:r]))
            assert want.status == got.status == "optimal"
            assert got.objective == pytest.approx(want.objective, abs=tol), (inst.n, r)


def test_first_master_value_bounds_grid_gap():
    rng = np.random.default_rng(31)
    inst = random_instance(rng, n=6, K=2)
    M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.2
    omega = OmegaSpec.interval(0.1 * M, 1.1 * M)
    res = run_aq(inst, omega, epsilon=0.0)
    X = enumerate_x(inst)
    for r in range(1, len(res.history) + 1):
        prefix = res.history[:r]
        vq = res.q_values[r - 1]
        for gamma in sample_gamma(omega, "grid", m=4):
            stored = min(stored_value(inst, e, gamma, variant=False) for e in prefix)
            ref, _ = brute_robust(inst, gamma, X=X)
            assert vq >= (stored - ref) - 1e-7


def test_q_optimum_is_robust_optimal_at_extracted_gamma():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, n=6, K=2)
    M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.2
    omega = OmegaSpec.interval(0.1 * M, 1.1 * M)
    res = run_aq(inst, omega, epsilon=0.0)
    assert res.stop_reason == "epsilon_met"
    for e in res.history[1:]:
        rsol = solve_robust(inst, e.gamma)
        assert stored_value(inst, e, e.gamma, variant=False) == pytest.approx(
            rsol.value, abs=1e-6)


def test_history_entries_feasible():
    rng = np.random.default_rng(7)
    inst = random_instance(rng, n=6, K=2)
    M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.2
    omega = OmegaSpec.interval(np.zeros_like(M), M)
    res = run_aq(inst, omega, epsilon=0.0)
    for e in res.history:
        for k, g in enumerate(inst.groups):
            for j in g:
                assert e.pi[k] + e.rho[j] - e.x[j] >= -1e-9
        lhs = inst.x_coeffs @ e.x
        for i in range(inst.x_coeffs.shape[0]):
            s = inst.x_senses[i]
            if s < 0:
                assert lhs[i] <= inst.x_rhs[i] + 1e-9
            elif s > 0:
                assert lhs[i] >= inst.x_rhs[i] - 1e-9
            else:
                assert lhs[i] == pytest.approx(inst.x_rhs[i], abs=1e-9)


@pytest.mark.parametrize("kind", ["interval", "segment", "budgeted"])
def test_epsilon_guarantee_standard(kind):
    rng = np.random.default_rng(11)
    for trial in range(3):
        inst = random_instance(rng, n=6, K=2)
        M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.3
        if kind == "interval":
            omega = OmegaSpec.interval(0.2 * M, 1.2 * M)
        elif kind == "segment":
            omega = OmegaSpec.segment(1.5 * M)
        else:
            omega = OmegaSpec.budgeted(0.3 * M, 0.9 * M, float(M.mean()))
        res = run_aq(inst, omega, epsilon=0.0)
        assert res.stop_reason == "epsilon_met"
        assert _max_gap(inst, res, omega) <= 1e-6
        # upper-bound soundness along the run
        assert all(q >= -1e-9 for q in res.q_values)


def test_epsilon_guarantee_variant():
    rng = np.random.default_rng(13)
    for trial in range(2):
        inst = random_instance(rng, n=5, K=2)
        M = np.array([len(g) for g in inst.groups], dtype=float)
        omega = OmegaSpec.interval(np.zeros_like(M), 0.8 * M)
        res = run_aq(inst, omega, epsilon=0.0, mode="variant")
        assert res.stop_reason == "epsilon_met"
        assert _max_gap(inst, res, omega) <= 1e-6


def test_scipy_variant_budgeted_master():
    """HiGHS's point on the variant master's all-continuous budget row once
    missed the row tolerance by 1e-6; the polished point meets it."""
    M = np.ones(3)
    res = run_aq(toy_instance(2)[0], OmegaSpec.budgeted(0.2 * M, 0.8 * M, 0.4 * M.sum()), 0.0,
                 mode="variant")
    assert res.stop_reason == "epsilon_met"


def test_positive_epsilon_guarantee_and_fewer_solutions():
    inst, _, omega2 = toy_instance(4)
    tight = run_aq(inst, omega2, epsilon=0.0)
    loose = run_aq(inst, omega2, epsilon=0.5)
    assert len(loose.distinct_x) <= len(tight.distinct_x)
    assert _max_gap(inst, loose, omega2) <= 0.5 + 1e-6
    assert loose.q_values[-1] <= 0.5 + 1e-9


def test_tu_mode_matches_standard_on_sp():
    for seed in range(3):
        inst = apply_partition(gen_sp(SpParams(8, seed=seed)),
                               PartitionScheme("d", 3), seed=seed)
        omega = build_omega(inst, "interval", delta=0.5)
        std = run_aq(inst, omega, epsilon=0.0)
        tu = run_aq(inst, omega, epsilon=0.0, mode="tu_relaxed")
        assert std.stop_reason == "epsilon_met"
        assert tu.stop_reason == "epsilon_met"
        assert std.q_values[-1] <= 1e-9 and tu.q_values[-1] <= 1e-9
        for e in tu.history:
            assert np.array_equal(e.x, np.round(e.x))
        assert _max_gap(inst, tu, omega) <= 1e-6
        assert _max_gap(inst, std, omega) <= 1e-6


def _agreement_cases():
    """(instance, interval domain, epsilon, mode) runs the pattern master serves."""
    # the shapes of the acceptance SP batch
    sizes = [8, 10, 12, 8, 10, 12, 8, 10, 12, 10]
    deltas = [0.0, 0.5, 1.0] * 3 + [0.0]
    for seed, (nv, delta) in enumerate(zip(sizes, deltas)):
        inst = apply_partition(gen_sp(SpParams(nv, seed=seed)),
                               PartitionScheme("d", 3), seed=seed)
        omega = build_omega(inst, "interval", delta=delta)
        eps = 0.01 * solve_robust(inst, omega.start_gamma).value
        for mode in ("standard", "tu_relaxed"):
            yield inst, omega, eps, mode
    for n in (2, 3, 4, 5):
        inst, omega1, omega2 = toy_instance(n)
        yield inst, omega1, 0.0, "standard"
        yield inst, omega2, 0.0, "standard"
    # the other shortest-path partitions, zero tolerance
    for seed, (kind, K) in enumerate([("r", 2), ("r", 4), ("p", 2), ("p", 3)]):
        inst = apply_partition(gen_sp(SpParams(8, seed=50 + seed)),
                               PartitionScheme(kind, K), seed=seed)
        for delta in (0.0, 1.0):
            yield inst, build_omega(inst, "interval", delta=delta), 0.0, "standard"
    # p-median instances, zero tolerance
    from mprobust.generators import PlmParams, gen_plm

    for seed, (l, K) in enumerate([(8, 2), (10, 4)]):
        inst = apply_partition(gen_plm(PlmParams(l, 2, seed=seed)),
                               PartitionScheme("lo", K), seed=seed)
        for delta in (0.5, 1.0):
            yield inst, build_omega(inst, "interval", delta=delta), 0.0, "standard"


def test_pattern_master_agrees_with_milp_master():
    from mprobust.engine import uses_pattern_master
    from mprobust.robust import relax_rho_x

    runs = 0
    for inst, omega, eps, mode in _agreement_cases():
        assert uses_pattern_master(inst, omega, mode)
        res = run_aq(inst, omega, epsilon=eps, mode=mode)
        assert res.stop_reason == "epsilon_met"
        for r, vq in enumerate(res.q_values, start=1):
            model = build_q_interval(inst, omega, res.history[:r])
            if mode == "tu_relaxed":
                model = relax_rho_x(model)
            sol = solve_milp(model)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(vq, abs=1e-6)
        runs += 1
    assert runs == 20 + 8 + 8 + 4


def test_pattern_master_routing():
    from math import comb

    from mprobust.engine import uses_pattern_master
    from mprobust.generators import PlmParams, gen_plm
    from mprobust.oracle import PATTERN_MAX_K, PLM_MAX_WORK

    sp = apply_partition(gen_sp(SpParams(8, seed=0)), PartitionScheme("d", 3), seed=0)
    box = build_omega(sp, "interval", delta=0.5)
    assert uses_pattern_master(sp, box, "standard")
    assert uses_pattern_master(sp, box, "tu_relaxed")
    assert not uses_pattern_master(sp, box, "variant")
    assert not uses_pattern_master(sp, build_omega(sp, "segment"), "standard")
    big = apply_partition(gen_sp(SpParams(20, seed=0)),
                          PartitionScheme("r", PATTERN_MAX_K + 1), seed=0)
    assert not uses_pattern_master(big, build_omega(big, "interval", delta=0.5), "standard")
    # p-median instances take the pattern master below the kernel's work
    # bound, and keep the MILP master above it
    plm = apply_partition(gen_plm(PlmParams(4, 2, seed=0)), PartitionScheme("lo", 2), seed=0)
    assert uses_pattern_master(plm, build_omega(plm, "interval", delta=0.5), "standard")
    plm = apply_partition(gen_plm(PlmParams(30, 3, seed=0)), PartitionScheme("lo", 11), seed=0)
    assert comb(30, 3) << plm.num_groups > PLM_MAX_WORK
    assert not uses_pattern_master(plm, build_omega(plm, "interval", delta=0.5), "standard")
    # generic instances keep the MILP master
    inst = random_instance(np.random.default_rng(0), n=6, K=2)
    M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.3
    assert not uses_pattern_master(inst, OmegaSpec.interval(0.1 * M, 1.1 * M), "standard")


def test_timed_out_table_is_not_rebuilt_for_the_seed(monkeypatch):
    """After ``run_aq``'s own pattern table times out, the seed goes straight
    to the robust MILP instead of building the same table again."""
    from mprobust import oracle
    from mprobust.robust import TABLE_MAX_K, TABLE_MIN_K, _solve_robust_milp

    inst = apply_partition(gen_sp(SpParams(20, seed=0)), PartitionScheme("r", 6), seed=0)
    assert TABLE_MIN_K <= inst.num_groups <= TABLE_MAX_K
    omega = build_omega(inst, "interval", delta=0.5)
    builds = []

    def timed_out(inst, deadline=None):
        builds.append(deadline)
        raise TimeoutError("pattern table unfinished at the deadline")

    monkeypatch.setattr(oracle, "PiEnumerationOracle", timed_out)
    res = run_aq(inst, omega, epsilon=0.0, budget=Budget(max_iters=0))
    assert len(builds) == 1
    assert res.stop_reason == "budget_exceeded" and res.iterations == 1
    assert res.init_value == pytest.approx(_solve_robust_milp(inst, omega.start_gamma).value)


def test_pattern_table_stops_at_time_limit(monkeypatch):
    """A table left unfinished at the time limit ends the run on the limit."""
    from mprobust import oracle
    from mprobust.engine import Budget
    from mprobust.uncertainty import row_chunks

    inst = apply_partition(gen_sp(SpParams(20, seed=0)), PartitionScheme("r", 16), seed=0)
    omega = build_omega(inst, "interval", delta=0.5)
    chunks = []
    inner = oracle._bellman_ford

    def counted(*args):
        chunks.append(1)
        return inner(*args)

    monkeypatch.setattr(oracle, "_bellman_ford", counted)
    records = []
    res = run_aq(inst, omega, epsilon=0.0, budget=Budget(time_limit=0.05),
                 trace=records.append)
    assert res.stop_reason == "budget_exceeded"
    assert res.q_values == [] and res.iterations == 1
    assert 0 < len(chunks) < len(row_chunks(2 ** 16, inst.n))
    assert records[0]["master"] == "milp" and records[0]["pattern_solves"] == 0
    # the seed still is the robust optimum at the start vector
    assert res.init_value == pytest.approx(solve_robust(inst, omega.start_gamma).value)


def test_relative_bounds_and_inf_sentinel():
    inst, omega1, _ = toy_instance(2)
    res = run_aq(inst, omega1, epsilon=0.0)
    assert res.relative_error_bounds[0] == pytest.approx(0.0, abs=1e-12)
    assert res.init_value == pytest.approx(11.5)

    # zero nominal optimum makes the relative bound a +inf sentinel
    from mprobust.uncertainty import Instance
    free = Instance(
        c_lower=np.array([0.0, 1.0]), deviations=np.array([1.0, 0.0]),
        groups=((0,), (1,)),
        x_coeffs=np.ones((1, 2)), x_senses=np.array([0], dtype=np.int8),
        x_rhs=np.array([1.0]))
    omega = OmegaSpec.interval(np.zeros(2), np.ones(2))
    res = run_aq(free, omega, epsilon=0.0)
    assert res.init_value == pytest.approx(0.0)
    assert np.isinf(res.relative_error_bounds[0]) or res.relative_error_bounds[0] == 0.0


def test_trace_records():
    inst, _, omega2 = toy_instance(2)
    records = []
    res = run_aq(inst, omega2, epsilon=0.0, trace=records.append)
    header, iters = records[0], records[1:]
    assert header["record"] == "header"
    assert header["master"] == "pattern"
    assert header["pattern_solves"] == 2 ** inst.num_groups
    assert len(iters) == len(res.q_values) >= 2
    assert iters[0]["iteration"] == 1
    assert {"iteration", "q_value", "gamma", "distinct", "elapsed",
            "master", "master_s"} <= set(iters[0])
    assert len(iters[0]["gamma"]) == inst.num_groups
    assert contains(omega2, np.array(iters[0]["gamma"]))
    # the running distinct count matches a recount of the history so far
    assert [r["distinct"] for r in iters] == [
        len({tuple(e.x) for e in res.history[:i + 1]}) for i in range(len(iters))]


def test_pick_best():
    inst, _, omega2 = toy_instance(2)
    res = run_aq(inst, omega2, epsilon=0.0)
    i, val = pick_best(res, gamma=np.array([0.2, 0.8, 0.5]))
    assert val == pytest.approx(10.2)
    assert tuple(res.history[i].x) == (1.0, 0.0, 0.0)

    i, val = pick_best(res, cost=inst.c_lower)
    assert val <= min(float(inst.c_lower @ e.x) for e in res.history) + 1e-12

    single = run_aq(inst, toy_instance(2)[1], epsilon=0.0)
    assert pick_best(single, gamma=np.array([2.0, 2.0, 2.0]))[0] == 0

    with pytest.raises(ValueError):
        pick_best(res)
    with pytest.raises(ValueError):
        pick_best(res, gamma=np.zeros(3), cost=np.zeros(3))


def test_nominal_engine_width_zero_box():
    inst, _, _ = toy_instance(2)
    xm = inst.feasible_model()
    c = np.array([10.0, 10.0, 11.5])
    res = run_multiparametric_nominal(xm, c, c, epsilon=0.0)
    assert res.stop_reason == "epsilon_met"
    assert len(res.distinct_x) == 1
    assert res.q_values[0] == pytest.approx(0.0, abs=1e-9)


def test_nominal_engine_toy_box_three_supports():
    inst, _, _ = toy_instance(2)
    xm = inst.feasible_model()
    lo = np.array([10.0, 10.0, 11.5])
    hi = np.array([12.0, 12.0, 11.5])
    res = run_multiparametric_nominal(xm, lo, hi, epsilon=0.0)
    assert res.stop_reason == "epsilon_met"
    assert len(res.distinct_x) == 3
    # certified cover: every corner cost vector is served within epsilon
    from itertools import product
    for bits in product((0, 1), repeat=3):
        c = np.where(np.array(bits) > 0, hi, lo)
        best = min(float(c @ np.array(t)) for t in res.distinct_x)
        ref = min(float(c @ x) for x in np.eye(3))
        assert best - ref <= 1e-9


def test_nominal_engine_general_master_agrees():
    """The cost-box master against the explicit-cost reference, on a toy box
    and on the stored paths of a shortest-path run."""
    inst, _, _ = toy_instance(2)
    xm = inst.feasible_model()
    lo = np.array([10.0, 10.0, 11.5])
    hi = np.array([12.0, 12.0, 11.5])
    hist = [np.array([0.0, 1.0, 0.0])]
    vp = solve_milp(build_nominal_q_plus(xm, lo, hi, hist)).objective
    vg = solve_milp(build_nominal_q_general(xm, lo, hi, hist)).objective
    assert vp == pytest.approx(vg, abs=1e-8)

    inst = gen_sp(SpParams(11, seed=2))
    xm = inst.feasible_model()
    lo, hi = inst.c_lower, inst.c_lower + inst.deviations
    paths = run_multiparametric_nominal(xm, lo, hi, epsilon=0.0).history
    assert len(paths) == 9
    for r in (1, 3, len(paths)):
        vp = solve_milp(build_nominal_q_plus(xm, lo, hi, paths[:r])).objective
        vg = solve_milp(build_nominal_q_general(xm, lo, hi, paths[:r])).objective
        assert vp == pytest.approx(vg, abs=1e-6), r


def test_nominal_engine_at_node_limit():
    """A nominal master cut by a node limit ends the loop with its bound."""
    from dataclasses import replace

    from mprobust.milp import SolverLimitError

    from helpers import wrapped_default_backend

    inst = gen_sp(SpParams(11, seed=2))
    xm = inst.feasible_model()
    lo = inst.c_lower
    hi = inst.c_lower + inst.deviations
    full = run_multiparametric_nominal(xm, lo, hi, epsilon=0.0)
    assert full.stop_reason == "epsilon_met" and len(full.q_values) == 9
    # masters maximize, the first nominal solve minimizes
    with wrapped_default_backend(lambda inner: lambda model, cfg: inner(
            model, replace(cfg, node_limit=1) if model.maximize else cfg)):
        cut = run_multiparametric_nominal(xm, lo, hi, epsilon=0.0)
        assert cut.stop_reason == "budget_exceeded"
        # the fifth master is cut: its bound covers the true residual
        assert len(cut.q_values) == 5 and len(cut.history) == 5
        assert cut.q_values[:4] == pytest.approx(full.q_values[:4])
        assert cut.q_values[4] >= full.q_values[4] - 1e-9
        # a bound within epsilon certifies the set
        eps = cut.q_values[4] + 0.1
        met = run_multiparametric_nominal(xm, lo, hi, epsilon=eps)
        assert met.stop_reason == "epsilon_met" and met.q_values == cut.q_values
    with wrapped_default_backend(lambda inner: lambda model, cfg: inner(
            model, cfg if model.maximize else replace(cfg, node_limit=0))):
        with pytest.raises(SolverLimitError):
            run_multiparametric_nominal(xm, lo, hi, epsilon=0.0)


def test_model_blocks():
    """Every robust counterpart and master names its certificate columns."""
    from dataclasses import replace

    from mprobust.milp import ModelError
    from mprobust.robust import build_robust_milp, build_robust_variant_milp, relax_rho_x

    standard = {"pi": True, "rho": True, "x": True}
    robust_variant = {"pi": False, "rho": False, "x": True}
    variant = {"w": True, "pi": False, "rho": False, "x": True}
    relaxed = {"pi": True, "rho": False, "x": False}
    rng = np.random.default_rng(21)
    for inst in (toy_instance(3)[0], random_instance(rng, n=6, K=2, cover_all=False)):
        K, n, nc = inst.num_groups, inst.n, inst.covered.size
        M = np.array([inst.deviations[list(g)].max() for g in inst.groups]) + 0.5
        omegas = {"interval": OmegaSpec.interval(0.3 * M, 1.3 * M),
                  "segment": OmegaSpec.segment(M, 0.1, 0.9),
                  "budgeted": OmegaSpec.budgeted(0.4 * M, 0.8 * M, float(M.mean()))}
        hist = _history_at(inst, [omegas["interval"].start_gamma])
        vhist = _history_at(inst, [omegas["interval"].start_gamma], mode="variant")
        robust = build_robust_milp(inst, M)
        cases = [(robust, standard), (relax_rho_x(robust), relaxed),
                 (build_robust_variant_milp(inst, M), robust_variant)]
        # every general and variant master's domain columns: gamma, the
        # segment position alpha, or the budgeted slacks beta
        domain = {"interval": "gamma", "segment": "position", "budgeted": "beta"}
        for kind, omega in omegas.items():
            general = build_q_general(inst, omega, hist)
            cases.append((general, {**standard, domain[kind]: False}))
            cases.append((build_q_variant(inst, omega, vhist), {**variant, domain[kind]: False}))
            if kind != "interval":
                cases.append((relax_rho_x(general), {**relaxed, domain[kind]: False}))
        interval = build_q_interval(inst, omegas["interval"], hist)
        cases += [(interval, standard), (relax_rho_x(interval), relaxed)]
        sizes = {"pi": K, "rho": nc, "x": n, "w": nc, "gamma": K, "beta": K, "position": 1}
        prefix = {"pi": "pi", "rho": "rho", "x": "x", "w": "w", "gamma": "g", "beta": "b",
                  "position": "alpha"}
        for model, want in cases:
            assert set(model.blocks) == set(want), model.name
            cols = np.concatenate([model.blocks[b] for b in want])
            assert np.unique(cols).size == cols.size
            assert cols.min() >= 0 and cols.max() < model.num_vars
            for b, binary in want.items():
                idx = model.blocks[b]
                assert idx.size == sizes[b], (model.name, b)
                assert np.all(model.is_binary[idx] == binary), (model.name, b)
                if b in prefix:
                    assert all(model.var_name(j).startswith(prefix[b]) for j in idx)
            # certificates are read by block: the x block holds the x columns
            assert [model.var_name(j) for j in model.blocks["x"]] == [
                f"x{j}" for j in range(n)]
        with pytest.raises(ModelError):
            replace(robust, blocks={"pi": robust.blocks["pi"], "x": robust.blocks["pi"]})
        with pytest.raises(ModelError):
            replace(robust, blocks={"x": [robust.num_vars]})
        with pytest.raises(ModelError):
            replace(robust, blocks={"x": [-1]})


def test_nominal_engine_rejects_continuous():
    from mprobust.milp import ModelBuilder
    b = ModelBuilder()
    b.add_binary()
    b.add_continuous(lower=0.0, upper=1.0)
    with pytest.raises(ValueError):
        run_multiparametric_nominal(b.build(), np.zeros(2), np.ones(2), 0.0)


def test_run_aq_validation():
    inst, omega1, _ = toy_instance(2)
    with pytest.raises(ValueError):
        run_aq(inst, omega1, epsilon=-1.0)
    with pytest.raises(ValueError):
        run_aq(inst, omega1, epsilon=0.0, mode="weird")
    with pytest.raises(ValueError):
        run_aq(inst, OmegaSpec.interval([0.0], [1.0]), epsilon=0.0)

def _sampled_segment_gap(inst, omega, res):
    """Largest gap of the stored set over 201 points of a segment domain."""
    from mprobust.oracle import PiEnumerationOracle
    from mprobust.uncertainty import robustness_values

    G = sample_gamma(omega, "grid", m=201)
    best = robustness_values(inst, np.asarray(res.solutions()), G).min(axis=1)
    return float(np.max(best - PiEnumerationOracle(inst).robust_values(G)))


def test_master_at_node_limit_stops_with_its_bound():
    """A MILP master cut by a node limit ends the run with a certified bound."""
    from mprobust.milp import SolverConfig

    inst = apply_partition(gen_sp(SpParams(20, seed=0)), PartitionScheme("r", 4), seed=0)
    omega = build_omega(inst, "segment")
    records = []
    res = run_aq(inst, omega, epsilon=0.0, config=SolverConfig(node_limit=3),
                 trace=records.append)
    assert res.stop_reason == "budget_exceeded"
    assert records[-1]["status"] == "incumbent_only"
    assert records[-1]["q_value"] == res.q_values[-1]
    assert res.q_values[-1] > 0
    assert _sampled_segment_gap(inst, omega, res) <= res.q_values[-1] + 1e-9


def test_time_limit_reaches_the_solver():
    """The run's remaining time cuts a running master, not only the loop."""
    import time

    inst = apply_partition(gen_sp(SpParams(20, seed=0)), PartitionScheme("r", 6), seed=0)
    omega = build_omega(inst, "segment")
    t0 = time.monotonic()
    res = run_aq(inst, omega, epsilon=0.0, budget=Budget(time_limit=0.5))
    elapsed = time.monotonic() - t0
    assert res.stop_reason == "budget_exceeded"
    assert elapsed <= 0.5 + 0.4
    assert _sampled_segment_gap(inst, omega, res) <= res.q_values[-1] + 1e-9


def test_seed_at_solver_limit_raises_typed_error():
    from mprobust.milp import SolverConfig, SolverLimitError
    from mprobust.robust import TABLE_MAX_K

    # above TABLE_MAX_K groups the seed is a robust MILP
    inst = apply_partition(gen_sp(SpParams(12, seed=0)),
                           PartitionScheme("r", TABLE_MAX_K + 1), seed=0)
    with pytest.raises(SolverLimitError):
        run_aq(inst, build_omega(inst, "segment"), epsilon=0.0,
               config=SolverConfig(node_limit=0))
