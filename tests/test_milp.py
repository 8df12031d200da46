"""The MILP backend against independent references."""

import io

import numpy as np
import pytest

from mprobust.milp import (
    GE, LE, EQ, MilpModel, ModelBuilder, ModelError, SolverConfig, SolverNumericalError,
    relax_binaries, solve_lp, solve_milp,
)

from helpers import (
    enum_milp, mps_string, primal_dual_pair, random_lp, random_milp, scipy_lp, vertex_lp,
)


def test_single_bound_lp():
    b = ModelBuilder()
    x = b.add_continuous("x1", 0.0, 10.0, obj=1.0)
    b.add_row({x: 1.0}, ">=", 3.0)
    sol = solve_lp(b.build())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_single_binary_no_rows():
    b = ModelBuilder()
    b.add_binary("y", obj=1.0)
    sol = solve_milp(b.build())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert sol.values[0] == 0.0


def test_maximize_binary_no_rows():
    b = ModelBuilder()
    b.add_binary("y", obj=1.0)
    sol = solve_milp(b.build(maximize=True))
    assert sol.objective == pytest.approx(1.0)
    assert sol.values[0] == 1.0


def test_lp_against_vertex_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(40):
        model = random_lp(rng, n=4, m=3)
        ours = solve_lp(model)
        ref = vertex_lp(model)
        if ours.status == "optimal":
            assert ref is not None
            assert ours.objective == pytest.approx(ref, abs=1e-6)
        else:
            assert ref is None


def test_lp_against_scipy_statuses():
    rng = np.random.default_rng(11)
    agree = 0
    for k in range(120):
        model = random_lp(rng, n=6, m=5, bounded=(k % 3 != 0))
        ours = solve_lp(model)
        status, obj = scipy_lp(model)
        assert ours.status == status
        if status == "optimal":
            assert ours.objective == pytest.approx(obj, abs=1e-6 * max(1, abs(obj)))
            agree += 1
    assert agree > 40


def test_lp_free_variable():
    # min s subject to s >= x - 2, s >= -x, x in [0, 5], s free
    b = ModelBuilder()
    s = b.add_continuous("s", -np.inf, np.inf, obj=1.0)
    x = b.add_continuous("x", 0.0, 5.0, obj=0.0)
    b.add_row({s: 1.0, x: -1.0}, ">=", -2.0)
    b.add_row({s: 1.0, x: 1.0}, ">=", 0.0)
    sol = solve_lp(b.build())
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)  # x = 1, s = -1


def test_lp_upper_only_bound_variable():
    b = ModelBuilder()
    x = b.add_continuous("x", -np.inf, 4.0, obj=-1.0)
    b.add_row({x: 1.0}, "<=", 9.0)
    sol = solve_lp(b.build())
    assert sol.objective == pytest.approx(-4.0)
    assert sol.values[0] == pytest.approx(4.0)


def test_lp_infeasible_and_unbounded():
    b = ModelBuilder()
    x = b.add_continuous("x", 0.0, 1.0, obj=1.0)
    b.add_row({x: 1.0}, ">=", 2.0)
    assert solve_lp(b.build()).status == "infeasible"

    b = ModelBuilder()
    x = b.add_continuous("x", 0.0, np.inf, obj=-1.0)
    b.add_row({x: 1.0}, ">=", 1.0)
    assert solve_lp(b.build()).status == "unbounded"


def test_milp_against_enumeration():
    rng = np.random.default_rng(23)
    solved = 0
    for _ in range(60):
        model = random_milp(rng, n_bin=6, n_cont=2, m=5)
        ours = solve_milp(model)
        status, obj = enum_milp(model)
        assert ours.status == status
        if status == "optimal":
            assert ours.objective == pytest.approx(obj, rel=1e-9, abs=1e-9)
            bins = ours.values[model.is_binary]
            assert np.array_equal(bins, np.round(bins))
            solved += 1
    assert solved > 25


def test_milp_larger_binary_blocks():
    rng = np.random.default_rng(31)
    for _ in range(10):
        model = random_milp(rng, n_bin=10, n_cont=3, m=7)
        ours = solve_milp(model)
        status, obj = enum_milp(model)
        assert ours.status == status
        if status == "optimal":
            assert ours.objective == pytest.approx(obj, rel=1e-9, abs=1e-9)


def test_strong_duality_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(40):
        primal, dual = primal_dual_pair(rng)
        ps = solve_lp(primal)
        ds = solve_lp(dual)
        assert ps.status == "optimal" and ds.status == "optimal"
        assert ps.objective == pytest.approx(ds.objective, abs=1e-6 * max(1, abs(ps.objective)))


def test_determinism_same_model_same_solution():
    rng = np.random.default_rng(41)
    model = random_milp(rng, n_bin=8, n_cont=2, m=6)
    a = solve_milp(model)
    bsol = solve_milp(model)
    assert a.status == bsol.status
    if a.status == "optimal":
        assert np.array_equal(a.values, bsol.values)
        assert a.objective == bsol.objective


def test_relax_binaries_identity_and_effect():
    rng = np.random.default_rng(3)
    model = random_milp(rng, n_bin=4, n_cont=1, m=4)
    same = relax_binaries(model, [])
    assert np.array_equal(same.is_binary, model.is_binary)
    assert np.array_equal(same.row_coeffs, model.row_coeffs)

    relaxed = relax_binaries(model, np.flatnonzero(model.is_binary))
    assert relaxed.num_binary == 0
    assert np.array_equal(relaxed.lower[:4], np.zeros(4))
    assert np.array_equal(relaxed.upper[:4], np.ones(4))

    with pytest.raises(ModelError):
        relax_binaries(model, [model.num_vars])
    with pytest.raises(ModelError):
        relax_binaries(model, [model.num_vars - 1])  # continuous var


def test_relaxation_gap_fractional_example():
    # one knapsack row where the LP optimum is fractional
    b = ModelBuilder()
    y1 = b.add_binary(obj=-3.0)
    y2 = b.add_binary(obj=-2.0)
    b.add_row({y1: 2.0, y2: 2.0}, "<=", 3.0)
    model = b.build()
    lp = solve_lp(model)
    milp = solve_milp(model)
    assert lp.objective < milp.objective - 1e-6


def knapsack(seed: int) -> MilpModel:
    """An 8 x 30 multi-row 0-1 knapsack (maximize) that HiGHS cannot close
    at its root node."""
    rng = np.random.default_rng(seed)
    A = rng.integers(1, 100, size=(8, 30)).astype(float)
    b = ModelBuilder("knapsack")
    xs = [b.add_binary(obj=float(v)) for v in rng.integers(1, 100, size=30)]
    for row in A:
        b.add_row(dict(zip(xs, row)), "<=", float(row.sum() / 3))
    return b.build(maximize=True)


def test_node_limit_bound_brackets_optimum():
    """At every node limit short of the full search, the incumbent and the
    bound bracket the optimum."""
    checked = 0
    for seed in (0, 3, 5):
        model = knapsack(seed)
        full = solve_milp(model)
        assert full.status == "optimal"
        for limit in range(1, full.nodes + 1):
            cut = solve_milp(model, SolverConfig(node_limit=limit))
            if cut.status != "incumbent_only" or cut.objective is None:
                continue
            lo, hi = ((cut.objective, cut.best_bound) if model.maximize
                      else (cut.best_bound, cut.objective))
            assert lo - 1e-9 <= full.objective <= hi + 1e-9
            checked += 1
    assert checked > 0


def test_node_limit_incumbent_only():
    rng = np.random.default_rng(97)
    model = random_milp(rng, n_bin=10, n_cont=2, m=6)
    sol = solve_milp(model, SolverConfig(node_limit=1))
    if sol.status == "incumbent_only":
        assert sol.best_bound is not None
    else:
        assert sol.status in ("optimal", "infeasible")


def test_node_limit_incumbent_only_scipy():
    """With the backend named explicitly, the limit keeps the incumbent and
    the dual bound brackets the optimum."""
    model = knapsack(2)
    full = solve_milp(model, SolverConfig(backend="scipy"))
    cut = solve_milp(model, SolverConfig(node_limit=1, backend="scipy"))
    assert full.status == "optimal" and full.nodes > 1
    assert cut.status == "incumbent_only" and cut.nodes == 1
    assert cut.objective <= full.objective + 1e-9 <= cut.best_bound + 2e-9


def test_builder_rejects_bad_input():
    b = ModelBuilder()
    b.add_binary()
    with pytest.raises(ModelError):
        b.add_row({3: 1.0}, "<=", 1.0)
    with pytest.raises(ModelError):
        b.add_row({0: 1.0}, "<>", 1.0)


def test_mps_export_structure():
    b = ModelBuilder("toy")
    y = b.add_binary("y", obj=2.0)
    x = b.add_continuous("x", 0.0, 7.5, obj=-1.0)
    s = b.add_continuous("s", -np.inf, np.inf, obj=0.5)
    b.add_row({y: 1.0, x: 2.0}, "<=", 5.0)
    b.add_row({x: 1.0, s: -1.0}, "==", 1.0)
    b.add_row({y: 1.0, s: 1.0}, ">=", 0.5)
    text = mps_string(b.build())
    lines = text.splitlines()
    assert lines[0].startswith("NAME")
    for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert any(ln.startswith(section) for ln in lines)
    assert any("'INTORG'" in ln for ln in lines)
    assert any("'INTEND'" in ln for ln in lines)
    assert any(ln.startswith(" BV") for ln in lines)
    assert any(ln.startswith(" UP") for ln in lines)
    assert any(ln.startswith(" FR") for ln in lines)

    # maximization models export a negated COST row
    text_max = mps_string(
        MilpModel(objective=np.array([2.0]), maximize=True,
                  lower=np.zeros(1), upper=np.ones(1),
                  is_binary=np.zeros(1, dtype=bool),
                  row_coeffs=np.zeros((0, 1)), row_senses=np.zeros(0, dtype=np.int8),
                  row_rhs=np.zeros(0)))
    assert "-2" in text_max


def test_unknown_backend_rejected():
    b = ModelBuilder()
    b.add_binary(obj=1.0)
    with pytest.raises(ModelError):
        solve_milp(b.build(), SolverConfig(backend="nope"))


def test_register_custom_backend():
    from mprobust.milp import MilpSolution, register_backend, _BACKENDS

    calls = []

    def fake(model, cfg):
        calls.append(model.num_vars)
        return MilpSolution(np.zeros(model.num_vars), 0.0, "optimal")

    register_backend("fake", fake)
    try:
        b = ModelBuilder()
        b.add_binary(obj=1.0)
        sol = solve_milp(b.build(), SolverConfig(backend="fake"))
        assert sol.objective == 0.0
        assert calls == [1]
    finally:
        _BACKENDS.pop("fake", None)


def test_registered_backend_point_is_row_checked():
    from mprobust.milp import MilpSolution, register_backend, _BACKENDS

    def noisy(model, cfg):
        return MilpSolution(np.ones(model.num_vars), 2.0, "optimal")

    register_backend("noisy", noisy)
    try:
        b = ModelBuilder()
        y = [b.add_binary(obj=1.0), b.add_binary(obj=1.0)]
        b.add_row({y[0]: 1.0, y[1]: 1.0}, "<=", 1.0)
        with pytest.raises(SolverNumericalError):
            solve_milp(b.build(), SolverConfig(backend="noisy"))
    finally:
        _BACKENDS.pop("noisy", None)


def test_robust_solves_match_enumeration():
    """Both robust counterparts reach the enumerated robust optimum (1e-9
    relative) on small shortest-path and toy instances."""
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, build_omega, gen_sp
    from mprobust.oracle import enumerate_x, robustness_matrix, toy_instance
    from mprobust.robust import _solve_robust_milp

    cases = []
    for seed, (kind, K) in enumerate([("r", 3), ("d", 3), ("p", 2)]):
        inst = apply_partition(gen_sp(SpParams(8, seed=seed)), PartitionScheme(kind, K), seed=seed)
        omega = build_omega(inst, "interval", delta=1.0)
        cases += [(inst, g) for g in (omega.start_gamma, 0.5 * (omega.lower + omega.upper))]
    for n in (2, 3, 4):
        inst, omega1, omega2 = toy_instance(n)
        cases += [(inst, g) for g in (omega1.lower, omega2.upper, 0.5 * omega2.upper)]
    for inst, gamma in cases:
        X = enumerate_x(inst)
        for mode in ("standard", "variant"):
            ref = robustness_matrix(inst, X, gamma, variant=mode == "variant").min()
            got = _solve_robust_milp(inst, gamma, mode=mode).value
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_highs_native_output_stays_off_stdout(capfd):
    """HiGHS prints a line from native code during one of this run's
    variant master solves; it must reach file descriptor 2, not 1."""
    from mprobust.engine import run_aq
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, build_omega, gen_sp
    from mprobust.robust import solve_robust

    inst = apply_partition(gen_sp(SpParams(8, seed=0)), PartitionScheme("r", 4), seed=0)
    omega = build_omega(inst, "budgeted", delta=1.0)
    eps = 0.01 * abs(solve_robust(inst, omega.start_gamma, mode="variant").value)
    assert run_aq(inst, omega, epsilon=eps, mode="variant").stop_reason == "epsilon_met"
    out, err = capfd.readouterr()
    assert "HighsMipSolverData" in err
    assert "HighsMipSolverData" not in out


def _recorded_milp_options(monkeypatch):
    """Wrap scipy.optimize.milp; returns the list of the options of each call."""
    from scipy import optimize

    seen = []
    real = optimize.milp

    def recorder(*args, options=None, **kwargs):
        seen.append(dict(options))
        return real(*args, options=options, **kwargs)

    monkeypatch.setattr(optimize, "milp", recorder)
    return seen


def test_highs_runs_without_feasibility_jump(monkeypatch):
    """Every MIP solve turns HiGHS's feasibility-jump heuristic off, with
    presolve off, and warns of nothing: scipy's note on the option it passes
    through is silenced, and HiGHS knows the option (it raises an
    OptimizeWarning on one it does not)."""
    import warnings

    seen = _recorded_milp_options(monkeypatch)
    b = ModelBuilder()
    y = [b.add_binary(obj=-1.0 - j) for j in range(5)]
    b.add_row({j: 1.0 for j in y}, "<=", 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_milp(b.build())
    assert sol.status == "optimal" and sol.objective == pytest.approx(-9.0)
    assert len(seen) == 1
    assert seen[0]["mip_heuristic_run_feasibility_jump"] is False
    assert seen[0]["presolve"] is False


def test_budgeted_plm_master_solves_with_presolve_off(monkeypatch):
    """This PLM budgeted master once ended in HiGHS's "Solve error" with
    presolve off: its history rows held constants near 1e4, and HiGHS set
    sigma 1e-6 above one of them and then rejected its own point.  With
    sigma measured from the smallest constant, one solve succeeds."""
    from mprobust.engine import run_aq
    from mprobust.generators import PartitionScheme, PlmParams, apply_partition, build_omega, gen_plm
    from mprobust.robust import solve_robust

    inst = apply_partition(gen_plm(PlmParams(8, 2, seed=1)), PartitionScheme("lo", 2), seed=1)
    omega = build_omega(inst, "budgeted", delta=0.5)
    eps = 0.01 * abs(solve_robust(inst, omega.start_gamma).value)
    seen = _recorded_milp_options(monkeypatch)
    assert run_aq(inst, omega, epsilon=eps).stop_reason == "epsilon_met"
    # the seed's robust counterpart, then the one master
    assert [o["presolve"] for o in seen] == [False, False]
