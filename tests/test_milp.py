"""Bundled LP/MILP solver against independent references."""

import io

import numpy as np
import pytest

from mprobust.milp import (
    GE, LE, EQ, MilpModel, ModelBuilder, ModelError, SolverConfig, SolverNumericalError,
    mps_string, relax_binaries, solve_lp, solve_milp, submit,
)

from helpers import enum_milp, primal_dual_pair, random_lp, random_milp, scipy_lp, vertex_lp


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
            assert ours.objective == pytest.approx(obj, abs=1e-6 * max(1, abs(obj)))
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
            assert ours.objective == pytest.approx(obj, abs=1e-6 * max(1, abs(obj)))


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


def test_node_limit_incumbent_only():
    rng = np.random.default_rng(97)
    model = random_milp(rng, n_bin=10, n_cont=2, m=6)
    cfg = SolverConfig(node_limit=1)
    sol = solve_milp(model, cfg)
    if sol.status == "incumbent_only":
        assert sol.best_bound is not None
    else:
        assert sol.status in ("optimal", "infeasible")


def test_node_limit_bound_brackets_optimum():
    """At every node limit the bundled B&B's incumbent and bound bracket the
    optimum, also when every open node is worse than the incumbent."""
    for seed in range(8):
        model = random_milp(np.random.default_rng(seed), n_bin=8, n_cont=2, m=5)
        full = solve_milp(model)
        if full.status != "optimal":
            continue
        for limit in range(1, full.nodes + 1):
            cut = solve_milp(model, SolverConfig(node_limit=limit))
            if cut.status != "incumbent_only" or cut.objective is None:
                continue
            lo, hi = ((cut.objective, cut.best_bound) if model.maximize
                      else (cut.best_bound, cut.objective))
            assert lo - 1e-9 <= full.objective <= hi + 1e-9


def test_node_limit_incumbent_only_scipy():
    rng = np.random.default_rng(97)
    model = random_milp(rng, n_bin=10, n_cont=2, m=6)
    sol = solve_milp(model, SolverConfig(node_limit=1, backend="scipy"))
    if sol.status == "incumbent_only":
        assert sol.best_bound is not None
    else:
        assert sol.status in ("optimal", "infeasible")

    # a knapsack HiGHS cannot close at the root: the limit keeps the
    # incumbent and the dual bound brackets the optimum
    rng = np.random.default_rng(2)
    A = rng.integers(1, 100, size=(8, 30)).astype(float)
    b = ModelBuilder("knapsack")
    xs = [b.add_binary(obj=float(v)) for v in rng.integers(1, 100, size=30)]
    for row in A:
        b.add_row(dict(zip(xs, row)), "<=", float(row.sum() / 3))
    model = b.build(maximize=True)
    full = solve_milp(model, SolverConfig(backend="scipy"))
    cut = solve_milp(model, SolverConfig(node_limit=1, backend="scipy"))
    assert full.status == "optimal" and full.nodes > 1
    assert cut.status == "incumbent_only" and cut.nodes == 1
    assert cut.objective <= full.objective + 1e-9 <= cut.best_bound + 2e-9


def test_scipy_backend_agrees():
    rng = np.random.default_rng(59)
    for _ in range(20):
        model = random_milp(rng, n_bin=6, n_cont=2, m=5)
        ours = solve_milp(model, SolverConfig(backend="bundled"))
        ref = solve_milp(model, SolverConfig(backend="scipy"))
        assert ours.status == ref.status
        if ours.status == "optimal":
            assert ours.objective == pytest.approx(ref.objective, abs=1e-6 * max(1, abs(ref.objective)))


def test_builder_rejects_bad_input():
    b = ModelBuilder()
    b.add_binary()
    with pytest.raises(ModelError):
        b.add_row({3: 1.0}, "<=", 1.0)
    with pytest.raises(ModelError):
        b.add_row({0: 1.0}, "<>", 1.0)
    with pytest.raises(ModelError):
        SolverConfig(feas_tol=0.0)


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
        submit(b.build(), SolverConfig(backend="nope"))


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
        sol = submit(b.build(), SolverConfig(backend="fake"))
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
            submit(b.build(), SolverConfig(backend="noisy"))
    finally:
        _BACKENDS.pop("noisy", None)


def test_backend_env_var_default(monkeypatch):
    monkeypatch.setenv("MPROBUST_BACKEND", "scipy")
    assert SolverConfig().backend == "scipy"
    monkeypatch.delenv("MPROBUST_BACKEND")
    assert SolverConfig().backend == "bundled"
