"""End-to-end command-line flows."""

import json

import numpy as np
import pytest

from mprobust.cli import main
from mprobust.serialize import load_json, save_json

from helpers import sp_with_arcs, wrapped_default_backend


def _strip_timing(d):
    d = dict(d)
    d.pop("timing", None)
    return d


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_generate_sp_and_round_trip(tmp_path):
    out = tmp_path / "sp.json"
    assert run_cli("generate", "sp", "--nodes", 9, "--seed", 1,
                   "--partition", "d", "--k", 3, "--out", out) == 0
    d = load_json(out)
    assert d["kind"] == "SP"
    assert d["n"] == round(0.3 * 9 * 8)
    assert 1 <= d["K"] <= 3


def test_generate_plm(tmp_path):
    out = tmp_path / "plm.json"
    assert run_cli("generate", "plm", "--l", 5, "--p", 1, "--seed", 2,
                   "--partition", "g", "--k", 2, "--out", out) == 0
    d = load_json(out)
    assert d["kind"] == "PLM"
    assert d["n"] == 30
    assert all(j < 25 for g in d["partition"] for j in g)


def test_generate_toy_stores_domains(tmp_path):
    out = tmp_path / "toy.json"
    assert run_cli("generate", "toy", "--n", 2, "--out", out) == 0
    d = load_json(out)
    assert d["metadata"]["toy_omega1"]["kind"] == "interval"
    assert np.allclose(d["metadata"]["toy_omega1"]["lower"], [2, 2, 2])
    assert np.allclose(d["metadata"]["toy_omega2"]["upper"], [1, 1, 1])
    assert np.allclose(d["c_lower"], [10, 10, 11.5])


def test_run_toy_domains(tmp_path):
    toy = tmp_path / "toy.json"
    run_cli("generate", "toy", "--n", 2, "--out", toy)

    res1 = tmp_path / "r1.json"
    code = run_cli("run", "--instance", toy, "--omega", "toy1",
                   "--epsilon", 0, "--out", res1)
    assert code == 0
    d1 = load_json(res1)
    assert d1["distinct_count"] == 1
    assert d1["distinct_x"] == [[0, 0, 1]]
    assert d1["stop_reason"] == "epsilon_met"

    res2 = tmp_path / "r2.json"
    trace = tmp_path / "trace.jsonl"
    assert run_cli("run", "--instance", toy, "--omega", "toy2",
                   "--epsilon", 0, "--trace", trace, "--out", res2) == 0
    d2 = load_json(res2)
    assert d2["distinct_count"] == 2
    lines = [json.loads(ln) for ln in trace.read_text().splitlines()]
    assert lines[0]["record"] == "header"
    assert len(lines) == 1 + len(d2["q_values"])
    assert lines[1]["iteration"] == 1

    toy4 = tmp_path / "toy4.json"
    run_cli("generate", "toy", "--n", 4, "--out", toy4)
    res4 = tmp_path / "r4.json"
    assert run_cli("run", "--instance", toy4, "--omega", "toy2",
                   "--epsilon", 0, "--out", res4) == 0
    assert load_json(res4)["distinct_count"] == 4


def test_run_determinism_modulo_timing(tmp_path):
    sp = tmp_path / "sp.json"
    run_cli("generate", "sp", "--nodes", 8, "--seed", 5,
            "--partition", "r", "--k", 2, "--out", sp)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("run", "--instance", sp, "--omega", "interval",
                       "--delta", 0.5, "--epsilon-pct", 1.0, "--out", out) == 0
    da, db = _strip_timing(load_json(a)), _strip_timing(load_json(b))
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    assert da["epsilon_mode"] == {"kind": "relative", "pct": 1.0}


def test_run_budget_exceeded_exit_code(tmp_path):
    toy = tmp_path / "toy.json"
    run_cli("generate", "toy", "--n", 3, "--out", toy)
    out = tmp_path / "res.json"
    code = run_cli("run", "--instance", toy, "--omega", "toy2",
                   "--epsilon", 0, "--max-iters", 1, "--out", out)
    assert code == 2
    assert load_json(out)["stop_reason"] == "budget_exceeded"


def test_evaluate_scenarios(tmp_path, capsys):
    toy = tmp_path / "toy.json"
    run_cli("generate", "toy", "--n", 2, "--out", toy)
    res = tmp_path / "res.json"
    run_cli("run", "--instance", toy, "--omega", "toy2", "--epsilon", 0, "--out", res)
    capsys.readouterr()

    assert run_cli("evaluate", "--result", res, "--gamma", "0.9,0.1,0.5") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(10.1)
    assert out["x"] == [0, 1, 0]

    assert run_cli("evaluate", "--result", res, "--cost", "10,10,11.5") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(10.0)

    single = tmp_path / "single.json"
    run_cli("run", "--instance", toy, "--omega", "toy1", "--epsilon", 0, "--out", single)
    capsys.readouterr()
    assert run_cli("evaluate", "--result", single, "--gamma", "2,2,2") == 0
    assert json.loads(capsys.readouterr().out)["index"] == 0

    assert run_cli("evaluate", "--result", res) == 4
    assert run_cli("evaluate", "--result", res, "--gamma", "1,2") == 4


def test_evaluate_rejects_bad_vectors(tmp_path, capsys):
    sp = tmp_path / "sp.json"
    run_cli("generate", "sp", "--nodes", 8, "--seed", 5,
            "--partition", "r", "--k", 2, "--out", sp)
    res = tmp_path / "res.json"
    run_cli("run", "--instance", sp, "--omega", "interval", "--delta", 0.5, "--out", res)
    n, K = load_json(sp)["n"], load_json(sp)["K"]
    capsys.readouterr()

    def rejected(flag, text, why):
        assert run_cli("evaluate", "--result", res, f"{flag}={text}") == 4
        assert capsys.readouterr().err == f"error: {why}: {text}\n"

    budgets = "gamma entries must be nonnegative numbers or inf"
    rejected("--gamma", ",".join(["-5"] * K), budgets)      # would undercut the nominal cost
    rejected("--gamma", ",".join(["nan"] + ["1"] * (K - 1)), budgets)
    rejected("--gamma", ",".join(["-inf"] + ["1"] * (K - 1)), budgets)
    costs = "cost entries must be finite"
    for bad in ("nan", "inf", "-inf"):
        rejected("--cost", ",".join([bad] + ["1"] * (n - 1)), costs)

    assert run_cli("evaluate", "--result", res, "--gamma", ",".join(["inf"] * K)) == 0
    assert json.loads(capsys.readouterr().out)["value"] > 0
    assert run_cli("evaluate", "--result", res, "--gamma", ",".join(["0"] * K)) == 0
    assert run_cli("evaluate", "--result", res, "--cost=" + ",".join(["-1"] * n)) == 0


def test_run_rejects_duplicate_group_index(tmp_path, capsys):
    sp = tmp_path / "sp.json"
    run_cli("generate", "sp", "--nodes", 8, "--seed", 5,
            "--partition", "r", "--k", 2, "--out", sp)
    d = load_json(sp)
    j = d["partition"][0][0]
    d["partition"][-1].append(j)
    save_json(d, sp)
    capsys.readouterr()
    assert run_cli("run", "--instance", sp, "--omega", "interval",
                   "--out", tmp_path / "res.json") == 4
    assert capsys.readouterr().err == (
        f"error: cannot load instance {sp}: index {j} appears in two groups\n")


def test_verify_pass_and_negative_control(tmp_path, capsys):
    toy = tmp_path / "toy.json"
    run_cli("generate", "toy", "--n", 2, "--out", toy)
    res = tmp_path / "res.json"
    run_cli("run", "--instance", toy, "--omega", "toy2", "--epsilon", 0, "--out", res)
    capsys.readouterr()

    assert run_cli("verify", "--result", res, "--grid", 4) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["max_gap"] <= 1e-6
    # an interval domain with every vertex against the pattern oracle: a proof
    assert report["exact"] is True

    # tampering: drop one needed solution, keep only the expensive safe one
    d = load_json(res)
    d["distinct_x"] = [[0, 0, 1]]
    tampered = tmp_path / "bad.json"
    save_json(d, tampered)
    assert run_cli("verify", "--result", tampered) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["exact"] is True
    assert report["max_gap"] > 1.0  # 11.5 vs 10.0 at gamma = 0
    assert len(report["witness_gamma"]) == 3


def test_verify_on_sp_run(tmp_path, capsys):
    sp = tmp_path / "sp.json"
    run_cli("generate", "sp", "--nodes", 8, "--seed", 2,
            "--partition", "p", "--k", 2, "--out", sp)
    res = tmp_path / "res.json"
    run_cli("run", "--instance", sp, "--omega", "budgeted", "--beta1", 0.5,
            "--beta2", 1.0, "--delta", 1.0, "--epsilon-pct", 1.0, "--out", res)
    capsys.readouterr()
    assert run_cli("verify", "--result", res, "--grid", 3, "--uniform", 40) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["reference"] == "pattern-oracle"
    # a budgeted domain's sampled vertices are not all of its vertices
    assert report["exact"] is False
    rel_eps = load_json(res)["epsilon"]
    assert report["max_gap"] <= rel_eps + 1e-6


def test_verify_default_grid_at_ten_groups(tmp_path, capsys):
    """With the default ``--grid 5``, verify of a K = 10 interval result
    lowers the grid to the 4 points per axis that fit ``GRID_MAX_POINTS``
    and says so in ``grid_m``, instead of refusing the grid."""
    sp, res = tmp_path / "sp.json", tmp_path / "res.json"
    run_cli("generate", "sp", "--nodes", 12, "--seed", 0, "--partition", "r", "--k", 10,
            "--out", sp)
    assert run_cli("run", "--instance", sp, "--omega", "interval", "--delta", 0.5,
                   "--epsilon-pct", 1, "--out", res) == 0
    capsys.readouterr()
    assert run_cli("verify", "--result", res) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["grid_m"] == 4 and report["checked"] == 4 ** 10 + 2 ** 10 + 100
    assert report["ok"] is True and report["exact"] is True


def test_verify_leaves_out_a_grid_that_cannot_fit():
    """Past 20 groups not even 2 points per axis fit: verify checks the
    uniform sample alone, with ``grid_m`` None, as it already leaves out
    the vertices there; with no uniform sample either it refuses."""
    from mprobust.cli import CliError, verify_solution_set
    from mprobust.oracle import toy_instance

    inst, omega, _ = toy_instance(20)
    assert omega.num_groups == 21
    report = verify_solution_set(inst, omega, [np.eye(inst.n)[-1]], 0.0, uniform=7)
    assert report["grid_m"] is None and report["checked"] == 7
    assert report["exact"] is False and report["ok"] is True
    with pytest.raises(CliError):
        verify_solution_set(inst, omega, [np.eye(inst.n)[-1]], 0.0, uniform=0)


@pytest.mark.parametrize("n, grid_m", [(12, 3), (13, None), (16, None)])
def test_verify_grid_keeps_three_points_per_axis(n, grid_m):
    """Lowered to fit ``GRID_MAX_POINTS``, the default grid keeps at least
    3 points per axis: 2 per axis would list the box's corners, which the
    vertex sample checks already, so past K = 13 only the vertices and the
    uniform sample are checked, one point each (at K = 17 against the
    enumeration reference, above ``PATTERN_MAX_K``)."""
    from mprobust.cli import verify_solution_set
    from mprobust.oracle import PATTERN_MAX_K, toy_instance

    inst, omega, _ = toy_instance(n)
    K = omega.num_groups
    report = verify_solution_set(inst, omega, list(np.eye(inst.n)), 0.0)
    assert report["grid_m"] == grid_m
    assert report["checked"] == (grid_m or 0) ** K + 2 ** K + 100
    assert report["reference"] == ("pattern-oracle" if K <= PATTERN_MAX_K else "enumeration")
    assert report["exact"] is True and report["ok"] is True


def test_verify_reads_a_plm_table_above_the_pattern_master_bound():
    """Verify's reference is the pattern table wherever one can be built: a
    p-median instance whose table is too large for the pattern master
    (2^K comb(l, p) > ``PLM_MAX_WORK``, MILP masters) still gets it, and
    the check is a proof."""
    from math import comb

    from mprobust.cli import verify_solution_set
    from mprobust.engine import uses_pattern_master
    from mprobust.generators import (
        PartitionScheme, PlmParams, apply_partition, build_omega, gen_plm,
    )
    from mprobust.oracle import PLM_MAX_WORK, shared_pattern_table

    inst = apply_partition(gen_plm(PlmParams(25, 4, seed=0)), PartitionScheme("lo", 9),
                           seed=0)
    assert comb(25, 4) << inst.num_groups > PLM_MAX_WORK
    omega = build_omega(inst, "interval", delta=0.5)
    assert not uses_pattern_master(inst, omega, "standard")
    xs = shared_pattern_table(inst).solution_set()
    report = verify_solution_set(inst, omega, xs, 0.0, grid_m=3, uniform=10)
    assert report["reference"] == "pattern-oracle" and report["exact"] is True
    assert report["ok"] is True


def test_time_limit_bounds_the_whole_run(tmp_path, monkeypatch):
    """``--time-limit`` covers the ``--epsilon-pct`` seed too: ``run_aq``
    gets the time the seed left, not the whole limit again."""
    import time

    from mprobust import cli

    sp, out = tmp_path / "sp.json", tmp_path / "res.json"
    run_cli("generate", "sp", "--nodes", 10, "--seed", 0, "--partition", "r", "--k", 4,
            "--out", sp)
    seed_value, run_aq = cli._seed_value, cli.run_aq
    budgets = []

    def slow_seed(*args):
        time.sleep(0.2)
        return seed_value(*args)

    def recorded(*args, budget=None, **kwargs):
        budgets.append(budget)
        return run_aq(*args, budget=budget, **kwargs)

    monkeypatch.setattr(cli, "_seed_value", slow_seed)
    monkeypatch.setattr(cli, "run_aq", recorded)
    assert run_cli("run", "--instance", sp, "--omega", "interval", "--delta", 0.5,
                   "--epsilon-pct", 1, "--time-limit", 30, "--out", out) == 0
    (budget,) = budgets
    assert 0 < budget.time_limit <= 30 - 0.2


def test_epsilon_pct_seed_is_solved_once(tmp_path, monkeypatch):
    """``run_aq`` reuses the seed ``--epsilon-pct`` took epsilon from: one
    robust MILP in all, so a seed that spends the whole ``--time-limit``
    still leaves a one-entry ``budget_exceeded`` result."""
    import time

    from mprobust import cli

    sp, out = tmp_path / "sp.json", tmp_path / "res.json"
    run_cli("generate", "sp", "--nodes", 10, "--seed", 0, "--partition", "r", "--k", 3,
            "--out", sp)
    seed_value, calls = cli._seed_value, []

    def slow_seed(*args):
        value = seed_value(*args)
        time.sleep(0.3)
        return value

    def counted(original):
        def backend(model, cfg):
            calls.append(model.name)
            return original(model, cfg)
        return backend

    monkeypatch.setattr(cli, "_seed_value", slow_seed)
    with wrapped_default_backend(counted):
        assert run_cli("run", "--instance", sp, "--omega", "segment", "--epsilon-pct", 1,
                       "--time-limit", 0.2, "--out", out) == 2
    assert calls == ["robust"]
    d = load_json(out)
    assert d["stop_reason"] == "budget_exceeded"
    assert d["iterations"] == 1 and d["q_values"] == []


def test_report_aggregation(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    base = {
        "format": "mprs-result-v1", "mode": "standard", "instance_kind": "SP",
        "epsilon": 0.1, "epsilon_mode": {"kind": "relative", "pct": 1.0},
        "omega": {"kind": "interval", "lower": [0.0], "upper": [1.0]},
        "first_bound_pct": 12.34,
    }
    for i, (s, t) in enumerate([(1, 2.349), (2, 1.0), (3, 4.25)]):
        d = dict(base)
        d["distinct_count"] = s
        d["timing"] = {"elapsed": t}
        save_json(d, batch / f"r{i}.json")
    assert run_cli("report", "--dir", batch) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:4] == ["instance", "omega", "mode", "epsilon"]
    row = lines[1].split(",")
    assert row[4] == "3"            # runs
    assert row[5] == "2.5"          # mean(2.349, 1.0, 4.25) = 2.533 -> one decimal
    assert row[6] == "4.2"          # max rounded to one decimal
    assert row[7] == "1" and row[9] == "3"
    assert row[8] == "2.0"
    assert row[10] == "12.3"

    single = tmp_path / "single"
    single.mkdir()
    d = dict(base)
    d["distinct_count"] = 2
    d["timing"] = {"elapsed": 1.0}
    save_json(d, single / "only.json")
    out_csv = tmp_path / "table.csv"
    assert run_cli("report", "--dir", single, "--out", out_csv) == 0
    row = out_csv.read_text().strip().splitlines()[1].split(",")
    assert row[7] == row[9] == "2"
    assert row[5] == row[6] == "1.0"


def test_run_without_a_master_reports_no_bound(tmp_path, capsys):
    """A run that solves no master has no first bound: the result stores
    first_bound_pct "inf" (not 0.0), and report leaves eps1_avg empty."""
    toy = tmp_path / "toy.json"
    run_cli("generate", "toy", "--n", 2, "--out", toy)
    batch = tmp_path / "batch"
    batch.mkdir()
    res = batch / "res.json"
    assert run_cli("run", "--instance", toy, "--omega", "toy2", "--epsilon", 0,
                   "--max-iters", 0, "--out", res) == 2
    d = load_json(res)
    assert d["q_values"] == []
    assert d["first_bound_pct"] == "inf"
    assert "first_bound_pct=inf" in capsys.readouterr().out
    assert run_cli("report", "--dir", batch) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert row.split(",")[header.split(",").index("eps1_avg")] == ""


def test_report_layer_time_columns(tmp_path, capsys):
    """``seed_s``, ``table_s`` and ``master_s`` are the mean totals of the
    results' timing blocks; a result without them counts 0."""
    toy = tmp_path / "toy.json"
    run_cli("generate", "toy", "--n", 2, "--out", toy)
    runs = tmp_path / "runs"
    runs.mkdir()
    for i in range(2):
        assert run_cli("run", "--instance", toy, "--omega", "toy2", "--epsilon", 0,
                       "--out", runs / f"r{i}.json") == 0
    capsys.readouterr()
    assert run_cli("report", "--dir", runs) == 0
    header, row = (line.split(",") for line in capsys.readouterr().out.strip().splitlines())
    assert header[11:] == ["seed_s", "table_s", "master_s"] and row[4] == "2"
    timings = [load_json(runs / f"r{i}.json")["timing"] for i in range(2)]
    for name, got in zip(header[11:], row[11:]):
        assert float(got) == round(float(np.mean([t[name] for t in timings])), 6)
    assert float(row[12]) > 0       # the toy runs build a pattern table

    old = tmp_path / "old"
    old.mkdir()
    d = load_json(runs / "r0.json")
    d["timing"] = {"elapsed": 1.0}
    save_json(d, old / "r.json")
    assert run_cli("report", "--dir", old) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[11:] == ["0.0", "0.0", "0.0"]


def test_variant_result_has_no_negative_zero(tmp_path):
    """Rounded solver values are stored without a -0.0 sign (the toy n=3
    ``toy2`` ``variant`` run used to store x = [-0.0, ...])."""
    toy, out = tmp_path / "toy.json", tmp_path / "res.json"
    run_cli("generate", "toy", "--n", 3, "--out", toy)
    assert run_cli("run", "--instance", toy, "--omega", "toy2", "--mode", "variant",
                   "--epsilon", 0, "--out", out) == 0
    d = load_json(out)
    assert d["history"]
    for rec in d["history"]:
        assert not np.signbit(rec["x"]).any()
    assert "-0.0" not in out.read_text()


def test_bad_inputs_exit_code(tmp_path):
    assert run_cli("run", "--instance", tmp_path / "nope.json",
                   "--omega", "interval", "--out", tmp_path / "x.json") == 4
    assert run_cli("report", "--dir", tmp_path / "empty") == 4
    assert run_cli("frobnicate") == 4


def test_run_rejects_mismatched_row_lengths(tmp_path, capsys):
    sp = tmp_path / "sp.json"
    run_cli("generate", "sp", "--nodes", 8, "--seed", 5,
            "--partition", "r", "--k", 2, "--out", sp)
    d = load_json(sp)
    d["constraints"]["rhs"].pop()
    save_json(d, sp)
    capsys.readouterr()
    assert run_cli("run", "--instance", sp, "--omega", "interval",
                   "--out", tmp_path / "res.json") == 4
    assert capsys.readouterr().err == (
        f"error: cannot load instance {sp}: x_senses (8,) and x_rhs (7,) must have "
        "shape (8,), one entry per row of x_coeffs\n")


def test_generate_unconnectable_sp_exit_code(tmp_path, capsys):
    """Three nodes never connect the farthest pair: one line, exit 4."""
    out = tmp_path / "sp.json"
    capsys.readouterr()
    assert run_cli("generate", "sp", "--nodes", 3, "--out", out) == 4
    assert capsys.readouterr().err == "error: could not generate a connected instance\n"
    assert not out.exists()


@pytest.mark.parametrize("omega,mode", [("interval", "standard"), ("segment", "standard"),
                                        ("interval", "variant")])
def test_run_without_a_feasible_point_exit_code(tmp_path, capsys, omega, mode):
    """An SP instance with no arc into the target has no feasible point:
    the pattern-table route, the robust MILP and the variant MILP each end
    `run` with one line and exit 4."""
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp
    from mprobust.serialize import instance_to_dict

    base = apply_partition(gen_sp(SpParams(8, seed=0)), PartitionScheme("r", 2), seed=0)
    w0 = base.metadata["w0"]
    inst = sp_with_arcs(base, [j for j, (_, v) in enumerate(base.metadata["arcs"]) if v != w0])
    sp, out = tmp_path / "sp.json", tmp_path / "res.json"
    save_json(instance_to_dict(inst), sp)
    capsys.readouterr()
    assert run_cli("run", "--instance", sp, "--omega", omega, "--mode", mode,
                   "--epsilon", 0, "--out", out) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_run_epsilon_pct_takes_seed_from_pattern_table(tmp_path):
    """On a pattern-master run, ``--epsilon-pct`` reads the seed value from
    the pattern table that ``run_aq`` then reuses: no robust MILP runs, and
    epsilon is exactly pct% of the stored seed value."""
    sp, out = tmp_path / "sp.json", tmp_path / "res.json"
    run_cli("generate", "sp", "--nodes", 12, "--seed", 1, "--partition", "r", "--k", 4,
            "--out", sp)
    models = []

    def record(inner):
        def solve(model, cfg):
            models.append(model.name)
            return inner(model, cfg)
        return solve

    pct = 2.5
    with wrapped_default_backend(record):
        assert run_cli("run", "--instance", sp, "--omega", "interval", "--delta", 0.5,
                       "--epsilon-pct", pct, "--out", out) == 0
    assert models == []
    d = load_json(out)
    assert d["epsilon"] == (pct / 100.0) * d["init_value"]
    assert d["epsilon_mode"] == {"kind": "relative", "pct": pct}


def test_epsilon_pct_seed_after_a_timed_out_table(monkeypatch):
    """After its pattern table times out, ``--epsilon-pct``'s seed goes
    straight to the robust MILP with ``--time-limit`` as its limit: the
    table is not built a second time, and the seed is not left unbounded."""
    from types import SimpleNamespace

    from mprobust import cli, engine, oracle
    from mprobust.engine import uses_pattern_master
    from mprobust.generators import (
        PartitionScheme, SpParams, apply_partition, build_omega, gen_sp,
    )
    from mprobust.robust import TABLE_MAX_K, TABLE_MIN_K, _solve_robust_milp

    inst = apply_partition(gen_sp(SpParams(20, seed=0)), PartitionScheme("r", 6), seed=0)
    assert TABLE_MIN_K <= inst.num_groups <= TABLE_MAX_K
    omega = build_omega(inst, "interval", delta=0.5)
    assert uses_pattern_master(inst, omega, "standard")
    builds, configs = [], []

    def timed_out(inst, deadline=None):
        builds.append(deadline)
        raise TimeoutError("pattern table unfinished at the deadline")

    def robust_milp(inst, gamma, mode="standard", config=None):
        configs.append(config)
        return _solve_robust_milp(inst, gamma, mode, config)

    monkeypatch.setattr(oracle, "PiEnumerationOracle", timed_out)
    monkeypatch.setattr(engine, "_solve_robust_milp", robust_milp)
    value = cli._seed_value(inst, omega, SimpleNamespace(mode="standard", time_limit=7.5))
    assert len(builds) == 1
    assert [c.time_limit for c in configs] == [7.5]
    assert value == _solve_robust_milp(inst, omega.start_gamma).value


@pytest.mark.parametrize("mode", ["standard", "variant"])
@pytest.mark.parametrize("omega", ["interval", "segment", "budgeted"])
def test_run_instance_without_budget_groups(tmp_path, omega, mode):
    """A generic instance with no budget groups has one robust optimum for
    every budget vector: the MILP seed and master read their empty blocks,
    and the run stops after the seed."""
    inst, out = tmp_path / "flat.json", tmp_path / "res.json"
    save_json({"kind": "CUSTOM", "n": 3, "K": 0, "c_lower": [3.0, 2.0, 4.0],
               "deviations": [0.0, 0.0, 0.0], "partition": [],
               "constraints": {"rows": [[1.0, 1.0, 1.0]], "senses": ["="], "rhs": [1.0]},
               "metadata": {}}, inst)
    assert run_cli("run", "--instance", inst, "--omega", omega, "--mode", mode,
                   "--out", out) == 0
    d = load_json(out)
    assert d["stop_reason"] == "epsilon_met" and d["iterations"] == 1
    assert d["q_values"] == [0.0] and d["distinct_x"] == [[0, 1, 0]]
    assert d["history"][0]["pi"] == [] and d["history"][0]["gamma"] == []


def test_verify_budgeted_result_without_budget_groups(tmp_path, capsys):
    """A budgeted domain over no groups samples the one empty budget
    vector, so verify checks a result of an instance with K = 0."""
    inst, out = tmp_path / "flat.json", tmp_path / "res.json"
    save_json({"kind": "CUSTOM", "n": 3, "K": 0, "c_lower": [3.0, 2.0, 4.0],
               "deviations": [0.0, 0.0, 0.0], "partition": [],
               "constraints": {"rows": [[1.0, 1.0, 1.0]], "senses": ["="], "rhs": [1.0]},
               "metadata": {}}, inst)
    assert run_cli("run", "--instance", inst, "--omega", "budgeted", "--epsilon", 0,
                   "--out", out) == 0
    capsys.readouterr()
    assert run_cli("verify", "--result", out) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["max_gap"] == 0.0 and report["checked"] > 0


def test_mps_export_flag(tmp_path):
    toy = tmp_path / "toy.json"
    run_cli("generate", "toy", "--n", 2, "--out", toy)
    res = tmp_path / "res.json"
    mpsdir = tmp_path / "mps"
    assert run_cli("run", "--instance", toy, "--omega", "toy1", "--epsilon", 0,
                   "--mps-dir", mpsdir, "--out", res) == 0
    r = (mpsdir / "r_init.mps").read_text()
    q = (mpsdir / "q_final.mps").read_text()
    assert r.startswith("NAME") and r.rstrip().endswith("ENDATA")
    assert "'INTORG'" in q

    # an interval run that the pattern master serves still exports the MILP
    # master over its final history: one <= row per stored entry
    res2 = tmp_path / "res2.json"
    assert run_cli("run", "--instance", toy, "--omega", "interval", "--delta", 0.5,
                   "--epsilon", 0, "--mps-dir", mpsdir, "--out", res2) == 0
    q = (mpsdir / "q_final.mps").read_text()
    assert q.startswith("NAME          Q_INTERV")
    rows = q.split("ROWS\n", 1)[1].split("COLUMNS\n", 1)[0].splitlines()
    assert sum(ln.startswith(" L ") for ln in rows) == load_json(res2)["iterations"]

    # a variant run exports its robust counterpart as the continuous dual:
    # the n x columns are its only binaries, no selector column is left
    res3 = tmp_path / "res3.json"
    assert run_cli("run", "--instance", toy, "--omega", "toy1", "--mode", "variant",
                   "--epsilon", 0, "--mps-dir", mpsdir, "--out", res3) == 0
    r = (mpsdir / "r_init.mps").read_text()
    assert r.startswith("NAME          ROBUST_V")
    assert sum(ln.startswith(" BV ") for ln in r.splitlines()) == load_json(toy)["n"]


def test_run_trace_names_master(tmp_path):
    toy = tmp_path / "toy.json"
    run_cli("generate", "toy", "--n", 2, "--out", toy)
    from mprobust.milp import SolverConfig

    masters = []

    def sizes(inner):
        def solve(model, cfg):
            if model.name.startswith("q_"):
                masters.append((model.num_vars, model.num_rows,
                                int(np.count_nonzero(model.row_coeffs))))
            return inner(model, cfg)
        return solve

    for omega, master in (("toy2", "pattern"), ("segment", "milp")):
        trace = tmp_path / f"{omega}.jsonl"
        out = tmp_path / f"{omega}.json"
        masters.clear()
        with wrapped_default_backend(sizes):
            assert run_cli("run", "--instance", toy, "--omega", omega, "--epsilon", 0,
                           "--trace", trace, "--out", out) == 0
        header, *iters = [json.loads(ln) for ln in trace.read_text().splitlines()]
        # each record carries the size of the master it solved; the pattern
        # master builds no model, so its records read 0
        got = [(rec["vars"], rec["rows"], rec["nnz"]) for rec in iters]
        assert got == (masters if master == "milp" else [(0, 0, 0)] * len(iters))
        assert all(min(sz) > 0 for sz in masters)
        assert header["record"] == "header" and header["master"] == master
        assert header["backend"] == SolverConfig().backend
        assert header["pattern_solves"] == (2 ** 3 if master == "pattern" else 0)
        assert header["pattern_build_s"] >= 0.0
        assert len(iters) == len(load_json(out)["q_values"])
        for rec in iters:
            assert rec["master"] == master and rec["master_s"] >= 0.0
            assert isinstance(rec["nodes"], int)
            if master == "pattern":
                # the pattern master is exact: no nodes, its value is its bound
                assert rec["nodes"] == 0 and rec["best_bound"] == rec["q_value"]
            else:
                # a maximizing master's bound is at least its value
                assert rec["nodes"] >= 0
                assert rec["best_bound"] >= rec["q_value"] - 1e-9


def test_run_scipy_budgeted_sp20(tmp_path):
    """The budgeted master on SP 20 once failed the row check on HiGHS's
    point (row off by 1e-6); it now runs to a result."""
    sp, out = tmp_path / "sp.json", tmp_path / "res.json"
    run_cli("generate", "sp", "--nodes", 20, "--seed", 0, "--partition", "r", "--k", 6,
            "--out", sp)
    assert run_cli("run", "--instance", sp, "--omega", "budgeted", "--delta", 1,
                   "--epsilon-pct", 1, "--out", out) == 0
    assert load_json(out)["stop_reason"] == "epsilon_met"


def test_run_stalled_exit_code(tmp_path):
    """A master that replays its previous optimum stops the loop as stalled."""
    from mprobust.milp import MilpSolution

    masters = []

    def replay(inner, model, cfg):
        if not model.name.startswith("q_"):
            return inner(model, cfg)
        if not masters:
            masters.append(inner(model, cfg))
            return masters[0]
        # the previous optimum with sigma (variable 0) lowered onto the new
        # history row, so that it passes the row check, and its old value
        prev = masters[0]
        v = prev.values.copy()
        on_sigma = model.row_coeffs[:, 0] > 0
        slack = (model.row_rhs - model.row_coeffs @ v)[on_sigma] / model.row_coeffs[on_sigma, 0]
        v[0] += min(0.0, float(slack.min()))
        return MilpSolution(v, prev.objective, "optimal")

    toy = tmp_path / "toy.json"
    run_cli("generate", "toy", "--n", 2, "--out", toy)
    out, trace = tmp_path / "res.json", tmp_path / "trace.jsonl"
    with wrapped_default_backend(lambda inner: lambda model, cfg: replay(inner, model, cfg)):
        code = run_cli("run", "--instance", toy, "--omega", "segment", "--epsilon", 0,
                       "--trace", trace, "--out", out)
    assert code == 5
    d = load_json(out)
    assert d["stop_reason"] == "stalled"
    assert len(d["q_values"]) == 2 and d["q_values"][-1] > 0
    assert d["q_values"][-1] == d["q_values"][0]
    assert len(trace.read_text().splitlines()) == 3


def _verify_cases():
    """(instance, domain, solution set, epsilon) for the verify agreement test."""
    from mprobust.engine import run_aq
    from mprobust.generators import (
        PartitionScheme, SpParams, apply_partition, build_omega, gen_sp,
    )
    from mprobust.oracle import toy_instance
    from mprobust.robust import solve_robust

    # the shapes of the acceptance SP batch
    sizes = [8, 10, 12, 8, 10, 12, 8, 10, 12, 10]
    deltas = [0.0, 0.5, 1.0] * 3 + [0.0]
    for seed, (nv, delta) in enumerate(zip(sizes, deltas)):
        inst = apply_partition(gen_sp(SpParams(nv, seed=seed)),
                               PartitionScheme("d", 3), seed=seed)
        omega = build_omega(inst, "interval", delta=delta)
        eps = 0.01 * solve_robust(inst, omega.start_gamma).value
        yield inst, omega, run_aq(inst, omega, epsilon=eps).solutions(), eps
    for n in (2, 3, 4):
        inst, omega1, omega2 = toy_instance(n)
        for omega in (omega1, omega2):
            xs = run_aq(inst, omega, epsilon=0.0).solutions()
            yield inst, omega, xs, 0.0
            yield inst, omega, xs[-1:], 0.0          # a set too small: gaps > 0
    inst = apply_partition(gen_sp(SpParams(12, seed=3)), PartitionScheme("d", 3), seed=3)
    omega = build_omega(inst, "budgeted", delta=1.0, beta1=0.5, beta2=1.0)
    eps = 0.01 * solve_robust(inst, omega.start_gamma).value
    yield inst, omega, run_aq(inst, omega, epsilon=eps).solutions(), eps


def test_verify_batched_agrees_with_scalar_loop():
    """The batched report equals a point-by-point loop over the same samples."""
    from mprobust.cli import verify_solution_set
    from mprobust.oracle import PiEnumerationOracle, robustness_matrix
    from mprobust.uncertainty import sample_gamma

    cases = failing = 0
    for inst, omega, xs, eps in _verify_cases():
        report = verify_solution_set(inst, omega, xs, eps)
        oracle = PiEnumerationOracle(inst)
        X = np.asarray(xs, dtype=float)
        points = [sample_gamma(omega, "grid", m=5)]
        if omega.kind != "segment":
            points.append(sample_gamma(omega, "vertices"))
        points.append(sample_gamma(omega, "uniform", seed=0, count=100))
        worst, witness, checked = -np.inf, None, 0
        for gamma in np.vstack(points):
            gap = float(robustness_matrix(inst, X, gamma).min()) - oracle.robust_value(gamma)
            checked += 1
            if gap > worst:
                worst, witness = gap, gamma
        assert report["reference"] == "pattern-oracle"
        assert report["checked"] == checked
        assert report["ok"] is bool(worst <= eps + 1e-6)
        assert report["witness_gamma"] == [float(v) for v in witness]
        assert report["max_gap"] == pytest.approx(worst, abs=1e-9)
        assert report["exact"] is (omega.kind == "interval")
        cases += 1
        failing += not report["ok"]
    assert cases == 10 + 12 + 1 and failing > 0


def test_verify_product_grid_agrees_with_scalar_loop():
    """On SP 20 ``r`` K=6 interval (the online benchmark's shape), where the
    grid and vertex samples go through the product-grid sweep, the report
    equals a point-by-point loop: the set ``run_aq`` stores (zero gap, so the
    witness is rounding noise) and a one-solution set that fails."""
    from mprobust.cli import verify_solution_set
    from mprobust.engine import run_aq
    from mprobust.generators import PartitionScheme, SpParams, apply_partition, build_omega, gen_sp
    from mprobust.oracle import PiEnumerationOracle, robustness_matrix
    from mprobust.uncertainty import sample_gamma

    inst = apply_partition(gen_sp(SpParams(20, seed=0)), PartitionScheme("r", 6), seed=0)
    omega = build_omega(inst, "interval", delta=0.0)
    oracle = PiEnumerationOracle(inst)
    xs = run_aq(inst, omega, epsilon=0.0).solutions()
    points = np.vstack([sample_gamma(omega, "grid", m=5), sample_gamma(omega, "vertices"),
                        sample_gamma(omega, "uniform", seed=0, count=100)])
    for X in (np.asarray(xs, dtype=float), np.asarray(xs[:1], dtype=float)):
        report = verify_solution_set(inst, omega, X, 0.0)
        gaps = [float(robustness_matrix(inst, X, g).min()) - oracle.robust_value(g)
                for g in points]
        i = int(np.argmax(gaps))
        assert report["checked"] == len(points) == 5 ** 6 + 2 ** 6 + 100
        assert report["reference"] == "pattern-oracle" and report["exact"] is True
        assert report["witness_gamma"] == [float(v) for v in points[i]]
        assert report["max_gap"] == gaps[i]
        assert report["ok"] is bool(gaps[i] <= 1e-6)
    assert len(xs) > 1 and report["ok"] is False


def test_run_solver_limit_exit_code(tmp_path, capsys):
    """Solver limits end `run` with exit code 2, never a traceback."""
    from dataclasses import replace

    sp = tmp_path / "sp.json"
    run_cli("generate", "sp", "--nodes", 20, "--seed", 0, "--partition", "r",
            "--k", 4, "--out", sp)
    # the master stops at the node limit: partial artifacts and its bound
    out, trace = tmp_path / "res.json", tmp_path / "trace.jsonl"
    with wrapped_default_backend(lambda inner: lambda model, cfg: inner(
            model, replace(cfg, node_limit=3))):
        code = run_cli("run", "--instance", sp, "--omega", "segment", "--epsilon", 0,
                       "--trace", trace, "--out", out)
    assert code == 2
    d = load_json(out)
    assert d["stop_reason"] == "budget_exceeded"
    last = json.loads(trace.read_text().splitlines()[-1])
    assert last["status"] == "incumbent_only"
    assert d["q_values"][-1] == last["q_value"] > 0
    assert len(d["q_values"]) == d["iterations"]
    # a seed solve at a limit: one line on stderr, no result; above
    # TABLE_MAX_K groups the seed is a robust MILP
    from mprobust.robust import TABLE_MAX_K

    run_cli("generate", "sp", "--nodes", 20, "--seed", 0, "--partition", "r",
            "--k", TABLE_MAX_K + 1, "--out", sp)
    capsys.readouterr()
    seed_out = tmp_path / "seed.json"
    with wrapped_default_backend(lambda inner: lambda model, cfg: inner(
            model, replace(cfg, node_limit=0) if model.name == "robust" else cfg)):
        code = run_cli("run", "--instance", sp, "--omega", "segment", "--epsilon-pct", 1,
                       "--out", seed_out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not seed_out.exists()


def test_run_solver_fault_exit_code(tmp_path, capsys):
    """A backend point that violates a row ends `run` with exit code 6."""
    from mprobust.milp import MilpSolution

    sp = tmp_path / "sp.json"
    run_cli("generate", "sp", "--nodes", 8, "--seed", 0, "--partition", "r",
            "--k", 2, "--out", sp)
    capsys.readouterr()
    out = tmp_path / "res.json"
    with wrapped_default_backend(lambda inner: lambda model, cfg: MilpSolution(
            np.ones(model.num_vars), 0.0, "optimal")):
        code = run_cli("run", "--instance", sp, "--omega", "segment", "--epsilon", 0,
                       "--out", out)
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith("solver fault: ") and err.count("\n") == 1
    assert not out.exists()


def test_verify_solver_reference_solves_the_milp():
    """Above ``PATTERN_MAX_K`` groups no pattern table serves: verify's
    reference is the robust MILP, one backend call per checked point."""
    from mprobust.cli import verify_solution_set
    from mprobust.engine import Budget, run_aq, uses_pattern_master
    from mprobust.generators import (
        PartitionScheme, SpParams, apply_partition, build_omega, gen_sp,
    )
    from mprobust.oracle import PATTERN_MAX_K, cached_pattern_table

    K = PATTERN_MAX_K + 1
    inst = apply_partition(gen_sp(SpParams(20, seed=0)), PartitionScheme("r", K), seed=0)
    assert inst.num_groups == K
    omega = build_omega(inst, "interval", delta=0.5)
    assert not uses_pattern_master(inst, omega, "standard")
    res = run_aq(inst, omega, epsilon=0.0, budget=Budget(max_iters=0))
    assert cached_pattern_table(inst) is None
    calls = []

    def counted(original):
        def backend(model, cfg):
            calls.append(model.name)
            return original(model, cfg)
        return backend

    # a segment through the box keeps the sample small; the route is the same
    line = build_omega(inst, "segment", segment_scale=1.5)
    with wrapped_default_backend(counted):
        report = verify_solution_set(inst, line, res.solutions(), 0.0, grid_m=3, uniform=4)
    assert report["reference"] == "solver" and report["exact"] is False
    assert calls == ["robust"] * report["checked"] and report["checked"] > 0

