"""Canonical JSON round-trips."""

import numpy as np
import pytest

from mprobust.engine import run_aq
from mprobust.generators import PartitionScheme, SpParams, apply_partition, gen_sp
from mprobust.oracle import toy_instance
from mprobust.serialize import (
    dumps_canonical, instance_from_dict, instance_to_dict, load_json,
    omega_from_dict, omega_to_dict, result_from_dict, result_to_dict, save_json,
)
from mprobust.uncertainty import OmegaSpec


def test_instance_round_trip_byte_identical(tmp_path):
    inst = apply_partition(gen_sp(SpParams(9, seed=4)), PartitionScheme("p", 3), seed=2)
    d1 = instance_to_dict(inst)
    path = tmp_path / "inst.json"
    save_json(d1, path)
    first = path.read_bytes()
    loaded = instance_from_dict(load_json(path))
    save_json(instance_to_dict(loaded), path)
    assert path.read_bytes() == first
    assert loaded.n == inst.n
    assert loaded.groups == inst.groups
    assert np.array_equal(loaded.c_lower, inst.c_lower)
    assert np.array_equal(loaded.x_coeffs, inst.x_coeffs)
    assert loaded.metadata["arcs"] == [list(a) for a in inst.metadata["arcs"]]
    assert loaded.var_names == inst.var_names


def test_omega_round_trips():
    specs = [
        OmegaSpec.interval([0.5, 1.0], [1.5, 2.0]),
        OmegaSpec.segment([2.0, 4.0], 0.25, 0.75),
        OmegaSpec.budgeted([1.0, 1.0], [0.5, 0.5], 0.7),
    ]
    for omega in specs:
        back = omega_from_dict(omega_to_dict(omega))
        assert back.kind == omega.kind
        assert np.allclose(back.upper_bound, omega.upper_bound)
        assert np.allclose(back.start_gamma, omega.start_gamma)
    with pytest.raises(ValueError):
        omega_from_dict({"kind": "ball"})


def test_result_round_trip():
    inst, _, omega2 = toy_instance(2)
    res = run_aq(inst, omega2, epsilon=0.0)
    d = result_to_dict(res, instance_path="toy.json")
    back = result_from_dict(d, instance=inst)
    assert back.mode == res.mode
    assert back.stop_reason == res.stop_reason
    assert back.distinct_x == res.distinct_x
    assert back.q_values == pytest.approx(res.q_values)
    assert np.array_equal(back.history[0].x, res.history[0].x)
    d2 = result_to_dict(back, instance_path="toy.json")
    assert dumps_canonical(d) == dumps_canonical(d2)
    with pytest.raises(ValueError):
        result_from_dict({"format": "other"})


def test_inf_sentinel_round_trip():
    inst, _, omega2 = toy_instance(2)
    res = run_aq(inst, omega2, epsilon=0.0)
    res.relative_error_bounds[0] = float("inf")
    d = result_to_dict(res)
    assert d["relative_error_bounds"][0] == "inf"
    dumps_canonical(d)  # stays valid strict JSON
    back = result_from_dict(d, instance=inst)
    assert np.isinf(back.relative_error_bounds[0])


def test_result_timing_totals_round_trip():
    inst = apply_partition(gen_sp(SpParams(10, seed=1)), PartitionScheme("r", 3), seed=1)
    from mprobust.generators import build_omega

    res = run_aq(inst, build_omega(inst, "interval", delta=0.5), epsilon=0.0)
    timing = result_to_dict(res)["timing"]
    assert list(timing) == ["elapsed", "seed_s", "table_s", "master_s"]
    assert res.table_s > 0.0 and res.seed_s > 0.0 and res.master_s > 0.0
    assert res.table_s + res.seed_s + res.master_s <= res.elapsed
    back = result_from_dict(result_to_dict(res), instance=inst)
    assert [back.elapsed, back.seed_s, back.table_s, back.master_s] == \
        [res.elapsed, res.seed_s, res.table_s, res.master_s]
    # a MILP-master run builds no table
    toy, _, omega2 = toy_instance(2)
    assert run_aq(toy, OmegaSpec.segment(omega2.upper), epsilon=0.0).table_s == 0.0


def test_result_with_selector_certificates_still_loads(tmp_path):
    # earlier result files carry a "w" key in every history record: null, or
    # the variant selector vector; they load, and verify passes on them
    from mprobust.cli import main

    inst, _, omega2 = toy_instance(2)
    res = run_aq(inst, omega2, epsilon=0.0, mode="variant")
    inst_path = tmp_path / "toy.json"
    save_json(instance_to_dict(inst), inst_path)
    d = result_to_dict(res, instance_path=str(inst_path))
    assert "w" not in d["history"][0]
    for i, h in enumerate(d["history"]):
        h["w"] = None if i == 0 else [float(v) for v in h["x"]]
    back = result_from_dict(d, instance=inst)
    assert [e.pi.tolist() for e in back.history] == [e.pi.tolist() for e in res.history]
    assert back.distinct_x == res.distinct_x
    path = tmp_path / "old.json"
    save_json(d, path)
    assert main(["verify", "--result", str(path)]) == 0
