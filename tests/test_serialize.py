"""Canonical JSON round-trips, and the canonical writer against ``json.dumps``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mprobust.engine import Budget, run_aq
from mprobust.generators import (
    PartitionScheme, PlmParams, SpParams, apply_partition, build_omega, gen_plm, gen_sp,
)
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


def _reference(d) -> str:
    return json.dumps(d, indent=2, allow_nan=False) + "\n"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                                1e16, -1e16, 1e22, 1.7976931348623157e308, 0.1, 1.0])
_STRINGS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"quoted"', "back\\slash", "\x00\x08\t\n\r\x1f\x7f", "é中ü😀",
                     "\u2028\u2029", "\ud800", "/"]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    _FINITE, _EDGE_FLOATS, _FINITE.map(np.float64), _STRINGS)
_KEYS = st.one_of(_STRINGS, st.integers(), _FINITE, st.booleans(), st.none())
_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5),
    st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=5),
    # homogeneous rows, as the writers emit them
    st.lists(st.one_of(_FINITE, _EDGE_FLOATS), max_size=8),
    st.lists(st.integers(), max_size=8),
    st.lists(st.booleans(), max_size=4),
), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_dumps_canonical_is_json_dumps(d):
    assert dumps_canonical(d) == _reference(d)


def test_dumps_canonical_on_written_dicts(tmp_path):
    """Instances of every family and results of every mode and domain kind
    write json.dumps' bytes, and load -> save keeps them."""
    sp = apply_partition(gen_sp(SpParams(8, seed=1)), PartitionScheme("d", 2), seed=1)
    plm = apply_partition(gen_plm(PlmParams(3, 2, seed=0)), PartitionScheme("lo", 2), seed=0)
    dicts = [instance_to_dict(inst) for inst in (sp, plm, toy_instance(3)[0])]
    for mode in ("standard", "tu_relaxed", "variant"):
        for kind in ("interval", "segment", "budgeted"):
            omega = build_omega(sp, kind, delta=0.5)
            res = run_aq(sp, omega, epsilon=0.0, mode=mode, budget=Budget(max_iters=3))
            dicts.append(result_to_dict(res, instance_path="sp.json"))
            dicts.append(omega_to_dict(omega))
    path = tmp_path / "out.json"
    for d in dicts:
        text = dumps_canonical(d)
        assert text == _reference(d)
        save_json(d, path)
        assert path.read_text() == text
        save_json(load_json(path), path)
        assert path.read_text() == text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_dumps_canonical_rejects_nonfinite_floats(bad):
    for d in ({"v": bad}, {"v": [1.0, 2.0, bad]}, {"v": [1, "a", bad]}, {bad: 1}):
        with pytest.raises(ValueError) as want:
            _reference(d)
        with pytest.raises(ValueError) as got:
            dumps_canonical(d)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("d", [{"v": np.int64(1)}, {"v": [1, np.int64(2)]},
                               {"v": [np.bool_(True)]}, {"v": {1, 2}},
                               {(1, 2): 1}, {"v": np.zeros(2)}])
def test_dumps_canonical_rejects_unsupported_objects(d):
    with pytest.raises(TypeError) as want:
        _reference(d)
    with pytest.raises(TypeError) as got:
        dumps_canonical(d)
    assert str(got.value) == str(want.value)
