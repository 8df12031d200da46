"""Canonical JSON round-trips for instances, domains, and run results.

Field order is fixed by the writers (load -> save is byte-identical);
floats go through Python's shortest round-trip repr, so no precision is
lost.  Infinities in the relative-bound column are stored as the string
"inf".

The canonical bytes are those of ``json.dumps(d, indent=2,
allow_nan=False) + "\n"``.  ``dumps_canonical`` writes them itself, because
``json.dumps`` leaves its C encoder whenever ``indent`` is set and then
formats every float of a result in Python; ``tests/test_serialize.py``
pins the equality and ``tests/test_fingerprint.py`` the generated families.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .engine import HistoryEntry, MprsResult
from .milp import _SENSE_FROM_STR, _SENSE_TO_STR
from .uncertainty import Instance, OmegaSpec

RESULT_FORMAT = "mprs-result-v1"


def _floats(a) -> list:
    return np.asarray(a, dtype=float).ravel().tolist()


def instance_to_dict(inst: Instance) -> dict:
    md = dict(inst.metadata)
    if inst.var_names is not None:
        md["var_names"] = list(inst.var_names)
    return {
        "kind": inst.kind,
        "n": inst.n,
        "K": inst.num_groups,
        "c_lower": _floats(inst.c_lower),
        "deviations": _floats(inst.deviations),
        "partition": [list(g) for g in inst.groups],
        "constraints": {
            "rows": [_floats(r) for r in inst.x_coeffs],
            "senses": [_SENSE_TO_STR[int(s)] for s in inst.x_senses],
            "rhs": _floats(inst.x_rhs),
        },
        "metadata": md,
    }


def instance_from_dict(d: dict) -> Instance:
    md = dict(d.get("metadata", {}))
    md.setdefault("kind", d.get("kind", "CUSTOM"))
    names = md.pop("var_names", None)
    n = int(d["n"])
    cons = d.get("constraints", {})
    rows = np.asarray(cons.get("rows", []), dtype=float).reshape(-1, n)
    senses = np.asarray([_SENSE_FROM_STR[s] for s in cons.get("senses", [])],
                        dtype=np.int8)
    return Instance(
        c_lower=np.asarray(d["c_lower"], dtype=float),
        deviations=np.asarray(d["deviations"], dtype=float),
        groups=tuple(tuple(int(j) for j in g) for g in d["partition"]),
        x_coeffs=rows,
        x_senses=senses,
        x_rhs=np.asarray(cons.get("rhs", []), dtype=float),
        metadata=md,
        var_names=None if names is None else tuple(names))


def omega_to_dict(omega: OmegaSpec) -> dict:
    if omega.kind == "interval":
        return {"kind": "interval", "lower": _floats(omega.lower),
                "upper": _floats(omega.upper)}
    if omega.kind == "segment":
        return {"kind": "segment", "gamma0": _floats(omega.gamma0),
                "alpha_lo": float(omega.alpha_lo), "alpha_hi": float(omega.alpha_hi)}
    return {"kind": "budgeted", "gamma_base": _floats(omega.gamma_base),
            "spread": _floats(omega.spread), "budget": float(omega.budget)}


def omega_from_dict(d: dict) -> OmegaSpec:
    kind = d["kind"]
    if kind == "interval":
        return OmegaSpec.interval(d["lower"], d["upper"])
    if kind == "segment":
        return OmegaSpec.segment(d["gamma0"], d.get("alpha_lo", 0.0),
                                 d.get("alpha_hi", 1.0))
    if kind == "budgeted":
        return OmegaSpec.budgeted(d["gamma_base"], d["spread"], d["budget"])
    raise ValueError(f"unknown omega kind {kind!r}")


def _bound_out(v: float):
    return "inf" if np.isinf(v) else float(v)


def _bound_in(v) -> float:
    return float("inf") if v == "inf" else float(v)


def result_to_dict(res: MprsResult, instance_path: Optional[str] = None,
                   epsilon_mode: Optional[dict] = None) -> dict:
    return {
        "format": RESULT_FORMAT,
        "mode": res.mode,
        "instance_kind": None if res.instance is None else res.instance.kind,
        "epsilon": float(res.epsilon),
        "epsilon_mode": epsilon_mode or {"kind": "absolute", "value": float(res.epsilon)},
        "instance_path": instance_path,
        "omega": omega_to_dict(res.omega),
        "gamma_init": _floats(res.gamma_init),
        "init_value": float(res.init_value),
        "stop_reason": res.stop_reason,
        "iterations": res.iterations,
        "q_values": _floats(res.q_values),
        "relative_error_bounds": [_bound_out(v) for v in res.relative_error_bounds],
        "first_bound_pct": _bound_out(res.first_bound_pct),
        "distinct_count": res.num_distinct,
        "distinct_x": [list(t) for t in res.distinct_x],
        "distinct_signatures": [list(t) for t in res.distinct_signatures],
        "history": [
            {
                "pi": _floats(e.pi),
                "rho": _floats(e.rho),
                "x": _floats(e.x),
                "gamma": _floats(e.gamma),
                "q_value": None if e.q_value is None else float(e.q_value),
            }
            for e in res.history
        ],
        "timing": {"elapsed": float(res.elapsed), "seed_s": float(res.seed_s),
                   "table_s": float(res.table_s), "master_s": float(res.master_s)},
    }


def result_from_dict(d: dict, instance: Optional[Instance] = None) -> MprsResult:
    if d.get("format") != RESULT_FORMAT:
        raise ValueError("not a result file")
    timing = d.get("timing", {})
    history = [
        HistoryEntry(
            pi=np.asarray(h["pi"], dtype=float),
            rho=np.asarray(h["rho"], dtype=float),
            x=np.asarray(h["x"], dtype=float),
            gamma=np.asarray(h["gamma"], dtype=float),
            q_value=h.get("q_value"))
        for h in d["history"]
    ]
    return MprsResult(
        history=history,
        q_values=[float(v) for v in d["q_values"]],
        epsilon=float(d["epsilon"]),
        stop_reason=d["stop_reason"],
        mode=d["mode"],
        omega=omega_from_dict(d["omega"]),
        gamma_init=np.asarray(d["gamma_init"], dtype=float),
        init_value=float(d["init_value"]),
        relative_error_bounds=[_bound_in(v) for v in d["relative_error_bounds"]],
        distinct_x=[tuple(int(v) for v in t) for t in d["distinct_x"]],
        distinct_signatures=[tuple(int(v) for v in t) for t in d["distinct_signatures"]],
        elapsed=float(timing.get("elapsed", 0.0)),
        seed_s=float(timing.get("seed_s", 0.0)),
        table_s=float(timing.get("table_s", 0.0)),
        master_s=float(timing.get("master_s", 0.0)),
        instance=instance)


def _float_text(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(v))
    return float.__repr__(v)


def _key_text(k) -> str:
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _encode(k, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _encode(o, indent: str) -> str:
    """``o`` as ``json.dumps(o, indent=2, allow_nan=False)`` writes it at
    nesting ``indent``; the type tests run in ``json.encoder``'s order."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        kinds = set(map(type, o))
        if kinds == {float}:
            if not all(map(math.isfinite, o)):
                for v in o:
                    _float_text(v)
            body = sep.join(map(float.__repr__, o))
        elif kinds == {int}:
            body = sep.join(map(int.__repr__, o))
        else:
            body = sep.join([_encode(v, inner) for v in o])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([_key_text(k) + ": " + _encode(v, inner)
                                     for k, v in o.items()])
        return "{\n" + inner + body + "\n" + indent + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps_canonical(d: dict) -> str:
    """``json.dumps(d, indent=2, allow_nan=False) + "\\n"``, byte for byte."""
    return _encode(d, "") + "\n"


def save_json(d: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(d))


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
