"""Golden fingerprints of the generated benchmark families and of the
standard masters built on them.

Each family digest is a sha256 over the canonical JSON
(``serialize.dumps_canonical`` of ``instance_to_dict``) of every generated
instance in a fixed sweep.  A
partitioned instance differs from its base only in ``K`` and ``partition``
(checked on every one), so the digest takes the base's JSON once and then
the canonical JSON of those two fields per partition.  A generator that
draws, orders or rounds anything differently changes the digest: these
tests pin the "bit-for-bit" promise of the README.  A sweep point whose
generator raises contributes the exception's type and message instead (SP
instances on three nodes never connect the farthest pair: ``GenerationError``).
"""

import hashlib

from mprobust.generators import (
    PartitionScheme, PlmParams, SpParams, apply_partition, gen_plm, gen_sp,
)
from mprobust.serialize import dumps_canonical, instance_to_dict

SP_NODES = range(2, 31)
SP_SEEDS = (0, 1, 2)
SP_KS = (1, 2, 4, 7)
PLM_LS = (1, 2, 3, 5, 8, 12)
PLM_SEEDS = (0, 3)
PLM_KS = (1, 2, 5)

SP_DIGEST = "d5334937952583c638dea704abb372a70bd13e93ee0c15d546539b64a21a93ac"
PLM_DIGEST = "8a3085f499ec5b84d155bc0e7648d56e9339b9e3a260259cab4ba89907433e1f"


def _family_digest(bases, schemes, Ks) -> str:
    h = hashlib.sha256()
    for build, seed in bases:
        try:
            base = build()
        except RuntimeError as exc:
            h.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        base_dict = instance_to_dict(base)
        h.update(dumps_canonical(base_dict).encode())
        for kind in schemes:
            for K in Ks:
                inst = apply_partition(base, PartitionScheme(kind, K), seed=seed)
                d = instance_to_dict(inst)
                grouping = {"K": d.pop("K"), "partition": d.pop("partition")}
                assert d == {k: v for k, v in base_dict.items() if k not in grouping}
                h.update(dumps_canonical(grouping).encode())
    return h.hexdigest()


def sp_digest() -> str:
    bases = [(lambda V=V, s=s: gen_sp(SpParams(V, seed=s)), s)
             for V in SP_NODES for s in SP_SEEDS]
    return _family_digest(bases, "rpd", SP_KS)


def plm_digest() -> str:
    bases = [(lambda l=l, p=p, s=s: gen_plm(PlmParams(l, p, seed=s)), s)
             for l in PLM_LS for p in sorted({1, max(1, l // 2), l}) for s in PLM_SEEDS]
    return _family_digest(bases, ("lo", "g"), PLM_KS)


def test_sp_fingerprint():
    assert sp_digest() == SP_DIGEST


def test_plm_fingerprint():
    assert plm_digest() == PLM_DIGEST


# Standard masters (``build_q_general`` on each domain kind, and
# ``build_q_interval``) on seed-0 SP instances whose K lies in the pattern
# table's range, so every stored entry comes from the table and no MILP
# solver's answer enters a digest.  Histories hold the robust optima at the
# domain's start vector, then also at its upper bound and their midpoint.
MASTER_SP_NODES = (10, 12)
MASTER_KS = range(4, 10)

MASTER_DIGEST = "9dddf86db1fa074ec9bffb59a1170da55e8714f08e0f02a65d17f2f774b479c2"


def _model_bytes(model) -> bytes:
    arrays = (model.objective, model.lower, model.upper, model.is_binary,
              model.row_coeffs, model.row_senses, model.row_rhs)
    out = [f"{model.name} {model.maximize}\n".encode()]
    for a in arrays:
        out += [f"{a.dtype.str}{a.shape}".encode(), a.tobytes()]
    out.append("\n".join(model.var_names).encode())
    for name, idx in model.blocks.items():
        out += [f"\n{name}:".encode(), idx.tobytes()]
    return b"".join(out)


def master_digest() -> str:
    from mprobust.engine import HistoryEntry, build_q_general, build_q_interval
    from mprobust.generators import build_omega
    from mprobust.robust import solve_robust

    def history(inst, omega, size):
        lo, hi = omega.start_gamma, omega.upper_bound
        out = []
        for g in [lo, hi, 0.5 * (lo + hi)][:size]:
            sol = solve_robust(inst, g)
            out.append(HistoryEntry(pi=sol.pi, rho=sol.rho, x=sol.x, gamma=g))
        return out

    h = hashlib.sha256()
    for V in MASTER_SP_NODES:
        base = gen_sp(SpParams(V, seed=0))
        for K in MASTER_KS:
            inst = apply_partition(base, PartitionScheme("r", K), seed=0)
            omegas = [build_omega(inst, "interval", delta=0.5), build_omega(inst, "segment"),
                      build_omega(inst, "budgeted", delta=1.0)]
            for size in (1, 3):
                for omega in omegas:
                    h.update(_model_bytes(build_q_general(inst, omega,
                                                          history(inst, omega, size))))
                h.update(_model_bytes(build_q_interval(inst, omegas[0],
                                                       history(inst, omegas[0], size))))
    return h.hexdigest()


def test_standard_master_fingerprint():
    assert master_digest() == MASTER_DIGEST
