"""Golden fingerprints of the generated benchmark families.

Each digest is a sha256 over the canonical JSON (``serialize.dumps_canonical``
of ``instance_to_dict``) of every generated instance in a fixed sweep.  A
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
