"""Golden hashes of the cold tensor build.

HiCOO and gHiCOO arrays and the roofline features of four paper tensors,
pinned when every build sort was still a timsort or lexsort.  A faster
sort must reproduce them bit for bit; if one fails, the build's entry
order or block layout changed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets.surrogate import make_surrogate
from repro.generate.registry import get_synthetic
from repro.roofline.oi import extract_features
from repro.sptensor.ghicoo import GHiCOOTensor
from repro.sptensor.hicoo import HiCOOTensor


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def build_hashes(name: str) -> dict:
    if name in ("choa", "vast"):
        t = make_surrogate(name, scale=1000.0, seed=0)
    else:
        t = get_synthetic(name).generate(scale=1000.0, seed=0)
    coo = t.copy().sort()
    out = {"coo": digest(coo.indices, coo.values)}
    for b in (8, 32, 128):
        h = HiCOOTensor.from_coo(coo, b)
        out[f"hicoo{b}"] = digest(h.bptr, h.binds, h.einds, h.values)
    for m in range(coo.nmodes):
        comp = tuple(d for d in range(coo.nmodes) if d != m)
        g = GHiCOOTensor.from_coo(coo, 128, comp)
        out[f"ghicoo{m}"] = digest(g.bptr, g.binds, g.einds, g.cinds, g.values)
    feats = repr(extract_features(coo, name))
    out["features"] = hashlib.sha256(feats.encode()).hexdigest()[:16]
    return out


GOLDEN = {
    "choa": {
        "coo": "bb800089b2efad43",
        "hicoo8": "296450405d10f13b",
        "hicoo32": "efbaf6f2fd618228",
        "hicoo128": "5ffe08ff3c07dd40",
        "ghicoo0": "c886433e657d1dae",
        "ghicoo1": "2a0beb96b7866f2d",
        "ghicoo2": "1c77cca7fdc3000b",
        "features": "451652adff189990",
    },
    "vast": {
        "coo": "f1834d44fd056204",
        "hicoo8": "dab29633120b7010",
        "hicoo32": "7fef609afa818782",
        "hicoo128": "5ad2df346991df32",
        "ghicoo0": "48d8cf583266853c",
        "ghicoo1": "cd85475709daeb92",
        "ghicoo2": "56f2b1791f4d09a3",
        "features": "650022b1f43c1d8e",
    },
    "regM": {
        "coo": "810942915561a817",
        "hicoo8": "aa1bcf67a4768313",
        "hicoo32": "5c53918c46f37d15",
        "hicoo128": "f5a3b75f8bcd9956",
        "ghicoo0": "f6e7649d733584d8",
        "ghicoo1": "b0cea9b80246afa3",
        "ghicoo2": "bee18d57646d110c",
        "features": "c334b38a44cdde1a",
    },
    "irrM": {
        "coo": "519d9480a3c2b23c",
        "hicoo8": "96ef97a3dd6b718c",
        "hicoo32": "8c6da38c8ff7e3d9",
        "hicoo128": "1d7c90c530211432",
        "ghicoo0": "a000339066695cbf",
        "ghicoo1": "eaa889958c53c3b4",
        "ghicoo2": "4b07446826c75eb2",
        "features": "e2764f265ad07756",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_build_is_bit_identical(name):
    assert build_hashes(name) == GOLDEN[name]
