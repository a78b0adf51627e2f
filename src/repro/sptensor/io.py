"""Tensor file I/O: FROSTT ``.tns`` text format and a fast binary format.

The FROSTT convention is one non-zero per line — N whitespace-separated
**1-based** indices followed by the value — with optional ``#`` comments.
The dimension sizes are not stored in the file; readers either accept them
explicitly or infer them from the maximum index per mode (FROSTT's own
convention).  The binary format is an ``.npz`` bundle that round-trips the
exact arrays, used to cache generated datasets between benchmark runs.
"""

from __future__ import annotations

import io as _io
import os
from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.sptensor.coo import COOTensor


def write_tns(tensor: COOTensor, path) -> None:
    """Write a COO tensor in FROSTT ``.tns`` format (1-based indices)."""
    inds = tensor.indices.astype(np.int64) + 1
    with open(path, "w") as fh:
        fh.write(f"# shape: {' '.join(str(s) for s in tensor.shape)}\n")
        for row, val in zip(inds, tensor.values):
            fh.write(" ".join(str(int(i)) for i in row))
            fh.write(f" {float(val):.9g}\n")


def read_tns(path, shape: Sequence[int] | None = None) -> COOTensor:
    """Read a FROSTT ``.tns`` file.

    If ``shape`` is omitted, it is recovered from a ``# shape:`` header
    comment when present, otherwise inferred as the per-mode maximum index.
    """
    header_shape: tuple[int, ...] | None = None
    rows: list[list[float]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("shape:"):
                    header_shape = tuple(
                        int(tok) for tok in body[len("shape:"):].split()
                    )
                continue
            rows.append([float(tok) for tok in line.split()])
    if not rows:
        if shape is None and header_shape is None:
            raise ShapeError(f"empty .tns file {path} and no shape given")
        return COOTensor.empty(shape or header_shape)
    arr = np.asarray(rows, dtype=np.float64)
    ncols = arr.shape[1]
    if ncols < 2:
        raise ShapeError(f"malformed .tns line with {ncols} fields in {path}")
    inds = arr[:, :-1].astype(np.int64) - 1
    vals = arr[:, -1].astype(np.float32)
    if (inds < 0).any():
        raise ShapeError(f"{path} contains zero or negative 1-based indices")
    if shape is None:
        shape = header_shape or tuple(int(x) + 1 for x in inds.max(axis=0))
    if len(shape) != ncols - 1:
        raise ShapeError(
            f"shape {shape} has {len(shape)} modes but file has {ncols - 1}"
        )
    return COOTensor(shape, inds, vals, copy=False)


def save_npz(tensor: COOTensor, path) -> None:
    """Save a COO tensor to the binary ``.npz`` cache format."""
    np.savez_compressed(
        path,
        shape=np.asarray(tensor.shape, dtype=np.int64),
        indices=tensor.indices,
        values=tensor.values,
    )


def load_npz(path) -> COOTensor:
    """Load a COO tensor written by :func:`save_npz`."""
    with np.load(path) as data:
        return COOTensor(
            tuple(int(s) for s in data["shape"]),
            data["indices"],
            data["values"],
            copy=True,
        )


def save_hicoo_npz(tensor, path) -> None:
    """Cache a HiCOO tensor (conversion is the expensive step for big
    tensors; benchmark drivers reload instead of re-blocking)."""
    np.savez_compressed(
        path,
        kind=np.asarray("hicoo"),
        shape=np.asarray(tensor.shape, dtype=np.int64),
        block_size=np.asarray(tensor.block_size, dtype=np.int64),
        bptr=tensor.bptr,
        binds=tensor.binds,
        einds=tensor.einds,
        values=tensor.values,
    )


def load_hicoo_npz(path):
    """Load a HiCOO tensor written by :func:`save_hicoo_npz`."""
    from repro.sptensor.hicoo import HiCOOTensor

    with np.load(path) as data:
        if str(data["kind"]) != "hicoo":
            raise ShapeError(f"{path} is not a HiCOO cache file")
        return HiCOOTensor(
            tuple(int(s) for s in data["shape"]),
            int(data["block_size"]),
            data["bptr"],
            data["binds"],
            data["einds"],
            data["values"],
        )


def save_csf_npz(tensor, path) -> None:
    """Cache a CSF tensor (tree arrays flattened per level)."""
    payload = {
        "kind": np.asarray("csf"),
        "shape": np.asarray(tensor.shape, dtype=np.int64),
        "mode_order": np.asarray(tensor.mode_order, dtype=np.int64),
        "values": tensor.values,
        "nlevels": np.asarray(tensor.nmodes, dtype=np.int64),
    }
    for lvl, fids in enumerate(tensor.fids):
        payload[f"fids{lvl}"] = fids
    for lvl, fptr in enumerate(tensor.fptr):
        payload[f"fptr{lvl}"] = fptr
    np.savez_compressed(path, **payload)


def load_csf_npz(path):
    """Load a CSF tensor written by :func:`save_csf_npz`."""
    from repro.sptensor.csf import CSFTensor

    with np.load(path) as data:
        if str(data["kind"]) != "csf":
            raise ShapeError(f"{path} is not a CSF cache file")
        n = int(data["nlevels"])
        return CSFTensor(
            tuple(int(s) for s in data["shape"]),
            tuple(int(m) for m in data["mode_order"]),
            [data[f"fptr{lvl}"] for lvl in range(n - 1)],
            [data[f"fids{lvl}"] for lvl in range(n)],
            data["values"],
        )


def tns_dumps(tensor: COOTensor) -> str:
    """Render the ``.tns`` text for a tensor (testing/debug aid)."""
    buf = _io.StringIO()
    inds = tensor.indices.astype(np.int64) + 1
    buf.write(f"# shape: {' '.join(str(s) for s in tensor.shape)}\n")
    for row, val in zip(inds, tensor.values):
        buf.write(" ".join(str(int(i)) for i in row))
        buf.write(f" {float(val):.9g}\n")
    return buf.getvalue()


def ensure_dir(path) -> None:
    """Create the directory for ``path`` if missing (benchmark cache aid)."""
    d = os.path.dirname(os.fspath(path))
    if d:
        os.makedirs(d, exist_ok=True)
