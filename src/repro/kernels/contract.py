"""Sparse tensor contraction kernels and **output-access contracts**.

Two kinds of "contract" live here.  The first half of the module declares
the *output-access contracts* of the parallel kernels — the small
annotation the race-check harness validates.  The second half implements
the binary sparse *tensor contraction* (and sparse-operand Ttv/Ttm), which
is on the paper's future-work list ("additional operations, such as ...
tensor contraction, a sparse tensor with a sparse vector/matrix
operations"); Ttm is the dense-operand special case of that contraction.

Output-access contracts
-----------------------
Every parallel kernel's race-freedom rests on a claim about how its chunk
decomposition writes the shared output.  :class:`Access` names the two
disciplines the suite uses, kernels declare theirs with the
:func:`declares_output` decorator (per update ``method`` where the
strategy is selectable), and
:class:`~repro.parallel.racecheck.RaceCheckBackend` replays the
decomposition and verifies the claim.  See the module docstring of
``repro.parallel.racecheck`` for what each kind promises.

Tensor contraction
------------------
The binary contraction ``Z = contract(X, Y, modes_x, modes_y)`` matches
non-zeros of ``X`` and ``Y`` on the contracted coordinates (a sort-merge
join on linearized keys), multiplies the matched values, and coalesces the
free-coordinate products.  Output order is ``free(X) ++ free(Y)``, as in
``numpy.tensordot``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.sptensor.coo import COOTensor
from repro.util.sorting import stable_argsort
from repro.util.validation import check_mode


class Access(str, enum.Enum):
    """How a kernel's chunks write their shared output.

    ``OWNER``
        Chunks own disjoint contiguous output ranges (owner-computes);
        no two chunks may touch the same element.
    ``DISJOINT``
        Chunks write disjoint output elements by construction (fiber- or
        element-parallel loops; per-nnz disjointness).
    """

    OWNER = "owner"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class OutputContract:
    """A kernel's declared output-access discipline.

    ``access`` is either a single :class:`Access` (the kernel has one
    strategy) or a mapping from the kernel's ``method`` argument values to
    the :class:`Access` each method's chunks write under.
    """

    kernel: str
    access: "Access | Mapping[str, Access]"

    def resolve(self, method: "str | None" = None) -> Access:
        """The access kind for ``method`` (or the single declared kind)."""
        if isinstance(self.access, Access):
            return self.access
        if method is None:
            raise ValueError(
                f"kernel {self.kernel!r} declares per-method contracts "
                f"{sorted(self.access)}; pass method="
            )
        try:
            return self.access[method]
        except KeyError:
            raise ValueError(
                f"kernel {self.kernel!r} has no contract for method "
                f"{method!r}; declared: {sorted(self.access)}"
            ) from None

    @property
    def methods(self) -> "tuple[str, ...] | None":
        """Method names with distinct contracts (``None`` if single)."""
        if isinstance(self.access, Access):
            return None
        return tuple(sorted(self.access))


_CONTRACTS: dict[str, OutputContract] = {}


def declares_output(access=None, *, by_method=None, name=None):
    """Decorator annotating a kernel with its output-access contract.

    Either ``access`` (one :class:`Access` for the kernel) or
    ``by_method`` (a ``{method: Access}`` mapping for kernels whose
    strategy is selected by a ``method`` argument) must be given.  The
    contract is attached as ``fn.__output_contract__`` and registered
    under the kernel's name for harness discovery.
    """
    if (access is None) == (by_method is None):
        raise ValueError("declares_output needs exactly one of access/by_method")
    if by_method is not None:
        spec = MappingProxyType(
            {str(k): Access(v) for k, v in dict(by_method).items()}
        )
    else:
        spec = Access(access)

    def deco(fn):
        contract = OutputContract(kernel=name or fn.__name__, access=spec)
        fn.__output_contract__ = contract
        _CONTRACTS[contract.kernel] = contract
        return fn

    return deco


def output_contract(kernel) -> OutputContract:
    """Look up a registered contract by kernel name or decorated function."""
    contract = getattr(kernel, "__output_contract__", None)
    if contract is not None:
        return contract
    try:
        return _CONTRACTS[str(kernel)]
    except KeyError:
        raise KeyError(
            f"no output contract registered for {kernel!r}; "
            f"registered: {sorted(_CONTRACTS)}"
        ) from None


def registered_contracts() -> dict[str, OutputContract]:
    """Snapshot of every registered kernel contract."""
    return dict(_CONTRACTS)


def _linear_key(indices: np.ndarray, shape: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    key = np.zeros(indices.shape[0], dtype=np.int64)
    for c in cols:
        key = key * np.int64(shape[c]) + indices[:, c].astype(np.int64)
    return key


def sparse_contract(
    x: COOTensor,
    y: COOTensor,
    modes_x: Sequence[int],
    modes_y: Sequence[int],
) -> COOTensor:
    """General sparse x sparse contraction over matching mode pairs.

    ``modes_x[i]`` of ``X`` contracts against ``modes_y[i]`` of ``Y``
    (dimension sizes must agree).  Returns a coalesced COO tensor over the
    free modes of ``X`` followed by the free modes of ``Y``.

    Complexity: a sort-merge join — ``O(Mx log Mx + My log My + P)`` where
    ``P`` is the number of matched pairs (the join's natural output size).
    """
    modes_x = [check_mode(m, x.nmodes) for m in modes_x]
    modes_y = [check_mode(m, y.nmodes) for m in modes_y]
    if len(modes_x) != len(modes_y):
        raise ShapeError("modes_x and modes_y must pair up")
    if len(set(modes_x)) != len(modes_x) or len(set(modes_y)) != len(modes_y):
        raise ShapeError("contracted modes must be distinct")
    for mx, my in zip(modes_x, modes_y):
        if x.shape[mx] != y.shape[my]:
            raise ShapeError(
                f"contracted dims differ: X mode {mx} has {x.shape[mx]}, "
                f"Y mode {my} has {y.shape[my]}"
            )
    free_x = [m for m in range(x.nmodes) if m not in modes_x]
    free_y = [m for m in range(y.nmodes) if m not in modes_y]
    out_shape = tuple(x.shape[m] for m in free_x) + tuple(
        y.shape[m] for m in free_y
    )
    if not out_shape:
        raise ShapeError(
            "full contraction yields a scalar; use sparse_inner instead"
        )
    dtype = np.result_type(x.values, y.values)
    if x.nnz == 0 or y.nnz == 0:
        return COOTensor.empty(out_shape, dtype=dtype)

    kx = _linear_key(x.indices, x.shape, modes_x)
    ky = _linear_key(y.indices, y.shape, modes_y)
    ox, oy = stable_argsort(kx), stable_argsort(ky)
    kx, ky = kx[ox], ky[oy]
    # Join: for each X entry, the contiguous run of matching Y entries.
    lo = np.searchsorted(ky, kx, side="left")
    hi = np.searchsorted(ky, kx, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return COOTensor.empty(out_shape, dtype=dtype)
    x_rep = np.repeat(np.arange(x.nnz), counts)
    # y positions: for each x entry, the run lo..hi
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    y_pos = np.repeat(lo, counts) + (np.arange(total) - np.repeat(offsets, counts))
    xi = ox[x_rep]
    yi = oy[y_pos]
    vals = x.values[xi].astype(dtype) * y.values[yi].astype(dtype)
    coords = np.empty((total, len(out_shape)), dtype=np.int64)
    for j, m in enumerate(free_x):
        coords[:, j] = x.indices[xi, m].astype(np.int64)
    for j, m in enumerate(free_y):
        coords[:, len(free_x) + j] = y.indices[yi, m].astype(np.int64)
    out = COOTensor(out_shape, coords, vals, copy=False, check=False)
    return out.coalesce()


def sparse_inner(x: COOTensor, y: COOTensor) -> float:
    """Full contraction ``<X, Y>`` (all modes paired in order)."""
    if x.shape != y.shape:
        raise ShapeError(f"inner product needs equal shapes: {x.shape} vs {y.shape}")
    kx = _linear_key(x.indices, x.shape, range(x.nmodes))
    ky = _linear_key(y.indices, y.shape, range(y.nmodes))
    ox, oy = stable_argsort(kx), stable_argsort(ky)
    common, ix, iy = np.intersect1d(kx[ox], ky[oy], return_indices=True)
    if len(common) == 0:
        return 0.0
    return float(
        (x.values[ox][ix].astype(np.float64) * y.values[oy][iy].astype(np.float64)).sum()
    )


def sparse_ttv(
    x: COOTensor,
    v_indices: np.ndarray,
    v_values: np.ndarray,
    mode: int,
) -> COOTensor:
    """Ttv with a *sparse* vector: only fibers hitting stored vector
    entries contribute (intersection semantics on the contracted mode)."""
    mode = check_mode(mode, x.nmodes)
    v_indices = np.asarray(v_indices, dtype=np.int64).reshape(-1)
    v_values = np.asarray(v_values).reshape(-1)
    if len(v_indices) != len(v_values):
        raise ShapeError("sparse vector indices/values must align")
    if len(v_indices) and (
        v_indices.min() < 0 or v_indices.max() >= x.shape[mode]
    ):
        raise ShapeError("sparse vector index out of range")
    v = COOTensor(
        (x.shape[mode],), v_indices.reshape(-1, 1), v_values, check=False
    )
    return sparse_contract(x, v, [mode], [0])


def sparse_ttm(
    x: COOTensor,
    u: COOTensor,
    mode: int,
) -> COOTensor:
    """Ttm with a *sparse* matrix ``U`` (stored as a 2-mode COO tensor,
    rows indexed by the contracted mode).  The output R-mode lands last;
    permute if the dense-Ttm mode placement is needed."""
    mode = check_mode(mode, x.nmodes)
    if u.nmodes != 2:
        raise ShapeError("sparse Ttm operand must be a 2-mode tensor")
    if u.shape[0] != x.shape[mode]:
        raise ShapeError(
            f"matrix rows {u.shape[0]} must match mode {mode} size {x.shape[mode]}"
        )
    return sparse_contract(x, u, [mode], [0])
