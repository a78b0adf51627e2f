"""Streaming tensor accumulation (FireHose-style ingestion).

The paper's power-law generator descends from the FireHose *streaming*
benchmarks, where a front-end generator emits an unbounded event stream
and the system under test accumulates state.  This module provides the
accumulation side: a builder that consumes ``(coords, values)`` batches
(duplicates sum, as repeated events increment a key's weight) with bounded
staging memory, and a sliding-window variant that expires old events —
the streaming analytics pattern (anomaly detection over time windows) the
paper's application list motivates.

Both containers validate a batch *at push time*: out-of-bounds
coordinates raise on the offending ``push`` call (not on some later
merge, far from the bug), and integer/bool values are coerced to the
suite's value dtype immediately so staged batches concatenate without
surprise promotions.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.sptensor.coo import COOTensor
from repro.types import VALUE_DTYPE
from repro.util.validation import check_indices_in_bounds, check_shape

def validate_batch(
    shape: Sequence[int], coords: np.ndarray, values: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Validate and normalize one streamed ``(coords, values)`` batch.

    Checks alignment and coordinate bounds *here*, at the push site, and
    returns defensive copies: ``coords`` as int64 and ``values`` coerced
    to a floating dtype (:data:`~repro.types.VALUE_DTYPE` for
    integer/bool input), so the caller's arrays can be reused or mutated
    without corrupting staged state.
    """
    coords = np.asarray(coords)
    values = np.asarray(values)
    if coords.ndim != 2 or coords.shape[1] != len(shape):
        raise ShapeError(
            f"coords must be (n, {len(shape)}), got {coords.shape}"
        )
    if values.ndim != 1 or len(values) != len(coords):
        raise ShapeError("coords and values must align")
    check_indices_in_bounds(coords, shape)
    coords = coords.astype(np.int64, copy=True)
    if np.issubdtype(values.dtype, np.floating):
        values = values.copy()
    else:
        values = values.astype(VALUE_DTYPE)
    return coords, values


class StreamingTensorBuilder:
    """Accumulate a sparse tensor from a stream of coordinate batches.

    Batches are staged and merged (coalesced) whenever the staging area
    exceeds ``merge_threshold`` entries, keeping memory bounded near the
    size of the accumulated tensor rather than the stream length.

    >>> b = StreamingTensorBuilder((4, 4))
    >>> b.push(np.array([[0, 0], [0, 0]]), np.array([1.0, 2.0]))
    >>> b.finish().to_dense()[0, 0]
    3.0
    """

    def __init__(self, shape: Sequence[int], merge_threshold: int = 1 << 18):
        self.shape = check_shape(shape)
        self.merge_threshold = int(merge_threshold)
        self._staged_coords: list[np.ndarray] = []
        self._staged_values: list[np.ndarray] = []
        self._staged_count = 0
        self._merged: COOTensor | None = None
        self.events_seen = 0
        self.merges = 0

    def push(self, coords: np.ndarray, values: np.ndarray) -> None:
        """Ingest one batch of events (validated and coerced here)."""
        coords, values = validate_batch(self.shape, coords, values)
        self._staged_coords.append(coords)
        self._staged_values.append(values)
        self._staged_count += len(values)
        self.events_seen += len(values)
        if self._staged_count >= self.merge_threshold:
            self._merge()

    def consume(self, stream: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
        """Ingest an entire generator of batches (e.g. ``powerlaw_stream``)."""
        for coords, values in stream:
            self.push(coords, values)

    def _merge(self) -> None:
        if not self._staged_coords:
            return
        coords = np.concatenate(self._staged_coords, axis=0)
        values = np.concatenate(self._staged_values)
        fresh = COOTensor(self.shape, coords, values, copy=False, check=False)
        if self._merged is None:
            self._merged = fresh.coalesce()
        else:
            from repro.kernels.tew import coo_tew

            self._merged = coo_tew(self._merged, fresh.coalesce(), "add")
        self._staged_coords.clear()
        self._staged_values.clear()
        self._staged_count = 0
        self.merges += 1

    @property
    def current_nnz(self) -> int:
        """Upper bound on the distinct coordinates accumulated so far.

        Staged batches count every event individually until the next
        merge, so duplicates among (or against) staged entries are
        overcounted; use :meth:`exact_nnz` for the coalesced count.
        """
        merged = self._merged.nnz if self._merged is not None else 0
        return merged + self._staged_count

    def exact_nnz(self) -> int:
        """Exact distinct-coordinate count (forces a staging merge)."""
        self._merge()
        return self._merged.nnz if self._merged is not None else 0

    def finish(self) -> COOTensor:
        """Flush staging and return the accumulated tensor."""
        self._merge()
        if self._merged is None:
            return COOTensor.empty(self.shape)
        return self._merged


class SlidingWindowTensor:
    """A tensor over the last ``window`` event batches.

    ``push`` admits one batch and evicts the oldest batch beyond the
    window; it never coalesces.  ``state`` is the coalesced sum of the
    live batches — the state a streaming anomaly detector queries — built
    on the first read after a push and memoized per ``version``.

    Eviction is structural: ``state`` is **bit-identical** to
    ``COOTensor(shape, concat(coords), concat(values)).coalesce()`` over
    the live batches, so genuine values of any magnitude (even below
    1e-12) and exact cancellations (explicit zeros) survive, and no
    floating-point residue ever drifts the state.  ``push`` is O(batch);
    a read after a push costs one O(window x batch) coalesce.
    """

    def __init__(self, shape: Sequence[int], window: int):
        if window < 1:
            raise ShapeError("window must be >= 1")
        self.shape = check_shape(shape)
        self.window = int(window)
        #: Validated live batches, oldest first.
        self._raw: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._memo_version = 0
        self._memo: COOTensor = COOTensor.empty(self.shape)
        #: Monotonic push counter (snapshot/memoization key for readers).
        self.version = 0
        #: Batches expired out of the window so far.
        self.evictions = 0

    def push(self, coords: np.ndarray, values: np.ndarray) -> "int | None":
        """Admit a batch and evict the expired one.

        Returns the push index (0-based) of the batch this push expired,
        or ``None`` while the window is still filling.
        """
        coords, values = validate_batch(self.shape, coords, values)
        self._raw.append((coords, values))
        expired = None
        if len(self._raw) > self.window:
            self._raw.popleft()
            self.evictions += 1
            expired = self.version - self.window
        self.version += 1
        return expired

    @property
    def state(self) -> COOTensor:
        """The coalesced live window (rebuilt once per ``version``)."""
        if self._memo_version != self.version:
            coords = np.concatenate([c for c, _ in self._raw], axis=0)
            values = np.concatenate([v for _, v in self._raw])
            self._memo = COOTensor(
                self.shape, coords, values, copy=False, check=False
            ).coalesce()
            self._memo_version = self.version
        return self._memo

    @property
    def nbatches(self) -> int:
        return len(self._raw)
