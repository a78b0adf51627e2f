#!/usr/bin/env python
"""Streaming ingestion, locality reordering and a sliding window.

An end-to-end pipeline on the suite's "extension" subsystems:

1. ingest a FireHose-style power-law event stream into a tensor
   (duplicate events accumulate);
2. inspect the hub structure, reorder for locality and compare the
   HiCOO blocking quality before/after;
3. track a sliding window over the stream — the anomaly-detection state
   pattern from the paper's application list.

Run:  python examples/streaming.py
"""

from repro.generate import degree_distribution, powerlaw_stream
from repro.sptensor import blocking_quality, degree_reorder
from repro.stream import SlidingWindowTensor, StreamingTensorBuilder
from repro.util.tables import render_table

SHAPE = (8000, 8000, 24)
EVENTS = 60_000


def main() -> None:
    # 1. Stream ingestion.
    builder = StreamingTensorBuilder(SHAPE, merge_threshold=8192)
    builder.consume(
        powerlaw_stream(EVENTS, SHAPE, dense_modes=(2,), seed=11, batch=4096)
    )
    tensor = builder.finish()
    print(
        f"ingested {builder.events_seen} events -> {tensor.nnz} distinct "
        f"non-zeros ({builder.merges} staged merges)"
    )
    deg = degree_distribution(tensor, 0)
    print(
        f"hub structure: max degree {int(deg.max())} vs mean "
        f"{deg.mean():.1f} (events concentrate on hot keys)\n"
    )

    # 2. Reordering for locality.
    before = blocking_quality(tensor, 128)
    reordered, _ = degree_reorder(tensor)
    after = blocking_quality(reordered, 128)
    print(render_table(
        ["layout", "HiCOO blocks", "nnz/block", "bytes", "compression"],
        [
            ["as-ingested", before["nblocks"], f"{before['alpha']:.1f}",
             before["hicoo_bytes"], f"{before['compression']:.2f}x"],
            ["degree-reordered", after["nblocks"], f"{after['alpha']:.1f}",
             after["hicoo_bytes"], f"{after['compression']:.2f}x"],
        ],
        title="blocking quality before/after reordering",
    ))
    assert after["nblocks"] <= before["nblocks"]

    # 3. Sliding-window state.
    print()
    window = SlidingWindowTensor(SHAPE, window=4)
    sizes = []
    for coords, values in powerlaw_stream(
        20_000, SHAPE, dense_modes=(2,), seed=13, batch=2500
    ):
        window.push(coords, values)
        sizes.append(window.state.nnz)
    print(
        f"sliding window (4 batches): state nnz over time {sizes} — "
        "grows until the window fills, then stabilizes as batches expire"
    )
    assert max(sizes[4:]) <= max(sizes) * 1.2


if __name__ == "__main__":
    main()
