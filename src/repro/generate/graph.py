"""Graph-theoretic property checks for generated tensors.

The paper selects its two generators because the resulting (hyper)graphs
"follow the power law distribution, exhibit a small diameter, and have a
high average clustering coefficient."  These helpers verify those claims
on generated tensors: degree distributions per mode, a maximum-likelihood
power-law exponent fit (Clauset-Shalizi-Newman), and clustering/diameter
via networkx on the mode-(0,1) graph projection.
"""

from __future__ import annotations

import numpy as np

from repro.sptensor.coo import COOTensor
from repro.util.sorting import stable_argsort
from repro.util.validation import check_mode


def degree_distribution(tensor: COOTensor, mode: int) -> np.ndarray:
    """Non-zero count per index of ``mode`` (the hypergraph degree)."""
    mode = check_mode(mode, tensor.nmodes)
    deg = np.bincount(
        tensor.indices[:, mode].astype(np.int64), minlength=tensor.shape[mode]
    )
    return deg[deg > 0]


def powerlaw_exponent_mle(degrees: np.ndarray, dmin: int = 1) -> float:
    """Clauset-Shalizi-Newman MLE for the power-law exponent alpha.

    ``alpha = 1 + n / sum(ln(d / (dmin - 0.5)))`` over degrees >= dmin.
    """
    d = np.asarray(degrees, dtype=np.float64)
    d = d[d >= dmin]
    if len(d) < 2:
        return float("nan")
    return float(1.0 + len(d) / np.log(d / (dmin - 0.5)).sum())


def degree_tail_ratio(degrees: np.ndarray, quantile: float = 0.99) -> float:
    """Share of all non-zeros owned by the top ``1-quantile`` of vertices —
    a scale-free distribution concentrates mass in a tiny hub set."""
    d = np.sort(np.asarray(degrees, dtype=np.float64))[::-1]
    if d.sum() == 0:
        return 0.0
    k = max(1, int(round(len(d) * (1.0 - quantile))))
    return float(d[:k].sum() / d.sum())


def project_graph(tensor: COOTensor, modes: tuple[int, int] = (0, 1)):
    """Project two modes of the tensor onto an undirected networkx graph
    (vertices of mode ``modes[1]`` are offset to keep the sides disjoint
    when dimensions overlap)."""
    import networkx as nx

    a, b = (check_mode(m, tensor.nmodes) for m in modes)
    offset = tensor.shape[a]
    g = nx.Graph()
    u = tensor.indices[:, a].astype(np.int64)
    v = tensor.indices[:, b].astype(np.int64) + offset
    g.add_edges_from(zip(u.tolist(), v.tolist()))
    return g


def clustering_coefficient(tensor: COOTensor, modes: tuple[int, int] = (0, 1)) -> float:
    """Average clustering of the *unipartite collapse* of two modes.

    The bipartite projection itself is triangle-free, so we collapse it:
    mode-``a`` vertices are linked when they share a mode-``b`` neighbor.
    Intended for small generated tensors (test-scale validation only).
    """
    import networkx as nx

    a, b = (check_mode(m, tensor.nmodes) for m in modes)
    u = tensor.indices[:, a].astype(np.int64)
    v = tensor.indices[:, b].astype(np.int64)
    # group mode-a vertices by shared mode-b index
    order = stable_argsort(v)
    u, v = u[order], v[order]
    g = nx.Graph()
    g.add_nodes_from(np.unique(u).tolist())
    starts = np.concatenate(([0], np.flatnonzero(np.diff(v)) + 1, [len(v)]))
    for s, e in zip(starts[:-1], starts[1:]):
        group = np.unique(u[s:e])
        if len(group) > 200:  # clamp hub fan-out to keep this tractable
            group = group[:200]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                g.add_edge(int(group[i]), int(group[j]))
    if g.number_of_nodes() == 0:
        return 0.0
    return float(nx.average_clustering(g))


def effective_diameter(tensor: COOTensor, modes: tuple[int, int] = (0, 1)) -> float:
    """90th-percentile shortest-path length over the largest component of
    the bipartite projection (small tensors only)."""
    import networkx as nx

    g = project_graph(tensor, modes)
    if g.number_of_nodes() == 0:
        return 0.0
    comp = max(nx.connected_components(g), key=len)
    sub = g.subgraph(comp)
    lengths = []
    nodes = list(sub.nodes)
    # sample sources to bound cost
    rng = np.random.default_rng(0)
    for src in rng.choice(nodes, size=min(20, len(nodes)), replace=False):
        lengths.extend(nx.single_source_shortest_path_length(sub, src).values())
    return float(np.percentile(lengths, 90)) if lengths else 0.0
