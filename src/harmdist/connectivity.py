"""Empirical linear-connectivity constant of the image h(D_r).

Images of a lattice over |z| <= r_sample form a grid graph: nodes are
image points, edges join images of disc-adjacent lattice points (16
neighbourhood, so straight lines are tracked within ~3%) weighted by
Euclidean image length.  For sampled pairs, the shortest-path length over
the straight-line distance over-estimates the true path infimum, so the
reported c_hat is an upper-bound-style estimate of c on the sampled
subdomain only; it makes no claim about the full disc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticMap
from .errors import HarmdistError, ParameterError

# Offsets giving a 16-connected lattice (axis, diagonal and knight moves).
_OFFSETS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)]


@dataclass(frozen=True)
class ConnectivityEstimate:
    c_hat: float
    pairs_sampled: int
    worst_pair: tuple[complex, complex]
    path: np.ndarray  # polyline of image points for the worst pair
    method: str
    r_sample: float


def linear_connectivity_estimate(
    h: AnalyticMap,
    r_sample: float = 0.9,
    pair_count: int = 200,
    mesh: int = 41,
    seed: int = 0,
) -> ConnectivityEstimate:
    """Estimate the linear-connectivity constant of h on |z| <= r_sample."""
    # scipy is imported here, not at module level, so that importing harmdist
    # does not load it; nothing else in the package uses scipy.
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    if not 0.0 < r_sample < 1.0:
        raise ParameterError("r_sample must lie in (0, 1)")
    if mesh < 5 or pair_count < 1:
        raise ParameterError("mesh must be >= 5 and pair_count >= 1")

    x = np.linspace(-r_sample, r_sample, mesh)
    gx, gy = np.meshgrid(x, x, indexing="ij")
    inside = gx**2 + gy**2 <= r_sample**2 + 1e-15
    idx = -np.ones((mesh, mesh), dtype=int)
    idx[inside] = np.arange(inside.sum())
    nodes = (gx + 1j * gy)[inside]
    images = np.asarray(h(nodes), dtype=complex)

    rows, cols = [], []
    ii, jj = np.nonzero(inside)
    for di, dj in _OFFSETS:
        ni, nj = ii + di, jj + dj
        ok = (ni >= 0) & (ni < mesh) & (nj >= 0) & (nj < mesh)
        ok[ok] &= inside[ni[ok], nj[ok]]
        rows.append(idx[ii[ok], jj[ok]])
        cols.append(idx[ni[ok], nj[ok]])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    weights = np.abs(images[rows] - images[cols])
    n = len(nodes)
    graph = coo_matrix(
        (np.concatenate([weights, weights]),
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    ).tocsr()

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=pair_count)
    dst = rng.integers(0, n, size=pair_count)
    keep = src != dst
    src, dst = src[keep], dst[keep]

    dist, pred = dijkstra(
        graph, directed=False, indices=np.unique(src), return_predecessors=True
    )
    row_of = {s: k for k, s in enumerate(np.unique(src))}
    if np.isinf(dist).any():
        raise HarmdistError("grid graph of the disc mesh is disconnected")

    chord = np.abs(images[src] - images[dst])
    path_len = np.array([dist[row_of[s], t] for s, t in zip(src, dst)])
    ratio = path_len / np.maximum(chord, 1e-300)
    k = int(np.argmax(ratio))
    c_hat = float(max(ratio[k], 1.0))

    # reconstruct the worst path as an image-plane polyline
    p, chain = dst[k], []
    while p >= 0 and p != src[k]:
        chain.append(p)
        p = pred[row_of[src[k]], p]
    chain.append(src[k])
    polyline = images[np.array(chain[::-1])]

    return ConnectivityEstimate(
        c_hat=c_hat,
        pairs_sampled=int(len(src)),
        worst_pair=(complex(nodes[src[k]]), complex(nodes[dst[k]])),
        path=polyline,
        method="grid-graph shortest path",
        r_sample=r_sample,
    )
