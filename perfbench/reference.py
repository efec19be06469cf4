"""Independent reference answers for the graph benchmarks.

The cross-variant check (every code version's outputs equal the pair's
``No CDP`` outputs) cannot see a code-generation bug that shifts every
version identically. These references come from scipy's graph routines
and sparse algebra, never from the miniCUDA pipeline, so they catch
that case for BFS, SSSP and TC.
"""

import numpy as np
from scipy.sparse import csr_matrix, triu
from scipy.sparse.csgraph import dijkstra, shortest_path

from repro.benchmarks.common import INF


def _adjacency(graph, weights=None):
    n = graph.num_vertices
    data = np.ones(graph.num_edges) if weights is None else weights
    return csr_matrix((data, graph.col, graph.row), shape=(n, n))


def _source(graph):
    """The drivers start from the highest-degree vertex."""
    return int(np.argmax(graph.degrees()))


def bfs_levels(graph):
    """Hop count from the source; -1 where unreachable."""
    hops = shortest_path(_adjacency(graph), directed=True, unweighted=True,
                         indices=_source(graph))
    return np.where(np.isinf(hops), -1, hops).astype(np.int64)


def sssp_distances(graph):
    """Dijkstra distances from the source; ``INF`` where unreachable."""
    dist = dijkstra(_adjacency(graph, graph.weights.astype(np.float64)),
                    directed=True, indices=_source(graph))
    return np.where(np.isinf(dist), INF, dist).astype(np.int64)


def triangle_count(graph):
    """Triangles u < v < w with edges u→v, v→w and u→w."""
    upper = triu(_adjacency(graph), k=1).tocsr()
    return np.array([int((upper @ upper).multiply(upper).sum())])


#: benchmark name -> (output key, reference function)
REFERENCES = {
    "BFS": ("dist", bfs_levels),
    "SSSP": ("dist", sssp_distances),
    "TC": ("triangles", triangle_count),
}


def reference_outputs(benchmark, data):
    """``{output key: expected array}`` for *benchmark* on *data* (empty
    for benchmarks without an independent reference)."""
    if benchmark not in REFERENCES:
        return {}
    key, reference = REFERENCES[benchmark]
    return {key: reference(data)}


def matches_reference(expected, outputs):
    """True when *outputs* agree with every array in *expected*."""
    return all(key in outputs and np.array_equal(outputs[key], value)
               for key, value in expected.items())
