"""Maximum flow on bipartite transportation networks.

Decides whether a nonnegative table with a prescribed support pattern and
prescribed margins exists: source -> row x with capacity rowTarget[x],
row x -> col y with unbounded capacity on every support cell, col y ->
sink with capacity colTarget[y].  The margins are achievable exactly when
the maximum flow saturates the source edges.

:func:`max_transport_flow` returns the flow's value, the rows on the
source side of the minimal min cut and, on request, the flow on every
cell of a flow that reaches a given value; the network's nodes and edges
stay inside this module and are freed when it returns.

A hand-rolled Dinic keeps each call in the tens of microseconds for the
small dense networks this package sees; the exhaustive classification
tests run hundreds of thousands of them.  The network is built in one
pass over the support's nonzero cells, in row-major order, and the
blocking-flow search walks an explicit path of edges from the source
instead of recursing, so an augmenting path as long as the network
(2 min(R, S) + 2 edges on a staircase support) costs no stack.  The
search takes the edges in the same order, prunes the same saturated ones
(residual at most ``_CAP_EPS``), forms each bottleneck as the same
``min`` chain from the source and updates the same residuals as the
recursive search it replaced, so every value, cut row and cell flow
equals that search's to the bit; ``tests/conftest.py`` keeps it as the
reference.
"""

from collections import deque
from typing import NamedTuple

import numpy as np

INF = float("inf")

# residual capacities below this are treated as saturated
_CAP_EPS = 1e-15


class DinicFlow:
    """Dinic max-flow with real capacities on a fixed set of nodes."""

    def __init__(self, n_nodes):
        self.n = n_nodes
        # adjacency: per node, list of [target, residual_cap, reverse_index]
        self.adj = [[] for _ in range(n_nodes)]

    def add_edge(self, u, v, cap):
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0.0, len(self.adj[u]) - 1])

    def _bfs_levels(self, s, t):
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in self.adj[u]:
                if cap > _CAP_EPS and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        self._level = level
        return level[t] >= 0

    def _path(self, s, t, alive):
        """The next level-increasing path of edges from s to t, or None where the phase is blocked.

        ``alive[u]`` indexes the first edge of node u not yet found dead.
        A dead end is popped off the path and the edge that led to it
        skipped, as the recursive search returned 0 through it.
        """
        adj, level = self.adj, self._level
        path = []
        u = s
        while u != t:
            edges = adj[u]
            if alive[u] < len(edges):
                edge = edges[alive[u]]
                if edge[1] > _CAP_EPS and level[edge[0]] == level[u] + 1:
                    path.append(edge)
                    u = edge[0]
                    continue
                alive[u] += 1
            elif path:
                edge = path.pop()
                u = adj[edge[0]][edge[2]][0]  # the popped edge's tail
                alive[u] += 1
            else:
                return None
        return path

    def max_flow(self, s, t):
        """The maximum flow from s to t.

        Each phase augments along the paths of :meth:`_path`, each found
        afresh from s, until none is left.  The last level search fails;
        the nodes it leaves at ``_level >= 0`` are those reachable from s
        in the residual graph, the source side of the minimal min cut.
        """
        total = 0.0
        while self._bfs_levels(s, t):
            alive = [0] * self.n
            while (path := self._path(s, t, alive)) is not None:
                pushed = INF
                for edge in path:
                    pushed = min(pushed, edge[1])
                for edge in path:
                    edge[1] -= pushed
                    self.adj[edge[0]][edge[2]][1] += pushed
                total += pushed
        return total


class _TransportFlow(NamedTuple):
    """A max flow's value, its source-side cut rows (ascending) and its R x S cell flows, or None."""

    value: float
    cut_rows: list
    cell_flows: np.ndarray | None


def max_transport_flow(mask, row_caps, col_caps, cell_flows_from=None):
    """Maximum mass routable through ``mask``.

    The cell flows are built only where the value reaches
    ``cell_flows_from`` (never when it is None), so a caller that stops at
    a short flow builds no R x S array.
    """
    n_rows, n_cols = mask.shape
    # nodes: 0 = source, 1..R = rows, R+1..R+S = columns, R+S+1 = sink
    net = DinicFlow(n_rows + n_cols + 2)
    sink = n_rows + n_cols + 1
    for x in range(n_rows):
        net.add_edge(0, 1 + x, float(row_caps[x]))
    for y in range(n_cols):
        net.add_edge(1 + n_rows + y, sink, float(col_caps[y]))
    rows, cols = np.nonzero(mask)
    for x, y in zip((rows + 1).tolist(), (cols + 1 + n_rows).tolist()):
        net.add_edge(x, y, INF)
    value = net.max_flow(0, sink)
    cut_rows = [x for x in range(n_rows) if net._level[1 + x] >= 0]
    flows = None
    if cell_flows_from is not None and value >= cell_flows_from:
        flows = np.zeros(mask.shape)
        for x in range(n_rows):  # after the source edge's reverse, the row's cell edges
            for v, _cap, rev in net.adj[1 + x][1:]:  # a cell's flow is its reverse's residual
                flows[x, v - 1 - n_rows] = net.adj[v][rev][1]
    return _TransportFlow(value, cut_rows, flows)
