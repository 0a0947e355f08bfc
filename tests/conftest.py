"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: the
feasibility oracle enumerates null rectangles outright (exponential, fine
for tiny shapes), and the fitting oracle sweeps columns first so that a
fixed point reached from a different iteration order can confirm the
production kernel.  The recursive Dinic max flow is the reference that
the flat, non-recursive one in ``_flow`` must equal bit for bit.
"""

import math
from collections import deque

import numpy as np
import pytest

from tabcop._flow import _CAP_EPS


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_positive_pmf(rng, n_rows, n_cols, floor=1e-4):
    v = rng.random((n_rows, n_cols)) + floor
    return v / v.sum()


def random_margins(rng, n, floor=0.05):
    v = rng.random(n) + floor
    return v / v.sum()


def rectangle_classification_oracle(mask, row_targets=None, col_targets=None,
                                    tol=0.0):
    """Classify (support, margins) by enumerating null rectangles.

    Mirrors the existence theorem literally: C when some null rectangle's
    combined target mass exceeds 1, otherwise B-cases when some rectangle
    is exactly tight (B2 when a tight rectangle's complement block still
    holds support cells, which are then forced to zero), otherwise A.

    Only rectangles with a maximal row set for their column set need
    inspection: enlarging the row set of a null rectangle keeps it null
    and grows its mass, so non-maximal tight rectangles would make the
    maximal one violate feasibility outright.  Uniform targets (the
    default) run in exact integer arithmetic; explicit float targets
    compare tightness within ``tol``.

    Returns (tag, forced_cells) with forced_cells a frozenset.
    """
    n_rows, n_cols = mask.shape
    exact = row_targets is None and col_targets is None
    if exact:
        # t(rows) + t(cols) vs 1, scaled by R*S: |rows|*S + |cols|*R vs R*S
        row_w = [n_cols] * n_rows
        col_w = [n_rows] * n_cols
        budget = n_rows * n_cols
        slack = 0
    else:
        row_w, col_w, budget, slack = list(row_targets), list(col_targets), 1.0, tol

    row_bits = [int("".join("1" if b else "0" for b in reversed(mask[x])), 2)
                for x in range(n_rows)]

    tight = []
    for col_bits in range(1, 1 << n_cols):
        rows = tuple(x for x in range(n_rows) if not (row_bits[x] & col_bits))
        if not rows:
            continue
        cols = tuple(y for y in range(n_cols) if col_bits >> y & 1)
        total = sum(row_w[x] for x in rows) + sum(col_w[y] for y in cols)
        if total > budget + slack:
            return "C", frozenset()
        if total >= budget - slack:
            tight.append((rows, cols))

    forced = set()
    for rows, cols in tight:
        out_rows = [x for x in range(n_rows) if x not in rows]
        out_cols = [y for y in range(n_cols) if y not in cols]
        for x in out_rows:
            for y in out_cols:
                if mask[x, y]:
                    forced.add((x, y))
    if forced:
        return "B2", frozenset(forced)
    if tight:
        return "B1", frozenset()
    return "A", frozenset()


class DinicFlow:
    """Recursive Dinic max flow with real capacities: the reference for ``_flow``.

    ``_flow.max_transport_flow`` takes the same edges in the same order,
    with the same saturation test and bottleneck chain, without recursion;
    its results must equal this one's bit for bit.  The recursion depth is
    the augmenting path's length, so a long path passes Python's limit.
    """

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

    def _push(self, u, t, limit, alive):
        if u == t:
            return limit
        while alive[u] < len(self.adj[u]):
            edge = self.adj[u][alive[u]]
            v = edge[0]
            if edge[1] > _CAP_EPS and self._level[v] == self._level[u] + 1:
                pushed = self._push(v, t, min(limit, edge[1]), alive)
                if pushed > 0.0:
                    edge[1] -= pushed
                    self.adj[v][edge[2]][1] += pushed
                    return pushed
            alive[u] += 1
        return 0.0

    def max_flow(self, s, t):
        """The maximum flow from s to t; ``_level >= 0`` then marks the source side of the minimal min cut."""
        total = 0.0
        while self._bfs_levels(s, t):
            alive = [0] * self.n
            while True:
                pushed = self._push(s, t, math.inf, alive)
                if pushed <= 0.0:
                    break
                total += pushed
        return total


def reference_transport_flow(mask, row_caps, col_caps):
    """``(value, cut_rows, cell_flows)`` of the transportation network of ``mask``, by :class:`DinicFlow`."""
    n_rows, n_cols = mask.shape
    net = DinicFlow(n_rows + n_cols + 2)
    sink = n_rows + n_cols + 1
    for x in range(n_rows):
        net.add_edge(0, 1 + x, float(row_caps[x]))
    for y in range(n_cols):
        net.add_edge(1 + n_rows + y, sink, float(col_caps[y]))
    for x in range(n_rows):
        for y in range(n_cols):
            if mask[x, y]:
                net.add_edge(1 + x, 1 + n_rows + y, math.inf)
    value = net.max_flow(0, sink)
    cut_rows = [x for x in range(n_rows) if net._level[1 + x] >= 0]
    flows = np.zeros(mask.shape)
    for x in range(n_rows):  # after the source edge's reverse, the row's cell edges
        for v, _cap, rev in net.adj[1 + x][1:]:  # a cell's flow is its reverse's residual
            flows[x, v - 1 - n_rows] = net.adj[v][rev][1]
    return value, cut_rows, flows


def column_first_ipf(values, row_targets, col_targets, tol=1e-13, max_iter=100000):
    """Reference fixed-point iteration sweeping columns before rows."""
    t = np.array(values, dtype=float)
    rt = np.asarray(row_targets, dtype=float)
    ct = np.asarray(col_targets, dtype=float)
    for _ in range(max_iter):
        t *= ct / t.sum(axis=0)
        t *= (rt / t.sum(axis=1))[:, np.newaxis]
        if np.abs(t.sum(axis=0) - ct).max() <= tol:
            return t
    raise AssertionError("reference iteration did not converge")


def additive_residual(values):
    """Largest entry of ``values`` less its row means and then its column means.

    0 to rounding exactly where ``values`` is a(x) + b(y); applied to the log
    of one table less the log of another, it reads whether the first is a
    row and column rescaling of the second, with the same odds ratios.
    """
    centred = values - values.mean(axis=1, keepdims=True)
    return float(np.abs(centred - centred.mean(axis=0)).max())


def pearson_correlation(values):
    """Pearson correlation of (X, Y) under a table on integer labels."""
    v = np.asarray(values, dtype=float)
    xs = np.arange(v.shape[0], dtype=float)
    ys = np.arange(v.shape[1], dtype=float)
    px, py = v.sum(axis=1), v.sum(axis=0)
    ex, ey = px @ xs, py @ ys
    exy = xs @ v @ ys
    vx = px @ (xs - ex) ** 2
    vy = py @ (ys - ey) ** 2
    return (exy - ex * ey) / np.sqrt(vx * vy)


# Paper-sourced reference tables (shared by module tests and acceptance).

LIN_COUNTS = np.array([[26.0, 1.0], [5.0, 18.0]])
LIN_PMF = np.array([[0.52, 0.02], [0.10, 0.36]])
LIN_COPULA = np.array([[0.453, 0.047], [0.047, 0.453]])

GRAUBARD_COUNTS = np.array(
    [[17066.0, 14464.0, 788.0, 126.0, 37.0], [48.0, 38.0, 5.0, 1.0, 1.0]]
)
GRAUBARD_COPULA = np.array(
    [[0.137, 0.140, 0.098, 0.087, 0.037], [0.063, 0.060, 0.102, 0.113, 0.163]]
)


def binomial2_copula_closed_form(w):
    """Printed 3x3 copula of the common-shock Binomial(2) model, w not in {0,1,inf}."""
    s = np.sqrt(w * (w + 2.0) * (2.0 * w + 1.0))
    a = w * (w + 1.0) / (w * w + w + 1.0 + s)
    c = (w + 1.0) / (w * w + w + 1.0 + s)
    b = (s - 3.0 * w) / ((w - 1.0) ** 2)
    m = (w * w + 4.0 * w + 1.0 - 2.0 * s) / ((w - 1.0) ** 2)
    return np.array([[a, b, c], [b, m, b], [c, b, a]]) / 3.0


def geometric3_copula_closed_form(w):
    """Printed 3x3 copula of the standard truncated-Geometric model."""
    sq = np.sqrt(8.0 * w + 1.0)
    sw = np.sqrt(w)
    d = 2.0 * w + sq + 1.0
    a = 2.0 * w / d
    b = (sq + 1.0) / (2.0 * d)
    m = sw * (sq + 1.0) ** 2 / (4.0 * (sw + 1.0) * d)
    f = (4.0 * w - 1.0 - sq) / (4.0 * (sw - 1.0) * (sw + 1.0) ** 2)
    return np.array([[a, b, b], [b, m, f], [b, f, m]]) / 3.0


def goodman33_copula_closed_form(th):
    """Printed 3x3 copula of the constant-local-odds-ratio model."""
    s = np.sqrt(th * (4.0 * th * th + th + 4.0))
    a = 2.0 * th * th / (th * (2.0 * th - 1.0) + 2.0 + s)
    c = 2.0 / (th * (2.0 * th - 1.0) + 2.0 + s)
    b = 2.0 * np.sqrt(th) / (3.0 * np.sqrt(th) + np.sqrt(4.0 * th * th + th + 4.0))
    m = (th * th + th + 1.0 - s) / ((th - 1.0) ** 2)
    return np.array([[a, b, c], [b, m, b], [c, b, a]]) / 3.0


def binomial_upsilon_closed_form(w):
    """Yule coefficient of the Binomial(2) copula."""
    return (w * w - 1.0) / (w * w + w + 1.0 + np.sqrt(w * (w + 2.0) * (2.0 * w + 1.0)))
