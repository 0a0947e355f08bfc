import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_transport_flow
from tabcop._flow import max_transport_flow
from tabcop.pmf_core import MarginPair, SupportPattern
from tabcop.scaling import classify_existence


@st.composite
def transport_problems(draw):
    """A support of up to 30 x 30 cells meeting every line, with margins of
    one of two kinds: the line sums of a random table on a random
    sub-support that still meets every line (the flow saturates, often
    through tight cuts), or drawn at random (the flow mostly falls short)."""
    n_rows, n_cols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n_rows, n_cols)) < draw(st.floats(0.02, 0.9))
    mask[np.arange(n_rows), rng.integers(0, n_cols, n_rows)] = True
    mask[rng.integers(0, n_rows, n_cols), np.arange(n_cols)] = True
    if draw(st.booleans()):
        sub = mask & (rng.random(mask.shape) < 0.5)
        for x, y in np.argwhere(mask):  # keep one cell of every line
            if not sub[x].any() or not sub[:, y].any():
                sub[x, y] = True
        table = np.where(sub, rng.random(mask.shape) + 0.05, 0.0)
        table /= table.sum()
        return mask, table.sum(axis=1), table.sum(axis=0)
    rt, ct = rng.random(n_rows) + 0.01, rng.random(n_cols) + 0.01
    return mask, rt / rt.sum(), ct / ct.sum()


class TestMaxTransportFlow:
    @settings(max_examples=300, deadline=None)
    @given(transport_problems())
    def test_matches_recursive_dinic_bit_for_bit(self, problem):
        mask, rt, ct = problem
        value, cut_rows, flows = reference_transport_flow(mask, rt, ct)
        got = max_transport_flow(mask, rt, ct, cell_flows_from=0.0)
        assert got.value.hex() == value.hex()
        assert got.cut_rows == cut_rows
        assert got.cell_flows.tobytes() == flows.tobytes()
        assert max_transport_flow(mask, rt, ct).cell_flows is None
        short = max_transport_flow(mask, rt, ct, cell_flows_from=np.nextafter(value, 2.0))
        assert short.cell_flows is None


def staircase(n):
    """Row x on columns x and x + 1 for x < n - 1, and row n - 1 on column 0: one cycle
    through every line, on which the last augmenting path runs through all of them."""
    mask = np.zeros((n, n), dtype=bool)
    mask[np.arange(n - 1), np.arange(n - 1)] = True
    mask[np.arange(n - 1), np.arange(1, n)] = True
    mask[n - 1, 0] = True
    return mask


class TestLongAugmentingPath:
    N = 601

    def test_flow_runs_around_the_staircase(self):
        # the second phase augments along one path of 2 N + 1 edges, past
        # any recursion limit
        n = self.N
        mask = staircase(n)
        margins = np.full(n, 1.0 / n)
        got = max_transport_flow(mask, margins, margins, cell_flows_from=0.0)
        assert abs(got.value - 1.0) <= 1e-12
        steps = got.cell_flows[np.arange(n - 1), np.arange(1, n)]
        assert (steps == 1.0 / n).all()
        assert got.cell_flows[n - 1, 0] == 1.0 / n
        assert (np.diagonal(got.cell_flows) == 0.0).all()

    def test_overfull_row_is_class_C(self):
        # row N-1 meets column 0 alone and now asks for more than its target
        n = self.N
        rt = np.full(n, 1.0 / n)
        rt[: n - 1] -= 1e-6 / (n - 1)
        rt[n - 1] += 1e-6
        got = classify_existence(SupportPattern(staircase(n)),
                                 MarginPair(rt, np.full(n, 1.0 / n)))
        assert got.tag == "C"
        assert got.tight_rectangles == (((n - 1,), tuple(range(1, n))),)
