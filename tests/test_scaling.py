import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tabcop import _ipf_py, bernoulli, pmf_core, scaling
from tabcop.errors import (
    DimensionMismatchError,
    InfeasibleError,
    NonConvergenceError,
    NotACopulaError,
)
from tabcop.pmf_core import JointPmf, MarginPair, SupportPattern, from_counts
from tabcop.scaling import (
    apply_marginal_distortion,
    classify_existence,
    copula_pmf,
    couple,
    ipf_fit,
    same_nucleus,
)

from conftest import (
    GRAUBARD_COUNTS,
    GRAUBARD_COPULA,
    LIN_COUNTS,
    column_first_ipf,
    random_margins,
    random_positive_pmf,
    rectangle_classification_oracle,
)


def uniform_pair(n_rows, n_cols):
    return MarginPair(np.full(n_rows, 1.0 / n_rows), np.full(n_cols, 1.0 / n_cols))


class TestClassifyExistence:
    def test_full_support_is_A(self, rng):
        s = SupportPattern(np.ones((3, 5), dtype=bool))
        t = MarginPair(random_margins(rng, 3), random_margins(rng, 5))
        assert classify_existence(s, t).tag == "A"

    def test_anti_diagonal_is_B1(self):
        s = SupportPattern(np.array([[False, True], [True, False]]))
        cls = classify_existence(s, uniform_pair(2, 2))
        assert cls.tag == "B1"
        assert cls.forced_zero_cells == ()

    def test_complete_association_is_B2(self):
        s = SupportPattern(np.array([[False, True], [True, True]]))
        cls = classify_existence(s, uniform_pair(2, 2))
        assert cls.tag == "B2"
        assert cls.forced_zero_cells == ((1, 1),)

    def test_bulky_null_block_is_C(self):
        mask = np.ones((3, 3), dtype=bool)
        mask[:2, :2] = False
        cls = classify_existence(SupportPattern(mask), uniform_pair(3, 3))
        assert cls.tag == "C"
        assert cls.tight_rectangles  # witness reported

    def test_target_dependence(self):
        # same support walks through A, B2, C as the row targets shift
        s = SupportPattern(np.array([[True, True], [False, True]]))
        assert classify_existence(s, MarginPair([0.7, 0.3], [0.5, 0.5])).tag == "A"
        pinned = classify_existence(s, MarginPair([0.5, 0.5], [0.5, 0.5]))
        assert pinned.tag == "B2"  # row 1 fills col 1, so cell (0,1) is forced out
        assert pinned.forced_zero_cells == ((0, 1),)
        assert classify_existence(s, MarginPair([0.3, 0.7], [0.5, 0.5])).tag == "C"

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            classify_existence(
                SupportPattern(np.ones((2, 2), dtype=bool)), uniform_pair(2, 3)
            )

    def test_random_masks_match_oracle(self, rng):
        for _ in range(300):
            n_rows, n_cols = rng.integers(2, 5, size=2)
            mask = rng.random((n_rows, n_cols)) < 0.7
            if not (mask.any(axis=1).all() and mask.any(axis=0).all()):
                continue
            expected_tag, expected_forced = rectangle_classification_oracle(mask)
            got = classify_existence(SupportPattern(mask), uniform_pair(n_rows, n_cols))
            assert got.tag == expected_tag, mask
            if expected_tag == "B2":
                assert frozenset(got.forced_zero_cells) == expected_forced, mask

    def test_random_targets_match_oracle(self, rng):
        # float targets exercise the tolerance-based tightness handling
        for _ in range(150):
            n_rows, n_cols = rng.integers(2, 5, size=2)
            mask = rng.random((n_rows, n_cols)) < 0.7
            if not (mask.any(axis=1).all() and mask.any(axis=0).all()):
                continue
            rt = random_margins(rng, n_rows)
            ct = random_margins(rng, n_cols)
            expected_tag, expected_forced = rectangle_classification_oracle(
                mask, list(rt), list(ct), tol=1e-9
            )
            got = classify_existence(SupportPattern(mask), MarginPair(rt, ct))
            assert got.tag == expected_tag, (mask, rt, ct)


class TestIpfFit:
    def test_fixed_point_returns_unchanged(self, rng):
        p = JointPmf(random_positive_pmf(rng, 3, 4))
        fitted, diag = ipf_fit(p, pmf_core.margins(p))
        assert diag.iterations <= 1
        np.testing.assert_array_equal(fitted.values, p.values)

    def test_graubard_copula(self):
        p = from_counts(GRAUBARD_COUNTS)
        fitted, _ = ipf_fit(p, uniform_pair(2, 5))
        np.testing.assert_allclose(fitted.values, GRAUBARD_COPULA, atol=5e-4)

    def test_lin_coupling_pinned_cell(self):
        cop, _ = copula_pmf(from_counts(LIN_COUNTS))
        fitted, _ = ipf_fit(cop, MarginPair([0.603, 0.397], [0.475, 0.525]))
        assert fitted.values[1, 1] == pytest.approx(0.383, abs=1e-3)

    def test_margins_hit_tolerance(self, rng):
        for _ in range(25):
            n_rows, n_cols = rng.integers(2, 7, size=2)
            p = JointPmf(random_positive_pmf(rng, n_rows, n_cols))
            t = MarginPair(random_margins(rng, n_rows), random_margins(rng, n_cols))
            fitted, diag = ipf_fit(p, t, tol=1e-12)
            assert np.abs(fitted.values.sum(axis=1) - t.row_margins).max() <= 1e-12
            assert np.abs(fitted.values.sum(axis=0) - t.col_margins).max() <= 2e-12
            assert diag.margin_error <= 1e-12

    def test_idempotent(self, rng):
        p = JointPmf(random_positive_pmf(rng, 4, 3))
        t = MarginPair(random_margins(rng, 4), random_margins(rng, 3))
        fitted, _ = ipf_fit(p, t, tol=1e-12)
        again, diag = ipf_fit(fitted, t, tol=1e-12)
        assert diag.iterations <= 1
        assert np.abs(again.values - fitted.values).max() <= 1e-12

    def test_order_invariance_at_fixed_point(self, rng):
        p = JointPmf(random_positive_pmf(rng, 3, 5))
        t = MarginPair(random_margins(rng, 3), random_margins(rng, 5))
        fitted, _ = ipf_fit(p, t, tol=1e-13)
        reference = column_first_ipf(p.values, t.row_margins, t.col_margins, tol=1e-13)
        assert np.abs(fitted.values - reference).max() <= 2e-13

    def test_l1_error_monotone(self, rng):
        # the L1 margin deviation contracts at every sweep; the max-norm
        # deviation may transiently grow and is only the stopping metric
        for _ in range(20):
            n_rows, n_cols = rng.integers(2, 7, size=2)
            p = JointPmf(random_positive_pmf(rng, n_rows, n_cols))
            t = MarginPair(random_margins(rng, n_rows), random_margins(rng, n_cols))
            *_, l1 = one_kernel_run(p, t, 10**4)
            assert (np.diff(l1) <= 1e-15).all()

    def test_omega_preserved_case_A(self, rng):
        from tabcop.dependence import odds_ratio_matrix

        for _ in range(10):
            p = JointPmf(random_positive_pmf(rng, 3, 4))
            t = MarginPair(random_margins(rng, 3), random_margins(rng, 4))
            fitted, _ = ipf_fit(p, t)
            before = odds_ratio_matrix(p).entries
            after = odds_ratio_matrix(fitted).entries
            assert np.abs(after - before).max() <= 1e-8

    def test_support_preserved_case_A_B1(self):
        p = JointPmf([[0.0, 0.4], [0.6, 0.0]])
        fitted, diag = ipf_fit(p, uniform_pair(2, 2))
        assert diag.classification.tag == "B1"
        np.testing.assert_array_equal(fitted.values > 0, p.values > 0)
        np.testing.assert_array_equal(fitted.values, [[0.0, 0.5], [0.5, 0.0]])

    def test_B2_support_shrinks_by_forced_cells(self):
        p = JointPmf([[0.0, 0.3], [0.3, 0.4]])
        fitted, diag = ipf_fit(p, uniform_pair(2, 2), tol=1e-12)
        assert diag.classification.tag == "B2"
        assert diag.classification.forced_zero_cells == ((1, 1),)
        assert fitted.values[1, 1] <= 1e-12
        np.testing.assert_allclose(fitted.values, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_B2_with_nonuniform_targets(self):
        # tight targets force a support cell out even off the uniform case
        p = JointPmf([[0.3, 0.3], [0.0, 0.4]])
        t = MarginPair([0.6, 0.4], [0.6, 0.4])
        fitted, diag = ipf_fit(p, t, tol=1e-12)
        assert diag.classification.tag == "B2"
        assert diag.classification.forced_zero_cells == ((0, 1),)
        np.testing.assert_allclose(fitted.values, [[0.6, 0.0], [0.0, 0.4]],
                                   atol=1e-12)

    def test_infeasible_raises(self):
        mask_values = np.array([[0.0, 0.0, 0.2], [0.0, 0.0, 0.2], [0.2, 0.2, 0.2]])
        with pytest.raises(InfeasibleError) as err:
            ipf_fit(JointPmf(mask_values), uniform_pair(3, 3))
        assert err.value.classification.tag == "C"

    def test_nonconvergence_reports_diagnostics(self, rng):
        p = JointPmf(random_positive_pmf(rng, 4, 4))
        t = MarginPair(random_margins(rng, 4), random_margins(rng, 4))
        with pytest.raises(NonConvergenceError) as err:
            ipf_fit(p, t, tol=1e-13, max_iter=2)
        diag = err.value.diagnostics
        assert diag.iterations == 2
        assert diag.margin_error > 1e-13

    def test_rate_estimate(self, rng):
        # Lin seed needs ~60 sweeps, enough history for a rate
        _, diag = copula_pmf(from_counts(LIN_COUNTS))
        assert diag.rate_estimate is not None
        assert 0.0 < diag.rate_estimate <= 1.0
        p = JointPmf(random_positive_pmf(rng, 2, 2))
        _, fast = copula_pmf(p, tol=1e-3)
        if fast.iterations < 11:
            assert fast.rate_estimate is None

    def test_wire_format(self):
        _, diag = copula_pmf(from_counts(LIN_COUNTS))
        wire = diag.to_wire()
        assert set(wire) == {"iterations", "margin_error", "class", "rate",
                             "forced_zeros", "method", "newton_steps"}
        assert wire["class"] == "A"
        assert isinstance(wire["rate"], float)


class TestCopulaPmf:
    def test_lin_copula(self):
        cop, _ = copula_pmf(from_counts(LIN_COUNTS))
        np.testing.assert_allclose(
            cop.values, [[0.453, 0.047], [0.047, 0.453]], atol=5e-4
        )

    def test_uniform_margins_fixed_point(self, rng):
        values = random_positive_pmf(rng, 3, 3)
        values = column_first_ipf(values, np.full(3, 1 / 3), np.full(3, 1 / 3))
        p = JointPmf(values)
        cop, diag = copula_pmf(p)
        assert diag.iterations <= 1
        assert np.abs(cop.values - p.values).max() <= 1e-12

    def test_random_table_against_reference_iteration(self, rng):
        from tabcop.dependence import odds_ratio_matrix

        p = JointPmf(random_positive_pmf(rng, 3, 4))
        cop, _ = copula_pmf(p, tol=1e-13)
        assert pmf_core.is_copula_pmf(cop, tol=1e-12)
        reference = column_first_ipf(
            p.values, np.full(3, 1 / 3), np.full(4, 1 / 4), tol=1e-13
        )
        assert np.abs(cop.values - reference).max() <= 2e-13
        agree = np.abs(
            odds_ratio_matrix(cop).entries - odds_ratio_matrix(p).entries
        ).max()
        assert agree <= 1e-8

    def test_history_sized_by_sweeps_run(self):
        # a B2 fit on a cycle support that converges in 17 sweeps under a
        # 10**7 sweep budget: no buffer is sized by the budget
        mask = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 1], [0, 0, 1, 1]])
        counts = mask * np.array([[3, 1, 1, 1], [2, 5, 1, 1], [1, 1, 1, 4], [1, 1, 2, 1]])
        p = from_counts(counts)
        tracemalloc.start()
        try:
            _, diag = copula_pmf(p, max_iter=10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diag.classification.tag == "B2"
        assert diag.method == "sweeps"
        assert 0 < diag.iterations < 100
        assert peak < 2**20


#: A support with cycles (7 cells, more than 3 + 3 - 1); its column targets
#: sit ``gap`` away from a tight null rectangle.
CYCLE = JointPmf(np.array([[1, 1, 0], [1, 1, 0], [1, 1, 1]]) / 7.0)


def cycle_targets(gap):
    third = 1.0 / 3.0
    return MarginPair(np.full(3, third),
                      np.array([third + gap / 2, third + gap / 2, third - gap]))


def one_kernel_run(p, t, max_iter):
    """One uninterrupted kernel call, with error buffers of full length.

    Returns ``(table, sweeps, error, max errors, L1 errors)``, the error
    arrays cut to the sweeps run.
    """
    err_max, err_l1 = np.empty(max_iter), np.empty(max_iter)
    work = p.values.copy()
    sweeps, err = scaling._kernel.ipf_sweeps(
        work, t.row_margins, t.col_margins, scaling.DEFAULT_TOL, max_iter,
        err_max, err_l1,
    )
    return work, sweeps, err, err_max[:sweeps], err_l1[:sweeps]


class TestHistory:
    """Fits on cycle supports equal one uninterrupted kernel run."""

    def assert_same(self, diag, reference):
        _work, sweeps, err, err_max, _err_l1 = reference
        assert diag.method == "sweeps"
        assert diag.iterations == sweeps
        assert diag.margin_error == err
        assert diag.rate_estimate == scaling._rate_from_ring(err_max, sweeps)

    def test_converged_fit(self):
        # 51 sweeps: the run ends part-way through the third chunk
        t = cycle_targets(1e-1)
        _, diag = ipf_fit(CYCLE, t)
        assert diag.iterations > 48
        self.assert_same(diag, one_kernel_run(CYCLE, t, 10**4))

    def test_budget_exhausted(self):
        # the budget cuts the second chunk short
        t = cycle_targets(1e-1)
        with pytest.raises(NonConvergenceError) as info:
            ipf_fit(CYCLE, t, max_iter=40)
        self.assert_same(info.value.diagnostics, one_kernel_run(CYCLE, t, 40))

    @pytest.mark.parametrize("case", ["dense", "lin", "cycle"])
    def test_bit_identical_to_one_kernel_call(self, rng, case):
        if case == "dense":
            p = JointPmf(random_positive_pmf(rng, 4, 5))
            t = MarginPair(random_margins(rng, 4), random_margins(rng, 5))
        elif case == "lin":
            p, t = from_counts(LIN_COUNTS), uniform_pair(2, 2)
        else:
            p, t = CYCLE, cycle_targets(1e-1)  # far enough from tight to not switch
        fitted, diag = ipf_fit(p, t)
        work, sweeps, err, err_max, _ = one_kernel_run(p, t, scaling.DEFAULT_MAX_ITER)
        np.testing.assert_array_equal(fitted.values, work)
        assert (diag.method, diag.iterations, diag.margin_error) == ("sweeps", sweeps, err)
        assert diag.newton_steps == 0
        assert diag.rate_estimate == scaling._rate_from_ring(err_max, sweeps)


class TestStall:
    def test_stalled_fit_fails_fast(self):
        # misclassified B2: the error sits at 1.00000008e-10 from sweep 16 on,
        # and no rescaling of the remaining support reaches the targets
        t = cycle_targets(1e-10)
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="stalled") as info:
            ipf_fit(CYCLE, t)
        assert time.perf_counter() - start < 1.0
        diag = info.value.diagnostics
        assert diag.method == "sweeps"
        assert diag.iterations < 1000 < scaling.DEFAULT_MAX_ITER
        assert diag.newton_steps < scaling.NEWTON_MAX_STEPS
        assert diag.margin_error > scaling.DEFAULT_TOL


def sweep_reference(values, t, tol=1e-14):
    """The sweep fit of ``values`` to a tighter tolerance; None if it misses."""
    work = values.copy()
    ring = np.empty(scaling._RING_LEN)
    _sweeps, err = _ipf_py.ipf_sweeps(work, t.row_margins, t.col_margins, tol, 10**5,
                                      ring, ring.copy())
    return work if err <= tol else None


@st.composite
def scaling_problems(draw):
    """A class-A (table, margins) pair, 2x2..6x6, with cells and margins
    spread over about four orders of magnitude."""
    n_rows, n_cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cells = st.floats(-4.0, 4.0)
    mask = np.reshape(draw(st.lists(st.booleans(), min_size=n_rows * n_cols,
                                    max_size=n_rows * n_cols)), (n_rows, n_cols))
    mask[np.arange(n_rows), np.arange(n_rows) % n_cols] = True
    mask[np.arange(n_cols) % n_rows, np.arange(n_cols)] = True
    logs = np.reshape(draw(st.lists(cells, min_size=mask.size, max_size=mask.size)),
                      mask.shape)
    values = np.where(mask, np.exp(logs), 0.0)
    rt = np.exp(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    ct = np.exp(draw(st.lists(cells, min_size=n_cols, max_size=n_cols)))
    t = MarginPair(rt / rt.sum(), ct / ct.sum())
    assume(classify_existence(SupportPattern(mask), t).tag == "A")
    return values / values.sum(), t


class TestNewtonFinish:
    @settings(max_examples=150, deadline=None)
    @given(scaling_problems())
    def test_agrees_with_sweeps(self, problem):
        # from a cold start, where the sweeps converge
        values, t = problem
        reference = sweep_reference(values, t)
        assume(reference is not None)
        work = values.copy()
        steps, err = scaling._newton_finish(work, t.row_margins, t.col_margins, 1e-14)
        assert err <= 1e-14
        assert steps < scaling.NEWTON_MAX_STEPS
        assert np.abs(work - reference).max() <= 5e-13
        np.testing.assert_array_equal(work > 0, values > 0)
        assert same_nucleus(JointPmf(work / work.sum()), JointPmf(values))

    @pytest.mark.parametrize("gap", [1e-2, 1e-3])
    def test_cycle_fit_agrees_with_sweeps(self, gap):
        t = cycle_targets(gap)
        fitted, diag = ipf_fit(CYCLE, t)
        assert diag.newton_steps > 0
        assert diag.margin_error <= scaling.DEFAULT_TOL
        assert np.abs(fitted.values - sweep_reference(CYCLE.values, t)).max() <= 5e-13
        assert same_nucleus(fitted, CYCLE)

    @pytest.mark.parametrize("gap", [10.0**-k for k in range(3, 11)])
    def test_near_tight_cycle_family_is_fast(self, gap):
        # 40,932 sweeps at gap 1e-4 and a crawl below it for the sweeps alone
        t = cycle_targets(gap)
        start = time.perf_counter()
        try:
            fitted, diag = ipf_fit(CYCLE, t)
        except NonConvergenceError as exc:
            diag = exc.diagnostics
            assert diag.margin_error > scaling.DEFAULT_TOL
        else:
            assert diag.margin_error <= scaling.DEFAULT_TOL
            np.testing.assert_array_equal(fitted.values > 0, CYCLE.values > 0)
        assert time.perf_counter() - start < 1.0
        assert diag.iterations <= 48
        assert 0 < diag.newton_steps <= 25

    def test_one_gauge_per_component(self):
        # two blocks whose masses match their targets (class B1)
        values = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.3]])
        rt, ct = np.array([0.5, 0.2, 0.3]), np.array([0.3, 0.4, 0.3])
        work = values.copy()
        steps, err = scaling._newton_finish(work, rt, ct, 1e-14)
        assert err <= 1e-14 and steps > 0
        np.testing.assert_array_equal(work > 0, values > 0)
        np.testing.assert_allclose(work, sweep_reference(values, MarginPair(rt, ct)),
                                   rtol=0.0, atol=5e-13)

    def test_unreachable_target_stops(self):
        # block masses 0.6 and 0.4 against targets of 0.5 each
        values = np.array([[0.3, 0.0], [0.0, 0.7]])
        work = values.copy()
        steps, err = scaling._newton_finish(work, np.array([0.6, 0.4]),
                                            np.array([0.5, 0.5]), 1e-12)
        assert err > 0.05 and steps < scaling.NEWTON_MAX_STEPS
        np.testing.assert_array_equal(work > 0, values > 0)


def forest_mask(n_rows, n_cols, edges):
    """The forest from ``edges`` that skip cycles, with every line covered."""
    root = list(range(n_rows + n_cols))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    mask = np.zeros((n_rows, n_cols), dtype=bool)
    for x, y in edges:
        a, b = find(x), find(n_rows + y)
        if a != b:
            root[a] = b
            mask[x, y] = True
    # a line without cells is an isolated node, so joining it makes no cycle
    for x in np.flatnonzero(~mask.any(axis=1)):
        y = x % n_cols
        mask[x, y] = True
        root[find(x)] = find(n_rows + y)
    for y in np.flatnonzero(~mask.any(axis=0)):
        mask[y % n_rows, y] = True
    return mask


@st.composite
def forest_problems(draw):
    n_rows, n_cols = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
                          max_size=n_rows + n_cols))
    mask = forest_mask(n_rows, n_cols, edges)
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=mask.size, max_size=mask.size))
    q = np.where(mask, np.reshape(weights, mask.shape), 0.0)
    return mask, q / q.sum()


class TestExactForest:
    @settings(max_examples=200, deadline=None)
    @given(forest_problems())
    def test_hits_margins_and_matches_reference(self, problem):
        mask, q = problem
        start = JointPmf(mask / mask.sum())
        t = MarginPair(q.sum(axis=1), q.sum(axis=0))
        assume(scaling._margin_error(start.values, t.row_margins, t.col_margins)
               > scaling.DEFAULT_TOL)  # else the start is returned as it is
        fitted, diag = ipf_fit(start, t)
        v = fitted.values
        assert (diag.method, diag.iterations, diag.rate_estimate) == ("exact", 0, None)
        assert np.abs(v.sum(axis=1) - t.row_margins).max() <= 1e-15
        assert np.abs(v.sum(axis=0) - t.col_margins).max() <= 1e-15
        np.testing.assert_array_equal(v > 0, mask)
        reference = column_first_ipf(start.values, t.row_margins, t.col_margins)
        assert np.abs(v - reference).max() <= 1e-12

    @pytest.mark.parametrize("gap", [10.0**-k for k in range(3, 11)])
    def test_near_tight_family_is_fast(self, gap):
        p = JointPmf([[0.4, 0.3], [0.3, 0.0]])
        t = MarginPair([0.5, 0.5], [0.5 + gap, 0.5 - gap])
        start = time.perf_counter()
        try:
            fitted, diag = ipf_fit(p, t)
        except NonConvergenceError as exc:
            diag = exc.diagnostics
            assert diag.margin_error > scaling.DEFAULT_TOL
        else:
            assert diag.margin_error <= scaling.DEFAULT_TOL
            np.testing.assert_array_equal(fitted.values > 0, p.values > 0)
        assert time.perf_counter() - start < 1.0
        assert (diag.method, diag.iterations) == ("exact", 0)

    def test_class_A_boundary_converges(self):
        # 10**6 sweeps used to leave this one 2e-6 off its margins
        t = MarginPair([0.5, 0.5], [0.5 + 1e-6, 0.5 - 1e-6])
        fitted, _ = ipf_fit(JointPmf([[0.4, 0.3], [0.3, 0.0]]), t)
        assert fitted.values[0, 0] == pytest.approx(1e-6, rel=1e-9)

    def test_B2_copula_is_exact(self):
        # the forced zero leaves a forest, which is peeled to exact halves
        cop, diag = copula_pmf(JointPmf([[0.0, 0.3], [0.3, 0.4]]))
        assert diag.classification.tag == "B2"
        assert (diag.method, diag.iterations, diag.rate_estimate) == ("exact", 0, None)
        np.testing.assert_array_equal(cop.values, [[0.0, 0.5], [0.5, 0.0]])

    def test_nonpositive_cell_raises(self):
        # margins met exactly only with a negative cell: no fall back to sweeps
        values = np.array([[0.4, 0.3], [0.3, 0.0]])
        with pytest.raises(NonConvergenceError, match="mass <= 0") as info:
            scaling._run_ipf(values, np.array([0.3, 0.7]), np.array([0.5, 0.5]),
                             scaling.DEFAULT_TOL, 10, scaling.FeasibilityClass("A"))
        assert info.value.diagnostics.method == "exact"


class TestMarginalDistortion:
    def test_identity(self, rng):
        p = JointPmf(random_positive_pmf(rng, 3, 3))
        out = apply_marginal_distortion(p, np.ones(3), np.ones(3))
        np.testing.assert_allclose(out.values, p.values, atol=1e-16)

    def test_matches_2x2_closed_form(self):
        p = from_counts(LIN_COUNTS)
        phi, psi = 2.5, 0.3
        out = apply_marginal_distortion(p, [1.0, phi], [1.0, psi])
        v = p.values
        norm = v[0, 0] + psi * v[0, 1] + phi * v[1, 0] + phi * psi * v[1, 1]
        expected = (
            np.array([[v[0, 0], psi * v[0, 1]], [phi * v[1, 0], phi * psi * v[1, 1]]])
            / norm
        )
        np.testing.assert_allclose(out.values, expected, atol=1e-16)

    def test_composition(self, rng):
        # applying two distortions in sequence equals one with the
        # entrywise products (group compatibility)
        p = JointPmf(random_positive_pmf(rng, 4, 3))
        f1, f2 = rng.random(4) + 0.5, rng.random(4) + 0.5
        g1, g2 = rng.random(3) + 0.5, rng.random(3) + 0.5
        two_steps = apply_marginal_distortion(
            apply_marginal_distortion(p, f1, g1), f2, g2
        )
        one_step = apply_marginal_distortion(p, f1 * f2, g1 * g2)
        assert np.abs(two_steps.values - one_step.values).max() <= 1e-14

    def test_positivity_required(self, rng):
        p = JointPmf(random_positive_pmf(rng, 2, 2))
        with pytest.raises(Exception):
            apply_marginal_distortion(p, [1.0, 0.0], [1.0, 1.0])


class TestSameNucleus:
    def test_distortion_stays_in_class(self, rng):
        p = JointPmf(random_positive_pmf(rng, 3, 4))
        q = apply_marginal_distortion(p, rng.random(3) + 0.5, rng.random(4) + 0.5)
        assert same_nucleus(p, q)

    def test_same_omega_different_support(self):
        p1 = JointPmf([[0.0, 0.5], [0.5, 0.0]])
        p2 = JointPmf([[0.0, 0.3], [0.3, 0.4]])
        assert not same_nucleus(p1, p2)

    def test_two_independence_tables(self):
        p1 = JointPmf(np.outer([0.3, 0.7], [0.4, 0.6]))
        p2 = JointPmf(np.outer([0.8, 0.2], [0.1, 0.9]))
        assert same_nucleus(p1, p2)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            same_nucleus(
                JointPmf(np.full((2, 2), 0.25)), JointPmf(np.full((2, 3), 1 / 6))
            )


class TestCouple:
    def test_independence_gives_product(self, rng):
        cop = JointPmf(np.full((3, 4), 1 / 12))
        rt, ct = random_margins(rng, 3), random_margins(rng, 4)
        coupled, _ = couple(cop, MarginPair(rt, ct))
        np.testing.assert_allclose(coupled.values, np.outer(rt, ct), atol=1e-12)

    def test_lin_completed_table(self):
        cop, _ = copula_pmf(from_counts(LIN_COUNTS))
        coupled, _ = couple(cop, MarginPair([0.603, 0.397], [0.475, 0.525]))
        np.testing.assert_allclose(
            coupled.values, [[0.462, 0.141], [0.013, 0.383]], atol=1e-3
        )

    def test_matches_closed_form_reconstruction(self, rng):
        for omega in (0.2, 1.0, 4.0, 50.0):
            cop = bernoulli.bernoulli_copula(omega)
            pi_x, pi_y = 0.35, 0.62
            coupled, _ = couple(cop, MarginPair([1 - pi_x, pi_x], [1 - pi_y, pi_y]))
            expected = bernoulli.reconstruct(omega, pi_x, pi_y)
            assert np.abs(coupled.values - expected.values).max() <= 1e-10

    def test_rejects_non_copula(self, rng):
        with pytest.raises(NotACopulaError):
            couple(JointPmf(random_positive_pmf(rng, 2, 2)),
                   MarginPair([0.5, 0.5], [0.5, 0.5]))


class TestKernels:
    def test_python_kernel_contract(self, rng):
        p = random_positive_pmf(rng, 4, 5)
        rt, ct = random_margins(rng, 4), random_margins(rng, 5)
        work = p.copy()
        hist = np.empty(16)
        l1 = np.empty(16)
        sweeps, err = _ipf_py.ipf_sweeps(work, rt, ct, 1e-12, 10000, hist, l1)
        assert err <= 1e-12
        assert hist[(sweeps - 1) % 16] == err
        assert np.abs(work.sum(axis=1) - rt).max() <= 1e-12

    @pytest.mark.skipif(scaling.IPF_BACKEND != "cython",
                        reason="compiled kernel not built")
    def test_kernels_agree(self, rng):
        from tabcop import _ipf_cy

        for _ in range(20):
            n_rows, n_cols = rng.integers(2, 8, size=2)
            p = random_positive_pmf(rng, n_rows, n_cols)
            rt = random_margins(rng, n_rows)
            ct = random_margins(rng, n_cols)
            w1, w2 = p.copy(), p.copy()
            h = np.empty(16)
            l1 = np.empty(16)
            s1, e1 = _ipf_py.ipf_sweeps(w1, rt, ct, 1e-12, 10**5, h.copy(), l1.copy())
            s2, e2 = _ipf_cy.ipf_sweeps(w2, rt, ct, 1e-12, 10**5, h, l1)
            assert abs(s1 - s2) <= 2  # summation order shifts the stop by a hair
            assert np.abs(w1 - w2).max() <= 1e-12
