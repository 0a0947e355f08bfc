import math
import subprocess
import sysconfig
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tabcop import _ipf_py, bernoulli, families, pmf_core, scaling
from tabcop.errors import (
    DimensionMismatchError,
    InfeasibleError,
    NonConvergenceError,
    NotACopulaError,
    ValidationError,
    ZeroMarginError,
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


def bind_buffer(bind, table, row_targets, col_targets, n_ring):
    """Bind ``bind`` to a new buffer of ``table``, its targets and an ``n_ring``-slot ring.

    Returns ``(sweeps, parts)``, ``parts`` the views of the buffer that
    :func:`tabcop._ipf_py.split` gives: the table the kernel fits, the
    targets, the ring it records its max errors in and the line sums.
    """
    n_rows, n_cols = table.shape
    buf = _ipf_py.fit_buffer(n_rows, n_cols, n_ring)
    parts = _ipf_py.split(buf, n_rows, n_cols)
    parts[0][...] = table
    parts[1][:] = row_targets
    parts[2][:] = col_targets
    return bind(buf, n_rows, n_cols), parts


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

    @pytest.mark.parametrize("margins", ["uniform", "sub_support"])
    def test_witness_rectangles(self, rng, margins):
        # every reported rectangle is null, tight (B1, B2) or overfull (C),
        # and the B2 rectangles' complement blocks hold exactly the forced cells
        tol = 1e-12
        for _ in range(1500):
            n_rows, n_cols = rng.integers(2, 7, size=2)
            mask = rng.random((n_rows, n_cols)) < rng.uniform(0.2, 0.9)
            if not (mask.any(axis=1).all() and mask.any(axis=0).all()):
                continue
            if margins == "uniform":
                t = uniform_pair(n_rows, n_cols)
            else:
                sub = mask & (rng.random(mask.shape) < 0.6)
                for x, y in np.argwhere(mask):  # keep one cell of every line
                    if not sub[x].any() or not sub[:, y].any():
                        sub[x, y] = True
                table = np.where(sub, rng.random(mask.shape) + 0.05, 0.0)
                table /= table.sum()
                t = MarginPair(table.sum(axis=1), table.sum(axis=0))
            got = classify_existence(SupportPattern(mask), t)
            complements = np.zeros_like(mask)
            for rows, cols in got.tight_rectangles:
                assert rows and cols and not mask[np.ix_(rows, cols)].any(), (mask, rows, cols)
                mass = t.row_margins[list(rows)].sum() + t.col_margins[list(cols)].sum()
                if got.tag == "C":
                    assert mass > 1.0, (mask, rows, cols)
                else:
                    assert abs(mass - 1.0) <= tol, (mask, rows, cols)
                outside = np.ones_like(mask)
                outside[list(rows)] = False
                outside[:, list(cols)] = False
                complements |= outside & mask
            if got.tag == "C":
                assert got.tight_rectangles, mask
            if got.tag == "B2":
                assert {tuple(c) for c in np.argwhere(complements).tolist()} == set(
                    got.forced_zero_cells), mask

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

    @pytest.mark.parametrize("fit_rows, fit_cols", [(True, False), (False, True),
                                                    (True, True)])
    def test_start_at_the_margins_needs_rows_and_columns(self, rng, fit_rows, fit_cols):
        # only a table at both margins skips the fit, and its margin error
        # is the larger deviation of the two
        p = JointPmf(random_positive_pmf(rng, 3, 4))
        have = pmf_core.margins(p)
        t = MarginPair(have.row_margins if fit_rows else random_margins(rng, 3),
                       have.col_margins if fit_cols else random_margins(rng, 4))
        fitted, diag = ipf_fit(p, t, tol=1e-12)
        deviation = max(np.abs(p.values.sum(axis=1) - t.row_margins).max(),
                        np.abs(p.values.sum(axis=0) - t.col_margins).max())
        if fit_rows and fit_cols:
            assert diag.iterations == 0 and diag.margin_error == deviation
            np.testing.assert_array_equal(fitted.values, p.values)
        else:
            assert diag.iterations > 0 and diag.margin_error <= 1e-12 < deviation

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
            l1 = []
            sweeps, (work, *_rest) = bind_buffer(scaling._bind, p.values, t.row_margins,
                                                 t.col_margins, 1)
            for _sweep in range(10**4):
                _, err = sweeps(scaling.DEFAULT_TOL, 1)
                l1.append(np.abs(work.sum(axis=1) - t.row_margins).sum())
                if err <= scaling.DEFAULT_TOL:
                    break
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


#: The three public fits, each on an input every good setting fits.
FITS = {
    "ipf_fit": lambda **kw: ipf_fit(from_counts(LIN_COUNTS),
                                    MarginPair([0.6, 0.4], [0.3, 0.7]), **kw),
    "copula_pmf": lambda **kw: copula_pmf(from_counts(LIN_COUNTS), **kw),
    "couple": lambda **kw: couple(JointPmf(np.full((2, 2), 0.25)),
                                  MarginPair([0.6, 0.4], [0.3, 0.7]), **kw),
}


class TestFitSettings:
    @pytest.mark.parametrize("fit", list(FITS))
    @pytest.mark.parametrize("setting", [
        {"max_iter": 10.5}, {"max_iter": 100.0}, {"max_iter": True},
        {"max_iter": 0}, {"max_iter": -5}, {"max_iter": "100"},
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0},
        {"tol": -1e-12}, {"tol": True}, {"tol": "1e-9"}, {"tol": None},
    ])
    def test_bad_setting_raises_validation_error(self, fit, setting):
        with pytest.raises(ValidationError, match=next(iter(setting))):
            FITS[fit](**setting)

    @pytest.mark.parametrize("fit", list(FITS))
    def test_numpy_scalars_pass(self, fit):
        _, diag = FITS[fit](tol=np.float64(1e-10), max_iter=np.int32(1000))
        assert diag.margin_error <= 1e-10

    @pytest.mark.parametrize("fit", list(FITS))
    def test_float32_tol_passes(self, fit):
        # a NumPy float that is not a Python float subclass
        _, diag = FITS[fit](tol=np.float32(1e-9))
        assert diag.margin_error <= float(np.float32(1e-9))

    def test_settings_checked_before_classifying(self):
        # a class C input: a bad budget is reported, not the infeasibility
        mask_values = np.array([[0.0, 0.0, 0.2], [0.0, 0.0, 0.2], [0.2, 0.2, 0.2]])
        with pytest.raises(ValidationError, match="max_iter"):
            ipf_fit(JointPmf(mask_values), uniform_pair(3, 3), max_iter=0)


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


def fit_inputs(rng):
    """Inputs of every fit path, each with the arrays the caller holds.

    Yields ``(name, fit, caller arrays)``: ``fit()`` returns
    ``(pmf, diagnostics)`` through ``ipf_fit``, ``copula_pmf`` or
    ``couple``, from a sweep, Newton, exact, B2 or fixed-point fit.
    """
    dense = random_positive_pmf(rng, 4, 5)
    rt, ct = random_margins(rng, 4), random_margins(rng, 5)
    p, t = JointPmf(dense), MarginPair(rt, ct)
    arrays = (dense, rt, ct, p.values, t.row_margins, t.col_margins)
    yield "sweeps", lambda: ipf_fit(p, t), arrays
    yield "copula", lambda: copula_pmf(p), arrays
    cop, _ = copula_pmf(p)
    yield "couple", lambda: couple(cop, t), arrays + (cop.values,)
    yield "fixed point", lambda: ipf_fit(p, pmf_core.margins(p)), arrays
    forest = JointPmf([[0.4, 0.3], [0.3, 0.0]])
    yield "exact", lambda: copula_pmf(forest), (forest.values,)
    b2 = JointPmf([[0.0, 0.3], [0.3, 0.4]])
    yield "B2", lambda: ipf_fit(b2, uniform_pair(2, 2)), (b2.values,)
    yield "newton", lambda: ipf_fit(CYCLE, cycle_targets(1e-4)), (CYCLE.values,)


@st.composite
def count_tables_and_margins(draw):
    """A 2x2..6x6 count table with cells over 26 orders of magnitude and
    zeros, every line positive, and positive margins for it."""
    n_rows, n_cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cells = st.one_of(st.just(0.0), st.floats(-30.0, 30.0).map(np.exp))
    values = np.reshape(draw(st.lists(cells, min_size=n_rows * n_cols,
                                      max_size=n_rows * n_cols)), (n_rows, n_cols))
    values[np.arange(n_rows), np.arange(n_rows) % n_cols] += 1.0
    values[np.arange(n_cols) % n_rows, np.arange(n_cols)] += 1.0
    logs = st.floats(-5.0, 5.0)
    rt = np.exp(draw(st.lists(logs, min_size=n_rows, max_size=n_rows)))
    ct = np.exp(draw(st.lists(logs, min_size=n_cols, max_size=n_cols)))
    return values, rt / rt.sum(), ct / ct.sum()


#: A B2 table whose forced cell (1, 0) holds about 1.3e-12 of the mass:
#: once it is zeroed, every line is within 1e-12 of the uniform margins,
#: but the total is 1.3e-12 short of 1.
B2_WITHIN_TOL = [[2 + math.exp(-26), 0.0], [math.exp(-26), 2 + math.exp(-26)]]


class TestFitOutputs:
    """Fitted tables skip the public checks, so check what they promise."""

    def test_read_only_and_own_memory(self, rng):
        for name, fit, arrays in fit_inputs(rng):
            fitted, diag = fit()
            assert not fitted.values.flags.writeable, name
            with pytest.raises(ValueError):
                fitted.values[0, 0] = 0.5
            for a in arrays:
                assert not np.shares_memory(fitted.values, a), name
            assert fitted.values.dtype == np.float64 and fitted.values.flags.c_contiguous
        assert diag.newton_steps > 0  # the last input took the Newton path

    def test_copula_targets_are_read_only(self, monkeypatch):
        seen = []
        monkeypatch.setattr(scaling, "classify_existence",
                            lambda s, t: seen.append((s, t)) or scaling.FeasibilityClass("A"))
        copula_pmf(from_counts(LIN_COUNTS))
        assert not seen  # a full support is class A by its shape alone
        mask = np.array([[0, 1, 1], [1, 1, 1], [1, 1, 1]])
        copula_pmf(JointPmf(mask / 8.0))
        (support, uniform), = seen
        for a in (support.mask, uniform.row_margins, uniform.col_margins):
            assert not a.flags.writeable
        assert support.mask.dtype == bool
        np.testing.assert_array_equal(support.mask, mask > 0)
        np.testing.assert_array_equal(uniform.row_margins, [1 / 3] * 3)

    @settings(max_examples=80, deadline=None)
    @given(count_tables_and_margins())
    @example((np.array(B2_WITHIN_TOL), np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    def test_outputs_pass_the_public_checks(self, problem):
        values, rt, ct = problem
        p = from_counts(values)
        t = MarginPair(rt, ct)
        outputs = [pmf_core.support(p)]
        for fit in (lambda: copula_pmf(p), lambda: ipf_fit(p, t),
                    lambda: couple(copula_pmf(p)[0], t)):
            try:
                outputs.append(fit()[0])
            except (InfeasibleError, NonConvergenceError):
                pass
        for out in outputs:
            if isinstance(out, SupportPattern):
                np.testing.assert_array_equal(SupportPattern(out.mask).mask, out.mask)
            else:
                np.testing.assert_array_equal(JointPmf(out.values).values, out.values)
                np.testing.assert_array_equal(pmf_core.support(out).mask,
                                              SupportPattern(out.values > 0).mask)

    @pytest.mark.parametrize("p, t, tol, error, message", [
        # as below, at a tol so loose that only the first row misses
        ([[0.4, 0.4], [0.1, 0.1]], ([5e-324, 1.0], [0.5, 0.5]), 0.5,
         ZeroMarginError, "all-zero row"),
        # the smallest positive row target rounds a row to zeros
        (np.full((2, 2), 0.25), ([5e-324, 1.0], [0.5, 0.5]), 1e-12,
         ZeroMarginError, "all-zero row"),
        (np.full((2, 2), 0.25), ([0.5, 0.5], [5e-324, 1.0]), 1e-12,
         ZeroMarginError, "all-zero column"),
    ])
    def test_a_table_the_fit_cannot_vouch_for_raises_as_joint_pmf(self, p, t, tol,
                                                                  error, message):
        with pytest.raises(error, match=message):
            ipf_fit(JointPmf(p), MarginPair(*t), tol=tol)

    @pytest.mark.parametrize("p, tol, copula", [
        ([[0.0, 0.3], [0.3, 0.4]], 0.5, [[0.0, 0.5], [0.5, 0.0]]),
        (B2_WITHIN_TOL, scaling.DEFAULT_TOL, [[0.5, 0.0], [0.0, 0.5]]),
    ])
    def test_zeroed_cells_keep_unit_mass(self, p, tol, copula):
        # zeroing the forced cell leaves every line within tol but the
        # mass short of 1; the columns are rescaled as a sweep ends
        fitted, diag = copula_pmf(from_counts(p), tol=tol)
        assert diag.classification.tag == "B2" and diag.margin_error <= tol
        assert abs(fitted.values.sum() - 1.0) <= pmf_core.SUM_TOL
        np.testing.assert_allclose(fitted.values, copula, rtol=0.0, atol=1e-15)


class TestBind:
    """The bind contract of both kernels: one bind per fit, buffers kept alive."""

    @staticmethod
    def count_calls(monkeypatch, bind):
        """Make the fits bind ``bind``, and record its binds and the budget of each call."""
        binds, calls = [], []

        def counting_bind(*args):
            sweeps = bind(*args)
            binds.append(args)

            def counted(tol, max_iter):
                calls.append(max_iter)
                return sweeps(tol, max_iter)

            return counted

        monkeypatch.setattr(scaling, "_bind", counting_bind)
        return binds, calls

    def test_one_bind_per_fit(self, monkeypatch):
        binds, calls = self.count_calls(monkeypatch, scaling._bind)
        fitted, diag = ipf_fit(CYCLE, cycle_targets(1e-1))
        # the support is not full: one call measures the table, and the fit
        # ends part-way through its third chunk
        assert len(binds) == 1 and calls == [0, 16, 32, 64]
        assert 48 < diag.iterations < 112
        # one buffer of the table, its targets, a 16-slot ring and the line
        # sums, which the fitted table, a copy, does not keep alive
        ((buf, n_rows, n_cols),) = binds
        assert (n_rows, n_cols) == (3, 3)
        assert buf.shape == (9 + 2 * (3 + 3) + scaling._RING_LEN,)
        assert fitted.values.base is None and not np.shares_memory(fitted.values, buf)
        np.testing.assert_array_equal(fitted.values, buf[:9].reshape(3, 3))

    @pytest.mark.parametrize("backend", ["loaded", "numpy"])
    def test_full_support_fit_in_one_kernel_call(self, monkeypatch, backend):
        # an independence table fits in one sweep, in the first chunk
        binds, calls = self.count_calls(monkeypatch, scaling._bind if backend == "loaded"
                                        else _ipf_py.bind)
        fitted, diag = copula_pmf(from_counts(np.outer([1, 2, 3], [4, 5, 6, 7])))
        assert len(binds) == 1 and calls == [16]
        assert diag.iterations == 1 and diag.classification is scaling._FULL
        np.testing.assert_allclose(fitted.values, 1 / 12, rtol=1e-15)

    @pytest.mark.parametrize("backend", ["loaded", "numpy"])
    def test_bound_buffers_outlive_the_caller(self, rng, backend):
        bind = scaling._bind if backend == "loaded" else _ipf_py.bind
        p = random_positive_pmf(rng, 4, 5)
        rt, ct = random_margins(rng, 4), random_margins(rng, 5)
        expected = bind_buffer(_ipf_py.bind, p, rt, ct, 16)[0](1e-12, 10**4)
        sweeps = bind_buffer(bind, p, rt, ct, 16)[0]  # drops its buffer and views
        # take back freed memory of the buffer's size (20 + 2 * (4 + 5) + 16
        # doubles), were it freed
        junk = [np.full(54, np.nan) for _ in range(50)]
        got = sweeps(1e-12, 10**4)
        assert np.isnan(junk[-1]).all()
        assert got == expected and got[1] <= 1e-12


class TestFittedTableOwnsItsMemory:
    """A fitted table is a base array: it keeps no binding buffer alive."""

    @pytest.mark.parametrize("case", ["sweeps", "already_fits", "exact", "newton", "B2"])
    def test_base_is_none(self, case):
        if case == "sweeps":
            p, t = from_counts(LIN_COUNTS), MarginPair([0.6, 0.4], [0.3, 0.7])
        elif case == "already_fits":
            p = JointPmf(np.full((3, 4), 1 / 12))
            t = uniform_pair(3, 4)
        elif case == "exact":
            p, t = JointPmf([[0.0, 0.5], [0.3, 0.2]]), MarginPair([0.4, 0.6], [0.5, 0.5])
        elif case == "newton":
            p, t = CYCLE, cycle_targets(1e-4)
        else:
            p, t = JointPmf([[0.0, 0.3], [0.3, 0.4]]), uniform_pair(2, 2)
        fitted, diag = ipf_fit(p, t)
        assert fitted.values.base is None and not fitted.values.flags.writeable
        assert {"sweeps": diag.method == "sweeps" and diag.iterations > 0,
                "already_fits": diag.iterations == 0 and diag.method == "sweeps",
                "exact": diag.method == "exact",
                "newton": diag.newton_steps > 0,
                "B2": diag.classification.tag == "B2"}[case]


#: A support with cycles (7 cells, more than 3 + 3 - 1); its column targets
#: sit ``gap`` away from a tight null rectangle.
CYCLE = JointPmf(np.array([[1, 1, 0], [1, 1, 0], [1, 1, 1]]) / 7.0)


def cycle_targets(gap):
    third = 1.0 / 3.0
    return MarginPair(np.full(3, third),
                      np.array([third + gap / 2, third + gap / 2, third - gap]))


def one_kernel_run(p, t, max_iter):
    """One call of the bound kernel, with an error ring of full length.

    Returns ``(table, sweeps, error, max errors)``, the errors cut to the
    sweeps run.
    """
    run, (work, _rt, _ct, err_max, *_sums) = bind_buffer(scaling._bind, p.values, t.row_margins,
                                                         t.col_margins, max_iter)
    sweeps, err = run(scaling.DEFAULT_TOL, max_iter)
    return work, sweeps, err, err_max[:sweeps]


class TestHistory:
    """Fits on cycle supports equal one uninterrupted kernel run.

    Runs on the kernel :mod:`tabcop.scaling` loaded (the C kernel where it
    builds); :class:`TestHistoryNumpyKernel` repeats it on the NumPy one.
    """

    def assert_same(self, diag, reference):
        _work, sweeps, err, err_max = reference
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
        work, sweeps, err, err_max = one_kernel_run(p, t, scaling.DEFAULT_MAX_ITER)
        np.testing.assert_array_equal(fitted.values, work)
        assert (diag.method, diag.iterations, diag.margin_error) == ("sweeps", sweeps, err)
        assert diag.newton_steps == 0
        assert diag.rate_estimate == scaling._rate_from_ring(err_max, sweeps)


@pytest.fixture
def numpy_kernel(monkeypatch):
    monkeypatch.setattr(scaling, "_bind", _ipf_py.bind)


@pytest.mark.usefixtures("numpy_kernel")
class TestHistoryNumpyKernel(TestHistory):
    """:class:`TestHistory` on the NumPy kernel."""


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

    @pytest.mark.parametrize("kernel", ["loaded", "numpy"])
    @pytest.mark.parametrize("fit", [
        lambda: ipf_fit(families.truncated_geometric_pmf(6, bernoulli.bernoulli_copula(1e-320)),
                        uniform_pair(6, 6)),
    ], ids=["ipf_fit"])
    def test_nan_error_fails_with_diagnostics(self, monkeypatch, kernel, fit):
        # the subnormal table's line sums underflow, and the first sweep's
        # error is NaN; the fit ends there, not in the Newton steps
        if kernel == "numpy":
            monkeypatch.setattr(scaling, "_bind", _ipf_py.bind)
        with pytest.raises(NonConvergenceError) as info:
            fit()
        failed = info.value
        assert type(failed) is NonConvergenceError
        diag = failed.diagnostics
        assert np.isnan(diag.margin_error)
        assert (diag.iterations, diag.newton_steps, diag.rate_estimate) == (16, 0, None)


def sweep_reference(values, t, tol=1e-14):
    """The sweep fit of ``values`` to a tighter tolerance; None if it misses."""
    run, (work, *_rest) = bind_buffer(_ipf_py.bind, values, t.row_margins, t.col_margins,
                                      scaling._RING_LEN)
    _sweeps, err = run(tol, 10**5)
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


def support_components_by_search(mask):
    """Connected components of the support, by a depth-first search over its cells."""
    n_rows, n_cols = mask.shape
    row_comp = [-1] * n_rows
    col_comp = [-1] * n_cols
    n_comp = 0
    for start in range(n_rows):
        if row_comp[start] >= 0:
            continue
        row_comp[start] = n_comp
        stack = [("r", start)]
        while stack:
            kind, idx = stack.pop()
            if kind == "r":
                for y in range(n_cols):
                    if mask[idx, y] and col_comp[y] < 0:
                        col_comp[y] = n_comp
                        stack.append(("c", y))
            else:
                for x in range(n_rows):
                    if mask[x, idx] and row_comp[x] < 0:
                        row_comp[x] = n_comp
                        stack.append(("r", x))
        n_comp += 1
    return n_comp, row_comp, col_comp


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

    @pytest.mark.parametrize("density", [1.0, 0.6, 0.3, 0.1])
    def test_components_match_the_cell_by_cell_search(self, rng, density):
        # the pinned lines of the Newton steps and the B1 separators come
        # from these labels; random full and partial supports, every line
        # covered
        for _ in range(60):
            n_rows, n_cols = rng.integers(1, 13, size=2)
            mask = rng.random((n_rows, n_cols)) < density
            mask[np.arange(n_rows), np.arange(n_rows) % n_cols] = True
            mask[np.arange(n_cols) % n_rows, np.arange(n_cols)] = True
            assert scaling._support_components(mask) == support_components_by_search(mask)

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
        residual = scaling._margin_residual(start.values, t.row_margins, t.col_margins)
        assume(np.abs(residual).max() > scaling.DEFAULT_TOL)  # else the start is returned
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
        assert fitted.values[0, 0] == pytest.approx(1e-6, rel=1e-9, abs=0.0)

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
            scaling._solve_exact(values, np.array([0.3, 0.7]), np.array([0.5, 0.5]),
                                 scaling.DEFAULT_TOL, scaling.FeasibilityClass("A"))
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

    @pytest.mark.parametrize("tol, message", [
        (-1.0, "tol must lie in [0, inf), got -1.0"),
        (float("nan"), "tol must lie in [0, inf), got nan"),
        (float("inf"), "tol must lie in [0, inf), got inf"),
        (True, "tol must be a real number, got True"),
    ])
    def test_invalid_tol_raises(self, tol, message):
        # a negative or NaN tol used to call identical tables unrelated
        q = JointPmf([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(ValidationError) as info:
            same_nucleus(q, q, tol=tol)
        assert str(info.value) == message

    def test_zero_tol(self):
        q = JointPmf([[0.1, 0.2], [0.3, 0.4]])
        assert same_nucleus(q, q, tol=0.0)

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


def in_order_sweeps(table, row_targets, col_targets, tol, max_iter, ring):
    """The C kernel's loops over plain Python floats, one operation at a time.

    Sweeps the nested list ``table`` and fills the list ``ring`` in place;
    returns ``(sweeps, row_sums, col_sums)``, the line sums those of the
    final table.
    """
    n_rows, n_cols, n_ring = len(table), len(table[0]), len(ring)

    def line_sums():
        row_sums, col_sums = [], [0.0] * n_cols
        for row in table:
            s = 0.0
            for y, cell in enumerate(row):
                s += cell
                col_sums[y] += cell
            row_sums.append(s)
        return row_sums, col_sums

    def fold(err, sums, targets):
        for s, target in zip(sums, targets):
            dev = abs(s - target)
            if dev > err or dev != dev:
                err = dev
        return err

    row_sums, col_sums = line_sums()
    err = fold(fold(0.0, row_sums, row_targets), col_sums, col_targets)
    if err <= tol or max_iter < 1:
        ring[-1] = err
        return 0, row_sums, col_sums
    for k in range(max_iter):
        err = 0.0
        col_sums = [0.0] * n_cols
        for x in range(n_rows):
            factor = row_targets[x] / row_sums[x]
            for y in range(n_cols):
                table[x][y] *= factor
                col_sums[y] += table[x][y]
        col_factors = [col_targets[y] / col_sums[y] for y in range(n_cols)]
        for x in range(n_rows):
            s = 0.0
            for y in range(n_cols):
                table[x][y] *= col_factors[y]
                s += table[x][y]
            row_sums[x] = s
        err = fold(0.0, row_sums, row_targets)
        ring[k % n_ring] = err
        if err <= tol:
            return (k + 1, *line_sums())
    return (max_iter, *line_sums())


def random_fit_input(rng, n_rows, n_cols):
    """A table with zero cells (none in a whole line) and targets for it."""
    table = rng.random((n_rows, n_cols)) ** 3
    table[rng.random((n_rows, n_cols)) < 0.2] = 0.0
    table[np.arange(n_rows), np.arange(n_rows) % n_cols] += 0.1
    table[np.arange(n_cols) % n_rows, np.arange(n_cols)] += 0.1
    return table / table.sum(), random_margins(rng, n_rows), random_margins(rng, n_cols)


#: Table shapes with row counts on and off multiples of 4 and rows of
#: fewer and more than 8 cells, where NumPy's own sums change order.
KERNEL_SHAPES = [(2, 2), (3, 40), (4, 4), (5, 7), (7, 3), (9, 16), (13, 13), (40, 40), (37, 21)]


class TestKernels:
    @pytest.mark.skipif(scaling.IPF_BACKEND == "python", reason="C kernel not built")
    def test_c_kernel_is_bit_identical_to_in_order_loops(self, rng):
        # budgets and tolerances stop runs at once (a table within tol, or
        # no sweep asked for), part-way through a ring and at convergence
        shapes = KERNEL_SHAPES + [tuple(rng.integers(2, 41, size=2)) for _ in range(40)]
        for n_rows, n_cols in shapes:
            table, rt, ct = random_fit_input(rng, n_rows, n_cols)
            tol = float(rng.choice([0.0, 1e-12, 1e-6, 1.0]))
            max_iter = int(rng.integers(0, 70))
            n_ring = int(rng.choice([1, 5, 16]))
            run, (work, row_t, col_t, ring, row_sums, col_sums) = bind_buffer(
                scaling._bind, table, rt, ct, n_ring)
            ring[:] = -1.0
            done, err = run(tol, max_iter)
            ref_table, ref_ring = table.tolist(), [-1.0] * n_ring
            ref_done, ref_rows, ref_cols = in_order_sweeps(ref_table, rt.tolist(), ct.tolist(),
                                                           tol, max_iter, ref_ring)
            assert done == ref_done
            assert work.tobytes() == np.array(ref_table).tobytes()
            assert ring.tobytes() == np.array(ref_ring).tobytes()
            assert err == ref_ring[(done - 1) % n_ring]
            assert row_sums.tobytes() == np.array(ref_rows).tobytes()
            assert col_sums.tobytes() == np.array(ref_cols).tobytes()
            assert (row_t == rt).all() and (col_t == ct).all()

    def test_python_kernel_contract(self, rng):
        p = random_positive_pmf(rng, 4, 5)
        rt, ct = random_margins(rng, 4), random_margins(rng, 5)
        run, (work, _rt, _ct, ring, row_sums, col_sums) = bind_buffer(_ipf_py.bind, p, rt, ct, 16)
        sweeps, err = run(1e-12, 10000)
        assert err <= 1e-12
        assert ring[(sweeps - 1) % 16] == err
        assert np.abs(work.sum(axis=1) - rt).max() <= 1e-12
        assert (row_sums == work.sum(axis=1)).all()
        assert (col_sums == work.sum(axis=0)).all()
        # the fitted table is within tol: the next call measures it and stops
        assert run(1e-12, 10000) == (0, max(np.abs(row_sums - rt).max(),
                                            np.abs(col_sums - ct).max()))
        assert ring[-1] == run(1e-12, 10000)[1]

    @pytest.mark.skipif(scaling.IPF_BACKEND != "c", reason="C kernel not built")
    def test_kernels_agree(self, rng):
        # NumPy sums rows of 8 or more cells in an order of its own, which
        # shifts the stop by a hair
        for n_rows, n_cols in KERNEL_SHAPES + [tuple(rng.integers(2, 41, size=2))
                                               for _ in range(20)]:
            p = random_positive_pmf(rng, n_rows, n_cols)
            rt, ct = random_margins(rng, n_rows), random_margins(rng, n_cols)
            run1, parts1 = bind_buffer(_ipf_py.bind, p, rt, ct, 16)
            run2, parts2 = bind_buffer(scaling._bind, p, rt, ct, 16)
            s1, e1 = run1(1e-12, 10**5)
            s2, e2 = run2(1e-12, 10**5)
            assert abs(s1 - s2) <= 2
            assert np.abs(parts1[0] - parts2[0]).max() <= 1e-12
            assert e1 <= 1e-12 and e2 <= 1e-12 and parts2[3][(s2 - 1) % 16] == e2
            for sums1, sums2 in zip(parts1[4:], parts2[4:]):
                assert np.abs(sums1 - sums2).max() <= 1e-15

    @pytest.mark.skipif(scaling.IPF_BACKEND != "c", reason="C kernel not built")
    def test_kernels_agree_bit_for_bit_below_8_columns(self, rng):
        # there NumPy sums in index order too, so the two kernels leave the
        # same bits in the whole buffer (the table, the targets, the ring
        # and the line sums) after every call: one that only measures, and
        # budgets that stop runs part-way, at two tolerances
        for _ in range(30):
            n_rows, n_cols = int(rng.integers(2, 13)), int(rng.integers(2, 8))
            table, rt, ct = random_fit_input(rng, n_rows, n_cols)
            max_iter, tol = int(rng.integers(1, 200)), float(rng.choice([1e-6, 1e-12]))
            results = []
            for bind in (_ipf_py.bind, scaling._bind):
                run, parts = bind_buffer(bind, table, rt, ct, 16)
                parts[3][:] = -1.0
                calls = [(run(tol, n), parts[0].base.tobytes()) for n in (0, max_iter, 16)]
                results.append(calls)
            numpy_run, c_run = results
            assert numpy_run == c_run

    @pytest.mark.skipif(scaling.IPF_BACKEND != "c", reason="C kernel not built")
    def test_c_kernel_keeps_nan_error(self):
        # a zero row with a zero target sums to 0/0: neither kernel converges
        table = np.array([[0.0, 0.0], [0.3, 0.7]])
        rt, ct = np.array([0.0, 1.0]), np.array([0.5, 0.5])
        for bind in (_ipf_py.bind, scaling._bind):
            with np.errstate(invalid="ignore"):
                sweeps, err = bind_buffer(bind, table, rt, ct, 16)[0](1e-12, 5)
            assert sweeps == 5 and np.isnan(err)

    @pytest.mark.skipif(scaling.IPF_BACKEND != "c", reason="C kernel not built")
    def test_c_kernel_checks_its_buffers(self):
        buf = _ipf_py.fit_buffer(2, 3, 16)  # 6 + 2 * (2 + 3) + 16
        scaling._bind(buf, 2, 3)
        scaling._bind(buf[:17], 2, 3)  # one ring slot
        read_only = buf.copy()
        read_only.flags.writeable = False
        for bad in [
            buf[:16],                            # no ring slot
            np.empty(0),
            np.empty(64)[::2],                   # not contiguous
            buf.reshape(2, 16),
            buf.astype(np.float32),
            read_only,
        ]:
            with pytest.raises(ValueError):
                scaling._bind(bad, 2, 3)


class TestKernelBuild:
    """The C kernel is built once into its cache; failures fall back to NumPy."""

    @staticmethod
    def build_or_skip(cache):
        bind, backend = scaling._load_kernel(str(cache))
        if backend != "c":
            pytest.skip("no C compiler here")
        return bind

    @staticmethod
    def fail_run(monkeypatch, error):
        def run(*_args, **_kwargs):
            raise error
        monkeypatch.setattr(subprocess, "run", run)

    def test_builds_once_then_loads(self, tmp_path, monkeypatch):
        self.build_or_skip(tmp_path)
        built = list(tmp_path.iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"  # no temp file left
        self.fail_run(monkeypatch, AssertionError("a warm cache must not build"))
        assert scaling._load_kernel(str(tmp_path))[1] == "c"

    def test_build_removes_superseded_libraries(self, tmp_path):
        platform = sysconfig.get_platform()
        stale = tmp_path / f"_ipf.{platform}.00000000.so"
        kept = [tmp_path / f"_ipf.not-{platform}.00000000.so",  # another platform's
                tmp_path / f"_ipf.{platform}.00000000.so.123.tmp",  # a build in flight
                tmp_path / "notes.txt"]
        for path in [stale, *kept]:
            path.write_bytes(b"")
        self.build_or_skip(tmp_path)
        built = scaling._lib_path(str(tmp_path), (Path(scaling.__file__).parent / "_ipf.c")
                                  .read_bytes(), scaling._CFLAGS)
        assert sorted(tmp_path.iterdir()) == sorted([Path(built), *kept])

    def test_cache_name_keys_the_flags(self, tmp_path):
        source = b"long f(void) { return 0; }"
        path = scaling._lib_path(str(tmp_path), source, scaling._CFLAGS)
        assert path == scaling._lib_path(str(tmp_path), source, scaling._CFLAGS)
        assert path != scaling._lib_path(str(tmp_path), source, ("-O2", "-shared", "-fPIC"))
        assert path != scaling._lib_path(str(tmp_path), source + b"\n", scaling._CFLAGS)

    @pytest.mark.parametrize("error", [
        FileNotFoundError("cc"),
        subprocess.CalledProcessError(1, "cc"),
        subprocess.TimeoutExpired("cc", 60),
    ])
    def test_failed_build_falls_back(self, tmp_path, monkeypatch, rng, error):
        self.fail_run(monkeypatch, error)
        bind, backend = scaling._load_kernel(str(tmp_path))
        assert (bind, backend) == (_ipf_py.bind, "python")
        assert not list(tmp_path.iterdir())
        monkeypatch.setattr(scaling, "_bind", bind)
        p = JointPmf(random_positive_pmf(rng, 4, 5))
        t = MarginPair(random_margins(rng, 4), random_margins(rng, 5))
        _, diag = ipf_fit(p, t)
        assert diag.method == "sweeps" and diag.margin_error <= scaling.DEFAULT_TOL

    def test_unwritable_cache_falls_back(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        assert scaling._load_kernel(str(not_a_dir / "cache"))[1] == "python"

    def test_unloadable_library_falls_back(self, tmp_path):
        # the library this process loaded stays as it is: writing over a
        # mapped library crashes the process, and the loader never does
        self.build_or_skip(tmp_path / "good")
        (lib,) = (tmp_path / "good").iterdir()
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / lib.name).write_bytes(b"not a shared library")
        assert scaling._load_kernel(str(tmp_path / "bad"))[1] == "python"
