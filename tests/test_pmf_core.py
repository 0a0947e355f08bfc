import io

import numpy as np
import pytest

from tabcop import pmf_core
from tabcop.errors import (
    EmptyTableError,
    ParseError,
    ValidationError,
    ZeroMarginError,
)
from tabcop.pmf_core import JointPmf, MarginPair, from_counts, is_copula_pmf

from conftest import LIN_COUNTS, LIN_PMF, random_positive_pmf


class TestJointPmf:
    def test_valid_table(self):
        p = JointPmf([[0.25, 0.25], [0.25, 0.25]])
        assert p.shape == (2, 2)
        assert p.R == 2 and p.S == 2

    def test_values_read_only(self):
        p = JointPmf([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(ValueError):
            p.values[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [
        [[0.5, 0.5]],                      # single row
        [[1.2, -0.2], [0.0, 0.0]],         # negative entry
        [[0.3, 0.3], [0.3, 0.3]],          # sums to 1.2
        [[0.0, 0.0], [0.5, 0.5]],          # zero row
        [[0.5, 0.0], [0.5, 0.0]],          # zero column
    ])
    def test_invalid_tables(self, bad):
        with pytest.raises(ValidationError):
            JointPmf(bad)

    def test_margin_pair_validation(self):
        MarginPair([0.3, 0.7], [0.2, 0.3, 0.5])
        with pytest.raises(ValidationError):
            MarginPair([0.3, 0.8], [0.5, 0.5])
        with pytest.raises(ValidationError):
            MarginPair([1.0, 0.0], [0.5, 0.5])


class TestFromCounts:
    def test_complete_case_counts(self):
        p = from_counts(LIN_COUNTS)
        np.testing.assert_allclose(p.values, LIN_PMF, atol=1e-15)

    def test_uniform_counts(self):
        p = from_counts([[1, 1], [1, 1]])
        np.testing.assert_array_equal(p.values, np.full((2, 2), 0.25))

    def test_diagonal_counts(self):
        p = from_counts([[2, 0], [0, 2]])
        np.testing.assert_array_equal(p.values, [[0.5, 0.0], [0.0, 0.5]])

    def test_scale_invariance(self, rng):
        counts = rng.integers(1, 100, size=(3, 4)).astype(float)
        for k in (0.5, 3.0, 1e6):
            np.testing.assert_array_equal(
                from_counts(counts).values, from_counts(k * counts).values
            )

    def test_zero_margin_rejected(self):
        with pytest.raises(ZeroMarginError):
            from_counts([[1, 1], [0, 0]])

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyTableError):
            from_counts([[0, 0], [0, 0]])


class TestMargins:
    def test_complete_case_margins(self):
        pair = pmf_core.margins(from_counts(LIN_COUNTS))
        np.testing.assert_allclose(pair.row_margins, [0.54, 0.46], atol=1e-15)
        np.testing.assert_allclose(pair.col_margins, [0.62, 0.38], atol=1e-15)

    def test_independence_margins(self):
        p = JointPmf(np.full((4, 5), 1 / 20))
        pair = pmf_core.margins(p)
        np.testing.assert_allclose(pair.row_margins, np.full(4, 0.25), atol=1e-15)
        np.testing.assert_allclose(pair.col_margins, np.full(5, 0.2), atol=1e-15)

    def test_diagonal_margins(self):
        pair = pmf_core.margins(JointPmf([[0.5, 0.0], [0.0, 0.5]]))
        np.testing.assert_array_equal(pair.row_margins, [0.5, 0.5])
        np.testing.assert_array_equal(pair.col_margins, [0.5, 0.5])

    def test_margins_sum_to_one(self, rng):
        for _ in range(50):
            shape = rng.integers(2, 7, size=2)
            p = JointPmf(random_positive_pmf(rng, *shape))
            pair = pmf_core.margins(p)
            assert abs(pair.row_margins.sum() - 1.0) <= 1e-12
            assert abs(pair.col_margins.sum() - 1.0) <= 1e-12


class TestSupport:
    def test_diagonal_mask(self):
        s = pmf_core.support(JointPmf([[0.5, 0.0], [0.0, 0.5]]))
        np.testing.assert_array_equal(s.mask, [[True, False], [False, True]])

    def test_all_positive_mask(self, rng):
        p = JointPmf(random_positive_pmf(rng, 3, 3))
        assert pmf_core.support(p).mask.all()

    def test_complete_association_shape(self):
        s = pmf_core.support(JointPmf([[0.0, 0.3], [0.3, 0.4]]))
        np.testing.assert_array_equal(s.mask, [[False, True], [True, True]])

    def test_threshold(self):
        # tiny mass is mass: there is no threshold
        p = JointPmf([[1e-13, 0.5 - 1e-13], [0.5 - 1e-13, 1e-13]])
        assert pmf_core.support(p).mask.all()

    def test_every_row_and_column_covered(self, rng):
        for _ in range(50):
            shape = rng.integers(2, 6, size=2)
            s = pmf_core.support(JointPmf(random_positive_pmf(rng, *shape)))
            assert s.mask.any(axis=1).all() and s.mask.any(axis=0).all()


class TestIsCopulaPmf:
    def test_independence_is_copula(self):
        assert is_copula_pmf(JointPmf(np.full((3, 4), 1 / 12)), tol=1e-12)

    def test_lin_table_is_not(self):
        assert not is_copula_pmf(from_counts(LIN_COUNTS), tol=1e-3)

    def test_rounded_lin_copula_is(self):
        assert is_copula_pmf(JointPmf([[0.453, 0.047], [0.047, 0.453]]), tol=1e-3)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValidationError):
            is_copula_pmf(JointPmf([[0.25] * 2] * 2), tol=0.0)


class TestParseTable:
    def test_counts(self):
        m = pmf_core.parse_table("26,1\n5,18", "csv_counts")
        np.testing.assert_array_equal(m, LIN_COUNTS)

    def test_probs_uniform(self):
        m = pmf_core.parse_table("0.25,0.25\n0.25,0.25", "csv_probs")
        np.testing.assert_array_equal(m, np.full((2, 2), 0.25))

    def test_probs_renormalized_exactly(self):
        text = "0.1000000001,0.4\n0.2,0.3"
        m = pmf_core.parse_table(text, "csv_probs")
        assert m.sum() == pytest.approx(1.0, abs=1e-15)

    def test_ragged_rows(self):
        with pytest.raises(ParseError):
            pmf_core.parse_table("1,2\n3", "csv_counts")

    def test_bad_cell(self):
        with pytest.raises(ParseError):
            pmf_core.parse_table("1,x\n3,4", "csv_counts")

    def test_empty(self):
        with pytest.raises(ParseError):
            pmf_core.parse_table("", "csv_counts")

    def test_negative_entry(self):
        with pytest.raises(ValidationError):
            pmf_core.parse_table("1,-2\n3,4", "csv_counts")

    def test_prob_sum_off(self):
        with pytest.raises(ValidationError):
            pmf_core.parse_table("0.5,0.2\n0.2,0.2", "csv_probs")

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            pmf_core.parse_table("1,2\n3,4", "tsv")

    def test_stream_input(self):
        m = pmf_core.parse_table(io.StringIO("1,2\n3,4\n"), "csv_counts")
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])
