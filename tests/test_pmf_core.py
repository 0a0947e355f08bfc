import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabcop import pmf_core
from tabcop.errors import (
    EmptyTableError,
    ParseError,
    ValidationError,
    ZeroMarginError,
)
from tabcop.pmf_core import JointPmf, MarginPair, SupportPattern, from_counts, is_copula_pmf

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

    def test_overflowing_total_rejected(self):
        # the grand total overflows to inf, so every cell normalizes to 0
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="sum to 1"):
            from_counts([[1e308, 1e308], [1, 1]])

    def test_read_only_and_own_memory(self):
        counts = np.array(LIN_COUNTS, dtype=float)
        p = from_counts(counts)
        assert not p.values.flags.writeable
        assert not np.shares_memory(p.values, counts)


def line_sums(values):
    """The row and the column sums of ``values``, as a fit hands them over."""
    return values.sum(axis=1), values.sum(axis=0)


class TestWrapFitted:
    def test_valid_table_wrapped_read_only(self):
        values = np.array([[0.25, 0.25], [0.5, 0.0]])
        p = pmf_core._wrap_fitted(values, *line_sums(values))
        assert type(p) is JointPmf and p.values is values
        assert not values.flags.writeable

    @pytest.mark.parametrize("bad, error, match", [
        ([[0.5, 0.5], [0.5, 0.0]], ValidationError, "sum to 1"),
        ([[0.5, np.nan], [0.5, 0.0]], ValidationError, "finite"),
        ([[0.5, np.inf], [0.5, 0.0]], ValidationError, "finite"),
        ([[0.5, 0.5], [0.0, 0.0]], ZeroMarginError, "row"),
        ([[0.5, 0.0], [0.5, 0.0]], ZeroMarginError, "column"),
    ])
    def test_failed_check_raises_as_the_constructor(self, bad, error, match):
        with pytest.raises(error, match=match) as by_constructor:
            JointPmf(np.array(bad))
        with pytest.raises(error, match=match) as by_wrap:
            with np.errstate(invalid="ignore"):
                sums = line_sums(np.array(bad))
            pmf_core._wrap_fitted(np.array(bad), *sums)
        assert str(by_wrap.value) == str(by_constructor.value)


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

    def test_read_only_and_own_memory(self, rng):
        p = JointPmf(random_positive_pmf(rng, 3, 4))
        s = pmf_core.support(p)
        assert s.mask.dtype == bool and not s.mask.flags.writeable
        assert not np.shares_memory(s.mask, p.values)

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

    @pytest.mark.parametrize("tol, message", [
        (0.0, "tol must be positive"),
        (math.nan, "tol must lie in [0, inf), got nan"),
        (-1e-9, "tol must lie in [0, inf), got -1e-09"),
        (math.inf, "tol must lie in [0, inf), got inf"),
        (True, "tol must be a real number, got True"),
        ("1e-9", "tol must be a real number, got '1e-9'"),
        pytest.param(10**400, "tol lies past the range of a double", id="10**400"),
    ])
    def test_invalid_tol_raises(self, tol, message):
        # a NaN tol used to read every table as no copula
        with pytest.raises(ValidationError) as info:
            is_copula_pmf(JointPmf(np.full((2, 2), 0.25)), tol=tol)
        assert str(info.value) == message

    def test_numpy_tol_accepted(self):
        assert is_copula_pmf(JointPmf(np.full((2, 2), 0.25)), tol=np.float64(1e-12))


def numpy_uniform_lines(row_sums, col_sums, tol):
    """The NumPy form of the uniform-lines test, the reference for the list loop."""
    row_sums, col_sums = np.asarray(row_sums), np.asarray(col_sums)
    return bool(np.abs(row_sums - 1.0 / row_sums.size).max() <= tol
                and np.abs(col_sums - 1.0 / col_sums.size).max() <= tol)


@st.composite
def drawn_line_sums(draw, tol):
    """Sums of 2 to 10 lines: uniform, off by about ``tol`` either way, or not finite."""
    n = draw(st.integers(2, 10))
    uniform = 1.0 / n
    offsets = st.one_of(
        st.sampled_from([0.0, tol, -tol, math.nextafter(tol, 0.0), math.nextafter(tol, 1.0),
                         -math.nextafter(tol, 0.0), -math.nextafter(tol, 1.0)]),
        st.floats(-10.0 * tol, 10.0 * tol),
    )
    sums = [uniform + draw(offsets) for _ in range(n)]
    if draw(st.integers(0, 9)) == 0:
        sums[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return sums


@st.composite
def uniform_lines_case(draw):
    tol = draw(st.floats(1e-15, 1e-3))
    rows, cols = draw(drawn_line_sums(tol)), draw(drawn_line_sums(tol))
    if draw(st.booleans()):
        # a tol equal to one line's deviation, as NumPy forms it, puts that
        # line exactly on the bound
        line = draw(st.sampled_from([rows, cols]))
        deviation = abs(line[draw(st.integers(0, len(line) - 1))] - 1.0 / len(line))
        if 0.0 < deviation < math.inf:
            tol = deviation
    return rows, cols, tol


@settings(max_examples=1000, deadline=None)
@given(case=uniform_lines_case())
def test_uniform_lines_agree_with_numpy(case):
    rows, cols, tol = case
    assert pmf_core._has_uniform_lines(rows, cols, tol) == numpy_uniform_lines(rows, cols, tol)


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


# -- the ordered checks the constructors ran before their fast paths ----------
#
# Kept here as they stood, one invariant at a time, so that the
# constructors' fast acceptance can be checked against them: every input
# either passes both or raises the same error with the same message.


def ordered_joint_pmf(values):
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
        raise ValidationError(
            f"joint pmf must be a matrix with at least 2 rows and 2 "
            f"columns, got shape {v.shape}"
        )
    if not np.isfinite(v).all():
        raise ValidationError("joint pmf entries must be finite")
    if (v < 0).any():
        raise ValidationError("joint pmf entries must be nonnegative")
    if abs(v.sum() - 1.0) > pmf_core.SUM_TOL:
        raise ValidationError(f"joint pmf entries must sum to 1 (got {v.sum()!r})")
    if (v.sum(axis=1) <= 0).any():
        raise ZeroMarginError("joint pmf has an all-zero row")
    if (v.sum(axis=0) <= 0).any():
        raise ZeroMarginError("joint pmf has an all-zero column")
    return v.copy()


def ordered_margin_pair(row_margins, col_margins):
    out = []
    for name, m in (("row", row_margins), ("col", col_margins)):
        v = np.asarray(m, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValidationError(f"{name} margins must be a vector of length >= 2")
        if not np.isfinite(v).all() or (v <= 0).any():
            raise ValidationError(f"{name} margins must be strictly positive")
        if abs(v.sum() - 1.0) > pmf_core.SUM_TOL:
            raise ValidationError(f"{name} margins must sum to 1 (got {v.sum()!r})")
        out.append(v.copy())
    return out


def ordered_from_counts(counts):
    c = np.asarray(counts, dtype=float)
    if c.ndim != 2 or c.shape[0] < 2 or c.shape[1] < 2:
        raise ValidationError(
            f"count table must have at least 2 rows and 2 columns, got {c.shape}"
        )
    if not np.isfinite(c).all() or (c < 0).any():
        raise ValidationError("counts must be finite and nonnegative")
    total = c.sum()
    if total <= 0:
        raise EmptyTableError("count table has grand total 0")
    if (c.sum(axis=1) <= 0).any() or (c.sum(axis=0) <= 0).any():
        raise ZeroMarginError("count table has an all-zero row or column")
    return ordered_joint_pmf(c / total)


def outcome(build):
    """What ``build()`` does: its arrays' bytes, or its error's type and message.

    Also returns the set of warnings it emitted.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build()
        except ValidationError as exc:
            result = (type(exc), str(exc))
    return result, {(w.category, str(w.message)) for w in caught}


def arrays_of(obj):
    if isinstance(obj, JointPmf):
        assert not obj.values.flags.writeable
        return [obj.values.tobytes()]
    if isinstance(obj, MarginPair):
        assert not (obj.row_margins.flags.writeable or obj.col_margins.flags.writeable)
        return [obj.row_margins.tobytes(), obj.col_margins.tobytes()]
    return [np.asarray(a).tobytes() for a in (obj if isinstance(obj, list) else [obj])]


def same_outcome(build, reference):
    (got, got_warnings), (want, want_warnings) = outcome(build), outcome(reference)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert arrays_of(got) == arrays_of(want)
    assert got_warnings == want_warnings


def sum_message(prefix, values):
    """The constructors' "sum to 1" message for ``values``, as NumPy prints its sum."""
    with np.errstate(over="ignore"):
        return f"{prefix} must sum to 1 (got {np.asarray(values, dtype=float).sum()!r})"


NAN, INF = math.nan, math.inf

#: (input, error, message) for JointPmf.
INVALID_PMFS = [
    ([[NAN, 0.5], [0.25, 0.25]], ValidationError, "joint pmf entries must be finite"),
    ([[INF, 0.5], [0.25, 0.25]], ValidationError, "joint pmf entries must be finite"),
    ([[-INF, 0.5], [0.25, 0.25]], ValidationError, "joint pmf entries must be finite"),
    ([[NAN, -1.0], [0.25, 0.25]], ValidationError, "joint pmf entries must be finite"),
    ([[1.2, -0.2], [0.0, 0.0]], ValidationError, "joint pmf entries must be nonnegative"),
    ([[0.6, -0.1], [0.25, 0.25]], ValidationError, "joint pmf entries must be nonnegative"),
    ([[0.5, -5e-324], [0.25, 0.25]], ValidationError, "joint pmf entries must be nonnegative"),
    ([[0.0, 0.0], [0.5, 0.5]], ZeroMarginError, "joint pmf has an all-zero row"),
    ([[0.5, 0.0], [0.5, 0.0]], ZeroMarginError, "joint pmf has an all-zero column"),
    ([[0.0, 0.0], [0.0, 0.0]], ValidationError,
     sum_message("joint pmf entries", [[0.0, 0.0], [0.0, 0.0]])),
    ([[0.3, 0.3], [0.3, 0.3]], ValidationError,
     sum_message("joint pmf entries", [[0.3, 0.3], [0.3, 0.3]])),
    ([[1e308, 1e308], [0.0, 1.0]], ValidationError,  # a finite table whose sum overflows
     sum_message("joint pmf entries", [[1e308, 1e308], [0.0, 1.0]])),
    ([0.5, 0.5], ValidationError,
     "joint pmf must be a matrix with at least 2 rows and 2 columns, got shape (2,)"),
    ([[0.5, 0.5]], ValidationError,
     "joint pmf must be a matrix with at least 2 rows and 2 columns, got shape (1, 2)"),
]

#: (input, error, message) for from_counts.
INVALID_COUNTS = [
    ([[NAN, 1.0], [1.0, 1.0]], ValidationError, "counts must be finite and nonnegative"),
    ([[INF, 1.0], [1.0, 1.0]], ValidationError, "counts must be finite and nonnegative"),
    ([[-INF, 1.0], [1.0, 1.0]], ValidationError, "counts must be finite and nonnegative"),
    ([[INF, -INF], [1.0, 1.0]], ValidationError, "counts must be finite and nonnegative"),
    ([[-1.0, 3.0], [1.0, 1.0]], ValidationError, "counts must be finite and nonnegative"),
    ([[-5e-324, 3.0], [1.0, 1.0]], ValidationError, "counts must be finite and nonnegative"),
    ([[0.0, 0.0], [1.0, 1.0]], ZeroMarginError, "count table has an all-zero row or column"),
    ([[0.0, 1.0], [0.0, 1.0]], ZeroMarginError, "count table has an all-zero row or column"),
    ([[0.0, 0.0], [0.0, 0.0]], EmptyTableError, "count table has grand total 0"),
    # the total overflows to inf and every cell normalizes to 0
    ([[1e308, 1e308], [1.0, 1.0]], ValidationError,
     sum_message("joint pmf entries", [[0.0, 0.0], [0.0, 0.0]])),
    # 5e-324 / 1e300 underflows: a positive count row, an all-zero pmf row
    ([[5e-324, 0.0], [1e300, 1e300]], ZeroMarginError, "joint pmf has an all-zero row"),
    ([1.0, 1.0], ValidationError, "count table must have at least 2 rows and 2 columns, got (2,)"),
    ([[1.0, 2.0, 3.0]], ValidationError,
     "count table must have at least 2 rows and 2 columns, got (1, 3)"),
]

#: (row margins, col margins, error, message) for MarginPair.
INVALID_MARGINS = [
    ([NAN, 0.5], [0.5, 0.5], "row margins must be strictly positive"),
    ([INF, 0.5], [0.5, 0.5], "row margins must be strictly positive"),
    ([-INF, 0.5], [0.5, 0.5], "row margins must be strictly positive"),
    ([1.2, -0.2], [0.5, 0.5], "row margins must be strictly positive"),
    ([1.0, 0.0], [0.5, 0.5], "row margins must be strictly positive"),
    ([0.5, 0.5], [1.0, 0.0], "col margins must be strictly positive"),
    ([0.3, 0.8], [0.5, 0.5], sum_message("row margins", [0.3, 0.8])),
    ([0.5, 0.5], [0.2, 0.2], sum_message("col margins", [0.2, 0.2])),
    ([1e308, 1e308], [0.5, 0.5], sum_message("row margins", [1e308, 1e308])),
    ([1.0], [0.5, 0.5], "row margins must be a vector of length >= 2"),
    ([[0.5, 0.5]], [0.5, 0.5], "row margins must be a vector of length >= 2"),
    ([0.5, 0.5], 1.0, "col margins must be a vector of length >= 2"),
]

#: (mask, error, message) for SupportPattern.
INVALID_MASKS = [
    ([True, True], ValidationError, "support mask must be a matrix"),
    ([[False, False], [True, True]], ZeroMarginError, "support mask has an empty row or column"),
    ([[True, False], [True, False]], ZeroMarginError, "support mask has an empty row or column"),
    ([[False, False], [False, False]], ZeroMarginError,
     "support mask has an empty row or column"),
]


class TestErrorPaths:
    """Every invalid input raises the ordered checks' error, word for word."""

    @pytest.mark.parametrize("values, error, message", INVALID_PMFS)
    def test_joint_pmf(self, values, error, message):
        with np.errstate(over="ignore"), pytest.raises(error) as info:
            JointPmf(values)
        assert type(info.value) is error and str(info.value) == message
        same_outcome(lambda: JointPmf(values), lambda: ordered_joint_pmf(values))

    @pytest.mark.parametrize("counts, error, message", INVALID_COUNTS)
    def test_from_counts(self, counts, error, message):
        with np.errstate(over="ignore"), pytest.raises(error) as info:
            from_counts(counts)
        assert type(info.value) is error and str(info.value) == message
        same_outcome(lambda: from_counts(counts), lambda: ordered_from_counts(counts))

    @pytest.mark.parametrize("rows, cols, message", INVALID_MARGINS)
    def test_margin_pair(self, rows, cols, message):
        with np.errstate(over="ignore"), pytest.raises(ValidationError) as info:
            MarginPair(rows, cols)
        assert type(info.value) is ValidationError and str(info.value) == message
        same_outcome(lambda: MarginPair(rows, cols), lambda: ordered_margin_pair(rows, cols))

    @pytest.mark.parametrize("mask, error, message", INVALID_MASKS)
    def test_support_pattern(self, mask, error, message):
        with pytest.raises(error) as info:
            SupportPattern(mask)
        assert type(info.value) is error and str(info.value) == message

    def test_valid_inputs_pass_both(self):
        same_outcome(lambda: JointPmf([[-0.0, 0.5], [0.25, 0.25]]),
                     lambda: ordered_joint_pmf([[-0.0, 0.5], [0.25, 0.25]]))
        same_outcome(lambda: from_counts([[-0.0, 2.0], [1.0, 1.0]]),
                     lambda: ordered_from_counts([[-0.0, 2.0], [1.0, 1.0]]))
        same_outcome(lambda: MarginPair([0.25, 0.75], [0.5, 0.5]),
                     lambda: ordered_margin_pair([0.25, 0.75], [0.5, 0.5]))


#: Entries injected into otherwise valid tables and vectors.
BAD_ENTRIES = [NAN, INF, -INF, -1.0, -1e-17, -0.0, -5e-324, 5e-324, 0.0, 1e-300, 1e300,
               1e308, 2.0]


def with_bad_entries(draw, shape):
    """Positive values of ``shape``, some zeroed, with a few entries replaced
    by :data:`BAD_ENTRIES`, then mostly scaled to sum to 1, so that
    negative and tiny entries also sit in tables of unit mass."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random(shape) * draw(st.sampled_from([1.0, 60.0, 1e-300, 1e300]))
    values[rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    for _ in range(draw(st.integers(0, 3))):
        index = tuple(draw(st.integers(0, n - 1)) for n in shape)
        values[index] = draw(st.sampled_from(BAD_ENTRIES))
    with np.errstate(all="ignore"):  # inf - inf, or a sum past the doubles
        total = values.sum()
        if draw(st.integers(0, 3)) and math.isfinite(total) and total != 0.0:
            values /= total
    return values


@st.composite
def tables_with_bad_entries(draw):
    """:func:`with_bad_entries` in shapes 2x2 to 5x5, one in ten flattened or with one line."""
    shape = (draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return with_bad_entries(draw, shape).ravel()
    if kind == 1:
        return with_bad_entries(draw, (1, shape[1]))
    return with_bad_entries(draw, shape)


@st.composite
def vectors_with_bad_entries(draw):
    """:func:`with_bad_entries` in lengths 1 to 6, one in ten as a column."""
    values = with_bad_entries(draw, (draw(st.integers(1, 6)),))
    return values[:, np.newaxis] if draw(st.integers(0, 9)) == 0 else values


class TestFastAcceptance:
    """The constructors' fast paths against the ordered checks kept above."""

    @settings(max_examples=300, deadline=None)
    @example(values=np.array([[0.5, -0.0], [0.25, 0.25]]))
    @example(values=np.array([[5e-324, 0.0], [1e300, 1e300]]))
    @example(values=np.array([[1e308, 1e308], [INF, 0.1]]))  # a sum past the doubles
    @given(values=tables_with_bad_entries())
    def test_joint_pmf(self, values):
        same_outcome(lambda: JointPmf(values), lambda: ordered_joint_pmf(values))

    @settings(max_examples=300, deadline=None)
    @example(values=np.array([[5e-324, 0.0], [1e300, 1e300]]))
    @example(values=np.array([[1e308, 1e308], [1.0, 1.0]]))
    @example(values=np.array([[1e308, 1e308, INF], [0.0165, 0.813, 0.913]]))
    @given(values=tables_with_bad_entries())
    def test_from_counts(self, values):
        same_outcome(lambda: from_counts(values), lambda: ordered_from_counts(values))

    @settings(max_examples=300, deadline=None)
    @example(rows=np.array([1e308, 1e308, INF]), cols=np.array([0.5, 0.5]))
    @given(rows=vectors_with_bad_entries(), cols=vectors_with_bad_entries())
    def test_margin_pair(self, rows, cols):
        same_outcome(lambda: MarginPair(rows, cols), lambda: ordered_margin_pair(rows, cols))
