import functools
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from tabcop import infinite
from tabcop.errors import DimensionMismatchError, ParamError, ValidationError
from tabcop.families import ContinuousCopulaSpec, discretize_copula
from tabcop.infinite import (
    DensityGrid,
    bivariate_poisson_pmf,
    couple_countable_margins,
    geometric_copula_grid,
    poisson_copula_grid,
    truncated_poisson_margin,
    upsilon_truncation_drift,
)
from tabcop.pmf_core import JointPmf

from conftest import additive_residual, pearson_correlation

#: levels past N-1 the oracle sums the tails over; beyond them the terms
#: of rates up to 2 + 2 are below exp(-55) of the tail
ORACLE_TAIL_LEVELS = 40


def _log_poisson_cell(lam10, lam01, lam11, x, y):
    """log P(X = x, Y = y) of the common-shock model, one shared count at a time."""
    shared = range(min(x, y) + 1) if lam11 > 0 else range(1)
    terms = [
        (x - i) * math.log(lam10) - math.lgamma(x - i + 1)
        + (y - i) * math.log(lam01) - math.lgamma(y - i + 1)
        + (i * math.log(lam11) if i else 0.0) - math.lgamma(i + 1)
        for i in shared
    ]
    return _log_fsum(terms) - (lam10 + lam01 + lam11)


def _log_fsum(logs):
    peak = max(logs)
    return peak + math.log(math.fsum(math.exp(t - peak) for t in logs))


def _poisson_pmf_oracle(lam10, lam01, lam11, n):
    """Truncated pmf from per-cell sums, tails summed cell by cell."""
    far = range(n - 1, n - 1 + ORACLE_TAIL_LEVELS)
    cell = functools.partial(_log_poisson_cell, lam10, lam01, lam11)
    out = np.empty((n, n))
    for x in range(n - 1):
        for y in range(n - 1):
            out[x, y] = math.exp(cell(x, y))
        out[x, n - 1] = math.exp(_log_fsum([cell(x, y) for y in far]))
        out[n - 1, x] = math.exp(_log_fsum([cell(y, x) for y in far]))
    out[n - 1, n - 1] = math.exp(_log_fsum([cell(x, y) for x in far for y in far]))
    return out


def _mpmath_poisson_pmf(lam10, lam01, lam11, n):
    """The truncated pmf at 40 digits: per cell, the sum over the shared count.

    Given Z11 = i, a coordinate below level N-1 is i plus a Poisson count
    and the boundary level takes that count's tail P(Z >= N-1-i), from the
    regularized incomplete gamma; a shared count of N-1 or more lands in
    the corner.
    """
    last = n - 1
    with mpmath.workdps(40):
        def pmfs_and_tails(lam):
            lam = mpmath.mpf(lam)
            pmf = [mpmath.exp(-lam) * lam**k / mpmath.factorial(k) for k in range(n)]
            tail = [mpmath.gammainc(m, 0, lam, regularized=True) for m in range(1, n)]
            return pmf, [mpmath.mpf(1)] + tail

        (px, tx), (py, ty) = pmfs_and_tails(lam10), pmfs_and_tails(lam01)
        ps, ts = pmfs_and_tails(lam11) if lam11 > 0 else ([mpmath.mpf(1)], [mpmath.mpf(0)] * n)
        out = np.empty((n, n))
        for x in range(n):
            for y in range(n):
                cell = ts[last] if x == y == last else mpmath.mpf(0)
                for i in range(min(x, y, last - 1, len(ps) - 1) + 1):
                    cell += (ps[i] * (tx[last - i] if x == last else px[x - i])
                             * (ty[last - i] if y == last else py[y - i]))
                out[x, y] = float(cell)
    return out


class TestBivariatePoisson:
    @pytest.mark.parametrize("lams, n", [
        ((1.0, 1.0, 0.0), 2), ((1.0, 1.0, 0.0), 30), ((1.0, 1.0, 1.0), 3),
        ((1.0, 1.0, 2.0), 24), ((0.3, 2.0, 0.7), 9), ((2.0, 2.0, 2.0), 4),
    ])
    def test_matches_per_cell_sums(self, lams, n):
        got = infinite.bivariate_poisson_pmf(*lams, n).values
        np.testing.assert_allclose(got, _poisson_pmf_oracle(*lams, n), rtol=1e-12, atol=0)

    @settings(max_examples=15, deadline=None)
    @given(lam10=st.floats(0.1, 2.0), lam01=st.floats(0.1, 2.0),
           lam11=st.one_of(st.just(0.0), st.floats(0.01, 2.0)), n=st.integers(2, 16))
    def test_matches_per_cell_sums_property(self, lam10, lam01, lam11, n):
        got = infinite.bivariate_poisson_pmf(lam10, lam01, lam11, n).values
        oracle = _poisson_pmf_oracle(lam10, lam01, lam11, n)
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("lams, n, rtol", [
        ((100.0, 100.0, 5.0), 4, 1e-12), ((300.0, 300.0, 1.0), 8, 1e-12),
        ((1.0, 1.0, 1.0), 64, 1e-13), ((1.0, 1.0, 0.3), 40, 1e-13),
        ((0.4, 2.7, 1.3), 30, 1e-13), ((1.0, 1.0, 2.5), 24, 1e-13),
        ((3.0, 0.2, 0.0), 20, 1e-13),
    ])
    def test_matches_40_digit_sums(self, lams, n, rtol):
        # rates far past the tail cut of the per-cell oracle, and long grids
        got = infinite.bivariate_poisson_pmf(*lams, n).values
        np.testing.assert_allclose(got, _mpmath_poisson_pmf(*lams, n), rtol=rtol, atol=0)
        assert got.sum() == pytest.approx(1.0, rel=0, abs=1e-14)

    def test_cells_below_the_normal_doubles_stay_in_the_support(self):
        # P(Y >= 121) of rate 0.1 is about 1e-322, where pdtrc returns 0:
        # the boundary column holds subnormals, each within two of their
        # spacings of the 40-digit value
        got = infinite.bivariate_poisson_pmf(0.1, 0.1, 0.0, 122).values
        ref = _mpmath_poisson_pmf(0.1, 0.1, 0.0, 122)
        assert got[0, -1] > 0.0
        np.testing.assert_array_equal(got > 0.0, ref > 0.0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=2 * 5e-324)

    @pytest.mark.parametrize("lam, n", [(0.01, 100), (1.0, 185), (30.0, 460), (300.0, 1240),
                                        (1000.0, 2500)])
    def test_log_tails_past_the_pdtrc_cutoff(self, lam, n):
        # the last tails lie below exp(-745), past the smallest subnormal
        got = infinite._poisson_log_tails(lam, infinite._poisson_log_pmf(lam, n))
        with mpmath.workdps(40):
            ref = [0.0] + [float(mpmath.log(mpmath.gammainc(m, 0, lam, regularized=True)))
                           for m in range(1, n)]
        assert ref[-1] < -745.0
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-15)

    def test_stirlerr_table_is_correctly_rounded(self):
        with mpmath.workdps(40):
            want = [0.0] + [float(mpmath.loggamma(k + 1) - (k + mpmath.mpf(0.5)) * mpmath.log(k)
                                  + k - mpmath.log(2 * mpmath.pi) / 2) for k in range(1, 16)]
        assert list(infinite._STIRLERR) == want

    @pytest.mark.parametrize("lam", np.logspace(-3, 3, 13).tolist())
    def test_log_pmf_matches_40_digits(self, lam):
        # the saddle-point form is within 10 ulps of max(1, |log P|) for k
        # from 0 to lam + 40 sqrt(lam) + 50; k log lam - lam - lgamma(k + 1)
        # missed by 3,355 of them at lam = 1000, k = 998
        top = int(lam + 40 * math.sqrt(lam) + 50)
        got = infinite._poisson_log_pmf(lam, top + 1)
        with mpmath.workdps(40):
            log_lam = mpmath.log(lam)
            ref = [k * log_lam - lam - mpmath.loggamma(k + 1) for k in range(top + 1)]
            miss = [float(abs(g - r)) / max(1.0, float(abs(r))) for g, r in zip(got.tolist(), ref)]
        assert max(miss) <= 10 * 2.0**-53

    def test_rows_that_underflow_are_rejected(self):
        # Pois(0..2; 3000) underflows, so rows 0-2 are empty in doubles at any N
        with pytest.raises(ValidationError):
            infinite.bivariate_poisson_pmf(3000.0, 1.0, 0.0, 4)

    def test_no_shock_is_product(self):
        p = bivariate_poisson_pmf(1.3, 0.7, 0.0, 12).values
        mx, my = p.sum(axis=1), p.sum(axis=0)
        assert np.abs(p - np.outer(mx, my)).max() <= 1e-15

    def test_first_odds_ratio(self):
        # the (1,1) odds ratio of the common-shock model is 1 + lam11/(lam10*lam01),
        # the shared-count series evaluated at x = y = 1
        for lam10, lam01, lam11 in ((1.0, 1.0, 0.2), (0.5, 2.0, 1.0)):
            p = bivariate_poisson_pmf(lam10, lam01, lam11, 20).values
            omega11 = p[0, 0] * p[1, 1] / (p[1, 0] * p[0, 1])
            assert omega11 == pytest.approx(1.0 + lam11 / (lam10 * lam01), rel=1e-12)

    def test_margins_match_truncated_poisson(self):
        p = bivariate_poisson_pmf(1.5, 1.5, 0.5, 50)
        expected = stats.poisson(2.0).pmf(np.arange(50))
        expected[-1] = stats.poisson(2.0).sf(48)
        assert np.abs(p.values.sum(axis=1) - expected).max() <= 1e-12
        assert np.abs(p.values.sum(axis=0) - expected).max() <= 1e-12

    def test_boundary_cells_keep_relative_accuracy(self):
        # tails far below rounding noise still carry the product structure
        p = bivariate_poisson_pmf(1.0, 1.0, 0.0, 30).values
        mx = p.sum(axis=1)
        corner = p[29, 29]
        assert corner > 0
        assert corner == pytest.approx(mx[29] * mx[29], rel=1e-10, abs=0.0)

    def test_param_validation(self):
        with pytest.raises(ParamError):
            bivariate_poisson_pmf(0.0, 1.0, 0.0, 5)
        with pytest.raises(ParamError):
            bivariate_poisson_pmf(1.0, 1.0, -0.1, 5)
        with pytest.raises(ParamError):
            bivariate_poisson_pmf(1.0, 1.0, 0.0, 1)


class TestTruncatedPoissonMargin:
    def test_sums_to_one(self):
        m = truncated_poisson_margin(2.0, 15)
        assert m.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(m[:-1], stats.poisson(2.0).pmf(np.arange(14)),
                                   atol=1e-15)

    @pytest.mark.parametrize("lam, n", [(2.0, 25), (2.0, 30), (0.5, 20), (3.0, 4)])
    def test_tail_keeps_relative_accuracy(self, lam, n):
        # tails of 4e-18, 9e-24 and 1e-23 lie below the rounding noise of 1 - sum
        m = truncated_poisson_margin(lam, n)
        assert m[-1] == pytest.approx(special.pdtrc(n - 2, lam), rel=1e-12, abs=0)

    @pytest.mark.parametrize("lam, n", [(0.1, 121), (0.1, 122), (1.0, 178)])
    def test_tail_below_the_normal_doubles_stays_positive(self, lam, n):
        # pdtrc returns 0 here; the tail is within one subnormal step of the
        # 40-digit value
        m = truncated_poisson_margin(lam, n)
        with mpmath.workdps(40):
            tail = mpmath.gammainc(n - 1, 0, lam, regularized=True)
        assert m[-1] > 0.0 and abs(m[-1] - float(tail)) <= 5e-324

    def test_bit_identical_where_pdtrc_is_normal(self):
        # the body levels are exp of the log pmf to the bit; the last level is
        # within 32.6 ulps of its 40-digit value per unit of |log P| (at least
        # one), the least such bound pdtrc meets on this grid: it misses by
        # 32.54 of them at lam = 31.6, n = 55
        for lam in np.logspace(-3, 2.5, 23).tolist():
            for n in (2, 3, 5, 8, 13, 21, 34, 55, 89, 144):
                last = special.pdtrc(n - 2, lam)
                log_pmf = infinite._poisson_log_pmf(lam, n).tolist()
                want = np.array([math.exp(v) for v in log_pmf])
                if last < np.finfo(float).tiny or (want[:-1] == 0.0).any():
                    continue
                got = truncated_poisson_margin(lam, n)
                np.testing.assert_array_equal(got[:-1], want[:-1])
                with mpmath.workdps(40):
                    tail = mpmath.gammainc(n - 1, 0, lam, regularized=True)
                    miss = float(abs(mpmath.mpf(float(got[-1])) / tail - 1))
                    bound = 32.6 * 2.0**-53 * max(1.0, -float(mpmath.log(tail)))
                assert miss <= bound, (lam, n, miss / bound)

    @pytest.mark.parametrize("lam", [1e-300, 1e-320, 5e-324])
    def test_tiny_rates_keep_their_tail(self, lam):
        # P(Z >= 1) = 1 - exp(-lam) rounds to lam; 1 / lam overflows at the
        # subnormal rates.  The tail is exp of a log near -690, whose half
        # ulp alone moves it by 5.7e-14 of itself
        m = truncated_poisson_margin(lam, 2)
        assert m[0] == 1.0 and m[1] == pytest.approx(lam, rel=1e-13, abs=5e-324)

    @pytest.mark.parametrize("lam, n", [(0.1, 123), (1.0, 179), (1.0, 300), (800.0, 4)])
    def test_levels_that_round_to_zero_raise(self, lam, n):
        with pytest.raises(ParamError, match=f"lam={lam}.*n_levels={n} "):
            truncated_poisson_margin(lam, n)

    @pytest.mark.parametrize("n", [10**8, 10**400])
    def test_huge_n_levels_raise_at_once(self, n):
        start = time.perf_counter()
        with pytest.raises(ParamError, match="rounds to 0"):
            truncated_poisson_margin(1.0, n)
        with pytest.raises(ParamError, match="rounds to 0"):
            poisson_copula_grid(1.0, n)
        assert time.perf_counter() - start < 1.0

    def test_coupling_with_far_tail(self):
        n = 30
        mx = truncated_poisson_margin(2.0, n)
        cop = JointPmf(geometric_copula_grid(0.5, n).heights / n**2)
        coupled = couple_countable_margins(mx, mx, cop).values
        np.testing.assert_allclose(coupled.sum(axis=1), mx, rtol=1e-6, atol=1e-12)


class TestPoissonCopulaGrid:
    def test_independence_is_flat(self):
        g = poisson_copula_grid(0.0, 32)
        assert np.abs(g.heights - 1.0).max() <= 1e-6

    def test_positive_shock_concentrates_diagonal_corner(self):
        g = poisson_copula_grid(0.2, 24)
        # positive association: more mass on the main diagonal corners
        # than on the opposite corners
        assert g.heights[0, 0] > g.heights[0, -1]
        assert g.heights[-1, -1] > g.heights[-1, 0]

    def test_truncation_guard(self):
        with pytest.raises(ParamError):
            poisson_copula_grid(0.2, 4)

    def test_margin_levels_that_round_to_zero_raise(self):
        # the fit used to end in ZeroMarginError on an all-zero row
        with pytest.raises(ParamError, match=r"lam=2\.0.*n_levels=300 "):
            poisson_copula_grid(1.0, 300)

    def test_mass_one(self):
        g = poisson_copula_grid(0.5, 24)
        assert g.heights.mean() == pytest.approx(1.0, abs=1e-9)

    def test_cells_the_model_table_underflows_are_kept(self):
        # the model's table has 12 cells past the doubles at N = 180, and the
        # fit of the support left took its per-cell max-flow probes for over
        # 25 s; the seed with the margins taken out has none, and the grid is
        # its rescaling, read on a subgrid of the interior against per-cell sums
        n = 180
        assert np.count_nonzero(bivariate_poisson_pmf(1.0, 1.0, 1.0, n).values == 0.0) == 12
        heights = poisson_copula_grid(1.0, n).heights
        assert heights.min() > 0.0
        idx = list(range(0, n - 1, 6))
        model = np.array([[_log_poisson_cell(1.0, 1.0, 1.0, x, y) for y in idx] for x in idx])
        gap = np.log(heights[np.ix_(idx, idx)]) - model
        assert additive_residual(gap) <= 1e-12 * np.abs(model).max()


class TestGeometricCopulaGrid:
    def test_ridge_at_omega_two(self):
        g = geometric_copula_grid(2.0, 32).heights
        for i in range(32):
            for j in (i - 1, i + 1):
                if 0 <= j < 32:
                    assert g[i, i] > g[i, j]

    def test_trough_at_omega_half(self):
        g = geometric_copula_grid(0.5, 32).heights
        for i in range(32):
            for j in (i - 1, i + 1):
                if 0 <= j < 32:
                    assert g[i, i] < g[i, j]

    def test_flat_at_independence(self):
        g = geometric_copula_grid(1.0, 16).heights
        assert np.abs(g - 1.0).max() <= 1e-9


class TestCoupleCountableMargins:
    def test_independence_gives_product(self):
        n = 12
        mx = truncated_poisson_margin(2.0, n)
        cop = JointPmf(np.full((n, n), 1.0 / n**2))
        coupled = couple_countable_margins(mx, mx, cop)
        assert np.abs(coupled.values - np.outer(mx, mx)).max() <= 1e-12

    @pytest.mark.parametrize("build", [
        lambda n: discretize_copula(
            ContinuousCopulaSpec("gaussian", {"rho": -0.8}), n, n),
        lambda n: discretize_copula(
            ContinuousCopulaSpec("clayton", {"theta": -0.2}), n, n),
        lambda n: JointPmf(geometric_copula_grid(0.5, n).heights / n**2),
    ])
    def test_negative_association_with_poisson_margins(self, build):
        n = 15
        mx = truncated_poisson_margin(2.0, n)
        coupled = couple_countable_margins(mx, mx, build(n))
        assert pearson_correlation(coupled.values) < 0.0

    def test_shape_mismatch(self):
        mx = truncated_poisson_margin(2.0, 5)
        with pytest.raises(DimensionMismatchError):
            couple_countable_margins(mx, mx, JointPmf(np.full((4, 4), 1 / 16)))


class TestUpsilonDrift:
    def test_zero_shock_is_stable(self):
        assert upsilon_truncation_drift(0.0, 8) <= 1e-9

    def test_positive_shock_converges_slowly(self):
        # measured behaviour: the Yule coefficient of the Poisson copula
        # keeps moving when the truncation doubles at practical sizes; no
        # rate in N is asserted anywhere, this diagnostic quantifies it
        drift = upsilon_truncation_drift(0.2, 12)
        assert 0.05 < drift < 0.5

    def test_large_truncation_has_a_finite_drift(self):
        # the doubled truncation, N = 180, is the grid's seed and fit; the
        # fit of the model's table with its underflowed cells did not finish
        assert math.isfinite(upsilon_truncation_drift(1.0, 90))


class TestDensityGrid:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DensityGrid(np.ones((3, 2)))
        with pytest.raises(ValidationError):
            DensityGrid(2.0 * np.ones((3, 3)))
        bad_margins = np.array([[2.0, 1.0], [0.0, 1.0]])  # mean 1, row means off
        with pytest.raises(ValidationError):
            DensityGrid(bad_margins)
        DensityGrid(np.array([[2.0, 0.0], [0.0, 2.0]]))  # diagonal grid is valid

    @pytest.mark.parametrize("make", [
        lambda: poisson_copula_grid(0.5, 24), lambda: poisson_copula_grid(0.0, 16),
        lambda: geometric_copula_grid(2.0, 16), lambda: geometric_copula_grid(0.0, 8),
        lambda: geometric_copula_grid(1.0, 2),
    ])
    def test_constructed_grids_pass_the_public_checks(self, make):
        # the constructors skip DensityGrid's checks; their grids still pass them
        g = make()
        assert not g.heights.flags.writeable
        assert g.heights.dtype == np.float64 and g.heights.flags.c_contiguous
        np.testing.assert_array_equal(DensityGrid(g.heights).heights, g.heights)

    def test_cell_centers(self):
        g = geometric_copula_grid(1.0, 4)
        np.testing.assert_allclose(g.cell_centers(), [0.2, 0.4, 0.6, 0.8])
