import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.optimize import linear_sum_assignment

from tabcop.bernoulli import bernoulli_copula, odds_ratio
from tabcop.dependence import frechet_bounds, odds_ratio_matrix, yule_upsilon
from tabcop.errors import InfeasibleError, ParamError, ValidationError, check_size
from tabcop.families import (
    ContinuousCopulaSpec,
    _assignment_face,
    _binomial_odds_entries,
    _gaussian_cdf,
    _geometric_limit_costs,
    _student_cdf,
    binomial_copula,
    bivariate_binomial_pmf,
    copula_cdf,
    discretize_copula,
    fgm_pmf,
    goodman_copula,
    parse_family_spec,
    truncated_geometric_copula,
    truncated_geometric_pmf,
)
from tabcop.infinite import bivariate_poisson_pmf, poisson_copula_grid, truncated_poisson_margin
from tabcop.pmf_core import JointPmf, is_copula_pmf

from conftest import (
    binomial2_copula_closed_form,
    geometric3_copula_closed_form,
    goodman33_copula_closed_form,
)

PARAM_GRID = (0.05, 0.5, 2.0, 20.0)

#: Arguments from 1e-320 to 0.1, spread over the orders of magnitude.
TINY = st.floats(-320.0, -1.0).map(lambda k: 10.0 ** k)

#: A member of every family, with parameters where the closed forms stay
#: finite at arguments down to 1e-320 (Gumbel overflows past theta about
#: 100, Frank fails past |theta| about 700).
ANY_FAMILY = st.one_of(
    st.just(ContinuousCopulaSpec("independence", {})),
    st.floats(-1.0, 1.0).map(lambda th: ContinuousCopulaSpec("fgm", {"theta": th})),
    st.floats(-1.0, 300.0).filter(lambda th: th != 0.0).map(
        lambda th: ContinuousCopulaSpec("clayton", {"theta": th})),
    st.floats(1.0, 50.0).map(lambda th: ContinuousCopulaSpec("gumbel", {"theta": th})),
    st.floats(-50.0, 50.0).filter(lambda th: th != 0.0).map(
        lambda th: ContinuousCopulaSpec("frank", {"theta": th})),
    st.floats(-0.99, 0.99).map(lambda rho: ContinuousCopulaSpec("gaussian", {"rho": rho})),
    st.tuples(st.floats(-0.99, 0.99), st.floats(-1.0, 8.0)).map(
        lambda a: ContinuousCopulaSpec("student", {"rho": a[0], "df": 10.0 ** a[1]})),
)


class TestSpecValidation:
    @pytest.mark.parametrize("family,params", [
        ("fgm", {"theta": 1.5}),
        ("clayton", {"theta": 0.0}),
        ("clayton", {"theta": -1.5}),
        ("gumbel", {"theta": 0.9}),
        ("frank", {"theta": 0.0}),
        ("gaussian", {"rho": 1.0}),
        ("student", {"rho": 0.2, "df": 0.0}),
        ("nonsense", {}),
        ("gaussian", {"theta": 0.5}),
    ])
    def test_rejected(self, family, params):
        with pytest.raises(ParamError):
            ContinuousCopulaSpec(family, params)

    def test_parse(self):
        spec = parse_family_spec("clayton:theta=-0.8")
        assert spec.family == "clayton"
        assert spec.params == {"theta": -0.8}
        spec = parse_family_spec("student:rho=-0.5,df=4")
        assert spec.params == {"rho": -0.5, "df": 4.0}
        with pytest.raises(ParamError):
            parse_family_spec("clayton:theta")


class TestCopulaCdf:
    def test_independence(self):
        spec = ContinuousCopulaSpec("independence", {})
        assert copula_cdf(spec, 0.3, 0.7) == pytest.approx(0.21, abs=1e-15)

    @pytest.mark.parametrize("spec", [
        ContinuousCopulaSpec("independence", {}),
        ContinuousCopulaSpec("fgm", {"theta": 0.7}),
        ContinuousCopulaSpec("clayton", {"theta": 0.8}),
        ContinuousCopulaSpec("clayton", {"theta": -0.6}),
        ContinuousCopulaSpec("gumbel", {"theta": 2.0}),
        ContinuousCopulaSpec("frank", {"theta": -3.0}),
        ContinuousCopulaSpec("gaussian", {"rho": -0.8}),
        ContinuousCopulaSpec("student", {"rho": 0.3, "df": 2.0}),
    ])
    def test_uniform_margins_and_grounding(self, spec):
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert copula_cdf(spec, w, 1.0) == pytest.approx(w, abs=1e-9)
            assert copula_cdf(spec, 1.0, w) == pytest.approx(w, abs=1e-9)
            assert copula_cdf(spec, w, 0.0) == 0.0
            assert copula_cdf(spec, 0.0, w) == 0.0

    def test_clayton_against_density_quadrature(self):
        # 2-D integral of the Clayton density over [0, 0.5]^2, in log
        # coordinates so the adaptive rule resolves the corner
        theta = 0.8

        def clayton_density(u, v):
            s = u ** (-theta) + v ** (-theta) - 1.0
            return (1.0 + theta) * (u * v) ** (-theta - 1.0) * s ** (-1.0 / theta - 2.0)

        def log_integrand(t_in, s_out):
            u, v = math.exp(-s_out), math.exp(-t_in)
            return clayton_density(u, v) * u * v

        oracle, err = integrate.dblquad(
            log_integrand, math.log(2.0), 60.0, math.log(2.0), 60.0, epsabs=1e-11
        )
        assert err < 5e-9  # conservative estimate; oracle supports 1e-8
        spec = ContinuousCopulaSpec("clayton", {"theta": theta})
        assert copula_cdf(spec, 0.5, 0.5) == pytest.approx(oracle, abs=1e-8)

    def test_elliptical_median_quadrant(self):
        # for elliptically symmetric pairs the both-below-median mass is
        # 1/4 + arcsin(rho)/(2*pi), an exact oracle for both families
        for rho in (-0.8, -0.3, 0.0, 0.5, 0.9):
            expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
            gauss = ContinuousCopulaSpec("gaussian", {"rho": rho})
            assert copula_cdf(gauss, 0.5, 0.5) == pytest.approx(expected, abs=1e-10)
        for rho, df in ((-0.5, 1.0), (0.0, 1.0), (0.6, 4.0)):
            expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
            student = ContinuousCopulaSpec("student", {"rho": rho, "df": df})
            assert copula_cdf(student, 0.5, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_student_discretized_is_copula(self):
        spec = ContinuousCopulaSpec("student", {"rho": 0.4, "df": 2.0})
        p = discretize_copula(spec, 3, 3)
        assert is_copula_pmf(p, tol=1e-7)
        # symmetric positive dependence: heavier diagonal than corners
        assert p.values[0, 0] > p.values[0, 2]
        assert p.values[0, 0] == pytest.approx(p.values[2, 2], abs=1e-7)

    def test_domain_check(self):
        from tabcop.errors import DomainError

        with pytest.raises(DomainError):
            copula_cdf(ContinuousCopulaSpec("independence", {}), 1.2, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(spec=ANY_FAMILY, small=TINY,
           other=st.one_of(TINY, st.floats(0.0, 1.0, exclude_max=True)),
           swap=st.booleans())
    def test_within_exact_frechet_bounds(self, spec, small, other, swap):
        # rounding and quadrature error near the corners, of order 1e-16
        # absolute, must not carry C past its bounds (at other = 1, C is
        # small itself, which the rounded u + v - 1 may exceed)
        u, v = (other, small) if swap else (small, other)
        value = copula_cdf(spec, u, v)
        assert max(0.0, u + v - 1.0) <= value <= min(u, v)

    def test_clayton_past_overflow(self):
        # (1/15) ** -300 overflows a double; 50-digit decimals are the oracle
        from decimal import Decimal, localcontext

        spec = ContinuousCopulaSpec("clayton", {"theta": 300.0})
        with localcontext() as ctx:
            ctx.prec = 50
            for i, j in ((1, 1), (1, 2), (3, 14), (7, 8)):
                base = (Decimal(15) / i) ** 300 + (Decimal(15) / j) ** 300 - 1
                oracle = float((-base.ln() / 300).exp())
                assert copula_cdf(spec, i / 15, j / 15) == pytest.approx(oracle, rel=1e-14)
        p = discretize_copula(spec, 15, 15)
        assert is_copula_pmf(p, tol=1e-12)
        assert np.trace(p.values) > 0.95  # near the comonotone limit


def _normal_cdf2(h, k, rho):
    """P(Z1 <= h, Z2 <= k) for standard normals with correlation rho, by Owen's T."""
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    r = math.sqrt(1.0 - rho * rho)

    def owen(a, b):
        if a == 0.0:
            return math.copysign(0.25, b)
        return special.owens_t(a, (b - rho * a) / (a * r))

    beta = 0.5 if h * k < 0.0 or (h * k == 0.0 and h + k < 0.0) else 0.0
    return 0.5 * (special.ndtr(h) + special.ndtr(k)) - owen(h, k) - owen(k, h) - beta


def _student_cdf_by_mixture(u, v, rho, df):
    """The bivariate t as a normal scale mixture over S = sqrt(W / df), W ~ chi^2_df."""
    x, y = special.stdtrit(df, u), special.stdtrit(df, v)
    log_norm = math.log(2.0) + 0.5 * df * math.log(0.5 * df) - math.lgamma(0.5 * df)

    def integrand(s):
        density = math.exp(log_norm + (df - 1.0) * math.log(s) - 0.5 * df * s * s)
        return _normal_cdf2(x * s, y * s, rho) * density

    # the density of S peaks near s = 1
    return sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        for lo, hi in ((0.0, 1.0), (1.0, math.inf))
    )


class TestStudentCdf:
    @settings(max_examples=40, deadline=None)
    @given(
        u=st.floats(0.01, 0.99),
        v=st.floats(0.01, 0.99),
        rho=st.floats(-0.95, 0.95),
        df=st.floats(1.0, 60.0),
    )
    def test_matches_normal_scale_mixture(self, u, v, rho, df):
        assert _student_cdf(u, v, rho, df) == pytest.approx(
            _student_cdf_by_mixture(u, v, rho, df), abs=1e-10
        )

    @pytest.mark.parametrize("rho", [-0.99, -0.5, 0.0, 0.3, 0.9, 0.99])
    def test_large_df_is_gaussian(self, rho):
        for u, v in ((0.5, 0.5), (0.1, 0.8), (0.02, 0.03), (0.97, 0.6)):
            assert _student_cdf(u, v, rho, 1e8) == pytest.approx(
                _gaussian_cdf(u, v, rho), abs=1e-9
            )

    def test_overflowing_quantiles(self):
        # at df = 2 the quantile of 1e-320 is about -7e159, so that
        # (x + y)^2 and -2xy overflow to inf and -inf
        assert _student_cdf(1e-320, 1e-320, -0.5, 2.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @example(u=1e-300, v=0.5, rho=0.3, df=3.0)
    @given(
        u=st.floats(250.0, 320.0).map(lambda k: 10.0 ** -k),
        v=st.one_of(st.floats(250.0, 320.0).map(lambda k: 10.0 ** -k),
                    st.floats(0.01, 0.99)),
        rho=st.floats(-0.99, 0.99),
        df=st.floats(-1.0, 8.0).map(lambda k: 10.0 ** k),
    )
    def test_tiny_arguments_within_frechet_bounds(self, u, v, rho, df):
        # stdtrit returns +inf for some of these u, where the quantile is
        # a large negative number
        spec = ContinuousCopulaSpec("student", {"rho": rho, "df": df})
        for a, b in ((u, v), (v, u)):
            value = copula_cdf(spec, a, b)
            assert max(0.0, a + b - 1.0) - 1e-12 <= value <= min(a, b) + 1e-12

    def test_no_warnings(self):
        spec = ContinuousCopulaSpec("student", {"rho": 0.5, "df": 4.0})
        rng = np.random.default_rng(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_copula_pmf(discretize_copula(spec, 15, 15), tol=1e-12)
            for _ in range(2000):
                u, v = rng.uniform(0.0, 1.0, 2)
                rho = rng.uniform(-0.999, 0.999)
                df = 10.0 ** rng.uniform(-1.0, 8.0)
                value = _student_cdf(u, v, rho, df)
                assert max(0.0, u + v - 1.0) - 1e-12 <= value <= min(u, v) + 1e-12


class TestDiscretize:
    def test_independence_uniform(self):
        spec = ContinuousCopulaSpec("independence", {})
        for shape in ((2, 2), (3, 5)):
            p = discretize_copula(spec, *shape)
            np.testing.assert_allclose(
                p.values, np.full(shape, 1.0 / (shape[0] * shape[1])), atol=1e-15
            )

    def test_fgm_closed_form_cell(self):
        p = discretize_copula(ContinuousCopulaSpec("fgm", {"theta": 1.0}), 3, 3)
        expected_00 = (1.0 / 9.0) * (1.0 + (1.0 - 1.0 / 3.0) * (1.0 - 1.0 / 3.0))
        assert p.values[0, 0] == pytest.approx(expected_00, abs=1e-14)
        assert expected_00 == pytest.approx(13.0 / 81.0)

    @pytest.mark.parametrize("spec,shape", [
        (ContinuousCopulaSpec("fgm", {"theta": -1.0}), (4, 6)),
        (ContinuousCopulaSpec("clayton", {"theta": 0.8}), (5, 3)),
        (ContinuousCopulaSpec("gumbel", {"theta": 2.0}), (3, 3)),
        (ContinuousCopulaSpec("frank", {"theta": 4.0}), (4, 4)),
        (ContinuousCopulaSpec("gaussian", {"rho": -0.8}), (5, 5)),
    ])
    def test_margins_telescope_exactly(self, spec, shape):
        p = discretize_copula(spec, *shape)
        assert np.abs(p.values.sum(axis=1) - 1.0 / shape[0]).max() <= 1e-14
        assert np.abs(p.values.sum(axis=0) - 1.0 / shape[1]).max() <= 1e-14

    def test_matches_fgm_closed_form_everywhere(self):
        for theta in (-1.0, -0.3, 0.4, 1.0):
            spec = ContinuousCopulaSpec("fgm", {"theta": theta})
            a = discretize_copula(spec, 4, 5)
            b = fgm_pmf(theta, 4, 5)
            assert np.abs(a.values - b.values).max() <= 1e-13


class TestFgm:
    def test_zero_theta_is_independence(self):
        p = fgm_pmf(0.0, 3, 4)
        np.testing.assert_array_equal(p.values, np.full((3, 4), 1.0 / 12.0))

    def test_corners_heaviest_for_positive_theta(self):
        p = fgm_pmf(1.0, 5, 3).values
        assert p[0, 0] == p.max() and p[-1, -1] == p.max()
        assert p[0, -1] == p.min() and p[-1, 0] == p.min()

    def test_rotation_symmetry(self):
        for theta in (-0.7, 0.3, 1.0):
            p = fgm_pmf(theta, 5, 3).values
            np.testing.assert_allclose(p, p[::-1, ::-1], atol=1e-16)

    def test_param_range(self):
        with pytest.raises(ParamError):
            fgm_pmf(1.2, 3, 3)


class TestBivariateBinomial:
    def test_n2_matrix(self):
        p2 = JointPmf([[0.4, 0.15], [0.2, 0.25]])
        v = p2.values
        p = bivariate_binomial_pmf(2, p2).values
        a, b, c, d = v[0, 0], v[0, 1], v[1, 0], v[1, 1]
        expected = np.array([
            [a * a, 2 * a * b, b * b],
            [2 * a * c, 2 * (d * a + c * b), 2 * d * b],
            [c * c, 2 * c * d, d * d],
        ])
        assert np.abs(p - expected).max() <= 1e-14

    def test_n1_identity(self):
        p2 = JointPmf([[0.4, 0.15], [0.2, 0.25]])
        np.testing.assert_array_equal(bivariate_binomial_pmf(1, p2).values, p2.values)

    def test_row_sums_are_binomial(self):
        p2 = JointPmf([[0.4, 0.15], [0.2, 0.25]])
        pi_x = p2.values[1].sum()
        for n in (2, 5, 9):
            rows = bivariate_binomial_pmf(n, p2).values.sum(axis=1)
            expected = [
                math.comb(n, x) * pi_x**x * (1 - pi_x) ** (n - x)
                for x in range(n + 1)
            ]
            np.testing.assert_allclose(rows, expected, atol=1e-13)

    @pytest.mark.parametrize("n", [31, 60])
    def test_matches_multinomial_formula(self, n):
        p2 = JointPmf([[0.4, 0.15], [0.2, 0.25]])
        v = p2.values
        p = bivariate_binomial_pmf(n, p2).values
        for x, y in ((0, 0), (3, 7), (15, 15), (31, 4), (n, n)):
            direct = sum(
                math.comb(n, k) * math.comb(n - k, x - k) * math.comb(n - x, y - k)
                * v[0, 0] ** (n - x - y + k) * v[1, 0] ** (x - k)
                * v[0, 1] ** (y - k) * v[1, 1] ** k
                for k in range(max(x + y - n, 0), min(x, y) + 1)
            )
            assert p[x, y] == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_handles_zero_cells(self):
        upper, _ = frechet_bounds(2)
        p = bivariate_binomial_pmf(3, upper).values
        np.testing.assert_allclose(np.diag(p), [0.5**3 * math.comb(3, k) for k in range(4)])
        assert p.sum() == pytest.approx(1.0)
        assert (p[~np.eye(4, dtype=bool)] == 0).all()


class TestBinomialCopula:
    def test_matches_printed_closed_form(self):
        for w in PARAM_GRID:
            got = binomial_copula(2, w)
            assert np.abs(got.values - binomial2_copula_closed_form(w)).max() <= 1e-8

    def test_independence(self):
        np.testing.assert_array_equal(binomial_copula(3, 1.0).values,
                                      np.full((4, 4), 1.0 / 16.0))

    def test_endpoints(self):
        upper, lower = frechet_bounds(3)
        np.testing.assert_array_equal(binomial_copula(2, 0.0).values, lower.values)
        np.testing.assert_array_equal(binomial_copula(2, math.inf).values,
                                      upper.values)

    def test_odds_ratios_match_series(self):
        for n in (1, 2, 3, 4, 5, 6):
            for w in (0.1, 1.0, 10.0):
                cop = binomial_copula(n, w)
                got = odds_ratio_matrix(cop).entries
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        expected = sum(
                            math.comb(n, k) * math.comb(n - k, x - k)
                            * math.comb(n - x, y - k)
                            / (math.comb(n, x) * math.comb(n, y)) * w**k
                            for k in range(max(x + y - n, 0), min(x, y) + 1)
                        )
                        assert got[x - 1, y - 1] == pytest.approx(expected, rel=1e-8)

    def test_copula_margins(self):
        for w in PARAM_GRID:
            assert is_copula_pmf(binomial_copula(2, w), tol=1e-10)

    def test_upsilon_monotone(self):
        grid = np.logspace(-2, 2, 9)
        ups = [yule_upsilon(binomial_copula(2, float(w))) for w in grid]
        assert all(a <= b + 1e-12 for a, b in zip(ups, ups[1:]))


def _exact_odds_entries(n, omega):
    """E[omega**K], K ~ Hypergeometric(n, x, y), in exact rational arithmetic."""
    return [[sum(Fraction(math.comb(x, k) * math.comb(n - x, y - k)) * omega**k
                 for k in range(max(x + y - n, 0), min(x, y) + 1)) / math.comb(n, y)
             for y in range(1, n + 1)] for x in range(1, n + 1)]


class TestBinomialOddsEntries:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 30), num=st.integers(1, 40), den=st.integers(1, 40))
    def test_match_exact_sums(self, n, num, den):
        omega = Fraction(num, den)
        got = _binomial_odds_entries(n, float(omega))
        want = np.array(_exact_odds_entries(n, omega), dtype=float)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_past_exact_float_coefficients(self):
        # binomial coefficients of n = 60 exceed 2**53, so the float
        # Pascal rows round
        omega = Fraction(2)
        want = np.array(_exact_odds_entries(60, omega), dtype=float)
        np.testing.assert_allclose(_binomial_odds_entries(60, 2.0), want, rtol=1e-13, atol=0)


class TestTruncatedGeometricPmf:
    def test_n3_products(self):
        p2 = JointPmf([[0.4, 0.15], [0.2, 0.25]])
        v = p2.values
        p00, p01, p10, p11 = v[0, 0], v[0, 1], v[1, 0], v[1, 1]
        row0, row1 = p00 + p01, p10 + p11
        col0, col1 = p00 + p10, p01 + p11
        expected = np.array([
            [p11, p10 * col1, p10 * col0],
            [p01 * row1, p00 * p11, p00 * p10],
            [p01 * row0, p00 * p01, p00 * p00],
        ])
        got = truncated_geometric_pmf(3, p2).values
        assert np.abs(got - expected).max() <= 1e-14

    def test_n2_form(self):
        p2 = JointPmf([[0.4, 0.15], [0.2, 0.25]])
        v = p2.values
        got = truncated_geometric_pmf(2, p2).values
        expected = np.array([[v[1, 1], v[1, 0]], [v[0, 1], v[0, 0]]])
        np.testing.assert_allclose(got, expected, atol=1e-16)

    def test_total_mass_for_many_levels(self):
        p2 = JointPmf([[0.4, 0.15], [0.2, 0.25]])
        for n in (2, 5, 10, 25, 50):
            total = truncated_geometric_pmf(n, p2).values.sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_level_validation(self):
        with pytest.raises(ParamError):
            truncated_geometric_pmf(1, JointPmf(np.full((2, 2), 0.25)))


def _face_by_resolves(cost):
    """Optimal-face cells by forcing each cell and re-solving the rest."""
    n = cost.shape[0]
    rows, cols = linear_sum_assignment(cost)
    best = int(cost[rows, cols].sum())
    face = np.zeros((n, n), dtype=bool)
    for x in range(n):
        for y in range(n):
            sub = np.delete(np.delete(cost, x, axis=0), y, axis=1)
            r2, c2 = linear_sum_assignment(sub)
            face[x, y] = int(cost[x, y] + sub[r2, c2].sum()) == best
    return face


class TestAssignmentFace:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 8).flatmap(
        lambda n: st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n)))
    def test_matches_resolves_on_random_costs(self, flat):
        n = math.isqrt(len(flat))
        cost = np.array(flat, dtype=np.int64).reshape(n, n)
        np.testing.assert_array_equal(_assignment_face(cost), _face_by_resolves(cost))

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 20])
    def test_matches_resolves_on_geometric_orders(self, n):
        order, _coef = _geometric_limit_costs(n)
        np.testing.assert_array_equal(_assignment_face(order), _face_by_resolves(order))


class TestTruncatedGeometricCopula:
    def test_matches_printed_closed_form(self):
        for w in PARAM_GRID:
            got = truncated_geometric_copula(3, w)
            assert np.abs(got.values - geometric3_copula_closed_form(w)).max() <= 1e-8

    def test_independence(self):
        np.testing.assert_array_equal(truncated_geometric_copula(3, 1.0).values,
                                      np.full((3, 3), 1.0 / 9.0))

    def test_zero_omega_limit(self):
        got = truncated_geometric_copula(3, 0.0)
        expected = (np.ones((3, 3)) - np.eye(3)) / 6.0
        assert np.abs(got.values - expected).max() <= 1e-12
        assert yule_upsilon(got) == pytest.approx(-0.5, abs=1e-10)

    def test_zero_omega_two_levels(self):
        got = truncated_geometric_copula(2, 0.0)
        np.testing.assert_allclose(got.values, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_zero_omega_larger_grid_is_continuous_limit(self):
        limit = truncated_geometric_copula(4, 0.0)
        assert is_copula_pmf(limit, tol=1e-10)
        # mass settles on the two off-diagonal blocks, uniformly
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 1], [2, 3])] = 0.125
        expected[np.ix_([2, 3], [0, 1])] = 0.125
        np.testing.assert_allclose(limit.values, expected, atol=1e-12)
        # small-omega copulas drift toward the limit (slowly: cells on the
        # boundary of the optimal support vanish at a fractional power)
        gaps = [
            np.abs(truncated_geometric_copula(4, w).values - limit.values).max()
            for w in (1e-4, 1e-7, 1e-10)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_infinite_omega(self):
        upper, _ = frechet_bounds(5)
        got = truncated_geometric_copula(5, math.inf)
        assert np.abs(got.values - upper.values).max() <= 1e-12

    def test_copula_margins(self):
        for w in PARAM_GRID:
            assert is_copula_pmf(truncated_geometric_copula(4, w), tol=1e-10)

    def test_upsilon_monotone(self):
        grid = np.logspace(-2, 2, 9)
        ups = [yule_upsilon(truncated_geometric_copula(3, float(w))) for w in grid]
        assert all(a <= b + 1e-12 for a, b in zip(ups, ups[1:]))


class TestGoodmanCopula:
    def test_matches_printed_closed_form(self):
        for th in PARAM_GRID:
            got = goodman_copula(3, 3, th)
            assert np.abs(got.values - goodman33_copula_closed_form(th)).max() <= 1e-8

    def test_independence(self):
        np.testing.assert_array_equal(goodman_copula(3, 3, 1.0).values,
                                      np.full((3, 3), 1.0 / 9.0))

    def test_endpoints_square(self):
        upper, lower = frechet_bounds(3)
        np.testing.assert_array_equal(goodman_copula(3, 3, 0.0).values, lower.values)
        np.testing.assert_array_equal(
            goodman_copula(3, 3, math.inf).values, upper.values
        )

    def test_endpoints_rectangular_infeasible(self):
        with pytest.raises(InfeasibleError):
            goodman_copula(2, 3, 0.0)
        with pytest.raises(InfeasibleError):
            goodman_copula(3, 2, math.inf)

    def test_rectangular_shapes(self):
        got = goodman_copula(2, 4, 2.5)
        assert is_copula_pmf(got, tol=1e-10)
        np.testing.assert_allclose(
            odds_ratio_matrix(got).entries,
            2.5 ** np.outer([1], [1, 2, 3]).astype(float),
            rtol=1e-8,
        )

    def test_upsilon_monotone(self):
        grid = np.logspace(-2, 2, 9)
        ups = [yule_upsilon(goodman_copula(3, 3, float(th))) for th in grid]
        assert all(a <= b + 1e-12 for a, b in zip(ups, ups[1:]))


_UNIFORM_2X2 = JointPmf([[0.25, 0.25], [0.25, 0.25]])

#: Each sized constructor as a call of its size alone, with the smallest
#: size it accepts and the error it raises below that.
SIZED_CALLS = {
    "discretize_copula rows": (
        lambda n: discretize_copula(ContinuousCopulaSpec("independence", {}), n, 3),
        2, ValidationError),
    "discretize_copula cols": (
        lambda n: discretize_copula(ContinuousCopulaSpec("independence", {}), 3, n),
        2, ValidationError),
    "fgm_pmf": (lambda n: fgm_pmf(0.5, n, 3), 2, ValidationError),
    "goodman_copula": (lambda n: goodman_copula(n, 3, 2.0), 2, ValidationError),
    "bivariate_binomial_pmf": (lambda n: bivariate_binomial_pmf(n, _UNIFORM_2X2),
                               1, ParamError),
    "binomial_copula": (lambda n: binomial_copula(n, 2.0), 1, ParamError),
    "truncated_geometric_pmf": (lambda n: truncated_geometric_pmf(n, _UNIFORM_2X2),
                                2, ParamError),
    "truncated_geometric_copula": (lambda n: truncated_geometric_copula(n, 2.0),
                                   2, ParamError),
    "truncated_poisson_margin": (lambda n: truncated_poisson_margin(1.0, n), 2, ParamError),
    "bivariate_poisson_pmf": (lambda n: bivariate_poisson_pmf(1.0, 1.0, 0.5, n),
                              2, ParamError),
    "poisson_copula_grid": (lambda n: poisson_copula_grid(0.5, n), 2, ParamError),
    "frechet_bounds": (frechet_bounds, 2, ValidationError),
}


class TestSizeValidation:
    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "minimum - 1"])
    @pytest.mark.parametrize("name", sorted(SIZED_CALLS))
    def test_rejected(self, name, bad):
        call, minimum, error = SIZED_CALLS[name]
        with pytest.raises(error, match="must be an integer"):
            call(minimum - 1 if bad == "minimum - 1" else bad)

    def test_numpy_integer_accepted(self):
        n = check_size(np.int64(3), "n", 2, ParamError)
        assert n == 3 and type(n) is int
        np.testing.assert_array_equal(fgm_pmf(0.5, np.int64(3), 3).values,
                                      fgm_pmf(0.5, 3, 3).values)


class TestFamilyInvariants:
    def test_all_outputs_are_copula_pmfs(self):
        outputs = [
            bernoulli_copula(2.0),
            binomial_copula(2, 0.5),
            truncated_geometric_copula(3, 2.0),
            goodman_copula(3, 3, 0.5),
            fgm_pmf(0.8, 4, 3),
            discretize_copula(ContinuousCopulaSpec("clayton", {"theta": -0.6}), 4, 4),
            discretize_copula(ContinuousCopulaSpec("gaussian", {"rho": 0.5}), 3, 3),
        ]
        for cop in outputs:
            assert is_copula_pmf(cop, tol=1e-10)

    def test_base_odds_ratio_carried_by_construction(self):
        # the seed table of the geometric family is the uniform-margin
        # 2x2 representative, whose odds ratio is the family parameter
        for w in PARAM_GRID:
            assert odds_ratio(bernoulli_copula(w)) == pytest.approx(w, rel=1e-12)
