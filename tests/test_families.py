import math
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.optimize import linear_sum_assignment

from tabcop import families, scaling
from tabcop.bernoulli import (
    bernoulli_copula,
    col_perturbation_table,
    odds_ratio,
    row_perturbation_table,
)
from tabcop.dependence import (
    OddsRatioMatrix,
    completed_odds_matrix,
    frechet_bounds,
    odds_ratio_matrix,
    yule_upsilon,
)
from tabcop.errors import (
    InfeasibleError,
    NonConvergenceError,
    ParamError,
    ValidationError,
    check_size,
)
from tabcop.families import (
    ContinuousCopulaSpec,
    _binomial_seed,
    _gaussian_cdf,
    _geometric_limit_seed,
    _goodman_seed,
    _student_cdf,
    _student_quantile,
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
from tabcop.infinite import (
    DensityGrid,
    bivariate_poisson_pmf,
    geometric_copula_grid,
    poisson_copula_grid,
    truncated_poisson_margin,
)
from tabcop.pmf_core import JointPmf, is_copula_pmf
from tabcop.viz import ConfettiOptions, confetti_svg, heatmap_ppm

from conftest import (
    additive_residual,
    binomial2_copula_closed_form,
    geometric3_copula_closed_form,
    goodman33_copula_closed_form,
)

PARAM_GRID = (0.05, 0.5, 2.0, 20.0)

#: Arguments from 1e-320 to 0.1, spread over the orders of magnitude.
TINY = st.floats(-320.0, -1.0).map(lambda k: 10.0 ** k)

#: A member of every family.
ANY_FAMILY = st.one_of(
    st.just(ContinuousCopulaSpec("independence", {})),
    st.floats(-1.0, 1.0).map(lambda th: ContinuousCopulaSpec("fgm", {"theta": th})),
    st.floats(-1.0, 300.0).filter(lambda th: th != 0.0).map(
        lambda th: ContinuousCopulaSpec("clayton", {"theta": th})),
    st.floats(1.0, 1e6).map(lambda th: ContinuousCopulaSpec("gumbel", {"theta": th})),
    st.floats(-1e6, 1e6).filter(lambda th: th != 0.0).map(
        lambda th: ContinuousCopulaSpec("frank", {"theta": th})),
    st.floats(-0.99, 0.99).map(lambda rho: ContinuousCopulaSpec("gaussian", {"rho": rho})),
    st.tuples(st.floats(-0.99, 0.99), st.floats(-1.0, 8.0)).map(
        lambda a: ContinuousCopulaSpec("student", {"rho": a[0], "df": 10.0 ** a[1]})),
)

#: Reals that no double holds: float() of each raises OverflowError.
PAST_THE_DOUBLES = [pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400"),
                    pytest.param(Fraction(10**400), id="Fraction(10**400)")]


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

    @pytest.mark.parametrize("value", [True, "0.5", None, math.nan, math.inf, complex(0.5)])
    def test_non_finite_or_non_real_rejected(self, value):
        with pytest.raises(ParamError, match="must be a finite real"):
            ContinuousCopulaSpec("gaussian", {"rho": value})

    @pytest.mark.parametrize("value", PAST_THE_DOUBLES)
    def test_reals_past_the_doubles_rejected(self, value):
        with pytest.raises(ParamError, match="parameter theta lies past the range of a double"):
            ContinuousCopulaSpec("frank", {"theta": value})

    def test_real_scalars_stored_as_floats(self):
        spec = ContinuousCopulaSpec("student", {"rho": np.float32(0.5), "df": np.int64(4)})
        assert spec.params == {"rho": 0.5, "df": 4.0}
        assert all(type(value) is float for value in spec.params.values())
        # a float32 rho is computed at the double it stands for
        rho = np.float32(0.3)
        np.testing.assert_array_equal(
            discretize_copula(ContinuousCopulaSpec("gaussian", {"rho": rho}), 4, 4).values,
            discretize_copula(ContinuousCopulaSpec("gaussian", {"rho": float(rho)}), 4, 4).values)

    @pytest.mark.parametrize("theta", ["0.5", True, math.nan, 1.5])
    def test_fgm_pmf_rejects_what_the_spec_rejects(self, theta):
        with pytest.raises(ParamError):
            fgm_pmf(theta, 3, 3)

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

    @pytest.mark.parametrize("spec", [
        ContinuousCopulaSpec("gaussian", {"rho": -0.9999}),
        ContinuousCopulaSpec("student", {"rho": -0.9999, "df": 4.0}),
    ], ids=lambda spec: spec.family)
    def test_lower_frechet_base_is_exact(self, spec):
        # C is u + v - 1 to far below 1e-16 relative here; the kernels'
        # base, u + v - 1 in doubles, read 5.3e-11 relative high, which the
        # clamp to the lower bound cannot lower
        u, v = 2.0119206680706893e-06, 0.9999999999902628
        with mpmath.workdps(40):
            exact = float(mpmath.mpf(u) + mpmath.mpf(v) - 1)
        got = copula_cdf(spec, u, v)
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
        if spec.family == "student":
            assert got == pytest.approx(_student_copula_cdf_by_correlation_integral(
                u, v, spec.params["rho"], spec.params["df"]), rel=1e-12, abs=0.0)

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


    @pytest.mark.parametrize("family,theta", [("frank", 700.0), ("frank", -800.0),
                                              ("gumbel", 1000.0)])
    def test_archimedean_past_overflow(self, family, theta):
        # e^(-800 u) and (-log u) ** 1000 leave the double range at mesh
        # nodes; 400-digit decimals are the oracle
        from decimal import Decimal, localcontext

        spec = ContinuousCopulaSpec(family, {"theta": theta})
        with localcontext() as ctx:
            ctx.prec = 400
            th = Decimal(theta)
            for i, j in ((1, 1), (1, 2), (3, 14), (7, 8), (13, 14)):
                u, v = Decimal(i) / 15, Decimal(j) / 15
                if family == "frank":
                    r = (-th * u).exp() - 1, (-th * v).exp() - 1, (-th).exp() - 1
                    oracle = -(1 + r[0] * r[1] / r[2]).ln() / th
                else:
                    oracle = (-((-u.ln()) ** th + (-v.ln()) ** th) ** (1 / th)).exp()
                assert copula_cdf(spec, i / 15, j / 15) == pytest.approx(
                    float(oracle), rel=1e-12)
        p = discretize_copula(spec, 15, 15)
        assert is_copula_pmf(p, tol=1e-12)

    @pytest.mark.parametrize("family,theta", [
        ("frank", -10.0), ("frank", -3.0), ("frank", 1.0), ("frank", 3.0),
        ("frank", 10.0), ("gumbel", 1.0), ("gumbel", 2.0), ("gumbel", 10.0),
        ("gumbel", 50.0)])
    def test_archimedean_matches_closed_form(self, family, theta):
        # where the textbook closed forms stay accurate, the stable forms
        # agree with them at every node of a 15 x 15 mesh
        spec = ContinuousCopulaSpec(family, {"theta": theta})
        for i in range(1, 15):
            for j in range(1, 15):
                u, v = i / 15, j / 15
                if family == "frank":
                    num = math.expm1(-theta * u) * math.expm1(-theta * v)
                    closed = -math.log1p(num / math.expm1(-theta)) / theta
                else:
                    s = (-math.log(u)) ** theta + (-math.log(v)) ** theta
                    closed = math.exp(-(s ** (1.0 / theta)))
                assert copula_cdf(spec, u, v) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("theta", [1e-12, -1e-12, 1e-8, -1e-8, 1e-3, -1e-3,
                                       1.0, -1.0, 30.0])
    def test_frank_tiny_arguments_keep_relative_accuracy(self, theta):
        # at theta u near 1e-308, expm1(-theta u) or its product with
        # expm1(-theta v) is subnormal (1.04e-299 tests the product alone);
        # 700-digit mpmath at the exact arguments is the oracle
        spec = ContinuousCopulaSpec("frank", {"theta": theta})
        with mpmath.workdps(700):
            th = mpmath.mpf(theta)
            for u in (1e-300, 1.04e-299, 1e-250, 1e-200, 1e-20):
                for v in (0.1, 0.5, 0.9):
                    r = mpmath.expm1(-th * u) * mpmath.expm1(-th * v) / mpmath.expm1(-th)
                    oracle = pytest.approx(float(-mpmath.log1p(r) / th), rel=1e-13, abs=0.0)
                    assert copula_cdf(spec, u, v) == oracle
                    assert copula_cdf(spec, v, u) == oracle


def _gaussian_cdf_by_quad(u, v, rho):
    """Gaussian copula by adaptive quadrature over the correlation integral.

    The derivative of P(Z1 <= a, Z2 <= b) in rho is the bivariate normal
    density at (a, b), and at rho = 0 the probability factorizes.  Good to
    about 1e-15 for |rho| <= 0.999; nearer to |rho| = 1 the integrand's
    peak at r = rho outruns the adaptive rule.
    """
    a, b = special.ndtri(u), special.ndtri(v)

    def integrand(r):
        om = 1.0 - r * r
        return math.exp(-(a * a + b * b - 2.0 * r * a * b) / (2.0 * om)) / math.sqrt(om)

    # quad warns of bad integrand behaviour on an interval as narrow as
    # [0, 4e-306]; the integrand is about 1 there, so the integral is below
    # |rho| and vanishes next to the product
    if abs(rho) < 1e-300:
        return special.ndtr(a) * special.ndtr(b)
    value, _ = integrate.quad(integrand, 0.0, rho, epsabs=1e-13, epsrel=1e-12)
    return special.ndtr(a) * special.ndtr(b) + value / (2.0 * math.pi)


def _gaussian_cdf_by_mpmath(u, v, rho):
    """The same correlation integral in 40-digit arithmetic, at the exact (u, v, rho).

    r = sin(theta) turns dr / sqrt(1 - r^2) into d(theta), so the
    integrand stays bounded as rho approaches +-1.
    """
    with mpmath.workdps(40):
        a = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(u) - 1)
        b = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(v) - 1)

        def integrand(theta):
            return mpmath.exp(-(a * a + b * b - 2 * mpmath.sin(theta) * a * b)
                              / (2 * mpmath.cos(theta) ** 2))

        value = mpmath.quad(integrand, [0, mpmath.asin(mpmath.mpf(rho))])
        return float(mpmath.ncdf(a) * mpmath.ncdf(b) + value / (2 * mpmath.pi))


def _gaussian_lower_tail_by_mpmath(u, v, rho):
    """C = int_{-inf}^h phi(x) Phi((k - rho x) / r) dx in 40-digit arithmetic at the exact (u, v, rho).

    h <= k are the normal quantiles of u and v, found by Newton's method on
    log Phi, since 2 u - 1 rounds to -1 at 40 digits below u = 1e-40.
    With x = h - t the integrand is phi(h) Phi(z0) times a log-concave
    function of t that is 1 at t = 0, z0 = (k - rho h) / r; its slope
    there and its curvature set a rate, |slope| + sqrt(1 + m^2) with
    m = rho / r, and the breakpoints sit at powers of two of 1 / rate, so
    the rule resolves it however narrow it is.  Every term is nonnegative,
    so 40 digits hold where the correlation integral would cancel
    hundreds (rho < 0).
    """
    with mpmath.workdps(40):
        def quantile(p):
            p = mpmath.mpf(p)
            return mpmath.findroot(lambda x: mpmath.log(mpmath.ncdf(x)) - mpmath.log(p),
                                   float(special.ndtri(float(p))))

        h, k = sorted((quantile(u), quantile(v)))
        rho = mpmath.mpf(rho)
        r = mpmath.sqrt(1 - rho * rho)
        m = rho / r
        z0 = (k - rho * h) / r
        log_z0 = mpmath.log(mpmath.ncdf(z0))
        rate = abs(h + m * mpmath.npdf(z0) / mpmath.ncdf(z0)) + mpmath.sqrt(1 + m * m)

        def integrand(t):
            return mpmath.exp(h * t - t * t / 2 + mpmath.log(mpmath.ncdf(z0 + m * t)) - log_z0)

        points = [0] + [mpmath.mpf(2) ** j / rate for j in range(-4, 11)] + [mpmath.inf]
        if m < 0 and z0 > -8:
            # where Phi(z0 + m t) has fallen to Phi(-8), past which the
            # integrand is below 6.2e-16 of its peak; near rho = -1 that
            # cut-off is far narrower than the spacing of the other points
            points = sorted(points + [(-8 - z0) / m])
        return float(mpmath.npdf(h) * mpmath.ncdf(z0) * mpmath.quad(integrand, points))


class TestGaussianCdf:
    @settings(max_examples=300, deadline=None)
    @example(u=0.5, v=0.6875, rho=4.155429828307486e-306, antithetic=False)
    @given(u=st.floats(1e-6, 1.0 - 1e-6), v=st.floats(1e-6, 1.0 - 1e-6),
           rho=st.floats(-0.999, 0.999), antithetic=st.booleans())
    def test_matches_correlation_integral(self, u, v, rho, antithetic):
        if antithetic:
            v = 1.0 - u
        assert _gaussian_cdf(u, v, rho) == pytest.approx(
            _gaussian_cdf_by_quad(u, v, rho), abs=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("k", range(1, 16))
    def test_near_unit_rho_matches_40_digit_integral(self, k, sign):
        # equal quantiles (toward rho = 1) and antithetic ones, b = -a
        # (toward rho = -1), are where the correlation integral's peak is
        # sharpest and where rho * a rounded alone cancels; (0.5, 0.6) has a = 0
        rho = sign * (1.0 - 10.0 ** -k)
        spec = ContinuousCopulaSpec("gaussian", {"rho": rho})
        for u, v in ((0.2, 0.2), (1 / 15, 1 / 15), (0.3, 0.7), (7 / 15, 8 / 15),
                     (0.2, 0.25), (0.9, 0.85), (0.05, 0.5), (1 / 15, 2 / 15),
                     (0.41, 0.4), (0.5, 0.6)):
            assert copula_cdf(spec, u, v) == pytest.approx(
                _gaussian_cdf_by_mpmath(u, v, rho), abs=1e-15)

    @pytest.mark.parametrize("rho, u, v, value", [
        # Owen's form read 0.0 and 6.38e-16 here: its error is about 1e-16 absolute
        (0.3, 1e-30, 0.7, 9.99985463708440e-31),
        (-0.5, 1e-10, 0.3, 6.74143952785641e-16),
    ])
    def test_lower_tail_keeps_its_relative_accuracy(self, rho, u, v, value):
        spec = ContinuousCopulaSpec("gaussian", {"rho": rho})
        reference = _gaussian_lower_tail_by_mpmath(u, v, rho)
        assert reference == pytest.approx(value, rel=1e-14)
        assert copula_cdf(spec, u, v) == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert copula_cdf(spec, v, u) == copula_cdf(spec, u, v)

    @pytest.mark.parametrize("rho", [-0.99, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 0.99])
    def test_lower_tail_scan_matches_40_digit_integral(self, rho):
        # one argument tiny and the other not, or both small; the values run
        # from 1e-7 down to about 1e-244, and where the true one is below
        # the normal doubles (rho = -0.99 at the first two) it must read so
        spec = ContinuousCopulaSpec("gaussian", {"rho": rho})
        for u, v in ((1e-30, 0.7), (1e-7, 1e-3), (1e-7, 0.7)):
            reference = _gaussian_lower_tail_by_mpmath(u, v, rho)
            got = copula_cdf(spec, u, v)
            if reference < sys.float_info.min:
                assert got < sys.float_info.min, (u, v)
            else:
                assert got == pytest.approx(reference, rel=1e-12, abs=0.0), (u, v)

    @pytest.mark.parametrize("rho, u, v", [
        # Phi(z0 + m t) rises over 1 / m, far narrower than the integrand's
        # decay; in one piece quad warned at all four, missed the second by
        # 7.4e-6 relative and took the log of a zero integral at the first
        (0.9999999999999796, 1.5576538876262286e-07, 0.8866097106642891),
        (0.9999999999979673, 1.8116115508162714e-13, 0.16108057350021263),
        (1.0 - 1e-15, 1e-10, 0.5),
        (1.0 - 1e-15, 1e-300, 1e-300),
    ])
    def test_lower_tail_near_unit_rho(self, rho, u, v):
        spec = ContinuousCopulaSpec("gaussian", {"rho": rho})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = copula_cdf(spec, u, v)
        assert got == pytest.approx(_gaussian_lower_tail_by_mpmath(u, v, rho), rel=1e-12, abs=0.0)

    def test_lower_tail_cut_off_near_minus_one(self):
        # at rho = -(1 - 8.1e-15) Phi(z0 + m t) falls from 1 to 0 within 1e-6
        # of t = x + y, far narrower than the integrand's decay; one quad
        # warned.  P(Z1 > x, Z2 > y) = C - (u + v - 1) is below 1e-50 here,
        # so C is u + v - 1, taken exactly, by the kernel, by the reference
        # (with its breakpoint at the cut-off) and by copula_cdf, whose clamp
        # to the Frechet bound is exact here; u + v - 1 in doubles is 6e-11 off
        u, v, rho = 9.475766248844875e-08, 0.9999999999997778, -0.9999999999999919
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = float(_gaussian_cdf(np.array([u]), np.array([v]), rho)[0])
        with mpmath.workdps(40):
            exact = float(mpmath.mpf(u) + mpmath.mpf(v) - 1)
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert _gaussian_lower_tail_by_mpmath(u, v, rho) == pytest.approx(exact, rel=1e-12, abs=0.0)
        spec = ContinuousCopulaSpec("gaussian", {"rho": rho})
        assert copula_cdf(spec, u, v) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(u=st.floats(-300.0, 0.0).map(lambda k: 10.0 ** k).filter(lambda p: p < 1.0),
           v=st.floats(-300.0, 0.0).map(lambda k: 10.0 ** k).filter(lambda p: p < 1.0),
           rho=st.one_of(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                         st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-15.0, -1.0)).map(
                             lambda a: a[0] * (1.0 - 10.0 ** a[1]))))
    def test_lower_tail_matches_40_digit_integral_anywhere(self, u, v, rho):
        # the fixed panels of the tail's rule, against the reference's
        # adaptive rule, for rho uniform and within 1e-15 of +-1; down at
        # u = 1e-300 the quantiles' 7e-16 relative error costs up to about 6e-13
        spec = ContinuousCopulaSpec("gaussian", {"rho": rho})
        got = copula_cdf(spec, u, v)
        assume(got < families._GAUSSIAN_LOWER_TAIL)
        reference = _gaussian_lower_tail_by_mpmath(u, v, rho)
        if reference < sys.float_info.min:
            assert got < sys.float_info.min
        else:
            assert got == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_continuous_across_the_regime_switch(self, sign):
        # Genz's two forms meet at |rho| = 0.925
        below, at = (ContinuousCopulaSpec("gaussian", {"rho": sign * rho})
                     for rho in (math.nextafter(0.925, 0.0), 0.925))
        for n in (15, 64):
            np.testing.assert_allclose(families._cdf_mesh(below, n, n),
                                       families._cdf_mesh(at, n, n), rtol=0.0, atol=4.4e-16)

    @pytest.mark.parametrize("rho", [1.0 - 1e-12, -(1.0 - 1e-12)])
    def test_near_unit_rho_discretizes_without_warnings(self, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = discretize_copula(ContinuousCopulaSpec("gaussian", {"rho": rho}), 15, 15)
        assert is_copula_pmf(p, tol=1e-12)
        # next to the Frechet bound the mass sits on one diagonal
        diagonal = p.values if rho > 0.0 else p.values[::-1]
        assert np.trace(diagonal) > 0.99


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


def _student_t_cdf_by_mpmath(df, x, minus=0.0):
    """The t CDF at 40 digits, less ``minus``, by the hypergeometric series of its
    offset from 1/2."""
    with mpmath.workdps(40):
        df, x = mpmath.mpf(df), mpmath.mpf(x)
        scale = mpmath.gamma((df + 1) / 2) / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))
        return float(0.5 + x * scale * mpmath.hyp2f1(0.5, (df + 1) / 2, 1.5, -x * x / df)
                     - mpmath.mpf(minus))


def _student_copula_cdf_by_mpmath(u, v, rho, df):
    """The Student copula C(u, v) at 40 digits, by the conditional t law of Y given X.

    Given X = s, (Y - rho s) / sqrt((df + s^2)(1 - rho^2) / (df + 1)) is a
    t with df + 1 degrees of freedom, so C is the integral over s < x of
    the t density times that CDF; the quantiles x, y < 0 are solved at 40
    digits in log(-x).  The integral runs in t = log(s / x), divided by u
    to order 1, since mpmath's rule stops on an absolute error.

    Not a reference at a df as small as 0.004, where its fixed breakpoints
    miss the integrand's spread over hundreds of decades: at rho = 0.5 it
    reads 0.0889628 at (7/15, 2/15) and 0.0889463 at (2/15, 7/15), where
    :func:`_student_copula_cdf_by_correlation_integral` gives
    0.08894625127484423 at both.
    """
    with mpmath.workdps(40):
        u, v, rho, df = (mpmath.mpf(a) for a in (u, v, rho, df))

        def t_cdf(nu, s):
            half = mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + s * s), regularized=True) / 2
            return half if s < 0 else 1 - half

        def quantile(p):
            if p == 0.5:
                return mpmath.mpf(0)
            start = mpmath.log(-float(special.stdtrit(float(df), float(p))))
            return -mpmath.exp(mpmath.findroot(
                lambda w: mpmath.log(t_cdf(df, -mpmath.exp(w)) / p), start))

        x, y = quantile(u), quantile(v)
        norm = mpmath.gamma((df + 1) / 2) / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))
        scale = mpmath.sqrt((1 - rho * rho) / (df + 1))

        def integrand(t):
            s = x * mpmath.exp(t)
            density = norm * (1 + s * s / df) ** (-(df + 1) / 2)
            return -s * density * t_cdf(df + 1, (y - rho * s) / (scale * mpmath.sqrt(df + s * s))) / u

        return float(u * mpmath.quad(integrand, [0, 1, 10, 100, 1000, mpmath.inf]))


def _student_copula_cdf_by_correlation_integral(u, v, rho, df):
    """The Student copula C(u, v) at 40 digits, by the correlation integral in theta.

    The Frechet bound at rho = +-1, min(u, v) or max(0, u + v - 1), less
    (1 / 2 pi) times the integral of (1 + Q / df)^(-df/2) from asin(rho)
    to +-pi/2, with Q in the form of :func:`_student_cdf` that does not
    cancel at the endpoint.  The quantiles are solved at 40 digits in
    log(-x), from the far tail's closed form, and the upper ones are the
    lower ones negated; mpmath's numbers do not overflow, so quantiles
    past 1e154 need no scaling.  Where the quantiles nearly meet, the
    kernel dips to 0 within about |x -+ y| / max(1, |x|, |y|) of the
    endpoint; breakpoints at stop -+ |x -+ y| 10^k, one per decade from
    a hundredth of that width up to the start, resolve the dip.
    """
    with mpmath.workdps(40):
        u, v, rho, df = (mpmath.mpf(a) for a in (u, v, rho, df))
        a = df / 2
        log_c = -mpmath.log(2 * a) - mpmath.log(mpmath.beta(a, 0.5))

        def quantile(p):
            if p > 0.5:
                return -quantile(1 - p)
            if p == 0.5:
                return mpmath.mpf(0)

            def log_ratio(w):
                x = -mpmath.exp(w)
                return mpmath.log(mpmath.betainc(a, 0.5, 0, df / (df + x * x),
                                                 regularized=True) / (2 * p))

            return -mpmath.exp(mpmath.findroot(
                log_ratio, mpmath.log(df) / 2 + (log_c - mpmath.log(p)) / df))

        x, y = quantile(u), quantile(v)
        sign = 1 if rho >= 0 else -1

        def kernel(theta):
            q = ((x - sign * y) ** 2 / mpmath.cos(theta) ** 2
                 + sign * 2 * x * y / (1 + sign * mpmath.sin(theta)))
            return (1 + q / df) ** (-df / 2)

        start, stop = mpmath.asin(rho), sign * mpmath.pi / 2
        width, points = abs(x - sign * y), [stop]
        if width > 0:
            k = -2 - int(mpmath.ceil(mpmath.log10(max(1, abs(x), abs(y)))))
            while width * mpmath.mpf(10) ** k < abs(stop - start):
                points.append(stop - sign * width * mpmath.mpf(10) ** k)
                k += 1
        value = mpmath.quad(kernel, [start] + points[::-1])
        base = min(u, v) if sign > 0 else max(0, u + v - 1)
        return float(base - value / (2 * mpmath.pi))


class TestStudentCdf:
    @settings(max_examples=40, deadline=None)
    @example(u=0.5, v=0.4999999, rho=0.0, df=1.0)  # the kernel's dip at the endpoint
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

    @pytest.mark.parametrize("u, v, rho, df", [
        (0.5, 0.4999999, 0.0, 1.0), (0.3, 0.3 + 1e-9, 0.5, 4.0), (0.7, 0.7 - 1e-12, 0.9, 30.0),
        (0.2, 0.8 + 1e-7, -0.6, 2.0), (0.45, 0.55 - 1e-10, -0.3, 0.5), (0.9, 0.9 + 1e-5, 0.2, 8.0),
    ])
    def test_nearly_equal_quantiles(self, u, v, rho, df):
        # the kernel drops to 0 within about |x -+ y| of the endpoint, where
        # a plain adaptive rule can step over it (5e-8 off at the first
        # point); the rule's geometric panels put the dip on a panel of its
        # own width.  The bound is the mixture test's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = float(_student_cdf(u, v, rho, df))
        assert value == pytest.approx(_student_cdf_by_mixture(u, v, rho, df), abs=1e-10)

    @pytest.mark.parametrize("u, v, rho, df", [
        # where the quantiles nearly meet at a small df, quad with per-node
        # breakpoints missed by 4.4e-7 and 5.2e-8, warning, and by 1.4e-9
        # without a warning
        (0.7581801440355278, 0.7581810162634147, 0.03895605612943054, 0.07923473115424225),
        (0.9454891888604782, 0.05451091589355755, -0.763113909544298, 0.154902658138589),
        (0.2855652349175444, 0.2855652378069701, 0.506825862225719, 0.034718942804319516),
    ])
    def test_dip_at_small_df_matches_correlation_integral(self, u, v, rho, df):
        assert float(_student_cdf(u, v, rho, df)) == pytest.approx(
            _student_copula_cdf_by_correlation_integral(u, v, rho, df), abs=1e-14)

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

    def test_quantile_past_sqrt_dbl_max(self):
        # the quantile of 3.29e-77 at df = 0.4665 is about -8e162: (x - y)^2
        # overflows and stdtr reads F(x) as 0, which read the copula as 0;
        # the lower tail dependence keeps C(u, v) / u near 0.59
        spec = ContinuousCopulaSpec("student", {"rho": 0.212, "df": 0.4665})
        assert copula_cdf(spec, 3.29e-77, 5.59e-5) == pytest.approx(
            _student_copula_cdf_by_mpmath(3.29e-77, 5.59e-5, 0.212, 0.4665), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rho, u, v", [(-0.9, 1e-150, 1e-150), (0.5, 1e-150, 1e-150),
                                           (0.5, 1e-150, 0.5)])
    def test_quantile_past_the_doubles(self, rho, u, v):
        # at df = 0.3 the t quantile of 1e-150 is about -1e500: as -inf it
        # dropped the correlation term, which read 0.0 and 1e-150 (the upper
        # Frechet bound) at the first two points
        spec = ContinuousCopulaSpec("student", {"rho": rho, "df": 0.3})
        assert copula_cdf(spec, u, v) == pytest.approx(
            _student_copula_cdf_by_mpmath(u, v, rho, 0.3), rel=1e-12, abs=0.0)

    def test_quantile_to_the_last_digits(self):
        # stdtrit's quantile of u here missed u by 4.5e-14 in F, and put C
        # 2.4e-14 off the 40-digit integral
        u, v = 0.21230229271540754, 0.4184680407208572
        rho, df = 0.14603654212822292, 2.728740705005025
        spec = ContinuousCopulaSpec("student", {"rho": rho, "df": df})
        assert copula_cdf(spec, u, v) == pytest.approx(
            _student_copula_cdf_by_correlation_integral(u, v, rho, df), rel=0.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @example(u=1e-300, v=0.5, rho=0.3, df=3.0)
    @example(u=1e-250, v=1e-250, rho=0.0, df=2.3412869356382107)  # stdtrit is nan
    @given(
        u=st.floats(250.0, 320.0).map(lambda k: 10.0 ** -k),
        v=st.one_of(st.floats(250.0, 320.0).map(lambda k: 10.0 ** -k),
                    st.floats(0.01, 0.99)),
        rho=st.floats(-0.99, 0.99),
        df=st.floats(-1.0, 8.0).map(lambda k: 10.0 ** k),
    )
    def test_tiny_arguments_within_frechet_bounds(self, u, v, rho, df):
        # stdtrit returns nan or +inf for some of these u, where the
        # quantile is a large negative number
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


@settings(max_examples=100, deadline=None)
@example(u=14 / 15, v=14 / 15, rho=0.5, df=0.004)  # 0.022 off with base terms from the t CDF
# stdtrit reads +inf for the quantile of 1 - v, about 8.6e152: 0.0024 off
@example(u=0.4268158945219887, v=0.011597628450106699, rho=-0.2439477221562496,
         df=0.010598982986231954)
# the quantile of 1 - v missed by 2.7e-11 in F: 1.3e-11 off
@example(u=0.5, v=0.4999999, rho=0.0, df=1.0)
@given(
    u=st.floats(0.01, 0.99),
    v=st.floats(0.01, 0.99),
    rho=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
    df=st.one_of(st.none(), st.floats(-2.0, 3.0).map(lambda k: 10.0 ** k)),
)
def test_elliptical_copulas_are_exchangeable_and_radially_symmetric(u, v, rho, df):
    # df None is the Gaussian family; both laws are symmetric in their two
    # coordinates and under (X, Y) -> (-X, -Y)
    if df is None:
        spec = ContinuousCopulaSpec("gaussian", {"rho": rho})
    else:
        spec = ContinuousCopulaSpec("student", {"rho": rho, "df": df})
    value = copula_cdf(spec, u, v)
    assert abs(value - copula_cdf(spec, v, u)) <= 1e-13
    assert abs(value - (u + v - 1.0 + copula_cdf(spec, 1.0 - u, 1.0 - v))) <= 1e-13


def _student_quantile_by_mpmath(df, u, start):
    """The t quantile of ``u`` in 40-digit arithmetic, by a root search near ``start``.

    F(x) = I_z(df/2, 1/2) / 2 with z = df / (df + x^2), solved in log(-x)
    for a lower-tail u.
    """
    with mpmath.workdps(40):
        df, u = mpmath.mpf(df), mpmath.mpf(u)

        def log_ratio(s):
            x = -mpmath.exp(s)
            z = df / (df + x * x)
            return mpmath.log(mpmath.betainc(df / 2, 0.5, 0, z, regularized=True) / (2 * u))

        return float(-mpmath.exp(mpmath.findroot(log_ratio, mpmath.log(-start))))


#: (df, u) where ``stdtrit`` fails (nan or +inf) as of scipy 1.17, from a
#: random scan; the first is the point hypothesis found.  The quantiles
#: run from -3e7 (subnormal u at df near 48, solved by Newton steps) to
#: -1e139 (closed form).
STDTRIT_FAILURES = [
    (2.3412869356382107, 1e-250),
    (2.2601012553213224, 1.1844370865e-314),
    (2.2848218317597415, 1.149093e-318),
    (3.49755744171844, 3.363731445080055e-278),
    (8.190156450587489, 5.935338121225812e-301),
    (14.235503471911786, 1.27760749e-315),
    (22.065989006738945, 1.4094e-319),
    (27.426809717072807, 3.0677822e-316),
    (47.97509082741389, 4.1101e-319),
]


def _student_backward_error(df, u, sign, log_abs):
    """|F(x) - u| / min(u, 1 - u) at x = sign e^log_abs in 40 digits, and what rounding adds to it.

    F(x) = I_z(df/2, 1/2) / 2, z = df / (df + x^2), below the median and 1
    minus that above it, taken from log|x| itself, so that a quantile past
    the doubles has one.  The second value is the backward error that
    rounding to doubles can leave in a solve in logs: one ulp of log|x|,
    which F's elasticity x f / F carries into F (f the t density; it grows
    like x^2 at a large df, 2.3e-13 at df = 5.8e5, u = 2.5e-279), and two
    ulps of log min(u, 1 - u), at which log F rounds (2.3e-13 at
    u = 1e-280).
    """
    tail = min(u, 1.0 - u)
    with mpmath.workdps(40):
        df, p = mpmath.mpf(df), mpmath.mpf(tail)
        if sign == 0:
            return float(abs(mpmath.mpf(u) - 0.5) / p), 0.0
        x2 = mpmath.exp(2 * mpmath.mpf(log_abs))
        z = df / (df + x2)
        below = mpmath.betainc(df / 2, 0.5, 0, z, regularized=True) / 2
        cdf = below if sign < 0 else 1 - below
        density = z ** ((df + 1) / 2) / (mpmath.sqrt(df) * mpmath.beta(df / 2, 0.5))
        return (float(abs(cdf - mpmath.mpf(u)) / p),
                float(mpmath.sqrt(x2) * density / p) * math.ulp(log_abs)
                + 2.0 * math.ulp(math.log(tail)))


def _quantile(df, u):
    """sign(x) and log|x| of the t quantile x of the one argument ``u``."""
    sign, log_abs = _student_quantile(df, np.array([u]))
    return float(sign[0]), float(log_abs[0])


class _FixedStdtrit:
    """``scipy.special`` with ``stdtrit`` returning ``value`` at ``u``, entry by entry."""

    def __init__(self, u, value):
        self.u, self.value = u, value

    def stdtrit(self, df, u):
        return np.where(np.equal(u, self.u), self.value, special.stdtrit(df, u))

    def __getattr__(self, name):
        return getattr(special, name)


def _assert_backward_error(df, u):
    sign, log_abs = _quantile(df, u)
    error, rounding = _student_backward_error(df, u, sign, log_abs)
    assert error <= 1e-13 + rounding, (df, u, sign, log_abs, error, rounding)
    return sign, log_abs


class TestStudentQuantile:
    @settings(max_examples=150, deadline=None)
    # where scipy 1.17's stdtrit reads nan, a finite -3.29e95 (F 8.65 u),
    # a value stuck at -2.998e152 for u from 1e-5 to 0.2, +inf for a
    # quantile of about 8.6e152, and a value whose F misses u by 4.5e-14
    @example(df=2.3412869356382107, tail=1e-250, upper=False)
    @example(df=2.2103866156983756, tail=4.9493119154139494e-213, upper=False)
    @example(df=0.002, tail=1e-5, upper=False)
    @example(df=0.002, tail=1e-3, upper=False)
    @example(df=0.002, tail=0.05, upper=False)
    @example(df=0.002, tail=0.2, upper=False)
    @example(df=0.010598982986231954, tail=0.011597628450106699, upper=True)
    @example(df=2.728740705005025, tail=0.21230229271540754, upper=False)
    @given(
        df=st.floats(-2.0, 6.0).map(lambda k: 10.0 ** k),
        tail=st.floats(-300.0, math.log10(0.5)).map(lambda k: 10.0 ** k).filter(
            lambda p: p < 0.5),
        upper=st.booleans(),
    )
    def test_backward_error(self, df, tail, upper):
        u = 1.0 - tail if upper else tail
        if u == 1.0:  # 1 - tail rounds to 1 below about 1e-16
            return
        sign, _ = _assert_backward_error(df, u)
        assert sign == np.sign(u - 0.5)

    @pytest.mark.parametrize("df, u", STDTRIT_FAILURES)
    def test_tail_solve_matches_mpmath(self, df, u):
        sign, log_abs = _quantile(df, u)
        x = sign * math.exp(log_abs)
        assert x == pytest.approx(_student_quantile_by_mpmath(df, u, x), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("df, u", STDTRIT_FAILURES)
    def test_replaces_a_failed_stdtrit(self, df, u):
        # scipy's stdtrit reads nan or +inf at these lower-tail u
        sign, log_abs = _assert_backward_error(df, u)
        assert sign == -1.0 and math.isfinite(log_abs)

    @pytest.mark.parametrize("df, u", [(0.5, 1e-3), (1.0, 1e-30), (4.0, 1e-12),
                                       (60.0, 1e-100), (1e4, 1e-200)])
    def test_tail_solve_away_from_failures(self, df, u):
        # closer in than the failures: F from the series and from betaincc
        sign, log_abs = _quantile(df, u)
        x = sign * math.exp(log_abs)
        assert x == pytest.approx(_student_quantile_by_mpmath(df, u, x), rel=1e-13, abs=0.0)

    def test_quantile_past_the_doubles(self):
        # at df = 0.5 the quantile of 1e-300 is about -1e599, kept as its log
        sign, log_abs = _assert_backward_error(0.5, 1e-300)
        assert sign == -1.0 and log_abs == pytest.approx(599.0 * math.log(10.0), rel=1e-4)

    @pytest.mark.parametrize("df", [0.5, 1.0, 4.0, 30.0])
    def test_near_the_median(self, df):
        # stdtrit missed here: F(x) - u was 4.0e-11 at df = 4, u = 0.4999999,
        # 2.3e-10 at u = 0.5000002 and 1.6e-13 at u = 0.5001.  Within 1/4 of
        # the median the steps take G = 1/2 - F from I_w(1/2, df/2), which
        # keeps the digits of F - 1/2
        for offset in (1e-2, 1e-3, 1e-4, 1e-5, 5e-7, 1.01e-7, 1e-7, 9.9e-8, 3.1416e-8, 1e-9,
                       1e-12, 1e-15, 2.0**-53):
            for u in (0.5 - offset, 0.5 + offset, 1.0 - (0.5 + offset)):
                sign, log_abs = _quantile(df, u)
                x = sign * math.exp(log_abs)
                assert abs(_student_t_cdf_by_mpmath(df, x, minus=u)) <= 2.3e-16

    @pytest.mark.parametrize("df", [1e-4, 5e-4])
    def test_tiny_df_near_the_median(self, df):
        # x passes sqrt(df) within 0.01 of the median (about -2.7e85 at
        # u = 0.49, df = 1e-4), where G comes from betaincc at z; the
        # quantile's condition number in u is of order 1/df
        for u in (0.49, 0.495, 0.4999):
            sign, log_abs = _quantile(df, u)
            x = sign * math.exp(log_abs)
            assert x == pytest.approx(_student_quantile_by_mpmath(df, u, x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("df", [0.002, 0.5, 1.0, 4.0, 30.0, 1e8])
    def test_median_keeps_stdtrit(self, df):
        # u = 1/2 is x = 0, stdtrit's value there, at every even mesh node too
        assert special.stdtrit(df, 0.5) == 0.0
        sign, log_abs = _student_quantile(df, np.arange(1, 64) / 64.0)
        assert sign[31] == 0.0 and log_abs[31] == -math.inf
        assert _quantile(df, 0.5) == (0.0, -math.inf)

    @pytest.mark.parametrize("value, u", [(math.nan, 1e-250), (math.inf, 1e-250)])
    def test_lower_tail_failure_solved(self, monkeypatch, value, u):
        # stdtrit read nan or +inf here; the quantile is solved without it,
        # so a stdtrit that fails at u leaves it unchanged
        expected = _quantile(2.3412869356382107, u)
        monkeypatch.setattr(families, "_special", lambda: _FixedStdtrit(u, value))
        assert _quantile(2.3412869356382107, u) == expected
        sign, log_abs = _assert_backward_error(2.3412869356382107, u)
        assert sign == -1.0 and math.isfinite(log_abs)

    @pytest.mark.parametrize("value, u", [(math.inf, 14 / 15), (math.inf, 0.9),
                                          (-math.inf, 0.1), (-math.inf, 1e-250)])
    def test_infinity_on_its_own_side_kept(self, value, u):
        # at df = 0.002 these quantiles pass the doubles (about 1e437 at
        # 14/15): each keeps the side of its infinity, its log finite
        sign, log_abs = _assert_backward_error(0.002, u)
        assert sign == math.copysign(1.0, value)
        assert math.log(sys.float_info.max) < log_abs < math.inf

    def test_infinite_upper_quantile_solved_on_its_tail(self):
        # stdtrit read +inf for the upper quantile, which is about 8.6e152
        df, u = 0.010598982986231954, 1.0 - 0.011597628450106699
        sign, log_abs = _quantile(df, u)
        x = sign * math.exp(log_abs)
        assert math.isfinite(x)
        assert x == pytest.approx(-_student_quantile_by_mpmath(df, 1.0 - u, -x), rel=1e-13,
                                  abs=0.0)

    @pytest.mark.parametrize("df", [0.0005, 0.002])
    def test_tiny_df_upper_tail_raises_nothing(self, df):
        spec = ContinuousCopulaSpec("student", {"rho": 0.3, "df": df})
        for u in (0.9, 14 / 15):
            assert 0.0 <= copula_cdf(spec, u, 0.4) <= 0.4

    def test_mesh_nodes_backward_error(self):
        # these nodes took stdtrit's quantiles, which round-tripped
        for df in (0.01, 0.1, 1.0, 2.3412869356382107, 30.0, 1e8):
            for i in range(1, 15):
                _assert_backward_error(df, i / 15)

    @pytest.mark.parametrize("df", [0.0005, 0.002])
    def test_tiny_df_values_that_miss_the_round_trip_replaced(self, df):
        # scipy 1.17's stdtrit sticks at about -+1.5e152 (df = 0.0005) and
        # -+3e152 (df = 0.002) across most of the mesh, where the quantiles
        # pass the doubles; every node's quantile is solved, to the backward
        # error bound, and differs from a stdtrit value whose tail misses u
        for i in range(1, 15):
            u = i / 15
            by_stdtrit = float(special.stdtrit(df, u))
            tail = min(u, 1.0 - u)
            back = special.stdtr(df, by_stdtrit if u < 0.5 else -by_stdtrit)
            sign, log_abs = _assert_backward_error(df, u)
            if not abs(back - tail) <= 1e-10 * tail:
                assert log_abs != math.log(abs(by_stdtrit))

    def test_finite_wrong_quantile_replaced(self):
        # stdtrit gave a finite -3.29e95 here; F(-3.29e95) is 8.65 u
        df, u = 2.2103866156983756, 4.9493119154139494e-213
        sign, log_abs = _quantile(df, u)
        x = sign * math.exp(log_abs)
        assert x == pytest.approx(-8.73345862645786e95, rel=1e-13, abs=0.0)
        assert x == pytest.approx(_student_quantile_by_mpmath(df, u, x), rel=1e-13, abs=0.0)

    def test_closed_form_in_logs_at_tiny_df(self):
        # at df = 0.0005 Hill's closed form needs logs: exp(log c / df)
        # underflows while u^(-1/df) overflows, though their product is about
        # -7.4e191; the quantile's condition number in u is 1/df = 2000,
        # hence rel 5e-12.  The quantile of 0.3, about -5.6e441, is its log
        sign, log_abs = _quantile(0.0005, 0.4)
        x = sign * math.exp(log_abs)
        assert x == pytest.approx(_student_quantile_by_mpmath(0.0005, 0.4, x), rel=5e-12,
                                  abs=0.0)
        sign, log_abs = _assert_backward_error(0.0005, 0.3)
        assert sign == -1.0
        assert log_abs == pytest.approx(math.log(5.6) + 441.0 * math.log(10.0), rel=1e-4)


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

    @pytest.mark.parametrize("spec", [
        ContinuousCopulaSpec("independence", {}),
        ContinuousCopulaSpec("fgm", {"theta": -0.7}),
        *(ContinuousCopulaSpec("clayton", {"theta": th}) for th in (-0.6, 0.8, 300.0)),
        *(ContinuousCopulaSpec("gumbel", {"theta": th}) for th in (2.0, 50.0, 1000.0)),
        *(ContinuousCopulaSpec("frank", {"theta": th})
          for th in (-800.0, -3.0, 1e-8, 4.0, 50.0, 700.0)),
        *(ContinuousCopulaSpec("gaussian", {"rho": rho})
          for rho in (-0.99, -0.8, 0.0, 1.0 - 1e-12)),
        ContinuousCopulaSpec("student", {"rho": 0.5, "df": 4.0}),
        ContinuousCopulaSpec("student", {"rho": -0.3, "df": 1.0}),
    ], ids=lambda spec: f"{spec.family}-{'-'.join(map(str, spec.params.values()))}")
    def test_nodes_equal_copula_cdf(self, spec):
        # one kernel call for the mesh, the same kernel at one point in
        # copula_cdf: equal to the bit, boundary nodes included
        for n_rows, n_cols in ((15, 15), (4, 7)):
            nodes = families._cdf_mesh(spec, n_rows, n_cols)
            expected = [[copula_cdf(spec, i / n_rows, j / n_cols) for j in range(n_cols + 1)]
                        for i in range(n_rows + 1)]
            np.testing.assert_array_equal(nodes, expected)
            cells = discretize_copula(spec, n_rows, n_cols).values
            np.testing.assert_array_equal(
                cells, np.clip(np.diff(np.diff(expected, axis=0), axis=1), 0.0, None))

    @pytest.mark.parametrize("df", [0.0005, 0.002])
    def test_tiny_student_df_discretizes(self, df):
        # the t quantile of 1/15 is about -7.6e435 at df = 0.002, past the
        # doubles, and is kept as its log; these meshes raised ParamError
        spec = ContinuousCopulaSpec("student", {"rho": 0.3, "df": df})
        assert is_copula_pmf(discretize_copula(spec, 15, 15), tol=1e-12)
        nodes = families._cdf_mesh(spec, 15, 15)
        for i, j in ((7, 2), (2, 7), (1, 1), (14, 14), (1, 14), (14, 7), (8, 3), (13, 6)):
            assert nodes[i, j] == pytest.approx(_student_copula_cdf_by_correlation_integral(
                i / 15, j / 15, 0.3, df), rel=1e-12, abs=0.0), (i, j)

    @pytest.mark.parametrize("rho, df", [(0.5, 0.004), (0.3, 0.004), (-0.3, 0.005),
                                         (-0.5, 0.003)])
    def test_quantiles_past_sqrt_dbl_max_discretize(self, rho, df):
        # the t quantile of 1/15 is about -1.8e217 at df = 0.004, past
        # sqrt(DBL_MAX), where (x - y)^2 would overflow unscaled; these
        # meshes raised ParamError, and with base terms from the t CDF they
        # had cells down to -0.022
        spec = ContinuousCopulaSpec("student", {"rho": rho, "df": df})
        nodes = families._cdf_mesh(spec, 15, 15)
        assert np.diff(np.diff(nodes, axis=0), axis=1).min() >= -1e-15
        assert is_copula_pmf(discretize_copula(spec, 15, 15), tol=1e-12)

    def test_mesh_past_sqrt_dbl_max_matches_correlation_integral(self):
        nodes = families._cdf_mesh(ContinuousCopulaSpec("student", {"rho": 0.5, "df": 0.004}),
                                   15, 15)
        for i, j in ((7, 2), (2, 7), (1, 1), (14, 14), (1, 14), (8, 3), (13, 6)):
            assert nodes[i, j] == pytest.approx(_student_copula_cdf_by_correlation_integral(
                i / 15, j / 15, 0.5, 0.004), rel=1e-12, abs=0.0), (i, j)
        assert nodes[14, 14] == pytest.approx(0.9110537487251558, rel=1e-12, abs=0.0)

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


def _exact_log_odds_entries(n, omega):
    """log E[omega**K] for the double omega, from exact integer sums.

    No double holds some of the sums, so their logs are compared.
    """
    num, den = float(omega).as_integer_ratio()
    out = np.empty((n, n))
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            low, high = max(x + y - n, 0), min(x, y)
            total = sum(math.comb(x, k) * math.comb(n - x, y - k) * num**k * den**(high - k)
                        for k in range(low, high + 1))
            out[x - 1, y - 1] = math.log(total) - math.log(math.comb(n, y) * den**high)
    return out


def _seed_odds_ratios(values):
    """D[0, 0] D[x, y] / (D[x, 0] D[0, y]) for x, y >= 1."""
    return values[0, 0] * values[1:, 1:] / (values[1:, :1] * values[:1, 1:])


def _log_odds_ratios(values):
    """The log of :func:`_seed_odds_ratios`, finite where the ratios pass the doubles."""
    logs = np.log(values)
    return logs[0, 0] + logs[1:, 1:] - logs[1:, :1] - logs[:1, 1:]


def _pascal_odds_entries(n, omega):
    """E[omega**K] from Pascal rows and n convolutions, as built before the centred tables."""
    pascal = [np.ones(1)]
    for _ in range(n):
        prev, row = pascal[-1], np.ones(len(pascal[-1]) + 1)
        row[1:-1] = prev[:-1] + prev[1:]
        pascal.append(row)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = omega ** np.arange(n + 1.0)
        rows = [np.convolve(pascal[x] * powers[: x + 1], pascal[n - x])
                for x in range(1, n + 1)]
        return np.array(rows)[:, 1:] / pascal[n][1:]


def _anchored_copula(entries):
    """The copula fitted from the odds-ratio matrix completed at (0, 0), the replaced route.

    Fitted to tol 1e-14, where the copula it determines is pinned to
    rounding: at the default 1e-12 on the margins, the replaced route's
    cells missed that copula by up to 2.5e-12 (Goodman 7x2 at theta =
    1e-3 gave 1/14 + 2.6e-12 for a cell of exactly 1/14).  None where the
    route returns no full-support table: entries past the doubles, a
    normalized cell that rounds to 0 (the fit keeps it at 0), or a fit
    that stalls.
    """
    if not np.isfinite(entries).all():
        return None
    completed = completed_odds_matrix(OddsRatioMatrix(entries))
    with np.errstate(over="ignore", invalid="ignore"):
        seed = completed / completed.sum()
    if not (seed > 0.0).all():
        return None
    try:
        result, _diag = scaling.copula_pmf(JointPmf(seed), tol=1e-14)
    except NonConvergenceError:
        return None
    return result.values if (result.values > 0.0).all() else None


#: Mirrored pairs omega, 1/omega, log-spaced over 1e-6..1e6.
_REPLAY_OMEGAS = [w for k in (0.3, 1.5, 3.0, 4.5, 6.0) for w in (10.0**k, 10.0**-k)]


class TestCentredTables:
    @pytest.mark.parametrize("n", [*range(1, 61), 80, 120])
    def test_binomial_matches_anchored_route(self, n):
        for omega in _REPLAY_OMEGAS:
            want = _anchored_copula(_pascal_odds_entries(n, omega))
            if want is not None:
                assert (binomial_copula(n, omega).values > 0.0).all()
                got, _diag = scaling.copula_pmf(_binomial_seed(n, omega), tol=1e-14)
                np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_rows", range(2, 13))
    def test_goodman_matches_anchored_route(self, n_rows):
        for n_cols in range(2, 13):
            for theta in (1e-3, 0.1, 0.6, 1.8, 10.0, 1e3):
                powers = np.outer(np.arange(1, n_rows), np.arange(1, n_cols)).astype(float)
                with np.errstate(over="ignore"):
                    want = _anchored_copula(theta ** powers)
                if want is not None:
                    assert (goodman_copula(n_rows, n_cols, theta).values > 0.0).all()
                    got, _diag = scaling.copula_pmf(_goodman_seed(n_rows, n_cols, theta),
                                                    tol=1e-14)
                    np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, omega", [(60, 1e-6), (40, 1e-12), (60, 1e6)])
    def test_past_the_anchored_route(self, n, omega):
        # the anchored route left 28 zero cells, stalled after 100 Newton
        # steps and overflowed, in turn
        cop = binomial_copula(n, omega)
        assert (cop.values >= sys.float_info.min).all()
        assert is_copula_pmf(cop, tol=1e-10)
        np.testing.assert_allclose(_log_odds_ratios(cop.values),
                                   _exact_log_odds_entries(n, omega), rtol=0, atol=1e-12)

    def test_past_the_anchored_overflow_boundary(self):
        # the first omega whose n = 120 anchored entries overflowed
        cop = binomial_copula(120, 370.5009247847368)
        assert (cop.values > 0.0).all() and is_copula_pmf(cop, tol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 60, 120])
    @pytest.mark.parametrize("omega", [2.0, 8.0, 2.0**10, 2.0**20])
    def test_reciprocal_reverses_the_columns(self, n, omega):
        try:
            cop = binomial_copula(n, omega).values
        except ParamError:
            with pytest.raises(ParamError):
                binomial_copula(n, 1.0 / omega)
            return
        np.testing.assert_allclose(binomial_copula(n, 1.0 / omega).values[:, ::-1], cop,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("omega", [1e300, 1e-300, 5e-324])
    def test_tables_past_the_doubles_raise_without_warning(self, omega):
        # the test config makes a RuntimeWarning fail; at 1e-300 the anchored
        # route returned 3 zero cells
        with pytest.raises(ParamError, match="over- or underflows"):
            binomial_copula(3, omega)

    @pytest.mark.parametrize("n", [1024, 10**8, 10**400])
    def test_sizes_past_the_factors_raise_at_once(self, n):
        start = time.perf_counter()
        with pytest.raises(ParamError, match="exceeds 1023"):
            binomial_copula(n, 2.0)
        assert time.perf_counter() - start < 1.0

    def test_largest_size(self):
        seed = _binomial_seed(1023, 1.01).values
        assert (seed >= sys.float_info.min).all()

    def test_binomial_sweeps(self):
        # the anchored table took 109 sweeps
        _cop, diag = scaling.copula_pmf(_binomial_seed(60, 2.0))
        assert diag.iterations <= 32

    def test_goodman_sweeps(self):
        # the anchored table took 73 sweeps
        _cop, diag = scaling.copula_pmf(_goodman_seed(6, 8, 1.8))
        assert diag.iterations <= 22


class TestBinomialOddsEntries:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 30), num=st.integers(1, 40), den=st.integers(1, 40))
    def test_match_exact_sums(self, n, num, den):
        omega = Fraction(num, den)
        got = _seed_odds_ratios(_binomial_seed(n, float(omega)).values)
        want = np.array(_exact_odds_entries(n, omega), dtype=float)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_past_exact_float_coefficients(self):
        # binomial coefficients of n = 60 exceed 2**53, so the float
        # factors round
        omega = Fraction(2)
        want = np.array(_exact_odds_entries(60, omega), dtype=float)
        got = _seed_odds_ratios(_binomial_seed(60, 2.0).values)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


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

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40),
           cells=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                          min_size=4, max_size=4).filter(
               lambda c: min(c[0] + c[1], c[2] + c[3], c[0] + c[2], c[1] + c[3]) > 0.0
               and c[0] < 0.9 * sum(c)))
    def test_matches_per_cell_branches(self, n, cells):
        # base tables with zero cells included; the broadcast table equals
        # the docstring's branches cell by cell, to the bit
        base = np.array(cells).reshape(2, 2)
        p2 = JointPmf(base / base.sum())
        np.testing.assert_array_equal(truncated_geometric_pmf(n, p2).values,
                                      _geometric_pmf_per_cell(n, p2))

    @pytest.mark.parametrize("base", [[[0.4, 0.15], [0.2, 0.25]], [[0.0, 0.5], [0.5, 0.0]],
                                      [[0.5, 0.0], [0.0, 0.5]], [[0.97, 0.01], [0.01, 0.01]]])
    @pytest.mark.parametrize("n", [2, 3, 15, 40])
    def test_matches_per_cell_branches_fixed(self, base, n):
        p2 = JointPmf(base)
        np.testing.assert_array_equal(truncated_geometric_pmf(n, p2).values,
                                      _geometric_pmf_per_cell(n, p2))


def _geometric_pmf_per_cell(n, p2):
    """The truncated geometric table, one branch of its docstring per cell."""
    v = p2.values
    p00, p01, p10, p11 = v[0, 0], v[0, 1], v[1, 0], v[1, 1]
    row0, col0, row1, col1 = p00 + p01, p00 + p10, p10 + p11, p01 + p11
    out = np.empty((n, n))
    for x in range(n):
        for y in range(n):
            if x < y:
                cell = p00**x * p10 * col0 ** (y - x - 1)
                out[x, y] = cell * col1 if y < n - 1 else cell
            elif x > y:
                cell = p00**y * p01 * row0 ** (x - y - 1)
                out[x, y] = cell * row1 if x < n - 1 else cell
            else:
                out[x, y] = p00**x * p11 if x < n - 1 else p00**x
    return out


def _geometric_limit_costs_per_cell(n):
    """Orders and coefficients of the omega -> 0 limit, branch by branch."""
    order = np.empty((n, n), dtype=np.int64)
    coef = np.empty((n, n))
    for x in range(n):
        for y in range(n):
            if x == n - 1 or y == n - 1:
                order[x, y], coef[x, y] = min(x, y), 2.0 ** -(n - 1)
            elif x == y:
                order[x, y], coef[x, y] = x + 1, 2.0 ** -(x + 1)
            else:
                order[x, y], coef[x, y] = min(x, y), 2.0 ** -(max(x, y) + 1)
    return order, coef


def _geometric_limit_support_per_cell(n):
    """Off the diagonal, outside [0, N//2)^2 and outside [(N+1)//2, N)^2."""
    low, high = n // 2, (n + 1) // 2
    return np.array([[x != y and not (x < low and y < low) and not (x >= high and y >= high)
                      for y in range(n)] for x in range(n)])


class TestGeometricLimitCosts:
    @pytest.mark.parametrize("n", [*range(2, 41), 64, 300])
    def test_matches_per_cell_branches(self, n):
        _order, coef = _geometric_limit_costs_per_cell(n)
        expected = np.where(_geometric_limit_support_per_cell(n), coef, 0.0)
        np.testing.assert_array_equal(_geometric_limit_seed(n), expected)


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
    @pytest.mark.parametrize("n", range(2, 25))
    def test_matches_resolves_on_geometric_orders(self, n):
        order, _coef = _geometric_limit_costs_per_cell(n)
        np.testing.assert_array_equal(_geometric_limit_seed(n) > 0.0, _face_by_resolves(order))


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

    @pytest.mark.parametrize("omega", [1e-60, 1e-100, 1e-150])
    def test_tiny_omega_matches_printed_closed_form(self, omega):
        # the fit of the model's own table stalled here (NonConvergenceError)
        got = truncated_geometric_copula(3, omega).values
        assert np.abs(got - geometric3_copula_closed_form(omega)).max() <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.floats(-6.0, 6.0))
    def test_log_seed_is_a_rescaling_of_the_model_table(self, n, k):
        omega = 10.0**k
        log_pmf = np.log(truncated_geometric_pmf(n, bernoulli_copula(omega)).values)
        gap = families._geometric_log_seed(n, omega) - log_pmf
        assert additive_residual(gap) <= 1e-12 * max(1.0, np.abs(log_pmf).max())

    @pytest.mark.parametrize("n, omega", [(40, 1e-20), (64, 1e-12)])
    def test_cells_the_model_table_underflows_are_kept(self, n, omega):
        # the model's table has cells past the doubles (65 at (40, 1e-20)),
        # whose partial support took seconds of per-cell max-flow probes;
        # the centred seed has none, and the copula is its rescaling
        assert (truncated_geometric_pmf(n, bernoulli_copula(omega)).values == 0.0).any()
        got = truncated_geometric_copula(n, omega)
        assert got.values.min() > 0.0
        assert is_copula_pmf(got, tol=1e-12)
        gap = np.log(got.values) - families._geometric_log_seed(n, omega)
        assert additive_residual(gap) <= 1e-12

    def test_raised_cells_that_keep_no_mass_keep_the_fit(self):
        # 6 cells of the centred seed pass the doubles at (8, 1e-200): raised
        # to the least normal double, they end with no mass to speak of, and
        # the copula is the fit of the model's table with them left out
        table = families._geometric_table(8, bernoulli_copula(1e-200).values)
        want = scaling._fit(JointPmf(table).values)[0].values
        assert np.abs(truncated_geometric_copula(8, 1e-200).values - want).max() <= 1e-15

    def test_raised_cells_that_take_mass_raise(self):
        # at (12, 1e-300) the fit lifts cells raised from past the doubles
        # into view.  Fitting the centred seed without them lands 1e-2 from
        # the omega -> 0 limit, which the copula meets to 1e-12 at 1e-240
        limit = truncated_geometric_copula(12, 0.0).values
        assert np.abs(truncated_geometric_copula(12, 1e-240).values - limit).max() <= 1e-12
        log_seed = families._geometric_log_seed(12, 1e-300)
        centred = log_seed - log_seed.mean(axis=1, keepdims=True)
        centred -= centred.mean(axis=0)
        seed = np.exp(centred - centred.max())
        seed[seed / seed.sum() < sys.float_info.min] = 0.0
        assert np.abs(scaling._fit(seed)[0].values - limit).max() > 1e-3
        with pytest.raises(ParamError, match="omega=1e-300 for N=12: "):
            truncated_geometric_copula(12, 1e-300)

    @pytest.mark.parametrize("n, omega", [(6, 1e-320), (8, 1e-300), (12, 1e-100)])
    def test_far_below_the_doubles_the_copula_is_the_limit(self, n, omega):
        # these raised ParamError while the model's table underflowed.  The
        # copula nears the omega -> 0 limit as a power of omega, to within
        # 1e-12 from omega = 1e-50 on at these N
        got = truncated_geometric_copula(n, omega).values
        limit = truncated_geometric_copula(n, 0.0).values
        assert np.abs(got - limit).max() <= 1e-12
        np.testing.assert_array_equal(geometric_copula_grid(omega, n).heights, n**2 * got)


class TestGoodmanCopula:
    def test_matches_printed_closed_form(self):
        for th in PARAM_GRID:
            got = goodman_copula(3, 3, th)
            assert np.abs(got.values - goodman33_copula_closed_form(th)).max() <= 1e-8

    def test_independence(self):
        # the all-ones seed already fits: every shape keeps the uniform bytes
        for n_rows in range(2, 30):
            for n_cols in range(2, 30):
                got = goodman_copula(n_rows, n_cols, 1.0).values
                want = np.full((n_rows, n_cols), 1.0 / (n_rows * n_cols))
                assert got.tobytes() == want.tobytes(), (n_rows, n_cols)

    def test_endpoints_square(self):
        upper, lower = frechet_bounds(3)
        np.testing.assert_array_equal(goodman_copula(3, 3, 0.0).values, lower.values)
        np.testing.assert_array_equal(
            goodman_copula(3, 3, math.inf).values, upper.values
        )

    @pytest.mark.parametrize("theta", [1e300, 1e-300])
    def test_powers_past_the_doubles_raise_without_warning(self, theta):
        # theta**4 over- or underflows; the test config makes a RuntimeWarning fail
        with pytest.raises(ParamError, match="over- or underflows"):
            goodman_copula(3, 3, theta)

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


class TestNonnegativeValidation:
    @pytest.mark.parametrize("omega", [np.float32(2.0), np.float64(2.0), np.int64(2),
                                       Fraction(2)])
    def test_real_scalars_accepted(self, omega):
        np.testing.assert_array_equal(binomial_copula(2, omega).values,
                                      binomial_copula(2, 2.0).values)

    @pytest.mark.parametrize("omega", [True, np.bool_(True), "2.0", None, np.array([2.0]),
                                       complex(2.0), np.float32("nan"), math.nan,
                                       *PAST_THE_DOUBLES])
    def test_rejected(self, omega):
        with pytest.raises(ParamError, match="omega"):
            binomial_copula(2, omega)


_TABLE = JointPmf([[0.4, 0.1], [0.2, 0.3]])

#: Each parameter that must be a finite real above 0, as a call of its
#: value alone, with the error it raises otherwise.
POSITIVE_CALLS = {
    "cell_size": (lambda v: confetti_svg(_TABLE, ConfettiOptions(cell_size=v)), ValidationError),
    "dot_area_scale": (lambda v: confetti_svg(_TABLE, ConfettiOptions(dot_area_scale=v)),
                       ValidationError),
    "gamma": (lambda v: heatmap_ppm(DensityGrid(np.array([[1.5, 0.5], [0.5, 1.5]])), gamma=v),
              ValidationError),
    "phi": (lambda v: row_perturbation_table(v).values, ValidationError),
    "psi": (lambda v: col_perturbation_table(v).values, ValidationError),
    "lam": (lambda v: truncated_poisson_margin(v, 4), ParamError),
    "lam10": (lambda v: bivariate_poisson_pmf(v, 1.0, 0.5, 4).values, ParamError),
    "lam01": (lambda v: bivariate_poisson_pmf(1.0, v, 0.5, 4).values, ParamError),
    "df": (lambda v: copula_cdf(ContinuousCopulaSpec("student", {"rho": 0.5, "df": v}), 0.3, 0.6),
           ParamError),
}


class TestPositiveValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1",
                                     *PAST_THE_DOUBLES[:2]])
    @pytest.mark.parametrize("name", sorted(POSITIVE_CALLS))
    def test_rejected(self, name, bad):
        call, error = POSITIVE_CALLS[name]
        with pytest.raises(error, match=name):
            call(bad)

    @pytest.mark.parametrize("name", sorted(POSITIVE_CALLS))
    def test_float32_read_as_its_double(self, name):
        call, _error = POSITIVE_CALLS[name]
        value = np.float32(0.3)
        np.testing.assert_array_equal(call(value), call(float(value)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, True, "1", PAST_THE_DOUBLES[0]])
    def test_lam11_rejected(self, bad):
        with pytest.raises(ParamError, match="lam11"):
            bivariate_poisson_pmf(1.0, 1.0, bad, 4)

    def test_lam11_zero_accepted(self):
        np.testing.assert_array_equal(bivariate_poisson_pmf(1.0, 1.0, np.int64(0), 4).values,
                                      bivariate_poisson_pmf(1.0, 1.0, 0.0, 4).values)


#: Degenerate and extreme inputs of the constructors whose tables are
#: wrapped rather than checked again, with the error each raises.
EXTREME_CALLS = {
    "binomial n=60 omega=1e-12": (lambda: binomial_copula(60, 1e-12), ParamError, "underflows"),
    "binomial n=5 omega=1e308": (lambda: binomial_copula(5, 1e308), ParamError, "underflows"),
    "binomial n=1024": (lambda: binomial_copula(1024, 2.0), ParamError, "exceeds 1023"),
    "goodman theta=1e20": (lambda: goodman_copula(30, 30, 1e20), ParamError, "underflows"),
    "goodman theta=1e308": (lambda: goodman_copula(3, 3, 1e308), ParamError, "underflows"),
    "goodman theta=0 on 3x4": (lambda: goodman_copula(3, 4, 0.0), InfeasibleError, "diagonal"),
    # the centred geometric seed still passes the doubles, and the fit lifts
    # the cells raised from there into view (1e-320, 1e-100), or the fit of
    # the full seed, whose least cell is a normal double, stalls (1e-300 at
    # N = 3)
    "geometric omega=1e-320": (lambda: truncated_geometric_copula(12, 1e-320),
                               ParamError, "omega=1e-320 .*N=12: .*spans more than the doubles"),
    "geometric grid omega=1e-320": (lambda: geometric_copula_grid(1e-320, 12),
                                    ParamError, "spans more than the doubles"),
    "geometric omega=1e-300": (lambda: truncated_geometric_copula(3, 1e-300), ParamError,
                               "omega=1e-300 .*N=3: the fit of the geometric table fails: "
                               "fit stalled"),
    "geometric omega=1e-100": (lambda: truncated_geometric_copula(40, 1e-100),
                               ParamError, "omega=1e-100 .*N=40: .*spans more than the doubles"),
    "poisson level rounds to 0": (lambda: poisson_copula_grid(1.0, 400), ParamError,
                                  "rounds to 0"),
    "poisson margin level rounds to 0": (lambda: truncated_poisson_margin(800.0, 3),
                                         ParamError, "rounds to 0"),
}


class TestWrappedTables:
    """Tables built from validated inputs are wrapped, not checked again."""

    @pytest.mark.parametrize("name", sorted(EXTREME_CALLS))
    def test_extreme_inputs_raise_as_before(self, name):
        call, error, message = EXTREME_CALLS[name]
        with pytest.raises(error, match=message) as info:
            call()
        assert type(info.value) is error

    @pytest.mark.parametrize("build", [
        lambda: bernoulli_copula(1e-320), lambda: bernoulli_copula(1e308),
        lambda: truncated_geometric_copula(6, 1e308), lambda: binomial_copula(60, 1e-10),
        lambda: goodman_copula(12, 12, 1e-3),
        lambda: discretize_copula(ContinuousCopulaSpec("frank", {"theta": 1e4}), 9, 9),
        lambda: discretize_copula(ContinuousCopulaSpec("clayton", {"theta": -1.0}), 9, 9),
        lambda: discretize_copula(ContinuousCopulaSpec("student", {"rho": 0.5, "df": 4.0}),
                                  6, 6),
    ])
    def test_wrapped_tables_pass_the_public_checks(self, build):
        p = build()
        assert not p.values.flags.writeable
        np.testing.assert_array_equal(JointPmf(p.values).values, p.values)

    def test_tiny_student_df_mesh_is_wrapped(self):
        # this mesh raised ParamError ("too small") while its quantiles, past
        # the doubles, were not kept as logs
        p = discretize_copula(ContinuousCopulaSpec("student", {"rho": 0.3, "df": 0.002}), 15, 15)
        assert not p.values.flags.writeable
        np.testing.assert_array_equal(JointPmf(p.values).values, p.values)
        assert is_copula_pmf(p, tol=1e-12)


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
