import math

import numpy as np
import pytest

from tabcop import scaling
from tabcop.bernoulli import bernoulli_copula, upsilon_from_omega
from tabcop.dependence import (
    OddsRatioMatrix,
    completed_odds_matrix,
    frechet_bounds,
    odds_ratio_matrix,
    omega_matrices_agree,
    yule_upsilon,
)
from tabcop.errors import NotACopulaError, UndefinedEntryError, ValidationError
from tabcop.families import binomial_copula, bivariate_binomial_pmf
from tabcop.pmf_core import JointPmf, from_counts, is_copula_pmf

from conftest import (
    GRAUBARD_COUNTS,
    binomial_upsilon_closed_form,
    random_positive_pmf,
)


class TestOddsRatioMatrix:
    def test_independence_all_ones(self, rng):
        rows = rng.random(4) + 0.2
        cols = rng.random(3) + 0.2
        p = JointPmf(np.outer(rows / rows.sum(), cols / cols.sum()))
        np.testing.assert_allclose(odds_ratio_matrix(p).entries, np.ones((3, 2)),
                                   atol=1e-12)

    def test_binomial2_structure(self):
        for w in (0.3, 2.0, 11.0):
            base = bernoulli_copula(w)
            p = bivariate_binomial_pmf(2, base)
            expected = np.array([[(w + 1) / 2, w], [w, w * w]])
            np.testing.assert_allclose(odds_ratio_matrix(p).entries, expected,
                                       rtol=1e-10)

    def test_goodman_structure(self):
        # a table built from the theta**(x*y) completed matrix carries
        # exactly those odds ratios back
        theta = 2.5
        completed = np.ones((3, 4))
        completed[1:, 1:] = theta ** np.outer(np.arange(1, 3), np.arange(1, 4))
        p = JointPmf(completed / completed.sum())
        expected = theta ** np.outer(np.arange(1, 3), np.arange(1, 4))
        np.testing.assert_allclose(odds_ratio_matrix(p).entries, expected,
                                   rtol=1e-10)

    def test_zero_and_infinity_conventions(self):
        p = JointPmf([[0.25, 0.25, 0.0], [0.25, 0.0, 0.25]])
        m = odds_ratio_matrix(p).entries
        assert m[0, 0] == 0.0        # zero numerator over positive denominator
        assert m[0, 1] == math.inf   # positive numerator over zero denominator

    def test_undefined_entries(self):
        p = JointPmf([[0.2, 0.0, 0.2], [0.2, 0.0, 0.1], [0.1, 0.2, 0.0]])
        m = odds_ratio_matrix(p)
        assert math.isnan(m.entries[0, 0])  # both products vanish at (1,1)
        assert m.entries[1, 1] == 0.0
        assert m.n_undefined == 1

    def test_invariance_under_distortion(self, rng):
        for _ in range(30):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            p = JointPmf(random_positive_pmf(rng, n_rows, n_cols))
            q = scaling.apply_marginal_distortion(
                p, rng.uniform(0.2, 5.0, n_rows), rng.uniform(0.2, 5.0, n_cols)
            )
            a = odds_ratio_matrix(p).entries
            b = odds_ratio_matrix(q).entries
            assert (np.abs(a - b) / np.abs(a)).max() <= 1e-9


    def test_wraps_what_the_constructor_builds(self, rng):
        # zero cells give 0, inf and undefined 0/0 entries
        for _ in range(30):
            n_rows, n_cols = rng.integers(2, 7, size=2)
            values = random_positive_pmf(rng, n_rows, n_cols)
            values[rng.random(values.shape) < 0.3] = 0.0
            values[np.arange(n_rows), np.arange(n_rows) % n_cols] += 0.1
            values[np.arange(n_cols) % n_rows, np.arange(n_cols)] += 0.1
            p = JointPmf(values / values.sum())
            v = p.values
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = OddsRatioMatrix(v[0, 0] * v[1:, 1:] / np.outer(v[1:, 0], v[0, 1:]))
            got = odds_ratio_matrix(p).entries
            assert got.tobytes() == expected.entries.tobytes()
            assert not got.flags.writeable and got.base is None


class TestCompletedOddsMatrix:
    def test_trivial(self):
        out = completed_odds_matrix(OddsRatioMatrix([[1.0]]))
        np.testing.assert_array_equal(out, np.ones((2, 2)))

    def test_binomial2_shape(self):
        w = 3.0
        om = OddsRatioMatrix([[(w + 1) / 2, w], [w, w * w]])
        out = completed_odds_matrix(om)
        assert out.shape == (3, 3)
        np.testing.assert_array_equal(out[0], np.ones(3))
        np.testing.assert_array_equal(out[:, 0], np.ones(3))
        np.testing.assert_array_equal(out[1:, 1:], om.entries)

    def test_round_trip(self, rng):
        entries = rng.uniform(0.1, 10.0, size=(3, 2))
        completed = completed_odds_matrix(OddsRatioMatrix(entries))
        p = JointPmf(completed / completed.sum())
        np.testing.assert_allclose(odds_ratio_matrix(p).entries, entries,
                                   rtol=1e-12)

    def test_undefined_rejected(self):
        with pytest.raises(UndefinedEntryError):
            completed_odds_matrix(OddsRatioMatrix([[1.0, float("nan")]]))


class TestOmegaAgreement:
    def test_undefined_matches_anything(self):
        m1 = OddsRatioMatrix([[1.0, float("nan")]])
        m2 = OddsRatioMatrix([[1.0, 5.0]])
        agree, n_undef = omega_matrices_agree(m1, m2)
        assert agree and n_undef == 1

    def test_infinity_matching(self):
        m1 = OddsRatioMatrix([[math.inf]])
        assert omega_matrices_agree(m1, OddsRatioMatrix([[math.inf]]))[0]
        assert not omega_matrices_agree(m1, OddsRatioMatrix([[1e30]]))[0]

    @pytest.mark.parametrize("tol, message", [
        (math.nan, "tol must lie in [0, inf), got nan"),
        (-1.0, "tol must lie in [0, inf), got -1.0"),
        (math.inf, "tol must lie in [0, inf), got inf"),
        (True, "tol must be a real number, got True"),
    ])
    def test_invalid_tol_raises(self, tol, message):
        m = OddsRatioMatrix([[2.0, 3.0]])
        with pytest.raises(ValidationError) as info:
            omega_matrices_agree(m, m, tol)
        assert str(info.value) == message

    def test_zero_tol_compares_exactly(self):
        m = OddsRatioMatrix([[2.0, 3.0]])
        assert omega_matrices_agree(m, m, 0.0) == (True, 0)
        assert not omega_matrices_agree(m, OddsRatioMatrix([[2.0, 3.0000000000000004]]), 0.0)[0]


class TestYuleUpsilon:
    def test_graubard_value(self):
        cop, _ = scaling.copula_pmf(from_counts(GRAUBARD_COUNTS))
        assert yule_upsilon(cop) == pytest.approx(0.358, abs=1e-3)

    def test_independence_exact_zero(self):
        for shape in ((2, 2), (3, 3), (2, 5), (4, 3)):
            cop = JointPmf(np.full(shape, 1.0 / (shape[0] * shape[1])))
            assert yule_upsilon(cop) == 0.0

    def test_frechet_exact_extremes(self):
        for size in (2, 3, 4, 7):
            upper, lower = frechet_bounds(size)
            assert yule_upsilon(upper) == 1.0
            assert yule_upsilon(lower) == -1.0

    def test_reduces_to_colligation_for_2x2(self):
        for w in (0.05, 0.4, 1.0, 3.0, 40.0):
            assert yule_upsilon(bernoulli_copula(w)) == pytest.approx(
                upsilon_from_omega(w), abs=1e-12
            )

    def test_binomial_closed_form(self):
        for w in np.logspace(-2, 2, 9):
            cop = binomial_copula(2, float(w))
            assert yule_upsilon(cop) == pytest.approx(
                binomial_upsilon_closed_form(w), abs=1e-8
            )

    def test_rejects_non_copula(self):
        with pytest.raises(NotACopulaError):
            yule_upsilon(JointPmf([[0.52, 0.02], [0.10, 0.36]]))

    def test_same_bits_as_summing_the_lines_twice(self, rng):
        # the line sums are taken once, for the check and the variances
        def twice(cop):
            assert is_copula_pmf(cop, tol=1e-9)
            n_rows, n_cols = cop.shape
            a = np.arange(n_rows) - (n_rows - 1) / 2.0
            b = np.arange(n_cols) - (n_cols - 1) / 2.0
            cov = math.fsum((np.outer(a, b) * cop.values).ravel())
            var_u = math.fsum((a * a) * cop.values.sum(axis=1))
            var_v = math.fsum((b * b) * cop.values.sum(axis=0))
            if cov == 0.0:
                return 0.0
            return math.copysign(math.sqrt(min((cov * cov) / (var_u * var_v), 1.0)), cov)

        for _ in range(30):
            n_rows, n_cols = rng.integers(2, 9, size=2)
            cop, _ = scaling.copula_pmf(JointPmf(random_positive_pmf(rng, n_rows, n_cols)))
            assert yule_upsilon(cop) == twice(cop)


class TestFrechetBounds:
    def test_2x2(self):
        upper, lower = frechet_bounds(2)
        np.testing.assert_array_equal(upper.values, [[0.5, 0.0], [0.0, 0.5]])
        np.testing.assert_array_equal(lower.values, [[0.0, 0.5], [0.5, 0.0]])

    def test_3x3(self):
        upper, lower = frechet_bounds(3)
        np.testing.assert_allclose(upper.values, np.eye(3) / 3, atol=1e-16)
        np.testing.assert_allclose(lower.values, np.fliplr(np.eye(3)) / 3,
                                   atol=1e-16)

    def test_bad_size(self):
        with pytest.raises(Exception):
            frechet_bounds(1)
