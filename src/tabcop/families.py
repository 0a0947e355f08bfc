"""Parametric copula pmf families.

Two construction routes:

* discretize a continuous copula CDF on a regular R x S mesh (rectangle
  differences keep the margins exactly uniform), or
* specify the odds-ratio matrix of a model (Binomial, truncated
  Geometric, Goodman), complete it with a unit first row/column,
  normalize, and fit to uniform margins.

Both routes commute with the closed forms tabulated for the small cases,
which the test suite uses as oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from tabcop import scaling
from tabcop.bernoulli import bernoulli_copula
from tabcop.dependence import OddsRatioMatrix, completed_odds_matrix, frechet_bounds
from tabcop.errors import (
    DegenerateError,
    DomainError,
    InfeasibleError,
    ParamError,
    ValidationError,
    check_nonnegative,
)
from tabcop.pmf_core import JointPmf

_FAMILY_PARAMS = {
    "independence": (),
    "fgm": ("theta",),
    "clayton": ("theta",),
    "gumbel": ("theta",),
    "frank": ("theta",),
    "gaussian": ("rho",),
    "student": ("rho", "df"),
}

@dataclass(frozen=True)
class ContinuousCopulaSpec:
    """A continuous copula family name plus its parameter values."""

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in _FAMILY_PARAMS:
            raise ParamError(
                f"unknown copula family {self.family!r}; "
                f"choose from {sorted(_FAMILY_PARAMS)}"
            )
        expected = _FAMILY_PARAMS[self.family]
        given = tuple(sorted(self.params))
        if given != tuple(sorted(expected)):
            raise ParamError(
                f"family {self.family!r} takes parameters {expected}, got {given}"
            )
        for name, value in self.params.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ParamError(f"parameter {name} must be a finite real, got {value!r}")
        p = self.params
        if self.family == "fgm" and not -1.0 <= p["theta"] <= 1.0:
            raise ParamError("fgm theta must lie in [-1, 1]")
        if self.family == "clayton" and (p["theta"] < -1.0 or p["theta"] == 0.0):
            raise ParamError("clayton theta must lie in [-1, inf) and differ from 0")
        if self.family == "gumbel" and p["theta"] < 1.0:
            raise ParamError("gumbel theta must be at least 1")
        if self.family == "frank" and p["theta"] == 0.0:
            raise ParamError("frank theta must differ from 0")
        if self.family in ("gaussian", "student") and not -1.0 < p["rho"] < 1.0:
            raise ParamError("rho must lie strictly inside (-1, 1)")
        if self.family == "student" and p["df"] <= 0.0:
            raise ParamError("student df must be positive")


def parse_family_spec(text: str) -> ContinuousCopulaSpec:
    """Parse a CLI-style spec such as ``"clayton:theta=-0.8"``."""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ParamError(f"malformed parameter {item!r} in {text!r}")
            try:
                params[key.strip()] = float(value)
            except ValueError:
                raise ParamError(f"non-numeric parameter value in {item!r}") from None
    return ContinuousCopulaSpec(name.strip(), params)


@functools.cache
def _quadrature():
    """scipy's ``integrate`` and ``special``, imported on first use.

    The Gaussian and Student CDFs run once per mesh node; fetching the
    modules from this cache costs about a tenth of an import statement.
    """
    from scipy import integrate, special

    return integrate, special


def _gaussian_cdf(u: float, v: float, rho: float) -> float:
    """Gaussian copula C(u, v): P(Z1 <= a, Z2 <= b) at the normal quantiles.

    One-dimensional adaptive quadrature over the correlation integral:
    the derivative of the probability in rho is the bivariate density at
    (a, b), so integrating it from 0 (where the answer factorizes) to rho
    gives the rectangle probability to ~1e-12.
    """
    integrate, special = _quadrature()
    a, b = special.ndtri(u), special.ndtri(v)

    def integrand(r):
        om = 1.0 - r * r
        return math.exp(-(a * a + b * b - 2.0 * r * a * b) / (2.0 * om)) / math.sqrt(om)

    value, _ = integrate.quad(integrand, 0.0, rho, epsabs=1e-13, epsrel=1e-12)
    return special.ndtr(a) * special.ndtr(b) + value / (2.0 * math.pi)


def _student_cdf(u: float, v: float, rho: float, df: float) -> float:
    """Student copula C(u, v): P(T1 <= x, T2 <= y) at the t quantiles.

    Two-dimensional adaptive quadrature in arctangent coordinates: the
    substitution maps the heavy-tailed infinite domain onto a finite box,
    where the adaptive rule converges cleanly.
    """
    from scipy.stats import t as student_t

    integrate, _special = _quadrature()
    x, y = student_t.ppf(u, df), student_t.ppf(v, df)
    c = 1.0 / (2.0 * math.pi * math.sqrt(1.0 - rho * rho))

    def density(t_in, s_out):
        q = (s_out * s_out - 2.0 * rho * s_out * t_in + t_in * t_in) / (
            df * (1.0 - rho * rho)
        )
        return c * (1.0 + q) ** (-(df + 2.0) / 2.0)

    def integrand(b, a):
        s, t = math.tan(a), math.tan(b)
        return density(t, s) * (1.0 + s * s) * (1.0 + t * t)

    half_pi = math.pi / 2.0
    value, _ = integrate.dblquad(
        integrand, -half_pi, math.atan(x), -half_pi, math.atan(y), epsabs=1e-9
    )
    return value


def copula_cdf(spec: ContinuousCopulaSpec, u: float, v: float) -> float:
    """Evaluate the copula CDF C(u, v) of the given family.

    Grounded and margin-exact by construction: C(u, 0) = C(0, v) = 0,
    C(u, 1) = u, C(1, v) = v.  The Gaussian family evaluates to ~1e-12
    via a one-dimensional correlation integral, the Student family to
    ~1e-8 via two-dimensional quadrature (noticeably slower).
    """
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise DomainError(f"copula arguments must lie in [0, 1], got ({u!r}, {v!r})")
    if u == 0.0 or v == 0.0:
        return 0.0
    if u == 1.0:
        return v
    if v == 1.0:
        return u

    p = spec.params
    if spec.family == "independence":
        return u * v
    if spec.family == "fgm":
        return u * v * (1.0 + p["theta"] * (1.0 - u) * (1.0 - v))
    if spec.family == "clayton":
        th = p["theta"]
        base = u ** (-th) + v ** (-th) - 1.0
        if base <= 0.0:
            return 0.0
        return base ** (-1.0 / th)
    if spec.family == "gumbel":
        th = p["theta"]
        s = (-math.log(u)) ** th + (-math.log(v)) ** th
        return math.exp(-(s ** (1.0 / th)))
    if spec.family == "frank":
        th = p["theta"]
        num = math.expm1(-th * u) * math.expm1(-th * v)
        return -math.log1p(num / math.expm1(-th)) / th
    if spec.family == "gaussian":
        return _gaussian_cdf(u, v, p["rho"])
    return _student_cdf(u, v, p["rho"], p["df"])


def discretize_copula(spec: ContinuousCopulaSpec, n_rows: int, n_cols: int) -> JointPmf:
    """Copula pmf from rectangle differences of ``C`` on a regular mesh.

    Cell (u, v) receives the C-mass of the rectangle
    [u/R, (u+1)/R] x [v/S, (v+1)/S].  Each mesh node is evaluated once, so
    the row and column sums telescope to the exact uniform margins up to
    rounding, independent of any quadrature error in the interior nodes.
    """
    if n_rows < 2 or n_cols < 2:
        raise ValidationError("discretization needs at least 2 rows and 2 columns")
    nodes = np.empty((n_rows + 1, n_cols + 1))
    for i in range(n_rows + 1):
        for j in range(n_cols + 1):
            nodes[i, j] = copula_cdf(spec, i / n_rows, j / n_cols)
    cells = np.diff(np.diff(nodes, axis=0), axis=1)
    # 2-increasingness can be lost to quadrature noise at ~1e-12; clip
    return JointPmf(np.clip(cells, 0.0, None))


def fgm_pmf(theta: float, n_rows: int, n_cols: int) -> JointPmf:
    """Closed-form discrete Farlie-Gumbel-Morgenstern copula pmf.

    p[u, v] = (1/(R*S)) * (1 + theta*(1 - (2u+1)/R)*(1 - (2v+1)/S)); equals
    the mesh discretization of the continuous FGM copula, and reduces to
    the uniform table at theta = 0.
    """
    if not -1.0 <= theta <= 1.0:
        raise ParamError("fgm theta must lie in [-1, 1]")
    if n_rows < 2 or n_cols < 2:
        raise ValidationError("fgm pmf needs at least 2 rows and 2 columns")
    u = 1.0 - (2.0 * np.arange(n_rows) + 1.0) / n_rows
    v = 1.0 - (2.0 * np.arange(n_cols) + 1.0) / n_cols
    return JointPmf((1.0 + theta * np.outer(u, v)) / (n_rows * n_cols))


def bivariate_binomial_pmf(n: int, p2: JointPmf) -> JointPmf:
    """Distribution of n-fold sums of a 2x2 table's coordinates.

    (X, Y) = (sum Xi, sum Yi) over n independent draws from ``p2``; the
    (n+1) x (n+1) pmf holds the coefficients of the generating function
    (p00 + p10 s + p01 t + p11 s t)**n, built one draw at a time.  Every
    term is a nonnegative product, so the cells keep their relative
    accuracy without overflow at any n.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParamError(f"n must be an integer >= 1, got {n!r}")
    _p = p2.values
    if p2.shape != (2, 2):
        raise ValidationError(f"base table must be 2x2, got {p2.shape}")
    p00, p01, p10, p11 = _p[0, 0], _p[0, 1], _p[1, 0], _p[1, 1]

    out = np.zeros((n + 1, n + 1))
    out[0, 0] = 1.0
    for _ in range(n):
        prev = out
        out = p00 * prev
        out[1:, :] += p10 * prev[:-1, :]
        out[:, 1:] += p01 * prev[:, :-1]
        out[1:, 1:] += p11 * prev[:-1, :-1]
    return JointPmf(out)


def _binomial_odds_entries(n: int, omega: float) -> np.ndarray:
    """Odds-ratio entries of the common-shock Binomial(n) at odds ratio omega.

    entries[x-1, y-1] = E[omega**K] for K ~ Hypergeometric(n, x, y), the
    shared count of x row successes and y column successes: the z**y
    coefficient of (1 + omega z)**x (1 + z)**(n-x), divided by C(n, y).
    """
    pascal = [np.ones(1)]
    for _ in range(n):
        pascal.append(np.convolve(pascal[-1], [1.0, 1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        powers = omega ** np.arange(n + 1.0)
        rows = [np.convolve(pascal[x] * powers[: x + 1], pascal[n - x])
                for x in range(1, n + 1)]
        return np.array(rows)[:, 1:] / pascal[n][1:]


def binomial_copula(n: int, omega: float, tol: float = scaling.DEFAULT_TOL) -> JointPmf:
    """(n+1) x (n+1) copula pmf of the common-shock bivariate Binomial.

    One-parameter family: the odds-ratio matrix depends on the base 2x2
    table only through its odds ratio.  Built by completing the odds-ratio
    matrix, normalizing, and fitting to uniform margins; the endpoints
    omega = 0 and omega = inf are the anti-diagonal and diagonal Frechet
    tables, and omega = 1 the uniform table.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParamError(f"n must be an integer >= 1, got {n!r}")
    omega = check_nonnegative(omega, "omega", ParamError)
    size = n + 1
    upper, lower = frechet_bounds(size)
    if omega == 0.0:
        return lower
    if math.isinf(omega):
        return upper
    if omega == 1.0:
        return JointPmf(np.full((size, size), 1.0 / size**2))

    entries = _binomial_odds_entries(n, omega)
    if not np.isfinite(entries).all():
        raise ParamError(
            f"odds-ratio entries overflow for n={n}, omega={omega}; "
            "reduce omega or n"
        )
    completed = completed_odds_matrix(OddsRatioMatrix(entries))
    seed = JointPmf(completed / completed.sum())
    result, _diag = scaling.copula_pmf(seed, tol=tol)
    return result


def truncated_geometric_pmf(n_levels: int, p2: JointPmf) -> JointPmf:
    """Joint law of two first-success counts, each capped at n_levels - 1.

    X counts the leading (X_i = 0)'s and Y the leading (Y_i = 0)'s in a
    shared i.i.d. stream from ``p2``; both are truncated by min(., N-1).
    The four branches (interior above/on/below the diagonal plus the
    absorbing boundary) are evaluated exactly from the cell products.
    """
    if not isinstance(n_levels, (int, np.integer)) or n_levels < 2:
        raise ParamError(f"n_levels must be an integer >= 2, got {n_levels!r}")
    if p2.shape != (2, 2):
        raise ValidationError(f"base table must be 2x2, got {p2.shape}")
    v = p2.values
    p00, p01, p10, p11 = v[0, 0], v[0, 1], v[1, 0], v[1, 1]
    if p00 >= 1.0:
        raise DegenerateError("base table is concentrated at (0, 0)")
    row0, col0 = p00 + p01, p00 + p10
    row1, col1 = p10 + p11, p01 + p11

    n = n_levels
    out = np.empty((n, n))
    for x in range(n):
        for y in range(n):
            if x < n - 1 and y < n - 1:
                if x < y:
                    out[x, y] = p00**x * p10 * col0 ** (y - x - 1) * col1
                elif x == y:
                    out[x, y] = p00**x * p11
                else:
                    out[x, y] = p00**y * p01 * row0 ** (x - y - 1) * row1
            elif x == n - 1 and y < n - 1:
                out[x, y] = p00**y * p01 * row0 ** (n - y - 2)
            elif y == n - 1 and x < n - 1:
                out[x, y] = p00**x * p10 * col0 ** (n - x - 2)
            else:
                out[x, y] = p00 ** (n - 1)
    return JointPmf(out)


def _geometric_limit_costs(n: int):
    """Vanishing orders and leading coefficients of the standard model.

    With the base table at odds ratio omega -> 0, every cell of the
    truncated table behaves like coef * sqrt(omega)**order; the surviving
    copula support minimizes the total order subject to uniform margins.
    """
    order = np.empty((n, n), dtype=np.int64)
    coef = np.empty((n, n))
    for x in range(n):
        for y in range(n):
            if x == n - 1 and y == n - 1:
                order[x, y] = n - 1
                coef[x, y] = 2.0 ** -(n - 1)
            elif x == n - 1:
                order[x, y] = y
                coef[x, y] = 2.0 ** -(n - 1)
            elif y == n - 1:
                order[x, y] = x
                coef[x, y] = 2.0 ** -(n - 1)
            elif x < y:
                order[x, y] = x
                coef[x, y] = 2.0 ** -(y + 1)
            elif x > y:
                order[x, y] = y
                coef[x, y] = 2.0 ** -(x + 1)
            else:
                order[x, y] = x + 1
                coef[x, y] = 2.0 ** -(x + 1)
    return order, coef


def _assignment_face(cost):
    """Cells carrying mass in some minimum-cost doubly stochastic plan.

    The transportation polytope with unit margins has permutation
    vertices, so the optimal face is the union of optimal assignments.
    From one optimal matching m, moving column m(b) to row a changes the
    cost by w[a, b] = c[a, m(b)] - c[b, m(b)]; every other assignment is
    m composed with cycles of such moves, none of negative weight.  Cell
    (a, m(b)) is thus on the face iff the move a -> b closes a zero-weight
    cycle, w[a, b] + dist[b, a] == 0 with dist the shortest move paths
    (integer costs make the equality test exact).
    """
    from scipy.optimize import linear_sum_assignment

    n = cost.shape[0]
    _rows, match = linear_sum_assignment(cost)
    moves = cost[:, match] - cost[np.arange(n), match]
    dist = moves.copy()
    for k in range(n):  # Floyd-Warshall
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    face = np.zeros((n, n), dtype=bool)
    face[:, match] = moves + dist.T == 0
    return face


def truncated_geometric_copula(n_levels: int, omega: float,
                               tol: float = scaling.DEFAULT_TOL) -> JointPmf:
    """Standard truncated-Geometric copula pmf on an N x N grid.

    The base 2x2 table is pinned to uniform margins (the uniform-margin
    representative with odds ratio ``omega``), which collapses the model
    to one parameter; the truncated table is then fitted to uniform
    margins.  At omega = 0 the raw table's support cannot reach uniform
    margins, so the copula is the omega -> 0 limit instead: mass settles
    on the support of minimal vanishing order and the leading coefficients
    are fitted there (for N = 3 this is the uniform off-diagonal table).
    """
    if not isinstance(n_levels, (int, np.integer)) or n_levels < 2:
        raise ParamError(f"n_levels must be an integer >= 2, got {n_levels!r}")
    omega = check_nonnegative(omega, "omega", ParamError)
    if omega == 0.0 and n_levels > 2:
        order, coef = _geometric_limit_costs(n_levels)
        face = _assignment_face(order)
        seed = np.where(face, coef, 0.0)
        result, _diag = scaling.copula_pmf(JointPmf(seed / seed.sum()), tol=tol)
        return result
    base = bernoulli_copula(omega)
    result, _diag = scaling.copula_pmf(truncated_geometric_pmf(n_levels, base), tol=tol)
    return result


def goodman_copula(n_rows: int, n_cols: int, theta: float,
                   tol: float = scaling.DEFAULT_TOL) -> JointPmf:
    """Copula pmf of the constant local-odds-ratio association model.

    All 2x2 blocks of adjacent rows/columns share the odds ratio
    ``theta``, so the matrix anchored at (0, 0) is theta**(x*y).  Endpoint
    values concentrate the mass on a diagonal, which exists only for
    square shapes: theta = 0 gives the anti-diagonal table, theta = inf
    the diagonal one, and both raise InfeasibleError for R != S.
    """
    if n_rows < 2 or n_cols < 2:
        raise ValidationError("goodman copula needs at least 2 rows and 2 columns")
    theta = check_nonnegative(theta, "theta", ParamError)

    if theta == 0.0 or math.isinf(theta):
        # the degenerate seeds have cross-shaped support, which cannot
        # reach uniform margins; the limits are the Frechet tables
        if n_rows != n_cols:
            raise InfeasibleError(
                f"goodman theta={theta} concentrates mass on a diagonal, "
                f"impossible for shape {(n_rows, n_cols)}"
            )
        upper, lower = frechet_bounds(n_rows)
        return lower if theta == 0.0 else upper
    if theta == 1.0:
        return JointPmf(np.full((n_rows, n_cols), 1.0 / (n_rows * n_cols)))

    powers = np.outer(np.arange(1, n_rows), np.arange(1, n_cols))
    entries = theta ** powers.astype(float)
    if not np.isfinite(entries).all() or (entries == 0.0).any():
        raise ParamError(
            f"theta={theta} over- or underflows for shape {(n_rows, n_cols)}"
        )
    completed = completed_odds_matrix(OddsRatioMatrix(entries))
    result, _diag = scaling.copula_pmf(JointPmf(completed / completed.sum()), tol=tol)
    return result
