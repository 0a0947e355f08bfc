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
    check_size,
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

    One-dimensional adaptive quadrature over the correlation integral,
    the Student form of the Gaussian one (Genz 2004, Statistics and
    Computing 14).  With T = Z / sqrt(W / df), W ~ chi^2_df, averaging
    the normal identity dPhi2/drho = phi2 over W gives

        dT2/drho = (1 + Q/df)^(-df/2) / (2 pi sqrt(1 - rho^2)),
        Q = (x^2 - 2 rho x y + y^2) / (1 - rho^2).

    For rho >= 0 the integral runs down from rho = 1, where
    T2 = T(min(x, y)); for rho < 0 it runs up from rho = -1, where
    T2 = max(0, T(x) + T(y) - 1).  The substitution r = sin(theta)
    removes the 1/sqrt(1 - r^2) endpoint singularity, and Q is written so
    that it does not cancel at the endpoint integrated to:
    (x - y)^2/cos^2 + 2xy/(1 + sin) toward +pi/2 and
    (x + y)^2/cos^2 - 2xy/(1 - sin) toward -pi/2.  The kernel goes
    through log1p, so a large df does not round it away.
    """
    integrate, special = _quadrature()
    x, y = float(special.stdtrit(df, u)), float(special.stdtrit(df, v))
    sign = 1.0 if rho >= 0.0 else -1.0
    d2 = (x - sign * y) * (x - sign * y)
    xy2 = sign * 2.0 * x * y

    def kernel(theta):
        s, c = math.sin(theta), math.cos(theta)
        q = d2 / (c * c) + xy2 / (1.0 + sign * s)
        # q is nan (inf - inf) only when both quantiles pass 1e154, where
        # the kernel is below (1e308 / df)^(-df/2)
        return math.exp(-0.5 * df * math.log1p(q / df)) if q == q else 0.0

    value, _ = integrate.quad(
        kernel, math.asin(rho), sign * math.pi / 2.0, epsabs=1e-13, epsrel=1e-12
    )
    if sign > 0.0:
        base = special.stdtr(df, min(x, y))
    else:
        base = max(0.0, special.stdtr(df, x) + special.stdtr(df, y) - 1.0)
    return float(base - value / (2.0 * math.pi))


def copula_cdf(spec: ContinuousCopulaSpec, u: float, v: float) -> float:
    """Evaluate the copula CDF C(u, v) of the given family.

    Grounded and margin-exact by construction: C(u, 0) = C(0, v) = 0,
    C(u, 1) = u, C(1, v) = v.  The Gaussian and Student families evaluate
    to ~1e-12 via one-dimensional correlation integrals.  Every family is
    clamped to the Frechet bounds max(0, u + v - 1) <= C <= min(u, v),
    which rounding and quadrature error of order 1e-16 would otherwise
    cross at small arguments (as would the Student CDF where ``stdtrit``
    returns +inf for a large negative quantile, at some u near 1e-300).
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
        c = u * v
    elif spec.family == "fgm":
        c = u * v * (1.0 + p["theta"] * (1.0 - u) * (1.0 - v))
    elif spec.family == "clayton":
        th = p["theta"]
        try:
            base = u ** (-th) + v ** (-th) - 1.0
        except OverflowError:
            base = math.inf
        if base < math.inf:
            c = 0.0 if base <= 0.0 else base ** (-1.0 / th)
        else:
            # a power or their sum past 1e308 (theta > 0): factor the larger out
            a, b = -th * math.log(u), -th * math.log(v)
            m = max(a, b)
            c = math.exp(-(m + math.log1p(math.exp(-abs(a - b)) - math.exp(-m))) / th)
    elif spec.family == "gumbel":
        th = p["theta"]
        s = (-math.log(u)) ** th + (-math.log(v)) ** th
        c = math.exp(-(s ** (1.0 / th)))
    elif spec.family == "frank":
        th = p["theta"]
        num = math.expm1(-th * u) * math.expm1(-th * v)
        c = -math.log1p(num / math.expm1(-th)) / th
    elif spec.family == "gaussian":
        c = _gaussian_cdf(u, v, p["rho"])
    else:
        c = _student_cdf(u, v, p["rho"], p["df"])
    lower = u + v - 1.0 if u + v > 1.0 else 0.0
    upper = u if u < v else v
    if c < lower:
        c = lower
    if c > upper:
        c = upper
    return c


def discretize_copula(spec: ContinuousCopulaSpec, n_rows: int, n_cols: int) -> JointPmf:
    """Copula pmf from rectangle differences of ``C`` on a regular mesh.

    Cell (u, v) receives the C-mass of the rectangle
    [u/R, (u+1)/R] x [v/S, (v+1)/S].  Each mesh node is evaluated once, so
    the row and column sums telescope to the exact uniform margins up to
    rounding, independent of any quadrature error in the interior nodes.
    """
    n_rows = check_size(n_rows, "n_rows", 2, ValidationError)
    n_cols = check_size(n_cols, "n_cols", 2, ValidationError)
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
    n_rows = check_size(n_rows, "n_rows", 2, ValidationError)
    n_cols = check_size(n_cols, "n_cols", 2, ValidationError)
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
    n = check_size(n, "n", 1, ParamError)
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
    n = check_size(n, "n", 1, ParamError)
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
    n = check_size(n_levels, "n_levels", 2, ParamError)
    if p2.shape != (2, 2):
        raise ValidationError(f"base table must be 2x2, got {p2.shape}")
    v = p2.values
    p00, p01, p10, p11 = v[0, 0], v[0, 1], v[1, 0], v[1, 1]
    if p00 >= 1.0:
        raise DegenerateError("base table is concentrated at (0, 0)")
    row0, col0 = p00 + p01, p00 + p10
    row1, col1 = p10 + p11, p01 + p11

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
    n_levels = check_size(n_levels, "n_levels", 2, ParamError)
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
    n_rows = check_size(n_rows, "n_rows", 2, ValidationError)
    n_cols = check_size(n_cols, "n_cols", 2, ValidationError)
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
