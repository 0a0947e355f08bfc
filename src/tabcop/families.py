"""Parametric copula pmf families.

Two construction routes:

* discretize a continuous copula CDF on a regular R x S mesh (rectangle
  differences keep the margins exactly uniform), or
* build a table in the odds-ratio class of a model, normalize it, and
  fit it to uniform margins by :func:`tabcop.scaling.copula_pmf` at its
  default tolerance and sweep budget.  The Binomial and Goodman models
  give a table centred on the middle cell, which has the odds ratios of
  the matrix anchored at (0, 0) but spans about the square root of its
  range, so the fit takes about a quarter of the sweeps.  The truncated
  Geometric model, and the Poisson grid of :mod:`tabcop.infinite`, give
  the log of their table, which :func:`_fit_log_seed` double-centres, so
  that the seed spans the dependence and not the margins.

Each continuous family has one array kernel that evaluates C on
broadcast arrays of arguments: a mesh is one call on its row coordinates
against its column coordinates, and :func:`copula_cdf` is the same call
at one point.  The tables of the models are built from index grids.

Both routes commute with the closed forms tabulated for the small cases,
which the test suite uses as oracles.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from tabcop import scaling
from tabcop.dependence import frechet_bounds
from tabcop.errors import (
    DegenerateError,
    DomainError,
    InfeasibleError,
    NonConvergenceError,
    ParamError,
    ValidationError,
    check_nonnegative,
    check_positive,
    check_size,
    real_as_float,
)
from tabcop.pmf_core import SUM_TOL, JointPmf, _wrap

#: Parameter names of each continuous copula family; the ``family`` CLI verb
#: takes each as a flag of the same name.
FAMILY_PARAMS = {
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
    """A continuous copula family name plus its parameters, finite reals stored as floats."""

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ParamError(
                f"unknown copula family {self.family!r}; "
                f"choose from {sorted(FAMILY_PARAMS)}"
            )
        expected = FAMILY_PARAMS[self.family]
        given = tuple(sorted(self.params))
        if given != tuple(sorted(expected)):
            raise ParamError(
                f"family {self.family!r} takes parameters {expected}, got {given}"
            )
        p = {}
        for name, value in self.params.items():
            real = not isinstance(value, bool) and isinstance(value, numbers.Real)
            p[name] = real_as_float(value, f"parameter {name}", ParamError) if real else math.nan
            if not math.isfinite(p[name]):
                raise ParamError(f"parameter {name} must be a finite real, got {value!r}")
        object.__setattr__(self, "params", p)
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
        if self.family == "student":
            check_positive(p["df"], "student df", ParamError)


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
def _special():
    """scipy's ``special``, imported on first use.

    The Student quantiles (``betainc``, ``betaincc``, ``ndtri`` and, below
    a = 30, ``betaln``) and the Gaussian lower tail (``log_ndtr``) fetch it
    on every call; from this cache that costs about a tenth of an import
    statement.
    """
    from scipy import special

    return special


@functools.cache
def _gaussian_rule():
    """The normal quantile and a 20-point Gauss-Legendre rule, built on first use.

    ``statistics.NormalDist().inv_cdf`` is Wichura's AS 241 (1988,
    Applied Statistics 37): within 7.0e-16 relative of a 40-digit root
    for u down to 1e-300.  The rule's nodes t in (-1, 1) are returned as
    1 + t, so that they and the weights integrate over (0, 2).  The
    Student copula and the Gaussian lower tail run the same rule on each
    of their panels.
    """
    import statistics

    from numpy.polynomial import legendre

    nodes, weights = legendre.leggauss(20)
    return statistics.NormalDist().inv_cdf, 1.0 + nodes, weights


#: Entries that :func:`_student_cdf` and :func:`_gaussian_lower_tail`
#: evaluate at once: each takes its integrand at up to 580 nodes of a
#: rule, so a block's arrays hold at most about 0.6 MB each, however large
#: the mesh.
_RULE_BLOCK = 128


def _frechet_lower(u, v) -> np.ndarray:
    """The lower Frechet bound max(0, u + v - 1) on broadcast arrays, rounded once.

    Taken as min(u, v) - (1 - max(u, v)) where u + v > 1: there
    max(u, v) > 1/2, so 1 - max(u, v) is exact and only the difference
    rounds, where u + v - 1 rounds the sum first (5.3e-11 relative off at
    (2.0119206680706893e-06, 0.9999999999902628)).
    """
    return np.where(u + v > 1.0, np.minimum(u, v) - (1.0 - np.maximum(u, v)), 0.0)


def _gaussian_cdf(u, v, rho: float) -> np.ndarray:
    """Gaussian copula C(u, v) on broadcast arrays: P(Z1 <= x, Z2 <= y) at normal quantiles.

    Genz's two forms (2004, Statistics and Computing 14, his BVND) of the
    Drezner and Wesolowsky (1990) correlation integral, each on one
    20-point Gauss-Legendre rule from :func:`_gaussian_rule`:

    * |rho| < 0.925: C = u v + asin(rho) / 4pi sum_i w_i f(sin(asin(rho) t_i / 2)),
      f(q) = exp((q x y - (x^2 + y^2) / 2) / (1 - q^2)), t_i in (0, 2);
    * |rho| >= 0.925: C = B - s (series + integral) / 2pi, s = sign(rho),
      where B is the Frechet bound min(u, v) (rho > 0) or max(0, u + v - 1)
      (rho < 0), and Genz's series and integral in r = sqrt((1 - rho)(1 + rho)),
      x y s and (s y - x)^2 carry the rest; the series holds the one
      Phi(-|s y - x| / r), from ``math.erfc``, and drops that term where
      s x y <= -100, where it is below exp(-150).

    u v and B are taken from the arguments, not from Phi at the
    quantiles, so C(u, v) and u + v - 1 + C(1 - u, 1 - v) agree to
    rounding.  Against the 40-digit correlation integral C is within
    about 1e-16 absolute for |rho| up to 1 - 1e-15.  The bound is
    absolute, so an entry whose C falls below ``_GAUSSIAN_LOWER_TAIL``
    (about 1e-6), where 1e-16 absolute is worse than 1e-10 relative, is
    taken instead from :func:`_gaussian_lower_tail`, whose terms are all
    nonnegative, ``_RULE_BLOCK`` tail entries at a time.  The quantiles
    are taken once per entry of ``u`` and of ``v``, so once per row and
    per column of a mesh; the rule runs on all entries at once, its nodes
    on a trailing axis, so that each entry's sum takes the same order in a
    mesh as at one point.
    """
    inv_cdf, nodes, weights = _gaussian_rule()
    x, y = (np.array([inv_cdf(p) for p in np.ravel(w).tolist()]).reshape(np.shape(w))
            for w in (u, v))
    xy = x * y
    r2 = (1.0 - rho) * (1.0 + rho)
    r, s = math.sqrt(r2), 1.0 if rho >= 0.0 else -1.0
    if abs(rho) < 0.925:
        half = 0.5 * math.asin(rho)
        q = np.sin(half * nodes)
        f = np.exp((xy[..., None] * q - 0.5 * (x * x + y * y)[..., None]) / (1.0 - q * q))
        cdf = u * v + half / (2.0 * math.pi) * (f * weights).sum(axis=-1)
    else:
        hk, bs = (s * xy)[..., None], ((s * y - x) ** 2)[..., None]  # against the nodes
        c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 16.0
        b = np.sqrt(bs)
        erfc = np.frompyfunc(math.erfc, 1, 1)(b / (r * math.sqrt(2.0)))  # 2 Phi(-b / r)
        with np.errstate(over="ignore", invalid="ignore"):  # hk <= -100, dropped
            series = (r * np.exp(-0.5 * (bs / r2 + hk))
                      * (1.0 - c * (bs - r2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * r2 * r2 / 5.0)
                      - np.where(hk > -100.0, np.exp(-0.5 * hk) * math.sqrt(0.5 * math.pi)
                                 * np.asarray(erfc, float) * b
                                 * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0), 0.0))
        xs = (0.5 * r * nodes) ** 2
        rs = np.sqrt(1.0 - xs)
        e = -0.5 * bs / xs
        f = (np.exp(e - hk / (1.0 + rs)) / rs
             - np.exp(e - 0.5 * hk) * (1.0 + c * xs * (1.0 + d * xs)))
        value = series[..., 0] + 0.5 * r * (f * weights).sum(axis=-1)
        bound = np.minimum(u, v) if s > 0.0 else _frechet_lower(u, v)
        cdf = bound - s * value / (2.0 * math.pi)
    cdf = np.asarray(cdf)  # scalar arguments give a scalar, which takes no item assignment
    tail = np.flatnonzero(cdf < _GAUSSIAN_LOWER_TAIL)
    for i in range(0, tail.size, _RULE_BLOCK):
        block = tail[i:i + _RULE_BLOCK]
        xb, yb = (np.broadcast_to(w, cdf.shape).flat[block] for w in (x, y))
        cdf.flat[block] = _gaussian_lower_tail(xb, yb, rho, r, s)
    return cdf


#: Below this C, the correlation integral, accurate to about 1e-16
#: absolute, is worse than 1e-10 relative, and the Gaussian copula takes
#: its lower tail.  Mesh nodes of up to 15 x 15 cells at |rho| <= 0.66
#: stay above it.
_GAUSSIAN_LOWER_TAIL = 2.0**-20

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: log of the least positive double: a C whose log is below it is 0.0.
_LOG_DBL_TRUE_MIN = math.log(math.ulp(0.0))

#: log of the least normal double.
_LOG_DBL_MIN = math.log(sys.float_info.min)


#: Panel edges of :func:`_gaussian_lower_tail`'s rule in x = scale t.
_TAIL_EDGES = np.array([0.0, *2.0 ** np.arange(-2.0, 7.0), 80.0])


def _gaussian_lower_tail(a, b, rho: float, r: float, s: float) -> np.ndarray:
    """P(Z1 <= a, Z2 <= b) on 1-d arrays, as the conditional integral, to about 1e-13 relative.

    With h = min(a, b), k = max(a, b) and Z2 given Z1 = x normal with mean
    rho x and deviation r,

        C = int_{-inf}^h phi(x) Phi((k - rho x) / r) dx
          = phi(h) Phi(z0) int_0^inf exp(L(t)) dt,    z0 = (k - rho h) / r,
        L(t) = h t - t^2 / 2 + log Phi(z0 + m t) - log Phi(z0),    m = rho / r,

    after x = h - t.  Every term is nonnegative and exp(L(0)) = 1, so the
    integral keeps its relative accuracy however small C is, and C, formed
    from logarithms, underflows only where its value does.  L is concave,
    with L'(0) = h + m phi(z0) / Phi(z0) and -L'' at most 1 + m^2.  For
    |m| <= 1 the integral runs in x = lam t, lam = |L'(0)| + sqrt(1 + m^2),
    in which the integrand's slope at 0 and its curvature are at most 1.
    Near rho = +-1, m is of order 1 / r and the integrand has two scales:
    Phi(z0 + m t) moves over about 1 / |m|, but past t8, where
    z0 + m t = 8 (m > 0), or before it (m < 0), Phi is within 6.2e-16 of 1,
    -L'' is about 1, and the integrand decays over about 1 / max(1, |h - t|).
    So for |m| > 1 the integral is split at t8, and each piece runs from
    its own start in the scale of its own slope and curvature bound; the
    piece past t8 starts at z8 = z0 + m t8, so that z0 + m t does not
    cancel there.  One piece in one scale resolves neither: adaptive
    quadrature over it missed by 7.4e-6 at (1.8e-13, 0.16) with
    rho = 1 - 2e-12, and took the log of a zero integral at (1.6e-7, 0.89)
    with rho = 1 - 2e-14.  For |m| <= 1 the scales are alike, and one
    piece serves.

    Each piece runs on the 20-point rule of :func:`_gaussian_rule` on
    fixed panels in x with edges 0, 1/4, 1/2, 1, 2, ..., 64 and 80
    (``_TAIL_EDGES``), cut at the piece's end.  In x the integrand's slope
    at 0 and its curvature are at most 1, so the panels are short where it
    is largest and widen as it falls off.  For m < 0, Phi(z + m t) cuts the
    integrand off about t_c = -z / m, z the piece's start, over about
    1 / |m| of t, near rho = -1 far less than the integrand's decay (at
    (9.5e-8, 1 - 2.2e-13) with rho = -(1 - 8.1e-15) it falls from 1 to 0
    within 1e-6 of t_c).  In x that drop is w = scale / |m| > 1 wide and
    sits z w from 0.  For |m| > 1, z is at most 8 on the piece past t8, so
    the drop lies on panels at most 8 of its widths wide and needs no edges
    of its own: on random points with rho < 0 and v near 1 - u, edges at
    1/2 to 8 units of 1 / max(1, |m|) about t_c moved no entry by more than
    7.2e-15 relative.  Against the same rule with 40 nodes per panel, or
    with edges out to 160, entries of random scans moved by no more than
    rounding the log of C leaves (7.2e-15 above C = 1e-27).  The rule runs
    on all entries at once, its nodes on a trailing axis, so that each
    entry's sum takes the same order in a mesh as at one point.

    z0 takes the numerator as (k - s h) + (s - rho) h, s = sign(rho), where
    s - rho is exact: at (0.3, 0.7), where k = -h, the direct k - rho h
    cancels near rho = -1.  For rho <= 0, C <= Phi(h) Phi(z0), and where
    that bound is below the doubles C is 0 and no integral is run, which
    also keeps z0, and so phi(z0) / Phi(z0) in the scale, finite wherever
    one runs: z0 is then above about -39.
    """
    special = _special()
    _, nodes, weights = _gaussian_rule()
    h, k = np.minimum(a, b), np.maximum(a, b)
    z0 = ((k - s * h) + (s - rho) * h) / r
    m = rho / r
    log_z0 = special.log_ndtr(z0)
    cdf = np.zeros(h.shape)
    live = (rho > 0.0) | (log_z0 + special.log_ndtr(h) >= _LOG_DBL_TRUE_MIN)
    h, z0, log_z0 = h[live], z0[live], log_z0[live]

    def integral(g, z, width, curvature):
        """int_0^width exp(g t - t^2 / 2 + log Phi(z + m t) - log Phi(z)) dt on arrays.

        It runs in x = scale t, scale = |g + m phi(z) / Phi(z)| (the
        integrand's slope at 0) + ``curvature`` (a bound on its -L'').
        """
        log_z = special.log_ndtr(z)
        scale = np.abs(g + m * np.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_z)) + curvature
        edges = np.minimum(_TAIL_EDGES, (scale * width)[:, None])
        half = 0.5 * np.diff(edges)[..., None]  # entries, panels, nodes
        t = (edges[:, :-1, None] + half * nodes) / scale[:, None, None]
        g, z, log_z = (w[:, None, None] for w in (g, z, log_z))
        f = np.exp(g * t - 0.5 * t * t + special.log_ndtr(z + m * t) - log_z)
        return (f * half * weights).sum(axis=-1).sum(axis=-1) / scale

    wide = math.sqrt(1.0 + m * m)
    if abs(m) <= 1.0:
        total = integral(h, z0, math.inf, wide)
    else:
        t8 = np.maximum(0.0, (8.0 - z0) / m)
        z8 = z0 + m * t8
        near, far = (wide, 1.0) if m > 0.0 else (1.0, wide)
        total = np.exp(h * t8 - 0.5 * t8 * t8 + special.log_ndtr(z8) - log_z0) * integral(
            h - t8, z8, math.inf, far)
        split = t8 > 0.0
        total[split] += integral(h[split], z0[split], t8[split], near)
    cdf[live] = np.exp(log_z0 - 0.5 * h * h - _LOG_SQRT_2PI + np.log(total))
    return cdf


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2).

    scipy's ``betaln`` is within 6e-16 of the 40-digit value below a = 30,
    but loses up to 9e-10 from about a = 170 to 1e6.  From a = 30 on this
    takes log B = log(pi / a) / 2 - (lgamma(a + 1/2) - lgamma(a) - log(a) / 2)
    from the asymptotic series of the bracket in 1/a, to its 1/a^7 term:
    within 1.3e-15 of the 40-digit value up to a = 1e12.
    """
    if a < 30.0:
        return float(_special().betaln(a, 0.5))
    t = 1.0 / a
    t2 = t * t
    return 0.5 * math.log(math.pi * t) + t * (
        1.0 / 8.0 - t2 * (1.0 / 192.0 - t2 * (1.0 / 640.0 - t2 * 17.0 / 14336.0)))


#: Terms of the series for F in :func:`_student_quantile`: where z <= 1/2
#: the k-th is at most 2^-k of the first, so that the rest is below 1e-18.
_STUDENT_SERIES_TERMS = 60

#: Newton steps :func:`_student_quantile` takes at most: twice the most
#: that random scans needed.  An entry whose F keeps few digits (a
#: subnormal min(u, 1 - u) at a large df) stops here.
_STUDENT_STEPS = 12


def _student_quantile(df: float, u):
    """Sign and log|x| of the t quantiles x of the entries of the 1-d array ``u``.

    x < 0 below the median and x > 0 above it, and u = 1/2 gives x = 0 with
    log|x| = -inf; log|x| is finite wherever x passes the doubles.  With
    a = df/2, s = log|x|, z = df / (df + x^2) and w = x^2 / (df + x^2),
    both taken from r = e^(2s) / df so that neither rounds next to 1,

        F = I_z(a, 1/2) / 2,    G = 1/2 - F = I_w(1/2, a) / 2

    are the t mass below -|x| and between -|x| and 0.  Newton steps in s
    solve log F = log min(u, 1 - u) where min(u, 1 - u) < 1/16, and
    log G = log |u - 1/2| nearer the median, where F - 1/2 would keep few
    digits of G; |u - 1/2| is exact from min(u, 1 - u) = 1/4 on and within
    half an ulp of 1/2 below.  F is the series (DLMF 8.17.8)

        I_z(a, b) = z^a (1 - z)^b / (a B(a, b)) sum_k (a + b)_k / (a + 1)_k z^k

    in logs where x^2 > df (z < 1/2), so that it does not underflow however
    far out x is, and ``betaincc(1/2, a, w)`` nearer in.  G is
    ``betainc(1/2, a, w)`` where x^2 <= df and ``betaincc(a, 1/2, z)``
    beyond; where z is below the normal doubles (x^2 past 1e308 df, at df
    below about 0.002 only) the step takes F's form instead.  The band
    edge is 1/16 and not 1/4 because ``betaincc`` costs about five times
    ``betainc``: it leaves the nodes of a 15 x 15 mesh at df = 4 to
    ``betainc``.  The slopes are d log F / ds = -x f / F and
    d log G / ds = x f / G, with the t density f = f(0) z^(a + 1/2) in logs.

    The steps start at the larger of x = |u - 1/2| / f(0), left of the root
    since f is largest at 0, and one of two approximations.  Where Hill's
    leading term (1970, CACM 13, Algorithm 396), s = (log df) / 2 +
    (log c - log min(u, 1 - u)) / df with c = 1 / (df B(a, 1/2)), puts x^2
    past e^2 df, it is that term, which lies right of the root, since
    F < c (df / x^2)^a everywhere, and misses it by about z / 2 in s.
    Elsewhere it is the normal quantile with its first Cornish-Fisher term,
    close at a large df.  From these starts the steps took at most 6 on
    random df in [1e-4, 1e8] and u in (0, 1), subnormal u aside
    (``_STUDENT_STEPS``).  Each entry stops on its own, once a step is
    below 1e-9 max(1, |s|), so that a mesh node and a single point take
    the same steps; Newton's quadratic convergence leaves the last step's
    square.

    The backward error |F(x) - u| / min(u, 1 - u) at the returned s, in 40
    digits, is within 1e-13 plus what rounding leaves: one ulp of s, which
    F's elasticity x f / F carries into F (it grows like x^2 at a large
    df: at df = 5.8e5, u = 2.5e-279 the best double s misses by 2.3e-13),
    and two ulps of log min(u, 1 - u), at which log F rounds.  A subnormal
    min(u, 1 - u) keeps few digits of F where it comes from ``betaincc``
    (df past about 1500).
    """
    special = _special()
    a = 0.5 * df
    log_df = math.log(df)
    log_f0 = -0.5 * log_df - _log_beta_half(a)  # f(0) = 1 / (sqrt(df) B(a, 1/2))
    log_c = log_f0 - 0.5 * log_df
    tail = np.minimum(u, 1.0 - u)
    centre = tail >= 0.0625
    with np.errstate(divide="ignore"):  # u = 1/2
        log_tail, log_half = np.log(tail), np.log(np.abs(u - 0.5))
        z = special.ndtri(tail)
        normal = np.log(-z * (1.0 + (z * z + 1.0) / (4.0 * df)))
    hill = 0.5 * log_df + (log_c - log_tail) / df
    s = np.maximum(log_half - log_f0, np.where(hill > 0.5 * log_df + 1.0, hill, normal))
    s[u == 0.5] = -np.inf
    k = np.arange(_STUDENT_SERIES_TERMS - 1.0)
    ratios = (a + 0.5 + k) / (a + 1.0 + k)
    todo = np.flatnonzero(u != 0.5)
    for _step in range(_STUDENT_STEPS):
        if not todo.size:
            break
        st = s[todo]
        with np.errstate(over="ignore"):
            r = np.exp(2.0 * st) / df  # x^2 / df
        log_z = np.where(r < np.inf, -np.log1p(r), log_df - 2.0 * st)
        near = r <= 1.0
        by_g = centre[todo] & (near | (log_z >= _LOG_DBL_MIN))
        near_g, near_f, far_g = near & by_g, near & ~by_g, by_g & ~near
        twice = np.zeros(st.shape)  # 2F or 2G; the series' entries are set in logs below
        twice[near_g] = special.betainc(0.5, a, r[near_g] / (1.0 + r[near_g]))
        if near_f.any():  # betaincc costs about 2.5 us an entry, betainc 0.5
            twice[near_f] = special.betaincc(0.5, a, r[near_f] / (1.0 + r[near_f]))
        if far_g.any():
            twice[far_g] = special.betaincc(a, 0.5, np.exp(log_z[far_g]))
        log_v = np.log(np.maximum(0.5 * twice, math.ulp(0.0)))  # a subnormal F can round to 0
        series = ~(near | by_g)
        if series.any():
            lz = log_z[series]
            terms = np.cumprod(ratios * np.exp(lz)[:, None], axis=1)
            log_v[series] = (log_c + a * lz - 0.5 * np.log1p(1.0 / r[series])
                             + np.log1p(terms.sum(axis=1)))
        slope = np.exp(st + log_f0 + (a + 0.5) * log_z - log_v)
        delta = (log_v - np.where(by_g, log_half[todo], log_tail[todo])) / np.where(
            by_g, slope, -slope)
        s[todo] = st - delta
        todo = todo[np.abs(delta) > 1e-9 * np.maximum(1.0, np.abs(st))]
    return np.sign(u - 0.5), s


@functools.lru_cache(maxsize=64)
def _student_rule(rho: float):
    """sin^2(phi), 1 + cos(phi) and the weights of :func:`_student_cdf`'s rule at ``rho``.

    The 20-point Gauss-Legendre rule of :func:`_gaussian_rule` on each of
    29 geometric panels of [0, L], L = |sign(rho) pi/2 - asin(rho)|:
    [L 4^-(k+1), L 4^-k] for k = 0..27 and [0, L 4^-28].  The arrays are
    built once per rho, which a single point would otherwise spend about
    a fifth of its time on, and are read-only, since every caller shares
    them.
    """
    _, nodes, weights = _gaussian_rule()
    s = 1.0 if rho >= 0.0 else -1.0
    edges = abs(s * math.pi / 2.0 - math.asin(rho)) * 4.0 ** -np.arange(29.0)
    lower = np.append(edges[1:], 0.0)
    half = 0.5 * (edges - lower)[:, None]
    phi = (lower[:, None] + half * nodes).ravel()
    rule = np.sin(phi) ** 2, 1.0 + np.cos(phi), (half * weights).ravel()
    for a in rule:
        a.flags.writeable = False
    return rule


def _student_cdf(u, v, rho: float, df: float) -> np.ndarray:
    """Student copula C(u, v) on broadcast arrays: P(T1 <= x, T2 <= y) at t quantiles.

    The correlation integral, the Student form of the Gaussian one (Genz
    2004, Statistics and Computing 14).  With T = Z / sqrt(W / df),
    W ~ chi^2_df, averaging the normal identity dPhi2/drho = phi2 over W
    gives

        dT2/drho = (1 + Q/df)^(-df/2) / (2 pi sqrt(1 - rho^2)),
        Q = (x^2 - 2 rho x y + y^2) / (1 - rho^2).

    For rho >= 0 the integral runs down from rho = 1, where T2 is the
    upper Frechet bound min(u, v); for rho < 0 it runs up from rho = -1,
    where T2 is the lower bound max(0, u + v - 1).  Both are taken from u
    and v themselves, not from the t CDF at their quantiles, so the
    radial pair C(u, v) and u + v - 1 + C(1 - u, 1 - v) share one
    integral.  The substitution rho = sin(theta) removes the
    1/sqrt(1 - rho^2) endpoint singularity, and the integral runs in phi,
    the distance of theta from the endpoint s pi/2, s = sign(rho), over
    [0, L], L = |s pi/2 - asin(rho)|.  There

        Q = (x - s y)^2 / sin^2(phi) + 2 s x y / (1 + cos(phi)),

    for both signs, a form that does not cancel at the endpoint: phi is at
    most pi/2, and (x - s y)^2 >= -4 s x y wherever s x y < 0.

    The rule, from :func:`_student_rule`, is the 20-point Gauss-Legendre
    rule of :func:`_gaussian_rule` on 29 geometric panels,
    [L 4^-(k+1), L 4^-k] for k = 0..27 and [0, L 4^-28].  Where the
    quantiles nearly meet (|x - s y| small), the kernel dips to 0 within
    about |x - s y| / max(1, |x|, |y|) of the endpoint and behaves like
    phi^df below that.  A rule on even panels steps over the dip, and so
    did ``quad`` with breakpoints of its own at (0.758180144, 0.758181016),
    rho = 0.039, df = 0.079 (4.4e-7 off).  One panel per factor of 4 in
    phi puts the dip, at whatever width, on a panel about as wide as
    itself, so no entry needs breakpoints of its own; the last panel
    holds at most L 4^-28 (under 1e-17) of the integral.  Against the
    same rule with 40 nodes per panel, or with 58 panels of ratio 2,
    entries moved by at most 2.2e-16 on meshes and random points, and
    against the 40-digit integral at the same quantiles by at most
    1.1e-16, near-meeting quantiles at df down to 0.03 included.  That is
    an absolute bound.  Where C is far below min(u, v) (rho >= 0) the
    difference min(u, v) - integral cancels; and deep in the tail at a
    large df the kernel can fall off within about 2e-3 L of phi = L, on
    the widest panel: at (1.24e-163, 0.467), rho = -0.756, df = 937, C
    reads 6.1e-278 against 7.0e-278.

    The kernel is taken in logs, once for every quantile size.  The
    quantiles come from :func:`_student_quantile` as signs and log|x|, so
    log m, m = max(1, |x|, |y|), and the ratios x / m and y / m are taken
    without forming x or y, and Q_m = Q / m^2 is a finite double whatever
    the quantiles, past the doubles included:

        log(1 + Q/df) = softplus(log Q_m + 2 log m - log df),

    softplus(z) = max(z, 0) + log1p(e^-|z|), and the kernel is
    exp(-df/2 softplus(...)).  A large df does not round the kernel to 1,
    and no quantile overflows Q.  An integral below the normal doubles is
    dropped, as a value that small keeps too few bits to add.

    The quantiles are taken once per entry of ``u`` and of ``v``, so once
    per row and per column of a mesh, in one call.  The rule runs on
    ``_RULE_BLOCK`` entries at a time, its nodes on a trailing axis, so
    that each entry's sum takes the same order in a mesh as at one point.
    """
    n = np.size(u)
    signs, logs = _student_quantile(df, np.concatenate((np.ravel(u), np.ravel(v))))
    log_x, log_y = logs[:n].reshape(np.shape(u)), logs[n:].reshape(np.shape(v))
    log_m = np.maximum(np.maximum(log_x, log_y), 0.0)
    xm = signs[:n].reshape(np.shape(u)) * np.exp(log_x - log_m)
    ym = signs[n:].reshape(np.shape(v)) * np.exp(log_y - log_m)
    s = 1.0 if rho >= 0.0 else -1.0
    sin2, opc, w = _student_rule(rho)
    d2, xy2 = ((xm - s * ym) ** 2).ravel(), (2.0 * s * xm * ym).ravel()
    shift = (2.0 * log_m - math.log(df)).ravel()
    value = np.empty(d2.shape)
    with np.errstate(divide="ignore"):  # Q = 0
        for i in range(0, value.size, _RULE_BLOCK):
            b = slice(i, i + _RULE_BLOCK)
            z = np.log(d2[b, None] / sin2 + xy2[b, None] / opc) + shift[b, None]
            softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
            value[b] = (np.exp(-0.5 * df * softplus) * w).sum(axis=-1)
    value = value.reshape(log_m.shape)
    value = np.where(value >= sys.float_info.min, value, 0.0)
    base = np.minimum(u, v) if s > 0.0 else _frechet_lower(u, v)
    return base - s * value / (2.0 * math.pi)


def _log1mexp(x):
    """log(1 - e^-x) for x > 0."""
    return np.log(-np.expm1(-x))


def _frank_cdf(u, v, th: float) -> np.ndarray:
    """Frank copula CDF -log1p(r) / th, r = expm1(-th u) expm1(-th v) / expm1(-th).

    The direct form is accurate to rounding while r is finite, its
    factors and their product are normal doubles and, for theta > 0,
    1 + r stays away from 0.  Where theta u or theta v is tiny (theta =
    1e-8 at u = 1e-300), a factor or the product is subnormal, or
    underflows to 0, and keeps too few bits; then, with x = -th u and
    y = -th v, the same C is taken as

        u v (expm1(x) / x) (expm1(y) / y) (-th / expm1(-th)) (log1p(r) / r),

    a product of normal factors, the ratios read as 1 at x, y or r = 0.
    Elsewhere (from theta = 50 at (0.99, 0.99) on, and anywhere past
    |theta| of about 700) r overflows or 1 + r cancels, and the logarithm
    is taken in log space with the dominant exponential factored out.
    For theta > 0,
    1 + r = (e^(-th u) (1 - e^(-th (1 - u))) + e^(-th v) (1 - e^(-th u)))
    / (1 - e^-th), a sum of positive terms; for theta < 0, r is a product
    of positive factors.  All three forms are evaluated on every entry
    and each entry takes the one that holds there.
    """
    try:
        d = math.expm1(-th)
    except OverflowError:
        d = math.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, b = np.expm1(-th * u), np.expm1(-th * v)
        r = np.where(np.isinf(a) | np.isinf(b) | math.isinf(d), np.inf, a * b / d)
        direct = -np.log1p(r) / th
        tiny = np.minimum(np.minimum(np.abs(a), np.abs(b)),
                          np.minimum(np.abs(a * b), np.abs(r))) < sys.float_info.min
        x, y = -th * u, -th * v
        ratios = (np.where(x != 0.0, a / x, 1.0) * np.where(y != 0.0, b / y, 1.0)
                  * np.where(r != 0.0, np.log1p(r) / r, 1.0))
        small = -th / d * ratios * v * u
        if th > 0.0:
            kept = r > -0.5
            la = -th * u + _log1mexp(th * (1.0 - u))
            lb = -th * v + _log1mexp(th * u)
            log_sum = np.maximum(la, lb) + np.log1p(np.exp(-np.abs(la - lb)))
            far = (_log1mexp(th) - log_sum) / th
        else:
            kept = r < np.inf
            phi = -th
            log_r = (phi * (u + v - 1.0) + _log1mexp(phi * u) + _log1mexp(phi * v)
                     - _log1mexp(phi))
            far = (np.maximum(log_r, 0.0) + np.log1p(np.exp(-np.abs(log_r)))) / phi
    return np.where(kept, np.where(tiny, small, direct), far)


def _clayton_cdf(u, v, th: float) -> np.ndarray:
    """Clayton copula CDF (u^-th + v^-th - 1)^(-1/th), or 0 where the base is <= 0.

    Where a power or their sum passes 1e308 (theta > 0) the larger of
    a = -th log u and b = -th log v is factored out:
    C = exp(-(m + log1p(e^-|a - b| - e^-m)) / th), m = max(a, b).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        base = u ** (-th) + v ** (-th) - 1.0
        direct = np.where(base <= 0.0, 0.0, base ** (-1.0 / th))
        a, b = -th * np.log(u), -th * np.log(v)
        m = np.maximum(a, b)
        far = np.exp(-(m + np.log1p(np.exp(-np.abs(a - b)) - np.exp(-m))) / th)
    return np.where(base < np.inf, direct, far)


def _gumbel_cdf(u, v, th: float) -> np.ndarray:
    """Gumbel copula CDF exp(-(a^th + b^th)^(1/th)), a = -log u, b = -log v.

    The larger of a and b is factored out, so no power of a value above
    1 overflows at large theta.
    """
    a, b = -np.log(u), -np.log(v)
    m = np.maximum(a, b)
    return np.exp(-m * np.exp(np.log1p((np.minimum(a, b) / m) ** th) / th))


def _interior_cdf(spec: ContinuousCopulaSpec, u, v) -> np.ndarray:
    """C(u, v) of ``spec`` on broadcast arrays with entries in (0, 1).

    One array kernel per family; every value is clamped to the Frechet
    bounds max(0, u + v - 1) <= C <= min(u, v), which rounding and
    quadrature error of order 1e-16 would otherwise cross at small
    arguments.
    """
    p = spec.params
    if spec.family == "independence":
        c = u * v
    elif spec.family == "fgm":
        c = u * v * (1.0 + p["theta"] * (1.0 - u) * (1.0 - v))
    elif spec.family == "clayton":
        c = _clayton_cdf(u, v, p["theta"])
    elif spec.family == "gumbel":
        c = _gumbel_cdf(u, v, p["theta"])
    elif spec.family == "frank":
        c = _frank_cdf(u, v, p["theta"])
    elif spec.family == "gaussian":
        c = _gaussian_cdf(u, v, p["rho"])
    else:
        c = _student_cdf(u, v, p["rho"], p["df"])
    lower = _frechet_lower(u, v)
    upper = np.minimum(u, v)
    c = np.where(c < lower, lower, c)
    return np.where(c > upper, upper, c)


def copula_cdf(spec: ContinuousCopulaSpec, u: float, v: float) -> float:
    """Evaluate the copula CDF C(u, v) of the given family.

    Grounded and margin-exact by construction: C(u, 0) = C(0, v) = 0,
    C(u, 1) = u, C(1, v) = v.  Inside the square this is the family's
    array kernel at one point, the same one :func:`discretize_copula`
    runs on a whole mesh, so a mesh node and this value agree exactly.
    The Gaussian family is Genz's correlation integral on one 20-point
    Gauss-Legendre rule, to about 1e-16 absolute, and below about 1e-6 a
    conditional integral of nonnegative terms, to about 1e-13 relative,
    less where a quantile x is large: its 7e-16 relative error costs
    about x^2 7e-16, 5e-13 at u = 1e-270.  The Student family is its
    correlation integral on one fixed Gauss-Legendre rule on geometric
    panels, within about 1.1e-16 absolute of the 40-digit integral at the
    same t quantiles, which are solved in logs to a backward error of
    about 1e-13 relative or less.  Both subtract their integrals from
    terms taken from u and v, so C(u, v) and
    u + v - 1 + C(1 - u, 1 - v) agree to rounding.  Every family is
    clamped to the Frechet bounds max(0, u + v - 1) <= C <= min(u, v).
    """
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise DomainError(f"copula arguments must lie in [0, 1], got ({u!r}, {v!r})")
    if u == 0.0 or v == 0.0:
        return 0.0
    if u == 1.0:
        return v
    if v == 1.0:
        return u
    # one-entry arrays, not scalars: NumPy's scalar operators take other
    # code paths than its array loops, and a mesh runs the array loops
    return float(_interior_cdf(spec, np.array([float(u)]), np.array([float(v)]))[0])


def _cdf_mesh(spec: ContinuousCopulaSpec, n_rows: int, n_cols: int) -> np.ndarray:
    """C at every node (i/R, j/S) of the mesh, in one kernel call for the interior."""
    u = np.arange(n_rows + 1) / n_rows
    v = np.arange(n_cols + 1) / n_cols
    nodes = np.zeros((n_rows + 1, n_cols + 1))
    nodes[1:, n_cols] = u[1:]
    nodes[n_rows, 1:] = v[1:]
    nodes[1:n_rows, 1:n_cols] = _interior_cdf(spec, u[1:n_rows, None], v[None, 1:n_cols])
    return nodes


def discretize_copula(spec: ContinuousCopulaSpec, n_rows: int, n_cols: int) -> JointPmf:
    """Copula pmf from rectangle differences of ``C`` on a regular mesh.

    Cell (u, v) receives the C-mass of the rectangle
    [u/R, (u+1)/R] x [v/S, (v+1)/S].  The interior nodes are one call of
    the family's array kernel on the row coordinates against the column
    coordinates, so per-argument work (the normal and t quantiles) runs
    once per row and per column; each node equals ``copula_cdf`` there.
    Each node is evaluated once, so the row and column sums telescope to
    the exact uniform margins up to rounding, independent of any
    quadrature error in the interior nodes.
    """
    n_rows = check_size(n_rows, "n_rows", 2, ValidationError)
    n_cols = check_size(n_cols, "n_cols", 2, ValidationError)
    nodes = _cdf_mesh(spec, n_rows, n_cols)
    strips = nodes[1:] - nodes[:-1]
    cells = strips[:, 1:] - strips[:, :-1]
    # clip what rounding, and the elliptical CDFs' error of about 1e-16
    # absolute, take below 0; rows and columns telescope to 1/R and 1/S,
    # so a unit total (which shows every cell finite) is every check
    np.maximum(cells, 0.0, out=cells)
    if abs(cells.sum() - 1.0) <= SUM_TOL:
        return _wrap(JointPmf, values=cells)
    return JointPmf(cells)


def fgm_pmf(theta: float, n_rows: int, n_cols: int) -> JointPmf:
    """Closed-form discrete Farlie-Gumbel-Morgenstern copula pmf.

    p[u, v] = (1/(R*S)) * (1 + theta*(1 - (2u+1)/R)*(1 - (2v+1)/S)); equals
    the mesh discretization of the continuous FGM copula, and reduces to
    the uniform table at theta = 0.
    """
    theta = ContinuousCopulaSpec("fgm", {"theta": theta}).params["theta"]
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


#: Largest n of an interior ``binomial_copula``: every C(n, j) is below
#: 2^n, so every factor of the table is a finite double up to n = 1023.
_BINOMIAL_MAX_N = 1023


def _binomial_dependence(n: int, omega: float) -> np.ndarray:
    """D[x, y] = omega^(-(x+y)/2) E[omega^K], K ~ Hypergeometric(n, x, y), for omega > 1.

    E[omega^K] is the odds-ratio entry of cell (x, y) against the anchor
    (0, 0), so D is in the odds-ratio class of the common-shock Binomial;
    up to a constant it is the dependence ratio P(x, y) / (P(x) P(y)) of
    the bivariate binomial with base margins 1/2.  Writing
    1 + omega z = (1 + z) + (omega - 1) z in the generating function
    (1 + omega z)^x (1 + z)^(n-x) gives E = sum_j C(x, j) C(y, j)
    (omega - 1)^j / C(n, j), so with G[j, x] = C(x, j) omega^(-(x-j)/2),

        D[x, y] = sum_j a^j / C(n, j) G[j, x] G[j, y],    a = 1 - 1/omega,

    one product of two matrices of nonnegative terms, each at most
    C(x, j).  D lies in [omega^(-n/2), 1], and each cell keeps its
    relative accuracy.  The product goes through ``einsum``, which never
    calls the threaded BLAS.
    """
    i, k = np.arange(n + 1), np.arange(n + 1.0)
    half = omega ** (-0.5 * k)  # omega^(-k/2)
    gap = i - i[:, None]  # gap[j, x] = x - j
    comb = np.empty((n + 1, n + 1))  # comb[j, x] = C(x, j), 0 for j > x
    comb[0] = 1.0
    np.cumprod(np.maximum(gap[:-1], 0) / k[1:, None], axis=0, out=comb[1:])
    # half[|x - j|] is finite, so where j > x the product is comb's 0
    g = comb * half[np.abs(gap)]
    weights = ((omega - 1.0) / omega) ** k / comb[:, n]
    return np.einsum("jx,jy->xy", weights[:, None] * g, g)


def _normal_seed(table, message):
    """``table`` normalized and wrapped as a seed to fit.

    Raises ParamError with ``message`` where a cell of the normalized
    table is not a normal double (also NaN, as from inf / inf).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf / inf, rejected below
        seed = table / table.sum()
    if not seed.min() >= sys.float_info.min:
        raise ParamError(message)
    return _wrap(JointPmf, values=seed)


def _binomial_seed(n: int, omega: float) -> JointPmf:
    """The normalized :func:`_binomial_dependence` table, for 0 < omega < inf.

    omega < 1 takes the table of 1/omega with its columns reversed: with
    Y -> n - Y the shared count K becomes x - K, so D(omega) is D(1/omega)
    reversed up to a constant.  Raises ParamError where n passes
    ``_BINOMIAL_MAX_N``, before anything is built, and where a cell of the
    normalized table is not a normal double.
    """
    if n > _BINOMIAL_MAX_N:
        raise ParamError(
            f"binomial n={n} exceeds {_BINOMIAL_MAX_N}: its binomial coefficients "
            "pass the doubles"
        )
    if omega > 1.0:
        table = _binomial_dependence(n, omega)
    else:
        table = _binomial_dependence(n, 1.0 / omega)[:, ::-1]
    return _normal_seed(table, f"omega={omega} over- or underflows for n={n}: "
                               "the binomial table spans more than the doubles")


def binomial_copula(n: int, omega: float) -> JointPmf:
    """(n+1) x (n+1) copula pmf of the common-shock bivariate Binomial.

    One-parameter family: the odds-ratio matrix depends on the base 2x2
    table only through its odds ratio.  The table
    omega^(-(x+y)/2) E[omega^K], K ~ Hypergeometric(n, x, y), built as one
    matrix product (:func:`_binomial_dependence`), is normalized and fitted
    to uniform margins.  It differs from the odds-ratio matrix anchored at
    (0, 0) only by row and column factors, so the fit lands on the same
    copula; centred, its cells span a factor omega^(n/2) where the
    anchored ones span omega^n, and the fit takes about a quarter of the
    sweeps.  The endpoints omega = 0 and omega = inf are the anti-diagonal
    and diagonal Frechet tables, and omega = 1 the uniform table.
    Otherwise n may be at most 1023, and every cell of the normalized
    table must be a normal double (at n = 60, omega from about 1e-10 to
    1e10); ParamError names the parameters where either fails.
    """
    n = check_size(n, "n", 1, ParamError)
    omega = check_nonnegative(omega, "omega", ParamError)
    size = n + 1
    if omega == 0.0 or math.isinf(omega):
        upper, lower = frechet_bounds(size)
        return lower if omega == 0.0 else upper
    if omega == 1.0:
        return _wrap(JointPmf, values=np.full((size, size), 1.0 / size**2))
    return scaling._fit(_binomial_seed(n, omega).values)[0]


def truncated_geometric_pmf(n_levels: int, p2: JointPmf) -> JointPmf:
    """Joint law of two first-success counts, each capped at n_levels - 1.

    X counts the leading (X_i = 0)'s and Y the leading (Y_i = 0)'s in a
    shared i.i.d. stream from ``p2``; both are truncated by min(., N-1).
    With row0 = p00 + p01, row1 = p10 + p11, col0 = p00 + p10 and
    col1 = p01 + p11, the cells are exact products:

        x < y:  p00^x p10 col0^(y-x-1) col1,    x = y:  p00^x p11,
        x > y:  p00^y p01 row0^(x-y-1) row1,

    where the absorbing boundary (x or y = N-1) drops the last factor
    (col1, row1 or p11).  The table is built at once from the index grids,
    with each power looked up in a table of p^0 .. p^(N-1).
    """
    n = check_size(n_levels, "n_levels", 2, ParamError)
    if p2.shape != (2, 2):
        raise ValidationError(f"base table must be 2x2, got {p2.shape}")
    if p2.values[0, 0] >= 1.0:
        raise DegenerateError("base table is concentrated at (0, 0)")
    return JointPmf(_geometric_table(n, p2.values))


def _geometric_table(n: int, base: np.ndarray) -> np.ndarray:
    """The cells of :func:`truncated_geometric_pmf`: products, 0 where they underflow."""
    p00, p01, p10, p11 = base[0, 0], base[0, 1], base[1, 0], base[1, 1]
    row0, col0 = p00 + p01, p00 + p10
    row1, col1 = p10 + p11, p01 + p11

    def powers(base):
        # scalar powers: NumPy's vector power can differ in the last bit
        return np.array([base**k for k in range(n)])

    def before_last(factor):
        # the factor of every level but the absorbing one
        out = np.full(n, factor)
        out[-1] = 1.0
        return out

    k = np.arange(n)
    gap = np.abs(k[:, None] - k) - 1  # -1 on the diagonal, overwritten below
    lead = powers(p00)
    above = lead[:, None] * p10 * powers(col0)[gap] * before_last(col1)
    below = lead * p01 * powers(row0)[gap] * before_last(row1)[:, None]
    out = np.where(k[:, None] < k, above, below)
    out[k, k] = lead * before_last(p11)
    return out


def _geometric_limit_seed(n: int) -> np.ndarray:
    """The omega -> 0 seed: leading coefficients of the standard model on the limit's support.

    As omega -> 0, cell (x, y) of the truncated table behaves like
    2^-min(max(x, y) + 1, N - 1) sqrt(omega)^order, the order min(x, y) plus
    1 on the interior diagonal x = y < N-1.  The mass settles on the union
    of the permutations of least total order (the unit-margin plans have
    permutation vertices): max(x, y) >= N//2, min(x, y) < (N+1)//2, x != y.

    * The order of a permutation pi is sum_{t=1..N-1} |{x >= t : pi(x) >= t}|
      plus its interior fixed points.
    * By pigeonhole each term is at least max(0, N - 2t): at most t of the
      N - t rows from t on reach a column below t.
    * Every term meets its bound exactly when pi has no cell in [0, N//2)^2
      and none in [(N+1)//2, N)^2.  The rows below N//2 may then take any
      N//2 of the columns from N//2 on, and the rows from (N+1)//2 on any of
      the columns below (N+1)//2, so every other cell lies on such a pi.
    * The +1 on the interior diagonal removes only the middle cell of an odd N.
    """
    x = np.arange(n)[:, None]
    y = np.arange(n)[None, :]
    support = (np.maximum(x, y) >= n // 2) & (np.minimum(x, y) < (n + 1) // 2) & (x != y)
    coef = np.ldexp(1.0, -np.minimum(np.maximum(x, y) + 1, n - 1))
    return np.where(support, coef, 0.0)


def _geometric_log_seed(n: int, omega: float) -> np.ndarray:
    """log of a row and column rescaling of the truncated table of odds ratio omega.

    With r = sqrt(omega), the uniform-margin base has p00 = p11 =
    r / (2 (1 + r)), p01 = p10 = 1 / (2 (1 + r)) and every line sum 1/2.
    In the products of :func:`truncated_geometric_pmf`, x < y takes
    p00^x p10 2^-(y-x-1) and a last 1/2 unless y = N-1, and x > y likewise.
    Since max(x, y) = x + y - min(x, y), the log of every such cell is
    min(x, y) log(p00 / (1/2)^2) plus terms in x alone and in y alone.  The
    diagonal x = y < N-1 takes p11 = r p10 and the corner p00^(N-1) alone,
    so up to row and column terms the log table is

        min(x, y) log(2r / (1 + r)) + [x = y < N-1] log(omega) / 2
                                    + [x = y = N-1] log((1 + r) / 2).

    It is 0 at omega = 1 and takes no power of p00, so it does not
    underflow before it is centred.
    """
    r = math.sqrt(omega)
    k = np.arange(n)
    seed = np.minimum(k[:, None], k) * math.log(2.0 * r / (1.0 + r))
    seed[k[:-1], k[:-1]] += 0.5 * math.log(omega)
    seed[-1, -1] += math.log((1.0 + r) / 2.0)
    return seed


def _fit_seed(seed: np.ndarray, message: str) -> JointPmf:
    """``scaling._fit`` of ``seed``; where it fails, ParamError with ``message`` and the reason."""
    try:
        return scaling._fit(seed)[0]
    except (InfeasibleError, NonConvergenceError) as exc:
        raise ParamError(f"{message}: {exc}") from exc


def _fit_log_seed(log_table: np.ndarray, where: str, table: str) -> JointPmf:
    """The copula pmf of exp(``log_table``), fitted from its double-centred logarithm.

    Subtracting the row means and then the column means of ``log_table``
    rescales the rows and columns of its table, so every odds ratio is
    kept, and leaves every line with log mean 0: the seed spans the range
    of the dependence, not of the margins.  It is exponentiated once,
    shifted so that its largest cell is 1, and normalized.

    A normalized cell that still falls below the normal doubles is raised
    to the least normal double, so the support stays full and is not
    classified.  The fit is kept where those cells end with at most the
    fit tolerance of mass in all: the true cells are smaller still, so
    with the same row and column factors they miss uniform margins by no
    more.  Where the raised cells end with more, the fit's factors lift
    cells past the doubles into view, and no answer in doubles shows what
    they hold.  ParamError is raised there, "<where>: the <table> table
    spans more than the doubles", and where the fit fails, "<where>: the fit
    of the <table> table fails: " with the fit's own reason.
    """
    centred = log_table - log_table.mean(axis=1, keepdims=True)
    centred -= centred.mean(axis=0)
    seed = np.exp(centred - centred.max())
    seed /= seed.sum()
    raised = seed < sys.float_info.min
    seed[raised] = sys.float_info.min
    fitted = _fit_seed(seed, f"{where}: the fit of the {table} table fails")
    if not fitted.values[raised].sum() <= scaling.DEFAULT_TOL:
        raise ParamError(f"{where}: the {table} table spans more than the doubles")
    return fitted


def truncated_geometric_copula(n_levels: int, omega: float) -> JointPmf:
    """Standard truncated-Geometric copula pmf on an N x N grid.

    The base 2x2 table is pinned to uniform margins (the uniform-margin
    representative with odds ratio ``omega``), which collapses the model
    to one parameter; the truncated table is then fitted to uniform
    margins from its log, taken in closed form with the factors of the
    margins left out (:func:`_geometric_log_seed`) and centred
    (:func:`_fit_log_seed`).  At omega = 0 the raw table's support cannot
    reach uniform margins, so the copula is the omega -> 0 limit instead:
    mass settles on the support of minimal vanishing order and the leading
    coefficients are fitted there (for N = 3 this is the uniform
    off-diagonal table); omega = inf gives the diagonal Frechet table.
    Where cells of the centred seed still pass the doubles (as at N = 8,
    omega = 1e-200), the fit is kept if they end with no mass to speak of
    (:func:`_fit_log_seed`).  ParamError names omega and N where they do
    not (N = 12, omega = 1e-300) and where a fit fails (N = 3,
    omega = 1e-300, where it stalls).
    """
    n_levels = check_size(n_levels, "n_levels", 2, ParamError)
    omega = check_nonnegative(omega, "omega", ParamError)
    if math.isinf(omega):
        return frechet_bounds(n_levels)[0]
    if omega == 0.0:
        seed = _geometric_limit_seed(n_levels)
        return _fit_seed(seed / seed.sum(),
                         f"omega=0 for N={n_levels}: the fit of the omega -> 0 limit fails")
    return _fit_log_seed(_geometric_log_seed(n_levels, omega), f"omega={omega} for N={n_levels}",
                         "geometric")


def _goodman_seed(n_rows: int, n_cols: int, theta: float) -> JointPmf:
    """theta^((x - (R-1)/2)(y - (S-1)/2)), normalized, for 0 < theta < inf.

    Centred on the middle of the table, it spans theta^(+-(R-1)(S-1)/4);
    ParamError names theta and the shape where a normalized cell is not a
    normal double.
    """
    rows = np.arange(n_rows) - 0.5 * (n_rows - 1)
    cols = np.arange(n_cols) - 0.5 * (n_cols - 1)
    with np.errstate(over="ignore"):  # _normal_seed rejects an infinite cell
        table = theta ** np.outer(rows, cols)
    return _normal_seed(table, f"theta={theta} over- or underflows for shape "
                               f"{(n_rows, n_cols)}")


def goodman_copula(n_rows: int, n_cols: int, theta: float) -> JointPmf:
    """Copula pmf of the constant local-odds-ratio association model.

    All 2x2 blocks of adjacent rows/columns share the odds ratio
    ``theta``.  The table theta^((x - (R-1)/2)(y - (S-1)/2)), which has
    those odds ratios and differs from the matrix theta^(xy) anchored at
    (0, 0) only by row and column factors, is normalized and fitted to
    uniform margins; centred, it spans theta^(+-(R-1)(S-1)/4) and its fit
    takes about a quarter of the sweeps.  Endpoint values concentrate the
    mass on a diagonal, which exists only for square shapes: theta = 0
    gives the anti-diagonal table, theta = inf the diagonal one, and both
    raise InfeasibleError for R != S.  ParamError names theta and the
    shape where a cell of the normalized table is not a normal double.
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
    return scaling._fit(_goodman_seed(n_rows, n_cols, theta).values)[0]
