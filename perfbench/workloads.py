"""The four seeded workloads of the tabcop benchmark.

Each workload turns a seed into a fixed list of cases.  A case is one
operation -- the public calls a user makes for one input -- plus a check
that compares the operation's output with an independent reference from
:mod:`oracle`.  The measuring loop (``worker.py``) runs whole passes over
the list, so every count repeats exactly for a fixed seed.

All calls go through attributes of the ``tabcop`` package or of its
modules at call time, never through names bound at import, so the tracer
in ``tracing.py`` sees every one of them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
import tabcop
import tabcop.cli

#: Sweep budget passed explicitly to every near-tight fit.  At the package
#: default (10**6 sweeps, 10**7 for B2) one failing case burns 20-200 s,
#: which is left unmeasured.
NEAR_TIGHT_MAX_ITER = 100_000

#: Prefix of a problem that is a feasibility-class mismatch with the oracle.
ORACLE_MISMATCH = "oracle:"


@dataclass(frozen=True)
class Case:
    """One operation and the check of its output.

    ``check`` returns a list of problems, empty when the output is right.
    """

    case_id: str
    op: Callable[[], object]
    check: Callable[[object], list]


class Workload:
    """A named, seeded list of cases.

    ``min_passes`` whole passes run even when they outlast the requested
    measuring time, so that every run has enough samples for its tail
    percentile.  ``known_defects`` names the cases that fail at the
    parent commit for a documented reason; they count as failures, but
    only a failure outside this set makes a run incorrect.
    """

    name = ""
    min_passes = 1
    known_defects = frozenset()

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.sizes = {}
        self.cases = self.make_cases()

    def make_cases(self) -> list:
        """The cases of one pass, in a seeded random order.

        Shuffling spreads every kind of case over the whole pass, so that
        each metric samples the machine's speed over the whole run rather
        than over the few seconds one kind of case would occupy.
        """
        raise NotImplementedError

    def warm_up(self):
        """One call per public entry point the cases use, on small inputs."""
        raise NotImplementedError

    def traced_cases(self) -> list:
        """The cases whose public calls the traced run records."""
        return self.cases


def uniform_pair(n_rows, n_cols):
    return tabcop.MarginPair(np.full(n_rows, 1.0 / n_rows), np.full(n_cols, 1.0 / n_cols))


def planted_margins(rng, mask):
    """Margins of a random table that is positive on ``mask``.

    Such margins are reachable with every cell of ``mask`` positive, so
    the (mask, margins) pair is class A, or B1 when the mask splits into
    blocks, and no null rectangle is close to tight.
    """
    q = np.where(mask, rng.uniform(0.5, 1.5, mask.shape), 0.0)
    q /= q.sum()
    return q.sum(axis=1), q.sum(axis=0)


def fit_problems(before, after, row_targets, col_targets, support):
    """A fit must hit its margins, keep ``support`` and preserve odds ratios."""
    problems = []
    err = oracle.margin_error(after, row_targets, col_targets)
    if err > oracle.MARGIN_ATOL:
        problems.append(f"fit margins off by {err:.3g}")
    if not np.array_equal(np.asarray(after) > 0, support):
        problems.append("fit support differs from the expected support")
    res = oracle.scaling_residual(before, after)
    if res > oracle.SCALING_ATOL:
        problems.append(f"fit is not a rescaling of its input (log residual {res:.3g})")
    return problems


def class_problems(got, tag, forced):
    if got.tag != tag:
        return [f"{ORACLE_MISMATCH} class {got.tag}, expected {tag}"]
    if frozenset(got.forced_zero_cells) != forced:
        return [f"{ORACLE_MISMATCH} forced zeros {sorted(got.forced_zero_cells)}, "
                f"expected {sorted(forced)}"]
    return []


# --------------------------------------------------------------- small_tables


def _random_mask(rng, n_rows, n_cols, zero_share):
    while True:
        mask = rng.random((n_rows, n_cols)) >= zero_share
        if mask.any(axis=0).all() and mask.any(axis=1).all():
            return mask


def _mask_of_class(rng, n_rows, n_cols, tag, tries=40):
    """A random mask of class ``tag`` at uniform margins, or None.

    A is drawn until the oracle agrees.  B1 and B2 need a row block and a
    column block of equal uniform mass, which exists only when gcd(R, S)
    > 1: B1 is that block-diagonal pattern, B2 adds cells to an
    off-diagonal block, which the tight block forces to zero.  C blanks a
    null rectangle of more than unit mass; 2x2 has none.
    """
    g = math.gcd(n_rows, n_cols)
    if tag in ("B1", "B2"):
        if g == 1:
            return None
        k = int(rng.integers(1, g))
        r1, c1 = n_rows * k // g, n_cols * k // g
        mask = np.zeros((n_rows, n_cols), dtype=bool)
        mask[:r1, :c1] = True
        mask[r1:, c1:] = True
        if tag == "B2":
            mask[r1:, :c1] = rng.random((n_rows - r1, c1)) < 0.5
            mask[int(rng.integers(r1, n_rows)), int(rng.integers(0, c1))] = True
    elif tag == "C":
        pairs = [(a, e) for a in range(1, n_rows) for e in range(1, n_cols)
                 if a * n_cols + e * n_rows > n_rows * n_cols]
        if not pairs:
            return None
        a, e = pairs[int(rng.integers(len(pairs)))]
        mask = rng.random((n_rows, n_cols)) >= 0.3
        mask[:a, :e] = False
        mask[np.arange(a), rng.integers(e, n_cols, a)] = True
        mask[rng.integers(a, n_rows, e), np.arange(e)] = True
        mask[a:, :][~mask[a:, :].any(axis=1), int(rng.integers(n_cols))] = True
        mask[:, e:][int(rng.integers(n_rows)), ~mask[:, e:].any(axis=0)] = True
    else:
        for _ in range(tries):
            mask = _random_mask(rng, n_rows, n_cols, rng.uniform(0.15, 0.55))
            if oracle.rectangle_class(mask)[0] == tag:
                break
        else:
            return None
    return mask[rng.permutation(n_rows)][:, rng.permutation(n_cols)]


class SmallTables(Workload):
    """Count tables 2x2..8x8 through the analyze pipeline, plus near-tight fits."""

    name = "small_tables"
    #: Two passes give 1028 samples, enough for a 99th percentile, which
    #: falls among the near-tight fits: their inputs do not depend on the
    #: seed, so the tail does not either.  A pass takes about 7 s.
    min_passes = 2
    known_defects = frozenset({
        "near_tight/forest/gap=1e-06",   # class A; 100000 sweeps leave it 2e-6 off
        "near_tight/forest/gap=1e-10",   # class A, classified B2, then the same
    })
    #: Cases per shape and class, per pass.
    PER_SHAPE = (("dense", 4), ("A", 3), ("B2", 2), ("C", 2), ("B1", 1))
    NEAR_TIGHT_GAPS = (1e-1, 1e-2, 1e-3, 1e-4)
    DEFECT_GAPS = (1e-6, 1e-10)

    def make_cases(self):
        rng = self.rng
        cases = [
            self._table_case("published/lin_2x2", np.array(oracle.LIN_COUNTS),
                             published=np.array(oracle.LIN_COPULA),
                             margins=(np.array([0.603, 0.397]), np.array([0.475, 0.525])),
                             coupled=np.array([[0.462, 0.141], [0.013, 0.383]])),
            self._table_case("published/graubard_2x5", np.array(oracle.GRAUBARD_COUNTS),
                             published=np.array(oracle.GRAUBARD_COPULA)),
        ]
        for n_rows in range(2, 9):
            for n_cols in range(2, 9):
                for kind, count in self.PER_SHAPE:
                    for i in range(count):
                        mask = (np.ones((n_rows, n_cols), dtype=bool) if kind == "dense"
                                else _mask_of_class(rng, n_rows, n_cols, kind))
                        if mask is None:
                            continue
                        counts = np.where(mask, rng.integers(1, 60, mask.shape), 0)
                        cases.append(self._table_case(
                            f"table/{n_rows}x{n_cols}/{kind}/{i}", counts.astype(float)))
        n_tables = len(cases)
        forest = np.array([[1, 1], [1, 0]], dtype=bool)
        cycle = np.array([[1, 1, 0], [1, 1, 0], [1, 1, 1]], dtype=bool)
        for gap in self.NEAR_TIGHT_GAPS + self.DEFECT_GAPS:
            cases.append(self._near_tight_case(
                f"near_tight/forest/gap={gap:g}", forest,
                np.array([0.5, 0.5]), np.array([0.5 + gap, 0.5 - gap])))
        for gap in self.NEAR_TIGHT_GAPS:
            cases.append(self._near_tight_case(
                f"near_tight/cycle/gap={gap:g}", cycle,
                np.full(3, 1.0 / 3.0),
                np.array([1.0 / 3.0 + gap / 2, 1.0 / 3.0 + gap / 2, 1.0 / 3.0 - gap])))
        self.sizes = {
            "tables": n_tables, "shapes": "2x2..8x8",
            "near_tight": len(cases) - n_tables,
            "near_tight_gaps": [f"{g:g}" for g in self.NEAR_TIGHT_GAPS + self.DEFECT_GAPS],
            "near_tight_max_iter": NEAR_TIGHT_MAX_ITER,
        }
        rng.shuffle(cases)
        return cases

    def _table_case(self, case_id, counts, published=None, margins=None, coupled=None):
        n_rows, n_cols = counts.shape
        mask = counts > 0
        tag, forced = oracle.rectangle_class(mask)
        cop_support = mask.copy()
        for x, y in forced:
            cop_support[x, y] = False
        if margins is None:
            margins = planted_margins(self.rng, cop_support)
        target = tabcop.MarginPair(*margins)

        def op():
            p = tabcop.from_counts(counts)
            cls = tabcop.classify_existence(tabcop.support(p), uniform_pair(n_rows, n_cols))
            if cls.tag == "C":
                return p, cls, None
            cop, _diag = tabcop.copula_pmf(p)
            omega = tabcop.odds_ratio_matrix(p)
            upsilon = tabcop.yule_upsilon(cop)
            table, _diag = tabcop.couple(cop, target)
            return p, cls, (cop, omega, upsilon, table)

        def check(out):
            p, cls, rest = out
            problems = []
            if np.abs(p.values - counts / counts.sum()).max() > 1e-15:
                problems.append("from_counts does not normalize the counts")
            problems += class_problems(cls, tag, forced)
            if tag == "C" or problems:
                return problems
            cop, omega, upsilon, table = rest
            problems += oracle.copula_pmf_problems(cop.values)
            problems += fit_problems(counts, cop.values, np.full(n_rows, 1.0 / n_rows),
                                     np.full(n_cols, 1.0 / n_cols), cop_support)
            v = p.values
            with np.errstate(divide="ignore", invalid="ignore"):
                want = v[0, 0] * v[1:, 1:] / np.outer(v[1:, 0], v[0, 1:])
            if not np.allclose(omega.entries, want, rtol=1e-12, atol=0.0, equal_nan=True):
                problems.append("odds-ratio matrix differs from p00*pxy/(px0*p0y)")
            if abs(upsilon - oracle.pearson_on_labels(cop.values)) > 1e-9:
                problems.append(f"yule_upsilon {upsilon!r} is not the copula's correlation")
            problems += fit_problems(cop.values, table.values, target.row_margins,
                                     target.col_margins, cop_support)
            if published is not None and np.abs(cop.values - published).max() > oracle.PUBLISHED_ATOL:
                problems.append("copula pmf differs from the published table")
            if coupled is not None and np.abs(table.values - coupled).max() > 1e-3:
                problems.append("coupled table differs from the published table")
            return problems

        return Case(case_id, op, check)

    def _near_tight_case(self, case_id, mask, row_targets, col_targets):
        p = tabcop.JointPmf(mask / mask.sum())
        target = tabcop.MarginPair(row_targets, col_targets)
        tag, forced = oracle.rectangle_class(mask, row_targets, col_targets, tol=1e-12)

        def op():
            cls = tabcop.classify_existence(tabcop.support(p), target)
            try:
                fitted, _diag = tabcop.ipf_fit(p, target, max_iter=NEAR_TIGHT_MAX_ITER)
            except tabcop.NonConvergenceError as exc:
                return cls, exc
            return cls, fitted

        def check(out):
            cls, fitted = out
            problems = class_problems(cls, tag, forced)
            if isinstance(fitted, tabcop.NonConvergenceError):
                return problems + [f"NonConvergenceError: {fitted}"]
            return problems + fit_problems(
                p.values, fitted.values, target.row_margins, target.col_margins, mask)

        return Case(case_id, op, check)

    def warm_up(self):
        for counts in ([[3.0, 1.0], [1.0, 3.0]], [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]):
            p = tabcop.from_counts(counts)
            n_rows, n_cols = p.shape
            tabcop.classify_existence(tabcop.support(p), uniform_pair(n_rows, n_cols))
            cop, _ = tabcop.copula_pmf(p)
            tabcop.odds_ratio_matrix(p)
            tabcop.yule_upsilon(cop)
            tabcop.couple(cop, tabcop.margins(p))
            tabcop.ipf_fit(p, tabcop.margins(cop), max_iter=NEAR_TIGHT_MAX_ITER)


# --------------------------------------------------------------- sparse_large


def _cycle_union(rng, n, n_perms):
    """A connected n x n support: a Hamiltonian cycle plus random permutations.

    The average of the permutation matrices is positive on every cell and
    has uniform margins, so the support is class A at uniform margins.
    """
    idx = np.arange(n)
    mask = np.zeros((n, n), dtype=bool)
    mask[idx, idx] = True
    mask[idx, (idx + 1) % n] = True
    for _ in range(n_perms - 2):
        mask[idx, rng.permutation(n)] = True
    return mask[rng.permutation(n)][:, rng.permutation(n)]


def _planted_sparse(rng, n, n_perms, kind):
    """An n x n support of class ``kind`` and its forced cells.

    A, B1: unions of cycle supports (B1 as two diagonal blocks).  B2: rows
    R0 reach only columns D with |R0| = |D|, so R0 fills D exactly and the
    other rows' cells in D are forced to zero.  C: as B2 with |D| = |R0|-1,
    which D cannot absorb.
    """
    half = n // 2
    mask = np.zeros((n, n), dtype=bool)
    forced = np.zeros((n, n), dtype=bool)
    if kind in ("A-uniform", "A-planted"):
        mask = _cycle_union(rng, n, n_perms)
    elif kind == "B1":
        mask[:half, :half] = _cycle_union(rng, half, n_perms)
        mask[half:, half:] = _cycle_union(rng, n - half, n_perms)
    elif kind == "B2":
        mask[:half, :half] = _cycle_union(rng, half, n_perms)
        mask[half:, half:] = _cycle_union(rng, n - half, n_perms)
        forced[half:, :half] = rng.random((n - half, half)) < n_perms / n
        forced[rng.integers(half, n), rng.integers(0, half)] = True
        mask |= forced
    else:  # C
        mask[:half, :half - 1] = rng.random((half, half - 1)) < 2 * n_perms / n
        mask[np.arange(half), rng.integers(0, half - 1, half)] = True
        mask[rng.integers(0, half, half - 1), np.arange(half - 1)] = True
        mask[half:, half - 1:] = _cycle_union(rng, n - half + 1, n_perms)[1:]
        mask[half:, : half - 1] = rng.random((n - half, half - 1)) < n_perms / n
    rows, cols = rng.permutation(n), rng.permutation(n)
    return mask[rows][:, cols], forced[rows][:, cols]


class SparseLarge(Workload):
    """Large sparse supports with planted classes: classify, then fit."""

    name = "sparse_large"
    min_passes = 2
    #: (size, planted kinds) per pass.  Sixteen 24x24 cases put the median
    #: among many similar operations and eight class-A 32x32 cases put the
    #: tail among several of one cost; the infeasible (C) cases cost one
    #: max flow each.  Density falls linearly from 30% at 20x20 to 10% at
    #: 80x80.  The 80x80 case is close to half of a pass and its cost
    #: depends on the support drawn, so its calls take turns over
    #: BIG_VARIANTS supports, and the seed moves the throughput less than
    #: one support would.
    BIG_VARIANTS = 3
    MIX = (
        (20, ("C",)),
        (24, ("A-uniform", "A-planted", "B1", "B2") * 4),
        (28, ("C",)),
        (32, ("A-uniform", "A-planted") * 4),
        (80, ("A-uniform",)),
    )

    def make_cases(self):
        cases = []
        for n, kinds in self.MIX:
            density = 0.30 - 0.20 * (n - 20) / 60
            for i, kind in enumerate(kinds):
                cases.append(self._case(f"{n}x{n}/{kind}/{i}", n, max(3, round(density * n)), kind,
                                        self.BIG_VARIANTS if n == 80 else 1))
        self.sizes = {"cases": [c.case_id for c in cases],
                      "density": "0.30 at 20x20 falling linearly to 0.10 at 80x80",
                      "80x80_supports": self.BIG_VARIANTS}
        self.rng.shuffle(cases)
        return cases

    def _case(self, case_id, n, n_perms, kind, variants=1):
        """A case whose calls take turns over ``variants`` random supports."""
        inputs = [self._input(n, n_perms, kind) for _ in range(variants)]
        turn = itertools.count()
        tag = {"A-uniform": "A", "A-planted": "A"}.get(kind, kind)
        uniform = kind != "A-planted" and kind != "B1"

        def op():
            k = next(turn) % variants
            p, pattern, target = inputs[k][:3]
            cls = tabcop.classify_existence(pattern, target)
            if cls.tag == "C":
                return k, cls, None
            if uniform:
                fitted, _diag = tabcop.copula_pmf(p)
            else:
                fitted, _diag = tabcop.ipf_fit(p, target)
            return k, cls, fitted

        def check(out):
            k, cls, fitted = out
            p, pattern, target, mask, forced = inputs[k]
            problems = class_problems(cls, tag, frozenset(
                (int(x), int(y)) for x, y in np.argwhere(forced)))
            if tag == "C" or problems:
                return problems
            return fit_problems(p.values, fitted.values, target.row_margins, target.col_margins,
                                mask & ~forced)

        return Case(case_id, op, check)

    def _input(self, n, n_perms, kind):
        rng = self.rng
        mask, forced = _planted_sparse(rng, n, n_perms, kind)
        if kind in ("A-planted", "B1"):
            rt, ct = planted_margins(rng, mask)
        else:
            rt, ct = np.full(n, 1.0 / n), np.full(n, 1.0 / n)
        values = np.where(mask, rng.uniform(0.2, 1.0, mask.shape), 0.0)
        return (tabcop.JointPmf(values / values.sum()), tabcop.SupportPattern(mask),
                tabcop.MarginPair(rt, ct), mask, forced)

    def warm_up(self):
        rng = np.random.default_rng(0)
        mask = _cycle_union(rng, 6, 3)
        p = tabcop.JointPmf(mask / mask.sum())
        tabcop.classify_existence(tabcop.SupportPattern(mask), uniform_pair(6, 6))
        tabcop.copula_pmf(p)
        tabcop.ipf_fit(p, tabcop.MarginPair(*planted_margins(rng, mask)))


# --------------------------------------------------------------- family_grids


def _around(rng, value, spread=0.1):
    """``value`` moved by up to ``spread`` of itself, so the seed varies the
    inputs without moving their cost much."""
    return float(value * (1.0 + spread * rng.uniform(-1.0, 1.0)))


class FamilyGrids(Workload):
    """Public family and grid constructors, and renders of their results.

    Besides the sizes the roadmap names, each pass builds every family at
    a dense spread of smaller sizes, so that the median falls among many
    calls of similar cost rather than in a gap between two.  A pass runs the heavy constructors (the
    Poisson grids, the omega=0 geometric faces, the student copula: over
    95% of its time) once and the light cases LIGHT_REPEATS times, so
    that every light case, which is where the median falls, has many
    samples in a run.
    """

    name = "family_grids"
    STUDENT = {"rho": 0.5, "df": 4.0}
    LIGHT_REPEATS = 5

    def make_cases(self):
        rng = self.rng
        self.results = {}

        def near(value):
            return _around(rng, value)

        heavy = [
            self._poisson(32, near(1.0)), self._poisson(64, near(1.0)),
            *(self._face(n) for n in (16, 24, 32)),
            self._student(),
        ]
        light = [
            *(self._geometric_grid(n, near(2.5)) for n in (8, 12, 16, 20, 24, 28, 32)),
            *(self._geometric(n, near(2.0)) for n in (5, 8, 10, 15, 20)),
            *(self._binomial(n, near(2.0))
              for n in (6, 8, 10, 12, 14, 17, 20, 24, 28, 36, 44, 60)),
            *(self._goodman(r, c, near(1.8)) for r, c in ((4, 4), (4, 6), (5, 7), (6, 6), (6, 8),
                                                          (8, 8), (8, 10), (10, 12))),
            *(self._gaussian(n, near(0.6) * float(rng.choice((-1, 1)))) for n in (6, 8, 10, 12, 15)),
            *(self._clayton(n, near(2.0)) for n in (8, 12, 15)),
        ]
        # the printed 3x3 closed forms, away from 1 where they cancel
        w_ref = [near(4.0) ** float(rng.choice((-1, 1))) for _ in range(3)]
        light += [
            Case(f"reference/binomial/2/w={w_ref[0]:.3f}",
                 lambda: tabcop.binomial_copula(2, w_ref[0]),
                 lambda c: self._closed_form(c, oracle.binomial2_closed_form(w_ref[0]))),
            Case(f"reference/geometric/3/w={w_ref[1]:.3f}",
                 lambda: tabcop.truncated_geometric_copula(3, w_ref[1]),
                 lambda c: self._closed_form(c, oracle.geometric3_closed_form(w_ref[1]))),
            Case(f"reference/goodman/3x3/theta={w_ref[2]:.3f}",
                 lambda: tabcop.goodman_copula(3, 3, w_ref[2]),
                 lambda c: self._closed_form(c, oracle.goodman33_closed_form(w_ref[2]))),
        ]
        rng.shuffle(light)
        # these use results of earlier cases in the same pass
        light += [
            *(self._countable(n, near(2.0), near(2.0)) for n in (6, 10, 15)),
            self._heatmap("poisson32", 32), self._heatmap("geometric_grid32", 32),
            self._confetti("binomial20", 21, 21), self._confetti("goodman6x8", 6, 8),
        ]
        cases = heavy + light * self.LIGHT_REPEATS
        self.sizes = {"cases": [c.case_id.rsplit("/", 1)[0] if "=" in c.case_id else c.case_id
                                for c in heavy + light],
                      "light_repeats": self.LIGHT_REPEATS}
        return cases

    def _keep(self, key, make):
        """An op that stores its result for later cases in the pass."""
        def op():
            self.results[key] = make()
            return self.results[key]
        return op

    @staticmethod
    def _rescaling(reference, values):
        res = oracle.scaling_residual(reference, values)
        if res > oracle.SCALING_ATOL:
            return [f"not a rescaling of the model's pmf (log residual {res:.3g})"]
        return []

    def _poisson(self, n, omega):
        def check(grid):
            interior = grid.heights[: n - 1, : n - 1]
            return oracle.grid_problems(grid.heights) + self._rescaling(
                oracle.poisson_interior(omega, n), interior)
        return Case(f"poisson_grid/{n}/w={omega:.3f}",
                    self._keep(f"poisson{n}", lambda: tabcop.poisson_copula_grid(omega, n)), check)

    def _geometric_grid(self, n, omega):
        return Case(f"geometric_grid/{n}/w={omega:.3f}",
                    self._keep(f"geometric_grid{n}", lambda: tabcop.geometric_copula_grid(omega, n)),
                    lambda g: oracle.grid_problems(g.heights) + self._rescaling(
                        oracle.geometric_pmf(n, omega), g.heights))

    def _geometric(self, n, omega):
        return Case(f"geometric/{n}/w={omega:.3f}",
                    lambda: tabcop.truncated_geometric_copula(n, omega),
                    lambda c: oracle.copula_pmf_problems(c.values, n, n) + self._rescaling(
                        oracle.geometric_pmf(n, omega), c.values))

    @staticmethod
    def _face(n):
        def check(cop):
            v = cop.values
            problems = oracle.copula_pmf_problems(v, n, n)
            if np.abs(v - v.T).max() > 1e-12:
                problems.append("omega=0 geometric copula is not symmetric")
            if oracle.pearson_on_labels(v) >= 0:
                problems.append("omega=0 geometric copula is not negatively dependent")
            return problems
        return Case(f"geometric_face/{n}", lambda: tabcop.truncated_geometric_copula(n, 0.0), check)

    def _binomial(self, n, omega):
        return Case(f"binomial/{n}/w={omega:.3f}",
                    self._keep(f"binomial{n}", lambda: tabcop.binomial_copula(n, omega)),
                    lambda c: oracle.copula_pmf_problems(c.values, n + 1, n + 1)
                    + self._rescaling(oracle.binomial_pmf(n, omega), c.values))

    def _goodman(self, n_rows, n_cols, theta):
        seed = theta ** np.outer(np.arange(float(n_rows)), np.arange(float(n_cols)))
        return Case(f"goodman/{n_rows}x{n_cols}/theta={theta:.3f}",
                    self._keep(f"goodman{n_rows}x{n_cols}",
                               lambda: tabcop.goodman_copula(n_rows, n_cols, theta)),
                    lambda c: oracle.copula_pmf_problems(c.values, n_rows, n_cols)
                    + self._rescaling(seed, c.values))

    def _gaussian(self, n, rho):
        def check(cop):
            problems = oracle.copula_pmf_problems(cop.values, n, n)
            cdf = np.cumsum(np.cumsum(cop.values, axis=0), axis=1)
            for i, j in ((n // 5, n - 2), (n // 2, n // 2), (n - 2, n // 4)):
                want = oracle.gaussian_cdf((i + 1) / n, (j + 1) / n, rho)
                if abs(cdf[i, j] - want) > 1e-7:
                    problems.append(f"gaussian C({i + 1}/{n}, {j + 1}/{n}) = {cdf[i, j]!r}, "
                                    f"want {want!r}")
            return problems
        spec = tabcop.ContinuousCopulaSpec("gaussian", {"rho": rho})
        return Case(f"discretize/gaussian/{n}x{n}/rho={rho:.3f}",
                    self._keep(f"gaussian{n}", lambda: tabcop.discretize_copula(spec, n, n)), check)

    @staticmethod
    def _clayton(n, theta):
        spec = tabcop.ContinuousCopulaSpec("clayton", {"theta": theta})
        return Case(f"discretize/clayton/{n}x{n}/theta={theta:.3f}",
                    lambda: tabcop.discretize_copula(spec, n, n),
                    lambda c: [] if np.abs(c.values - oracle.clayton_pmf(theta, n, n)).max() <= 1e-12
                    else ["clayton pmf differs from its closed-form CDF"])

    def _student(self):
        def check(cop):
            v = cop.values
            problems = oracle.copula_pmf_problems(v, 15, 15)
            if np.abs(v - v.T).max() > 1e-8:
                problems.append("student copula pmf is not symmetric")
            if oracle.pearson_on_labels(v) <= 0:
                problems.append("student copula with rho > 0 is not positively dependent")
            return problems
        spec = tabcop.ContinuousCopulaSpec("student", dict(self.STUDENT))
        return Case("discretize/student/15x15/rho=0.5,df=4",
                    lambda: tabcop.discretize_copula(spec, 15, 15), check)

    def _countable(self, n, lam_x, lam_y):
        def op():
            mx = tabcop.truncated_poisson_margin(lam_x, n)
            my = tabcop.truncated_poisson_margin(lam_y, n)
            cop = self.results[f"gaussian{n}"]
            return mx, my, cop, tabcop.couple_countable_margins(mx, my, cop)

        def check(out):
            mx, my, cop, coupled = out
            problems = []
            for name, margin, axis in (("row", mx, 1), ("col", my, 0)):
                if abs(margin.sum() - 1.0) > 1e-12 or (margin <= 0).any():
                    problems.append(f"truncated Poisson {name} margin is not a pmf")
                err = np.abs(coupled.values.sum(axis=axis) - margin).max()
                if err > oracle.MARGIN_ATOL:
                    problems.append(f"coupled {name} margins off by {err:.3g}")
            return problems + self._rescaling(cop.values, coupled.values)

        return Case(f"couple_countable/{n}/lam={lam_x:.3f},{lam_y:.3f}", op, check)

    def _heatmap(self, key, n):
        return Case(f"heatmap/{key}", lambda: tabcop.heatmap_ppm(self.results[key]),
                    lambda data: oracle.ppm_problems(data, n))

    def _confetti(self, key, n_rows, n_cols):
        return Case(f"confetti/{key}", lambda: tabcop.confetti_svg(self.results[key]),
                    lambda text: oracle.svg_problems(text, n_rows, n_cols))

    @staticmethod
    def _closed_form(cop, want):
        err = np.abs(cop.values - want).max()
        if err > oracle.CLOSED_FORM_ATOL:
            return [f"differs from the printed closed form by {err:.3g}"]
        return []

    def warm_up(self):
        spec = tabcop.ContinuousCopulaSpec
        tabcop.poisson_copula_grid(1.0, 16)
        grid = tabcop.geometric_copula_grid(2.0, 8)
        tabcop.truncated_geometric_copula(6, 0.0)
        cop = tabcop.binomial_copula(3, 2.0)
        tabcop.goodman_copula(3, 4, 2.0)
        for family, params in (("gaussian", {"rho": 0.5}), ("clayton", {"theta": 1.0}),
                               ("student", dict(self.STUDENT))):
            tabcop.discretize_copula(spec(family, params), 2, 2)
        margin = tabcop.truncated_poisson_margin(2.0, 4)
        tabcop.couple_countable_margins(margin, margin, cop)
        tabcop.heatmap_ppm(grid)
        tabcop.confetti_svg(cop)


# ------------------------------------------------------------------ cli_verbs


def _csv(matrix):
    return "\n".join(",".join(repr(float(v)) for v in row) for row in matrix) + "\n"


def _parse_csv(text, sep=","):
    return np.array([[float(v) for v in line.split(sep)]
                     for line in text.strip().splitlines()])


@dataclass(frozen=True)
class CliRun:
    """Exit code and output bytes of one CLI invocation."""

    code: int
    stdout: bytes
    stderr: bytes


def run_cli_subprocess(argv, stdin_text):
    proc = subprocess.run(
        [sys.executable, "-m", "tabcop.cli", *argv],
        input=stdin_text.encode("utf-8"), capture_output=True, timeout=150,
    )
    return CliRun(proc.returncode, proc.stdout, proc.stderr)


def run_cli_in_process(argv, stdin_text):
    """Call ``tabcop.cli.run`` with redirected standard streams."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tabcop.cli.run(list(argv))
    finally:
        sys.stdin = saved_stdin
    out.flush()
    return CliRun(code, out.buffer.getvalue(), err.getvalue().encode("utf-8"))


class CliVerbs(Workload):
    """Sequential ``python -m tabcop.cli`` processes over a fixed verb mix.

    The mix plus ANALYZE_TABLES seeded count tables gives one pass 20
    processes, enough for a tail percentile with 10 samples beyond it.
    """

    name = "cli_verbs"
    ANALYZE_TABLES = 5

    def make_cases(self):
        rng = self.rng
        w_bin, w_geo, theta = (_around(rng, 4.0) for _ in range(3))
        w_grid = _around(rng, 2.5)
        rho = -_around(rng, 0.6)
        w_couple = _around(rng, 2.0)
        rows, cols = (np.array([a, 1.0 - a]) for a in rng.uniform(0.2, 0.8, 2))
        lin = _csv(oracle.LIN_COUNTS)
        graubard = _csv(oracle.GRAUBARD_COUNTS)
        confetti_table = _csv(oracle.binomial2_closed_form(w_bin))
        grid_text = " ".join(["1"] * 8) + "\n"
        c_table = "0,0,5\n0,0,5\n5,5,5\n"
        specs = [
            ("analyze/lin", ["analyze", "--input", "-"], lin, 0,
             lambda r: self._analyze(r, oracle.LIN_COPULA)),
            ("analyze/graubard", ["analyze", "--input", "-"], graubard, 0,
             lambda r: self._analyze(r, oracle.GRAUBARD_COPULA)),
            ("copula/lin", ["copula", "--input", "-"], lin, 0,
             lambda r: self._matrix(r, oracle.LIN_COPULA, oracle.PUBLISHED_ATOL)),
            ("copula/graubard", ["copula", "--input", "-"], graubard, 0,
             lambda r: self._matrix(r, oracle.GRAUBARD_COPULA, oracle.PUBLISHED_ATOL)),
            (f"couple/w={w_couple:.3f}",
             ["couple", "--copula", "-", "--row-margins", ",".join(repr(float(v)) for v in rows),
              "--col-margins", ",".join(repr(float(v)) for v in cols)],
             _csv(oracle.bernoulli_cells(w_couple)), 0,
             lambda r: self._coupled(r, w_couple, rows, cols)),
            ("family/bernoulli/inf", ["family", "--name", "bernoulli", "--omega", "inf"], "", 0,
             lambda r: self._matrix(r, [[0.5, 0.0], [0.0, 0.5]], 0.0)),
            (f"family/binomial/2/w={w_bin:.3f}",
             ["family", "--name", "binomial", "--N", "2", "--omega", repr(w_bin)], "", 0,
             lambda r: self._matrix(r, oracle.binomial2_closed_form(w_bin), oracle.CLOSED_FORM_ATOL)),
            (f"family/geometric/3/w={w_geo:.3f}",
             ["family", "--name", "geometric", "--N", "3", "--omega", repr(w_geo)], "", 0,
             lambda r: self._matrix(r, oracle.geometric3_closed_form(w_geo), oracle.CLOSED_FORM_ATOL)),
            (f"family/goodman/3x3/theta={theta:.3f}",
             ["family", "--name", "goodman", "--shape", "3x3", "--theta", repr(theta)], "", 0,
             lambda r: self._matrix(r, oracle.goodman33_closed_form(theta), oracle.CLOSED_FORM_ATOL)),
            (f"family/gaussian/15x15/rho={rho:.3f}",
             ["family", "--name", "gaussian", "--shape", "15x15", "--rho", repr(rho)], "", 0,
             lambda r: oracle.copula_pmf_problems(_parse_csv(r.stdout.decode()), 15, 15)),
            (f"grid/geometric/32/w={w_grid:.3f}",
             ["grid", "--name", "geometric", "--N", "32", "--omega", repr(w_grid)], "", 0,
             lambda r: self._grid(r, 32)),
            ("plot/confetti", ["plot", "--kind", "confetti", "--input", "-"], confetti_table, 0,
             lambda r: oracle.svg_problems(r.stdout.decode(), 3, 3)),
            ("plot/heatmap", ["plot", "--kind", "heatmap", "--grid", "-"], grid_text * 8, 0,
             lambda r: oracle.ppm_problems(r.stdout, 8)),
            ("analyze/class_C", ["analyze", "--input", "-"], c_table, 2, lambda r: []),
            ("analyze/malformed", ["analyze", "--input", "-"], "1,2\n3\n", 1, lambda r: []),
        ]
        for i in range(self.ANALYZE_TABLES):
            counts = rng.integers(1, 60, (int(rng.integers(3, 6)), int(rng.integers(3, 6))))
            specs.append((f"analyze/table/{counts.shape[0]}x{counts.shape[1]}/{i}",
                          ["analyze", "--input", "-"], _csv(counts), 0,
                          lambda r, counts=counts: self._analyze_table(r, counts)))
        rng.shuffle(specs)
        self.specs = specs
        self.sizes = {"verbs": len(specs), "grid_N": 32, "gaussian": "15x15",
                      "analyze_tables": "3x3..5x5"}
        return [self._case(spec, run_cli_subprocess) for spec in specs]

    def traced_cases(self):
        return [self._case(spec, run_cli_in_process) for spec in self.specs]

    @staticmethod
    def _case(spec, runner):
        case_id, argv, stdin_text, code, check_output = spec

        def check(result):
            if result.code != code:
                return [f"exit code {result.code}, expected {code}: "
                        f"{result.stderr.decode(errors='replace').strip()[-200:]}"]
            return check_output(result) if code == 0 else []

        return Case(case_id, lambda: runner(argv, stdin_text), check)

    @staticmethod
    def _matrix(result, want, atol):
        got = _parse_csv(result.stdout.decode())
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or np.abs(got - want).max() > atol:
            return [f"output table differs from the reference beyond {atol:g}"]
        return []

    @staticmethod
    def _analyze(result, published):
        report = json.loads(result.stdout)
        problems = []
        if report["classification"]["class"] != "A":
            problems.append(f"class {report['classification']['class']}, expected A")
        cop = np.array(report["copula_pmf"], dtype=float)
        if cop.shape != np.shape(published) or np.abs(cop - published).max() > oracle.PUBLISHED_ATOL:
            problems.append("copula pmf differs from the published table")
        elif abs(report["upsilon"] - oracle.pearson_on_labels(cop)) > 1e-9:
            problems.append("upsilon is not the copula's correlation")
        return problems

    @staticmethod
    def _analyze_table(result, counts):
        report = json.loads(result.stdout)
        if report["classification"]["class"] != "A":
            return [f"class {report['classification']['class']} of a positive table, expected A"]
        cop = np.array(report["copula_pmf"], dtype=float)
        problems = oracle.copula_pmf_problems(cop, *counts.shape)
        if not problems and oracle.scaling_residual(counts, cop) > oracle.SCALING_ATOL:
            problems.append("copula pmf is not a rescaling of the counts")
        if not problems and abs(report["upsilon"] - oracle.pearson_on_labels(cop)) > 1e-9:
            problems.append("upsilon is not the copula's correlation")
        return problems

    @staticmethod
    def _coupled(result, omega, rows, cols):
        got = _parse_csv(result.stdout.decode())
        problems = []
        err = oracle.margin_error(got, rows, cols)
        if err > oracle.MARGIN_ATOL:
            problems.append(f"coupled margins off by {err:.3g}")
        if abs(got[0, 0] * got[1, 1] / (got[0, 1] * got[1, 0]) / omega - 1.0) > 1e-9:
            problems.append("coupled table lost the copula's odds ratio")
        return problems

    @staticmethod
    def _grid(result, n):
        heights = _parse_csv(result.stdout.decode(), sep=None)
        if heights.shape != (n, n):
            return [f"grid shape {heights.shape}, expected {(n, n)}"]
        return oracle.grid_problems(heights)

    def warm_up(self):
        run_cli_in_process(["family", "--name", "bernoulli", "--omega", "2"], "")


WORKLOADS = {w.name: w for w in (CliVerbs, SmallTables, SparseLarge, FamilyGrids)}
