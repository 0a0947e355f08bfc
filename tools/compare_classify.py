"""Compare the classifications and the outputs of two source trees, call by call.

Usage::

    python tools/compare_classify.py OLD_SRC NEW_SRC [--random N] [--seeds 1 2 3]

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts
(or the same one twice, which catches nondeterminism).  Each tree runs
in its own process and records

* every ``classify_existence`` call: its support and margins, the class
  it returned (tag, forced cells and tight rectangles, in order) and the
  number of max flows it ran;
* every max flow those calls ran: its value's bits, its cut rows and its
  cell flows' bytes (or None);
* every fit through ``scaling._fit``, with the label of the operation
  that made it: the fitted table's bytes and every diagnostics field, or
  the error it raised;
* the output of every operation: table bytes, ``upsilon`` floats,
  odds-ratio entries, SVG and PPM bytes, CLI exit codes and output bytes,
  or the type and message of the error it raised.

The calls are those of

* ``N`` random supports of 2 x 2 to 8 x 8 cells (default 2,000), each
  at uniform margins and at the margins of a random table on a random
  sub-support that still meets every row and column; each pair is
  classified, and a random count table on the support goes through the
  ``small_tables`` answer (``from_counts``, ``classify_existence``,
  ``copula_pmf``, ``odds_ratio_matrix``, ``yule_upsilon``, ``couple`` to
  the sub-support's margins);
* one pass over every case of the ``small_tables``, ``sparse_large`` and
  ``family_grids`` benchmark workloads, and the in-process form of every
  ``cli_verbs`` case, at each seed.

Floats are compared by their bits.  The script prints the counts and,
for each case family (a label up to its last ``/``) whose outputs or fits
differ, how many do and the largest absolute cell difference between
tables of one shape on the two sides.  It exits with 1 unless both trees
made the same calls with the same results and outputs.  Run it once with
a C compiler on PATH and once without, to compare both sweep kernels.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import os
import pickle
import subprocess
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
WORKLOADS = ("small_tables", "sparse_large", "family_grids", "cli_verbs")


def random_problems(n_problems, seed=0):
    """``(mask, row_margins, col_margins)`` triples, two per random support."""
    import numpy as np

    rng = np.random.default_rng(seed)
    problems = []
    while len(problems) < 2 * n_problems:
        n_rows, n_cols = (int(n) for n in rng.integers(2, 9, size=2))
        mask = rng.random((n_rows, n_cols)) < rng.uniform(0.2, 0.9)
        if mask.all() or not (mask.any(axis=1).all() and mask.any(axis=0).all()):
            continue
        problems.append((mask, np.full(n_rows, 1.0 / n_rows), np.full(n_cols, 1.0 / n_cols)))
        sub = mask & (rng.random(mask.shape) < 0.6)
        for x, y in np.argwhere(mask):  # keep one cell of every line
            if not sub[x].any() or not sub[:, y].any():
                sub[x, y] = True
        table = np.where(sub, rng.random(mask.shape) + 0.05, 0.0)
        table /= table.sum()
        problems.append((mask, table.sum(axis=1), table.sum(axis=0)))
    return problems


def canonical(value):
    """A picklable form of ``value`` that two equal outputs share, floats by their bits."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return type(value).__name__, float(value).hex()
    if isinstance(value, (np.integer, np.bool_)):
        return type(value).__name__, value.item()
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    if isinstance(value, BaseException):
        return ("raised", type(value).__name__, str(value),
                canonical(getattr(value, "diagnostics", None)),
                canonical(getattr(value, "classification", None)))
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(canonical(v) for v in value)
    if isinstance(value, dict):
        return "dict", tuple((k, canonical(v)) for k, v in value.items())
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            (f.name, canonical(getattr(value, f.name))) for f in dataclasses.fields(value))
    return "repr", type(value).__name__, repr(value)


def answer(tabcop, counts, target):
    """The ``small_tables`` answer for ``counts``, coupled to ``target``."""
    import numpy as np

    n_rows, n_cols = counts.shape
    p = tabcop.from_counts(counts)
    uniform = tabcop.MarginPair(np.full(n_rows, 1.0 / n_rows), np.full(n_cols, 1.0 / n_cols))
    cls = tabcop.classify_existence(tabcop.support(p), uniform)
    if cls.tag == "C":
        return p, cls
    cop, diag = tabcop.copula_pmf(p)
    return (p, cls, cop, diag, tabcop.odds_ratio_matrix(p), tabcop.yule_upsilon(cop),
            tabcop.couple(cop, target))


def record(n_random, seeds):
    """The sweep kernel, every classification with its count of max flows, every flow, fit and output."""
    sys.path.insert(0, PERFBENCH)
    import numpy as np

    import tabcop
    import tabcop.errors
    import tabcop.scaling
    import workloads

    original_classify = tabcop.scaling.classify_existence
    original_flow = tabcop.scaling.max_transport_flow
    original_fit = tabcop.scaling._fit
    calls, flows, fits, outputs = [], [], [], []

    def recording_flow(*args, **kwargs):
        got = original_flow(*args, **kwargs)
        cells = None if got.cell_flows is None else got.cell_flows.tobytes()
        flows.append((got.value.hex(), tuple(got.cut_rows), cells))
        return got

    def recording_classify(s, t):
        before = len(flows)
        got = original_classify(s, t)
        calls.append((s.mask.shape, s.mask.tobytes(), t.row_margins.tobytes(),
                      t.col_margins.tobytes(), got.tag, got.forced_zero_cells,
                      got.tight_rectangles, len(flows) - before))
        return got

    label = None  # the operation that is running, for the fits it makes

    def recording_fit(*args, **kwargs):
        try:
            got = original_fit(*args, **kwargs)
        except tabcop.errors.TabcopError as exc:
            fits.append((label, canonical(exc)))
            raise
        fits.append((label, canonical(got)))
        return got

    def run(name, op):
        nonlocal label
        label = name
        try:
            got = op()
        except tabcop.errors.TabcopError as exc:
            got = exc
        outputs.append((name, canonical(got)))

    tabcop.scaling.max_transport_flow = recording_flow
    tabcop.scaling._fit = recording_fit
    for module in [m for name, m in sys.modules.items() if name.startswith("tabcop")]:
        if getattr(module, "classify_existence", None) is original_classify:
            module.classify_existence = recording_classify

    rng = np.random.default_rng(1)
    for i, (mask, rt, ct) in enumerate(random_problems(n_random)):
        tabcop.classify_existence(tabcop.SupportPattern(mask), tabcop.MarginPair(rt, ct))
        counts = np.where(mask, rng.integers(1, 60, mask.shape), 0).astype(float)
        run(f"random/{i}", lambda: answer(tabcop, counts, tabcop.MarginPair(rt, ct)))
    for name in WORKLOADS:
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed)
            cases = workload.traced_cases() if name == "cli_verbs" else workload.cases
            for case in cases:
                run(f"{name}/{seed}/{case.case_id}", case.op)
    return tabcop.IPF_BACKEND, calls, flows, fits, outputs


def run_tree(src, n_random, seeds):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "calls.pickle")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, __file__, src, src, "--record", out,
                        "--random", str(n_random), "--seeds", *map(str, seeds)],
                       env=env, check=True)
        with open(out, "rb") as fh:
            return pickle.load(fh)


def differing(old, new):
    """Indices where the records differ, and whether the counts match."""
    return [i for i, (a, b) in enumerate(zip(old, new)) if a != b], len(old) == len(new)


def largest_cell_difference(old, new):
    """The largest |old - new| over the float tables of one shape in two canonical forms.

    The forms are walked side by side; None where no pair of tables of one
    shape lines up.
    """
    import numpy as np

    if not (isinstance(old, tuple) and isinstance(new, tuple) and len(old) == len(new)):
        return None
    if old[:1] == new[:1] == ("ndarray",):
        if old[1] != new[1] or old[2] != new[2] or np.dtype(old[1]).kind != "f" or len(old[2]) != 2:
            return None
        a, b = np.frombuffer(old[3], old[1]), np.frombuffer(new[3], new[1])
        return float(np.abs(a - b).max()) if a.size else 0.0
    found = [d for d in map(largest_cell_difference, old, new) if d is not None]
    return max(found) if found else None


def family_differences(old_outputs, new_outputs, old_fits, new_fits):
    """Per case family: differing outputs, differing fits and the largest cell difference."""
    rows = collections.defaultdict(lambda: [0, 0, None])
    for column, old, new in ((0, old_outputs, new_outputs), (1, old_fits, new_fits)):
        for (label, a), (_, b) in zip(old, new):
            if a == b:
                continue
            row = rows[str(label).rsplit("/", 1)[0]]
            row[column] += 1
            d = largest_cell_difference(a, b)
            if d is not None:
                row[2] = d if row[2] is None else max(row[2], d)
    return dict(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--random", type=int, default=2000)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        with open(args.record, "wb") as fh:
            pickle.dump(record(args.random, args.seeds), fh)
        return 0

    old_backend, old_calls, old_flows, old_fits, old_outputs = run_tree(
        args.old_src, args.random, args.seeds)
    new_backend, new_calls, new_flows, new_fits, new_outputs = run_tree(
        args.new_src, args.random, args.seeds)
    same = True
    tags = collections.Counter(call[4] for call in old_calls)
    print(f"sweep kernel: {old_backend} old, {new_backend} new")
    print(f"calls: {len(old_calls)} old, {len(new_calls)} new; max flows: "
          f"{sum(c[-1] for c in old_calls)} old, {sum(c[-1] for c in new_calls)} new")
    print("classes: " + ", ".join(f"{tag} {n}" for tag, n in sorted(tags.items())))
    for what, old, new in (("calls", old_calls, new_calls), ("flows", old_flows, new_flows),
                           ("fits", old_fits, new_fits), ("outputs", old_outputs, new_outputs)):
        differ, counts_match = differing(old, new)
        first = ""
        if differ:
            first = f" (first at {differ[0]}" + (
                f", {old[differ[0]][0]})" if what == "outputs" else ")")
        print(f"{what}: {len(old)} old, {len(new)} new; differing {what}: {len(differ)}{first}")
        same = same and counts_match and not differ
    for family, (n_outputs, n_fits, cells) in sorted(
            family_differences(old_outputs, new_outputs, old_fits, new_fits).items()):
        largest = "no tables of one shape" if cells is None else f"largest cell difference {cells:.3g}"
        print(f"  {family}: differing outputs {n_outputs}, differing fits {n_fits}; {largest}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
