"""Compare the feasibility classifier of two source trees, case by case.

Usage::

    python tools/compare_classify.py OLD_SRC NEW_SRC [--random N] [--seeds 1 2 3]

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts.
Each tree runs in its own process and records every
``classify_existence`` call: its support and margins, the class it
returned (tag, forced cells and tight rectangles, in order) and the
number of max flows it ran.  The calls are those of

* ``N`` random supports of 2 x 2 to 8 x 8 cells (default 2,000), each
  at uniform margins and at the margins of a random table on a random
  sub-support that still meets every row and column;
* one pass over every case of the ``small_tables``, ``sparse_large``
  and ``family_grids`` benchmark workloads at each seed.

The script prints the counts and exits with 1 unless both trees made the
same calls with the same results.
"""

from __future__ import annotations

import argparse
import collections
import os
import pickle
import subprocess
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
WORKLOADS = ("small_tables", "sparse_large", "family_grids")


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


def record(n_random, seeds):
    """Every classification this tree makes, with its count of max flows."""
    sys.path.insert(0, PERFBENCH)
    import tabcop
    import tabcop.errors
    import tabcop.scaling
    import workloads

    original_classify = tabcop.scaling.classify_existence
    original_flow = tabcop.scaling.max_transport_flow
    calls, flows = [], [0]

    def counting_flow(*args, **kwargs):
        flows[0] += 1
        return original_flow(*args, **kwargs)

    def recording_classify(s, t):
        flows[0] = 0
        got = original_classify(s, t)
        calls.append((s.mask.shape, s.mask.tobytes(), t.row_margins.tobytes(),
                      t.col_margins.tobytes(), got.tag, got.forced_zero_cells,
                      got.tight_rectangles, flows[0]))
        return got

    tabcop.scaling.max_transport_flow = counting_flow
    for module in [m for name, m in sys.modules.items() if name.startswith("tabcop")]:
        if getattr(module, "classify_existence", None) is original_classify:
            module.classify_existence = recording_classify

    for mask, rt, ct in random_problems(n_random):
        tabcop.classify_existence(tabcop.SupportPattern(mask), tabcop.MarginPair(rt, ct))
    for name in WORKLOADS:
        for seed in seeds:
            for case in workloads.WORKLOADS[name](seed).cases:
                try:
                    case.op()
                except tabcop.errors.TabcopError:  # compared through its calls
                    pass
    return calls


def run_tree(src, n_random, seeds):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "calls.pickle")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, __file__, src, src, "--record", out,
                        "--random", str(n_random), "--seeds", *map(str, seeds)],
                       env=env, check=True)
        with open(out, "rb") as fh:
            return pickle.load(fh)


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

    old = run_tree(args.old_src, args.random, args.seeds)
    new = run_tree(args.new_src, args.random, args.seeds)
    differ = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    tags = collections.Counter(call[4] for call in old)
    print(f"calls: {len(old)} old, {len(new)} new; max flows: "
          f"{sum(c[-1] for c in old)} old, {sum(c[-1] for c in new)} new")
    print("classes: " + ", ".join(f"{tag} {n}" for tag, n in sorted(tags.items())))
    print(f"differing calls: {len(differ)}" + (f" (first at {differ[0]})" if differ else ""))
    return 0 if len(old) == len(new) and not differ else 1


if __name__ == "__main__":
    sys.exit(main())
