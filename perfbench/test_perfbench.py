"""Self-tests of the benchmark: determinism, the oracle, metric names.

Run from the repository root:  python -m pytest perfbench
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import speed  # noqa: E402
import tabcop  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_cases(name):
    first, second = workloads.WORKLOADS[name](7), workloads.WORKLOADS[name](7)
    assert [c.case_id for c in first.cases] == [c.case_id for c in second.cases]
    assert first.sizes == second.sizes


def _traced_counts(seed):
    """Count metrics and failures of one traced pass over a slice of small_tables."""
    workload = workloads.SmallTables(seed)
    keep = [c for c in workload.cases if c.case_id.startswith("table/")][:60]
    keep += [c for c in workload.cases
             if c.case_id in ("near_tight/forest/gap=0.01", "near_tight/forest/gap=1e-10")]
    outcomes, samples = [], []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        worker.run_pass(keep, outcomes, samples)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, sum(samples))
    verdict = worker.judge(workload, outcomes)
    counts = {k: v for k, v in metrics.items()
              if k.startswith("feasibility.n_") or k in ("fit.sweeps", "fit.calls", "fit.nonconverged")}
    return counts, verdict["failed"], verdict["oracle_mismatch"]


def test_same_seed_same_counts():
    first, second = _traced_counts(3), _traced_counts(3)
    assert first == second
    counts, failed, mismatches = first
    assert counts["fit.sweeps"] > 0 and counts["fit.nonconverged"] == 1
    assert failed == 1 and mismatches == 1  # the 1e-10 boundary case, classified B2


def test_tracer_restores_the_package():
    before = tabcop.scaling.classify_existence
    tracer = tracing.Tracer()
    tracer.install()
    assert tabcop.scaling.classify_existence is not before
    tracer.uninstall()
    assert tabcop.scaling.classify_existence is before
    assert tabcop.classify_existence is before


def test_oracle_agrees_on_all_3x3_masks():
    uniform = workloads.uniform_pair(3, 3)
    checked = 0
    for bits in range(1, 1 << 9):
        mask = np.array([(bits >> i) & 1 for i in range(9)], dtype=bool).reshape(3, 3)
        if not (mask.any(axis=0).all() and mask.any(axis=1).all()):
            continue
        tag, forced = oracle.rectangle_class(mask)
        got = tabcop.classify_existence(tabcop.SupportPattern(mask), uniform)
        assert (got.tag, frozenset(got.forced_zero_cells)) == (tag, forced), mask
        checked += 1
    assert checked == 265


def test_metric_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))


def test_traced_metrics_match_the_spec():
    produced = set(tracing.layer_metrics([], 1.0)) | {
        "feasibility.oracle_mismatch", "cli.interp_ms", "cli.import_ms", "trace.overhead"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_tail_level_leaves_ten_samples_beyond():
    for n in (20, 26, 40, 500, 1000, 20000):
        level = worker.tail_level(n)
        assert n * (100.0 - level) / 100.0 >= 10
        higher = [lv for lv in worker.TAIL_LEVELS if lv > level]
        assert all(n * (100.0 - lv) / 100.0 < 10 for lv in higher)


def test_harrell_davis_quantiles():
    assert worker.hd_quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    assert worker.hd_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    values = list(range(100))
    assert worker.hd_quantile(values, 0.9) == pytest.approx(89.1, abs=0.5)


def test_metrics_use_each_cases_median_over_one_pass():
    # case "a" has one slow run; its median, not the outlier, stands for it
    samples = [1.0, 1.0, 9.0, 2.0, 2.0, 2.0]
    ids = ["a", "a", "a", "b", "b", "b"]
    metrics = worker.timing_metrics(samples, ids, ["a", "b"], 50.0)
    assert metrics["call_p50_ms"] == pytest.approx(1500.0)
    assert metrics["cases_per_s"] == pytest.approx(2 / 3.0)
    # a case twice in a pass weighs twice
    metrics = worker.timing_metrics(samples, ids, ["a", "a", "b"], 50.0)
    assert metrics["cases_per_s"] == pytest.approx(3 / 4.0)


def test_case_ids_name_one_case_each():
    for name, make in workloads.WORKLOADS.items():
        cases = make(5).cases
        by_id = {}
        for case in cases:
            assert by_id.setdefault(case.case_id, case) is case, (name, case.case_id)


def test_speed_factor_is_the_window_median():
    log = speed.SpeedLog(0.0)
    log.times = [0.0, 1.0, 2.0, 3.0, 20.0, 40.0]
    log.values = [2.0, 1.0, 4.0, 2.0, 8.0, 1.0]
    ref = speed.REFERENCE_S
    assert log.factor(1.5) == pytest.approx(ref / 2.0)  # median of the first four
    # no sample within the window: the ones on each side
    assert log.factor(30.0) == pytest.approx(ref / 4.5)


def test_sparse_cases_take_turns_over_their_supports():
    workload = workloads.SparseLarge(5)
    big = [c for c in workload.cases if c.case_id.startswith("80x80/")]
    assert len(big) == 1
    assert [big[0].op()[0] for _ in range(4)] == [0, 1, 2, 0]
