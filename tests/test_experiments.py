import hashlib
import importlib.util
import itertools
import json
import math
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sumdiff import (
    ExperimentConfig,
    IntegerSet,
    LinearForm,
    PFamily,
    ResourceBudgetError,
    SamplerSeed,
    StatisticsSpec,
    asymptotic_bundle,
    config_from_dict,
    diffset,
    empirical_crossover,
    enumerate_exhaustive,
    form_image,
    load_config,
    p_of,
    records_to_csv,
    rep_histogram,
    repeated_gap_pairs,
    results_to_json,
    run_experiment,
    run_trial,
    sample,
    solve_threshold,
    sumset,
    tuple_statistic,
    verify_bounds,
)
from sumdiff import experiments
from sumdiff.bounds import alt_parameterization, bound_report
from sumdiff.experiments import _interpolate_half
from sumdiff.predictions import (
    alpha,
    exact_missing_sums_expectation,
    expected_tuple_count,
    g_form,
    janson_missing_diffs_bounds,
    series_partial_g,
)
from sumdiff.sampling import sample_uniforms
from sumdiff.thresholds import dominator_at


def small_config(**overrides):
    base = dict(
        n_list=(400,),
        family=PFamily.explicit(0.05),
        trials=30,
        seed=99,
        statistics=StatisticsSpec(max_k=3, forms=(LinearForm((2, -1)),), y=True),
        output="csv",
        threads=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- single trials


def test_run_trial_deterministic():
    config = small_config()
    a = run_trial(config, 400, 3)
    b = run_trial(config, 400, 3)
    assert a == b


def csv_rows(records, spec):
    """The records' CSV rows, each a dict from column name to cell text."""
    header, *lines = records_to_csv(records, spec).splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_run_trial_complement_identities():
    # each missing column of the CSV row is its image's span less its size
    config = small_config()
    records = [run_trial(config, 400, t) for t in range(5)]
    for rec, row in zip(records, csv_rows(records, config.statistics)):
        cells = {name: int(text) for name, text in row.items() if name != "p"}
        assert cells["sumset_size"] == rec.sumset_size
        assert cells["missing_sums"] == (2 * 400 + 1) - rec.sumset_size
        assert cells["missing_diffs"] == (2 * 400 + 1) - rec.diffset_size
        assert cells["form_2_-1_missing"] == 3 * 400 - rec.form_sizes[LinearForm((2, -1))]
        assert rec.y is not None and rec.y >= 0
        assert len(rec.x) == len(rec.xp) == 3


def test_run_trial_partial_sum_identity_holds():
    # N=1000, p=0.5: swamped histograms still satisfy the alternating bound
    config = small_config(
        n_list=(1000,),
        family=PFamily.explicit(0.5),
        statistics=StatisticsSpec(max_k=3),
    )
    rec = run_trial(config, 1000, 0)
    partial = rec.xp[0] - rec.xp[1] + rec.xp[2]
    assert abs((rec.diffset_size - 1) - (rec.xp[0] - rec.xp[1] + rec.xp[2])) <= rec.xp[2]
    assert rec.x and partial != 0


@pytest.mark.parametrize(
    "spec",
    [
        StatisticsSpec(max_k=4, y=True),
        StatisticsSpec(sizes=False, missing=False, y=True),
        StatisticsSpec(sizes=False, missing=False, max_k=3),
    ],
)
def test_run_trial_collisions_match_histograms(spec):
    # X_k, X'_k and Y from one profile per histogram equal the public statistics
    config = small_config(family=PFamily.explicit(0.2), statistics=spec)
    for t in range(3):
        rec = run_trial(config, 400, t)
        a = sample(400, 0.2, SamplerSeed(99, t))
        sums, diffs = rep_histogram(a, "sum"), rep_histogram(a, "diff")
        ks = range(1, spec.max_k + 1)
        assert rec.x == tuple(tuple_statistic(sums, k) for k in ks)
        assert rec.xp == tuple(tuple_statistic(diffs, k) for k in ks)
        assert rec.y == (repeated_gap_pairs(diffs) if spec.y else None)
        assert rec.sumset_size == (sumset(a).count if spec.sizes else None)
        assert rec.diffset_size == (diffset(a).count if spec.sizes else None)


_GRID_FORMS = [LinearForm(c) for c in ((1, 1), (1, -1), (2, -1), (1, 1, 1))]


@pytest.mark.parametrize(
    "sizes, missing, max_k, y",
    list(itertools.product([False, True], [False, True], [0, 2], [False, True])),
)
def test_trial_requests_each_form_once(monkeypatch, sizes, missing, max_k, y):
    # A form whose histogram is collected is requested once, as counts, and
    # its size is that histogram's support; marks come before counts.
    requested = []
    real = experiments._self_pair_sums

    def spy(a, requests):
        requested.append(list(requests))
        return real(a, requests)

    monkeypatch.setattr(experiments, "_self_pair_sums", spy)
    a = sample(300, 0.1, SamplerSeed(5))
    for r in range(len(_GRID_FORMS) + 1):
        for forms in itertools.combinations(_GRID_FORMS, r):
            spec = StatisticsSpec(sizes=sizes, missing=missing, max_k=max_k, forms=forms, y=y)
            rec = run_trial(ExperimentConfig((300,), PFamily.explicit(0.1), 1, 5, spec), 300, 0)
            (requests,) = requested
            requested.clear()
            coeffs, counts = zip(*requests) if requests else ((), ())
            assert len(set(coeffs)) == len(coeffs), spec
            assert list(counts) == sorted(counts), spec
            sized = sizes or missing
            assert rec.sumset_size == (sumset(a).count if sized else None)
            assert rec.diffset_size == (diffset(a).count if sized else None)
            assert rec.form_sizes == {f: form_image(a, f).count for f in forms}


def billion_member_trial(monkeypatch, members, spec):
    """run_trial at N = 10^9 on the given members instead of a sample, and its traced peak."""
    n = 10**9
    a = IntegerSet.from_members(np.sort(members), 0, n)
    monkeypatch.setattr(experiments, "sample", lambda *args: a)
    config = ExperimentConfig((n,), PFamily.explicit(5e-7), 1, 0, spec)
    tracemalloc.start()
    try:
        record = run_trial(config, n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return record, peak


def test_sparse_trial_at_a_billion(monkeypatch):
    # 500 members of [0, 10^9]: 100 on a grid of step 3e6, so that sums and
    # gaps collide, and 400 odd ones spread out.  Direct marks over 2e9
    # values were refused (2863 MiB over the 2 GiB budget); sorted pairs
    # take every image and histogram
    from oracles import diffset_oracle, form_image_oracle, sumset_oracle, tuple_statistic_oracle

    n, rng = 10**9, np.random.default_rng(19)
    grid = 3 * 10**6 * rng.choice(300, 100, replace=False)
    members = np.concatenate([grid, 2 * rng.choice(n // 2, 400, replace=False) + 1])
    spec = StatisticsSpec(max_k=3, y=True, forms=(LinearForm((2, -1)),))
    record, peak = billion_member_trial(monkeypatch, members, spec)
    assert peak < 16 * 2**20
    elems = sorted(members.tolist())
    sums, diffs = len(sumset_oracle(elems)), len(diffset_oracle(elems))
    form = LinearForm((2, -1))
    image = len(form_image_oracle(elems, form.coeffs))
    gaps = Counter(b - a for a, b in itertools.combinations(elems, 2))
    assert record == experiments.TrialRecord(
        n=n, p=5e-7, trial_index=0, set_size=500,
        sumset_size=sums, diffset_size=diffs, form_sizes={form: image},
        x=tuple(tuple_statistic_oracle(elems, "sum", k) for k in (1, 2, 3)),
        xp=tuple(tuple_statistic_oracle(elems, "diff", k) for k in (1, 2, 3)),
        y=sum(math.comb(r, 2) for r in gaps.values()),
    )
    assert record.x[2] > 0 and record.y > 0
    (row,) = csv_rows([record], spec)
    assert (row["missing_sums"], row["missing_diffs"]) == (str(2 * n + 1 - sums), str(2 * n + 1 - diffs))
    assert row["form_2_-1_missing"] == str(3 * n - image)


def test_sparse_kary_trial_at_a_billion(monkeypatch):
    # the k-ary images of 80 members of [0, 10^9] fold sorted pairs too
    from oracles import form_image_oracle

    n, rng = 10**9, np.random.default_rng(20)
    members = np.concatenate([3 * 10**6 * rng.choice(60, 30, replace=False),
                              2 * rng.choice(n // 2, 50, replace=False) + 1])
    forms = (LinearForm((1, 1, 1)), LinearForm((1, -2, 1)))
    record, peak = billion_member_trial(monkeypatch, members, StatisticsSpec(forms=forms))
    assert peak < 16 * 2**20
    elems = sorted(members.tolist())
    images = {f: len(form_image_oracle(elems, f.coeffs)) for f in forms}
    assert record.form_sizes == images
    (row,) = csv_rows([record], StatisticsSpec(forms=forms))
    assert row["form_1_1_1_missing"] == str(3 * n - images[forms[0]])
    assert row["form_1_-2_1_missing"] == str(4 * n - images[forms[1]])


def test_empty_trial_at_a_billion(monkeypatch):
    forms = (LinearForm((2, -1)), LinearForm((1, 1, 1)))
    spec = StatisticsSpec(max_k=2, y=True, forms=forms)
    record, peak = billion_member_trial(monkeypatch, np.array([], dtype=np.int64), spec)
    n = 10**9
    assert (record.set_size, record.sumset_size, record.diffset_size) == (0, 0, 0)
    assert record.form_sizes == dict.fromkeys(forms, 0)
    (row,) = csv_rows([record], spec)
    assert (row["missing_sums"], row["missing_diffs"]) == (str(2 * n + 1), str(2 * n + 1))
    assert (row["form_2_-1_missing"], row["form_1_1_1_missing"]) == (str(3 * n), str(3 * n))
    assert (record.x, record.xp, record.y) == ((0, 0), (0, 0), 0)
    assert peak < 2**20


def test_config_is_hashable_with_a_list_of_forms():
    # the list was kept, so hashing the frozen config raised TypeError
    spec = StatisticsSpec(forms=[LinearForm((2, -1))])
    assert spec.forms == (LinearForm((2, -1)),)
    config = ExperimentConfig((10,), PFamily.explicit(0.5), 1, 0, statistics=spec)
    assert hash(config) == hash(ExperimentConfig((10,), PFamily.explicit(0.5), 1, 0, statistics=spec))


def test_config_rejects_repeated_n():
    # each repeated trial was written twice, the same set under the same seed
    with pytest.raises(ValueError, match=r"^N = 100 is repeated in n_list \[100, 300, 100\]"):
        ExperimentConfig((100, 300, 100), PFamily.explicit(0.5), 3, 0)
    doc = {"n_list": [100, 100], "family": {"variant": "explicit", "p": 0.5}, "trials": 3}
    with pytest.raises(ValueError, match=r"^N = 100 is repeated"):
        config_from_dict(doc)


@pytest.mark.parametrize("n_list", [100, "100"], ids=["int", "str"])
def test_config_refuses_n_list_that_is_not_a_list(n_list):
    # an int raised a bare TypeError ("'int' object is not iterable"), and a
    # string was read a character at a time ("N must be an integer, got '1'")
    message = rf"^n_list must be a list or tuple of integers, got {n_list!r}$"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(n_list, PFamily.explicit(0.5), 1, 0)


def test_statistics_spec_validation():
    with pytest.raises(ValueError):
        StatisticsSpec(max_k=9)
    with pytest.raises(ValueError):
        ExperimentConfig((0,), PFamily.explicit(0.5), 10, 1)
    with pytest.raises(ValueError):
        ExperimentConfig((10,), PFamily.explicit(0.5), 0, 1)
    with pytest.raises(ValueError):
        ExperimentConfig((10,), PFamily.explicit(0.5), 10, 1, output="xml")
    with pytest.raises(ValueError):
        ExperimentConfig((10,), PFamily.explicit(0.5), 10, 1, threads=0)


# --- experiments


def test_run_experiment_worker_count_invariance():
    serial = small_config(threads=1)
    parallel = small_config(threads=2)
    recs_serial, summary_serial = run_experiment(serial)
    recs_parallel, _ = run_experiment(parallel)
    assert recs_serial == recs_parallel
    csv_serial = records_to_csv(recs_serial, serial.statistics)
    csv_parallel = records_to_csv(recs_parallel, parallel.statistics)
    assert csv_serial == csv_parallel
    assert 400 in summary_serial


def test_summary_statistics_ordering():
    config = small_config(trials=50)
    _, summary = run_experiment(config)
    stats = summary[400]
    for s in stats.values():
        assert s.min <= s.q05 <= s.q50 <= s.q95 <= s.max
        assert s.se >= 0


def test_summary_prediction_for_power_law():
    config = small_config(
        family=PFamily.power_law(1.0, 0.5),
        n_list=(2000,),
        trials=40,
        statistics=StatisticsSpec(),
    )
    _, summary = run_experiment(config)
    stats = summary[2000]
    assert stats["sumset_size"].prediction is not None
    assert stats["sumset_size"].relative_error is not None
    assert stats["set_size"].prediction == pytest.approx(2001 * p_power(2000, 0.5))


def test_summary_no_prediction_for_explicit_family():
    _, summary = run_experiment(small_config(trials=5, statistics=StatisticsSpec()))
    assert summary[400]["sumset_size"].prediction is None


def test_summary_predictions_by_column():
    f2, f3 = LinearForm((2, -1)), LinearForm((1, 1, -1))
    family = PFamily.power_law(1.0, 0.5)
    config = small_config(
        family=family, trials=3, statistics=StatisticsSpec(max_k=2, forms=(f2, f3), y=True)
    )
    _, summary = run_experiment(config)
    bundle = asymptotic_bundle(400, family, (f2,))
    assert {name: s.prediction for name, s in summary[400].items()} == {
        "set_size": 401 * bundle.p,
        "sumset_size": bundle.S_pred,
        "diffset_size": bundle.D_pred,
        "missing_sums": bundle.Sc_pred,
        "missing_diffs": bundle.Dc_pred,
        "form_2_-1_size": bundle.forms[f2][0],
        "form_2_-1_missing": bundle.forms[f2][1],
        "form_1_1_-1_size": None,
        "form_1_1_-1_missing": None,
        "x1": expected_tuple_count(400, bundle.p, 1, "sum"),
        "x2": expected_tuple_count(400, bundle.p, 2, "sum"),
        "xp1": expected_tuple_count(400, bundle.p, 1, "diff"),
        "xp2": expected_tuple_count(400, bundle.p, 2, "diff"),
        "y": expected_tuple_count(400, bundle.p, 2, "diff") / 2,
    }


def test_trial_failure_aborts_with_partial_results(monkeypatch):
    import sumdiff.experiments as exp
    from sumdiff import ExperimentAborted

    real = exp.run_trial

    def flaky(config, n, trial_index):
        if trial_index == 3:
            raise RuntimeError("synthetic trial failure")
        return real(config, n, trial_index)

    monkeypatch.setattr(exp, "run_trial", flaky)
    with pytest.raises(ExperimentAborted) as info:
        run_experiment(small_config(trials=10, threads=1))
    assert "3 of 10" in str(info.value)
    assert len(info.value.completed) == 3
    assert all(rec.trial_index < 3 for rec in info.value.completed)


@pytest.mark.parametrize("threads", [1, 2])
def test_trial_failure_names_the_trial(monkeypatch, threads):
    import sumdiff.experiments as exp
    from sumdiff import ExperimentAborted

    real = exp.run_trial

    def flaky(config, n, trial_index):
        if trial_index == 4:
            raise RuntimeError("synthetic trial failure")
        return real(config, n, trial_index)

    monkeypatch.setattr(exp, "run_trial", flaky)
    with pytest.raises(ExperimentAborted) as info:
        run_experiment(small_config(trials=40, threads=threads))
    assert "seed=99 N=400 trial_index=4: synthetic trial failure" in str(info.value)
    # two workers take chunks of 3 tasks, so the failing chunk also loses trial 3
    assert len(info.value.completed) == {1: 4, 2: 3}[threads]


def test_resource_guard_rejects_oversized_configs():
    # each kernel call is priced: the (1000, -999) image of |A| ~ 5e5 over an
    # interval ~2e9 wide costs > 5e10 and fails the first trial
    from sumdiff import ExperimentAborted

    config = small_config(
        n_list=(10**6,),
        family=PFamily.explicit(0.5),
        trials=1,
        statistics=StatisticsSpec(sizes=False, missing=False, forms=(LinearForm((1000, -999)),)),
    )
    with pytest.raises(ExperimentAborted) as info:
        run_experiment(config)
    message = str(info.value)
    assert "seed=99 N=1000000 trial_index=0:" in message
    assert "> budget 1e+10" in message
    assert info.value.completed == ()


# --- config files


def test_config_round_trip(tmp_path):
    doc = {
        "n_list": [100, 200],
        "family": {"variant": "power-law", "c": 1.0, "delta": 0.5},
        "trials": 7,
        "seed": 5,
        "statistics": {"sizes": True, "missing": True, "xk": 2, "forms": [[2, -1]], "y": True},
        "output": "json",
        "threads": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = load_config(str(path))
    assert config.n_list == (100, 200)
    assert config.family == PFamily.power_law(1.0, 0.5)
    assert config.statistics.max_k == 2
    assert config.statistics.forms == (LinearForm((2, -1)),)
    assert config.threads == 2


def test_config_rejects_repeated_form():
    doc = {
        "n_list": [300],
        "family": {"variant": "explicit", "p": 0.05},
        "trials": 2,
        "statistics": {"forms": [[2, -1], [3, 1], [2, -1]]},
    }
    with pytest.raises(ValueError, match="repeated form"):
        config_from_dict(doc)


def test_config_rejects_unknown_fields():
    good = {
        "n_list": [10],
        "family": {"variant": "explicit", "p": 0.5},
        "trials": 1,
    }
    config_from_dict(good)
    with pytest.raises(ValueError):
        config_from_dict({**good, "bogus": 1})
    with pytest.raises(ValueError):
        config_from_dict({**good, "family": {"variant": "explicit", "p": 0.5, "x": 1}})
    with pytest.raises(ValueError):
        config_from_dict({**good, "statistics": {"sizes": True, "weird": False}})
    with pytest.raises(ValueError):
        config_from_dict({**good, "family": {"variant": "other"}})


# --- output formats


_CASE_II = (LinearForm((4, -3)), LinearForm((5, -1)))


_HIST = rep_histogram(IntegerSet([0, 1, 2, 4], 0, 4), "diff")


@pytest.mark.parametrize(
    "what, call, bad, good",
    [
        ("N", lambda x: small_config(n_list=(x,)), True, 400),
        ("N", lambda x: small_config(n_list=(x,)), 10.5, 400),
        ("trials", lambda x: small_config(trials=x), 2.5, 2),
        ("seed", lambda x: small_config(seed=x), 2.9, 2),
        ("seed", lambda x: SamplerSeed(x), 2.9, 2),
        ("trial_index", lambda x: SamplerSeed(0, x), 1.0, 1),
        ("n", lambda x: empirical_crossover(*_CASE_II, x, [1.0, 2.0], 2, 0, threads=1), 100.5, 100),
        ("trials", lambda x: empirical_crossover(*_CASE_II, 100, [1.0, 2.0], x, 0, threads=1), 2.5, 2),
        ("n", lambda x: enumerate_exhaustive(x), True, 3),
        ("n", lambda x: enumerate_exhaustive(x), 3.0, 3),
        ("max_k", lambda x: StatisticsSpec(max_k=x), 2.5, 2),
        ("threads", lambda x: small_config(threads=x), True, 2),
        ("threads", lambda x: empirical_crossover(*_CASE_II, 100, [1.0, 2.0], 2, 0, threads=x), True, 1),
        ("N", lambda x: p_of(PFamily.power_law(1, 0.5), x), 10.5, 10),
        ("n", lambda x: sample(x, 0.5, SamplerSeed(0)), True, 10),
        ("n", lambda x: sample(x, 0.5, SamplerSeed(0)), 10.5, 10),
        ("m", lambda x: series_partial_g(0.1, x), 2.5, 3),
        ("u", lambda x: g_form(x, 1, 1.0), True, 2),
        ("|v|", lambda x: g_form(2, x, 1.0), True, 1),
        ("u", lambda x: alpha(x, 1), True, 2),
        ("|v|", lambda x: alpha(2, x), True, 1),
        ("k", lambda x: expected_tuple_count(100, 0.1, x, "diff"), True, 2),
        ("k", lambda x: expected_tuple_count(100, 0.1, x, "diff"), 1.5, 2),
        ("N", lambda x: expected_tuple_count(x, 0.1, 2, "diff"), 10.5, 100),
        ("n", lambda x: exact_missing_sums_expectation(x, 0.1), 10.5, 10),
        ("n", lambda x: janson_missing_diffs_bounds(x, 0.1), True, 10),
        ("N", lambda x: bound_report(1, 0.6, 0.1, x), 10.5, 100),
        ("N", lambda x: alt_parameterization(1, 0.6, x), 10.5, 100),
        ("k", lambda x: tuple_statistic(_HIST, x), True, 2),
        ("k", lambda x: tuple_statistic(_HIST, x), 2.0, 2),
        ("max_k", lambda x: StatisticsSpec(max_k=x), -1, 0),
    ],
    ids=[
        "n_list-bool", "n_list-float", "trials-float", "seed-float", "sampler-seed",
        "sampler-trial-index", "crossover-n", "crossover-trials", "enumerate-bool", "enumerate-float",
        "spec-max_k", "config-threads-bool", "crossover-threads-bool", "p_of-float", "sample-bool",
        "sample-float", "series-m", "g_form-u", "g_form-v", "alpha-u", "alpha-v", "tuple-count-bool",
        "tuple-count-float", "tuple-count-n", "missing-sums-n", "janson-n",
        "bound-report-n", "alt-bounds-n", "tuple-statistic-bool", "tuple-statistic-float",
        "spec-max_k-negative",
    ],
)
def test_counts_must_be_integers(what, call, bad, good):
    # A bool was written as N=True, a float failed inside a worker, was
    # truncated into another seed's stream or gave another count's answer;
    # a count out of range names its bound; numpy integers pass.
    with pytest.raises(ValueError, match=rf"^{re.escape(what)} must be (an integer|[<>]= \d+), got"):
        call(bad)
    call(np.int64(good))


@pytest.mark.parametrize(
    "what, call, bad, good",
    [
        ("c", lambda x: PFamily.power_law(x, 0.5), math.nan, np.float64(1.0)),
        ("c", lambda x: PFamily("power-law", c=x, delta=0.5), True, np.float64(1.0)),
        ("c", lambda x: PFamily.power_law(x, 0.5), True, np.float64(1.0)),
        ("p", lambda x: PFamily("explicit", p=x), "0.5", np.float64(0.5)),
        ("p", lambda x: PFamily.explicit(x), "0.5", np.float64(0.5)),
        ("p", lambda x: sample(10, x, SamplerSeed(0)), "0.5", np.float64(0.5)),
        ("p", lambda x: expected_tuple_count(100, x, 2, "diff"), math.nan, np.float64(0.1)),
        ("p", lambda x: exact_missing_sums_expectation(10, x), "0.1", np.float64(0.1)),
        ("p", lambda x: janson_missing_diffs_bounds(10, x), "0.1", np.float64(0.1)),
        ("c", lambda x: bound_report(x, 0.6, 0.1, 100), math.nan, np.float64(1.0)),
        ("c", lambda x: bound_report(x, 0.6, 0.1, 100), math.inf, np.float64(1.0)),
        ("c", lambda x: alt_parameterization(x, 0.6, 100), math.nan, np.float64(1.0)),
        ("c", lambda x: dominator_at(*_CASE_II, x), math.nan, np.float64(1.0)),
        ("c", lambda x: dominator_at(*_CASE_II, x), math.inf, np.float64(1.0)),
        ("sizes", lambda x: StatisticsSpec(sizes=x), 1, np.False_),
        ("missing", lambda x: StatisticsSpec(missing=x), None, np.True_),
        ("y", lambda x: StatisticsSpec(y=x), "no", np.True_),
        ("forms", lambda x: StatisticsSpec(forms=x), ((2, -1),), (LinearForm((2, -1)),)),
        ("forms", lambda x: StatisticsSpec(forms=x), LinearForm((2, -1)), [LinearForm((2, -1))]),
        ("family", lambda x: small_config(family=x), "junk", PFamily.explicit(0.5)),
        ("statistics", lambda x: small_config(statistics=x), "x", StatisticsSpec()),
        ("delta", lambda x: PFamily("power-law", c=1.0, delta=x), "0.5", np.float64(0.5)),
        ("delta", lambda x: PFamily("power-law", c=1.0, delta=x), True, np.float64(0.5)),
        ("delta", lambda x: PFamily.power_law(1.0, x), "0.5", np.float64(0.5)),
        ("delta", lambda x: PFamily.power_law(1.0, x), True, np.float64(0.5)),
        ("delta", lambda x: bound_report(1.0, x, 0.1, 100), "0.6", np.float64(0.6)),
        ("delta", lambda x: bound_report(1.0, x, 0.1, 100), True, np.float64(0.6)),
        ("delta", lambda x: alt_parameterization(1.0, x, 100), "0.6", np.float64(0.6)),
        ("delta", lambda x: alt_parameterization(1.0, x, 100), True, np.float64(0.6)),
        ("g_exp", lambda x: bound_report(1.0, 0.6, x, 100), "0.1", np.float64(0.1)),
        ("g_exp", lambda x: bound_report(1.0, 0.6, x, 100), True, np.float64(0.1)),
        ("g_exp", lambda x: bound_report(1.0, 0.6, x, 100), math.nan, np.float64(0.1)),
        ("c", lambda x: empirical_crossover(*_CASE_II, 10**4, [x, 2.0], 2, 0, threads=1), "0.9", np.float64(0.9)),
        ("c", lambda x: empirical_crossover(*_CASE_II, 10**4, [x, 2.0], 2, 0, threads=1), True, np.float64(0.9)),
    ],
    ids=[
        "power-law-c-nan", "family-c-bool", "power-law-c-bool", "family-p-str", "explicit-p-str", "sample-p-str", "tuple-count-p-nan",
        "missing-sums-p-str", "janson-p-str", "bound-report-c-nan", "bound-report-c-inf",
        "alt-bounds-c-nan", "dominator-c-nan", "dominator-c-inf", "spec-sizes-int",
        "spec-missing-none", "spec-y-str", "spec-forms-tuples", "spec-forms-form", "config-family-str",
        "config-statistics-str", "family-delta-str", "family-delta-bool",
        "power-law-delta-str", "power-law-delta-bool", "bound-report-delta-str", "bound-report-delta-bool",
        "alt-bounds-delta-str", "alt-bounds-delta-bool", "bound-report-g_exp-str", "bound-report-g_exp-bool",
        "bound-report-g_exp-nan", "crossover-grid-str", "crossover-grid-bool",
    ],
)
def test_rates_and_flags_must_be_in_range(what, call, bad, good):
    # NaN and infinite rates gave NaN bounds or the wrong dominator, a
    # string flag was truthy, a string delta or g_exp ended in a TypeError,
    # a bool delta was kept and a string family or statistics failed later;
    # numpy reals and bools pass.
    with pytest.raises(ValueError, match=rf"^{re.escape(what)} must (be|hold) "):
        call(bad)
    call(good)


def test_csv_shape_and_formatting():
    config = small_config(trials=4)
    records, _ = run_experiment(config)
    text = records_to_csv(records, config.statistics)
    lines = text.split("\n")
    assert lines[0] == (
        "schema_version,N,p,trial_index,set_size,sumset_size,diffset_size,"
        "missing_sums,missing_diffs,form_2_-1_size,form_2_-1_missing,"
        "x1,x2,x3,xp1,xp2,xp3,y"
    )
    assert len(lines) == 1 + 4 + 1  # header + records + trailing newline
    assert lines[-1] == ""
    first = lines[1].split(",")
    assert first[0] == "1"  # schema version
    assert first[2] == "0.050000000000000003"  # 17 significant digits of 0.05
    assert "\r" not in text


def test_csv_golden_digest():
    # every column kind: sizes, missing, difference/sum/k-ary forms, x_k, xp_k, y
    forms = (LinearForm((2, -1)), LinearForm((1, 1)), LinearForm((1, 1, -1)))
    spec = StatisticsSpec(max_k=2, forms=forms, y=True)
    config = ExperimentConfig(
        (300, 500), PFamily.power_law(1.0, 0.5), trials=3, seed=11, statistics=spec, threads=1
    )
    records, _ = run_experiment(config)
    digest = hashlib.sha256(records_to_csv(records, spec).encode()).hexdigest()
    assert digest == "15617d39d4b6c7f19041e85d659128e7906c088403a3655023cc5790a56e9d6f"


def test_json_structure():
    config = small_config(trials=3, output="json")
    records, summary = run_experiment(config)
    doc = json.loads(results_to_json(records, summary, config, 1.23))
    assert doc["schema_version"] == "1"
    assert doc["metadata"]["seed"] == 99
    assert doc["metadata"]["generator"] == "philox4x64"
    assert doc["metadata"]["wall_time_s"] == 1.23
    assert len(doc["records"]) == 3
    rec = doc["records"][0]
    assert rec["N"] == 400 and rec["trial_index"] == 0
    assert "400" in doc["summary"]
    assert "sumset_size" in doc["summary"]["400"]


@pytest.mark.parametrize(
    "spec",
    [
        StatisticsSpec(sizes=True, missing=False),
        StatisticsSpec(sizes=False, missing=True),
        StatisticsSpec(sizes=False, missing=False, forms=(LinearForm((2, -1)),)),
        StatisticsSpec(sizes=False, missing=False, max_k=2, y=True),
        StatisticsSpec(max_k=3, forms=(LinearForm((2, -1)), LinearForm((1, 1, -1))), y=True),
    ],
)
def test_summary_keys_match_record_columns(spec):
    config = small_config(trials=3, statistics=spec, output="json")
    records, summary = run_experiment(config)
    doc = json.loads(results_to_json(records, summary, config, 0.0))
    keys = ("schema_version", "N", "p", "trial_index")
    assert list(doc["summary"]["400"]) == [c for c in doc["records"][0] if c not in keys]


# --- exhaustive enumeration


def test_enumerate_tiny_interval():
    counts = enumerate_exhaustive(2)
    assert sum(counts.values()) == 8
    assert counts == {"sum_dominated": 0, "balanced": 8, "difference_dominated": 0}


def test_enumerate_counts_sum_to_power_of_two():
    counts = enumerate_exhaustive(6)
    assert sum(counts.values()) == 2**7
    assert counts["sum_dominated"] == 0  # none exist this small


def test_enumerate_rejects_above_cap():
    with pytest.raises(ResourceBudgetError):
        enumerate_exhaustive(27)


@pytest.mark.parametrize("n", range(13))
def test_enumerate_matches_oracle(n):
    from oracles import enumerate_oracle

    assert enumerate_exhaustive(n) == enumerate_oracle(n)


@pytest.mark.parametrize("low_bits", [1, 4])
def test_enumerate_batch_split_matches_oracle(monkeypatch, low_bits):
    # below N = 14 every set's high part is just its maximum; narrow the
    # batches so that high parts with several members are checked too
    import sumdiff.experiments as exp
    from oracles import enumerate_oracle

    monkeypatch.setattr(exp, "_LOW_BITS", low_bits)
    for n in range(11):
        assert enumerate_exhaustive(n) == enumerate_oracle(n)


def test_enumerate_matches_per_subset_classification():
    from collections import Counter

    from oracles import subsets
    from sumdiff import classify, make_set

    labels = Counter(classify(make_set(sub, 0, 5)).label for sub in subsets(range(6)))
    counts = enumerate_exhaustive(5)
    assert counts["balanced"] == labels["balanced"]
    assert counts["difference_dominated"] == labels["difference-dominated"]
    assert counts["sum_dominated"] == labels["sum-dominated"]


# --- crossover


def test_crossover_requires_case_ii():
    with pytest.raises(ValueError):
        empirical_crossover(
            LinearForm((2, -1)), LinearForm((1, -1)), 10**4, [0.5, 1.0], 10, 0
        )


def test_crossover_grid_validation():
    f, g = LinearForm((4, -3)), LinearForm((5, -1))
    with pytest.raises(ValueError):
        empirical_crossover(f, g, 10**4, [1.0], 10, 0)
    with pytest.raises(ValueError):
        empirical_crossover(f, g, 10**4, [2.0, 1.0], 10, 0)
    with pytest.raises(ValueError, match=r"^c must be a number in \(0, 10\), got 11.0$"):
        empirical_crossover(f, g, 100, [1.0, 11.0], 10, 0)
    for grid in ([1.0, math.nan], [math.nan, 1.0]):  # NaN compares false either way
        with pytest.raises(ValueError, match=r"^c must be a number in \(0, 100\), got nan$"):
            empirical_crossover(f, g, 10**4, grid, 10, 0)


def test_crossover_grid_refuses_a_repeated_point():
    # [1, 1] ran both points and printed c=1 twice
    f, g = LinearForm((4, -3)), LinearForm((5, -1))
    for grid in ([1.0, 1.0], [0.5, 2.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match=rf"^c = {grid[-2]:g} is repeated in c_grid$"):
            empirical_crossover(f, g, 10**4, grid, 2, 0)


def test_interpolate_half_keeps_a_grid_point_at_one_half():
    assert _interpolate_half([1.0, 2.0, 3.0], [0.2, 0.5, 0.8]) == 2.0


def test_crossover_inconclusive_when_grid_misses():
    f, g = LinearForm((4, -3)), LinearForm((5, -1))
    result = empirical_crossover(f, g, 10**4, [0.05, 0.1], trials=60, seed=1)
    assert result.crossover is None
    assert all(freq < 0.5 for freq in result.frequencies)


def test_crossover_spans_threshold_at_moderate_n():
    f, g = LinearForm((4, -3)), LinearForm((5, -1))
    root = solve_threshold(f, g)
    result = empirical_crossover(
        f, g, 10**4, [root / 20, root * 6, root * 20], trials=80, seed=3
    )
    assert result.frequencies[0] < 0.5 < result.frequencies[-1]
    assert result.crossover is not None
    assert result.c_grid[0] < result.crossover < result.c_grid[-1]


CROSSOVER_FORMS = (LinearForm((4, -3)), LinearForm((5, -1)))


@pytest.mark.parametrize("threads", [1, 2])
def test_crossover_failure_names_the_trial(monkeypatch, threads):
    import sumdiff.experiments as exp
    from sumdiff import ExperimentAborted

    real = exp._crossover_trial

    def flaky(forms, n, ps, seed, trial_index):
        if trial_index == 4:
            raise RuntimeError("synthetic crossover failure")
        return real(forms, n, ps, seed, trial_index)

    monkeypatch.setattr(exp, "_crossover_trial", flaky)
    with pytest.raises(ExperimentAborted) as info:
        empirical_crossover(*CROSSOVER_FORMS, 2000, [0.5, 2.0], 10, seed=7, threads=threads)
    assert "seed=7 N=2000 trial_index=4: synthetic crossover failure" in str(info.value)


def test_crossover_over_memory_budget_is_refused_before_drawing(monkeypatch):
    # (4,-3)'s widest class of marks at N = 10^7 takes 10^7 + 3*(10^7 // 4)
    # + 1 bytes, 17 MiB: over a 1 MB budget, the crossover is refused before
    # its first trial draws 10^7 words, not inside that trial
    from sumdiff import sets

    def forbidden(*args, **kwargs):
        raise AssertionError("nothing may be sampled or started before the check")

    monkeypatch.setattr(sets, "PAIR_MEMORY_BUDGET", 10**6)
    monkeypatch.setattr(experiments, "_nested_draw", forbidden)
    monkeypatch.setattr(experiments, "_run_tasks", forbidden)
    with pytest.raises(ResourceBudgetError, match=r"^a class of \(4, -3\)'s marks at N = 10000000 needs 17 MiB"):
        empirical_crossover(*CROSSOVER_FORMS, 10**7, [0.8, 1.0], 1, seed=0, threads=1)


def test_crossover_matches_fresh_images():
    # every grid point's sets and images built from scratch, as a brute-force check
    n, grid, trials, seed = 3000, [0.3, 1.0, 3.0, 8.0], 6, 5
    wins = [0] * len(grid)
    for t in range(trials):
        uniforms = sample_uniforms(n, SamplerSeed(seed, t))
        for j, c in enumerate(grid):
            a = IntegerSet.from_members(np.flatnonzero(uniforms < c / math.sqrt(n)), 0, n)
            f, g = (form_image(a, form).count for form in CROSSOVER_FORMS)
            wins[j] += f > g
    for threads in (1, 2):
        result = empirical_crossover(*CROSSOVER_FORMS, n, grid, trials, seed, threads=threads)
        assert result.frequencies == tuple(w / trials for w in wins)


def test_crossover_rejects_bad_threads():
    for threads in (0, "two"):
        with pytest.raises(ValueError, match="threads"):
            empirical_crossover(*CROSSOVER_FORMS, 2000, [0.5, 2.0], 4, 0, threads=threads)


# --- bound verification


def test_kary_form_probe_tracks_conjectured_scaling():
    # ternary form through the harness, in the window where the image is
    # nearly injective ((Np)^k = o(N) needs delta > (k-1)/k, not just 1/k):
    # the mean image size tracks (Np)^k / theta
    from sumdiff import conjecture_prediction

    form = LinearForm((1, 1, -1))
    n = 30000
    config = ExperimentConfig(
        n_list=(n,),
        family=PFamily.power_law(1.0, 0.75),
        trials=40,
        seed=5,
        statistics=StatisticsSpec(sizes=False, missing=False, forms=(form,)),
        threads=1,
    )
    records, _ = run_experiment(config)
    sizes = [r.form_sizes[form] for r in records]
    missing = [int(row["form_1_1_-1_missing"]) for row in csv_rows(records, config.statistics)]
    assert all(m + s == 3 * n for m, s in zip(missing, sizes))
    pred = conjecture_prediction(form, n, config.family)
    assert pred.quantity == "image-size"
    mean = sum(sizes) / len(sizes)
    assert 0.7 * pred.value <= mean <= 1.3 * pred.value


def test_verify_bounds_small_run():
    check = verify_bounds(1.0, 0.6, 0.2, 1000, trials=400, seed=17)
    assert check.ok
    assert check.card_violation_rate <= check.report.P1
    assert check.y_violation_rate <= check.report.P2
    # the rates of a serial loop over the same trials: sample, difference
    # histogram, repeated gap pairs
    lo, hi = check.report.card_interval
    p = p_of(PFamily.power_law(1.0, 0.6), 1000)
    card_out = y_out = 0
    for t in range(400):
        a = sample(1000, p, SamplerSeed(17, t))
        card_out += not lo <= a.count <= hi
        y_out += repeated_gap_pairs(rep_histogram(a, "diff")) > check.report.Y_threshold
    assert check.card_violation_rate == card_out / 400 > 0
    assert check.y_violation_rate == y_out / 400


def test_verify_bounds_propagates_parameter_errors():
    with pytest.raises(ValueError):
        verify_bounds(1.0, 0.8, 0.6, 1000, trials=10, seed=0)
    with pytest.raises(ValueError):
        verify_bounds(1.0, 0.6, 0.2, 1000, trials=0, seed=0)


def p_power(n, delta, c=1.0):
    return c * n**-delta


def test_benchmark_trace_hooks_resolve(monkeypatch):
    # perfbench/layers.py wraps package attributes by name for `--trace 1`;
    # each must still exist where it looks, or the traced run dies
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)
    spec.loader.exec_module(layers)
    import sumdiff.cli  # noqa: F401  (layers wraps attributes of sumdiff.cli too)

    tracer = layers.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == 0
    for module_name, attr, _, _ in layers.TRACED:
        owner = sumdiff.sets.IntegerSet if module_name.endswith(".IntegerSet") else sys.modules[module_name]
        assert callable(getattr(owner, attr)), (module_name, attr)
