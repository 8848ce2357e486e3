"""End-to-end verification gates.

Each test prints one PASS/FAIL line with its measured quantities and
elapsed time.  All Monte Carlo runs use pinned seeds, so every gate is
deterministic.  Gate 4 checks the sparse regime at finite N: its ratio
target is the collision-free ratio averaged over the binomial set size,
not the N -> oo limit 2.
"""

import math
import time

import numpy as np
import pytest

from sumdiff import (
    ExperimentConfig,
    LinearForm,
    PFamily,
    StatisticsSpec,
    classify,
    classify_pair,
    empirical_crossover,
    enumerate_exhaustive,
    exact_missing_sums_expectation,
    g_form,
    g_ratio,
    janson_missing_diffs_bounds,
    make_set,
    rep_histogram,
    run_experiment,
    sample,
    solve_threshold,
    sumset,
    diffset,
    tuple_statistic,
    verify_bounds,
)
from sumdiff.predictions import alpha
from sumdiff.sampling import SamplerSeed

from oracles import (
    diffset_oracle,
    expected_collision_free_ratio,
    sumset_oracle,
    tuple_statistic_oracle,
)

MILLION = 10**6


def _report(num: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} ({time.perf_counter() - started:.1f}s) {detail}")


@pytest.fixture(scope="module")
def dense_records():
    """Shared Monte Carlo run at (N=10^4, p=1/2): 10^3 trials of sizes."""
    config = ExperimentConfig(
        n_list=(10**4,),
        family=PFamily.explicit(0.5),
        trials=1000,
        seed=20260809,
        statistics=StatisticsSpec(sizes=True, missing=True),
        threads="auto",
    )
    records, _ = run_experiment(config)
    return records


def test_criterion_01_exhaustive_enumeration():
    started = time.perf_counter()
    t13 = time.perf_counter()
    counts13 = enumerate_exhaustive(13)
    elapsed13 = time.perf_counter() - t13
    counts14 = enumerate_exhaustive(14)
    famous = classify(make_set([0, 2, 3, 4, 7, 11, 12, 14], 0, 14))
    ok = (
        counts13["sum_dominated"] == 0
        and elapsed13 < 10.0
        and counts14["sum_dominated"] >= 1
        and famous.label == "sum-dominated"
    )
    _report(
        1,
        ok,
        f"I13 sum-dominated={counts13['sum_dominated']} in {elapsed13:.1f}s; "
        f"I14 sum-dominated={counts14['sum_dominated']}; "
        f"{{0,2,3,4,7,11,12,14}} -> {famous.label}",
        started,
    )
    assert counts13["sum_dominated"] == 0
    assert elapsed13 < 10.0
    assert counts14["sum_dominated"] >= 1
    assert famous.label == "sum-dominated"


def test_criterion_02_exact_missing_sums_expectation(dense_records):
    started = time.perf_counter()
    exact = exact_missing_sums_expectation(10**4, 0.5)
    missing = np.array([2 * r.n + 1 - r.sumset_size for r in dense_records], dtype=float)
    se = missing.std(ddof=1) / math.sqrt(missing.size)
    gap = abs(missing.mean() - exact)
    ok = abs(exact - 10.0) < 1e-6 and gap <= 4 * se
    _report(
        2,
        ok,
        f"exact E[Sc]={exact:.9f} (target 10); MC mean={missing.mean():.3f} "
        f"gap={gap:.3f} vs 4*SE={4 * se:.3f}",
        started,
    )
    assert abs(exact - 10.0) < 1e-6
    assert gap <= 4 * se


def test_criterion_03_janson_bracket(dense_records):
    # The bounds at p = 1/2 differ only at 1e-9, far below Monte Carlo
    # resolution, so the bracket check allows the mean's 4*SE either side.
    started = time.perf_counter()
    lower, upper = janson_missing_diffs_bounds(10**4, 0.5)
    missing = np.array([2 * r.n + 1 - r.diffset_size for r in dense_records], dtype=float)
    se = missing.std(ddof=1) / math.sqrt(missing.size)
    mean = missing.mean()
    in_bracket = lower - 4 * se <= mean <= upper + 4 * se
    near_six = abs(lower - 6.0) < 0.2 and abs(upper - 6.0) < 0.2
    ok = in_bracket and near_six
    _report(
        3,
        ok,
        f"bounds=[{lower:.6f}, {upper:.6f}] MC mean={mean:.3f} (SE {se:.3f})",
        started,
    )
    assert near_six
    assert in_bracket


def test_criterion_04_sparse_regime():
    """Sparse regime p = o(N^-1/2): almost all sums and differences distinct.

    The paper's "|A-A| about twice |A+A|" is the N -> oo limit.  At N = 10^6,
    p = N^-0.7 the set has about 63 members, and a set without collisions has
    D/S = r(|A|) = 2 - 4/|A| + O(|A|^-2), about 1.937, so the ratio is checked
    against E[r(|A|)] under |A| ~ Binomial(N+1, p), and the distinctness
    itself is checked per trial.
    """
    started = time.perf_counter()
    seed = 20260804
    p = MILLION**-0.7
    config = ExperimentConfig(
        n_list=(MILLION,),
        family=PFamily.power_law(1.0, 0.7),
        trials=100,
        seed=seed,
        statistics=StatisticsSpec(sizes=True, missing=False),
        threads="auto",
    )
    records, _ = run_experiment(config)
    for r in records[:5]:
        elems = sample(MILLION, p, SamplerSeed(seed, r.trial_index)).members().tolist()
        assert r.set_size == len(elems)
        assert r.sumset_size == len(sumset_oracle(elems))
        assert r.diffset_size == len(diffset_oracle(elems))
    k = np.array([r.set_size for r in records], dtype=float)
    s = np.array([r.sumset_size for r in records], dtype=float)
    d = np.array([r.diffset_size for r in records], dtype=float)
    ratio_mean = (d / s).mean()
    target = expected_collision_free_ratio(MILLION + 1, p)
    distinct_sums = (s / (k * (k + 1) / 2)).mean()
    distinct_diffs = (d / (k * (k - 1) + 1)).mean()
    scaled_s = s.mean() * 2 / (MILLION * p) ** 2
    ratio_ok = abs(ratio_mean - target) <= 0.04
    distinct_ok = distinct_sums >= 0.99 and distinct_diffs >= 0.99
    size_ok = 0.93 <= scaled_s <= 1.07
    _report(
        4,
        ratio_ok and distinct_ok and size_ok,
        f"mean(D/S)={ratio_mean:.4f} vs E[r(|A|)]={target:.4f} (+-0.04; "
        f"{2 - target:.4f} below the limit 2); distinct sums={distinct_sums:.4f}, "
        f"diffs={distinct_diffs:.4f} (>= 0.99); "
        f"mean(S)*2/(Np)^2={scaled_s:.4f} (window [0.93, 1.07])",
        started,
    )
    assert size_ok
    assert ratio_ok
    assert distinct_ok


def test_criterion_05_threshold_regime():
    started = time.perf_counter()
    config = ExperimentConfig(
        n_list=(MILLION,),
        family=PFamily.power_law(1.0, 0.5),
        trials=100,
        seed=20260805,
        statistics=StatisticsSpec(sizes=True, missing=False),
        threads="auto",
    )
    records, _ = run_experiment(config)
    s_over_n = np.mean([r.sumset_size for r in records]) / MILLION
    d_over_n = np.mean([r.diffset_size for r in records]) / MILLION
    target_s = g_ratio(0.5)
    target_d = g_ratio(1.0)
    ok_s = abs(s_over_n / target_s - 1) < 0.02
    ok_d = abs(d_over_n / target_d - 1) < 0.02
    _report(
        5,
        ok_s and ok_d,
        f"mean(S)/N={s_over_n:.6f} vs g(1/2)={target_s:.6f}; "
        f"mean(D)/N={d_over_n:.6f} vs g(1)={target_d:.6f} (2% windows)",
        started,
    )
    assert ok_s and ok_d


def test_criterion_06_dense_regime():
    started = time.perf_counter()
    config = ExperimentConfig(
        n_list=(MILLION,),
        family=PFamily.power_law(1.0, 0.3),
        trials=50,
        seed=20260806,
        statistics=StatisticsSpec(sizes=True, missing=True),
        threads="auto",
    )
    records, _ = run_experiment(config)
    p = MILLION**-0.3
    sc = np.array([2 * r.n + 1 - r.sumset_size for r in records], dtype=float)
    dc = np.array([2 * r.n + 1 - r.diffset_size for r in records], dtype=float)
    scaled = sc.mean() * p * p / 4
    ratio = sc.mean() / dc.mean()
    ok = 0.95 <= scaled <= 1.05 and 1.9 <= ratio <= 2.1
    _report(
        6,
        ok,
        f"mean(Sc)*p^2/4={scaled:.4f} (window [0.95, 1.05]); "
        f"mean(Sc)/mean(Dc)={ratio:.4f} (window [1.9, 2.1])",
        started,
    )
    assert 0.95 <= scaled <= 1.05
    assert 1.9 <= ratio <= 2.1


def test_criterion_07_form_missing_count():
    started = time.perf_counter()
    form = LinearForm((2, -1))
    config = ExperimentConfig(
        n_list=(MILLION,),
        family=PFamily.power_law(1.0, 0.3),
        trials=50,
        seed=20260807,
        statistics=StatisticsSpec(sizes=False, missing=False, forms=(form,)),
        threads="auto",
    )
    records, _ = run_experiment(config)
    p = MILLION**-0.3
    dfc = np.array([form.weight * r.n - r.form_sizes[form] for r in records], dtype=float)
    scaled = dfc.mean() * p * p / (2 * 2 * 1)
    ok = 0.95 <= scaled <= 1.05
    _report(7, ok, f"mean(Dfc)*p^2/(2u|v|)={scaled:.4f} (window [0.95, 1.05])", started)
    assert ok


def test_criterion_08_sharp_threshold_crossover():
    started = time.perf_counter()
    f, g = LinearForm((4, -3)), LinearForm((5, -1))
    report = classify_pair(f, g)
    assert report.case == "case-ii"
    root = solve_threshold(f, g)
    grid = [root * fac for fac in (0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3)]
    result = empirical_crossover(f, g, MILLION, grid, trials=200, seed=20260808)
    ok = result.crossover is not None and abs(result.crossover - root) <= 0.10 * root
    freqs = ", ".join(f"{fr:.3f}" for fr in result.frequencies)
    _report(
        8,
        ok,
        f"root={root:.6f} crossover={result.crossover and round(result.crossover, 6)} "
        f"(10% window); freqs=[{freqs}]",
        started,
    )
    assert result.crossover is not None
    assert abs(result.crossover - root) <= 0.10 * root


def test_criterion_09_tuple_statistic_oracle_equivalence():
    started = time.perf_counter()
    form = LinearForm((2, -1))
    universe = list(range(13))
    checked = 0
    for mask in range(1 << 13):
        elems = [i for i in universe if mask >> i & 1]
        a = make_set(elems, 0, 12)
        for kind, form_arg, oracle_form in (
            ("sum", None, None),
            ("diff", None, None),
            ("form", form, (2, -1)),
        ):
            hist = rep_histogram(a, kind, form_arg)
            for k in (1, 2, 3):
                expected = tuple_statistic_oracle(elems, kind, k, form=oracle_form)
                actual = tuple_statistic(hist, k)
                assert actual == expected, (elems, kind, k, actual, expected)
                checked += 1
    ok = checked == (1 << 13) * 9
    _report(9, ok, f"{checked} statistics across all 8192 subsets of [0, 12]", started)
    assert ok


def test_criterion_10_deterministic_identity_suite():
    started = time.perf_counter()
    # 10^3 sampled sets spread over the three decay regimes
    n = 600
    checked = 0
    for block, delta in enumerate((0.7, 0.5, 0.35, 0.25)):
        p = n**-delta
        for t in range(250):
            a = sample(n, p, SamplerSeed(1000 + block, t))
            if a.count == 0:
                continue
            hs = rep_histogram(a, "sum")
            hd = rep_histogram(a, "diff")
            xs = [tuple_statistic(hs, k) for k in (1, 2, 3)]
            xps = [tuple_statistic(hd, k) for k in (1, 2, 3)]
            s_size = sumset(a).count
            d_size = diffset(a).count
            for m in (1, 2, 3):
                partial_s = sum(x if k % 2 else -x for k, x in enumerate(xs[:m], start=1))
                partial_d = sum(x if k % 2 else -x for k, x in enumerate(xps[:m], start=1))
                assert abs(s_size - partial_s) <= xs[m - 1]
                assert abs((d_size - 1) - partial_d) <= xps[m - 1]
            checked += 1

    grid = np.logspace(-6, 2, 1000)
    max_gap = max(abs(g_form(1, 1, float(x)) - g_ratio(float(x))) for x in grid)
    assert max_gap < 1e-12

    taylor_caps = {(2, 1): 0.0375, (3, 2): 0.0149, (5, 1): 0.0072}
    worst = 0.0
    for (u, av), cap in taylor_caps.items():
        a_uv = float(alpha(u, av))
        for c in np.linspace(1e-3, 0.1, 200):
            resid = abs(g_form(u, av, float(c) ** 2 / u) - (c**2 - a_uv * c**4))
            assert resid <= cap * c**6
            worst = max(worst, resid / c**6 / cap)
    _report(
        10,
        True,
        f"{checked} sets passed the alternating-sum bound (m<=3); "
        f"max |g_11 - g| on grid = {max_gap:.2e}; "
        f"worst Taylor residual at {worst:.2f} of its cap",
        started,
    )
    assert checked >= 990  # empty draws are skipped but must stay rare


def test_criterion_11_explicit_bound_verification():
    started = time.perf_counter()
    check = verify_bounds(1.0, 0.6, 0.2, 10**4, trials=10**4, seed=20260811)
    ok = (
        check.card_violation_rate <= check.report.P1
        and check.y_violation_rate <= check.report.P2
        and check.ok
    )
    _report(
        11,
        ok,
        f"cardinality rate {check.card_violation_rate:.4f} <= P1={check.report.P1:.4f}; "
        f"collision rate {check.y_violation_rate:.4f} <= P2={check.report.P2:.4f}",
        started,
    )
    assert check.card_violation_rate <= check.report.P1
    assert check.y_violation_rate <= check.report.P2
    assert check.ok


def test_criterion_12_tuple_count_predictions():
    # x_k and xp_k are the collision counts X_k of the sum and diff
    # histograms, and y is xp2 // 2.  x1 = |A|(|A|+1)/2 and xp1 = |A|^2 - |A|
    # count no collisions and are not gated: expected_tuple_count is the
    # leading order, which leaves out x1's +N*p term (x1 reads z = 1.93 here).
    started = time.perf_counter()
    config = ExperimentConfig(
        n_list=(10**5,),
        family=PFamily.power_law(1.0, 0.6),
        trials=200,
        seed=20260812,
        statistics=StatisticsSpec(sizes=False, missing=False, max_k=3, y=True),
        threads="auto",
    )
    _, summary = run_experiment(config)
    stats = summary[10**5]
    z = {name: (stats[name].mean - stats[name].prediction) / stats[name].se
         for name in ("x2", "x3", "xp2", "xp3", "y")}
    ok = all(abs(v) <= 4 for v in z.values())
    _report(
        12,
        ok,
        "; ".join(f"{name} z={v:+.2f}" for name, v in z.items()) + " (window |z| <= 4)",
        started,
    )
    assert ok, z
