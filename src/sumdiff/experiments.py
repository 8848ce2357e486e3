"""Experiment configuration, deterministic Monte Carlo, enumeration, file IO.

Trials are addressed by (seed, N, trial_index), so records are fully
reproducible and independent of the worker count; aggregation keeps task
order, making CSV output byte-identical for any --threads value.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics as pystats
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from io import StringIO
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ExperimentAborted, ResourceBudgetError
from .predictions import PredictionBundle, asymptotic_bundle
from .sampling import GENERATOR_NAME, PFamily, SamplerSeed, _draw_below, _word_limit, p_of, sample
from .sampling import sample_uniforms  # noqa: F401  (traced here by perfbench/layers.py)
from .sets import (
    IntegerSet,
    LinearForm,
    _grow_image,
    _image,
    _image_size,
    rep_histogram,
    repeated_gap_pairs,
    tuple_statistic,
)
from .sets import diffset, form_image, sumset  # noqa: F401  (traced here by perfbench/layers.py)
from .thresholds import classify_pair
from .bounds import BoundReport, bound_report

SCHEMA_VERSION = "1"
MAX_ENUMERATION_N = 26
MAX_K = 8


@dataclass(frozen=True)
class StatisticsSpec:
    """Which per-trial statistics to collect."""

    sizes: bool = True
    missing: bool = True
    max_k: int = 0
    forms: tuple[LinearForm, ...] = ()
    y: bool = False

    def __post_init__(self):
        if not 0 <= self.max_k <= MAX_K:
            raise ValueError(f"max_k must lie in [0, {MAX_K}]")
        if len(set(self.forms)) < len(self.forms):
            raise ValueError(f"repeated form in {[str(f) for f in self.forms]}")


@dataclass(frozen=True)
class ExperimentConfig:
    n_list: tuple[int, ...]
    family: PFamily
    trials: int
    seed: int
    statistics: StatisticsSpec = StatisticsSpec()
    output: str = "csv"
    threads: int | str = "auto"

    def __post_init__(self):
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ValueError("n_list must contain positive integers")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.output not in ("csv", "json"):
            raise ValueError("output must be 'csv' or 'json'")
        _check_threads(self.threads)


def _check_threads(threads: int | str) -> None:
    if threads != "auto" and (not isinstance(threads, int) or threads < 1):
        raise ValueError("threads must be a positive integer or 'auto'")


def _reject_unknown(mapping: dict, allowed: Iterable[str], where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} fields: {sorted(unknown)}")


def _family_from_json(obj: dict) -> PFamily:
    _reject_unknown(obj, {"variant", "p", "c", "delta"}, "family")
    variant = obj.get("variant")
    if variant == "explicit":
        return PFamily.explicit(obj["p"])
    if variant == "power-law":
        return PFamily.power_law(obj["c"], obj["delta"])
    raise ValueError(f"unknown family variant {variant!r}")


def _statistics_from_json(obj: dict) -> StatisticsSpec:
    _reject_unknown(obj, {"sizes", "missing", "xk", "forms", "y"}, "statistics")
    forms = tuple(LinearForm(tuple(f)) for f in obj.get("forms", ()))
    return StatisticsSpec(
        sizes=bool(obj.get("sizes", True)),
        missing=bool(obj.get("missing", True)),
        max_k=int(obj.get("xk", 0)),
        forms=forms,
        y=bool(obj.get("y", False)),
    )


def config_from_dict(obj: dict) -> ExperimentConfig:
    _reject_unknown(
        obj, {"n_list", "family", "trials", "seed", "statistics", "output", "threads"}, "config"
    )
    threads = obj.get("threads", "auto")
    return ExperimentConfig(
        n_list=tuple(int(n) for n in obj["n_list"]),
        family=_family_from_json(obj["family"]),
        trials=int(obj["trials"]),
        seed=int(obj.get("seed", 0)),
        statistics=_statistics_from_json(obj.get("statistics", {})),
        output=obj.get("output", "csv"),
        threads=threads if threads == "auto" else int(threads),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


@dataclass(frozen=True)
class TrialRecord:
    n: int
    p: float
    trial_index: int
    set_size: int
    sumset_size: int | None = None
    diffset_size: int | None = None
    missing_sums: int | None = None
    missing_diffs: int | None = None
    form_sizes: dict[LinearForm, int] = field(default_factory=dict)
    form_missing: dict[LinearForm, int] = field(default_factory=dict)
    x: tuple[int, ...] = ()
    xp: tuple[int, ...] = ()
    y: int | None = None


def _check_partial_sum_identity(size: int, xs: Sequence[int], offset: int, what: str) -> None:
    # ||image| - offset - sum_{k<=m} (-1)^(k-1) X_k| <= X_m for every m
    partial = 0
    for m, xk in enumerate(xs, start=1):
        partial += xk if m % 2 == 1 else -xk
        if abs((size - offset) - partial) > xs[m - 1]:
            raise RuntimeError(
                f"partial-sum identity violated for {what} at m={m}: "
                f"size={size}, partials={xs}"
            )


def run_trial(config: ExperimentConfig, n: int, trial_index: int) -> TrialRecord:
    """One sampled set and all requested statistics; pure in (seed, N, trial)."""
    p = p_of(config.family, n)
    a = sample(n, p, SamplerSeed(config.seed, trial_index))
    spec = config.statistics
    total = 2 * n + 1

    sum_size = diff_size = miss_s = miss_d = None
    if spec.sizes or spec.missing:
        sum_size = _image_size(a, (1, 1))
        diff_size = _image_size(a, (1, -1))
    if spec.missing:
        miss_s = total - sum_size
        miss_d = total - diff_size

    form_sizes: dict[LinearForm, int] = {}
    form_missing: dict[LinearForm, int] = {}
    for f in spec.forms:
        size = _image_size(a, f.coeffs)
        form_sizes[f] = size
        form_missing[f] = f.weight * n - size

    xs: tuple[int, ...] = ()
    xps: tuple[int, ...] = ()
    y: int | None = None
    diff_hist = None
    if spec.max_k > 0:
        sum_hist = rep_histogram(a, "sum")
        diff_hist = rep_histogram(a, "diff")
        xs = tuple(tuple_statistic(sum_hist, k) for k in range(1, spec.max_k + 1))
        xps = tuple(tuple_statistic(diff_hist, k) for k in range(1, spec.max_k + 1))
        if sum_size is None:
            sum_size = sum_hist.support_size()
            diff_size = diff_hist.support_size()
        if a.count:
            _check_partial_sum_identity(sum_size, xs, 0, "sums")
            _check_partial_sum_identity(diff_size, xps, 1, "differences")
    if spec.y:
        if diff_hist is None:
            diff_hist = rep_histogram(a, "diff")
        y = repeated_gap_pairs(diff_hist)

    return TrialRecord(
        n=n,
        p=p,
        trial_index=trial_index,
        set_size=a.count,
        sumset_size=sum_size if (spec.sizes or spec.missing) else None,
        diffset_size=diff_size if (spec.sizes or spec.missing) else None,
        missing_sums=miss_s,
        missing_diffs=miss_d,
        form_sizes=form_sizes,
        form_missing=form_missing,
        x=xs,
        xp=xps,
        y=y,
    )


def _run_tasks(task: Callable[[Any], Any], tasks: Sequence[Any], threads: int | str) -> list:
    """``task`` over ``tasks`` in order, on up to ``threads`` worker processes
    ("auto": one per core).  The results are in task order whatever the
    worker count; a failing task raises ExperimentAborted carrying the
    results completed before it."""
    workers = (os.cpu_count() or 1) if threads == "auto" else int(threads)
    workers = max(1, min(workers, len(tasks)))
    results: list = []
    try:
        if workers == 1:
            results.extend(map(task, tasks))
        else:
            chunk = max(1, math.ceil(len(tasks) / (workers * 8)))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results.extend(pool.map(task, tasks, chunksize=chunk))
    except Exception as exc:
        raise ExperimentAborted(
            f"trial failed after {len(results)} of {len(tasks)} records: {exc}",
            tuple(results),
        ) from exc
    return results


def _name_failure(seed: int, n: int, trial_index: int, exc: Exception) -> RuntimeError:
    # pool chunks lose which task failed, so the message names the trial
    return RuntimeError(f"seed={seed} N={n} trial_index={trial_index}: {exc}")


def _trial_task(config: ExperimentConfig, task: tuple[int, int]) -> TrialRecord:
    n, trial_index = task
    try:
        return run_trial(config, n, trial_index)
    except Exception as exc:
        raise _name_failure(config.seed, n, trial_index, exc) from exc


@dataclass(frozen=True)
class StatSummary:
    mean: float
    se: float
    min: float
    max: float
    q05: float
    q50: float
    q95: float
    prediction: float | None = None
    relative_error: float | None = None


def _summarize(values: Sequence[float], prediction: float | None) -> StatSummary:
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    q05, q50, q95 = (float(q) for q in np.quantile(arr, [0.05, 0.5, 0.95]))
    rel = None
    if prediction is not None and prediction != 0:
        rel = (float(arr.mean()) - prediction) / prediction
    return StatSummary(
        mean=float(arr.mean()),
        se=se,
        min=float(arr.min()),
        max=float(arr.max()),
        q05=q05,
        q50=q50,
        q95=q95,
        prediction=prediction,
        relative_error=rel,
    )



def form_column_stem(form: LinearForm) -> str:
    return "form_" + "_".join(str(c) for c in form.coeffs)


@dataclass(frozen=True)
class _Column:
    """One CSV/JSON column: its name, its cell and, if any, its prediction."""

    name: str
    cell: Callable[[TrialRecord], Any]
    prediction: Callable[[PredictionBundle], float] | None = None


# The leading columns that identify a record; the rest are statistics.
_KEY_COLUMNS = (
    _Column("schema_version", lambda r: SCHEMA_VERSION),
    _Column("N", attrgetter("n")),
    _Column("p", attrgetter("p")),
    _Column("trial_index", attrgetter("trial_index")),
)


def _statistic_columns(spec: StatisticsSpec) -> list[_Column]:
    """The statistic columns the spec collects, in output order."""
    cols = [_Column("set_size", attrgetter("set_size"), lambda b: (b.n + 1) * b.p)]
    if spec.sizes or spec.missing:
        cols += [
            _Column("sumset_size", attrgetter("sumset_size"), attrgetter("S_pred")),
            _Column("diffset_size", attrgetter("diffset_size"), attrgetter("D_pred")),
        ]
    if spec.missing:
        cols += [
            _Column("missing_sums", attrgetter("missing_sums"), attrgetter("Sc_pred")),
            _Column("missing_diffs", attrgetter("missing_diffs"), attrgetter("Dc_pred")),
        ]
    for f in spec.forms:
        # the package predicts binary difference forms only
        predicted = f.kind == "binary-difference"
        stem = form_column_stem(f)
        cols += [
            _Column(
                f"{stem}_size",
                lambda r, f=f: r.form_sizes[f],
                (lambda b, f=f: b.forms[f][0]) if predicted else None,
            ),
            _Column(
                f"{stem}_missing",
                lambda r, f=f: r.form_missing[f],
                (lambda b, f=f: b.forms[f][1]) if predicted else None,
            ),
        ]
    cols += [_Column(f"x{k}", lambda r, i=k - 1: r.x[i]) for k in range(1, spec.max_k + 1)]
    cols += [_Column(f"xp{k}", lambda r, i=k - 1: r.xp[i]) for k in range(1, spec.max_k + 1)]
    if spec.y:
        cols.append(_Column("y", attrgetter("y")))
    return cols


def summarize_records(
    records: Sequence[TrialRecord], config: ExperimentConfig
) -> dict[int, dict[str, StatSummary]]:
    columns = _statistic_columns(config.statistics)
    summaries: dict[int, dict[str, StatSummary]] = {}
    for n in config.n_list:
        rows = [r for r in records if r.n == n]
        if not rows:
            continue
        bundle = None
        if config.family.variant == "power-law":
            diff_forms = tuple(f for f in config.statistics.forms if f.kind == "binary-difference")
            bundle = asymptotic_bundle(n, config.family, diff_forms)
        summaries[n] = {
            col.name: _summarize(
                [col.cell(r) for r in rows],
                None if bundle is None or col.prediction is None else col.prediction(bundle),
            )
            for col in columns
        }
    return summaries


def run_experiment(
    config: ExperimentConfig,
) -> tuple[list[TrialRecord], dict[int, dict[str, StatSummary]]]:
    """All trials over n_list x [0, trials), in deterministic order."""
    tasks = [(n, t) for n in config.n_list for t in range(config.trials)]
    records = _run_tasks(partial(_trial_task, config), tasks, config.threads)
    return records, summarize_records(records, config)


# ---------------------------------------------------------------------------
# output formats


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _columns(spec: StatisticsSpec) -> list[_Column]:
    return [*_KEY_COLUMNS, *_statistic_columns(spec)]


def csv_columns(spec: StatisticsSpec) -> list[str]:
    return [col.name for col in _columns(spec)]


def records_to_csv(records: Sequence[TrialRecord], spec: StatisticsSpec) -> str:
    """RFC-4180 CSV, LF line endings, floats at 17 significant digits."""
    columns = _columns(spec)
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(col.name for col in columns)
    for record in records:
        writer.writerow(_format_value(col.cell(record)) for col in columns)
    return buf.getvalue()


def _summary_to_jsonable(summaries: dict[int, dict[str, StatSummary]]) -> dict:
    return {
        str(n): {name: asdict(s) for name, s in stats.items()} for n, stats in summaries.items()
    }


def results_to_json(
    records: Sequence[TrialRecord],
    summaries: dict[int, dict[str, StatSummary]],
    config: ExperimentConfig,
    wall_time_s: float,
) -> str:
    columns = _columns(config.statistics)
    rows = [{col.name: col.cell(r) for col in columns} for r in records]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "metadata": {
            "seed": config.seed,
            "generator": GENERATOR_NAME,
            "schema_version": SCHEMA_VERSION,
            "wall_time_s": wall_time_s,
        },
        "records": rows,
        "summary": _summary_to_jsonable(summaries),
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# exhaustive enumeration


def enumerate_exhaustive(n: int) -> dict[str, int]:
    """Classify every subset of [0, n]; the empty set and singletons are balanced.

    Every other subset is a translate of exactly one set with min 0 and max
    m, 1 <= m <= n, with the same |A+A| and |A-A|, and that set has
    n - m + 1 translates inside [0, n]; so only the 2^(m-1) sets of each
    span m are classified, each weighted by its translates.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_ENUMERATION_N:
        raise ResourceBudgetError(f"exhaustive enumeration capped at N = {MAX_ENUMERATION_N}")
    counts = {"sum_dominated": 0, "balanced": n + 2, "difference_dominated": 0}
    for m in range(1, n + 1):
        for label, count in zip(counts, _classify_span(m)):
            counts[label] += (n - m + 1) * count
    return counts


# The low parts of one batch in _classify_span: 2^13 masks, 64 KiB per array.
_LOW_BITS = 14


def _classify_span(m: int) -> tuple[int, int, int]:
    """How many sets A with min 0 and max m are sum-dominated, balanced and
    difference-dominated.

    A is a uint64 mask, split into a low part L = A & [0, b), which runs over
    a batch, and a high part H = A & [b, m], fixed within it.  A+A is
    (L+L) | (A+H), a mask with bit x for the sum x.  A-A is symmetric about
    0, so |A-A| = 2 |D| - 1 for its non-positive part D, which is
    (L-L)- | (A-H)-, a mask with bit x + m for the difference x.  L+L and
    (L-L)- are built once per span by OR-accumulation over the members of
    L; then each member h of H adds A shifted by h to the sums and by m - h
    to D.
    """
    b = min(m, _LOW_BITS)
    lows = np.arange(1, 1 << b, 2, dtype=np.uint64)  # every L, which contains 0
    low_sums = np.zeros_like(lows)
    low_diffs = np.zeros_like(lows)
    for i in range(b):
        member = (lows >> i) & 1
        low_sums |= (lows << i) * member
        low_diffs |= (lows << (m - i)) * member
    nonpositive = (2 << m) - 1  # the bits x + m of the differences x <= 0
    sum_dominated = balanced = 0
    for rest in range(1 << (m - b)):
        high = rest << b | 1 << m
        masks = lows | high
        sums = low_sums.copy()
        diffs = low_diffs.copy()
        for h in range(b, m + 1):
            if high >> h & 1:
                sums |= masks << h
                diffs |= masks << (m - h)
        sum_size = np.bitwise_count(sums)
        diff_size = 2 * np.bitwise_count(diffs & nonpositive) - 1
        sum_dominated += int(np.count_nonzero(sum_size > diff_size))
        balanced += int(np.count_nonzero(sum_size == diff_size))
    return sum_dominated, balanced, (1 << (m - 1)) - sum_dominated - balanced


# ---------------------------------------------------------------------------
# empirical threshold crossover


@dataclass(frozen=True)
class CrossoverResult:
    c_grid: tuple[float, ...]
    frequencies: tuple[float, ...]
    crossover: float | None  # None: the grid frequencies never cross 1/2
    trials: int


def empirical_crossover(
    f: LinearForm,
    g: LinearForm,
    n: int,
    c_grid: Sequence[float],
    trials: int,
    seed: int,
    threads: int | str = "auto",
) -> CrossoverResult:
    """Domination frequency P(|f(A)| > |g(A)|) at p = c * N**-0.5 per grid c.

    Trials share one sampler stream across grid points (the sampler
    couples sets monotonically in p), so the frequency curve moves as a
    whole and its 1/2-crossing is stable.  The crossover estimate is the
    median of the piecewise-linear interpolant's crossings of 1/2.  Trials
    run on up to ``threads`` worker processes; the result does not depend
    on their number.
    """
    report = classify_pair(f, g)
    if report.case != "case-ii":
        raise ValueError(f"({f}, {g}) is {report.case}; crossover needs a case-ii pair")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    grid = [float(c) for c in c_grid]
    if len(grid) < 2 or sorted(grid) != grid:
        raise ValueError("c_grid must be ascending with at least two points")
    sqrt_n = math.sqrt(n)
    if grid[0] <= 0 or grid[-1] >= sqrt_n:
        raise ValueError("grid must satisfy 0 < c < sqrt(N) so that p lands in (0, 1)")
    _check_threads(threads)
    task = partial(_crossover_task, (f, g), n, tuple(c / sqrt_n for c in grid), seed)
    wins = np.sum(_run_tasks(task, range(trials), threads), axis=0)
    freqs = [int(w) / trials for w in wins]
    return CrossoverResult(tuple(grid), tuple(freqs), _interpolate_half(grid, freqs), trials)


def _crossover_task(
    forms: tuple[LinearForm, LinearForm], n: int, ps: tuple[float, ...], seed: int, trial_index: int
) -> list[bool]:
    try:
        return _crossover_trial(forms, n, ps, seed, trial_index)
    except Exception as exc:
        raise _name_failure(seed, n, trial_index, exc) from exc


def _crossover_trial(
    forms: tuple[LinearForm, LinearForm], n: int, ps: tuple[float, ...], seed: int, trial_index: int
) -> list[bool]:
    """Whether |f(A)| > |g(A)| for the set A sampled at each p of one trial.

    The sets grow with p, so each form's image marks grow with them: at
    each p only the pairs with a newly sampled element are added.
    """
    members, words = _draw_below(n, ps[-1], SamplerSeed(seed, trial_index))
    # in the order of their words, so that the set at each p is a prefix
    order = np.argsort(words)
    members = members[order]
    limits = np.array([_word_limit(p) for p in ps], dtype=np.uint64)
    ends = np.searchsorted(words[order], limits)
    # start from the images of the empty subset of [0, n]
    empty = IntegerSet([], 0, n)
    images = [(*_image(empty, form.coeffs), form.coeffs) for form in forms]
    wins = []
    start = 0
    for end in ends:
        sizes = []
        for marks, lo, coeffs in images:
            _grow_image(marks, lo, coeffs, members[:start], members[start:end])
            sizes.append(np.count_nonzero(marks))
        wins.append(sizes[0] > sizes[1])
        start = end
    return wins


def _interpolate_half(grid: Sequence[float], freqs: Sequence[float]) -> float | None:
    crossings: list[float] = []
    for i, (c, fr) in enumerate(zip(grid, freqs)):
        if fr == 0.5:
            crossings.append(c)
        if i == 0:
            continue
        lo, hi = freqs[i - 1] - 0.5, fr - 0.5
        if lo * hi < 0:
            crossings.append(grid[i - 1] + (0.0 - lo) * (c - grid[i - 1]) / (hi - lo))
    if not crossings:
        return None
    return float(pystats.median(crossings))


# ---------------------------------------------------------------------------
# bound verification


@dataclass(frozen=True)
class BoundCheck:
    report: BoundReport
    trials: int
    card_violation_rate: float
    y_violation_rate: float
    flags: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.flags


def _exceeds(empirical: float, bound: float, trials: int) -> bool:
    capped = min(bound, 1.0)
    slack = 4.0 * math.sqrt(capped * (1.0 - capped) / trials)
    return empirical > capped + slack


def verify_bounds(
    c: float, delta: float, g_exp: float, n: int, trials: int, seed: int
) -> BoundCheck:
    """Empirical failure rates of the cardinality interval and the
    collision threshold, compared against their explicit bounds P1, P2."""
    report = bound_report(c, delta, g_exp, n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = p_of(PFamily.power_law(c, delta), n)
    lo, hi = report.card_interval
    card_out = 0
    y_out = 0
    for t in range(trials):
        a = sample(n, p, SamplerSeed(seed, t))
        if not lo <= a.count <= hi:
            card_out += 1
        y = repeated_gap_pairs(rep_histogram(a, "diff"))
        if y > report.Y_threshold:
            y_out += 1
    card_rate = card_out / trials
    y_rate = y_out / trials
    flags = []
    if _exceeds(card_rate, report.P1, trials):
        flags.append(
            f"cardinality-interval failure rate {card_rate:.4g} exceeds P1 = {report.P1:.4g}"
        )
    if _exceeds(y_rate, report.P2, trials):
        flags.append(f"collision-threshold failure rate {y_rate:.4g} exceeds P2 = {report.P2:.4g}")
    return BoundCheck(report, trials, card_rate, y_rate, tuple(flags))
