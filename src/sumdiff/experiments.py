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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from io import StringIO
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ExperimentAborted, ResourceBudgetError
from .predictions import PredictionBundle, asymptotic_bundle, expected_tuple_count
from .sampling import GENERATOR_NAME, PFamily, SamplerSeed, _nested_draw, p_of, sample
from .sampling import sample_uniforms  # noqa: F401  (traced here by perfbench/layers.py)
from .sets import KIND_FORMS, LinearForm, _class_marks, _grown_sizes, _histogram, _self_pair_sums
from .sets import _boolean, _check_int64, _integer, _real, _tuple_counts, multiplicity_profile
from .sets import diffset, form_image, sumset  # noqa: F401  (traced here by perfbench/layers.py)
from .sets import rep_histogram, repeated_gap_pairs, tuple_statistic  # noqa: F401  (likewise)
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
        for name in ("sizes", "missing", "y"):
            object.__setattr__(self, name, _boolean(getattr(self, name), name))
        object.__setattr__(self, "max_k", _integer(self.max_k, "max_k", 0, MAX_K))
        forms = self.forms
        if not isinstance(forms, (tuple, list)) or not all(isinstance(f, LinearForm) for f in forms):
            raise ValueError(f"forms must hold LinearForms, got {forms!r}")
        object.__setattr__(self, "forms", tuple(forms))
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
        for name, kind in (("family", PFamily), ("statistics", StatisticsSpec)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not isinstance(self.n_list, (list, tuple)):
            raise ValueError(f"n_list must be a list or tuple of integers, got {self.n_list!r}")
        object.__setattr__(self, "n_list", tuple(_integer(n, "N", least=1) for n in self.n_list))
        object.__setattr__(self, "trials", _integer(self.trials, "trials", least=1))
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        for i, n in enumerate(self.n_list):
            if n in self.n_list[:i]:
                raise ValueError(f"N = {n} is repeated in n_list {list(self.n_list)}")
            p_of(self.family, n)  # a p outside (0, 1) is refused before any worker starts
        for form in self.statistics.forms:
            _check_int64(form.coeffs, 0, max(self.n_list))  # and so is an image beyond int64
        object.__setattr__(self, "seed", SamplerSeed(self.seed).seed)
        if self.output not in ("csv", "json"):
            raise ValueError("output must be 'csv' or 'json'")
        _check_threads(self.threads)


def _check_threads(threads: int | str) -> None:
    if threads != "auto":
        _integer(threads, "threads", least=1)


def _reject_unknown(mapping: dict, allowed: Iterable[str], where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} fields: {sorted(unknown)}")


def _field(obj: dict, key: str, where: str, check: Callable[[Any, str], Any], default: Any = None) -> Any:
    """``check(obj[key], what)``, ``what`` naming the field; ``default`` if absent, required if None."""
    if key not in obj:
        if default is None:
            raise ValueError(f"{where} field {key!r} is required")
        return default
    return check(obj[key], f"{where} field {key!r}")


def _json(kind: type, name: str) -> Callable[[Any, str], Any]:
    """A check that a JSON value is of ``kind`` itself; _integer, _real and
    _boolean check the scalars, so that a JSON boolean is not an integer."""
    def check(value: Any, what: str) -> Any:
        if type(value) is not kind:
            raise ValueError(f"{what} must be {name}, got {value!r}")
        return value
    return check


_object, _list, _string = _json(dict, "a JSON object"), _json(list, "a list"), _json(str, "a string")


def _number(value: Any, what: str) -> float:
    return _real(value, what, -math.inf, math.inf)  # finite; PFamily checks the range


def _integers(value: Any, what: str) -> list[int]:
    return [_integer(x, f"{what}[{i}]") for i, x in enumerate(_list(value, what))]


def _forms(value: Any, what: str) -> tuple[LinearForm, ...]:
    return tuple(LinearForm(tuple(_integers(f, f"{what}[{i}]"))) for i, f in enumerate(_list(value, what)))


def _family_from_json(obj: dict) -> PFamily:
    _reject_unknown(obj, {"variant", "p", "c", "delta"}, "family")
    numbers = {k: _field(obj, k, "family", _number) for k in obj if k != "variant"}
    return PFamily(_field(obj, "variant", "family", _string), **numbers)


def _statistics_from_json(obj: dict) -> StatisticsSpec:
    _reject_unknown(obj, {"sizes", "missing", "xk", "forms", "y"}, "statistics")
    return StatisticsSpec(
        sizes=_field(obj, "sizes", "statistics", _boolean, True),
        missing=_field(obj, "missing", "statistics", _boolean, True),
        max_k=_field(obj, "xk", "statistics", _integer, 0),
        forms=_field(obj, "forms", "statistics", _forms, ()),
        y=_field(obj, "y", "statistics", _boolean, False),
    )


def config_from_dict(obj: dict) -> ExperimentConfig:
    """The config of a JSON document; a field missing or of the wrong type is a ValueError."""
    _reject_unknown(
        _object(obj, "a config"),
        {"n_list", "family", "trials", "seed", "statistics", "output", "threads"},
        "config",
    )
    return ExperimentConfig(
        n_list=tuple(_field(obj, "n_list", "config", _integers)),
        family=_family_from_json(_field(obj, "family", "config", _object)),
        trials=_field(obj, "trials", "config", _integer),
        seed=_field(obj, "seed", "config", _integer, 0),
        statistics=_statistics_from_json(_field(obj, "statistics", "config", _object, {})),
        output=obj.get("output", "csv"),  # ExperimentConfig checks these two
        threads=obj.get("threads", "auto"),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


@dataclass(frozen=True)
class TrialRecord:
    """What one trial measured; _statistic_columns derives the missing counts."""

    n: int
    p: float
    trial_index: int
    set_size: int
    sumset_size: int | None = None
    diffset_size: int | None = None
    form_sizes: dict[LinearForm, int] = field(default_factory=dict)
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

    # One call for every image and histogram, so that they share A's spectrum
    # at each FFT length.  Each form is requested once: as counts if its
    # histogram is collected, its size then the histogram's support, else as
    # marks.  Marks come first, so no histogram is held during another FFT.
    # A-A comes before A+A: the request that keeps A's spectrum for the next
    # is then the differences, whose product is half a spectrum, and the
    # sums form theirs inside A's (see sets._self_pair_sums).
    kinds = ["diff"] * (spec.max_k > 0 or spec.y) + ["sum"] * (spec.max_k > 0)
    counted = {KIND_FORMS[kind]: kind for kind in kinds}
    sized = [KIND_FORMS[kind] for kind in ("diff", "sum")] if spec.sizes or spec.missing else []
    images = [f for f in dict.fromkeys(sized + list(spec.forms)) if f not in counted]
    requests = [(f.coeffs, False) for f in images] + [(f.coeffs, True) for f in counted]
    results = _self_pair_sums(a, requests)
    sizes = {f: next(results).size() for f in images}
    profiles = {}
    for f, kind in counted.items():
        hist = _histogram(a, kind, next(results))
        sizes[f] = hist.support_size()
        profiles[kind] = multiplicity_profile(hist)

    diff_size, sum_size = (sizes[f] for f in sized) if sized else (None, None)

    xs = xps = ()
    y = None
    if "diff" in profiles:
        gaps = _tuple_counts(profiles["diff"], max(spec.max_k, 2 * spec.y))
        xps = tuple(gaps[: spec.max_k])
        y = gaps[1] // 2 if spec.y else None  # repeated_gap_pairs: half of xp2
    if "sum" in profiles:
        xs = tuple(_tuple_counts(profiles["sum"], spec.max_k))
        if a.count:
            _check_partial_sum_identity(sizes[KIND_FORMS["sum"]], xs, 0, "sums")
            _check_partial_sum_identity(sizes[KIND_FORMS["diff"]], xps, 1, "differences")

    return TrialRecord(
        n=n,
        p=p,
        trial_index=trial_index,
        set_size=a.count,
        sumset_size=sum_size,
        diffset_size=diff_size,
        form_sizes={f: sizes[f] for f in spec.forms},
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
            # imported here: a serial run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            chunk = max(1, math.ceil(len(tasks) / (workers * 8)))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results.extend(pool.map(task, tasks, chunksize=chunk))
    except Exception as exc:
        raise ExperimentAborted(
            f"trial failed after {len(results)} of {len(tasks)} records: {exc}",
            tuple(results),
        ) from exc
    return results


@contextmanager
def _naming_trial(seed: int, n: int, trial_index: int):
    # pool chunks lose which task failed, so the message names the trial
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"seed={seed} N={n} trial_index={trial_index}: {exc}") from exc


def _trial_task(config: ExperimentConfig, task: tuple[int, int]) -> TrialRecord:
    n, trial_index = task
    with _naming_trial(config.seed, n, trial_index):
        return run_trial(config, n, trial_index)


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
    # Sc, Dc take misses from 2N + 1 values; the paper's Dfc from w*N, so a full image reads -1
    if spec.missing:
        cols += [
            _Column("missing_sums", lambda r: 2 * r.n + 1 - r.sumset_size, attrgetter("Sc_pred")),
            _Column("missing_diffs", lambda r: 2 * r.n + 1 - r.diffset_size, attrgetter("Dc_pred")),
        ]
    for f in spec.forms:
        # the package predicts binary difference forms only
        predicted = f.kind == "binary-difference"
        stem = "form_" + "_".join(str(c) for c in f.coeffs)
        cols += [
            _Column(
                f"{stem}_size",
                lambda r, f=f: r.form_sizes[f],
                (lambda b, f=f: b.forms[f][0]) if predicted else None,
            ),
            _Column(
                f"{stem}_missing",
                lambda r, f=f: f.weight * r.n - r.form_sizes[f],
                (lambda b, f=f: b.forms[f][1]) if predicted else None,
            ),
        ]
    # x{k} and xp{k}, the TrialRecord's x and xp, predict the leading-order
    # E[X_k] of the sum and diff histograms; y is xp2 // 2
    for stem, kind in (("x", "sum"), ("xp", "diff")):
        cols += [
            _Column(f"{stem}{k}", lambda r, s=stem, i=k - 1: getattr(r, s)[i],
                    lambda b, kind=kind, k=k: expected_tuple_count(b.n, b.p, k, kind))
            for k in range(1, spec.max_k + 1)
        ]
    if spec.y:
        cols.append(_Column("y", attrgetter("y"), lambda b: expected_tuple_count(b.n, b.p, 2, "diff") / 2))
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
    n = _integer(n, "n", least=0)
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
    n, trials = _integer(n, "n", least=1), _integer(trials, "trials", least=1)
    for form in (f, g):
        _class_marks(form.coeffs, n)  # refused before a word is drawn or a worker starts
    seed = SamplerSeed(seed).seed
    sqrt_n = math.sqrt(n)  # so that p = c / sqrt(N) lands in (0, 1)
    grid = [_real(c, "c", hi=sqrt_n) for c in c_grid]
    if len(grid) < 2 or sorted(grid) != grid:
        raise ValueError("c_grid must be ascending with at least two points")
    for c, after in zip(grid, grid[1:]):
        if c == after:
            raise ValueError(f"c = {c:g} is repeated in c_grid")
    _check_threads(threads)
    task = partial(_crossover_task, (f, g), n, tuple(c / sqrt_n for c in grid), seed)
    wins = np.sum(_run_tasks(task, range(trials), threads), axis=0)
    freqs = [int(w) / trials for w in wins]
    return CrossoverResult(tuple(grid), tuple(freqs), _interpolate_half(grid, freqs), trials)


def _crossover_task(
    forms: tuple[LinearForm, LinearForm], n: int, ps: tuple[float, ...], seed: int, trial_index: int
) -> list[bool]:
    with _naming_trial(seed, n, trial_index):
        return _crossover_trial(forms, n, ps, seed, trial_index)


def _crossover_trial(
    forms: tuple[LinearForm, LinearForm], n: int, ps: tuple[float, ...], seed: int, trial_index: int
) -> list[bool]:
    """Whether |f(A)| > |g(A)| for the set A sampled at each p of one trial.

    The sets grow with p, so each form's image grows with them: at each p
    only the pairs with a newly sampled element are added.  The forms are
    grown one after the other, a residue class at a time, so one class's
    marks are held at a time.
    """
    members, ends = _nested_draw(n, ps, SamplerSeed(seed, trial_index))
    sizes = [_grown_sizes(members, ends, form.coeffs, n) for form in forms]
    return [f > g for f, g in zip(*sizes)]


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
    collision threshold, compared against their explicit bounds P1, P2.

    The trials are those of a sweep at N = n collecting |A| and Y, so they
    run on the trial pool and a failure names its trial."""
    report = bound_report(c, delta, g_exp, n)
    family = PFamily.power_law(c, delta)
    spec = StatisticsSpec(sizes=False, missing=False, y=True)
    records, _ = run_experiment(ExperimentConfig((n,), family, trials, seed, spec))
    lo, hi = report.card_interval
    card_rate = sum(not lo <= r.set_size <= hi for r in records) / trials
    y_rate = sum(r.y > report.Y_threshold for r in records) / trials
    flags = []
    if _exceeds(card_rate, report.P1, trials):
        flags.append(
            f"cardinality-interval failure rate {card_rate:.4g} exceeds P1 = {report.P1:.4g}"
        )
    if _exceeds(y_rate, report.P2, trials):
        flags.append(f"collision-threshold failure rate {y_rate:.4g} exceeds P2 = {report.P2:.4g}")
    return BoundCheck(report, trials, card_rate, y_rate, tuple(flags))
