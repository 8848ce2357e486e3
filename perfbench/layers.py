"""Traced serial run of one workload, and the per-layer metrics of its spans.

Run as a script, this module executes a workload's command three times in
this process through `sumdiff.cli.main` with one worker: untraced, traced,
and untraced again, so that the overhead compares the traced run with the
mean of the runs around it and a drift in the host's speed cancels.  Tracing wraps the package's public functions at the module
attributes their callers look up (``experiments`` does ``from .sets import
sumset``, so ``sumdiff.experiments.sumset`` is wrapped), keeps every span in
memory and writes them out when the run ends.

    PYTHONPATH=src python3 perfbench/layers.py --out DIR -- SUMDIFF_ARGS...
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


def _bitset_work(args, result) -> dict:
    a = args[0]
    return {"shift_words": a.count * math.ceil((a.hi - a.lo + 1) / 64), "image": result.count,
            "pairs": a.count * a.count}


def _form_work(args, result) -> dict:
    a, form = args[0], args[1]
    pairs = a.count ** form.arity
    return {"pair_ops": pairs, "image": result.count, "pairs": pairs}


# (module, attribute, span name, work counts computed from the call).
# The counts are exact functions of the inputs, labelled "computed".
TRACED = (
    ("sumdiff.experiments", "sample", "sampling.sample",
     lambda args, result: {"uniform_bytes": 8 * (args[0] + 1)}),
    ("sumdiff.experiments", "sample_uniforms", "sampling.sample_uniforms",
     lambda args, result: {"uniform_bytes": 8 * (args[0] + 1)}),
    ("sumdiff.sets.IntegerSet", "from_members", "sets.IntegerSet.from_members",
     lambda args, result: {"members": result.count}),
    ("sumdiff.experiments", "sumset", "sets.sumset", _bitset_work),
    ("sumdiff.experiments", "diffset", "sets.diffset", _bitset_work),
    ("sumdiff.experiments", "form_image", "sets.form_image", _form_work),
    ("sumdiff.experiments", "rep_histogram", "sets.rep_histogram",
     lambda args, result: {"pair_ops": args[0].count ** 2}),
    ("sumdiff.experiments", "tuple_statistic", "sets.tuple_statistic", None),
    ("sumdiff.experiments", "repeated_gap_pairs", "sets.repeated_gap_pairs", None),
    ("sumdiff.cli", "run_experiment", "experiments.run_experiment", None),
    ("sumdiff.experiments", "run_trial", "experiments.run_trial",
     lambda args, result: {"subsets": 1}),
    ("sumdiff.experiments", "summarize_records", "experiments.summarize_records", None),
    ("sumdiff.cli", "records_to_csv", "experiments.records_to_csv", None),
    ("sumdiff.cli", "empirical_crossover", "experiments.empirical_crossover",
     lambda args, result: {"subsets": args[4] * len(args[3])}),
    ("sumdiff.cli", "enumerate_exhaustive", "experiments.enumerate_exhaustive",
     lambda args, result: {"subsets": 1 << (args[0] + 1)}),
    ("sumdiff.experiments", "asymptotic_bundle", "predictions.asymptotic_bundle", None),
    ("sumdiff.experiments", "classify_pair", "thresholds.classify_pair", None),
)

SPAN_NAMES = (
    "sampling.sample", "sampling.sample_uniforms",
    "sets.IntegerSet.from_members", "sets.sumset", "sets.diffset", "sets.form_image",
    "sets.rep_histogram.sum", "sets.rep_histogram.diff", "sets.tuple_statistic",
    "sets.repeated_gap_pairs",
    "experiments.run_experiment", "experiments.run_trial", "experiments.summarize_records",
    "experiments.records_to_csv", "experiments.empirical_crossover",
    "experiments.enumerate_exhaustive",
    "predictions.asymptotic_bundle", "thresholds.classify_pair",
    "cli.main",
)
# Spans called once per trial or more; only these can gather enough samples
# for a tail percentile.
TAIL_SPANS = SPAN_NAMES[:10] + ("experiments.run_trial",)
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    trial: int = -1
    work: dict = field(default_factory=dict)


class Tracer:
    """Records spans around wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trial = -1
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "experiments.run_trial":
                self._trial = args[2]
            elif name == "sampling.sample_uniforms":
                self._trial = args[1].trial_index
            label = f"{name}.{args[1]}" if name == "sets.rep_histogram" else name
            span = Span(label, 0.0, parent=self._stack[-1] if self._stack else -1,
                        trial=self._trial)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        return traced

    def install(self) -> None:
        from sumdiff.sets import IntegerSet

        for module_name, attr, name, work in TRACED:
            if module_name.endswith(".IntegerSet"):
                original = IntegerSet.__dict__[attr]
                wrapped = classmethod(self.wrap(name, original.__func__, work))
                owner = IntegerSet
            else:
                owner = sys.modules[module_name]
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, work)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _tail(durations: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(durations)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (1 - pct / 100) >= 10:
            rank = math.ceil(pct / 100 * len(ordered))  # nearest rank
            return ordered[rank - 1], pct
    return 0.0, 0.0


def layer_metrics(spans: list[Span], untraced_wall: float, traced_wall: float,
                  parallel_wall: float, workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}."""
    own = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        idx = [i for i, s in enumerate(spans) if s.name == name]
        durations = [spans[i].end - spans[i].start for i in idx]
        out[f"{name}.calls"] = (len(idx), "count")
        out[f"{name}.self_s"] = (sum(own[i] for i in idx), "s")
        out[f"{name}.p50_ms"] = (statistics.median(durations) * 1e3 if idx else 0.0, "ms")
        if name in TAIL_SPANS:
            value, pct = _tail(durations)
            out[f"{name}.tail_ms"] = (value * 1e3, "ms")
            out[f"{name}.tail_pct"] = (pct, "%")

    def total(key: str, *names: str) -> int:
        return sum(s.work.get(key, 0) for s in spans if not names or s.name in names)

    built = [s.work["members"] for s in spans if "members" in s.work]
    images = ("sets.sumset", "sets.diffset", "sets.form_image")
    pairs = total("pairs", *images)
    out["sampling.uniform_bytes"] = (total("uniform_bytes"), "bytes")
    out["sets.members_mean"] = (statistics.fmean(built) if built else 0.0, "count")
    out["sets.pair_ops"] = (total("pair_ops"), "count")
    out["sets.shift_words"] = (total("shift_words"), "count")
    out["sets.image_yield"] = (total("image", *images) / pairs if pairs else 0.0, "ratio")
    out["experiments.subsets"] = (total("subsets"), "count")
    # Serial work the pool could spread: the trials, or the serial loop when
    # the command has no per-trial tasks.
    serial = [s for s in spans if s.name == "experiments.run_trial"] or [
        s for s in spans
        if s.name in ("experiments.empirical_crossover", "experiments.enumerate_exhaustive")]
    out["experiments.parallel_eff"] = (
        sum(s.end - s.start for s in serial) / (workers * parallel_wall), "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    out["trace.unaccounted_frac"] = (1 - sum(own) / traced_wall, "ratio")
    return out


def read_spans(path: Path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh]


def _run_cli(argv: list[str], main) -> tuple[int, bytes, float]:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode(), time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("argv", nargs="+", help="the sumdiff command line")
    args = parser.parse_args()
    argv = args.argv

    from sumdiff import cli

    before = _run_cli(argv, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_cli(argv, tracer.wrap("cli.main", cli.main))
    finally:
        tracer.uninstall()
    after = _run_cli(argv, cli.main)

    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(asdict(span)) + "\n")
    runs = []
    for label, (code, output, wall) in (
            ("untraced-before", before), ("traced", traced), ("untraced-after", after)):
        (args.out / f"{label}.out").write_bytes(output)
        runs.append({"label": label, "exit": code, "wall": wall})
    (args.out / "runs.json").write_text(json.dumps(runs), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
