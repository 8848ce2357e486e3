"""The sumdiff benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the workload's `sumdiff`
command runs again and again in fresh processes, with two workers, for about
S seconds; the end-to-end metrics are medians over those commands, and
``setup_s`` is the median over fresh interpreters started before each command
(at least five).  With ``--trace 1``
one untraced two-worker command is followed by serial untraced, traced and
untraced runs in one process (see layers.py); the per-layer metrics come
from the traced run's spans.  Every output is checked (workloads.py); a
command that exits nonzero, is killed, or prints a wrong output counts as
failed.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layers import layer_metrics, read_spans
from workloads import THREADS, WORKLOADS, Mismatch

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
ENTRY = "import sys; from sumdiff.cli import main; sys.exit(main())"  # the console script
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150.0
# Each command and each of its workers may map at most this share of the
# machine's memory, so an allocation blow-up fails one command instead of
# exhausting the machine.
MEMORY_SHARE = 0.6 / (THREADS + 1)


def _limit_memory() -> None:
    limit = int(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") * MEMORY_SHARE)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _env() -> dict[str, str]:
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@dataclass
class Command:
    """One finished process: its exit status, resources and output."""

    status: int  # as from os.wait4: nonzero on a nonzero exit or a kill
    wall: float
    cpu: float
    rss_mb: float
    output: bytes


def command_seed(seed: int, i: int) -> int:
    """The --seed of a run's i-th command: each command of a run draws new inputs."""
    return seed * 1000 + i


def run_process(argv: list[str], out_path: Path) -> Command:
    """Run argv under the memory guard; kill its process group at the timeout."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=_env(),
                                cwd=ROOT, preexec_fn=_limit_memory, start_new_session=True)
        killer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = status  # reaped by wait4, which also gives the workers' usage
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)  # stray workers of a failed command
    return Command(status, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   out_path.read_bytes())


def setup_time() -> float:
    """Seconds from spawning a fresh interpreter until `import sumdiff` returns."""
    code = "import time, sumdiff; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout) - start


class Checker:
    """Checks outputs against the workload, verifying each distinct output once."""

    def __init__(self, workload):
        self.workload = workload
        self._verdicts: dict[tuple[int, str], str | None] = {}

    def failure(self, command: Command, seed: int) -> str | None:
        """Why the command run with `seed` failed, or None if its output is correct."""
        if command.status != 0:
            return f"wait status {command.status}"
        key = (seed, hashlib.sha256(command.output).hexdigest())
        if key not in self._verdicts:
            try:
                self.workload.check(command.output, seed)
                self._verdicts[key] = None
            except Mismatch as exc:
                self._verdicts[key] = f"wrong output: {exc}"
        return self._verdicts[key]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(workload, seed: int, seconds: float, out: Path):
    """Run the workload's command for about `seconds`; returns (failures, metrics)."""
    setup_time()  # compiles the package's bytecode once, as a first user run would
    # The host's speed drifts over seconds, so set-up is sampled before every
    # command rather than all at once.
    setups: list[float] = []
    commands: list[Command] = []
    deadline = time.perf_counter() + seconds
    # Start another command while it would end, on median, less than half a
    # command after the deadline: runs then last `seconds` on average.
    while not commands or time.perf_counter() + _median([c.wall for c in commands]) / 2 <= deadline:
        setups.append(setup_time())
        argv = workload.argv(command_seed(seed, len(commands)))
        commands.append(run_process([sys.executable, "-c", ENTRY, *argv], out / "command.out"))
    setups += [setup_time() for _ in range(SETUP_REPEATS - len(setups))]
    checker = Checker(workload)
    failures = [checker.failure(c, command_seed(seed, i)) for i, c in enumerate(commands)]
    for i, c in enumerate(commands):
        print(f"command {i}: seed={command_seed(seed, i)} wall={c.wall:.4f}s cpu={c.cpu:.4f}s "
              f"rss={c.rss_mb:.1f}MB")
    good = [c for c, f in zip(commands, failures) if f is None]
    records = workload.job.records
    metrics = {
        # On every workload one record is one classified subset, so the two
        # throughputs coincide; each names the unit its workloads count in.
        "trials_per_s": (_median([records / c.wall for c in good]), "trials/s"),
        "subsets_per_s": (_median([records / c.wall for c in good]), "subsets/s"),
        "cpu_s": (_median([c.cpu for c in good]), "s"),
        # A mean, not a median: the peak depends on the seed (glibc keeps freed
        # histogram chunks of at most 32 MiB on the heap), and the mean over a
        # run's seeds shows that share steadily.
        "peak_rss_mb": (statistics.fmean(c.rss_mb for c in good) if good else float("nan"),
                        "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return failures, metrics


def traced(workload, seed: int, out: Path):
    """One untraced parallel command, then the serial runs of layers.py."""
    seed = command_seed(seed, 0)
    checker = Checker(workload)
    parallel = run_process([sys.executable, "-c", ENTRY, *workload.argv(seed)],
                           out / "command.out")
    failures = [checker.failure(parallel, seed)]
    layers = run_process([sys.executable, str(ROOT / "perfbench" / "layers.py"),
                          "--out", str(out), "--", *workload.argv(seed, threads=1)],
                         out / "layers.log")
    if layers.status != 0:
        return failures + [f"traced run: wait status {layers.status}"] * 3, {}
    runs = json.loads((out / "runs.json").read_text(encoding="utf-8"))
    for run in runs:
        output = (out / f"{run['label']}.out").read_bytes()
        command = Command(run["exit"], run["wall"], 0.0, 0.0, output)
        failures.append(checker.failure(command, seed))
    untraced = statistics.fmean(r["wall"] for r in runs if r["label"].startswith("untraced"))
    traced_wall = next(r["wall"] for r in runs if r["label"] == "traced")
    metrics = layer_metrics(read_spans(out / "spans.jsonl"), untraced, traced_wall,
                            parallel.wall, THREADS)
    return failures, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sumdiff" / "cli.py").is_file():
        print(f"perfbench: no sumdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = OUT / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    if args.trace:
        failures, metrics = traced(workload, args.seed, out)
    else:
        failures, metrics = end_to_end(workload, args.seed, args.seconds, out)
    failed = sum(f is not None for f in failures)
    for i, failure in enumerate(failures):
        if failure is not None:
            print(f"command {i} failed: {failure}")
    if failed == len(failures):
        print("perfbench: every command failed; no metrics", file=sys.stderr)
        return 1
    print(f"{workload.name} seed={args.seed}: {workload.why}")
    print(f"ops_failed_frac = {failed / len(failures):.6g} ratio "
          f"({failed} of {len(failures)} commands)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
