"""The benchmark's workloads and the independent checks of their outputs.

Each workload is one `sumdiff` CLI command.  Its output is checked in two
ways: at the default seed the output bytes must hash to the digest recorded
at the commit that defined the benchmark, and at every seed the first record
(for `crossover` the frequency at the first grid point, for `enumerate` the
three counts) is recomputed here with numpy alone, sharing no code with the
package.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
# Workers per command: the machine the baseline was taken on has two cores.
THREADS = 2


class Mismatch(Exception):
    """An output that disagrees with its independent recomputation."""


def _uniforms(n: int, seed: int, trial: int) -> np.ndarray:
    # The sampler's specification: Philox4x64 keyed by (seed, trial), block
    # counter offset by N, one float64 uniform per element of [0, N].
    bitgen = np.random.Philox(key=[seed, trial], counter=[0, 0, n, 0])
    return np.random.Generator(bitgen).random(n + 1)


def _dilated(members: np.ndarray, n: int, coeff: int) -> np.ndarray:
    """Indicator of coeff * A, shifted to start at 0 when coeff < 0."""
    out = np.zeros(abs(coeff) * n + 1)
    out[coeff * members if coeff > 0 else -coeff * (n - members)] = 1.0
    return out


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact integer convolution of two 0/1 vectors by real FFT."""
    size = len(x) + len(y) - 1
    nfft = 1 << (size - 1).bit_length()
    raw = np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(y, nfft), nfft)[:size]
    counts = np.rint(raw)
    if size and np.abs(raw - counts).max() >= 0.25:
        raise Mismatch("FFT convolution is not exact at this size")
    return counts.astype(np.int64)


def _pair_counts(members: np.ndarray, n: int, u: int, v: int) -> np.ndarray:
    """Ordered-pair counts of u*a1 + v*a2, indexed from the smallest value."""
    return _convolve(_dilated(members, n, u), _dilated(members, n, v))


def _comb_sum(counts: np.ndarray, k: int) -> int:
    values, times = np.unique(counts[counts >= k], return_counts=True)
    return sum(math.comb(int(r), k) * int(t) for r, t in zip(values, times))


def _image_size(members: np.ndarray, n: int, u: int, v: int) -> int:
    """|{u*a1 + v*a2 : a1, a2 in A}|, by enumerating pairs or, for large A, by FFT."""
    if members.size**2 > 4 * n:
        return int(np.count_nonzero(_pair_counts(members, n, u, v)))
    marks = np.zeros((u + abs(v)) * n + 1, dtype=bool)
    marks[(u * members[:, None] + v * members[None, :]).ravel() + (abs(v) * n if v < 0 else 0)] = 1
    return int(np.count_nonzero(marks))


@dataclass(frozen=True)
class Sweep:
    """`sumdiff sweep` over one N; a record is one trial."""

    n: int
    trials: int
    family: tuple[str, ...]  # ("--c", C, "--delta", D) or ("--p", P)
    stats: str
    forms: tuple[tuple[int, int], ...] = ()

    def argv(self, seed: int, threads: int) -> list[str]:
        forms = [arg for u, v in self.forms for arg in ("--form", f"{u},{v}")]
        return ["sweep", "--n", str(self.n), *self.family, "--stats", self.stats, *forms,
                "--trials", str(self.trials), "--seed", str(seed), "--threads", str(threads)]

    @property
    def records(self) -> int:
        return self.trials

    def _p(self) -> float:
        flags = dict(zip(self.family[::2], self.family[1::2]))
        if "--p" in flags:
            return float(flags["--p"])
        return float(flags["--c"]) * float(self.n) ** (-float(flags["--delta"]))

    def expected_first_row(self, seed: int) -> dict[str, str]:
        n, p = self.n, self._p()
        members = np.flatnonzero(_uniforms(n, seed, 0) < p)
        tokens = self.stats.split(",")
        max_k = max((int(t[3:]) for t in tokens if t.startswith("xk:")), default=0)
        row = {"schema_version": "1", "N": str(n), "p": f"{p:.17g}", "trial_index": "0",
               "set_size": str(members.size)}
        s_size, d_size = _image_size(members, n, 1, 1), _image_size(members, n, 1, -1)
        if "sizes" in tokens or "missing" in tokens:
            row.update(sumset_size=str(s_size), diffset_size=str(d_size))
        if "missing" in tokens:
            row.update(missing_sums=str(2 * n + 1 - s_size),
                       missing_diffs=str(2 * n + 1 - d_size))
        for u, v in self.forms:
            size = _image_size(members, n, u, v)
            row[f"form_{u}_{v}_size"] = str(size)
            row[f"form_{u}_{v}_missing"] = str((u + abs(v)) * n - size)
        if max_k or "y" in tokens:
            sums = _pair_counts(members, n, 1, 1)
            sums = (sums + (_dilated(members, n, 2) > 0)) // 2  # unordered pairs
            diffs = _pair_counts(members, n, 1, -1)
            off_zero = diffs.copy()
            off_zero[n] = 0  # the zero difference is not a collision
            for k in range(1, max_k + 1):
                row[f"x{k}"] = str(_comb_sum(sums, k))
            for k in range(1, max_k + 1):
                row[f"xp{k}"] = str(_comb_sum(off_zero, k))
            if "y" in tokens:
                row["y"] = str(_comb_sum(diffs[n + 1:], 2))
        return row

    def check(self, output: bytes, seed: int) -> None:
        rows = list(csv.DictReader(io.StringIO(output.decode())))
        if [r["trial_index"] for r in rows] != [str(t) for t in range(self.trials)]:
            raise Mismatch(f"expected trials 0..{self.trials - 1}, got {len(rows)} rows")
        expected = self.expected_first_row(seed)
        if list(rows[0]) != list(expected):
            raise Mismatch(f"columns {list(rows[0])} != {list(expected)}")
        if rows[0] != expected:
            raise Mismatch(f"first record {rows[0]} != recomputed {expected}")


@dataclass(frozen=True)
class Crossover:
    """`sumdiff crossover`; a record is one (trial, c) pair."""

    n: int
    trials: int
    forms: tuple[tuple[int, int], tuple[int, int]]
    grid: tuple[float, ...]

    def argv(self, seed: int, threads: int) -> list[str]:
        (fu, fv), (gu, gv) = self.forms
        return ["crossover", "--form", f"{fu},{fv}", "--form", f"{gu},{gv}", "--n", str(self.n),
                "--c-grid", ",".join(map(str, self.grid)),
                "--trials", str(self.trials), "--seed", str(seed)]

    @property
    def records(self) -> int:
        return self.trials * len(self.grid)

    def expected_first_line(self, seed: int) -> str:
        """The first record: the domination frequency at the first grid point."""
        (fu, fv), (gu, gv) = self.forms
        c = self.grid[0]
        wins = 0
        for t in range(self.trials):
            members = np.flatnonzero(_uniforms(self.n, seed, t) < c / math.sqrt(self.n))
            wins += _image_size(members, self.n, fu, fv) > _image_size(members, self.n, gu, gv)
        return f"c={c:.6g} freq={wins / self.trials:.4f}"

    def check(self, output: bytes, seed: int) -> None:
        lines = output.decode().splitlines()
        labels = [line.split(" ")[0] for line in lines[:-1]]
        if labels != [f"c={c:.6g}" for c in self.grid] or not lines[-1].startswith("crossover="):
            raise Mismatch(f"unexpected layout {lines!r}")
        expected = self.expected_first_line(seed)
        if lines[0] != expected:
            raise Mismatch(f"first record {lines[0]!r} != recomputed {expected!r}")


@dataclass(frozen=True)
class Enumerate:
    """`sumdiff enumerate`; a record is one classified subset of [0, N]."""

    n: int

    def argv(self, seed: int, threads: int) -> list[str]:
        return ["enumerate", "--n", str(self.n)]

    @property
    def records(self) -> int:
        return 1 << (self.n + 1)

    def expected_output(self) -> str:
        # Every subset as a uint64 mask; A+A and A-A (shifted by N) as masks of
        # at most 2N+1 bits, OR-accumulated over the members i of A.
        n = self.n
        masks = np.arange(1 << (n + 1), dtype=np.uint64)
        sums = np.zeros_like(masks)
        diffs = np.zeros_like(masks)
        for i in range(n + 1):
            member = np.uint64(0) - ((masks >> np.uint64(i)) & np.uint64(1))
            sums |= (masks << np.uint64(i)) & member
            diffs |= (masks << np.uint64(n - i)) & member
        s, d = np.bitwise_count(sums), np.bitwise_count(diffs)
        return (f"N={n} subsets={masks.size}\n"
                f"sum_dominated={int(np.count_nonzero(s > d))}\n"
                f"balanced={int(np.count_nonzero(s == d))}\n"
                f"difference_dominated={int(np.count_nonzero(s < d))}\n")

    def check(self, output: bytes, seed: int) -> None:
        expected = self.expected_output()
        if output.decode() != expected:
            raise Mismatch(f"output {output.decode()!r} != recomputed {expected!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    job: Sweep | Crossover | Enumerate
    digest: str | None  # sha256 of the output at DEFAULT_SEED

    def argv(self, seed: int, threads: int = THREADS) -> list[str]:
        return self.job.argv(seed, threads)

    def check(self, output: bytes, seed: int) -> None:
        """Raise Mismatch unless `output` is this workload's correct output."""
        if seed == DEFAULT_SEED and self.digest is not None:
            got = hashlib.sha256(output).hexdigest()
            if got != self.digest:
                raise Mismatch(f"sha256 {got} != recorded {self.digest}")
        try:
            self.job.check(output, seed)
        except (KeyError, IndexError, ValueError, UnicodeDecodeError) as exc:
            raise Mismatch(f"unparseable output: {exc!r}") from None


WORKLOADS = {w.name: w for w in (
    Workload(
        "dense-images",
        "delta = 0.3, |A| ~ 16k: the sets image kernels (sumset, diffset, form (2,-1)) do ~99% "
        "of the work",
        Sweep(10**6, 2, ("--c", "1", "--delta", "0.3"), "sizes,missing", ((2, -1),)),
        "c203fc3908f32e849fa5923e41cf6c5b6a9cc7c3b4b1968442c66b9438b23849",
    ),
    Workload(
        "sparse-trials",
        "delta = 0.7, |A| ~ 63: many cheap trials where the O(N) sampling and mask costs, the "
        "pool and the CSV writer dominate",
        Sweep(10**6, 300, ("--c", "1", "--delta", "0.7"), "sizes,missing", ((2, -1),)),
        "beed035bb93150deef76a90fccf4cdb9c35ff249dc9b4e64ea6281567c18890e",
    ),
    Workload(
        "collision-hist",
        "N = 10^4, p = 1/2: representation histograms (rep_histogram sum and diff) do ~90% of "
        "the work",
        Sweep(10**4, 10, ("--p", "0.5"), "sizes,missing,xk:3,y"),
        "ceb29755587b97af7f6c286e121ed80d7c6404dc4647faf0cdd0240d3eb6d216",
    ),
    Workload(
        "crossover-grid",
        "the gate-8 c grid: the only path through sample_uniforms and the serial c-grid loop, "
        "at a mid-size |A| of 670-1240",
        Crossover(10**6, 8, ((4, -3), (5, -1)), (0.67, 0.77, 0.86, 0.96, 1.05, 1.15, 1.24)),
        "99254c038b3c0c518412595aee48d9b5f53635c2fe5e6cf177207eb1208afed2",
    ),
    Workload(
        "exhaustive",
        "enumerate --n 20: the only path through the pure-Python enumerate_exhaustive loop",
        Enumerate(20),
        "f835f6951f0e96abc6f78d66cd06d644e4d4e931af1ef6236c52589d9d67947a",
    ),
)}
