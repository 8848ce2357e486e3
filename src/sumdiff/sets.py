"""Exact set arithmetic and collision statistics for finite integer sets.

An :class:`IntegerSet` stores a subset of an integer interval ``[lo, hi]``
as its sorted member array.  Every image (sumset, difference set, linear-
form image) and every representation histogram is the support, or the
values, of a convolution of dilated indicator vectors of A.  One primitive
computes it by the cheapest of three branches: direct pair sums into an
array as wide as the image interval, for small sets in narrow intervals;
the sorted pair sums, which hold only the values some pair makes, for
small sets in wide intervals; and an FFT whose rounding is checked to be
exact, for large sets.  It prices each call by the branch it runs, in
time and in memory, and refuses a call that exceeds either budget.
Every branch returns a _PairSums, whose methods alone read its layout,
dense, sorted or grid; a RepHistogram keeps it as it came, never spread
over the interval, so the histogram of a sparse set at N = 10^9 takes a
few MB.

The FFT convolves on a rows x cols grid, rows odd and 3,5-smooth and cols
a power of 2, that covers the image interval: by Good's and Thomas's
prime-factor map, offset j sits at (j mod rows, j mod cols), and a cyclic
convolution of length rows*cols is a 2-D one with no twiddle factors,
whose short axes transform within cache.  An indicator is built and
transformed along its rows a block of rows at a time, straight into its
half spectrum, and the inverse transform is rounded, checked and cast a
block of rows at a time too, so a call holds its result and at most two
half spectra, never a float64 grid.  Its result stays on the grid: sizes,
counts at a value and histogram profiles read it there, and only the
ordered support and counts gather it into value order, by diagonal runs.

The images and histograms of one set share its spectrum X, the grid DFT
of A's indicator, taken once per grid shape: the pair sums under (u, v)
are the inverse transform of X(u*k) * X(v*k), and the spectrum of A
dilated by c is X(c*k), read off X by strided slices along both axes.  So
the sum set, the difference set and the (2,-1) image of one large set take
5 transforms, not 9, in one call whose ordered requests the sharing
follows.  A request forms its product inside X unless the next one reuses
X, or unless the copies of X's rows that its odd factors |c| > 1 read
would hold a half spectrum or more; an even factor reads X's columns in
place, written in order of their 2-adic valuation.  So a request holds at
most two half spectra, and (2,-1) one.  The differences' product |X|^2
is real and even, so their inverse transform takes half the rows and
mirrors the rest; callers
request A-A before A+A, so that the differences keep X and the sums form
their product in it.  A k-ary image starts so too; only its later folds
convolve two indicator vectors, with two half spectra and the same inverse
transform and exactness check.  The crossover grows its images as direct
pairs into class marks.

All operations are pure: values never mutate after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import repeat
from math import gcd
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceBudgetError

# Largest cost (see _pair_sums) allowed for one pair-sum kernel call.
PAIR_BUDGET = 10**10

# Largest memory (see _pair_sums) allowed for one pair-sum kernel call, in
# bytes: a quarter of an 8 GB host.
PAIR_MEMORY_BUDGET = 2**31

# Direct pairs are summed one block of rows at a time, each block of about
# 10^7 sums, into one reused buffer.
_CHUNK_ENTRIES = 10**7

# A grid is built, finished and gathered into value order about this many
# cells at a time: 64 rows of a 1024-column grid, whose float64 blocks stay
# within L2.
_GATHER_BLOCK = 2**16

# The cost of one FFT step (see _grid_steps) in units of one direct pair,
# measured at N = 10^6, |A| = 2000 and 6000, marks (1.3-2.0 ns over 5-8.5
# ns; see the table in CHANGES.md).
_PAIRS_PER_FFT_STEP = 0.3

# The fixed cost of one FFT call, in steps: about 110 us over a direct
# call's, 3*10^4 direct pairs, measured on grids of 25 to 4320 cells.
_FFT_CALL_STEPS = 10**5

# Axes up to _SHORT_AXIS long transform within cache; each doubling past it
# costs _LONG_AXIS_STEPS more steps per cell (see _grid_steps).
_SHORT_AXIS = 2**10
_LONG_AXIS_STEPS = 4.0

# The cost of one sorted-pairs step (of pairs*log2(pairs)) in units of one
# direct pair: forming, sorting and comparing the sums, 0.47-0.95 ns a step
# over 2.8-4.3 ns a pair (see the table in CHANGES.md).
_PAIRS_PER_SORT_STEP = 0.2

# The cost of one value of the interval to the direct branch, in units of
# one pair: zeroing, scattering into and counting its marks (index 0,
# 0.05-0.13 ns) or counts (index 1, 0.2-0.6 ns).
_PAIRS_PER_SLOT = (0.03, 0.1)


class IntegerSet:
    """Immutable subset of the integer interval ``[lo, hi]``."""

    __slots__ = ("lo", "hi", "_members")

    def __init__(self, elements: Iterable[int], lo: int, hi: int):
        lo, hi = _integer(lo, "lo"), _integer(hi, "hi")
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        values = [_integer(x, "an element") for x in elements]
        try:
            members = np.unique(np.array(values, dtype=np.int64))
        except OverflowError:
            raise ValueError(f"elements must fit in int64, got {max(values, key=abs)}") from None
        if members.size and (members[0] < lo or members[-1] > hi):
            bad = members[(members < lo) | (members > hi)]
            raise ValueError(f"elements outside [{lo}, {hi}]: {bad[:5].tolist()}")
        self._assign(members, lo, hi)

    def _assign(self, members: np.ndarray, lo: int, hi: int) -> "IntegerSet":
        self.lo = int(lo)
        self.hi = int(hi)
        members.flags.writeable = False
        self._members = members
        return self

    @classmethod
    def from_members(cls, members: np.ndarray, lo: int, hi: int) -> "IntegerSet":
        """Build from a sorted, unique, in-range array (trusted); copies it as int64."""
        return cls.__new__(cls)._assign(np.array(members, dtype=np.int64), lo, hi)

    @property
    def count(self) -> int:
        return int(self._members.size)

    def members(self) -> np.ndarray:
        """Sorted member values (read-only view)."""
        return self._members

    def __len__(self) -> int:
        return self.count

    def __contains__(self, value: int) -> bool:
        i = int(np.searchsorted(self._members, value))
        return i < self.count and bool(self._members[i] == value)

    def __iter__(self) -> Iterator[int]:
        return iter(self._members.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerSet):
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi) and np.array_equal(
            self._members, other._members
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self._members.tobytes()))

    def __repr__(self) -> str:
        head = self._members[:8].tolist()
        tail = "..." if self.count > 8 else ""
        return f"IntegerSet([{self.lo},{self.hi}] n={self.count} {{{', '.join(map(str, head))}{tail}}})"


def _integer(value: object, what: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` as an int; a ValueError unless it is a Python or numpy integer
    (not a bool) in [least, most], either bound optional.  This, _real and
    _boolean are the package's only checks on the counts, rates and flags it
    is passed, and their ranges."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{what} must be <= {most}, got {value}")
    return value


def _real(value: object, what: str, lo: float = 0.0, hi: float = math.inf, closed: bool = False) -> float:
    """``value`` as a float; a ValueError unless it is a Python or numpy real
    number (not a bool) strictly inside (lo, hi), so never NaN or infinite;
    inside [lo, hi] if ``closed``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and (lo <= value <= hi if closed else lo < value < hi)):
        left, right = "[]" if closed else "()"
        raise ValueError(f"{what} must be a number in {left}{lo:g}, {hi:g}{right}, got {value!r}")
    return float(value)


def _boolean(value: object, what: str) -> bool:
    """``value`` as a bool; a ValueError unless it is a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a boolean, got {value!r}")
    return bool(value)


def make_set(elements: Iterable[int], lo: int, hi: int) -> IntegerSet:
    """Set of the distinct ``elements``: int64-range integers (not bools) in [lo, hi]."""
    return IntegerSet(elements, lo, hi)


@dataclass(frozen=True)
class LinearForm:
    """A linear form u1*x1 + ... + uk*xk with non-zero integer coefficients.

    Binary forms (k=2) must satisfy u >= |v| >= 1 and gcd(u, v) = 1;
    (1, 1) is the sum form, every other admissible pair is a difference
    form.  Forms with k >= 3 require gcd(u1, ..., uk) = 1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(_integer(c, "a coefficient") for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 2:
            raise ValueError("a linear form needs at least two coefficients")
        if any(c == 0 for c in coeffs):
            raise ValueError(f"zero coefficient in {coeffs}")
        if len(coeffs) == 2:
            u, v = coeffs
            if u < abs(v) or v == 0:
                raise ValueError(f"binary form requires u >= |v| > 0, got {coeffs}")
            if gcd(u, v) != 1:
                raise ValueError(f"binary form requires gcd(u, v) = 1, got {coeffs}")
        else:
            g = 0
            for c in coeffs:
                g = gcd(g, c)
            if g != 1:
                raise ValueError(f"coefficients must be coprime overall, got {coeffs}")

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    @property
    def kind(self) -> str:
        if self.arity == 2:
            return "binary-sum" if self.coeffs == (1, 1) else "binary-difference"
        return "k-ary"

    @property
    def u(self) -> int:
        if self.arity != 2:
            raise ValueError("u/v defined for binary forms only")
        return self.coeffs[0]

    @property
    def v(self) -> int:
        if self.arity != 2:
            raise ValueError("u/v defined for binary forms only")
        return self.coeffs[1]

    @property
    def weight(self) -> int:
        """Sum of absolute coefficients (the scale of the image interval)."""
        return sum(abs(c) for c in self.coeffs)

    def label(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"

    def __str__(self) -> str:
        return self.label()


# The histogram kinds "sum" and "diff" are the forms (1, 1) and (1, -1).
KIND_FORMS = {"sum": LinearForm((1, 1)), "diff": LinearForm((1, -1))}


def kind_form(kind: str, form: LinearForm | None = None) -> LinearForm:
    """The binary form of ``kind``: KIND_FORMS[kind], or ``form`` for kind="form"."""
    if kind == "form":
        if form is None or form.arity != 2:
            raise ValueError("kind='form' requires a binary LinearForm")
        return form
    if kind not in KIND_FORMS:
        raise ValueError(f"unknown kind {kind!r}")
    if form is not None:
        raise ValueError(f"form is used only with kind='form', got form={form} with kind={kind!r}")
    return KIND_FORMS[kind]


@dataclass(frozen=True)
class RepHistogram:
    """Representation counts R(value) over a value interval.

    kind="sum":  R(n) = unordered pairs {a1, a2} (repetition allowed) with
                 a1 + a2 = n; totals |A|(|A|+1)/2.
    kind="diff": R(d) = ordered pairs (a1, a2) with a1 - a2 = d (diagonal
                 included, so R(0) = |A|); totals |A|^2.
    kind="form": R(n) = ordered pairs (a1, a2) with u*a1 + v*a2 = n
                 (diagonal included); totals |A|^2.
    """

    kind: str
    domain_lo: int
    domain_hi: int
    _sums: _PairSums = field(repr=False, compare=False)
    form: LinearForm | None = None

    def __post_init__(self):
        self._sums.cells.flags.writeable = False

    def __eq__(self, other):
        """Same kind, domain and form, and the same R(value) at every value,
        whichever layout holds the counts.  The hash covers the first three."""
        if not isinstance(other, RepHistogram):
            return NotImplemented
        mine, theirs = self._sums, other._sums
        return (
            (self.kind, self.domain_lo, self.domain_hi, self.form)
            == (other.kind, other.domain_lo, other.domain_hi, other.form)
            and np.array_equal(mine.support(), theirs.support())
            and np.array_equal(mine.multiplicities(), theirs.multiplicities())
        )

    def count(self, value: int) -> int:
        value = _integer(value, "value")
        if value < self.domain_lo or value > self.domain_hi:
            return 0
        return self._sums.count(value)

    def total(self) -> int:
        return int(self._sums.multiplicities(ordered=False).sum())

    def support_size(self) -> int:
        """Number of values with R(value) >= 1."""
        return self._sums.size()

    def nonzero_items(self) -> Iterator[tuple[int, int]]:
        for value, r in zip(self._sums.support(), self._sums.multiplicities()):
            yield int(value), int(r)


def sumset(a: IntegerSet) -> IntegerSet:
    """A + A over [2*lo, 2*hi]."""
    return form_image(a, KIND_FORMS["sum"])


def diffset(a: IntegerSet) -> IntegerSet:
    """A - A over [lo - hi, hi - lo]; symmetric about 0."""
    return form_image(a, KIND_FORMS["diff"])


def form_image(a: IntegerSet, form: LinearForm) -> IntegerSet:
    """{u1*a1 + ... + uk*ak : ai in A} over its exact representable interval."""
    marks = next(_self_pair_sums(a, [(form.coeffs, False)]))
    return IntegerSet.from_members(marks.support(), marks.lo, _image_interval(a.lo, a.hi, form.coeffs)[1])


def _image_interval(lo: int, hi: int, coeffs: tuple[int, ...]) -> tuple[int, int]:
    """The interval of the image under ``coeffs`` of the integers in [lo, hi]."""
    return sum(min(c * lo, c * hi) for c in coeffs), sum(max(c * lo, c * hi) for c in coeffs)


def _check_int64(coeffs: tuple[int, ...], lo: int, hi: int) -> None:
    """A ValueError unless, for x in [lo, hi], the terms c*x, their sums and
    the sums' offsets from the image interval's low end all fit int64: none
    exceeds 2 * weight * max(|lo|, |hi|) in size."""
    if 2 * sum(map(abs, coeffs)) * max(abs(lo), abs(hi)) >= 2**63:
        raise ValueError(f"the image of [{lo}, {hi}] under the form {coeffs} does not fit int64")


def _self_pair_sums(
    a: IntegerSet, requests: Sequence[tuple[tuple[int, ...], bool]]
) -> Iterator[_PairSums]:
    """For each request (coeffs, count) in turn, the pair sums of A under
    ``coeffs`` over their image interval: ordered-pair counts if ``count``
    (binary ``coeffs`` only), else marks.  Each is yielded before the next
    request runs.

    Every request starts from the pair sums of its first two coefficients,
    which share A's spectrum X at each grid shape.  A k-ary request then
    folds in cj*A for each later cj.  X is kept after a product only if
    this request is binary and the next has the same shape.  Such a
    request, or one whose lattice copies would hold a half spectrum or more
    (see _inside), forms its product in an array of its own.  Any other
    forms it inside X, so that X alone is held through its inverse
    transform and freed before a fold.  A request (1, -1) or (-1, 1), the
    differences, takes the inverse transform down the columns of half the
    rows (see _gap_columns), so it holds half a product at most.
    """
    for coeffs, _ in requests:
        _check_int64(coeffs, a.lo, a.hi)
    members = a.members()
    firsts = [_image_interval(a.lo, a.hi, coeffs[:2]) for coeffs, _ in requests]
    shapes = [_grid_shape(hi - lo + 1) for lo, hi in firsts]
    keeps = [len(c) == 2 and s == after for (c, _), s, after in zip(requests, shapes, shapes[1:] + [None])]
    held: dict = {}  # shape: X while the next request has this shape

    def columns(coeffs, start, keep, shape):
        x = held.pop(shape) if shape in held else _spectrum(members - a.lo, shape)
        if keep:
            held[shape] = x
        if _is_gap(coeffs):
            gap_rows = (shape[0] // 2 + 1, x.shape[1])
            return _gap_columns(x, np.empty(gap_rows, dtype=x.dtype) if keep else x[: gap_rows[0]]), start
        product = x if _inside(coeffs, shape, keep) else np.empty_like(x)
        _dilated_product(x, coeffs, shape[1], product)
        return np.fft.ifft(product, axis=0, out=product), start

    for (coeffs, count), (lo, hi), shape, keep in zip(requests, firsts, shapes, keeps):
        u, v = coeffs[:2]
        # The dilated indicators convolve u*a1 + v*a2 to the index
        # u*(a1 - a.lo) + v*(a2 - a.lo) mod the grid's size, so lo - (u+v)*a.lo holds lo.
        spectrum = partial(columns, (u, v), lo - (u + v) * a.lo, keep), _held_bytes((u, v), shape, keep)
        sums = _pair_sums(u * members, v * members, lo, hi, count, spectrum)
        for j in range(2, len(coeffs)):
            lo, hi = _image_interval(a.lo, a.hi, coeffs[: j + 1])
            sums = _pair_sums(sums.support(), coeffs[j] * members, lo, hi, False)
        yield sums
        del sums  # not held while the next request runs


def _is_gap(coeffs: tuple[int, int]) -> bool:
    """Whether ``coeffs`` is (1, -1) or (-1, 1): pair sums a1 - a2 (or a2 - a1)."""
    return abs(coeffs[0]) == 1 and coeffs[1] == -coeffs[0]


def _half_spectrum_bytes(rows: int, cols: int) -> int:
    """The bytes of the complex128 half spectrum of a rows x cols grid."""
    return 16 * rows * (cols // 2 + 1)


def _lattice_bytes(coeffs: tuple[int, int], shape: tuple[int, int]) -> int:
    """The bytes of the lattice copies (see _lattice) that a product formed
    inside X on a grid of ``shape`` reads: one for each odd |c| > 1, of X's
    rows = 0 mod gcd(c, rows)."""
    rows, cols = shape
    return sum(_half_spectrum_bytes(rows // gcd(c, rows), cols) for c in coeffs if c % 2 and abs(c) > 1)


def _inside(coeffs: tuple[int, int], shape: tuple[int, int], keep: bool) -> bool:
    """Whether an FFT request under the binary ``coeffs`` forms its product
    inside X: unless it keeps X for the next request, or its lattice copies
    would hold a half spectrum or more, as much as a product beside X."""
    return not keep and _lattice_bytes(coeffs, shape) < _half_spectrum_bytes(*shape)


def _held_bytes(coeffs: tuple[int, int], shape: tuple[int, int], keep: bool) -> int:
    """The half spectra an FFT request under the binary ``coeffs`` holds on
    a grid of ``shape``, in bytes: A's spectrum X, and a product of its own
    (half the rows of one for the differences, none for differences that
    do not keep X), or, inside X, the lattice copies it reads."""
    rows, cols = shape
    x = _half_spectrum_bytes(rows, cols)
    if _is_gap(coeffs):
        return x + (_half_spectrum_bytes(rows // 2 + 1, cols) if keep else 0)
    return x + (_lattice_bytes(coeffs, shape) if _inside(coeffs, shape, keep) else x)


def _dilated_product(x: np.ndarray, coeffs: tuple[int, int], cols: int, out: np.ndarray) -> None:
    """out[k, l] = X(u*k, u*l) * X(v*k, v*l) for (u, v) = ``coeffs``, indices
    mod the grid's shape (rows, cols), for l in [0, x.shape[1]), where x
    holds the half spectrum X(k, 0), ..., X(k, cols//2) of a real grid.
    ``out`` is an array of x's shape, or x itself.

    X(c*k, c*l) is the spectrum of the grid dilated by c, and X(-k, -l) =
    conj X(k, l).  Over each rectangle of k and l on which no c*k mod rows
    wraps and no c*l mod cols wraps or passes cols//2, a factor is a strided
    slice, conjugated or not, so the product is formed one rectangle at a
    time.  Inside and beside x it takes one traversal, so the two are equal
    bit for bit.

    With no even coefficient, the rectangles span all columns at once.  In
    x itself, a factor with |c| = 1 is read at the cell it overwrites, and
    is copied first only where numpy would not read it so: the other factor
    is conjugated into the cell first, or the rectangle is one cell, which
    numpy multiplies in place by another path, whose rounding differs.  A
    factor with odd |c| > 1 reads X only at rows = 0 mod gcd(c, rows), so
    those rows are copied first into a contiguous half spectrum of a smaller
    grid (_lattice).

    With an even coefficient, the columns are written in order of their
    2-adic valuation (see _levels): cols is a power of 2, so the factor at
    column l reads column c*l mod cols, folded at cols//2, whose valuation is
    larger unless it is column 0.  It is written later, so it is intact when
    read, and column 0, last, reads a copy of itself.  A level is strided,
    and numpy's arithmetic on strided complex views is slow, so each block
    of rows gathers both factors into contiguous buffers, multiplies there
    and scatters the block into place.
    """
    rows, half = x.shape
    factors = [_lattice(x, c, cols) if out is x and c % 2 and abs(c) > 1 else (x, abs(c), abs(c), cols) for c in coeffs]
    row_cuts, col_cuts = {0, rows}, {0, half}
    for (y, row_step, col_step, y_cols), c in zip(factors, coeffs):
        for s in range(abs(c) + 1):
            edge = -(-s * y.shape[0] // row_step)
            row_cuts.update((min(rows, edge), min(rows, edge + 1)))
            col_cuts.update(min(half, -(-edge // col_step)) for edge in (s * y_cols, s * y_cols + y.shape[1]))
    row_cuts = sorted(row_cuts)
    # two complex buffers of chunk cells make one float64 block
    chunk = max(1, _grid_block((rows, cols)) * cols // 4)
    even = not all(c % 2 for c in coeffs)
    buffers = np.empty((2, chunk), dtype=x.dtype) if even else None
    for level in _levels(half, cols) if even else [range(half)]:
        if even and level.start == 0:  # column 0 reads itself
            zero = x[:, :1].copy()
            factors = [(zero if y is x else y, *steps) for y, *steps in factors]
        # the column cuts as positions in the level
        level_cuts = sorted({min(len(level), max(0, -(-(l - level.start) // level.step))) for l in col_cuts})
        for k0, k1 in zip(row_cuts, row_cuts[1:]):
            for t0, t1 in zip(level_cuts, level_cuts[1:]):
                seg = out[k0:k1, level.start : level.stop : level.step][:, t0:t1]
                views = [
                    _dilation(*factor, c < 0, k0, level[t0], level.step, seg.shape)
                    for factor, c in zip(factors, coeffs)
                ]
                if even:
                    _multiply_through(seg, views, buffers)
                else:
                    _multiply_in_place(seg, views, [y is out for y, *_ in factors], chunk)


def _levels(half: int, cols: int) -> list[range]:
    """The columns [0, half) of a grid of ``cols`` columns, a power of 2, by
    2-adic valuation: the odd columns, then 2 mod 4, and so on, column 0
    last."""
    return [range(1 << s, half, 2 << s) for s in range(cols.bit_length() - 1)] + [range(1)]


def _multiply_in_place(seg: np.ndarray, views: list, aliased: list[bool], chunk: int) -> None:
    """seg = the product of the two ``views``, each a factor and whether to
    conjugate it.  A factor ``aliased`` to seg's own cells is copied first,
    a block of rows (``chunk`` cells) at a time, only where numpy would not
    read it in place: the other factor is conjugated into seg first, or seg
    is one cell."""
    rows, width = seg.shape
    mismatched = views[0][1] != views[1][1]
    copy = [alias and (seg.size == 1 or (mismatched and not conj)) for alias, (_, conj) in zip(aliased, views)]
    step = max(1, chunk // width) if any(copy) else rows
    for i in range(0, rows, step):
        part = seg[i : i + step]
        (a, conj_a), (b, conj_b) = (
            (view[i : i + step].copy() if copied else view[i : i + step], conj)
            for (view, conj), copied in zip(views, copy)
        )
        if conj_a == conj_b:
            np.multiply(a, b, out=part)
            if conj_a:
                np.conjugate(part, out=part)
        else:  # conj(a) * b or a * conj(b)
            np.conjugate(a if conj_a else b, out=part)
            part *= b if conj_a else a


def _multiply_through(seg: np.ndarray, views: list, buffers: np.ndarray) -> None:
    """seg = the product of the two ``views``, each a factor and whether to
    conjugate it, a block of rows at a time: both factors are gathered into
    the two contiguous ``buffers``, multiplied there and scattered into
    seg."""
    rows, width = seg.shape
    step = max(1, buffers.shape[1] // width)
    (view_a, conj_a), (view_b, conj_b) = views
    for i in range(0, rows, step):
        part = seg[i : i + step]
        a, b = (buffer[: part.size].reshape(part.shape) for buffer in buffers)
        np.copyto(a, view_a[i : i + step])
        np.copyto(b, view_b[i : i + step])
        if conj_a != conj_b:
            np.conjugate(a if conj_a else b, out=a if conj_a else b)
        np.multiply(a, b, out=a)
        if conj_a and conj_b:
            np.conjugate(a, out=a)
        np.copyto(part, a)


def _lattice(x: np.ndarray, c: int, cols: int) -> tuple[np.ndarray, int, int, int]:
    """X(|c|*k, |c|*l) for odd c as (y, row step, column step, y's grid
    columns): y is X at rows = 0 mod g = gcd(c, rows), copied contiguous,
    the half spectrum of a (rows/g) x cols grid, and X(|c|*k, |c|*l) =
    Y(|c|/g * k, |c| * l)."""
    m = abs(c)
    g = gcd(m, x.shape[0])
    return x[::g].copy(), m // g, m, cols


def _dilation(
    y: np.ndarray, row_step: int, col_step: int, cols: int, negate: bool, k0: int, l0: int, l_step: int,
    shape: tuple[int, int],
) -> tuple[np.ndarray, bool]:
    """Y(row_step*k, col_step*l), conjugated if ``negate``, over the rows
    from k0 and the columns l0, l0 + l_step, ... of ``shape``, y the half
    spectrum of a grid of ``cols`` columns, on which the row does not wrap
    and the column neither wraps nor passes cols//2: a strided slice of y,
    and whether it is to be conjugated.  Past cols//2, Y(k, j) = conj Y(-k,
    cols - j), so the rows are read backwards too."""
    j = col_step * l0 % cols
    back = j >= y.shape[1]
    rs, cs = (-row_step, -col_step) if back else (row_step, col_step)
    view = y[rs * k0 % y.shape[0] :: rs, (cols - j if back else j) :: cs * l_step]
    return view[: shape[0], : shape[1]], negate != back


def _gap_columns(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The inverse transform down the columns of |X|^2, the spectrum of A's
    differences d, for rows 0, ..., rows//2 of x's grid, into ``out``:
    those rows of x itself, or an array of their shape.

    |X|^2 is real, so each column takes a real transform, conjugated into
    the inverse; and even, so d(-j, -m) = d(j, m) gives the other rows (see
    _fft_pair_sums).  |X|^2 is formed a block of columns at a time, each
    read before its columns of ``out`` are written; a block is about half
    _GATHER_BLOCK cells, numpy's ufunc buffer for its strided read the rest.
    """
    rows, half = x.shape
    width = max(1, _GATHER_BLOCK // (2 * rows))
    power = np.empty((rows, min(width, half)))
    for l0 in range(0, half, width):
        part = power[:, : min(width, half - l0)]
        np.abs(x[:, l0 : l0 + width], out=part)
        np.square(part, out=part)
        np.fft.rfft(part, axis=0, norm="forward", out=out[:, l0 : l0 + width])
    return np.conjugate(out, out=out)


def _class_marks(coeffs: tuple[int, int], n: int, r: int = 0) -> tuple[int, int]:
    """The values x + v*t, x in [0, n] and r + u*t in [0, n], over which
    _grown_sizes marks class r of y mod u, class 0's the widest.  A
    ValueError unless the images of [0, n] fit int64, then a
    ResourceBudgetError if the marks alone, with no pair, exceed a budget."""
    _check_int64(coeffs, 0, n)
    u, v = coeffs
    reach = v * ((n - r) // u)
    lo, hi = min(0, reach), n + max(0, reach)
    _check_budget(*_direct_price(0, 0, hi - lo + 1, False), f"a class of {coeffs}'s marks at N = {n}")
    return lo, hi


def _grown_sizes(members: np.ndarray, ends: Sequence[int], coeffs: tuple[int, int], n: int) -> list[int]:
    """For each of the ascending ``ends``, the size of the image under the
    binary form ``coeffs`` of members[:end] (distinct elements of [0, n]).

    Write y = r + u*t with r = y mod u.  Then u*x + v*y = v*r + u*(x + v*t),
    and as gcd(u, v) = 1 each class r of y lands in its own class mod u, so
    the image's size is the sum over r of |A + v*T_r|, T_r = {t : r + u*t in
    A}.  Each class's marks span n + |v|*((n - r) // u) + 1 values, u times
    fewer than the image's, and are grown in place over all ends before the
    next class's, in one buffer: only the pairs with a new element are added
    in, as direct pairs, new x with v*T_r so far and old x with v*(new t).
    """
    lo, hi = _class_marks(coeffs, n)
    buffer = np.zeros(hi - lo + 1, dtype=bool)
    u, v = coeffs
    members = members[: ends[-1]]
    sizes = [0] * len(ends)
    for r in range(min(u, n + 1)):  # a class r > n holds no y in [0, n]
        at = np.flatnonzero(members % u == r)
        vt = v * ((members[at] - r) // u)
        t_ends = np.searchsorted(at, ends).tolist()  # class members in each prefix
        lo, hi = _class_marks(coeffs, n, r)
        marks = buffer[: hi - lo + 1]
        for i, (start, end, t_start, t_end) in enumerate(zip([0, *ends], ends, [0, *t_ends], t_ends)):
            _direct_pair_sums(members[start:end], vt[:t_end], lo, hi, False, out=marks)
            _direct_pair_sums(members[:start], vt[t_start:t_end], lo, hi, False, out=marks)
            sizes[i] += int(np.count_nonzero(marks))
        marks.fill(False)
    return sizes


def _pair_sums(
    left: np.ndarray, right: np.ndarray, lo: int, hi: int, count: bool,
    spectrum: tuple[Callable, int] | None = None,
) -> _PairSums:
    """Pair sums left[i] + right[j] over the values [lo, hi].

    Returns, for each value, the number of pairs summing to it (int64), or
    whether one does (bool) when ``count`` is false, as a _PairSums: dense
    from the direct branch, on a grid from the FFT branch and sorted from
    the sorted one.  ``left`` and ``right`` each hold distinct values, and
    every sum must lie in [lo, hi].  Given ``spectrum``, (a callable, the
    bytes of half spectra it holds), the FFT branch takes its inverse
    transform down the columns from the callable (see _fft_pair_sums).

    Direct pairs are priced by _direct_price; sorted pairs cost
    _PAIRS_PER_SORT_STEP*pairs*log2(pairs); an FFT convolution costs
    _fft_cost(shape), on the _grid_shape of the interval.  The cheapest branch runs, and an FFT result that does not
    round to exact integers falls back to the cheaper of the other two.
    This is the package's only cost model: before allocating anything, each
    branch raises ResourceBudgetError if its cost exceeds the pair budget or
    its memory (the result, plus the FFT's workspace or the direct branch's,
    see _direct_price and _sorted_bytes) exceeds the memory budget.
    """
    width = hi - lo + 1
    pairs = left.size * right.size
    shape = _grid_shape(width)
    fft_cost = _fft_cost(shape)
    direct_cost = _direct_price(left.size, right.size, width, count)[0]
    sorted_cost = _PAIRS_PER_SORT_STEP * pairs * math.log2(max(pairs, 2))
    if pairs and fft_cost < min(direct_cost, sorted_cost):
        columns, held = spectrum or (None, 2 * _half_spectrum_bytes(*shape))
        nbytes = _fft_bytes(shape, count, held, max(left.size, right.size))
        _check_budget(fft_cost, nbytes, f"an FFT on a {shape[0]} x {shape[1]} grid")
        found = _fft_pair_sums(left, right, lo, hi, count, columns)
        if found is not None:
            return found
    if sorted_cost < direct_cost:
        sorted_bytes = _sorted_bytes(pairs, width, count)
        _check_budget(sorted_cost, sorted_bytes, f"{left.size} x {right.size} sorted pairs")
        return _sorted_pair_sums(left, right, lo, count)
    return _direct_pair_sums(left, right, lo, hi, count)


def _fft_cost(shape: tuple[int, int]) -> float:
    """The cost of an FFT call on a grid of ``shape``, in direct pairs:
    _PAIRS_PER_FFT_STEP for each of its _grid_steps and _FFT_CALL_STEPS."""
    return _PAIRS_PER_FFT_STEP * (_grid_steps(*shape) + _FFT_CALL_STEPS)


def _fft_bytes(shape: tuple[int, int], count: bool, held: int, members: int) -> int:
    """Peak memory of _fft_pair_sums on a grid of ``shape`` that holds
    ``held`` bytes of half spectra (two, A's and the product, unless a
    shared spectrum holds fewer; see _held_bytes): those, the result, 16
    bytes for each of the ``members`` of an indicator (its offsets and
    cells, see _spectrum), and one float64 block of rows (see _grid_block)
    for the indicator, then the product's two gather buffers, then the
    inverse transform, or a column of the grid if that is longer.  The
    product's copy of column 0 (see _dilated_product), 16 bytes a row, is
    held before the result is made.  The block also holds numpy's ufunc
    buffers in the passes that do not use it.  pocketfft's own lane buffers, which
    tracemalloc misses, are too small to see in RSS (see CHANGES.md)."""
    rows, cols = shape
    return held + (8 if count else 1) * rows * cols + 16 * members + 8 * max(_grid_block(shape) * cols, rows)


def _check_budget(cost: float, nbytes: int, what: str) -> None:
    if cost > PAIR_BUDGET:
        raise ResourceBudgetError(f"{what} cost {cost:.2e} > budget {PAIR_BUDGET:.0e}")
    if nbytes > PAIR_MEMORY_BUDGET:
        raise ResourceBudgetError(
            f"{what} needs {nbytes / 2**20:.0f} MiB > memory budget "
            f"{PAIR_MEMORY_BUDGET / 2**20:.0f} MiB"
        )


def _block_rows(right: int) -> int:
    """Rows of left per block of direct pair sums: about _CHUNK_ENTRIES sums."""
    return max(1, _CHUNK_ENTRIES // max(right, 1))


def _direct_price(left: int, right: int, width: int, count: bool) -> tuple[float, int]:
    """The cost and peak memory of _direct_pair_sums of ``left`` x ``right``
    pairs over ``width`` values: the pairs plus _PAIRS_PER_SLOT per value;
    the result (or ``out``), left shifted to lo, and the buffer of one block
    of int64 pair sums."""
    cost = left * right + _PAIRS_PER_SLOT[count] * width
    return cost, width * (8 if count else 1) + 8 * (left + min(left, _block_rows(right)) * right)


def _direct_pair_sums(
    left: np.ndarray, right: np.ndarray, lo: int, hi: int, count: bool, out: np.ndarray | None = None
) -> _PairSums:
    """The direct branch of _pair_sums, dense, refused before it allocates
    if _direct_price exceeds a budget.  Given ``out`` (of the interval's
    width and dtype), the pair sums are added into it, counts accumulated
    and marks OR-ed in."""
    width = hi - lo + 1
    price = _direct_price(left.size, right.size, width, count)
    _check_budget(*price, f"{left.size} x {right.size} direct pairs")
    if out is None:
        out = np.zeros(width, dtype=np.int64 if count else bool)
    shifted = left - lo
    rows = _block_rows(right.size)
    block = np.empty((min(rows, left.size), right.size), dtype=np.int64)
    for i in range(0, left.size, rows):
        sums = block[: left.size - i]
        np.add(shifted[i : i + rows, None], right, out=sums)
        if count:
            np.add.at(out, sums.ravel(), 1)  # bincount would make a second width-sized array
        else:
            out[sums.ravel()] = True
    return _PairSums(lo, out)


@dataclass(frozen=True, eq=False)
class _PairSums:
    """A _pair_sums result over [lo, ...): for each value, how many pairs
    make it (counts) or whether one does (marks).  Dense: ``cells`` spans
    the interval.  Sorted: ``offsets`` holds the made values' offsets from
    lo, ascending and read-only, and ``cells`` their counts, or None for
    marks.  Grid: ``grid`` is (rows, start) and ``cells`` a flat grid with
    that many rows, whose cyclic sequence holds the value lo + i at offset
    start + i (see _crt).  Only these methods read ``offsets`` and ``grid``;
    in every layout cells[index(v)] is the count of a value v some pair makes.
    """

    lo: int
    cells: np.ndarray | None
    offsets: np.ndarray | None = None
    grid: tuple[int, int] | None = None

    def __post_init__(self):
        if self.offsets is not None:
            self.offsets.flags.writeable = False

    def size(self) -> int:
        """How many values some pair makes."""
        return int(np.count_nonzero(self.cells)) if self.offsets is None else self.offsets.size

    def support(self) -> np.ndarray:
        """The values some pair makes, ascending."""
        if self.grid is not None:
            blocks = _natural(self.cells, *self.grid, self.cells.size)
            values = np.concatenate([np.flatnonzero(part) + i for i, part in blocks])
        else:
            values = np.flatnonzero(self.cells) if self.offsets is None else self.offsets.copy()
        values += self.lo
        return values

    def multiplicities(self, ordered: bool = True) -> np.ndarray:
        """The counts of support(), in its order, or in no set order if not
        ``ordered``, which spares the grid layout its gather."""
        if self.offsets is not None:
            return self.cells
        if self.grid is not None and ordered:
            blocks = _natural(self.cells, *self.grid, self.cells.size)
            return np.concatenate([part[part > 0] for _, part in blocks])
        return self.cells[self.cells > 0]

    def index(self, values):
        """Where in ``cells`` the counts of ``values``, each made by some pair, are."""
        offsets = values - self.lo
        if self.grid is not None:
            rows, start = self.grid
            return _crt((offsets + start) % self.cells.size, rows, self.cells.size // rows)
        return offsets if self.offsets is None else np.searchsorted(self.offsets, offsets)

    def count(self, value: int) -> int:
        """How many pairs make ``value``, a value of the interval."""
        i = int(self.index(value))
        held = self.offsets is None or (i < self.offsets.size and self.offsets[i] == value - self.lo)
        return int(self.cells[i]) if held else 0


def _sorted_bytes(pairs: int, width: int, count: bool) -> int:
    """Peak memory of _sorted_pair_sums: the int64 sums and a flag per pair,
    then 8 bytes (marks) or 16 (counts) per distinct sum, of which there are
    at most min(pairs, width)."""
    return 9 * pairs + (16 if count else 8) * min(pairs, width)


def _sorted_pair_sums(left: np.ndarray, right: np.ndarray, lo: int, count: bool) -> _PairSums:
    """The sorted branch of _pair_sums: all pair sums, sorted, with each run
    of equal sums kept once."""
    sums = np.add.outer(left, right).ravel()
    sums.sort()
    new = np.empty(sums.size, dtype=bool)  # differs from the sum before it
    new[:1] = True
    np.not_equal(sums[1:], sums[:-1], out=new[1:])
    if not count:
        offsets = sums[new]
        offsets -= lo
        return _PairSums(lo, None, offsets)
    runs = np.flatnonzero(new)  # where each run starts, then how long it is
    del new
    offsets = sums[runs]
    offsets -= lo
    pairs = sums.size
    del sums
    runs[:-1] = np.diff(runs)
    runs[-1:] = pairs - runs[-1:]
    return _PairSums(lo, runs, offsets)


@lru_cache(maxsize=256)
def _grid_shape(width: int) -> tuple[int, int]:
    """The grid (rows, cols) of least _grid_steps on which _fft_pair_sums
    convolves ``width`` values: rows an odd 3,5-smooth number, cols the least
    power of 2 with rows*cols >= width."""
    shapes = []
    threes = 1
    while threes <= width:
        rows = threes
        while rows <= width:
            shapes.append((rows, 1 << (-(-width // rows) - 1).bit_length()))
            rows *= 5
        threes *= 3
    return min(shapes, key=lambda shape: _grid_steps(*shape))


def _grid_steps(rows: int, cols: int) -> float:
    """The modelled steps of a transform on a rows x cols grid of n cells:
    n*log2(n), plus n*_LONG_AXIS_STEPS for each doubling of an axis past
    _SHORT_AXIS."""
    n = rows * cols
    long = sum(max(0.0, math.log2(axis / _SHORT_AXIS)) for axis in (rows, cols))
    return n * (math.log2(n) + _LONG_AXIS_STEPS * long) if n > 1 else 1.0


def _crt(offsets: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Where in a flat rows x cols grid, cols a power of 2 and rows odd, the
    entries at ``offsets`` (in [0, rows*cols)) of a cyclic sequence sit: j at
    (j mod rows, j mod cols), Good's prime-factor map."""
    cells = offsets % rows
    cells *= cols
    cells += offsets & (cols - 1)
    return cells


def _natural(grid: np.ndarray, rows: int, start: int, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """The entries of the flat grid at offsets start, ..., start + n - 1 (mod
    its size) of its cyclic sequence, a block at a time: (i, the entries
    from the i-th on).  This is the one gather of a grid into value order.

    Offset j + 1 sits one row and one column past offset j, so the offsets
    run down a diagonal of the grid, one strided slice of stride cols + 1,
    until the row or the column wraps: about rows + cols slices in all."""
    cols = grid.size // rows
    for i in range(0, n, _GATHER_BLOCK):
        part = np.empty(min(n - i, _GATHER_BLOCK), dtype=grid.dtype)
        done = 0
        while done < part.size:
            j = (start + i + done) % grid.size
            row, col = j % rows, j & (cols - 1)
            run = min(part.size - done, rows - row, cols - col)
            cell = row * cols + col
            part[done : done + run] = grid[cell : cell + run * (cols + 1) : cols + 1]
            done += run
        yield i, part


def _grid_block(shape: tuple[int, int]) -> int:
    """Rows per block of a streamed pass over a grid of ``shape``: about
    _GATHER_BLOCK cells, at least one row and at most the grid's rows."""
    rows, cols = shape
    return min(rows, max(1, _GATHER_BLOCK // cols))


def _spectrum(offsets: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The 2-D DFT, for columns [0, cols//2] only, of the indicator on the
    grid of ``shape`` of the distinct ``offsets`` (in [0, rows*cols)) of its
    cyclic sequence (see _crt).  The indicator is built a block of rows at a
    time and rfft'd along its rows straight into the half spectrum, which is
    then fft'd along its columns in place."""
    rows, cols = shape
    block = _grid_block(shape)
    cells = _crt(offsets, rows, cols)
    cells.sort()
    bounds = np.searchsorted(cells, np.arange(0, rows + block, block) * cols).tolist()
    x = np.empty((rows, cols // 2 + 1), dtype=np.complex128)
    indicator = np.zeros((block, cols))
    for r0, i0, i1 in zip(range(0, rows, block), bounds, bounds[1:]):
        part = indicator[: rows - r0]
        ones = cells[i0:i1] - r0 * cols
        part.ravel()[ones] = 1.0
        np.fft.rfft(part, axis=1, out=x[r0 : r0 + part.shape[0]])
        part.ravel()[ones] = 0.0
    return np.fft.fft(x, axis=0, out=x)


def _fft_pair_sums(
    left: np.ndarray, right: np.ndarray, lo: int, hi: int, count: bool, columns: Callable | None = None
) -> _PairSums | None:
    """The FFT branch of _pair_sums (left must not be empty), in the grid
    layout; None unless every convolution value lies within 1/4 of an
    integer, so that rounding it is exact.

    The cyclic convolution is taken on the _grid_shape grid, where the
    prime-factor map makes it a 2-D cyclic convolution with no twiddle
    factors.  ``columns(shape)`` returns the inverse transform down the
    columns of the pair sums' product spectrum, and the offset of lo in
    their cyclic convolution; by default they come from the indicators of
    left and right.  It may hold rows 0, ..., rows//2 only, when the pair
    sums are the differences d of one set: then d(-j, -m) = d(j, m) gives
    the other rows.  Each block of rows (see _grid_block) takes its irfft
    into one float64 block, is rounded into its own spent rows of the
    inverse, checked, and cast into the result, so no array as large as the
    grid is made beside the inverse and the result.
    """
    shape = rows, cols = _grid_shape(hi - lo + 1)
    product, start = (columns or partial(_indicator_product, left, right, lo))(shape)
    done = product.shape[0]
    block = _grid_block(shape)
    raw = np.empty((block, cols))
    cells = np.empty(shape, dtype=np.int64 if count else bool)
    for r0 in range(0, done, block):
        r1 = min(done, r0 + block)
        part = np.fft.irfft(product[r0:r1], cols, axis=1, out=raw[: r1 - r0])
        # the block's rows of the inverse are spent; they hold its rounding
        spent = product[r0:r1].view(np.float64).ravel()[: part.size].reshape(part.shape)
        whole = np.rint(part, out=spent)
        part -= whole
        if np.abs(part, out=part).max() >= 0.25:
            return None
        np.copyto(cells[r0:r1], whole, casting="unsafe")  # whole holds integers >= 0
    if done < rows:  # d(-j, -m) = d(j, m): rows rows//2, ..., 1 give the rest
        mirror = cells[done - 1 : 0 : -1]
        cells[done:, :1] = mirror[:, :1]
        cells[done:, 1:] = mirror[:, :0:-1]
    return _PairSums(lo, cells.ravel(), grid=(rows, start % cells.size))


def _indicator_product(
    left: np.ndarray, right: np.ndarray, lo: int, shape: tuple[int, int]
) -> tuple[np.ndarray, int]:
    """The inverse transform down the columns of the product of the spectra
    of left's and right's indicators, and lo's offset (0) in their
    convolution."""
    # Index left from its minimum m and right from lo - m: both fit in
    # [0, width) and the offset of each sum is its offset from lo, so the
    # cyclic convolution over the grid's size >= width does not wrap.
    shift = int(left.min())
    product = _spectrum(left - shift, shape)
    product *= _spectrum(right - (lo - shift), shape)
    return np.fft.ifft(product, axis=0, out=product), 0


def rep_histogram(a: IntegerSet, kind: str, form: LinearForm | None = None) -> RepHistogram:
    """Representation histogram of A under the given operation."""
    coeffs = kind_form(kind, form).coeffs
    return _histogram(a, kind, next(_self_pair_sums(a, [(coeffs, True)])), form)


def _histogram(a: IntegerSet, kind: str, sums: _PairSums, form: LinearForm | None = None) -> RepHistogram:
    """The ``kind`` histogram of A from ``sums``, the ordered pair counts of
    its form, which it takes over: made unordered in place for kind="sum"."""
    lo, hi = _image_interval(a.lo, a.hi, kind_form(kind, form).coeffs)
    if kind == "sum":
        # ordered pairs count {a1, a2} twice and (a, a) once
        counts = sums.cells
        counts[sums.index(2 * a.members())] += 1
        counts //= 2
    return RepHistogram(kind, lo, hi, sums, form)


def multiplicity_profile(hist: RepHistogram) -> dict[int, int]:
    """tau_i = number of values with exactly i representations, i >= 1.

    The zero difference, R(0) = |A|, is left out of a diff histogram's
    profile.  This is the one pass over a histogram's counts: every
    collision statistic is a sum over the profile.
    """
    sizes, times = np.unique(hist._sums.multiplicities(ordered=False), return_counts=True)
    if hist.kind == "diff" and (zero := hist.count(0)):
        times[np.searchsorted(sizes, zero)] -= 1
    return {i: t for i, t in zip(sizes.tolist(), times.tolist()) if t}


def _tuple_counts(profile: dict[int, int], most: int) -> list[int]:
    """Sum over i of C(i, k) * tau_i for k = 1, ..., most, in exact integers,
    each k in one pass over the profile's two lists."""
    sizes, times = list(profile), list(profile.values())
    return [sum(map(mul, map(math.comb, sizes, repeat(k)), times)) for k in range(1, most + 1)]


def tuple_statistic(hist: RepHistogram, k: int) -> int:
    """Number of k-element sets of pairs sharing one representation value.

    Sum over values v of C(R(v), k), with v = 0 excluded for diff
    histograms.  Exact integer arithmetic (results can exceed 64 bits).
    """
    return _tuple_counts(multiplicity_profile(hist), _integer(k, "k", least=1))[-1]


def repeated_gap_pairs(hist: RepHistogram) -> int:
    """Pairs of distinct positive-gap member pairs sharing one gap.

    Sum over d > 0 of C(R(d), 2); by the R(d) = R(-d) symmetry this is
    half of tuple_statistic(hist, 2).  Exact integers throughout.
    """
    if hist.kind != "diff":
        raise ValueError("gap collisions are defined on difference histograms")
    return tuple_statistic(hist, 2) // 2


@dataclass(frozen=True)
class Classification:
    label: str  # sum-dominated | balanced | difference-dominated
    sumset_size: int
    diffset_size: int


def classify(a: IntegerSet) -> Classification:
    """Compare |A+A| with |A-A| for A over I_N = [0, N] (N = a.hi)."""
    if a.lo != 0:
        raise ValueError("classification is defined for sets over [0, N]")
    # A-A first, so that A+A forms its product inside A's spectrum
    images = _self_pair_sums(a, [(KIND_FORMS[kind].coeffs, False) for kind in ("diff", "sum")])
    d, s = [next(images).size() for _ in range(2)]
    return Classification(_domination_label(s, d), s, d)


def _domination_label(sumset_size: int, diffset_size: int) -> str:
    """sum-dominated, balanced or difference-dominated, by |A+A| against |A-A|."""
    return ("difference-dominated", "balanced", "sum-dominated")[
        (sumset_size >= diffset_size) + (sumset_size > diffset_size)
    ]
