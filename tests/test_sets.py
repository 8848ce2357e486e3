import math
import tracemalloc
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumdiff import (
    ExperimentConfig,
    IntegerSet,
    LinearForm,
    PFamily,
    ResourceBudgetError,
    SamplerSeed,
    StatisticsSpec,
    classify,
    diffset,
    form_image,
    make_set,
    multiplicity_profile,
    rep_histogram,
    repeated_gap_pairs,
    run_trial,
    sample,
    sumset,
    tuple_statistic,
)
from sumdiff import sets

from oracles import (
    diff_rep_counts,
    diffset_oracle,
    form_image_oracle,
    form_rep_counts,
    repeated_gap_pairs_oracle,
    sum_rep_counts,
    sumset_oracle,
    tuple_statistic_oracle,
)

small_sets = st.lists(st.integers(0, 12), max_size=13).map(lambda xs: make_set(xs, 0, 12))


# --- construction


def test_make_set_collapses_duplicates():
    a = make_set([0, 2, 2], 0, 13)
    assert list(a) == [0, 2]
    assert a.count == 2


def test_make_set_empty():
    a = make_set([], 0, 10)
    assert a.count == 0
    assert list(a) == []


def test_make_set_full_interval():
    a = make_set(range(15), 0, 14)
    assert a.count == 15


def test_make_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_set([0, 15], 0, 14)
    with pytest.raises(ValueError):
        make_set([-1], 0, 5)


def test_make_set_rejects_bad_interval():
    with pytest.raises(ValueError):
        make_set([], 3, 2)


@pytest.mark.parametrize(
    "elements,lo,hi",
    [
        ([0.5, 2.7], 0, 3), (["3"], 0, 3), ([1, 2.0], 0, 3), ([1], 0.0, 3), ([1], 0, 3.5), ([], "0", 3),
        ([True, 1], 0, 3), (np.array([True]), 0, 3), ([1], False, 3), ([1], 0, True),
    ],
)
def test_make_set_rejects_non_integers(elements, lo, hi):
    # neither truncated nor parsed; a bool is not an integer here
    with pytest.raises(ValueError, match="integer"):
        make_set(elements, lo, hi)
    with pytest.raises(ValueError, match="integer"):
        IntegerSet(elements, lo, hi)


@pytest.mark.parametrize("elements", [[2**63], [1, -(2**70)], [np.uint64(2**63)]])
def test_make_set_rejects_elements_beyond_int64(elements):
    # integers, but not representable: refused, not wrapped
    with pytest.raises(ValueError, match="fit in int64"):
        make_set(elements, 0, 3)


@pytest.mark.parametrize(
    "image",
    [
        lambda: form_image(make_set([0, 1, 2, 3], 0, 3), LinearForm((2**63 - 1, -1))),
        lambda: sumset(make_set([0, 2**62], 0, 2**62)),
        lambda: sets._grown_sizes(np.array([0, 1]), [2], (3, -1), 2**61),
    ],
    ids=["form-coefficient", "sumset", "grown-image"],
)
def test_images_beyond_int64_are_refused(image):
    # the form's image had 12 of its 16 values, and the sumset a member
    # -2^63 outside its own interval: int64 sums wrapped
    with pytest.raises(ValueError, match=r"^the image of \[0, \d+\] under the form \(.*\) does not fit int64"):
        image()


def test_images_near_int64_are_exact():
    assert sumset(make_set([0, 2**60], 0, 2**60)).members().tolist() == [0, 2**60, 2**61]


def test_make_set_accepts_numpy_integers():
    a = make_set(np.array([3, 1], dtype=np.int32), np.int64(0), np.uint8(4))
    assert list(a) == [1, 3] and (a.lo, a.hi) == (0, 4)
    assert type(a.lo) is int and type(a.hi) is int
    assert IntegerSet([], 0, 7).count == 0


def test_membership_and_equality():
    a = make_set([1, 5, 9], 0, 10)
    assert 5 in a and 4 not in a and 11 not in a
    assert a == make_set([9, 5, 1, 1], 0, 10)
    assert a != make_set([1, 5, 9], 0, 11)
    assert len(a) == 3
    assert "n=3" in repr(a)


def test_from_members_leaves_caller_array_alone():
    m = np.arange(3, dtype=np.int64)
    a = IntegerSet.from_members(m, 0, 5)
    assert m.flags.writeable
    m[0] = 4
    assert list(a) == [0, 1, 2]


# --- linear forms


def test_form_kinds():
    assert LinearForm((1, 1)).kind == "binary-sum"
    assert LinearForm((1, -1)).kind == "binary-difference"
    assert LinearForm((4, -3)).kind == "binary-difference"
    assert LinearForm((1, 1, -1)).kind == "k-ary"


@pytest.mark.parametrize("coeffs", [(1,), (0, 1), (2, 0), (1, 2), (2, -4), (2, 2), (2, 4, 6)])
def test_form_validation_rejects(coeffs):
    with pytest.raises(ValueError):
        LinearForm(coeffs)


@pytest.mark.parametrize("coeffs", [(2.5, -1), (2.0, -1), ("2", "-1"), (1, 1, 1.5), (True, -1)])
def test_form_rejects_non_integer_coefficients(coeffs):
    with pytest.raises(ValueError, match="integer"):
        LinearForm(coeffs)


def test_form_accepts_numpy_integer_coefficients():
    f = LinearForm((np.int64(2), np.int32(-1)))
    assert f == LinearForm((2, -1)) and all(type(c) is int for c in f.coeffs)


def test_form_weight_and_label():
    f = LinearForm((4, -3))
    assert (f.u, f.v, f.weight) == (4, -3, 7)
    assert f.label() == "(4,-3)"


# --- images


def test_sumset_example():
    a = make_set([0, 1, 3], 0, 3)
    s = sumset(a)
    assert list(s) == [0, 1, 2, 3, 4, 6]
    assert s.count == 6
    assert (s.lo, s.hi) == (0, 6)


def test_sumset_trivial_cases():
    assert list(sumset(make_set([0], 0, 5))) == [0]
    assert sumset(make_set([], 0, 5)).count == 0


def test_diffset_example():
    a = make_set([0, 1, 3], 0, 3)
    d = diffset(a)
    assert list(d) == [-3, -2, -1, 0, 1, 2, 3]
    assert (d.lo, d.hi) == (-3, 3)


def test_diffset_trivial_cases():
    assert list(diffset(make_set([5], 0, 5))) == [0]
    assert diffset(make_set([], 0, 5)).count == 0


def test_form_image_example():
    a = make_set([0, 1, 3], 0, 3)
    img = form_image(a, LinearForm((2, -1)))
    assert list(img) == [-3, -1, 0, 1, 2, 3, 5, 6]
    assert img.count == 8


def test_form_image_ternary():
    a = make_set([0, 1], 0, 1)
    img = form_image(a, LinearForm((1, 1, 1)))
    assert list(img) == [0, 1, 2, 3]


# 200000 members spread over [0, 10^6]: under (1000, -999) the image interval
# is ~2e9 wide, so direct pairs (4.0e10) and the FFT (5.3e10) both exceed the
# 1e10 budget, and the kernel must refuse before allocating either.
over_budget_set = IntegerSet.from_members(np.arange(0, 10**6, 5), 0, 10**6)


def refuses_within_16_mib(call):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_form_image_kary_budget():
    for coeffs in ((1000, -999), (1000, 999, 1)):
        refuses_within_16_mib(lambda: form_image(over_budget_set, LinearForm(coeffs)))


def test_formerly_rejected_kary_image_is_exact():
    # 2200^3 pairs, but the FFT folds cost ~5e6 each
    img = form_image(make_set(range(2200), 0, 2200), LinearForm((1, 1, 1)))
    assert img.count == 6598
    assert img.members().tolist() == list(range(6598))


def test_form_image_kary_memory_bound():
    # Folding one coefficient at a time never materialises the |A|^3 sums.
    a = make_set(range(300), 0, 299)
    tracemalloc.start()
    try:
        img = form_image(a, LinearForm((1000, 999, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert img.count == 269101
    assert peak < 64 * 2**20


@given(st.lists(st.integers(-6, 6), max_size=7))
@settings(max_examples=40, deadline=None)
def test_kary_image_large_coefficients_match_bruteforce(xs):
    a = make_set(xs, -6, 6)
    for coeffs in ((1000, 999, 1), (-977, 5, 1000), (2, -1, 1, -999)):
        img = form_image(a, LinearForm(coeffs))
        assert list(img) == form_image_oracle(list(a), coeffs)
        assert (img.lo, img.hi) == (-6 * sum(map(abs, coeffs)), 6 * sum(map(abs, coeffs)))


def test_images_on_shifted_interval():
    a = make_set([2, 3, 5], 2, 5)
    s = sumset(a)
    assert (s.lo, s.hi) == (4, 10)
    assert list(s) == [4, 5, 6, 7, 8, 10]
    d = diffset(a)
    assert (d.lo, d.hi) == (-3, 3)
    assert list(d) == [-3, -2, -1, 0, 1, 2, 3]
    img = form_image(a, LinearForm((2, -1)))
    assert (img.lo, img.hi) == (-1, 8)
    assert list(img) == [-1, 1, 2, 3, 4, 5, 7, 8]
    # negative-lo input (e.g. a difference set) round-trips through sumset
    dd = sumset(d)
    assert (dd.lo, dd.hi) == (-6, 6)
    assert list(dd) == list(range(-6, 7))


@given(small_sets)
@settings(max_examples=60, deadline=None)
def test_images_match_bruteforce(a):
    elems = list(a)
    assert list(sumset(a)) == sumset_oracle(elems)
    assert list(diffset(a)) == diffset_oracle(elems)
    assert list(form_image(a, LinearForm((2, -1)))) == form_image_oracle(elems, (2, -1))
    assert list(form_image(a, LinearForm((3, 2)))) == form_image_oracle(elems, (3, 2))


@given(small_sets)
@settings(max_examples=40, deadline=None)
def test_form_image_definitional_identities(a):
    assert form_image(a, LinearForm((1, -1))) == diffset(a)
    assert form_image(a, LinearForm((1, 1))) == sumset(a)


@given(small_sets)
@settings(max_examples=60, deadline=None)
def test_size_bounds_and_symmetry(a):
    n = a.count
    if n == 0:
        return
    s, d = sumset(a), diffset(a)
    assert 2 * n - 1 <= s.count <= min(n * (n + 1) // 2, 2 * 12 + 1)
    assert 2 * n - 1 <= d.count <= min(n * (n - 1) + 1, 2 * 12 + 1)
    assert 0 in d
    members = list(d)
    assert members == [-m for m in reversed(members)]


# --- histograms


def test_sum_histogram_example():
    h = rep_histogram(make_set([0, 1, 2], 0, 2), "sum")
    assert dict(h.nonzero_items()) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert h.total() == 6  # |A|(|A|+1)/2


def test_diff_histogram_example():
    h = rep_histogram(make_set([0, 1, 2], 0, 2), "diff")
    assert dict(h.nonzero_items()) == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}
    assert h.total() == 9  # |A|^2


def test_empty_histogram():
    h = rep_histogram(make_set([], 0, 5), "sum")
    assert h.total() == 0
    assert dict(h.nonzero_items()) == {}


def test_form_histogram_requires_binary_form():
    a = make_set([0, 1], 0, 1)
    with pytest.raises(ValueError):
        rep_histogram(a, "form")
    with pytest.raises(ValueError):
        rep_histogram(a, "form", LinearForm((1, 1, 1)))
    with pytest.raises(ValueError):
        rep_histogram(a, "nonsense")
    # a form that only kind="form" reads is refused, not ignored
    with pytest.raises(ValueError, match=r"^form is used only with kind='form'"):
        rep_histogram(make_set([3], 0, 5), "sum", LinearForm((2, -1)))


def test_histogram_budget():
    form = LinearForm((1000, -999))
    refuses_within_16_mib(lambda: rep_histogram(over_budget_set, "form", form))


def test_histogram_count_checks_its_value():
    # 2.5 raised numpy's IndexError and True read R(1)
    h = rep_histogram(make_set([0, 1, 5], 0, 10), "diff")
    assert [h.count(d) for d in (0, 1, -4, np.int64(5), 11)] == [3, 1, 1, 1, 0]
    for value in (2.5, True, "1"):
        with pytest.raises(ValueError, match=r"^value must be an integer, got "):
            h.count(value)


def test_formerly_rejected_histogram_is_exact():
    # 200001^2 = 4e10 pairs, but the FFT costs ~8e6
    h = rep_histogram(make_set(range(200_001), 0, 200_001), "diff")
    assert [h.count(d) for d in (0, 5, -5, 200_000)] == [200_001 - d for d in (0, 5, 5, 200_000)]


@given(small_sets)
@settings(max_examples=40, deadline=None)
def test_histograms_match_counters(a):
    elems = list(a)
    hs = rep_histogram(a, "sum")
    assert dict(hs.nonzero_items()) == dict(sum_rep_counts(elems))
    hd = rep_histogram(a, "diff")
    assert dict(hd.nonzero_items()) == dict(diff_rep_counts(elems))
    hf = rep_histogram(a, "form", LinearForm((3, -2)))
    assert dict(hf.nonzero_items()) == dict(form_rep_counts(elems, 3, -2))
    assert hd.total() == hf.total() == len(elems) ** 2


# --- the pair-sum kernel: every branch against the oracles


def dense(result, lo, hi, count):
    """A _pair_sums result over [lo, ...) as the array over [lo, hi] of the dense layout."""
    assert result.lo == lo
    if result.grid is not None:
        # every cell of the grid not at a value of [lo, hi] is empty
        values = result.cells[result.index(np.arange(lo, hi + 1))]
        assert np.count_nonzero(values) == np.count_nonzero(result.cells)
        return values
    if result.offsets is None:
        return result.cells
    assert np.all(np.diff(result.offsets) > 0) and (result.cells is not None) == count
    values = np.zeros(hi - lo + 1, dtype=np.int64 if count else bool)
    values[result.offsets] = result.cells if count else True
    return values


def sorted_branch(left, right, lo, hi, count):
    return sets._sorted_pair_sums(left, right, lo, count)


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=25),
    st.integers(-30, 30),
    st.sampled_from([(1, 1), (1, -1), (2, -1), (3, 2), (-4, 3), (-1, -5), (7, -7)]),
)
@settings(max_examples=80, deadline=None)
def test_pair_sum_branches_match_oracles(xs, offset, coeffs):
    u, v = coeffs
    elems = sorted(set(x + offset for x in xs))
    a = make_set(elems, offset, offset + 40)
    lo, hi = sets._image_interval(a.lo, a.hi, coeffs)
    left, right = u * a.members(), v * a.members()
    expected_counts = form_rep_counts(elems, u, v)
    for branch in (sets._direct_pair_sums, sets._fft_pair_sums, sorted_branch):
        result = branch(left, right, lo, hi, True)
        counts = dense(result, lo, hi, True)
        assert counts.dtype == np.int64 and counts.size == hi - lo + 1
        assert {int(i) + lo: int(c) for i, c in enumerate(counts) if c} == expected_counts
        assert result.size() == len(expected_counts)
        assert result.support().tolist() == sorted(expected_counts)
        assert result.multiplicities().tolist() == [expected_counts[v] for v in sorted(expected_counts)]
        result = branch(left, right, lo, hi, False)
        support = dense(result, lo, hi, False)
        assert support.dtype == bool
        assert (np.flatnonzero(support) + lo).tolist() == sorted(expected_counts)
        assert result.size() == len(expected_counts)
        assert result.support().tolist() == sorted(expected_counts)


# Widths whose grids have one row, a few rows, one column, or many of both
GRID_WIDTHS = {61: (1, 64), 41: (3, 16), 73: (5, 16), 45: (45, 1), 97: (25, 4), 109: (15, 8)}


def test_grid_widths_pick_their_shapes():
    assert {w: sets._grid_shape(w) for w in GRID_WIDTHS} == GRID_WIDTHS


@given(st.data(), st.sampled_from(sorted(GRID_WIDTHS)), st.integers(-50, 50), st.booleans())
@settings(max_examples=120, deadline=None)
def test_grid_kernel_matches_direct_pairs(data, width, lo, count):
    # Left in [0, width//2] and right in the rest, both shifted so that the
    # sums fill [lo, lo + width - 1]: the FFT branch on its grid equals
    # direct pairs, and direct pairs added into a random ``out`` equal the
    # fresh result added to it.
    half = width // 2
    left = np.array(sorted(data.draw(st.sets(st.integers(0, half), min_size=1))), dtype=np.int64)
    right = np.array(sorted(data.draw(st.sets(st.integers(0, width - 1 - half)))), dtype=np.int64)
    shift = data.draw(st.integers(-20, 20))
    left, right, hi = left + shift, right + lo - shift, lo + width - 1
    expected = sets._direct_pair_sums(left, right, lo, hi, count)
    found = sets._fft_pair_sums(left, right, lo, hi, count)
    assert found.grid is not None and found.cells.size == np.prod(GRID_WIDTHS[width])
    assert np.array_equal(dense(found, lo, hi, count), expected.cells)
    assert found.size() == expected.size()
    assert np.array_equal(found.support(), expected.support())
    assert np.array_equal(found.multiplicities(), expected.multiplicities())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    start = rng.integers(0, 4, width) if count else rng.random(width) < 0.3
    into = start.copy()
    assert sets._direct_pair_sums(left, right, lo, hi, count, into).cells is into
    assert np.array_equal(into, start + expected.cells if count else start | expected.cells)


def test_fft_guard_falls_back_to_pairs(monkeypatch):
    elems = np.flatnonzero(np.random.default_rng(5).random(2001) < 0.5).tolist()
    a = make_set(elems, 0, 2000)
    config = ExperimentConfig(
        n_list=(2000,), family=PFamily.explicit(0.5), trials=1, seed=5,
        statistics=StatisticsSpec(sizes=True, missing=True, max_k=3, y=True,
                                  forms=(LinearForm((2, -1)),)),
    )
    exact_record = run_trial(config, 2000, 0)
    real_irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: real_irfft(*args, **kw) + 0.3)
    real_fft_branch = sets._fft_pair_sums
    attempts = []

    def fft_branch(*args):
        attempts.append(real_fft_branch(*args))
        return attempts[-1]

    monkeypatch.setattr(sets, "_fft_pair_sums", fft_branch)
    assert dict(rep_histogram(a, "diff").nonzero_items()) == dict(diff_rep_counts(elems))
    assert list(diffset(a)) == diffset_oracle(elems)
    assert len(attempts) == 2 and all(out is None for out in attempts)
    # a trial whose every FFT fails the check equals the exact one: the form
    # and the two histograms, whose supports are the sizes, fell back to
    # direct pairs
    assert run_trial(config, 2000, 0) == exact_record
    assert len(attempts) == 5 and all(out is None for out in attempts)


def test_fft_fallback_is_priced(monkeypatch):
    # a failed exactness check must not start 4e10 direct pairs
    real_irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: real_irfft(*args, **kw) + 0.3)
    with pytest.raises(ResourceBudgetError, match="direct pairs"):
        rep_histogram(make_set(range(200_001), 0, 200_001), "diff")


@pytest.mark.parametrize("block", [0, -1], ids=["first-block", "last-partial-block"])
def test_exactness_is_checked_in_every_block(monkeypatch, block):
    # The differences of [0, 200000] run on a 405 x 1024 grid, finished in
    # blocks of 64 rows: all 405 rows, the last block of 21, from the
    # indicators' product, or rows 0-202, the last block of 11, from the
    # spectrum of A alone, whose other rows mirror those.  An inverse
    # transform off by 0.3 in one block alone fails the check, and the
    # fallback is priced (4e10 direct pairs are refused)
    shape = sets._grid_shape(400_003)
    assert shape == (405, 1024) and sets._grid_block(shape) == 64
    calls = []
    wrong = []  # the index of the block to put off
    real_irfft = np.fft.irfft

    def irfft(*args, **kwargs):
        calls.append(args[0].shape[0])
        raw = real_irfft(*args, **kwargs)
        return raw + 0.3 if len(calls) - 1 == wrong[0] else raw

    members = np.arange(200_001)
    assert sets._fft_pair_sums(members, -members, -200_000, 200_000, True) is not None
    monkeypatch.setattr(np.fft, "irfft", irfft)
    wrong.append(block % 7)
    assert sets._fft_pair_sums(members, -members, -200_000, 200_000, True) is None
    assert calls == ([64] if block == 0 else [64] * 6 + [21])  # the rows of each block finished
    calls.clear()
    wrong[0] = block % 4
    with pytest.raises(ResourceBudgetError, match="direct pairs"):
        rep_histogram(make_set(range(200_001), 0, 200_001), "diff")
    assert calls == ([64] if block == 0 else [64] * 3 + [11])


def test_memory_budget_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(sets, "PAIR_MEMORY_BUDGET", 2**20)
    full = make_set(range(200_001), 0, 200_001)
    # the FFT branch: an 8-byte count per cell of the 405 x 1024 grid that
    # covers the 400003 differences, A's half spectrum, in which their
    # inverse transform is taken, 16 bytes a member for A's indicator, and
    # one float64 block of 64 rows
    assert sets._grid_shape(400_003) == (405, 1024)
    with pytest.raises(ResourceBudgetError, match="FFT on a 405 x 1024 grid needs 10 MiB"):
        rep_histogram(full, "diff")
    # the direct branch: one mark per value of a 2e6-wide interval and a
    # block of 10^6 int64 sums
    spread = IntegerSet.from_members(np.arange(0, 10**6, 1000), 0, 10**6)
    with pytest.raises(ResourceBudgetError, match="1000 x 1000 direct pairs needs 10 MiB"):
        sumset(spread)
    # the sorted branch: 17 bytes per pair over a 2e7-wide interval
    spread = IntegerSet.from_members(np.arange(0, 10**7, 25_000), 0, 10**7)
    with pytest.raises(ResourceBudgetError, match="400 x 400 sorted pairs needs 3 MiB"):
        sumset(spread)
    assert sumset(make_set([0, 10**6], 0, 10**6)).members().tolist() == [0, 10**6, 2 * 10**6]


def test_sorted_histogram_is_not_spread():
    # the two members' differences are three sorted pairs over the 2e6+1
    # values of [-10^6, 10^6]
    a = make_set([0, 10**6], 0, 10**6)
    assert [rep_histogram(a, "diff").count(d) for d in (-(10**6), 0, 1, 10**6)] == [1, 2, 0, 1]
    # At N = 10^9, dense counts over the 2e9+1 values would need 15 GiB,
    # over the memory budget; the histogram and every statistic read off it
    # keep to the sorted pairs.
    elems = [0, 5, 10**9]
    a = make_set(elems, 0, 10**9)
    for kind, oracle in (("sum", sum_rep_counts), ("diff", diff_rep_counts)):
        expected = dict(oracle(elems))
        tracemalloc.start()
        try:
            hist = rep_histogram(a, kind)
            found = (
                [hist.count(v) for v in [*expected, 1, -1, 10**9 - 1, 2 * 10**9 - 1]],
                hist.total(),
                hist.support_size(),
                list(hist.nonzero_items()),
                multiplicity_profile(hist),
                [tuple_statistic(hist, k) for k in (1, 2, 3)],
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        counts, total, support_size, items, profile, tuples = found
        assert counts == [*expected.values(), 0, 0, 0, 0]
        assert total == sum(expected.values()) and support_size == len(expected)
        assert items == sorted(expected.items())
        assert profile == Counter(r for v, r in expected.items() if kind != "diff" or v != 0)
        assert tuples == [tuple_statistic_oracle(elems, kind, k) for k in (1, 2, 3)]


@given(
    st.lists(st.integers(0, 40), max_size=25),
    st.integers(-30, 30),
    st.integers(0, 8),
)
@settings(max_examples=40, deadline=None)
def test_histogram_count_on_both_layouts(xs, offset, slack):
    # The FFT, direct pairs and sorted pairs forced in turn (the empty set
    # is sorted under all three): count(v) is the oracle's at every value of
    # the domain and next to it, stored or not, below, between and above
    # the values some pair makes.
    elems = sorted(set(x + offset for x in xs))
    a = make_set(elems, offset, offset + 40 + slack)
    cases = (
        ("sum", None, sum_rep_counts(elems)),
        ("diff", None, diff_rep_counts(elems)),
        ("form", LinearForm((3, -2)), form_rep_counts(elems, 3, -2)),
    )
    for fft_step, sort_step in ((1e-9, 1e9), (1e9, 1e9), (1e9, 1e-9)):
        with mock.patch.multiple(sets, _PAIRS_PER_FFT_STEP=fft_step, _PAIRS_PER_SORT_STEP=sort_step):
            for kind, form, expected in cases:
                hist = rep_histogram(a, kind, form)
                assert (hist._sums.offsets is not None) == (sort_step < 1 or not elems)
                values = range(hist.domain_lo - 2, hist.domain_hi + 3)
                assert [hist.count(v) for v in values] == [expected.get(v, 0) for v in values]


@pytest.mark.parametrize("sort_step", [1e9, 1e-9], ids=["dense", "sorted"])
def test_histogram_arrays_are_read_only(sort_step):
    with mock.patch.object(sets, "_PAIRS_PER_SORT_STEP", sort_step):
        hist = rep_histogram(make_set([0, 1, 5], 0, 10), "sum")
    arrays = [x for x in vars(hist._sums).values() if isinstance(x, np.ndarray)]
    assert len(arrays) == (2 if sort_step < 1 else 1)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] += 1
    assert dict(hist.nonzero_items()) == dict(sum_rep_counts([0, 1, 5]))


@given(st.lists(st.integers(0, 40), max_size=25), st.integers(-30, 30))
@settings(max_examples=40, deadline=None)
def test_grid_layout_reads_as_dense_and_sorted(xs, offset):
    # The FFT (grid), direct (dense) and sorted branches forced in turn give
    # the same support, counts in support order, count(v) at every value of
    # the domain and next to it, profile, and equal histograms.
    elems = sorted(set(x + offset for x in xs))
    a = make_set(elems, offset, offset + 40)
    for kind, form in (("sum", None), ("diff", None), ("form", LinearForm((3, -2)))):
        hists = []
        for fft_step, sort_step in ((1e-9, 1e9), (1e9, 1e9), (1e9, 1e-9)):
            with mock.patch.multiple(sets, _PAIRS_PER_FFT_STEP=fft_step, _PAIRS_PER_SORT_STEP=sort_step):
                hists.append(rep_histogram(a, kind, form))
        grid = hists[0]
        assert (grid._sums.grid is not None) == bool(elems)
        values = range(grid.domain_lo - 2, grid.domain_hi + 3)
        for other in hists[1:]:
            assert grid == other and hash(grid) == hash(other)
            assert np.array_equal(grid._sums.support(), other._sums.support())
            assert np.array_equal(grid._sums.multiplicities(), other._sums.multiplicities())
            assert [grid.count(v) for v in values] == [other.count(v) for v in values]
            assert list(grid.nonzero_items()) == list(other.nonzero_items())
            assert multiplicity_profile(grid) == multiplicity_profile(other)
            assert (grid.total(), grid.support_size()) == (other.total(), other.support_size())


def test_histograms_compare_by_value():
    # Kind, domain, form and counts decide, whichever layout holds the
    # counts, and equal histograms hash equal.
    a = make_set([0, 1, 5], 0, 10)
    first, again = rep_histogram(a, "sum"), rep_histogram(a, "sum")
    assert first == again and hash(first) == hash(again)
    assert first != rep_histogram(a, "diff")
    assert first != rep_histogram(make_set([0, 2, 5], 0, 10), "sum")
    assert first != rep_histogram(make_set([0, 1, 5], 0, 11), "sum")
    assert rep_histogram(a, "form", LinearForm((2, -1))) != rep_histogram(a, "form", LinearForm((3, -1)))
    for kind, form in (("sum", None), ("diff", None), ("form", LinearForm((3, -2)))):
        layouts = []
        for sort_step in (1e9, 1e-9):
            with mock.patch.object(sets, "_PAIRS_PER_SORT_STEP", sort_step):
                layouts.append(rep_histogram(a, kind, form))
        dense, ordered = layouts
        assert dense._sums.offsets is None and ordered._sums.offsets is not None
        assert dense == ordered and hash(dense) == hash(ordered)
    far = make_set([0, 5, 10**9], 0, 10**9)
    assert rep_histogram(far, "diff") == rep_histogram(far, "diff")
    assert first != "histogram"


def test_memory_budget_refuses_largest_priced_fft():
    # the differences of 10^5 members of [0, 2e8]: an FFT on a 98415 x 4096
    # grid (cost 7.6e9, within the pair budget) would need ~10.1 GB; it is
    # refused without allocating
    assert sets._grid_shape(4 * 10**8 + 1) == (98415, 4096)
    a = IntegerSet.from_members(np.arange(0, 2 * 10**8, 2000), 0, 2 * 10**8)
    refuses_within_16_mib(lambda: rep_histogram(a, "diff"))
    # 2e4 members over [0, 3e9]: direct marks over the 6e9-wide interval
    # (cost 5.8e8) are cheaper than sorted pairs (2.3e9), and need 6 GB
    spread = IntegerSet.from_members(np.arange(0, 3 * 10**9, 150_000), 0, 3 * 10**9)
    refuses_within_16_mib(lambda: sumset(spread))


# --- the shared spectrum: every binary image and histogram of one set


BINARY_FORMS = ((1, 1), (1, -1), (2, -1), (3, -2), (4, -3), (5, -1))


@given(
    st.lists(st.integers(0, 40), max_size=25),
    st.integers(-30, 30),
    st.integers(0, 8),
)
@settings(max_examples=80, deadline=None)
def test_shared_spectrum_matches_oracles(xs, offset, slack):
    # An FFT step of 1e-9 forces the FFT branch, one of 1e9 with a sorting
    # step of 1e-9 the sorted branch (the empty set is sorted under both);
    # [offset, offset + 40 + slack] shifts the interval and leaves room past
    # the members.  One call for the whole list, a k-ary fold among its
    # binary requests, equals one call per request, and both equal the
    # oracles.
    elems = sorted(set(x + offset for x in xs))
    a = make_set(elems, offset, offset + 40 + slack)
    requests = [(coeffs, False) for coeffs in BINARY_FORMS[:3]] + [((1, 1, 1), False)]
    requests += [(coeffs, False) for coeffs in BINARY_FORMS[3:]]
    requests += [((1, 1), True), ((1, -1), True), ((3, -2), True)]
    for fft_step, sort_step in ((1e-9, 0.2), (1e9, 1e-9)):
        with mock.patch.multiple(sets, _PAIRS_PER_FFT_STEP=fft_step, _PAIRS_PER_SORT_STEP=sort_step):
            check_shared_spectrum(a, elems, requests, sort_step < 1e-3 or not elems)


def check_shared_spectrum(a, elems, requests, sort):
    shared = list(sets._self_pair_sums(a, requests))
    for (coeffs, count), result in zip(requests, shared, strict=True):
        lo = result.lo
        assert (result.offsets is not None) == sort
        alone = next(sets._self_pair_sums(a, [(coeffs, count)]))
        assert (alone.offsets is None) == (result.offsets is None) and alone.lo == lo
        hi = sets._image_interval(a.lo, a.hi, coeffs)[1]
        values = dense(result, lo, hi, count)
        assert np.array_equal(dense(alone, lo, hi, count), values)
        assert values.dtype == (np.int64 if count else bool)
        assert (lo, lo + values.size - 1) == sets._image_interval(a.lo, a.hi, coeffs)
        found = {int(i) + lo: int(c) for i, c in enumerate(values) if c}
        if len(coeffs) > 2:
            assert sorted(found) == form_image_oracle(elems, coeffs)
            continue
        expected = form_rep_counts(elems, *coeffs)
        assert found == (expected if count else dict.fromkeys(expected, 1))
    for coeffs in BINARY_FORMS:
        assert list(form_image(a, LinearForm(coeffs))) == form_image_oracle(elems, coeffs)
    assert dict(rep_histogram(a, "sum").nonzero_items()) == dict(sum_rep_counts(elems))
    assert dict(rep_histogram(a, "diff").nonzero_items()) == dict(diff_rep_counts(elems))
    form = LinearForm((3, -2))
    assert dict(rep_histogram(a, "form", form).nonzero_items()) == form_rep_counts(elems, 3, -2)


@pytest.mark.parametrize("nfft", [1, 2, 3, 8, 12, 45, 360, 1024, 3 * 2**9])
@pytest.mark.parametrize("c", [1, -1, 2, -3, 5])
def test_dilated_spectrum_matches_rfft(nfft, c):
    # On the grid of nfft cells (its odd part by its power of 2), X(c*k),
    # read off the half spectrum X, is the grid transform of the indicator
    # dilated by c modulo nfft; the product reads X(-k) too, so it is
    # checked against the transforms of both dilations.
    rows = nfft // (nfft & -nfft)
    shape = (rows, nfft // rows)
    members = np.flatnonzero(np.random.default_rng(nfft).random(nfft) < 0.4)

    def grid_spectrum(offsets):
        # the dilated multisets collide, so the reference is built by numpy
        grid = np.zeros(nfft)
        np.add.at(grid, sets._crt(offsets % nfft, *shape), 1.0)
        return np.fft.fft(np.fft.rfft(grid.reshape(shape), axis=1), axis=0)

    spectrum = grid_spectrum(members)
    out = np.empty_like(spectrum)
    sets._dilated_product(spectrum, (c, -1), shape[1], out)
    expected = grid_spectrum(c * members) * grid_spectrum(-members)
    assert np.allclose(out, expected, atol=1e-9)


# Grids whose rows are divisible by 3, by 5, by both and by neither
PRODUCT_SHAPES = [(27, 32), (25, 64), (45, 16), (1, 256), (7, 32)]
COEFFICIENT_PAIRS = [(u, v) for u in range(-5, 6) for v in range(-5, 6) if u and v]


@pytest.mark.parametrize("block", [2**16, 16], ids=["block", "tiny-block"])
@pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_product_in_place_matches_product_beside(monkeypatch, shape, block):
    # Formed inside A's spectrum X, a factor with odd |c| > 1 read from its
    # contiguous lattice copy, one with |c| = 1 at the cell it overwrites
    # and one with even c at columns not yet written, the product equals
    # the one formed in an array of its own, bit for bit, for every pair of
    # coefficients up to 5 in size.  A block of 16 cells splits the
    # rectangles into blocks of a few rows.
    rows, cols = shape
    members = np.flatnonzero(np.random.default_rng(rows * cols).random(rows * cols) < 0.3)
    x = sets._spectrum(members, shape)
    x.flags.writeable = False
    monkeypatch.setattr(sets, "_GATHER_BLOCK", block)
    for coeffs in COEFFICIENT_PAIRS:
        beside = np.empty_like(x)
        sets._dilated_product(x, coeffs, cols, beside)
        inside = x.copy()
        sets._dilated_product(inside, coeffs, cols, inside)
        assert np.array_equal(inside.view(np.float64), beside.view(np.float64)), coeffs


@pytest.mark.parametrize("shape", PRODUCT_SHAPES + [(3125, 1024)], ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_product_holds_at_most_two_half_spectra(shape):
    # Inside X, an even coefficient reads no lattice copy, and a request
    # whose copies would hold a half spectrum or more goes beside X: no
    # path holds more than X and a product's worth, whether it keeps X or
    # not
    x = half_spectrum(*shape)
    for coeffs in COEFFICIENT_PAIRS:
        for keep in (True, False):
            assert sets._held_bytes(coeffs, shape, keep) <= 2 * x, (coeffs, keep)
    assert sets._held_bytes((2, -1), shape, False) == x


@pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_even_coefficients_copy_no_lattice(monkeypatch, shape):
    # Formed inside X, the product copies a lattice for each odd |c| > 1
    # alone
    rows, cols = shape
    copied = []
    real = sets._lattice
    monkeypatch.setattr(sets, "_lattice", lambda x, c, cols: copied.append(c) or real(x, c, cols))
    spectrum = sets._spectrum(np.arange(0, rows * cols, 7), shape)
    for coeffs in COEFFICIENT_PAIRS:
        copied.clear()
        inside = spectrum.copy()
        sets._dilated_product(inside, coeffs, cols, inside)
        assert copied == [c for c in coeffs if c % 2 and abs(c) > 1], coeffs


def test_small_sets_take_no_fft():
    # An FFT call costs about 10^5 steps however small its grid, so the 13
    # members of [0, 12] take direct pairs for every image and histogram
    a = make_set(range(13), 0, 12)
    with mock.patch.object(sets, "_fft_pair_sums", side_effect=AssertionError("FFT")):
        sizes = [sumset(a).count, diffset(a).count, form_image(a, LinearForm((2, -1))).count]
        hists = [rep_histogram(a, "sum"), rep_histogram(a, "diff")]
    assert sizes == [25, 25, 37]
    assert [h.total() for h in hists] == [13 * 14 // 2, 13**2]


@pytest.mark.parametrize(
    "n, p, lo",
    [(10, 0.5, 0), (300, 0.3, -7), (4000, 0.05, 11), (50_000, 0.02, 0), (2 * 10**5, 0.03, -100)],
    ids=["N10", "N300", "N4000", "N5e4", "N2e5"],
)
@pytest.mark.parametrize("count", [True, False], ids=["counts", "marks"])
def test_differences_on_half_the_rows_match_the_full_inverse(n, p, lo, count):
    # The differences of a random set over [lo, lo + n], taken on rows 0 to
    # rows//2 of the grid from A's spectrum alone, the rest mirrored, equal
    # the indicators' full inverse transform as int64 counts (or marks),
    # whether the request keeps A's spectrum (its inverse in an array of its
    # own) or not (inside the spectrum)
    offsets = np.flatnonzero(np.random.default_rng(n).random(n + 1) < p)
    a = IntegerSet.from_members(offsets + lo, lo, lo + n)
    members = a.members()
    with mock.patch.object(sets, "_PAIRS_PER_FFT_STEP", 1e-9):
        full = sets._fft_pair_sums(members, -members, -n, n, count)
        kept = next(sets._self_pair_sums(a, [((1, -1), count), ((1, 1), count)]))
        last = next(sets._self_pair_sums(a, [((1, -1), count)]))
    expected = dense(full, -n, n, count)
    assert expected.dtype == (np.int64 if count else bool)
    for half in (kept, last):
        assert half.grid is not None and half.cells.dtype == expected.dtype
        assert np.array_equal(dense(half, -n, n, count), expected)
    assert int(expected.sum()) == (a.count**2 if count else diffset(a).count)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 3, 5, 9, 15, 25, 27, 45, 81, 125, 135, 405]),
    st.sampled_from([1, 2, 4, 8, 16, 64, 256, 1024]),
    st.data(),
)
def test_natural_order_matches_the_crt_gather(rows, cols, data):
    # Read by diagonal runs, a block at a time, the cyclic sequence from any
    # start for any length equals the grid gathered at _crt of each offset
    size = rows * cols
    start = data.draw(st.integers(0, 3 * size))
    n = data.draw(st.integers(1, size))
    grid = np.random.default_rng(size + start).integers(0, 7, size)
    block = data.draw(st.sampled_from([1, 7, 64, 2**16]))
    with mock.patch.object(sets, "_GATHER_BLOCK", block):
        blocks = list(sets._natural(grid, rows, start, n))
    assert [i for i, _ in blocks] == list(range(0, n, block))
    found = np.concatenate([part for _, part in blocks])
    assert found.dtype == grid.dtype
    assert np.array_equal(found, grid[sets._crt((start + np.arange(n)) % size, rows, cols)])


@pytest.mark.parametrize(
    "shape, size",
    [((5, 1024), 900), ((135, 1024), 40_000), ((3, 2**16), 5000), ((3, 2**17), 7000), ((45, 16), 0)],
    ids=["one-partial-block", "blocks-and-a-partial", "one-row-blocks", "rows-wider-than-a-block",
         "no-offsets"],
)
def test_spectrum_streams_rows_to_the_half_spectrum(shape, size):
    # Built and rfft'd a block of rows at a time (64 rows of 1024 columns,
    # one row of 2^16 or 2^17), the half spectrum equals numpy's transforms
    # of the whole indicator grid
    rows, cols = shape
    assert sets._grid_block(shape) == min(rows, max(1, sets._GATHER_BLOCK // cols))
    offsets = np.random.default_rng(size).permutation(rows * cols)[:size]
    grid = np.zeros(rows * cols)
    grid[sets._crt(offsets, rows, cols)] = 1.0
    expected = np.fft.fft(np.fft.rfft(grid.reshape(shape), axis=1), axis=0)
    found = sets._spectrum(offsets, shape)
    assert found.shape == (rows, cols // 2 + 1) and found.dtype == np.complex128
    assert np.allclose(found, expected, atol=1e-8)


def test_no_result_is_held_while_the_next_request_runs(monkeypatch):
    # A result the caller has dropped must be freed before the next request
    # allocates: the generator keeps no reference to it across the yield.
    refs = []
    seen = []
    real = sets._pair_sums

    def spy(*args, **kwargs):
        seen.append([ref() is not None for ref in refs])
        return real(*args, **kwargs)

    monkeypatch.setattr(sets, "_pair_sums", spy)
    a = make_set(range(0, 400, 3), 0, 400)
    requests = [((1, 1), False), ((1, 1, 1), False), ((2, -1, 3), False), ((1, -1), True)]
    for values in sets._self_pair_sums(a, requests):
        refs.append(weakref.ref(values))
        del values
    assert len(refs) == 4 and len(seen) == 6
    assert not any(map(any, seen))


def traced_call(call):
    """call()'s result, and its traced peak and its traced memory after it
    returns, both above the traced memory before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = (traced - base for traced in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, peak, current


def half_spectrum(rows, cols):
    return 16 * rows * (cols // 2 + 1)


def small_allowance(a):
    # the two dilated member arrays and 64 KiB for small objects
    return 2 * 8 * a.count + 2**16


def grid_of(a, coeffs):
    lo, hi = sets._image_interval(a.lo, a.hi, coeffs)
    return sets._grid_shape(hi - lo + 1)


def block_bytes(shape):
    return 8 * sets._grid_block(shape) * shape[1]


@pytest.mark.parametrize("n", [10**5, 2 * 10**5], ids=["N1e5", "N2e5"])
def test_dense_images_hold_one_and_a_half_spectra(n):
    # The sizes and the (2,-1) form of a run_trial at delta = 0.3, in its
    # order.  A-A computes A's spectrum X, keeps it for A+A and holds half a
    # product beside it: its inverse transform down the columns, of half
    # the rows.  A+A forms its product inside the X it was given, and the
    # (2,-1) image, on a larger grid, inside its own X with no copy: its
    # factor 2 reads columns of X not yet written.  Each call peaks at
    # those half spectra, its result, one float64 block of rows (of at most
    # the grid's rows) and the small allowance.  The grids have 207360 cells
    # or more, so an extra array of 8 bytes per cell (1.6 MB) exceeds the
    # block and the allowance (0.6 MB).
    a = sample(n, n**-0.3, SamplerSeed(11, 0))
    images = [(1, -1), (1, 1), (2, -1)]
    # the first FFT imports numpy.fft; the sizes are checked against the
    # public kernels before the measured calls
    sizes = [diffset(a).count, sumset(a).count, form_image(a, LinearForm((2, -1))).count]
    results = sets._self_pair_sums(a, [(coeffs, False) for coeffs in images])
    shapes = [grid_of(a, coeffs) for coeffs in images]
    rows, cols = shapes[0]
    assert shapes[0] == shapes[1] != shapes[2] and rows * cols >= 207360
    held = [
        half_spectrum(rows, cols) + half_spectrum(rows // 2 + 1, cols),  # X and half a product
        0,  # X, held already
        half_spectrum(*shapes[2]),  # X alone
    ]
    assert [sets._held_bytes(c, shape, keep) for c, shape, keep in zip(images, shapes, [True, False, False])] == [
        held[0], half_spectrum(rows, cols), held[2]
    ]
    tracemalloc.start()
    try:
        for coeffs, shape, size, spectra in zip(images, shapes, sizes, held):
            x = half_spectrum(*shape)
            assert spectra <= 1.5 * x + 16 * shape[1]  # one and a half half spectra, to a row
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            marks = next(results).cells
            current, peak = (traced - base for traced in tracemalloc.get_traced_memory())
            assert marks.size == shape[0] * shape[1] and np.count_nonzero(marks) == size
            assert a.count**2 > sets._fft_cost(shape)  # the FFT ran
            assert peak <= marks.nbytes + spectra + block_bytes(shape) + small_allowance(a)
            # A-A holds X and its result after the call; A+A releases X; the
            # (2,-1) image, whose X is its own, holds its result alone
            kept = {(1, -1): x, (1, 1): -x, (2, -1): 0}[coeffs]
            assert current <= marks.nbytes + kept + 2**16
            del marks
    finally:
        tracemalloc.stop()


# FFT calls by the half spectra they hold, past the result and the block
PRICED_CALLS = {
    # id: (requests, whether the first keeps A's spectrum, the half spectra
    # it holds as a function of its grid's shape)
    "last-sums": ([((1, 1), False)], False, lambda r, c: half_spectrum(r, c)),
    "last-differences": ([((1, -1), True)], False, lambda r, c: half_spectrum(r, c)),
    "last-even": ([((2, -1), False)], False, lambda r, c: half_spectrum(r, c)),  # (2,-1) copies nothing
    "last-lattice-copy": (  # on 405 x 2048: (3,-1) reads a third of X's rows
        [((3, -1), False)], False, lambda r, c: half_spectrum(r, c) + half_spectrum(r // 3, c)),
    "last-two-copies": (  # on 1875 x 1024: (5,-3) reads a fifth and a third of X's rows
        [((5, -3), True)], False,
        lambda r, c: half_spectrum(r, c) + half_spectrum(r // 3, c) + half_spectrum(r // 5, c)),
    "last-beside": (  # on 729 x 2048: (5,-2)'s copy of X would be a half spectrum, so it goes beside X
        [((5, -2), False)], False, lambda r, c: 2 * half_spectrum(r, c)),
    "kept-differences": (
        [((1, -1), True), ((1, 1), True)], True, lambda r, c: half_spectrum(r, c) + half_spectrum(r // 2 + 1, c)),
    "kept-sums": ([((1, 1), False), ((1, -1), False)], True, lambda r, c: 2 * half_spectrum(r, c)),
}


@pytest.mark.parametrize("call", PRICED_CALLS)
def test_fft_calls_peak_within_their_price(call):
    # Each FFT path at N = 2e5 (|A| = 5260) peaks within _fft_bytes, priced
    # by the half spectra it holds: one and the lattice copies its odd
    # factors |c| > 1 read for a last request formed inside X, one and a
    # half for kept differences, two for any other request; plus the small
    # allowance
    requests, keep, spectra = PRICED_CALLS[call]
    a = sample(2 * 10**5, (2 * 10**5) ** -0.3, SamplerSeed(11, 0))
    coeffs, count = requests[0]
    shape = grid_of(a, coeffs)
    assert shape == {"last-lattice-copy": (405, 2048), "last-two-copies": (1875, 1024),
                     "last-beside": (729, 2048)}.get(call, shape)
    held = sets._held_bytes(coeffs, shape, keep)
    assert held == spectra(*shape)
    next(sets._self_pair_sums(a, requests))  # imports and plans outside the trace
    result, peak, _ = traced_call(lambda: next(sets._self_pair_sums(a, requests)))
    assert result.grid is not None and result.cells.size == shape[0] * shape[1]
    assert peak <= sets._fft_bytes(shape, count, held, a.count) + small_allowance(a)


@pytest.mark.parametrize("count", [True, False], ids=["counts", "marks"])
def test_fft_fold_peaks_within_its_price(count):
    # A fold convolves two indicators: it holds two half spectra, the
    # result, one block, and 16 bytes a member of the larger operand, the
    # sum set, while its indicator is built
    a = sample(2 * 10**5, (2 * 10**5) ** -0.3, SamplerSeed(11, 0))
    left, right = sumset(a).members(), a.members()
    lo, hi = sets._image_interval(a.lo, a.hi, (1, 1, 1))
    shape = sets._grid_shape(hi - lo + 1)
    assert left.size * right.size > sets._fft_cost(shape)
    price = sets._fft_bytes(shape, count, 2 * half_spectrum(*shape), left.size)
    result, peak, _ = traced_call(lambda: sets._pair_sums(left, right, lo, hi, count))
    assert result.grid is not None
    assert peak <= price + 2**16


@pytest.mark.parametrize("count", [True, False], ids=["counts", "marks"])
def test_direct_pairs_stay_within_their_price(monkeypatch, count):
    # 1001 x 1001 pairs in blocks of 10^5 sums over a 2e6-wide interval:
    # the result, the shifted left operand and one block are alive at once,
    # plus the broadcasting sum's two int64 ufunc buffers and 64 KiB for
    # small objects
    monkeypatch.setattr(sets, "_CHUNK_ENTRIES", 10**5)
    members = np.arange(0, 10**6 + 1, 1000)
    lo, hi = -(10**6), 10**6
    pairs = members.size**2
    assert pairs < sets._fft_cost(sets._grid_shape(hi - lo + 1))  # not the FFT
    direct_cost, priced = sets._direct_price(members.size, members.size, hi - lo + 1, count)
    assert direct_cost < sets._PAIRS_PER_SORT_STEP * pairs * math.log2(pairs)  # nor sorted pairs
    tracemalloc.start()
    try:
        result = sets._pair_sums(members, -members, lo, hi, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= priced + 2 * 8 * np.getbufsize() + 2**16
    # the gap 1000*d is made by the 1001 - |d| pairs (i + d, i)
    gaps = np.arange(-1000, 1001)
    expected = np.zeros(hi - lo + 1, dtype=np.int64)
    expected[1000 * gaps - lo] = 1001 - abs(gaps)
    assert np.array_equal(result.cells, expected if count else expected > 0)


@pytest.mark.parametrize("count", [True, False], ids=["counts", "marks"])
def test_sorted_pairs_stay_within_their_price(count):
    # The differences of 600 members of [0, 10^9], 3.6e5 pairs over a
    # 2e9-wide interval: sorted pairs are the cheapest branch, and the call
    # peaks within their price (the sums, a flag per pair and 8 or 16 bytes
    # per distinct sum) plus 64 KiB for small objects
    members = np.sort(np.random.default_rng(7).choice(10**9 + 1, 600, replace=False))
    lo, hi = -(10**9), 10**9
    pairs = members.size**2
    sorted_cost = sets._PAIRS_PER_SORT_STEP * pairs * math.log2(pairs)
    assert sorted_cost < pairs + sets._PAIRS_PER_SLOT[count] * (hi - lo + 1)
    assert sorted_cost < sets._fft_cost(sets._grid_shape(hi - lo + 1))
    priced = sets._sorted_bytes(pairs, hi - lo + 1, count)
    tracemalloc.start()
    try:
        result = sets._pair_sums(members, -members, lo, hi, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= priced + 2**16
    expected = diff_rep_counts(members.tolist())
    assert result.support().tolist() == sorted(expected)
    if count:
        assert dict(zip(result.support().tolist(), result.cells.tolist())) == expected


def spy_on_branches(monkeypatch) -> list[str]:
    """The branch each later _pair_sums call takes, in order: direct, fft or sorted."""
    taken = []
    for name in ("_direct_pair_sums", "_fft_pair_sums", "_sorted_pair_sums"):
        def spy(*args, real=getattr(sets, name), branch=name.split("_")[1], **kwargs):
            taken.append(branch)
            return real(*args, **kwargs)

        monkeypatch.setattr(sets, name, spy)
    return taken


WORKLOAD_TRIALS = {
    # name: (N, family, statistics, trials, the branch of each kernel call)
    "sparse-trials": (10**6, PFamily.power_law(1.0, 0.7), StatisticsSpec(forms=(LinearForm((2, -1)),)),
                      4, ["sorted"] * 3),
    "dense-images": (10**6, PFamily.power_law(1.0, 0.3), StatisticsSpec(forms=(LinearForm((2, -1)),)),
                     1, ["fft"] * 3),
    "collision-hist": (10**4, PFamily.explicit(0.5), StatisticsSpec(max_k=3, y=True), 2, ["fft"] * 2),
}


@pytest.mark.parametrize("workload", WORKLOAD_TRIALS)
def test_workload_trials_take_their_branches(monkeypatch, workload):
    # The sweeps of the benchmark workloads, one trial at a time: sparse
    # sets (|A| ~ 63 in [0, 10^6]) sort their ~4e3 pair sums instead of
    # marking intervals 2e6 and 3e6 wide; dense sets keep the FFT
    n, family, spec, trials, branches = WORKLOAD_TRIALS[workload]
    taken = spy_on_branches(monkeypatch)
    config = ExperimentConfig((n,), family, trials, 0, spec)
    for t in range(trials):
        record = run_trial(config, n, t)
        assert taken == branches and record.set_size > 0
        taken.clear()


def test_crossover_grid_trials_take_direct_pairs(monkeypatch):
    # The crossover-grid workload's trial grows dense marks one class of y
    # mod u at a time: two direct pair sums into ``out`` per class and grid
    # point, never through _pair_sums, each over the class's
    # n + |v|*(n // u) + 1 values, not the image's (u + |v|)*n + 1.  The
    # trial's traced peak stays below one byte per value of (4,-3)'s image.
    from sumdiff import experiments

    grid = (0.67, 0.77, 0.86, 0.96, 1.05, 1.15, 1.24)
    n = 10**6
    widths = []
    real = sets._direct_pair_sums

    def spy(left, right, lo, hi, count, out=None):
        assert out is not None and out.size == hi - lo + 1 and not count
        widths.append(hi - lo + 1)
        return real(left, right, lo, hi, count, out)

    def forbidden(*args, **kwargs):
        raise AssertionError("the crossover grows its marks by direct pairs alone")

    monkeypatch.setattr(sets, "_direct_pair_sums", spy)
    monkeypatch.setattr(sets, "_pair_sums", forbidden)
    forms = (LinearForm((4, -3)), LinearForm((5, -1)))
    tracemalloc.start()
    try:
        experiments._crossover_trial(forms, n, tuple(c / math.sqrt(n) for c in grid), 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * n
    calls = [2 * len(grid) * form.u for form in forms]
    assert len(widths) == sum(calls) == 126
    bounds = [n + abs(form.v) * (n // form.u) + 1 for form in forms]
    assert bounds == [1_750_001, 1_200_001]
    assert max(widths[: calls[0]]) <= bounds[0] and max(widths[calls[0] :]) <= bounds[1]


@pytest.mark.parametrize(
    "forms, max_k, forward, inverse",
    [
        ([], 2, 1, 2),
        ([(2, -1)], 0, 2, 3),
        ([(2, -1)], 2, 2, 3),
        ([(2, -1), (1, -1)], 0, 2, 3),
        ([(1, 1, 1)], 0, 3, 4),
        ([(1, 1, 1)], 2, 4, 4),
    ],
    ids=["sizes-xk2", "sizes-form", "sizes-form-xk2", "sizes-form-diff", "sizes-kary",
         "sizes-kary-xk2"],
)
def test_trial_shares_spectrum_per_fft_length(monkeypatch, forms, max_k, forward, inverse):
    # At N = 2e5 the sum and difference sets share one FFT length and the
    # (2,-1) image needs a longer one: the sizes and the form take 2 forward
    # transforms.  With xk:2 the sizes are the histograms' supports, so A+A
    # and A-A are each requested once, as counts; they come after the form,
    # so they take A's spectrum at the first length once more.  The form
    # (1,-1) is the difference set, already requested for the sizes, so it
    # costs nothing.  The (1,1,1) image starts from A+A at the sizes'
    # length, then folds in A by two indicator transforms; X is dropped
    # before the fold, so the sizes or histograms take it again.
    # A whole forward transform is one _spectrum, a whole inverse one
    # _fft_pair_sums, however many blocks of rows each streams.
    calls = {}
    for name in ("_spectrum", "_fft_pair_sums"):
        def counted(*args, real=getattr(sets, name), name=name, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(sets, name, counted)
    n = 2 * 10**5
    spec = StatisticsSpec(max_k=max_k, forms=tuple(map(LinearForm, forms)))
    run_trial(ExperimentConfig((n,), PFamily.power_law(1.0, 0.3), 1, 11, spec), n, 0)
    assert calls == {"_spectrum": forward, "_fft_pair_sums": inverse}


@pytest.mark.parametrize("spec", [
    StatisticsSpec(forms=(LinearForm((2, -1)),)),
    StatisticsSpec(max_k=2, y=True, forms=(LinearForm((2, -1)),)),
], ids=["sizes-form", "sizes-form-xk2-y"])
def test_dense_trial_never_gathers_its_grids(monkeypatch, spec):
    # Sizes count a grid's cells, histograms are made unordered through
    # index() and profiled unordered: no result of a dense trial is
    # gathered into value order
    gathers = []
    real = sets._natural

    def spy(*args):
        gathers.append(args[1:])
        return real(*args)

    monkeypatch.setattr(sets, "_natural", spy)
    taken = spy_on_branches(monkeypatch)
    n = 2 * 10**5
    record = run_trial(ExperimentConfig((n,), PFamily.power_law(1.0, 0.3), 1, 11, spec), n, 0)
    assert taken == ["fft"] * 3 and gathers == []
    assert record.sumset_size > 0 and record.form_sizes[LinearForm((2, -1))] > 0


@st.composite
def staged_sets(draw):
    """N and the elements of [0, N], each with the stage at which it joins
    the nested sets A_0 <= A_1 <= A_2 <= A_3; stage 4 is past the last."""
    n = draw(st.integers(0, 60))
    elements = st.tuples(st.integers(0, n), st.integers(0, 4))
    return n, draw(st.lists(elements, max_size=40, unique_by=lambda t: t[0]))


@given(
    staged_sets(),
    st.sampled_from([(1, -1), (2, -1), (2, 1), (3, -2), (3, 1), (5, -1), (4, -3), (1, 1), (7, -5)]),
)
@example((3, [(0, 0), (2, 2), (3, 4)]), (7, -5))  # N < u: classes 4-6 hold no y
@example((9, [(1, 1), (5, 1), (7, 3)]), (4, -3))  # stages 0 and 2 and classes 0 and 2 empty
@example((0, []), (2, 1))
@settings(max_examples=120, deadline=None)
def test_grown_image_matches_fresh_image(staged_set, coeffs):
    # The size grown at each end, summed over the classes of y mod u, is the
    # size of the fresh image of its prefix; members of stage 4 lie past the
    # last end and are ignored.
    n, staged = staged_set
    members = np.array([x for x, _ in sorted(staged, key=lambda t: t[1])], dtype=np.int64)
    ends = [sum(s <= stage for _, s in staged) for stage in range(4)]
    sizes = sets._grown_sizes(members, ends, coeffs, n)
    fresh = [form_image(make_set([x for x, s in staged if s <= stage], 0, n), LinearForm(coeffs)).count
             for stage in range(4)]
    assert sizes == fresh


# --- tuple statistics and profiles


def test_tuple_statistic_examples():
    hs = rep_histogram(make_set([0, 1, 2], 0, 2), "sum")
    assert tuple_statistic(hs, 1) == 6
    assert tuple_statistic(hs, 2) == 1
    hd = rep_histogram(make_set([0, 1, 2], 0, 2), "diff")
    assert tuple_statistic(hd, 2) == 2  # d=1 and d=-1; d=0 excluded
    assert tuple_statistic(hd, 9) == 0
    with pytest.raises(ValueError):
        tuple_statistic(hs, 0)


def test_multiplicity_profile_examples():
    hs = rep_histogram(make_set([0, 1, 2], 0, 2), "sum")
    assert multiplicity_profile(hs) == {1: 4, 2: 1}
    hd = rep_histogram(make_set([0, 1, 2], 0, 2), "diff")
    assert multiplicity_profile(hd) == {1: 2, 2: 2}
    assert multiplicity_profile(rep_histogram(make_set([], 0, 3), "sum")) == {}


@given(small_sets, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_tuple_statistic_matches_bruteforce(a, k):
    elems = list(a)
    for kind, form in (("sum", None), ("diff", None), ("form", LinearForm((2, -1)))):
        h = rep_histogram(a, kind, form)
        expected = tuple_statistic_oracle(elems, kind, k, form=(2, -1) if form else None)
        assert tuple_statistic(h, k) == expected


@given(small_sets)
@settings(max_examples=40, deadline=None)
def test_profile_consistency(a):
    for kind, form in (("sum", None), ("diff", None), ("form", LinearForm((2, -1)))):
        h = rep_histogram(a, kind, form)
        tau = multiplicity_profile(h)
        image = rep_histogram(a, kind, form).support_size()
        if kind == "diff" and a.count:
            image -= 1  # zero gap excluded from the partition
        assert sum(tau.values()) == image
        for k in (1, 2, 3):
            assert sum(math.comb(i, k) * t for i, t in tau.items()) == tuple_statistic(h, k)


@given(small_sets, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_partial_sum_identity(a, m):
    """||image| - alternating partial sum| <= X_m, for sums, gaps and forms."""
    if a.count == 0:
        return
    cases = (
        ("sum", None, sumset(a).count, 0),
        ("diff", None, diffset(a).count, 1),
        ("form", LinearForm((2, -1)), form_image(a, LinearForm((2, -1))).count, 0),
    )
    for kind, form, size, offset in cases:
        h = rep_histogram(a, kind, form)
        xs = [tuple_statistic(h, k) for k in range(1, m + 1)]
        partial = sum(x if k % 2 == 1 else -x for k, x in enumerate(xs, start=1))
        assert abs((size - offset) - partial) <= xs[-1]


# --- gap collisions (Y)


@given(small_sets)
@settings(max_examples=50, deadline=None)
def test_repeated_gap_pairs_matches_quadruple_enumeration(a):
    h = rep_histogram(a, "diff")
    y = repeated_gap_pairs(h)
    assert y == repeated_gap_pairs_oracle(list(a))
    assert y == tuple_statistic(h, 2) // 2


def test_repeated_gap_pairs_larger_interval():
    rng = np.random.default_rng(7)
    for _ in range(10):
        elems = np.flatnonzero(rng.random(31) < 0.4)
        a = make_set(elems.tolist(), 0, 30)
        assert repeated_gap_pairs(rep_histogram(a, "diff")) == repeated_gap_pairs_oracle(
            elems.tolist()
        )


def test_repeated_gap_pairs_requires_diff():
    with pytest.raises(ValueError):
        repeated_gap_pairs(rep_histogram(make_set([0, 1], 0, 1), "sum"))


# --- classification


def test_classify_famous_sum_dominated():
    a = make_set([0, 2, 3, 4, 7, 11, 12, 14], 0, 14)
    result = classify(a)
    assert result.label == "sum-dominated"
    assert result.sumset_size == len(sumset_oracle(list(a)))
    assert result.diffset_size == len(diffset_oracle(list(a)))
    assert result.sumset_size == 26 and result.diffset_size == 25
    # 3 of the 29 values of [0, 28] are missing sums, 4 of [-14, 14] missing differences
    assert (2 * 14 + 1 - result.sumset_size, 2 * 14 + 1 - result.diffset_size) == (3, 4)


def test_classify_balanced_and_difference_dominated():
    assert classify(make_set([0, 1, 2], 0, 2)).label == "balanced"
    r = classify(make_set([0, 1, 3], 0, 3))
    assert r.label == "difference-dominated"
    assert (r.sumset_size, r.diffset_size) == (6, 7)


def test_classify_trivial_sets_balanced():
    assert classify(make_set([], 0, 5)).label == "balanced"
    assert classify(make_set([3], 0, 5)).label == "balanced"


def test_classify_requires_zero_based_interval():
    with pytest.raises(ValueError):
        classify(IntegerSet([2, 3], 2, 5))
