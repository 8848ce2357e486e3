import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumdiff import PFamily, SamplerSeed, p_of, sample
from sumdiff import sampling
from sumdiff.sampling import _draw_below, _nested_draw, _word_limit

# probabilities at which an error in the word threshold would show: the
# sparse p, exact multiples of 2**-53 and their neighbours, the extremes
SPEC_PS = (
    1e6**-0.7, 1e-3, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
    2.0**-53, 2 * 2.0**-53, 3 * 2.0**-53, math.nextafter(1.0, 0.0), 5e-324,
)
# around Philox's 4-word blocks and the 2**16-word chunks
SPEC_NS = (0, 1, 3, 4, 5, 65535, 65536, 65537, 200003)


def test_p_of_power_law():
    assert p_of(PFamily.power_law(1.0, 0.5), 10**4) == pytest.approx(0.01)


def test_p_of_explicit_constant_in_n():
    fam = PFamily.explicit(0.5)
    assert p_of(fam, 1) == p_of(fam, 10**6) == 0.5


def test_p_of_rejects_out_of_range():
    with pytest.raises(ValueError):
        p_of(PFamily.power_law(2.0, 0.0), 5)  # p = 2
    with pytest.raises(ValueError):
        p_of(PFamily.explicit(0.5), 0)


def test_family_validation():
    with pytest.raises(ValueError):
        PFamily.explicit(0.0)
    with pytest.raises(ValueError):
        PFamily.explicit(1.0)
    with pytest.raises(ValueError):
        PFamily.power_law(-1.0, 0.5)
    with pytest.raises(ValueError):
        PFamily.power_law(1.0, 1.5)
    with pytest.raises(ValueError):
        PFamily("made-up")


@pytest.mark.parametrize(
    "variant, fields, name",
    [
        ("explicit", dict(p=0.5, c="junk", delta=True), "c"),
        ("explicit", dict(p=0.5, delta=0.5), "delta"),
        ("power-law", dict(p="junk", c=1.0, delta=0.5), "p"),
    ],
    ids=["explicit-c", "explicit-delta", "power-law-p"],
)
def test_family_refuses_the_other_variants_fields(variant, fields, name):
    # they were kept unchecked and unused
    with pytest.raises(ValueError, match=rf"^the {variant} family takes no {name}, got "):
        PFamily(variant, **fields)


def test_seed_validation():
    with pytest.raises(ValueError):
        SamplerSeed(-1)
    with pytest.raises(ValueError):
        SamplerSeed(2**64)
    with pytest.raises(ValueError):
        SamplerSeed(0, -1)
    with pytest.raises(ValueError):
        SamplerSeed(0, 2**64)
    assert sample(10, 0.5, SamplerSeed(2**64 - 1, 2**64 - 1)).hi == 10


def _philox(n, key):
    return np.random.Philox(key=[key.seed, key.trial_index], counter=[0, 0, n, 0])


def _float_spec(n, key):
    """The uniforms the sampler is specified by, computed without the package."""
    return np.random.Generator(_philox(n, key)).random(n + 1)


@pytest.mark.parametrize("n", SPEC_NS)
def test_sample_matches_float_specification(n):
    key = SamplerSeed(2024, 5)
    uniforms = _float_spec(n, key)
    # a word whose low 11 bits are clear is the limit of the p of its own
    # uniform, and that p excludes it
    words = _philox(n, key).random_raw(n + 1)
    at_words = [float(w >> 11) * 2.0**-53 for w in words[words % 2048 == 0][:3] if w >> 11]
    assert at_words or n < 65535
    for p in SPEC_PS + tuple(at_words):
        expected = np.flatnonzero(uniforms < p)
        assert np.array_equal(sample(n, p, key).members(), expected), p


@pytest.mark.parametrize("chunk", [1, 3, 5, 7])
def test_chunk_size_does_not_change_the_draw(monkeypatch, chunk):
    # chunks that end inside a Philox block; the last n spans several
    # default chunks and adds nothing for these short ones
    monkeypatch.setattr(sampling, "_CHUNK", chunk)
    key = SamplerSeed(2024, 5)
    top = math.nextafter(1.0, 0.0)
    for n in SPEC_NS[:-1]:
        uniforms = _float_spec(n, key)
        words = _philox(n, key).random_raw(n + 1)
        members, kept = _draw_below(n, top, key)
        assert np.array_equal(members, np.flatnonzero(uniforms < top))
        assert np.array_equal(kept, words[members])
        for p in SPEC_PS:
            expected = np.flatnonzero(uniforms < p)
            assert np.array_equal(members[kept < np.uint64(_word_limit(p))], expected)
            if n <= 5:
                assert np.array_equal(sample(n, p, key).members(), expected)


@pytest.mark.parametrize("n", [0, 5, 65536, 200003])
def test_nested_draw_prefixes_are_the_samples(n):
    # each p's prefix of the nested draw is the set sampled at p, in any order
    key = SamplerSeed(2024, 5)
    ps = (2.0**-53, 1e6**-0.7, 1e-3, 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0))
    members, ends = _nested_draw(n, ps, key)
    assert list(ends) == sorted(ends) and ends[-1] == members.size
    for p, end in zip(ps, ends, strict=True):
        assert np.array_equal(np.sort(members[:end]), sample(n, p, key).members()), p


@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.integers(-(1 << 12), 1 << 12),
)
@example(2.0**-53, -1)
@example(2.0**-53, 0)
@example(math.nextafter(1.0, 0.0), (1 << 11) - 1)
@example(5e-324, 0)
@settings(max_examples=300, deadline=None)
def test_word_limit_equals_float_threshold(p, offset):
    limit = _word_limit(p)
    x = min(max(limit + offset, 0), 2**64 - 1)
    assert (x < limit) == ((x >> 11) * 2.0**-53 < p)


def test_sample_memory_is_bounded():
    tracemalloc.start()
    try:
        a = sample(10**8, 1e-6, SamplerSeed(1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < a.count < 500
    assert peak < 16 * 2**20


def test_sample_determinism():
    key = SamplerSeed(123, 7)
    a = sample(1000, 0.3, key)
    b = sample(1000, 0.3, key)
    assert a == b
    assert sample(1000, 0.3, SamplerSeed(123, 8)) != a
    assert sample(1000, 0.3, SamplerSeed(124, 7)) != a


def test_sample_respects_interval():
    a = sample(50, 0.9, SamplerSeed(5))
    assert (a.lo, a.hi) == (0, 50)
    assert all(0 <= m <= 50 for m in a)


def test_sample_rejects_bad_p():
    with pytest.raises(ValueError):
        sample(10, 0.0, SamplerSeed(0))
    with pytest.raises(ValueError):
        sample(10, 1.0, SamplerSeed(0))


def test_sample_mean_and_std_match_binomial():
    n, p, trials = 10**6, 0.01, 200
    sizes = np.array([sample(n, p, SamplerSeed(42, t)).count for t in range(trials)])
    mean_expected = (n + 1) * p
    std_expected = math.sqrt((n + 1) * p * (1 - p))
    se = std_expected / math.sqrt(trials)
    assert abs(sizes.mean() - mean_expected) <= 4 * se
    assert abs(sizes.std(ddof=1) - std_expected) <= 0.15 * std_expected


def test_marginal_inclusion_frequency():
    n, p, trials, element = 20, 0.3, 10**5, 7
    hits = sum(element in sample(n, p, SamplerSeed(9, t)) for t in range(trials))
    freq = hits / trials
    assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / trials)


def test_trial_streams_uncorrelated():
    n, p, trials = 1000, 0.1, 10**4
    sizes = np.array([sample(n, p, SamplerSeed(3, t)).count for t in range(trials)], dtype=float)
    lag1 = np.corrcoef(sizes[:-1], sizes[1:])[0, 1]
    assert abs(lag1) < 3.5 / math.sqrt(trials - 1)


def test_cardinality_interval_failure_rate():
    # power-law (c=1, delta=0.6): |A| leaves [c N^(1-d)/2, 3 c N^(1-d)/2]
    # with frequency at most P1 = (4/c) N^-(1-d)
    n, c, delta, trials = 1000, 1.0, 0.6, 3000
    p = p_of(PFamily.power_law(c, delta), n)
    center = c * n ** (1 - delta)
    lo, hi = center / 2, 3 * center / 2
    p1 = (4 / c) * n ** (-(1 - delta))
    outside = sum(not lo <= sample(n, p, SamplerSeed(11, t)).count <= hi for t in range(trials))
    assert outside / trials <= p1
