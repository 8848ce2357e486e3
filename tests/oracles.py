"""Brute-force reference implementations, kept independent of the package.

Everything here enumerates tuples of elements directly with Python loops
and itertools; none of it shares code with the bit-parallel or numpy
paths it is used to check.
"""

import itertools
import math
from collections import Counter


def sumset_oracle(elems):
    return sorted({a + b for a in elems for b in elems})


def diffset_oracle(elems):
    return sorted({a - b for a in elems for b in elems})


def form_image_oracle(elems, coeffs):
    return sorted(
        {
            sum(c * x for c, x in zip(coeffs, combo))
            for combo in itertools.product(elems, repeat=len(coeffs))
        }
    )


def sum_pairs(elems):
    """Unordered pairs with repetition, as (a, b) with a <= b."""
    elems = sorted(elems)
    return [(a, b) for i, a in enumerate(elems) for b in elems[i:]]


def ordered_pairs(elems):
    return [(a, b) for a in elems for b in elems]


def sum_rep_counts(elems):
    return Counter(a + b for a, b in sum_pairs(elems))


def diff_rep_counts(elems):
    return Counter(a - b for a, b in ordered_pairs(elems))


def form_rep_counts(elems, u, v):
    return Counter(u * a + v * b for a, b in ordered_pairs(elems))


def tuple_statistic_oracle(elems, kind, k, form=None):
    """Count k-element sets of pairs sharing one value by literal enumeration."""
    if kind == "sum":
        tagged = [((a, b), a + b) for a, b in sum_pairs(elems)]
        excluded = None
    elif kind == "diff":
        tagged = [((a, b), a - b) for a, b in ordered_pairs(elems)]
        excluded = 0
    elif kind == "form":
        u, v = form
        tagged = [((a, b), u * a + v * b) for a, b in ordered_pairs(elems)]
        excluded = None
    else:
        raise ValueError(kind)
    buckets = {}
    for pair, value in tagged:
        if value == excluded:
            continue
        buckets.setdefault(value, []).append(pair)
    return sum(
        sum(1 for _ in itertools.combinations(bucket, k)) for bucket in buckets.values()
    )


def repeated_gap_pairs_oracle(elems):
    """Unordered pairs of distinct increasing pairs sharing one positive gap."""
    pairs = [(m, n) for m in elems for n in elems if m < n]
    return sum(
        1
        for (m, n), (m2, n2) in itertools.combinations(pairs, 2)
        if n - m == n2 - m2
    )


def expected_collision_free_ratio(trials, p):
    """E[r(K) | K >= 1] for K ~ Binomial(trials, p), summed against the pmf.

    r(k) = (k(k-1)+1) / (k(k+1)/2) = 2 - 4/k + O(k^-2) is |A-A| / |A+A| for a
    k-element set whose sums and differences are all distinct.  The pmf is
    log-concave, so once it underflows to 0 past the mean every later term
    is 0 as well.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    weighted = mass = 0.0
    for k in range(1, trials + 1):
        pmf = math.exp(
            math.lgamma(trials + 1)
            - math.lgamma(k + 1)
            - math.lgamma(trials - k + 1)
            + k * log_p
            + (trials - k) * log_q
        )
        if pmf == 0.0 and k > trials * p:
            break
        weighted += (k * (k - 1) + 1) / (k * (k + 1) / 2) * pmf
        mass += pmf
    return weighted / mass


def subsets(universe):
    for r in range(len(universe) + 1):
        yield from itertools.combinations(universe, r)


def enumerate_oracle(n):
    """Classify every subset of [0, n] one bitmask at a time, with Python ints."""
    counts = {"sum_dominated": 0, "balanced": 0, "difference_dominated": 0}
    for mask in range(1 << (n + 1)):
        if mask.bit_count() <= 1:
            counts["balanced"] += 1
            continue
        rest = mask
        s = 0
        d = 0
        while rest:
            low = rest & (-rest)
            i = low.bit_length() - 1
            s |= mask << i
            d |= mask << (n - i)
            rest ^= low
        ssize = s.bit_count()
        dsize = d.bit_count()
        if ssize > dsize:
            counts["sum_dominated"] += 1
        elif ssize == dsize:
            counts["balanced"] += 1
        else:
            counts["difference_dominated"] += 1
    return counts
