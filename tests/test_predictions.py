import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sumdiff import (
    LinearForm,
    PFamily,
    alpha,
    asymptotic_bundle,
    conjecture_prediction,
    diffset,
    exact_missing_sums_expectation,
    expected_tuple_count,
    g_form,
    g_ratio,
    janson_missing_diffs_bounds,
    make_set,
    rep_histogram,
    series_partial_g,
    sumset,
    symmetry_count,
)

from sumdiff.predictions import _SERIES_CUTOVER, _log_missing_sum

from oracles import subsets


# --- the ratio function g


def test_g_reference_values():
    assert g_ratio(1.0) == pytest.approx(2 / math.e, abs=1e-14)
    assert g_ratio(0.5) == pytest.approx(4 * (math.exp(-0.5) - 0.5), abs=1e-14)


def test_g_small_argument_linear():
    x = 1e-8
    assert abs(g_ratio(x) / x - 1.0) < 1e-8


def test_g_matches_50_digit_reference():
    # the closed form loses about 2*eps/x to cancellation, most just above
    # the series cutover; both branches stay within 1e-15 of exact decimals
    grid = [float(x) for x in np.logspace(-8, 2.5, 400)]
    grid += [1e-3, math.nextafter(_SERIES_CUTOVER, 0.0), _SERIES_CUTOVER]
    with localcontext() as ctx:
        ctx.prec = 50
        for x in grid:
            d = Decimal(x)
            exact = 2 * ((-d).exp() - 1 + d) / d
            assert abs(Decimal(g_ratio(x)) / exact - 1) < Decimal("1e-15"), x


def test_g_rejects_nonpositive():
    with pytest.raises(ValueError):
        g_ratio(0.0)
    with pytest.raises(ValueError):
        g_ratio(-1.0)
    with pytest.raises(ValueError):
        g_ratio(math.nan)


def test_g_at_infinity_is_its_limit():
    # the closed form is inf/inf there; an overflowed c^2 reaches it
    assert g_ratio(math.inf) == 2.0
    assert g_form(4, 3, math.inf) == 7.0


def test_series_partial_values():
    assert series_partial_g(0.37, 1) == pytest.approx(0.37, abs=1e-16)
    assert series_partial_g(1.0, 2) == pytest.approx(2 / 3, abs=1e-15)
    assert abs(g_ratio(1.0) - series_partial_g(1.0, 30)) < 1e-15
    with pytest.raises(ValueError):
        series_partial_g(1.0, 0)


def test_series_branch_agrees_at_cutover():
    x = 1e-3
    closed = 2.0 * (math.expm1(-x) + x) / x
    assert abs(series_partial_g(x, 12) - closed) < 1e-14


def test_alternating_tail_bound():
    for x in np.linspace(0.05, 1.0, 20):
        for m in range(1, 7):
            tail = 2 * x ** (m + 1) / math.factorial(m + 2)
            assert abs(g_ratio(float(x)) - series_partial_g(float(x), m)) <= tail + 1e-15


def test_g_monotone_increasing_with_range():
    xs = np.logspace(-6, 2, 400)
    vals = [g_ratio(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert 0 < vals[0] and vals[-1] < 2
    assert vals[-1] > 1.97  # approaches the upper end


# --- the form ratio function


def test_g_form_reference_values():
    assert g_form(2, 1, 1.0) == pytest.approx(1 + math.exp(-1), abs=1e-14)
    # approaches u + |v| = 3 from below, like 3 - 2|v|/x
    assert g_form(2, 1, 1e9) == pytest.approx(3.0, abs=1e-8)
    assert g_form(2, 1, 1e9) < 3.0


def test_g_form_reduces_to_g():
    for x in np.logspace(-5, 1.5, 200):
        assert abs(g_form(1, 1, float(x)) - g_ratio(float(x))) < 1e-13


def test_g_form_is_g_for_the_sum_and_difference_forms():
    # g_{1,1} is g bit for bit, on both sides of g's series cutover
    cut = _SERIES_CUTOVER
    grid = [cut * 2.0**e for e in range(-30, 31)] + [math.nextafter(cut, 0.0), cut]
    grid += [float(x) for x in np.logspace(-12, 2.5, 300)]
    for x in grid:
        assert g_form(1, 1, x) == g_ratio(x), x


def test_g_form_validation():
    with pytest.raises(ValueError):
        g_form(1, 2, 1.0)
    with pytest.raises(ValueError):
        g_form(2, 0, 1.0)
    with pytest.raises(ValueError):
        g_form(2, 1, 0.0)


def test_g_form_branch_agreement():
    x = 1e-3
    for u, av in ((2, 1), (5, 3), (7, 1)):
        closed = (u + av) + 2 * av * math.expm1(-x) / x - (u - av) * math.exp(-x)
        assert abs(g_form(u, av, x) - closed) < 1e-13


def test_g_form_monotone_with_range():
    for u, av in ((2, 1), (3, 2), (5, 1)):
        xs = np.logspace(-6, 2.3, 300)
        vals = [g_form(u, av, float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert 0 < vals[0] and vals[-1] < u + av
        assert vals[-1] > (u + av) * 0.99


def test_quartic_coefficient_taylor_structure():
    # |g_form(u,|v|, c^2/u) - (c^2 - alpha c^4)| <= K c^6 with K frozen per form:
    # the sixth-order coefficient is (2u - |v|)/(12 u^3), checked with margin.
    frozen = {(2, 1): 0.0375, (3, 2): 0.0149, (5, 1): 0.0072}
    for (u, av), cap in frozen.items():
        a = float(alpha(u, av))
        for c in np.linspace(1e-3, 0.1, 150):
            resid = abs(g_form(u, av, float(c) ** 2 / u) - (c**2 - a * c**4))
            assert resid <= cap * c**6


# --- alpha


def test_alpha_values():
    assert alpha(1, 1) == Fraction(1, 3)
    assert alpha(2, 1) == Fraction(5, 24)
    assert alpha(4, 3) == Fraction(3, 32)
    assert alpha(5, 1) == Fraction(7, 75)
    assert alpha(4, 3) > alpha(5, 1)


def test_alpha_validation():
    with pytest.raises(ValueError):
        alpha(1, 2)
    with pytest.raises(ValueError):
        alpha(4, 2)


# --- expected tuple counts


def test_expected_tuple_count_leading_order():
    n, p = 10**4, 0.001
    assert expected_tuple_count(n, p, 1, "sum") == pytest.approx(n**2 * p**2 / 2)
    assert expected_tuple_count(n, p, 1, "diff") == pytest.approx(n**2 * p**2)
    # (2,-1), k=2: u^-k (2|v|/3! + (u-|v|)/2!) = (5/6)/4 = 5/24
    assert expected_tuple_count(n, p, 2, "form", LinearForm((2, -1))) == pytest.approx(
        (5 / 24) * p**4 * n**3
    )
    # the form (1, 1) counts ordered pairs, twice the unordered "sum" pairs
    assert expected_tuple_count(n, p, 1, "form", LinearForm((1, 1))) == pytest.approx(n**2 * p**2)
    with pytest.raises(ValueError):
        expected_tuple_count(n, p, 0, "sum")
    with pytest.raises(ValueError):
        expected_tuple_count(n, p, 1, "form")
    # a form that only kind="form" reads is refused, not ignored
    with pytest.raises(ValueError, match=r"^form is used only with kind='form'"):
        expected_tuple_count(100, 0.1, 2, "sum", LinearForm((2, -1)))


def _tuple_count_by_kind(n, p, k, kind, form):
    # the three leading-order formulas, one per kind
    if kind == "sum":
        return 2.0 / math.factorial(k + 1) * (p * p / 2.0) ** k * float(n) ** (k + 1)
    if kind == "diff":
        return 2.0 / math.factorial(k + 1) * p ** (2 * k) * float(n) ** (k + 1)
    u, absv = form.u, abs(form.v)
    coeff = (2 * absv / math.factorial(k + 1) + (u - absv) / math.factorial(k)) / u**k
    return coeff * p ** (2 * k) * float(n) ** (k + 1)


@pytest.mark.parametrize(
    "kind,form",
    [("sum", None), ("diff", None)] + [("form", LinearForm(c)) for c in ((1, 1), (2, -1), (3, 2), (7, -5))],
)
def test_expected_tuple_count_is_one_rule_for_every_kind(kind, form):
    for k in range(1, 9):
        for n, p in ((77, 0.3), (1000, 0.01), (10**6, 0.001)):
            by_kind = _tuple_count_by_kind(n, p, k, kind, form)
            assert expected_tuple_count(n, p, k, kind, form) == pytest.approx(by_kind, rel=1e-15)


@pytest.mark.parametrize(
    "kind,form",
    [
        ("sum", None),
        ("diff", None),
        ("form", LinearForm((1, 1))),
        ("form", LinearForm((2, -1))),
        ("form", LinearForm((3, 2))),
    ],
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_expected_tuple_count_against_full_interval_enumeration(kind, form, k):
    # E[X_k] = p^(2k) * sum_value C(R_full(value), k) + lower order, with
    # R_full the histogram of the complete interval [0, N]; the exact sum
    # pins the leading coefficient, including the u^-k factor for forms.
    n = 1500
    full = make_set(range(n + 1), 0, n)
    hist = rep_histogram(full, kind, form)
    counts = [r for value, r in hist.nonzero_items() if kind != "diff" or value != 0]
    exact_xi = sum(math.comb(r, k) for r in counts if r >= k)
    p = 0.01
    predicted = expected_tuple_count(n, p, k, kind, form)
    assert predicted == pytest.approx(exact_xi * p ** (2 * k), rel=0.02)


# --- asymptotic bundles


def test_bundle_regime_at():
    bundle = asymptotic_bundle(10**6, PFamily.power_law(1.0, 0.5))
    assert bundle.regime == "at"
    assert bundle.S_pred == pytest.approx(426122.6, abs=0.1)
    assert bundle.D_pred == pytest.approx(735758.9, abs=0.1)


def test_bundle_regime_below_ratio_two():
    bundle = asymptotic_bundle(10**6, PFamily.power_law(1.0, 0.7), (LinearForm((2, -1)),))
    assert bundle.regime == "below"
    assert bundle.D_pred / bundle.S_pred == 2.0
    df, dfc = bundle.forms[LinearForm((2, -1))]
    assert df == bundle.D_pred
    assert dfc == 3 * 10**6 - df


def test_bundle_regime_above():
    n = 10**6
    bundle = asymptotic_bundle(n, PFamily.power_law(1.0, 0.3), (LinearForm((2, -1)),))
    p = n**-0.3
    assert bundle.regime == "above"
    assert bundle.Sc_pred == pytest.approx(4 / p**2)
    assert bundle.Dc_pred == pytest.approx(2 / p**2)
    assert bundle.Sc_pred == pytest.approx(2 * bundle.Dc_pred)
    _, dfc = bundle.forms[LinearForm((2, -1))]
    assert dfc == pytest.approx(2 * 2 * 1 / p**2)


def test_bundle_form_prediction_threshold_regime():
    f = LinearForm((2, -1))
    bundle = asymptotic_bundle(10**6, PFamily.power_law(2.0, 0.5), (f,))
    df, _ = bundle.forms[f]
    assert df == pytest.approx(g_form(2, 1, 4.0 / 2.0) * 10**6)


def test_bundle_at_tiny_c_takes_the_limit_zero():
    # c^2 underflows to 0 below c ~ 5e-162; the image sizes' limit there is 0
    g = LinearForm((5, -1))
    bundle = asymptotic_bundle(10**6, PFamily.power_law(1e-200, 0.5), (g,))
    assert bundle.S_pred == bundle.D_pred == 0.0
    assert bundle.forms[g] == (0.0, 6 * 10**6)


# S, D, Sc, Dc as float.hex, recorded before the per-form rule replaced the
# per-regime formulas: the rule reproduces them bit for bit.
PINNED_BUNDLES = [
    (PFamily.power_law(1.0, 0.3), None, 10**6,
     ("0x1.e464cb692d301p+20", "0x1.e6566db496981p+20", "0x1.f1a24b6967f49p+13", "0x1.f1a24b6967f49p+12")),
    (PFamily.power_law(1.7, 0.7), None, 10**6,
     ("0x1.678a60b9988ccp+12", "0x1.678a60b9988ccp+13", "0x1.e6e0859f46677p+20", "0x1.e578fb3e8cceep+20")),
    (PFamily.power_law(1.0, 0.5), None, 10**6,
     ("0x1.a022a8e2ed595p+18", "0x1.6741dc3c27253p+19", "0x1.803f65c744a9bp+20", "0x1.34a721e1ec6d6p+20")),
    (PFamily.power_law(2.3, 0.5), None, 12345,
     ("0x1.f491b34b400bbp+13", "0x1.3938f03c4fa0dp+14", "0x1.0f064cb4bff45p+13", "0x1.224c3f0ec17ccp+12")),
    (PFamily.explicit(0.0123), "below", 12345,
     ("0x1.6841cb418d691p+13", "0x1.6841cb418d691p+14", "0x1.9b5634be7296fp+13", "0x1.98a34be7296f0p+10")),
    (PFamily.explicit(0.0123), "at", 54321,
     ("0x1.42cce80f1ca7ap+16", "0x1.74c1ebbd9972ap+16", "0x1.96585fc38d618p+14", "0x1.9d08a213346b0p+13")),
    (PFamily.explicit(0.0123), "above", 54321,
     ("0x1.411bb6124f059p+16", "0x1.74bf5b092782cp+16", "0x1.9d1d27b6c3e9cp+14", "0x1.9d1d27b6c3e9cp+13")),
]


@pytest.mark.parametrize("family,regime,n,pinned", PINNED_BUNDLES)
def test_bundle_sizes_pinned_bit_for_bit(family, regime, n, pinned):
    b = asymptotic_bundle(n, family, (LinearForm((2, -1)),), regime=regime)
    assert tuple(float(x).hex() for x in (b.S_pred, b.D_pred, b.Sc_pred, b.Dc_pred)) == pinned


def test_bundle_explicit_family_requires_regime():
    with pytest.raises(ValueError):
        asymptotic_bundle(1000, PFamily.explicit(0.5))
    bundle = asymptotic_bundle(1000, PFamily.explicit(0.5), regime="above")
    assert bundle.Sc_pred == pytest.approx(16.0)


def test_bundle_rejects_regime_contradiction_and_bad_forms():
    with pytest.raises(ValueError):
        asymptotic_bundle(1000, PFamily.power_law(1.0, 0.7), regime="above")
    # an explicit p's declared regime must keep every size and missing count
    # within its span: N*p^2 = 8.2 is far above "below", 0.01 far below "above"
    with pytest.raises(ValueError, match=r"'below' contradicts N\*p\^2 = 8.21822"):
        asymptotic_bundle(54321, PFamily.explicit(0.0123), regime="below")
    with pytest.raises(ValueError, match=r"'above' contradicts N\*p\^2 = 0.01"):
        asymptotic_bundle(10**6, PFamily.explicit(0.0001), regime="above")
    with pytest.raises(ValueError, match=r"missing-count 160 for \(5,-4\), outside \[0, 117\]"):
        asymptotic_bundle(13, PFamily.explicit(0.5), (LinearForm((5, -4)),), regime="above")
    with pytest.raises(ValueError):
        asymptotic_bundle(1000, PFamily.power_law(1.0, 0.7), (LinearForm((1, 1)),))
    with pytest.raises(ValueError):
        asymptotic_bundle(1000, PFamily.power_law(1.0, 0.7), (LinearForm((1, 1, 1)),))


# --- exact expectation of missing sums


def missing_sum_probability(n, p, value):
    """P(value not in A+A), as exact_missing_sums_expectation sums it."""
    return math.exp(_log_missing_sum(min(value, 2 * n - value), p))


def test_missing_sum_probability_small_cases():
    p = 0.5
    assert missing_sum_probability(2, p, 0) == pytest.approx(0.5)
    assert missing_sum_probability(2, p, 1) == pytest.approx(0.75)
    assert missing_sum_probability(2, p, 2) == pytest.approx(0.375)
    assert missing_sum_probability(2, p, 3) == pytest.approx(0.75)  # mirror of 1
    assert missing_sum_probability(2, p, 4) == pytest.approx(0.5)  # mirror of 0
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="p must be"):
            exact_missing_sums_expectation(2, bad)


@pytest.mark.parametrize("n, value", [(10**10, 10**10), (10**10, 10**10 - 1), (3 * 10**9, 17)])
def test_missing_sum_probability_keeps_p_squared_at_tiny_p(n, value):
    # (1 - p^2)^k (1 - p)^[value even] in 50-digit decimals: at p = 1e-9,
    # 1 - p*p rounds to 1 in floats, which is 5e-9 off at value = 10^10
    p = 1e-9
    m = min(value, 2 * n - value)
    with localcontext() as ctx:
        ctx.prec = 50
        q = 1 - Decimal(p) ** 2
        expected = q ** ((m + 1) // 2) * ((1 - Decimal(p)) if m % 2 == 0 else 1)
    assert missing_sum_probability(n, p, value) == pytest.approx(float(expected), rel=1e-13)


def test_exact_missing_sums_single_point():
    assert exact_missing_sums_expectation(0, 0.3) == pytest.approx(0.7)


def test_exact_missing_sums_hand_sum():
    assert exact_missing_sums_expectation(2, 0.5) == pytest.approx(2.875, abs=1e-12)


def test_exact_missing_sums_dense_limit():
    # at p = 1/2 the mean of |A+A| is 2N - 9, i.e. ten values missing
    assert exact_missing_sums_expectation(10**4, 0.5) == pytest.approx(10.0, abs=1e-6)


def _expectation_by_enumeration(n, p, statistic):
    total = 0.0
    for sub in subsets(range(n + 1)):
        prob = p ** len(sub) * (1 - p) ** (n + 1 - len(sub))
        total += prob * statistic(make_set(sub, 0, n))
    return total


@pytest.mark.parametrize("p", [0.1, 0.35, 0.8])
def test_exact_missing_sums_matches_full_enumeration(p):
    n = 4
    expected = _expectation_by_enumeration(n, p, lambda a: (2 * n + 1) - sumset(a).count)
    assert exact_missing_sums_expectation(n, p) == pytest.approx(expected, abs=1e-12)


# --- Janson bounds for missing differences


def test_janson_bounds_order():
    for n, p in ((10, 0.3), (100, 0.05), (1000, 0.9), (10**4, 0.5)):
        lower, upper = janson_missing_diffs_bounds(n, p)
        assert lower <= upper


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_janson_brackets_exact_expectation(p):
    n = 3
    expected = _expectation_by_enumeration(n, p, lambda a: (2 * n + 1) - diffset(a).count)
    lower, upper = janson_missing_diffs_bounds(n, p)
    assert lower - 1e-12 <= expected <= upper + 1e-12


def test_janson_dense_limit():
    lower, upper = janson_missing_diffs_bounds(10**4, 0.5)
    assert abs(lower - 6.0) < 0.2 and abs(upper - 6.0) < 0.2


def test_janson_sparse_limit_matches_half_missing_sums():
    n = 10**4
    p = n**-0.3
    lower, upper = janson_missing_diffs_bounds(n, p)
    target = 2 / p**2
    assert abs(lower / target - 1) < 0.05
    assert abs(upper / target - 1) < 0.05


def test_expectations_match_monte_carlo_at_moderate_density():
    # exact E[Sc] within 4 SE of the sample mean, and the Janson bracket
    # holds the sample mean of Dc, at (N, p) = (10^3, 0.05)
    from sumdiff import SamplerSeed, diffset, sample

    n, p, trials = 10**3, 0.05, 600
    missing_sums = []
    missing_diffs = []
    for t in range(trials):
        a = sample(n, p, SamplerSeed(31, t))
        missing_sums.append((2 * n + 1) - sumset(a).count)
        missing_diffs.append((2 * n + 1) - diffset(a).count)
    ms = np.asarray(missing_sums, dtype=float)
    md = np.asarray(missing_diffs, dtype=float)
    exact = exact_missing_sums_expectation(n, p)
    assert abs(ms.mean() - exact) <= 4 * ms.std(ddof=1) / math.sqrt(trials)
    lower, upper = janson_missing_diffs_bounds(n, p)
    se = md.std(ddof=1) / math.sqrt(trials)
    assert lower - 4 * se <= md.mean() <= upper + 4 * se


# --- k-ary conjecture


def test_symmetry_count():
    assert symmetry_count(LinearForm((1, 1, 1))) == 6
    assert symmetry_count(LinearForm((2, 1, -1))) == 1
    assert symmetry_count(LinearForm((1, 1, -1))) == 2


def test_conjecture_below_threshold():
    n = 10**6
    pred = conjecture_prediction(LinearForm((1, 1, -1)), n, PFamily.power_law(1.0, 0.5))
    p = p_of_power(n, 0.5)
    assert pred.regime == "below"
    assert pred.quantity == "image-size"
    assert pred.value == pytest.approx((n * p) ** 3 / 2)


def test_conjecture_above_threshold():
    n = 10**6
    pred = conjecture_prediction(LinearForm((2, 1, -1)), n, PFamily.power_law(1.0, 0.25))
    p = p_of_power(n, 0.25)
    assert pred.regime == "above"
    assert pred.quantity == "missing-count"
    assert pred.value == pytest.approx(2 * 1 * 2 / p**3)


def test_conjecture_at_threshold_not_computable():
    pred = conjecture_prediction(LinearForm((1, 1, 1)), 10**6, PFamily.power_law(1.0, 1 / 3))
    assert pred.regime == "at"
    assert pred.value is None and pred.quantity is None


def test_conjecture_requires_kary_power_law():
    with pytest.raises(ValueError):
        conjecture_prediction(LinearForm((2, -1)), 100, PFamily.power_law(1.0, 0.5))
    with pytest.raises(ValueError):
        conjecture_prediction(LinearForm((1, 1, 1)), 100, PFamily.explicit(0.01))


def p_of_power(n, delta, c=1.0):
    return c * n**-delta
