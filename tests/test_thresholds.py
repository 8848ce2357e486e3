import math
from itertools import combinations, permutations, product

import numpy as np
import pytest

from sumdiff import (
    BracketingError,
    LinearForm,
    alpha,
    classify_pair,
    dominator_at,
    g_form,
    solve_threshold,
)

F43 = LinearForm((4, -3))
G51 = LinearForm((5, -1))


def h(f, g, c):
    return g_form(f.u, abs(f.v), c * c / f.u) - g_form(g.u, abs(g.v), c * c / g.u)


# --- classification


def test_every_form_dominates_x_minus_y():
    report = classify_pair(LinearForm((2, -1)), LinearForm((1, -1)))
    assert report.case == "case-i"
    assert report.dominator_below == report.dominator_above == "(2,-1)"
    assert report.c_threshold is None


def test_sharp_threshold_pair():
    report = classify_pair(F43, G51)
    assert report.case == "case-ii"  # 7 > 6 and 3/32 > 7/75
    assert report.dominator_below == "(5,-1)"
    assert report.dominator_above == "(4,-3)"
    assert report.c_threshold is not None and report.c_threshold > 0


def test_incomparable_saturating_pair():
    report = classify_pair(LinearForm((3, 2)), LinearForm((3, -2)))
    assert report.case == "incomparable"
    assert report.dominator_below == report.dominator_above == "same"
    assert report.c_threshold is None


def test_classification_symmetric_in_argument_order():
    fwd = classify_pair(F43, G51)
    rev = classify_pair(G51, F43)
    assert fwd.case == rev.case == "case-ii"
    assert fwd.dominator_below == rev.dominator_below
    assert fwd.dominator_above == rev.dominator_above
    assert rev.c_threshold == pytest.approx(fwd.c_threshold, rel=1e-11)


def test_case_i_never_names_both_orders():
    f, g = LinearForm((3, -1)), LinearForm((2, -1))
    fwd = classify_pair(f, g)
    rev = classify_pair(g, f)
    assert fwd.case == rev.case == "case-i"
    assert fwd.dominator_below == rev.dominator_below


def test_classify_rejects_non_difference_forms():
    with pytest.raises(ValueError):
        classify_pair(LinearForm((1, 1)), G51)
    with pytest.raises(ValueError):
        classify_pair(LinearForm((1, 1, 1)), G51)


# --- the threshold constant


def test_threshold_root_for_reference_pair():
    root = solve_threshold(F43, G51)
    # frozen from an independent coarse bisection of
    # g_{4,3}(c^2/4) = g_{5,1}(c^2/5)
    assert root == pytest.approx(0.957060, abs=1e-5)
    assert abs(h(F43, G51, root)) < 1e-10
    assert h(F43, G51, root / 2) < 0
    assert h(F43, G51, 2 * root) > 0


def test_threshold_sign_flip_invariance():
    root = solve_threshold(F43, G51)
    assert solve_threshold(LinearForm((4, 3)), G51) == pytest.approx(root, rel=1e-11)
    assert solve_threshold(F43, LinearForm((5, 1))) == pytest.approx(root, rel=1e-11)


def test_threshold_argument_order_invariance():
    assert solve_threshold(G51, F43) == pytest.approx(solve_threshold(F43, G51), rel=1e-11)


def test_threshold_rejects_case_i_pair():
    with pytest.raises(BracketingError):
        solve_threshold(LinearForm((2, -1)), LinearForm((1, -1)))
    with pytest.raises(BracketingError):
        solve_threshold(LinearForm((3, 2)), LinearForm((3, -2)))  # identical profile


def test_threshold_root_survives_tiny_alpha_gap():
    # alpha(10,9) - alpha(14,1) ~ 1.4e-4: h underflows to 0.0 at c = 1e-6,
    # so the small-c sign must come from the exact alpha comparison
    f, g = LinearForm((10, -9)), LinearForm((14, -1))
    root = solve_threshold(f, g)
    assert root > 0.1
    assert h(f, g, root / 2) < 0
    assert h(f, g, 2 * root) > 0
    assert abs(h(f, g, root)) < 1e-9


# --- pointwise domination


def test_dominator_at_sides_of_root():
    root = solve_threshold(F43, G51)
    assert dominator_at(F43, G51, root / 10) == G51
    # at c = 1e155 and beyond, c^2 overflows to inf: the limit still names F
    for c in (10 * root, 1e155, 1e200):
        assert dominator_at(F43, G51, c) == F43


def test_dominator_at_tiny_c_is_a_tie():
    # below c ~ 5e-162, c^2 underflows to 0 and both sizes take their limit
    # 0 there: a tie, as at every c below ~1e-5
    assert dominator_at(F43, G51, 1e-5) is None
    assert dominator_at(F43, G51, 1e-200) is None


def test_dominator_at_tie_for_matching_profiles():
    f, g = LinearForm((3, 2)), LinearForm((3, -2))
    for c in (0.01, 0.5, 3.0, 40.0):
        assert dominator_at(f, g, c) is None
    with pytest.raises(ValueError):
        dominator_at(f, g, 0.0)


# --- the dominator in each regime


def test_regime_above_threshold_weight_rule():
    report = classify_pair(LinearForm((3, -1)), LinearForm((2, -1)))
    assert report.dominator_above == LinearForm((3, -1)).label()


def test_regime_between_alpha_rule():
    report = classify_pair(LinearForm((2, -1)), LinearForm((1, -1)))
    assert report.dominator_below == LinearForm((2, -1)).label()  # 5/24 < 1/3


def test_regime_at_threshold_uses_c():
    root = solve_threshold(F43, G51)
    assert dominator_at(F43, G51, root / 2) == G51
    assert dominator_at(F43, G51, root * 2) == F43


def test_regime_weight_tie_breaks_by_u():
    report = classify_pair(LinearForm((3, -2)), LinearForm((4, -1)))
    assert report.dominator_above == LinearForm((4, -1)).label()


def test_regime_dominator_follows_weight_and_alpha_rules():
    # every ordered pair of difference forms with u <= 8: above the threshold
    # scale the larger u+|v| wins (ties: the larger u), below it the
    # smaller alpha
    forms = [
        LinearForm((u, s * av))
        for u in range(1, 9)
        for av in range(1, u + 1)
        for s in (1, -1)
        if math.gcd(u, av) == 1 and (u, s * av) != (1, 1)
    ]
    assert len(forms) == 43
    for f, g in product(forms, repeat=2):
        key_above = (f.weight - g.weight, f.u - g.u)
        above = None if key_above == (0, 0) else (f if key_above > (0, 0) else g)
        af, ag = alpha(f.u, abs(f.v)), alpha(g.u, abs(g.v))
        below = None if af == ag else (f if af < ag else g)
        report = classify_pair(f, g)
        assert report.dominator_above == (above.label() if above else "same")
        assert report.dominator_below == (below.label() if below else "same")


# --- consistency across regimes


def _difference_forms(max_u):
    forms = []
    for u in range(1, max_u + 1):
        for av in range(1, u + 1):
            if math.gcd(u, av) != 1 or (u, av) == (1, 1):
                continue
            forms.append(LinearForm((u, -av)))
    return forms


def test_limits_match_regime_rules():
    for f, g in combinations(_difference_forms(6), 2):
        report = classify_pair(f, g)
        if report.case != "case-ii":
            continue
        root = solve_threshold(f, g)
        af, ag = alpha(f.u, abs(f.v)), alpha(g.u, abs(g.v))
        alpha_rule = f if af < ag else g
        weight_rule = f if f.weight > g.weight else g
        assert dominator_at(f, g, root / 50) == alpha_rule
        assert dominator_at(f, g, root * 50) == weight_rule


def test_single_sign_change_for_small_coefficient_pairs():
    # supports root uniqueness: h changes sign exactly once on (0, 1000)
    grid = np.concatenate([np.logspace(-3, 3, 2500)])
    forms = _difference_forms(20)
    pairs = 0
    for f, g in permutations(forms, 2):
        if not (f.weight > g.weight and alpha(f.u, abs(f.v)) > alpha(g.u, abs(g.v))):
            continue
        pairs += 1
        vals = np.array([h(f, g, float(c)) for c in grid])
        signs = np.sign(vals[np.nonzero(vals)])
        changes = int(np.count_nonzero(signs[:-1] != signs[1:]))
        assert changes == 1, (f, g)
    assert pairs > 100  # the scan actually covered many sharp-threshold pairs
