"""Which of two binary difference forms yields the larger image, by regime.

For forms f = (u1, v1) and g = (u2, v2) the deciding quantities are the
weights u + |v| (dominant when p decays slower than N**-0.5) and the
exact rationals alpha(u, |v|) (dominant when p decays faster).  When the
weight and alpha orderings disagree there is a sharp threshold at
c = c_{f,g}, the unique positive root of equal threshold-regime image sizes:
g_form(u1,|v1|, c^2/u1) = g_form(u2,|v2|, c^2/u2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BracketingError
from .predictions import _threshold_ratio, alpha
from .sets import LinearForm, _real

VALIDITY_NOTE = "valid where N^-3/5 = o(p(N)) and p(N) = o(1)"

_ROOT_REL_TOL = 1e-12
_BRACKET_CAP = 1e3
_TIE_SCALE = 1e-14


@dataclass(frozen=True)
class DominationReport:
    """Outcome of comparing two difference forms across the parameter range."""

    case: str  # case-i | case-ii | incomparable
    f: LinearForm
    g: LinearForm
    dominator_below: str  # form label, or "same"
    dominator_above: str
    c_threshold: float | None
    validity_note: str = VALIDITY_NOTE


def _h(f: LinearForm, g: LinearForm, c: float) -> float:
    return _threshold_ratio(f, c) - _threshold_ratio(g, c)


def _dominators(f: LinearForm, g: LinearForm) -> tuple[str, LinearForm | None, LinearForm | None]:
    """The case and the dominating forms below and above the threshold scale:
    smaller alpha below; larger u+|v| above, ties to smaller alpha.  A form
    that is not a binary difference form is refused."""
    for form in (f, g):
        if form.kind != "binary-difference":
            raise ValueError(f"{form} is not a binary difference form")
    if (f.u, abs(f.v)) == (g.u, abs(g.v)):
        return "incomparable", None, None
    below = min(f, g, key=lambda h: alpha(h.u, abs(h.v)))
    above = max(f, g, key=lambda h: (h.weight, -alpha(h.u, abs(h.v))))
    return "case-i" if below == above else "case-ii", below, above


def classify_pair(f: LinearForm, g: LinearForm) -> DominationReport:
    """Case-i (one form dominates throughout), case-ii (sharp threshold),
    or incomparable (identical (u, |v|): all estimates coincide)."""
    case, below, above = _dominators(f, g)
    c_threshold = solve_threshold(f, g) if case == "case-ii" else None
    below_label, above_label = (h.label() if h else "same" for h in (below, above))
    return DominationReport(case, f, g, below_label, above_label, c_threshold)


def solve_threshold(f: LinearForm, g: LinearForm) -> float:
    """The unique positive root of h(c) = 0, resolved to relative 1e-12.

    h(c) compares the threshold-regime image sizes of f and g; a root
    exists exactly in case-ii, where the small-c and large-c orderings
    disagree.  Bisection from [1e-6, 1], doubling the upper end until the
    sign changes (capped at 1e3).  The sign at the small-c end favours the
    winner below the threshold scale, the form with the smaller exact
    alpha (h ~ (alpha_g - alpha_f) c^4 there, which underflows in floating
    point when the alphas are close).
    """
    case, below, _ = _dominators(f, g)
    if case != "case-ii":
        raise BracketingError(f"({f}, {g}) is {case}; h has no positive root")
    sign_lo = 1.0 if below == f else -1.0
    lo = 1e-6
    hi = 1.0
    while _h(f, g, hi) * sign_lo > 0:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise BracketingError(
                f"no sign change of h on [1e-6, {_BRACKET_CAP:g}]; "
                f"is ({f}, {g}) really a sharp-threshold pair?"
            )
    while hi - lo > _ROOT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _h(f, g, mid) * sign_lo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dominator_at(f: LinearForm, g: LinearForm, c: float) -> LinearForm | None:
    """The form with the larger predicted image at p = c*N**-0.5.

    Returns None on a tie within 1e-14 * (u1+|v1|) — in particular for
    every c when the two forms share (u, |v|).
    """
    _dominators(f, g)  # refuses a form that is not a binary difference form
    h = _h(f, g, _real(c, "c"))
    if abs(h) < _TIE_SCALE * f.weight:
        return None
    return f if h > 0 else g
