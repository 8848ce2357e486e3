"""Closed-form expectations, asymptotics and bounds for random-set sizes.

Conventions for a random subset A of [0, N] with inclusion probability p:

* S = |A+A|, D = |A-A|; missing counts Sc = (2N+1) - S, Dc = (2N+1) - D.
* For a binary form f = (u, v), Df = |f(A)| and Dfc = (u+|v|)N - Df.
  Dfc is one less than how many of the (u+|v|)N + 1 values f can take
  f(A) misses: a full image has Dfc = -1, and (1, -1) has Dc - 1.
* The threshold scale is p ~ N**-0.5: regime "below" means p decays
  faster (delta > 1/2), "at" means p = c*N**-0.5, "above" means slower
  decay (delta < 1/2).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .sampling import PFamily, p_of
from .sets import KIND_FORMS, LinearForm, _integer, _real, kind_form

# The closed form of g loses about 2*eps/x (relative) to cancellation, so
# below this x g switches to its alternating series, whose omitted terms are
# below 1e-20; g is then within 7e-16 (relative) of exact on [1e-8, 316].
# g_form has no series of its own: both of its terms are positive near 0.
_SERIES_CUTOVER = 0.5
_SERIES_TERMS = 16

REGIMES = ("below", "at", "above")


def series_partial_g(x: float, m: int) -> float:
    """Partial sum 2 * sum_{k=1..m} (-1)^(k-1) x^k / (k+1)!."""
    m = _integer(m, "m", least=1)
    term = x / 2.0
    total = term
    for k in range(2, m + 1):
        term *= -x / (k + 1)
        total += term
    return 2.0 * total


def g_ratio(x: float) -> float:
    """The size ratio function 2*(exp(-x) - (1-x))/x, increasing (0,inf)->(0,2);
    its limit 2 at x = inf."""
    if not x > 0:  # NaN too
        raise ValueError(f"g is defined for x > 0, got {x}")
    if x == math.inf:  # the closed form is inf/inf there
        return 2.0
    if x < _SERIES_CUTOVER:
        return series_partial_g(x, _SERIES_TERMS)
    # expm1 keeps the numerator's cancellation at eps*x instead of eps
    return 2.0 * (math.expm1(-x) + x) / x


def g_form(u: int, absv: int, x: float) -> float:
    """(u+|v|) - 2|v|(1-exp(-x))/x - (u-|v|)exp(-x); increasing (0,inf)->(0,u+|v|).

    Computed as |v|*g(x) - (u-|v|)*expm1(-x), so g_form(1, 1, x) is g(x).
    """
    absv = _integer(absv, "|v|", least=1)
    u = _integer(u, "u", least=absv)
    return absv * g_ratio(x) - (u - absv) * math.expm1(-x)


def alpha(u: int, absv: int) -> Fraction:
    """Exact small-c quartic coefficient (3u - |v|) / (6 u^2).

    Smaller alpha means the larger image just below the threshold scale.
    """
    absv = _integer(absv, "|v|", least=1)
    u = _integer(u, "u", least=absv)
    if math.gcd(u, absv) != 1:
        raise ValueError(f"need gcd(u, |v|) = 1, got u={u}, |v|={absv}")
    return Fraction(3 * u - absv, 6 * u * u)


def symmetry_count(form: LinearForm) -> int:
    """Number of coordinate permutations fixing the coefficient vector."""
    return math.prod(map(math.factorial, Counter(form.coeffs).values()))


def _threshold_ratio(form: LinearForm, c: float) -> float:
    """|f(A)|/N for a binary form at p = c*N**-0.5: g_{u,|v|}(c^2/(theta*u)),
    or its limit 0 where that argument underflows to 0 (c below about 5e-162)."""
    x = c * c / (symmetry_count(form) * form.u)
    return g_form(form.u, abs(form.v), x) if x > 0 else 0.0


def _form_rule(
    form: LinearForm, regime: str, n: int, p: float, c: float | None
) -> tuple[str | None, float | None]:
    """The per-form prediction: (quantity, value) with theta = symmetry_count(form).

    below: image size (N*p)^k / theta; above: missing count
    2*theta*prod|c_i| / p^k; at: image size N*g_{u,|v|}(c^2/(theta*u)) for
    binary forms, unspecified (None, None) for k >= 3.
    """
    k, theta = form.arity, symmetry_count(form)
    if regime == "below":
        return "image-size", (n * p) ** k / theta
    if regime == "above":
        # p*...*p, not p**k: the binary missing counts keep their rounding
        return "missing-count", 2.0 * theta * math.prod(map(abs, form.coeffs)) / math.prod([p] * k)
    if k != 2:
        return None, None
    return "image-size", _threshold_ratio(form, c) * n


def expected_tuple_count(
    n: int, p: float, k: int, kind: str, form: LinearForm | None = None
) -> float:
    """Leading-order E[X_k]: expected k-sets of pairs sharing a value.

    For the form (u, v) of ``kind`` (sum: (1, 1), diff: (1, -1)):
    (2|v|/(k+1)! + (u-|v|)/k!) / (theta*u)^k * p^(2k) * N^(k+1), where
    theta = 2 for "sum", whose histogram counts unordered pairs, else 1.
    """
    n, p, k = _integer(n, "N", least=1), _real(p, "p", hi=1.0), _integer(k, "k", least=1)
    f = kind_form(kind, form)
    u, absv, theta = f.u, abs(f.v), 2 if kind == "sum" else 1
    coeff = (2 * absv / math.factorial(k + 1) + (u - absv) / math.factorial(k)) / (theta * u) ** k
    return coeff * p ** (2 * k) * float(n) ** (k + 1)


@dataclass(frozen=True)
class PredictionBundle:
    """Asymptotic size and missing-count predictions at one (N, p)."""

    regime: str  # below | at | above (relative to the N^-1/2 threshold scale)
    n: int
    p: float
    S_pred: float
    D_pred: float
    Sc_pred: float
    Dc_pred: float
    forms: dict[LinearForm, tuple[float, float]] = field(default_factory=dict)
    c: float | None = None


def _resolve_regime(family: PFamily, regime: str | None) -> str:
    if family.variant == "power-law":
        derived = "below" if family.delta > 0.5 else ("at" if family.delta == 0.5 else "above")
        if regime is not None and regime != derived:
            raise ValueError(f"declared regime {regime!r} contradicts delta={family.delta}")
        return derived
    if regime is None:
        raise ValueError("explicit-p families require a declared regime (below/at/above)")
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    return regime


def asymptotic_bundle(
    n: int,
    family: PFamily,
    forms: tuple[LinearForm, ...] = (),
    regime: str | None = None,
) -> PredictionBundle:
    """Predicted S, D, Sc, Dc and per-form Df, Dfc at (N, family).

    S and D are the images of the forms (1, 1) and (1, -1) over 2N+1
    values; a difference form f spans (u+|v|)N.
    """
    for f in forms:
        if f.kind != "binary-difference":
            raise ValueError(f"predictions cover binary difference forms only, got {f}")
    regime = _resolve_regime(family, regime)
    p = p_of(family, n)
    c = None
    if regime == "at":
        c = family.c if family.variant == "power-law" else p * math.sqrt(n)

    def size_and_missing(form: LinearForm, span: int) -> tuple[float, float]:
        quantity, value = _form_rule(form, regime, n, p, c)
        if family.variant == "explicit" and not 0 <= value <= span:  # its regime is declared
            raise ValueError(f"declared regime {regime!r} contradicts N*p^2 = {n * p * p:.6g}: it "
                             f"predicts {quantity} {value:.6g} for {form}, outside [0, {span}]")
        return (value, span - value) if quantity == "image-size" else (span - value, value)

    (s, sc), (d, dc) = (size_and_missing(KIND_FORMS[kind], 2 * n + 1) for kind in ("sum", "diff"))
    bundle = PredictionBundle(regime, n, p, s, d, sc, dc, c=c)
    bundle.forms.update((f, size_and_missing(f, f.weight * n)) for f in forms)
    return bundle


def _log_missing_sum(m, p: float):
    """log P(value not in A+A) for the value(s) with min(value, 2n - value) = m
    (an int or an int array).

    The two-element representations {k, value-k}, (m+1)//2 of them, and for
    even m the diagonal {value/2, value/2} occupy disjoint index pairs, so the
    exclusion events are independent and the probability is an exact
    product.  It is summed in log space: 1 - p*p rounds to 1 below p ~ 1e-8.
    """
    return (m + 1) // 2 * math.log1p(-p * p) + (m % 2 == 0) * math.log1p(-p)


def exact_missing_sums_expectation(n: int, p: float) -> float:
    """Exact E[Sc] = sum over values in [0, 2n] of P(value not in A+A)."""
    n, p = _integer(n, "n", least=0), _real(p, "p", hi=1.0)
    probs = np.exp(_log_missing_sum(np.arange(n + 1, dtype=np.int64), p))
    # values n+1 .. 2n mirror values 0 .. n-1
    return float(2.0 * probs[:-1].sum() + probs[-1])


def janson_missing_diffs_bounds(n: int, p: float) -> tuple[float, float]:
    """Rigorous bounds for E[Dc] = 2 * sum_{d=1..n} P(d not in A-A) + P(A empty).

    Per positive difference d the exclusion probability lies between
    M = (1-p^2)^(n-d+1) and M * exp(Delta/(1-eps)) with eps = p^2 and
    Delta = (n-2d+1) p^3 for d <= n/2 (one dependent pair per 3-term
    arithmetic progression of gap d), Delta = 0 otherwise.
    """
    n, p = _integer(n, "n", least=0), _real(p, "p", hi=1.0)
    zero_term = math.exp((n + 1) * math.log1p(-p))
    if n == 0:
        return zero_term, zero_term
    d = np.arange(1, n + 1, dtype=np.int64)
    log_m = (n - d + 1) * math.log1p(-p * p)
    delta = np.where(d <= n / 2, (n - 2 * d + 1) * p**3, 0.0)
    lower_terms = np.exp(log_m)
    upper_expo = log_m + delta / (1.0 - p * p)
    if np.any(upper_expo > 700.0):
        return float(2.0 * lower_terms.sum() + zero_term), math.inf
    # same exp per term keeps upper >= lower under floating rounding
    upper_terms = np.maximum(np.exp(upper_expo), lower_terms)
    lower = float(2.0 * lower_terms.sum() + zero_term)
    upper = float(2.0 * upper_terms.sum() + zero_term)
    return lower, upper


@dataclass(frozen=True)
class ConjecturePrediction:
    """Conjectured k-ary image-size / missing-count scaling at one (N, family).

    These are conjectured values, reproduced as stated so experiments can
    probe them.  Desk-scale sweeps support the image-size formula in the
    near-injective window ((N*p)^k = o(N), i.e. delta > (k-1)/k) but
    measure saturated-regime missing counts growing like p**-(k/(k-1)),
    below the conjectured p**-k (edge representation counts grow like
    gap**(k-1), not linearly, for k >= 3).
    """

    regime: str  # below | at | above (relative to the N^-1/k scale)
    quantity: str | None  # "image-size" | "missing-count" | None
    value: float | None  # None: the threshold-regime scaling function is unspecified
    theta: int


def conjecture_prediction(form: LinearForm, n: int, family: PFamily) -> ConjecturePrediction:
    """Conjectured |f(A)| scaling for a k-ary form, k >= 3."""
    k = form.arity
    if k < 3:
        raise ValueError("conjectured scalings cover k >= 3 only")
    if family.variant != "power-law":
        raise ValueError("the k-ary regimes are dispatched on delta; use a power-law family")
    p = p_of(family, n)
    threshold = Fraction(1, k)
    delta = Fraction(family.delta).limit_denominator(10**9)
    regime = "below" if delta > threshold else ("above" if delta < threshold else "at")
    return ConjecturePrediction(regime, *_form_rule(form, regime, n, p, None), symmetry_count(form))
