"""Explicit Chebyshev-style failure bounds for the ratio |A-A| / |A+A|.

For p(N) = c * N**-delta with delta in (1/2, 1) the ratio concentrates
near 2.  The guarantee decomposes into two checkable sub-events with
explicit probabilities:

* cardinality: |A| lies in [c N^(1-delta) / 2, 3 c N^(1-delta) / 2]
  except with probability P1 = (4/c) N^-(1-delta);
* collisions: the number Y of unordered pairs of distinct positive-gap
  member pairs sharing one gap stays below 9 C^4 N^(2 - 2 delta - g)
  except with probability P2 = N^-(f(delta) - g), where
  f(delta) = min(1/2, (3 delta - 1)/2) and g in (0, f(delta)) is the
  caller's accuracy exponent.

Y is measured exactly from the difference histogram as
sum over d > 0 of C(R(d), 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .sets import _integer, _real


def f_exponent(delta: float) -> float:
    """min(1/2, (3*delta - 1)/2)."""
    return min(0.5, (3.0 * delta - 1.0) / 2.0)


def r_exponent(delta: float) -> float:
    """r(delta) with 2*r = max(3 - 4*delta, 5 - 7*delta)."""
    return max(3.0 - 4.0 * delta, 5.0 - 7.0 * delta) / 2.0


def _validate(c: float, delta: float) -> tuple[float, float]:
    return _real(c, "c"), _real(delta, "delta", 0.5, 1.0)


@dataclass(frozen=True)
class BoundReport:
    c: float
    delta: float
    g_exp: float
    n: int
    C: float
    f_delta: float
    r_delta: float
    P1: float
    P2: float
    card_interval: tuple[float, float]
    EY_bound: float
    sigmaY_bound: float
    Y_threshold: float


def bound_report(c: float, delta: float, g_exp: float, n: int) -> BoundReport:
    """All bound quantities at (c, delta, g_exp, N); requires 0 < g_exp < f(delta)."""
    c, delta = _validate(c, delta)
    n = _integer(n, "N", least=1)
    fd = f_exponent(delta)
    g_exp = _real(g_exp, "g_exp", hi=fd)
    big_c = max(1.0, c)
    rd = r_exponent(delta)
    mean_card = c * float(n) ** (1.0 - delta)
    return BoundReport(
        c=c,
        delta=delta,
        g_exp=g_exp,
        n=n,
        C=big_c,
        f_delta=fd,
        r_delta=rd,
        P1=(4.0 / c) * float(n) ** (-(1.0 - delta)),
        P2=float(n) ** (-(fd - g_exp)),
        card_interval=(0.5 * mean_card, 1.5 * mean_card),
        EY_bound=2.0 * big_c**4 * float(n) ** (3.0 - 4.0 * delta),
        sigmaY_bound=7.0 * big_c**4 * float(n) ** rd,
        Y_threshold=9.0 * big_c**4 * float(n) ** (2.0 - 2.0 * delta - g_exp),
    )


@dataclass(frozen=True)
class RatioClaim:
    """With probability >= 1 - failure_prob_bound the ratio D/S is
    2 + O(deviation_scale), constant depending only on C."""

    ratio_center: float
    deviation_exponent: float
    deviation_scale: float
    failure_prob_bound: float


def ratio_claim(report: BoundReport) -> RatioClaim:
    return RatioClaim(
        ratio_center=2.0,
        deviation_exponent=report.g_exp,
        deviation_scale=float(report.n) ** (-report.g_exp),
        failure_prob_bound=report.P1 + report.P2,
    )


@dataclass(frozen=True)
class AltBoundReport:
    """Tighter-threshold variant: non-trivial only for delta < 3/4."""

    c: float
    delta: float
    n: int
    trivial: bool
    sidon_regime: bool
    P2: float | None
    Y_threshold: float | None
    note: str


def alt_parameterization(c: float, delta: float, n: int) -> AltBoundReport:
    """Alternative failure probability P2 = N^-(6 - 8 delta - 2 r(delta))
    with the tighter collision threshold 9 C^4 N^(3 - 4 delta)."""
    c, delta = _validate(c, delta)
    n = _integer(n, "N", least=1)
    rd = r_exponent(delta)
    exponent = 6.0 - 8.0 * delta - 2.0 * rd
    if delta >= 0.75:
        note = "bound trivial for delta >= 3/4"
        sidon = delta > 0.75
        if sidon:
            note += "; almost surely no repeated sums or differences (Sidon set)"
        return AltBoundReport(c, delta, n, True, sidon, None, None, note)
    big_c = max(1.0, c)
    return AltBoundReport(
        c,
        delta,
        n,
        False,
        False,
        float(n) ** (-exponent),
        9.0 * big_c**4 * float(n) ** (3.0 - 4.0 * delta),
        f"failure exponent {exponent:g}",
    )
