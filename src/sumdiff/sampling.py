"""Binomial random subsets of [0, N] and the p(N) parameter families.

Sampling is counter-based: the inclusion bit of element n in trial t
under master seed s is a fixed function of (s, t, N, n), realised as a
Philox4x64 stream keyed by (s, t) with the block counter offset by N.
Concurrent trials never share generator state, so results do not depend
on scheduling or on how many workers run them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sets import IntegerSet

GENERATOR_NAME = "philox4x64"


@dataclass(frozen=True)
class SamplerSeed:
    """(seed, trial_index) addressing one reproducible sample stream."""

    seed: int
    trial_index: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.trial_index < 0:
            raise ValueError("trial_index must be non-negative")


@dataclass(frozen=True)
class PFamily:
    """Inclusion-probability family: a fixed p, or p(N) = c * N**-delta."""

    variant: str  # "explicit" | "power-law"
    p: float | None = None
    c: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.variant == "explicit":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ValueError(f"explicit family requires 0 < p < 1, got {self.p}")
        elif self.variant == "power-law":
            if self.c is None or self.c <= 0.0:
                raise ValueError(f"power-law family requires c > 0, got {self.c}")
            if self.delta is None or not 0.0 <= self.delta <= 1.0:
                raise ValueError(f"power-law family requires 0 <= delta <= 1, got {self.delta}")
        else:
            raise ValueError(f"unknown family variant {self.variant!r}")

    @classmethod
    def explicit(cls, p: float) -> "PFamily":
        return cls("explicit", p=float(p))

    @classmethod
    def power_law(cls, c: float, delta: float) -> "PFamily":
        return cls("power-law", c=float(c), delta=float(delta))


def p_of(family: PFamily, n: int) -> float:
    """Evaluate the family at N = n; the result must land in (0, 1)."""
    if n < 1:
        raise ValueError("N must be >= 1")
    if family.variant == "explicit":
        return float(family.p)
    p = family.c * float(n) ** (-family.delta)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p(N) = {p:g} outside (0, 1) for N = {n}")
    return p


def _stream(n: int, key: SamplerSeed) -> np.random.Generator:
    bitgen = np.random.Philox(key=[key.seed, key.trial_index], counter=[0, 0, n, 0])
    return np.random.Generator(bitgen)


def sample(n: int, p: float, key: SamplerSeed) -> IntegerSet:
    """Random subset of [0, n]: each element included independently with prob p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if n < 0:
        raise ValueError("n must be non-negative")
    uniforms = _stream(n, key).random(n + 1)
    members = np.flatnonzero(uniforms < p).astype(np.int64)
    return IntegerSet.from_members(members, 0, n)


def sample_uniforms(n: int, key: SamplerSeed) -> np.ndarray:
    """The underlying uniforms of :func:`sample`.

    ``sample(n, p, key)`` equals thresholding this array at p, for every p;
    sets sampled at different p under one key are coupled monotonically.
    """
    return _stream(n, key).random(n + 1)
