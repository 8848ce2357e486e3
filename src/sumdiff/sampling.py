"""Binomial random subsets of [0, N] and the p(N) parameter families.

Sampling is counter-based: the inclusion bit of element n in trial t
under master seed s is a fixed function of (s, t, N, n), realised as a
Philox4x64 stream keyed by (s, t) with the block counter offset by N.
Concurrent trials never share generator state, so results do not depend
on scheduling or on how many workers run them.

Element n is included when the n-th raw 64-bit word x of the stream is
below ``ceil(p * 2**53) << 11``.  That holds exactly when the uniform
``(x >> 11) * 2**-53`` that ``Generator.random`` makes of x is below p, so
:func:`sample_uniforms` is the float specification of :func:`sample`.
The words are read in chunks of ``_CHUNK`` and never converted to floats,
so a draw holds O(chunk + |A|) memory at any N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import IntegerSet, _integer, _real

GENERATOR_NAME = "philox4x64"

_CHUNK = 1 << 16  # raw words per read: 512 KiB


@dataclass(frozen=True)
class SamplerSeed:
    """(seed, trial_index) addressing one reproducible sample stream."""

    seed: int
    trial_index: int = 0

    def __post_init__(self):
        # each is one 64-bit word of the Philox key
        for name in ("seed", "trial_index"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 0, 2**64 - 1))


@dataclass(frozen=True)
class PFamily:
    """Inclusion-probability family: a fixed p, or p(N) = c * N**-delta."""

    variant: str  # "explicit" | "power-law"
    p: float | None = None
    c: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.variant not in ("explicit", "power-law"):
            raise ValueError(f"unknown family variant {self.variant!r}")
        for name in ("c", "delta") if self.variant == "explicit" else ("p",):
            if (value := getattr(self, name)) is not None:
                raise ValueError(f"the {self.variant} family takes no {name}, got {value!r}")
        if self.variant == "explicit":
            object.__setattr__(self, "p", _real(self.p, "p", hi=1.0))
        else:
            object.__setattr__(self, "c", _real(self.c, "c"))
            object.__setattr__(self, "delta", _real(self.delta, "delta", 0.0, 1.0, closed=True))

    @classmethod
    def explicit(cls, p: float) -> "PFamily":
        return cls("explicit", p=p)

    @classmethod
    def power_law(cls, c: float, delta: float) -> "PFamily":
        return cls("power-law", c=c, delta=delta)


def p_of(family: PFamily, n: int) -> float:
    """Evaluate the family at N = n; the result must land in (0, 1)."""
    n = _integer(n, "N", least=1)
    if family.variant == "explicit":
        return family.p
    p = family.c * float(n) ** (-family.delta)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p(N) = {p:g} outside (0, 1) for N = {n}")
    return p


def _stream(n: int, key: SamplerSeed) -> np.random.Philox:
    return np.random.Philox(key=[key.seed, key.trial_index], counter=[0, 0, n, 0])


def _word_limit(p: float) -> int:
    """The bound L with ``x < L`` exactly when ``(x >> 11) * 2**-53 < p``, for 0 < p < 1."""
    # p * 2**53 is exact and x >> 11 is an integer below 2**53, so
    # (x >> 11) < p * 2**53  <=>  (x >> 11) < ceil(p * 2**53)  <=>  x < ceil(...) << 11
    return math.ceil(math.ldexp(p, 53)) << 11


def _draw_below(n: int, p: float, key: SamplerSeed) -> tuple[np.ndarray, np.ndarray]:
    """The elements of [0, n] whose stream word is below ``_word_limit(p)``, and those words."""
    limit = np.uint64(_word_limit(p))
    bitgen = _stream(n, key)
    members, words = [], []
    for start in range(0, n + 1, _CHUNK):
        chunk = bitgen.random_raw(min(_CHUNK, n + 1 - start))
        hits = np.flatnonzero(chunk < limit)
        members.append(hits + start)
        words.append(chunk[hits])
    return np.concatenate(members), np.concatenate(words)


def _nested_draw(n: int, ps: tuple[float, ...], key: SamplerSeed) -> tuple[np.ndarray, np.ndarray]:
    """The elements sampled at the largest of the ascending ``ps``, in the
    order they join as p grows, and for each p the length of the prefix that
    is ``sample(n, p, key)``."""
    members, words = _draw_below(n, ps[-1], key)
    order = np.argsort(words)
    limits = np.array([_word_limit(p) for p in ps], dtype=np.uint64)
    return members[order], np.searchsorted(words[order], limits)


def sample(n: int, p: float, key: SamplerSeed) -> IntegerSet:
    """Random subset of [0, n]: each element included independently with prob p."""
    n, p = _integer(n, "n", least=0), _real(p, "p", hi=1.0)
    members, _ = _draw_below(n, p, key)
    return IntegerSet.from_members(members, 0, n)


def sample_uniforms(n: int, key: SamplerSeed) -> np.ndarray:
    """The float specification of :func:`sample`: one uniform per element of [0, n].

    ``sample(n, p, key)`` equals thresholding this array at p, for every p;
    sets sampled at different p under one key are coupled monotonically.
    """
    return np.random.Generator(_stream(n, key)).random(n + 1)
