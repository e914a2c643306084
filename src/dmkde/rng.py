"""Seeded random streams with documented splitting and transforms.

All randomness in the package flows through numpy's PCG64 bit generator.
Independent streams for distinct purposes are derived from the user seed
through ``SeedSequence(entropy=seed, spawn_key=(domain,))``, so e.g. the
spectral-frequency draw never shares a stream with the phase-offset draw
even when both start from the same seed.

Normal variates are produced by an explicit Box-Muller transform of
uniforms (see :func:`standard_normal`) instead of ``Generator.normal``,
so the exact variate stream is pinned by this module rather than by the
numpy version, and can be reproduced in other languages from the PCG64
uniform stream.
"""

from __future__ import annotations

import numpy as np

from .errors import _count

# Stream domains. The values participate in the reproducibility contract
# of serialized models: models built from a given seed must not change
# when new domains are added later, so append only.
DOMAIN_RFF_WEIGHTS = 0
DOMAIN_RFF_OFFSETS = 1
DOMAIN_AFF_ROWS = 2
DOMAIN_SPLIT = 4
DOMAIN_SYNTHETIC = 5
DOMAIN_REFIT_SPLIT = 6
DOMAIN_SIGMA_SUBSET = 7
DOMAIN_NYSTROM = 8

_TWO_PI = 2.0 * np.pi


def stream(seed: int, domain: int) -> np.random.Generator:
    """Return the PCG64 generator for the (seed, domain) pair."""
    ss = np.random.SeedSequence(entropy=_count("seed", seed, 0), spawn_key=(int(domain),))
    return np.random.Generator(np.random.PCG64(ss))


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal variates via Box-Muller on uniforms from ``rng``.

    Draws pairs (u1, u2) with u1 mapped from [0, 1) to (0, 1] so that
    log(u1) stays finite, computes

        sqrt(-2 ln u1) * cos(2 pi u2)  and  sqrt(-2 ln u1) * sin(2 pi u2),

    and lays out all cosine terms followed by all sine terms, truncated
    to the requested size.
    """
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    n = int(np.prod(shape)) if shape else 1
    half = (n + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = _TWO_PI * u2
    pairs = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return pairs[:n].reshape(shape)
