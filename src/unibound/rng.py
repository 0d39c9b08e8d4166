"""Deterministic random streams.

All randomness flows from a single root seed. A work unit identified by
(root seed, purpose tag, index) derives its own generator through
``numpy.random.SeedSequence``, so any unit can be recomputed in isolation and
merged results never depend on execution order.

Standard normals come from the derived generator's own
``Generator.standard_normal`` (numpy's ziggurat sampler). It reads only that
unit's PCG64 stream, so the normals of a unit are a pure function of
(seed, tag, index), and drawing a stream in slices gives the same numbers as
drawing it at once. The ziggurat's tables and its rejection steps are numpy's,
not this package's: a numpy release that changes them changes every Gaussian
estimate, which is why the run record's numpy version is part of the
byte-for-byte contract.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
# numpy loads numpy.random on first use; every run draws, so import it with
# this module rather than inside the first stream() call.
from numpy.random import PCG64, Generator, SeedSequence

from .errors import DomainError

__all__ = ["stream", "as_stream", "open_uniforms", "standard_normals", "rademacher_signs"]


@functools.lru_cache(maxsize=None)
def _tag_entropy(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(root_seed: int, tag: str, index: int = 0) -> Generator:
    """Generator for the work unit (root_seed, tag, index)."""
    if root_seed < 0:
        raise DomainError("root seed must be a nonnegative integer")
    seq = SeedSequence(entropy=(int(root_seed), _tag_entropy(tag), int(index)))
    return Generator(PCG64(seq))


def as_stream(seed, tag: str) -> Generator:
    """Accept either a root seed (int) or an already-derived Generator.

    Passing the same int twice yields identical streams, which is how callers
    opt into common random numbers across two estimates.
    """
    if isinstance(seed, Generator):
        return seed
    return stream(int(seed), tag)


def open_uniforms(rng: Generator, size) -> np.ndarray:
    """Uniforms (k + 1/2) / 2^53 for k uniform on [0, 2^53), in (0, 1].

    ``random`` gives k / 2^53, so adding 2^-54 rounds as adding 1/2 to k
    does; k = 2^53 - 1 rounds up to exactly 1.0.
    """
    return rng.random(size) + 2.0**-54


def standard_normals(rng: Generator, size) -> np.ndarray:
    """Standard normals from the generator's own sampler."""
    return rng.standard_normal(size)


def rademacher_signs(rng: Generator, size) -> np.ndarray:
    """Uniform +/-1 variates as float64."""
    return 2.0 * rng.integers(0, 2, size=size).astype(np.float64) - 1.0
