"""Deterministic random streams.

All randomness flows from a single root seed. A work unit identified by
(root seed, purpose tag, index) derives its own generator through
``numpy.random.SeedSequence``, so any unit can be recomputed in isolation and
merged results never depend on execution order.

A loop that opens one unit per index, such as the replications, takes a
slice's generators from ``streams``: it restates ``SeedSequence``'s hashing
(a pool of 4 words, its hashmix and mix with numpy's constants, the mixing
of entropy words past the pool, then ``generate_state(4, uint64)``) in
uint32 arrays, one row per index, and seeds each ``PCG64`` with its row, so
every generator is bit for bit the one ``stream`` gives. The pass costs
about 0.2 ms and each generator about 1.5 us more, against about 15 us for
one ``stream`` call, so ``stream`` stays for one-off units.

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
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

__all__ = ["stream", "streams", "as_stream", "open_uniforms", "standard_normals", "rademacher_signs"]

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@functools.lru_cache(maxsize=None)
def _tag_entropy(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def check_seed(root_seed: int) -> None:
    """Refuse a negative root seed."""
    if root_seed < 0:
        raise DomainError("root seed must be a nonnegative integer")


def stream(root_seed: int, tag: str, index: int = 0) -> Generator:
    """Generator for the work unit (root_seed, tag, index)."""
    check_seed(root_seed)
    seq = SeedSequence(entropy=(int(root_seed), _tag_entropy(tag), int(index)))
    return Generator(PCG64(seq))


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from a nonnegative int, least
    significant first: [0] for 0."""
    return [(value >> shift) & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """The ``generate_state(4, uint64)`` of ``SeedSequence`` for each column
    of ``entropy``, a (words, rows) uint32 array of run entropy, as a (rows,
    4) uint64 array. The hash constants advance with each call whatever the
    data, so every row shares them."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = np.empty((entropy.shape[1], 2 * _POOL_SIZE), dtype="<u4")
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """The four uint64 words a SeedSequence generates, handed to PCG64 as they are."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def streams(root_seed: int, tag: str, indices):
    """The generators ``stream(root_seed, tag, i)`` for i in ``indices``
    (nonnegative, below 2^64), bit for bit, one at a time.

    Their seed words come from one pass per word count of the indices (one
    word below 2^32, two from there), and each generator is made only when
    it is asked for, so none is held past the one in use.
    """
    check_seed(root_seed)
    index = np.asarray(indices, dtype=np.uint64).reshape(-1)
    head = _words(int(root_seed)) + _words(_tag_entropy(tag))
    states = np.empty((index.size, 4), dtype=np.uint64)
    wide = index > _MASK32
    for rows, words in ((~wide, 1), (wide, 2)):
        if not rows.any():
            continue
        at = index[rows]
        entropy = np.empty((len(head) + words, at.size), dtype=np.uint32)
        entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[len(head)] = at & np.uint64(_MASK32)
        if words == 2:
            entropy[-1] = at >> np.uint64(32)
        states[rows] = _seed_states(entropy)
    for state in states:
        yield Generator(PCG64(_SeedState(state)))


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
