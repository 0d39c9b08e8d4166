import hashlib
import weakref

import numpy as np
import pytest

import unibound
from unibound import rng
from unibound.errors import DomainError
from unibound.rng import (_tag_entropy, as_stream, open_uniforms, rademacher_signs, standard_normals, stream,
                          streams)

BITS = unibound.finite_space([("0", 0.0), ("1", 1.0)])


def test_same_unit_same_stream():
    a = stream(42, "draws", 3).random(16)
    b = stream(42, "draws", 3).random(16)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "other",
    [(42, "draws", 4), (42, "other", 3), (43, "draws", 3)],
)
def test_distinct_units_differ(other):
    a = stream(42, "draws", 3).random(16)
    b = stream(*other).random(16)
    assert not np.array_equal(a, b)


def test_tag_entropy_is_the_sha256_prefix_hashed_once():
    digest = hashlib.sha256("entropy-tag".encode("utf-8")).digest()
    assert _tag_entropy("entropy-tag") == int.from_bytes(digest[:8], "big")
    hits = _tag_entropy.cache_info().hits
    stream(1, "entropy-tag", 5)
    assert _tag_entropy.cache_info().hits == hits + 1


def test_as_stream_passthrough_and_derivation():
    gen = stream(7, "x")
    assert as_stream(gen, "ignored") is gen
    a = as_stream(7, "tag").random(4)
    b = as_stream(7, "tag").random(4)
    assert np.array_equal(a, b)


def test_open_uniforms_in_half_open_unit_interval():
    u = open_uniforms(stream(0, "u"), 100_000)
    assert u.min() > 0.0 and u.max() <= 1.0


def test_open_uniforms_are_the_half_offset_integers():
    # random() is k / 2^53 for the k that integers(0, 2^53) draws, and adding
    # 2^-54 rounds as adding 1/2 to k does.
    u = open_uniforms(stream(11, "u"), (300, 7))
    k = stream(11, "u").integers(0, 1 << 53, size=(300, 7), dtype=np.int64)
    assert u.tobytes() == ((k.astype(np.float64) + 0.5) * 2.0**-53).tobytes()
    top = float(np.float64(2**53 - 1) + 0.5) * 2.0**-53
    assert top == 1.0 == (2**53 - 1) * 2.0**-53 + 2.0**-54


def test_standard_normals_moments_and_replay():
    z = standard_normals(stream(1, "z"), 200_000)
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # identical bits on replay
    again = standard_normals(stream(1, "z"), 200_000)
    assert np.array_equal(z, again)


def test_standard_normals_in_slices_are_one_draw():
    whole = standard_normals(stream(4, "z"), (12345, 3))
    rng = stream(4, "z")
    parts = [standard_normals(rng, (rows, 3)) for rows in (1000, 1, 11344)]
    assert whole.tobytes() == np.concatenate(parts).tobytes()


def test_rademacher_signs_values():
    s = rademacher_signs(stream(2, "s"), 10_000)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.05


@pytest.mark.parametrize("call", [
    lambda: unibound.stream(-1, "x"),
    lambda: unibound.sample(unibound.iid_law(unibound.uniform_on(BITS), 2), -1),
    lambda: unibound.random_lookup_class(BITS, 2, -1),
], ids=["stream", "sample", "random_lookup_class"])
def test_negative_root_seed_is_a_domain_error(call):
    # DomainError subclasses ValueError, so handlers of either catch it.
    with pytest.raises(DomainError, match="root seed must be a nonnegative integer"):
        call()


# Roots of one, two and three words: past 4 words of entropy, SeedSequence
# mixes each further word into its pool.
STREAM_ROOTS = [0, 1, 2**32 + 5, 2**70 + 3]
# Indices of one and two words; the run across 2^32 mixes both in one call.
STREAM_INDICES = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 5] + list(range(2**32 - 2, 2**32 + 2))


def _states(generators):
    return [g.bit_generator.state for g in generators]


@pytest.mark.parametrize("root", STREAM_ROOTS)
def test_streams_are_the_stream_of_each_index(root):
    expected = _states(stream(root, "deviation/x", i) for i in STREAM_INDICES)
    assert _states(streams(root, "deviation/x", STREAM_INDICES)) == expected
    drawn = [g.random(3).tolist() for g in streams(root, "deviation/x", STREAM_INDICES[:3])]
    assert drawn == [stream(root, "deviation/x", i).random(3).tolist() for i in STREAM_INDICES[:3]]


@pytest.mark.parametrize("root", STREAM_ROOTS)
def test_streams_of_a_tag_of_one_word(root, monkeypatch):
    # Below 2^32 the tag's entropy is one word, so a small root and index
    # leave the pool short of its 4 words.
    monkeypatch.setattr(rng, "_tag_entropy", lambda tag: 0x9E3779B9)
    expected = _states(stream(root, "short", i) for i in STREAM_INDICES)
    assert _states(streams(root, "short", STREAM_INDICES)) == expected


def test_streams_make_each_generator_when_it_is_asked_for(monkeypatch):
    made = []
    real = rng.PCG64
    monkeypatch.setattr(rng, "PCG64", lambda seed: made.append(None) or real(seed))
    units = streams(3, "lazy", range(4000))
    first = next(units)
    assert len(made) == 1
    seeded = weakref.ref(first.bit_generator.seed_seq)
    del first
    next(units)
    assert len(made) == 2 and seeded() is None


def test_streams_refuse_a_negative_root_seed():
    with pytest.raises(DomainError, match="root seed must be a nonnegative integer"):
        next(streams(-1, "x", [0]))
