import numpy as np
import pytest

import unibound
from unibound.errors import DomainError
from unibound.rng import as_stream, open_uniforms, rademacher_signs, standard_normals, stream

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
