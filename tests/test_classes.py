import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unibound.classes import (
    AffineClippedMember,
    FunctionClass,
    ThresholdMember,
    class_image,
    constant_member,
    identity_member,
    lookup_member,
    random_lookup_class,
    random_lookup_labels,
    separation_labels,
)
from unibound.errors import DomainError
from unibound.spaces import finite_space, interval_space, vector_from_values

BITS = finite_space([("0", 0.0), ("1", 1.0)])
FIVE = finite_space([(str(j), j / 4.0) for j in range(5)])


def test_constant_class_image():
    fc = FunctionClass(BITS, (constant_member("zero", 0.0), constant_member("one", 1.0)))
    x = vector_from_values(BITS, [0.0, 1.0, 1.0])
    img = class_image(fc, x)
    assert np.array_equal(img.vectors, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert img.labels == ("zero", "one")


def test_identity_image_on_interval():
    fc = FunctionClass(interval_space(), (identity_member(),))
    x = vector_from_values(interval_space(), [0.2, 0.9])
    img = class_image(fc, x)
    assert np.array_equal(img.vectors, [[0.2, 0.9]])


def test_random_lookup_image_matches_per_entry_evaluation():
    # independent oracle: re-evaluate every table entry one by one
    fc = random_lookup_class(FIVE, 8, 17)
    x = vector_from_values(FIVE, [0.0, 0.25, 1.0, 0.5, 0.5, 0.75])
    img = class_image(fc, x)
    for k, member in enumerate(fc.members):
        for i, xi in enumerate(x.indices):
            assert img.vectors[k, i] == member.table[int(xi)]


def test_image_shape_and_range():
    fc = random_lookup_class(FIVE, 11, 3)
    x = vector_from_values(FIVE, [0.25, 0.75, 0.0])
    img = class_image(fc, x)
    assert img.vectors.shape == (11, 3)
    assert img.vectors.min() >= 0.0 and img.vectors.max() <= 1.0


def test_image_rejects_foreign_space():
    fc = random_lookup_class(FIVE, 2, 5)
    x = vector_from_values(BITS, [0.0, 1.0])
    with pytest.raises(DomainError):
        class_image(fc, x)


def test_threshold_and_affine_members():
    t = ThresholdMember("ramp", 0.25, 0.5)
    vals = t.apply(np.array([0.0, 0.25, 0.5, 0.75, 1.0]), None)
    assert np.allclose(vals, [0.0, 0.0, 0.5, 1.0, 1.0])
    a = AffineClippedMember("aff", 2.0, -0.5)
    vals = a.apply(np.array([0.0, 0.5, 1.0]), None)
    assert np.allclose(vals, [0.0, 0.5, 1.0])
    with pytest.raises(DomainError):
        ThresholdMember("bad", 0.5, 0.0)


def test_lookup_member_validation():
    with pytest.raises(DomainError):
        lookup_member("f", interval_space(), {})
    with pytest.raises(DomainError):
        lookup_member("f", BITS, {"0": 0.5})  # missing "1"
    with pytest.raises(DomainError):
        lookup_member("f", BITS, {"0": 0.5, "1": 0.5, "2": 0.5})
    with pytest.raises(DomainError):
        FunctionClass(BITS, (lookup_member("f", BITS, {"0": 0.5, "1": 1.0}),) * 2)


def test_range_check_rejects_out_of_unit_tables():
    from unibound.classes import LookupMember

    with pytest.raises(DomainError):
        FunctionClass(BITS, (LookupMember("f", (0.0, 1.2)),))


def test_separation_labels_single_group():
    r = separation_labels([4])
    off = ~np.eye(4, dtype=bool)
    assert np.all(r[off] == 1.0)


def test_separation_labels_two_singletons():
    r = separation_labels([1, 1])
    assert r[0, 1] == -1.0 and r[1, 0] == -1.0


def test_separation_labels_block_counts():
    r = separation_labels([2, 3])
    off = ~np.eye(5, dtype=bool)
    assert np.array_equal(r, r.T)
    assert set(np.unique(r[off])) == {-1.0, 1.0}
    assert int((r[off] == -1.0).sum()) == 2 * 2 * 3  # 12 cross-block entries


def test_separation_labels_validation():
    with pytest.raises(DomainError):
        separation_labels([])
    with pytest.raises(DomainError):
        separation_labels([2, 0])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=6),
)
def test_image_always_in_unit_box(count, idx):
    fc = random_lookup_class(FIVE, count, 23)
    x = vector_from_values(FIVE, [j / 4.0 for j in idx])
    img = class_image(fc, x)
    assert img.vectors.shape == (count, len(idx))
    assert np.all((img.vectors >= 0.0) & (img.vectors <= 1.0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8))
def test_finite_image_gathers_the_support_matrix(idx):
    # independent oracle: every member applied to the sample on its own
    members = (
        lookup_member("lookup", FIVE, {str(j): (j * 0.37) % 1.0 for j in range(5)}),
        ThresholdMember("ramp", 0.2, 0.45),
        AffineClippedMember("affine", -1.5, 1.1),
        constant_member("half", 0.5),
    )
    fc = FunctionClass(FIVE, members)
    x = vector_from_values(FIVE, [j / 4.0 for j in idx])
    image = fc.image_matrix(x)
    expected = np.stack([m.apply(x.values, x.indices) for m in members])
    assert np.array_equal(image, expected)
    assert image.flags["C_CONTIGUOUS"]


def test_support_matrix_is_read_only():
    fc = random_lookup_class(FIVE, 3, 11)
    support = fc.support_matrix()
    assert support.shape == (3, 5)
    with pytest.raises(ValueError):
        support[0, 0] = 0.5
    image = fc.image_matrix(vector_from_values(FIVE, [0.0, 1.0]))
    image[0, 0] = -1.0  # an image is the caller's own copy
    assert fc.support_matrix()[0, 0] == fc.members[0].table[0]


def test_support_matrix_needs_a_finite_space():
    fc = FunctionClass(interval_space(), (identity_member(),))
    with pytest.raises(DomainError):
        fc.support_matrix()


def test_random_lookup_labels_pad_to_the_largest_index():
    assert random_lookup_labels(3) == ["f00", "f01", "f02"]
    assert random_lookup_labels(101)[-1] == "f100"
    fc = random_lookup_class(FIVE, 12, 1)
    assert list(fc.labels) == random_lookup_labels(12)
