import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unibound import classes
from unibound.classes import (
    AffineClippedMember,
    FunctionClass,
    LookupMember,
    ThresholdMember,
    constant_member,
    identity_member,
    lookup_member,
    random_lookup_class,
)
from unibound.errors import DomainError
from unibound.rng import as_stream
from unibound.spaces import (
    beta_family,
    draw_batch,
    finite_space,
    iid_law,
    interval_space,
    uniform_on,
    vector_from_values,
)

BITS = finite_space([("0", 0.0), ("1", 1.0)])
FIVE = finite_space([(str(j), j / 4.0) for j in range(5)])


def test_constant_class_image():
    fc = FunctionClass(BITS, (constant_member("zero", 0.0), constant_member("one", 1.0)))
    x = vector_from_values(BITS, [0.0, 1.0, 1.0])
    img = fc.image_matrix(x)
    assert np.array_equal(img, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert fc.labels == ("zero", "one")


def test_identity_image_on_interval():
    fc = FunctionClass(interval_space(), (identity_member(),))
    x = vector_from_values(interval_space(), [0.2, 0.9])
    assert x.values is x.point    # the interval's one array is its values
    img = fc.image_matrix(x)
    assert np.array_equal(img, [[0.2, 0.9]])


def test_random_lookup_image_matches_per_entry_evaluation():
    # independent oracle: re-evaluate every table entry one by one
    fc = random_lookup_class(FIVE, 8, 17)
    x = vector_from_values(FIVE, [0.0, 0.25, 1.0, 0.5, 0.5, 0.75])
    img = fc.image_matrix(x)
    for k, member in enumerate(fc.members):
        for i, xi in enumerate(x.point):
            assert img[k, i] == member.table[int(xi)]


def test_image_shape_and_range():
    fc = random_lookup_class(FIVE, 11, 3)
    x = vector_from_values(FIVE, [0.25, 0.75, 0.0])
    img = fc.image_matrix(x)
    assert img.shape == (11, 3)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_image_rejects_foreign_space():
    fc = random_lookup_class(FIVE, 2, 5)
    x = vector_from_values(BITS, [0.0, 1.0])
    with pytest.raises(DomainError):
        fc.image_matrix(x)


def test_threshold_and_affine_members():
    t = ThresholdMember("ramp", 0.25, 0.5)
    vals = t.apply(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert np.allclose(vals, [0.0, 0.0, 0.5, 1.0, 1.0])
    a = AffineClippedMember("aff", 2.0, -0.5)
    vals = a.apply(np.array([0.0, 0.5, 1.0]))
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
    with pytest.raises(DomainError, match="unique"):
        FunctionClass(BITS, (lookup_member("f", BITS, {"0": 0.5, "1": 1.0}),) * 2)
    with pytest.raises(DomainError, match="at least one member"):
        FunctionClass(BITS, ())


def test_range_check_rejects_out_of_unit_tables():
    with pytest.raises(DomainError):
        FunctionClass(BITS, (LookupMember("f", (0.0, 1.2)),))


def test_range_check_rejects_nan_members():
    with pytest.raises(DomainError, match="member 'f' leaves \\[0, 1\\] on the support"):
        FunctionClass(BITS, (LookupMember("f", (0.0, float("nan"))),))
    with pytest.raises(DomainError, match="member 'a' leaves \\[0, 1\\] on the grid"):
        FunctionClass(interval_space(), (AffineClippedMember("a", 1.0, float("nan")),))
    with pytest.raises(DomainError, match="member 'b' leaves \\[0, 1\\]$"):
        constant_member("b", float("nan"))


@pytest.mark.parametrize("value", [-0.5, 1.5])
def test_constant_member_outside_the_unit_interval_is_refused_not_clipped(value):
    with pytest.raises(DomainError, match="member 'a' leaves \\[0, 1\\]$"):
        constant_member("a", value)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=6),
)
def test_image_always_in_unit_box(count, idx):
    fc = random_lookup_class(FIVE, count, 23)
    x = vector_from_values(FIVE, [j / 4.0 for j in idx])
    img = fc.image_matrix(x)
    assert img.shape == (count, len(idx))
    assert np.all((img >= 0.0) & (img <= 1.0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8))
def test_finite_image_gathers_the_support_matrix(idx):
    # independent oracle: every member evaluated at the sample on its own
    members = (
        lookup_member("lookup", FIVE, {str(j): (j * 0.37) % 1.0 for j in range(5)}),
        ThresholdMember("ramp", 0.2, 0.45),
        AffineClippedMember("affine", -1.5, 1.1),
        constant_member("half", 0.5),
    )
    fc = FunctionClass(FIVE, members)
    x = vector_from_values(FIVE, [j / 4.0 for j in idx])
    image = fc.image_matrix(x)
    expected = np.stack([
        np.asarray(m.table)[x.point] if isinstance(m, LookupMember) else m.apply(x.values)
        for m in members
    ])
    assert np.array_equal(image, expected)
    assert image.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("space", [FIVE, interval_space()], ids=["finite", "interval"])
def test_member_image_of_a_batch_matches_the_image_matrix(space):
    # One member's image of a batch is the one-member slice of `images`.
    members = (ThresholdMember("ramp", 0.2, 0.45), AffineClippedMember("affine", -1.5, 1.1))
    if space.kind == "finite":
        members += (lookup_member("lookup", FIVE, {str(j): (j * 0.37) % 1.0 for j in range(5)}),)
    fc = FunctionClass(space, members)
    points = draw_batch(iid_law(uniform_on(space), 6), 7, seed=3)
    values = space.support_values[points] if space.kind == "finite" else points
    for k in range(len(fc)):
        batch = fc.images(points, slice(k, k + 1))[:, 0]
        assert batch.shape == (7, 6)
        for row in range(7):
            x = vector_from_values(space, values[row])
            assert np.array_equal(batch[row], fc.image_matrix(x)[k])


@pytest.mark.parametrize("space", [FIVE, interval_space()], ids=["finite", "interval"])
def test_images_of_a_batch_stack_the_image_matrices(space):
    # A slice of members images as those rows of the whole class's images.
    members = (ThresholdMember("ramp", 0.2, 0.45), AffineClippedMember("affine", -1.5, 1.1),
               constant_member("half", 0.5))
    if space.kind == "finite":
        members += (lookup_member("lookup", FIVE, {str(j): (j * 0.37) % 1.0 for j in range(5)}),)
    fc = FunctionClass(space, members)
    points = draw_batch(iid_law(uniform_on(space), 6), 7, seed=5)
    values = space.support_values[points] if space.kind == "finite" else points
    for part in (slice(None), slice(1, 3), slice(len(fc) - 1, len(fc))):
        images = fc.images(points, part)
        assert images.shape == (7, len(members[part]), 6) and images.flags["C_CONTIGUOUS"]
        for row in range(7):
            x = vector_from_values(space, values[row])
            assert np.array_equal(images[row], fc.image_matrix(x)[part])


def test_an_interval_class_images_a_batch_without_its_members(monkeypatch):
    # One broadcast over the class's ramp rows images the batch, and each
    # value has the bits of its member's own formula.
    members = (ThresholdMember("wide", 0.25, 0.5), ThresholdMember("step", 0.5, 1e-9),
               ThresholdMember("late", 0.9, 3.0), AffineClippedMember("down", -1.5, 1.1),
               AffineClippedMember("steep", -20.0, 0.6), constant_member("half", 0.5),
               identity_member())
    fc = FunctionClass(interval_space(), members)
    calls = []
    for kind in (ThresholdMember, AffineClippedMember):
        monkeypatch.setattr(kind, "apply", lambda self, values: calls.append(self) or values)
    points = draw_batch(iid_law(beta_family(0.5, 0.5), 9), 40, seed=2)
    points[0, :3] = (0.0, 0.5, 1.0)
    images = fc.images(points)
    assert calls == []
    for k, m in enumerate(members):
        if isinstance(m, ThresholdMember):
            own = np.clip((points - m.theta) / m.width, 0.0, 1.0)
        else:
            own = np.clip(m.slope * points + m.intercept, 0.0, 1.0)
        assert images[:, k].tobytes() == own.tobytes(), m.label


def test_members_are_imaged_only_through_their_class():
    # Member evaluation stays in classes.py: no other module calls a member's
    # apply or on_support, and there is no per-member imaging method.
    for path in Path(classes.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "member_image" not in text, path.name
        if path.name != "classes.py":
            called = {node.func.attr for node in ast.walk(ast.parse(text))
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
            assert not called & {"apply", "on_support"}, path.name


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
    assert random_lookup_class(FIVE, 3, 1).labels == ("f00", "f01", "f02")
    assert random_lookup_class(FIVE, 12, 1).labels[-3:] == ("f09", "f10", "f11")
    assert random_lookup_class(FIVE, 101, 1).labels[-2:] == ("f099", "f100")


def test_random_lookup_members_hold_read_only_rows_of_the_drawn_table():
    fc = random_lookup_class(FIVE, 4, 3)
    table = as_stream(3, "random-lookup-class").random((4, 5))
    assert np.array_equal(fc.support_matrix(), table)
    for k, member in enumerate(fc.members):
        assert np.array_equal(member.table, table[k])
        with pytest.raises(ValueError):
            member.table[0] = 0.5


def test_the_range_check_names_the_first_member_that_leaves():
    members = (LookupMember("a", (0.0, 1.0)), LookupMember("b", (0.5, float("nan"))),
               LookupMember("c", (-1.0, 0.0)))
    with pytest.raises(DomainError, match=r"^member 'b' leaves \[0, 1\] on the support$"):
        FunctionClass(BITS, members)
