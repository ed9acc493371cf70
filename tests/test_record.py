from functools import cached_property

import pytest

from spherindex.record import Record


class Point(Record):
    x: int
    y: int

    @cached_property
    def norm(self) -> int:
        return self.x * self.x + self.y * self.y


class Labelled(Point):
    label: str = ""


def test_a_record_is_a_frozen_value():
    p = Point(1, 2)
    assert p == Point(1, y=2) == Point(y=2, x=1) and hash(p) == hash(Point(1, 2))
    assert p != Point(2, 1) and p != (1, 2)  # not equal to a tuple of its fields
    assert len({p, Point(1, 2), Point(2, 1)}) == 2
    assert repr(p) == "Point(x=1, y=2)"
    for write in (lambda: setattr(p, "x", 3), lambda: setattr(p, "z", 3), lambda: delattr(p, "x")):
        with pytest.raises(AttributeError):
            write()
    assert (p.x, p.y) == (1, 2)
    assert p.norm == 5 and vars(p)["norm"] == 5  # cached_property writes the instance dict
    assert p == Point(1, 2) and repr(p) == "Point(x=1, y=2)"  # and the cache is no field


def test_a_subclass_puts_its_parents_fields_first():
    assert (Point._fields, Labelled._fields) == (("x", "y"), ("x", "y", "label"))
    q = Labelled(1, 2)
    assert q.label == ""  # a class-level value is the default
    assert q == Labelled(1, 2, "") != Labelled(1, 2, "a")
    assert repr(Labelled(1, 2, "a")) == "Labelled(x=1, y=2, label='a')"
    assert q != Point(1, 2)  # equal fields in another class


@pytest.mark.parametrize(
    "build",
    [
        lambda: Point(1),  # y missing
        lambda: Point(1, 2, z=3),  # no field z
        lambda: Point(1, 2, 3),  # one value too many
        lambda: Point(1, 2, x=1),  # x twice
    ],
    ids=["missing", "unknown", "too-many", "twice"],
)
def test_a_missing_or_unknown_field_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()
