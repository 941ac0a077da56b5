import dataclasses

import pytest

from dawin.errors import CheckpointFormatError, DataFormatError
from dawin.util import build, get, get_dataclass

DOC = {"n": 3, "x": 1, "flag": True, "name": "a", "none": None, "big": 10**400,
       "grid": [0.5, 1], "tasks": [{"train": "t0"}, {"train": 5}]}


def test_get_returns_checked_fields():
    assert get(DOC, "f.json", ("n",), int) == 3
    number = get(DOC, "f.json", ("x",), float)  # an int is a number
    assert number == 1.0 and isinstance(number, float)
    assert get(DOC, "f.json", ("flag",), bool) is True
    assert get(DOC, "f.json", ("grid",), [float]) == [0.5, 1.0]
    assert get(DOC, "f.json", ("tasks", 0, "train"), str) == "t0"
    assert get(DOC, "f.json", ("gone",), int, 7) == 7
    assert get(DOC, "f.json", ("tasks", 2, "train"), str, "") == ""
    assert get(DOC, "f.json", ("none",), dict, {}) == {}  # null counts as missing
    assert get(DOC, "f.json", (), dict) is DOC


@pytest.mark.parametrize("keys, kind, message", [
    (("flag",), int, "f.json: key 'flag': expected an int, got bool"),
    (("flag",), float, "f.json: key 'flag': expected a number, got bool"),
    (("name",), list, "f.json: key 'name': expected a list, got str"),
    (("none",), dict, "f.json: key 'none': expected an object, got null"),
    (("big",), float, "f.json: key 'big': number out of range"),
    (("gone",), int, "f.json: key 'gone': missing"),
    (("grid",), [int], "f.json: key 'grid' entry 0: expected an int, got float"),
    (("tasks", 1, "train"), str, "f.json: tasks entry 1 key 'train': expected a string, got int"),
    (("tasks", 2, "train"), str, "f.json: key 'tasks' entry 2: missing"),
    (("name", "first"), str, "f.json: key 'name': expected an object, got str"),
    ((0,), int, "f.json: expected a list, got dict"),
])
def test_get_names_the_file_and_the_field(keys, kind, message):
    with pytest.raises(DataFormatError) as exc:
        get(DOC, "f.json", keys, kind)
    assert str(exc.value) == message


@dataclasses.dataclass(frozen=True)
class _Knobs:
    count: int = 2
    scales: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(self.scales))
        if self.count < 1:
            raise ValueError("'count' must be positive")


def test_get_dataclass_reads_a_partial_object():
    doc = {"knobs": {"scales": [2, 3.5]}}
    assert get_dataclass(_Knobs, doc, "f.json", ("knobs",)) == _Knobs(scales=(2.0, 3.5))
    for knobs, message in [
        ({"count": 1, "speed": 2}, "f.json: knobs key 'speed': unknown key"),
        ({"scales": 5}, "f.json: knobs key 'scales': expected a list, got int"),
        ({"count": 0}, "f.json: key 'knobs': 'count' must be positive"),
    ]:
        with pytest.raises(CheckpointFormatError) as exc:
            get_dataclass(_Knobs, {"knobs": knobs}, "f.json", ("knobs",), CheckpointFormatError)
        assert str(exc.value) == message


def test_build_names_the_field_a_range_check_rejects():
    with pytest.raises(DataFormatError, match=r"^f\.json: 'count' must be positive$"):
        build(_Knobs, {"count": 0}, "f.json")
