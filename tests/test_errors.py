"""Tests for the field checker shared by the configs and the index-table loader, and the JSON reader."""

import math

import pytest

from mtda.errors import ContractError, check, read_json


def _returns(value):
    return ("returns", value)


def _raises(message):
    return ("raises", message)


@pytest.mark.parametrize(
    "value, kind, rules, expect",
    [
        (True, int, {}, _raises("x must be an integer, got True")),
        (False, float, {}, _raises("x must be a finite number, got False")),
        (1, float, {}, _returns(1)),
        (2.5, float, {}, _returns(2.5)),
        ("1", int, {}, _raises("x must be an integer, got '1'")),
        (1.0, int, {}, _raises("x must be an integer, got 1.0")),
        (math.nan, float, {}, _raises("x must be a finite number, got nan")),
        (math.inf, float, {}, _raises("x must be a finite number, got inf")),
        (-math.inf, float, {}, _raises("x must be a finite number, got -inf")),
        (10**400, float, {}, _raises("x must be a finite number")),
        (0, int, {"ge": 0}, _returns(0)),
        (-1, int, {"ge": 0}, _raises("x must be >= 0, got -1")),
        (0.0, float, {"gt": 0}, _raises("x must be > 0, got 0.0")),
        (1, float, {"le": 1}, _returns(1)),
        (1.5, float, {"le": 1}, _raises("x must be <= 1, got 1.5")),
        (1.0, float, {"ge": 0, "lt": 1}, _raises("x must be < 1, got 1.0")),
        ([0.5, 1], tuple, {"item": float, "ge": 0}, _returns((0.5, 1))),
        ((4, 8), tuple, {"item": int, "size": 2}, _returns((4, 8))),
        ([], tuple, {"item": float}, _raises("x must not be empty, got []")),
        ([4], tuple, {"item": int, "size": 2}, _raises("x must hold 2 values, got [4]")),
        ([0, 8], tuple, {"item": int, "ge": 1}, _raises("x[0] must be >= 1, got 0")),
        ([1, True], tuple, {"item": int}, _raises("x[1] must be an integer, got True")),
        ("4,8", tuple, {"item": int}, _raises("x must be a list of int, got '4,8'")),
        (1, bool, {}, _raises("x must be bool, got 1")),
        ({"t": ["B", "C"]}, dict, {}, _returns({"t": ["B", "C"]})),
        ({"t": "B"}, dict, {}, _raises("x must be an object of string lists, got {'t': 'B'}")),
        ("b", str, {"among": ("a", "b")}, _returns("b")),
        ("c", str, {"among": ("a", "b")}, _raises("x must be one of ('a', 'b'), got 'c'")),
        ({"t": []}, dict, {}, _raises("x must be an object of string lists, got {'t': []}")),
    ],
    ids=[
        "bool-as-int", "bool-as-float", "int-as-float", "float", "str-as-int", "float-as-int", "nan", "plus-inf",
        "minus-inf", "int-beyond-float", "ge-boundary", "ge", "gt", "le-boundary", "le", "lt", "list-to-tuple",
        "tuple-of-size", "empty-list", "wrong-size", "item-bound", "item-kind", "not-a-list", "int-as-bool",
        "groups", "groups-not-lists", "among", "not-among", "groups-empty",
    ],
)
def test_check(value, kind, rules, expect):
    outcome, expected = expect
    if outcome == "raises":
        with pytest.raises(ContractError) as info:
            check("x", value, kind, **rules)
        assert expected in str(info.value)
    else:
        result = check("x", value, kind, **rules)
        assert result == expected and type(result) is type(expected)
        if kind is tuple:  # an int item of a float list stays an int too
            assert [type(v) for v in result] == [type(v) for v in expected]


@pytest.mark.parametrize(
    "text, repeated",
    [
        ('{"epochs": 1, "seed": 0, "epochs": 2}', "['epochs']"),
        ('{"device_groups": {"t": ["B"], "u": ["C"], "t": ["C"]}}', "['t']"),
        ('{"A": {"distance": 0.0, "index": 0, "index": 1, "distance": 1.0}}', "['distance', 'index']"),
        ('[{"a": 1}, {"b": 1, "b": 1}]', "['b']"),
    ],
    ids=["top-level", "nested", "two-keys", "in-a-list"],
)
def test_read_json_rejects_repeated_keys(text, repeated, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(text)
    with pytest.raises(ContractError) as info:
        read_json(path)
    assert str(info.value) == f"{path}: repeats keys {repeated}"
