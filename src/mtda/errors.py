"""Error taxonomy shared across the package, and the one field checker.

Exit-code mapping in the CLI: ContractError / ShapeError / NumericError -> 1,
OS-level failures -> 2. `read_json` reads every JSON input file, so a file
that does not parse is an error naming it; `write_json` writes every JSON
file and `write_csv` every CSV file. `check` alone decides whether a value
read from a config file, an ``--override`` string or an index table has its
field's kind and bounds; config fields declare those once, with `rule`, and
`Checked` applies them to every config built and every override string parsed.
`check_file_name` alone decides whether an id may name a file (`ingest`'s row
ids, synth's device ids).
"""

import csv
import json
import numbers
import operator
import sys
from dataclasses import MISSING, field, fields
from pathlib import Path


class ShapeError(ValueError):
    """Operand dimensions are incompatible with an operation's contract."""

    def __init__(self, message, *dims):
        if dims:
            message = f"{message}: " + " vs ".join(str(list(d)) for d in dims)
        super().__init__(message)


class ContractError(ValueError):
    """An operation precondition was violated by otherwise well-shaped data."""


class NumericError(ArithmeticError):
    """A computation produced NaN/Inf where finite values are required."""


def _unique_keys(pairs):
    keys = [k for k, _ in pairs]
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise ContractError(f"repeats keys {repeated}")
    return dict(pairs)


def read_json(path):
    """The JSON value in file `path`, which may start with a UTF-8 byte-order mark; a file that is
    not UTF-8 or not JSON, or an object in it that repeats a key, is a ContractError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"), object_pairs_hook=_unique_keys)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ContractError(f"{path}: not a UTF-8 JSON file: {exc}") from None


def write_json(path, payload):
    """Write `payload` to file `path` as indented JSON with sorted keys."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows):
    """Write `header`, then `rows`, to file `path` as UTF-8 CSV with CRLF line ends, whatever the locale."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "bool", str: "a string",
               dict: "an object of string lists", None: "JSON"}
_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt), "le": ("<=", operator.le), "lt": ("<", operator.lt),
           "among": ("one of", lambda value, options: value in options)}
_BOOLS = {"true": True, "True": True, "1": True, "false": False, "False": False, "0": False}


def fits(value, kind) -> bool:
    """Whether `value` has `kind`: a bool is no number, an int passes as a float, a float must be finite."""
    if kind in (int, float):
        number = isinstance(value, numbers.Integral if kind is int else numbers.Real) and not isinstance(value, bool)
        return number and (kind is int or abs(value) <= sys.float_info.max)  # finite, also as a float
    if kind is tuple:
        return isinstance(value, (list, tuple))
    if kind is dict:  # device groups: name -> member devices, at least one
        return isinstance(value, dict) and all(
            isinstance(k, str) and fits(m, tuple) and len(m) > 0 and all(isinstance(d, str) for d in m)
            for k, m in value.items()
        )
    return isinstance(value, kind)


def _kind_text(kind=None, item=None, **_bounds) -> str:
    return f"a list of {item.__name__}" if kind is tuple else _KIND_NAMES[kind]


def check(name, value, kind, item=None, size=None, **bounds):
    """`value` if it has `kind` and meets `bounds`, else a ContractError naming `name`.

    `bounds` are `ge`, `gt`, `le`, `lt` and `among` (a tuple of the accepted values). A `tuple` kind
    takes a non-empty list of `item`s (`size` of them, if given), each within `bounds`, and returns a
    tuple; any other value comes back unchanged, so a float field keeps an int.
    """
    if not fits(value, kind):
        raise ContractError(f"{name} must be {_kind_text(kind, item)}, got {value!r}")
    if kind is tuple:
        if not value:
            raise ContractError(f"{name} must not be empty, got {value!r}")
        if size is not None and len(value) != size:
            raise ContractError(f"{name} must hold {size} values, got {value!r}")
        return tuple(check(f"{name}[{i}]", v, item, **bounds) for i, v in enumerate(value))
    for key, limit in bounds.items():
        sign, holds = _BOUNDS[key]
        if not holds(value, limit):
            raise ContractError(f"{name} must be {sign} {limit}, got {value!r}")
    return value


def check_file_name(name, value):
    """`value` if it can stand in a file name in the directory it is written to: not empty, not
    ``.`` or ``..``, with no ``/``, ``\\`` or NUL; else a ContractError naming `name`."""
    if value in ("", ".", "..") or any(c in value for c in "/\\\0"):
        raise ContractError(
            f"{name} must be a plain file name (not empty, '.' or '..'; no '/', '\\' or NUL), got {value!r}"
        )
    return value


def rule(kind, default=MISSING, factory=MISSING, **bounds):
    """A dataclass field that `Checked` validates with `check(name, value, kind, **bounds)`."""
    return field(default=default, default_factory=factory, metadata={"kind": kind, **bounds})


def _parse(text, kind=None, item=None, **_bounds):
    if kind is tuple:
        return tuple(item(v) for v in text.split(","))
    return {bool: _BOOLS.__getitem__, int: int, float: float, str: str}.get(kind, json.loads)(text)


class Checked:
    """A dataclass whose `rule` fields are checked whenever an instance is built."""

    def __post_init__(self):
        for f in fields(self):
            if "kind" in f.metadata:
                setattr(self, f.name, check(f.name, getattr(self, f.name), **f.metadata))

    @classmethod
    def from_dict(cls, payload: dict, overrides=None):
        """`payload` is a JSON object; `overrides` holds strings, parsed by each field's kind."""
        if not isinstance(payload, dict):
            raise ContractError(f"{cls.__name__} must be a JSON object, got {type(payload).__name__}")
        known, overrides = {f.name: f for f in fields(cls)}, overrides or {}
        required = {n for n, f in known.items() if f.default is MISSING and f.default_factory is MISSING}
        unknown, missing = set(payload) - set(known), required - {*payload, *overrides}
        if unknown or missing:
            raise ContractError(f"{cls.__name__}: unknown keys {sorted(unknown)}, missing keys {sorted(missing)}")
        for key, text in overrides.items():
            if key not in known:
                raise ContractError(f"unknown override key: {key}")
            try:
                payload = {**payload, key: _parse(text, **known[key].metadata)}
            except (KeyError, ValueError):
                raise ContractError(f"override {key}={text!r} is not {_kind_text(**known[key].metadata)}") from None
        return cls(**payload)
