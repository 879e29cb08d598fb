"""Strict reading of JSON input files: the one place input JSON is parsed.

Every integer field must be a JSON integer.  ``true``, ``2.0``, ``"3"`` and
``1e400`` are rejected, never converted, so a command works on exactly the
numbers the file holds.  Every error is a ValueError naming the field, as
in ``profile.alpha row 1 must be a list of integers, got [2.9, "3"]``.
"""

import json


def load(path) -> dict:
    try:  # JSON is UTF-8 (RFC 8259), whatever the locale
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None
    if type(data) is not dict:
        raise ValueError(f"{path}: the top level must be a JSON object, got {json.dumps(data)}")
    return data


def field(data, key: str, where: str = ""):
    """data[key], where `where` is the prefix naming data's fields in errors."""
    if type(data) is not dict or key not in data:
        raise ValueError(f"{where}{key} is missing")
    return data[key]


def integer(v, where: str, lo=None) -> int:
    """v as an integer, at least lo where lo is given."""
    if type(v) is not int:
        raise ValueError(f"{where} must be an integer, got {json.dumps(v)}")
    if lo is not None and v < lo:
        raise ValueError(f"{where} must be >= {lo}, got {v}")
    return v


def _fits(v, length, lo, hi) -> bool:
    return type(v) is list and (length is None or len(v) == length) and all(
        type(e) is int and (lo is None or e >= lo) and (hi is None or e <= hi) for e in v)


def integers(v, where: str, length=None, lo=None, hi=None) -> tuple:
    """v as a tuple of integers, each in [lo, hi] where a bound is given."""
    if not _fits(v, length, lo, hi):
        size = "" if length is None else f"{length} "
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise ValueError(f"{where} must be a list of {size}integers{bounds}, got {json.dumps(v)}")
    return tuple(v)


def rows(v, where: str, width=None, lo=None, hi=None) -> tuple:
    """v as a tuple of integer rows; a row's name is built only to report it."""
    if type(v) is not list:
        raise ValueError(f"{where} must be a list of rows, got {json.dumps(v)}")
    for i, row in enumerate(v, 1):
        if not _fits(row, width, lo, hi):
            integers(row, f"{where} row {i}", width, lo, hi)
    return tuple(map(tuple, v))
