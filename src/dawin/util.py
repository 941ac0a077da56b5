"""Seeded substreams, atomic file writes, text-file readers, JSON field access."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import tempfile
import zlib

import numpy as np

from .errors import DataFormatError, DawinError


def substream(root_seed: int, name: str) -> np.random.Generator:
    """Independent generator derived from one root seed and a stream name.

    The name is folded in through crc32, which is stable across platforms
    and Python processes (unlike hash()).
    """
    if root_seed < 0:
        raise ValueError("root seed must be non-negative")
    return np.random.default_rng(
        np.random.SeedSequence([int(root_seed), zlib.crc32(name.encode("utf-8"))])
    )


def atomic_write(path: str | os.PathLike, data: bytes | str) -> None:
    """Write a file via temp-file-plus-rename so readers never see partial output."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix="." + os.path.basename(path) + ".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str | os.PathLike):
    """The JSON document in a UTF-8 file. Any failure to read or decode it is
    a DataFormatError whose message starts with the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, huge ints, deep nesting
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc


def read_csv(path: str | os.PathLike) -> list[list[str]]:
    """The rows of a UTF-8 CSV file, header included. Any failure to read or
    split it is a DataFormatError whose message starts with the path."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return list(csv.reader(handle))
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:  # a NUL byte, or a field over csv.field_size_limit()
        raise DataFormatError(f"{path}: {exc}") from exc


_REQUIRED = object()
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an int",
          float: "a number", bool: "a bool"}


def bad_field(source: str, keys: tuple, problem: str, error=DataFormatError) -> DawinError:
    """error("{source}: {field}: {problem}") about the field at keys of a JSON
    document read from source. The field ("domains", "id_val", "path") reads
    "domains entry 'id_val' key 'path'": the last string is a key, a list
    index or a later string before it is an entry, and a first string before
    it stands bare."""
    last = max((i for i, key in enumerate(keys) if isinstance(key, str)), default=-1)
    words = [
        f"entry {key}" if isinstance(key, int)
        else f"key {key!r}" if i == last
        else key if i == 0
        else f"entry {key!r}"
        for i, key in enumerate(keys)
    ]
    return error(f"{source}: {' '.join(words)}: {problem}" if words else f"{source}: {problem}")


def _checked(value, kind, source: str, keys: tuple, error):
    """value if it is of kind (see get), a number as a float."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(
        value, (int, float) if kind is float else kind
    ):
        got = "null" if value is None else type(value).__name__
        raise bad_field(source, keys, f"expected {_KINDS[kind]}, got {got}", error)
    try:
        return float(value) if kind is float else value
    except OverflowError as exc:  # an int too large for a float
        raise bad_field(source, keys, "number out of range", error) from exc


def get(doc, source: str, keys: tuple, kind, default=_REQUIRED, error=DataFormatError):
    """doc[keys[0]][keys[1]]..., where doc is a JSON document read from
    source, checked to be of kind: dict, list, str, int, float (any number,
    returned as a float) or bool; a bool is neither an int nor a number, and
    [kind] is a list of that kind. A missing or null field is default when one
    is given. Any other failure raises bad_field naming the field."""
    node = doc
    for depth, key in enumerate(keys):
        node = _checked(node, dict if isinstance(key, str) else list, source, keys[:depth], error)
        if key not in (node if isinstance(node, dict) else range(len(node))):
            if default is not _REQUIRED:
                return default
            raise bad_field(source, keys[:depth + 1], "missing", error)
        node = node[key]
    if node is None and default is not _REQUIRED:
        return default
    if isinstance(kind, list):
        items = _checked(node, list, source, keys, error)
        return [_checked(item, kind[0], source, (*keys, i), error) for i, item in enumerate(items)]
    return _checked(node, kind, source, keys, error)


def build(cls, fields: dict, source: str, keys: tuple = (), error=DataFormatError):
    """cls(**fields), with a ValueError from the range checks cls owns raised
    as bad_field naming the field at keys."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise bad_field(source, keys, str(exc), error) from exc


def get_dataclass(cls, doc, source: str, keys: tuple = (), error=DataFormatError):
    """The dataclass cls, every field of which has a default, built from the
    JSON object at keys. A key must name a field and hold a value of the JSON
    type of its default (for a tuple, a list of its first item's type); an
    absent field keeps its default."""
    defaults = dataclasses.asdict(cls())
    for key in get(doc, source, keys, dict, error=error):
        if key not in defaults:
            raise bad_field(source, (*keys, key), "unknown key", error)
    fields = {
        key: get(doc, source, (*keys, key),
                 [type(value[0])] if isinstance(value, tuple) else type(value), value, error)
        for key, value in defaults.items()
    }
    return build(cls, fields, source, keys, error)
