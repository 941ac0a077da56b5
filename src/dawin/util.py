"""Seeded substreams, atomic file writes, and the text-file readers."""

from __future__ import annotations

import csv
import json
import os
import tempfile
import zlib

import numpy as np

from .errors import DataFormatError


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
