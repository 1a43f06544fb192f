"""The one input boundary: how input files are opened, decoded and split.

Every loader reads its file through :func:`read_json` or :func:`read_csv`
and then checks only the fields of its own format.  Files are UTF-8.  A
missing path, a directory, bytes that are not UTF-8, malformed or too deeply
nested JSON, or a malformed or oversized CSV cell becomes a
:class:`ValidationError`, which the CLI reports as exit 1, not a traceback.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from math import isfinite
from pathlib import Path
from typing import Mapping

from .errors import ValidationError


def bundled(name: str) -> Path:
    """Path of a data file shipped in ``wdsres/data``."""
    return Path(__file__).parent / "data" / name


def _read_text(path: str | Path, what: str) -> str:
    try:
        # bytes, then decode: no newline translation, as csv needs
        return Path(path).read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {what} file is not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc.strerror or exc}") from None


def read_json(path: str | Path, what: str):
    """The parsed JSON document in ``path``; ``what`` names it in errors."""
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int too long to convert
        raise ValidationError(f"cannot parse {what} file {path}: {exc}") from None
    except RecursionError:
        raise ValidationError(f"cannot parse {what} file {path}: nested too deeply") from None


def read_csv(path: str | Path, header: tuple[str, ...], what: str) -> list[tuple[int, list[str]]]:
    """The ``(line number, cells)`` data rows of a CSV file with ``header``.

    The header is compared after stripping each name; blank rows are
    skipped and every other row must have one cell per header column.
    """
    text = _read_text(path, what)
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise ValidationError(f"cannot parse {what} file {path}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: empty {what} file")
    if tuple(h.strip() for h in rows[0]) != header:
        raise ValidationError(f"{path}: header must be {','.join(header)}")
    body = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ValidationError(f"{path}:{lineno}: expected {len(header)} columns")
        body.append((lineno, row))
    return body


def is_finite_number(value) -> bool:
    """True for a real number, but not a bool, that a float holds finitely."""
    # float and int first: they are what JSON gives, and the ABC check is slow
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        return False
    try:
        return isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def json_rows(data: Mapping, key: str) -> list[Mapping]:
    """The array of objects under ``key`` in a JSON document; empty if absent."""
    rows = data.get(key, [])
    if not isinstance(rows, (list, tuple)):
        raise ValidationError(f"{key!r} must be a list of objects")
    for i, row in enumerate(rows):
        if not isinstance(row, (dict, Mapping)):  # dict first: the ABC check is slow
            raise ValidationError(f"{key}[{i}] must be an object, got {row!r}")
    return rows
