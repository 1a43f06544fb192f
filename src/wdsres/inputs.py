"""The one file boundary, and the rules that the modules share.

Every loader reads its file through :func:`read_json` or :func:`read_csv`,
which also converts each CSV cell by its column's type, and then checks only
the fields of its own format; every output file is written through
:func:`write_text`.  Files are UTF-8, whatever the locale.  A missing path, a
directory, bytes that are not UTF-8, malformed or too deeply nested JSON, or
a malformed, oversized or unconvertible CSV cell becomes a
:class:`ValidationError`, which the CLI reports as exit 1.  The rules that
the modules share are each defined here once: the CSV output dialect, for
files (:func:`write_csv`) and printed text (:func:`csv_text`) alike; a
digest, the first 12 hex digits of a sha256 (:func:`short_digest`); an
integer argument (:func:`is_integer`), and its check and errors
(:func:`check_integer`); a finite real one (:func:`is_finite_number`); and
an id, a string, which is one id and not its characters (:func:`is_id`),
and a collection of ids (:func:`ids_of`), with its check (:func:`check_ids`).
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from itertools import chain
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ValidationError


DATA_DIR = Path(__file__).parent / "data"


def bundled(name: str) -> Path:
    """Path of a data file shipped in ``wdsres/data``."""
    return DATA_DIR / name


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


def read_csv(path: str | Path, header: tuple[str, ...], what: str,
             types: tuple[Callable[[str], object], ...]) -> Iterator[tuple[int, list]]:
    """The ``(line number, cells)`` data rows of a CSV file with ``header``.

    The header is compared after stripping each name; blank rows are
    skipped and every other row must have one cell per header column, all
    checked before this returns.  A row's cells are converted by ``types``,
    one per column, only as the caller reads it, so the caller's check of a
    row comes before the next row's conversion errors.
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
    return ((lineno, _converted(path, lineno, row, types)) for lineno, row in body)


def _converted(path, lineno: int, row: list[str], types) -> list:
    try:
        return [convert(cell) for convert, cell in zip(types, row)]
    except ValueError as exc:
        raise ValidationError(f"{path}:{lineno}: {exc}") from None


def csv_text(header: tuple[str, ...], rows: Iterable[Iterable]) -> str:
    """``header``, then ``rows``, as CSV: ``\\n`` line ends, floats as ``repr``."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(chain((header,), rows))
    return buffer.getvalue()


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8, line ends untranslated."""
    Path(path).write_text(text, encoding="utf-8", newline="")


def write_csv(path: str | Path, header: tuple[str, ...], rows: Iterable[Iterable]) -> None:
    """Write :func:`csv_text` of ``header`` and ``rows`` to ``path``."""
    write_text(path, csv_text(header, rows))


def short_digest(*parts: bytes) -> str:
    """The first 12 hex digits of the sha256 of ``parts``, fed in order."""
    import hashlib  # here, so that loading a network does not import it

    h = hashlib.sha256()
    for part in parts:  # bytes, or an array's C-ordered buffer, hashed with no copy
        h.update(part)
    return h.hexdigest()[:12]


def is_integer(value) -> bool:
    """True for an integer, but not a bool: True is no count."""
    # a plain int first: the ABC check is slow, and a bool's type is not int
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def check_integer(value, name: str, least: int | None = None) -> None:
    """Raise unless ``value`` is an integer (:func:`is_integer`) and, given
    ``least``, at least ``least``; ``name`` names it in the error."""
    if not is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}")


def is_finite_number(value) -> bool:
    """True for a real number, but not a bool, that a float holds finitely."""
    # float and int first: they are what JSON gives, and the ABC check is slow
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        return False
    try:
        return isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def is_id(value) -> bool:
    """True for an id of an element or node: a string."""
    return isinstance(value, str)


def ids_of(value, kinds: type | tuple[type, ...] = object) -> tuple[str, ...] | None:
    """``value`` as a tuple if it is a collection of ids, an iterable of
    ``kinds`` that is not a string and holds only ids (:func:`is_id`); else None."""
    if isinstance(value, str) or not isinstance(value, kinds):
        return None
    try:
        ids = tuple(value)
        "".join(ids)  # the fastest test that every member is a string
    except TypeError:  # not iterable, or a member that is not a string
        return None
    return ids


def check_ids(value, what: str, kinds: type | tuple[type, ...] = object) -> tuple[str, ...]:
    """:func:`ids_of` ``value``, raising unless it is a collection of ids;
    ``what`` names it in the error."""
    if (ids := ids_of(value, kinds)) is None:
        raise ValidationError(f"{what} must be a list of id strings, got {value!r}")
    return ids


def json_rows(data: Mapping, key: str) -> list[Mapping]:
    """The array of objects under ``key`` in a JSON document; empty if absent."""
    rows = data.get(key, [])
    if not isinstance(rows, (list, tuple)):
        raise ValidationError(f"{key!r} must be a list of objects")
    for i, row in enumerate(rows):
        if not isinstance(row, (dict, Mapping)):  # dict first: the ABC check is slow
            raise ValidationError(f"{key}[{i}] must be an object, got {row!r}")
    return rows
