"""Reading and writing the files the pipeline persists.

Every JSON artifact is read through :func:`read_json`, so an unreadable,
corrupt or foreign file surfaces as :class:`FormatError`, never as a bare
``KeyError`` or ``AttributeError`` further down.  Loaders read the fields of
a payload inside :func:`fields`, which does the same for missing or
ill-typed fields.  Every file is written through :func:`atomic_write`: the
text or bytes go to a temporary file in the target's directory, which
replaces the target only once it is complete.  A writer that fails or is
killed part-way therefore leaves the previous file, or none, and never a
truncated one.
The rename is not followed by an fsync, so a power loss may still lose
the most recent write.
"""

from __future__ import annotations

import contextlib
import json
import os

from .exceptions import FormatError


def read_json(path, what: str, fmt: str | None = None, version: int | None = None) -> dict:
    """Parse a JSON artifact whose top level must be an object.

    ``fmt`` is checked against the payload's ``"format"`` tag.  ``version``
    is checked against its ``"version"`` field, or, for the dataset
    sidecars, which carry no format tag, against ``"schema-version"``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise FormatError(f"{path}: corrupt {what}: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: a {what} holds a JSON object, not {type(payload).__name__}")
    if fmt is not None and payload.get("format") != fmt:
        raise FormatError(f"{path}: not a {what} (format {payload.get('format')!r})")
    if version is not None:
        key = "version" if fmt is not None else "schema-version"
        if payload.get(key) != version:
            raise FormatError(f"{path}: {what} {key} {payload.get(key)!r}, expected {version}")
    return payload


@contextlib.contextmanager
def fields(path, what: str):
    """Turn a missing or ill-typed field met while decoding a payload into
    :class:`FormatError` naming the file."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed {what}: {exc!r}") from exc


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Text handle, or a bytes handle when ``binary`` is set, whose content
    replaces ``path`` when the block exits cleanly; on an error the target
    is left as it was."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(path, payload, indent: int | None = None) -> None:
    """Write one JSON document atomically.

    The document is built by one ``json.dumps``, which takes the C encoder
    when ``indent`` is None (``json.dump`` never does), and written whole.
    """
    text = json.dumps(payload, indent=indent)
    with atomic_write(path) as fh:
        fh.write(text)
