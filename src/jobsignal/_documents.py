"""The envelope of the versioned JSON artifacts, such as report.json.

A document is one JSON object whose first key, "schema", names its format
and version, written as UTF-8 with a 2-space indent and a trailing newline.
This is the only code that writes or reads one.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError


def write_document(schema: str, body: dict, path) -> None:
    """Write {"schema": schema, **body} to path."""
    text = json.dumps({"schema": schema, **body}, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_document(path, schema: str, what: str) -> dict:
    """The object in path, checked to carry this schema.

    Raises ParseError naming `what` when the file is missing, is not UTF-8
    JSON that Python can hold (too deep a nesting, an integer beyond
    Python's digit limit), or is not an object of this schema.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"{what} file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError covers the decode errors
        raise ParseError(f"{what} file is not valid JSON: {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != schema:
        raise ParseError(f"unsupported {what} document (expected schema {schema!r})")
    return payload
