"""The envelope of the versioned JSON artifacts, such as report.json.

A document is one JSON object whose first key, "schema", names its format
and version, written as UTF-8 with a 2-space indent and a trailing newline:
the bytes json.dumps(document, indent=2) + "\n" gives, on every Python
version. Before Python 3.13 json.dumps renders an indented document in pure
Python, so write_document lays out the indentation itself and encodes every
key and scalar in one call to json's C encoder, which renders each as
json.dumps does. This is the only code that writes a document.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

_SCALARS = {str, int, float, bool, type(None)}


def _layout(value, pad: str, leaves: list) -> str:
    """json.dumps(value, indent=2) as it reads at indentation pad, with a NUL
    in place of each key and scalar, which are appended to leaves in the
    order they appear. Keys must be strings."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        entries = []
        for key, item in value.items():
            leaves.append(key)
            entries.append("\0: " + _layout(item, inner, leaves))
        return "{\n" + inner + (",\n" + inner).join(entries) + "\n" + pad + "}"
    if not isinstance(value, (list, tuple)):
        leaves.append(value)
        return "\0"
    if not value:
        return "[]"
    if (
        set(map(type, value)) <= {list, tuple}
        and len(set(map(len, value))) == 1
        and set(map(type, flat := list(chain.from_iterable(value)))) <= _SCALARS
    ):
        # Rows of scalars, all of one length, such as pairs: one template.
        leaves.extend(flat)
        entries = [_layout(value[0], inner, [])] * len(value)
    else:
        entries = [_layout(item, inner, leaves) for item in value]
    return "[\n" + inner + (",\n" + inner).join(entries) + "\n" + pad + "]"


def write_document(schema: str, body: dict, path) -> None:
    """Write {"schema": schema, **body} to path."""
    leaves: list = []
    pieces = _layout({"schema": schema, **body}, "", leaves).split("\0")
    # No encoded leaf holds a raw NUL (JSON escapes it), so NUL separates them.
    encoded = json.dumps(leaves, separators=("\0", ":"))[1:-1].split("\0")
    text = [None] * (2 * len(pieces) - 1)
    text[0::2] = pieces
    text[1::2] = encoded
    Path(path).write_text("".join(text) + "\n", encoding="utf-8")

