"""The reader of a versioned JSON document rejects an unreadable file with a ParseError."""

import json
import re

import pytest

from jobsignal import ParseError
from jobsignal.evaluation import load_report

READERS = [(load_report, "report")]

# JSON that the standard parser cannot hold in Python objects: a RecursionError
# and a ValueError (Python's 4300-digit limit on int conversion) respectively.
DEEP_NESTING = b"[" * 100_000
HUGE_INTEGER = b'{"schema": "x", "n": 1' + b"0" * 4300 + b"}"

NOT_FOUND = "{what} file not found: {path}"
NOT_JSON = "{what} file is not valid JSON: {path}"

# name -> (make the input under tmp_path and return its path, expected message)
INPUTS = {
    "missing": (lambda tmp: tmp / "absent.json", NOT_FOUND),
    "directory": (lambda tmp: tmp, NOT_FOUND),
    "non-utf8": (lambda tmp: write(tmp, b'{"schema": "\xff"}'), NOT_JSON),
    "invalid-json": (lambda tmp: write(tmp, b"{not json"), NOT_JSON),
    "deep-nesting": (lambda tmp: write(tmp, DEEP_NESTING), NOT_JSON),
    "huge-integer": (lambda tmp: write(tmp, HUGE_INTEGER), NOT_JSON),
    "array": (lambda tmp: write(tmp, b"[]"), "unsupported {what} document"),
    "wrong-schema": (
        lambda tmp: write(tmp, json.dumps({"schema": "other/1"}).encode()),
        "unsupported {what} document",
    ),
}


def write(tmp_path, data: bytes):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("case", list(INPUTS))
@pytest.mark.parametrize("reader, what", READERS, ids=[what for _, what in READERS])
def test_unreadable_document_is_parse_error(tmp_path, reader, what, case):
    make, message = INPUTS[case]
    path = make(tmp_path)
    with pytest.raises(ParseError, match=message.format(what=what, path=re.escape(str(path)))):
        reader(path)
