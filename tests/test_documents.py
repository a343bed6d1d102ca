"""The writer of a versioned JSON document writes the bytes of json.dumps with
a 2-space indent, and the reader rejects an unreadable file with a ParseError."""

import json
import math
import re

import pytest

from jobsignal import ParseError
from jobsignal._documents import write_document
from jobsignal.evaluation import REPORT_SCHEMA, load_report

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


# Floats whose renderings differ most: signed zero, the smallest subnormal,
# the switches to exponent notation, a repr longer than str's, the largest
# finite values and the three non-finite ones json writes as NaN/Infinity.
EDGE_FLOATS = [
    -0.0, 5e-324, 1e-7, 1e16, 1.0, 0.1 + 0.2,
    1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf,
]


def report_body(per_fold):
    return {
        "direction": "score_to_rate",
        "n": len(per_fold),
        "correlation_rate": 0.1 + 0.2,
        "rmse": 4.5,
        "rae": 1e-7,
        "kernel": {"sigma_sq": 1.7976931348623157e308, "theta": [10.0], "jitter": 0.0001},
        "basis": "linear",
        "in_sample": True,
        "per_fold": per_fold,
    }


BODIES = {
    "empty-per-fold": report_body([]),
    "edge-floats": report_body([[a, b] for a, b in zip(EDGE_FLOATS, EDGE_FLOATS[::-1])]),
    "one-pair": report_body([[0.0, -0.0]]),
    "integers-and-tuples": report_body([(1, 2.5), (-3, 10**20)]),
    "mixed-nesting": {
        "strings": ["", "a, b", 'quote " and \\', "nul \0 here", "caf\u00e9 \u2603", "\n"],
        "flags": [True, False, None],
        "rows": [[1.0], [2.0, 3.0], [], [[4.0]], {"k": []}],
        "empty": {},
        "empty-rows": [[], []],
        "theta": [0.5, 5e-324],
        "nested": {"a": {"b": [{"c": math.nan}]}},
    },
}


@pytest.mark.parametrize("name", list(BODIES))
def test_written_bytes_are_json_dumps_with_indent_2(tmp_path, name):
    body = BODIES[name]
    path = tmp_path / "doc.json"
    write_document(REPORT_SCHEMA, body, path)
    expected = json.dumps({"schema": REPORT_SCHEMA, **body}, indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
