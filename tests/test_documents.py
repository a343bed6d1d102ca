"""Every reader of a versioned JSON document rejects an unreadable file the same way."""

import json

import pytest

from jobsignal import ParseError
from jobsignal.evaluation import load_report
from jobsignal.gpr import load_model
from jobsignal.pipeline import read_records_json

READERS = [(load_model, "model"), (load_report, "report"), (read_records_json, "records")]

# name -> (make the input under tmp_path and return its path, expected message)
INPUTS = {
    "missing": (lambda tmp: tmp / "absent.json", "{what} file not found"),
    "directory": (lambda tmp: tmp, "{what} file not found"),
    "non-utf8": (lambda tmp: write(tmp, b'{"schema": "\xff"}'), "{what} file is not valid JSON"),
    "invalid-json": (lambda tmp: write(tmp, b"{not json"), "{what} file is not valid JSON"),
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
    with pytest.raises(ParseError, match=message.format(what=what)):
        reader(make(tmp_path))
