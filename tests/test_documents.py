"""The writer of a versioned JSON document writes the bytes of json.dumps with
a 2-space indent."""

import json
import math

import pytest

from jobsignal._documents import write_document
from jobsignal.evaluation import REPORT_SCHEMA

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
