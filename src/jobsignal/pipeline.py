"""Site-signal ingestion and panel construction.

Raw inputs are a site listing (url, country, and the rank/trend/traffic
signals, any of which may be blank) plus a per-country indicator table.
The pipeline keeps complete records only (listwise deletion), z-scores
each signal column, averages them into a single attractiveness score per
site, and joins the origin country's unemployment rate to produce the
two-column modeling panel. This module reads the site listing and the
indicator table and owns panel.csv; the panel's descriptive statistics are
part of report.txt, which evaluation.format_report renders.
"""

from __future__ import annotations

import codecs
import csv
import io
import logging
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import IntegrityError, JoinError, NormalizationError, ParseError

__all__ = [
    "CountryIndicator",
    "PanelDataset",
    "PanelRow",
    "SiteRecord",
    "SIGNAL_FIELDS",
    "build_panel",
    "ingest_sites",
    "listwise_delete",
    "normalize_and_score",
    "read_indicators",
    "read_panel_csv",
    "write_panel_csv",
]

logger = logging.getLogger(__name__)

SIGNAL_FIELDS = ("rank", "trend", "traffic")
SITES_HEADER = ["url", "country", "rank", "trend", "traffic"]
INDICATORS_HEADER = ["country", "unemployment_rate"]
PANEL_HEADER = ["url", "country", "score", "unemployment_rate"]

_COUNTRY_RE = re.compile(r"[A-Z]{2}\Z")  # \Z: "$" would accept a trailing newline
# Only the empty cell means missing; explicit placeholder tokens are rejected.
_FORBIDDEN_MISSING_TOKENS = {"na", "n/a", "null", "none", "nan"}
_ECHO_LIMIT = 80  # characters of a wrong header that an error message repeats


def _check_signal(name: str, value) -> None:
    """Raise ValueError unless value is usable as this signal: rank a positive
    integer within the float range, trend and traffic non-negative and finite."""
    # type() rather than isinstance(): bool subclasses int.
    if name == "rank":
        if type(value) is not int or value < 1:
            raise ValueError(f"rank must be a positive integer: {value!r}")
        if value > sys.float_info.max:
            raise ValueError("rank is too large to convert to a float")
    else:
        try:
            usable = type(value) is not bool and math.isfinite(value) and value >= 0
        except (TypeError, OverflowError):  # a string, or an int beyond the float range
            usable = False
        if not usable:
            raise ValueError(f"{name} must be non-negative and finite: {value!r}")


@dataclass(frozen=True)
class SiteRecord:
    """One employment website with its raw multi-source signals.

    rank is a site ranking where lower means more attractive; trend and
    traffic are non-negative magnitudes. Any signal may be missing (None).
    """

    url: str
    country_code: str
    rank: int | None = None
    trend: float | None = None
    traffic: float | None = None

    def __post_init__(self) -> None:
        if not self.url:
            raise ValueError("url must be non-empty")
        if self.url != self.url.lower():
            raise ValueError(f"url must be lowercase-normalized: {self.url!r}")
        if not _COUNTRY_RE.match(self.country_code):
            raise ValueError(f"country_code must be 2 uppercase letters: {self.country_code!r}")
        for name in SIGNAL_FIELDS:
            value = getattr(self, name)
            if value is not None:
                _check_signal(name, value)

    def missing_signals(self) -> tuple[str, ...]:
        return tuple(name for name in SIGNAL_FIELDS if getattr(self, name) is None)


@dataclass(frozen=True)
class CountryIndicator:
    """A country's unemployment rate in percent."""

    country_code: str
    unemployment_rate: float

    def __post_init__(self) -> None:
        if not _COUNTRY_RE.match(self.country_code):
            raise ValueError(f"country_code must be 2 uppercase letters: {self.country_code!r}")
        rate = float(self.unemployment_rate)
        if not (0.0 <= rate <= 100.0):
            raise ValueError(f"unemployment_rate must lie in [0, 100]: {rate!r}")


@dataclass(frozen=True)
class PanelRow:
    url: str
    country_code: str
    score: float
    unemployment_rate: float

    def __post_init__(self) -> None:
        if not self.url:
            raise ValueError("url must be non-empty")
        if not _COUNTRY_RE.match(self.country_code):
            raise ValueError(f"country_code must be 2 uppercase letters: {self.country_code!r}")
        if not (math.isfinite(self.score) and math.isfinite(self.unemployment_rate)):
            raise ValueError("panel rows must not contain missing values")


@dataclass(frozen=True)
class PanelDataset:
    """The cleaned two-column panel plus the count of raw records it came from."""

    rows: tuple[PanelRow, ...]
    raw_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.raw_count < self.n:
            raise ValueError(f"provenance mismatch: raw {self.raw_count} < clean {self.n}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def scores(self) -> np.ndarray:
        return np.array([row.score for row in self.rows])

    def rates(self) -> np.ndarray:
        return np.array([row.unemployment_rate for row in self.rows])


def _parse_cell(token: str, name: str, line_no: int, caster):
    token = token.strip()
    if token == "":
        return None
    if token.lower() in _FORBIDDEN_MISSING_TOKENS:
        raise ParseError(
            f"line {line_no}: {name} uses placeholder {token!r}; missing cells must be empty"
        )
    try:
        return caster(token)
    except ValueError as exc:
        raise ParseError(f"line {line_no}: cannot parse {name} from {token!r}") from exc


def _read_table(path, header: list[str], what: str):
    """Yield (line_no, cells) for each data row of a CSV with this exact
    header, line_no the physical line it begins on; ParseError on a missing
    file, bytes that are not UTF-8 or that csv cannot split, another header
    or a short row. A leading UTF-8 byte order mark, as spreadsheet exports
    write, is dropped, and blank lines are skipped but counted."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"{what} file not found: {path}")
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Line ends as csv.reader counts them below: \r\n, \r and \n.
        head = data[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"{path}: line {line_no} is not valid UTF-8 ({exc.reason})") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    found = None  # the first non-blank row, which must be the header
    start = 1  # the line the next row begins on
    try:
        for row in reader:
            if not row:  # a blank line, skipped as csv.DictReader skips it
                pass
            elif found is None:
                found = row
                if found != header:
                    break
            elif len(row) != len(header):
                raise ParseError(f"line {start}: expected {len(header)} cells, got {len(row)}")
            else:
                yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:  # such as a quote that never closes
        raise ParseError(f"{path}: line {start}: {exc}") from exc
    if found != header:
        got = repr(found)
        if len(got) > _ECHO_LIMIT:  # the first line may be a whole file of data
            got = got[:_ECHO_LIMIT] + "..."
        raise ParseError(f"{path}: expected header {','.join(header)!r}, got {got}")


def _read_records(path, header: list[str], what: str, record, key: str) -> list:
    """record(cells, line_no) for each data row of the table _read_table
    reads, in order. A ValueError from record becomes a ParseError naming
    the line, and IntegrityError names both lines of a key (record.url, or
    record.country_code read as "country") that two rows share."""
    records = []
    seen: dict = {}  # the line of each key read so far
    for line_no, row in _read_table(path, header, what):
        try:
            built = record(row, line_no)
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
        value = getattr(built, key)
        if value in seen:
            name = key.removesuffix("_code")
            raise IntegrityError(f"duplicate {name} {value!r} (lines {seen[value]} and {line_no})")
        seen[value] = line_no
        records.append(built)
    return records


def _write_table(path, header: list[str], rows: Iterable[list[str]]) -> None:
    """Write a CSV of this header and these rows of cells; the mirror of _read_table."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def ingest_sites(path) -> list[SiteRecord]:
    """Read the site listing CSV: header url,country,rank,trend,traffic.

    Blank cells become missing fields; urls are lowercase-normalized and
    must be unique. Ranks are read as integers and floats exactly.
    """

    def site(row, line_no):
        return SiteRecord(
            url=row[0].strip().lower(),
            country_code=row[1].strip(),
            rank=_parse_cell(row[2], "rank", line_no, int),
            trend=_parse_cell(row[3], "trend", line_no, float),
            traffic=_parse_cell(row[4], "traffic", line_no, float),
        )

    return _read_records(path, SITES_HEADER, "sites", site, "url")


def read_indicators(path) -> list[CountryIndicator]:
    """Read the indicator CSV: header country,unemployment_rate (percent);
    countries must be unique."""

    def indicator(row, line_no):
        rate = _parse_cell(row[1], "unemployment_rate", line_no, float)
        if rate is None:
            raise ValueError("unemployment_rate must not be blank")
        return CountryIndicator(country_code=row[0].strip(), unemployment_rate=rate)

    return _read_records(path, INDICATORS_HEADER, "indicators", indicator, "country_code")


def listwise_delete(records: Iterable[SiteRecord]) -> tuple[list[SiteRecord], int]:
    """Keep only records with all three signals present; order preserved."""
    kept: list[SiteRecord] = []
    dropped = 0
    for record in records:
        missing = record.missing_signals()
        if missing:
            dropped += 1
            logger.debug("dropping %s: missing %s", record.url, ", ".join(missing))
        else:
            kept.append(record)
    if dropped:
        logger.info("listwise deletion dropped %d of %d records", dropped, dropped + len(kept))
    return kept, dropped


def normalize_and_score(records: Sequence[SiteRecord]) -> list[tuple[str, float]]:
    """Standardize each signal column and average into one score per site.

    rank is negated before standardization so that larger always means a
    more attractive site; each column is centered and divided by its sample
    standard deviation, making scores invariant to the signals' units.
    """
    if len(records) < 2:
        raise ValueError("need at least two complete records to standardize")
    columns = {}
    for name in SIGNAL_FIELDS:
        values = []
        for record in records:
            value = getattr(record, name)
            if value is None:
                raise ValueError(f"record {record.url} is missing {name}; run listwise deletion first")
            values.append(float(value))
        col = np.array(values)
        if name == "rank":
            col = -col
        columns[name] = col
    z_cols = []
    for name, col in columns.items():
        with np.errstate(over="ignore", invalid="ignore"):
            std = col.std(ddof=1)
        if std == 0.0:
            raise NormalizationError(f"signal column {name!r} has zero variance")
        if not np.isfinite(std):
            raise NormalizationError(f"signal column {name!r} has a non-finite standard deviation")
        z_cols.append((col - col.mean()) / std)
    scores = np.mean(z_cols, axis=0)
    return [(record.url, float(score)) for record, score in zip(records, scores)]


def build_panel(
    scored: Sequence[tuple[str, float]],
    sites: Sequence[SiteRecord],
    indicators: Sequence[CountryIndicator],
) -> PanelDataset:
    """Join site scores with their country's unemployment rate.

    Each row repeats its country's single rate; rows are sorted by url.
    """
    by_url = {site.url: site for site in sites}
    rate_by_country = {ind.country_code: ind.unemployment_rate for ind in indicators}
    unknown_urls = [url for url, _ in scored if url not in by_url]
    if unknown_urls:
        raise ValueError(f"scored urls missing from the site listing: {sorted(unknown_urls)}")
    missing_countries = sorted(
        {by_url[url].country_code for url, _ in scored}
        - set(rate_by_country)
    )
    if missing_countries:
        raise JoinError(
            "countries missing from the indicator table: " + ", ".join(missing_countries)
        )
    rows = [
        PanelRow(
            url=url,
            country_code=by_url[url].country_code,
            score=score,
            unemployment_rate=rate_by_country[by_url[url].country_code],
        )
        for url, score in scored
    ]
    rows.sort(key=lambda row: row.url)
    return PanelDataset(rows=tuple(rows), raw_count=len(sites))


def write_panel_csv(panel: PanelDataset, path) -> None:
    """Write panel rows with full-precision decimal rendering (round-trips)."""
    rows = (
        [row.url, row.country_code, repr(row.score), repr(row.unemployment_rate)]
        for row in panel.rows
    )
    _write_table(path, PANEL_HEADER, rows)


def read_panel_csv(path) -> PanelDataset:
    """Read a panel written by write_panel_csv; urls must be unique.

    The file carries rows only, so provenance degenerates to raw == clean.
    """

    def panel_row(row, line_no):
        return PanelRow(
            url=row[0], country_code=row[1], score=float(row[2]), unemployment_rate=float(row[3])
        )

    rows = _read_records(path, PANEL_HEADER, "panel", panel_row, "url")
    return PanelDataset(rows=tuple(rows), raw_count=len(rows))
