import codecs
import math
import re
import sys

import numpy as np
import pytest

from jobsignal import (
    CountryIndicator,
    IntegrityError,
    JoinError,
    NormalizationError,
    ParseError,
    SiteRecord,
    build_panel,
    ingest_sites,
    listwise_delete,
    normalize_and_score,
)
from jobsignal.datasets import bundled_indicators_path, bundled_sites_path
from jobsignal.evaluation import Direction, EvaluationReport, format_report
from jobsignal.gpr import BasisExpansion, Kernel
from jobsignal.pipeline import (
    PanelDataset,
    PanelRow,
    read_indicators,
    read_panel_csv,
    write_panel_csv,
)


def site(url, country="DE", rank=100, trend=50.0, traffic=1000.0):
    return SiteRecord(url=url, country_code=country, rank=rank, trend=trend, traffic=traffic)


def write_sites(tmp_path, body, name="sites.csv"):
    path = tmp_path / name
    path.write_text("url,country,rank,trend,traffic\n" + body, encoding="utf-8")
    return path


class TestIngest:
    def test_full_row(self, tmp_path):
        path = write_sites(tmp_path, "jobs.example.de,DE,1500,62.0,30000\n")
        records = ingest_sites(path)
        assert records == [
            SiteRecord(url="jobs.example.de", country_code="DE", rank=1500, trend=62.0, traffic=30000.0)
        ]

    def test_blank_cell_is_missing(self, tmp_path):
        path = write_sites(tmp_path, "jobs.example.fr,FR,2000,55.0,\n")
        (record,) = ingest_sites(path)
        assert record.traffic is None
        assert record.missing_signals() == ("traffic",)

    def test_urls_lowercase_normalized(self, tmp_path):
        path = write_sites(tmp_path, "JOBS.Example.AT,AT,10,1.0,2.0\n")
        (record,) = ingest_sites(path)
        assert record.url == "jobs.example.at"

    def test_duplicate_url_rejected(self, tmp_path):
        path = write_sites(
            tmp_path, "jobs.example.de,DE,1,1.0,1.0\nJobs.Example.DE,DE,2,2.0,2.0\n"
        )
        with pytest.raises(IntegrityError, match="jobs.example.de"):
            ingest_sites(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write_sites(
            tmp_path, "jobs.a.de,DE,1,1.0,1.0\njobs.b.de,DE,badrank,1.0,1.0\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            ingest_sites(path)

    def test_na_token_rejected(self, tmp_path):
        path = write_sites(tmp_path, "jobs.a.de,DE,NA,1.0,1.0\n")
        with pytest.raises(ParseError, match="placeholder"):
            ingest_sites(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("url,rank\njobs.a.de,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            ingest_sites(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            ingest_sites(tmp_path / "nope.csv")

    def test_bad_country_names_line(self, tmp_path):
        path = write_sites(tmp_path, "jobs.a.de,Germany,1,1.0,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest_sites(path)

    def test_rank_beyond_float_range_is_parse_error(self, tmp_path):
        path = write_sites(tmp_path, "jobs.a.de,DE,1" + "0" * 400 + ",1.0,1.0\n")
        with pytest.raises(ParseError, match="line 2: rank is too large"):
            ingest_sites(path)

    @pytest.mark.parametrize(
        "cells, message",
        [
            ("1,3x,1.0", "cannot parse trend from '3x'"),
            ("1,1.0,1e400", "traffic must be non-negative and finite"),
        ],
        ids=["string", "beyond-float-range"],
    )
    def test_unusable_signal_is_parse_error(self, tmp_path, cells, message):
        path = write_sites(tmp_path, f"jobs.a.de,DE,{cells}\n")
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            ingest_sites(path)

    def test_reads_edge_values_exactly(self, tmp_path):
        path = write_sites(
            tmp_path,
            "jobs.a.de,DE,100,50.0,1000.0\n"
            "jobs.b.fr,FR,,3.0,\n"
            "jobs.c.at,AT,,,\n"
            f"jobs.d.nl,NL,{int(sys.float_info.max)},5e-324,1.7976931348623157e308\n"
            f"jobs.e.se,SE,{2**53 + 1},2.2250738585072e-308,{0.1 + 0.2!r}\n"
            "jobs.f.pl,PL,1,-0.0,1e-300\n",
        )
        expected = [
            site("jobs.a.de"),
            SiteRecord(url="jobs.b.fr", country_code="FR", trend=3.0),
            SiteRecord(url="jobs.c.at", country_code="AT"),
            site("jobs.d.nl", "NL", rank=int(sys.float_info.max), trend=5e-324,
                 traffic=1.7976931348623157e308),
            site("jobs.e.se", "SE", rank=2**53 + 1, trend=2.2250738585072e-308,
                 traffic=0.1 + 0.2),
            site("jobs.f.pl", "PL", rank=1, trend=-0.0, traffic=1e-300),
        ]
        records = ingest_sites(path)
        assert records == expected
        for name in ("trend", "traffic"):
            assert [getattr(r, name).hex() for r in records if getattr(r, name) is not None] == [
                getattr(r, name).hex() for r in expected if getattr(r, name) is not None
            ]
        assert all(type(r.rank) is int for r in records if r.rank is not None)


class TestReadIndicators:
    def test_reads_rates(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text("country,unemployment_rate\nDE,5.2\nFR,9.9\n", encoding="utf-8")
        assert read_indicators(path) == [
            CountryIndicator(country_code="DE", unemployment_rate=5.2),
            CountryIndicator(country_code="FR", unemployment_rate=9.9),
        ]

    def test_rate_out_of_range(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text("country,unemployment_rate\nDE,105\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            read_indicators(path)

    def test_duplicate_country(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text("country,unemployment_rate\nDE,5\nDE,6\n", encoding="utf-8")
        with pytest.raises(IntegrityError, match=r"^duplicate country 'DE' \(lines 2 and 3\)$"):
            read_indicators(path)


class TestListwiseDelete:
    def test_incomplete_record_dropped(self):
        dirty = SiteRecord(url="jobs.a.de", country_code="DE", rank=1, trend=2.0, traffic=None)
        kept, dropped = listwise_delete([dirty])
        assert kept == [] and dropped == 1

    def test_complete_record_kept(self):
        clean = site("jobs.a.de")
        kept, dropped = listwise_delete([clean])
        assert kept == [clean] and dropped == 0

    def test_bundled_fixture_counts(self):
        records = ingest_sites(bundled_sites_path())
        assert len(records) == 427
        kept, dropped = listwise_delete(records)
        assert len(kept) == 382
        assert dropped == 45

    def test_idempotent(self):
        records = [site("jobs.a.de"), SiteRecord(url="jobs.b.de", country_code="DE")]
        once, dropped_once = listwise_delete(records)
        twice, dropped_twice = listwise_delete(once)
        assert once == twice and dropped_twice == 0

    def test_order_preserved_and_complete(self):
        records = [
            site("jobs.c.de"),
            SiteRecord(url="jobs.x.de", country_code="DE", rank=1),
            site("jobs.a.de"),
        ]
        kept, _ = listwise_delete(records)
        assert [r.url for r in kept] == ["jobs.c.de", "jobs.a.de"]
        for record in kept:
            assert record.rank is not None
            assert record.trend is not None
            assert record.traffic is not None


class TestNormalizeAndScore:
    def test_two_record_hand_values(self):
        records = [
            site("jobs.a.de", rank=1, trend=10.0, traffic=100.0),
            site("jobs.b.de", rank=3, trend=20.0, traffic=300.0),
        ]
        scored = normalize_and_score(records)
        s = math.sqrt(2.0) / 6.0
        # Record a wins on (negated) rank but loses on trend and traffic.
        assert scored[0][0] == "jobs.a.de"
        assert scored[0][1] == pytest.approx(-s, abs=1e-12)
        assert scored[1][1] == pytest.approx(+s, abs=1e-12)

    def test_scores_center_on_zero(self, rng):
        records = [
            site(f"jobs.{i}.de", rank=int(rng.integers(1, 10**7)),
                 trend=float(rng.uniform(0, 100)), traffic=float(rng.uniform(0, 10**6)))
            for i in range(40)
        ]
        scores = np.array([score for _, score in normalize_and_score(records)])
        assert abs(scores.mean()) < 1e-9

    def test_identical_records_zero_variance(self):
        records = [site("jobs.a.de"), site("jobs.b.de")]
        with pytest.raises(NormalizationError, match="rank"):
            normalize_and_score(records)

    def test_zero_variance_names_column(self):
        records = [
            site("jobs.a.de", rank=1, trend=7.0, traffic=10.0),
            site("jobs.b.de", rank=2, trend=7.0, traffic=20.0),
        ]
        with pytest.raises(NormalizationError, match="trend"):
            normalize_and_score(records)

    def test_overflowing_std_names_column(self):
        # Finite trends whose squared deviations overflow: the column must not
        # silently score 0.0 for every site.
        records = [
            site(f"jobs.{i}.de", rank=i + 1, trend=trend, traffic=float(i + 1))
            for i, trend in enumerate([1e200, 2e200, 3e200, 5e200])
        ]
        with pytest.raises(NormalizationError, match="'trend' has a non-finite standard deviation"):
            normalize_and_score(records)

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="two"):
            normalize_and_score([site("jobs.a.de")])

    def test_incomplete_record_rejected(self):
        records = [site("jobs.a.de"), SiteRecord(url="jobs.b.de", country_code="DE", rank=2)]
        with pytest.raises(ValueError, match="missing"):
            normalize_and_score(records)

    def test_scale_invariance_per_column(self, rng):
        records = []
        for i in range(25):
            records.append(
                site(f"jobs.{i}.de", rank=int(rng.integers(1, 10**6)),
                     trend=float(rng.uniform(0, 100)), traffic=float(rng.uniform(10, 10**5)))
            )
        base = np.array([s for _, s in normalize_and_score(records)])
        for field, factor in (("rank", 1000), ("trend", 1000.0), ("traffic", 0.001)):
            scaled_records = []
            for record in records:
                values = {f: getattr(record, f) for f in ("rank", "trend", "traffic")}
                values[field] = type(values[field])(values[field] * factor)
                scaled_records.append(SiteRecord(url=record.url, country_code="DE", **values))
            scaled = np.array([s for _, s in normalize_and_score(scaled_records)])
            assert np.abs(scaled - base).max() < 1e-9


class TestBuildPanel:
    def indicators(self):
        return [
            CountryIndicator(country_code="DE", unemployment_rate=5.0),
            CountryIndicator(country_code="FR", unemployment_rate=10.0),
        ]

    def test_fan_out_join(self):
        sites = [site("jobs.a.de"), site("jobs.b.de"), site("jobs.c.fr", country="FR")]
        scored = [("jobs.a.de", 0.1), ("jobs.b.de", -0.1), ("jobs.c.fr", 0.0)]
        panel = build_panel(scored, sites, self.indicators())
        assert panel.n == 3
        assert [row.unemployment_rate for row in panel.rows] == [5.0, 5.0, 10.0]

    def test_missing_country_join_error(self):
        sites = [site("jobs.a.xx", country="XX")]
        with pytest.raises(JoinError, match="XX"):
            build_panel([("jobs.a.xx", 0.0)], sites, self.indicators())

    def test_empty_scored_list(self):
        panel = build_panel([], [site("jobs.a.de")], self.indicators())
        assert panel.n == 0
        assert panel.raw_count == 1

    def test_rows_sorted_by_url(self):
        sites = [site("jobs.z.de"), site("jobs.a.de")]
        panel = build_panel([("jobs.z.de", 1.0), ("jobs.a.de", -1.0)], sites, self.indicators())
        assert [row.url for row in panel.rows] == ["jobs.a.de", "jobs.z.de"]

    def test_provenance_conservation(self):
        sites = [
            site("jobs.a.de", rank=10, trend=1.0, traffic=100.0),
            site("jobs.b.de", rank=20, trend=2.0, traffic=200.0),
            SiteRecord(url="jobs.c.de", country_code="DE"),
        ]
        kept, dropped = listwise_delete(sites)
        scored = normalize_and_score(kept)
        panel = build_panel(scored, sites, self.indicators())
        assert (panel.raw_count, panel.n) == (3, 2)
        assert panel.raw_count - panel.n == dropped

    def test_provenance_counts_derive_from_rows(self):
        rows = (PanelRow(url="jobs.a.de", country_code="DE", score=0.0, unemployment_rate=5.0),)
        panel = PanelDataset(rows=rows, raw_count=3)
        assert (panel.n, panel.raw_count) == (1, 3)
        with pytest.raises(ValueError, match="provenance"):
            PanelDataset(rows=rows, raw_count=0)

    def test_unknown_scored_url(self):
        with pytest.raises(ValueError, match="missing from the site listing"):
            build_panel([("jobs.q.de", 0.0)], [site("jobs.a.de")], self.indicators())


class TestDescribePanel:
    """The panel block of report.txt, which evaluation.format_report renders."""

    def report_for(self, n):
        return EvaluationReport(
            direction=Direction.SCORE_TO_RATE, n=n, correlation_rate=0.5, rmse=1.0, rae=0.9,
            kernel=Kernel(sigma_sq=1.0, theta=[1.0]), basis=BasisExpansion("const"),
            in_sample=False, per_fold=(),
        )

    def panel_from_rates(self, rates):
        rows = tuple(
            PanelRow(url=f"jobs.{i}.de", country_code="DE", score=float(i), unemployment_rate=r)
            for i, r in enumerate(rates)
        )
        return PanelDataset(rows=rows, raw_count=len(rows))

    def panel_block(self, panel, complete_sites=()):
        """The first block of report.txt as a {label: value} dict."""
        text = format_report(self.report_for(panel.n), panel, complete_sites)
        pairs = (line.rsplit("  ", 1) for line in text.split("\n\n")[0].splitlines())
        return {label.rstrip(): value for label, value in pairs}

    def test_rank_lines_not_applicable_without_sites(self):
        block = self.panel_block(self.panel_from_rates([7.7, 7.7, 9.0]))
        assert block["Average web site ranking"] == "n/a"
        assert block["Std. deviation of web site ranking"] == "n/a"

    def test_hand_computed_stats(self):
        block = self.panel_block(self.panel_from_rates([4.0, 6.0, 8.0, 10.0]))
        assert block["Average unemployment rate"] == "7.0000"
        assert block["Std. deviation of unemployment rate"] == "2.5820"

    def test_bundled_fixture_counts(self):
        records = ingest_sites(bundled_sites_path())
        kept, _ = listwise_delete(records)
        scored = normalize_and_score(kept)
        indicators = read_indicators(bundled_indicators_path())
        panel = build_panel(scored, records, indicators)
        block = self.panel_block(panel, complete_sites=kept)
        assert block["Number of web sites"] == "427"
        assert block["Number of web sites after listwise deletion"] == "382"
        ranks = np.array([float(r.rank) for r in kept])
        assert block["Average web site ranking"] == f"{ranks.mean():.1f}"
        assert block["Std. deviation of web site ranking"] == f"{ranks.std(ddof=1):.1f}"

    def test_row_count_mismatch_rejected(self):
        panel = self.panel_from_rates([4.0, 6.0, 8.0, 10.0])
        with pytest.raises(ValueError, match="report of 3 rows does not match a panel of 4"):
            format_report(self.report_for(3), panel)


class TestPanelCsv:
    def test_round_trip_full_precision(self, tmp_path, rng):
        rows = tuple(
            PanelRow(
                url=f"jobs.{i:02d}.de",
                country_code="DE",
                score=float(rng.standard_normal()),
                unemployment_rate=float(rng.uniform(0, 30)),
            )
            for i in range(10)
        )
        panel = PanelDataset(rows=rows, raw_count=10)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        restored = read_panel_csv(path)
        assert restored.rows == panel.rows

    def test_duplicate_url_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "url,country,score,unemployment_rate\n"
            "a.test,ZZ,0.0,4.0\nb.test,ZZ,1.0,5.0\na.test,ZZ,2.0,6.0\n",
            encoding="utf-8",
        )
        with pytest.raises(IntegrityError, match=r"duplicate url 'a.test' \(lines 2 and 4\)"):
            read_panel_csv(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            read_panel_csv(path)

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"url,country,score,unemployment_rate\na.test,ZZ,0.0,4.0\nb.test,ZZ,1.0,5\xff\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: line 3 is not valid UTF-8")):
            read_panel_csv(path)


# Each CSV reader, its header and three valid data rows.
READERS = {
    "sites": (
        ingest_sites,
        "url,country,rank,trend,traffic",
        ["jobs.a.de,DE,1,1.0,1.0", "jobs.b.de,DE,2,2.0,2.0", "jobs.c.fr,FR,3,3.0,3.0"],
    ),
    "indicators": (read_indicators, "country,unemployment_rate", ["DE,5.2", "FR,9.9", "AT,4.1"]),
    "panel": (
        read_panel_csv,
        "url,country,score,unemployment_rate",
        ["a.test,ZZ,0.0,4.0", "b.test,ZZ,1.0,5.0", "c.test,ZZ,2.0,6.0"],
    ),
}


@pytest.mark.parametrize("name", sorted(READERS))
class TestReadTable:
    def read(self, tmp_path, name, data: bytes):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        return READERS[name][0](path)

    def plain(self, name) -> str:
        _, header, rows = READERS[name]
        return "\n".join([header, *rows]) + "\n"

    def test_leading_byte_order_mark_is_dropped(self, tmp_path, name):
        expected = self.read(tmp_path, name, self.plain(name).encode())
        assert self.read(tmp_path, name, codecs.BOM_UTF8 + self.plain(name).encode()) == expected

    def test_invalid_byte_after_byte_order_mark_keeps_its_line(self, tmp_path, name):
        data = codecs.BOM_UTF8 + self.plain(name).encode()[:-1] + b"\xff\n"
        with pytest.raises(ParseError, match="line 4 is not valid UTF-8"):
            self.read(tmp_path, name, data)

    @pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_invalid_byte_counts_every_line_end(self, tmp_path, name, end):
        # csv.reader ends a line at \r\n, a bare \r or \n; an invalid byte
        # on line 3 is named as a bad cell on line 3 would be.
        _, header, rows = READERS[name]
        head, _, _ = rows[1].rpartition(",")
        with pytest.raises(ParseError, match="line 3: "):
            self.read(tmp_path, name, end.join([header, rows[0], f"{head},x", ""]).encode())
        data = end.join([header, rows[0], head + ","]).encode() + b"\xff" + end.encode()
        with pytest.raises(ParseError, match="line 3 is not valid UTF-8"):
            self.read(tmp_path, name, data)

    def test_blank_lines_are_skipped(self, tmp_path, name):
        _, header, rows = READERS[name]
        expected = self.read(tmp_path, name, self.plain(name).encode())
        before_header = "\n" + self.plain(name)
        for text in (f"{header}\n{rows[0]}\n\n{rows[1]}\n{rows[2]}\n\n", before_header):
            assert self.read(tmp_path, name, text.encode()) == expected

    def test_blank_lines_count_toward_line_numbers(self, tmp_path, name):
        _, header, rows = READERS[name]
        empty_cells = "," * (header.count(","))
        before_header = f"\n{header}\n{rows[0]}\n{empty_cells}\n"
        for text in (f"{header}\n{rows[0]}\n\n{empty_cells}\n", before_header):
            with pytest.raises(ParseError, match="line 4: "):
                self.read(tmp_path, name, text.encode())

    def test_quoted_cell_spanning_lines_counts_them(self, tmp_path, name):
        _, header, rows = READERS[name]
        expected = self.read(tmp_path, name, self.plain(name).encode())
        # The last cell of the first row starts with a quoted newline, which
        # the cell parsers strip, so the row reads as before but ends on line 3.
        head, _, last = rows[0].rpartition(",")
        spanning = f'{head},"\n{last}"'
        text = f"{header}\n{spanning}\n{rows[1]}\n{rows[2]}\n"
        assert self.read(tmp_path, name, text.encode()) == expected
        empty_cells = "," * (header.count(","))
        with pytest.raises(ParseError, match="line 4: "):
            self.read(tmp_path, name, f"{header}\n{spanning}\n{empty_cells}\n".encode())

    def test_repeated_key_names_both_lines(self, tmp_path, name):
        _, header, rows = READERS[name]
        key_name = header.split(",")[0]
        key = rows[0].split(",")[0]
        text = "\n".join([header, *rows[:2], rows[0]]) + "\n"
        message = re.escape(f"duplicate {key_name} '{key}' (lines 2 and 4)")
        with pytest.raises(IntegrityError, match=f"^{message}$"):
            self.read(tmp_path, name, text.encode())

    @pytest.mark.parametrize("data", [b"", b"\n\n"], ids=["empty", "blank-lines-only"])
    def test_file_without_header_fails_its_header_check(self, tmp_path, name, data):
        _, header, _ = READERS[name]
        with pytest.raises(ParseError, match=re.escape(f"expected header {header!r}, got None")):
            self.read(tmp_path, name, data)


class TestSiteRecordValidation:
    def test_rejects_uppercase_url(self):
        with pytest.raises(ValueError, match="lowercase"):
            SiteRecord(url="JOBS.example.de", country_code="DE")

    def test_rejects_bad_country(self):
        with pytest.raises(ValueError, match="country_code"):
            SiteRecord(url="jobs.a.de", country_code="de")

    def test_rejects_nonpositive_rank(self):
        with pytest.raises(ValueError, match="rank"):
            SiteRecord(url="jobs.a.de", country_code="DE", rank=0)

    @pytest.mark.parametrize(
        "name, value",
        [("rank", True), ("trend", True), ("traffic", True), ("trend", "x")],
        ids=["rank", "trend", "traffic", "trend-string"],
    )
    def test_rejects_boolean_signal(self, name, value):
        # Neither a bool nor a string is a signal value; math.isfinite raises
        # TypeError on a string.
        with pytest.raises(ValueError, match=f"{name} must be"):
            SiteRecord(url="jobs.a.de", country_code="DE", **{name: value})

    def test_rejects_rank_beyond_float_range(self):
        with pytest.raises(ValueError, match="rank is too large"):
            SiteRecord(url="jobs.a.de", country_code="DE", rank=10**400)
        # The largest finite float is still accepted as a rank.
        SiteRecord(url="jobs.a.de", country_code="DE", rank=int(1.7976931348623157e308))

    def test_rejects_negative_trend(self):
        with pytest.raises(ValueError, match="trend"):
            SiteRecord(url="jobs.a.de", country_code="DE", trend=-1.0)
