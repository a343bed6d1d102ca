import csv
import json
import math
import warnings

import numpy as np
import pytest

from jobsignal import TrainingSet, fit
from jobsignal.cli import _model_options, build_parser, main
from jobsignal.evaluation import evaluate_model, fit_panel, load_report, split_panel
from jobsignal.pipeline import read_panel_csv

SITES_BODY = """url,country,rank,trend,traffic
jobs.a.de,DE,100,60.0,30000
jobs.b.de,DE,2500,40.0,9000
jobs.c.fr,FR,400,75.0,22000
jobs.d.fr,FR,9000,20.0,1500
jobs.e.at,AT,700,55.0,12000
jobs.f.at,AT,3200,35.0,4000
jobs.g.nl,NL,150,70.0,28000
jobs.h.nl,NL,5100,25.0,2600
jobs.i.se,SE,900,50.0,10000
jobs.j.se,SE,100000,10.0,800
jobs.k.pl,PL,1200,45.0,7000
jobs.l.pl,PL,,30.0,3000
"""

INDICATORS_BODY = """country,unemployment_rate
DE,5.0
FR,9.8
AT,6.1
NL,4.4
SE,7.9
PL,11.2
"""


# Every complete site is in DE, so the rates are constant.
ONE_COUNTRY_SITES = """url,country,rank,trend,traffic
jobs.a.de,DE,100,60.0,30000
jobs.b.de,DE,2500,40.0,9000
jobs.c.de,DE,400,75.0,22000
jobs.d.de,DE,9000,20.0,1500
jobs.e.fr,FR,,75.0,22000
"""

BIG_RANK = "1" + "0" * 400  # an integer beyond the float range

# JSON that json.loads fails on with RecursionError or a bare ValueError.
UNPARSABLE_JSON = {
    "deep-nesting": b"[" * 100_000,
    "huge-integer": b'{"jobs.a.de": {"rank": 1' + b"0" * 4300 + b"}}",
}


BUNDLED_PANEL_BLOCK = """\
Number of web sites                          427
Number of web sites after listwise deletion  382
Average unemployment rate                    10.7050
Std. deviation of unemployment rate          4.7770
Average web site ranking                     5061031.0
Std. deviation of web site ranking           8450323.4"""


@pytest.fixture
def small_inputs(tmp_path):
    sites = tmp_path / "sites.csv"
    sites.write_text(SITES_BODY, encoding="utf-8")
    indicators = tmp_path / "indicators.csv"
    indicators.write_text(INDICATORS_BODY, encoding="utf-8")
    return sites, indicators


def run(args):
    return main([str(a) for a in args])


class TestPipelineCommand:
    def test_writes_all_artifacts(self, small_inputs, tmp_path):
        sites, indicators = small_inputs
        out = tmp_path / "out"
        rc = run(["pipeline", "--sites", sites, "--indicators", indicators, "--out", out])
        assert rc == 0
        assert sorted(path.name for path in out.iterdir()) == ["panel.csv", "report.json", "report.txt"]
        text = (out / "report.txt").read_text(encoding="utf-8")
        assert "Number of web sites" in text
        assert "12" in text and "11" in text  # raw and post-deletion counts

    def test_missing_sites_file_exit_2(self, tmp_path, capsys):
        rc = run(["pipeline", "--sites", tmp_path / "absent.csv", "--out", tmp_path / "o"])
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_runs_twice_byte_identical(self, small_inputs, tmp_path):
        sites, indicators = small_inputs
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["pipeline", "--sites", sites, "--indicators", indicators, "--out", out1]) == 0
        assert run(["pipeline", "--sites", sites, "--indicators", indicators, "--out", out2]) == 0
        for name in ("panel.csv", "report.json", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("extra", [[], ["--in-sample"]])
    @pytest.mark.parametrize("direction", ["score-to-rate", "rate-to-score"])
    def test_matches_separate_fit_and_evaluate(self, small_inputs, tmp_path, direction, extra):
        sites, indicators = small_inputs
        flags = ["--direction", direction, "--basis", "linear", *extra]
        pipe, staged = tmp_path / "pipe", tmp_path / "staged"
        assert run(["pipeline", "--sites", sites, "--indicators", indicators, *flags, "--out", pipe]) == 0
        assert run(["evaluate", "--panel", pipe / "panel.csv", *flags, "--out", staged]) == 0
        assert (pipe / "report.json").read_bytes() == (staged / "report.json").read_bytes()

    @pytest.mark.parametrize(
        "command, flags",
        [
            pytest.param(
                "pipeline", ["--direction", direction, "--basis", basis], id=f"{direction}-{basis}"
            )
            for direction in ("score-to-rate", "rate-to-score")
            for basis in ("const", "linear")
        ]
        # Rates repeat within a country, and on tied inputs a jitter of 0
        # starts the ladder at 1e-10: the report must carry the jitter used.
        + [
            pytest.param(
                "evaluate", ["--direction", "rate-to-score", "--jitter", "0"], id="tied-jitter-0"
            )
        ],
    )
    def test_verdict_files_rebuild_the_model(self, small_inputs, tmp_path, command, flags):
        sites, indicators = small_inputs
        out = tmp_path / "out"
        inputs = {
            "pipeline": ["--sites", sites, "--indicators", indicators],
            "evaluate": ["--panel", out / "panel.csv"],
        }[command]
        assert run(["score", "--records", sites, "--indicators", indicators, "--out", out]) == 0
        args = [command, *inputs, *flags, "--out", out]
        assert run(args) == 0
        report = load_report(out / "report.json")
        panel = read_panel_csv(out / "panel.csv")
        model = fit(TrainingSet(*split_panel(panel, report.direction)), report.basis, report.kernel)
        direction, basis, search = _model_options(build_parser().parse_args([str(a) for a in args]))
        expected = fit_panel(panel, direction, basis, search)
        assert model.kernel.jitter == expected.kernel.jitter == report.kernel.jitter
        if search.jitter == 0.0:
            assert report.kernel.jitter > 0.0
        for name in ("beta", "alpha", "chol"):
            assert np.array_equal(getattr(model, name), getattr(expected, name)), name
        assert evaluate_model(model, panel, direction).per_fold == report.per_fold

    def test_duplicate_url_exit_3(self, small_inputs, tmp_path):
        sites, indicators = small_inputs
        sites.write_text(
            "url,country,rank,trend,traffic\njobs.a.de,DE,1,1.0,1.0\njobs.a.de,DE,2,2.0,2.0\n",
            encoding="utf-8",
        )
        rc = run(["pipeline", "--sites", sites, "--indicators", indicators, "--out", tmp_path / "o"])
        assert rc == 3

    def test_missing_country_exit_3(self, small_inputs, tmp_path, capsys):
        sites, indicators = small_inputs
        indicators.write_text("country,unemployment_rate\nDE,5.0\n", encoding="utf-8")
        rc = run(["pipeline", "--sites", sites, "--indicators", indicators, "--out", tmp_path / "o"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "FR" in err and "score" in err  # offending country and stage

    @pytest.mark.parametrize(
        "stage, code", [("ingest", 2), ("fetch", 2), ("score", 3), ("fit", 2), ("evaluate", 5)]
    )
    def test_failure_names_its_stage(self, small_inputs, tmp_path, capsys, stage, code):
        sites, indicators = small_inputs
        extra = []
        if stage == "ingest":
            sites = tmp_path / "absent.csv"
        elif stage == "fetch":
            extra = ["--fetch-fixture", tmp_path / "absent.json"]
        elif stage == "score":
            indicators.write_text("country,unemployment_rate\nDE,5.0\n", encoding="utf-8")
        elif stage == "fit":
            extra = ["--theta-grid", "oops"]
        else:  # constant rates leave the correlation undefined
            sites.write_text(ONE_COUNTRY_SITES, encoding="utf-8")
        args = ["pipeline", "--sites", sites, "--indicators", indicators, *extra]
        assert run([*args, "--out", tmp_path / "o"]) == code
        first, second = capsys.readouterr().err.splitlines()
        prefix = f"pipeline failed at stage {stage}: "
        assert first.startswith(prefix)
        assert second == "error: " + first[len(prefix):]

    def test_bundled_fixture_is_default(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["pipeline", "--out", out])
        assert rc == 0
        text = (out / "report.txt").read_text(encoding="utf-8")
        # The panel block depends on counts, rates and ranks only, not on the fit.
        assert text.startswith(BUNDLED_PANEL_BLOCK + "\n\nPrediction direction  score-to-rate\n")
        for label in ("Correlation rate", "RMSE", "RAE"):
            assert label in text

    def test_direction_flag_round_trip(self, small_inputs, tmp_path):
        sites, indicators = small_inputs
        out = tmp_path / "out"
        rc = run([
            "pipeline", "--sites", sites, "--indicators", indicators,
            "--direction", "rate-to-score", "--out", out,
        ])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["direction"] == "rate_to_score"

    def test_fetch_fixture_overrides_signals(self, small_inputs, tmp_path):
        sites, indicators = small_inputs
        fixture = {
            f"jobs.{c}.{cc}": {"rank": 10 * (i + 1), "trend": 5.0 * (i + 1), "traffic": 100.0 * (i + 1)}
            for i, (c, cc) in enumerate(
                [("a", "de"), ("b", "de"), ("c", "fr"), ("d", "fr"), ("e", "at"), ("f", "at")]
            )
        }
        fixture_path = tmp_path / "fixture.json"
        fixture_path.write_text(json.dumps(fixture), encoding="utf-8")
        out = tmp_path / "out"
        rc = run([
            "pipeline", "--sites", sites, "--indicators", indicators,
            "--fetch-fixture", fixture_path, "--out", out,
        ])
        assert rc == 0
        panel = (out / "panel.csv").read_text(encoding="utf-8")
        # Only the six urls in the fixture have complete signals now.
        assert len(panel.strip().splitlines()) == 1 + 6
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "Number of web sites" in report

    @pytest.mark.parametrize("case", list(UNPARSABLE_JSON))
    def test_unparsable_fetch_fixture_exit_2(self, small_inputs, tmp_path, capsys, case):
        sites, indicators = small_inputs
        fixture_path = tmp_path / "fixture.json"
        fixture_path.write_bytes(UNPARSABLE_JSON[case])
        rc = run([
            "pipeline", "--sites", sites, "--indicators", indicators,
            "--fetch-fixture", fixture_path, "--out", tmp_path / "o",
        ])
        assert rc == 2
        assert f"replay fixture is not valid JSON: {fixture_path}" in capsys.readouterr().err

    def test_rank_beyond_float_range_exit_2(self, small_inputs, tmp_path, capsys):
        sites, indicators = small_inputs
        sites.write_text(SITES_BODY.replace("jobs.b.de,DE,2500,", f"jobs.b.de,DE,{BIG_RANK},"), encoding="utf-8")
        rc = run(["pipeline", "--sites", sites, "--indicators", indicators, "--out", tmp_path / "o"])
        assert rc == 2
        assert "line 3: rank is too large to convert to a float" in capsys.readouterr().err

    def test_fetched_rank_beyond_float_range_becomes_missing(self, small_inputs, tmp_path, caplog):
        sites, indicators = small_inputs
        fixture = {}
        for line in SITES_BODY.splitlines()[1:]:
            url, _, rank, trend, traffic = line.split(",")
            fixture[url] = {"rank": int(rank or 1), "trend": float(trend), "traffic": float(traffic)}
        fixture["jobs.a.de"]["rank"] = int(BIG_RANK)
        fixture_path = tmp_path / "fixture.json"
        fixture_path.write_text(json.dumps(fixture), encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="jobsignal.pipeline"):
            rc = run([
                "pipeline", "--sites", sites, "--indicators", indicators,
                "--fetch-fixture", fixture_path, "--out", out,
            ])
        assert rc == 0
        assert caplog.text.count("discarding unusable rank=") == 1
        panel = (out / "panel.csv").read_text(encoding="utf-8")
        assert "jobs.a.de" not in panel
        assert len(panel.strip().splitlines()) == 1 + 11


class TestStagedCommands:
    @pytest.mark.parametrize("case", list(UNPARSABLE_JSON))
    def test_unparsable_records_exit_2(self, tmp_path, capsys, case):
        # --records takes a site listing CSV; a JSON file fails its header check.
        records = tmp_path / "records.json"
        records.write_bytes(UNPARSABLE_JSON[case])
        assert run(["clean", "--records", records, "--out", tmp_path / "o"]) == 2
        assert f"{records}: expected header 'url,country,rank,trend,traffic'" in capsys.readouterr().err

    def test_missing_records_exit_2(self, tmp_path, capsys):
        records = tmp_path / "absent.csv"
        assert run(["clean", "--records", records, "--out", tmp_path / "o"]) == 2
        assert f"not found: {records}" in capsys.readouterr().err

    def test_ingest_clean_score_fit_evaluate_chain(self, small_inputs, tmp_path):
        sites, indicators = small_inputs
        work = tmp_path / "work"
        assert run(["ingest", "--sites", sites, "--out", work]) == 0
        records = (work / "records.csv").read_text(encoding="utf-8").splitlines()
        assert len(records) == 1 + 12

        assert run(["clean", "--records", work / "records.csv", "--out", work]) == 0
        cleaned = (work / "records_clean.csv").read_text(encoding="utf-8").splitlines()
        assert cleaned == [line for line in records if not line.startswith("jobs.l.pl,")]

        assert run([
            "score", "--records", work / "records.csv", "--indicators", indicators, "--out", work,
        ]) == 0
        panel_lines = (work / "panel.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(panel_lines) == 1 + 11

        # A raw listing is a valid records file too.
        raw = tmp_path / "raw"
        assert run(["score", "--records", sites, "--indicators", indicators, "--out", raw]) == 0
        assert (raw / "panel.csv").read_bytes() == (work / "panel.csv").read_bytes()

        assert run(["evaluate", "--panel", work / "panel.csv", "--out", work]) == 0
        report = json.loads((work / "report.json").read_text(encoding="utf-8"))
        assert report["n"] == 11
        # panel.csv carries no ranks.
        text = (work / "report.txt").read_text(encoding="utf-8")
        assert "Average web site ranking                     n/a\n" in text

    def test_staged_chain_matches_pipeline(self, small_inputs, tmp_path):
        sites, indicators = small_inputs
        fixture = {
            "jobs.a.de": {"rank": 3, "trend": 0.1 + 0.2, "traffic": 2.0 / 3.0},
            "JOBS.B.DE": {"rank": 40.0, "trend": 5e-324, "traffic": 9.876543210987654e120},
            "jobs.c.fr": {"rank": 7, "trend": 2.2250738585072e-308, "traffic": 123456.789},
            "jobs.d.fr": {"rank": 2.5, "trend": 1.0, "traffic": 1.0},
            "jobs.e.at": {"rank": 9, "trend": -1, "traffic": "x"},
            "Jobs.F.At": {"rank": 1e6, "trend": 1e-300, "traffic": 3.141592653589793},
            "jobs.g.nl": {"rank": 12, "trend": 42.0, "traffic": 1e-5},
            "jobs.h.nl": {"rank": 5, "trend": 0.5, "traffic": 9.999999999999999e22},
        }
        fixture_path = tmp_path / "fixture.json"
        fixture_path.write_text(json.dumps(fixture), encoding="utf-8")
        pipe, work = tmp_path / "pipe", tmp_path / "work"
        assert run([
            "pipeline", "--sites", sites, "--indicators", indicators,
            "--fetch-fixture", fixture_path, "--out", pipe,
        ]) == 0
        assert run(["ingest", "--sites", sites, "--fetch-fixture", fixture_path, "--out", work]) == 0
        assert run(["clean", "--records", work / "records.csv", "--out", work]) == 0
        assert run([
            "score", "--records", work / "records_clean.csv", "--indicators", indicators,
            "--out", work,
        ]) == 0
        assert run(["evaluate", "--panel", work / "panel.csv", "--out", work]) == 0
        for name in ("panel.csv", "report.json"):
            assert (work / name).read_bytes() == (pipe / name).read_bytes(), name

    def test_ingest_fetch_fixture_edge_cases(self, small_inputs, tmp_path, caplog):
        sites, _ = small_inputs
        fixture = {
            "jobs.k.pl": {"country": "DE", "rank": 5, "trend": 1.0, "traffic": 2.0},
            "jobs.a.de": {"country": "ZZ", "rank": 10, "trend": 5.5, "traffic": 100},
            "JOBS.C.FR": {"country": "fr", "rank": 30.0, "trend": 7, "traffic": "250.5"},
            "jobs.d.fr": {"country": 5, "rank": 2.7, "trend": math.inf, "traffic": 400},
            "jobs.e.at": {"country": "NL", "rank": True, "trend": -1, "traffic": "abc"},
        }
        fixture_path = tmp_path / "fixture.json"
        fixture_path.write_text(json.dumps(fixture), encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="jobsignal.pipeline"):
            rc = run(["ingest", "--sites", sites, "--fetch-fixture", fixture_path, "--out", out])
        assert rc == 0
        with open(out / "records.csv", newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        # Ordered by url; only a valid, non-ZZ fixture country replaces the file's.
        assert [(r["url"], r["country"]) for r in records] == [
            ("jobs.a.de", "DE"), ("jobs.b.de", "DE"), ("jobs.c.fr", "FR"), ("jobs.d.fr", "FR"),
            ("jobs.e.at", "NL"), ("jobs.f.at", "AT"), ("jobs.g.nl", "NL"), ("jobs.h.nl", "NL"),
            ("jobs.i.se", "SE"), ("jobs.j.se", "SE"), ("jobs.k.pl", "DE"), ("jobs.l.pl", "PL"),
        ]
        by_url = {r["url"]: r for r in records}
        assert by_url["jobs.c.fr"] == {
            "url": "jobs.c.fr", "country": "FR", "rank": "30", "trend": "7.0", "traffic": "250.5"
        }
        assert by_url["jobs.b.de"] == {
            "url": "jobs.b.de", "country": "DE", "rank": "", "trend": "", "traffic": ""
        }
        assert caplog.text.count("discarding unusable") == 5

    @pytest.mark.parametrize(
        "text",
        [
            '{"JOBS.A.DE": {"rank": 5}, "jobs.a.de": {"rank": 9}}',
            '{"jobs.a.de": {"rank": 5}, "jobs.a.de": {"rank": 9}}',
        ],
        ids=["case-variant", "verbatim"],
    )
    def test_ingest_fixture_naming_a_url_twice_exit_3(self, small_inputs, tmp_path, capsys, text):
        sites, _ = small_inputs
        fixture = tmp_path / "fixture.json"
        fixture.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run(["ingest", "--sites", sites, "--fetch-fixture", fixture, "--out", out]) == 3
        assert "replay fixture names 'jobs.a.de' twice" in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    def test_long_wrong_header_is_echoed_in_part(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("x" * 100_000 + "\n", encoding="utf-8")
        assert run(["clean", "--records", records, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert f"{records}: expected header 'url,country,rank,trend,traffic', got ['xxx" in err
        assert "xxx..." in err
        assert len(err.encode("utf-8")) < 1024

    def test_score_duplicate_records_exit_3(self, small_inputs, tmp_path, capsys):
        _, indicators = small_inputs
        records = tmp_path / "dup.csv"
        records.write_text(
            "url,country,rank,trend,traffic\n"
            "jobs.a.de,DE,1,1.0,1.0\njobs.b.de,DE,2,1.0,1.0\njobs.a.de,DE,1,1.0,1.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        rc = run(["score", "--records", records, "--indicators", indicators, "--out", out])
        assert rc == 3
        assert "duplicate url 'jobs.a.de' (lines 2 and 4)" in capsys.readouterr().err
        assert not (out / "panel.csv").exists()

    def test_score_overflowing_signal_std_exit_3(self, small_inputs, tmp_path, capsys):
        _, indicators = small_inputs
        records = tmp_path / "big.csv"
        records.write_text(
            "url,country,rank,trend,traffic\n"
            "jobs.a.de,DE,1,1e200,1.0\njobs.b.de,DE,2,2e200,2.0\n"
            "jobs.c.fr,FR,3,3e200,3.0\njobs.d.fr,FR,4,5e200,4.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        rc = run(["score", "--records", records, "--indicators", indicators, "--out", out])
        assert rc == 3
        assert "signal column 'trend'" in capsys.readouterr().err
        assert not (out / "panel.csv").exists()

    def test_duplicate_panel_url_exit_3(self, tmp_path, capsys):
        synth = tmp_path / "synth"
        assert run([
            "synth", "--n", 40, "--coupling", 0.8, "--noise", 0.3, "--seed", 1, "--out", synth,
        ]) == 0
        lines = (synth / "panel.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        panel = tmp_path / "panel.csv"
        panel.write_text("".join(lines + lines[1:6]), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["evaluate", "--panel", panel, "--out", out]) == 3
        url = lines[1].split(",")[0]
        assert f"duplicate url {url!r} (lines 2 and 42)" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_fit_error_exit_4(self, tmp_path, capsys):
        # Every complete site is in DE: with rates as inputs the constant and
        # linear trend columns are collinear, so the fit step fails on its own,
        # before evaluation, and the pipeline names that step.
        sites = tmp_path / "sites.csv"
        sites.write_text(ONE_COUNTRY_SITES, encoding="utf-8")
        indicators = tmp_path / "indicators.csv"
        indicators.write_text(INDICATORS_BODY, encoding="utf-8")
        rc = run([
            "pipeline", "--sites", sites, "--indicators", indicators,
            "--direction", "rate-to-score", "--basis", "linear", "--out", tmp_path / "o",
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("pipeline failed at stage fit: no admissible theta grid cell")
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("mode", [[], ["--in-sample"]])
    def test_failed_search_in_evaluate_exit_4(self, tmp_path, capsys, mode):
        # Identical scores make every cell's linear trend singular: the search
        # itself fails, which is a fit error in either evaluation mode.
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "url,country,score,unemployment_rate\n"
            "a.test,ZZ,1.0,4.0\nb.test,ZZ,1.0,5.0\nc.test,ZZ,1.0,6.0\n",
            encoding="utf-8",
        )
        rc = run(["evaluate", "--panel", panel, "--basis", "linear", "--out", tmp_path / "o", *mode])
        assert rc == 4
        assert "no admissible theta grid cell" in capsys.readouterr().err

    def test_evaluate_error_exit_5(self, tmp_path):
        # Constant rates leave the correlation undefined.
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "url,country,score,unemployment_rate\n"
            "a.test,ZZ,0.0,7.0\nb.test,ZZ,1.0,7.0\nc.test,ZZ,2.0,7.0\nd.test,ZZ,3.0,7.0\n",
            encoding="utf-8",
        )
        rc = run(["evaluate", "--panel", panel, "--out", tmp_path / "o"])
        assert rc == 5

    def test_degenerate_fold_exit_5(self, tmp_path, capsys):
        # Without d.test the inputs are all 0.0 and a linear trend is singular.
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "url,country,score,unemployment_rate\n"
            "a.test,ZZ,0.0,1.0\nb.test,ZZ,0.0,3.0\nc.test,ZZ,0.0,2.0\nd.test,ZZ,1.0,4.0\n",
            encoding="utf-8",
        )
        rc = run(["evaluate", "--panel", panel, "--basis", "linear", "--out", tmp_path / "o"])
        assert rc == 5
        assert "fold 3 (d.test) failed" in capsys.readouterr().err

    def test_bad_theta_grid_exit_2(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "url,country,score,unemployment_rate\n"
            "a.test,ZZ,0.0,4.0\nb.test,ZZ,1.0,5.0\nc.test,ZZ,2.0,6.0\n",
            encoding="utf-8",
        )
        assert run(["evaluate", "--panel", panel, "--theta-grid", "oops", "--out", tmp_path / "o"]) == 2
        assert run(["evaluate", "--panel", panel, "--theta-grid", "5:1:4", "--out", tmp_path / "o"]) == 2
        capsys.readouterr()
        for grid in ("0.1:inf:13", "0.1:1e400:3"):
            # Non-finite bounds are rejected before the grid is built, so
            # numpy never gets to warn.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = run(["evaluate", "--panel", panel, "--theta-grid", grid, "--out", tmp_path / "o"])
            assert rc == 2
            assert "theta grid" in capsys.readouterr().err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_bad_jitter_exit_2(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "url,country,score,unemployment_rate\n"
            "a.test,ZZ,0.0,4.0\nb.test,ZZ,1.0,5.0\nc.test,ZZ,2.0,6.0\n",
            encoding="utf-8",
        )
        for value in ("nan", "inf", "-0.5"):
            rc = run(["evaluate", "--panel", panel, "--jitter", value, "--out", tmp_path / "o"])
            assert rc == 2
            assert "jitter" in capsys.readouterr().err

    def test_non_utf8_panel_exit_2_names_file(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_bytes(b"url,country,score,unemployment_rate\na.test,ZZ,0.0,4.0\xff\n")
        assert run(["evaluate", "--panel", panel, "--out", tmp_path / "o"]) == 2
        assert f"error: {panel}: line 2 is not valid UTF-8" in capsys.readouterr().err


class TestUnusableOut:
    """An --out that cannot be written exits 2 with one error line naming the path."""

    def check(self, capsys, args, path):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(str(path)) in err

    def test_synth_out_is_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        self.check(capsys, ["synth", "--n", 5, "--out", afile], afile)

    def test_pipeline_out_is_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        self.check(capsys, ["pipeline", "--out", afile], afile)

    def test_evaluate_report_path_is_a_directory(self, tmp_path, capsys):
        assert run(["synth", "--n", 5, "--out", tmp_path / "s"]) == 0
        out = tmp_path / "o-dir"
        (out / "report.json").mkdir(parents=True)
        args = ["evaluate", "--panel", tmp_path / "s" / "panel.csv", "--out", out]
        self.check(capsys, args, out / "report.json")

    def test_evaluate_report_txt_is_a_directory_leaves_no_report_json(self, tmp_path, capsys):
        assert run(["synth", "--n", 5, "--out", tmp_path / "s"]) == 0
        out = tmp_path / "o-dir"
        (out / "report.txt").mkdir(parents=True)
        args = ["evaluate", "--panel", tmp_path / "s" / "panel.csv", "--out", out]
        self.check(capsys, args, out / "report.txt")
        assert not (out / "report.json").exists()


class TestSynthCommand:
    def test_minimum_rows(self, tmp_path):
        out = tmp_path / "out"
        assert run(["synth", "--n", 3, "--out", out]) == 0
        lines = (out / "panel.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1 + 3

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        assert run(["synth", "--n", 2, "--out", tmp_path / "o"]) == 2
        assert run(["synth", "--n", 5, "--coupling", 1.5, "--out", tmp_path / "o"]) == 2
        for noise in (-0.1, "nan", "inf"):
            capsys.readouterr()
            assert run(["synth", "--n", 5, "--noise", noise, "--out", tmp_path / "o"]) == 2
            assert "noise" in capsys.readouterr().err
        assert run(["synth", "--n", 5, "--seed", -1, "--out", tmp_path / "o"]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err

    def test_deterministic_per_seed(self, tmp_path):
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run(["synth", "--n", 10, "--seed", 5, "--out", out1])
        run(["synth", "--n", 10, "--seed", 5, "--out", out2])
        run(["synth", "--n", 10, "--seed", 6, "--out", out3])
        assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()
        assert (out1 / "panel.csv").read_bytes() != (out3 / "panel.csv").read_bytes()

    def test_synth_feeds_evaluate(self, tmp_path):
        out = tmp_path / "out"
        assert run(["synth", "--n", 20, "--coupling", 1.0, "--noise", 0, "--out", out]) == 0
        assert run(["evaluate", "--panel", out / "panel.csv", "--basis", "linear", "--out", out]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["correlation_rate"] > 0.999
        assert report["rae"] < 0.01


class TestHelpParity:
    CANONICAL_FLAGS = [
        "--sites",
        "--indicators",
        "--direction",
        "--basis",
        "--theta-grid",
        "--jitter",
        "--out",
        "--seed",
        "--in-sample",
    ]

    def collect_subparser_options(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, type(parser._subparsers._group_actions[0]))
        )
        options = {}
        for name, sub in subparsers.choices.items():
            flags = set()
            for action in sub._actions:
                flags.update(action.option_strings)
            options[name] = flags
        return options

    def test_every_canonical_flag_documented(self):
        options = self.collect_subparser_options()
        all_flags = set().union(*options.values())
        for flag in self.CANONICAL_FLAGS:
            assert flag in all_flags, f"{flag} not consumed by any subcommand"

    def test_help_text_lists_consumed_flags(self):
        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0]
        for name, sub in subparsers.choices.items():
            help_text = sub.format_help()
            for action in sub._actions:
                for option in action.option_strings:
                    assert option in help_text, f"{name}: {option} missing from --help"

    def test_no_undocumented_configuration(self):
        # Every run-configuration field maps to exactly the documented flags;
        # nothing is consumed from the environment.
        options = self.collect_subparser_options()
        expected_extra = {"--records", "--panel", "--fetch-fixture", "--n", "--coupling", "--noise", "-h", "--help", "--version"}
        all_flags = set().union(*options.values())
        unexpected = all_flags - set(self.CANONICAL_FLAGS) - expected_extra
        assert not unexpected, f"undocumented flags: {unexpected}"
