import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from jobsignal import (
    BasisExpansion,
    Direction,
    Kernel,
    TrainingSet,
    __version__,
    fit,
    fit_hyperparameters,
)
from jobsignal import evaluation, gpr, synth
from jobsignal.cli import _model_options, build_parser, main
from jobsignal.evaluation import evaluate_model, split_panel
from jobsignal.pipeline import ingest_sites, read_panel_csv

SRC = Path(__file__).resolve().parent.parent / "src"

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


# A row that opens a quote that never closes, and then more text than csv's
# field size limit (131,072 characters) lets one cell hold.
STRAY_QUOTE_TAIL = "".join(f"jobs.s{i}.de,DE,{i + 1},12.5,1000.25\n" for i in range(5000))
FIELD_LIMIT = "field larger than field limit (131072)"
# A quote opened on line 2 swallows lines 3-5 into that row's third cell.
STRAY_QUOTE_LISTING = (
    "url,country,rank,trend,traffic\n"
    'jobs.a.de,DE,"1,1.0,1.0\n'
    "jobs.b.de,DE,2,1.0,1.0\njobs.c.de,DE,3,1.0,1.0\njobs.d.de,DE,4,1.0,1.0"
)

SMALL_PANEL = (
    "url,country,score,unemployment_rate\n"
    "a.test,ZZ,0.0,4.0\nb.test,ZZ,1.0,5.0\nc.test,ZZ,2.0,6.0\n"
)


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
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        kernel = Kernel(**doc["kernel"])
        panel = read_panel_csv(out / "panel.csv")
        training = TrainingSet(*split_panel(panel, Direction(doc["direction"])))
        model = fit(training, BasisExpansion(doc["basis"]), kernel)
        direction, basis, search = _model_options(build_parser().parse_args([str(a) for a in args]))
        expected = fit_hyperparameters(TrainingSet(*split_panel(panel, direction)), basis, search)
        assert model.kernel.jitter == expected.kernel.jitter == kernel.jitter
        if search.jitter == 0.0:
            assert kernel.jitter > 0.0
        for name in ("beta", "alpha"):
            assert np.array_equal(getattr(model, name), getattr(expected, name)), name
        assert type(model.factor) is type(expected.factor)
        for name, value in vars(model.factor).items():
            assert np.array_equal(value, getattr(expected.factor, name)), name
        per_fold = evaluate_model(model, panel, direction).per_fold
        assert per_fold == tuple(tuple(pair) for pair in doc["per_fold"])

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
        "stage, code", [("ingest", 2), ("score", 3), ("fit", 2), ("evaluate", 5)]
    )
    def test_failure_names_its_stage(self, small_inputs, tmp_path, capsys, stage, code):
        sites, indicators = small_inputs
        extra = []
        if stage == "ingest":
            sites = tmp_path / "absent.csv"
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

    def test_rank_beyond_float_range_exit_2(self, small_inputs, tmp_path, capsys):
        sites, indicators = small_inputs
        sites.write_text(SITES_BODY.replace("jobs.b.de,DE,2500,", f"jobs.b.de,DE,{BIG_RANK},"), encoding="utf-8")
        rc = run(["pipeline", "--sites", sites, "--indicators", indicators, "--out", tmp_path / "o"])
        assert rc == 2
        assert "line 3: rank is too large to convert to a float" in capsys.readouterr().err

class TestOneVerdictPath:
    """evaluate and pipeline reach their report through one evaluation.evaluate call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = evaluation.evaluate

        def spy(*args, **kwargs):
            calls.append(args[0].n)
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate", spy)
        return calls

    def test_evaluate_and_pipeline_each_call_evaluate_once(self, small_inputs, tmp_path, calls):
        sites, indicators = small_inputs
        assert run(["score", "--records", sites, "--indicators", indicators, "--out", tmp_path]) == 0
        assert calls == []
        assert run(["evaluate", "--panel", tmp_path / "panel.csv", "--out", tmp_path]) == 0
        assert calls == [11]
        args = ["pipeline", "--sites", sites, "--indicators", indicators, "--in-sample"]
        assert run([*args, "--out", tmp_path / "pipe"]) == 0
        assert calls == [11, 11]

    def test_pipeline_verbose_logs_both_paths_and_the_selected_cell(self, small_inputs, tmp_path, caplog):
        sites, indicators = small_inputs
        args = ["pipeline", "--sites", sites, "--indicators", indicators, "-v", "--out", tmp_path]
        assert run(args) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        kernel = report["kernel"]
        assert [r.getMessage() for r in caplog.records if r.name == "jobsignal.cli"] == [
            f"panel of 11 rows -> {tmp_path / 'panel.csv'}",
            f"selected theta={kernel['theta'][0]:g}, sigma_sq={kernel['sigma_sq']:.3g}, "
            f"jitter={kernel['jitter']:g}",
            f"report -> {tmp_path / 'report.json'}",
            "pipeline complete: 12 raw -> 11 clean rows",
        ]


class TestStagedCommands:
    @pytest.mark.parametrize("case", list(UNPARSABLE_JSON))
    def test_unparsable_records_exit_2(self, small_inputs, tmp_path, capsys, case):
        # --records takes a site listing CSV; a JSON file fails its header check.
        _, indicators = small_inputs
        records = tmp_path / "records.json"
        records.write_bytes(UNPARSABLE_JSON[case])
        args = ["score", "--records", records, "--indicators", indicators]
        assert run([*args, "--out", tmp_path / "o"]) == 2
        assert f"{records}: expected header 'url,country,rank,trend,traffic'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, row, message",
        [
            ("sites", "jobs.m.pl,PL,1,1.0", "line 14: expected 5 cells, got 4"),
            ("indicators", "de,5.0", "line 8: country_code must be 2 uppercase letters: 'de'"),
            ("panel", ",ZZ,3.0,7.0", "line 5: url must be non-empty"),
            ("panel", "d.test,zz,3.0,7.0", "line 5: country_code must be 2 uppercase letters: 'zz'"),
            ("panel", "d.test,ZZ,nan,7.0", "line 5: panel rows must not contain missing values"),
            ("sites", 'jobs.m.pl,PL,"1,1.0,1.0\n' + STRAY_QUOTE_TAIL, "{path}: line 14: " + FIELD_LIMIT),
            ("indicators", 'IT,"5.0\n' + STRAY_QUOTE_TAIL, "{path}: line 8: " + FIELD_LIMIT),
            ("panel", 'd.test,ZZ,"3.0,7.0\n' + STRAY_QUOTE_TAIL, "{path}: line 5: " + FIELD_LIMIT),
            ("listing", STRAY_QUOTE_LISTING, "line 2: expected 5 cells, got 3"),
        ],
        ids=["sites-short-row", "indicators-lowercase-country", "panel-empty-url",
             "panel-lowercase-country", "panel-non-finite-score",
             "sites-stray-quote", "indicators-stray-quote", "panel-stray-quote",
             "sites-stray-quote-short-file"],
    )
    def test_unreadable_row_names_its_line_exit_2(
        self, small_inputs, tmp_path, capsys, name, row, message
    ):
        sites, indicators = small_inputs
        panel = tmp_path / "panel.csv"
        panel.write_text(SMALL_PANEL, encoding="utf-8")
        # A row is appended to its file; a listing replaces the sites file.
        path = {"sites": sites, "listing": sites, "indicators": indicators, "panel": panel}[name]
        head = "" if name == "listing" else path.read_text(encoding="utf-8")
        path.write_text(head + row + "\n", encoding="utf-8")
        if name == "panel":
            args = ["evaluate", "--panel", panel]
        else:
            args = ["score", "--records", sites, "--indicators", indicators]
        assert run([*args, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    def test_verbose_logs_each_theta_cell(self, tmp_path, caplog):
        # -v sets the jobsignal loggers to DEBUG for one run: the search logs
        # how it computed each cell, and the next run without -v logs nothing.
        assert run(["synth", "--n", "300", "--coupling", "0.7", "--noise", "0.5", "--out", tmp_path]) == 0
        args = ["evaluate", "--panel", tmp_path / "panel.csv", "--jitter", "1e-4", "--in-sample"]
        assert run([*args, "-v", "--out", tmp_path / "v"]) == 0
        cells = [r.getMessage() for r in caplog.records if r.name == "jobsignal.gpr"]
        assert len(cells) == 13
        assert all(re.fullmatch(r"theta=[0-9.]+: (dense|low-rank, rank \d+)", m) for m in cells)
        assert any("low-rank" in m for m in cells)
        assert any(r.name == "jobsignal.cli" and r.levelname == "INFO" for r in caplog.records)
        # The selected cell follows the per-cell lines, in a form CI's counts of those miss.
        assert [r.name for r in caplog.records] == ["jobsignal.gpr"] * 13 + ["jobsignal.cli"] * 2
        selected = caplog.records[13].getMessage()
        assert re.fullmatch(r"selected theta=[0-9.e+-]+, sigma_sq=[0-9.e+-]+, jitter=0\.0001", selected)
        assert ": low-rank, rank " not in selected and not selected.endswith(": dense")
        caplog.clear()
        assert run([*args, "--out", tmp_path / "quiet"]) == 0
        assert caplog.records == []
        assert (tmp_path / "v" / "report.json").read_bytes() == (tmp_path / "quiet" / "report.json").read_bytes()

    def test_missing_records_exit_2(self, small_inputs, tmp_path, capsys):
        _, indicators = small_inputs
        records = tmp_path / "absent.csv"
        args = ["score", "--records", records, "--indicators", indicators]
        assert run([*args, "--out", tmp_path / "o"]) == 2
        assert f"not found: {records}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--sites", "sites.csv", "--out", "o"],
            ["clean", "--records", "sites.csv", "--out", "o"],
            ["fit", "--panel", "panel.csv", "--out", "o"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_removed_command_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"invalid choice: {argv[0]!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_score_evaluate_chain(self, small_inputs, tmp_path):
        sites, indicators = small_inputs
        work = tmp_path / "work"
        assert run(["score", "--records", sites, "--indicators", indicators, "--out", work]) == 0
        panel_lines = (work / "panel.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(panel_lines) == 1 + 11

        # score deletes the incomplete jobs.l.pl itself: a listing without it
        # gives the same panel.
        complete = tmp_path / "complete.csv"
        complete.write_text(SITES_BODY.replace("jobs.l.pl,PL,,30.0,3000\n", ""), encoding="utf-8")
        assert len(ingest_sites(complete)) == 11
        deleted = tmp_path / "deleted"
        assert run(["score", "--records", complete, "--indicators", indicators, "--out", deleted]) == 0
        assert (deleted / "panel.csv").read_bytes() == (work / "panel.csv").read_bytes()

        assert run(["evaluate", "--panel", work / "panel.csv", "--out", work]) == 0
        report = json.loads((work / "report.json").read_text(encoding="utf-8"))
        assert report["n"] == 11
        # panel.csv carries no ranks.
        text = (work / "report.txt").read_text(encoding="utf-8")
        assert "Average web site ranking                     n/a\n" in text

    def test_staged_chain_matches_pipeline(self, small_inputs, tmp_path):
        sites, indicators = small_inputs
        # Edge floats and mixed-case urls, written as the listing's own cells.
        edge_rows = {
            "jobs.a.de": f"jobs.a.de,DE,3,{0.1 + 0.2!r},{2.0 / 3.0!r}",
            "jobs.b.de": "JOBS.B.DE,DE,40,5e-324,9.876543210987654e120",
            "jobs.c.fr": "jobs.c.fr,FR,7,2.2250738585072e-308,123456.789",
            "jobs.d.fr": "jobs.d.fr,FR,9000,1.0,1.0",
            "jobs.e.at": "jobs.e.at,AT,9,55.0,12000",
            "jobs.f.at": "Jobs.F.At,AT,1000000,1e-300,3.141592653589793",
            "jobs.g.nl": "jobs.g.nl,NL,12,42.0,1e-5",
            "jobs.h.nl": "jobs.h.nl,NL,5,0.5,9.999999999999999e22",
        }
        lines = [edge_rows.get(line.split(",")[0], line) for line in SITES_BODY.splitlines()]
        sites.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pipe, work = tmp_path / "pipe", tmp_path / "work"
        assert run(["pipeline", "--sites", sites, "--indicators", indicators, "--out", pipe]) == 0
        assert run(["score", "--records", sites, "--indicators", indicators, "--out", work]) == 0
        assert run(["evaluate", "--panel", work / "panel.csv", "--out", work]) == 0
        for name in ("panel.csv", "report.json"):
            assert (work / name).read_bytes() == (pipe / name).read_bytes(), name

        # The same listing without its incomplete row gives the same panel.
        complete = tmp_path / "complete.csv"
        complete.write_text(
            "\n".join(line for line in lines if not line.startswith("jobs.l.pl,")) + "\n",
            encoding="utf-8",
        )
        deleted = tmp_path / "deleted"
        assert run(["score", "--records", complete, "--indicators", indicators, "--out", deleted]) == 0
        assert (deleted / "panel.csv").read_bytes() == (pipe / "panel.csv").read_bytes()

    def test_long_wrong_header_is_echoed_in_part(self, small_inputs, tmp_path, capsys):
        _, indicators = small_inputs
        records = tmp_path / "records.csv"
        records.write_text("x" * 100_000 + "\n", encoding="utf-8")
        args = ["score", "--records", records, "--indicators", indicators]
        assert run([*args, "--out", tmp_path / "o"]) == 2
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
    def test_failed_search_in_evaluate_exit_4(self, tmp_path, capsys, caplog, mode):
        # Identical scores make every cell's linear trend singular: the search
        # itself fails, which is a fit error in either evaluation mode.
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "url,country,score,unemployment_rate\n"
            "a.test,ZZ,1.0,4.0\nb.test,ZZ,1.0,5.0\nc.test,ZZ,1.0,6.0\n",
            encoding="utf-8",
        )
        args = ["evaluate", "--panel", panel, "--basis", "linear", "-v", "--out", tmp_path / "o", *mode]
        assert run(args) == 4
        # The error and each skipped cell's DEBUG line name the cause.
        singular = "trend system is singular (collinear or duplicate basis functions)"
        assert capsys.readouterr().err == (
            f"error: no admissible theta grid cell: every candidate failed; theta=10: {singular}\n"
        )
        cells = [r.getMessage() for r in caplog.records if r.name == "jobsignal.gpr"]
        assert len(cells) == 13
        assert all(re.fullmatch(rf"skipping theta=[0-9.]+: {re.escape(singular)}", m) for m in cells)

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
        panel.write_text(SMALL_PANEL, encoding="utf-8")
        assert run(["evaluate", "--panel", panel, "--theta-grid", "oops", "--out", tmp_path / "o"]) == 2
        assert run(["evaluate", "--panel", panel, "--theta-grid", "5:1:4", "--out", tmp_path / "o"]) == 2
        capsys.readouterr()
        assert run(["evaluate", "--panel", panel, "--theta-grid", "a:b:3", "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "error: --theta-grid expects LO:HI:STEPS numbers, got 'a:b:3'\n"
        )
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
        panel.write_text(SMALL_PANEL, encoding="utf-8")
        for value in ("nan", "inf", "-0.5"):
            rc = run(["evaluate", "--panel", panel, "--jitter", value, "--out", tmp_path / "o"])
            assert rc == 2
            assert "jitter" in capsys.readouterr().err

    def test_tiny_jitter_or_theta_warns_nothing(self, tmp_path):
        # Near the bottom of the float range the rounding allowance and the
        # scaled distances overflow to inf, as intended: the allowance keeps
        # the cells dense, and exp(-inf) = 0 is the correlation. No numpy
        # RuntimeWarning reaches stderr.
        assert run(["synth", "--n", 300, "--out", tmp_path]) == 0
        panel = tmp_path / "panel.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evaluate", "--panel", panel, "--jitter", "5e-324", "--out", tmp_path / "a"]) == 0
            args = ["--jitter", "1e-4", "--theta-grid", "1e-320:1e-310:3", "--out", tmp_path / "b"]
            assert run(["evaluate", "--panel", panel, *args]) == 0

    def test_affine_predictions_report_correlation_minus_one(self, tmp_path):
        # At theta near 1e-320 the LOO predictions are an affine function of
        # the targets, and rounding alone would carry r past -1.
        assert run(["synth", "--n", 300, "--seed", 0, "--out", tmp_path]) == 0
        args = ["--jitter", "1e-4", "--theta-grid", "1e-320:1e-310:3", "--out", tmp_path / "o"]
        assert run(["evaluate", "--panel", tmp_path / "panel.csv", *args]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text(encoding="utf-8"))
        assert report["correlation_rate"] == -1.0

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


class TestOutOfMemory:
    """A size that fits an index but not memory exits 2 with one error line.

    The MemoryError is raised by a stand-in: allocating the real size could
    succeed under memory overcommit and get the process killed later.
    """

    MESSAGE = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

    def raise_memory_error(self, *args, **kwargs):
        raise MemoryError(self.MESSAGE)

    def test_synth(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(synth, "synthetic_panel", self.raise_memory_error)
        assert run(["synth", "--n", 1000000000000, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"

    @pytest.mark.parametrize("command", ["evaluate", "pipeline"])
    def test_theta_grid(self, small_inputs, tmp_path, capsys, monkeypatch, command):
        sites, indicators = small_inputs
        assert run(["score", "--records", sites, "--indicators", indicators, "--out", tmp_path]) == 0
        monkeypatch.setattr(gpr.SearchConfig, "grid", self.raise_memory_error)
        inputs = {
            "evaluate": ["--panel", tmp_path / "panel.csv"],
            "pipeline": ["--sites", sites, "--indicators", indicators],
        }[command]
        args = [command, *inputs, "--theta-grid", "0.1:10:1000000000000", "--out", tmp_path / "o"]
        assert run(args) == 2
        err = f"error: {self.MESSAGE}\n"
        if command == "pipeline":
            err = f"pipeline failed at stage fit: {self.MESSAGE}\n" + err
        assert capsys.readouterr().err == err
        assert not (tmp_path / "o" / "report.json").exists()


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
        "-v",
        "--verbose",
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

    def test_module_entry_point_prints_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jobsignal.cli", "--version"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"jobsignal {__version__}\n"

    def test_commands_are_the_two_stages_pipeline_and_synth(self):
        assert list(self.collect_subparser_options()) == ["score", "evaluate", "pipeline", "synth"]

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
        expected_extra = {"--records", "--panel", "--n", "--coupling", "--noise", "-h", "--help", "--version"}
        all_flags = set().union(*options.values())
        unexpected = all_flags - set(self.CANONICAL_FLAGS) - expected_extra
        assert not unexpected, f"undocumented flags: {unexpected}"
