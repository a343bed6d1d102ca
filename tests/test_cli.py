import json

import pytest

from jobsignal.cli import build_parser, main

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
        for name in ("panel.csv", "model.json", "report.json", "report.txt"):
            assert (out / name).is_file()
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
        for name in ("panel.csv", "report.json", "model.json", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("extra", [[], ["--in-sample"]])
    @pytest.mark.parametrize("direction", ["score-to-rate", "rate-to-score"])
    def test_matches_separate_fit_and_evaluate(self, small_inputs, tmp_path, direction, extra):
        sites, indicators = small_inputs
        flags = ["--direction", direction, "--basis", "linear", *extra]
        pipe, staged = tmp_path / "pipe", tmp_path / "staged"
        assert run(["pipeline", "--sites", sites, "--indicators", indicators, *flags, "--out", pipe]) == 0
        fit_flags = [f for f in flags if f != "--in-sample"]
        assert run(["fit", "--panel", pipe / "panel.csv", *fit_flags, "--out", staged]) == 0
        assert run(["evaluate", "--panel", pipe / "panel.csv", *flags, "--out", staged]) == 0
        for name in ("model.json", "report.json"):
            assert (pipe / name).read_bytes() == (staged / name).read_bytes()

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

    def test_bundled_fixture_is_default(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["pipeline", "--out", out])
        assert rc == 0
        text = (out / "report.txt").read_text(encoding="utf-8")
        assert "427" in text and "382" in text
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


class TestStagedCommands:
    def test_ingest_clean_score_fit_evaluate_chain(self, small_inputs, tmp_path):
        sites, indicators = small_inputs
        work = tmp_path / "work"
        assert run(["ingest", "--sites", sites, "--out", work]) == 0
        records = json.loads((work / "records.json").read_text(encoding="utf-8"))
        assert len(records["records"]) == 12

        assert run(["clean", "--records", work / "records.json", "--out", work]) == 0
        cleaned = json.loads((work / "records_clean.json").read_text(encoding="utf-8"))
        assert len(cleaned["records"]) == 11

        assert run([
            "score", "--records", work / "records.json", "--indicators", indicators, "--out", work,
        ]) == 0
        panel_lines = (work / "panel.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(panel_lines) == 1 + 11

        assert run(["fit", "--panel", work / "panel.csv", "--out", work]) == 0
        model = json.loads((work / "model.json").read_text(encoding="utf-8"))
        assert model["schema"] == "gpr-model/1"

        assert run(["evaluate", "--panel", work / "panel.csv", "--out", work]) == 0
        report = json.loads((work / "report.json").read_text(encoding="utf-8"))
        assert report["n"] == 11

    def test_fit_error_exit_4(self, tmp_path):
        # Identical scores make the constant and linear trend columns collinear.
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "url,country,score,unemployment_rate\n"
            "a.test,ZZ,1.0,4.0\nb.test,ZZ,1.0,5.0\nc.test,ZZ,1.0,6.0\n",
            encoding="utf-8",
        )
        rc = run(["fit", "--panel", panel, "--basis", "linear", "--out", tmp_path / "o"])
        assert rc == 4

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

    def test_bad_theta_grid_exit_2(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "url,country,score,unemployment_rate\n"
            "a.test,ZZ,0.0,4.0\nb.test,ZZ,1.0,5.0\nc.test,ZZ,2.0,6.0\n",
            encoding="utf-8",
        )
        assert run(["fit", "--panel", panel, "--theta-grid", "oops", "--out", tmp_path / "o"]) == 2
        assert run(["fit", "--panel", panel, "--theta-grid", "5:1:4", "--out", tmp_path / "o"]) == 2

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


class TestSynthCommand:
    def test_minimum_rows(self, tmp_path):
        out = tmp_path / "out"
        assert run(["synth", "--n", 3, "--out", out]) == 0
        lines = (out / "panel.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1 + 3

    def test_invalid_parameters_exit_2(self, tmp_path):
        assert run(["synth", "--n", 2, "--out", tmp_path / "o"]) == 2
        assert run(["synth", "--n", 5, "--coupling", 1.5, "--out", tmp_path / "o"]) == 2
        assert run(["synth", "--n", 5, "--noise", -0.1, "--out", tmp_path / "o"]) == 2

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
