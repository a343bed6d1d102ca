"""Command-line entry point for the nowcasting pipeline.

Stages are runnable standalone on intermediate files (ingest -> clean ->
score -> fit/evaluate) or end to end via `pipeline`; `synth` generates
panels with a known score/rate coupling. Every subcommand is deterministic
given its flags; outputs contain no wall-clock or locale-dependent bytes.

Exit codes: 0 success, 2 parse/configuration failure, 3 data-integrity
failure, 4 fit failure, 5 evaluation failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__, datasets, evaluation, gpr, pipeline, synth
from .errors import (
    ConfigError,
    EvaluationError,
    FitError,
    IntegrityError,
    JoinError,
    NormalizationError,
    ParseError,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INTEGRITY = 3
EXIT_FIT = 4
EXIT_EVALUATION = 5


def _search_config(args) -> gpr.SearchConfig:
    """Build the theta grid from --theta-grid LO:HI:STEPS plus --jitter."""
    text = args.theta_grid
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--theta-grid expects LO:HI:STEPS, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"--theta-grid expects LO:HI:STEPS numbers, got {text!r}") from None
    return gpr.SearchConfig(theta_min=lo, theta_max=hi, steps=steps, jitter=args.jitter)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report_files(report, summary, out: Path) -> None:
    evaluation.save_report(report, out / "report.json")
    blocks = []
    if summary is not None:
        blocks.append(pipeline.format_panel_summary(summary))
    blocks.append(evaluation.format_report(report))
    (out / "report.txt").write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def cmd_ingest(args) -> int:
    records = pipeline.ingest_sites(args.sites)
    if args.fetch_fixture:
        fetcher = pipeline.ReplayFetcher(args.fetch_fixture)
        records = _refetch(records, fetcher)
    out = _out_dir(args)
    pipeline.write_records_json(records, out / "records.json")
    logger.info("ingested %d records -> %s", len(records), out / "records.json")
    return EXIT_OK


def _refetch(records, fetcher):
    """Replace file signals with fetched ones; countries come from the file."""
    country_by_url = {rec.url: rec.country_code for rec in records}
    fetched = pipeline.fetch_signals([rec.url for rec in records], fetcher)
    merged = []
    for rec in fetched:
        country = rec.country_code
        if country == pipeline.UNKNOWN_COUNTRY:
            country = country_by_url[rec.url]
        merged.append(
            pipeline.SiteRecord(
                url=rec.url,
                country_code=country,
                rank=rec.rank,
                trend=rec.trend,
                traffic=rec.traffic,
            )
        )
    return merged


def cmd_clean(args) -> int:
    records = pipeline.read_records_json(args.records)
    kept, dropped = pipeline.listwise_delete(records)
    out = _out_dir(args)
    pipeline.write_records_json(kept, out / "records_clean.json")
    logger.info("kept %d records, dropped %d", len(kept), dropped)
    return EXIT_OK


def cmd_score(args) -> int:
    records = pipeline.read_records_json(args.records)
    kept, _ = pipeline.listwise_delete(records)
    scored = pipeline.normalize_and_score(kept)
    indicators = pipeline.read_indicators(args.indicators)
    panel = pipeline.build_panel(scored, records, indicators)
    out = _out_dir(args)
    pipeline.write_panel_csv(panel, out / "panel.csv")
    logger.info("panel of %d rows -> %s", panel.n, out / "panel.csv")
    return EXIT_OK


def _fit_model(panel, direction, args) -> gpr.GprModel:
    """Grid-search the hyperparameters on the whole panel and fit once."""
    basis = gpr.BasisExpansion(args.basis)
    search = _search_config(args)
    inputs, targets = evaluation.split_panel(panel, direction)
    training = gpr.TrainingSet(inputs=inputs, targets=targets)
    return gpr.fit(training, basis, gpr.fit_hyperparameters(training, basis, search))


def cmd_fit(args) -> int:
    panel = pipeline.read_panel_csv(args.panel)
    model = _fit_model(panel, evaluation.Direction.from_flag(args.direction), args)
    out = _out_dir(args)
    gpr.save_model(model, out / "model.json")
    logger.info(
        "fitted model (theta=%s, sigma_sq=%g) -> %s",
        model.kernel.theta.tolist(),
        model.kernel.sigma_sq,
        out / "model.json",
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    panel = pipeline.read_panel_csv(args.panel)
    report = evaluation.evaluate(
        panel,
        evaluation.Direction.from_flag(args.direction),
        gpr.BasisExpansion(args.basis),
        _search_config(args),
        in_sample=args.in_sample,
    )
    out = _out_dir(args)
    _write_report_files(report, pipeline.describe_panel(panel), out)
    logger.info("report -> %s", out / "report.json")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    sites_path = args.sites if args.sites else datasets.bundled_sites_path()
    indicators_path = args.indicators if args.indicators else datasets.bundled_indicators_path()
    out = _out_dir(args)
    stage = "ingest"
    try:
        records = pipeline.ingest_sites(sites_path)
        if args.fetch_fixture:
            stage = "fetch"
            fetcher = pipeline.ReplayFetcher(args.fetch_fixture)
            records = _refetch(records, fetcher)
        stage = "clean"
        kept, dropped = pipeline.listwise_delete(records)
        stage = "score"
        scored = pipeline.normalize_and_score(kept)
        indicators = pipeline.read_indicators(indicators_path)
        panel = pipeline.build_panel(scored, records, indicators)
        pipeline.write_panel_csv(panel, out / "panel.csv")
        stage = "fit"
        direction = evaluation.Direction.from_flag(args.direction)
        model = _fit_model(panel, direction, args)
        gpr.save_model(model, out / "model.json")
        stage = "evaluate"
        report = evaluation.evaluate_model(model, panel, direction, in_sample=args.in_sample)
        _write_report_files(report, pipeline.describe_panel(panel, complete_sites=kept), out)
    except Exception as exc:
        print(f"pipeline failed at stage {stage}: {exc}", file=sys.stderr)
        raise
    logger.info("pipeline complete: %d raw -> %d clean rows", panel.raw_count, panel.clean_count)
    return EXIT_OK


def cmd_synth(args) -> int:
    panel = synth.synthetic_panel(args.n, args.coupling, args.noise, args.seed)
    out = _out_dir(args)
    pipeline.write_panel_csv(panel, out / "panel.csv")
    logger.info("synthetic panel of %d rows -> %s", panel.n, out / "panel.csv")
    return EXIT_OK


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--direction",
        choices=["score-to-rate", "rate-to-score"],
        default="score-to-rate",
        help="which column is predicted from which (default: %(default)s)",
    )
    parser.add_argument(
        "--basis",
        choices=[gpr.CONST, gpr.LINEAR],
        default=gpr.CONST,
        help="trend basis for the regression mean (default: %(default)s)",
    )
    parser.add_argument(
        "--theta-grid",
        default="0.1:10:13",
        metavar="LO:HI:STEPS",
        help="logarithmic correlation-length grid (default: %(default)s)",
    )
    parser.add_argument(
        "--jitter",
        type=float,
        default=gpr.DEFAULT_JITTER,
        help="diagonal regularizer as a fraction of the process variance (default: %(default)g)",
    )


def _add_eval_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--in-sample",
        action="store_true",
        help="score a full-data fit on its own rows instead of leave-one-out",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jobsignal",
        description="Nowcast unemployment rates from employment-website traffic signals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate a site listing into records.json")
    p_ingest.add_argument("--sites", required=True, help="site listing CSV")
    p_ingest.add_argument(
        "--fetch-fixture", help="replay-fetcher JSON fixture; replaces file signals"
    )
    p_ingest.add_argument("--out", required=True, help="output directory")
    p_ingest.set_defaults(func=cmd_ingest)

    p_clean = sub.add_parser("clean", help="apply listwise deletion to ingested records")
    p_clean.add_argument("--records", required=True, help="records.json from ingest")
    p_clean.add_argument("--out", required=True, help="output directory")
    p_clean.set_defaults(func=cmd_clean)

    p_score = sub.add_parser("score", help="standardize signals and build the panel")
    p_score.add_argument("--records", required=True, help="records.json from ingest")
    p_score.add_argument("--indicators", required=True, help="country indicator CSV")
    p_score.add_argument("--out", required=True, help="output directory")
    p_score.set_defaults(func=cmd_score)

    p_fit = sub.add_parser("fit", help="select hyperparameters and fit on a panel")
    p_fit.add_argument("--panel", required=True, help="panel CSV")
    _add_model_options(p_fit)
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("evaluate", help="leave-one-out metrics over a panel")
    p_eval.add_argument("--panel", required=True, help="panel CSV")
    _add_model_options(p_eval)
    _add_eval_options(p_eval)
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_pipe = sub.add_parser("pipeline", help="run ingest through evaluate end to end")
    p_pipe.add_argument(
        "--sites", help="site listing CSV (default: the bundled 427-site fixture)"
    )
    p_pipe.add_argument(
        "--indicators", help="country indicator CSV (default: the bundled fixture)"
    )
    p_pipe.add_argument(
        "--fetch-fixture", help="replay-fetcher JSON fixture; replaces file signals"
    )
    _add_model_options(p_pipe)
    _add_eval_options(p_pipe)
    p_pipe.add_argument("--out", required=True, help="output directory")
    p_pipe.set_defaults(func=cmd_pipeline)

    p_synth = sub.add_parser("synth", help="generate a synthetic panel")
    p_synth.add_argument("--n", type=int, required=True, help="number of rows (>= 3)")
    p_synth.add_argument(
        "--coupling", type=float, default=1.0, help="score/rate correlation in [0, 1]"
    )
    p_synth.add_argument(
        "--noise", type=float, default=0.0, help="extra noise scale on the rate column"
    )
    p_synth.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (IntegrityError, NormalizationError, JoinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION


if __name__ == "__main__":
    sys.exit(main())
