"""Command-line entry point for the nowcasting pipeline.

A site listing reaches a verdict end to end via `pipeline`, or in two
stages on intermediate files: `score` cleans, scores and joins a listing
into panel.csv, and `evaluate` reads it. `synth` generates panels with a
known score/rate coupling. Every subcommand is deterministic given its
flags; outputs contain no wall-clock or locale-dependent bytes.

`pipeline` runs the staged commands' steps in one process. `evaluate` and
`pipeline` write report.txt and then report.json through evaluation, so
report.json exists only for a finished verdict; only `pipeline` has the
complete records, so only its report.txt gives rank statistics.

Exit codes: 0 success, 2 parse/configuration failure (an unusable --out
included), 3 data-integrity failure, 4 fit failure, 5 evaluation failure.
Each error class in `errors` carries its code as `exit_code`; `main` maps
ValueError and OSError to 2.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__, datasets, evaluation, gpr, pipeline, synth
from .errors import JobSignalError

# Not __name__, which is "__main__" under python -m, where -v would miss it.
logger = logging.getLogger("jobsignal.cli")

EXIT_OK = 0
EXIT_PARSE = 2


def _model_options(args) -> tuple[evaluation.Direction, gpr.BasisExpansion, gpr.SearchConfig]:
    """fit_panel's (direction, basis, search) from --direction, --basis, --theta-grid, --jitter."""
    # argparse has checked --direction and --basis against their choices.
    direction = evaluation.Direction(args.direction.replace("-", "_"))
    basis = gpr.BasisExpansion(args.basis)
    text = args.theta_grid
    try:
        lo, hi, steps = text.split(":")  # ValueError unless three parts
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ValueError(f"--theta-grid expects LO:HI:STEPS numbers, got {text!r}") from None
    search = gpr.SearchConfig(theta_min=lo, theta_max=hi, steps=steps, jitter=args.jitter)
    return direction, basis, search


def _panel_from_records(records, indicators_path):
    """Clean, score and join records; returns the panel and the complete records."""
    kept, _ = pipeline.listwise_delete(records)
    scored = pipeline.normalize_and_score(kept)
    indicators = pipeline.read_indicators(indicators_path)
    return pipeline.build_panel(scored, records, indicators), kept


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report_files(report, panel, complete_sites, out: Path) -> None:
    # report.json goes last: it exists only once the verdict is complete.
    text = evaluation.format_report(report, panel, complete_sites)
    (out / "report.txt").write_text(text, encoding="utf-8")
    evaluation.save_report(report, out / "report.json")


def cmd_score(args) -> None:
    panel, _ = _panel_from_records(pipeline.ingest_sites(args.records), args.indicators)
    out = _out_dir(args)
    pipeline.write_panel_csv(panel, out / "panel.csv")
    logger.info("panel of %d rows -> %s", panel.n, out / "panel.csv")


def cmd_evaluate(args) -> None:
    panel = pipeline.read_panel_csv(args.panel)
    report = evaluation.evaluate(panel, *_model_options(args), in_sample=args.in_sample)
    out = _out_dir(args)
    _write_report_files(report, panel, (), out)
    logger.info("report -> %s", out / "report.json")


def cmd_pipeline(args) -> None:
    sites_path = args.sites or datasets.bundled_sites_path()
    indicators_path = args.indicators or datasets.bundled_indicators_path()
    out = _out_dir(args)
    stage = "ingest"
    try:
        records = pipeline.ingest_sites(sites_path)
        stage = "score"
        panel, kept = _panel_from_records(records, indicators_path)
        pipeline.write_panel_csv(panel, out / "panel.csv")
        stage = "fit"
        direction, basis, search = _model_options(args)
        model = evaluation.fit_panel(panel, direction, basis, search)
        stage = "evaluate"
        report = evaluation.evaluate_model(model, panel, direction, in_sample=args.in_sample)
        _write_report_files(report, panel, kept, out)
    except Exception as exc:
        print(f"pipeline failed at stage {stage}: {exc}", file=sys.stderr)
        raise
    logger.info("pipeline complete: %d raw -> %d clean rows", panel.raw_count, panel.n)


def cmd_synth(args) -> None:
    panel = synth.synthetic_panel(args.n, args.coupling, args.noise, args.seed)
    out = _out_dir(args)
    pipeline.write_panel_csv(panel, out / "panel.csv")
    logger.info("synthetic panel of %d rows -> %s", panel.n, out / "panel.csv")


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    grid = gpr.SearchConfig()
    parser.add_argument(
        "--direction",
        choices=[d.flag() for d in evaluation.Direction],
        default=evaluation.Direction.SCORE_TO_RATE.flag(),
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
        default=f"{grid.theta_min:g}:{grid.theta_max:g}:{grid.steps}",
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


def _add_verbose_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="log the jobsignal loggers' INFO and DEBUG lines to stderr: rows dropped, "
        "how each theta cell was computed, output paths",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jobsignal",
        description="Nowcast unemployment rates from employment-website traffic signals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser(
        "score", help="drop incomplete sites, standardize signals and build the panel"
    )
    p_score.add_argument("--records", required=True, help="site listing CSV")
    p_score.add_argument("--indicators", required=True, help="country indicator CSV")
    p_score.add_argument("--out", required=True, help="output directory")
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser("evaluate", help="leave-one-out or in-sample metrics over a panel")
    p_eval.add_argument("--panel", required=True, help="panel CSV")
    _add_model_options(p_eval)
    _add_eval_options(p_eval)
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_pipe = sub.add_parser("pipeline", help="score a site listing and evaluate it, end to end")
    p_pipe.add_argument(
        "--sites", help="site listing CSV (default: the bundled 427-site fixture)"
    )
    p_pipe.add_argument(
        "--indicators", help="country indicator CSV (default: the bundled fixture)"
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

    for sub_parser in (p_score, p_eval, p_pipe, p_synth):
        _add_verbose_option(sub_parser)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.getLogger("jobsignal").setLevel(logging.DEBUG if args.verbose else logging.NOTSET)
    try:
        args.func(args)
    except (JobSignalError, ValueError, OSError) as exc:
        # OSError: an --out that is a file, or an output path that is a directory.
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_PARSE)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
