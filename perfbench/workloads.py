"""Workloads of the jobsignal benchmark: their inputs, verdict commands and
expected outputs.

Every verdict pins `--basis const --jitter 1e-4`. At the default jitter of
1e-10 the bundled panel's correlation matrix has cond(R) ~ 3.5e12, and two
algebraically equal leave-one-out computations already differ by 0.25, so
an output check there would gate on rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

JITTER = 1e-4
MODEL_FLAGS = ("--basis", "const", "--jitter", repr(JITTER))

SYNTH_COUPLING = 0.7
SYNTH_NOISE = 0.5
BUNDLED_ROWS = 382  # 427 sites minus 45 with a missing signal

# Small LOO panel run once before timing, so first-call costs (lazy imports,
# BLAS thread start-up, argparse) stay out of the warm verdict times.
WARMUP_ROWS = 40

DIRECTIONS = ("score-to-rate", "rate-to-score")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    synth_n is the row count of the `synth` panel the workload evaluates;
    None means the verdict runs `pipeline` on the bundled fixture, once per
    direction in `directions`.
    """

    name: str
    synth_n: int | None
    in_sample: bool
    directions: tuple[str, ...]

    @property
    def expected_n(self) -> int:
        return BUNDLED_ROWS if self.synth_n is None else self.synth_n

    def input_panel(self, work: Path) -> Path:
        return work / "input" / "panel.csv"

    def write_inputs(self, cli, seed: int, work: Path) -> None:
        """Put the workload's input files on disk (the bundled fixture already is)."""
        if self.synth_n is not None:
            write_synth_panel(cli, self.synth_n, seed, work / "input")

    def calls(self, work: Path) -> list[tuple[str, list[str], Path]]:
        """(direction, `jobsignal` argument list, output directory) of each
        call that makes up one verdict."""
        calls = []
        for direction in self.directions:
            out = work / "out" / direction
            if self.synth_n is None:
                argv = ["pipeline", "--direction", direction, *MODEL_FLAGS, "--out", str(out)]
            else:
                argv = [
                    "evaluate",
                    "--panel",
                    str(self.input_panel(work)),
                    "--direction",
                    direction,
                    *MODEL_FLAGS,
                    "--out",
                    str(out),
                ]
                if self.in_sample:
                    argv.append("--in-sample")
            calls.append((direction, argv, out))
        return calls

    def panel_for(self, work: Path, out: Path) -> Path:
        """The panel a verdict's report.json was computed on."""
        return out / "panel.csv" if self.synth_n is None else self.input_panel(work)


# Why each workload exists is recorded in BENCHMARK.json. The LOO panel has
# 500 rows, not 800: at 800 a verdict took 20-26 s, so a run held one sample,
# and its run-to-run spread was 2.5x that of 500 rows measured alongside.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bundled-pipeline",
            synth_n=None,
            in_sample=False,
            directions=DIRECTIONS,
        ),
        Workload(
            name="synth-loo-500",
            synth_n=500,
            in_sample=False,
            directions=("score-to-rate",),
        ),
        Workload(
            name="synth-insample-1600",
            synth_n=1600,
            in_sample=True,
            directions=("score-to-rate",),
        ),
    )
}


def write_synth_panel(cli, n: int, seed: int, out: Path) -> None:
    argv = [
        "synth",
        "--n",
        str(n),
        "--coupling",
        repr(SYNTH_COUPLING),
        "--noise",
        repr(SYNTH_NOISE),
        "--seed",
        str(seed),
        "--out",
        str(out),
    ]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"jobsignal {' '.join(argv)} exited with {code}")


def prepare(cli, gpr, workload: Workload, seed: int, work: Path) -> None:
    """Everything a CLI user pays before the first verdict: the first BLAS
    factorization (through the program's own fit) and the input files."""
    gpr.fit(
        gpr.TrainingSet(inputs=[[0.0], [1.0], [2.0]], targets=[0.0, 1.0, 0.0]),
        gpr.BasisExpansion(gpr.CONST),
        gpr.Kernel(sigma_sq=1.0, theta=[1.0], jitter=JITTER),
    )
    workload.write_inputs(cli, seed, work)


def setup_child(src: str, workload_name: str, seed: int, work: str) -> None:
    """Body of the fresh interpreter that set-up time is measured on.

    Prints the monotonic clock once jobsignal is imported, BLAS has
    factorized once and the inputs are on disk.
    """
    import sys
    import time

    sys.path.insert(0, src)
    from jobsignal import cli, gpr

    prepare(cli, gpr, WORKLOADS[workload_name], seed, Path(work))
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
