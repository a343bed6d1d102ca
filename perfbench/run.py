"""Benchmark of jobsignal verdicts, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. One client runs verdicts back to back in this process (a closed
loop), each an in-process `jobsignal.cli.main([...])` call, the code path a
CLI user runs. Inputs are written before timing starts and every output is
checked after it ends. BLAS runs on one thread.

With `--trace 0` the last stdout line carries the end-to-end metrics:
`setup_s` (median time for a fresh interpreter to import jobsignal, run its
first factorization and write the inputs), `verdict_s` (median wall time of
one warm verdict) and `peak_rss_mb`. With `--trace 1` untraced and traced
verdicts alternate; the traced ones give the per-layer metrics of
spans.py, and the difference of the two medians is `trace.overhead_s`.
A verdict fails on a non-zero exit code, an exception or a failed output
check; `failed / attempted` is the error rate.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = "1"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
COMPARED_OUTPUTS = ("report.json", "panel.csv")
END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}

SETUP_CHILD = (
    "import sys; sys.path.insert(0, {here!r}); import workloads; "
    "workloads.setup_child({src!r}, {workload!r}, {seed!r}, {work!r})"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> dict:
    """Import jobsignal's layer modules from this checkout's sources, BLAS pinned first."""
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import jobsignal

    if Path(jobsignal.__file__).resolve().parent != SRC / "jobsignal":
        raise RuntimeError(f"imported jobsignal from {jobsignal.__file__}, not from {SRC}")
    return {layer: importlib.import_module(f"jobsignal.{layer}") for layer in spans.LAYERS}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters."""
    times = []
    for i in range(SETUP_REPEATS):
        code = SETUP_CHILD.format(
            here=str(HERE), src=str(SRC), workload=workload, seed=seed, work=str(work / f"setup-{i}")
        )
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited with {proc.returncode}:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def run_verdict(cli, calls) -> str | None:
    """Run one verdict; the reason it failed, or None."""
    for _, argv, _ in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed verdict, not a failed benchmark
            traceback.print_exc()
            return f"jobsignal {argv[0]} raised {type(exc).__name__}: {exc}"
        if code != 0:
            return f"jobsignal {argv[0]} exited with {code}"
    return None


def collect_outputs(calls) -> dict[str, bytes]:
    outputs = {}
    for _, _, out in calls:
        for name in COMPARED_OUTPUTS:
            path = out / name
            if path.is_file():
                outputs[f"{out.name}/{name}"] = path.read_bytes()
    return outputs


def check_outputs(checks, gpr, workload, work: Path, calls, outputs: dict, seed: int) -> None:
    """Every content check on one verdict's outputs; raises CheckError."""
    rng = random.Random(seed)
    for direction, _, out in calls:
        report_bytes = outputs.get(f"{out.name}/report.json")
        if report_bytes is None:
            raise checks.CheckError(f"{out}/report.json was not written")
        panel_key = f"{out.name}/panel.csv"
        panel_bytes = outputs[panel_key] if panel_key in outputs else workload.panel_for(work, out).read_bytes()
        report = checks.load_report(
            report_bytes,
            n=workload.expected_n,
            direction=direction.replace("-", "_"),
            in_sample=workload.in_sample,
            jitter=workloads.JITTER,
        )
        checks.check_report(gpr, report, checks.read_panel(panel_bytes), rng)


def run(args, program, work: Path) -> tuple[dict, dict]:
    import checks  # imports numpy, so only once load_program has pinned BLAS

    cli, gpr = program["cli"], program["gpr"]
    workload = workloads.WORKLOADS[args.workload]
    workloads.prepare(cli, gpr, workload, args.seed, work)
    warmup = workloads.Workload(
        name="warmup", synth_n=workloads.WARMUP_ROWS, in_sample=False, directions=("score-to-rate",)
    )
    warmup.write_inputs(cli, args.seed, work / "warmup")
    if run_verdict(cli, warmup.calls(work / "warmup")) is not None:
        raise RuntimeError("the warm-up verdict failed")
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, work)

    calls = workload.calls(work)
    tracer = spans.Tracer(program)
    modes = ("plain", "traced") if args.trace else ("plain",)
    times = {mode: [] for mode in modes}
    layer_samples = []
    failures = []
    matching_reference = 0  # verdicts whose outputs equal the reference bytes
    reference = None
    start = time.perf_counter()
    while True:
        for mode in modes:
            if mode == "traced":
                tracer.reset()
                tracer.install()
            t0 = time.perf_counter()
            failure = run_verdict(cli, calls)
            elapsed = time.perf_counter() - t0
            if mode == "traced":
                tracer.uninstall()
                layer_samples.append(tracer.metrics())
            times[mode].append(elapsed)
            outputs = collect_outputs(calls)
            if failure is None and reference is None:
                reference = outputs
            if failure is None and outputs != reference:
                failure = "outputs differ in bytes from the first verdict's"
            if failure is None:
                matching_reference += 1
            else:
                failures.append(failure)
        cycle = sum(statistics.median(t) for t in times.values())
        if time.perf_counter() - start + cycle > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if reference is not None:
        try:
            check_outputs(checks, gpr, workload, work, calls, reference, args.seed)
        except Exception as exc:  # any error while reading an output means the output is wrong
            traceback.print_exc()
            failures.extend([f"output check: {exc}"] * matching_reference)

    attempted = sum(len(t) for t in times.values())
    if args.trace:
        metrics = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in spans.UNITS
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(times["traced"]) - statistics.median(times["plain"])
        units = spans.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "verdict_s": statistics.median(times["plain"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "samples": {mode: len(t) for mode, t in times.items()} | {"setup": len(setup_times)},
        "verdict_times_s": times,
        "setup_times_s": setup_times,
        "error_rate": len(failures) / attempted,
        "failures": sorted(set(failures)),
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jobsignal" / "__init__.py").is_file():
        print(f"perfbench: no jobsignal sources under {SRC}", file=sys.stderr)
        return 2
    program = load_program()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, detail = run(args, program, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for name, metric in result["metrics"].items():
        print(f"{name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'error_rate':<28} {detail['error_rate']:>16.6g} ({result['failed']}/{result['attempted']} verdicts)")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
