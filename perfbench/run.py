"""iotdq benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ndjson_1m --seed 7 --seconds 40 --trace 0

Inputs are generated from the seed; scoring happens in fresh child
processes (perfbench/worker.py) that never held the generator's records.
Every report is checked against the generator's ground truth. The last
line printed is one JSON object: correct, attempted, failed, metrics.
Scratch files live under .perfbench_work/ and are removed at exit; traced
runs keep their spans in .perfbench_work/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalogue import END_TO_END, PER_LAYER, per_layer_values  # noqa: E402
from checks import Tally, report_problems  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

WORK_DIR = ".perfbench_work"
# setup_s is the median of this many fresh interpreters, taken in groups at
# different points of the run (before the first assessments of a local run,
# before and after the round trips of a blind one), so that one slow patch
# of a shared host does not set it.
SETUP_SAMPLES = 12
SETUP_GROUP = 3
# A local run scores the dataset at least this often, then goes on while
# --seconds of measuring have not passed; one assessment of ndjson_1m takes
# 8-14 s on a shared 2-core host.
LOCAL_MIN_SAMPLES = 2
# Children are given at most what is left of this budget.
RUN_BUDGET_S = 170.0


class ChildFailed(Exception):
    pass


class Runner:
    """Starts the worker processes of one run, within the run's time budget."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def child(self, mode: str, *extra: str) -> tuple[dict, float]:
        """Run one worker; returns its JSON result and its wall time."""
        command = [
            sys.executable, str(HERE / "worker.py"), mode,
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--out", str(self.work), *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            raise ChildFailed(f"{mode}: no time left in the run budget")
        started = time.perf_counter()
        try:
            done = subprocess.run(
                command, cwd=self.root, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode}: timed out after {timeout:.0f} s") from exc
        wall = time.perf_counter() - started
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            tail = done.stderr.strip().splitlines()[-3:]
            raise ChildFailed(f"{mode}: exit {done.returncode}: {' | '.join(tail)}")
        return json.loads(lines[-1]), wall

    def setup_samples(self, count: int) -> list[float]:
        return [self.child("setup")[0]["setup_s"] for _ in range(count)]


def percentile(values: list[float], q: float) -> float:
    """q-th percentile with linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_local(runner: Runner, seconds: int, trace: bool, tally: Tally, info: dict) -> dict:
    """Score the dataset in fresh processes for ``seconds`` of measuring.

    Each sample is one whole assessment; its times are scaled to the
    reference host speed measured while it ran (hostspeed.py). Process
    walls support no percentile above their median, so roundtrip_s_p90
    reports the median here, as roundtrip_s_p50 does.
    """
    workload = runner.workload
    prepared, _ = runner.child("prepare")
    truth = json.loads(Path(prepared["truth"]).read_text())
    info.update(
        packets=truth["packets_total"],
        sensors=len(truth["per_sensor"]),
        bytes=prepared["bytes"],
        duplicate_share=truth["duplicates"] / truth["packets_total"],
        generate_s=prepared["generate_s"],
    )
    report_path = runner.work / "report.json"

    def sample(*trace_args: str) -> "tuple[dict, float] | None":
        try:
            out, wall = runner.child(
                "assess", "--data", prepared["data"], "--report", str(report_path),
                *trace_args,
            )
            problems = report_problems(
                report_path.read_bytes(), truth, prepared["sha256"], workload, runner.seed
            )
        except ChildFailed as exc:
            tally.record([str(exc)])
            return None
        tally.record(problems)
        return out, wall

    if trace:
        plain = sample()
        trace_file = trace_path(runner)
        traced = sample("--trace", str(trace_file))
        if plain is None or traced is None:
            return {}
        info["trace_file"] = trace_file.relative_to(runner.root).as_posix()
        return {
            "summary": traced[0]["trace"],
            "extra": {
                "overhead": traced[0]["assess_s"] / plain[0]["assess_s"],
                "generate_s": prepared["generate_s"],
                "report_bytes": traced[0]["report_bytes"],
            },
        }

    setup: list[float] = []
    samples = []
    attempts = 0
    window_end = time.monotonic() + seconds
    while attempts < LOCAL_MIN_SAMPLES or time.monotonic() < window_end:
        if len(setup) < SETUP_SAMPLES:
            setup += runner.setup_samples(SETUP_GROUP)
        attempts += 1
        done = sample()
        if done:
            samples.append(done)
    setup += runner.setup_samples(SETUP_SAMPLES - len(setup))
    info["assessments"] = attempts
    if not samples:
        return {}
    info["wall_assess_s"] = statistics.median(out["assess_s"] for out, _ in samples)
    info["host_scale"] = statistics.median(out["host_scale"] for out, _ in samples)
    walls = [wall * out["host_scale"] for out, wall in samples]
    return {
        "assess_s": statistics.median(out["assess_s"] * out["host_scale"] for out, _ in samples),
        "roundtrip_s_p50": statistics.median(walls),
        "roundtrip_s_p90": statistics.median(walls),
        "peak_rss_mib": max(out["peak_rss_mib"] for out, _ in samples),
        "setup_s": statistics.median(setup),
    }


def run_blind(runner: Runner, seconds: int, trace: bool, tally: Tally, info: dict) -> dict:
    setup = [] if trace else runner.setup_samples(SETUP_SAMPLES // 2)
    extra = ["--seconds", str(seconds)]
    if trace:
        trace_file = trace_path(runner)
        extra += ["--trace", str(trace_file)]
        info["trace_file"] = trace_file.relative_to(runner.root).as_posix()
    try:
        out, _ = runner.child("blind", *extra)
    except ChildFailed as exc:
        tally.record([str(exc)])
        return {}
    if not trace:
        setup += runner.setup_samples(SETUP_SAMPLES - len(setup))
    tally.merge(out["attempted"], out["failed"], out["problems"])
    info.update(
        packets=out["packets"],
        sensors=runner.workload.gen["sensor_count"],
        bytes=out["bytes"],
        roundtrips=len(out["roundtrips"]),
        generate_s=out["generate_s"],
    )
    if trace:
        return {
            "summary": out["trace"],
            "extra": {
                "overhead": out["overhead"],
                "generate_s": out["generate_s"],
                "report_bytes": out["report_bytes"],
            },
        }
    if not out["roundtrips"] or not out["assess_samples"]:
        return {}
    return {
        "assess_s": statistics.median(out["assess_samples"]),
        "roundtrip_s_p50": percentile(out["roundtrips"], 50),
        "roundtrip_s_p90": percentile(out["roundtrips"], 90),
        "peak_rss_mib": out["peak_rss_mib"],
        "setup_s": statistics.median(setup),
    }


def trace_path(runner: Runner) -> Path:
    traces = runner.root / WORK_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    return traces / f"{runner.workload.name}-seed{runner.seed}.json"


def print_layers(found: dict) -> dict[str, float]:
    summary, extra = found["summary"], found["extra"]
    n = max(1, summary["assessments"])
    print(f"self time by probe, per assessment ({summary['assessments']} traced):")
    for name, (calls, total, self_time) in summary["probes"].items():
        print(f"  {name:28s} calls {calls / n:12.1f}  total {total / n:10.6f} s"
              f"  self {self_time / n:10.6f} s")
    if summary["absent"]:
        print("absent probes: " + ", ".join(summary["absent"]))
    values = per_layer_values(summary, extra)
    for layer in PER_LAYER:
        print(f"  {layer.name:30s} {values[layer.name]:14.6f} {layer.unit:6s}"
              f" -> {layer.moves}")
    return values


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # A terminated run still kills and waits for its worker, then cleans up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "iotdq" / "pipeline.py").is_file():
        print(f"perfbench: no iotdq sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally, info = Tally(), {}
    runner = Runner(root, workload, args.seed, work)
    run = run_blind if workload.kind == "blind" else run_local
    try:
        found = run(runner, args.seconds, bool(args.trace), tally, info)
    except ChildFailed as exc:
        tally.record([str(exc)])
        found = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("input: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    if found and args.trace:
        values = print_layers(found)
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}
        print(f"input: key_shapes={found['summary']['key_shapes']}")
    elif found:
        metrics = {m.name: {"value": found[m.name], "unit": m.unit} for m in END_TO_END}
        for m in END_TO_END:
            print(f"  {m.name:16s} {found[m.name]:14.6f} {m.unit}")
    else:
        metrics = {}
    print(f"  failed_ratio     {tally.failed_ratio:14.6f} ({tally.failed} of {tally.attempted})")
    result = {
        "correct": bool(metrics) and tally.failed == 0 and tally.attempted > 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
