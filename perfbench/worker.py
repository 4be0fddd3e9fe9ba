"""Child process of the benchmark; each mode runs in a fresh interpreter.

    worker.py prepare --workload W --seed N --out DIR
    worker.py setup   --workload W --out DIR
    worker.py assess  --workload W --data FILE --report FILE [--trace FILE]
    worker.py blind   --workload W --seed N --seconds S --out DIR [--trace FILE]

Each mode prints one JSON object as its last line of standard output.
Only ``prepare`` generates data, so the processes that score never held
the generator's records. iotdq is imported from the checkout's ``src``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import report_problems  # noqa: E402
from hostspeed import HostSampler, scale_now  # noqa: E402
from tracer import LOCAL_PROBES, SETUP_PROBES, WORKFLOW_PROBES, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# A blind run stops starting round trips this long after its process began.
BLIND_DEADLINE_S = 110.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_inputs(workload: Workload):
    """(schema bytes, parsed schema, config) of a workload."""
    from iotdq import AssessmentConfig, parse_schema
    from iotdq.synthgen import DEFAULT_SCHEMA

    schema_bytes = json.dumps(DEFAULT_SCHEMA).encode("utf-8")
    return schema_bytes, parse_schema(schema_bytes), AssessmentConfig(**workload.config)


def cmd_prepare(args: argparse.Namespace, workload: Workload) -> dict:
    from iotdq.synthgen import GenSpec, generate

    _, schema, _ = load_inputs(workload)
    started = time.perf_counter()
    data, truth = generate(GenSpec(seed=workload.gen_seed(args.seed), **workload.gen), schema)
    generate_s = time.perf_counter() - started
    out = Path(args.out)
    data_path = out / "data.ndjson"
    with open(data_path, "wb") as fh:
        fh.write(data)
        # Flush now, so that writing back up to 126 MB of dirty pages does
        # not fall inside a timed assessment.
        fh.flush()
        os.fsync(fh.fileno())
    (out / "truth.json").write_bytes(truth.to_json())
    return {
        "generate_s": generate_s,
        "data": str(data_path),
        "truth": str(out / "truth.json"),
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }


def start_workflow(store_dir: Path):
    """Proxy plus registered enclave: the blind workload's set-up."""
    from iotdq.workflow import EnclaveRunner, ProxyServer

    server = ProxyServer(str(store_dir))
    server.start()
    try:
        enclave = EnclaveRunner(server.base_url, server.token_for("enclave"))
        enclave.register()
    except BaseException:
        server.stop()
        raise
    return server, enclave


def cmd_setup(args: argparse.Namespace, workload: Workload) -> dict:
    load_inputs(workload)
    if workload.kind == "blind":
        # No server.stop(): its shutdown poll costs up to 0.5 s per sample,
        # and the daemon server thread ends with this process a moment later.
        start_workflow(Path(args.out) / "store")
    setup_s = time.perf_counter() - STARTED
    # Scaled to the reference host speed like the other CPU-bound times.
    return {"setup_s": setup_s * scale_now()}


def cmd_assess(args: argparse.Namespace, workload: Workload) -> dict:
    from iotdq.pipeline import assess_file
    from iotdq.report import serialize_report

    _, schema, config = load_inputs(workload)
    setup_s = time.perf_counter() - STARTED
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(LOCAL_PROBES)
        tracer.assessment = 1
    span = tracer.span if tracer is not None else lambda _name: nullcontext()
    # The sampler's bursts would land in the traced per-layer times.
    host = HostSampler() if tracer is None else None
    with host or nullcontext():
        started = time.perf_counter()
        with span("bench.assess"):
            report = assess_file(args.data, schema, config)
            with span("report.serialize"):
                body = serialize_report(report)
        assess_s = time.perf_counter() - started
    result = {
        "setup_s": setup_s,
        "assess_s": assess_s,
        "host_scale": host.scale if host else None,
        "peak_rss_mib": peak_rss_mib(),
    }
    Path(args.report).write_bytes(body)
    result["report_bytes"] = len(body)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(1)
        Path(args.trace).write_text(json.dumps(tracer.span_records()))
    return result


def cmd_blind(args: argparse.Namespace, workload: Workload) -> dict:
    from iotdq.pipeline import assess
    from iotdq.report import serialize_report
    from iotdq.synthgen import GenSpec, generate
    from iotdq.workflow import (
        KeyPair,
        assessee_fetch_report,
        assessee_submit,
        assessment_status,
        assessor_request,
        unseal,
    )
    from iotdq.workflow.clients import ProxyClient

    schema_bytes, schema, config = load_inputs(workload)
    config_bytes = config.to_json()
    domain = config.domain
    setup_tracer = Tracer() if args.trace else None
    if setup_tracer is not None:
        setup_tracer.install(SETUP_PROBES)
    server, enclave = start_workflow(Path(args.out) / "store")
    setup_s = time.perf_counter() - STARTED
    if setup_tracer is not None:
        setup_tracer.uninstall()

    url = server.base_url
    assessee, assessor = server.token_for("assessee"), server.token_for("assessor")

    def fetch_report_bytes(trip: dict) -> None:
        """Unseal the report object as the proxy hands it to the assessee.

        This second fetch runs outside the timed round trip, so the gate
        compares the enclave's own bytes rather than a re-serialised report.
        """
        try:
            status = assessment_status(trip["assessment_id"], url, assessee)
            envelope, _ = ProxyClient(url, assessee).get_object(status["report_id"])
            trip["report"] = unseal(envelope, trip["keypair"])
        except Exception as exc:
            trip["error"] = f"round trip {trip['index']}: report fetch failed: {exc!r}"

    def check(trip: dict) -> None:
        """Score the trip's dataset locally (timed, at the reference host speed)
        and gate the fetched report.

        The trip's dataset, truth and report are dropped afterwards, so that
        peak RSS does not grow with the number of round trips in a run.
        """
        index = trip["index"]
        host = HostSampler()
        try:
            with host:
                started = time.perf_counter()
                local = serialize_report(assess(trip["data"], schema, config))
                assess_s = time.perf_counter() - started
        except Exception as exc:
            trip["problems"] = [f"round trip {index}: local assess raised {exc!r}"]
        else:
            trip["assess_s"] = assess_s * host.scale
            trip["report_bytes"] = len(local)
            if "error" in trip:
                trip["problems"] = [trip["error"]]
            elif trip["report"] != local:
                trip["problems"] = [
                    f"round trip {index}: fetched report differs from local assess"
                ]
            else:
                trip["problems"] = report_problems(
                    trip["report"], json.loads(trip["truth"].to_json()),
                    hashlib.sha256(trip["data"]).hexdigest(), workload, args.seed,
                    pin=index == 0,
                )
        for key in ("data", "truth", "report", "keypair"):
            trip.pop(key, None)

    tracer = Tracer() if args.trace else None
    # Untraced trips come first; a traced run then repeats them under the tracer.
    phases = [(None, args.seconds / 2), (tracer, args.seconds / 2)] if tracer else [
        (None, float(args.seconds))
    ]
    trips: list[dict] = []
    try:
        for phase_tracer, phase_seconds in phases:
            if phase_tracer is not None:
                phase_tracer.install(LOCAL_PROBES + WORKFLOW_PROBES)
                phase_tracer.install_handler(server.RequestHandlerClass)
            # A phase lasts its seconds of wall time, checks included.
            phase_end = min(time.perf_counter() + phase_seconds, STARTED + BLIND_DEADLINE_S)
            while time.perf_counter() < phase_end:
                index = len(trips)
                started = time.perf_counter()
                spec = GenSpec(seed=workload.gen_seed(args.seed, index), **workload.gen)
                data, truth = generate(spec, schema)
                trip = {"index": index, "data": data, "truth": truth, "bytes": len(data),
                        "traced": phase_tracer is not None,
                        "generate_s": time.perf_counter() - started}
                keypair = KeyPair.generate()
                span = nullcontext()
                if phase_tracer is not None:
                    phase_tracer.assessment = index + 1
                    span = phase_tracer.span("bench.roundtrip")
                started = time.perf_counter()
                try:
                    with span:
                        submitted = assessee_submit(
                            data, schema_bytes, url, assessee, domain=domain,
                            expected_code_hash=enclave.code_hash, reply_keypair=keypair,
                        )
                        assessment_id = assessor_request(
                            config_bytes, submitted.dataset_id, submitted.schema_id,
                            url, assessor, domain=domain,
                        )
                        state = enclave.run_once()
                        if state != "done":
                            raise RuntimeError(f"enclave ended the assessment {state!r}")
                        assessee_fetch_report(assessment_id, url, assessee, keypair)
                    trip["roundtrip_s"] = time.perf_counter() - started
                    trip.update(assessment_id=assessment_id, keypair=keypair)
                except Exception as exc:  # a failed assessment is counted, not fatal
                    trip["error"] = f"round trip {index} failed: {exc!r}"
                trips.append(trip)
                if phase_tracer is None:
                    # Checking as we go spreads the assess_s samples over the
                    # whole run instead of one burst at its end.
                    if "error" not in trip:
                        fetch_report_bytes(trip)
                    check(trip)
            if phase_tracer is not None:
                phase_tracer.uninstall()
                # The gate's own fetches stay out of the traced HTTP counts.
                for trip in trips:
                    if trip["traced"] and "error" not in trip:
                        fetch_report_bytes(trip)
    finally:
        server.stop()
    rss = peak_rss_mib()

    for trip in trips:
        if "problems" not in trip:
            check(trip)
    failed = sum(bool(t["problems"]) for t in trips)
    problems = [p for t in trips for p in t["problems"]]
    assess_times = [t["assess_s"] for t in trips if "assess_s" in t]

    def p50(traced: bool) -> float:
        times = [t["roundtrip_s"] for t in trips if t["traced"] is traced and "roundtrip_s" in t]
        return statistics.median(times) if times else 0.0

    result = {
        "setup_s": setup_s,
        "roundtrips": [t["roundtrip_s"] for t in trips if not t["traced"] and "roundtrip_s" in t],
        "assess_samples": assess_times,
        "attempted": len(trips),
        "failed": failed,
        "problems": problems[:10],
        "peak_rss_mib": rss,
        "generate_s": statistics.median(t["generate_s"] for t in trips) if trips else 0.0,
        "report_bytes": max((t.get("report_bytes", 0) for t in trips), default=0),
        "packets": spec.sensor_count * spec.packets_per_sensor if trips else 0,
        "bytes": int(statistics.median(t["bytes"] for t in trips)) if trips else 0,
    }
    if tracer is not None:
        summary = tracer.summary(sum(t["traced"] for t in trips))
        code_hash = setup_tracer.summary(1)
        summary["probes"].update(code_hash["probes"])
        summary["absent"] = sorted(set(summary["absent"]) | set(code_hash["absent"]))
        summary["unresolved"] = sorted(set(summary["unresolved"]) | set(code_hash["unresolved"]))
        result["trace"] = summary
        result["overhead"] = p50(True) / p50(False) if p50(False) else 0.0
        Path(args.trace).write_text(
            json.dumps(setup_tracer.span_records() + tracer.span_records())
        )
    return result


COMMANDS = {
    "prepare": cmd_prepare,
    "setup": cmd_setup,
    "assess": cmd_assess,
    "blind": cmd_blind,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(COMMANDS))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out", default=".")
    parser.add_argument("--data")
    parser.add_argument("--report")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    result = COMMANDS[args.mode](args, WORKLOADS[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
