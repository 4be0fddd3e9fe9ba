"""Command-line interface.

Exit codes: 0 success, 1 usage or environment error, 2 dataset rejected.
The DQ_LOG environment variable sets the log level (debug, info, ...), and
IOTDQ_TOKEN is the bearer token of a command given no --token.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from typing import Any, NoReturn, Sequence

from .errors import (
    DatasetRejectedError,
    GenSpecError,
    IotDqError,
    ReportNotReady,
    load_json,
)
from .model import DIMENSIONS, METRIC_IDS, AssessmentConfig
from .pipeline import assess_file, sensor_iats
from .report import serialize_report
from .schema import parse_schema
from .synthgen import DEFAULT_SCHEMA, GenSpec, generate, iat_histogram
from .version import __version__
from .workflow.clients import (
    assessee_fetch_report,
    assessee_submit,
    assessment_status,
    assessor_request,
)
from .workflow.enclave import EnclaveRunner
from .workflow.proxy import DEFAULT_MAX_OBJECT_BYTES, proxy_serve
from .workflow.sealing import KeyPair

_TOKEN_ENV = "IOTDQ_TOKEN"
_FORMAT_SPELLINGS = {
    "ndjson": "ndjson",
    "csv": "csv",
    "json": "json_array",
    "json_array": "json_array",
}


def _setup_logging() -> None:
    level_name = os.environ.get("DQ_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _load_config(args: argparse.Namespace) -> AssessmentConfig:
    """--config, or the default config, with --format's dataset format."""
    config = AssessmentConfig()
    if args.config is not None:
        config = AssessmentConfig.from_json(_read(args.config))
    if args.format:
        config = replace(config, dataset_format=_FORMAT_SPELLINGS[args.format])
    return config


def cmd_assess(args: argparse.Namespace) -> int:
    config = _load_config(args)
    schema = parse_schema(_read(args.schema))
    report = assess_file(args.data, schema, config)
    payload = serialize_report(report)
    if args.out:
        _write(args.out, payload)
    print(f"{'metric':<8}{'dimension':<14}score")
    for result in report.per_metric:
        shown = "n/a" if result.score is None else f"{result.score:.6f}"
        print(f"{result.metric_id:<8}{DIMENSIONS[result.metric_id]:<14}{shown}")
    print(f"{'':<8}{'aggregate':<14}{report.aggregate_score:.6f}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec_raw = _read(args.spec)
    spec = GenSpec.from_json(spec_raw)
    if args.schema:
        schema_source: Any = _read(args.schema)
    else:
        doc = load_json(spec_raw, GenSpecError, "spec")
        schema_source = doc.get("schema", DEFAULT_SCHEMA)
        if isinstance(schema_source, str):
            schema_source = _read(schema_source)
    schema = parse_schema(schema_source)
    data, truth = generate(spec, schema)
    _write(args.out, data)
    truth_path = args.truth or f"{args.out}.truth.json"
    _write(truth_path, truth.to_json())
    print(f"wrote {truth.packets_total} packets to {args.out}")
    print(f"ground truth sidecar: {truth_path}")
    return 0


def cmd_histogram(args: argparse.Namespace) -> int:
    config = _load_config(args)
    iat_histogram((), args.bin_width)  # refuses a bad width before the read
    lines = ["sensor_id,bin_seconds,count"]
    for sensor_id, iats in sensor_iats(args.data, config):
        for bin_value, count in iat_histogram(iats, args.bin_width):
            lines.append(f"{sensor_id},{bin_value:g},{count}")
    output = ("\n".join(lines) + "\n").encode("utf-8")
    _write(args.out or "-", output)
    return 0


def cmd_proxy(args: argparse.Namespace) -> int:
    proxy_serve(args.store, args.bind, args.max_object_bytes)
    return 0


def cmd_enclave(args: argparse.Namespace) -> int:
    runner = EnclaveRunner(args.proxy, args.token)
    try:
        runner.register()
        print(f"enclave registered, code hash {runner.code_hash}")
        runner.serve_forever()
    finally:
        runner.close()
    return 0


def cmd_code_hash(_args: argparse.Namespace) -> int:
    from .workflow.attestation import compute_code_hash

    print(compute_code_hash())
    return 0


def cmd_keygen(args: argparse.Namespace) -> int:
    keypair = KeyPair.generate()
    keypair.save(args.out)
    print(f"private key written to {args.out}")
    print(f"public key id {keypair.key_id.hex()}")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    keypair = KeyPair.load(args.keyfile)
    result = assessee_submit(
        args.data,
        args.schema,
        args.proxy,
        args.token,
        domain=args.domain,
        expected_code_hash=args.expected_code_hash,
        reply_keypair=keypair,
    )
    print(f"dataset_id {result.dataset_id}")
    print(f"schema_id {result.schema_id}")
    return 0


def cmd_request(args: argparse.Namespace) -> int:
    assessment_id = assessor_request(
        args.config,
        args.dataset_id,
        args.schema_id,
        args.proxy,
        args.token,
        domain=args.domain,
    )
    print(f"assessment_id {assessment_id}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    status = assessment_status(args.assessment_id, args.proxy, args.token)
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    keypair = KeyPair.load(args.keyfile)
    try:
        report = assessee_fetch_report(
            args.assessment_id, args.proxy, args.token, keypair
        )
    except ReportNotReady as exc:
        print(f"not ready: {exc}")
        return 1
    _write(args.out or "-", serialize_report(report))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits 1: its own 2 means a rejected dataset."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_token(parser: argparse.ArgumentParser) -> None:
    """--token, required unless _TOKEN_ENV is set: any local user can read a
    process's arguments, but not its environment."""
    token = os.environ.get(_TOKEN_ENV)
    parser.add_argument(
        "--token",
        default=token or None,
        required=not token,
        help=f"bearer token (default: ${_TOKEN_ENV})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="iotdq",
        description="Data-quality scoring for static time-series IoT datasets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="score a dataset against a schema")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--config")
    p.add_argument("--format", choices=sorted(_FORMAT_SPELLINGS))
    p.add_argument("--out", help="report path, or - for stdout")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--schema", help="schema path overriding the one named in --spec")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="ground-truth sidecar path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("histogram", help="per-sensor IAT histogram as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--format", choices=sorted(_FORMAT_SPELLINGS))
    p.add_argument("--bin-width", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("proxy", help="run the sealed-object proxy server")
    p.add_argument("--store", required=True)
    p.add_argument("--bind", default="127.0.0.1:8440")
    p.add_argument("--max-object-bytes", type=int, default=DEFAULT_MAX_OBJECT_BYTES)
    p.set_defaults(func=cmd_proxy)

    p = sub.add_parser("enclave", help="run the enclave worker")
    p.add_argument("--proxy", required=True)
    _add_token(p)
    p.set_defaults(func=cmd_enclave)

    p = sub.add_parser("code-hash", help="print this installation's code hash")
    p.set_defaults(func=cmd_code_hash)

    p = sub.add_parser("keygen", help="generate a private keyfile")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("submit", help="assessee: upload sealed dataset and schema")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--proxy", required=True)
    _add_token(p)
    p.add_argument("--domain", required=True)
    p.add_argument("--expected-code-hash", required=True)
    p.add_argument("--keyfile", required=True)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("request", help="assessor: request an assessment")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset-id", required=True)
    p.add_argument("--schema-id", required=True)
    p.add_argument("--proxy", required=True)
    _add_token(p)
    p.add_argument("--domain", required=True)
    p.set_defaults(func=cmd_request)

    p = sub.add_parser("status", help="check an assessment's state")
    p.add_argument("--assessment-id", required=True)
    p.add_argument("--proxy", required=True)
    _add_token(p)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("fetch", help="assessee: download and unseal the report")
    p.add_argument("--assessment-id", required=True)
    p.add_argument("--proxy", required=True)
    _add_token(p)
    p.add_argument("--keyfile", required=True)
    p.add_argument("--out", help="report path, or - for stdout")
    p.set_defaults(func=cmd_fetch)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DatasetRejectedError as exc:
        print(f"dataset rejected: {exc}", file=sys.stderr)
        return 2
    except (OSError, IotDqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
