"""Command-line interface: exit codes, file outputs, printed summaries."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import ndjson_bytes
from iotdq.cli import main
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess
from iotdq.report import deserialize_report, serialize_report
from iotdq.schema import parse_schema
from iotdq.workflow.attestation import compute_code_hash
from iotdq.workflow.enclave import EnclaveRunner
from iotdq.workflow.proxy import ProxyServer


@pytest.fixture
def dataset(tmp_path: Path, demo_schema_bytes: bytes) -> dict[str, Path]:
    data = ndjson_bytes(
        [
            {"sensor_id": "a", "timestamp": 60 * i, "pm25": 1.0, "temperature": 20.0}
            for i in range(6)
        ]
    )
    data_path = tmp_path / "data.ndjson"
    data_path.write_bytes(data)
    schema_path = tmp_path / "schema.json"
    schema_path.write_bytes(demo_schema_bytes)
    return {"data": data_path, "schema": schema_path, "tmp": tmp_path}


class TestAssess:
    def test_success_prints_summary_and_writes_report(
        self, dataset, capsys: pytest.CaptureFixture
    ) -> None:
        out = dataset["tmp"] / "report.json"
        code = main(
            [
                "assess",
                "--data", str(dataset["data"]),
                "--schema", str(dataset["schema"]),
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "M1" in printed and "Timeliness" in printed
        assert "aggregate" in printed
        assert "1.000000" in printed
        report = deserialize_report(out.read_bytes())
        assert report.aggregate_score == 1.0

    def test_stdout_report(self, dataset, capsys: pytest.CaptureFixture) -> None:
        code = main(
            [
                "assess",
                "--data", str(dataset["data"]),
                "--schema", str(dataset["schema"]),
                "--out", "-",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        payload = printed[: printed.index("\n") + 1]
        assert json.loads(payload)["aggregate_score"] == 1.0

    def test_two_runs_write_identical_bytes(self, dataset) -> None:
        out1 = dataset["tmp"] / "r1.json"
        out2 = dataset["tmp"] / "r2.json"
        for out in (out1, out2):
            assert main(
                [
                    "assess",
                    "--data", str(dataset["data"]),
                    "--schema", str(dataset["schema"]),
                    "--out", str(out),
                ]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rejected_dataset_exits_2(self, dataset, capsys) -> None:
        bad = dataset["tmp"] / "bad.ndjson"
        bad.write_bytes(b"{x\n{y\n{z\n")
        code = main(
            ["assess", "--data", str(bad), "--schema", str(dataset["schema"])]
        )
        assert code == 2
        assert "rejected" in capsys.readouterr().err

    def test_missing_file_exits_1(self, dataset, capsys) -> None:
        code = main(
            [
                "assess",
                "--data", str(dataset["tmp"] / "ghost.ndjson"),
                "--schema", str(dataset["schema"]),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_exits_1(self, dataset, capsys) -> None:
        cfg = dataset["tmp"] / "config.json"
        cfg.write_bytes(b'{"mode_scope": "galactic"}')
        code = main(
            [
                "assess",
                "--data", str(dataset["data"]),
                "--schema", str(dataset["schema"]),
                "--config", str(cfg),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("doc", [b'{"weights": 5}', b'{"z_cutoff": "x"}'])
    def test_wrongly_typed_config_exits_1(self, dataset, capsys, doc) -> None:
        cfg = dataset["tmp"] / "config.json"
        cfg.write_bytes(doc)
        code = main(
            [
                "assess",
                "--data", str(dataset["data"]),
                "--schema", str(dataset["schema"]),
                "--config", str(cfg),
            ]
        )
        assert code == 1
        assert "must" in capsys.readouterr().err

    def test_json_format_spelling_maps_to_json_array(self, dataset) -> None:
        doc = [
            {"sensor_id": "a", "timestamp": 0, "pm25": 1.0, "temperature": 20.0},
            {"sensor_id": "a", "timestamp": 60, "pm25": 1.0, "temperature": 20.0},
        ]
        path = dataset["tmp"] / "data.json"
        path.write_bytes(json.dumps(doc).encode())
        code = main(
            [
                "assess",
                "--data", str(path),
                "--schema", str(dataset["schema"]),
                "--format", "json",
            ]
        )
        assert code == 0


class TestGenerate:
    def test_writes_dataset_and_truth_sidecar(self, tmp_path, capsys) -> None:
        spec = tmp_path / "spec.json"
        spec.write_bytes(json.dumps({"packets_per_sensor": 20, "seed": 4}).encode())
        out = tmp_path / "gen.ndjson"
        code = main(["generate", "--spec", str(spec), "--out", str(out)])
        assert code == 0
        assert out.exists()
        sidecar = tmp_path / "gen.ndjson.truth.json"
        truth = json.loads(sidecar.read_bytes())
        assert truth["packets_total"] == 20
        assert "wrote 20 packets" in capsys.readouterr().out

    def test_inline_schema_in_spec(self, tmp_path) -> None:
        spec = tmp_path / "spec.json"
        spec.write_bytes(
            json.dumps(
                {
                    "packets_per_sensor": 5,
                    "schema": {"properties": {"v": {"type": "integer"}}},
                }
            ).encode()
        )
        out = tmp_path / "gen.ndjson"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        record = json.loads(out.read_bytes().splitlines()[0])
        assert "v" in record and "pm25" not in record

    def test_explicit_truth_path(self, tmp_path) -> None:
        spec = tmp_path / "spec.json"
        spec.write_bytes(json.dumps({"packets_per_sensor": 5}).encode())
        out = tmp_path / "gen.ndjson"
        truth = tmp_path / "elsewhere.json"
        assert main(
            ["generate", "--spec", str(spec), "--out", str(out), "--truth", str(truth)]
        ) == 0
        assert truth.exists()

    def test_invalid_spec_exits_1(self, tmp_path, capsys) -> None:
        spec = tmp_path / "spec.json"
        spec.write_bytes(json.dumps({"jitter_fraction": 0.9}).encode())
        out = tmp_path / "gen.ndjson"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1


class TestHistogram:
    def test_csv_output(self, dataset, capsys) -> None:
        code = main(
            ["histogram", "--data", str(dataset["data"]), "--bin-width", "60"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "sensor_id,bin_seconds,count"
        assert lines[1] == "a,60,5"

    def test_output_file(self, dataset) -> None:
        out = dataset["tmp"] / "hist.csv"
        code = main(
            [
                "histogram",
                "--data", str(dataset["data"]),
                "--bin-width", "60",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("sensor_id,bin_seconds,count")

    def test_empty_input_prints_only_the_header(self, tmp_path, capsys) -> None:
        empty = tmp_path / "empty.ndjson"
        empty.write_bytes(b"")
        code = main(["histogram", "--data", str(empty), "--bin-width", "60"])
        assert code == 0
        assert capsys.readouterr().out == "sensor_id,bin_seconds,count\n"

    def test_duplicates_leave_the_histogram(self, tmp_path, capsys) -> None:
        records = [
            {"sensor_id": "a", "timestamp": 0, "v": 1},
            {"sensor_id": "a", "timestamp": 60, "v": 1},
            {"sensor_id": "a", "timestamp": 60, "v": 2},
            {"sensor_id": "a", "timestamp": 120, "v": 1},
        ]
        data = tmp_path / "dups.ndjson"
        data.write_bytes(ndjson_bytes(records))
        outputs = {}
        for key in ("id_timestamp", "full_packet"):
            config = tmp_path / f"{key}.json"
            config.write_text(json.dumps({"duplicate_key": key}))
            argv = ["histogram", "--data", str(data), "--config", str(config)]
            assert main(argv + ["--bin-width", "60"]) == 0
            outputs[key] = capsys.readouterr().out.splitlines()[1:]
        assert outputs == {"id_timestamp": ["a,60,2"], "full_packet": ["a,0,1", "a,60,2"]}

    @pytest.mark.parametrize("width", ["0", "-5", "inf", "-inf", "nan"])
    def test_unusable_bin_width_exits_1(self, dataset, capsys, width) -> None:
        argv = ["histogram", "--data", str(dataset["data"]), f"--bin-width={width}"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: bin width must be a positive finite number" in captured.err


class TestMisc:
    def test_code_hash_prints_hex(self, capsys) -> None:
        assert main(["code-hash"]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == compute_code_hash()
        assert len(printed) == 64
        int(printed, 16)

    def test_keygen_writes_private_key(self, tmp_path, capsys) -> None:
        keyfile = tmp_path / "assessee.key"
        assert main(["keygen", "--out", str(keyfile)]) == 0
        assert keyfile.stat().st_size == 32
        assert "public key id" in capsys.readouterr().out

    def test_version_flag(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


@pytest.fixture
def proxy(tmp_path: Path):
    server = ProxyServer(str(tmp_path / "store"))
    server.start()
    yield server
    server.stop()


class TestDataBlindCommands:
    def _run(self, capsys: pytest.CaptureFixture, *argv: str) -> list[str]:
        """Run one command; returns its printed lines."""
        assert main(list(argv)) == 0, argv
        return capsys.readouterr().out.splitlines()

    def test_submit_request_status_fetch(self, dataset, proxy, capsys) -> None:
        enclave = EnclaveRunner(proxy.base_url, proxy.token_for("enclave"))
        enclave.register()
        tmp = dataset["tmp"]
        config = AssessmentConfig(domain="air-quality")
        (tmp / "config.json").write_bytes(config.to_json())
        keyfile = tmp / "reply.key"
        reach = ["--proxy", proxy.base_url, "--token"]

        [code_hash] = self._run(capsys, "code-hash")
        self._run(capsys, "keygen", "--out", str(keyfile))
        printed = self._run(
            capsys,
            "submit", "--data", str(dataset["data"]),
            "--schema", str(dataset["schema"]),
            *reach, proxy.token_for("assessee"),
            "--domain", "air-quality",
            "--expected-code-hash", code_hash,
            "--keyfile", str(keyfile),
        )
        ids = dict(line.split() for line in printed)
        [line] = self._run(
            capsys,
            "request", "--config", str(tmp / "config.json"),
            "--dataset-id", ids["dataset_id"],
            "--schema-id", ids["schema_id"],
            *reach, proxy.token_for("assessor"),
            "--domain", "air-quality",
        )
        assessment_id = line.split()[1]
        status = ["status", "--assessment-id", assessment_id, *reach]
        printed = self._run(capsys, *status, proxy.token_for("assessor"))
        assert json.loads("\n".join(printed))["state"] == "pending"

        fetch = [
            "fetch", "--assessment-id", assessment_id,
            *reach, proxy.token_for("assessee"), "--keyfile", str(keyfile),
        ]
        assert main([*fetch, "--out", str(tmp / "early.json")]) == 1
        assert "not ready" in capsys.readouterr().out

        assert enclave.run_once() == "done"
        printed = self._run(capsys, *status, proxy.token_for("assessee"))
        assert json.loads("\n".join(printed))["state"] == "done"
        self._run(capsys, *fetch, "--out", str(tmp / "report.json"))
        local = assess(
            dataset["data"].read_bytes(),
            parse_schema(dataset["schema"].read_bytes()),
            config,
        )
        assert (tmp / "report.json").read_bytes() == serialize_report(local)

    def test_pinned_hash_mismatch_exits_1(self, dataset, proxy, capsys) -> None:
        EnclaveRunner(proxy.base_url, proxy.token_for("enclave")).register()
        keyfile = dataset["tmp"] / "reply.key"
        self._run(capsys, "keygen", "--out", str(keyfile))
        code = main(
            [
                "submit", "--data", str(dataset["data"]),
                "--schema", str(dataset["schema"]),
                "--proxy", proxy.base_url, "--token", proxy.token_for("assessee"),
                "--domain", "air-quality",
                "--expected-code-hash", "0" * 64,
                "--keyfile", str(keyfile),
            ]
        )
        assert code == 1
        assert "does not match" in capsys.readouterr().err
