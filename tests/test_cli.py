"""Unit tests for the command-line interface."""

import dataclasses
import datetime as dt
import json

import pytest

import repro.obs as obs
from repro import cli
from repro.flows.io import read_csv, read_npz
from repro.flows.store import FlowStore
from repro.experiments import REGISTRY, ExperimentResult, register
from tests.store_drills import age_partition, flip_byte


@pytest.fixture(autouse=True)
def _reset_obs_globals():
    """CLI runs may configure the global telemetry state; undo it."""
    yield
    obs.reset()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_default_seed(self):
        args = cli.build_parser().parse_args(["list"])
        assert args.seed == 20200316


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("fig01", "fig12", "table1", "table2"):
            assert experiment_id in out


class TestRun:
    def test_run_table_experiments(self, capsys):
        assert cli.main(["run", "table1", "table2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "Hypergiant" in out

    def test_unknown_experiment_fails(self, capsys):
        assert cli.main(["run", "fig99"]) == 2

    def test_verbose_prints_rendering(self, capsys):
        cli.main(["run", "table2", "--fast", "-v"])
        out = capsys.readouterr().out
        assert "Netflix" in out

    def test_experiment_registered_after_import_runs_and_lists(self, capsys):
        def run_extra(scenario=None, config=None):
            return ExperimentResult("extra", "Extra", checks={"ran": True})

        register("extra", "Late extra", "§0", needs_scenario=False)(run_extra)
        try:
            assert cli.main(["list"]) == 0
            # Without a runner docstring the line shows the spec title.
            assert "extra    Late extra" in capsys.readouterr().out
            assert cli.main(["run", "extra", "--fast"]) == 0
            out = capsys.readouterr().out
            assert "extra" in out
            assert "PASS" in out
        finally:
            del REGISTRY["extra"]


class TestGenerate:
    def test_generate_csv(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = cli.main(
            [
                "generate", "--vantage", "ixp-se",
                "--start", "2020-02-19", "--end", "2020-02-19",
                "--fidelity", "0.2", "-o", str(out_path),
            ]
        )
        assert code == 0
        table = read_csv(out_path)
        assert len(table) > 0

    def test_generate_npz(self, tmp_path):
        out_path = tmp_path / "trace.npz"
        cli.main(
            [
                "generate", "--vantage", "mobile-ce",
                "--start", "2020-02-19", "--end", "2020-02-19",
                "--fidelity", "0.2", "-o", str(out_path),
            ]
        )
        assert len(read_npz(out_path)) > 0

    def test_generate_outside_study_period_is_usage_error(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "trace.csv"
        code = cli.main(
            [
                "generate", "--vantage", "ixp-se",
                "--start", "2020-05-17", "--end", "2020-05-18",
                "-o", str(out_path),
            ]
        )
        assert code == 2
        assert "study period" in capsys.readouterr().err
        assert not out_path.exists()


class TestQueryServe:
    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-query") / "ixp-se"
        code = cli.main(
            [
                "generate", "--vantage", "ixp-se",
                "--start", "2020-02-19", "--end", "2020-02-22",
                "--fidelity", "0.2", "--store", str(root),
            ]
        )
        assert code == 0
        return root

    def test_generate_store_writes_partitions(self, store_dir):
        store = FlowStore(store_dir)
        assert len(store) == 4
        assert store.total_flows() > 0

    def test_generate_needs_one_destination(self, tmp_path, capsys):
        code = cli.main(
            [
                "generate", "--vantage", "ixp-se",
                "--start", "2020-02-19", "--end", "2020-02-19",
                "-o", str(tmp_path / "t.csv"), "--store", str(tmp_path),
            ]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_query_prints_table(self, store_dir, capsys):
        code = cli.main(
            [
                "query", "--store", str(store_dir),
                "--start", "2020-02-19", "--end", "2020-02-22",
                "--group-by", "transport", "--agg", "bytes,flows",
                "--where", "proto=6,17",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "transport" in out
        assert "4 partition(s) scanned" in out

    def test_query_json_output(self, store_dir, capsys):
        code = cli.main(
            [
                "query", "--store", str(store_dir),
                "--start", "2020-02-20", "--end", "2020-02-20",
                "--agg", "bytes,distinct_dst_ips", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vantage"] == "ixp-se"
        assert payload["partitions"]["scanned"] == 1
        assert payload["partitions"]["pruned"] == 3
        assert payload["rows"][0]["bytes"] > 0
        assert payload["hll_error"] > 0

    def test_query_rejects_bad_where(self, store_dir, capsys):
        code = cli.main(
            [
                "query", "--store", str(store_dir),
                "--start", "2020-02-19", "--end", "2020-02-22",
                "--where", "proto",
            ]
        )
        assert code == 2
        assert "invalid query" in capsys.readouterr().err

    def test_serve_batch(self, store_dir, tmp_path, capsys):
        batch = tmp_path / "batch.jsonl"
        lines = [
            json.dumps(
                {
                    "id": f"q{i}",
                    "vantage": "ixp-se",
                    "start": "2020-02-19",
                    "end": "2020-02-22",
                    "group_by": ["transport"],
                    "aggregates": ["bytes"],
                    "where": {"proto": proto},
                }
            )
            for i, proto in enumerate([6, 17, 6, 17])
        ]
        batch.write_text("\n".join(lines) + "\n")
        out_path = tmp_path / "results.jsonl"
        telemetry = tmp_path / "telemetry.json"
        code = cli.main(
            [
                "serve", str(batch), "--store", str(store_dir),
                "--workers", "2", "-o", str(out_path),
                "--telemetry", str(telemetry),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 4/4 queries" in out
        assert "failed partitions: 0" in out
        results = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        assert [r["id"] for r in results] == ["q0", "q1", "q2", "q3"]
        assert all(r["status"] == "ok" for r in results)
        assert results[0]["result"]["rows"] == results[2]["result"]["rows"]
        manifest = json.loads(telemetry.read_text())
        assert manifest["executor"]["name"] == "query-service"
        assert manifest["metrics"]["counters"]["query.served"] == 4

    def test_serve_reports_bad_lines(self, store_dir, tmp_path, capsys):
        batch = tmp_path / "batch.jsonl"
        batch.write_text(
            "not json\n"
            + json.dumps(
                {
                    "vantage": "nowhere",
                    "start": "2020-02-19",
                    "end": "2020-02-22",
                }
            )
            + "\n"
            + json.dumps(
                {
                    "vantage": "ixp-se",
                    "start": "2020-02-19",
                    "end": "2020-02-22",
                }
            )
            + "\n"
        )
        out_path = tmp_path / "results.jsonl"
        code = cli.main(
            [
                "serve", str(batch), "--store", str(store_dir),
                "-o", str(out_path),
            ]
        )
        assert code == 1
        statuses = [
            json.loads(line)["status"]
            for line in out_path.read_text().splitlines()
        ]
        assert statuses == ["error", "error", "ok"]

    def test_serve_rejects_missing_batch(self, store_dir, capsys):
        code = cli.main(
            ["serve", "/nonexistent/batch.jsonl", "--store", str(store_dir)]
        )
        assert code == 2


class TestStoreStats:
    @pytest.fixture
    def v3_store_dir(self, tmp_path):
        root = tmp_path / "ce"
        code = cli.main(
            [
                "generate", "--vantage", "isp-ce",
                "--start", "2020-02-19", "--end", "2020-02-21",
                "--fidelity", "0.2", "--store", str(root),
            ]
        )
        assert code == 0
        return root

    def test_stats_reports_per_column_encodings(
        self, v3_store_dir, capsys
    ):
        capsys.readouterr()
        assert cli.main(["store", "stats", str(v3_store_dir)]) == 0
        out = capsys.readouterr().out
        assert "(3 partition(s))" in out
        assert "unreadable" not in out
        for column in ("proto", "hour", "n_bytes", "total"):
            assert column in out
        assert "dict" in out and "delta" in out

    def test_stats_json_payload(self, v3_store_dir, capsys):
        capsys.readouterr()
        assert cli.main(
            ["store", "stats", str(v3_store_dir), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partitions"] == 3
        assert payload["unreadable"] == {}
        assert 0 < payload["total_stored_nbytes"] < \
            payload["total_raw_nbytes"]
        proto = payload["columns"]["proto"]
        assert "dict" in proto["encodings"]
        assert proto["max_cardinality"] >= 2

    @staticmethod
    def _age_all(root):
        store = FlowStore(root)
        for day in store.days():
            age_partition(root, day, store.read_day(day), None)

    def test_stats_on_v1_store(self, v3_store_dir, capsys):
        # A store whose every day is a v1 archive has nothing readable:
        # the report names each day instead of printing empty totals.
        self._age_all(v3_store_dir)
        capsys.readouterr()
        assert cli.main(["store", "stats", str(v3_store_dir)]) == 0
        out = capsys.readouterr().out
        assert "3 unreadable partition(s)" in out
        for day in ("2020-02-19", "2020-02-20", "2020-02-21"):
            assert f"  {day}: partition for {day} has no format" in out
        assert "no readable partitions to report" in out

    def test_stats_reports_unreadable_partitions(
        self, v3_store_dir, capsys
    ):
        capsys.readouterr()
        cli.main(["store", "stats", str(v3_store_dir), "--json"])
        intact = json.loads(capsys.readouterr().out)
        store = FlowStore(v3_store_dir)
        old = dt.date(2020, 2, 19)
        age_partition(v3_store_dir, old, store.read_day(old), 2)
        flip_byte(v3_store_dir / "2020-02-21" / "sidecar.json")
        assert cli.main(
            ["store", "stats", str(v3_store_dir), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partitions"] == 3
        unreadable = payload["unreadable"]
        assert sorted(unreadable) == ["2020-02-19", "2020-02-21"]
        assert "format 2" in unreadable["2020-02-19"]
        assert "corrupt" in unreadable["2020-02-21"]
        # Only the one readable day is in the totals.
        assert 0 < payload["total_raw_nbytes"] < intact["total_raw_nbytes"]
        assert cli.main(["store", "stats", str(v3_store_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 unreadable partition(s), left out of the totals" in out
        assert "  2020-02-19: " in out and "  2020-02-21: " in out


class TestQueryExplain:
    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-explain") / "ixp-se"
        code = cli.main(
            [
                "generate", "--vantage", "ixp-se",
                "--start", "2020-02-19", "--end", "2020-02-22",
                "--fidelity", "0.2", "--store", str(root),
            ]
        )
        assert code == 0
        return root

    def test_explain_shows_projection(self, store_dir, capsys):
        code = cli.main(
            [
                "query", "--store", str(store_dir),
                "--start", "2020-02-19", "--end", "2020-02-22",
                "--group-by", "proto", "--agg", "bytes", "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "partitions to scan: 4" in out
        assert "columns projected: proto, n_bytes" in out
        assert "estimated bytes read:" in out

    def test_explain_does_not_execute(self, store_dir, capsys):
        obs.configure(telemetry=True)
        try:
            code = cli.main(
                [
                    "query", "--store", str(store_dir),
                    "--start", "2020-02-19", "--end", "2020-02-22",
                    "--agg", "bytes", "--explain",
                ]
            )
            counters = obs.get_registry().snapshot()["counters"]
        finally:
            obs.reset()
        assert code == 0
        assert counters.get("query.partitions-scanned", 0) == 0
        out = capsys.readouterr().out
        assert "answered from sidecar pre-aggregates: 4 partition(s)" in out
        assert "estimated bytes read: 0" in out

    def test_explain_reports_zone_pruning(self, store_dir, capsys):
        code = cli.main(
            [
                "query", "--store", str(store_dir),
                "--start", "2020-02-19", "--end", "2020-02-22",
                "--where", "src_port=100000..200000",
                "--agg", "bytes", "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "partitions to scan: 0" in out
        assert "4 by zone map" in out

    def test_explain_json_is_machine_readable(self, store_dir, capsys):
        code = cli.main(
            [
                "query", "--store", str(store_dir),
                "--start", "2020-02-19", "--end", "2020-02-22",
                "--group-by", "transport", "--agg", "bytes",
                "--explain", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["days"]) == 4
        assert payload["columns"] == [
            "proto", "src_port", "dst_port", "n_bytes"
        ]
        assert payload["estimated_bytes"] > 0
        assert payload["pruned"]["by_zone"] == 0


class TestReport:
    def test_report_to_file(self, tmp_path, capsys):
        # Restrict cost: report runs everything, so use the fast path.
        out_path = tmp_path / "report.md"
        code = cli.main(["report", "--fast", "-o", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert "# Experiment report" in text
        assert "fig11" in text
        assert "paper" in text


class TestClassify:
    def test_classify_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        cli.main(
            [
                "generate", "--vantage", "ixp-se",
                "--start", "2020-03-18", "--end", "2020-03-18",
                "--fidelity", "0.3", "-o", str(trace),
            ]
        )
        capsys.readouterr()
        assert cli.main(["classify", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "gaming" in out
        assert "share" in out


class TestVPNScan:
    def test_scan_summary(self, capsys):
        assert cli.main(["vpn-scan"]) == 0
        out = capsys.readouterr().out
        assert "candidate addresses" in out
        assert "www-shared eliminated" in out

    def test_scan_verbose_lists_domains(self, capsys):
        cli.main(["vpn-scan", "-v", "--limit", "3"])
        out = capsys.readouterr().out
        assert "vpn" in out


class TestExportDetect:
    @pytest.fixture
    def trace(self, tmp_path):
        path = tmp_path / "trace.npz"
        cli.main(
            [
                "generate", "--vantage", "ixp-se",
                "--start", "2020-03-09", "--end", "2020-03-20",
                "--fidelity", "0.2", "-o", str(path),
            ]
        )
        return path

    def test_export_ipfix_round_trips(self, trace, tmp_path, capsys):
        out = tmp_path / "trace.ipfix"
        assert cli.main(["export", str(trace), "-o", str(out)]) == 0
        # Re-read the length-prefixed stream and decode it.
        from repro.flows import ipfix
        from repro.flows.io import read_npz

        messages = []
        data = out.read_bytes()
        offset = 0
        while offset < len(data):
            length = int.from_bytes(data[offset : offset + 4], "big")
            offset += 4
            messages.append(data[offset : offset + length])
            offset += length
        decoded = ipfix.decode_messages(messages)
        assert decoded == read_npz(trace)

    def test_export_netflow5_warns_lossy(self, trace, tmp_path, capsys):
        out = tmp_path / "trace.nf5"
        cli.main(
            ["export", str(trace), "--format", "netflow5", "-o", str(out)]
        )
        stdout = capsys.readouterr().out
        assert "lossy" in stdout

    def test_detect_runs(self, trace, capsys):
        assert cli.main(["detect", str(trace), "--threshold", "3"]) == 0
        assert "anomalous day(s)" in capsys.readouterr().out

    def test_detect_short_trace_rejected(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        cli.main(
            [
                "generate", "--vantage", "ixp-se",
                "--start", "2020-03-09", "--end", "2020-03-10",
                "--fidelity", "0.2", "-o", str(path),
            ]
        )
        assert cli.main(["detect", str(path)]) == 1


class TestArtifacts:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = cli.main(
            ["run", "table1", "table2", "--fast",
             "--artifacts", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "table2" / "metrics.json").exists()
        # write_run adds the run manifest next to summary.json.
        assert (out_dir / "telemetry.json").exists()


class TestTelemetry:
    def test_run_telemetry_writes_manifest(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        code = cli.main(
            ["run", "table1", "table2", "--fast", "--telemetry", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert [s["name"] for s in payload["trace"]["spans"]] == [
            "experiment/table1", "experiment/table2"
        ]
        assert payload["seed"] == 20200316
        assert payload["config"]["flow_fidelity"] == 0.5
        assert payload["metrics"]["counters"]["experiments.runs"] == 2

    def test_telemetry_subcommand_pretty_prints(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        cli.main(["run", "table2", "--fast", "--telemetry", str(path)])
        capsys.readouterr()
        assert cli.main(["telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "experiment/table2" in out
        assert "span tree" in out
        assert "top counters" in out

    def test_telemetry_subcommand_rejects_bad_file(self, tmp_path, capsys):
        path = tmp_path / "not-json.json"
        path.write_text("{")
        assert cli.main(["telemetry", str(path)]) == 2


def _stub_table1(monkeypatch, runner):
    """Swap table1's registered runner for ``runner``."""
    spec = dataclasses.replace(REGISTRY["table1"], runner=runner)
    monkeypatch.setitem(REGISTRY, "table1", spec)


class TestExitStatus:
    def test_failing_checks_exit_nonzero(self, monkeypatch, capsys):
        def fake_run(scenario=None, config=None):
            return ExperimentResult(
                "table1", "stub", checks={"shape holds": False}
            )

        _stub_table1(monkeypatch, fake_run)
        assert cli.main(["run", "table1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "failing shape checks" in out

    def _assert_crash_reported(self, monkeypatch, capsys, tmp_path, jobs):
        def fake_run(scenario=None, config=None):
            raise RuntimeError("boom")

        _stub_table1(monkeypatch, fake_run)
        path = tmp_path / "telemetry.json"
        code = cli.main([
            "--log-level", "error", "run", "table1", "table2",
            "--jobs", str(jobs), "--telemetry", str(path),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        event = json.loads(captured.err.strip().splitlines()[-1])
        assert event["event"] == "experiment-crashed"
        assert event["experiment"] == "table1"
        assert event["error"] == "RuntimeError: boom"
        # The crash still lands in the manifest as a failed experiment.
        payload = json.loads(path.read_text())
        assert payload["experiments"]["table1"]["passed"] is False
        assert payload["experiments"]["table2"]["passed"] is True

    def test_crashing_experiment_exits_nonzero(
        self, monkeypatch, capsys, tmp_path
    ):
        self._assert_crash_reported(monkeypatch, capsys, tmp_path, jobs=1)

    def test_crashing_experiment_with_jobs_exits_nonzero(
        self, monkeypatch, capsys, tmp_path
    ):
        self._assert_crash_reported(monkeypatch, capsys, tmp_path, jobs=2)

    def test_failed_checks_logged_as_json_events(
        self, monkeypatch, capsys
    ):
        def fake_run(scenario=None, config=None):
            return ExperimentResult(
                "table1", "stub", checks={"bad check": False}
            )

        _stub_table1(monkeypatch, fake_run)
        code = cli.main(["--log-level", "warning", "run", "table1"])
        assert code == 1
        err = capsys.readouterr().err
        event = json.loads(err.strip().splitlines()[-1])
        assert event["event"] == "experiment-failed"
        assert event["experiment"] == "table1"
        assert event["failed_checks"] == ["bad check"]
