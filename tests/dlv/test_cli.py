"""CLI tests: the full dlv command suite end-to-end via main()."""

import json

import numpy as np
import pytest

from repro.dlv import wrapper
from repro.dlv.cli import main
from repro.dnn.training import SGDConfig, Trainer
from repro.dnn.zoo import tiny_mlp


@pytest.fixture
def cli_env(tmp_path, digits, capsys):
    """An initialized repository plus a trained model directory."""
    repo_dir = tmp_path / "repo"
    assert main(["--repo", str(repo_dir), "init"]) == 0
    capsys.readouterr()

    net = tiny_mlp(
        input_shape=digits.input_shape, num_classes=digits.num_classes,
        name="tiny-cli",
    ).build(0)
    config = SGDConfig(epochs=1, base_lr=0.1)
    result = Trainer(net, config).fit(digits.x_train, digits.y_train)
    model_dir = wrapper.save_model_dir(tmp_path / "model", net, config, result)
    return repo_dir, model_dir, tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestVersionManagement:
    def test_commit_list_desc(self, cli_env, capsys):
        repo_dir, model_dir, _ = cli_env
        code, out = run(
            capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "tiny-cli", "-m", "first",
        )
        assert code == 0 and out["id"] == 1

        code, out = run(capsys, "--repo", repo_dir, "list")
        assert code == 0
        assert out["versions"][0]["name"] == "tiny-cli"

        code, out = run(capsys, "--repo", repo_dir, "desc", "tiny-cli")
        assert code == 0
        assert out["message"] == "first"

    def test_copy_creates_lineage(self, cli_env, capsys):
        repo_dir, model_dir, _ = cli_env
        run(capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "tiny-cli")
        code, out = run(capsys, "--repo", repo_dir, "copy", "tiny-cli", "tiny-2")
        assert code == 0 and out["copied"].startswith("tiny-2@")
        code, out = run(capsys, "--repo", repo_dir, "list")
        assert out["lineage"] == [
            {"base": 1, "derived": 2, "message": "copied from tiny-cli@1"}
        ]

    def test_add_stages_files(self, cli_env, capsys):
        repo_dir, _, tmp = cli_env
        f = tmp / "notes.txt"
        f.write_text("hparams tried: ...")
        code, out = run(capsys, "--repo", repo_dir, "add", f)
        assert code == 0 and str(f) in out["staged"]

    def test_convert(self, cli_env, capsys):
        repo_dir, model_dir, _ = cli_env
        run(capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "tiny-cli")
        code, out = run(
            capsys, "--repo", repo_dir, "convert", "tiny-cli",
            "--float-scheme", "fixed8",
        )
        assert code == 0
        assert out["bytes_after"] < out["bytes_before"]

    def test_archive(self, cli_env, capsys):
        repo_dir, model_dir, _ = cli_env
        run(capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "tiny-cli")
        code, out = run(
            capsys, "--repo", repo_dir, "archive",
            "--alpha", "2.0", "--algorithm", "pas-mt",
        )
        assert code == 0
        assert out["satisfied"] is True


class TestExploration:
    def test_diff(self, cli_env, capsys):
        repo_dir, model_dir, _ = cli_env
        run(capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "a")
        run(capsys, "--repo", repo_dir, "copy", "a", "b")
        code, out = run(
            capsys, "--repo", repo_dir, "diff", "a", "b", "--parameters"
        )
        assert code == 0
        assert out["structure"]["added"] == []
        assert "parameters" in out

    def test_eval(self, cli_env, capsys, digits):
        repo_dir, model_dir, tmp = cli_env
        run(capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "tiny-cli")
        data = tmp / "test.npz"
        np.savez(data, x=digits.x_test[:10], y=digits.y_test[:10])
        code, out = run(capsys, "--repo", repo_dir, "eval", "tiny-cli", data)
        assert code == 0
        assert len(out["predictions"]) == 10
        assert 0.0 <= out["accuracy"] <= 1.0

    def test_eval_progressive(self, cli_env, capsys, digits):
        repo_dir, model_dir, tmp = cli_env
        run(capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "tiny-cli")
        data = tmp / "ptest.npz"
        np.savez(data, x=digits.x_test[:8], y=digits.y_test[:8])
        code, out = run(
            capsys, "--repo", repo_dir, "eval", "tiny-cli", data,
            "--progressive",
        )
        assert code == 0
        assert len(out["predictions"]) == 8
        assert 0.0 < out["bytes_fraction"] <= 1.0
        # Progressive answers equal plain answers.
        code, plain = run(capsys, "--repo", repo_dir, "eval", "tiny-cli", data)
        assert out["predictions"] == plain["predictions"]

    def test_log_and_gc(self, cli_env, capsys):
        repo_dir, model_dir, _ = cli_env
        run(capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "tiny-cli")
        code, out = run(capsys, "--repo", repo_dir, "log", "tiny-cli")
        assert code == 0 and isinstance(out, list) and out
        code, out = run(capsys, "--repo", repo_dir, "gc")
        assert code == 0 and out["chunks_removed"] >= 0

    def test_html_reports(self, cli_env, capsys):
        repo_dir, model_dir, tmp = cli_env
        run(capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "tiny-cli")
        run(capsys, "--repo", repo_dir, "copy", "tiny-cli", "tiny-2")
        for argv, name in [
            (["desc", "tiny-cli"], "desc.html"),
            (["list"], "list.html"),
            (["diff", "tiny-cli", "tiny-2"], "diff.html"),
        ]:
            out_path = tmp / name
            code, out = run(
                capsys, "--repo", repo_dir, *argv, "--html", out_path
            )
            assert code == 0
            assert out_path.exists()
            assert out_path.read_text().startswith("<!DOCTYPE html>")

    def test_query(self, cli_env, capsys):
        repo_dir, model_dir, _ = cli_env
        run(capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "tiny-cli")
        code, out = run(
            capsys, "--repo", repo_dir, "query",
            'select m1 where m1.name like "tiny%"',
        )
        assert code == 0
        assert out["versions"][0]["name"] == "tiny-cli"


class TestRemote:
    def test_publish_search_pull(self, cli_env, capsys):
        repo_dir, model_dir, tmp = cli_env
        hub = tmp / "hub"
        run(capsys, "--repo", repo_dir, "commit",
            "--model-dir", model_dir, "--name", "tiny-cli")
        code, out = run(
            capsys, "--repo", repo_dir, "publish",
            "--hub", hub, "--name", "shared-tiny", "-m", "demo",
        )
        assert code == 0 and out["revision"] == 1

        code, out = run(capsys, "--repo", repo_dir, "search",
                        "--hub", hub, "shared*")
        assert code == 0 and out[0]["name"] == "shared-tiny"

        dest = tmp / "pulled"
        code, out = run(
            capsys, "--repo", repo_dir, "pull", "--hub", hub,
            "shared-tiny", dest,
        )
        assert code == 0
        code, out = run(capsys, "--repo", dest, "list")
        assert out["versions"][0]["name"] == "tiny-cli"


class TestErrors:
    def test_unknown_version_is_clean_error(self, cli_env, capsys):
        repo_dir, _, _ = cli_env
        code = main(["--repo", str(repo_dir), "desc", "ghost"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err

    def test_double_init_is_clean_error(self, cli_env, capsys):
        repo_dir, _, _ = cli_env
        code = main(["--repo", str(repo_dir), "init"])
        assert code == 1


class TestObservabilityCommands:
    def test_trace_export_jsonl_and_chrome(self, cli_env, capsys, tmp_path):
        from repro.obs.tracing import TraceRecorder, set_recorder, trace_span

        repo_dir, _, _ = cli_env
        fresh = TraceRecorder(capacity=64)
        previous = set_recorder(fresh)
        try:
            with trace_span("outer", kind="demo"):
                with trace_span("inner"):
                    pass
            code = main(["--repo", str(repo_dir), "trace", "export"])
            out = capsys.readouterr().out
            assert code == 0
            lines = [json.loads(l) for l in out.splitlines() if l.strip()]
            assert {d["name"] for d in lines} == {"outer", "inner"}

            target = tmp_path / "chrome.json"
            code = main([
                "--repo", str(repo_dir), "trace", "export",
                "--chrome", "--out", str(target),
            ])
            report = json.loads(capsys.readouterr().out)
            assert code == 0 and report["format"] == "chrome"
            chrome = json.loads(target.read_text())
            slices = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
            assert {e["name"] for e in slices} == {"outer", "inner"}
        finally:
            set_recorder(previous)

    def test_trace_export_name_filter(self, cli_env, capsys):
        from repro.obs.tracing import TraceRecorder, set_recorder, trace_span

        repo_dir, _, _ = cli_env
        previous = set_recorder(TraceRecorder(capacity=64))
        try:
            with trace_span("alpha"):
                pass
            with trace_span("beta"):
                pass
            code = main([
                "--repo", str(repo_dir), "trace", "export", "--name", "alp",
            ])
            out = capsys.readouterr().out
            lines = [json.loads(l) for l in out.splitlines() if l.strip()]
            assert code == 0
            assert [d["name"] for d in lines] == ["alpha"]
        finally:
            set_recorder(previous)

    def test_slowlog_local(self, cli_env, capsys):
        from repro.obs.cost import SlowLog, set_slowlog

        repo_dir, _, _ = cli_env
        fresh = SlowLog(capacity=8, threshold_ms=0.0)
        previous = set_slowlog(fresh)
        try:
            fresh.record("demo.op", ms=12.5, trace_id="t" * 32,
                         cost={"bytes_read": 99, "planes_fetched": 2})
            code, out = run(capsys, "--repo", repo_dir, "slowlog", "--json")
            assert code == 0
            assert out["entries"][0]["name"] == "demo.op"

            code = main(["--repo", str(repo_dir), "slowlog"])
            text = capsys.readouterr().out
            assert code == 0
            assert "demo.op" in text and "bytes=99" in text
        finally:
            set_slowlog(previous)

    def test_stats_span_filters(self, cli_env, capsys):
        from repro.obs.tracing import TraceRecorder, set_recorder, trace_span

        repo_dir, _, _ = cli_env
        previous = set_recorder(TraceRecorder(capacity=64))
        try:
            with trace_span("keep.me"):
                pass
            with trace_span("drop.me"):
                pass
            code, out = run(
                capsys, "--repo", repo_dir, "stats", "--json", "--spans",
                "--no-retrieval", "--name", "keep",
            )
            assert code == 0
            assert [s["name"] for s in out["spans"]] == ["keep.me"]
        finally:
            set_recorder(previous)

    def test_hub_serve_requires_hub_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["hub-serve"])


class TestHubStatus:
    """``dlv hub status`` against an in-process fleet."""

    @pytest.fixture
    def fleet(self, tmp_path):
        from repro.hub import HubFleet

        src = tmp_path / "tree"
        src.mkdir()
        (src / "x.bin").write_bytes(b"x" * 256)
        with HubFleet(tmp_path / "fleet", size=2) as fleet:
            fleet.primary.server.publish("status-demo", src)
            fleet.sync()
            yield fleet

    def test_json_healthy_fleet_exits_zero(self, fleet, capsys):
        code, out = run(
            capsys, "hub", "status", "--hub", ",".join(fleet.urls), "--json"
        )
        assert code == 0
        assert out["healthy"] == 2
        assert out["watermark"] == 1
        roles = [p["role"] for p in out["peers"]]
        assert roles == ["primary", "replica"]
        assert out["peers"][1]["lag"] == 0

    def test_down_peer_exits_nonzero(self, fleet, capsys):
        fleet.kill(1)
        code, out = run(
            capsys, "hub", "status", "--hub", ",".join(fleet.urls), "--json"
        )
        assert code == 1
        assert out["healthy"] == 1
        assert out["peers"][1]["ok"] is False

    def test_text_report_lists_peers(self, fleet, capsys):
        code = main(["hub", "status", "--hub", ",".join(fleet.urls)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 peers healthy" in out
        assert "primary" in out and "replica" in out

    def test_status_requires_hub_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["hub", "status"])
