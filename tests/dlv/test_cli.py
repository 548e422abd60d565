"""CLI tests: the full dlv command suite end-to-end via main()."""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dlv import wrapper
from repro.dlv.cli import VERBS, _parser, main
from repro.serve.client import ServeClient
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


def boot(*argv, cwd):
    """Start ``python -m repro.dlv.cli ...`` (``serve``/``hub-serve``) in
    ``cwd``; returns the process and its start-up JSON."""
    env = dict(os.environ)
    env.pop("DLV_STORE", None)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.dlv.cli", *map(str, argv)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    lines = []
    while not lines or lines[-1].rstrip() != "}":
        line = proc.stdout.readline()
        if not line:
            _, err = proc.communicate(timeout=30)
            pytest.fail(f"dlv exited during boot: {err}")
        lines.append(line)
    return proc, json.loads("".join(lines))


def stop(proc):
    """SIGTERM a booted server; returns (exit status, its stop JSON)."""
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    return json.loads(out[out.rfind("{"):])


def closed_port_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


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

    @pytest.mark.parametrize("argv", [
        ("trace", "export", "--url", "{url}"),
        ("slowlog", "--url", "{url}"),
        ("top", "--url", "{url}", "--iterations", "1"),
        ("search", "--hub", "{url}", "*"),
        ("pull", "--hub", "{url}", "shared", "{tmp}/pulled"),
        ("serve", "--hub", "{url}", "--name", "shared"),
        ("publish", "--hub", "{url}", "--name", "shared"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_unreachable_server_is_clean_error(self, cli_env, capsys, argv):
        """A dead server or hub is one ``dlv: error:`` line, exit 1."""
        repo_dir, _, tmp = cli_env
        url = closed_port_url()
        code = main(
            ["--repo", str(repo_dir)]
            + [a.format(url=url, tmp=tmp) for a in argv]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("dlv: error:") and err.count("\n") == 1, err
        assert "Traceback" not in err


def _parsed_output(capsys, parse, argv):
    """``(exit code, stdout, stderr)`` of one argparse run."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


class TestSingleVerbParser:
    """``main`` builds only the invoked verb's arguments; what argparse
    prints must not be able to tell."""

    @pytest.mark.parametrize("argv", [
        ["-h"],
        *[name.split() + ["-h"] for name in VERBS],
        ["trace", "-h"],
        ["--repo", "list", "commit", "-h"],  # a verb name as option value
        ["--rep=x", "--st", "u", "archive", "-h"],  # abbreviated options
        ["commit", "--name", "x"],  # usage error: --model-dir missing
        ["archive", "--alpha", "two"],  # usage error: bad type
        ["no-such-verb"],
        ["hub", "nope"],
        [],
    ], ids=lambda argv: " ".join(argv) or "(none)")
    def test_output_matches_the_full_parser(self, capsys, argv):
        full = _parsed_output(capsys, _parser().parse_args, argv)
        lazy = _parsed_output(capsys, main, argv)
        assert lazy == full
        assert full[1] or full[2]


def _sample_argv(verb) -> list[str]:
    """``verb``'s name and a value for every one of its arguments."""
    argv = verb.name.split()
    for flags, options in verb.args:
        action = options.get("action")
        if "choices" in options:
            value = str(options["choices"][0])
        elif options.get("type") in (int, float):
            value = "3"
        else:
            value = "v"
        if not flags[0].startswith("-"):
            argv.append(value)
        elif action == "store_true":
            argv.append(flags[-1])
        else:
            argv += [flags[-1], value]
    return argv


class TestVerbListing:
    """Where no verb is invoked, the parser still lists every verb."""

    TOP = sorted({name.split()[0] for name in VERBS})

    @pytest.mark.parametrize("argv", [[], ["-h"], ["no-such-verb"]],
                             ids=["bare", "help", "unknown"])
    def test_top_level_lists_every_verb(self, capsys, argv):
        _code, out, err = _parsed_output(capsys, main, argv)
        listing = out + err
        assert all(name in listing for name in self.TOP)
        assert "{" + ",".join(
            dict.fromkeys(name.split()[0] for name in VERBS)
        ) + "}" in listing

    @pytest.mark.parametrize("group", sorted(
        {name.split()[0] for name in VERBS if " " in name}
    ))
    def test_group_help_lists_its_verbs(self, capsys, group):
        code, out, _err = _parsed_output(capsys, main, [group, "-h"])
        assert code == 0
        leaves = [n.split()[1] for n in VERBS if n.split()[0] == group]
        assert leaves and all(leaf in out for leaf in leaves)

    @pytest.mark.parametrize("name", list(VERBS))
    def test_each_verb_parses_as_with_every_verb_built(self, name):
        argv = ["--repo", "r"] + _sample_argv(VERBS[name])
        lazy = _parser(argv)
        verbs = [a for a in lazy._actions
                 if isinstance(a, argparse._SubParsersAction)][0]
        assert list(verbs.choices) == [name.split()[0]]
        assert vars(lazy.parse_args(argv)) == vars(_parser().parse_args(argv))


class TestRepositoryTarget:
    def test_serve_honours_store(self, cli_env, capsys, digits):
        """``serve`` opens the same target as every other verb: --store
        wins over the (default) --repo of the working directory."""
        _, model_dir, tmp = cli_env
        url = f"sqlite://{tmp / 'served.db'}"
        assert main(["--store", url, "init"]) == 0
        assert main([
            "--store", url, "commit", "--model-dir", str(model_dir),
            "--name", "tiny-cli",
        ]) == 0
        capsys.readouterr()
        elsewhere = tmp / "elsewhere"
        elsewhere.mkdir()
        proc, started = boot(
            "--store", url, "serve", "--port", "0", cwd=elsewhere
        )
        try:
            assert started["models"] == ["tiny-cli"]
            x = digits.x_test[:5]
            with ServeClient(port=started["port"], timeout=30.0) as client:
                answer = client.predict("tiny-cli", x)
            expected = wrapper.load_network(model_dir).predict(x)
            np.testing.assert_array_equal(answer.predictions, expected)
        finally:
            stopped = stop(proc)
        assert stopped == {"stopped": True, "drained": True}


class TestBenchmarkContract:
    """The verbs and JSON keys ``benchmarks/perf`` drives and parses."""

    def test_help_lists_one_verb_per_job(self):
        top = {name.split()[0] for name in VERBS}
        assert len(top) == 28
        assert not {"verify", "dedup"} & top

    def test_lifecycle_verb_outputs(self, cli_env, capsys):
        _, model_dir, tmp = cli_env
        repo_dir, hub = tmp / "bench-repo", tmp / "hub"

        def keys(*argv):
            code, out = run(capsys, *argv)
            assert code == 0
            return out

        assert set(keys("--repo", repo_dir, "init")) == {
            "initialized", "backend",
        }
        assert set(keys(
            "--repo", repo_dir, "commit", "--model-dir", model_dir,
            "--name", "tiny-cli", "-m", "bench",
        )) == {"committed", "id"}
        for extra in ((), ("--dedup",)):
            report = keys("--repo", repo_dir, "archive", "--alpha", "1.6",
                          *extra)
            assert report["satisfied"] is True
            assert report["dedup"] is bool(extra)
            assert report["bytes_before"] > 0 and report["bytes_after"] > 0
        assert set(keys(
            "--repo", repo_dir, "publish", "--hub", hub, "--name", "fam",
        )) == {"published", "revision"}
        assert set(keys("pull", "--hub", hub, "fam", tmp / "pulled")) == {
            "pulled", "path",
        }
        assert set(keys(
            "--repo", repo_dir, "export", "tiny-cli", tmp / "exported",
        )) == {"exported"}
        assert set(keys("--repo", repo_dir, "gc")) == {"chunks_removed"}
        assert set(keys("--repo", repo_dir, "list")) == {
            "versions", "lineage",
        }

    def test_server_boot_and_stop_documents(self, cli_env, capsys):
        repo_dir, model_dir, tmp = cli_env
        run(capsys, "--repo", repo_dir, "commit", "--model-dir", model_dir,
            "--name", "tiny-cli")
        (tmp / "hub").mkdir()
        proc, started = boot("hub-serve", "--hub", tmp / "hub", cwd=tmp)
        assert set(started) == {"hub", "url", "port", "peer", "role", "peers"}
        assert started["url"].endswith(f":{started['port']}")
        assert stop(proc) == {"stopped": True}

        proc, started = boot(
            "--repo", repo_dir, "serve", "--port", "0", cwd=tmp
        )
        assert set(started) == {"serving", "port", "models", "rejected"}
        assert stop(proc) == {"stopped": True, "drained": True}


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
