"""`dlv check` end-to-end: golden JSON, every mode, and `query --strict`."""

import json

import pytest

from repro import obs
from repro.analysis.diagnostics import CODES, AnalysisError
from repro.dlv.cli import main
from repro.dql.executor import DQLExecutor

BROKEN_QUERY = (
    'select m where m.accuracy > "high" '
    "and m.accuracy < 0.1 and m.accuracy > 0.5"
)

#: Expected `dlv check --dql --json` payload for BROKEN_QUERY, minus the
#: repository-independent noise.  Golden in the sense that any change to
#: diagnostic codes, spans, messages, or the envelope must show up here.
GOLDEN = {
    "checked": {"dql": BROKEN_QUERY},
    "diagnostics": [
        {
            "code": "DQL103",
            "severity": "error",
            "message": (
                "'accuracy' is numeric but is compared to the string 'high'"
            ),
            "span": {"start": 15, "end": 25, "line": 1, "col": 16},
            "hint": "compare against a number literal",
            "source": "dql",
            "file": None,
        },
        {
            "code": "DQL113",
            "severity": "error",
            "message": (
                "conditions on 'accuracy' are unsatisfiable — no value "
                "meets every bound in the 'and' chain"
            ),
            "span": {"start": 39, "end": 49, "line": 1, "col": 40},
            "hint": "relax one of the contradictory comparisons",
            "source": "dql",
            "file": None,
        },
    ],
    "summary": {"errors": 2, "warnings": 0, "total": 2},
}


@pytest.fixture
def fixture_repo(repo, trained_tiny):
    net, result, config = trained_tiny
    repo.commit(
        net, name="tiny-fixture", message="seed", train_result=result,
        hyperparams=config.to_dict(),
    )
    repo.close()
    return str(repo.root)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestCheckDql:
    def test_golden_json(self, fixture_repo, capsys):
        code, captured = run_cli(
            capsys,
            "--repo", fixture_repo, "check", "--dql", BROKEN_QUERY, "--json",
        )
        assert code == 1
        assert json.loads(captured.out) == GOLDEN

    def test_text_mode_shows_span_and_hint(self, fixture_repo, capsys):
        code, captured = run_cli(
            capsys, "--repo", fixture_repo, "check", "--dql", BROKEN_QUERY
        )
        assert code == 1
        assert "line 1, col 16: error[DQL103]" in captured.out
        assert "(hint: compare against a number literal)" in captured.out
        assert "2 error(s)" in captured.out

    def test_clean_query_exits_zero(self, fixture_repo, capsys):
        code, captured = run_cli(
            capsys,
            "--repo", fixture_repo, "check",
            "--dql", 'select m where m.name = "tiny-fixture"', "--json",
        )
        assert code == 0
        assert json.loads(captured.out)["summary"]["total"] == 0


class TestCheckNetworks:
    def test_default_pass_validates_all_versions(self, fixture_repo, capsys):
        code, captured = run_cli(
            capsys, "--repo", fixture_repo, "check", "--json"
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["checked"]["networks"] == ["tiny-fixture"]
        assert payload["summary"] == {
            "errors": 0, "warnings": 0, "total": 0,
        }

    def test_single_ref(self, fixture_repo, capsys):
        code, captured = run_cli(
            capsys,
            "--repo", fixture_repo, "check", "--ref", "tiny-fixture",
            "--json",
        )
        assert code == 0
        assert json.loads(captured.out)["checked"]["networks"] == [
            "tiny-fixture"
        ]


class TestCheckLint:
    def test_lint_mode_needs_no_repository(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    pass\nexcept:\n    pass\n")
        # --repo points nowhere; lint-only checks must not open it.
        code, captured = run_cli(
            capsys,
            "--repo", str(tmp_path / "no-such-repo"),
            "check", "--lint", str(bad), "--json",
        )
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["diagnostics"][0]["code"] == "LINT301"

    def test_list_codes_reports_the_full_table(self, capsys):
        code, captured = run_cli(capsys, "check", "--list-codes")
        assert code == 0
        listed = [
            line.split()[0] for line in captured.out.splitlines() if line
        ]
        assert listed == list(CODES)
        assert len(listed) >= 10

    def test_list_codes_pass_filter(self, capsys):
        code, captured = run_cli(
            capsys, "check", "--list-codes", "--pass", "conc"
        )
        assert code == 0
        listed = [
            line.split()[0] for line in captured.out.splitlines() if line
        ]
        assert listed == [c for c in CODES if c.startswith("CONC")]
        assert len(listed) >= 6

    def test_list_codes_pass_filter_json(self, capsys):
        for pass_name, prefix in (
            ("dql", "DQL"), ("net", "NET"), ("lint", "LINT"),
            ("conc", "CONC"),
        ):
            code, captured = run_cli(
                capsys, "check", "--list-codes", "--pass", pass_name,
                "--json",
            )
            assert code == 0
            codes = json.loads(captured.out)["codes"]
            assert codes
            assert all(key.startswith(prefix) for key in codes)


class TestCheckConc:
    """`dlv check --conc`: golden JSON envelope and exit semantics.

    Exit-code contract (also in the `dlv check` handler docstring): 0 = no
    error-severity diagnostics, 1 = at least one error, 2 = usage
    errors.  Warnings alone exit 0.
    """

    RACY = (
        "import threading\n"
        "\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.total = 0\n"
        "\n"
        "    def safe(self):\n"
        "        with self._lock:\n"
        "            self.total += 1\n"
        "\n"
        "    def racy(self):\n"
        "        self.total += 1\n"
    )

    def test_golden_json_for_a_racy_file(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(self.RACY)
        code, captured = run_cli(
            capsys,
            "--repo", str(tmp_path / "no-such-repo"),  # must not be opened
            "check", "--conc", str(bad), "--json",
        )
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["checked"] == {"conc_paths": [str(bad)]}
        assert payload["summary"] == {
            "errors": 1, "warnings": 0, "total": 1,
        }
        assert payload["diagnostics"] == [
            {
                "code": "CONC401",
                "severity": "error",
                "message": (
                    "Counter.total is written here without a lock but "
                    "under Counter._lock elsewhere"
                ),
                "span": {"start": 0, "end": 0, "line": 13, "col": 9},
                "hint": (
                    "hold Counter._lock at every write site (reads may "
                    "stay lockless)"
                ),
                "source": "conc",
                "file": str(bad),
            }
        ]

    def test_conc_clean_tree_exits_zero(self, capsys):
        # Acceptance criterion: src/repro itself is conc-clean via the CLI.
        import repro

        src = str(
            __import__("pathlib").Path(repro.__file__).resolve().parent
        )
        code, captured = run_cli(capsys, "check", "--conc", src, "--json")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["summary"]["total"] == 0

    def test_warnings_alone_exit_zero(self, tmp_path, capsys):
        sleepy = tmp_path / "sleepy.py"
        sleepy.write_text(
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def nap(self):\n"
            "        with self._lock:\n"
            "            time.sleep(1)\n"
        )
        code, captured = run_cli(
            capsys, "check", "--conc", str(sleepy), "--json"
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["summary"] == {
            "errors": 0, "warnings": 1, "total": 1,
        }
        assert payload["diagnostics"][0]["code"] == "CONC405"

    def test_missing_path_is_a_usage_error_not_a_clean_pass(
        self, tmp_path, capsys
    ):
        code, captured = run_cli(
            capsys, "check", "--conc", str(tmp_path / "no-such-dir"),
        )
        assert code == 2
        assert "no such path" in captured.err

    def test_conc_combines_with_lint(self, tmp_path, capsys):
        bad = tmp_path / "both.py"
        bad.write_text(
            "try:\n    pass\nexcept:\n    pass\n" + self.RACY
        )
        code, captured = run_cli(
            capsys, "check", "--lint", str(bad), "--conc", str(bad),
            "--json",
        )
        assert code == 1
        payload = json.loads(captured.out)
        found = {d["code"] for d in payload["diagnostics"]}
        assert {"LINT301", "CONC401"} <= found
        assert set(payload["checked"]) == {"lint_paths", "conc_paths"}


class TestQueryStrict:
    def test_strict_flag_rejects_before_execution(self, fixture_repo, capsys):
        code = main(
            ["--repo", fixture_repo, "query", BROKEN_QUERY, "--strict"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "refusing to execute" in captured.err
        assert "DQL103" in captured.err

    def test_without_strict_still_executes(self, fixture_repo, capsys):
        code = main(
            [
                "--repo", fixture_repo, "query",
                'select m where m.name like "tiny%"',
            ]
        )
        assert code == 0
        assert "tiny-fixture" in capsys.readouterr().out


class TestExecutorStrict:
    def test_strict_rejection_counts_and_carries_diagnostics(self, repo):
        obs.reset_metrics()
        executor = DQLExecutor(repo, strict=True)
        with pytest.raises(AnalysisError) as excinfo:
            executor.run(BROKEN_QUERY)
        assert [d.code for d in excinfo.value.diagnostics] == [
            "DQL103", "DQL113",
        ]
        counters = obs.dump_metrics()["counters"]
        assert counters["dql.strict_rejections"] == 1

    def test_non_strict_executes_unsatisfiable_query(self, repo):
        executor = DQLExecutor(repo)
        result = executor.run(BROKEN_QUERY)
        assert result.versions == []

    def test_strict_allows_clean_queries(self, repo, trained_tiny):
        net, result, config = trained_tiny
        repo.commit(
            net, name="tiny-fixture", message="seed", train_result=result,
            hyperparams=config.to_dict(),
        )
        executor = DQLExecutor(repo, strict=True)
        out = executor.run('select m where m.name like "tiny%"')
        assert [v.name for v in out.versions] == ["tiny-fixture"]

    def test_strict_construct_rejects_shape_mismatch(self, repo, trained_tiny):
        # The mutated network must be rejected by static validation before
        # any training/evaluation touches it: inserting a CONV after the
        # final dense layer feeds image arithmetic a flat vector.
        net, result, config = trained_tiny
        repo.commit(
            net, name="tiny-fixture", message="seed", train_result=result,
            hyperparams=config.to_dict(),
        )
        query = (
            'construct m2 from m1 where m1.name like "tiny%" '
            'mutate m1["fc2"].insert = CONV("c9")'
        )
        strict = DQLExecutor(repo, strict=True)
        with pytest.raises(ValueError, match=r"\[NET205\]"):
            strict.run(query)
