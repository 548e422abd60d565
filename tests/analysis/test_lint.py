"""Repo-invariant linter: every LINT code, the pragma, and
``dlv check --lint``."""

import json
from pathlib import Path

from repro.analysis.lint import lint_file, lint_paths
from repro.dlv.cli import main

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src" / "repro")


def write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def codes(path):
    return [(d.code, d.severity) for d in lint_file(path)]


class TestLint301:
    def test_bare_except_flagged(self, tmp_path):
        path = write(
            tmp_path, "x.py",
            "try:\n    pass\nexcept:\n    pass\n",
        )
        diags = lint_file(path)
        assert [(d.code, d.severity) for d in diags] == [("LINT301", "error")]
        assert diags[0].span.line == 3
        assert diags[0].file == str(path)

    def test_typed_except_is_clean(self, tmp_path):
        path = write(
            tmp_path, "x.py",
            "try:\n    pass\nexcept ValueError:\n    pass\n",
        )
        assert codes(path) == []


class TestLint302:
    def test_float64_dtype_in_core_flagged(self, tmp_path):
        path = write(
            tmp_path, "core/seg.py",
            "import numpy as np\na = np.zeros(4, dtype=np.float64)\n",
        )
        assert codes(path) == [("LINT302", "error")]

    def test_float64_scalar_in_core_flagged(self, tmp_path):
        path = write(
            tmp_path, "core/seg.py",
            "import numpy as np\nx = np.float64(0.5)\n",
        )
        assert codes(path) == [("LINT302", "error")]

    def test_string_dtype_spelling_flagged(self, tmp_path):
        path = write(
            tmp_path, "core/seg.py",
            "import numpy as np\na = np.zeros(4, dtype='float64')\n",
        )
        assert codes(path) == [("LINT302", "error")]

    def test_same_code_outside_core_is_clean(self, tmp_path):
        path = write(
            tmp_path, "dnn/seg.py",
            "import numpy as np\na = np.zeros(4, dtype=np.float64)\n",
        )
        assert codes(path) == []

    def test_astype_intermediate_is_clean(self, tmp_path):
        # Interval-soundness code widens to float64 and casts back; that
        # never reaches storage and must stay lintable.
        path = write(
            tmp_path, "core/seg.py",
            "import numpy as np\n"
            "b = (a.astype(np.float64) * 2).astype(np.float32)\n",
        )
        assert codes(path) == []

    def test_float32_is_clean(self, tmp_path):
        path = write(
            tmp_path, "core/seg.py",
            "import numpy as np\na = np.zeros(4, dtype=np.float32)\n",
        )
        assert codes(path) == []


class TestLint303:
    def test_mutating_retrieved_array_flagged(self, tmp_path):
        path = write(
            tmp_path, "x.py",
            "def f(store, key):\n"
            "    w = store.recreate_matrix(key)\n"
            "    w[0] = 0.0\n"
            "    return w\n",
        )
        diags = lint_file(path)
        assert [(d.code, d.severity) for d in diags] == [("LINT303", "error")]
        assert "'w'" in diags[0].message

    def test_augmented_mutation_flagged(self, tmp_path):
        path = write(
            tmp_path, "x.py",
            "def f(store, key):\n"
            "    w = store.get_snapshot_weights(key)\n"
            "    w[:4] += 1\n",
        )
        assert codes(path) == [("LINT303", "error")]

    def test_copy_then_mutate_is_clean(self, tmp_path):
        path = write(
            tmp_path, "x.py",
            "def f(store, key):\n"
            "    w = store.recreate_snapshot(key).copy()\n"
            "    w[0] = 0.0\n"
            "    return w\n",
        )
        assert codes(path) == []

    def test_scope_does_not_leak_across_functions(self, tmp_path):
        path = write(
            tmp_path, "x.py",
            "def f(store, key):\n"
            "    w = store.recreate_matrix(key)\n"
            "    return w\n"
            "def g(w):\n"
            "    w[0] = 0.0\n",
        )
        assert codes(path) == []


class TestLint304:
    def test_core_module_without_obs_flagged(self, tmp_path):
        path = write(
            tmp_path, "core/cache.py",
            "def get(key):\n    return None\n",
        )
        assert codes(path) == [("LINT304", "error")]

    def test_core_module_with_obs_is_clean(self, tmp_path):
        path = write(
            tmp_path, "core/cache.py",
            "from repro.obs import counter\n"
            "def get(key):\n"
            "    counter('cache.gets').inc()\n",
        )
        assert codes(path) == []

    def test_uninstrumented_modules_not_required(self, tmp_path):
        path = write(
            tmp_path, "core/helpers.py",
            "def get(key):\n    return None\n",
        )
        assert codes(path) == []


class TestPragma:
    def test_targeted_ignore_suppresses(self, tmp_path):
        path = write(
            tmp_path, "core/seg.py",
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.float64)  # lint: ignore[LINT302]\n",
        )
        assert codes(path) == []

    def test_blanket_ignore_suppresses(self, tmp_path):
        path = write(
            tmp_path, "x.py",
            "try:\n    pass\nexcept:  # lint: ignore\n    pass\n",
        )
        assert codes(path) == []

    def test_ignore_for_other_code_does_not_suppress(self, tmp_path):
        path = write(
            tmp_path, "x.py",
            "try:\n    pass\nexcept:  # lint: ignore[LINT302]\n    pass\n",
        )
        assert codes(path) == [("LINT301", "error")]


class TestPaths:
    def test_directory_walk_sorts_findings(self, tmp_path):
        write(tmp_path, "pkg/b.py", "try:\n    pass\nexcept:\n    pass\n")
        write(tmp_path, "pkg/a.py", "try:\n    pass\nexcept:\n    pass\n")
        findings = lint_paths([tmp_path / "pkg"])
        assert [d.code for d in findings] == ["LINT301", "LINT301"]
        assert findings[0].file < findings[1].file

    def test_unparsable_file_yields_nothing(self, tmp_path):
        path = write(tmp_path, "x.py", "def broken(:\n")
        assert lint_file(path) == []


class TestMain:
    """The front door: ``dlv check --lint``."""

    def test_repo_sources_are_clean(self):
        # The CI gate: the linter must pass on the shipped sources.
        assert main(["check", "--lint", REPO_SRC]) == 0

    def test_seeded_violation_fails(self, tmp_path, capsys):
        write(tmp_path, "bad.py", "try:\n    pass\nexcept:\n    pass\n")
        assert main(["check", "--lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "LINT301" in out and "1 error(s)" in out

    def test_json_output(self, tmp_path, capsys):
        write(
            tmp_path, "core/seg.py",
            "import numpy as np\na = np.ones(2, dtype=np.float64)\n",
        )
        assert main(["check", "--lint", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)["diagnostics"]
        assert payload[0]["code"] == "LINT302"
        assert payload[0]["file"].endswith("seg.py")

    def test_missing_path_is_a_usage_error_not_a_clean_pass(
        self, tmp_path, capsys
    ):
        code = main(["check", "--lint", str(tmp_path / "no-such-path")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "no such path" in captured.err
