"""``ast``-based lint enforcing this repository's own invariants.

Rules (all file/line spanned, suppressible with ``# lint: ignore[CODE]``
on the offending line):

* ``LINT301`` — no bare ``except:`` anywhere; swallowing
  ``KeyboardInterrupt``/``SystemExit`` has bitten long training runs.
* ``LINT302`` — no float64 array construction in PAS hot paths (modules
  under ``core/``): byte-plane segmentation and the float schemes assume
  4-byte float32 patterns, so a ``dtype=np.float64`` array that reaches
  storage silently breaks the segmentation guarantee.  Transient
  ``astype(np.float64)`` intermediates that are cast back are fine and
  not flagged.
* ``LINT303`` — arrays returned by chunkstore/retrieval APIs
  (``recreate_matrix``, ``recreate_snapshot``, ``get_snapshot_weights``)
  are shared with caches; mutating them in place corrupts cached state.
  Use the write-through APIs (copy, modify, re-commit) instead.
* ``LINT304`` — the instrumented core modules (chunkstore, cache,
  retrieval, archival, progressive) must keep at least one
  ``repro.obs`` reference (``trace_span`` / ``counter`` / ``histogram``
  / ``gauge``); losing it silently blinds ``dlv stats``.

The front door is ``dlv check --lint PATH...`` (exit status 1 when any
error-severity finding remains); CI runs ``dlv check --lint src/repro``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.analysis.diagnostics import (
    Diagnostic,
    Span,
    pragma_ignored,
    record_diagnostics,
)

__all__ = ["lint_file", "lint_paths"]

#: Modules whose float discipline PAS depends on.
_HOT_PATH_DIR = "core"

#: Core modules required to stay instrumented (see repro.obs docs).
_OBS_REQUIRED = {
    "chunkstore.py", "cache.py", "retrieval.py", "archival.py",
    "progressive.py",
}
_OBS_NAMES = {"trace_span", "counter", "histogram", "gauge"}

#: Retrieval-layer calls whose return arrays must not be mutated.
_RETRIEVAL_SOURCES = {
    "recreate_matrix", "recreate_snapshot", "get_snapshot_weights",
}

def _is_float64(node: ast.AST) -> bool:
    """Does this expression denote the float64 dtype?"""
    if isinstance(node, ast.Attribute) and node.attr == "float64":
        return True
    if isinstance(node, ast.Constant) and node.value in (
        "float64", "<f8", ">f8", "f8",
    ):
        return True
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, lines: list[str], hot: bool) -> None:
        self.path = path
        self.lines = lines
        self.hot = hot
        self.findings: list[Diagnostic] = []
        # name -> lineno of the retrieval call the name was assigned from,
        # per enclosing function scope.
        self._retrieved_stack: list[dict[str, int]] = [{}]

    def _report(
        self, code: str, node: ast.AST, message: str, hint: str,
        severity: str = "error",
    ) -> None:
        lineno = getattr(node, "lineno", 1)
        if pragma_ignored(self.lines, lineno, code):
            return
        self.findings.append(
            Diagnostic(
                code, severity, message,
                span=Span(line=lineno, col=getattr(node, "col_offset", 0) + 1),
                hint=hint, source="lint", file=self.path,
            )
        )

    # -- LINT301 -----------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "LINT301", node,
                "bare 'except:' catches KeyboardInterrupt and SystemExit",
                hint="catch Exception (or something narrower) instead",
            )
        self.generic_visit(node)

    # -- LINT302 -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.hot:
            for keyword in node.keywords:
                if keyword.arg == "dtype" and _is_float64(keyword.value):
                    self._report(
                        "LINT302", node,
                        "float64 array constructed in a PAS hot path",
                        hint="use np.float32 — segmentation assumes 4-byte "
                        "floats; annotate '# lint: ignore[LINT302]' if the "
                        "array provably never reaches storage",
                    )
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "float64"
            ):
                self._report(
                    "LINT302", node,
                    "np.float64 scalar/cast constructed in a PAS hot path",
                    hint="use np.float32, or keep the wide intermediate via "
                    ".astype and cast back",
                )
        self.generic_visit(node)

    # -- LINT303 -----------------------------------------------------------

    def _enter_scope(self, node) -> None:
        self._retrieved_stack.append({})
        self.generic_visit(node)
        self._retrieved_stack.pop()

    visit_FunctionDef = _enter_scope
    visit_AsyncFunctionDef = _enter_scope

    @staticmethod
    def _retrieval_call(value: ast.AST) -> bool:
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _RETRIEVAL_SOURCES
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        scope = self._retrieved_stack[-1]
        if self._retrieval_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    scope[target.id] = node.lineno
        for target in node.targets:
            self._check_mutation_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target(node.target)
        self.generic_visit(node)

    def _check_mutation_target(self, target: ast.AST) -> None:
        if not isinstance(target, ast.Subscript):
            return
        base = target.value
        while isinstance(base, ast.Subscript):
            base = base.value
        if (
            isinstance(base, ast.Name)
            and base.id in self._retrieved_stack[-1]
        ):
            self._report(
                "LINT303", target,
                f"in-place mutation of {base.id!r}, an array returned by a "
                "retrieval API — cached state would be corrupted",
                hint="work on a .copy() and write back through commit APIs",
            )


def lint_file(path: str | Path) -> list[Diagnostic]:
    """Lint one Python file; unparsable files yield no findings."""
    path = Path(path)
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return []
    lines = source.splitlines()
    hot = _HOT_PATH_DIR in path.parts
    visitor = _Visitor(str(path), lines, hot)
    visitor.visit(tree)
    if hot and path.name in _OBS_REQUIRED:
        names = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        } | {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        }
        if not names & _OBS_NAMES:
            visitor.findings.append(
                Diagnostic(
                    "LINT304", "error",
                    f"{path.name} is an instrumented core module but no "
                    "longer references repro.obs "
                    "(trace_span/counter/histogram/gauge)",
                    span=Span(),
                    hint="restore the instrumentation, or drop the module "
                    "from the obs coverage table deliberately",
                    source="lint", file=str(path),
                )
            )
    return visitor.findings


def lint_paths(paths: Iterable[str | Path]) -> list[Diagnostic]:
    """Lint every ``.py`` file under the given files/directories."""
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        elif entry.suffix == ".py":
            files.append(entry)
    findings: list[Diagnostic] = []
    for file in files:
        findings.extend(lint_file(file))
    findings.sort(key=lambda d: (d.file or "", d.span.line if d.span else 0))
    return record_diagnostics(findings, "lint")
