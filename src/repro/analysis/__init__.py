"""``repro.analysis`` — static diagnostics for queries, graphs, and code.

Four coordinated passes share one :class:`Diagnostic` model (severity,
stable code, source span, fix hint) and one surface (``dlv check``):

* :mod:`repro.analysis.dql_check` — semantic analysis of parsed DQL
  (``DQL1xx``): name resolution against the DLV catalog, vary-target and
  config validation, condition type checking, unsatisfiable enumerations.
  ``DQLExecutor(strict=True)`` refuses to execute queries with errors.
* :mod:`repro.analysis.net_check` — symbolic shape/dtype inference over
  the network DAG without building weights (``NET2xx``): cycles, dangling
  inputs, shape mismatches, float64 leaks that would break PAS
  segmentation.  ``Network.build(validate=True)`` runs it first.
* :mod:`repro.analysis.lint` — ``ast``-based repo-invariant lint
  (``LINT3xx``), run as ``dlv check --lint src/repro`` and wired into CI.
* :mod:`repro.analysis.conc` — concurrency-safety checker (``CONC4xx``):
  guarded-by inference, lock-order inversion cycles, blocking calls
  under locks, thread daemon/join discipline.  Run as
  ``dlv check --conc src/repro`` and wired into CI; its
  runtime companion is :mod:`repro.analysis.locksan`, an instrumented
  lock shim that turns real wait-for cycles into ``CONC407`` errors
  instead of hangs.

Every emission is counted in ``repro.obs`` under
``analysis.diagnostics_emitted`` (plus per-severity / per-pass counters).
"""

from repro.analysis.conc import check_file as conc_check_file
from repro.analysis.conc import check_paths as conc_check_paths
from repro.analysis.diagnostics import (
    CODES,
    PASS_PREFIXES,
    AnalysisError,
    Diagnostic,
    Span,
    codes_for_pass,
    format_diagnostic,
    format_diagnostics,
    has_errors,
    pragma_ignored,
)
from repro.analysis.dql_check import check_query
from repro.analysis.lint import lint_file, lint_paths
from repro.analysis.net_check import check_network, validate_network

__all__ = [
    "CODES",
    "PASS_PREFIXES",
    "AnalysisError",
    "Diagnostic",
    "Span",
    "check_network",
    "check_query",
    "codes_for_pass",
    "conc_check_file",
    "conc_check_paths",
    "format_diagnostic",
    "format_diagnostics",
    "has_errors",
    "lint_file",
    "lint_paths",
    "pragma_ignored",
    "validate_network",
]
