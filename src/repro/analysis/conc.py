"""Static concurrency-safety analysis (``CONC4xx``) over Python sources.

PRs 4-5 turned this reproduction into a threaded serving stack — batch
workers, a shared single-flight plane cache, per-connection HTTP
handler threads, the hub HTTP tier — where the dominant correctness risks are
data races and deadlocks, not shapes or dtypes.  This pass analyses the
``ast`` of each file symbolically and reports:

* ``CONC401`` — *unguarded shared write*.  Per class, the checker infers
  a guarded-by map: which lock attributes (``self._lock = threading.Lock()``
  style) protect which mutable attributes, by observing every
  ``self.attr = ...`` / ``self.attr += ...`` / mutating-method write and
  the set of locks held around it (``with self._lock:`` scopes, including
  locks guaranteed held on entry to private helpers — see below).  An
  attribute written both under a lock and outside any lock is an error;
  an attribute of a thread-owning class written with no guard anywhere
  while being accessed from several methods is a warning.
* ``CONC402`` — *inconsistent guard*: write sites that disagree on which
  lock protects an attribute (no common lock).
* ``CONC403`` — *lock-order inversion*: a static lock-acquisition-order
  graph is built across methods and intra-class call edges (acquiring B
  while holding A adds ``A -> B``); any cycle is a potential deadlock.
* ``CONC404`` — *double acquire*: a non-reentrant ``threading.Lock`` (or
  an explicit ``.acquire()`` on one) taken while provably already held.
* ``CONC405`` — *blocking under lock*: ``time.sleep``, socket/HTTP
  calls, file I/O, indefinite ``wait()``/``queue.get()``, and this
  repository's chunk-retrieval APIs (``recreate_matrix``,
  ``get_or_load``, ...) executed while holding a lock — directly or via
  an intra-class call chain.
* ``CONC406`` — *thread discipline*: ``threading.Thread`` constructed
  without ``daemon=`` in a file that never ``join``\\ s a thread (and
  ``Thread`` subclasses whose ``__init__`` sets no daemon flag).

The symbolic part: the checker propagates *must-hold* lock sets through
intra-class calls.  A private helper (``_admit``, ``_step``) whose every
call site holds ``self._cond`` is analysed as if that lock were held on
entry, so the common "public method locks, private helper mutates"
idiom needs no annotations.  Helpers reachable only from ``__init__``
are treated as initialization (single-threaded) and excluded from guard
inference.  Nested ``def``/``lambda`` bodies run later, in an unknown
context, so locks held at their *definition* site are not credited to
them.

Findings use the shared :class:`~repro.analysis.diagnostics.Diagnostic`
model and are suppressible with ``# lint: ignore[CODE]`` on the
offending line.  Run as ``python -m repro.analysis.conc src/repro
[--json] [--strict]``; exits 1 when any error remains (``--strict``:
when any finding remains).  ``dlv check --conc`` is the same pass.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.analysis.diagnostics import (
    Diagnostic,
    Span,
    format_diagnostic,
    has_errors,
    pragma_ignored,
    record_diagnostics,
)

__all__ = ["check_file", "check_paths", "main"]

#: ``threading`` factory names whose result is a lock-like guard.
LOCK_FACTORIES = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
    "allocate_lock": "lock",
}

#: Attribute names that read as locks when we cannot see their factory
#: (foreign objects: ``with evaluator._lock:``).
_LOCKISH_RE = re.compile(r"(?:^|_)(?:lock|cond|mutex|sem)(?:_|$)|_lock$|_cond$")

#: Method-call attribute names that block the calling thread: sockets,
#: HTTP, filesystem, subprocess — plus this repository's chunk-retrieval
#: and cache-load APIs, which hit the chunk store (disk or remote).
BLOCKING_CALL_ATTRS = {
    "sleep", "urlopen", "getresponse", "connect", "accept", "recv",
    "recvfrom", "sendall", "communicate", "check_output", "select",
    "read_bytes", "read_text", "write_bytes", "write_text",
    "recreate_matrix", "recreate_snapshot", "get_snapshot_weights",
    "matrix_bounds", "get_or_load", "fetch_file", "fetch_revision",
    "pull", "pull_for_serving",
}

#: Plain-name calls that block (when imported directly).
BLOCKING_NAME_CALLS = {"open", "sleep", "urlopen"}

#: Container methods that mutate their receiver — a call
#: ``self.attr.append(x)`` is a write to ``attr``.
MUTATOR_ATTRS = {
    "append", "appendleft", "extend", "extendleft", "add", "discard",
    "remove", "insert", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "move_to_end",
}


def _expr_text(node: ast.AST) -> Optional[str]:
    """Dotted-path rendering of a simple Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _expr_text(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _lock_factory_kind(value: ast.AST) -> Optional[str]:
    """Kind of lock a ``threading.Lock()``-style constructor creates."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    return LOCK_FACTORIES.get(name) if name else None


@dataclass
class _Write:
    attr: str
    method: str
    lineno: int
    col: int
    held: frozenset


@dataclass
class _CallSite:
    callee: str
    method: str
    lineno: int
    col: int
    held: frozenset


@dataclass
class _Acquire:
    lock: str
    kind: str
    method: str
    lineno: int
    col: int
    held: tuple  # acquisition order matters for the edge graph


@dataclass
class _Blocking:
    desc: str
    method: str
    lineno: int
    col: int
    held: frozenset


@dataclass
class _MethodFacts:
    name: str
    writes: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    acquires: list = field(default_factory=list)
    blocking: list = field(default_factory=list)
    reads: set = field(default_factory=set)
    entry_held: frozenset = frozenset()


class _FunctionWalker:
    """Walks one function body tracking the set of locks provably held.

    ``held`` is carried as a tuple to preserve acquisition order (the
    lock-order graph wants ``A -> B``, not an unordered pair).  Nested
    function/lambda bodies execute later in an unknown locking context,
    so they are walked with an empty held set and their blocking
    operations are kept out of the enclosing method's summary (flagged
    only if the closure itself locks).
    """

    def __init__(self, class_ctx: "_ClassContext", method: str) -> None:
        self.ctx = class_ctx
        self.method = method
        self.facts = _MethodFacts(method)

    # -- lock identification -------------------------------------------------

    def _lock_ref(self, expr: ast.AST) -> Optional[tuple[str, str]]:
        """``(lock_id, kind)`` when ``expr`` denotes a lock, else None."""
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                kind = self.ctx.lock_attrs.get(expr.attr)
                if kind is not None:
                    return f"{self.ctx.name}.self.{expr.attr}", kind
            if _LOCKISH_RE.search(expr.attr):
                text = _expr_text(expr)
                if text is not None:
                    return f"{self.ctx.name}.{text}", "unknown"
            return None
        if isinstance(expr, ast.Name) and _LOCKISH_RE.search(expr.id):
            return f"{self.ctx.name}.{expr.id}", "unknown"
        return None

    # -- statement walking ---------------------------------------------------

    def walk_body(self, body: list, held: tuple) -> None:
        for stmt in body:
            self.walk_stmt(stmt, held)

    def walk_stmt(self, node: ast.stmt, held: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: runs later, unknown context.
            nested = _FunctionWalker(self.ctx, self.method)
            nested.walk_body(node.body, ())
            self._absorb_nested(nested)
            return
        if isinstance(node, ast.ClassDef):
            return  # nested classes are analysed separately
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                ref = self._lock_ref(item.context_expr)
                if ref is not None:
                    lock, kind = ref
                    self._record_acquire(lock, kind, item.context_expr, inner)
                    if lock not in inner:
                        inner = inner + (lock,)
                else:
                    self.walk_expr(item.context_expr, held)
            self.walk_body(node.body, inner)
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                self._record_write_target(target, node, held)
            if node.value is not None:
                self.walk_expr(node.value, held)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_write_target(target, node, held)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.walk_stmt(child, held)
            elif isinstance(child, ast.expr):
                self.walk_expr(child, held)

    def _absorb_nested(self, nested: "_FunctionWalker") -> None:
        """Keep a closure's writes/acquires; drop its may-block summary."""
        self.facts.writes.extend(nested.facts.writes)
        self.facts.acquires.extend(nested.facts.acquires)
        self.facts.reads |= nested.facts.reads
        # Closure-local blocking ops only matter if the closure locked:
        self.facts.blocking.extend(
            b for b in nested.facts.blocking if b.held
        )

    # -- expression walking --------------------------------------------------

    def walk_expr(self, node: ast.expr, held: tuple) -> None:
        if isinstance(node, ast.Lambda):
            nested = _FunctionWalker(self.ctx, self.method)
            nested.walk_expr(node.body, ())
            self._absorb_nested(nested)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, held)
            for arg in node.args:
                self.walk_expr(arg, held)
            for kw in node.keywords:
                self.walk_expr(kw.value, held)
            self.walk_expr(node.func, held)
            return
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                self.facts.reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.walk_expr(child, held)

    # -- events --------------------------------------------------------------

    def _record_acquire(
        self, lock: str, kind: str, node: ast.AST, held: tuple
    ) -> None:
        self.facts.acquires.append(
            _Acquire(
                lock, kind, self.method,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                held,
            )
        )

    def _record_write_target(
        self, target: ast.AST, node: ast.stmt, held: tuple
    ) -> None:
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            self.facts.writes.append(
                _Write(
                    base.attr, self.method, node.lineno,
                    getattr(node, "col_offset", 0), frozenset(held),
                )
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write_target(element, node, held)

    def _visit_call(self, node: ast.Call, held: tuple) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            # self.attr.mutator(...) mutates self.attr
            if (
                func.attr in MUTATOR_ATTRS
                and isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
            ):
                self.facts.writes.append(
                    _Write(
                        receiver.attr, self.method, node.lineno,
                        node.col_offset, frozenset(held),
                    )
                )
            # explicit lock.acquire()
            if func.attr == "acquire":
                ref = self._lock_ref(receiver)
                if ref is not None:
                    self._record_acquire(ref[0], ref[1], node, held)
                    return
            # self.method(...) — intra-class call edge
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                if func.attr in self.ctx.method_names:
                    self.facts.calls.append(
                        _CallSite(
                            func.attr, self.method, node.lineno,
                            node.col_offset, frozenset(held),
                        )
                    )
                    return
            desc = self._blocking_desc(node, func, held)
            if desc is not None:
                self.facts.blocking.append(
                    _Blocking(
                        desc, self.method, node.lineno, node.col_offset,
                        frozenset(held),
                    )
                )
        elif isinstance(func, ast.Name) and func.id in BLOCKING_NAME_CALLS:
            self.facts.blocking.append(
                _Blocking(
                    f"{func.id}()", self.method, node.lineno,
                    node.col_offset, frozenset(held),
                )
            )

    @staticmethod
    def _has_timeout(node: ast.Call) -> bool:
        if node.args:
            return True
        return any(kw.arg == "timeout" for kw in node.keywords)

    def _blocking_desc(
        self, node: ast.Call, func: ast.Attribute, held: tuple
    ) -> Optional[str]:
        """Describe a blocking call, or None when it is not one."""
        attr = func.attr
        if attr in BLOCKING_CALL_ATTRS:
            return f".{attr}()"
        if attr == "wait":
            ref = self._lock_ref(func.value)
            if ref is not None and ref[0] in held:
                return None  # cond.wait() releases the held condition
            if self._has_timeout(node):
                return None
            return ".wait() with no timeout"
        if attr == "get":
            text = _expr_text(func.value) or ""
            if "queue" in text.lower() and not self._has_timeout(node):
                return ".get() on a queue with no timeout"
        return None


class _ClassContext:
    """Per-class facts: lock attributes, method summaries, thread-ness."""

    def __init__(self, node: ast.ClassDef, module_name: str) -> None:
        self.node = node
        self.name = node.name
        self.module = module_name
        self.methods: dict[str, ast.FunctionDef] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt
        self.method_names = set(self.methods)
        self.lock_attrs: dict[str, str] = {}
        self.is_thread_subclass = any(
            (_expr_text(base) or "").split(".")[-1] == "Thread"
            for base in node.bases
        )
        self.constructs_thread = False
        self.facts: dict[str, _MethodFacts] = {}
        self._find_lock_attrs()

    def _find_lock_attrs(self) -> None:
        for method in self.methods.values():
            for stmt in ast.walk(method):
                if not isinstance(stmt, ast.Assign):
                    continue
                kind = _lock_factory_kind(stmt.value)
                if kind is None:
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self.lock_attrs[target.attr] = kind

    @property
    def concurrent(self) -> bool:
        return bool(self.lock_attrs) or self.is_thread_subclass \
            or self.constructs_thread

    def analyse(self, thread_subclasses: set[str]) -> None:
        for name, method in self.methods.items():
            walker = _FunctionWalker(self, name)
            walker.walk_body(method.body, ())
            self.facts[name] = walker.facts
        # Does any method construct a thread (directly, or a Thread
        # subclass defined in the same file)?
        for method in self.methods.values():
            for call in ast.walk(method):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if name == "Thread" or (name in thread_subclasses):
                    self.constructs_thread = True
        self._propagate_entry_held()

    def _propagate_entry_held(self) -> None:
        """Must-hold-on-entry sets for private helpers, to a fixpoint.

        A ``_``-private method called only with lock L held is analysed
        as if L were held throughout.  Public methods (callable from
        outside the class) always assume an empty entry set.
        """
        sites_by_callee: dict[str, list[_CallSite]] = {}
        for facts in self.facts.values():
            for call in facts.calls:
                sites_by_callee.setdefault(call.callee, []).append(call)
        universe = frozenset(
            f"{self.name}.self.{attr}" for attr in self.lock_attrs
        )
        entry = {
            name: (
                universe
                if name.startswith("_") and not name.startswith("__")
                and name in sites_by_callee
                else frozenset()
            )
            for name in self.facts
        }
        for _ in range(len(self.facts) + 1):
            changed = False
            for name, sites in sites_by_callee.items():
                if name not in entry or not entry[name]:
                    continue
                new = None
                for site in sites:
                    held = site.held | entry.get(site.method, frozenset())
                    new = held if new is None else (new & held)
                new = new if new is not None else frozenset()
                if new != entry[name]:
                    entry[name] = new
                    changed = True
            if not changed:
                break
        for name, facts in self.facts.items():
            facts.entry_held = entry.get(name, frozenset())

    def init_methods(self) -> set[str]:
        """``__init__`` plus private helpers reachable only from it."""
        sites_by_callee: dict[str, set[str]] = {}
        for facts in self.facts.values():
            for call in facts.calls:
                sites_by_callee.setdefault(call.callee, set()).add(
                    call.method
                )
        init: set[str] = {"__init__"} & set(self.facts)
        for _ in range(len(self.facts) + 1):
            grew = False
            for name, callers in sites_by_callee.items():
                if (
                    name not in init
                    and name.startswith("_")
                    and name in self.facts
                    and callers <= init
                ):
                    init.add(name)
                    grew = True
            if not grew:
                break
        return init


class _FileAnalysis:
    """One file's findings plus its contribution to the global order graph."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.findings: list[Diagnostic] = []
        # lock-order edges: (from_lock, to_lock) -> (file, lineno, col)
        self.edges: dict[tuple[str, str], tuple[str, int, int]] = {}
        self.lines: list[str] = []

    def report(
        self, code: str, severity: str, message: str, lineno: int,
        col: int, hint: str,
    ) -> None:
        if pragma_ignored(self.lines, lineno, code):
            return
        self.findings.append(
            Diagnostic(
                code, severity, message,
                span=Span(line=lineno, col=col + 1),
                hint=hint, source="conc", file=str(self.path),
            )
        )


def _short(lock: str) -> str:
    """Human lock name: ``PlaneCache.self._cond`` -> ``PlaneCache._cond``."""
    return lock.replace(".self.", ".")


def _analyse_class(ctx: _ClassContext, out: _FileAnalysis) -> None:
    init_methods = ctx.init_methods()

    def effective(held: frozenset, method: str) -> frozenset:
        return held | ctx.facts[method].entry_held

    # -- CONC404 + lock-order edges ------------------------------------------
    acquires_trans: dict[str, set[tuple[str, str]]] = {
        name: {(a.lock, a.kind) for a in facts.acquires}
        for name, facts in ctx.facts.items()
    }
    for _ in range(len(ctx.facts) + 1):
        changed = False
        for name, facts in ctx.facts.items():
            for call in facts.calls:
                extra = acquires_trans.get(call.callee, set())
                if not extra <= acquires_trans[name]:
                    acquires_trans[name] |= extra
                    changed = True
        if not changed:
            break

    for name, facts in ctx.facts.items():
        for acq in facts.acquires:
            held = effective(frozenset(acq.held), name)
            ordered = tuple(acq.held) + tuple(
                sorted(facts.entry_held - set(acq.held))
            )
            for prior in ordered:
                if prior != acq.lock:
                    self_edge = (prior, acq.lock)
                    self_site = (str(out.path), acq.lineno, acq.col)
                    out.edges.setdefault(self_edge, self_site)
            if acq.lock in held and acq.kind == "lock":
                out.report(
                    "CONC404", "error",
                    f"non-reentrant lock {_short(acq.lock)} acquired while "
                    f"already held (would self-deadlock)",
                    acq.lineno, acq.col,
                    hint="use threading.RLock, or restructure so the lock "
                    "is taken once",
                )
        for call in facts.calls:
            held = effective(call.held, name)
            for lock, kind in acquires_trans.get(call.callee, set()):
                if lock in held and kind == "lock":
                    out.report(
                        "CONC404", "error",
                        f"call to {call.callee}() re-acquires non-reentrant "
                        f"lock {_short(lock)} already held here",
                        call.lineno, call.col,
                        hint="use threading.RLock, or split the locked "
                        "section out of the callee",
                    )
                for prior in held:
                    if prior != lock:
                        out.edges.setdefault(
                            (prior, lock),
                            (str(out.path), call.lineno, call.col),
                        )

    # -- CONC405 blocking under lock -----------------------------------------
    may_block: dict[str, Optional[str]] = {
        name: (facts.blocking[0].desc if facts.blocking else None)
        for name, facts in ctx.facts.items()
    }
    for _ in range(len(ctx.facts) + 1):
        changed = False
        for name, facts in ctx.facts.items():
            if may_block[name]:
                continue
            for call in facts.calls:
                via = may_block.get(call.callee)
                if via:
                    may_block[name] = f"{call.callee}() -> {via}"
                    changed = True
                    break
        if not changed:
            break

    for name, facts in ctx.facts.items():
        for block in facts.blocking:
            held = effective(block.held, name)
            if held:
                locks = ", ".join(sorted(_short(h) for h in held))
                out.report(
                    "CONC405", "warning",
                    f"blocking call {block.desc} while holding {locks}",
                    block.lineno, block.col,
                    hint="move the blocking operation outside the critical "
                    "section (fetch first, install under the lock)",
                )
        for call in facts.calls:
            held = effective(call.held, name)
            via = may_block.get(call.callee)
            if held and via:
                locks = ", ".join(sorted(_short(h) for h in held))
                out.report(
                    "CONC405", "warning",
                    f"call to {call.callee}() blocks ({via}) while "
                    f"holding {locks}",
                    call.lineno, call.col,
                    hint="hoist the blocking work out of the locked "
                    "section, or document why it must block here",
                )

    # -- CONC401 / CONC402 guarded-by inference ------------------------------
    writes_by_attr: dict[str, list[_Write]] = {}
    methods_touching: dict[str, set[str]] = {}
    for name, facts in ctx.facts.items():
        for write in facts.writes:
            writes_by_attr.setdefault(write.attr, []).append(write)
            methods_touching.setdefault(write.attr, set()).add(name)
        for attr in facts.reads:
            methods_touching.setdefault(attr, set()).add(name)

    for attr, writes in sorted(writes_by_attr.items()):
        if attr in ctx.lock_attrs:
            continue  # the locks themselves are assigned at init
        shared = [w for w in writes if w.method not in init_methods]
        if not shared:
            continue
        guards = [effective(w.held, w.method) for w in shared]
        guarded = [g for g in guards if g]
        unguarded = [
            w for w, g in zip(shared, guards) if not g
        ]
        if guarded and unguarded:
            lock_names = ", ".join(
                sorted({_short(lock) for g in guarded for lock in g})
            )
            for write in unguarded:
                out.report(
                    "CONC401", "error",
                    f"{ctx.name}.{attr} is written here without a lock but "
                    f"under {lock_names} elsewhere",
                    write.lineno, write.col,
                    hint=f"hold {lock_names} at every write site (reads "
                    "may stay lockless)",
                )
        elif guarded:
            common = frozenset.intersection(*guarded)
            if not common:
                locks = ", ".join(
                    sorted({_short(lock) for g in guarded for lock in g})
                )
                first = shared[0]
                out.report(
                    "CONC402", "error",
                    f"{ctx.name}.{attr} write sites disagree on the "
                    f"guarding lock ({locks})",
                    first.lineno, first.col,
                    hint="pick one lock to guard this attribute and hold "
                    "it at every write site",
                )
        elif ctx.concurrent and len(
            methods_touching.get(attr, set()) - init_methods
        ) >= 2:
            first = min(shared, key=lambda w: (w.lineno, w.col))
            out.report(
                "CONC401", "warning",
                f"unguarded write to {ctx.name}.{attr}, shared state of a "
                f"thread-owning class",
                first.lineno, first.col,
                hint="guard writes with a lock, use an Event, or document "
                "single-writer ownership with a pragma",
            )


def _thread_discipline(
    tree: ast.Module, out: _FileAnalysis, thread_subclasses: set[str]
) -> None:
    """CONC406: threads constructed without ``daemon=`` or any join."""
    joins_or_daemon = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ) and node.func.attr == "join":
            joins_or_daemon = True
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr == "daemon":
                    joins_or_daemon = True
    if joins_or_daemon:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name != "Thread":
            continue
        if any(kw.arg == "daemon" for kw in node.keywords):
            continue
        out.report(
            "CONC406", "warning",
            "thread constructed without daemon= and never joined in this "
            "file",
            node.lineno, node.col_offset,
            hint="pass daemon=True for fire-and-forget threads, or join() "
            "them on shutdown",
        )
    for klass in ast.walk(tree):
        if not isinstance(klass, ast.ClassDef) \
                or klass.name not in thread_subclasses:
            continue
        init = next(
            (s for s in klass.body
             if isinstance(s, ast.FunctionDef) and s.name == "__init__"),
            None,
        )
        if init is None:
            continue
        disciplined = False
        for node in ast.walk(init):
            if isinstance(node, ast.Call) and any(
                kw.arg == "daemon" for kw in node.keywords
            ):
                disciplined = True
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) \
                            and target.attr == "daemon":
                        disciplined = True
        if not disciplined:
            out.report(
                "CONC406", "warning",
                f"Thread subclass {klass.name} sets no daemon flag and "
                "this file never joins it",
                klass.lineno, klass.col_offset,
                hint="pass daemon= through super().__init__, or join the "
                "thread on shutdown",
            )


def _analyse_file(path: Path) -> Optional[_FileAnalysis]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    out = _FileAnalysis(path)
    out.lines = source.splitlines()
    thread_subclasses = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(
            (_expr_text(base) or "").split(".")[-1] == "Thread"
            for base in node.bases
        )
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            ctx = _ClassContext(node, path.stem)
            ctx.analyse(thread_subclasses)
            _analyse_class(ctx, out)
    _thread_discipline(tree, out, thread_subclasses)
    return out


def _order_cycles(
    edges: dict[tuple[str, str], tuple[str, int, int]]
) -> list[tuple[list[str], tuple[str, int, int]]]:
    """Cycles in the acquisition-order graph (each reported once)."""
    graph: dict[str, set[str]] = {}
    for (src, dst) in edges:
        graph.setdefault(src, set()).add(dst)
        graph.setdefault(dst, set())
    # Tarjan SCC, iterative.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1:
                    sccs.append(sorted(scc))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)

    cycles = []
    for scc in sccs:
        in_scc = set(scc)
        site = min(
            (
                site for (src, dst), site in edges.items()
                if src in in_scc and dst in in_scc
            ),
            key=lambda s: (s[0], s[1]),
        )
        cycles.append((scc, site))
    return cycles


def check_file(path: str | Path) -> list[Diagnostic]:
    """Concurrency-check one file (intra-file lock-order graph only)."""
    return check_paths([path], _record=False)


def check_paths(
    paths: Iterable[str | Path], _record: bool = True
) -> list[Diagnostic]:
    """Concurrency-check every ``.py`` file under the given paths.

    The lock-acquisition-order graph is accumulated *across* files, so
    an inversion between two modules is still reported (anchored at one
    representative acquisition site).
    """
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        elif entry.suffix == ".py":
            files.append(entry)
    findings: list[Diagnostic] = []
    edges: dict[tuple[str, str], tuple[str, int, int]] = {}
    analyses: dict[str, _FileAnalysis] = {}
    for file in files:
        analysis = _analyse_file(file)
        if analysis is None:
            continue
        findings.extend(analysis.findings)
        analyses[str(file)] = analysis
        for edge, site in analysis.edges.items():
            edges.setdefault(edge, site)
    for cycle, (file, lineno, col) in _order_cycles(edges):
        pretty = " -> ".join(_short(lock) for lock in cycle + cycle[:1])
        analysis = analyses.get(file)
        lines = analysis.lines if analysis is not None else []
        if pragma_ignored(lines, lineno, "CONC403"):
            continue
        findings.append(
            Diagnostic(
                "CONC403", "error",
                f"lock-order inversion cycle: {pretty}",
                span=Span(line=lineno, col=col + 1),
                hint="acquire these locks in one global order everywhere "
                "(or collapse them into one lock)",
                source="conc", file=file,
            )
        )
    findings.sort(key=lambda d: (d.file or "", d.span.line if d.span else 0))
    if _record:
        return record_diagnostics(findings, "conc")
    return findings


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.conc",
        description="static concurrency-safety checker (CONC4xx)",
    )
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on any finding, not just errors (CI runs this)",
    )
    args = parser.parse_args(argv)
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        # A vacuous pass over a mistyped path must not look clean in CI.
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = check_paths(args.paths)
    if args.json:
        json.dump([d.to_dict() for d in findings], sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for diag in findings:
            print(format_diagnostic(diag))
        errors = sum(1 for d in findings if d.severity == "error")
        print(f"{len(findings)} finding(s), {errors} error(s)")
    if args.strict:
        return 1 if findings else 0
    return 1 if has_errors(findings) else 0


if __name__ == "__main__":
    sys.exit(main())
