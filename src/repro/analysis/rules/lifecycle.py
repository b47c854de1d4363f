"""Rule ``resource-lifecycle``: acquire/release balance on all paths.

The cache store holds an ``fcntl`` lock that must be dropped on every
exit, bare ``open()`` handles must be closed, and tracer spans must
end.  A release that only happens on the happy path is exactly the bug
class this rule exists for, so the check is *path-sensitive*: each
acquisition is tracked through every enumerated CFG path
(:mod:`repro.analysis.graph.dataflow`) and flagged unless each required
release happens on **all** of them.

Protocol table (kind -> required release groups; each group is
satisfied by any one of its operations on every path):

=============  =====================================================
``file``       ``close()`` (or escape) for bare ``open()`` handles
``flock``      ``fcntl.flock(h, LOCK_UN)`` matching the ``LOCK_EX``
``span``       ``end()``/``close()``/``finish()`` for spans acquired
               outside a ``with``
=============  =====================================================

``with`` blocks and try/finally are the sanctioned forms — both
satisfy the rule naturally (context managers are never tracked;
finally bodies lie on every enumerated path).  Ownership *escape*
(returning the handle, passing it onward, storing it on an object)
transfers the release obligation to the receiver and satisfies all
groups.  Acquisitions whose constructor raised (the path jumps to an
``except`` entry straight from the acquiring statement) never produced
a resource and are discounted.  Functions whose branching exceeds the
path-enumeration budget are skipped rather than guessed at.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ParsedFile, Rule, register_rule
from repro.analysis.graph.callgraph import dotted_parts
from repro.analysis.graph.cfg import Test, WithEnter, WithExit
from repro.analysis.graph.dataflow import iter_paths
from repro.analysis.graph.project import Project

__all__ = ["LifecycleRule", "RELEASE_GROUPS"]

#: kind -> ordered release groups; one method of each group must run
#: on every path (escape satisfies every group at once).
RELEASE_GROUPS: dict[str, tuple[tuple[str, ...], ...]] = {
    "file": (("close",),),
    "span": (("end", "close", "finish"),),
    # flock's release is the positional LOCK_UN call, matched against
    # the same handle expression in ``_apply_call``.
    "flock": (("LOCK_UN",),),
}

#: Human labels for findings, per kind.
_KIND_LABEL = {
    "file": "file handle",
    "span": "tracer span",
    "flock": "fcntl lock",
}

_GROUP_LABEL = {
    ("close",): "closed",
    ("end", "close", "finish"): "ended",
}


def _is_test_file(parsed: ParsedFile) -> bool:
    stem = parsed.path.stem
    return stem.startswith("test_") or stem == "conftest"


def _call_expansion(call: ast.Call, symbols) -> str:
    """Canonical dotted name of a call's target ('' if not dotted)."""
    parts = dotted_parts(call.func)
    return symbols.expand(parts) if parts else ""


def _acquisition_kind(call: ast.Call, symbols) -> str | None:
    """The resource kind a call acquires, or None."""
    expanded = _call_expansion(call, symbols)
    if expanded == "open":  # builtin only; Path.open is method-dotted
        return "file"
    tail = expanded.rpartition(".")[2]
    if tail == "span" and "span" in symbols.imports:
        target = symbols.imports["span"]
        if target.endswith("trace.span") or target == "span":
            return "span"
    return None


def _flock_mode(call: ast.Call, symbols) -> tuple[str, str] | None:
    """``(lock key, 'EX'|'UN')`` for an ``fcntl.flock`` call."""
    if _call_expansion(call, symbols) != "fcntl.flock":
        return None
    if len(call.args) < 2:
        return None
    handle = ast.dump(call.args[0])
    parts = dotted_parts(call.args[1])
    mode = symbols.expand(parts) if parts else ""
    if mode.endswith("LOCK_EX"):
        return handle, "EX"
    if mode.endswith("LOCK_UN"):
        return handle, "UN"
    return None


class _Tracked:
    """One live resource on one path."""

    __slots__ = ("kind", "node", "satisfied")

    def __init__(self, kind: str, node: ast.AST) -> None:
        self.kind = kind
        self.node = node
        self.satisfied: set[tuple[str, ...]] = set()

    def missing(self) -> list[tuple[str, ...]]:
        groups = RELEASE_GROUPS.get(self.kind, ())
        return [g for g in groups if g not in self.satisfied]


@register_rule
class LifecycleRule(Rule):
    """Resources acquired in a function must be released on all paths."""

    rule_id = "resource-lifecycle"
    description = ("file handle / fcntl lock / span not released on "
                   "every control-flow path (use with or try/finally)")

    def check(self, project: Project) -> Iterator[Finding]:
        for parsed in project:
            if _is_test_file(parsed):
                continue
            symbols = project.symbols_of(parsed)
            for node in symbols.functions.values():
                yield from self._check_function(project, parsed,
                                                symbols, node)

    def _check_function(self, project: Project, parsed: ParsedFile,
                        symbols, func) -> Iterator[Finding]:
        if not self._may_acquire(func, symbols):
            return
        cfg = project.cfg_of(func)
        path_set = iter_paths(cfg)
        if path_set.truncated:
            return  # cannot enumerate honestly: stay silent
        #: (var-or-key, acq line, kind, group) -> acquisition node
        leaks: dict[tuple[str, int, str, tuple[str, ...]], ast.AST] = {}
        for path in path_set.paths:
            self._walk_path(cfg, symbols, path, leaks)
        for (name, _, kind, group), node in sorted(
                leaks.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            label = _KIND_LABEL[kind]
            if kind == "flock":
                message = (f"{label} acquired here is not released "
                           f"with LOCK_UN on every path; unlock in a "
                           f"finally block")
            else:
                wanted = _GROUP_LABEL.get(group, "/".join(group))
                message = (f"{label} '{name}' acquired here is not "
                           f"{wanted} on every path; use a context "
                           f"manager or try/finally")
            finding = self.finding(parsed, node, message)
            if finding is not None:
                yield finding

    @staticmethod
    def _may_acquire(func, symbols) -> bool:
        """Cheap pre-filter: does the body mention an acquirable?"""
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                if (_acquisition_kind(node, symbols) is not None
                        or _flock_mode(node, symbols) is not None):
                    return True
        return False

    def _walk_path(self, cfg, symbols, path, leaks) -> None:
        live: dict[str, _Tracked] = {}
        prev_block = None
        for block_id in path.blocks:
            block = cfg.blocks[block_id]
            if (block_id in cfg.handler_entries
                    and prev_block is not None):
                self._cancel_raising_acquire(cfg, symbols, prev_block,
                                             live)
            for item in block.items:
                self._transfer(symbols, live, item)
            prev_block = block_id
        for name, tracked in live.items():
            for group in tracked.missing():
                key = (name, getattr(tracked.node, "lineno", 1),
                       tracked.kind, group)
                leaks.setdefault(key, tracked.node)

    @staticmethod
    def _cancel_raising_acquire(cfg, symbols, prev_block, live) -> None:
        """Drop an acquisition whose own statement raised.

        When a path enters an ``except`` entry and the *last* item of
        the preceding block was the acquiring assignment, the exception
        can only have come from (or before) the constructor itself —
        no resource exists on this path.
        """
        items = cfg.blocks[prev_block].items
        if not items:
            return
        last = items[-1]
        if not isinstance(last, ast.Assign):
            return
        for name, tracked in list(live.items()):
            if tracked.node is last:
                del live[name]

    def _transfer(self, symbols, live: dict[str, _Tracked],
                  item: object) -> None:
        if isinstance(item, (Test, WithEnter, WithExit)):
            expr = item.expr if isinstance(item, Test) else None
            if expr is not None:
                self._mark_escapes(live, expr, method_call=False)
            return
        if not isinstance(item, ast.stmt):
            return
        # Releases and escapes anywhere in the statement.
        for node in ast.walk(item):
            if isinstance(node, ast.Call):
                self._apply_call(symbols, live, node)
        if isinstance(item, ast.Return) and item.value is not None:
            self._mark_escapes(live, item.value, method_call=False)
        if isinstance(item, ast.Assign):
            self._apply_assign(symbols, live, item)
        elif isinstance(item, ast.Expr):
            # Bare acquisition (``open(p)`` never bound): track under a
            # synthetic key so it is reported as leaked.
            value = item.value
            if isinstance(value, ast.Call):
                kind = _acquisition_kind(value, symbols)
                if kind is not None:
                    key = f"<unbound:{getattr(value, 'lineno', 0)}>"
                    live[key] = _Tracked(kind, value)

    def _apply_assign(self, symbols, live: dict[str, _Tracked],
                      stmt: ast.Assign) -> None:
        value = stmt.value
        targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
        if isinstance(value, ast.Call):
            kind = _acquisition_kind(value, symbols)
            if kind is not None and targets:
                live[targets[0].id] = _Tracked(kind, stmt)
                return
        # Storing a handle into an attribute/subscript is an escape.
        for target in stmt.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._mark_escapes(live, value, method_call=False)

    def _apply_call(self, symbols, live: dict[str, _Tracked],
                    call: ast.Call) -> None:
        flock = _flock_mode(call, symbols)
        if flock is not None:
            handle, mode = flock
            key = f"<flock:{handle}>"
            if mode == "EX":
                tracked = _Tracked("flock", call)
                tracked.satisfied = set()
                live[key] = tracked
            elif key in live:
                del live[key]
            return
        # ``var.method(...)``: a release when method is in a group.
        func = call.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in live):
            tracked = live[func.value.id]
            for group in RELEASE_GROUPS.get(tracked.kind, ()):
                if func.attr in group:
                    tracked.satisfied.add(group)
            return
        # A tracked handle passed as an argument escapes (ownership
        # transfer to the callee).
        for arg in list(call.args) + [k.value for k in call.keywords]:
            self._mark_escapes(live, arg, method_call=True)

    @staticmethod
    def _mark_escapes(live: dict[str, _Tracked], expr: ast.expr,
                      method_call: bool) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in live:
                tracked = live[node.id]
                tracked.satisfied.update(
                    RELEASE_GROUPS.get(tracked.kind, ()))
