"""The cross-module rflint rules: RFP010 and RFP012–RFP014.

These run in the project pass over :class:`~repro.devtools.project.
ProjectGraph` — after every file's facts exist — and guard invariants no
single AST can see:

- **RFP010** async lock discipline: a field of a lock-owning class that
  is ever mutated under ``async with ...lock`` is lock-guarded *state*;
  touching it anywhere outside the lock (including from helpers only ever
  called with the lock held — those are exempted by call-graph closure)
  is a data race with the serving path.
- **RFP012** checkpoint schema discipline: a class with
  ``checkpoint``/``from_checkpoint`` must declare ``CHECKPOINT_VERSION``
  and ``CHECKPOINT_FIELDS``; the payload keys written, the keys read
  back, and the declared tuple must agree, so any payload edit forces a
  visible schema diff (and with it the version-bump conversation).
  Cross-module subscripts into checkpoint blobs must use declared keys.
- **RFP013** dtype flow: tracks float64 values (via
  :mod:`repro.devtools.dataflow`) into float32 buffers locally and into
  float32-annotated parameters across module boundaries — the precision
  drop RFP004's per-call syntax check cannot see.
- **RFP014** transitive blocking calls: closes RFP008 over the call
  graph — a serve coroutine calling a *sync* helper that (transitively)
  reaches ``time.sleep``/file I/O/``subprocess`` or a function marked
  ``# rflint: blocking`` stalls the event loop just as surely as calling
  it inline. Reports one witness chain per call site.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.devtools.engine import Finding, ProjectRule, register
from repro.devtools.project import FnKey, ProjectGraph

__all__ = [
    "AsyncLockDiscipline",
    "CheckpointSchemaDiscipline",
    "DtypeFlow",
    "TransitiveBlockingCall",
]

_INIT_METHODS = frozenset({"__init__", "__post_init__"})


def _is_lockish(attr: str) -> bool:
    return attr == "lock" or attr.endswith("_lock")


@register
class AsyncLockDiscipline(ProjectRule):
    """RFP010 — fields mutated under a session lock never escape it."""

    rule_id = "RFP010"
    title = "lock-guarded field touched outside the lock"
    include = ("*repro/serve/*",)

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        # 1. Lock-owning classes and their instance fields.
        lock_classes: dict[str, dict[str, Any]] = {}
        for facts, cls in project.iter_classes():
            if cls["has_lock"]:
                dotted = f"{facts['module']}.{cls['name']}"
                lock_classes[dotted] = cls
        if not lock_classes:
            return
        lock_fields: dict[str, set[str]] = {
            dotted: {f for f in cls["fields"] if not _is_lockish(f)}
            for dotted, cls in lock_classes.items()
        }

        # 2. Call-graph closure of code that runs with a lock held.
        locked_fns = self._locked_closure(project)

        # 3. Which receiver class does each access hit, if determinable?
        def receiver_class(facts: dict[str, Any], fn: dict[str, Any],
                           access: dict[str, Any]) -> str | None:
            rtype = project.resolve_type(access["rtype"], facts, fn)
            if rtype == "self":
                cls_name = fn.get("cls")
                if cls_name is None:
                    return None
                return f"{facts['module']}.{cls_name}"
            if rtype is not None:
                return rtype if rtype in lock_classes else None
            # Untyped receiver: match by field name alone — scoped to the
            # serve tree, where these field names are unambiguous.
            candidates = [dotted for dotted, fields in lock_fields.items()
                          if access["attr"] in fields]
            return candidates[0] if len(candidates) == 1 else None

        # 4. Guarded fields: stored under the lock (directly or from the
        #    locked closure) anywhere in the project.
        guarded: dict[tuple[str, str], tuple[str, int]] = {}
        matched: list[tuple[dict[str, Any], dict[str, Any],
                            dict[str, Any], str]] = []
        for facts, fn in project.iter_functions():
            in_closure = (facts["path"], fn["qual"]) in locked_fns
            for access in fn["accesses"]:
                dotted = receiver_class(facts, fn, access)
                if dotted is None or dotted not in lock_classes:
                    continue
                if access["attr"] not in lock_fields[dotted]:
                    continue
                matched.append((facts, fn, access, dotted))
                if access["store"] and (access["under_lock"] or in_closure):
                    guarded.setdefault(
                        (dotted, access["attr"]),
                        (facts["path"], access["line"]),
                    )

        # 5. Violations: guarded fields touched lock-free outside the
        #    closure (constructors excepted — the object is not shared yet).
        for facts, fn, access, dotted in matched:
            key = (dotted, access["attr"])
            if key not in guarded:
                continue
            if access["under_lock"]:
                continue
            if (facts["path"], fn["qual"]) in locked_fns:
                continue
            if fn["name"] in _INIT_METHODS:
                continue
            guard_path, guard_line = guarded[key]
            action = "written" if access["store"] else "read"
            cls_short = dotted.rsplit(".", 1)[-1]
            yield self.finding_at(
                facts["path"], access["line"], access["col"],
                f"{cls_short}.{access['attr']} is lock-guarded state "
                f"(mutated under the session lock at "
                f"{guard_path}:{guard_line}) but is {action} here without "
                f"holding the lock",
            )

    @staticmethod
    def _locked_closure(project: ProjectGraph) -> set[FnKey]:
        """Sync functions only reachable with a lock held, plus lock
        bodies themselves, via BFS over under-lock call sites."""
        queue: list[FnKey] = []
        seen: set[FnKey] = set()
        for facts, fn in project.iter_functions():
            for call in fn["calls"]:
                if not call["under_lock"]:
                    continue
                key = project.resolve_call(call["desc"], facts, fn)
                if key is not None and key not in seen:
                    seen.add(key)
                    queue.append(key)
        while queue:
            key = queue.pop()
            resolved = project.function_by_key(key)
            if resolved is None:
                continue
            facts, fn = resolved
            if fn["is_async"]:
                continue  # a coroutine re-entered elsewhere isn't covered
            for call in fn["calls"]:
                callee = project.resolve_call(call["desc"], facts, fn)
                if callee is not None and callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return seen


@register
class CheckpointSchemaDiscipline(ProjectRule):
    """RFP012 — checkpoint payload keys are declared, versioned state."""

    rule_id = "RFP012"
    title = "checkpoint schema drift"
    include = ("*repro/radar/*", "*repro/serve/*")

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        declared_keys: set[str] = set()
        schemas_exist = False
        for facts, cls in project.iter_classes():
            info = cls.get("checkpoint")
            if info is None:
                continue
            if not (info["has_checkpoint"] and info["has_from_checkpoint"]):
                continue
            schemas_exist = True
            path = facts["path"]
            name = cls["name"]
            if not info["version_const"]:
                yield self.finding_at(
                    path, info["line"], 1,
                    f"{name} defines checkpoint()/from_checkpoint() without "
                    f"a CHECKPOINT_VERSION class constant; restores cannot "
                    f"reject incompatible blobs",
                )
            if info["fields_const"] is None:
                yield self.finding_at(
                    path, info["line"], 1,
                    f"{name} does not declare CHECKPOINT_FIELDS; declare "
                    f"the payload keys as a class constant so schema edits "
                    f"are visible diffs that force a version bump",
                )
            else:
                declared = set(info["fields_const"])
                declared_keys |= declared
                if info["write_keys"] is not None:
                    written = set(info["write_keys"])
                    if written != declared:
                        added = sorted(written - declared)
                        removed = sorted(declared - written)
                        detail = "; ".join(
                            part for part in (
                                f"writes undeclared {added}" if added else "",
                                f"never writes declared {removed}"
                                if removed else "",
                            ) if part
                        )
                        yield self.finding_at(
                            path, info["write_line"], 1,
                            f"{name}.checkpoint() payload disagrees with "
                            f"CHECKPOINT_FIELDS ({detail}); update the "
                            f"constant and bump CHECKPOINT_VERSION",
                        )
                stray = sorted(set(info["read_keys"]) - declared)
                if stray:
                    yield self.finding_at(
                        path, info["read_line"], 1,
                        f"{name}.from_checkpoint() reads keys {stray} that "
                        f"CHECKPOINT_FIELDS does not declare; update the "
                        f"constant and bump CHECKPOINT_VERSION",
                    )
            if not info["reads_version"]:
                yield self.finding_at(
                    path, info["read_line"], 1,
                    f"{name}.from_checkpoint() never checks "
                    f"CHECKPOINT_VERSION; incompatible blobs would restore "
                    f"silently corrupted state",
                )
        if not schemas_exist:
            return
        for facts in project.modules.values():
            for read in facts["checkpoint_reads"]:
                if read["key"] not in declared_keys:
                    yield self.finding_at(
                        facts["path"], read["line"], read["col"],
                        f"subscript reads checkpoint key {read['key']!r} "
                        f"that no CHECKPOINT_FIELDS declares; the key would "
                        f"silently vanish on a schema change",
                    )


@register
class DtypeFlow(ProjectRule):
    """RFP013 — float64 values must not flow into float32 sinks."""

    rule_id = "RFP013"
    title = "float64 value flows into a float32 sink"
    include = ("*repro/radar/*", "*repro/signal/*", "*repro/nn/*",
               "*repro/gan/*")

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        for facts, fn in project.iter_functions():
            for line, col, message in fn["dtype_violations"]:
                yield self.finding_at(facts["path"], line, col, message)
            for call in fn["calls"]:
                tags = call.get("tags")
                if not tags:
                    continue
                key = project.resolve_call(call["desc"], facts, fn)
                if key is None:
                    continue
                resolved = project.function_by_key(key)
                if resolved is None:
                    continue
                callee_facts, callee = resolved
                param_tags = callee["param_tags"]
                if not param_tags:
                    continue
                params: list[str] = callee["params"]
                for slot, tag in tags:
                    if tag not in ("float64", "complex"):
                        continue
                    if slot.isdigit():
                        index = int(slot)
                        name = params[index] if index < len(params) else None
                    else:
                        name = slot if slot in param_tags else None
                    if name is None:
                        continue
                    if param_tags.get(name) == "float32":
                        yield self.finding_at(
                            facts["path"], call["line"], call["col"],
                            f"{tag} value passed for parameter {name!r} of "
                            f"{callee['qual']}() "
                            f"({callee_facts['path']}:{callee['line']}), "
                            f"which pins float32; the narrowing is silent",
                        )


@register
class TransitiveBlockingCall(ProjectRule):
    """RFP014 — serve coroutines must not reach blocking sync helpers."""

    rule_id = "RFP014"
    title = "coroutine transitively calls blocking code"
    include = ("*repro/serve/*",)

    _MAX_DEPTH = 24

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        memo: dict[FnKey, list[str] | None] = {}
        for facts, fn in project.iter_functions():
            if not fn["is_async"]:
                continue
            for call in fn["calls"]:
                if call["awaited"]:
                    continue
                key = project.resolve_call(call["desc"], facts, fn)
                if key is None:
                    continue
                resolved = project.function_by_key(key)
                if resolved is None or resolved[1]["is_async"]:
                    continue
                chain = self._blocking_chain(project, key, memo, set(), 0)
                if chain is None:
                    continue
                witness = " -> ".join(chain)
                yield self.finding_at(
                    facts["path"], call["line"], call["col"],
                    f"async {fn['name']}() calls into blocking sync code: "
                    f"{witness}; run it via loop.run_in_executor(...) or "
                    f"suppress with a justification",
                )

    def _blocking_chain(
        self,
        project: ProjectGraph,
        key: FnKey,
        memo: dict[FnKey, list[str] | None],
        visiting: set[FnKey],
        depth: int,
    ) -> list[str] | None:
        if key in memo:
            return memo[key]
        if key in visiting or depth > self._MAX_DEPTH:
            return None
        resolved = project.function_by_key(key)
        if resolved is None:
            return None
        facts, fn = resolved
        if fn["is_async"]:
            return None
        label = f"{facts['module']}.{fn['qual']}"
        if fn["blocking_marker"]:
            memo[key] = [f"{label} (marked # rflint: blocking)"]
            return memo[key]
        if fn["blocking"]:
            first = fn["blocking"][0]
            memo[key] = [f"{label} ({first['target']} at line "
                         f"{first['line']})"]
            return memo[key]
        visiting.add(key)
        chain: list[str] | None = None
        for call in fn["calls"]:
            callee = project.resolve_call(call["desc"], facts, fn)
            if callee is None or callee == key:
                continue
            sub = self._blocking_chain(project, callee, memo, visiting,
                                       depth + 1)
            if sub is not None:
                chain = [label, *sub]
                break
        visiting.discard(key)
        memo[key] = chain
        return chain
