"""Project-wide symbol graph for rflint: per-module facts + resolution.

The cross-module rules (RFP010, RFP012–RFP014) cannot work from a single AST —
they follow a call from ``SenseService.submit_tracked`` into
``SessionStore.get`` and on into ``StreamingTracker.from_checkpoint``,
three modules apart. This module supplies the two halves that make that
tractable inside a linter:

- :func:`extract_facts` distills one parsed file into a JSON-serializable
  fact dict — classes (fields, lock presence, attribute types, checkpoint
  schema), functions (signature, calls with lock context, attribute
  accesses, blocking calls, dtype events from
  :mod:`repro.devtools.dataflow`), and checkpoint subscript reads. Facts
  are what the incremental cache stores: they are cheap to extract, cheap
  to reload, and contain everything the project pass needs, so a cached
  file never has to be re-parsed for cross-module analysis.
- :class:`ProjectGraph` assembles all modules' facts and resolves
  *call descriptors* to concrete functions: ``self.x()``, ``self.attr.x()``
  through constructor-inferred attribute types, local variables through
  annotations / constructor calls / return-type hops, and fully dotted
  paths through the import table.

Resolution is deliberately best-effort and sound-ish rather than
complete: an unresolvable call simply ends a chain (no finding), it never
invents one.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro.devtools.dataflow import analyze_dtypes, tag_of_annotation
from repro.devtools.rules import (
    _BLOCKING_CALLS,
    _BLOCKING_METHODS,
    build_aliases,
    resolve,
)

if TYPE_CHECKING:
    from repro.devtools.engine import Finding, SourceFile

__all__ = ["FACTS_SCHEMA_VERSION", "ProjectGraph", "extract_facts",
           "module_name_for"]

#: Bump when the fact layout changes: invalidates every cache entry.
FACTS_SCHEMA_VERSION = 1

#: Comment marking a function as blocking for RFP014 even though it calls
#: nothing on the blocking lists itself (CPU-bound work, C extensions).
BLOCKING_MARKER = "# rflint: blocking"

_LOCK_SUFFIX = "lock"


def module_name_for(display_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/serve/session.py`` -> ``repro.serve.session``; paths
    outside a ``src`` layout keep their full part chain, which is unique
    enough for resolution purposes.
    """
    parts = list(display_path.split("/"))
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


def _is_lock_name(name: str) -> bool:
    return name == _LOCK_SUFFIX or name.endswith("_" + _LOCK_SUFFIX)


def _is_lock_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return _is_lock_name(node.attr)
    if isinstance(node, ast.Name):
        return _is_lock_name(node.id)
    if isinstance(node, ast.Call):
        # `async with contextlib.nullcontext(session.lock)`-style wrappers
        # are not lock acquisitions; don't guess.
        return False
    return False


def _annotation_class(node: ast.AST | None, aliases: dict[str, str],
                      local_classes: set[str], module: str) -> str | None:
    """Resolve an annotation to a dotted class name, or ``None``.

    Unwraps ``Optional[X]`` / ``X | None`` / string annotations down to a
    single named class; parametrized containers resolve to nothing (we do
    not track element types across modules).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, str):
            return None
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                return _annotation_class(side, aliases, local_classes, module)
        return None
    if isinstance(node, ast.Subscript):
        base = resolve(node.value, aliases)
        if base in ("typing.Optional", "Optional"):
            return _annotation_class(node.slice, aliases, local_classes,
                                     module)
        return None
    if isinstance(node, ast.Name):
        if node.id in local_classes:
            return f"{module}.{node.id}" if module else node.id
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        return resolve(node, aliases)
    return None


def _walk_skip_defs(root: ast.AST) -> Iterator[ast.AST]:
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            continue
        yield child
        yield from _walk_skip_defs(child)


class _FunctionExtractor:
    """Distill one function body into serializable call/access facts."""

    def __init__(self, source_text: str, aliases: dict[str, str],
                 local_classes: set[str], module: str,
                 cls_name: str | None) -> None:
        self.text_lines = source_text.splitlines()
        self.aliases = aliases
        self.local_classes = local_classes
        self.module = module
        self.cls_name = cls_name
        self.var_types: dict[str, str] = {}
        self.calls: list[dict[str, Any]] = []
        self.accesses: list[dict[str, Any]] = []
        self.blocking: list[dict[str, Any]] = []

    def run(self, function: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = function.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg in ("self", "cls"):
                continue
            annotated = _annotation_class(arg.annotation, self.aliases,
                                          self.local_classes, self.module)
            if annotated is not None:
                self.var_types[arg.arg] = annotated
        self._block(function.body, under_lock=False)

    # -- descriptors -------------------------------------------------------

    def _call_desc(self, func: ast.AST) -> str:
        dotted = resolve(func, self.aliases)
        if dotted is not None:
            return f"dotted:{dotted}"
        if isinstance(func, ast.Name):
            if func.id in self.local_classes:
                return f"ctor:{self.module}.{func.id}"
            return f"name:{func.id}"
        if isinstance(func, ast.Attribute):
            method = func.attr
            recv = func.value
            if isinstance(recv, ast.Name):
                if recv.id == "self" and self.cls_name is not None:
                    return f"self:{method}"
                if recv.id in self.local_classes:
                    return f"cls:{self.module}.{recv.id}.{method}"
                rtype = self.var_types.get(recv.id)
                if rtype is not None:
                    return f"var:{recv.id}.{method}:{rtype}"
                return f"method:{method}"
            if (isinstance(recv, ast.Attribute)
                    and isinstance(recv.value, ast.Name)
                    and recv.value.id == "self"):
                return f"selfattr:{recv.attr}.{method}"
            return f"method:{method}"
        return "unknown"

    def _value_type(self, value: ast.AST) -> str | None:
        """Static type of an assigned expression, as class name or hop."""
        if isinstance(value, ast.Call):
            desc = self._call_desc(value.func)
            if desc.startswith("ctor:"):
                return desc.removeprefix("ctor:")
            dotted = desc.removeprefix("dotted:") if desc.startswith(
                "dotted:") else None
            if dotted is not None:
                # `StreamingTracker(...)` via import: constructor call.
                return dotted
            if desc.startswith(("self:", "selfattr:", "var:", "name:",
                                "cls:")):
                return f"ret:{desc}"
            return None
        if isinstance(value, ast.Name):
            return self.var_types.get(value.id)
        if isinstance(value, ast.Await):
            return None
        return None

    # -- body walk ---------------------------------------------------------

    def _block(self, body: list[ast.stmt], *, under_lock: bool) -> None:
        for stmt in body:
            self._statement(stmt, under_lock=under_lock)

    def _statement(self, stmt: ast.stmt, *, under_lock: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are their own execution context
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            locked = under_lock or any(
                _is_lock_expr(item.context_expr) for item in stmt.items
            )
            for item in stmt.items:
                self._expressions(item.context_expr, under_lock=under_lock)
            self._block(stmt.body, under_lock=locked)
            return
        if isinstance(stmt, ast.Assign):
            value_type = self._value_type(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if value_type is not None:
                        self.var_types[target.id] = value_type
                    else:
                        self.var_types.pop(target.id, None)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            annotated = _annotation_class(stmt.annotation, self.aliases,
                                          self.local_classes, self.module)
            if annotated is not None:
                self.var_types[stmt.target.id] = annotated
        for field, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                self._expressions(value, under_lock=under_lock)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.stmt):
                        self._statement(item, under_lock=under_lock)
                    elif isinstance(item, ast.expr):
                        self._expressions(item, under_lock=under_lock)
                    elif isinstance(item, ast.excepthandler):
                        self._block(item.body, under_lock=under_lock)

    def _expressions(self, root: ast.expr, *,
                     under_lock: bool) -> None:
        awaited: set[int] = set()
        for node in [root, *_walk_skip_defs(root)]:
            if isinstance(node, ast.Await) and isinstance(
                node.value, ast.Call
            ):
                awaited.add(id(node.value))
        for node in [root, *_walk_skip_defs(root)]:
            if isinstance(node, ast.Call):
                self._record_call(node, under_lock=under_lock,
                                  awaited=id(node) in awaited)
            elif isinstance(node, ast.Attribute):
                self._record_access(node, under_lock=under_lock)

    def _record_call(self, node: ast.Call, *, under_lock: bool,
                     awaited: bool) -> None:
        desc = self._call_desc(node.func)
        dotted = (desc.removeprefix("dotted:")
                  if desc.startswith("dotted:") else None)
        if dotted in _BLOCKING_CALLS or (
            isinstance(node.func, ast.Name) and node.func.id == "open"
        ):
            self.blocking.append({
                "target": dotted or "open",
                "line": node.lineno, "col": node.col_offset + 1,
            })
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr in _BLOCKING_METHODS and dotted is None):
            self.blocking.append({
                "target": f".{node.func.attr}()",
                "line": node.lineno, "col": node.col_offset + 1,
            })
        self.calls.append({
            "desc": desc,
            "line": node.lineno,
            "col": node.col_offset + 1,
            "awaited": awaited,
            "under_lock": under_lock,
        })

    def _record_access(self, node: ast.Attribute, *,
                       under_lock: bool) -> None:
        if node.attr.startswith("__"):
            return
        recv = node.value
        if not isinstance(recv, ast.Name):
            return
        store = isinstance(node.ctx, (ast.Store, ast.Del))
        rtype: str | None
        if recv.id == "self":
            rtype = "self"
        elif recv.id in self.aliases or recv.id in self.local_classes:
            return  # module/class attribute, not an instance field access
        else:
            rtype = self.var_types.get(recv.id)
        self.accesses.append({
            "attr": node.attr,
            "line": node.lineno,
            "col": node.col_offset + 1,
            "store": store,
            "under_lock": under_lock,
            "recv": recv.id,
            "rtype": rtype,
        })


def _function_facts(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    source: "SourceFile",
    aliases: dict[str, str],
    local_classes: set[str],
    module: str,
    cls_name: str | None,
) -> dict[str, Any]:
    args = function.args
    named = [*args.posonlyargs, *args.args]
    params = [arg.arg for arg in named if arg.arg not in ("self", "cls")]
    n_defaults = len(args.defaults)
    required = max(len(named) - n_defaults, 0)
    if named and named[0].arg in ("self", "cls"):
        required = max(required - 1, 0)

    extractor = _FunctionExtractor(source.text, aliases, local_classes,
                                   module, cls_name)
    extractor.run(function)
    dtypes = analyze_dtypes(function, aliases)

    calls = extractor.calls
    for call in calls:
        tags = dtypes.call_args.get((call["line"], call["col"] - 1))
        if tags:
            call["tags"] = [list(pair) for pair in tags]

    param_tags = {
        arg.arg: tag
        for arg in [*named, *args.kwonlyargs]
        if (tag := tag_of_annotation(arg.annotation, aliases)) is not None
    }

    header_lines = range(function.lineno,
                         (function.body[0].lineno if function.body
                          else function.lineno) + 1)
    lines = source.text.splitlines()
    blocking_marker = any(
        BLOCKING_MARKER in lines[line - 1]
        for line in header_lines if 0 < line <= len(lines)
    )

    return {
        "name": function.name,
        "qual": (f"{cls_name}.{function.name}" if cls_name
                 else function.name),
        "cls": cls_name,
        "line": function.lineno,
        "is_async": isinstance(function, ast.AsyncFunctionDef),
        "params": params,
        "required": required,
        "has_varargs": args.vararg is not None,
        "param_tags": param_tags,
        "param_types": {
            name: rtype for name, rtype in extractor.var_types.items()
            if name in params
        },
        "returns": _annotation_class(function.returns, aliases,
                                     local_classes, module),
        "blocking_marker": blocking_marker,
        "blocking": extractor.blocking,
        "calls": calls,
        "accesses": extractor.accesses,
        "dtype_violations": [list(v) for v in dtypes.violations],
    }


def _checkpoint_info(cls: ast.ClassDef) -> dict[str, Any] | None:
    methods = {
        stmt.name: stmt for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    has_checkpoint = "checkpoint" in methods
    has_restore = "from_checkpoint" in methods
    if not (has_checkpoint or has_restore):
        return None

    version_const = False
    fields_const: list[str] | None = None
    fields_line = cls.lineno
    for stmt in cls.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if "CHECKPOINT_VERSION" in names:
            version_const = True
        if "CHECKPOINT_FIELDS" in names and isinstance(
            value, (ast.Tuple, ast.List)
        ):
            literal = [
                element.value for element in value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ]
            if len(literal) == len(value.elts):
                fields_const = literal
                fields_line = stmt.lineno

    write_keys: list[str] | None = None
    write_line = cls.lineno
    if has_checkpoint:
        write_line = methods["checkpoint"].lineno
        returned: list[str] = []
        exact = True
        for node in ast.walk(methods["checkpoint"]):
            if not isinstance(node, ast.Return) or not isinstance(
                node.value, ast.Dict
            ):
                continue
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    returned.append(key.value)
                else:
                    exact = False
        if returned and exact:
            write_keys = returned

    read_keys: list[str] = []
    read_line = cls.lineno
    reads_version = False
    if has_restore:
        restore = methods["from_checkpoint"]
        read_line = restore.lineno
        args = restore.args
        named = [arg.arg for arg in [*args.posonlyargs, *args.args]
                 if arg.arg not in ("self", "cls")]
        state_param = named[0] if named else None
        for node in ast.walk(restore):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "CHECKPOINT_VERSION"):
                reads_version = True
            if state_param is None:
                continue
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == state_param
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                read_keys.append(node.slice.value)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get"
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == state_param
                  and node.args
                  and isinstance(node.args[0], ast.Constant)
                  and isinstance(node.args[0].value, str)):
                read_keys.append(node.args[0].value)

    return {
        "has_checkpoint": has_checkpoint,
        "has_from_checkpoint": has_restore,
        "version_const": version_const,
        "fields_const": fields_const,
        "fields_line": fields_line,
        "write_keys": write_keys,
        "write_line": write_line,
        "read_keys": sorted(set(read_keys)),
        "read_line": read_line,
        "reads_version": reads_version,
        "line": cls.lineno,
    }


def _class_facts(cls: ast.ClassDef, *, source: "SourceFile",
                 aliases: dict[str, str], local_classes: set[str],
                 module: str) -> dict[str, Any]:
    fields: list[str] = []
    attr_types: dict[str, str] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            fields.append(stmt.target.id)
            annotated = _annotation_class(stmt.annotation, aliases,
                                          local_classes, module)
            if annotated is not None:
                attr_types[stmt.target.id] = annotated
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(stmt):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if target.attr not in fields:
                fields.append(target.attr)
            if target.attr in attr_types:
                continue
            if isinstance(node, ast.AnnAssign):
                annotated = _annotation_class(node.annotation, aliases,
                                              local_classes, module)
                if annotated is not None:
                    attr_types[target.attr] = annotated
                    continue
            if isinstance(value, ast.Call):
                ctor = resolve(value.func, aliases)
                if ctor is None and isinstance(value.func, ast.Name) and (
                    value.func.id in local_classes
                ):
                    ctor = f"{module}.{value.func.id}"
                if ctor is not None:
                    attr_types[target.attr] = ctor

    return {
        "name": cls.name,
        "line": cls.lineno,
        "fields": fields,
        "has_lock": any(_is_lock_name(field) for field in fields),
        "attr_types": attr_types,
        "checkpoint": _checkpoint_info(cls),
    }


def extract_facts(source: "SourceFile") -> dict[str, Any]:
    """Distill one parsed file into the serializable project facts."""
    aliases = build_aliases(source.tree)
    module = module_name_for(source.display_path)
    local_classes = {
        stmt.name for stmt in source.tree.body
        if isinstance(stmt, ast.ClassDef)
    }

    classes: dict[str, dict[str, Any]] = {}
    functions: dict[str, dict[str, Any]] = {}
    checkpoint_reads: list[dict[str, Any]] = []

    def visit_function(function: ast.FunctionDef | ast.AsyncFunctionDef,
                       cls_name: str | None) -> None:
        facts = _function_facts(
            function, source=source, aliases=aliases,
            local_classes=local_classes, module=module, cls_name=cls_name,
        )
        functions[facts["qual"]] = facts

    for stmt in source.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_function(stmt, None)
        elif isinstance(stmt, ast.ClassDef):
            classes[stmt.name] = _class_facts(
                stmt, source=source, aliases=aliases,
                local_classes=local_classes, module=module,
            )
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit_function(sub, stmt.name)

    for node in ast.walk(source.tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "checkpoint"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            checkpoint_reads.append({
                "key": node.slice.value,
                "line": node.lineno,
                "col": node.col_offset + 1,
            })

    return {
        "schema": FACTS_SCHEMA_VERSION,
        "path": source.display_path,
        "module": module,
        "aliases": aliases,
        "suppressions": {
            str(line): sorted(ids)
            for line, ids in source.suppressions.items()
        },
        "classes": classes,
        "functions": functions,
        "checkpoint_reads": checkpoint_reads,
    }


FnKey = tuple[str, str]  # (display_path, qualname)


class ProjectGraph:
    """All modules' facts plus cross-module resolution."""

    def __init__(self, modules: dict[str, dict[str, Any]]) -> None:
        self.modules = modules
        self.by_module: dict[str, dict[str, Any]] = {}
        for facts in modules.values():
            name = facts.get("module", "")
            if name:
                self.by_module[name] = facts

    # -- lookups -----------------------------------------------------------

    def iter_functions(
        self,
    ) -> Iterator[tuple[dict[str, Any], dict[str, Any]]]:
        """Yield ``(module_facts, function_facts)`` over the project."""
        for facts in self.modules.values():
            for fn in facts["functions"].values():
                yield facts, fn

    def iter_classes(
        self,
    ) -> Iterator[tuple[dict[str, Any], dict[str, Any]]]:
        for facts in self.modules.values():
            for cls in facts["classes"].values():
                yield facts, cls

    def function_by_key(
        self, key: FnKey
    ) -> tuple[dict[str, Any], dict[str, Any]] | None:
        facts = self.modules.get(key[0])
        if facts is None:
            return None
        fn = facts["functions"].get(key[1])
        if fn is None:
            return None
        return facts, fn

    def class_by_dotted(
        self, dotted: str
    ) -> tuple[dict[str, Any], dict[str, Any]] | None:
        module, _, cls_name = dotted.rpartition(".")
        facts = self.by_module.get(module)
        if facts is None:
            return None
        cls = facts["classes"].get(cls_name)
        if cls is None:
            return None
        return facts, cls

    def method_key(self, dotted_cls: str, method: str) -> FnKey | None:
        resolved = self.class_by_dotted(dotted_cls)
        if resolved is None:
            return None
        facts, cls = resolved
        qual = f"{cls['name']}.{method}"
        if qual in facts["functions"]:
            return (facts["path"], qual)
        return None

    def is_suppressed(self, finding: "Finding") -> bool:
        facts = self.modules.get(finding.path)
        if facts is None:
            return False
        disabled = facts["suppressions"].get(str(finding.line))
        if not disabled:
            return False
        return finding.rule_id in disabled or "ALL" in disabled

    # -- call resolution ---------------------------------------------------

    def resolve_type(self, rtype: str | None, caller_module: dict[str, Any],
                     caller_fn: dict[str, Any] | None) -> str | None:
        """A receiver type annotation/hop down to a dotted class name."""
        if rtype is None or rtype == "self":
            return rtype
        if rtype.startswith("ret:"):
            key = self.resolve_call(rtype.removeprefix("ret:"),
                                    caller_module, caller_fn)
            if key is None:
                return None
            resolved = self.function_by_key(key)
            if resolved is None:
                return None
            returns = resolved[1].get("returns")
            return returns if isinstance(returns, str) else None
        return rtype

    def resolve_call(self, desc: str, caller_module: dict[str, Any],
                     caller_fn: dict[str, Any] | None) -> FnKey | None:
        """A call descriptor down to a concrete project function, if any."""
        kind, _, rest = desc.partition(":")
        if kind == "dotted":
            return self._resolve_dotted(rest)
        if kind == "ctor":
            return self.method_key(rest, "__init__")
        if kind == "name":
            if rest in caller_module["functions"]:
                return (caller_module["path"], rest)
            dotted = caller_module["aliases"].get(rest)
            if dotted is not None:
                return self._resolve_dotted(dotted)
            return None
        if kind == "self":
            if caller_fn is None or caller_fn.get("cls") is None:
                return None
            qual = f"{caller_fn['cls']}.{rest}"
            if qual in caller_module["functions"]:
                return (caller_module["path"], qual)
            return None
        if kind == "cls":
            dotted_cls, _, method = rest.rpartition(".")
            return self.method_key(dotted_cls, method)
        if kind == "selfattr":
            if caller_fn is None or caller_fn.get("cls") is None:
                return None
            attr, _, method = rest.partition(".")
            cls = caller_module["classes"].get(caller_fn["cls"])
            if cls is None:
                return None
            dotted_cls = cls["attr_types"].get(attr)
            if dotted_cls is None:
                return None
            return self.method_key(dotted_cls, method)
        if kind == "var":
            head, _, rtype = rest.partition(":")
            _, _, method = head.partition(".")
            resolved_cls = self.resolve_type(rtype, caller_module, caller_fn)
            if resolved_cls is None or resolved_cls == "self":
                return None
            return self.method_key(resolved_cls, method)
        return None

    def _resolve_dotted(self, dotted: str) -> FnKey | None:
        # Longest-prefix match: `a.b.C.m` may be module `a.b` + class `C`
        # method `m`, or module `a.b.C` + function `m`.
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            facts = self.by_module.get(module)
            if facts is None:
                continue
            qual = ".".join(parts[split:])
            if qual in facts["functions"]:
                return (facts["path"], qual)
            if qual in facts["classes"]:
                init = f"{qual}.__init__"
                if init in facts["functions"]:
                    return (facts["path"], init)
            return None
        return None
