"""rflint engine: rule registry, scoping, suppression, the two-pass driver.

A :class:`Rule` inspects one parsed :class:`SourceFile` and yields
:class:`Finding` objects. A :class:`ProjectRule` instead inspects the
whole-project fact base (:class:`repro.devtools.project.ProjectGraph`) —
the module/symbol graph built from every linted file — which is how the
cross-module rules (RFP010, RFP012–RFP014) reason about call chains,
checkpoint schemas, and lock discipline across files. Rules self-register via
:func:`register` and declare *path scopes* — fnmatch globs limiting where
they apply (e.g. the dtype-discipline rule only runs under ``repro/radar``
and ``repro/signal``). Scopes and global excludes can be overridden from
``pyproject.toml``::

    [tool.rflint]
    exclude = ["tests/fixtures/*"]

    [tool.rflint.per-rule.RFP004]
    include = ["*repro/radar/*", "*repro/signal/*"]

Suppression is per *logical line*: a trailing ``# rflint: disable=RFP001``
(comma-separated ids, or ``all``) silences matching findings anywhere on
the statement's physical line span — so a disable comment at the end of a
parenthesized continuation or a multi-line ``def`` header covers the whole
statement, not just the physical line the comment sits on.

The driver (:func:`lint_paths`) runs in two passes: a per-file pass
(local rules + fact extraction, content-hash cached and optionally
parallel across processes) and a project pass (the cross-module rules
over the assembled fact base, always recomputed — facts are cheap, and
rerunning them is what keeps cached files' cross-file findings fresh).
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import hashlib
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Any, ClassVar

if TYPE_CHECKING:
    from repro.devtools.cache import LintCache
    from repro.devtools.project import ProjectGraph

__all__ = [
    "DEFAULT_EXCLUDES",
    "Finding",
    "LintConfig",
    "LintResult",
    "PARSE_ERROR_ID",
    "ProjectRule",
    "Rule",
    "RuleScope",
    "SourceFile",
    "TextEdit",
    "all_rules",
    "content_hash",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register",
]

#: Pseudo-rule id attached to unparseable files. Not suppressible.
PARSE_ERROR_ID = "RFP000"

#: Directory-walk excludes applied even without a pyproject override. The
#: lint fixture corpus intentionally violates every rule, so it must never
#: count against the tree; explicitly named files bypass these.
DEFAULT_EXCLUDES: tuple[str, ...] = (
    "*tests/fixtures/*",
    "*/__pycache__/*",
    "*/.git/*",
    "*.egg-info/*",
    "*/build/*",
)

_RULE_ID_RE = re.compile(r"^RFP\d{3}$")
_SUPPRESS_RE = re.compile(r"#\s*rflint:\s*disable=([A-Za-z0-9_,\s]+)")


def content_hash(text: str) -> str:
    """Content fingerprint used by the incremental cache."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class TextEdit:
    """One mechanical source edit attached to a finding by ``--fix``.

    Replaces the half-open span ``(line, col) .. (end_line, end_col)``
    (1-based lines, 0-based columns, matching the AST) with ``text``; a
    zero-width span is a pure insertion.
    """

    line: int
    col: int
    end_line: int
    end_col: int
    text: str


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: Mechanical auto-fix edits (``rfprotect lint --fix``); transient —
    #: not serialized, not part of identity or ordering.
    fixes: tuple[TextEdit, ...] = dataclasses.field(
        default=(), compare=False
    )

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Finding":
        return cls(
            path=str(record["path"]),
            line=int(record["line"]),
            col=int(record["col"]),
            rule_id=str(record["rule"]),
            message=str(record["message"]),
        )

    def format_human(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


_NON_CONTENT_TOKENS = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


def _collect_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids disabled on that line.

    Comments are found with :mod:`tokenize` so a ``# rflint:`` sequence
    inside a string literal never counts. A disable comment trailing any
    physical line of a *logical* line (a statement spanning parenthesized
    continuations, a multi-line ``def`` header) suppresses the whole span
    — findings anchor at the statement's first line, the comment often
    sits on its last. On tokenization failure (the file will be reported
    as a parse error anyway) no suppressions apply.
    """
    suppressions: dict[int, frozenset[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions

    def add(line: int, ids: frozenset[str]) -> None:
        suppressions[line] = suppressions.get(line, frozenset()) | ids

    pending: frozenset[str] = frozenset()
    span_start: int | None = None
    span_end: int | None = None
    saw_content = False
    for token in tokens:
        if token.type == tokenize.COMMENT:
            match = _SUPPRESS_RE.search(token.string)
            if match is not None:
                ids = frozenset(
                    part.strip().upper()
                    for part in match.group(1).split(",")
                    if part.strip()
                )
                if ids and saw_content:
                    # Trailing comment: covers the whole logical line.
                    pending |= ids
                elif ids:
                    # Standalone comment line: covers only itself.
                    add(token.start[0], ids)
            continue
        if token.type == tokenize.NEWLINE:
            if pending and span_start is not None and span_end is not None:
                for line in range(span_start, span_end + 1):
                    add(line, pending)
            pending = frozenset()
            span_start = span_end = None
            saw_content = False
        elif token.type not in _NON_CONTENT_TOKENS:
            saw_content = True
            if span_start is None:
                span_start = token.start[0]
            span_end = max(span_end or 0, token.end[0])
    return suppressions


@dataclasses.dataclass
class SourceFile:
    """One parsed Python file presented to the rules."""

    display_path: str
    text: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]]

    @classmethod
    def from_source(cls, text: str, display_path: str) -> "SourceFile":
        """Parse ``text``; raises ``SyntaxError`` on unparseable input."""
        tree = ast.parse(text, filename=display_path)
        return cls(
            display_path=display_path,
            text=text,
            tree=tree,
            suppressions=_collect_suppressions(text),
        )

    def is_suppressed(self, finding: Finding) -> bool:
        disabled = self.suppressions.get(finding.line)
        if disabled is None:
            return False
        return finding.rule_id in disabled or "ALL" in disabled


class Rule:
    """Base class for rflint rules.

    Subclasses set the class attributes and implement :meth:`check`;
    decorating with :func:`register` adds them to the global registry.
    """

    rule_id: ClassVar[str]
    title: ClassVar[str]
    #: Default path scope (fnmatch globs over posix-style paths). ``*``
    #: matches across ``/``, so ``*repro/radar/*`` hits any depth.
    include: ClassVar[tuple[str, ...]] = ("*",)
    exclude: ClassVar[tuple[str, ...]] = ()
    #: Project rules run in the cross-module pass, not per file.
    requires_project: ClassVar[bool] = False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, node: ast.AST, message: str,
                fixes: tuple[TextEdit, ...] = ()) -> Finding:
        return Finding(
            path=source.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
            fixes=fixes,
        )


class ProjectRule(Rule):
    """A rule that inspects the whole-project fact base.

    Project rules run once per lint invocation, after every file's facts
    have been extracted (or restored from the incremental cache). Their
    findings land in specific files and are scope-filtered and
    suppression-filtered per landing path, exactly like local findings.
    """

    requires_project: ClassVar[bool] = True

    def check(self, source: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "ProjectGraph") -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(self, path: str, line: int, col: int,
                   message: str) -> Finding:
        return Finding(path=path, line=line, col=col,
                       rule_id=self.rule_id, message=message)


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding ``rule_cls`` to the global rule registry."""
    rule_id = getattr(rule_cls, "rule_id", None)
    if rule_id is None or not _RULE_ID_RE.match(rule_id):
        raise ValueError(f"rule id must match RFP###, got {rule_id!r}")
    if rule_id == PARSE_ERROR_ID:
        raise ValueError(f"{PARSE_ERROR_ID} is reserved for parse errors")
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_rules() -> dict[str, type[Rule]]:
    """The registered rules, keyed and sorted by rule id."""
    _ensure_builtin_rules()
    return dict(sorted(_REGISTRY.items()))


def _ensure_builtin_rules() -> None:
    # Importing the rule modules triggers their @register decorators.
    from repro.devtools import projectrules as _projectrules  # noqa: F401
    from repro.devtools import rules as _rules  # noqa: F401


@dataclasses.dataclass(frozen=True)
class RuleScope:
    """Per-rule path-scope override; ``None`` keeps the rule's default."""

    include: tuple[str, ...] | None = None
    exclude: tuple[str, ...] | None = None


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Lint run configuration: excludes, rule selection, per-rule scopes."""

    exclude: tuple[str, ...] = DEFAULT_EXCLUDES
    select: tuple[str, ...] | None = None
    scopes: Mapping[str, RuleScope] = dataclasses.field(default_factory=dict)

    @classmethod
    def from_pyproject(cls, pyproject: Path) -> "LintConfig | None":
        """Config from ``[tool.rflint]``; ``None`` if absent or unreadable.

        Needs :mod:`tomllib` (Python 3.11+); on 3.10 the built-in defaults
        apply, which are sufficient for this repository.
        """
        try:
            import tomllib
        except ImportError:
            return None
        try:
            data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        except (OSError, tomllib.TOMLDecodeError):
            return None
        table = data.get("tool", {}).get("rflint")
        if not isinstance(table, dict):
            return None
        exclude = tuple(table.get("exclude", ())) + DEFAULT_EXCLUDES
        select_raw = table.get("select")
        select = tuple(select_raw) if select_raw else None
        scopes: dict[str, RuleScope] = {}
        for rule_id, scope in table.get("per-rule", {}).items():
            if not isinstance(scope, dict):
                continue
            scopes[rule_id] = RuleScope(
                include=tuple(scope["include"]) if "include" in scope else None,
                exclude=tuple(scope["exclude"]) if "exclude" in scope else None,
            )
        return cls(exclude=exclude, select=select, scopes=scopes)

    @classmethod
    def discover(cls, start: Path) -> "LintConfig":
        """Walk up from ``start`` for a pyproject with ``[tool.rflint]``."""
        for directory in [start, *start.resolve().parents]:
            pyproject = directory / "pyproject.toml"
            if pyproject.is_file():
                config = cls.from_pyproject(pyproject)
                if config is not None:
                    return config
        return cls()

    def stamp(self) -> str:
        """Configuration fingerprint folded into the cache key."""
        return content_hash(
            repr((sorted(self.exclude),
                  sorted(self.select) if self.select else None,
                  sorted((rule_id, scope.include, scope.exclude)
                         for rule_id, scope in self.scopes.items())))
        )


@dataclasses.dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run."""

    findings: tuple[Finding, ...]
    files_checked: int
    #: Files actually parsed and analyzed this run (the rest were served
    #: unchanged from the incremental cache).
    files_reanalyzed: int = -1

    def __post_init__(self) -> None:
        if self.files_reanalyzed < 0:
            object.__setattr__(self, "files_reanalyzed", self.files_checked)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        return {
            "files_checked": self.files_checked,
            "files_reanalyzed": self.files_reanalyzed,
            "findings": [finding.to_dict() for finding in self.findings],
            "ok": self.ok,
        }


def _matches(path_posix: str, patterns: Iterable[str]) -> bool:
    return any(
        fnmatch.fnmatch(path_posix, pattern)
        or fnmatch.fnmatch(path_posix, pattern.rstrip("/") + "/*")
        for pattern in patterns
    )


def _rule_applies(
    rule_cls: type[Rule], config: LintConfig, display_path: str
) -> bool:
    scope = config.scopes.get(rule_cls.rule_id, RuleScope())
    include = scope.include if scope.include is not None else rule_cls.include
    exclude = scope.exclude if scope.exclude is not None else rule_cls.exclude
    if not _matches(display_path, include):
        return False
    return not _matches(display_path, exclude)


def _selected_rules(config: LintConfig) -> list[type[Rule]]:
    rules = all_rules()
    if config.select is None:
        return list(rules.values())
    unknown = sorted(set(config.select) - set(rules))
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    return [rules[rule_id] for rule_id in sorted(set(config.select))]


def _display_path(path: Path) -> str:
    # Normalized posix form so glob scopes behave identically everywhere.
    return Path(str(path)).as_posix().removeprefix("./")


def iter_source_paths(
    paths: Sequence[Path | str], config: LintConfig
) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list.

    Global excludes apply only during directory traversal: a file named
    explicitly on the command line is always linted (that is how the
    fixture corpus exercises itself).
    """
    seen: set[str] = set()
    collected: list[Path] = []

    def add(path: Path) -> None:
        key = _display_path(path)
        if key not in seen:
            seen.add(key)
            collected.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _matches(_display_path(candidate), config.exclude):
                    add(candidate)
        elif path.is_file():
            add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return collected


# --------------------------------------------------------------------------
# Per-file pass
# --------------------------------------------------------------------------


def _parse_error_finding(display_path: str, error: SyntaxError) -> Finding:
    return Finding(
        path=display_path,
        line=error.lineno or 1,
        col=(error.offset or 0) + 1,
        rule_id=PARSE_ERROR_ID,
        message=f"syntax error: {error.msg}",
    )


def _analyze_file(
    text: str, display_path: str, config: LintConfig
) -> tuple[list[Finding], dict[str, Any] | None]:
    """One file's local findings plus its project facts (``None`` on
    parse error)."""
    try:
        source = SourceFile.from_source(text, display_path)
    except SyntaxError as error:
        return [_parse_error_finding(display_path, error)], None
    findings: list[Finding] = []
    for rule_cls in _selected_rules(config):
        if rule_cls.requires_project:
            continue
        if not _rule_applies(rule_cls, config, display_path):
            continue
        for finding in rule_cls().check(source):
            if not source.is_suppressed(finding):
                findings.append(finding)

    from repro.devtools.project import extract_facts

    return sorted(findings), extract_facts(source)


def _analyze_worker(
    job: tuple[str, str, LintConfig],
) -> tuple[str, list[Finding], dict[str, Any] | None]:
    """Process-pool entry point for the parallel per-file pass."""
    display_path, text, config = job
    findings, facts = _analyze_file(text, display_path, config)
    return display_path, findings, facts


def _project_findings(
    facts_by_path: Mapping[str, dict[str, Any]], config: LintConfig
) -> list[Finding]:
    """Run the cross-module rules over the assembled fact base."""
    project_rules = [rule_cls for rule_cls in _selected_rules(config)
                     if rule_cls.requires_project]
    if not project_rules or not facts_by_path:
        return []

    from repro.devtools.project import ProjectGraph

    graph = ProjectGraph(dict(facts_by_path))
    findings: list[Finding] = []
    for rule_cls in project_rules:
        rule = rule_cls()
        assert isinstance(rule, ProjectRule)
        for finding in rule.check_project(graph):
            if not _rule_applies(rule_cls, config, finding.path):
                continue
            if graph.is_suppressed(finding):
                continue
            findings.append(finding)
    return findings


def lint_source(
    text: str,
    display_path: str,
    config: LintConfig | None = None,
) -> list[Finding]:
    """Lint one in-memory source blob under ``display_path``'s scopes.

    Project rules see a one-module project — enough for the single-file
    fixture corpus; use :func:`lint_sources` to exercise genuinely
    cross-module behavior in memory.
    """
    return lint_sources({display_path: text}, config)


def lint_sources(
    sources: Mapping[str, str],
    config: LintConfig | None = None,
) -> list[Finding]:
    """Lint several in-memory files as one project; returns all findings."""
    config = config if config is not None else LintConfig()
    findings: list[Finding] = []
    facts_by_path: dict[str, dict[str, Any]] = {}
    for display_path, text in sorted(sources.items()):
        local, facts = _analyze_file(text, display_path, config)
        findings.extend(local)
        if facts is not None:
            facts_by_path[display_path] = facts
    findings.extend(_project_findings(facts_by_path, config))
    return sorted(findings)


def lint_paths(
    paths: Sequence[Path | str],
    config: LintConfig | None = None,
    *,
    cache: "LintCache | None" = None,
    jobs: int = 1,
) -> LintResult:
    """Lint files and directories; the core entry point behind the CLI.

    Args:
        paths: files and directories to lint.
        config: lint configuration (defaults apply when ``None``).
        cache: optional incremental cache — files whose content hash is
            unchanged skip parsing and local rules entirely, reusing the
            cached findings and facts (cached findings carry no ``--fix``
            payloads, so the fixer runs uncached).
        jobs: per-file analysis parallelism; ``> 1`` fans files out over
            a process pool. Results are bitwise order-independent — the
            final finding list is sorted either way.
    """
    config = config if config is not None else LintConfig()
    findings: list[Finding] = []
    files = iter_source_paths(paths, config)

    texts: dict[str, str] = {}
    unreadable: list[Finding] = []
    for path in files:
        display = _display_path(path)
        try:
            texts[display] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            unreadable.append(
                Finding(path=display, line=1, col=1, rule_id=PARSE_ERROR_ID,
                        message=f"unreadable file: {error}")
            )
    findings.extend(unreadable)

    facts_by_path: dict[str, dict[str, Any]] = {}
    to_analyze: list[str] = []
    for display, text in texts.items():
        cached = cache.lookup(display, content_hash(text)) if cache else None
        if cached is not None:
            cached_findings, cached_facts = cached
            findings.extend(cached_findings)
            if cached_facts is not None:
                facts_by_path[display] = cached_facts
        else:
            to_analyze.append(display)

    jobs = max(int(jobs), 1)
    results: dict[str, tuple[list[Finding], dict[str, Any] | None]] = {}
    if jobs > 1 and len(to_analyze) > 1:
        job_args = [(display, texts[display], config)
                    for display in to_analyze]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for display, local, facts in pool.map(
                _analyze_worker, job_args,
                chunksize=max(len(job_args) // (jobs * 4), 1),
            ):
                results[display] = (local, facts)
    else:
        for display in to_analyze:
            results[display] = _analyze_file(texts[display], display, config)

    for display, (local, facts) in results.items():
        findings.extend(local)
        if facts is not None:
            facts_by_path[display] = facts
        if cache is not None:
            cache.store(display, content_hash(texts[display]), local, facts)

    findings.extend(_project_findings(facts_by_path, config))
    if cache is not None:
        cache.prune(set(texts))
        cache.save()
    return LintResult(
        findings=tuple(sorted(findings)),
        files_checked=len(files),
        files_reanalyzed=len(to_analyze) + len(unreadable),
    )
