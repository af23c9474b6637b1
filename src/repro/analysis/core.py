"""The analysis engine: source model, rule registry, baseline, runner.

The engine is deliberately self-contained (stdlib ``ast`` + ``tokenize``,
no third-party dependencies) and rootable at any directory that looks like
this repository — ``<root>/src/<package>`` for the code, ``<root>/tests``
for the test suite, ``<root>/tools/layers.toml`` for the layer
declaration.  The test suite exploits that: fixture packages with seeded
violations live under a ``tmp_path`` root and run through the exact same
engine as the real tree.

Pragmas are trailing comments read via ``tokenize`` (so a ``#`` inside a
string literal can never be misread as one):

* ``# guarded-by: <lock>[, <lock>]`` — on an attribute assignment inside
  a class: every later mutation of that attribute must hold one of the
  named locks (``with self.<lock>:``).
* ``# lint: holds-lock(<lock>)`` — on a ``def`` line: the method's
  callers hold ``<lock>``, so its mutations are considered guarded.
* ``# lint: broad-except-ok(<reason>)`` — on an ``except`` line: this
  broad handler is intentional; the reason is mandatory.
* ``# lint: raw-write-ok(<reason>)`` — on a raw-write line: this write
  intentionally bypasses ``utils/atomicio``.
* ``# lint: unguarded-ok(<reason>)`` — on a mutation or ``def`` line:
  this mutation of a guarded attribute is safe without the lock (e.g.
  construction of a not-yet-published object).
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from repro.utils import atomicio
from repro.utils.hashing import sha1_hex
from repro.utils.jsonutil import stable_loads

__all__ = [
    "Finding",
    "SourceFile",
    "Project",
    "rule",
    "all_rules",
    "run_analysis",
    "load_baseline",
    "write_baseline",
    "read_layers_config",
    "BASELINE_PATH",
    "LAYERS_PATH",
]

#: Repo-relative locations of the checked-in analysis inputs.
LAYERS_PATH = Path("tools") / "layers.toml"
BASELINE_PATH = Path("tools") / "analysis_baseline.json"

_PRAGMA_PATTERN = re.compile(r"#\s*lint:\s*([a-z-]+)\s*\(([^)]*)\)")
_GUARDED_PATTERN = re.compile(r"#\s*guarded-by:\s*([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    message: str
    hint: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining — deliberately line-free, so a
        baselined finding survives unrelated edits above it."""
        return sha1_hex(f"{self.rule}|{self.path}|{self.message}".encode("utf-8"))

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


class SourceFile:
    """A parsed python source file: AST, comments, and pragma lookup."""

    def __init__(self, path: Path, rel: str, module: str) -> None:
        self.path = path
        self.rel = rel
        self.module = module
        self.text = path.read_text(encoding="utf-8")
        self.tree = ast.parse(self.text, filename=rel)
        #: line number -> full comment text (without the leading ``#``).
        self.comments: dict[int, str] = {}
        try:
            for token in tokenize.generate_tokens(io.StringIO(self.text).readline):
                if token.type == tokenize.COMMENT:
                    self.comments[token.start[0]] = token.string
        except tokenize.TokenError:  # pragma: no cover - ast.parse succeeded
            pass
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def pragmas(self, line: int) -> dict[str, str]:
        """``# lint: name(args)`` pragmas on ``line`` as ``{name: args}``."""
        comment = self.comments.get(line)
        if not comment:
            return {}
        return {
            match.group(1): match.group(2).strip()
            for match in _PRAGMA_PATTERN.finditer(comment)
        }

    def node_pragmas(self, node: ast.AST) -> dict[str, str]:
        """Pragmas on any line the node's header spans (def/except lines)."""
        merged: dict[str, str] = {}
        end = getattr(node, "end_lineno", node.lineno) or node.lineno
        body = getattr(node, "body", None)
        if body:  # only the header, not the whole suite
            end = min(end, body[0].lineno - 1) if body[0].lineno > node.lineno else node.lineno
        for line in range(node.lineno, end + 1):
            merged.update(self.pragmas(line))
        return merged

    def guarded_locks(self, line: int) -> tuple[str, ...]:
        """Locks named by a ``# guarded-by:`` comment on ``line``."""
        comment = self.comments.get(line)
        if not comment:
            return ()
        match = _GUARDED_PATTERN.search(comment)
        if not match:
            return ()
        return tuple(
            name.strip() for name in match.group(1).split(",") if name.strip()
        )


class Project:
    """The analyzed tree: package sources, tests, and configuration."""

    def __init__(self, root: Path, package: str | None = None) -> None:
        self.root = Path(root).resolve()
        self.layers_config = read_layers_config(self.root / LAYERS_PATH)
        self.package = package or self.layers_config.get("project", {}).get("package", "repro")
        self.src_dir = self.root / "src" / self.package
        self.tests_dir = self.root / "tests"
        self._sources: dict[Path, SourceFile] = {}

    # -- discovery ---------------------------------------------------------

    def _module_name(self, path: Path) -> str:
        rel = path.relative_to(self.src_dir.parent).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def rel(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()

    def source(self, path: Path) -> SourceFile:
        cached = self._sources.get(path)
        if cached is None:
            cached = SourceFile(path, self.rel(path), self._module_name(path))
            self._sources[path] = cached
        return cached

    def sources(self) -> list[SourceFile]:
        """Every python file under ``src/<package>``, sorted by module name."""
        files = sorted(self.src_dir.rglob("*.py"))
        return [self.source(path) for path in files]

    def test_sources(self) -> list[SourceFile]:
        if not self.tests_dir.is_dir():
            return []
        out = []
        for path in sorted(self.tests_dir.rglob("*.py")):
            cached = self._sources.get(path)
            if cached is None:
                cached = SourceFile(path, self.rel(path), path.stem)
                self._sources[path] = cached
            out.append(cached)
        return out

    def module_names(self) -> set[str]:
        return {source.module for source in self.sources()}


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------

RuleFn = Callable[[Project], list[Finding]]

_RULES: dict[str, tuple[str, RuleFn]] = {}


def rule(rule_id: str, description: str) -> Callable[[RuleFn], RuleFn]:
    """Register ``fn`` as the implementation of ``rule_id``."""

    def register(fn: RuleFn) -> RuleFn:
        _RULES[rule_id] = (description, fn)
        return fn

    return register


def all_rules() -> dict[str, str]:
    """``{rule id: one-line description}`` for every registered rule."""
    return {rule_id: meta[0] for rule_id, meta in sorted(_RULES.items())}


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def load_baseline(path: Path) -> set[str]:
    """Fingerprints of accepted findings (empty when no baseline exists)."""
    if not path.is_file():
        return set()
    data = stable_loads(path.read_text(encoding="utf-8"))
    accepted: set[str] = set()
    for entry in data.get("accepted", []):
        accepted.add(
            Finding(
                rule=entry["rule"], path=entry["path"], line=0,
                message=entry["message"],
            ).fingerprint
        )
    return accepted


def write_baseline(path: Path, findings: Iterable[Finding]) -> None:
    """Record ``findings`` as accepted (sorted, line numbers omitted)."""
    entries = sorted(
        {(f.rule, f.path, f.message) for f in findings}
    )
    payload = {
        "comment": (
            "Accepted findings of `gitcite analyze`. Regenerate with "
            "`gitcite analyze --baseline`; every entry here is a deliberate, "
            "reviewed exception to a rule."
        ),
        "accepted": [
            {"rule": rule_id, "path": rel, "message": message}
            for rule_id, rel, message in entries
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    atomicio.atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class AnalysisResult:
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    rules_run: tuple[str, ...] = ()


def run_analysis(
    root: Path,
    rules: Optional[Iterable[str]] = None,
    baseline: Optional[Path] = None,
) -> AnalysisResult:
    """Run the selected rules (default: all) over the tree at ``root``.

    ``baseline`` points at an accepted-findings file; matching findings are
    suppressed and counted rather than reported.
    """
    project = Project(root)
    selected = list(rules) if rules else sorted(_RULES)
    unknown = [rule_id for rule_id in selected if rule_id not in _RULES]
    if unknown:
        raise ValueError(
            f"unknown rule(s) {', '.join(sorted(unknown))}; known: {', '.join(sorted(_RULES))}"
        )
    accepted = load_baseline(baseline) if baseline else set()
    result = AnalysisResult(rules_run=tuple(selected))
    for rule_id in selected:
        _, fn = _RULES[rule_id]
        for finding in fn(project):
            if finding.fingerprint in accepted:
                result.suppressed += 1
            else:
                result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return result


# ---------------------------------------------------------------------------
# Minimal TOML subset reader (stdlib ``tomllib`` is 3.11+; the engine
# supports 3.10, so the declaration file sticks to this subset: ``[table]``
# and ``[[array-of-tables]]`` headers, ``key = "string"`` and
# ``key = ["string", ...]`` values, ``#`` comments, multi-line arrays)
# ---------------------------------------------------------------------------


def read_layers_config(path: Path) -> dict:
    if not path.is_file():
        return {}
    return _parse_toml_subset(path.read_text(encoding="utf-8"), str(path))


_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _strings_in(fragment: str, context: str) -> list[str]:
    values = [match.group(1) for match in _STRING.finditer(fragment)]
    return [value.encode("utf-8").decode("unicode_escape") for value in values]


def _parse_toml_subset(text: str, context: str) -> dict:
    config: dict = {}
    current: dict = config
    pending_key: Optional[str] = None
    pending_items: list[str] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        comment = line.find("#")
        if comment != -1 and line.count('"', 0, comment) % 2 == 0:
            line = line[:comment].rstrip()
        if not line:
            continue
        if pending_key is not None:  # inside a multi-line array
            pending_items.extend(_strings_in(line, context))
            if line.endswith("]"):
                current[pending_key] = pending_items
                pending_key, pending_items = None, []
            continue
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            current = {}
            config.setdefault(name, []).append(current)
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = config.setdefault(name, {})
            continue
        key, separator, value = line.partition("=")
        if not separator:
            raise ValueError(f"{context}:{number}: unsupported syntax: {raw!r}")
        key = key.strip()
        value = value.strip()
        if value.startswith("["):
            if value.endswith("]"):
                current[key] = _strings_in(value, context)
            else:
                pending_key = key
                pending_items = _strings_in(value, context)
        else:
            strings = _strings_in(value, context)
            if len(strings) != 1:
                raise ValueError(f"{context}:{number}: expected one string value: {raw!r}")
            current[key] = strings[0]
    return config
