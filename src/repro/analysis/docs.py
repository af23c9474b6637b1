"""``docs-consistency`` — the reference docs track the tree.

Part of ``gitcite analyze``, so CI runs one analysis entry point for
every static invariant.  Two checks, both cheap and deliberately dumb:

* **Coverage** — every package under ``src/<package>/`` (and every
  top-level cross-cutting module) is mentioned in
  ``docs/ARCHITECTURE.md``, so the layer map cannot silently rot as
  subsystems are added.
* **Links** — every relative markdown link in ``README.md`` and
  ``docs/*.md`` resolves to a real file (anchors stripped, external
  schemes skipped), so a renamed doc fails CI instead of 404ing.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.core import Finding, Project, rule

_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def _packages(project: Project) -> list[str]:
    """Package directories and top-level modules under ``src/<package>``."""
    names: list[str] = []
    if not project.src_dir.is_dir():
        return names
    for entry in sorted(project.src_dir.iterdir()):
        if entry.is_dir() and (entry / "__init__.py").exists():
            names.append(entry.name)
        elif entry.suffix == ".py" and entry.name != "__init__.py":
            names.append(entry.stem)
    return names


def _doc_files(project: Project) -> list[Path]:
    files = [project.root / "README.md"]
    docs = project.root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return [path for path in files if path.exists()]


@rule("docs-consistency", "architecture coverage and intra-doc links stay valid")
def check_docs(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    architecture = project.root / "docs" / "ARCHITECTURE.md"
    architecture_rel = "docs/ARCHITECTURE.md"
    if not architecture.exists():
        findings.append(Finding(
            rule="docs-consistency", path=architecture_rel, line=1,
            message="docs/ARCHITECTURE.md is missing",
        ))
    else:
        text = architecture.read_text(encoding="utf-8")
        for name in _packages(project):
            if f"{project.package}.{name}" not in text and name not in text:
                findings.append(Finding(
                    rule="docs-consistency", path=architecture_rel, line=1,
                    message=f"package {project.package}.{name} is not mentioned",
                    hint="add the new subsystem to the layer map",
                ))

    for doc in _doc_files(project):
        text = doc.read_text(encoding="utf-8")
        rel = project.rel(doc)
        for match in _LINK_PATTERN.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (doc.parent / path).resolve().exists():
                findings.append(Finding(
                    rule="docs-consistency", path=rel,
                    line=text.count("\n", 0, match.start()) + 1,
                    message=f"broken link {target!r}",
                    hint="fix the path or remove the link",
                ))
    return findings
