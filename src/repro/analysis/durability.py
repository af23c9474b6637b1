"""``durability`` — every durable write goes through ``utils/atomicio``.

PR 6's crash-safety contract: no reader may ever observe a torn file, so
durable artefacts are written to a unique temp name, fsynced, and
atomically renamed into place by :mod:`repro.utils.atomicio`.  A raw
``open(path, "w")`` or a hand-rolled ``os.rename``/``os.replace``/
``shutil.move`` anywhere else in the tree is a crash window waiting for
a power cut, so this rule flags:

* ``open(...)`` / ``<path>.open(...)`` with a write-capable mode literal
  (any of ``w``/``a``/``x``/``+`` in the mode string);
* pathlib's ``<path>.write_bytes(...)`` and ``<path>.write_text(...)``,
  which truncate the target in place;
* ``os.rename``, ``os.replace``, ``os.renames`` and ``shutil.move``.

``utils/atomicio.py`` itself is exempt — it is the one place the
primitive belongs.  A genuinely-safe raw write (writing to a temp file
the atomic helpers then promote, a quarantine move of an already-corrupt
file) is annotated in place with ``# lint: raw-write-ok(reason)``.
Non-literal modes are not flagged: the rule is a tripwire for the easy
mistake, not a data-flow analysis.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Project, rule

#: Module-relative paths where raw durable writes are the implementation.
_EXEMPT_SUFFIXES = ("utils/atomicio.py",)

_WRITE_MODE_CHARS = set("wax+")

_RENAME_CALLS = {
    ("os", "rename"), ("os", "replace"), ("os", "renames"), ("shutil", "move"),
}

_PATHLIB_WRITES = {"write_bytes", "write_text"}


def _literal_mode(node: ast.Call) -> str | None:
    """The mode string of an ``open``-style call, when it is a literal."""
    mode: ast.AST | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    elif len(node.args) == 1 and isinstance(node.func, ast.Attribute):
        mode = node.args[0]  # path.open("wb") style: mode is the first arg
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


@rule("durability", "durable writes go through utils/atomicio, not raw open/rename")
def check_durability(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for source in project.sources():
        if source.rel.endswith(_EXEMPT_SUFFIXES):
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged: str | None = None
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _literal_mode(node)
                if mode and _WRITE_MODE_CHARS & set(mode):
                    flagged = f"raw open(..., {mode!r})"
            elif isinstance(func, ast.Attribute):
                if func.attr == "open":
                    mode = _literal_mode(node)
                    if mode and _WRITE_MODE_CHARS & set(mode):
                        flagged = f"raw .open(..., {mode!r})"
                elif func.attr in _PATHLIB_WRITES:
                    flagged = f"raw .{func.attr}()"
                elif (
                    isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in _RENAME_CALLS
                ):
                    flagged = f"raw {func.value.id}.{func.attr}()"
            if flagged is None:
                continue
            if "raw-write-ok" in source.pragmas(node.lineno):
                continue
            findings.append(Finding(
                rule="durability",
                path=source.rel,
                line=node.lineno,
                message=f"{flagged} outside utils/atomicio",
                hint=(
                    "use atomicio.atomic_write_bytes/atomic_write_text/AtomicFile "
                    "(or annotate `# lint: raw-write-ok(reason)` if this write is "
                    "genuinely not a durable artefact)"
                ),
            ))
    return findings
