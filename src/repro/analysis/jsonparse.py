"""``json-parsing`` — every JSON parse goes through ``utils/jsonutil``.

:func:`repro.utils.jsonutil.stable_loads` is the one JSON reader: input
nested deeper than the parser can recurse is malformed input like any
other, so it raises ``ValueError`` where a raw ``json.loads`` raises
``RecursionError`` past every handler that expects malformed JSON.  This
rule flags ``json.loads(...)`` and ``json.load(...)`` calls anywhere else.

``utils/jsonutil.py`` itself is exempt — it is the one place the parse
belongs.  A parse of bytes this process wrote itself may be annotated in
place with ``# lint: json-loads-ok(reason)``.  Aliased imports
(``from json import loads``) are not followed: the rule is a tripwire for
the easy mistake, not a data-flow analysis.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Project, rule

#: Module-relative paths where the raw parse is the implementation.
_EXEMPT_SUFFIXES = ("utils/jsonutil.py",)

_PARSE_CALLS = {"load", "loads"}


@rule("json-parsing", "JSON parses go through utils/jsonutil.stable_loads, not raw json.loads")
def check_json_parsing(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for source in project.sources():
        if source.rel.endswith(_EXEMPT_SUFFIXES):
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _PARSE_CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ):
                continue
            if "json-loads-ok" in source.pragmas(node.lineno):
                continue
            findings.append(Finding(
                rule="json-parsing",
                path=source.rel,
                line=node.lineno,
                message=f"raw json.{func.attr}() outside utils/jsonutil",
                hint=(
                    "use repro.utils.jsonutil.stable_loads (or annotate "
                    "`# lint: json-loads-ok(reason)` if the bytes are this process's own)"
                ),
            ))
    return findings
