"""The static-analysis engine: each rule catches its seeded violation.

Every test builds a miniature project under ``tmp_path`` — its own
``tools/layers.toml``, ``src/<pkg>/`` and optionally ``tests/`` — seeds
exactly one violation, and asserts the engine reports it (and nothing
else).  The final tests run the full rule set against the *real* tree:
the repository must analyze clean, which is the CI gate.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_analysis, write_baseline
from repro.analysis.core import BASELINE_PATH, Finding, load_baseline
from repro.cli.main import main as cli_main
from repro.errors import InvalidObjectError

REPO_ROOT = Path(__file__).resolve().parent.parent

_MINIMAL_LAYERS = """
[project]
package = "pkg"

[layers]
order = ["low", "high"]

[assign]
low = ["pkg.core"]
high = ["pkg", "pkg.app"]
"""


def make_project(tmp_path, files, layers=_MINIMAL_LAYERS, tests=None):
    """Write a fixture tree: layers.toml + src/pkg/* (+ tests/*)."""
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "layers.toml").write_text(layers)
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    for name, body in files.items():
        target = src / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body))
    if tests:
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        for name, body in tests.items():
            (tests_dir / name).write_text(textwrap.dedent(body))
    return tmp_path


def findings_for(root, rule):
    return [f for f in run_analysis(root, rules=[rule]).findings]


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------


class TestLayering:
    def test_upward_import_is_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "import pkg.app\n",
            "app.py": "VALUE = 1\n",
        })
        findings = findings_for(root, "layering")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "src/pkg/core.py"
        assert finding.line == 1
        assert "upward import" in finding.message
        assert "pkg.core" in finding.message and "pkg.app" in finding.message

    def test_downward_and_same_layer_imports_pass(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "VALUE = 1\n",
            "app.py": "import pkg.core\nfrom pkg.core import VALUE\n",
        })
        assert findings_for(root, "layering") == []

    def test_relative_import_resolves_to_upward_edge(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "from . import app\n",
            "app.py": "VALUE = 1\n",
        })
        findings = findings_for(root, "layering")
        assert len(findings) == 1
        assert "pkg.app" in findings[0].message

    def test_lazy_upward_import_still_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "def late():\n    import pkg.app\n    return pkg.app\n",
            "app.py": "VALUE = 1\n",
        })
        assert len(findings_for(root, "layering")) == 1

    def test_allowlist_exact_source_prefix_target(self, tmp_path):
        layers = _MINIMAL_LAYERS + textwrap.dedent("""
            [[allow]]
            from = "pkg.core"
            to = "pkg.app"
            reason = "reviewed exception"
        """)
        root = make_project(tmp_path, {
            "core.py": "import pkg.app\n",
            "app.py": "VALUE = 1\n",
        }, layers=layers)
        assert findings_for(root, "layering") == []

    def test_allowlist_source_is_not_a_prefix(self, tmp_path):
        # An allow for pkg.core must NOT bless pkg.core.sub.
        layers = _MINIMAL_LAYERS.replace(
            'low = ["pkg.core"]', 'low = ["pkg.core"]'
        ) + textwrap.dedent("""
            [[allow]]
            from = "pkg.core"
            to = "pkg.app"
            reason = "reviewed exception"
        """)
        root = make_project(tmp_path, {
            "core/__init__.py": "",
            "core/sub.py": "import pkg.app\n",
            "app.py": "VALUE = 1\n",
        }, layers=layers)
        findings = findings_for(root, "layering")
        assert len(findings) == 1
        assert "pkg.core.sub" in findings[0].message

    def test_module_scope_cycle_is_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "import pkg.other\n",
            "other.py": "import pkg.core\n",
        }, layers=_MINIMAL_LAYERS.replace(
            'low = ["pkg.core"]', 'low = ["pkg.core", "pkg.other"]'
        ))
        findings = findings_for(root, "layering")
        assert any("cycle" in f.message for f in findings)

    def test_function_scope_cycle_is_tolerated(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "import pkg.other\n",
            "other.py": "def late():\n    import pkg.core\n",
        }, layers=_MINIMAL_LAYERS.replace(
            'low = ["pkg.core"]', 'low = ["pkg.core", "pkg.other"]'
        ))
        assert findings_for(root, "layering") == []

    def test_unassigned_module_is_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "",
            "stray.py": "",
        }, layers=_MINIMAL_LAYERS.replace(
            'high = ["pkg", "pkg.app"]', 'high = ["pkg.app"]'
        ).replace('package = "pkg"', 'package = "pkg"'))
        findings = findings_for(root, "layering")
        assert any("pkg.stray" in f.message and "not assigned" in f.message
                   for f in findings)


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

_LOCKED_CLASS = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {{}}  # guarded-by: _lock

        def bad(self, key, value):
            {mutation}

        def good(self, key, value):
            with self._lock:
                self._items[key] = value
"""


class TestLockDiscipline:
    @pytest.mark.parametrize("mutation", [
        "self._items[key] = value",
        "self._items.pop(key, None)",
        "del self._items[key]",
        "self._items.update({key: value})",
    ])
    def test_unlocked_mutation_is_flagged(self, tmp_path, mutation):
        root = make_project(tmp_path, {
            "core.py": _LOCKED_CLASS.format(mutation=mutation),
        })
        findings = findings_for(root, "lock-discipline")
        assert len(findings) == 1
        finding = findings[0]
        assert "Store.bad" in finding.message
        assert "_items" in finding.message
        assert "self._lock" in finding.message

    def test_init_and_locked_mutations_pass(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": _LOCKED_CLASS.format(
                mutation="with self._lock:\n                self._items[key] = value"
            ),
        })
        assert findings_for(root, "lock-discipline") == []

    def test_holds_lock_pragma_excuses_helper(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": """
                import threading

                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = {}  # guarded-by: _lock

                    def _evict(self, key):  # lint: holds-lock(_lock)
                        self._items.pop(key, None)
            """,
        })
        assert findings_for(root, "lock-discipline") == []

    def test_subclass_inherits_guard_contract(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": """
                import threading

                class Base:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._count = 0  # guarded-by: _lock

                class Child(Base):
                    def bump(self):
                        self._count += 1
            """,
        })
        findings = findings_for(root, "lock-discipline")
        assert len(findings) == 1
        assert "Child.bump" in findings[0].message


# ---------------------------------------------------------------------------
# durability
# ---------------------------------------------------------------------------


class TestDurability:
    def test_raw_write_open_is_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": 'def save(path, data):\n    with open(path, "w") as fh:\n        fh.write(data)\n',
        })
        findings = findings_for(root, "durability")
        assert len(findings) == 1
        assert findings[0].line == 2
        assert "open" in findings[0].message

    def test_os_replace_is_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "import os\n\ndef swap(a, b):\n    os.replace(a, b)\n",
        })
        findings = findings_for(root, "durability")
        assert len(findings) == 1
        assert "os.replace" in findings[0].message

    def test_read_open_passes(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": 'def load(path):\n    with open(path, "rb") as fh:\n        return fh.read()\n',
        })
        assert findings_for(root, "durability") == []

    def test_pragma_excuses_append_log(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": 'def log(path, line):\n'
                       '    handle = open(path, "ab")  # lint: raw-write-ok(append-only log)\n'
                       '    handle.write(line)\n',
        })
        assert findings_for(root, "durability") == []


# ---------------------------------------------------------------------------
# json-parsing
# ---------------------------------------------------------------------------


class TestJsonParsing:
    def test_raw_json_loads_is_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "import json\n\ndef parse(text):\n    return json.loads(text)\n",
        })
        findings = findings_for(root, "json-parsing")
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "json.loads" in findings[0].message

    def test_jsonutil_itself_and_pragma_pass(self, tmp_path):
        root = make_project(tmp_path, {
            "utils/jsonutil.py": "import json\n\ndef stable_loads(text):\n"
                                 "    return json.loads(text)\n",
            "core.py": "import json\n\ndef own(path):\n"
                       "    return json.load(path)  # lint: json-loads-ok(written by this process)\n",
        })
        assert findings_for(root, "json-parsing") == []

    def test_deeply_nested_baseline_is_a_value_error(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("[" * 200_000)
        with pytest.raises(ValueError):
            load_baseline(baseline)


# ---------------------------------------------------------------------------
# exception-safety
# ---------------------------------------------------------------------------


class TestExceptionSafety:
    def test_bare_except_is_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "def f():\n    try:\n        pass\n    except:\n        pass\n",
        })
        findings = findings_for(root, "exception-safety")
        assert len(findings) == 1
        assert "bare except:" in findings[0].message

    def test_base_exception_flagged_even_with_pragma(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "def f():\n    try:\n        pass\n"
                       "    except BaseException:  # lint: broad-except-ok(nope)\n        pass\n",
        })
        findings = findings_for(root, "exception-safety")
        assert len(findings) == 1
        assert "BaseException" in findings[0].message

    def test_except_exception_needs_pragma(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "def f():\n    try:\n        pass\n    except Exception:\n        pass\n",
        })
        findings = findings_for(root, "exception-safety")
        assert len(findings) == 1
        assert "except Exception" in findings[0].message

    def test_pragma_with_reason_passes(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "def f():\n    try:\n        pass\n"
                       "    except Exception:  # lint: broad-except-ok(boundary handler)\n        pass\n",
        })
        assert findings_for(root, "exception-safety") == []

    def test_empty_reason_is_its_own_finding(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "def f():\n    try:\n        pass\n"
                       "    except Exception:  # lint: broad-except-ok()\n        pass\n",
        })
        findings = findings_for(root, "exception-safety")
        assert len(findings) == 1
        assert "without a reason" in findings[0].message


# ---------------------------------------------------------------------------
# failpoint-coverage
# ---------------------------------------------------------------------------

_FAULTS_MODULE = """
    _CANONICAL = (
        "io.write",
        "io.sync",
    )

    def fire(name):
        pass

    def arm(name):
        pass
"""


class TestFailpointCoverage:
    def test_declared_never_fired(self, tmp_path):
        root = make_project(tmp_path, {
            "faults.py": _FAULTS_MODULE,
            "core.py": """
                from pkg import faults

                def write():
                    faults.fire("io.write")
            """,
        }, layers=_MINIMAL_LAYERS.replace(
            'low = ["pkg.core"]', 'low = ["pkg.core", "pkg.faults"]'
        ), tests={
            "test_core.py": (
                'from pkg import faults\n\n'
                'def test_write():\n'
                '    faults.arm("io.write")\n'
                '    faults.arm("io.sync")\n'
            ),
        })
        findings = findings_for(root, "failpoint-coverage")
        assert len(findings) == 1
        assert "'io.sync'" in findings[0].message
        assert "never fired" in findings[0].message

    def test_fired_undeclared_and_unarmed(self, tmp_path):
        root = make_project(tmp_path, {
            "faults.py": _FAULTS_MODULE.replace('\n        "io.sync",', ""),
            "core.py": """
                from pkg import faults

                def write():
                    faults.fire("io.write")
                    faults.fire("io.typo")
            """,
        }, layers=_MINIMAL_LAYERS.replace(
            'low = ["pkg.core"]', 'low = ["pkg.core", "pkg.faults"]'
        ))
        findings = findings_for(root, "failpoint-coverage")
        messages = [f.message for f in findings]
        assert any("undeclared failpoint 'io.typo'" in m for m in messages)
        assert any("'io.write' is never armed" in m for m in messages)

    def test_sweep_module_covers_arming(self, tmp_path):
        root = make_project(tmp_path, {
            "faults.py": _FAULTS_MODULE.replace('\n        "io.sync",', ""),
            "core.py": """
                from pkg import faults

                def write():
                    faults.fire("io.write")
            """,
        }, layers=_MINIMAL_LAYERS.replace(
            'low = ["pkg.core"]', 'low = ["pkg.core", "pkg.faults"]'
        ), tests={
            "test_sweep.py": (
                'from pkg import faults\n\n'
                'def test_sweep(registered_failpoints):\n'
                '    for name in registered_failpoints:\n'
                '        faults.arm(name)\n'
            ),
        })
        assert findings_for(root, "failpoint-coverage") == []


# ---------------------------------------------------------------------------
# docs-consistency
# ---------------------------------------------------------------------------


class TestDocsConsistency:
    def test_unmentioned_package_and_broken_link(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "",
            "app.py": "",
        })
        docs = root / "docs"
        docs.mkdir()
        (docs / "ARCHITECTURE.md").write_text("Only core is described here.\n")
        (root / "README.md").write_text("[missing](docs/NOPE.md)\n")
        findings = findings_for(root, "docs-consistency")
        messages = [f.message for f in findings]
        assert any("pkg.app is not mentioned" in m for m in messages)
        assert any("broken link 'docs/NOPE.md'" in m for m in messages)

    def test_consistent_docs_pass(self, tmp_path):
        root = make_project(tmp_path, {"core.py": "", "app.py": ""})
        docs = root / "docs"
        docs.mkdir()
        (docs / "ARCHITECTURE.md").write_text("core and app, described.\n")
        (root / "README.md").write_text("[arch](docs/ARCHITECTURE.md)\n")
        assert findings_for(root, "docs-consistency") == []


# ---------------------------------------------------------------------------
# engine: baseline, selection, fingerprints
# ---------------------------------------------------------------------------


class TestEngine:
    def test_unknown_rule_raises(self, tmp_path):
        root = make_project(tmp_path, {"core.py": ""})
        with pytest.raises(ValueError, match="unknown rule"):
            run_analysis(root, rules=["no-such-rule"])

    def test_baseline_suppresses_known_findings(self, tmp_path):
        root = make_project(tmp_path, {
            "core.py": "def f():\n    try:\n        pass\n    except Exception:\n        pass\n",
        })
        first = run_analysis(root, rules=["exception-safety"])
        assert len(first.findings) == 1
        baseline = root / "tools" / "analysis_baseline.json"
        write_baseline(baseline, first.findings)
        second = run_analysis(root, rules=["exception-safety"], baseline=baseline)
        assert second.findings == []
        assert second.suppressed == 1

    def test_fingerprint_survives_line_drift(self):
        a = Finding(rule="r", path="p.py", line=3, message="m")
        b = Finding(rule="r", path="p.py", line=97, message="m")
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != Finding(rule="r", path="p.py", line=3, message="other").fingerprint

    def test_baseline_roundtrip(self, tmp_path):
        findings = [
            Finding(rule="layering", path="src/pkg/a.py", line=4, message="upward import: x"),
            Finding(rule="durability", path="src/pkg/b.py", line=9, message="raw open"),
        ]
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        data = json.loads(path.read_text())
        assert len(data["accepted"]) == 2
        accepted = load_baseline(path)
        assert {f.fingerprint for f in findings} == accepted


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------


class TestRealTree:
    def test_repository_analyzes_clean(self, capsys):
        """The CI gate: `gitcite analyze` exits 0 against this repository."""
        exit_code = cli_main(["analyze", "--root", str(REPO_ROOT)])
        output = capsys.readouterr().out
        assert exit_code == 0, f"analysis not clean:\n{output}"
        assert "analyze: clean" in output

    def test_list_rules_names_all_six(self, capsys):
        assert cli_main(["analyze", "--list-rules"]) == 0
        output = capsys.readouterr().out
        for rule_id in ("layering", "lock-discipline", "durability",
                        "exception-safety", "failpoint-coverage", "docs-consistency"):
            assert rule_id in output

    def test_single_rule_selection(self, capsys):
        exit_code = cli_main(["analyze", "--root", str(REPO_ROOT), "--rule", "layering"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "across 1 rule(s): layering" in output

    def test_committed_baseline_is_empty_or_justified(self):
        """The checked-in baseline must not hide findings silently."""
        baseline = REPO_ROOT / BASELINE_PATH
        assert baseline.is_file(), "tools/analysis_baseline.json must be committed"
        data = json.loads(baseline.read_text())
        assert data["accepted"] == [], (
            "the committed baseline should stay empty; prefer pragmas with "
            "reasons at the offending site over baselined fingerprints"
        )


# ---------------------------------------------------------------------------
# regression: the exception-safety fixes changed real behaviour
# ---------------------------------------------------------------------------


class TestDeserializeNormalisation:
    """deserialize_object now wraps parser leaks into InvalidObjectError."""

    def test_garbage_commit_payload_raises_typed_error(self):
        from repro.vcs.objects import deserialize_object

        with pytest.raises(InvalidObjectError) as excinfo:
            deserialize_object("commit", b"\xff\xfe not a commit at all")
        assert "malformed commit payload" in str(excinfo.value)

    def test_garbage_tree_payload_raises_typed_error(self):
        from repro.vcs.objects import deserialize_object

        with pytest.raises(InvalidObjectError):
            deserialize_object("tree", b"entry-without-structure\xff")

    def test_unknown_type_still_typed(self):
        from repro.vcs.objects import deserialize_object

        with pytest.raises(InvalidObjectError, match="unknown object type"):
            deserialize_object("gadget", b"")

    def test_fsck_references_tolerates_garbage_not_crashes(self):
        """_references narrows to VCSError: garbage yields no edges, and a
        non-VCS programming error would now surface instead of vanishing."""
        from repro.vcs.fsck import _references

        assert _references("commit", b"\xff\xfe garbage") == []
        assert _references("blob", b"anything") == []
