"""Static invariant analysis for the repository's own source tree.

PRs 6–8 made the hub crash-durable and concurrency-safe, but the
load-bearing invariants — downward-only layer dependencies, the
single-writer/many-readers lock contract, "every durable write goes
through ``utils/atomicio``", "no handler absorbs a ``SimulatedCrash``"
— lived only in prose and in tests that exercise a handful of paths.
This package pins them in CI the way ``benchmarks/perf_floors.json``
pins performance: an AST-based rule engine that runs over the whole
tree on every push, so the invariants hold on *every* code path, not
just the exercised ones.

Rules (see ``docs/ANALYSIS.md`` for the annotation grammar):

``layering``
    Imports must point downward through the layer order declared in
    ``tools/layers.toml``; module-scope import cycles are forbidden.
``lock-discipline``
    Attributes annotated ``# guarded-by: <lock>`` may only be mutated
    inside a ``with self.<lock>`` block (or a method annotated
    ``# lint: holds-lock(<lock>)`` whose callers hold it).
``durability``
    Raw ``open(..., "w")``, ``os.rename``/``os.replace``/``shutil.move``
    are forbidden outside ``utils/atomicio.py`` — durable writes go
    through the crash-atomic helpers.
``exception-safety``
    No bare ``except:`` / ``except BaseException``; ``except Exception``
    requires a ``# lint: broad-except-ok(reason)`` pragma.
``failpoint-coverage``
    Every registered failpoint has a ``fire()``/``corrupt()`` call site
    and an arming test; no call site names an undeclared failpoint.
``docs-consistency``
    Every package is mentioned in ``docs/ARCHITECTURE.md`` and every
    relative markdown link resolves.
``json-parsing``
    Raw ``json.loads``/``json.load`` are forbidden outside
    ``utils/jsonutil.py`` — JSON parses go through ``stable_loads``, which
    maps too-deep nesting to ``ValueError``.

Entry points: ``gitcite analyze`` (CLI) and :func:`run_analysis`.
A committed baseline file (``tools/analysis_baseline.json``) lets
genuinely-intended exceptions pass while new violations fail CI.
"""

from repro.analysis.core import (
    Finding,
    Project,
    all_rules,
    load_baseline,
    run_analysis,
    write_baseline,
)

# Importing the rule modules registers them with the engine.
from repro.analysis import (  # noqa: E402  (registration imports)
    docs,
    durability,
    exceptions,
    failpoints,
    jsonparse,
    layering,
    locks,
)

__all__ = [
    "Finding",
    "Project",
    "all_rules",
    "load_baseline",
    "run_analysis",
    "write_baseline",
    "layering",
    "locks",
    "durability",
    "exceptions",
    "failpoints",
    "docs",
    "jsonparse",
]
