"""Workload builders: the paper's scenarios plus synthetic generators.

* :mod:`scenarios` — deterministic builders for the paper's own artifacts:
  the Figure 1 running example (projects P1/P2, versions V1–V5, citations
  C1–C4), the Listing 1 demonstration scenario (the CiteDB repository with
  its CopyCite'd CoreCover subtree and MergeCite'd GUI branch), and the
  hosted setting used by the Figure 2 browser-extension walkthrough.
* :mod:`generator` — seeded synthetic repositories, citation functions,
  branch pairs, operation traces and fleet fault schedules used by the
  scalability, ablation and durability benchmarks and tests (the paper
  itself reports no numbers, so these define the workloads).
"""

from repro.workloads.generator import (
    FaultEvent,
    FleetFaultSchedule,
    ServeChaosSchedule,
    ServeKillEvent,
    SyntheticWorkload,
    WorkloadConfig,
    generate_branch_pair,
    generate_citation,
    generate_fault_schedule,
    generate_operation_trace,
    generate_repository,
    generate_serve_chaos_schedule,
    generate_tree_paths,
)
from repro.workloads.scenarios import (
    LISTING1_EXPECTED_KEYS,
    DemoScenario,
    ExtensionScenario,
    RunningExample,
    build_demo_scenario,
    build_extension_scenario,
    build_running_example,
)

__all__ = [
    "FaultEvent",
    "FleetFaultSchedule",
    "ServeChaosSchedule",
    "ServeKillEvent",
    "SyntheticWorkload",
    "WorkloadConfig",
    "generate_branch_pair",
    "generate_citation",
    "generate_fault_schedule",
    "generate_operation_trace",
    "generate_repository",
    "generate_serve_chaos_schedule",
    "generate_tree_paths",
    "LISTING1_EXPECTED_KEYS",
    "DemoScenario",
    "ExtensionScenario",
    "RunningExample",
    "build_demo_scenario",
    "build_extension_scenario",
    "build_running_example",
]
