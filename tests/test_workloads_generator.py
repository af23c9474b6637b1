"""Tests for the synthetic workload generators used by the benchmarks."""

import random

import pytest

from repro import faults
from repro.citation.conflict import NewestStrategy
from repro.citation.operators import AddCite, DelCite, GenCite, ModifyCite, apply_operations
from repro.errors import TransportError
from repro.faults import SimulatedCrash
from repro.vcs.fsck import fsck_working_copy
from repro.vcs.workingcopy import load_repository, save_repository
from repro.workloads.generator import (
    STORAGE_FAILPOINTS,
    FaultEvent,
    WorkloadConfig,
    generate_branch_pair,
    generate_citation,
    generate_citation_function,
    generate_fault_schedule,
    generate_history,
    generate_operation_trace,
    generate_repository,
    generate_tree_paths,
)


class TestPrimitiveGenerators:
    def test_tree_paths_are_distinct_and_respect_count(self):
        rng = random.Random(1)
        paths = generate_tree_paths(rng, 200, max_depth=4)
        assert len(paths) == len(set(paths)) == 200
        assert all(path.startswith("/") for path in paths)
        assert max(path.count("/") for path in paths) <= 5  # depth bound plus the file itself

    def test_tree_paths_deterministic_per_seed(self):
        assert generate_tree_paths(random.Random(5), 50) == generate_tree_paths(random.Random(5), 50)
        assert generate_tree_paths(random.Random(5), 50) != generate_tree_paths(random.Random(6), 50)

    def test_generate_citation_is_valid_and_seeded(self):
        first = generate_citation(random.Random(3))
        second = generate_citation(random.Random(3))
        assert first == second
        assert first.authors and first.url.startswith("https://")

    def test_citation_function_density(self):
        rng = random.Random(2)
        paths = generate_tree_paths(rng, 100)
        function, cited = generate_citation_function(random.Random(2), paths, density=0.2)
        assert function.has_root
        assert len(cited) == len(function) - 1
        assert 0 < len(cited) <= int(0.2 * (len(paths) * 2)) + 1

    def test_zero_density_means_root_only(self):
        paths = generate_tree_paths(random.Random(4), 30)
        function, cited = generate_citation_function(random.Random(4), paths, density=0.0)
        assert cited == [] and function.active_domain() == ["/"]


class TestRepositoryWorkloads:
    def test_generate_repository_matches_config(self):
        workload = generate_repository(WorkloadConfig(seed=11, num_files=40, citation_density=0.25))
        assert len(workload.file_paths) == 40
        assert workload.repo.head_oid() is not None
        # The snapshot also holds citation.cite.
        assert set(workload.file_paths) < set(workload.repo.snapshot())
        assert workload.manager.validate().is_consistent
        assert len(workload.cited_paths) == len(workload.citation_function) - 1

    def test_generation_is_reproducible(self):
        config = WorkloadConfig(seed=21, num_files=30)
        first = generate_repository(config)
        second = generate_repository(config)
        assert first.file_paths == second.file_paths
        assert first.repo.head_oid() == second.repo.head_oid()

    def test_generate_history_extends_the_repo(self):
        workload = generate_repository(WorkloadConfig(seed=8, num_files=20))
        before = len(workload.repo.log())
        commits = generate_history(workload, num_commits=5)
        assert len(commits) == 5
        assert len(workload.repo.log()) == before + 5

    def test_branch_pair_has_requested_conflicts(self):
        pair = generate_branch_pair(
            WorkloadConfig(seed=13, num_files=80), citations_per_branch=12, conflict_fraction=0.5
        )
        assert len(pair.conflicting_paths) == 6
        assert pair.repo.current_branch == pair.ours_branch
        outcome = pair.manager.merge_cite(pair.theirs_branch, strategy=NewestStrategy())
        assert sorted(c.path for c in outcome.citation_result.conflicts) == pair.conflicting_paths
        # Non-conflicting citations from both branches survive the union.
        merged = outcome.citation_result.function
        assert merged.has_root
        for path in pair.ours_only_paths + pair.theirs_only_paths:
            assert path in merged


class TestOperationTraces:
    def test_trace_is_valid_by_construction(self):
        workload = generate_repository(WorkloadConfig(seed=17, num_files=60, citation_density=0.1))
        trace = generate_operation_trace(workload, 200)
        assert len(trace) == 200
        # Replaying the trace never raises (AddCite/DelCite/ModifyCite validity).
        results = apply_operations(workload.citation_function.copy()
                                   if False else workload.manager.citation_function(), trace)
        assert len(results) == 200

    def test_trace_respects_mix(self):
        workload = generate_repository(WorkloadConfig(seed=19, num_files=50, citation_density=0.2))
        trace = generate_operation_trace(workload, 150, mix={"generate": 1.0})
        assert all(isinstance(op, GenCite) for op in trace)

    def test_trace_contains_all_kinds_with_default_mix(self):
        workload = generate_repository(WorkloadConfig(seed=23, num_files=80, citation_density=0.2))
        trace = generate_operation_trace(workload, 300)
        kinds = {type(op) for op in trace}
        assert kinds >= {AddCite, DelCite, ModifyCite, GenCite}

    def test_trace_is_deterministic(self):
        workload = generate_repository(WorkloadConfig(seed=29, num_files=40, citation_density=0.2))
        assert generate_operation_trace(workload, 50) == generate_operation_trace(workload, 50)


class TestFleetFaultSchedules:
    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        faults.reset()
        yield
        faults.reset()

    def test_schedule_is_deterministic_per_seed(self):
        config = WorkloadConfig(seed=31)
        assert generate_fault_schedule(config) == generate_fault_schedule(config)
        assert generate_fault_schedule(config) != generate_fault_schedule(WorkloadConfig(seed=32))

    def test_schedule_shape_and_validity(self):
        schedule = generate_fault_schedule(
            WorkloadConfig(seed=37), fleet_size=6, faults_per_member=3, max_hit=5
        )
        assert schedule.fleet_size == 6
        assert len(schedule.events) == 18
        registered = set(faults.registered_failpoints())
        for event in schedule.events:
            assert 0 <= event.member < 6
            assert event.failpoint in registered
            assert 1 <= event.at <= 5
            assert event.keep >= 0 and event.offset >= 0
        # Every member got its deal, and the deals partition the events.
        deals = [schedule.for_member(m) for m in range(6)]
        assert all(len(deal) == 3 for deal in deals)
        assert sorted((e for deal in deals for e in deal), key=str) == sorted(schedule.events, key=str)

    def test_unknown_failpoint_is_rejected(self):
        with pytest.raises(ValueError):
            generate_fault_schedule(WorkloadConfig(seed=1), failpoints=("no.such.site",))

    def test_restricting_sites_restricts_the_schedule(self):
        schedule = generate_fault_schedule(
            WorkloadConfig(seed=41), fleet_size=8, failpoints=STORAGE_FAILPOINTS
        )
        assert {e.failpoint for e in schedule.events} <= set(STORAGE_FAILPOINTS)
        assert {e.action for e in schedule.events} <= {"crash", "truncate", "flip"}

    def test_armed_event_triggers_at_its_hit_index(self):
        event = FaultEvent(member=0, failpoint="state.save", action="crash", at=2)
        event.arm()
        assert faults.consume("state.save") is None  # hit 1: below `at`
        action = faults.consume("state.save")  # hit 2: triggers, once
        assert action is not None and action.kind == "crash"
        assert faults.consume("state.save") is None  # times=1: spent

    def test_armed_error_event_raises_transport_error(self):
        event = FaultEvent(member=0, failpoint="wire.request", action="error", at=1)
        event.arm()
        with pytest.raises(TransportError):
            faults.fire("wire.request")

    def test_fleet_member_crash_recovers_with_fsck(self, tmp_path):
        # One member of the fleet replayed end to end: generate, persist,
        # arm the member's crash, die mid-save, recover, verify integrity.
        workload = generate_repository(WorkloadConfig(seed=43, num_files=12))
        save_repository(workload.repo, tmp_path)
        before = load_repository(tmp_path).head_oid()
        faults.reset()
        FaultEvent(member=0, failpoint="state.save", action="truncate", at=1, keep=9).arm()
        workload.repo.write_file("/crash.txt", "doomed\n")
        workload.repo.commit("never durable", author_name="alice")
        with pytest.raises(SimulatedCrash):
            save_repository(workload.repo, tmp_path)
        faults.reset()
        report = fsck_working_copy(tmp_path)
        assert report.ok
        assert load_repository(tmp_path).head_oid() == before
