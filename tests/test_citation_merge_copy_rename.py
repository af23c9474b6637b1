"""Unit tests for MergeCite, CopyCite and rename propagation (pure-model level)."""

from repro.citation.conflict import (
    AskUserStrategy,
    NewestStrategy,
    OursStrategy,
    TheirsStrategy,
    ThreeWayStrategy,
)
from repro.citation.copy import copy_citations
from repro.citation.function import CitationFunction
from repro.citation.merge import merge_citation_functions
from repro.citation.rename import propagate_diff, propagate_renames
from repro.vcs.diff import diff_trees
from repro.vcs.object_store import ObjectStore
from repro.vcs.objects import Blob
from repro.vcs.treeops import build_tree


class TestMergeCitationFunctions:
    def test_union_of_disjoint_domains(self, sample_citation, other_citation):
        ours = CitationFunction.with_root(sample_citation)
        ours.put("/ours.py", sample_citation, False)
        theirs = CitationFunction.with_root(sample_citation)
        theirs.put("/theirs.py", other_citation, False)
        result = merge_citation_functions(ours, theirs)
        assert set(result.function.active_domain()) == {"/", "/ours.py", "/theirs.py"}
        assert not result.conflicts and not result.has_unresolved

    def test_identical_values_do_not_conflict(self, sample_citation):
        ours = CitationFunction.with_root(sample_citation)
        theirs = CitationFunction.with_root(sample_citation)
        result = merge_citation_functions(ours, theirs)
        assert not result.conflicts

    def test_same_key_different_value_is_a_conflict(self, sample_citation, other_citation):
        ours = CitationFunction.with_root(sample_citation)
        ours.put("/shared.py", sample_citation, False)
        theirs = CitationFunction.with_root(sample_citation)
        theirs.put("/shared.py", other_citation, False)
        result = merge_citation_functions(ours, theirs)
        assert result.conflict_paths == ["/shared.py"]
        assert result.has_unresolved  # default ask strategy with no chooser

    def test_strategy_resolves_conflicts(self, sample_citation, other_citation):
        # 300 conflicts: the newer citation alternates sides, and for a third
        # of the keys the other side still holds the base value.
        base = CitationFunction.with_root(sample_citation)
        ours = CitationFunction.with_root(sample_citation)
        theirs = CitationFunction.with_root(sample_citation)
        for index in range(300):
            path = f"/module{index % 20}/file{index}.py"
            older = other_citation if index % 3 == 0 else other_citation.with_changes(title="other")
            newer_on_ours = index % 2 == 0
            ours_value, theirs_value = (sample_citation, older) if newer_on_ours else (older, sample_citation)
            base.put(path, other_citation, False)
            ours.put(path, ours_value, False)
            theirs.put(path, theirs_value, False)
        newest_wins = {path: sample_citation for path in ours.active_domain() if path != "/"}
        theirs_wins = {path: theirs.get_explicit(path) for path in newest_wins}
        for strategy, expected in (
            (TheirsStrategy(), theirs_wins),
            (NewestStrategy(), newest_wins),
            (ThreeWayStrategy(fallback=NewestStrategy()), newest_wins),
            (AskUserStrategy(), None),  # asking without a chooser resolves nothing by itself
        ):
            result = merge_citation_functions(ours, theirs, base=base, strategy=strategy)
            assert len(result.conflicts) == 300
            if expected is None:
                assert result.auto_resolved_count == 0 and len(result.unresolved) == 300
            else:
                assert not result.has_unresolved and result.auto_resolved_count == 300
                assert {path: result.function.get_explicit(path) for path in expected} == expected

    def test_deleted_files_drop_their_entries(self, sample_citation, other_citation):
        ours = CitationFunction.with_root(sample_citation)
        ours.put("/kept.py", sample_citation, False)
        ours.put("/removed.py", other_citation, False)
        theirs = CitationFunction.with_root(sample_citation)
        result = merge_citation_functions(ours, theirs, surviving_paths={"/kept.py"})
        assert result.dropped_paths == ["/removed.py"]
        assert "/kept.py" in result.function.active_domain()
        assert result.function.has_root  # the root never needs to be listed

    def test_root_conflict_keeps_function_total(self, sample_citation, other_citation):
        ours = CitationFunction.with_root(sample_citation)
        theirs = CitationFunction.with_root(other_citation)
        result = merge_citation_functions(ours, theirs, strategy=AskUserStrategy())
        assert result.has_unresolved
        assert result.function.root_citation() == sample_citation  # provisional ours

    def test_base_is_used_to_classify_conflicts(self, sample_citation, other_citation):
        base = CitationFunction.with_root(sample_citation)
        base.put("/shared.py", sample_citation, False)
        ours = base.copy()
        theirs = base.copy()
        theirs.put("/shared.py", other_citation, True)  # only theirs changed
        result = merge_citation_functions(ours, theirs, base=base, strategy=OursStrategy())
        assert len(result.conflicts) == 1
        assert not result.conflicts[0].both_changed


class TestCopyCitations:
    def test_keys_are_rerooted(self, sample_citation, other_citation):
        source = CitationFunction.with_root(other_citation)
        source.put("/green", other_citation.with_changes(title="green"), True)
        source.put("/green/f2.py", other_citation.with_changes(title="f2"), False)
        destination = CitationFunction.with_root(sample_citation)
        result = copy_citations(source, "/green", destination, "/imported/green")
        assert result.migrated["/green/f2.py"] == "/imported/green/f2.py"
        assert result.migrated_count == 2
        assert destination.resolve("/imported/green/f2.py").citation.title == "f2"
        assert not result.root_citation_added

    def test_figure1_semantics_inherited_subtree_root_is_pinned(self, sample_citation, other_citation):
        # In V3, /green has no explicit citation: f2 resolves to C4 attached higher up.
        c4 = other_citation.with_changes(title="C4")
        source = CitationFunction.with_root(c4)  # C4 at the root of P2 here
        destination = CitationFunction.with_root(sample_citation)
        before = source.resolve("/green/f2.py").citation
        result = copy_citations(source, "/green", destination, "/green")
        assert result.root_citation_added
        after = destination.resolve("/green/f2.py").citation
        assert before == after == c4

    def test_copy_preserves_resolution_for_all_copied_nodes(self, sample_citation, other_citation):
        source = CitationFunction.with_root(other_citation)
        source.put("/pkg", other_citation.with_changes(title="pkg"), True)
        source.put("/pkg/sub/mod.py", other_citation.with_changes(title="mod"), False)
        destination = CitationFunction.with_root(sample_citation)
        copy_citations(source, "/pkg", destination, "/vendor/pkg")
        for old, new in (
            ("/pkg", "/vendor/pkg"),
            ("/pkg/sub", "/vendor/pkg/sub"),
            ("/pkg/sub/mod.py", "/vendor/pkg/sub/mod.py"),
        ):
            assert source.resolve(old).citation == destination.resolve(new).citation

    def test_overwrites_are_reported(self, sample_citation, other_citation):
        source = CitationFunction.with_root(other_citation)
        source.put("/dir", other_citation, True)
        destination = CitationFunction.with_root(sample_citation)
        destination.put("/dst", sample_citation, True)
        result = copy_citations(source, "/dir", destination, "/dst")
        assert result.overwritten == ["/dst"]
        assert destination.get_explicit("/dst") == other_citation


class TestRenamePropagation:
    def test_file_rename_moves_entry(self, sample_citation):
        function = CitationFunction.with_root(sample_citation)
        function.put("/old.py", sample_citation, False)
        result = propagate_renames(function, {"/old.py": "/new.py"})
        assert result.moved == {"/old.py": "/new.py"}
        assert function.resolve("/new.py").is_explicit
        assert "/old.py" not in function

    def test_unrelated_entries_untouched(self, sample_citation, other_citation):
        function = CitationFunction.with_root(sample_citation)
        function.put("/keep.py", other_citation, False)
        propagate_renames(function, {"/other.py": "/moved.py"})
        assert function.get_explicit("/keep.py") == other_citation

    def test_directory_move_inferred_from_file_renames(self, sample_citation, other_citation):
        function = CitationFunction.with_root(sample_citation)
        function.put("/src", other_citation, True)
        renames = {"/src/a.py": "/lib/a.py", "/src/b.py": "/lib/b.py"}
        result = propagate_renames(function, renames)
        assert result.directory_moves == {"/src": "/lib"}
        assert function.get_explicit("/lib") == other_citation

    def test_inconsistent_file_moves_do_not_move_directory(self, sample_citation, other_citation):
        function = CitationFunction.with_root(sample_citation)
        function.put("/src", other_citation, True)
        renames = {"/src/a.py": "/lib/a.py", "/src/b.py": "/elsewhere/b.py"}
        result = propagate_renames(function, renames)
        assert not result.directory_moves
        assert function.get_explicit("/src") == other_citation

    def test_propagate_from_tree_diff(self, sample_citation):
        store = ObjectStore()
        old = build_tree(store, {"/old_name.py": (store.put(Blob(b"same content")), "100644")})
        new = build_tree(store, {"/new_name.py": (store.put(Blob(b"same content")), "100644")})
        diff = diff_trees(store, old, new)
        function = CitationFunction.with_root(sample_citation)
        function.put("/old_name.py", sample_citation, False)
        result = propagate_diff(function, diff)
        assert result.moved == {"/old_name.py": "/new_name.py"}
