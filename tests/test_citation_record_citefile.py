"""Unit tests for citation records and the citation.cite file format."""

import json
from datetime import datetime, timezone

import pytest

from repro.errors import CitationFileError, InvalidCitationError
from repro.citation.citefile import (
    CITATION_FILE_PATH,
    dump_citation_bytes,
    dumps_citation_file,
    load_citation_bytes,
    loads_citation_file,
)
from repro.citation.function import CitationFunction
from repro.citation.record import Citation


class TestCitationRecord:
    def test_round_trip_through_dict(self, sample_citation):
        assert Citation.from_dict(sample_citation.to_dict()) == sample_citation

    def test_listing1_key_names(self, sample_citation):
        payload = sample_citation.to_dict()
        assert set(payload) >= {"repoName", "owner", "committedDate", "commitID", "url", "authorList"}
        assert payload["committedDate"] == "2018-09-04T02:35:20Z"
        assert payload["authorList"] == ["Yinjun Wu"]

    def test_missing_required_keys_rejected(self, sample_citation):
        payload = sample_citation.to_dict()
        del payload["commitID"]
        with pytest.raises(InvalidCitationError):
            Citation.from_dict(payload)

    def test_invalid_date_rejected(self, sample_citation):
        payload = sample_citation.to_dict()
        payload["committedDate"] = "yesterday"
        with pytest.raises(InvalidCitationError):
            Citation.from_dict(payload)

    def test_single_author_string_is_promoted_to_list(self, sample_citation):
        payload = sample_citation.to_dict()
        payload["authorList"] = "Yinjun Wu"
        assert Citation.from_dict(payload).authors == ("Yinjun Wu",)

    def test_unknown_fields_survive_round_trip(self, sample_citation):
        payload = sample_citation.to_dict()
        payload["customField"] = "kept"
        restored = Citation.from_dict(payload)
        assert ("customField", "kept") in restored.extra
        assert restored.to_dict()["customField"] == "kept"

    def test_validation_of_empty_fields(self):
        with pytest.raises(InvalidCitationError):
            Citation(
                repo_name="",
                owner="x",
                committed_date=datetime(2020, 1, 1, tzinfo=timezone.utc),
                commit_id="abc1234",
                url="https://example.org",
            )

    def test_with_changes_is_immutable_update(self, sample_citation):
        updated = sample_citation.with_changes(doi="10.5281/zenodo.1", authors=["A", "B"])
        assert updated.doi == "10.5281/zenodo.1"
        assert updated.authors == ("A", "B")
        assert sample_citation.doi is None  # original unchanged

    def test_convenience_properties(self, sample_citation):
        assert sample_citation.year == 2018
        assert sample_citation.primary_author == "Yinjun Wu"
        assert sample_citation.identity() == ("Yinjun Wu", "Data_citation_demo", "bbd248a")
        rendered = str(sample_citation)
        assert "Data_citation_demo" in rendered and "2018" in rendered

    def test_optional_fields_serialised_only_when_set(self, sample_citation):
        assert "doi" not in sample_citation.to_dict()
        assert "doi" in sample_citation.with_changes(doi="10.1/x").to_dict()


class TestCitationFile:
    def _function(self, sample_citation, other_citation) -> CitationFunction:
        function = CitationFunction.with_root(sample_citation)
        function.put("/CoreCover", other_citation, is_directory=True)
        function.put("/citation/core.py", sample_citation.with_changes(authors=("Wei Hu",)), False)
        return function

    def test_serialisation_uses_listing1_key_conventions(self, sample_citation, other_citation):
        text = dumps_citation_file(self._function(sample_citation, other_citation))
        payload = json.loads(text)
        assert set(payload) == {"/", "/CoreCover/", "/citation/core.py"}

    def test_round_trip(self, sample_citation, other_citation):
        function = self._function(sample_citation, other_citation)
        assert loads_citation_file(dumps_citation_file(function)) == function
        assert load_citation_bytes(dump_citation_bytes(function)) == function

    def test_serialisation_is_deterministic(self, sample_citation, other_citation):
        first = dumps_citation_file(self._function(sample_citation, other_citation))
        second = dumps_citation_file(self._function(sample_citation, other_citation))
        assert first == second

    def test_parse_accepts_listing1_style_keys(self, sample_citation):
        payload = {
            "/": sample_citation.to_dict(),
            ".../CoreCover/": sample_citation.to_dict(),
        }
        function = loads_citation_file(json.dumps(payload))
        assert function.entry("/CoreCover").is_directory

    def test_rejects_non_object_top_level(self):
        with pytest.raises(CitationFileError):
            loads_citation_file("[1, 2, 3]")

    def test_rejects_invalid_json(self):
        with pytest.raises(CitationFileError):
            loads_citation_file("{broken")

    def test_rejects_bad_entry_value(self, sample_citation):
        with pytest.raises(CitationFileError):
            loads_citation_file(json.dumps({"/": {"owner": "only"}}))

    def test_rejects_duplicate_keys_after_normalisation(self, sample_citation):
        payload = {
            "/a/": sample_citation.to_dict(),
            "a": sample_citation.to_dict(),
        }
        with pytest.raises(CitationFileError):
            loads_citation_file(json.dumps(payload))

    def test_rejects_invalid_utf8(self):
        with pytest.raises(CitationFileError):
            load_citation_bytes(b"\xff\xfe{}")

    def test_rejects_nesting_too_deep_to_parse(self):
        with pytest.raises(CitationFileError):
            load_citation_bytes(b"[" * 200_000 + b"]" * 200_000)

    def test_citation_file_path_constant(self):
        assert CITATION_FILE_PATH == "/citation.cite"
