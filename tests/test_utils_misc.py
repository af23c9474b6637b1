"""Unit tests for hashing, timestamps and canonical JSON helpers."""

from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.hashing import object_id, sha1_hex, short_id
from repro.utils.jsonutil import canonical_dump_bytes, canonical_dumps, pretty_dumps, stable_loads
from repro.utils.timeutil import (
    _TIMESTAMP_FORMAT,
    FixedClock,
    format_timestamp,
    now_utc,
    parse_timestamp,
    reset_clock,
    set_clock,
)


class TestHashing:
    def test_sha1_known_vector(self):
        assert sha1_hex(b"") == "da39a3ee5e6b4b0d3255bfef95601890afd80709"

    def test_object_id_matches_git_blob_hash(self):
        # `git hash-object` of a file containing "hello\n" is this well-known id.
        assert object_id("blob", b"hello\n") == "ce013625030ba8dba906f756967f9e9ca394464a"

    def test_object_id_depends_on_type(self):
        assert object_id("blob", b"x") != object_id("tree", b"x")

    def test_short_id_default_length(self):
        oid = "bbd248a" + "0" * 33
        assert short_id(oid) == "bbd248a"

    def test_short_id_minimum_length(self):
        with pytest.raises(ValueError):
            short_id("abcdef", length=3)


class TestTimestamps:
    def test_format_round_trip(self):
        when = datetime(2018, 9, 4, 2, 35, 20, tzinfo=timezone.utc)
        assert format_timestamp(when) == "2018-09-04T02:35:20Z"
        assert parse_timestamp("2018-09-04T02:35:20Z") == when

    def test_parse_tolerates_listing1_spaces(self):
        # The paper's listing contains "2018 -09 -04 T02:35:20Z" due to typesetting.
        assert parse_timestamp("2018 -09 -04 T02:35:20Z") == datetime(
            2018, 9, 4, 2, 35, 20, tzinfo=timezone.utc
        )

    @staticmethod
    def _strptime_outcome(value):
        """What the ``strptime``-only parser returns or raises for ``value``."""
        try:
            parsed = datetime.strptime(value.replace(" ", ""), _TIMESTAMP_FORMAT)
        except ValueError as exc:
            return ("error", str(exc))
        return ("ok", parsed.replace(tzinfo=timezone.utc))

    @staticmethod
    def _outcome(value):
        try:
            return ("ok", parse_timestamp(value))
        except ValueError as exc:
            return ("error", str(exc))

    @pytest.mark.parametrize("value", [
        "2018-09-04T02:35:20Z",           # canonical: sliced
        "2018 -09 -04 T02:35:20Z",        # Listing 1's typeset variant
        "0001-01-01T00:00:00Z",
        "9999-12-31T23:59:59Z",
        "2018-9-4T2:35:20Z",              # short fields: strptime only
        "2018-02-30T00:00:00Z",           # impossible date
        "2018-13-01T00:00:00Z",           # month out of range
        "2018-09-04T24:00:00Z",
        "2018-09-04T02:35:60Z",           # strptime accepts 60, datetime does not
        "0000-01-01T00:00:00Z",
        "2018-09-04T02:35:20",            # missing zone
        "2018-09-04 02:35:20Z",
        "20a8-09-04T02:35:20Z",
        "2018-0\u0663-04T02:35:20Z",      # non-ASCII digit
        "+018-09-04T02:35:20Z",
        "2_18-09-04T02:35:20Z",
        "",
        "not a timestamp",
    ])
    def test_fast_path_matches_strptime(self, value):
        assert self._outcome(value) == self._strptime_outcome(value)

    @settings(max_examples=200, deadline=None)
    @given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)))
    def test_fast_path_matches_strptime_on_any_date(self, when):
        text = (
            f"{when.year:04d}-{when.month:02d}-{when.day:02d}"
            f"T{when.hour:02d}:{when.minute:02d}:{when.second:02d}Z"
        )
        assert self._outcome(text) == self._strptime_outcome(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789-:TZ \u0663x", max_size=24))
    def test_fast_path_matches_strptime_on_any_text(self, value):
        assert self._outcome(value) == self._strptime_outcome(value)

    def test_naive_datetime_is_treated_as_utc(self):
        assert format_timestamp(datetime(2020, 1, 1)) == "2020-01-01T00:00:00Z"

    def test_fixed_clock_advances(self):
        clock = FixedClock(datetime(2018, 1, 1, tzinfo=timezone.utc), step_seconds=30)
        first, second = clock(), clock()
        assert (second - first).total_seconds() == 30

    def test_set_and_reset_clock(self):
        set_clock(FixedClock(datetime(2001, 2, 3, tzinfo=timezone.utc)))
        assert now_utc().year == 2001
        reset_clock()
        assert now_utc().year >= 2018

    def test_now_utc_has_no_microseconds(self):
        assert now_utc().microsecond == 0


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_bytes_round_trip(self):
        value = {"key": "välue", "n": 3}
        assert stable_loads(canonical_dump_bytes(value)) == value

    def test_identical_dicts_serialise_identically(self):
        assert canonical_dumps({"a": 1, "b": 2}) == canonical_dumps({"b": 2, "a": 1})

    def test_pretty_dumps_is_indented(self):
        assert "\n  " in pretty_dumps({"a": {"b": 1}})

    def test_stable_loads_rejects_invalid(self):
        with pytest.raises(ValueError):
            stable_loads("{not json")

    def test_stable_loads_rejects_nesting_too_deep_to_parse(self):
        with pytest.raises(ValueError):
            stable_loads("[" * 200_000 + "]" * 200_000)
