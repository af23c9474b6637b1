"""Reading and writing the ``citation.cite`` file.

Section 3 of the paper: *"we add a special file, 'citation.cite', to the root
of each version of a project.  The file is a set of key-value entries, where
the key is the relative path to the file being cited, and the value is the
citation attached to the file."*

The on-disk format is a JSON object.  Keys follow Listing 1's conventions:

* the project root is the key ``"/"``;
* directory keys end with a trailing ``"/"``;
* file keys do not.

The file is written with sorted keys and a stable layout so that identical
citation functions always serialise to identical bytes — the property that
makes the scenario reproduction (and the VCS object ids of commits that
snapshot the file) deterministic.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Callable, Mapping

from repro.errors import CitationFileError
from repro.citation.function import CitationEntry, CitationFunction
from repro.citation.record import Citation
from repro.errors import InvalidCitationError, InvalidPathError
from repro.utils.jsonutil import stable_loads
from repro.utils.paths import ROOT, is_dir_key, normalize_path, to_citation_key

__all__ = [
    "CITATION_FILE_NAME",
    "CITATION_FILE_PATH",
    "dumps_citation_file",
    "loads_citation_file",
    "dump_citation_bytes",
    "load_citation_bytes",
    "ParseCache",
]

#: The file name used at the root of every version.
CITATION_FILE_NAME = "citation.cite"

#: The canonical repository path of the citation file.
CITATION_FILE_PATH = "/" + CITATION_FILE_NAME


def dumps_citation_file(function: CitationFunction, indent: int = 2) -> str:
    """Serialise a citation function to the ``citation.cite`` text format."""
    payload: dict[str, Any] = {}
    for entry in function.to_entries():
        key = to_citation_key(entry.path, entry.is_directory)
        payload[key] = entry.citation.to_dict()
    return json.dumps(payload, indent=indent, sort_keys=True, ensure_ascii=False) + "\n"


def dump_citation_bytes(function: CitationFunction) -> bytes:
    """Serialise a citation function to UTF-8 bytes (what gets committed)."""
    return dumps_citation_file(function).encode("utf-8")


def loads_citation_file(text: str) -> CitationFunction:
    """Parse ``citation.cite`` text into a :class:`CitationFunction`.

    Raises
    ------
    CitationFileError
        If the text is not a JSON object, a key is not a valid repository
        path, or an entry value is not a valid citation.
    """
    try:
        payload = stable_loads(text)
    except (ValueError, UnicodeDecodeError) as exc:
        raise CitationFileError(f"citation.cite is not valid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise CitationFileError("citation.cite must contain a JSON object at the top level")
    entries: list[CitationEntry] = []
    for raw_key, value in payload.items():
        if not isinstance(raw_key, str):
            raise CitationFileError(f"citation.cite key is not a string: {raw_key!r}")
        if not isinstance(value, Mapping):
            raise CitationFileError(f"citation.cite entry for {raw_key!r} is not an object")
        directory = raw_key == ROOT or is_dir_key(raw_key)
        try:
            path = normalize_path(raw_key)
            citation = Citation.from_dict(value)
        except (InvalidPathError, InvalidCitationError) as exc:
            raise CitationFileError(f"invalid citation.cite entry for key {raw_key!r}: {exc}") from exc
        entries.append(CitationEntry(path=path, citation=citation, is_directory=directory))
    counts = Counter(entry.path for entry in entries)
    duplicates = sorted(path for path, count in counts.items() if count > 1)
    if duplicates:
        raise CitationFileError(
            f"citation.cite contains duplicate keys after normalisation: {duplicates}"
        )
    return CitationFunction.from_entries(entries)


def load_citation_bytes(data: bytes) -> CitationFunction:
    """Parse ``citation.cite`` bytes (UTF-8) into a :class:`CitationFunction`."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CitationFileError(f"citation.cite is not valid UTF-8: {exc}") from exc
    return loads_citation_file(text)


#: Upper bound on distinct parsed ``citation.cite`` blobs kept per cache.
_PARSE_CACHE_LIMIT = 128


class ParseCache:
    """Parsed ``citation.cite`` files memoised by blob oid, least recently used evicted.

    A blob oid names its bytes, so a cached parse never goes stale and one
    entry serves every repository and ref holding the same file.  Entries
    are shared instances: callers treat them as read-only and ``copy()``
    before mutating.  ``misses`` counts the parses actually made.  Not
    thread-safe: each cache belongs to one client or manager, or sits
    behind its owner's lock (the hub's).
    """

    def __init__(self) -> None:
        self._entries: dict[str, CitationFunction] = {}
        self.misses = 0

    def get(self, blob_oid: str, load: Callable[[], CitationFunction]) -> CitationFunction:
        """The parse of ``blob_oid``, calling ``load()`` only on a miss."""
        # Pop-and-reinsert keeps the dict ordered least-recently-used first,
        # so eviction drops cold entries and hot blobs (HEAD) stay warm.
        function = self._entries.pop(blob_oid, None)
        if function is None:
            function = load()
            self.misses += 1
        self.put(blob_oid, function)
        return function

    def put(self, blob_oid: str, function: CitationFunction) -> None:
        """Seed the entry of ``blob_oid`` with a function the caller already holds.

        The caller vouches that ``function`` equals the parse of the blob's
        bytes (it just serialised them from it), and hands it over: it
        becomes shared and read-only.  No miss is counted.
        """
        self._entries.pop(blob_oid, None)
        while len(self._entries) >= _PARSE_CACHE_LIMIT:
            self._entries.pop(next(iter(self._entries)))
        self._entries[blob_oid] = function

    def clear(self) -> None:
        self._entries.clear()
