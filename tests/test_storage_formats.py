"""Fuzzing of the pack store's on-disk codecs (``repro.vcs.storage.formats``).

Each codec gets two properties: an encoding parses back to what was encoded,
and any bytes — arbitrary, or a valid encoding with 1–4 bytes mutated —
parse to a value or raise ``StorageError``, never anything else.  The
regression corpus (a non-monotone and a monotone fanout flip, an entry offset
at or above 2^63, a negative record size) is pinned as ``@example``\\s.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.vcs.storage import formats

_OID = st.binary(min_size=20, max_size=20).map(bytes.hex)
_FIELD = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)
_MUTATIONS = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
    min_size=1, max_size=4,
)

# A fixed two-pack corpus every mutation case starts from.
_PACK_SIZES = {"pack-a.pack": 5000, "pack-b.pack": 7000}
_NAMES = sorted(_PACK_SIZES)
_ENTRIES = sorted(
    f"{first:02x}{second:02x}" * 10 for first in range(0, 256, 5) for second in (1, 7)
)
_MIDX = formats.encode_midx(
    _NAMES, _ENTRIES, [n % 2 for n in range(len(_ENTRIES))],
    [100 + 37 * n for n in range(len(_ENTRIES))],
)
_IDX = formats.encode_idx([(oid, 100 + 37 * n) for n, oid in enumerate(_ENTRIES)])
_IDX_SIZE = 7000
_MIDX_TABLE = len(formats.MIDX_MAGIC) + 4 + sum(2 + len(name) for name in _NAMES)
_MIDX_ENTRIES = _MIDX_TABLE + 256 * 4


def _monotone_low_bit_slot() -> int:
    """A fanout slot whose low-bit flip keeps the table monotone."""
    slots = formats.build_fanout(_ENTRIES)
    return next(
        slot for slot in range(1, 256) if slots[slot - 1] <= slots[slot] ^ 1 <= slots[slot + 1]
    )


_LOW_BIT_BYTE = _MIDX_TABLE + (_monotone_low_bit_slot() - 1) * 4 + 3


def _mutate(data: bytes, mutations) -> bytes:
    damaged = bytearray(data)
    for position, xor in mutations:
        damaged[position % len(damaged)] ^= xor
    return bytes(damaged)


def _typed_or_value(parse, data: bytes):
    try:
        return parse(data)
    except StorageError:
        return None


# ---------------------------------------------------------------------------
# Record header
# ---------------------------------------------------------------------------


@st.composite
def _headers(draw):
    kind = draw(st.sampled_from(["full", "delta"]))
    base = draw(_OID) if kind == "delta" else None
    return kind, draw(_FIELD), draw(_OID), draw(st.integers(0, 2**64)), base


@settings(deadline=None)
@given(_headers())
def test_record_header_round_trips(header):
    encoded = formats.encode_record_header(*header)
    assert formats.parse_record_header(encoded) == (*header, len(encoded))


@settings(deadline=None)
@given(st.binary(max_size=200))
@example(b"delta blob " + b"a" * 40 + b" -18 " + b"b" * 40 + b"\n")
@example(b"full blob " + b"a" * 40 + b" +5\n")
@example(b"full blob " + b"a" * 40 + b" 5 extra\n")
def test_record_header_parse_is_total(data):
    _typed_or_value(formats.parse_record_header, data)


def test_negative_record_size_is_rejected():
    with pytest.raises(StorageError, match="malformed record header"):
        formats.parse_record_header(b"delta blob " + b"a" * 40 + b" -18 " + b"b" * 40 + b"\n")


@settings(deadline=None)
@given(_headers(), _MUTATIONS)
def test_mutated_record_header_parse_is_total(header, mutations):
    _typed_or_value(formats.parse_record_header,
                    _mutate(formats.encode_record_header(*header), mutations))


# ---------------------------------------------------------------------------
# .idx
# ---------------------------------------------------------------------------


@settings(deadline=None)
@given(st.dictionaries(_OID, st.integers(len(formats.PACK_MAGIC), 2**40), max_size=60))
def test_idx_round_trips(entries):
    parsed = formats.parse_idx(formats.encode_idx(list(entries.items())), 2**40 + 1)
    assert list(zip(parsed.oids, parsed.offsets)) == sorted(entries.items())
    assert parsed.fanout == formats.build_fanout(sorted(entries))


@settings(deadline=None)
@given(st.binary(max_size=2000))
@example(formats.INDEX_MAGIC + struct.pack(">256I", *([0] * 255 + [1])) + b"\xff" * 28)
def test_idx_parse_is_total(data):
    _typed_or_value(lambda raw: formats.parse_idx(raw, _IDX_SIZE), data)


@settings(max_examples=300, deadline=None)
@given(_MUTATIONS)
@example([(len(formats.INDEX_MAGIC) + 40 * 4, 0x80)])  # non-monotone fanout slot
@example([(len(formats.INDEX_MAGIC) + 256 * 4 + 20, 0x80)])  # offset >= 2^63
def test_mutated_idx_parse_is_total(mutations):
    _typed_or_value(lambda raw: formats.parse_idx(raw, _IDX_SIZE), _mutate(_IDX, mutations))


# ---------------------------------------------------------------------------
# .midx
# ---------------------------------------------------------------------------


@st.composite
def _midx_contents(draw):
    names = draw(st.lists(
        st.text(alphabet="abcdef0123456789-.", min_size=1, max_size=20),
        max_size=4, unique=True,
    ))
    sizes = {name: draw(st.integers(len(formats.PACK_MAGIC) + 1, 2**40)) for name in names}
    oids = sorted(draw(st.sets(_OID, max_size=60))) if names else []
    numbers = [draw(st.integers(0, len(names) - 1)) for _ in oids]
    offsets = [
        draw(st.integers(len(formats.PACK_MAGIC), sizes[names[n]] - 1)) for n in numbers
    ]
    return sizes, names, oids, numbers, offsets


@settings(deadline=None)
@given(_midx_contents())
def test_midx_round_trips(contents):
    sizes, names, oids, numbers, offsets = contents
    parsed = formats.parse_midx(formats.encode_midx(names, oids, numbers, offsets), sizes)
    assert parsed == (names, oids, numbers, offsets, formats.build_fanout(oids))


@settings(deadline=None)
@given(st.binary(max_size=2000))
@example(formats.MIDX_MAGIC + b"\xff\xff\xff\xff")
def test_midx_parse_is_total(data):
    _typed_or_value(lambda raw: formats.parse_midx(raw, _PACK_SIZES), data)


@settings(max_examples=300, deadline=None)
@given(_MUTATIONS)
@example([(_MIDX_TABLE + 100 * 4, 0x80)])  # non-monotone fanout slot
@example([(_LOW_BIT_BYTE, 0x01)])  # monotone low-bit fanout flip
@example([(_MIDX_ENTRIES + 24, 0x80)])  # entry offset >= 2^63
@example([(_MIDX_ENTRIES + 20, 0x01)])  # pack number outside the name list
def test_mutated_midx_parse_is_total(mutations):
    _typed_or_value(lambda raw: formats.parse_midx(raw, _PACK_SIZES), _mutate(_MIDX, mutations))


@pytest.mark.parametrize("position, xor, problem", [
    (_MIDX_TABLE + 100 * 4, 0x80, "fanout slot"),
    (_LOW_BIT_BYTE, 0x01, "fanout slot"),
    (_MIDX_ENTRIES + 24, 0x80, "outside its"),
    (_MIDX_ENTRIES + 23, 0x02, "pack number"),
    (_MIDX_ENTRIES + 32 + 1, 0x07, "out of order"),  # second oid sorts first
])
def test_corpus_damage_names_the_file_and_offset(position, xor, problem):
    with pytest.raises(StorageError, match=problem) as raised:
        formats.parse_midx(_mutate(_MIDX, [(position, xor)]), _PACK_SIZES, "the.midx")
    assert str(raised.value).startswith("the.midx: ")
    assert " at offset " in str(raised.value)


def test_midx_naming_a_missing_pack_is_rejected():
    with pytest.raises(StorageError, match="not a distinct current pack"):
        formats.parse_midx(_MIDX, {"pack-a.pack": 5000})
