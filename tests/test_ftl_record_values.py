"""Value semantics of the mapping records (:class:`DeltaRecord`,
:class:`SharePair`) and the integrity of the sealed mapping page that
carries them."""

import pytest

from repro.errors import ShareError
from repro.ftl.deltalog import (
    KIND_BADBLK,
    KIND_SHARE,
    KIND_SNAP,
    KIND_TRIM,
    MAP_MAGIC,
    DeltaRecord,
    _seal,
    _unseal,
)
from repro.ftl.share_ext import SharePair


class TestDeltaRecordValues:
    def test_fields(self):
        record = DeltaRecord(KIND_SHARE, 4, 10, 20, 7)
        assert (record.kind, record.lpn, record.old_ppn, record.new_ppn,
                record.seq) == (KIND_SHARE, 4, 10, 20, 7)
        assert DeltaRecord.__slots__ == ("kind", "lpn", "old_ppn",
                                         "new_ppn", "seq")
        assert not hasattr(record, "__dict__")

    def test_equality_and_hash(self):
        record = DeltaRecord(KIND_SHARE, 4, 10, 20, 7)
        twin = DeltaRecord(KIND_SHARE, 4, 10, 20, 7)
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1
        for other in (DeltaRecord(KIND_SNAP, 4, 10, 20, 7),
                      DeltaRecord(KIND_SHARE, 5, 10, 20, 7),
                      DeltaRecord(KIND_SHARE, 4, None, 20, 7),
                      DeltaRecord(KIND_SHARE, 4, 10, 21, 7),
                      DeltaRecord(KIND_SHARE, 4, 10, 20, 8)):
            assert record != other
        # Not equal to a tuple of the same fields (no tuple identity).
        assert record != (KIND_SHARE, 4, 10, 20, 7)

    def test_repr(self):
        assert repr(DeltaRecord(KIND_TRIM, 3, 9, None, 12)) == (
            "DeltaRecord(kind='trim', lpn=3, old_ppn=9, new_ppn=None, "
            "seq=12)")

    @pytest.mark.parametrize("args, message", [
        (("bogus", 1, None, 2, 0), "unknown delta kind"),
        ((KIND_SHARE, -1, None, 2, 0), "negative LPN"),
        ((KIND_SHARE, 1, None, 2, -1), "negative seq"),
        ((KIND_TRIM, 1, 3, 2, 0), "trim records must have new_ppn=None"),
        ((KIND_BADBLK, 1, 3, None, 0), "badblk records carry no PPNs"),
        ((KIND_BADBLK, 1, None, 3, 0), "badblk records carry no PPNs"),
    ])
    def test_validation(self, args, message):
        with pytest.raises(ValueError, match=message):
            DeltaRecord(*args)


class TestSharePairValues:
    def test_fields_equality_hash_repr(self):
        pair = SharePair(10, 20)
        assert (pair.dst_lpn, pair.src_lpn) == (10, 20)
        assert SharePair.__slots__ == ("dst_lpn", "src_lpn")
        assert pair == SharePair(10, 20)
        assert hash(pair) == hash(SharePair(10, 20))
        assert pair != SharePair(20, 10)
        assert pair != SharePair(10, 21)
        assert pair != (10, 20)
        assert len({pair, SharePair(10, 20), SharePair(11, 20)}) == 2
        assert repr(pair) == "SharePair(dst_lpn=10, src_lpn=20)"

    @pytest.mark.parametrize("dst, src, message", [
        (-1, 5, "negative destination LPN"),
        (5, -1, "negative source LPN"),
        (5, 5, "destination and source LPN are identical"),
    ])
    def test_validation(self, dst, src, message):
        with pytest.raises(ShareError, match=message):
            SharePair(dst, src)


RECORDS = (DeltaRecord(KIND_SHARE, 4, 10, 20, 7),
           DeltaRecord(KIND_TRIM, 5, 11, None, 8),
           DeltaRecord(KIND_BADBLK, 2, None, None, 9))

#: One altered copy of the first record per field.
ALTERED = {
    "kind": DeltaRecord(KIND_SNAP, 4, 10, 20, 7),
    "lpn": DeltaRecord(KIND_SHARE, 5, 10, 20, 7),
    "old_ppn": DeltaRecord(KIND_SHARE, 4, 11, 20, 7),
    "old_ppn_none": DeltaRecord(KIND_SHARE, 4, None, 20, 7),
    "new_ppn": DeltaRecord(KIND_SHARE, 4, 10, 21, 7),
    "seq": DeltaRecord(KIND_SHARE, 4, 10, 20, 17),
}


class TestSealedPage:
    def test_round_trip(self):
        assert _unseal(_seal(RECORDS)) == list(RECORDS)

    @pytest.mark.parametrize("field", sorted(ALTERED))
    def test_one_altered_field_fails_the_seal(self, field):
        magic, records, crc = _seal(RECORDS)
        tampered = (ALTERED[field],) + records[1:]
        assert _unseal((magic, tampered, crc)) is None

    def test_reordered_or_dropped_records_fail_the_seal(self):
        magic, records, crc = _seal(RECORDS)
        assert _unseal((magic, records[::-1], crc)) is None
        assert _unseal((magic, records[1:], crc)) is None

    def test_torn_shapes_are_rejected(self):
        magic, records, crc = _seal(RECORDS)
        assert _unseal(("other-magic", records, crc)) is None
        assert _unseal((magic, list(records), crc)) is None
        assert _unseal((magic, records)) is None
        assert _unseal((magic, (("share", 4, 10, 20, 7),), crc)) is None
        assert _unseal(None) is None
        assert MAP_MAGIC == magic
