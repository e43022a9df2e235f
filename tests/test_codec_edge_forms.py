"""Targeted coverage of codec edge inputs.

The profile codec has the int64 zigzag corners and the catalog its hash
space.  ``TestCopyForms`` keeps the name of an LZ framing that stdlib
DEFLATE replaced (the tier-1 floor list pins its ids); what it holds is
codec-agnostic round-trip inputs — a repeat 64 KiB back, long constant
runs — that any stored-value codec must survive.  The incompressible
runs of awkward lengths that sat beside it are parametrised inputs of
``test_storage_compression.py::TestRoundTrip`` now.
"""

import pytest

from repro.core.feature import INT64_MAX, INT64_MIN
from repro.storage.compression import compress, decompress

from .test_storage_compression import incompressible


class TestCopyForms:
    @pytest.mark.parametrize("run", [4, 63, 64, 65, 128, 1000])
    def test_copy_split_boundaries(self, run):
        """Two identical runs of a given length, a marker apart."""
        data = b"ABCD" + b"\x00" * run + b"ABCD" + b"\x00" * run
        assert decompress(compress(data)) == data

    def test_maximum_offset_match(self):
        """A repeat 64 KiB back: beyond DEFLATE's 32 KiB window."""
        filler = incompressible(65536 - 8)
        data = b"NEEDLE!!" + filler + b"NEEDLE!!"
        assert decompress(compress(data)) == data

    def test_overlapping_copy_run(self):
        """A constant run compresses to next to nothing."""
        data = b"x" * 5000
        blob = compress(data)
        assert len(blob) < 300
        assert decompress(blob) == data


class TestZigzagCorners:
    def test_int64_extremes_roundtrip_through_profile_codec(self):
        from repro.core.aggregate import get_aggregate
        from repro.core.profile import ProfileData
        from repro.storage.serialization import (
            deserialize_profile,
            serialize_profile,
        )

        profile = ProfileData(1, 1000)
        profile.add(1000, 1, 0, 1, [INT64_MAX, INT64_MIN], get_aggregate("sum"))
        decoded = deserialize_profile(serialize_profile(profile))
        stat = list(decoded.slices[0].features(1, 0))[0]
        assert stat.counts == [INT64_MAX, INT64_MIN]


class TestCatalogCollisions:
    def test_no_collisions_over_many_literals(self):
        """64-bit fids over 50k distinct literals: collisions would be a
        catalog-breaking bug at any realistic corpus size."""
        from repro.catalog import FeatureCatalog

        catalog = FeatureCatalog(salt="collision-check")
        fids = {catalog.fid(f"feature-{index}") for index in range(50_000)}
        assert len(fids) == 50_000

    def test_bucket_space_handles_realistic_slot_counts(self):
        from repro.catalog import FeatureCatalog

        catalog = FeatureCatalog()
        slots = {catalog.slot(f"slot-{index}") for index in range(1000)}
        assert len(slots) == 1000
