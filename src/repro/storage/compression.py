"""Byte compression for stored profiles: stdlib DEFLATE at one fast level.

IPS compresses serialized profiles with Snappy before writing them to the
key-value store (§III-E).  Snappy is a *native* library: its cost is
small next to the KV fetch it follows.  The faithful offline substitute
is therefore the native codec the standard library ships, not a Python
loop — ``zlib`` at a fixed fast level.  ``zlib`` also releases the GIL
while it runs, so a background flush no longer stalls the reads beside it.

A blob is exactly one zlib stream.  :func:`decompress` accepts that and
nothing else: truncation, a flipped byte (adler32), trailing bytes, an
empty blob and arbitrary junk all raise
:class:`~repro.errors.CompressionError`.
"""

from __future__ import annotations

import zlib

from ..errors import CompressionError

#: The one DEFLATE level.  Picked from the sweep in
#: ``benchmarks/bench_ablations.py::test_ablation_compression_level``
#: (192-row e2e profile, 8064 B encoded): level 1 stores 1449 B for 63 us
#: compress / 25 us decompress, level 3 1280 B for 91 us, level 6 1194 B
#: for 242 us.  A flush runs behind reads on the worker's CPU, so the
#: cheapest level wins: the last 18 % of bytes would cost 4x the time.
_LEVEL = 1


def compress(data: bytes) -> bytes:
    """Compress ``data``; round-trips with :func:`decompress`."""
    return zlib.compress(data, _LEVEL)


def decompress(blob: bytes) -> bytes:
    """Inverse of :func:`compress`: one complete stream, nothing after it."""
    decoder = zlib.decompressobj()
    try:
        data = decoder.decompress(blob)
    except zlib.error as error:
        raise CompressionError(f"corrupt compressed stream: {error}") from None
    if not decoder.eof:
        raise CompressionError("truncated compressed stream")
    if decoder.unused_data:
        raise CompressionError(
            f"{len(decoder.unused_data)} trailing bytes after compressed stream"
        )
    return data


def compression_ratio(data: bytes) -> float:
    """Compressed size over original size (1.0 means no gain)."""
    if not data:
        return 1.0
    return len(compress(data)) / len(data)
