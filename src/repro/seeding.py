"""Stable 32-bit seeds for independent random streams.

Unlike ``hash``, which ``PYTHONHASHSEED`` randomizes, crc32 is stable
across processes and Python versions, so a run replays byte-for-byte
from its seed.  Key strings are part of that contract: changing one
moves every golden built on the stream.  Imports nothing from the
package, so any layer can use it.
"""

from __future__ import annotations

import zlib

__all__ = ["stream_seed"]


def stream_seed(*parts: object) -> int:
    """The seed of the stream keyed ``"p0:p1:…"``.

    ``stream_seed(7, "boot", "synthesis", 0)`` is
    ``zlib.crc32(b"7:boot:synthesis:0")``.
    """
    return zlib.crc32(":".join(map(str, parts)).encode())
