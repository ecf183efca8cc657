"""Deterministic seed derivation and content digests.

Every random decision in the package flows from one master seed through
``derive_seed``, so a run is reproducible from its config alone.  Trace
simulation inside a pair batch is the one exception: there the per-pair
seed is ``device_seed XOR pair_index``, which keeps pair simulation
order-free (see device.simulate_trace callers).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = [
    "digest_of",
    "derive_seed",
]


def digest_of(obj: Any) -> str:
    """Short stable digest of a JSON-serializable object: the SHA-256 of its
    JSON with sorted keys and no whitespace."""
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def derive_seed(master: int, *tags: Any) -> int:
    """Derive a 63-bit child seed from a master seed and a tag path.

    Stable across processes and platforms: the derivation is a SHA-256
    over the decimal master seed joined with the stringified tags.
    """
    label = "/".join([str(int(master))] + [str(t) for t in tags])
    h = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(h[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF
