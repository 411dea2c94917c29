"""What is left of the shared-memory arena: fork's copy-on-write
already shares the frozen CSR buffers (``array`` / ``bytearray`` carry
no per-element refcounts), so no segment is ever mapped."""

from __future__ import annotations


# Called by perfbench/layers.py::scheduler_counts (core.shm.arenas_mapped).
def arena_stats() -> dict:
    """Shared-memory segments this process maps: always none."""
    return {"segments": 0}
