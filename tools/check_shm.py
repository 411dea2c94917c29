#!/usr/bin/env python
"""Fail if ``/dev/shm`` holds a ``repro-*`` entry.

Nothing in the repository creates one any more (fork's copy-on-write
shares the frozen buffers); this stays because
``perfbench/test_bench_layered.py::test_nothing_is_left_behind`` runs it.

Exit status: 0 when ``/dev/shm`` is clean (or absent on this platform),
1 when such entries exist.
"""

from __future__ import annotations

import os
import sys

_SHM_DIR = "/dev/shm"


def main() -> int:
    if not os.path.isdir(_SHM_DIR):
        return 0
    leaked = sorted(
        entry for entry in os.listdir(_SHM_DIR) if entry.startswith("repro-")
    )
    if leaked:
        print(f"FAIL: repro-* entries in {_SHM_DIR}: {leaked}", file=sys.stderr)
        return 1
    print(f"OK: no repro-* entries in {_SHM_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
