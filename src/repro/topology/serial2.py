"""CAIDA *serial-2* AS-relationship file format.

The paper's UCLA/Cyclops topology is conventionally distributed in the
CAIDA relationship format::

    # comment lines start with '#'
    <provider-asn>|<customer-asn>|-1
    <peer-asn>|<peer-asn>|0

This module reads and writes that format so that users with access to a
real AS-relationship snapshot (CAIDA serial-2, UCLA Cyclops export) can
run every experiment on it instead of the synthetic graph.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, TextIO

from .graph import ASGraph, graph_from_edges
from .relationships import Relationship


class Serial2FormatError(ValueError):
    """Raised on malformed serial-2 input."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        super().__init__(f"line {line_number}: {reason}: {line!r}")
        self.line_number = line_number
        self.line = line
        self.reason = reason


def parse_serial2(lines: Iterable[str], strict: bool = True) -> ASGraph:
    """Parse serial-2 lines into an :class:`ASGraph`.

    Args:
        lines: an iterable of text lines (a file object works).
        strict: if True, malformed lines, self-loops and duplicate edges
            raise :class:`Serial2FormatError`; if False they are skipped.

    Returns:
        The parsed graph (not preprocessed; see
        :mod:`repro.topology.preprocess`).
    """
    #: unordered pair -> the line's (provider or peer, customer or peer, code)
    edges: dict[tuple[int, int], tuple[int, int, int]] = {}
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 3:
            reason = "expected a|b|rel"
        else:
            try:
                a, c, rel = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                reason = "non-integer field"
            else:
                pair = (a, c) if a < c else (c, a)
                if rel not in (-1, 0):
                    reason = f"unsupported relationship code {rel}"
                elif pair[0] < 0:
                    reason = f"ASN must be a non-negative int, got {(a, c)!r}"
                elif a == c:
                    reason = f"self-loop {a}-{c}"
                elif pair in edges:
                    reason = f"edge {a}-{c} already exists with some annotation"
                else:
                    edges[pair] = (a, c, rel)
                    continue
        if strict:
            raise Serial2FormatError(number, line, reason)
    # serial-2 convention: <provider>|<customer>|-1
    return graph_from_edges(
        [(c, a) for a, c, rel in edges.values() if rel == -1],
        [(a, c) for a, c, rel in edges.values() if rel == 0],
    )


def load_serial2(path: str | Path, strict: bool = True) -> ASGraph:
    """Load a serial-2 file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_serial2(handle, strict=strict)


def write_serial2(graph: ASGraph, out: TextIO, header: str | None = None) -> None:
    """Write ``graph`` in serial-2 format to a text stream."""
    if header:
        for line in header.splitlines():
            out.write(f"# {line}\n")
    for a, b, relationship in graph.edges():
        if relationship is Relationship.PROVIDER:
            out.write(f"{b}|{a}|-1\n")
        else:
            out.write(f"{a}|{b}|0\n")


def dump_serial2(graph: ASGraph, path: str | Path, header: str | None = None) -> None:
    """Write ``graph`` in serial-2 format to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        write_serial2(graph, handle, header=header)


def dumps_serial2(graph: ASGraph, header: str | None = None) -> str:
    """Return the serial-2 text for ``graph``."""
    buffer = io.StringIO()
    write_serial2(graph, buffer, header=header)
    return buffer.getvalue()
