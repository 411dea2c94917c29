#!/usr/bin/env python3
"""Check that internal references in README.md and docs/ resolve.

Scans every inline link/image ``[text](target)`` in the repo's
user-facing markdown (README plus everything under ``docs/``), skipping
external schemes (``http(s)://``, ``mailto:``), and every ``make
<target>`` in its code (fenced blocks and inline code spans), and fails
when

* a relative link points at a file that does not exist,
* a ``#fragment`` names a heading that is absent from the target file
  (GitHub's heading-slug rules: lowercase, punctuation stripped, spaces
  become hyphens), or
* a ``make`` command names a target the repo's Makefile does not define.

Used by the CI ``docs`` job and by ``tests/test_docs.py``, so a broken
cross-reference fails tier-1 locally before it ever reaches CI::

    python tools/check_links.py            # check the repo it lives in
    python tools/check_links.py README.md  # or explicit files
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown links/images: [text](target) / ![alt](target).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
#: Fenced code blocks, then inline code spans, of a markdown text.
_FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_SPAN_RE = re.compile(r"`[^`\n]+`")
#: ``make <target>``; a target is not an option (``-C``) or a variable
#: assignment (``PARENT=...``).
_MAKE_RE = re.compile(r"(?<![\w-])make\s+([A-Za-z][\w-]*)(?![\w=-])")
#: A Makefile rule's target (not a ``:=`` assignment or ``.PHONY``).
_TARGET_RE = re.compile(r"^([A-Za-z][\w-]*)\s*:(?!=)", re.MULTILINE)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line."""
    text = re.sub(r"[`*_~]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set[str]:
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for match in _HEADING_RE.finditer(path.read_text(encoding="utf-8")):
        slug = github_slug(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def default_files(root: Path) -> list[Path]:
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("**/*.md"))
    return [f for f in files if f.exists()]


def make_targets(makefile: Path = REPO_ROOT / "Makefile") -> set[str]:
    """The targets ``makefile`` defines rules for."""
    return set(_TARGET_RE.findall(makefile.read_text(encoding="utf-8")))


def code_fragments(text: str) -> list[str]:
    """The fenced code blocks and inline code spans of a markdown text."""
    fences = _FENCE_RE.findall(text)
    return fences + _SPAN_RE.findall(_FENCE_RE.sub("", text))


def check_file(path: Path, targets: set[str] | None = None) -> list[str]:
    """All broken internal references in one markdown file; ``make``
    commands are checked against ``targets`` (the repo Makefile's by
    default)."""
    if targets is None:
        targets = make_targets()
    errors: list[str] = []
    text = path.read_text(encoding="utf-8")
    for code in code_fragments(text):
        for target in _MAKE_RE.findall(code):
            if target not in targets:
                errors.append(f"{path}: `make {target}` (no such Makefile target)")
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("<"):
            continue
        file_part, _, fragment = target.partition("#")
        dest = path if not file_part else (path.parent / file_part).resolve()
        if not dest.exists():
            errors.append(f"{path}: broken link -> {target} (no such file)")
            continue
        if fragment and dest.suffix == ".md":
            if fragment not in heading_slugs(dest):
                errors.append(
                    f"{path}: broken anchor -> {target} "
                    f"(no heading #{fragment} in {dest.name})"
                )
    return errors


def main(argv: list[str]) -> int:
    files = [Path(a).resolve() for a in argv] or default_files(REPO_ROOT)
    targets = make_targets()
    errors: list[str] = []
    for path in files:
        errors.extend(check_file(path, targets))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(files)} markdown file(s): {len(errors)} broken reference(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
