#!/usr/bin/env python3
"""Check that internal references in README.md and docs/ resolve, and
that every measured number there cites the PR that measured it.

Scans the repo's user-facing markdown (README, everything under
``docs/`` and the verify skill's notes) and fails when

* a relative link ``[text](target)`` points at a file that does not
  exist (external schemes such as ``http(s)://`` are skipped),
* a ``#fragment`` names a heading that is absent from the target file
  (GitHub's heading-slug rules: lowercase, punctuation stripped, spaces
  become hyphens),
* a ``make`` command in code (fenced blocks and inline code spans) names
  a target the repo's Makefile does not define,
* an inline code span that is a dotted ``repro.…`` name does not import
  (a module, or an attribute of one), or
* an inline code span that starts with a repo path (under ``src/``,
  ``tests/``, ``tools/``, ``docs/``, ``examples/`` or ``benchmarks/``)
  names nothing: no such file or directory (a glob must match one), a
  ``:line`` past the file's end, or a ``::name`` the file defines no
  ``def`` or ``class`` for.

A measured number — a number followed by a unit (``ns``, ``µs``,
``us``, ``ms``, ``s``, ``min``, ``KB``, ``MB``, ``GB``, ``MiB``,
``GiB``, ``%``) or with ``x`` / ``×`` attached (``0.73x``), ranges
(``61–68 ms``) and arrows (``1.2 → 0.9 s``) included — must cite the
PR that measured it: its sentence (ended by ``.``, ``!`` or ``?`` and
whitespace, or by the end of its paragraph, list item or table row)
holds a "PR N", and every "PR N" must have a CHANGES.md entry, a line
starting with it.  Fenced blocks and inline code spans are code, not
measurements.

It also fails on a "ROADMAP item N" (or "item Na", a lettered part) in
the ``.py`` and ``.md`` files under ``src/``, ``tests/``, ``tools/`` and
``docs/``, the Makefile or README whose N is not an open item of
``ROADMAP.md`` (or whose item has no "(a)" part).

Used by the CI ``docs`` job and by ``tests/test_docs.py``, so a broken
cross-reference or an unsourced number fails tier-1 locally before it
ever reaches CI::

    python tools/check_links.py            # check the repo it lives in
    python tools/check_links.py README.md  # or explicit files
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown links/images: [text](target) / ![alt](target).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
#: Fenced code blocks, then inline code spans, of a markdown text.
_FENCE_RE = re.compile(r"^[ \t]*```.*?^[ \t]*```", re.MULTILINE | re.DOTALL)
_SPAN_RE = re.compile(r"`[^`\n]+`")
#: ``make <target>``; a target is not an option (``-C``) or a variable
#: assignment (``PARENT=...``).
_MAKE_RE = re.compile(r"(?<![\w-])make\s+([A-Za-z][\w-]*)(?![\w=-])")
#: A Makefile rule's target (not a ``:=`` assignment or ``.PHONY``).
_TARGET_RE = re.compile(r"^([A-Za-z][\w-]*)\s*:(?!=)", re.MULTILINE)
#: An inline code span that is a dotted ``repro.…`` name.
_NAME_RE = re.compile(r"`(repro(?:\.\w+)+)`")
#: An inline code span that starts with a repo path: the path, then an
#: optional ``:line`` or ``::name[::name]`` suffix, then the end of the
#: span or a space (arguments follow).
_PATH_RE = re.compile(
    r"`((?:src|tests|tools|docs|examples|benchmarks)/[^\s:`]*)"
    r"(?::(\d+)|((?:::\w+)+))?(?=[\s`])"
)
#: A measured number: a number (``1 504`` style thousands allowed), a
#: range or arrow chain of them, then a unit; or a ratio, ``x`` or
#: ``×`` attached to the number.
_NUM = r"\d+(?: \d{3}(?!\d))*(?:\.\d+)?"
_MEASURE_RE = re.compile(
    rf"(?<![\w.]){_NUM}(?:\s*(?:[–-]|→|->)\s*{_NUM})*"
    r"(?:\s?(?:ns|µs|us|ms|s|min|KB|MB|GB|MiB|GiB)(?!\w)|\s?%|[x×](?!\w))"
)
#: A cited PR, and a CHANGES.md entry's first word.
_PR_RE = re.compile(r"\bPR (\d+)\b")
_ENTRY_RE = re.compile(r"^PR (\d+)\b", re.MULTILINE)
#: Where a sentence ends inside a block, and the lines that start one.
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s)")
_BLOCK_START_RE = re.compile(r"\s*(?:[-*+]|\d+\.)\s|\s*[|#]")
#: A citation of a roadmap item, and an open item's first line.
_CITE_RE = re.compile(r"ROADMAP\s+item\s+(\d+)([a-z]?)\b")
_ITEM_RE = re.compile(r"^(\d+)\. \*\*", re.MULTILINE)


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
    files.append(root / ".claude" / "skills" / "verify" / "SKILL.md")
    return [f for f in files if f.exists()]


def make_targets(makefile: Path = REPO_ROOT / "Makefile") -> set[str]:
    """The targets ``makefile`` defines rules for."""
    return set(_TARGET_RE.findall(makefile.read_text(encoding="utf-8")))


def code_fragments(text: str) -> list[str]:
    """The fenced code blocks and inline code spans of a markdown text."""
    return _FENCE_RE.findall(text) + inline_spans(text)


def inline_spans(text: str) -> list[str]:
    """The inline code spans (backticks included) outside fenced blocks."""
    return _SPAN_RE.findall(_FENCE_RE.sub("", text))


def mask_code(text: str) -> str:
    """``text`` with every fenced block blanked and every inline code
    span filled with ``_``, offsets and line breaks kept."""
    text = _FENCE_RE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
    return _SPAN_RE.sub(lambda m: "_" * len(m.group(0)), text)


def sentences(text: str):
    """``(offset, sentence)`` for each sentence of a code-masked text: a
    blank line, a list item, a table row or a heading starts a block,
    and a block splits after ``.``, ``!`` or ``?`` and whitespace."""
    blocks: list[list[int]] = []
    offset, joins = 0, False
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped and joins and not _BLOCK_START_RE.match(line):
            blocks[-1][1] = offset + len(line)
        elif stripped:
            blocks.append([offset, offset + len(line)])
        joins = bool(stripped) and stripped[0] not in "|#"
        offset += len(line)
    for start, end in blocks:
        cut = start
        for stop in _SENTENCE_END_RE.finditer(text, start, end):
            yield cut, text[cut : stop.end()]
            cut = stop.end()
        yield cut, text[cut:end]


def changes_entries(root: Path = REPO_ROOT) -> set[str]:
    """The PR numbers with an entry in ``root``'s CHANGES.md."""
    changes = root / "CHANGES.md"
    if not changes.exists():
        return set()
    return set(_ENTRY_RE.findall(changes.read_text(encoding="utf-8")))


def check_sources(path: Path, text: str, root: Path = REPO_ROOT) -> list[str]:
    """Every measured number of ``text`` whose sentence cites no PR, and
    every cited PR with no CHANGES.md entry."""
    entries = changes_entries(root)
    masked = mask_code(text)
    errors: list[str] = []
    for offset, sentence in sentences(masked):
        line = masked.count("\n", 0, offset) + 1
        cited = _PR_RE.findall(sentence)
        for number in cited:
            if number not in entries:
                errors.append(f"{path}:{line}: 'PR {number}' (no CHANGES.md entry)")
        if cited:
            continue
        for match in _MEASURE_RE.finditer(sentence):
            at = line + sentence.count("\n", 0, match.start())
            errors.append(
                f"{path}:{at}: unsourced measurement {match.group(0)!r} "
                "(cite the PR that measured it, or delete it)"
            )
    return errors


def name_resolves(dotted: str) -> bool:
    """Whether ``dotted`` is an importable module or an attribute path
    under the longest importable prefix (imports from ``src/``)."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(found, attr):
                return False
            found = getattr(found, attr)
        return True
    return False


def path_resolves(
    root: Path, path: str, line: str | None = None, names: str | None = None
) -> bool:
    """Whether a repo path (glob allowed) exists under ``root``, with
    at least ``line`` lines, defining every ``::name`` of ``names``."""
    if any(ch in path for ch in "*?["):
        return any(root.glob(path))
    target = root / path
    if not target.exists():
        return False
    if line is None and names is None:
        return True
    if not target.is_file():
        return False
    text = target.read_text(encoding="utf-8")
    if line is not None:
        return int(line) <= len(text.splitlines())
    return all(
        re.search(rf"^\s*(?:async\s+)?(?:def|class)\s+{name}\b", text, re.M)
        for name in names.split("::")[1:]
    )


def open_items(roadmap: Path) -> dict[str, str]:
    """``roadmap``'s open items: number -> the item's text."""
    text = roadmap.read_text(encoding="utf-8")
    section = text.partition("\n## Open items")[2].partition("\n## ")[0]
    parts = _ITEM_RE.split(section)
    return dict(zip(parts[1::2], parts[2::2]))


def check_citations(root: Path = REPO_ROOT) -> list[str]:
    """Every "ROADMAP item N" under ``root`` (``perfbench/`` left out)
    that names no open item of ``root``'s ``ROADMAP.md``."""
    items = open_items(root / "ROADMAP.md")
    files = [root / "Makefile", root / "README.md"] + sorted(
        path
        for top in ("src", "tests", "tools", "docs")
        for path in (root / top).rglob("*")
        if path.suffix in (".py", ".md")
    )
    errors: list[str] = []
    for path in files:
        if not path.is_file():
            continue
        for match in _CITE_RE.finditer(path.read_text(encoding="utf-8")):
            number, part = match.groups()
            if number not in items or (part and f"({part})" not in items[number]):
                errors.append(f"{path}: {match.group(0)!r} (no such open ROADMAP item)")
    return errors


def check_file(
    path: Path, targets: set[str] | None = None, root: Path = REPO_ROOT
) -> list[str]:
    """All broken internal references and unsourced measurements in one
    markdown file; ``make`` commands are checked against ``targets``
    (the repo Makefile's by default), repo paths and cited PRs against
    ``root``."""
    if targets is None:
        targets = make_targets()
    errors: list[str] = []
    text = path.read_text(encoding="utf-8")
    for code in code_fragments(text):
        for target in _MAKE_RE.findall(code):
            if target not in targets:
                errors.append(f"{path}: `make {target}` (no such Makefile target)")
    for span in inline_spans(text):
        name = _NAME_RE.fullmatch(span)
        if name and not name_resolves(name.group(1)):
            errors.append(f"{path}: {span} (no such module or attribute)")
        repo_path = _PATH_RE.match(span)
        if repo_path and not path_resolves(root, *repo_path.groups()):
            errors.append(f"{path}: {span} (no such path, line or name)")
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
    return errors + check_sources(path, text, root)


def main(argv: list[str]) -> int:
    files = [Path(a).resolve() for a in argv] or default_files(REPO_ROOT)
    targets = make_targets()
    errors: list[str] = []
    for path in files:
        errors.extend(check_file(path, targets))
    errors.extend(check_citations())
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(files)} markdown file(s): {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
