"""The docs plane's tier-1 gate: doctests + internal link integrity.

Two rot-prevention mechanisms, both also run by the CI ``docs`` job:

* every runnable example in the documented public-API modules is
  executed as a doctest (the same set CI runs via
  ``pytest --doctest-modules``), so the examples in docstrings cannot
  drift from the code they document;
* every internal markdown link in README.md and ``docs/`` must resolve
  to an existing file (and, for ``#fragments``, an existing heading),
  via :mod:`tools.check_links`.
"""

from __future__ import annotations

import doctest
import importlib.util
from pathlib import Path

import pytest

import repro.core
import repro.core.attacks
import repro.core.metrics
import repro.core.routing
import repro.experiments.faults
import repro.experiments.scenarios
import repro.experiments.store

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documented public-API modules whose examples must stay runnable.
#: Keep in sync with the CI docs job's --doctest-modules file list.
DOCTEST_MODULES = (
    repro.core,
    repro.core.attacks,
    repro.core.metrics,
    repro.core.routing,
    repro.experiments.faults,
    repro.experiments.scenarios,
    repro.experiments.store,
)


@pytest.mark.parametrize(
    "module", DOCTEST_MODULES, ids=lambda m: m.__name__
)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0, f"{results.failed} doctest(s) failed"


def _load_check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_and_docs_links_resolve():
    check_links = _load_check_links()
    files = check_links.default_files(REPO_ROOT)
    assert any(f.name == "README.md" for f in files)
    assert any(f.name == "ARCHITECTURE.md" for f in files), (
        "docs/ARCHITECTURE.md is part of the documented surface"
    )
    errors = [error for path in files for error in check_links.check_file(path)]
    assert not errors, "\n".join(errors)


def test_link_checker_catches_breakage(tmp_path):
    """The checker itself must fail on dangling files and anchors."""
    check_links = _load_check_links()
    target = tmp_path / "real.md"
    target.write_text("# Real Heading\n")
    source = tmp_path / "doc.md"
    source.write_text(
        "[ok](real.md) [ok2](real.md#real-heading) "
        "[gone](missing.md) [bad](real.md#no-such-heading)\n"
    )
    errors = check_links.check_file(source)
    assert len(errors) == 2
    assert any("missing.md" in e for e in errors)
    assert any("no-such-heading" in e for e in errors)


def test_link_checker_catches_unknown_make_target(tmp_path):
    """A ``make`` command in code must name a Makefile target; ``make``
    in prose and variable assignments are not targets."""
    check_links = _load_check_links()
    source = tmp_path / "doc.md"
    source.write_text(
        "Run `make test` or `make bench-pairs PARENT=../p`; make sure of it.\n"
        "```sh\nmake golden\nmake no-such-target  # made up\n```\n"
    )
    errors = check_links.check_file(source)
    assert len(errors) == 1
    assert "make no-such-target" in errors[0]
    assert check_links.make_targets() >= {"test", "golden", "bench-pairs"}


def test_readme_links_architecture_guide():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme
