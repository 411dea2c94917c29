"""The docs plane's tier-1 gate: doctests + internal link integrity.

Two rot-prevention mechanisms, both also run by the CI ``docs`` job:

* every runnable example in the documented public-API modules is
  executed as a doctest (the same set ``make doctest`` runs via
  ``pytest --doctest-modules``, checked here), so the examples in
  docstrings cannot drift from the code they document;
* every internal markdown link in README.md, ``docs/`` and the verify
  skill must resolve to an existing file (and, for ``#fragments``, an
  existing heading), every backticked ``repro.…`` name, repo path
  and ``make`` target must exist, and every measured number must cite
  the PR that measured it, via :mod:`tools.check_links`.
"""

from __future__ import annotations

import doctest
import importlib.util
import re
import threading
import time
from pathlib import Path

import pytest

import repro.core
import repro.core.attacks
import repro.core.certify
import repro.core.context
import repro.core.jobs
import repro.core.metrics
import repro.experiments.faults
import repro.experiments.registry
import repro.experiments.scenarios
import repro.experiments.store
import repro.topology.graph

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documented public-API modules whose examples must stay runnable:
#: the ``make doctest`` file list, as a test below checks.
DOCTEST_MODULES = (
    repro.core,
    repro.core.attacks,
    repro.core.certify,
    repro.core.context,
    repro.core.jobs,
    repro.core.metrics,
    repro.experiments.faults,
    repro.experiments.registry,
    repro.experiments.scenarios,
    repro.experiments.store,
    repro.topology.graph,
)


@pytest.mark.parametrize(
    "module", DOCTEST_MODULES, ids=lambda m: m.__name__
)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0, f"{results.failed} doctest(s) failed"


def test_doctest_target_lists_the_tested_modules():
    """``make doctest`` (the CI docs job) runs exactly these modules."""
    makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
    recipe = makefile.split("\ndoctest:\n", 1)[1].split("\n\n", 1)[0]
    listed = [
        word for word in recipe.replace("\\", " ").split()
        if word.endswith(".py")
    ]
    assert listed == [
        str(Path(m.__file__).relative_to(REPO_ROOT)) for m in DOCTEST_MODULES
    ]


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_check_links():
    return _load_tool("check_links")


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


def test_link_checker_catches_unknown_names_and_paths(tmp_path):
    """A backticked ``repro.…`` name must import and a backticked repo
    path must exist (with its ``:line`` or ``::name``); other spans,
    fenced code and prose are not references."""
    check_links = _load_check_links()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(
        "class TestA:\n    def test_b(self):\n        pass\n"
    )
    source = tmp_path / "doc.md"
    source.write_text(
        "`repro.core.RoutingContext` `repro.experiments.runner` "
        "`repro.core.NoSuchThing` `repro.nowhere` `repro.*` prose repro.gone\n"
        "`tests/test_x.py` `tests/test_x.py:3` `tests/test_x.py::TestA::test_b` "
        "`tests/*.py -q` `tests/` `tests/test_gone.py` `tests/test_x.py:99` "
        "`tests/test_x.py::TestZ` `docs/none/`\n"
        "```sh\npython tests/fenced_only.py  # code, not a span\n```\n"
    )
    errors = check_links.check_file(source, root=tmp_path)
    assert len(errors) == 6, errors
    for broken in (
        "repro.core.NoSuchThing", "repro.nowhere", "tests/test_gone.py",
        "tests/test_x.py:99", "TestZ", "docs/none/",
    ):
        assert sum(broken in e for e in errors) == 1, broken


def test_link_checker_catches_stale_roadmap_citations(tmp_path):
    """A "ROADMAP item N" in code or docs must name an open item (and a
    lettered part one that item has); ROADMAP's closed or recent items
    and ``perfbench/`` do not count."""
    check_links = _load_check_links()
    (tmp_path / "ROADMAP.md").write_text(
        "# Roadmap\n\n## Open items\n\n1. **One.**\n\n2. **Two.** (a) part\n\n"
        "## Recent\n\n5. **Done.**\n"
    )
    cite = "ROADMAP" + " item"  # split, so this file cites nothing itself
    for path, text in {
        "src/pkg/a.py": f'"""{cite} 1, {cite} 2a and {cite} 3."""\n',
        "tests/test_a.py": f"# {cite} 5\n",
        "tools/t.py": f"# {cite} 2b\n",
        "docs/d.md": f"{cite}\n1 is open\n",
        "Makefile": f"## {cite} 12\n",
        "perfbench/p.py": f"# {cite} 9\n",
    }.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
    errors = check_links.check_citations(tmp_path)
    assert len(errors) == 4, errors
    for stale in ("item 3'", "item 5'", "item 2b'", "item 12'"):
        assert sum(stale in e for e in errors) == 1, stale
    assert check_links.check_citations() == []


def test_verify_skill_is_checked():
    files = _load_check_links().default_files(REPO_ROOT)
    assert REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md" in files


def test_readme_links_architecture_guide():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme


def test_mutants_still_patch_the_tree_and_the_table_lists_them():
    """Every mutant of ``tools/mutants.py`` finds its ``before`` text
    exactly once in its file, and ``tests/MUTANTS.md`` lists exactly
    those mutants, in order: a refactor that moves a mutated line, or
    a new mutant, fails here instead of turning the table stale."""
    mutants = _load_tool("mutants")
    assert mutants.stale(REPO_ROOT) == []
    table = (REPO_ROOT / mutants.TABLE).read_text(encoding="utf-8")
    listed = re.findall(r"^\| `(\w+)` \| `src/", table, re.M)
    assert listed == [m.name for m in mutants.MUTANTS]


def test_link_checker_catches_unsourced_measurements(tmp_path):
    """A number with a unit must cite, in its own sentence, a PR that
    has a CHANGES.md entry; code spans and fenced blocks are code."""
    check_links = _load_check_links()
    (tmp_path / "CHANGES.md").write_text("PR 46: the change.\n")
    cases = {
        "A pass takes 12 ms at 80k.\n": ["'12 ms'"],
        "A pass takes 12 ms at 80k (PR 46).\n": [],
        "A pass takes 12 ms at 80k. Measured in\nPR 46).\n": ["'12 ms'"],
        "A pass takes `12 ms` at 80k.\n\n```sh\nsleep 12 s\n```\n": [],
        "A pass takes 12 ms (PR 999).\n": ["'PR 999'"],
        "- 61–68 ms, then 1.2 → 0.9 s and 0.73x\n- (PR 46)\n": [
            "'61–68 ms'", "'1.2 → 0.9 s'", "'0.73x'",
        ],
        "| 3 MB | PR 46 |\n| 5 % | |\n": ["'5 %'"],
        "Seeds 7 and 2013, 6.4×10⁹ pairs, fig7a's 57 steps.\n": [],
    }
    for text, expected in cases.items():
        source = tmp_path / "doc.md"
        source.write_text(text)
        errors = check_links.check_file(source, root=tmp_path)
        assert len(errors) == len(expected), (text, errors)
        for error, found in zip(errors, expected):
            assert found in error, (text, error)
    source.write_text("One line.\n\nA pass\ntakes 12 ms.\n")
    assert check_links.check_file(source, root=tmp_path)[0].startswith(
        f"{source}:4: unsourced measurement '12 ms'"
    )


def test_architecture_guide_stays_short():
    lines = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    assert len(lines.splitlines()) <= 600


def test_mutants_stop_on_a_failing_unmutated_run(monkeypatch, capsys):
    """A failing unmutated tier-1 is named at once, the mutant in flight
    is stopped, no mutant starts after it, and its tests are rerun
    alone to tell a flake."""
    mutants = _load_tool("mutants")
    calls = []
    failing = {"tests/test_a.py::test_flaky", "tests/test_b.py::test_broken"}

    def kills(tree, mutant, stop=None):
        calls.append(mutant)
        if mutant is None:
            time.sleep(0.2)  # a mutant's run outlasts the unmutated one
            return set(failing)
        assert stop.wait(30), "the mutant in flight was not stopped"
        return set()

    monkeypatch.setattr(mutants, "_copy", lambda root, dest: dest.mkdir())
    monkeypatch.setattr(mutants, "_kills", kills)
    monkeypatch.setattr(
        mutants, "_failing", lambda tree, nodeids: {"tests/test_b.py::test_broken"}
    )
    with pytest.raises(SystemExit) as exit_:
        mutants.run(REPO_ROOT)
    assert len(calls) <= mutants.AT_ONCE
    message = str(exit_.value.code)
    assert "tests/test_a.py::test_flaky (passed)" in message
    assert "tests/test_b.py::test_broken (fails again)" in message
    printed = capsys.readouterr().out
    assert all(nodeid in printed for nodeid in failing)


def test_mutants_stopped_run_ends_its_session(tmp_path):
    """A tier-1 run is polled: setting its stop event kills it (and
    whatever it started) within a poll, not when it ends."""
    mutants = _load_tool("mutants")
    (tmp_path / "test_sleeps.py").write_text(
        "import time\n\n\ndef test_sleeps():\n    time.sleep(120)\n"
    )
    (tmp_path / f"{mutants._PLUGIN_NAME}.py").write_text(mutants._PLUGIN)
    stop = threading.Event()
    timer = threading.Timer(1.0, stop.set)
    started = time.monotonic()
    timer.start()
    try:
        assert mutants._failing(tmp_path, stop=stop) == set()
    finally:
        timer.cancel()
    assert time.monotonic() - started < 1.0 + 10 * mutants.POLL_S
