#!/usr/bin/env python3
"""The mutant-kill table of tier-1: which tests catch which fault.

Each mutant below is one hand-written fault in a load-bearing source
line, an exact ``before → after`` string patch on one file.  The tool
copies the tree to a scratch directory (never patching the tree it
reads), runs the unmutated tier-1 collection there once (every test
must pass: a failure is printed as it lands, the mutant in flight is
stopped, no mutant starts after it, and the failing tests are rerun
alone), then each mutant alone: patch, ``python -m pytest -q``
(no ``-x``), restore.  A test *kills* a mutant when it fails under the
patch and fails again when the failures are rerun alone, so a flaky
test cannot enter the table.  The result is ``tests/MUTANTS.md``,
grouped by test file and class; a mutant no test kills is a missing
test.

    python tools/mutants.py              # rewrite tests/MUTANTS.md
    python tools/mutants.py --check      # exit 1 if a mutant survives or
                                         # the table is stale
    python tools/mutants.py --root DIR   # mutate another checkout
    python tools/mutants.py --json PATH  # also write the failing node ids

Two mutants run at once, each in its own copy under ``TMPDIR``; one
mutant costs about one tier-1 run.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
TABLE = Path("tests/MUTANTS.md")
#: a mutant that hangs the suite counts as killed by this pseudo-test
TIMEOUT_NODE = "(tier-1 timed out)"
TIMEOUT_S = 3600
#: how often a running tier-1 checks whether the sweep was stopped
POLL_S = 1.0
#: mutants run at once: a tier-1 run is mostly one busy process
AT_ONCE = 2
#: the tier-1 check that every ``before`` text is in the tree: any
#: patch trips it, so it is left out of every run
GUARD = (
    "tests/test_docs.py::"
    "test_mutants_still_patch_the_tree_and_the_table_lists_them"
)


class Mutant(NamedTuple):
    name: str
    path: str
    before: str
    after: str
    why: str


FIXING = "src/repro/core/fixing.py"
JOBS = "src/repro/core/jobs.py"
OUTCOME = "src/repro/core/outcome.py"

MUTANTS = (
    # -- the kernel's rank key (_np_key_fn) -------------------------------
    Mutant(
        "key_third_prefers_insecure", FIXING,
        "ln * mid + (1 - sec)",
        "ln * mid + sec",
        "security 3rd's tiebreak prefers the insecure route",
    ),
    Mutant(
        "key_lpk_window_off_by_one", FIXING,
        "capped = np.minimum(ln, k + 1)",
        "capped = np.minimum(ln, k)",
        "LPk's peer window is one hop short",
    ),
    # -- the kernel's roots (_seed_roots) ---------------------------------
    Mutant(
        "root_dest_wire_unset", FIXING,
        "wire_s[dest] = sec_s[dest] = sign_np[dest]",
        "sec_s[dest] = sign_np[dest]",
        "a signing destination announces without its security bit",
    ),
    Mutant(
        "root_attacker_scope_ignored", FIXING,
        "groups.setdefault((a.export_all, a.length), [])",
        "groups.setdefault((True, a.length), [])",
        "a customers-only attacker announces to every neighbour",
    ),
    # -- the kernel's relaxation and bucket loop (_run_np) ----------------
    Mutant(
        "relax_ignores_gr2", FIXING,
        "s = start[u] if exports_all else cust_start[u]",
        "s = start[u]",
        "export rule GR2: peer and provider routes go to every neighbour",
    ),
    Mutant(
        "relax_tie_wire_max", FIXING,
        "np.minimum.at(wire_s, tv, wi[tie])",
        "np.maximum.at(wire_s, tv, wi[tie])",
        "a tie keeps the security attribute of any offer, not of all",
    ),
    Mutant(
        "relax_choice_not_reset", FIXING,
        "            if state:\n                chacc[iv] = n\n",
        "",
        "a strict improvement keeps the old lowest tying offerer",
    ),
    Mutant(
        "sec_bit_from_signing", FIXING,
        "sec_s[B] = w & rank_np[B]",
        "sec_s[B] = w & sign_np[B]",
        "a simplex AS counts its route as secure",
    ),
    Mutant(
        "count_swaps_happy_bounds", FIXING,
        "(lo, lo + b, alo, alo + b, s, nfx)",
        "(lo + b, lo, alo, alo + b, s, nfx)",
        "happy lower and upper bound swapped in the counts",
    ),
    Mutant(
        "rows_share_first_masks", FIXING,
        "np.concatenate([np.frombuffer(row[c], np.int8) for row in rows])",
        "np.concatenate([np.frombuffer(rows[0][c], np.int8) for row in rows])",
        "every row of a K-row call reads the first row's deployment",
    ),
    # -- the graph's CSR and the kernel's scratch -------------------------
    Mutant(
        "csr_peering_one_way", "src/repro/topology/graph.py",
        "(left, 1, right), (right, 1, left), ",
        "(left, 1, right), ",
        "graph_from_edges lists a peering in one of its two rows only",
    ),
    Mutant(
        "row_layout_customers_from_peers", "src/repro/topology/graph.py",
        "        peer_start + counts[:, 1],\n",
        "        peer_start,\n",
        "a row's customer tail (cust_start) starts at its peers",
    ),
    Mutant(
        "component_count_misses_edgeless_ases", "src/repro/topology/graph.py",
        "return int(np.count_nonzero(label == np.arange(len(label))))",
        "return len(np.unique(label[self.adj_node]))",
        "component_count counts the components its slots reach: an AS "
        "with no edge goes uncounted",
    ),
    # -- the generator's weighted draw ------------------------------------
    Mutant(
        "weighted_find_bisect_left", "src/repro/topology/generate.py",
        "if nxt <= size and below + tree[nxt] <= x:",
        "if nxt <= size and below + tree[nxt] < x:",
        "a weight-tree draw on a cumulative weight takes that member "
        "(bisect_left), not the next",
    ),
    Mutant(
        "scratch_one_row_count_writes_state", "src/repro/core/context.py",
        "        if state:\n            if self._np_scratch is None:",
        "        if state or rows == 1:\n            if self._np_scratch is None:",
        "a one-row count call computes in the state call's scratch",
    ),
    # -- state decoding (outcome.py) --------------------------------------
    Mutant(
        "one_next_hop", OUTCOME,
        "nhops[v] = us_list[a:b]",
        "nhops[v] = us_list[a : a + 1]",
        "a decoded BPR set keeps only its first next hop",
    ),
    Mutant(
        "nhop_pairs_sorted_by_sender", OUTCOME,
        "order = np.argsort(vs * ctx.n + us)",
        "order = np.argsort(us * ctx.n + vs)",
        "next-hop membership pairs sorted by sender, not receiver",
    ),
    Mutant(
        "decode_endpoint_is_reach", OUTCOME,
        'u8("wire"), u8("sec"), st["choice"].tolist(), u8("endp"), nhops,',
        'u8("wire"), u8("sec"), st["choice"].tolist(), u8("reach"), nhops,',
        "the tiebroken endpoint decodes as the BPR reach set",
    ),
    Mutant(
        "cro_skips_resolve", OUTCOME,
        "state = fixing._run(ctx, dest_i, att_i, signing, ranking, model, resolved)",
        "state = fixing._run(ctx, dest_i, att_i, signing, ranking, model)",
        "compute_routing_outcome runs the default attack, not the resolved one",
    ),
    Mutant(
        "batch_first_resolved", OUTCOME,
        "    ctx = _as_context(topology)\n    return [\n"
        "        compute_routing_outcome(ctx, d, m, deployment, model, attack)\n"
        "        for m, d in pairs\n    ]\n",
        "    ctx = _as_context(topology)\n"
        "    deployment = deployment or _EMPTY_DEPLOYMENT\n"
        "    signing, ranking = ctx.deployment_masks(deployment)\n"
        "    out, resolved = [], None\n"
        "    for m, d in pairs:\n"
        "        dest_i, att_i = ctx._check_pair(d, m)\n"
        "        if resolved is None or att_i < 0:\n"
        "            resolved = fixing._resolve_attack(\n"
        "                ctx, dest_i, att_i, signing, ranking, model, attack\n"
        "            )\n"
        "        state = fixing._run(\n"
        "            ctx, dest_i, att_i, signing, ranking, model, resolved\n"
        "        )\n"
        "        out.append(\n"
        "            RoutingOutcome(d, m, deployment, model, attack, ctx, state)\n"
        "        )\n"
        "    return out\n",
        "batch_outcomes reuses the first pair's resolved attack",
    ),
    # -- the count path's pass plan (jobs.py) -----------------------------
    Mutant(
        "blind_skips_signed_destination", JOBS,
        "signing[dest_i] or (att_i >= 0 and resolved.active and resolved.wire)",
        "(att_i >= 0 and resolved.active and resolved.wire)",
        "a signing destination's pass runs as a blind row",
    ),
    Mutant(
        "blind_ignores_attacker_wire", JOBS,
        "signing[dest_i] or (att_i >= 0 and resolved.active and resolved.wire)",
        "signing[dest_i]",
        "a signed attacker claim about an unsigned destination runs blind",
    ),
    Mutant(
        "blind_drops_local_preference", JOBS,
        "RankModel(SecurityModel.BASELINE, model.local_preference)",
        "RankModel(SecurityModel.BASELINE)",
        "a blind row ranks with the default local preference, not the model's",
    ),
    Mutant(
        "blind_key_drops_resolved_attack", JOBS,
        "kernel_model, key = blind_model, (dest_i, att_i, resolved)",
        "kernel_model, key = blind_model, (dest_i, att_i)",
        "blind rows of different resolved attacks share one pass",
    ),
    Mutant(
        "honest_stale_baseline", JOBS,
        "if free_of != (dest_i, deployment):",
        "if free is None:",
        "an honest attacker resolves from the first (d, S)'s baseline",
    ),
    Mutant(
        "check_nested_full_only", JOBS,
        "if not old.is_nested_in(new):",
        "if not Deployment(full=old.full_asns).is_nested_in(new):",
        "a chain step may drop a simplex member",
    ),
    Mutant(
        "sweep_baseline_views", JOBS,
        'name: free.arrays[name].copy() for name in ("fixed", "len", "wire")',
        'name: free.arrays[name] for name in ("fixed", "len", "wire")',
        "DestinationSweep keeps views of the scratch as its baseline",
    ),
    # -- deployments ------------------------------------------------------
    Mutant(
        "simplex_guard_skipped", "src/repro/core/context.py",
        "        if not len(deployment.simplex_asns):\n            return\n"
        "        checked = self._stub_simplex_ok",
        "        return\n        checked = self._stub_simplex_ok",
        "a transit simplex member is accepted (two stable states)",
    ),
    Mutant(
        "is_nested_strict_full", "src/repro/core/deployment.py",
        "return _subset(self.full_asns, other.full_asns) and _subset(",
        "return len(self.full_asns) < len(other.full_asns) and _subset(\n"
        "            self.full_asns, other.full_asns) and _subset(",
        "a step that keeps the full set is not nested",
    ),
    # -- dense indices ----------------------------------------------------
    Mutant(
        "indices_skips_membership_check", "src/repro/topology/graph.py",
        "        return np.where(found, at, -1)",
        "        return at",
        "an ASN not in the graph maps to its insertion point, not -1",
    ),
    Mutant(
        "tier_code_shifted", "src/repro/topology/tiers.py",
        "t: np.flatnonzero(self.code == k).astype(np.int32)",
        "t: np.flatnonzero(self.code == k + 1).astype(np.int32)",
        "each tier's members are the next tier's",
    ),
    # -- the partitions (Appendix E) --------------------------------------
    Mutant(
        "safe_length_tie", "src/repro/core/perceivable.py",
        "dsafe[v] = np.where(sl < ml, dl + 1, _FAR)",
        "dsafe[v] = np.where(sl <= ml, dl + 1, _FAR)",
        "a route to d as short as one to m counts as safe (immune)",
    ),
    Mutant(
        "second_class_filter_dropped", "src/repro/core/perceivable.py",
        "admit = np.asarray(route_class) == np.arange(3)[:, None]",
        "admit = np.ones((3, n), np.bool_)",
        "security 2nd admits every AS to every class, not its S = ∅ one",
    ),
    # -- the scenario plane, store and scheduler --------------------------
    Mutant(
        "canonical_json_sorted", "src/repro/experiments/scenarios.py",
        "keys = sorted(fields) if sort_keys else fields",
        "keys = sorted(fields)",
        "canonical_json always sorts its keys, moving every scenario hash",
    ),
    Mutant(
        "cut_bins_short_piece", "src/repro/experiments/scenarios.py",
        "piece = group[at : at + per_piece]",
        "piece = group[at : at + per_piece - 1]",
        "a split destination group loses its last pair per piece",
    ),
    Mutant(
        "store_skips_crc", "src/repro/experiments/store.py",
        "    if crc is not None and crc != _record_crc(record):\n"
        "        # The CRC32 trailer",
        "    if False:\n        # The CRC32 trailer",
        "the shared decoder passes a record whose CRC disagrees",
    ),
    Mutant(
        "store_no_fallback", "src/repro/experiments/store.py",
        "                return record\n        if stored:",
        "                return record\n            break\n        if stored:",
        "a read stops at the newest stored record even if it does not decode",
    ),
    Mutant(
        "retry_ignores_backoff", "src/repro/experiments/runner.py",
        "shard.not_before = time.monotonic() + self._policy.backoff * (",
        "shard.not_before = time.monotonic() + 0 * (",
        "a failed shard is re-dispatched at once, not after its backoff",
    ),
    Mutant(
        "collect_scatter_shifted", "src/repro/experiments/runner.py",
        "for i, triple in zip(idxs, counts):",
        "for i, triple in zip(idxs[1:] + idxs[:1], counts):",
        "a bin's counts are scattered one pair off",
    ),
)

#: written into each scratch copy and loaded with ``-p``: records the
#: node id of every failed test or collection, one a line
_PLUGIN = '''\
import os

_failed = []


def pytest_runtest_logreport(report):
    if report.failed:
        _failed.append(report.nodeid)


def pytest_collectreport(report):
    if report.failed:
        _failed.append(report.nodeid)


def pytest_sessionfinish(session):
    with open(os.environ["MUTANTS_FAILED"], "w") as out:
        out.write("".join(f"{nodeid}\\n" for nodeid in dict.fromkeys(_failed)))
'''
_PLUGIN_NAME = "_mutants_plugin"
_SKIP = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".repro-cache"}


def _copy(root: Path, dest: Path) -> None:
    shutil.copytree(root, dest, ignore=lambda _d, names: _SKIP & set(names))
    (dest / f"{_PLUGIN_NAME}.py").write_text(_PLUGIN)


def _failing(
    tree: Path, nodeids=(), stop: threading.Event | None = None
) -> set[str]:
    """Node ids that fail in tier-1 on ``tree`` (or among ``nodeids``);
    none if ``stop`` is set first, which ends the run."""
    report = tree / ".mutants-failed"
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH="src", MUTANTS_FAILED=str(report))
    pytest = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", _PLUGIN_NAME, "--continue-on-collection-errors",
         "--deselect", GUARD, *nodeids],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True,
    )
    stop = stop or threading.Event()
    deadline = time.monotonic() + TIMEOUT_S
    try:
        while pytest.poll() is None:
            if stop.wait(POLL_S):
                return set()
            if time.monotonic() > deadline:
                return {TIMEOUT_NODE}
    finally:
        # a test that fails under a mutant can leave its own subprocesses
        # (a server, pool workers) running: end the whole session
        try:
            os.killpg(pytest.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if not report.exists():
        return {"(pytest did not finish)"}
    return set(report.read_text().splitlines())


def _kills(
    tree: Path, mutant: Mutant | None, stop: threading.Event | None = None
) -> set[str]:
    """The tests that kill ``mutant`` (None: that fail unmutated); none
    if ``stop`` is set first."""
    if mutant is None:
        return _failing(tree)
    target = tree / mutant.path
    source = target.read_text(encoding="utf-8")
    target.write_text(source.replace(mutant.before, mutant.after), encoding="utf-8")
    try:
        first = _failing(tree, stop=stop)
        if not first or any(nodeid.startswith("(") for nodeid in first):
            return first  # nothing to rerun, or no node ids to rerun by
        return first & _failing(tree, sorted(first), stop)
    finally:
        target.write_text(source, encoding="utf-8")


def stale(root: Path) -> list[str]:
    """Mutants whose ``before`` text is not exactly once in its file."""
    errors = []
    for m in MUTANTS:
        count = (root / m.path).read_text(encoding="utf-8").count(m.before)
        if count != 1:
            errors.append(f"{m.name}: {m.path} holds its before-text {count} times")
    return errors


def run(root: Path) -> dict[str, set[str]]:
    """``{mutant name: killing node ids}``, after an unmutated run on
    the same copies has passed.  An unmutated failure is printed as it
    lands, the mutant in flight is stopped (its session killed), every
    mutant not yet started is skipped, and the failing tests are rerun
    alone to tell a flake from a real failure."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        trees: Queue = Queue()
        for j in range(AT_ONCE):
            _copy(root, Path(tmp) / str(j))
            trees.put(Path(tmp) / str(j))
        broken = threading.Event()

        def one(mutant):
            tree = trees.get()
            try:
                if broken.is_set():
                    return set()
                kills = _kills(tree, mutant, broken)
            finally:
                trees.put(tree)
            if broken.is_set():
                return set()  # stopped: the sweep ends unmutated
            label = "unmutated" if mutant is None else mutant.name
            print(f"{label}: {len(kills)} failing", flush=True)
            if mutant is None and kills:
                broken.set()
                print("  " + "\n  ".join(sorted(kills))
                      + "\nstopping the mutant in flight and skipping "
                      "every mutant not yet started", flush=True)
            return kills

        with ThreadPoolExecutor(AT_ONCE) as pool:
            baseline, *kills = pool.map(one, [None, *MUTANTS])
        if baseline:
            rerun = sorted(baseline)
            if any(nodeid.startswith("(") for nodeid in rerun):
                again = baseline  # no node ids to rerun by
            else:
                again = _failing(trees.get(), rerun)
    if baseline:
        sys.exit("tier-1 fails unmutated, so no kill means anything; "
                 "each failing test rerun alone:\n  " + "\n  ".join(
                     f"{nodeid} ({'fails again' if nodeid in again else 'passed'})"
                     for nodeid in sorted(baseline)))
    return {m.name: k for m, k in zip(MUTANTS, kills)}


def _killers(nodeids) -> str:
    """The failing tests grouped by file, then by class (or module-level
    function), each with its count: ``file: Class 3, test_f 1; …``."""
    by_file: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for nodeid in nodeids:
        path, name = (nodeid.split("::") + ["(collection)"])[:2]
        by_file[path.removeprefix("tests/")][name.split("[")[0]] += 1
    return "; ".join(
        f"`{path}`: " + ", ".join(
            f"`{name}` {count}" for name, count in sorted(groups.items())
        )
        for path, groups in sorted(by_file.items())
    )


def render(kills: dict[str, set[str]]) -> str:
    lines = [
        "# Mutant-kill table",
        "",
        "Generated by `make mutants` from `tools/mutants.py`, which holds",
        "each mutant's patch; do not edit by hand.  A mutant is one",
        "hand-written fault in a load-bearing source line, applied alone",
        "to a scratch copy of the tree; a test kills it when it fails in",
        "tier-1 under the patch and again when the failures are rerun.",
        "Kills are grouped by test file (under `tests/` unless named), then",
        "by class or module-level function, with the number of failing",
        "tests.  A test may be cut only if every mutant it kills is killed",
        "by a test that stays.",
        "",
        "| Mutant | Patched file | Fault | Failing tests | Killed by |",
        "|---|---|---|---|---|",
    ]
    for m in MUTANTS:
        killed = kills[m.name]
        lines.append(
            f"| `{m.name}` | `{m.path}` | {m.why} "
            f"| {len(killed) or '**survives**'} | {_killers(killed)} |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="the tree to mutate (default: this checkout)")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if a mutant survives or "
                             "the committed table differs")
    parser.add_argument("--json", type=Path, help="also write the node ids")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    errors = stale(root)
    if errors:
        sys.exit("stale mutants:\n  " + "\n  ".join(errors))
    kills = run(root)
    if args.json:
        args.json.write_text(json.dumps(
            {name: sorted(k) for name, k in kills.items()}, indent=1) + "\n")
    survivors = [name for name, k in kills.items() if not k]
    for name in survivors:
        print(f"SURVIVES: {name}")
    table = render(kills)
    path = root / TABLE
    if args.check:
        if not path.exists() or path.read_text(encoding="utf-8") != table:
            print(f"{TABLE} is stale: run `make mutants`")
            return 1
    else:
        path.write_text(table, encoding="utf-8")
        print(f"wrote {path}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
