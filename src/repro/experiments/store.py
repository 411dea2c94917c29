"""Persistent, content-addressed store of evaluated scenarios.

Two backends implement one contract (:class:`ResultStoreBase`):

* :class:`ResultStore` — the append-only JSONL file
  (``.repro-cache/results.jsonl``), the original backend and still the
  *export format*: one complete line per record, readable by anything.
* :class:`SqliteResultStore` — a WAL-mode sqlite database
  (``.repro-cache/results.sqlite``) that tolerates **concurrent
  writers**: multiple service workers and a batch CLI can put into the
  same cache without interleaving hazards; lock contention is absorbed
  by sqlite's busy timeout plus a bounded retry layer.

Pick one with :func:`open_store` (``backend="auto"`` reopens whatever
the cache directory already holds) and convert between them with
:func:`export_jsonl` / :func:`import_jsonl` (the CLI's ``store export``
/ ``store import``): records move verbatim, so hashes and payloads are
preserved byte-for-byte.

Every evaluated :class:`~repro.experiments.scenarios.EvalRequest` is
written as one record ``{hash, request, result, crc}`` under the cache
directory, so

* a repeated ``write-md`` or CLI run reevaluates nothing (warm store),
* an interrupted run resumes where it stopped — records are appended
  as soon as each scenario finishes, and a truncated trailing line
  (killed mid-write) is skipped on load rather than poisoning the file,
* adding one new experiment to a run only evaluates *its* missing
  scenarios.

The store is append-only; the newest record for a hash wins (identical
by construction — the hash covers every evaluation input, including the
routing-semantics version :data:`repro.core.fixing.ENGINE_VERSION`, so
engine behavior changes start cold automatically).  Delete the cache
directory to reclaim space or force a cold run.

Opening a store does **not** parse it: a single scan builds an
in-memory ``hash → byte offset`` index (the record hash sits in a fixed
prefix of each line, so indexing never JSON-decodes result payloads),
and :meth:`ResultStore.get` seeks, reads and parses one line on demand,
memoizing the decoded record.  Warm runs over large stores therefore
pay one sequential scan plus one small read per scenario actually
requested, instead of decoding every stored result up front.

Durability
----------
Every record written by :meth:`ResultStore.put` carries a CRC32
trailer (a ``"crc"`` field computed over the rest of the line), so a
record that decodes as JSON but was silently corrupted on disk is
*detected* and treated as absent instead of served as wrong data —
:meth:`get` then falls back to the newest older record for the hash,
exactly as for undecodable corruption.  Records without a trailer
(older stores, foreign writers) are accepted unverified.

A run killed mid-``put`` leaves a **torn tail**: a final line with no
newline.  The index already skips it (everything before it is intact —
that is what makes a SIGKILL'd run resume warm), and the store repairs
it *crash-consistently* before its next append: the torn bytes are
truncated away so the new record starts on a clean line boundary,
instead of fusing with the fragment into one corrupt line.  The repair
is recorded in the attached :class:`~repro.experiments.failures.
FailureLog`, if any.

``fsync`` policy: ``"never"`` (default — crash durability up to the OS
page cache, the right trade for a recomputable cache), ``"always"``
(fsync after every record: survives power loss at ~1 syscall/record),
or ``"close"`` (one fsync when the store closes).
"""

from __future__ import annotations

import abc
import json
import os
import sqlite3
import threading
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from ..core.metrics import MetricResult
from .faults import active_plan
from .scenarios import EvalRequest, result_from_record, result_to_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .failures import FailureLog

#: Accepted ``fsync`` policies.
FSYNC_POLICIES = ("never", "always", "close")

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Fixed line prefix written by :meth:`ResultStore.put` (the record dict
#: is serialized with ``hash`` first), used for decode-free indexing.
_HASH_PREFIX = b'{"hash":"'

#: Offset sentinel for records living in ``_parsed`` only (fresh puts).
_IN_MEMORY = -1


def _record_crc(record: dict) -> str:
    """CRC32 (8 hex chars) over the record's canonical payload bytes.

    Computed over the compact JSON of the ``hash``/``request``/
    ``result`` fields in exactly the order :meth:`ResultStore.put`
    writes them, so verification re-derives the very bytes that were
    protected regardless of how a reader reordered the decoded dict.
    """
    body = json.dumps(
        {k: record[k] for k in ("hash", "request", "result") if k in record},
        separators=(",", ":"),
    )
    return _crc(body)


def _crc(body: str) -> str:
    return format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")


def _build_record(request: EvalRequest, result: MetricResult) -> tuple[dict, str]:
    """The canonical record dict for one put, CRC trailer included, and
    its compact JSON line: one serialisation, the CRC spliced in as the
    last field (exactly ``json.dumps(record, separators=(",", ":"))``)."""
    record = {
        "hash": request.scenario_hash,
        "request": request.canonical(),
        "result": result_to_record(result),
    }
    # The request's JSON is spliced, not encoded from ``record``: its
    # member arrays were encoded once for every request of the step.
    body = (
        f'{{"hash":{json.dumps(record["hash"])},'
        f'"request":{request.canonical_json()},'
        f'"result":{json.dumps(record["result"], separators=(",", ":"))}}}'
    )
    record["crc"] = crc = _crc(body)
    return record, f'{body[:-1]},"crc":"{crc}"}}'


class ResultStoreBase(abc.ABC):
    """The backend contract every result store implements.

    A store is a content-addressed map from scenario hash to
    :class:`MetricResult` with these guarantees, held to by the shared
    conformance suite in ``tests/test_store_backends.py``:

    * **Durability discipline** — every record carries a CRC32 trailer
      over its canonical payload (:func:`_record_crc`); a record that
      was silently corrupted on disk is *detected* on read and treated
      as absent, falling back to the newest older record for the hash.
    * **Newest wins** — :meth:`put` for an existing hash supersedes the
      older record without destroying it (the corruption fallback above
      depends on the history surviving).
    * **Cross-process staleness** — records committed by *another
      process* (or thread) after this store was opened must become
      visible to every read-side method (:meth:`get`,
      :meth:`__contains__`, :meth:`hashes`, :meth:`__len__`) without
      reopening the store.  Each read entry point calls
      :meth:`refresh`; backends implement it however suits their medium
      (the JSONL store rescans the appended tail from its
      ``_indexed_size`` cursor, sqlite reads committed state on every
      query, so its refresh is free).
    * **Torn writes** — a writer killed mid-:meth:`put` must never
      corrupt earlier records, and the next writer (or reopen) must
      recover to a clean state.

    ``hits``/``misses`` count scheduler lookups so runs can report
    cache effectiveness; they are bookkeeping, not part of the record
    state.
    """

    #: filename this backend owns inside the cache directory.
    FILENAME: str = ""

    def __init__(
        self,
        root: str | Path = DEFAULT_CACHE_DIR,
        fsync: str = "never",
        failure_log: "FailureLog | None" = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.root = Path(root)
        self.path = self.root / self.FILENAME
        self.fsync = fsync
        self.failure_log = failure_log
        self.hits = 0
        self.misses = 0

    # -- the contract ---------------------------------------------------
    @abc.abstractmethod
    def refresh(self) -> None:
        """Make records committed by other processes since the last
        read visible.  Called by every read-side method; must be cheap
        when nothing changed."""

    @abc.abstractmethod
    def get(self, scenario_hash: str) -> MetricResult | None:
        """The newest uncorrupted result for a hash, or ``None``."""

    @abc.abstractmethod
    def raw_record(self, scenario_hash: str) -> dict | None:
        """The newest uncorrupted *record dict* for a hash (the
        ``{hash, request, result, crc}`` shape) — the export primitive."""

    @abc.abstractmethod
    def put(self, request: EvalRequest, result: MetricResult) -> str:
        """Persist one evaluated scenario; returns its hash."""

    @abc.abstractmethod
    def put_record(self, record: dict) -> str:
        """Insert a record dict verbatim (the import primitive).

        The record's stored bytes — including its ``crc`` and any
        foreign ``format``/``engine`` provenance inside ``request`` —
        are preserved, so an export/import round trip is
        byte-identical.
        """

    @abc.abstractmethod
    def hashes(self) -> frozenset[str]:
        """Every servable scenario hash (no result payload is decoded)."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def close(self) -> None:
        """Release OS resources (idempotent; lazily reopened on reuse)."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool:
        """True when no OS handles are currently open."""

    # -- shared behavior ------------------------------------------------
    def __contains__(self, scenario_hash: str) -> bool:
        if scenario_hash not in self.hashes():
            self.refresh()
        return scenario_hash in self.hashes()

    def records(self) -> Iterator[dict]:
        """Newest valid record per hash, in sorted-hash order."""
        self.refresh()
        for scenario_hash in sorted(self.hashes()):
            record = self.raw_record(scenario_hash)
            if record is not None:
                yield record

    def __enter__(self) -> "ResultStoreBase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ResultStore(ResultStoreBase):
    """JSONL-backed map from scenario hash to :class:`MetricResult`.

    The file is scanned once at construction to build the offset index;
    records decode lazily in :meth:`get`.  ``put`` appends immediately
    (crash-safe incremental progress) and updates the index in memory.
    ``hits``/``misses`` count lookups made through the scheduler so CLI
    runs can report cache effectiveness.

    Writes go through one persistent append handle per store (opened
    lazily on the first ``put``, closed by :meth:`close` or the context
    manager) instead of reopening the file per record, and each record
    is written as a single unbuffered ``O_APPEND`` write of one complete
    line — concurrent writers from multi-process runs can interleave
    *records* but never partial lines.

    Example:
        Results round-trip bit-exactly through the JSONL file, keyed by
        the request's content hash:

        >>> import tempfile
        >>> from repro.core import BASELINE, Deployment
        >>> from repro.core.metrics import AttackHappiness, MetricResult
        >>> from repro.experiments.scenarios import EvalRequest
        >>> request = EvalRequest.build(
        ...     scale="tiny", seed=1, ixp=False, pairs=[(3, 2)],
        ...     deployment=Deployment.empty(), model=BASELINE,
        ... )
        >>> pair = AttackHappiness(
        ...     attacker=3, destination=2,
        ...     happy_lower=5, happy_upper=7, num_sources=10,
        ... )
        >>> result = MetricResult(value=pair.fraction, per_pair=(pair,))
        >>> tmp = tempfile.TemporaryDirectory()
        >>> with ResultStore(tmp.name) as store:
        ...     _ = store.put(request, result)
        >>> reopened = ResultStore(tmp.name)
        >>> print(reopened.get(request.scenario_hash).value)
        [0.5000, 0.7000]
        >>> request.scenario_hash in reopened
        True
        >>> reopened.hashes() == frozenset([request.scenario_hash])
        True
    """

    FILENAME = "results.jsonl"

    def __init__(
        self,
        root: str | Path = DEFAULT_CACHE_DIR,
        fsync: str = "never",
        failure_log: "FailureLog | None" = None,
    ):
        super().__init__(root, fsync=fsync, failure_log=failure_log)
        #: hash → byte offset of its newest record line (or _IN_MEMORY).
        self._offsets: dict[str, int] = {}
        #: hash → decoded record, filled lazily by get() and by put().
        self._parsed: dict[str, dict] = {}
        self._handle = None
        self._reader = None
        self._puts = 0
        #: Byte offset just past the last *complete* indexed line; the
        #: starting point for tail rescans (:meth:`refresh`).  A
        #: truncated trailing line never advances it, so an in-progress
        #: write by another process is rescanned once it completes.
        self._indexed_size = 0
        #: Crash-recovery state: when a torn tail is detected (at open,
        #: or after an injected torn write), the next append first
        #: truncates the file back to ``_repair_to`` so the new record
        #: cannot fuse with the fragment into one corrupt line.
        self._repair_pending = False
        self._repair_to = 0
        self._index()

    def _index(self) -> None:
        """One sequential scan: map each record's hash to its offset.

        The hash is sliced out of the fixed line prefix without JSON
        decoding — but only for lines that also look like complete
        records (terminated by ``}``, carrying a ``"result"`` key);
        lines in any other shape (foreign writers, corruption) fall
        back to a full decode, and undecodable or record-shaped-but-
        incomplete lines — e.g. the truncated tail of an interrupted
        run — are skipped, so every indexed hash is one :meth:`get`
        can actually serve.  Later records win, matching the
        append-only newest-wins contract.
        """
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            self._indexed_size = self._scan(handle, 0)
            size = os.fstat(handle.fileno()).st_size
        if size > self._indexed_size:
            # Torn tail: bytes past the last newline — a predecessor was
            # killed mid-put.  Everything indexed is intact (the run
            # resumes warm from the last good record); the fragment is
            # truncated away before this store's first append.
            self._repair_pending = True
            self._repair_to = self._indexed_size
            if self.failure_log is not None:
                self.failure_log.record(
                    "store_torn_tail",
                    detail=(
                        f"{size - self._indexed_size} torn trailing bytes "
                        f"in {self.path} (predecessor killed mid-write); "
                        "will truncate before next append"
                    ),
                )

    def _scan(self, handle, base: int) -> int:
        """Index every complete record line from byte ``base`` onward.

        ``handle`` must already be positioned at ``base``.  Returns the
        offset just past the last complete line seen — the next scan's
        starting point.
        """
        prefix = _HASH_PREFIX
        plen = len(prefix)
        offset = base
        complete = base
        for line in handle:
            start = offset
            offset += len(line)
            if not line.endswith(b"\n"):
                # Truncated tail from an interrupted (or in-progress)
                # run; everything before it is intact, so skip rather
                # than fail, and leave it out of ``complete`` so a
                # later tail rescan picks it up once finished.
                continue
            complete = offset
            if (
                line.startswith(prefix)
                and line.rstrip().endswith(b"}")
                and b'"result"' in line
            ):
                end = line.find(b'"', plen)
                if end > plen:
                    scenario_hash = line[plen:end].decode("ascii")
                    self._offsets[scenario_hash] = start
                    # Newest wins: an earlier fallback-decoded record
                    # for this hash must not shadow this line.
                    self._parsed.pop(scenario_hash, None)
                    continue
            record = self._decode(line)
            if record is not None:
                self._offsets[record["hash"]] = start
                self._parsed[record["hash"]] = record
        return complete

    def refresh(self) -> None:
        """Index records appended by other processes since the last scan.

        Concurrent multi-process runs share one JSONL file via atomic
        ``O_APPEND`` line writes; a store opened earlier would otherwise
        keep reporting those scenarios as misses (and re-evaluate them)
        until reopened.  Only the appended tail — from the last indexed
        EOF — is scanned, so a refresh on every index miss stays O(new
        data), not O(file).
        """
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return
        if size <= self._indexed_size:
            return
        reader = self._reader
        if reader is None:
            reader = self._reader = open(self.path, "rb")
        reader.seek(self._indexed_size)
        self._indexed_size = self._scan(reader, self._indexed_size)

    def _rescan_before(self, scenario_hash: str, bad_offset: int) -> dict | None:
        """Newest decodable record for a hash strictly before an offset.

        Serves :meth:`get` when the indexed (newest) line for a hash
        turns out to be undecodable: an older record it superseded is
        still valid and must win over dropping the hash entirely.
        Re-points the index at the record found, if any.
        """
        best = None
        best_start = None
        pos = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                start = pos
                pos += len(line)
                if start >= bad_offset:
                    break
                if not line.endswith(b"\n"):
                    continue
                record = self._decode(line)
                if record is not None and record["hash"] == scenario_hash:
                    best = record
                    best_start = start
        if best is not None:
            self._offsets[scenario_hash] = best_start
        return best

    @staticmethod
    def _decode(line: bytes) -> dict | None:
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not (
            isinstance(record, dict) and "hash" in record and "result" in record
        ):
            return None
        crc = record.get("crc")
        if crc is not None and crc != _record_crc(record):
            # The CRC32 trailer disagrees: the line decodes as JSON but
            # its payload was corrupted on disk.  Treat as absent —
            # get() falls back to the newest older record for the hash —
            # rather than serve silently wrong data.
            return None
        return record

    # -- mapping views --------------------------------------------------
    def __contains__(self, scenario_hash: str) -> bool:
        if scenario_hash not in self._offsets:
            self.refresh()
        return scenario_hash in self._offsets

    def __len__(self) -> int:
        self.refresh()
        return len(self._offsets)

    def hashes(self) -> frozenset[str]:
        """Every stored scenario hash (no record is decoded)."""
        self.refresh()
        return frozenset(self._offsets)

    def get(self, scenario_hash: str) -> MetricResult | None:
        record = self._raw_record(scenario_hash)
        if record is None:
            return None
        return result_from_record(record["result"])

    def raw_record(self, scenario_hash: str) -> dict | None:
        """The newest decodable record dict for a hash (CRC-checked)."""
        return self._raw_record(scenario_hash)

    def _raw_record(self, scenario_hash: str) -> dict | None:
        record = self._parsed.get(scenario_hash)
        if record is None:
            offset = self._offsets.get(scenario_hash)
            if offset is None:
                self.refresh()
                offset = self._offsets.get(scenario_hash)
            if offset is None or offset == _IN_MEMORY:
                return None
            reader = self._reader
            if reader is None:
                reader = self._reader = open(self.path, "rb")
            reader.seek(offset)
            record = self._decode(reader.readline())
            if record is None or record.get("hash") != scenario_hash:
                # The indexed line no longer decodes to this record
                # (record-shaped corruption slipped past the prefix
                # check, or the file changed underneath us).  A valid
                # older record this line superseded may still exist —
                # newest-wins must not silently discard it — so re-find
                # it before giving up; only when none exists is the hash
                # dropped so len()/hashes() self-correct.
                record = self._rescan_before(scenario_hash, offset)
                if record is None:
                    self._offsets.pop(scenario_hash, None)
                    return None
            self._parsed[scenario_hash] = record
        return record

    # -- writes ---------------------------------------------------------
    def put(self, request: EvalRequest, result: MetricResult) -> str:
        """Persist one evaluated scenario; returns its hash.

        The written line is the compact record JSON with a CRC32
        trailer field spliced in (``{"hash":...,...,"crc":"xxxxxxxx"}``)
        — still one line of plain JSON, so foreign readers are
        unaffected, but bit-rot is detectable on read.
        """
        return self._write_record(*_build_record(request, result), faultable=True)

    def put_record(self, record: dict) -> str:
        """Append a record dict verbatim (the import primitive)."""
        record = dict(record)
        text = json.dumps(record, separators=(",", ":"))
        return self._write_record(record, text, faultable=False)

    def _write_record(self, record: dict, text: str, faultable: bool) -> str:
        scenario_hash = record["hash"]
        handle = self._handle
        if handle is None:
            self.root.mkdir(parents=True, exist_ok=True)
            # Unbuffered binary append: every write below hits the file
            # as one atomic O_APPEND syscall (one complete JSONL line).
            handle = self._handle = open(self.path, "ab", buffering=0)
        if self._repair_pending:
            self._repair_tail(handle)
        line = (text + "\n").encode("utf-8")
        fault = None
        if faultable:
            plan = active_plan()
            if plan is not None:
                fault = plan.torn_write(self._puts)
            self._puts += 1
        if fault is not None:
            # Injected crash mid-write: append only a prefix of the
            # line and leave the record unindexed, exactly the state a
            # SIGKILL between write() syscalls would leave behind; the
            # next append (or the next store opened on this file) runs
            # the torn-tail repair.
            self._repair_to = os.fstat(handle.fileno()).st_size
            handle.write(line[: max(1, len(line) // 2)])
            self._repair_pending = True
            if self.failure_log is not None:
                self.failure_log.record(
                    "store_torn_write",
                    detail=f"injected torn write of {scenario_hash}",
                    scenario=scenario_hash,
                )
            return scenario_hash
        handle.write(line)
        if self.fsync == "always":
            os.fsync(handle.fileno())
        # Memoize only servable records: an imported record whose CRC
        # trailer does not verify (put_record is verbatim) must be
        # *detected on read* like any other corruption — the next
        # refresh() indexes its line and get() runs the fallback —
        # instead of being served straight from the write-side memo.
        if faultable or self._decode(line) is not None:
            self._parsed[scenario_hash] = record
            self._offsets[scenario_hash] = _IN_MEMORY
        return scenario_hash

    def _repair_tail(self, handle) -> None:
        """Truncate a torn tail so the next append starts a clean line.

        Skipped (with a rescan instead) if the tail gained a newline
        since it was diagnosed — a concurrent writer completed the line,
        so it is data, not wreckage.
        """
        self._repair_pending = False
        size = os.fstat(handle.fileno()).st_size
        if size <= self._repair_to:
            return
        with open(self.path, "rb") as reader:
            reader.seek(self._repair_to)
            tail = reader.read(size - self._repair_to)
        if b"\n" in tail:
            self.refresh()
            return
        os.ftruncate(handle.fileno(), self._repair_to)
        if self.failure_log is not None:
            self.failure_log.record(
                "store_recovery",
                detail=(
                    f"truncated {size - self._repair_to} torn trailing "
                    f"bytes from {self.path}"
                ),
            )

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True when no file handles are currently open."""
        return self._handle is None and self._reader is None

    def close(self) -> None:
        """Close the append and read handles (idempotent; handles are
        reopened lazily if the store is used again)."""
        if self._handle is not None:
            if self.fsync in ("always", "close"):
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
        if self._reader is not None:
            self._reader.close()
            self._reader = None


class SqliteResultStore(ResultStoreBase):
    """Sqlite-backed result store for **concurrent writers**.

    The JSONL store's atomic ``O_APPEND`` lines already tolerate
    concurrent appends, but its torn-tail repair (``ftruncate``) and
    offset index assume a single repairer; an always-on service with
    several workers plus a batch CLI writing the same cache needs real
    transactional isolation.  This backend keeps the exact record
    discipline of the JSONL store — the same ``{hash, request, result,
    crc}`` dicts, CRC32-verified on read, newest-wins with corruption
    fallback to older records — inside a WAL-mode sqlite database:

    * **WAL journal** — readers never block writers and vice versa;
      a reader always sees a consistent committed snapshot, so a
      concurrent writer can never expose a half-written record (the
      sqlite analogue of the torn-tail problem disappears).
    * **Busy-timeout + bounded retry** — writer-writer contention waits
      in sqlite's busy handler (:data:`SQLITE_BUSY_TIMEOUT_MS`); if the
      timeout still trips under extreme contention the operation is
      retried with backoff up to :data:`SQLITE_MAX_RETRIES` times, each
      retry recorded as a ``store_busy_retry`` incident.  ``database is
      locked`` never escapes to callers until the retries are exhausted.
    * **History preserved** — every put inserts a new row (monotonic
      rowid), so newest-wins reads fall back to older rows when the
      newest fails its CRC, exactly like the JSONL index does.

    ``fsync`` maps onto ``PRAGMA synchronous``: ``never`` → ``OFF``
    (page-cache durability, the recomputable-cache default), ``close``
    → ``NORMAL``, ``always`` → ``FULL``.

    Thread safety: one connection guarded by a lock, so a service can
    read and write from executor threads; separate *processes* each
    open their own connection and coordinate through sqlite itself.
    """

    FILENAME = "results.sqlite"

    def __init__(
        self,
        root: str | Path = DEFAULT_CACHE_DIR,
        fsync: str = "never",
        failure_log: "FailureLog | None" = None,
    ):
        super().__init__(root, fsync=fsync, failure_log=failure_log)
        self._conn: sqlite3.Connection | None = None
        self._lock = threading.Lock()
        self._parsed: dict[str, dict] = {}
        #: hashes whose every stored row failed to decode — excluded
        #: from :meth:`hashes`/:meth:`__len__` exactly as the JSONL
        #: backend drops an unservable hash from its offset index, and
        #: re-verified on access in case another writer re-put a valid
        #: record since.
        self._dead: set[str] = set()
        self._puts = 0
        # Touch the database eagerly so opening a store surfaces an
        # unwritable cache directory immediately, like the JSONL scan.
        self._connect()

    # -- connection management ------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = self._conn
        if conn is None:
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.path,
                timeout=SQLITE_BUSY_TIMEOUT_MS / 1000.0,
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA busy_timeout={SQLITE_BUSY_TIMEOUT_MS}")
            conn.execute(
                "PRAGMA synchronous="
                + {"never": "OFF", "close": "NORMAL", "always": "FULL"}[
                    self.fsync
                ]
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " id INTEGER PRIMARY KEY AUTOINCREMENT,"
                " hash TEXT NOT NULL,"
                " record TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_results_hash"
                " ON results(hash)"
            )
            conn.commit()
            self._conn = conn
        return conn

    def _execute(self, sql: str, params: tuple = (), commit: bool = False):
        """One statement under the lock, with bounded busy retries."""
        for attempt in range(SQLITE_MAX_RETRIES + 1):
            try:
                with self._lock:
                    conn = self._connect()
                    cursor = conn.execute(sql, params)
                    rows = cursor.fetchall()
                    if commit:
                        conn.commit()
                    return rows
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) and "busy" not in str(exc):
                    raise
                if attempt >= SQLITE_MAX_RETRIES:
                    raise
                if self.failure_log is not None:
                    self.failure_log.record(
                        "store_busy_retry",
                        detail=(
                            f"sqlite busy past the {SQLITE_BUSY_TIMEOUT_MS}ms"
                            f" timeout (attempt {attempt + 1}); retrying"
                        ),
                    )
                time.sleep(0.05 * (2**attempt))

    # -- the contract ---------------------------------------------------
    def refresh(self) -> None:
        """No-op: every query reads the current committed snapshot, so
        other writers' records are visible the moment they commit."""

    def get(self, scenario_hash: str) -> MetricResult | None:
        record = self.raw_record(scenario_hash)
        if record is None:
            return None
        return result_from_record(record["result"])

    def raw_record(self, scenario_hash: str) -> dict | None:
        record = self._parsed.get(scenario_hash)
        if record is not None:
            return record
        rows = self._execute(
            "SELECT record FROM results WHERE hash = ? ORDER BY id DESC",
            (scenario_hash,),
        )
        for (blob,) in rows:
            record = self._decode(blob)
            if record is not None and record.get("hash") == scenario_hash:
                # Newest row first; a CRC-corrupt newest row falls
                # through to the older rows it superseded, matching the
                # JSONL backend's _rescan_before fallback.
                self._parsed[scenario_hash] = record
                self._dead.discard(scenario_hash)
                return record
        if rows:
            # Rows exist but none decodes: the hash is unservable, so
            # drop it from hashes()/len() — the JSONL backend pops the
            # offset index in exactly this situation.
            self._dead.add(scenario_hash)
        return None

    @staticmethod
    def _decode(blob: str) -> dict | None:
        try:
            record = json.loads(blob)
        except (json.JSONDecodeError, TypeError):
            return None
        if not (
            isinstance(record, dict) and "hash" in record and "result" in record
        ):
            return None
        crc = record.get("crc")
        if crc is not None and crc != _record_crc(record):
            return None
        return record

    def put(self, request: EvalRequest, result: MetricResult) -> str:
        record, text = _build_record(request, result)
        scenario_hash = record["hash"]
        fault = None
        plan = active_plan()
        if plan is not None:
            fault = plan.torn_write(self._puts)
        self._puts += 1
        if fault is not None:
            # Injected crash mid-put: under sqlite the never-committed
            # transaction simply vanishes — the record is absent (the
            # caller believes it wrote, exactly like the JSONL torn
            # line), but no repair is needed: WAL isolation means no
            # other reader ever saw partial bytes.
            if self.failure_log is not None:
                self.failure_log.record(
                    "store_torn_write",
                    detail=f"injected torn write of {scenario_hash}",
                    scenario=scenario_hash,
                )
            return scenario_hash
        self._insert(scenario_hash, text)
        self._parsed[scenario_hash] = record
        # A valid record supersedes any earlier corrupt-only diagnosis.
        self._dead.discard(scenario_hash)
        return scenario_hash

    def put_record(self, record: dict) -> str:
        """Insert a record dict verbatim (the import primitive)."""
        record = dict(record)
        self._insert(record["hash"], json.dumps(record, separators=(",", ":")))
        # Not memoized: imported bytes are verified on first read, so a
        # CRC-corrupt import is detected exactly like disk corruption.
        # A *stale* memo from an earlier read must go, though — leaving
        # it would serve the superseded record forever and break
        # newest-wins on this handle (the next read re-queries and runs
        # the normal corrupt-newest fallback over the rows).
        self._parsed.pop(record["hash"], None)
        self._dead.discard(record["hash"])
        return record["hash"]

    def _insert(self, scenario_hash: str, text: str) -> None:
        self._execute(
            "INSERT INTO results (hash, record) VALUES (?, ?)",
            (scenario_hash, text),
            commit=True,
        )

    def __contains__(self, scenario_hash: str) -> bool:
        if scenario_hash in self._parsed:
            return True
        if scenario_hash in self._dead:
            # Re-verify: another writer may have re-put a valid record.
            return self.raw_record(scenario_hash) is not None
        rows = self._execute(
            "SELECT 1 FROM results WHERE hash = ? LIMIT 1", (scenario_hash,)
        )
        return bool(rows)

    def hashes(self) -> frozenset[str]:
        rows = self._execute("SELECT DISTINCT hash FROM results")
        present = {h for (h,) in rows}
        for scenario_hash in list(self._dead & present):
            # Cheap only when dead hashes exist at all (they almost
            # never do): re-verify in case a valid record arrived.
            self.raw_record(scenario_hash)
        return frozenset(present - self._dead)

    def __len__(self) -> int:
        return len(self.hashes())

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._conn is None

    def close(self) -> None:
        with self._lock:
            conn = self._conn
            if conn is None:
                return
            if self.fsync in ("always", "close"):
                try:
                    conn.execute("PRAGMA wal_checkpoint(FULL)")
                except sqlite3.OperationalError:  # pragma: no cover - busy
                    pass
            conn.close()
            self._conn = None


#: sqlite busy-handler timeout: how long one statement waits for a
#: competing writer before the retry layer takes over.
SQLITE_BUSY_TIMEOUT_MS = 5_000

#: bounded retries (with exponential backoff) after the busy timeout;
#: only when these are exhausted does ``database is locked`` surface.
SQLITE_MAX_RETRIES = 5

#: backend tokens accepted by :func:`open_store` and the CLI.
STORE_BACKENDS = ("auto", "jsonl", "sqlite")


def open_store(
    root: str | Path = DEFAULT_CACHE_DIR,
    backend: str = "auto",
    fsync: str = "never",
    failure_log: "FailureLog | None" = None,
) -> ResultStoreBase:
    """Open a result store, picking the backend for a cache directory.

    ``backend="auto"`` reopens whatever the directory already holds —
    sqlite wins if both exist (it is the concurrent-writer-safe one) —
    and defaults to JSONL for a fresh directory, preserving the
    historical CLI behavior.  ``"jsonl"``/``"sqlite"`` force a backend
    (creating it if absent).
    """
    if backend not in STORE_BACKENDS:
        raise ValueError(
            f"backend must be one of {STORE_BACKENDS}, got {backend!r}"
        )
    root = Path(root)
    if backend == "auto":
        if (root / SqliteResultStore.FILENAME).exists():
            backend = "sqlite"
        else:
            backend = "jsonl"
    cls = SqliteResultStore if backend == "sqlite" else ResultStore
    return cls(root, fsync=fsync, failure_log=failure_log)


def export_jsonl(store: ResultStoreBase, path: str | Path) -> int:
    """Write every stored record to a JSONL file; returns the count.

    The output is a valid :class:`ResultStore` file (one compact record
    per line, CRC trailers preserved verbatim), so exporting a sqlite
    cache into ``<dir>/results.jsonl`` *is* the JSONL store of the same
    scenarios — hashes and payloads byte-identical.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in store.records():
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
    return count


def import_jsonl(
    store: ResultStoreBase, path: str | Path, records: Iterable[dict] | None = None
) -> int:
    """Replay a JSONL record file into a store; returns records imported.

    Records are inserted verbatim (:meth:`ResultStoreBase.put_record`),
    preserving their CRC trailers and any foreign provenance, so an
    export → import round trip reproduces every record byte-for-byte.
    Undecodable or CRC-corrupt lines are skipped (and recorded in the
    store's failure log, if any); records whose hash the store already
    serves are skipped as duplicates.
    """
    if records is None:
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
        records = []
        for line in lines:
            record = ResultStore._decode(line + b"\n")
            if record is None:
                if store.failure_log is not None:
                    store.failure_log.record(
                        "store_import_skipped",
                        detail=f"undecodable or corrupt line in {path}",
                    )
                continue
            records.append(record)
    existing = store.hashes()
    count = 0
    for record in records:
        if record["hash"] in existing:
            continue
        store.put_record(record)
        count += 1
    return count
