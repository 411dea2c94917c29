"""Store-backend conformance + differential suite.

Both backends — the JSONL :class:`ResultStore` and the
:class:`SqliteResultStore` — implement one contract
(:class:`~repro.experiments.store.ResultStoreBase`): CRC32 durability
discipline, newest-wins with corruption fallback, cross-process
staleness, torn-write recovery.  The conformance tests here are
parametrized over both backends so neither can drift; the differential
tests drive both with identical randomized op sequences and assert they
stay byte-for-byte equivalent on ``get``/``put``/``hashes``/``len``;
and the interchange tests prove ``export → import`` reproduces every
record exactly across backends.
"""

import json
import random

import pytest

from repro.experiments.failures import FailureLog
from repro.experiments.faults import Fault, FaultPlan, disarm
from repro.experiments.scenarios import (
    EvalRequest,
    result_from_record,
    result_to_record,
)
from repro.experiments.store import (
    ResultStore,
    SqliteResultStore,
    _build_record,
    _record_crc,
    export_jsonl,
    import_jsonl,
    open_store,
)

BACKENDS = [ResultStore, SqliteResultStore]
BACKEND_IDS = ["jsonl", "sqlite"]


def _request(i: int, seed: int = 1) -> EvalRequest:
    """A canonical request; distinct ``i`` → distinct scenario hash."""
    return EvalRequest(
        scale="tiny",
        seed=seed,
        ixp=False,
        pairs=((i + 1, i + 2),),
        deployment_full=(i + 2,),
        deployment_simplex=(),
        model="security_2nd",
        attack="hijack",
    )


def _result(rng: random.Random, pairs) -> "object":
    """A synthetic MetricResult over the request's pairs (exact ints)."""
    return result_from_record(
        {
            "pairs": [list(p) for p in pairs],
            "happy_lower": [rng.randrange(0, 50) for _ in pairs],
            "happy_upper": [rng.randrange(50, 100) for _ in pairs],
            "num_sources": [100 for _ in pairs],
        }
    )


def _corrupt_record(request: EvalRequest, result) -> dict:
    """A record whose CRC trailer disagrees with its payload."""
    record, _line = _build_record(request, result)
    assert record["crc"] != "00000000"
    record["crc"] = "00000000"
    return record


def _not_utf8(line: str) -> bytes:
    """A record line with one payload byte set to 0xff: still shaped
    like a record (hash prefix, ``"result"``, closing brace), but not
    UTF-8."""
    raw = line.encode("utf-8")
    at = raw.index(b"security_2nd")
    return raw[:at] + b"\xff" + raw[at + 1 :]


def _store_raw(store, scenario_hash: str, raw: bytes) -> None:
    """Append undecoded bytes as one record of the store's medium."""
    if isinstance(store, ResultStore):
        store.close()
        with open(store.path, "ab") as handle:
            handle.write(raw + b"\n")
    else:
        store._execute(
            "INSERT INTO results (hash, record) VALUES (?, CAST(? AS TEXT))",
            (scenario_hash, raw),
            commit=True,
        )


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def backend(request):
    return request.param


class TestConformance:
    """The lifted store contract, held to by both backends."""

    def test_round_trip_get_contains_len(self, backend, tmp_path):
        rng = random.Random(7)
        store = backend(tmp_path / "cache")
        requests = [_request(i) for i in range(5)]
        results = [_result(rng, r.pairs) for r in requests]
        for request, result in zip(requests, results):
            assert store.put(request, result) == request.scenario_hash
        assert len(store) == 5
        assert store.hashes() == frozenset(
            r.scenario_hash for r in requests
        )
        for request, result in zip(requests, results):
            assert request.scenario_hash in store
            loaded = store.get(request.scenario_hash)
            assert loaded.value == result.value
            assert loaded.per_pair == result.per_pair
        assert store.get("no-such-hash") is None
        assert "no-such-hash" not in store
        store.close()
        assert store.closed

    def test_reopen_sees_everything(self, backend, tmp_path):
        rng = random.Random(8)
        request = _request(0)
        result = _result(rng, request.pairs)
        with backend(tmp_path / "cache") as store:
            store.put(request, result)
        reopened = backend(tmp_path / "cache")
        assert len(reopened) == 1
        assert reopened.get(request.scenario_hash).value == result.value

    def test_newest_wins(self, backend, tmp_path):
        rng = random.Random(9)
        request = _request(0)
        old, new = (_result(rng, request.pairs) for _ in range(2))
        store = backend(tmp_path / "cache")
        store.put(request, old)
        store.put(request, new)
        assert len(store) == 1
        assert store.get(request.scenario_hash).value == new.value
        # ...and still after a cold reopen (no in-memory memo).
        reopened = backend(tmp_path / "cache")
        assert reopened.get(request.scenario_hash).value == new.value

    def test_put_record_supersedes_an_already_read_record(
        self, backend, tmp_path
    ):
        """Newest-wins must hold on the *same handle* even when the old
        record was already read (and memoized) before the new one was
        imported — a stale read-side memo must never shadow a later
        ``put_record`` (regression: the sqlite backend served the
        superseded record forever, which surfaced as job state updates
        persisted through the service never becoming visible to
        pollers of ``raw_record``)."""
        rng = random.Random(13)
        request = _request(0)
        old, new = (_result(rng, request.pairs) for _ in range(2))
        store = backend(tmp_path / "cache")
        store.put(request, old)
        # Read first: memoizes the old record on this handle.
        assert store.get(request.scenario_hash).value == old.value
        store.put_record(_build_record(request, new)[0])
        assert store.get(request.scenario_hash).value == new.value
        assert (
            store.raw_record(request.scenario_hash)["result"]
            == result_to_record(new)
        )

    def test_crc_corrupt_newest_falls_back_to_older(self, backend, tmp_path):
        """A CRC-corrupt newest record is *detected* and the older valid
        record it superseded is served instead."""
        rng = random.Random(10)
        request = _request(0)
        good = _result(rng, request.pairs)
        store = backend(tmp_path / "cache")
        store.put(request, good)
        store.put_record(_corrupt_record(request, _result(rng, request.pairs)))
        reopened = backend(tmp_path / "cache")
        loaded = reopened.get(request.scenario_hash)
        assert loaded is not None
        assert loaded.value == good.value
        assert loaded.per_pair == good.per_pair

    def test_crc_corrupt_only_record_is_absent(self, backend, tmp_path):
        """A hash whose every record fails its CRC is unservable and
        must drop out of get/contains/hashes/len alike."""
        rng = random.Random(11)
        request = _request(0)
        store = backend(tmp_path / "cache")
        store.put_record(_corrupt_record(request, _result(rng, request.pairs)))
        reopened = backend(tmp_path / "cache")
        assert reopened.get(request.scenario_hash) is None
        assert request.scenario_hash not in reopened
        assert request.scenario_hash not in reopened.hashes()
        assert len(reopened) == 0

    def test_non_utf8_record_reads_as_corruption(self, backend, tmp_path):
        """A stored record that is not UTF-8 is corruption like any
        other: a newer one falls back to the older record, and a hash
        with no other record is absent from every read."""
        rng = random.Random(17)
        older, alone = _request(0), _request(1)
        good = _result(rng, older.pairs)
        store = backend(tmp_path / "cache")
        store.put(older, good)
        for request in (older, alone):
            _record, line = _build_record(
                request, _result(rng, request.pairs)
            )
            _store_raw(store, request.scenario_hash, _not_utf8(line))
        store.close()
        reopened = backend(tmp_path / "cache")
        assert reopened.get(older.scenario_hash).value == good.value
        assert reopened.get(alone.scenario_hash) is None
        assert alone.scenario_hash not in reopened
        assert reopened.hashes() == {older.scenario_hash}
        assert len(reopened) == 1

    def test_put_memoizes_nothing_and_newest_put_serves(
        self, backend, tmp_path
    ):
        """A write leaves the read memo empty for its hash; put, get,
        put again and get on one handle serves the newest record."""
        rng = random.Random(18)
        request = _request(0)
        old, new = (_result(rng, request.pairs) for _ in range(2))
        store = backend(tmp_path / "cache")
        store.put(request, old)
        assert store._parsed == {}
        assert store.get(request.scenario_hash).value == old.value
        store.put(request, new)
        assert store._parsed == {}
        assert store.get(request.scenario_hash).value == new.value
        assert (
            store.raw_record(request.scenario_hash)
            == _build_record(request, new)[0]
        )

    def test_corrupt_hash_resurrects_on_valid_put(self, backend, tmp_path):
        """After a corrupt-only hash was diagnosed dead, a later valid
        put for the same hash must serve again (no sticky tombstone)."""
        rng = random.Random(12)
        request = _request(0)
        store = backend(tmp_path / "cache")
        store.put_record(_corrupt_record(request, _result(rng, request.pairs)))
        assert store.get(request.scenario_hash) is None
        fresh = _result(rng, request.pairs)
        store.put(request, fresh)
        assert store.get(request.scenario_hash).value == fresh.value
        assert request.scenario_hash in store.hashes()
        assert len(store) == 1

    def test_cross_process_staleness(self, backend, tmp_path):
        """Records committed by a second writer *after* this store was
        opened must become visible to every read-side method without a
        reopen — the contract lifted into ResultStoreBase."""
        rng = random.Random(13)
        reader = backend(tmp_path / "cache")
        writer = backend(tmp_path / "cache")
        assert len(reader) == 0
        request = _request(0)
        result = _result(rng, request.pairs)
        writer.put(request, result)
        # Every read entry point, each on a fresh stale store state.
        assert request.scenario_hash in reader
        assert request.scenario_hash in reader.hashes()
        assert len(reader) == 1
        loaded = reader.get(request.scenario_hash)
        assert loaded is not None and loaded.value == result.value
        reader.close()
        writer.close()

    def test_torn_write_loses_only_that_record(self, backend, tmp_path):
        """An injected torn write (fault plan) must leave the record
        absent, earlier records intact, and the store usable after."""
        rng = random.Random(14)
        log = FailureLog()
        store = backend(tmp_path / "cache", failure_log=log)
        first = _request(0)
        store.put(first, _result(rng, first.pairs))
        torn = _request(1)
        FaultPlan([Fault(kind="torn_write", put=1)]).arm()
        try:
            store.put(torn, _result(rng, torn.pairs))
        finally:
            disarm()
        assert log.count("store_torn_write") == 1
        assert store.get(torn.scenario_hash) is None
        assert store.get(first.scenario_hash) is not None
        # The store recovers: the next put lands cleanly.
        after = _request(2)
        result = _result(rng, after.pairs)
        store.put(after, result)
        reopened = backend(tmp_path / "cache")
        assert reopened.get(after.scenario_hash).value == result.value
        assert reopened.get(first.scenario_hash) is not None
        assert torn.scenario_hash not in reopened

    def test_records_iterates_newest_per_hash_sorted(self, backend, tmp_path):
        rng = random.Random(15)
        store = backend(tmp_path / "cache")
        requests = [_request(i) for i in range(4)]
        for request in requests:
            store.put(request, _result(rng, request.pairs))
        newest = _result(rng, requests[0].pairs)
        store.put(requests[0], newest)
        records = list(store.records())
        assert [r["hash"] for r in records] == sorted(
            r.scenario_hash for r in requests
        )
        by_hash = {r["hash"]: r for r in records}
        assert (
            by_hash[requests[0].scenario_hash]["result"]
            == result_to_record(newest)
        )
        for record in records:
            assert record["crc"] == _record_crc(record)

    def test_put_stores_the_record_serialised_once(self, backend, tmp_path):
        """A put serialises its record once and splices the CRC in as
        the last field: what is stored is exactly the record's compact
        JSON, trailer included."""
        rng = random.Random(16)
        request = _request(0)
        result = _result(rng, request.pairs)
        record, line = _build_record(request, result)
        assert list(record) == ["hash", "request", "result", "crc"]
        assert record["crc"] == _record_crc(record)
        assert line == json.dumps(record, separators=(",", ":"))
        store = backend(tmp_path / "cache")
        store.put(request, result)
        if backend is ResultStore:
            stored = store.path.read_text(encoding="utf-8")
            assert stored == line + "\n"
        else:
            ((stored,),) = store._execute("SELECT record FROM results")
            assert stored == line
        assert store.raw_record(request.scenario_hash) == record


class TestDifferential:
    """Drive both backends with identical op sequences; they must stay
    byte-for-byte equivalent on every observable."""

    def _assert_equivalent(self, jsonl, sqlite, universe):
        assert jsonl.hashes() == sqlite.hashes()
        assert len(jsonl) == len(sqlite)
        for request in universe:
            scenario_hash = request.scenario_hash
            assert (scenario_hash in jsonl) == (scenario_hash in sqlite)
            record_a = jsonl.raw_record(scenario_hash)
            record_b = sqlite.raw_record(scenario_hash)
            # Byte-for-byte: identical dicts → identical compact JSON.
            assert json.dumps(record_a, sort_keys=True) == json.dumps(
                record_b, sort_keys=True
            )
            result_a = jsonl.get(scenario_hash)
            result_b = sqlite.get(scenario_hash)
            assert (result_a is None) == (result_b is None)
            if result_a is not None:
                assert result_a.value == result_b.value
                assert result_a.per_pair == result_b.per_pair

    @pytest.mark.parametrize("trial", range(8))
    def test_random_op_sequences(self, tmp_path, trial):
        rng = random.Random(1000 + trial)
        jsonl = ResultStore(tmp_path / "jsonl")
        sqlite = SqliteResultStore(tmp_path / "sqlite")
        universe = [_request(i) for i in range(6)]
        for _step in range(40):
            request = rng.choice(universe)
            op = rng.random()
            if op < 0.5:
                result = _result(rng, request.pairs)
                assert jsonl.put(request, result) == sqlite.put(
                    request, result
                )
            elif op < 0.65:
                record = _corrupt_record(request, _result(rng, request.pairs))
                jsonl.put_record(record)
                sqlite.put_record(record)
            elif op < 0.8:
                a = jsonl.get(request.scenario_hash)
                b = sqlite.get(request.scenario_hash)
                assert (a is None) == (b is None)
            else:
                self._assert_equivalent(jsonl, sqlite, universe)
        self._assert_equivalent(jsonl, sqlite, universe)
        # And equivalence survives cold reopens of both.
        jsonl.close()
        sqlite.close()
        self._assert_equivalent(
            ResultStore(tmp_path / "jsonl"),
            SqliteResultStore(tmp_path / "sqlite"),
            universe,
        )


class TestInterchange:
    """JSONL stays the export format: export/import moves records
    byte-for-byte between backends."""

    def _filled(self, cls, root, seed=2):
        rng = random.Random(seed)
        store = cls(root)
        for i in range(7):
            request = _request(i)
            store.put(request, _result(rng, request.pairs))
        # One superseded record: export must carry only the newest.
        victim = _request(3)
        store.put(victim, _result(rng, victim.pairs))
        return store

    def test_sqlite_export_replays_into_jsonl_identically(self, tmp_path):
        sqlite = self._filled(SqliteResultStore, tmp_path / "sqlite")
        out = tmp_path / "dump.jsonl"
        assert export_jsonl(sqlite, out) == 7
        jsonl = ResultStore(tmp_path / "jsonl")
        assert import_jsonl(jsonl, out) == 7
        assert jsonl.hashes() == sqlite.hashes()
        for record_a, record_b in zip(jsonl.records(), sqlite.records()):
            assert record_a == record_b

    def test_export_is_a_valid_jsonl_store_file(self, tmp_path):
        """The exported file IS a ResultStore file: drop it in a cache
        directory as results.jsonl and it serves as-is."""
        sqlite = self._filled(SqliteResultStore, tmp_path / "sqlite")
        cache = tmp_path / "as-store"
        cache.mkdir()
        export_jsonl(sqlite, cache / "results.jsonl")
        store = ResultStore(cache)
        assert store.hashes() == sqlite.hashes()
        for scenario_hash in sqlite.hashes():
            assert (
                store.raw_record(scenario_hash)
                == sqlite.raw_record(scenario_hash)
            )

    def test_jsonl_export_round_trips_through_sqlite_and_back(self, tmp_path):
        jsonl = self._filled(ResultStore, tmp_path / "jsonl")
        dump1 = tmp_path / "dump1.jsonl"
        export_jsonl(jsonl, dump1)
        sqlite = SqliteResultStore(tmp_path / "sqlite")
        import_jsonl(sqlite, dump1)
        dump2 = tmp_path / "dump2.jsonl"
        export_jsonl(sqlite, dump2)
        assert dump1.read_bytes() == dump2.read_bytes()

    def test_import_skips_corrupt_lines_and_existing_hashes(self, tmp_path):
        rng = random.Random(3)
        request = _request(0)
        result = _result(rng, request.pairs)
        record, _line = _build_record(request, result)
        dump = tmp_path / "dump.jsonl"
        corrupt = dict(record, crc="00000000")
        dump.write_text(
            json.dumps(record, separators=(",", ":"))
            + "\n{not json}\n"
            + json.dumps(corrupt, separators=(",", ":"))
            + "\n",
            encoding="utf-8",
        )
        log = FailureLog()
        store = SqliteResultStore(tmp_path / "sqlite", failure_log=log)
        assert import_jsonl(store, dump) == 1
        assert log.count("store_import_skipped") == 2
        # Re-import: the hash already serves, so nothing is added.
        assert import_jsonl(store, dump) == 0
        assert len(store) == 1


    def test_import_skips_a_line_that_is_not_utf8(self, tmp_path):
        rng = random.Random(4)
        kept, bad = _request(0), _request(1)
        dump = tmp_path / "dump.jsonl"
        lines = [
            _build_record(r, _result(rng, r.pairs))[1] for r in (kept, bad)
        ]
        dump.write_bytes(
            lines[0].encode("utf-8") + b"\n" + _not_utf8(lines[1]) + b"\n"
        )
        log = FailureLog()
        store = ResultStore(tmp_path / "jsonl", failure_log=log)
        assert import_jsonl(store, dump) == 1
        assert log.count("store_import_skipped") == 1
        assert store.hashes() == {kept.scenario_hash}


class TestJsonlIndex:
    def test_reopen_with_a_corrupt_hash_prefix(self, tmp_path):
        """A line whose hash holds a byte that is not ASCII, or is not a
        string, is corruption: the store still opens and serves the
        rest."""
        rng = random.Random(5)
        request = _request(0)
        result = _result(rng, request.pairs)
        with ResultStore(tmp_path / "cache") as store:
            store.put(request, result)
            line = store.path.read_bytes()
        with open(store.path, "ab") as handle:
            handle.write(line[:9] + b"\xff" + line[10:])
            handle.write(b'{"hash":["x"],"result":{}}\n')
        reopened = ResultStore(tmp_path / "cache")
        assert reopened.hashes() == {request.scenario_hash}
        assert reopened.get(request.scenario_hash).value == result.value


class TestSqliteHashColumn:
    def test_a_hash_that_is_not_utf8_reads_as_corruption(self, tmp_path):
        """A row whose ``hash`` column is not UTF-8 names no scenario:
        ``hashes()``, ``len()`` and ``records()`` leave it out instead
        of failing the query."""
        rng = random.Random(23)
        request = _request(0)
        result = _result(rng, request.pairs)
        store = SqliteResultStore(tmp_path / "cache")
        store.put(request, result)
        _record, line = _build_record(request, result)
        store._execute(
            "INSERT INTO results (hash, record) VALUES"
            " (CAST(x'6162ff' AS TEXT), ?)",
            (line,),
            commit=True,
        )
        assert store.hashes() == {request.scenario_hash}
        assert len(store) == 1
        assert [r["hash"] for r in store.records()] == [request.scenario_hash]


class TestOpenStore:
    def test_auto_prefers_existing_sqlite(self, tmp_path):
        SqliteResultStore(tmp_path / "cache").close()
        store = open_store(tmp_path / "cache")
        assert isinstance(store, SqliteResultStore)

    def test_auto_defaults_to_jsonl_when_fresh(self, tmp_path):
        store = open_store(tmp_path / "cache")
        assert isinstance(store, ResultStore)

    def test_explicit_backends(self, tmp_path):
        assert isinstance(
            open_store(tmp_path / "a", backend="jsonl"), ResultStore
        )
        assert isinstance(
            open_store(tmp_path / "b", backend="sqlite"), SqliteResultStore
        )
        with pytest.raises(ValueError):
            open_store(tmp_path / "c", backend="parquet")
