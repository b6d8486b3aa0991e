"""Integration tests of the daemon: sessions, quotas, admission, streams.

Each test builds a fresh kernel over a shared topology/attribute stack
(attributes are immutable here, so sharing is safe and fast) and drives
the server through the in-process client — the same submit/commit path
the socket front end uses.
"""

import asyncio
import socket
import struct

import pytest

from repro import quick_setup
from repro.alloc import HeterogeneousAllocator
from repro.errors import ServeError
from repro.kernel import KernelMemoryManager
from repro.resilience import EventKind, ResilienceLog
from repro.serve import (
    ReproServeServer,
    Request,
    ServeClient,
    ServeCore,
    StreamServeClient,
    StreamServer,
    decode_response,
    encode_request,
)
from repro.units import GiB, MiB

PLATFORM = "xeon-cascadelake-1lm"


@pytest.fixture(scope="module")
def base():
    return quick_setup(PLATFORM)


@pytest.fixture
def allocator(base):
    kernel = KernelMemoryManager(base.machine)
    return HeterogeneousAllocator(base.memattrs, kernel)


def run(coro, timeout_s=60.0):
    """Run one scenario; a hung transport fails it instead of the suite."""
    return asyncio.run(asyncio.wait_for(coro, timeout_s))


class TestSessionLifecycle:
    def test_open_alloc_free_close(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                client = ServeClient(server, "acme")
                opened = await client.open(quota_bytes=64 * MiB)
                assert opened.ok
                assert opened.result["quota_pages"] == 64 * MiB // 4096

                placed = await client.alloc("h0", 8 * MiB, "Bandwidth", 0)
                assert placed.ok
                assert placed.result["handle"] == "h0"
                assert sum(placed.result["pages"].values()) == 8 * MiB // 4096

                freed = await client.free("h0")
                assert freed.ok

                closed = await client.close()
                assert closed.ok
                assert closed.result["freed"] == 0
            assert not server.core.sessions
            assert not server.core.ledger.tracks("acme")

        run(scenario())

    def test_close_frees_leftover_buffers(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                free0 = allocator.kernel.free_pages_array()
                client = ServeClient(server, "t")
                await client.open()
                for i in range(3):
                    assert (await client.alloc(f"h{i}", 4 * MiB, "Capacity", 0)).ok
                closed = await client.close()
                assert closed.result["freed"] == 3
                assert allocator.kernel.free_pages_array() == free0

        run(scenario())

    def test_session_errors_are_typed(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                client = ServeClient(server, "t")
                assert (await client.alloc("h", MiB, "Capacity", 0)).error == (
                    "no-session"
                )
                await client.open()
                assert (await client.open()).error == "session-exists"
                assert (await client.free("ghost")).error == "unknown-handle"
                assert (await client.migrate("ghost", "Latency")).error == (
                    "unknown-handle"
                )
                await client.alloc("h", MiB, "Capacity", 0)
                dup = await client.alloc("h", MiB, "Capacity", 0)
                assert dup.error == "handle-exists"
                unknown = await client.request("frobnicate")
                assert unknown.error == "unknown-verb"
                bad = await client.request("alloc", {"handle": "x"})
                assert bad.error == "bad-request"

        run(scenario())


class TestQuotas:
    def test_quota_enforced_with_typed_event_and_untouched_state(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                client = ServeClient(server, "t")
                await client.open(quota_bytes=8 * MiB)
                assert (await client.alloc("ok", 4 * MiB, "Capacity", 0)).ok

                before_pages = allocator.kernel.free_pages_array()
                before_ledger = server.core.ledger.snapshot()
                denied = await client.alloc("big", 6 * MiB, "Capacity", 0)
                assert not denied.ok
                assert denied.error == "quota-exceeded"
                assert allocator.kernel.free_pages_array() == before_pages
                assert server.core.ledger.snapshot() == before_ledger
                events = server.core.log.of_kind(EventKind.QUOTA_EXCEEDED)
                assert len(events) == 1
                assert events[0].subject == "t/big"

                # Freeing restores headroom.
                await client.free("ok")
                assert (await client.alloc("big", 6 * MiB, "Capacity", 0)).ok

        run(scenario())

    def test_quota_spans_batched_allocs(self, allocator):
        """An ``alloc_many`` is charged request by request: 3 allocs of
        4 MiB against a 10 MiB quota admit two and reject the third."""

        async def scenario():
            async with ReproServeServer(allocator) as server:
                client = ServeClient(server, "t")
                await client.open(quota_bytes=10 * MiB)
                many = await client.alloc_many(
                    [
                        {
                            "handle": f"h{i}",
                            "size": 4 * MiB,
                            "attribute": "Capacity",
                            "initiator": 0,
                        }
                        for i in range(3)
                    ]
                )
                assert many.ok
                outcomes = many.result["results"]
                assert [r["ok"] for r in outcomes] == [True, True, False]
                assert outcomes[2]["error"] == "quota-exceeded"
                assert server.core.ledger.usage("t") == 8 * MiB // 4096

        run(scenario())


class TestReservations:
    def test_reservation_shields_capacity_from_cotenants(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                nodes = list(allocator.kernel.node_ids())
                hog = ServeClient(server, "hog")
                victim = ServeClient(server, "victim")
                # Reserve every free page on every node.
                opened = await hog.open(
                    reserve={str(n): 10**9 for n in nodes}
                )
                assert opened.ok
                assert sum(
                    int(v) for v in opened.result["reserved"].values()
                ) == sum(server.core.sessions["hog"].reserve_holds.values())

                await victim.open()
                starved = await victim.alloc("h", 4 * MiB, "Capacity", 0)
                assert not starved.ok
                assert starved.error == "allocation-failed"

                # Closing the hog hands the pages back.
                assert (await hog.close()).ok
                assert (await victim.alloc("h", 4 * MiB, "Capacity", 0)).ok

        run(scenario())

    def test_rejected_open_releases_partial_reservation(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                client = ServeClient(server, "t")
                nodes = list(allocator.kernel.node_ids())
                before = allocator.kernel.free_pages_array()
                bad = await client.open(
                    reserve={str(nodes[0]): 64, "not-a-node": 1}
                )
                assert not bad.ok
                assert bad.error == "bad-request"
                assert allocator.kernel.free_pages_array() == before
                assert not server.core.ledger.tracks("t")

        run(scenario())


class TestAdmissionControl:
    def test_overflow_rejected_typed_and_stateless(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator, max_pending=2) as server:
                client = ServeClient(server, "t")
                assert (await client.open()).ok
                n = 8
                tasks = [
                    asyncio.ensure_future(
                        client.alloc(f"h{i}", MiB, "Capacity", 0)
                    )
                    for i in range(n)
                ]
                responses = await asyncio.gather(*tasks)
                accepted = [r for r in responses if r.ok]
                rejected = [r for r in responses if not r.ok]
                assert len(accepted) + len(rejected) == n
                assert rejected, "flood never tripped admission control"
                assert {r.error for r in rejected} == {"admission-rejected"}
                events = server.core.log.of_kind(EventKind.ADMISSION_REJECTED)
                assert len(events) == len(rejected)
                # Only accepted allocations touched any state.
                assert server.core.ledger.usage("t") == len(accepted) * (
                    MiB // 4096
                )
                assert len(server.core.sessions["t"].buffers) == len(accepted)

        run(scenario())

    def test_sequenced_server_skips_admission_control(self, allocator):
        async def scenario():
            async with ReproServeServer(
                allocator, sequenced=True, max_pending=1
            ) as server:
                client = ServeClient(server, "t")
                assert (await client.open(seq=0)).ok
                tasks = [
                    asyncio.ensure_future(
                        client.alloc(f"h{i}", MiB, "Capacity", 0, seq=1 + i)
                    )
                    for i in range(6)
                ]
                responses = await asyncio.gather(*tasks)
                assert all(r.ok for r in responses)

        run(scenario())


class TestVerbs:
    def test_query_is_consistent_and_non_mutating(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                client = ServeClient(server, "t")
                await client.open()
                before = allocator.kernel.free_pages_array()
                reply = await client.query("Bandwidth", 0)
                assert reply.ok
                assert reply.result["generation"] == server.core.memattrs.generation
                assert reply.result["targets"], "ranking came back empty"
                top = reply.result["targets"][0]
                assert set(top) == {"node", "value", "free_bytes"}
                assert allocator.kernel.free_pages_array() == before

        run(scenario())

    def test_migrate_moves_pages(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                client = ServeClient(server, "t")
                await client.open()
                placed = await client.alloc("h", 8 * MiB, "Capacity", 0)
                assert placed.ok
                best_latency = (await client.query("Latency", 0)).result[
                    "targets"
                ][0]["node"]
                moved = await client.migrate("h", "Latency")
                assert moved.ok
                assert moved.result["to_node"] == best_latency
                assert moved.result["nodes"] == [best_latency]

        run(scenario())

    def test_realloc_after_same_node_migrate_is_not_degraded(self, allocator):
        """alloc Bandwidth → migrate to Latency (same DRAM node, nothing
        moves) → free → alloc Bandwidth: the new buffer answers its own
        request, with no degraded flag and no event."""
        core = ServeCore(allocator)

        def apply(verb, **payload):
            return core.apply(Request(verb=verb, tenant="t", id=0, payload=payload))

        assert apply("open").ok
        spec = {"size": 8 * MiB, "attribute": "Bandwidth", "initiator": 0}
        assert apply("alloc", handle="a", **spec).ok
        moved = apply("migrate", handle="a", attribute="Latency")
        assert moved.ok and moved.result["moved_pages"] == 0
        assert apply("free", handle="a").ok
        again = apply("alloc", handle="b", **spec)
        assert again.ok
        assert again.result["used_attribute"] == "Bandwidth"
        assert not again.result["degraded"]
        assert again.result["reasons"] == []
        assert not core.log.of_kind(EventKind.PLACEMENT_DEGRADED)

    def test_replies_read_only_their_own_events(self, base, monkeypatch):
        """alloc, alloc_many and migrate take their reasons and retries
        from the events their request recorded: the same replies come
        back when reading the whole log raises."""

        def replies():
            kernel = KernelMemoryManager(base.machine)
            core = ServeCore(HeterogeneousAllocator(base.memattrs, kernel))

            def apply(verb, **payload):
                request = Request(verb=verb, tenant="t", id=0, payload=payload)
                return core.apply(request).result

            def spec(handle, size):
                return {"handle": handle, "size": size,
                        "attribute": "Bandwidth", "initiator": 0}

            apply("open")
            _, ranked = core.allocator.rank_for("Bandwidth", 0)
            best = ranked[0].target.os_index
            apply("alloc", **spec("filler", kernel.free_bytes(best)))
            out = [
                apply("alloc", **spec("a", 8 * MiB)),
                apply("alloc_many", requests=[spec("b", 8 * MiB),
                                              spec("c", 8 * MiB)]),
            ]
            failures = [True, True]
            kernel.migration_fault_hook = lambda: bool(failures and failures.pop())
            out.append(apply("migrate", handle="a", attribute="Capacity"))
            return out

        expected = replies()
        assert expected[0]["reasons"] == ["capacity-fallback:rank1"]
        assert [r["result"]["reasons"] for r in expected[1]["results"]] == [
            ["capacity-fallback:rank1"]
        ] * 2
        assert expected[2]["retries"] == 2

        def whole_log(self):
            raise AssertionError("a reply copied the whole event log")

        monkeypatch.setattr(ResilienceLog, "events", property(whole_log))
        assert replies() == expected

    def test_stats_reads_no_event_list(self, allocator):
        """``stats`` takes its event counts from the log's running tally,
        so its cost does not grow with the daemon's uptime."""
        core = ServeCore(allocator)
        for kind in (EventKind.QUOTA_EXCEEDED, EventKind.ADMISSION_REJECTED,
                     EventKind.QUOTA_EXCEEDED):
            core.log.record(kind, "t")

        class Unwalkable(list):
            def __iter__(self):
                raise AssertionError("stats walked the whole event log")

        core.log._events = Unwalkable(core.log._events)
        reply = core.apply(Request(verb="stats", tenant="t", id=0))
        assert reply.ok
        assert reply.result["events"] == {
            "admission-rejected": 1, "quota-exceeded": 2
        }

    def test_spelling_loop_leaves_a_bounded_memo(self):
        """One tenant cycling the 8,192 case spellings of an attribute
        makes 8,192 distinct requests; the allocator keeps at most 4,096
        plans for them."""
        knl = quick_setup("knl-snc4-flat")
        core = ServeCore(
            HeterogeneousAllocator(knl.memattrs, KernelMemoryManager(knl.machine))
        )

        def apply(verb, **payload):
            return core.apply(Request(verb=verb, tenant="t", id=0, payload=payload))

        assert apply("open").ok
        word = "readbandwidth"
        for mask in range(1 << len(word)):
            spelling = "".join(
                c.upper() if mask >> i & 1 else c for i, c in enumerate(word)
            )
            placed = apply("alloc", handle="h", size=4096, attribute=spelling,
                           initiator=(0, 64, 128, 192)[mask % 4])
            assert placed.ok, placed
            assert apply("free", handle="h").ok
        assert len(core.allocator._plans) <= 4096

    def test_stats_reports_sessions_ledger_and_kernel(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                client = ServeClient(server, "t")
                await client.open(quota_bytes=64 * MiB)
                await client.alloc("h", 4 * MiB, "Bandwidth", 0)
                stats = await client.stats()
                assert stats.ok
                result = stats.result
                assert result["sessions"]["t"]["buffers"] == 1
                assert result["ledger"]["t"]["used_pages"] == 4 * MiB // 4096
                assert result["verbs"]["alloc"] == 1
                assert result["kernel"]["live_allocations"] == 1
                assert "cache" in result["diagnostics"]

        run(scenario())

    def test_sequenced_server_requires_seq(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator, sequenced=True) as server:
                client = ServeClient(server, "t")
                reply = await client.open()  # no seq
                assert reply.error == "bad-request"

        run(scenario())

    def test_duplicate_seq_gets_typed_error(self, allocator):
        """A reused ``seq`` is refused on its own id; later ones commit."""

        async def scenario():
            async with ReproServeServer(allocator, sequenced=True) as server:
                client = ServeClient(server, "t")
                assert (await client.open(seq=0)).ok
                dup = await asyncio.wait_for(client.stats(seq=0), 2.0)
                assert dup.error == "bad-request"
                assert "sequence number 0" in dup.message
                assert (await asyncio.wait_for(client.stats(seq=1), 2.0)).ok
                assert server.pending == 0

        run(scenario())

    def test_shutdown_answers_held_requests(self, allocator):
        async def scenario():
            server = ReproServeServer(allocator, sequenced=True)
            await server.start()
            client = ServeClient(server, "t")
            # seq 1 can never commit: seq 0 is never submitted.
            held = asyncio.ensure_future(client.open(seq=1))
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            await server.stop()
            reply = await held
            assert not reply.ok
            assert reply.error == "shutting-down"
            with pytest.raises(ServeError):
                await client.stats()

        run(scenario())


class TestStreamTransport:
    def test_ndjson_roundtrip_over_tcp(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                client = await StreamServeClient.connect(host, port, "remote")
                try:
                    assert (await client.open(quota_bytes=32 * MiB)).ok
                    placed = await client.alloc("h0", 4 * MiB, "Bandwidth", 0)
                    assert placed.ok
                    assert placed.result["handle"] == "h0"
                    stats = await client.stats()
                    assert stats.result["sessions"]["remote"]["buffers"] == 1
                    assert (await client.close()).ok
                finally:
                    await client.aclose()
                    await stream.stop()

        run(scenario())

    def test_malformed_line_gets_typed_error_not_disconnect(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(b"this is not json\n")
                    await writer.drain()
                    from repro.serve import decode_response

                    reply = decode_response(await reader.readline())
                    assert not reply.ok
                    assert reply.error == "bad-request"
                    # The connection survives: a valid request still works.
                    writer.write(
                        b'{"verb":"open","tenant":"t","id":1}\n'
                    )
                    await writer.drain()
                    reply = decode_response(await reader.readline())
                    assert reply.ok
                finally:
                    writer.close()
                    await writer.wait_closed()
                    await stream.stop()

        run(scenario())

    def test_oversize_line_gets_typed_error_not_disconnect(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    # 1 MiB, far past the 64 KiB line limit: most of the
                    # line arrives after the server has answered it.
                    writer.write(b'{"verb":"open","pad":"' + b"x" * (1 << 20))
                    writer.write(b'"}\n')
                    writer.write(b'{"verb":"open","tenant":"t","id":1}\n')
                    await writer.drain()
                    from repro.serve import decode_response

                    reply = decode_response(await reader.readline())
                    assert not reply.ok
                    assert reply.error == "bad-request"
                    assert reply.id == -1
                    assert "65536-byte limit" in reply.message
                    # The rest of the line is skipped; the next one is served.
                    reply = decode_response(await reader.readline())
                    assert reply.ok
                    assert reply.id == 1
                finally:
                    writer.close()
                    await writer.wait_closed()
                    await stream.stop()

        run(scenario())

    def test_undecodable_line_gets_typed_error_not_disconnect(self, allocator):
        """Bad UTF-8 and nesting too deep for the JSON decoder are
        malformed lines like any other."""

        async def scenario():
            async with ReproServeServer(allocator) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    for rid, bad in enumerate((b"\xff\xfe", b"[" * 50_000)):
                        writer.write(bad + b"\n")
                        reply = decode_response(await reader.readline())
                        assert reply.error == "bad-request"
                        assert reply.id == -1
                        reply = await _raw_request(
                            reader, writer, f"t{rid}", "open", rid=rid
                        )
                        assert reply.ok
                finally:
                    writer.close()
                    await writer.wait_closed()
                    await stream.stop()

        run(scenario())

    def test_request_after_stop_gets_shutting_down(self, allocator):
        """A stopped server answers each later request on its own id."""

        async def scenario():
            server = ReproServeServer(allocator)
            await server.start()
            stream = StreamServer(server)
            host, port = await stream.start()
            client = await StreamServeClient.connect(host, port, "t")
            try:
                assert (await client.open()).ok
                await server.stop()
                stats = await asyncio.wait_for(client.stats(), 2.0)
                assert (stats.id, stats.error) == (2, "shutting-down")
                query = await asyncio.wait_for(client.query("Bandwidth", 0), 2.0)
                assert (query.id, query.error) == (3, "shutting-down")
            finally:
                await client.aclose()
                await stream.stop()

        run(scenario())

    def test_interleaved_tenants_share_one_kernel(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                a = await StreamServeClient.connect(host, port, "a")
                b = await StreamServeClient.connect(host, port, "b")
                try:
                    await asyncio.gather(a.open(), b.open())
                    replies = await asyncio.gather(
                        *(
                            c.alloc(f"h{i}", MiB, "Capacity", 0)
                            for c in (a, b)
                            for i in range(4)
                        )
                    )
                    assert all(r.ok for r in replies)
                    stats = await a.stats()
                    assert stats.result["kernel"]["live_allocations"] == 8
                finally:
                    await a.aclose()
                    await b.aclose()
                    await stream.stop()

        run(scenario())


async def _raw_request(reader, writer, tenant, verb, payload=None, rid=1):
    writer.write(
        encode_request(
            Request(verb=verb, tenant=tenant, id=rid, payload=payload or {})
        )
    )
    await writer.drain()
    return decode_response(await reader.readline())


async def _hang_up(reader, writer):
    """Half-close and read until the server hangs up, which it does only
    after its end-of-connection handling."""
    writer.write_eof()
    while await reader.readline():
        pass
    writer.close()
    await writer.wait_closed()


async def _sessions_drained(core, timeout_s=5.0):
    """Poll until the server has closed every session (or time out)."""
    for _ in range(int(timeout_s / 0.01)):
        if not core.sessions:
            return
        await asyncio.sleep(0.01)


class TestDisconnect:
    """A connection owns the tenants it opened until a close succeeds
    from any connection; when it ends, the server closes what it still
    owns."""

    def test_disconnect_releases_tenant(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                core = server.core
                free_before = core.kernel.free_pages_array()
                stream = StreamServer(server)
                host, port = await stream.start()
                client = await StreamServeClient.connect(host, port, "t1")
                try:
                    assert (await client.open()).ok
                    assert (await client.alloc("h", GiB, "Bandwidth", 0)).ok
                    assert core.kernel.live_allocations()
                finally:
                    await client.aclose()
                await _sessions_drained(core)
                try:
                    assert core.sessions == {}
                    assert core.ledger.snapshot() == {}
                    assert core.kernel.live_allocations() == ()
                    assert core.kernel.free_pages_array() == free_before
                finally:
                    await stream.stop()

        run(scenario())

    def test_reset_connection_releases_tenant(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    assert (await _raw_request(reader, writer, "t1", "open")).ok
                    # Linger 0: closing sends a reset instead of EOF.
                    sock = writer.get_extra_info("socket")
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    writer.transport.abort()
                    await _sessions_drained(server.core)
                    assert server.core.sessions == {}
                finally:
                    await stream.stop()

        run(scenario())

    def test_explicit_close_is_not_repeated(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    assert (await _raw_request(reader, writer, "t1", "open")).ok
                    placed = await _raw_request(
                        reader, writer, "t1", "alloc",
                        {"handle": "h", "size": MiB,
                         "attribute": "Bandwidth", "initiator": 0},
                        rid=2,
                    )
                    assert placed.ok
                    closed = await _raw_request(
                        reader, writer, "t1", "close", rid=3
                    )
                    assert closed.ok
                    await _hang_up(reader, writer)
                    assert server.core.verb_counts["close"] == 1
                    assert server.core.sessions == {}
                finally:
                    await stream.stop()

        run(scenario())

    def test_reopened_tenant_survives_first_owner_eof(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                reader, writer = await asyncio.open_connection(host, port)
                other = await StreamServeClient.connect(host, port, "t1")
                try:
                    assert (await _raw_request(reader, writer, "t1", "open")).ok
                    assert (await other.close()).ok
                    assert (await other.open()).ok
                    assert (await other.alloc("h", MiB, "Bandwidth", 0)).ok
                    # The first connection ends; it no longer owns t1.
                    await _hang_up(reader, writer)
                    assert server.core.verb_counts["close"] == 1
                    stats = await other.stats()
                    assert stats.result["sessions"]["t1"]["buffers"] == 1
                finally:
                    await other.aclose()
                    await stream.stop()

        run(scenario())


def _query_lines(tenant, ids):
    """Pipelined 250-byte queries.  The padding, which ``query`` ignores,
    lets what a server leaves unread of 40,000 lines (10 MB) outgrow the
    kernel's socket buffers."""
    payload = {"attribute": "Bandwidth", "initiator": 0, "pad": "x" * 150}
    return b"".join(
        encode_request(Request(verb="query", tenant=tenant, id=rid, payload=payload))
        for rid in ids
    )


async def _applied_when_steady(core, verb, settle_s=0.3, timeout_s=20.0):
    """How many ``verb`` requests the core applied, once that stops
    changing for ``settle_s``."""
    seen = -1
    for _ in range(int(timeout_s / settle_s)):
        count = core.verb_counts.get(verb, 0)
        if count == seen:
            return count
        seen = count
        await asyncio.sleep(settle_s)
    return seen


class TestPipelining:
    """A client may pipeline without bound: the server reads requests
    only as fast as the client takes its answers."""

    def test_unread_answers_stop_reading(self, allocator):
        n = 40_000

        async def scenario():
            # No admission rejections: every line read is applied.
            async with ReproServeServer(allocator, max_pending=n) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                # Small kernel buffers on the client, so that what the
                # server leaves unread backs up into the client's writer.
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(sock, (host, port))
                reader, writer = await asyncio.open_connection(sock=sock)
                try:
                    assert (await _raw_request(reader, writer, "t", "open")).ok
                    writer.write(_query_lines("t", range(2, n + 2)))
                    drain = asyncio.ensure_future(writer.drain())
                    applied = await _applied_when_steady(server.core, "query")
                    assert applied < n, "the server read every unanswered line"
                    assert not drain.done(), "the client's writes never blocked"
                    answered = []
                    while len(answered) < n:
                        answered.append(decode_response(await reader.readline()))
                    await drain
                    assert sorted(r.id for r in answered) == list(range(2, n + 2))
                    assert all(r.ok for r in answered)
                finally:
                    writer.close()
                    await writer.wait_closed()
                    await stream.stop()

        run(scenario())

    def test_half_close_after_a_burst_gets_every_answer(self, allocator):
        n = 2000

        async def scenario():
            async with ReproServeServer(allocator, max_pending=n) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    opening = encode_request(Request(verb="open", tenant="t", id=0))
                    writer.write(opening + _query_lines("t", range(1, n)))
                    writer.write_eof()
                    answered = []
                    while line := await reader.readline():
                        answered.append(decode_response(line))
                    assert sorted(r.id for r in answered) == list(range(n))
                    assert all(r.ok for r in answered)
                    # The hang-up came after the owned tenant was closed.
                    assert server.core.sessions == {}
                finally:
                    writer.close()
                    await writer.wait_closed()
                    await stream.stop()

        run(scenario())

    def test_request_written_a_byte_at_a_time(self, allocator):
        async def scenario():
            async with ReproServeServer(allocator) as server:
                stream = StreamServer(server)
                host, port = await stream.start()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    line = encode_request(Request(verb="open", tenant="t", id=7))
                    for i in range(len(line)):
                        writer.write(line[i:i + 1])
                        await writer.drain()
                        await asyncio.sleep(0.001)
                    reply = decode_response(await reader.readline())
                    assert (reply.id, reply.ok) == (7, True)
                finally:
                    writer.close()
                    await writer.wait_closed()
                    await stream.stop()

        run(scenario())
