"""The plan route never changes a placement — differential proof.

Production allocation is one route: a plan per ``(attribute,
initiator, scope)`` triple, memoized (at most 4,096 plans) and read by
``rank_for`` and ``migrate`` too, with a recycling pool in front of it.
``legacy_oracle.py`` keeps the body that route replaced, which
re-derives everything on every call and reads no memo.  For ~100
seeded random machines this suite replays one interleaved scenario on
two twin stacks:

* ``memo``   — production, plan memo and pool engaged;
* ``oracle`` — the legacy body.

The scenario mixes allocs (named, spill, strict, zero and negative
sizes), frees, batches, migrate → free → re-alloc cycles, node
offline/online, co-tenant capacity loss and release, and attribute
value updates.  Every externally visible outcome must be bit-identical:
used attribute, fallback rank, primary target, the full page map of
every allocation, raised error types (and messages for allocation
errors), and the kernel's final free-page counters.

Buffer *names* are deliberately excluded: the two routes mint them
from different process-global counters.  Names are handles, not
placement decisions.
"""

import random
from functools import partial

import pytest

from repro.alloc import AllocRequest, HeterogeneousAllocator
from repro.core import MemAttrs, native_discovery
from repro.errors import CapacityError, ReproError
from repro.kernel import KernelMemoryManager
from repro.topology import build_topology
from repro.units import GB, MiB

from tests.alloc import legacy_oracle
from tests.obs.test_differential import random_machine

N_SEEDS = 100
ATTRIBUTES = ("Capacity", "Bandwidth", "Latency")
MODES = ("memo", "oracle")


def _note(sig: list, tag: str, buf) -> None:
    alloc = buf.allocation
    sig.append(
        (
            tag,
            buf.used_attribute,
            buf.fallback_rank,
            None if buf.target is None else buf.target.os_index,
            tuple(sorted(alloc.pages_by_node.items())),
        )
    )


def _drain_cannot_split(kernel: KernelMemoryManager, node: int) -> bool:
    """Whether offlining ``node`` places every drained page the same way
    whatever order the drain visits allocations in.

    The drain walks live allocations by allocation id.  A recycled
    allocation keeps its record (and id) while the oracle mints a fresh
    one, so when the drain has to split across destinations, which
    buffer splits follows record age, not any placement decision.  It
    cannot split when the nearest online destination absorbs everything,
    or when nothing fits and the drain is refused.
    """
    resident = sum(
        a.pages_by_node.get(node, 0) for a in kernel.live_allocations()
    )
    dests = [d for d in kernel.zonelist(node)[1:] if kernel.is_online(d)]
    free = [kernel.nodes[d].free_pages for d in dests]
    return not dests or resident <= free[0] or resident > sum(free)


def placement_signature(seed: int, *, mode: str, coverage: set | None = None) -> list:
    """Replay one seeded scenario down one route (see :data:`MODES`).

    ``coverage`` collects tags naming the interesting paths the replay
    hit, for the coverage guard below.
    """
    rng = random.Random(seed)
    machine = random_machine(rng)
    topo = build_topology(machine)
    memattrs = native_discovery(topo) if machine.has_hmat else MemAttrs(topo)
    kernel = KernelMemoryManager(machine)
    allocator = HeterogeneousAllocator(memattrs, kernel)
    if mode == "oracle":
        mem_alloc = partial(legacy_oracle.mem_alloc, allocator)
        mem_alloc_many = partial(legacy_oracle.mem_alloc_many, allocator)
        free = partial(legacy_oracle.free, allocator)
        migrate = partial(legacy_oracle.migrate, allocator)
    else:
        mem_alloc = allocator.mem_alloc
        mem_alloc_many = allocator.mem_alloc_many
        free = allocator.free
        migrate = allocator.migrate
    seen = set() if coverage is None else coverage
    npus = machine.total_pus
    nodes = kernel.node_ids()
    sig: list = []
    live: list = []        # (buffer, (size, attribute, initiator, scope))
    freed: list = []       # keeps freed allocations alive so id() stays unique
    freed_ids: set = set()

    # A small set of recurring request shapes: repeats are what warm the
    # plan memo and feed the recycling pool.
    canon = [
        (
            rng.choice((rng.randint(1, 256) * MiB, rng.randint(1, 16) * GB)),
            rng.choice(ATTRIBUTES),
            rng.randrange(npus),
            "machine" if rng.random() < 0.2 else "local",
        )
        for _ in range(4)
    ]

    def draw():
        return rng.choice(canon)

    def placed(tag, buf, shape):
        _note(sig, tag, buf)
        live.append((buf, shape))
        if id(buf.allocation) in freed_ids:
            seen.add("recycle")
        if buf.is_split:
            seen.add("spill")

    def release(buf):
        free(buf)
        freed.append(buf.allocation)
        freed_ids.add(id(buf.allocation))
        sig.append(("free",))

    for step in range(rng.randint(30, 45)):
        op = rng.random()
        if op < 0.45:
            size, attr, initiator, scope = draw()
            if rng.random() < 0.06:
                size = rng.choice((0, -4096))          # refused on every route
            kwargs: dict = {"scope": scope}
            if rng.random() < 0.15:
                kwargs["name"] = f"n{step}"
            if rng.random() < 0.15:
                kwargs["allow_partial"] = True
            if rng.random() < 0.10:
                kwargs["allow_fallback"] = False
            try:
                buf = mem_alloc(size, attr, initiator, **kwargs)
            except ReproError as exc:
                sig.append(("err", sorted(kwargs), type(exc).__name__, str(exc)))
                if isinstance(exc, CapacityError) and "allow_fallback" in kwargs:
                    seen.add("strict-failure")
            else:
                placed("buf", buf, (size, attr, initiator, scope))
        elif op < 0.65 and live:
            release(live.pop(rng.randrange(len(live)))[0])
        elif op < 0.77:
            shape = rng.random()
            n = rng.randint(1, 4)
            reqs: list = []
            if shape < 0.45:
                # Homogeneous AllocRequest batch over the canon shapes.
                for _ in range(n):
                    size, attr, initiator, scope = draw()
                    reqs.append(
                        AllocRequest(
                            size=size, attribute=attr,
                            initiator=initiator, scope=scope,
                        )
                    )
            elif shape < 0.65:
                # Shared-triple spill batch.
                _, attr, initiator, scope = draw()
                reqs = [
                    AllocRequest(
                        size=draw()[0], attribute=attr, initiator=initiator,
                        scope=scope, allow_partial=True,
                    )
                    for _ in range(n)
                ]
            elif shape < 0.85:
                # Dict requests: normalization in the batch loop.
                reqs = [
                    dict(
                        size=draw()[0],
                        attribute=rng.choice(ATTRIBUTES),
                        initiator=rng.randrange(npus),
                    )
                    for _ in range(n)
                ]
            else:
                # Mixed shapes, sometimes with a refused size at the end:
                # the rollback must restore every counter.
                size, attr, initiator, scope = draw()
                reqs = [
                    AllocRequest(
                        size=size, attribute=attr,
                        initiator=initiator, scope=scope,
                    ),
                    dict(
                        size=draw()[0] if rng.random() < 0.7 else 0,
                        attribute=rng.choice(ATTRIBUTES),
                        initiator=rng.randrange(npus),
                    ),
                ]
            try:
                bufs = mem_alloc_many(reqs)
            except ReproError as exc:
                sig.append(("batch-err", type(exc).__name__, str(exc)))
            else:
                for req, b in zip(reqs, bufs):
                    r = AllocRequest(**req) if isinstance(req, dict) else req
                    placed("batch", b, (r.size, r.attribute, r.initiator, r.scope))
        elif op < 0.85 and live:
            # migrate, then usually free and re-request the original shape:
            # a buffer moved to another attribute must not come back
            # from the original plan's pool under its new attribute.
            i = rng.randrange(len(live))
            buf, shape = live[i]
            try:
                report = migrate(buf, rng.choice(ATTRIBUTES))
            except ReproError as exc:
                sig.append(("migrate-err", type(exc).__name__))
            else:
                sig.append(("migrate", report.moved_pages, report.to_node))
                _note(sig, "migrated", buf)
            if rng.random() < 0.6:
                del live[i]
                release(buf)
                size, attr, initiator, scope = shape
                try:
                    again = mem_alloc(size, attr, initiator, scope=scope)
                except ReproError as exc:
                    sig.append(("realloc-err", type(exc).__name__, str(exc)))
                else:
                    placed("realloc", again, shape)
        elif op < 0.90:
            node = rng.choice(nodes)
            if not kernel.is_online(node):
                kernel.online_node(node)
                sig.append(("online", node))
                seen.add("generation-bump")
            elif len(kernel.online_node_ids()) > 1 and _drain_cannot_split(
                kernel, node
            ):
                try:
                    kernel.offline_node(node)
                except ReproError as exc:
                    sig.append(("offline-err", type(exc).__name__))
                else:
                    sig.append(("offline", node))
                    seen.update(("offline", "generation-bump"))
        elif op < 0.95:
            node = rng.choice(nodes)
            if rng.random() < 0.6:
                pages = rng.randint(1, kernel.nodes[node].total_pages)
                sig.append(("steal", node, kernel.cotenant_reserve(node, pages)))
            else:
                sig.append(("return", node, kernel.cotenant_release(node)))
            seen.add("generation-bump")
        else:
            attr = rng.choice(ATTRIBUTES)
            target = rng.choice(topo.numanodes())
            if attr == "Capacity":
                initiator, value = None, rng.randint(1, 64) * GB
            elif attr == "Bandwidth":
                initiator, value = rng.choice(topo.pus()), rng.uniform(1e9, 1e11)
            else:
                initiator, value = rng.choice(topo.pus()), rng.uniform(5e-8, 5e-7)
            memattrs.set_value(attr, target, initiator, value)
            sig.append(("set_value", attr, target.os_index))
            seen.add("generation-bump")

    # The final kernel state must agree page-for-page: recycling and the
    # rollbacks may not drift the counters.
    sig.append(("state", tuple(kernel.free_pages_array())))
    sig.append(("live", len(kernel.live_allocations())))
    return sig


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_fast_and_legacy_paths_place_identically(seed):
    assert placement_signature(seed, mode="memo") == placement_signature(
        seed, mode="oracle"
    )


def test_scenarios_cover_the_interesting_paths():
    """The sweep must hit every path the differential claims to cover —
    the guarantee is only as strong as its coverage."""
    kinds: set[str] = set()
    coverage: set[str] = set()
    fallbacks = 0
    refused_sizes = 0
    for seed in range(N_SEEDS):
        for entry in placement_signature(seed, mode="memo", coverage=coverage):
            kinds.add(entry[0])
            if entry[0] in ("buf", "batch") and entry[2] > 0:
                fallbacks += 1
            if entry[0] in ("err", "batch-err") and "must be positive" in entry[-1]:
                refused_sizes += 1
    assert {"buf", "batch", "free", "migrate", "realloc", "state"} <= kinds
    assert {"err", "batch-err", "steal", "return", "set_value"} <= kinds
    assert {"offline", "online"} <= kinds
    assert fallbacks > 0
    assert refused_sizes > 0
    assert {
        "recycle", "spill", "strict-failure", "generation-bump", "offline"
    } <= coverage


def test_fast_path_actually_engages():
    """Guard against the differential trivially passing because the memo
    never ran: a warm repeat must be served by the recycling pool."""
    rng = random.Random(1234)
    machine = random_machine(rng)
    topo = build_topology(machine)
    memattrs = native_discovery(topo) if machine.has_hmat else MemAttrs(topo)
    kernel = KernelMemoryManager(machine)
    allocator = HeterogeneousAllocator(memattrs, kernel)
    first = allocator.mem_alloc(8 * MiB, "Capacity", 0)
    allocator.free(first)
    again = allocator.mem_alloc(8 * MiB, "Capacity", 0)
    assert again.allocation is first.allocation   # recycled record
    assert again._plan is not None                # placed by the memoized plan
