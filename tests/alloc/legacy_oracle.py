"""The allocator's legacy placement body, frozen as a test oracle.

Production ``mem_alloc``, ``rank_for`` and ``migrate`` read a memoized
allocation plan with a recycling pool in front of it.  This module keeps
the route that plan replaced, unchanged in its decisions: re-derive the
initiator's PUs and the target ranking on every call, then either spill
down the ranking with the kernel's ordered primitive or place the whole
buffer with the kernel's policy allocator on the first target that
fits.  It reads no allocator memo.  The differential suite
(``test_fastpath_differential.py``) drives it; nothing under ``src/``
imports it.

Every function takes the :class:`~repro.alloc.HeterogeneousAllocator`
whose settings, buffer registry and kernel it uses, so an oracle twin is
an ordinary allocator that is only ever driven through this module.
"""

from __future__ import annotations

import itertools

from repro.alloc.allocator import AllocRequest, Buffer, HeterogeneousAllocator
from repro.alloc.fallback import attribute_fallback_chain
from repro.core.ranking import rank_targets
from repro.errors import AllocationError, CapacityError
from repro.kernel.policy import bind_policy
from repro.topology.traversal import as_cpuset

_names = itertools.count(1)


def rank_for(
    allocator: HeterogeneousAllocator,
    attribute: str,
    initiator,
    *,
    scope: str = "local",
):
    """Resolve the attribute (with fallback) and rank targets, from scratch."""
    memattrs = allocator.memattrs
    if scope not in ("local", "machine"):
        raise AllocationError(f"unknown scope {scope!r}")
    if scope == "local":
        local = memattrs.get_local_numanode_objs(initiator)
        targets = local if local else memattrs.topology.numanodes()
    else:
        targets = memattrs.topology.numanodes()
    chain = attribute_fallback_chain(
        memattrs, attribute, overrides=allocator._attribute_fallback
    )
    for attr in chain:
        if not memattrs.has_values(attr):
            continue
        ranked = rank_targets(
            memattrs,
            attr,
            initiator,
            targets=targets,
            tie_attr=allocator.tie_attr if allocator.tie_attr != attr.name else None,
            tie_tolerance=allocator.tie_tolerance,
        )
        if ranked:
            return attr.name, ranked
    raise AllocationError(
        f"no attribute in the fallback chain of {attribute!r} has values "
        "for any local target"
    )


def _initiator_pus(allocator: HeterogeneousAllocator, initiator) -> tuple[int, ...]:
    cpuset = as_cpuset(allocator.memattrs.topology, initiator)
    if cpuset.is_empty():
        raise AllocationError("initiator has no PUs")
    return tuple(cpuset)


def mem_alloc(
    allocator: HeterogeneousAllocator,
    size: int,
    attribute: str,
    initiator,
    *,
    name: str | None = None,
    allow_partial: bool = False,
    allow_fallback: bool = True,
    scope: str = "local",
) -> Buffer:
    """One allocation, decided from scratch."""
    kernel = allocator.kernel
    if size <= 0:
        raise AllocationError("allocation size must be positive")
    name = name or f"oracle{next(_names)}"
    if name in allocator.buffers:
        raise AllocationError(f"buffer name {name!r} already in use")
    initiator_pus = _initiator_pus(allocator, initiator)
    used_attr, ranked = rank_for(allocator, attribute, initiator, scope=scope)
    if not allow_fallback:
        ranked = ranked[:1]

    if allow_partial:
        # Greedy spill down the ranking ("at least partially", §VII).
        nodeset = tuple(tv.target.os_index for tv in ranked)
        total_free = sum(kernel.free_bytes(n) for n in nodeset)
        if total_free >= size:
            allocation = kernel.allocate_ordered(size, nodeset)
            best_node = ranked[0].target.os_index
            buffer = Buffer(
                name=name,
                size=size,
                requested_attribute=attribute,
                used_attribute=used_attr,
                allocation=allocation,
                target=(
                    ranked[0].target
                    if allocation.fraction_on(best_node) > 0
                    else None
                ),
                fallback_rank=0 if allocation.fraction_on(best_node) >= 0.999 else 1,
                initiator=initiator_pus,
            )
            allocator.buffers[name] = buffer
            return buffer
    else:
        for rank, tv in enumerate(ranked):
            node = tv.target.os_index
            if kernel.free_bytes(node) >= size:
                allocation = kernel.allocate(
                    size, bind_policy(node), initiator_pu=initiator_pus[0]
                )
                buffer = Buffer(
                    name=name,
                    size=size,
                    requested_attribute=attribute,
                    used_attribute=used_attr,
                    allocation=allocation,
                    target=tv.target,
                    fallback_rank=rank,
                    initiator=initiator_pus,
                )
                allocator.buffers[name] = buffer
                return buffer

    raise CapacityError(
        f"cannot place {size} bytes for attribute {attribute!r}: "
        + "; ".join(
            f"{tv.target.label} free={kernel.free_bytes(tv.target.os_index)}"
            for tv in ranked
        )
    )


def mem_alloc_many(
    allocator: HeterogeneousAllocator,
    requests,
    *,
    rollback_on_error: bool = True,
) -> tuple[Buffer, ...]:
    """The sequential batch: one :func:`mem_alloc` per request, in order,
    all-or-nothing unless ``rollback_on_error`` is false."""
    placed: list[Buffer] = []
    try:
        for req in requests:
            if isinstance(req, AllocRequest):
                r = req
            elif isinstance(req, dict):
                r = AllocRequest(**req)
            else:
                r = AllocRequest(*req)
            placed.append(
                mem_alloc(
                    allocator,
                    r.size,
                    r.attribute,
                    r.initiator,
                    name=r.name,
                    allow_partial=r.allow_partial,
                    allow_fallback=r.allow_fallback,
                    scope=r.scope,
                )
            )
    except Exception:
        if rollback_on_error:
            for buf in reversed(placed):
                free(allocator, buf)
        raise
    return tuple(placed)


def free(allocator: HeterogeneousAllocator, buffer: Buffer | str) -> None:
    """Release a buffer through the kernel."""
    buffer = allocator._resolve_buffer(buffer)
    allocator.kernel.free(buffer.allocation)
    del allocator.buffers[buffer.name]


def migrate(allocator: HeterogeneousAllocator, buffer: Buffer | str, attribute: str):
    """Move a buffer to the first target of a fresh ranking that absorbs it."""
    buffer = allocator._resolve_buffer(buffer)
    used_attr, ranked = rank_for(allocator, attribute, buffer.initiator)
    kernel = allocator.kernel
    for tv in ranked:
        node = tv.target.os_index
        needed = buffer.size * (1 - buffer.allocation.fraction_on(node))
        if kernel.free_bytes(node) >= needed:
            report = kernel.migrate(buffer.allocation, node)
            buffer.target = tv.target
            buffer.used_attribute = used_attr
            buffer.requested_attribute = attribute
            return report
    raise CapacityError(
        f"no target can absorb {buffer.name} for attribute {attribute!r}"
    )
