"""Topology discovery: build the object tree from a machine model.

This plays the role of hwloc's Linux backend: it consumes what the
"hardware" (a :class:`~repro.hw.spec.MachineSpec` and its virtual sysfs)
exposes and produces the object tree.  Memory objects are attached to the
normal object matching their locality — Group for SubNUMA-cluster
memories, Package for socket memories, Machine for e.g. network-attached
memory — reproducing the multi-level structure of the paper's Figs. 1-3.

Memory-side caches (KNL hybrid/cache modes, Xeon 2LM) are inserted
between the attach point and the NUMANode, as hwloc does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import TopologyError, UnknownObjectError
from ..firmware.slit import Slit, build_slit
from ..firmware.srat import Srat, build_srat
from ..hw.spec import AttachLevel, CacheSpec, MachineSpec, NodeInstance
from .bitmap import Bitmap
from .objects import ObjType, TopoObject

__all__ = ["Topology", "build_topology"]


@dataclass
class Topology:
    """A built topology: the tree plus by-type indexes and firmware views."""

    machine_spec: MachineSpec
    root: TopoObject
    srat: Srat
    slit: Slit
    _by_type: dict[ObjType, list[TopoObject]] = field(default_factory=dict)
    # Memoized answers of ``repro.topology.traversal`` (initiator ->
    # cpuset, (cpuset, flags) -> local NUMA nodes).  A built topology
    # never changes, so they cannot go stale.
    _cpusets: dict = field(default_factory=dict, repr=False, compare=False)
    _local_nodes: dict = field(default_factory=dict, repr=False, compare=False)

    # -- indexing -------------------------------------------------------
    def objs(self, type: ObjType) -> tuple[TopoObject, ...]:
        """All objects of a type, ordered by logical index."""
        return tuple(self._by_type.get(type, ()))

    def nbobjs(self, type: ObjType) -> int:
        return len(self._by_type.get(type, ()))

    def obj_by_logical(self, type: ObjType, index: int) -> TopoObject:
        objs = self._by_type.get(type, [])
        if not 0 <= index < len(objs):
            raise UnknownObjectError(f"no {type.value} with logical index {index}")
        return objs[index]

    def obj_by_os_index(self, type: ObjType, os_index: int) -> TopoObject:
        for obj in self._by_type.get(type, []):
            if obj.os_index == os_index:
                return obj
        raise UnknownObjectError(f"no {type.value} with OS index {os_index}")

    # -- common shorthands ------------------------------------------------
    def numanodes(self) -> tuple[TopoObject, ...]:
        return self.objs(ObjType.NUMANODE)

    def numanode_by_os_index(self, os_index: int) -> TopoObject:
        return self.obj_by_os_index(ObjType.NUMANODE, os_index)

    def pus(self) -> tuple[TopoObject, ...]:
        return self.objs(ObjType.PU)

    def pu(self, os_index: int) -> TopoObject:
        return self.obj_by_os_index(ObjType.PU, os_index)

    @property
    def complete_cpuset(self) -> Bitmap:
        return self.root.cpuset

    @property
    def complete_nodeset(self) -> Bitmap:
        return self.root.nodeset

    def iter_all(self) -> Iterator[TopoObject]:
        return self.root.iter_subtree()

    def node_instance(self, numanode: TopoObject) -> NodeInstance:
        """The hardware-model instance behind a NUMANode object."""
        try:
            return numanode.attrs["instance"]
        except KeyError:
            raise TopologyError(
                f"{numanode.label} carries no hardware instance"
            ) from None

    def distance(self, node_a: int, node_b: int) -> int:
        """SLIT distance between two NUMA nodes (OS indices)."""
        return self.slit.distance(node_a, node_b)


def _index_topology(topo: Topology) -> None:
    by_type: dict[ObjType, list[TopoObject]] = {}
    for obj in topo.root.iter_subtree():
        by_type.setdefault(obj.type, []).append(obj)
    # NUMANode logical order must match the spec's logical numbering, not
    # tree-walk order (machine-level nodes are visited first otherwise).
    for t, objs in by_type.items():
        if t is ObjType.NUMANODE:
            objs.sort(key=lambda o: o.logical_index)
        else:
            objs.sort(key=lambda o: (o.depth, o.logical_index))
    topo._by_type = by_type


def _cache_objects(caches: tuple[CacheSpec, ...], *, shared: bool) -> list[CacheSpec]:
    return [c for c in caches if c.shared == shared]


_CACHE_TYPE = {1: ObjType.L1, 2: ObjType.L2, 3: ObjType.L3}


def _attach_numanode(
    parent: TopoObject, inst: NodeInstance, cpuset: Bitmap
) -> TopoObject:
    """Attach one NUMA node (possibly behind a memory-side cache)."""
    attach_to = parent
    if inst.spec.memside_cache is not None:
        cache = inst.spec.memside_cache
        mc = TopoObject(
            type=ObjType.MEMCACHE,
            logical_index=inst.logical_index,
            name=cache.label,
            cpuset=cpuset,
            nodeset=Bitmap([inst.os_index]),
            attrs={"size": cache.size, "associativity": cache.associativity},
        )
        parent.add_memory_child(mc)
        attach_to = mc
    node = TopoObject(
        type=ObjType.NUMANODE,
        logical_index=inst.logical_index,
        os_index=inst.os_index,
        subtype=inst.spec.subtype,
        cpuset=cpuset,
        nodeset=Bitmap([inst.os_index]),
        attrs={
            "capacity": inst.capacity,
            "tech": inst.tech.name,
            "kind": inst.kind.value,
            "instance": inst,
        },
    )
    attach_to.add_memory_child(node)
    return node


def _build_cores(
    parent: TopoObject,
    count: int,
    pus_per_core: int,
    first_pu: int,
    core_logical_start: int,
    private_caches: list[CacheSpec],
) -> int:
    """Create ``count`` cores (each with PUs and private caches).

    Returns the next free core logical index.
    """
    pu = first_pu
    for ci in range(count):
        core_cpuset = Bitmap.from_range(pu, pu + pus_per_core)
        core = TopoObject(
            type=ObjType.CORE,
            logical_index=core_logical_start + ci,
            os_index=core_logical_start + ci,
            cpuset=core_cpuset,
        )
        parent.add_child(core)
        for cache in private_caches:
            core.add_child(
                TopoObject(
                    type=_CACHE_TYPE[cache.level],
                    logical_index=core_logical_start + ci,
                    cpuset=core_cpuset,
                    attrs={"size": cache.size, "line_size": cache.line_size},
                )
            )
        for t in range(pus_per_core):
            core.add_child(
                TopoObject(
                    type=ObjType.PU,
                    logical_index=pu,
                    os_index=pu,
                    cpuset=Bitmap([pu]),
                )
            )
            pu += 1
    return core_logical_start + count


def build_topology(machine: MachineSpec) -> Topology:
    """Discover the topology of a machine model."""
    nodes = machine.numa_nodes()
    all_nodeset = Bitmap(n.os_index for n in nodes)
    root = TopoObject(
        type=ObjType.MACHINE,
        logical_index=0,
        name=machine.name,
        cpuset=Bitmap.from_range(0, machine.total_pus),
        nodeset=all_nodeset,
    )

    ranges = machine.pu_ranges()
    core_counter = 0
    for pi, pkg_spec in enumerate(machine.packages):
        pkg_pus = [r for r in ranges if r[0] == pi]
        pkg_cpuset = Bitmap(
            b for _, _, _, rng in pkg_pus for b in rng
        )
        pkg_nodeset = Bitmap(
            n.os_index for n in nodes if n.package == pi
        )
        pkg = TopoObject(
            type=ObjType.PACKAGE,
            logical_index=pi,
            os_index=pi,
            cpuset=pkg_cpuset,
            nodeset=pkg_nodeset,
        )
        root.add_child(pkg)

        if pkg_spec.groups:
            for gi, grp_spec in enumerate(pkg_spec.groups):
                rng = next(r[3] for r in pkg_pus if r[1] == gi)
                grp_cpuset = Bitmap(rng)
                grp_nodeset = Bitmap(
                    n.os_index for n in nodes if n.package == pi and n.group == gi
                )
                grp = TopoObject(
                    type=ObjType.GROUP,
                    logical_index=pi * len(pkg_spec.groups) + gi,
                    name=grp_spec.name,
                    subtype="Group0",
                    cpuset=grp_cpuset,
                    nodeset=grp_nodeset,
                )
                pkg.add_child(grp)
                for inst in nodes:
                    if (
                        inst.package == pi
                        and inst.group == gi
                        and inst.attach_level == AttachLevel.GROUP
                    ):
                        _attach_numanode(grp, inst, grp_cpuset)
                for cache in _cache_objects(grp_spec.caches, shared=True):
                    grp.add_child(
                        TopoObject(
                            type=_CACHE_TYPE[cache.level],
                            logical_index=grp.logical_index,
                            cpuset=grp_cpuset,
                            attrs={"size": cache.size, "line_size": cache.line_size},
                        )
                    )
                core_counter = _build_cores(
                    grp,
                    grp_spec.cores,
                    grp_spec.pus_per_core,
                    rng.start,
                    core_counter,
                    _cache_objects(grp_spec.caches, shared=False),
                )
        else:
            rng = pkg_pus[0][3]
            for cache in _cache_objects(pkg_spec.caches, shared=True):
                pkg.add_child(
                    TopoObject(
                        type=_CACHE_TYPE[cache.level],
                        logical_index=pi,
                        cpuset=pkg_cpuset,
                        attrs={"size": cache.size, "line_size": cache.line_size},
                    )
                )
            core_counter = _build_cores(
                pkg,
                pkg_spec.cores,
                pkg_spec.pus_per_core,
                rng.start,
                core_counter,
                _cache_objects(pkg_spec.caches, shared=False),
            )

        for inst in nodes:
            if inst.package == pi and inst.attach_level == AttachLevel.PACKAGE:
                _attach_numanode(pkg, inst, pkg_cpuset)

    for inst in nodes:
        if inst.attach_level == AttachLevel.MACHINE:
            _attach_numanode(root, inst, root.cpuset)

    topo = Topology(
        machine_spec=machine,
        root=root,
        srat=build_srat(machine),
        slit=build_slit(machine),
    )
    _index_topology(topo)
    _validate(topo)
    return topo


def _validate(topo: Topology) -> None:
    """Tree invariants: child cpusets nest, NUMA nodes are all present."""
    expected_nodes = {n.os_index for n in topo.machine_spec.numa_nodes()}
    seen_nodes = {n.os_index for n in topo.numanodes()}
    if expected_nodes != seen_nodes:
        raise TopologyError(
            f"NUMA node mismatch: spec {sorted(expected_nodes)} "
            f"vs tree {sorted(seen_nodes)}"
        )
    for obj in topo.iter_all():
        for child in obj.children:
            if not obj.cpuset.includes(child.cpuset):
                raise TopologyError(
                    f"{child.label} cpuset escapes parent {obj.label}"
                )
    pus = topo.pus()
    if len(pus) != topo.machine_spec.total_pus:
        raise TopologyError(
            f"PU count mismatch: {len(pus)} vs spec {topo.machine_spec.total_pus}"
        )
