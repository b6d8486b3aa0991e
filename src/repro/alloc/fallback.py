"""Attribute fallback chains (paper §IV-B).

"If the attribute is not available on the platform, the allocator may
also fallback to other similar attributes, for instance *Bandwidth*
instead of *Read Bandwidth*."  Chains end at Capacity, which the topology
always provides, so ``mem_alloc`` can always produce *some* ranking.
"""

from __future__ import annotations

from ..core.api import MemAttrs
from ..core.attrs import MemAttribute
from ..errors import UnknownAttributeError
from ..obs import OBS

__all__ = ["DEFAULT_ATTRIBUTE_FALLBACK", "attribute_fallback_chain"]

#: attribute name -> ordered similar attributes to try instead.
DEFAULT_ATTRIBUTE_FALLBACK: dict[str, tuple[str, ...]] = {
    "ReadBandwidth": ("Bandwidth", "WriteBandwidth", "Capacity"),
    "WriteBandwidth": ("Bandwidth", "ReadBandwidth", "Capacity"),
    "Bandwidth": ("ReadBandwidth", "WriteBandwidth", "Capacity"),
    "ReadLatency": ("Latency", "WriteLatency", "Capacity"),
    "WriteLatency": ("Latency", "ReadLatency", "Capacity"),
    "Latency": ("ReadLatency", "WriteLatency", "Capacity"),
    "Locality": ("Capacity",),
    "Capacity": (),
}


def attribute_fallback_chain(
    memattrs: MemAttrs,
    attribute: MemAttribute | str,
    *,
    overrides: dict[str, tuple[str, ...]] | None = None,
) -> tuple[MemAttribute, ...]:
    """The requested attribute followed by its fallbacks, resolved.

    Unknown names raise; custom attributes without a configured chain
    fall back to Capacity.  Not memoized: the allocator's plan memo
    holds the ranking a chain leads to.
    """
    attr = memattrs.get_by_name(
        attribute if isinstance(attribute, str) else attribute.name
    )
    table = dict(DEFAULT_ATTRIBUTE_FALLBACK)
    if overrides:
        table.update(overrides)
    names = table.get(attr.name)
    if names is None:
        names = ("Capacity",)
    chain: list[MemAttribute] = [attr]
    for name in names:
        try:
            nxt = memattrs.get_by_name(name)
        except UnknownAttributeError:
            continue
        if nxt not in chain:
            chain.append(nxt)
    resolved = tuple(chain)
    if OBS.enabled:
        OBS.metrics.counter(
            "alloc.fallback_chains_resolved", attribute=attr.name
        ).inc()
        OBS.metrics.histogram("alloc.fallback_chain_len").observe(len(resolved))
    return resolved
