"""Memory technology definitions.

A :class:`MemoryTechnology` bundles every performance characteristic the
simulator and the firmware synthesizer need for one *kind* of memory:
theoretical (HMAT-style) latency/bandwidth, loaded (benchmark-style)
latency/bandwidth, capacity-independent properties such as persistence, and
the behavioural quirks that shape the paper's measured curves — most
importantly the Optane-style internal write buffer whose exhaustion causes
the bandwidth collapse visible in Tables II(a) and III(a).

Parameter provenance is recorded in DESIGN.md §5: values come from the
paper's Fig. 5 (HMAT numbers), §IV-A2 / van Renen et al. (loaded numbers)
and Table III (per-SubNUMA-cluster KNL numbers).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..errors import SpecError
from ..units import GB, MB, parse_bandwidth, parse_size, parse_time

__all__ = ["MemoryKind", "MemoryTechnology", "TECH_PRESETS", "tech"]


class MemoryKind(enum.Enum):
    """Broad technology family of a memory node.

    The paper's point is precisely that application code should *not* branch
    on this enum — it should query performance attributes instead.  The kind
    is kept for the identification step (§III-A), for human-readable output
    (lstopo subtype labels such as ``MCDRAM``), and for the OS node-numbering
    conventions the paper discusses in §VII.
    """

    DRAM = "DRAM"
    HBM = "HBM"
    NVDIMM = "NVDIMM"
    NAM = "NAM"            # network-attached memory
    GPU = "GPU"            # coprocessor memory exposed as a host NUMA node

    @property
    def os_numbering_priority(self) -> int:
        """Lower value ⇒ lower OS NUMA node index.

        Linux numbers conventional DRAM nodes first so that default
        allocations land on DRAM; special-purpose memory gets higher
        indices (footnote 21 of the paper: KNL MCDRAM nodes always have
        higher indices than DRAM nodes).
        """
        return {
            MemoryKind.DRAM: 0,
            MemoryKind.HBM: 1,
            MemoryKind.NVDIMM: 2,
            MemoryKind.GPU: 3,
            MemoryKind.NAM: 4,
        }[self]


@dataclass(frozen=True)
class MemoryTechnology:
    """Performance model of one memory technology.

    All bandwidths are **per NUMA node** peaks in bytes/second; latencies in
    seconds.  ``hmat_*`` fields are the theoretical values a vendor would
    put in the ACPI HMAT table; ``loaded_*`` fields are what a benchmark
    measures under concurrency and drive the performance simulator.
    """

    name: str
    kind: MemoryKind

    # --- theoretical values for firmware synthesis (paper Fig. 5 units) ---
    hmat_read_latency: float        # seconds
    hmat_write_latency: float       # seconds
    hmat_read_bandwidth: float      # bytes/s
    hmat_write_bandwidth: float     # bytes/s

    # --- loaded/measured values for simulation -------------------------
    loaded_latency: float           # seconds, random-access under load
    peak_read_bandwidth: float      # bytes/s, streaming reads, full node
    peak_write_bandwidth: float     # bytes/s, streaming writes, full node

    # Optane-style internal write-combining buffer.  Streaming writes whose
    # working set stays below ``write_buffer_bytes`` run at
    # ``peak_write_bandwidth``; beyond it they collapse towards
    # ``sustained_write_bandwidth``.  ``None`` disables the model.
    write_buffer_bytes: int | None = None
    sustained_write_bandwidth: float | None = None

    # Random-access latency inflation once the working set exceeds
    # ``latency_knee_bytes`` (page-walk/TLB and device-side effects).  The
    # effective latency grows by ``latency_inflation`` per decade of
    # working-set growth beyond the knee.
    latency_knee_bytes: int = 1 * GB
    latency_inflation: float = 0.08

    # How well the device overlaps independent misses: per-thread cap on
    # outstanding misses the device sustains (NVDIMM queues are shallow).
    max_mlp: float = 10.0

    # Threads needed to saturate the node's streaming bandwidth; below
    # that, effective bandwidth scales ~linearly with thread count.
    saturation_threads: float = 6.0

    # Fraction of peak bandwidth achievable under a random (line-granular)
    # access mix — banks/queues lose efficiency without locality.
    random_bandwidth_fraction: float = 0.35

    # --- non-performance properties ------------------------------------
    persistent: bool = False
    endurance_writes: float | None = None   # device write endurance (writes/cell)
    power_pj_per_byte: float | None = None  # access energy

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("technology name must be non-empty")
        for attr in (
            "hmat_read_latency",
            "hmat_write_latency",
            "loaded_latency",
        ):
            if getattr(self, attr) <= 0:
                raise SpecError(f"{self.name}: {attr} must be positive")
        for attr in (
            "hmat_read_bandwidth",
            "hmat_write_bandwidth",
            "peak_read_bandwidth",
            "peak_write_bandwidth",
        ):
            if getattr(self, attr) <= 0:
                raise SpecError(f"{self.name}: {attr} must be positive")
        if (self.write_buffer_bytes is None) != (self.sustained_write_bandwidth is None):
            raise SpecError(
                f"{self.name}: write_buffer_bytes and sustained_write_bandwidth "
                "must be given together"
            )
        if self.max_mlp < 1.0:
            raise SpecError(f"{self.name}: max_mlp must be >= 1")
        if self.saturation_threads < 1.0:
            raise SpecError(f"{self.name}: saturation_threads must be >= 1")
        if not 0 < self.random_bandwidth_fraction <= 1:
            raise SpecError(
                f"{self.name}: random_bandwidth_fraction must be in (0, 1]"
            )

    # -- convenience ------------------------------------------------------
    @property
    def hmat_bandwidth(self) -> float:
        """Single bandwidth figure for firmware tables without R/W split."""
        return min(self.hmat_read_bandwidth, self.hmat_write_bandwidth)

    @property
    def hmat_latency(self) -> float:
        """Single latency figure for firmware tables without R/W split."""
        return max(self.hmat_read_latency, self.hmat_write_latency)

    def effective_write_bandwidth(self, working_set: int) -> float:
        """Streaming write bandwidth for a given working-set size.

        Models the internal write buffer: a smooth interpolation between the
        peak (inside the buffer) and the sustained floor (far beyond it).
        """
        if working_set < 0:
            raise SpecError("working_set must be non-negative")
        if self.write_buffer_bytes is None or working_set <= self.write_buffer_bytes:
            return self.peak_write_bandwidth
        assert self.sustained_write_bandwidth is not None
        # Beyond the buffer, the fraction of writes absorbed by the buffer
        # shrinks as buffer/ws; the rest pay the sustained rate.
        frac_buffered = self.write_buffer_bytes / working_set
        inv_bw = (
            frac_buffered / self.peak_write_bandwidth
            + (1.0 - frac_buffered) / self.sustained_write_bandwidth
        )
        return 1.0 / inv_bw

    def effective_latency(self, working_set: int) -> float:
        """Random-access loaded latency for a given working-set size."""
        if working_set < 0:
            raise SpecError("working_set must be non-negative")
        if working_set <= self.latency_knee_bytes:
            return self.loaded_latency
        import math

        decades = math.log10(working_set / self.latency_knee_bytes)
        return self.loaded_latency * (1.0 + self.latency_inflation * decades)

    def scaled(self, **overrides) -> "MemoryTechnology":
        """Return a copy with fields replaced (e.g. per-SNC bandwidth cuts)."""
        return replace(self, **overrides)


def tech(name: str, **overrides) -> MemoryTechnology:
    """Look up a preset technology, optionally overriding fields."""
    try:
        base = TECH_PRESETS[name]
    except KeyError:
        raise SpecError(f"unknown technology preset {name!r}") from None
    return base.scaled(**overrides) if overrides else base


def _t(value: str) -> float:
    return parse_time(value)


def _bw(value: str) -> float:
    return parse_bandwidth(value)


#: Preset technologies.  Numbers follow DESIGN.md §5.
TECH_PRESETS: dict[str, MemoryTechnology] = {}


def _register(t: MemoryTechnology) -> MemoryTechnology:
    if t.name in TECH_PRESETS:
        raise SpecError(f"duplicate technology preset {t.name!r}")
    TECH_PRESETS[t.name] = t
    return t


# Cascade Lake socket-local DDR4: HMAT 131072 MB/s & 26 ns (paper Fig. 5);
# loaded STREAM ~80 GB/s and ~285 ns loaded latency (van Renen et al.).
_register(
    MemoryTechnology(
        name="ddr4-xeon",
        kind=MemoryKind.DRAM,
        hmat_read_latency=_t("26ns"),
        hmat_write_latency=_t("26ns"),
        hmat_read_bandwidth=131072 * MB,
        hmat_write_bandwidth=131072 * MB,
        loaded_latency=_t("285ns"),
        # Calibrated so a 20-thread Triad lands at Table III(a)'s ~75 GB/s:
        # 3/(2/76 + 1/72) = 74.6 GB/s.
        peak_read_bandwidth=_bw("76GB/s"),
        peak_write_bandwidth=_bw("72GB/s"),
        latency_knee_bytes=4 * GB,
        latency_inflation=0.35,
        max_mlp=10.0,
        saturation_threads=6.0,
        random_bandwidth_fraction=0.40,
    )
)

# Optane DC NVDIMM (per socket, 6 DIMMs): HMAT 78644 MB/s & 77 ns (Fig. 5);
# measured ~30 GB/s reads, ~10 GB/s sustained writes beyond the on-DIMM
# write-combining buffers, ~860 ns loaded latency (van Renen et al.).
_register(
    MemoryTechnology(
        name="optane-nvdimm",
        kind=MemoryKind.NVDIMM,
        hmat_read_latency=_t("77ns"),
        hmat_write_latency=_t("77ns"),
        hmat_read_bandwidth=78644 * MB,
        hmat_write_bandwidth=78644 * MB,
        loaded_latency=_t("860ns"),
        # Calibrated to Table III(a)'s NVDIMM Triad curve 31.6 → 10.5 → 9.5:
        # below the ~8 GB on-DIMM write-combining window, Triad is
        # 3/(2/33 + 1/30) = 31.9 GB/s; far beyond it writes collapse to the
        # sustained floor and Triad flattens near 3/(2/33 + 1/3.5) ≈ 9.4.
        peak_read_bandwidth=_bw("33GB/s"),
        peak_write_bandwidth=_bw("30GB/s"),
        write_buffer_bytes=parse_size("8GB"),
        sustained_write_bandwidth=_bw("3.5GB/s"),
        latency_knee_bytes=18 * GB,
        latency_inflation=4.5,
        max_mlp=10.0,
        saturation_threads=4.0,
        random_bandwidth_fraction=0.33,
        persistent=True,
        endurance_writes=1e6,
        power_pj_per_byte=2.5,
    )
)

# KNL MCDRAM, per SubNUMA cluster (quarter of ~350 GB/s machine-wide);
# idle latency slightly *higher* than DDR4 on KNL, similar loaded latency
# (paper §III-B2 and Table II(b)).
_register(
    MemoryTechnology(
        name="mcdram-knl-snc",
        kind=MemoryKind.HBM,
        hmat_read_latency=_t("154ns"),
        hmat_write_latency=_t("154ns"),
        hmat_read_bandwidth=_bw("90GB/s"),
        hmat_write_bandwidth=_bw("90GB/s"),
        loaded_latency=_t("156ns"),
        # Per-SNC Triad with 16 threads ≈ 3/(2/90 + 1/86) = 88.7 GB/s,
        # matching Table III(b)'s 85-90 GB/s band.
        peak_read_bandwidth=_bw("90GB/s"),
        peak_write_bandwidth=_bw("86GB/s"),
        latency_knee_bytes=2 * GB,
        latency_inflation=0.05,
        max_mlp=16.0,
        saturation_threads=10.0,
        random_bandwidth_fraction=0.30,
    )
)

# KNL DDR4, per SubNUMA cluster (quarter of ~90 GB/s machine-wide).
_register(
    MemoryTechnology(
        name="ddr4-knl-snc",
        kind=MemoryKind.DRAM,
        hmat_read_latency=_t("130ns"),
        hmat_write_latency=_t("130ns"),
        hmat_read_bandwidth=_bw("30GB/s"),
        hmat_write_bandwidth=_bw("30GB/s"),
        loaded_latency=_t("145ns"),
        # Per-SNC Triad with 16 threads ≈ 3/(2/29.5 + 1/29) = 29.3 GB/s,
        # matching Table III(b)'s 29.17 GB/s.
        peak_read_bandwidth=_bw("29.5GB/s"),
        peak_write_bandwidth=_bw("29GB/s"),
        latency_knee_bytes=2 * GB,
        latency_inflation=0.05,
        max_mlp=10.0,
        saturation_threads=8.0,
        random_bandwidth_fraction=0.35,
    )
)

# Generic on-package HBM2 stack for the fictitious platform / Fugaku-like.
_register(
    MemoryTechnology(
        name="hbm2",
        kind=MemoryKind.HBM,
        hmat_read_latency=_t("100ns"),
        hmat_write_latency=_t("100ns"),
        hmat_read_bandwidth=_bw("500GB/s"),
        hmat_write_bandwidth=_bw("500GB/s"),
        loaded_latency=_t("120ns"),
        peak_read_bandwidth=_bw("480GB/s"),
        peak_write_bandwidth=_bw("440GB/s"),
        latency_knee_bytes=4 * GB,
        latency_inflation=0.05,
        max_mlp=24.0,
    )
)

# Generic DDR5 for the fictitious platform (paper §II-C: HBM + off-package
# DDR5 combinations announced by ETRI K-AB21 and SiPearl Rhea).
_register(
    MemoryTechnology(
        name="ddr5",
        kind=MemoryKind.DRAM,
        hmat_read_latency=_t("110ns"),
        hmat_write_latency=_t("110ns"),
        hmat_read_bandwidth=_bw("100GB/s"),
        hmat_write_bandwidth=_bw("100GB/s"),
        loaded_latency=_t("130ns"),
        peak_read_bandwidth=_bw("95GB/s"),
        peak_write_bandwidth=_bw("90GB/s"),
        latency_knee_bytes=4 * GB,
        latency_inflation=0.05,
        max_mlp=12.0,
    )
)

# Network-attached memory (Kove / DEEP NAM style): very high capacity,
# microsecond-class latency, moderate bandwidth.
_register(
    MemoryTechnology(
        name="nam",
        kind=MemoryKind.NAM,
        hmat_read_latency=_t("1500ns"),
        hmat_write_latency=_t("1800ns"),
        hmat_read_bandwidth=_bw("12GB/s"),
        hmat_write_bandwidth=_bw("10GB/s"),
        loaded_latency=_t("2200ns"),
        peak_read_bandwidth=_bw("11GB/s"),
        peak_write_bandwidth=_bw("9GB/s"),
        latency_knee_bytes=64 * GB,
        latency_inflation=0.10,
        max_mlp=8.0,
    )
)

# V100-class GPU memory exposed as a host NUMA node (POWER9 NVLink).
_register(
    MemoryTechnology(
        name="gpu-hbm2",
        kind=MemoryKind.GPU,
        hmat_read_latency=_t("400ns"),
        hmat_write_latency=_t("400ns"),
        hmat_read_bandwidth=_bw("60GB/s"),   # host-side NVLink view
        hmat_write_bandwidth=_bw("60GB/s"),
        loaded_latency=_t("450ns"),
        peak_read_bandwidth=_bw("55GB/s"),
        peak_write_bandwidth=_bw("50GB/s"),
        latency_knee_bytes=8 * GB,
        latency_inflation=0.05,
        max_mlp=16.0,
    )
)

# CXL-attached DRAM expander (Type-3 device): DRAM media behind a CXL.mem
# link — the emerging "exotic kind" of §II-C/§VIII.  Latency between local
# DRAM and NVDIMM; bandwidth limited by the x8 link.
_register(
    MemoryTechnology(
        name="cxl-dram",
        kind=MemoryKind.DRAM,
        hmat_read_latency=_t("170ns"),
        hmat_write_latency=_t("170ns"),
        hmat_read_bandwidth=_bw("64GB/s"),
        hmat_write_bandwidth=_bw("64GB/s"),
        loaded_latency=_t("400ns"),
        peak_read_bandwidth=_bw("60GB/s"),
        peak_write_bandwidth=_bw("55GB/s"),
        latency_knee_bytes=16 * GB,
        latency_inflation=0.10,
        max_mlp=10.0,
        saturation_threads=8.0,
        random_bandwidth_fraction=0.35,
    )
)


# Sapphire Rapids HBM (Xeon Max) on-package HBM2e, per SNC quadrant:
# ~1 TB/s per socket => ~250 GB/s per quadrant; latency slightly above DDR5.
_register(
    MemoryTechnology(
        name="hbm2e-spr-quadrant",
        kind=MemoryKind.HBM,
        hmat_read_latency=_t("130ns"),
        hmat_write_latency=_t("130ns"),
        hmat_read_bandwidth=_bw("250GB/s"),
        hmat_write_bandwidth=_bw("250GB/s"),
        loaded_latency=_t("150ns"),
        peak_read_bandwidth=_bw("240GB/s"),
        peak_write_bandwidth=_bw("220GB/s"),
        latency_knee_bytes=4 * GB,
        latency_inflation=0.05,
        max_mlp=16.0,
        saturation_threads=10.0,
        random_bandwidth_fraction=0.30,
    )
)

# Sapphire Rapids DDR5, per SNC quadrant (8 channels/socket => ~75 GB/s).
_register(
    MemoryTechnology(
        name="ddr5-spr-quadrant",
        kind=MemoryKind.DRAM,
        hmat_read_latency=_t("110ns"),
        hmat_write_latency=_t("110ns"),
        hmat_read_bandwidth=_bw("75GB/s"),
        hmat_write_bandwidth=_bw("75GB/s"),
        loaded_latency=_t("125ns"),
        peak_read_bandwidth=_bw("72GB/s"),
        peak_write_bandwidth=_bw("68GB/s"),
        latency_knee_bytes=4 * GB,
        latency_inflation=0.08,
        max_mlp=12.0,
        saturation_threads=8.0,
        random_bandwidth_fraction=0.38,
    )
)
