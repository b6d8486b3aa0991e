"""Synthetic address traces and pattern classification.

Supports the static-analysis-flavoured sensitivity method (§V-C): given a
short address trace of a kernel (here generated synthetically from an
access descriptor), classify whether the accesses stream, stride, or jump
randomly / chase pointers — i.e. whether the buffer is bandwidth- or
latency-sensitive.

The classifier is deliberately simple and fully vectorized: it looks at
the distribution of address deltas and at dependence (for pointer chases,
the *values* loaded feed the next address, which the trace generator
marks).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import SimulationError
from .access import BufferAccess, PatternKind

if TYPE_CHECKING:
    import numpy as np

__all__ = ["synth_trace", "classify_trace"]


def synth_trace(
    access: BufferAccess,
    n: int = 4096,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Generate ``n`` byte offsets a kernel with this access would touch."""
    import numpy as np

    if n < 2:
        raise SimulationError("trace needs at least 2 accesses")
    rng = np.random.default_rng(seed)
    ws = access.working_set
    g = access.granularity
    slots = max(2, ws // g)

    if access.pattern is PatternKind.STREAM:
        idx = np.arange(n) % slots
    elif access.pattern is PatternKind.STRIDED:
        stride = max(2, access.line_size // g * 4)
        idx = (np.arange(n) * stride) % slots
    elif access.pattern is PatternKind.RANDOM:
        idx = rng.integers(0, slots, size=n)
    elif access.pattern is PatternKind.POINTER_CHASE:
        # A single random cycle: element order[i] points at order[i+1], so
        # following the chain from order[0] visits the permutation in
        # order — consecutive trace entries are data-dependent and the
        # address sequence is indistinguishable from random.
        order = rng.permutation(slots)
        idx = order[np.arange(n) % slots]
    else:  # pragma: no cover - exhaustive enum
        raise SimulationError(f"unknown pattern {access.pattern}")
    return (idx.astype(np.int64) * g).astype(np.int64)


def classify_trace(offsets: np.ndarray, *, line_size: int = 64) -> PatternKind:
    """Classify a trace of byte offsets into a :class:`PatternKind`.

    Heuristics: the fraction of small positive deltas separates streaming
    from everything else; a single dominant large delta means strided; a
    trace that revisits no line while jumping randomly is a chase-like /
    random access (the two are merged into RANDOM here — dependence cannot
    be seen from addresses alone, the profiler-side classifier in
    :mod:`repro.sensitivity` uses MLP to split them).
    """
    import numpy as np

    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size < 2:
        raise SimulationError("trace too short to classify")
    deltas = np.diff(offsets)
    nz = deltas[deltas != 0]
    if nz.size == 0:
        return PatternKind.RANDOM
    small_forward = np.count_nonzero((nz > 0) & (nz <= line_size)) / nz.size
    if small_forward >= 0.8:
        return PatternKind.STREAM
    # One dominant constant delta => strided.
    values, counts = np.unique(nz, return_counts=True)
    if counts.max() / nz.size >= 0.8 and abs(values[counts.argmax()]) > line_size:
        return PatternKind.STRIDED
    return PatternKind.RANDOM
