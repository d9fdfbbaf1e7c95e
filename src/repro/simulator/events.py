"""Event scheduling for the fluid multicore model.

The simulator advances in *global events*: the next instant at which any
core completes its current interval (Fig. 5's ``t1, t2, ...``).  A core's
time-to-boundary is its pending enforcement stall plus the remaining
interval instructions at its current time-per-instruction.

The wave-batched event loop additionally asks for the *boundary wave*:
every core whose boundary lands at exactly the same instant as the next
one (:func:`next_boundary_wave`).  The wave never changes event
sequencing — boundaries are still drained one at a time in the scalar
order — it only names the cores whose local-optimisation inputs may be
batched speculatively ahead of their boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Boundary",
    "next_boundary",
    "next_boundary_arrays",
    "next_boundary_wave",
]


@dataclass(frozen=True)
class Boundary:
    """The next global event: which core, and in how many seconds."""

    core_id: int
    dt_s: float


def time_to_boundary(
    stall_s: float, remaining_instructions: float, tpi_s: float
) -> float:
    """Seconds until a core reaches its interval boundary."""
    if stall_s < 0 or remaining_instructions < 0 or tpi_s <= 0:
        raise ValueError("invalid progress state")
    return stall_s + remaining_instructions * tpi_s


def next_boundary(
    stalls: Sequence[float],
    remaining: Sequence[float],
    tpis: Sequence[float],
) -> Boundary:
    """Earliest interval completion across cores (ties -> lowest core id)."""
    if not stalls or not (len(stalls) == len(remaining) == len(tpis)):
        raise ValueError("per-core sequences must be non-empty and aligned")
    best_id = 0
    best_dt = time_to_boundary(stalls[0], remaining[0], tpis[0])
    for i in range(1, len(stalls)):
        dt = time_to_boundary(stalls[i], remaining[i], tpis[i])
        if dt < best_dt:
            best_id, best_dt = i, dt
    return Boundary(core_id=best_id, dt_s=best_dt)


def next_boundary_arrays(
    stall_s: np.ndarray, remaining: np.ndarray, tpi_s: np.ndarray
) -> Boundary:
    """Array-path :func:`next_boundary` for the struct-of-arrays simulator.

    One vector multiply-add plus an argmin instead of a per-core Python
    loop; ``np.argmin`` returns the first minimum, preserving the scalar
    path's lowest-core-id tie-break (and the identical per-element
    arithmetic keeps the selected ``dt`` bit-equal).
    """
    if stall_s.size == 0 or not (stall_s.size == remaining.size == tpi_s.size):
        raise ValueError("per-core arrays must be non-empty and aligned")
    if stall_s.min() < 0 or remaining.min() < 0 or tpi_s.min() <= 0:
        # Same contract as the scalar path: corrupt progress state (e.g. a
        # degenerate time grid making tpi zero) must fail loudly, not spin
        # the event loop on a zero-dt boundary.
        raise ValueError("invalid progress state")
    dts = stall_s + remaining * tpi_s
    i = int(np.argmin(dts))
    return Boundary(core_id=i, dt_s=float(dts[i]))


def next_boundary_wave(
    stall_s: np.ndarray,
    remaining: np.ndarray,
    tpi_s: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> Tuple[Boundary, np.ndarray]:
    """The next boundary plus the wave of cores tied with it.

    Returns ``(boundary, member_ids)`` where ``member_ids`` (ascending,
    always containing ``boundary.core_id``) are the cores whose
    time-to-boundary equals ``dt`` exactly.  The per-core arithmetic is
    :func:`next_boundary_arrays`'s (``remaining * tpi`` then ``+ stall``
    — float addition commutes), so the selected boundary is bit-equal to
    the scalar path's.  ``out`` is an optional scratch buffer
    for the per-core times.

    This function is the *specification* of wave membership (and what the
    wave tests pin down); the simulator's hot loop inlines the same
    arithmetic over its preallocated scratch — with the progress-state
    validation hoisted to loop entry plus the rates memo — rather than
    paying a call, a dataclass and three reductions per event.  Any
    change to the semantics here must land in
    ``MulticoreRMSimulator._loop_wave`` too; the full-run differential
    tests catch a divergence.
    """
    if stall_s.size == 0 or not (stall_s.size == remaining.size == tpi_s.size):
        raise ValueError("per-core arrays must be non-empty and aligned")
    if stall_s.min() < 0 or remaining.min() < 0 or tpi_s.min() <= 0:
        raise ValueError("invalid progress state")
    dts = np.multiply(remaining, tpi_s, out=out)
    dts += stall_s
    i = int(np.argmin(dts))
    dt = float(dts[i])
    members = np.nonzero(dts <= dt)[0]
    return Boundary(core_id=i, dt_s=dt), members
