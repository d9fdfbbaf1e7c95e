"""Stack-distance replay engines.

Replaying an access stream through per-set LRU stacks is the substrate of
the whole reproduction: the main tag directory, the per-core ATD and every
database build funnel through it.  Two interchangeable engines compute the
recency array of a whole stream:

``native``
    A ~30-line C kernel (the per-set stacks packed into one flat int64
    array) compiled on demand with the system C compiler and loaded via
    ``ctypes`` — see :mod:`repro.cache._native`.  20-30x faster than the
    Python oracle; silently unavailable when no compiler exists (or under
    ``REPRO_NO_NATIVE=1``), in which case ``auto`` resolves to ``oracle``.

``oracle``
    The reference: one :meth:`~repro.cache.lru.LRUStack.access` per access
    (:func:`oracle_replay`).  It is both the no-compiler fallback and the
    path ``SetAssociativeLRU(engine="oracle")`` pins for differential
    testing.

The native engine is bit-for-bit equivalent to the oracle — including the
final stack state — which the differential tests in
``tests/test_replay_engine.py`` assert over random streams, replay orders,
depths and warm-up states.

A small memo keyed on ``(stream identity, replay order, geometry)`` lets
the main-TD and ATD passes over one stream (and repeated monitors over one
interval) share a single replay instead of recomputing it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.lru import LRUStack
from repro.trace.stream import FRESH, AccessStream

__all__ = [
    "oracle_replay",
    "prewarm_tags",
    "replay_access_stream",
    "replay_pristine",
    "resolve_engine",
    "clear_replay_memo",
]

#: Per-set stack state: tag lists, most-recently-used first.
SetState = List[List[int]]


def prewarm_tags(set_index: int, depth: int) -> List[int]:
    """Deterministic warm-up tags for one set (MRU first).

    Matches :class:`repro.trace.generator.PhaseTraceGenerator`, which warms
    each set with ``depth`` unique placeholder lines from the negative tag
    space so deep recencies are realisable from the first access.
    """
    return [-(set_index * depth + d + 1) for d in range(depth)]


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine request to a concrete engine name.

    ``None`` means ``"auto"``, which picks ``native`` when the compiled
    kernel is available and ``oracle`` otherwise.
    """
    if engine is None or engine == "auto":
        from repro.cache import _native

        return "native" if _native.available() else "oracle"
    if engine not in ("native", "oracle"):
        raise ValueError(
            f"unknown replay engine {engine!r}; options: auto, native, oracle"
        )
    return engine


# ---------------------------------------------------------------------------
# The reference engine
# ---------------------------------------------------------------------------


def oracle_replay(
    set_index: np.ndarray,
    tag: np.ndarray,
    *,
    n_sets: int,
    depth: int,
    order: Optional[Sequence[int]] = None,
    initial: Optional[SetState] = None,
    want_state: bool = False,
) -> Tuple[np.ndarray, Optional[SetState]]:
    """Recency of every access, one :meth:`LRUStack.access` at a time.

    Parameters
    ----------
    set_index, tag:
        The access stream (parallel arrays, program order).
    n_sets:
        Number of sets; ``set_index`` values must lie in ``[0, n_sets)``.
    depth:
        Stack depth per set; recencies beyond it report ``FRESH``.
    order:
        Optional replay order (stream positions).  Defaults to program
        order.  Results are indexed by *stream position* either way.
    initial:
        Optional per-set starting contents, MRU first (each list must hold
        unique tags) — e.g. :func:`prewarm_tags` output, or the current
        state of a partially-replayed directory.
    want_state:
        Also return the final per-set contents (MRU first), so a stateful
        wrapper can continue replaying where this call stopped.

    Returns
    -------
    ``(recency, state)`` where ``recency`` is ``int16[n]`` indexed by
    stream position and ``state`` is the final :data:`SetState` (or
    ``None`` unless ``want_state``).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_sets < 1:
        raise ValueError("n_sets must be >= 1")
    if initial is not None and len(initial) != n_sets:
        raise ValueError("initial must hold one contents list per set")
    n = len(set_index)
    if order is None:
        positions: Sequence[int] = range(n)
    else:
        positions = np.asarray(order, dtype=np.int64).tolist()
        if len(positions) != n:
            raise ValueError("order length mismatch")
    stacks = [
        LRUStack(depth, None if initial is None else initial[s])
        for s in range(n_sets)
    ]
    sets = np.asarray(set_index).tolist()
    tags = np.asarray(tag, dtype=np.int64).tolist()
    rec = [FRESH] * n
    for k in positions:
        rec[k] = stacks[sets[k]].access(tags[k])
    recency = np.array(rec, dtype=np.int16)
    if not want_state:
        return recency, None
    return recency, [s.contents() for s in stacks]


# ---------------------------------------------------------------------------
# Engine-dispatching front door
# ---------------------------------------------------------------------------


def replay_access_stream(
    set_index: np.ndarray,
    tag: np.ndarray,
    *,
    n_sets: int,
    depth: int,
    order: Optional[Sequence[int]] = None,
    initial: Optional[SetState] = None,
    want_state: bool = False,
    engine: Optional[str] = None,
) -> Tuple[np.ndarray, Optional[SetState]]:
    """Replay through the requested engine (see :func:`resolve_engine`)."""
    resolved = resolve_engine(engine)
    if resolved == "native":
        from repro.cache import _native

        return _native.native_replay(
            set_index,
            tag,
            n_sets=n_sets,
            depth=depth,
            order=order,
            initial=initial,
            want_state=want_state,
        )
    return oracle_replay(
        set_index,
        tag,
        n_sets=n_sets,
        depth=depth,
        order=order,
        initial=initial,
        want_state=want_state,
    )


# ---------------------------------------------------------------------------
# Memoized replay of pristine (freshly warmed) directories
# ---------------------------------------------------------------------------

#: key -> (stream, recency, final_state).  The stream is held strongly so
#: its ``id`` can never be recycled while the entry is alive.
_MEMO: "OrderedDict[tuple, tuple]" = OrderedDict()
#: Entries pin their stream (~1 MB at paper scale); passes that share a
#: replay happen back-to-back, so a short window is enough.
_MEMO_MAX = 8


def clear_replay_memo() -> None:
    """Drop all memoized replays (mainly for tests and benchmarks)."""
    _MEMO.clear()


def replay_pristine(
    stream: AccessStream,
    *,
    n_sets: int,
    depth: int,
    prewarm: bool,
    order_key: str,
    engine: Optional[str] = None,
) -> Tuple[np.ndarray, SetState]:
    """Memoized replay of a stream through a freshly initialised directory.

    ``order_key`` names one of the two canonical replay orders —
    ``"program"`` or ``"arrival"`` — so the main-TD and ATD passes over
    the same stream each compute their replay exactly once per process.
    Engines are bit-for-bit equivalent, so the memo is engine-agnostic.
    The returned recency array is shared between callers and marked
    read-only; the state lists must not be mutated (copy before editing).
    """
    if order_key not in ("program", "arrival"):
        raise ValueError(f"unknown order_key {order_key!r}")
    key = (id(stream), order_key, n_sets, depth, bool(prewarm))
    hit = _MEMO.get(key)
    if hit is not None:
        _MEMO.move_to_end(key)
        return hit[1], hit[2]
    initial = (
        [prewarm_tags(s, depth) for s in range(n_sets)] if prewarm else None
    )
    order = None if order_key == "program" else stream.in_arrival_order()
    recency, state = replay_access_stream(
        stream.set_index,
        stream.tag,
        n_sets=n_sets,
        depth=depth,
        order=order,
        initial=initial,
        want_state=True,
        engine=engine,
    )
    recency.flags.writeable = False
    _MEMO[key] = (stream, recency, state)
    while len(_MEMO) > _MEMO_MAX:
        _MEMO.popitem(last=False)
    return recency, state
