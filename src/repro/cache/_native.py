"""Optional compiled trace kernels: LRU replay, address realisation and
the leading-miss lanes.

Four sequential recurrences over an access stream resist NumPy because
each step depends on the previous one:

* ``realise`` — the trace generator's address realisation
  (:func:`repro.trace.generator.realise_loop`): per-set LRU stacks that
  move the line at each target recency to the top, or push a fresh tag;
* ``replay`` — the per-set stack-distance walk behind
  :mod:`repro.cache.replay` (a straight transcription of
  :meth:`repro.cache.lru.LRUStack.access`);
* ``leading_matrix`` — the dependence-aware leading-miss oracle of
  :func:`repro.microarch.leading.leading_miss_matrix`, one state machine per
  (ROB size, allocation) lane, walked in program order;
* ``mlp_lanes`` — the Fig. 4 counter registers of
  :meth:`repro.atd.mlp.MLPCounterArray.observe_many`, walked in arrival
  order with wrapped instruction indices and saturating counters.

All four live in one C translation unit, built on demand with the system
C compiler and loaded through :mod:`ctypes`.  Each is bit-for-bit
equivalent to its Python counterpart (asserted by the differential
tests).  Compilation happens at most once per source revision: the shared
object is cached under ``$REPRO_CACHE_DIR`` (default ``.cache/repro-db``)
keyed by a hash of the source, and written atomically so concurrent
builder workers cannot race.

Everything degrades gracefully: no compiler, a failed compile, or
``REPRO_NO_NATIVE=1`` simply make :func:`available` return ``False``; the
``auto`` replay engine then falls back to the ``LRUStack`` oracle and the
other three kernels to their Python loops.  No exception escapes from here during
normal engine resolution.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.settings import Settings
from repro.util.nativebuild import build_shared

__all__ = [
    "available",
    "native_leading_matrix",
    "native_mlp_lanes",
    "native_realise",
    "native_replay",
]

_SOURCE = r"""
#include <stdint.h>

void replay(const int32_t* set_index, const int64_t* tags,
            const int64_t* order, int64_t n, int32_t depth,
            int64_t* stacks, int32_t* lens, int16_t* rec)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t k = order ? order[t] : t;
        int32_t s = set_index[k];
        int64_t tag = tags[k];
        int64_t* st = stacks + (int64_t)s * depth;
        int32_t len = lens[s];
        int32_t pos = -1;
        for (int32_t d = 0; d < len; d++) {
            if (st[d] == tag) { pos = d; break; }
        }
        if (pos < 0) {
            int32_t newlen = len < depth ? len + 1 : depth;
            for (int32_t d = newlen - 1; d > 0; d--) st[d] = st[d - 1];
            st[0] = tag;
            lens[s] = newlen;
            rec[k] = 0; /* FRESH */
        } else {
            for (int32_t d = pos; d > 0; d--) st[d] = st[d - 1];
            st[0] = tag;
            rec[k] = (int16_t)(pos + 1);
        }
    }
}

/* Address realisation of the trace generator: per-set LRU stacks of
 * exactly depth lines, pre-warmed with negative tags.  A target recency r
 * in 1..depth moves the line at position r - 1 to the top; anything else
 * (FRESH) pushes a new tag and drops the bottom line. */
void realise(const int32_t* sets, const int64_t* target, int64_t n,
             int32_t n_sets, int32_t depth,
             int64_t* stacks, int64_t* tags, int16_t* realised)
{
    for (int64_t i = 0; i < (int64_t)n_sets * depth; i++) stacks[i] = -(i + 1);
    int64_t next_tag = 1;
    for (int64_t k = 0; k < n; k++) {
        int64_t* st = stacks + (int64_t)sets[k] * depth;
        int64_t r = target[k];
        int64_t tag;
        int32_t top;
        if (r > 0 && r <= depth) {
            top = (int32_t)r - 1;
            tag = st[top];
            realised[k] = (int16_t)r;
        } else {
            top = depth - 1;
            tag = next_tag++;
            realised[k] = 0; /* FRESH */
        }
        for (int32_t d = top; d > 0; d--) st[d] = st[d - 1];
        st[0] = tag;
        tags[k] = tag;
    }
}

/* Leading-miss oracle, one lane per (ROB size c, allocation w + 1).  An
 * access of recency r misses at allocations below r (all of them when
 * FRESH), so it updates the prefix w < r - 1 of each lane row.  pos and
 * linst are scratch: the last LM's stream position and instruction index
 * per lane, NO_LM before the first one. */
#define NO_LM (-1000000000000000000LL)

void leading_matrix(const int64_t* inst, const int64_t* recency,
                    const int64_t* dep, int64_t n,
                    const int64_t* robs, int32_t n_sizes, int32_t max_ways,
                    int64_t* counts, int64_t* pos, int64_t* linst)
{
    for (int64_t i = 0; i < (int64_t)n_sizes * max_ways; i++) {
        counts[i] = 0;
        pos[i] = -1;
        linst[i] = NO_LM;
    }
    for (int64_t k = 0; k < n; k++) {
        int64_t r = recency[k];
        int64_t miss = r == 0 ? max_ways : (r - 1 < max_ways ? r - 1 : max_ways);
        if (miss <= 0) continue;
        int64_t ik = inst[k];
        int64_t dk = dep[k];
        int64_t prod = 0;
        if (dk >= 0) {
            int64_t rp = recency[dk];
            prod = rp == 0 ? max_ways : (rp - 1 < max_ways ? rp - 1 : max_ways);
        }
        for (int32_t c = 0; c < n_sizes; c++) {
            int64_t rob = robs[c];
            int64_t* cnt = counts + (int64_t)c * max_ways;
            int64_t* p = pos + (int64_t)c * max_ways;
            int64_t* li = linst + (int64_t)c * max_ways;
            for (int64_t w = 0; w < miss; w++) {
                int serialized = dk >= 0 && w < prod && dk >= p[w];
                if (li[w] == NO_LM || ik - li[w] >= rob || serialized) {
                    cnt[w]++;
                    p[w] = k;
                    li[w] = ik;
                }
            }
        }
    }
}

/* Fig. 4 counters: per (c, w) lane a saturating LM counter, the last LM's
 * wrapped index (-1 before the first LM) and the last OV distance (-1
 * after an LM).  idx holds indices already wrapped to [0, window) and
 * ways the per-access miss prefix, already capped at max_ways. */
void mlp_lanes(const int64_t* idx, const int64_t* ways, int64_t n,
               const int64_t* robs, int32_t n_sizes, int32_t max_ways,
               int64_t window, int64_t counter_max,
               int64_t* lm, int64_t* last, int64_t* ov)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t x = idx[t];
        int64_t kk = ways[t];
        for (int32_t c = 0; c < n_sizes; c++) {
            int64_t rob = robs[c];
            int64_t* cnt = lm + (int64_t)c * max_ways;
            int64_t* l = last + (int64_t)c * max_ways;
            int64_t* o = ov + (int64_t)c * max_ways;
            for (int64_t w = 0; w < kk; w++) {
                int new_lm;
                if (l[w] < 0) {
                    new_lm = 1; /* first LM ever seen by this lane */
                } else {
                    int64_t d = x - l[w];
                    if (d < 0) d += window; /* modular forward distance */
                    new_lm = d >= rob || (o[w] >= 0 && d < o[w]);
                    if (!new_lm) o[w] = d;
                }
                if (new_lm) {
                    if (cnt[w] < counter_max) cnt[w]++;
                    l[w] = x;
                    o[w] = -1;
                }
            }
        }
    }
}
"""

_lib: Optional[ctypes.CDLL] = None
_lib_failed = False


def _cache_dir() -> Path:
    return Settings.from_env().cache_dir / "native"


def _compile() -> Optional[Path]:
    return build_shared(_SOURCE, _cache_dir(), "trace", (("-O3",),))


def _load() -> Optional[ctypes.CDLL]:
    global _lib, _lib_failed
    if _lib is not None or _lib_failed:
        return _lib
    if Settings.from_env().no_native:
        _lib_failed = True
        return None
    so_path = _compile()
    if so_path is None:
        _lib_failed = True
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
        lib.replay.restype = None
        lib.replay.argtypes = [
            ctypes.c_void_p,  # set_index (int32*)
            ctypes.c_void_p,  # tags (int64*)
            ctypes.c_void_p,  # order (int64* or NULL)
            ctypes.c_int64,  # n
            ctypes.c_int32,  # depth
            ctypes.c_void_p,  # stacks (int64*)
            ctypes.c_void_p,  # lens (int32*)
            ctypes.c_void_p,  # rec (int16*)
        ]
        lib.realise.restype = None
        lib.realise.argtypes = [
            ctypes.c_void_p,  # sets (int32*)
            ctypes.c_void_p,  # target (int64*)
            ctypes.c_int64,  # n
            ctypes.c_int32,  # n_sets
            ctypes.c_int32,  # depth
            ctypes.c_void_p,  # stacks (int64*)
            ctypes.c_void_p,  # tags (int64*)
            ctypes.c_void_p,  # realised (int16*)
        ]
        lib.leading_matrix.restype = None
        lib.leading_matrix.argtypes = [
            ctypes.c_void_p,  # inst (int64*)
            ctypes.c_void_p,  # recency (int64*)
            ctypes.c_void_p,  # dep (int64*)
            ctypes.c_int64,  # n
            ctypes.c_void_p,  # robs (int64*)
            ctypes.c_int32,  # n_sizes
            ctypes.c_int32,  # max_ways
            ctypes.c_void_p,  # counts (int64*)
            ctypes.c_void_p,  # pos (int64*)
            ctypes.c_void_p,  # linst (int64*)
        ]
        lib.mlp_lanes.restype = None
        lib.mlp_lanes.argtypes = [
            ctypes.c_void_p,  # idx (int64*)
            ctypes.c_void_p,  # ways (int64*)
            ctypes.c_int64,  # n
            ctypes.c_void_p,  # robs (int64*)
            ctypes.c_int32,  # n_sizes
            ctypes.c_int32,  # max_ways
            ctypes.c_int64,  # window
            ctypes.c_int64,  # counter_max
            ctypes.c_void_p,  # lm (int64*)
            ctypes.c_void_p,  # last (int64*)
            ctypes.c_void_p,  # ov (int64*)
        ]
    except OSError:
        _lib_failed = True
        return None
    _lib = lib
    return _lib


def available() -> bool:
    """Whether the compiled kernels can be used in this environment."""
    return _load() is not None


def native_replay(
    set_index: np.ndarray,
    tag: np.ndarray,
    *,
    n_sets: int,
    depth: int,
    order: Optional[Sequence[int]] = None,
    initial: Optional[List[List[int]]] = None,
    want_state: bool = False,
) -> Tuple[np.ndarray, Optional[List[List[int]]]]:
    """Drop-in equivalent of :func:`repro.cache.replay.oracle_replay`."""
    lib = _load()
    if lib is None:
        raise RuntimeError("native replay kernel unavailable")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_sets < 1:
        raise ValueError("n_sets must be >= 1")
    n = len(set_index)
    stacks = np.zeros(n_sets * depth, dtype=np.int64)
    lens = np.zeros(n_sets, dtype=np.int32)
    if initial is not None:
        if len(initial) != n_sets:
            raise ValueError("initial must hold one contents list per set")
        for s, contents in enumerate(initial):
            lens[s] = len(contents)
            stacks[s * depth : s * depth + len(contents)] = contents
    recency = np.empty(n, dtype=np.int16)
    if n:
        sets32 = np.ascontiguousarray(set_index, dtype=np.int32)
        tags64 = np.ascontiguousarray(tag, dtype=np.int64)
        if order is None:
            order_ptr = None
        else:
            order64 = np.ascontiguousarray(order, dtype=np.int64)
            if len(order64) != n:
                raise ValueError("order length mismatch")
            order_ptr = order64.ctypes.data
        lib.replay(
            sets32.ctypes.data,
            tags64.ctypes.data,
            order_ptr,
            n,
            depth,
            stacks.ctypes.data,
            lens.ctypes.data,
            recency.ctypes.data,
        )
    if not want_state:
        return recency, None
    state = [
        stacks[s * depth : s * depth + int(lens[s])].tolist()
        for s in range(n_sets)
    ]
    return recency, state


def _int64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def native_realise(
    sets: np.ndarray, target_recency: np.ndarray, n_sets: int, depth: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Compiled body of :func:`repro.trace.generator.realise_loop`.

    ``sets`` must lie in ``[0, n_sets)``.  Returns the tags (``int64``) and
    the realised recencies (``int16``).
    """
    lib = _load()
    if lib is None:
        raise RuntimeError("native trace kernels unavailable")
    n = len(sets)
    sets32 = np.ascontiguousarray(sets, dtype=np.int32)
    if n and (sets32.min() < 0 or sets32.max() >= n_sets):
        raise ValueError("set indices must lie in [0, n_sets)")
    stacks = np.empty(n_sets * depth, dtype=np.int64)
    tags = np.empty(n, dtype=np.int64)
    realised = np.empty(n, dtype=np.int16)
    target = _int64(target_recency)
    lib.realise(
        sets32.ctypes.data, target.ctypes.data, n, n_sets, depth,
        stacks.ctypes.data, tags.ctypes.data, realised.ctypes.data,
    )
    return tags, realised


def native_leading_matrix(
    inst_index: np.ndarray,
    recency: np.ndarray,
    dep_prev: np.ndarray,
    rob_sizes: Sequence[int],
    max_ways: int,
) -> np.ndarray:
    """Compiled body of :func:`repro.microarch.leading.leading_miss_matrix`.

    Returns ``int64[len(rob_sizes), max_ways]``.  ``dep_prev`` must point
    strictly backwards or be -1, as :class:`AccessStream` guarantees.
    """
    lib = _load()
    if lib is None:
        raise RuntimeError("native trace kernels unavailable")
    n_sizes = len(rob_sizes)
    counts = np.empty((n_sizes, max_ways), dtype=np.int64)
    pos = np.empty_like(counts)
    linst = np.empty_like(counts)
    inst = _int64(inst_index)
    rec = _int64(recency)
    dep = _int64(dep_prev)
    robs = _int64(rob_sizes)
    lib.leading_matrix(
        inst.ctypes.data, rec.ctypes.data, dep.ctypes.data, len(inst),
        robs.ctypes.data, n_sizes, max_ways,
        counts.ctypes.data, pos.ctypes.data, linst.ctypes.data,
    )
    return counts


def native_mlp_lanes(
    idx: np.ndarray,
    ways: np.ndarray,
    rob_sizes: Sequence[int],
    window: int,
    counter_max: int,
    lm: np.ndarray,
    last: np.ndarray,
    ov: np.ndarray,
) -> None:
    """Compiled lane walk of :meth:`repro.atd.mlp.MLPCounterArray.observe_many`.

    ``idx`` holds wrapped indices in ``[0, window)``, ``ways`` the capped
    miss prefix (>= 1) of each access.  The ``int64[n_sizes, max_ways]``
    register arrays ``lm``, ``last`` and ``ov`` are updated in place.
    """
    lib = _load()
    if lib is None:
        raise RuntimeError("native trace kernels unavailable")
    for reg in (lm, last, ov):
        if reg.dtype != np.int64 or not reg.flags.c_contiguous:
            raise ValueError("registers must be C-contiguous int64 arrays")
    n_sizes, max_ways = lm.shape
    idx64 = _int64(idx)
    ways64 = _int64(ways)
    robs = _int64(rob_sizes)
    lib.mlp_lanes(
        idx64.ctypes.data, ways64.ctypes.data, len(idx64),
        robs.ctypes.data, n_sizes, max_ways,
        window, min(counter_max, np.iinfo(np.int64).max),
        lm.ctypes.data, last.ctypes.data, ov.ctypes.data,
    )
