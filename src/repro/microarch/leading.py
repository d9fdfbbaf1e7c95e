"""Ground-truth leading-miss counting.

A *leading miss* (LM) begins a group of overlapping memory accesses; only
its latency stalls the pipeline, while the remaining misses of the group
(*overlapping*, OV) hide underneath it (Su et al., Miftakhutdinov et al.).

This module computes the oracle LM counts the hardware heuristic of Fig. 4
tries to estimate.  A miss is overlapping iff

1. it is within the instruction window (ROB) of the last leading miss, and
2. it is not serialised behind it by a data dependence: an access whose
   producer (``dep_prev``) itself missed at-or-after the current leading
   miss must wait for that data and cannot overlap.

Unlike the ATD heuristic, the oracle walks the stream in **program order**
with the generator's true dependence links and unwrapped instruction
indices.

:func:`leading_miss_matrix` runs that walk in the compiled
``leading_matrix`` kernel of :mod:`repro.cache._native` when a C compiler
is available; its Python loop is the no-compiler path (also taken under
``REPRO_NO_NATIVE=1``) and gives bit-identical counts.
:func:`count_leading_misses` stays the per-pair reference oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cache import _native
from repro.config import CORE_PARAMS, CoreSize
from repro.trace.stream import FRESH, AccessStream

__all__ = ["leading_miss_matrix", "count_leading_misses"]


def count_leading_misses(stream: AccessStream, rob: int, ways: int) -> int:
    """Oracle LM count for one (ROB size, allocation) pair.

    Reference implementation — clear rather than fast; the production path
    is :func:`leading_miss_matrix`, which shares the scan across all pairs.
    """
    if rob < 1 or ways < 1:
        raise ValueError("rob and ways must be >= 1")
    miss = stream.misses_at(ways)
    inst = stream.inst_index
    dep = stream.dep_prev
    lm = 0
    last_lm_pos = -1
    last_lm_inst = -(10**18)
    for k in range(stream.n_accesses):
        if not miss[k]:
            continue
        serialized = dep[k] >= 0 and dep[k] >= last_lm_pos and miss[dep[k]]
        if inst[k] - last_lm_inst >= rob or serialized:
            lm += 1
            last_lm_pos = k
            last_lm_inst = int(inst[k])
    return lm


def leading_miss_matrix(
    stream: AccessStream,
    rob_sizes: Sequence[int] | None = None,
    max_ways: int = 16,
) -> np.ndarray:
    """Oracle LM counts for every (core size, allocation) pair.

    Exploits the nested-miss property of recency semantics: an access of
    recency ``r`` misses exactly at allocations ``w < r`` (every allocation
    for FRESH accesses), so each access updates a *prefix* of the way range.

    Returns
    -------
    ``int64[n_sizes, max_ways]`` where entry ``[c, w-1]`` is LM for ROB
    ``rob_sizes[c]`` at allocation ``w``.
    """
    if rob_sizes is None:
        rob_sizes = [CORE_PARAMS[c].rob for c in CoreSize.all()]
    n_sizes = len(rob_sizes)
    if n_sizes == 0 or any(r < 1 for r in rob_sizes):
        raise ValueError("rob_sizes must be positive")
    if _native.available():
        return _native.native_leading_matrix(
            stream.inst_index, stream.recency, stream.dep_prev,
            rob_sizes, max_ways,
        )

    inst = stream.inst_index
    recency = stream.recency
    dep = stream.dep_prev

    counts = [[0] * max_ways for _ in range(n_sizes)]
    last_lm_pos = [[-1] * max_ways for _ in range(n_sizes)]
    last_lm_inst = [[-(10**18)] * max_ways for _ in range(n_sizes)]

    neg_inf = -(10**18)
    for k in range(stream.n_accesses):
        r = int(recency[k])
        miss_prefix = max_ways if r == FRESH else min(r - 1, max_ways)
        if miss_prefix <= 0:
            continue
        ik = int(inst[k])
        dk = int(dep[k])
        # Producer miss prefix: the producer misses at allocations < its
        # recency (all of them when FRESH); -1 when independent.
        if dk >= 0:
            rp = int(recency[dk])
            prod_prefix = max_ways if rp == FRESH else min(rp - 1, max_ways)
        else:
            prod_prefix = 0
        for c in range(n_sizes):
            rob = rob_sizes[c]
            cnt = counts[c]
            pos_row = last_lm_pos[c]
            inst_row = last_lm_inst[c]
            for w in range(miss_prefix):
                serialized = (
                    dk >= 0
                    and w < prod_prefix  # producer missed at this allocation
                    and dk >= pos_row[w]  # at-or-after the current LM
                )
                if ik - inst_row[w] >= rob or serialized or inst_row[w] == neg_inf:
                    cnt[w] += 1
                    pos_row[w] = k
                    inst_row[w] = ik
    return np.asarray(counts, dtype=np.int64)
