"""Trace generator tests: the synthetic stream must realise its spec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import _native
from repro.config import ScaleConfig
from repro.trace.generator import (
    PhaseTraceGenerator,
    STACK_DEPTH,
    TRACE_SETS,
    burst_positions,
    realise_loop,
)
from repro.trace.reuse import ReuseProfile, cliff_profile, streaming_profile
from repro.trace.spec import uniform_ipc
from repro.trace.stream import FRESH

from conftest import make_phase, small_scale


@pytest.fixture(scope="module")
def gen():
    return PhaseTraceGenerator(small_scale())


class TestDeterminism:
    def test_same_seed_same_trace(self, gen, cs_phase):
        a = gen.generate(cs_phase, seed=5)
        b = gen.generate(cs_phase, seed=5)
        assert np.array_equal(a.stream.inst_index, b.stream.inst_index)
        assert np.array_equal(a.stream.tag, b.stream.tag)
        assert np.array_equal(a.stream.arrival_order, b.stream.arrival_order)

    def test_different_seed_different_trace(self, gen, cs_phase):
        a = gen.generate(cs_phase, seed=5)
        b = gen.generate(cs_phase, seed=6)
        assert not np.array_equal(a.stream.tag, b.stream.tag)


class TestStreamStructure:
    def test_program_order_strict(self, cs_trace):
        assert np.all(np.diff(cs_trace.stream.inst_index) > 0)

    def test_arrival_is_permutation(self, cs_trace):
        order = np.sort(cs_trace.stream.arrival_order)
        assert np.array_equal(order, np.arange(len(cs_trace.stream)))

    def test_dependences_point_backwards(self, chain_trace):
        dep = chain_trace.stream.dep_prev
        idx = np.arange(len(dep))
        mask = dep != -1
        assert np.all(dep[mask] < idx[mask])
        assert mask.mean() > 0.5  # chain_frac=0.8 phase

    def test_sets_in_range(self, cs_trace):
        s = cs_trace.stream.set_index
        assert s.min() >= 0 and s.max() < TRACE_SETS


class TestRecencyRealisation:
    def test_realised_recency_matches_profile(self, gen):
        """The realised recency histogram must track the requested pmf."""
        phase = make_phase("t", cliff_profile(9.0, 2.0, 0.2), apki=20.0)
        trace = gen.generate(phase, seed=11)
        rec = trace.stream.recency
        fresh_frac = np.mean(rec == FRESH)
        assert fresh_frac == pytest.approx(0.2, abs=0.05)
        hits = rec[rec != FRESH]
        assert abs(hits.mean() - 9.0) < 1.0  # cliff centre

    def test_miss_counts_nested(self, cs_trace):
        counts = cs_trace.stream.miss_counts()
        assert np.all(np.diff(counts) <= 0)
        assert counts[0] <= len(cs_trace.stream)

    def test_misses_at_consistent_with_counts(self, cs_trace):
        for w in (1, 4, 8, 16):
            assert cs_trace.stream.misses_at(w).sum() == cs_trace.stream.miss_counts()[w - 1]

    def test_streaming_flat_curve(self, streaming_trace):
        counts = streaming_trace.stream.miss_counts()
        n = len(streaming_trace.stream)
        assert counts[-1] / n > 0.9
        assert (counts[0] - counts[-1]) / n < 0.1


class TestInstructionGeometry:
    def test_mean_gap_matches_apki(self, gen):
        phase = make_phase("g", apki=25.0)
        trace = gen.generate(phase, seed=3)
        span = trace.stream.inst_index[-1] - trace.stream.inst_index[0]
        mean_gap = span / (len(trace.stream) - 1)
        assert mean_gap == pytest.approx(1000.0 / 25.0, rel=0.15)

    def test_burst_structure_visible(self, gen):
        phase = make_phase("b", burst=10.0, intra=0.1, apki=20.0)
        trace = gen.generate(phase, seed=3)
        gaps = np.diff(trace.stream.inst_index)
        # Bimodal gaps: many small (intra) and some large (inter).
        small = np.mean(gaps <= 0.3 * gaps.mean())
        assert small > 0.5


class TestArrivalEmulation:
    def test_independent_stream_arrives_in_order(self, gen):
        phase = make_phase("ind", chain=0.0)
        trace = gen.generate(phase, seed=9)
        assert np.array_equal(
            trace.stream.arrival_order, np.arange(len(trace.stream))
        )

    def test_dependent_accesses_arrive_late(self, gen):
        phase = make_phase("dep", chain=0.5)
        trace = gen.generate(phase, seed=9)
        dep = trace.stream.dep_prev != -1
        order = trace.stream.arrival_order
        displacement = order - np.arange(len(order))
        assert displacement[dep].mean() > 0
        # independent accesses move earlier or stay
        assert displacement[~dep].mean() <= 0


class TestScaling:
    def test_sample_scale(self, gen):
        phase = make_phase("s", apki=10.0)
        trace = gen.generate(phase, seed=1)
        nominal = gen.scale.interval_instructions * 10.0 / 1000.0
        assert trace.nominal_accesses == pytest.approx(nominal, rel=1e-6)

    def test_mpki_curve_consistency(self, cs_trace):
        interval = small_scale().interval_instructions
        mpki = cs_trace.mpki_curve(interval)
        miss = cs_trace.nominal_miss_curve()
        assert np.allclose(mpki, miss / (interval / 1000.0))


class TestBurstChain:
    def test_burst_chain_adds_lead_dependences(self, gen):
        base = make_phase("bc", streaming_profile(0.95), chain=0.0, burst=8.0,
                          intra=0.05)
        chained = make_phase(
            "bc2", streaming_profile(0.95), chain=0.0, burst=8.0, intra=0.05,
            burst_chain=True,
        )
        t0 = gen.generate(base, seed=2)
        t1 = gen.generate(chained, seed=2)
        assert (t0.stream.dep_prev != -1).sum() == 0
        assert (t1.stream.dep_prev != -1).sum() > len(t1.stream) / 20

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseTraceGenerator(ScaleConfig(), n_sets=0)


def test_stack_depth_covers_max_recency():
    assert STACK_DEPTH == 16


def test_ipc_cannot_exceed_issue_width():
    with pytest.raises(ValueError):
        make_phase("bad", ipc=uniform_ipc(2.5, 3.0, 4.0))  # S width is 2


# ---------------------------------------------------------------------------
# Differential tests: the vectorised generator against its former loops.
# ---------------------------------------------------------------------------

_STREAM_FIELDS = (
    "inst_index", "set_index", "tag", "recency", "dep_prev", "arrival_order",
)


def reference_burst_positions(lengths, n, inter, intra, rng):
    """The former per-burst loop: one ``rng.exponential`` call per burst
    lead, one vector call per burst tail, singleton bursts past the end."""
    gaps = np.empty(n, dtype=np.float64)
    lead = np.zeros(n, dtype=bool)
    pos = 0
    for blen in lengths:
        blen = int(min(blen, n - pos))
        if blen <= 0:
            break
        gaps[pos] = rng.exponential(inter)
        lead[pos] = True
        if blen > 1:
            gaps[pos + 1 : pos + blen] = rng.exponential(intra, size=blen - 1)
        pos += blen
        if pos >= n:
            break
    if pos < n:
        gaps[pos:] = rng.exponential(inter, size=n - pos)
        lead[pos:] = True
    inst = np.cumsum(np.maximum(1, np.round(gaps)).astype(np.int64))
    return inst, lead


def reference_arrival_order(spec, dep_prev, n):
    """The former per-access dependence-depth loop."""
    keys = np.arange(n, dtype=np.float64)
    if spec.dep_arrival_delay > 0 and n:
        depth = np.zeros(n, dtype=np.int64)
        for k in range(n):
            d = dep_prev[k]
            if d >= 0:
                depth[k] = depth[d] + 1
        keys += depth * spec.dep_arrival_delay + np.where(depth > 0, 0.5, 0.0)
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(keys, kind="stable")] = np.arange(n)
    return ranks


def reference_generate(gen, spec, seed):
    """``PhaseTraceGenerator.generate`` as it was before vectorisation:
    same draws in the same order, the loops above and
    :func:`realise_loop` (the Python per-access LRU walk)."""
    rng = np.random.default_rng(seed)
    n = gen.scale.sample_llc_accesses
    mean_gap = spec.mean_access_gap
    intra = max(1.0, spec.intra_gap_frac * mean_gap)
    b = spec.burst_len
    inter = max(intra, b * mean_gap - (b - 1.0) * intra)
    lengths = rng.geometric(min(1.0, 1.0 / b), size=max(16, int(2 * n / b) + 16))
    inst, lead = reference_burst_positions(lengths, n, inter, intra, rng)
    target = spec.reuse.sample_recencies(n, rng)
    sets = rng.integers(0, gen.n_sets, size=n).astype(np.int32)
    tags, realised = realise_loop(sets, target, gen.n_sets)
    dep = gen._dependences(spec, n, rng, lead)
    arrival = reference_arrival_order(spec, dep, n)
    return {
        "inst_index": inst, "set_index": sets, "tag": tags,
        "recency": realised, "dep_prev": dep, "arrival_order": arrival,
    }


def _assert_same(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


_PROFILES = {
    "fresh-heavy": streaming_profile(0.97),
    "deep": cliff_profile(15.0, 1.0, 0.02),
    "all-fresh": ReuseProfile(tuple([0.0] * 16 + [1.0])),
    "all-deepest": ReuseProfile(tuple([0.0] * 15 + [1.0, 0.0])),
    "cliff": cliff_profile(9.0, 2.5, 0.1),
}

phases = st.builds(
    lambda reuse, burst, intra, chain, burst_chain, delay: make_phase(
        "h", _PROFILES[reuse], burst=burst, intra=intra, chain=chain,
        burst_chain=burst_chain, dep_arrival_delay=delay,
    ),
    reuse=st.sampled_from(sorted(_PROFILES)),
    burst=st.one_of(st.just(1.0), st.floats(0.5, 24.0)),
    intra=st.floats(0.0, 1.0),
    chain=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    burst_chain=st.booleans(),
    delay=st.one_of(st.just(0), st.integers(1, 6)),
)


class TestGeneratorDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=phases,
        n=st.one_of(st.sampled_from([1, 2]), st.integers(3, 600)),
        n_sets=st.sampled_from([1, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generate_matches_former_loops(self, spec, n, n_sets, seed):
        """``n = 0`` is covered per stage below (a zero-access sample has
        no trace scale, so ``generate`` itself needs ``n >= 1``)."""
        gen = PhaseTraceGenerator(ScaleConfig(sample_llc_accesses=n), n_sets=n_sets)
        trace = gen.generate(spec, seed)
        ref = reference_generate(gen, spec, seed)
        for name in _STREAM_FIELDS:
            _assert_same(getattr(trace.stream, name), ref[name])
        assert trace.stream.n_instructions == int(ref["inst_index"][-1]) + 1

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 6), min_size=0, max_size=8),
        n=st.integers(0, 40),
        inter=st.floats(1.0, 500.0),
        intra=st.floats(1.0, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_burst_positions_match_per_burst_loop(
        self, lengths, n, inter, intra, seed
    ):
        """Short length vectors make ``sum(lengths) < n`` common, so the
        singleton-burst remainder runs; the bit generator must end in
        the same state as after the loop."""
        lengths = np.asarray(lengths, dtype=np.int64)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        inst, lead = burst_positions(lengths, n, inter, intra, rng_a)
        ref_inst, ref_lead = reference_burst_positions(lengths, n, inter, intra, rng_b)
        _assert_same(inst, ref_inst)
        _assert_same(lead, ref_lead)
        assert rng_a.random() == rng_b.random()

    @settings(max_examples=60, deadline=None)
    @given(
        links=st.lists(st.booleans(), min_size=0, max_size=200),
        delay=st.integers(0, 6),
    )
    def test_arrival_order_matches_depth_loop(self, links, delay):
        n = len(links)
        dep = np.where(np.asarray(links, dtype=bool), np.arange(n) - 1, -1)
        dep = dep.astype(np.int64)
        spec = make_phase("a", dep_arrival_delay=delay)
        gen = PhaseTraceGenerator(ScaleConfig(sample_llc_accesses=max(n, 1)))
        _assert_same(
            gen._arrival_order(spec, dep, n), reference_arrival_order(spec, dep, n)
        )

    @pytest.mark.parametrize("dep", [[-1, -1, 0], [-1, 0, 2], [-1, -2, 1]])
    def test_arrival_order_rejects_non_adjacent_links(self, dep):
        spec = make_phase("a", dep_arrival_delay=2)
        gen = PhaseTraceGenerator(ScaleConfig(sample_llc_accesses=3))
        with pytest.raises(ValueError, match="k-1"):
            gen._arrival_order(spec, np.array(dep, dtype=np.int64), 3)

    @pytest.mark.skipif(not _native.available(), reason="no C compiler")
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 2000)),
        n_sets=st.sampled_from([1, 3, 64]),
        reuse=st.sampled_from(sorted(_PROFILES)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_native_realise_matches_python_loop(self, n, n_sets, reuse, seed):
        rng = np.random.default_rng(seed)
        target = _PROFILES[reuse].sample_recencies(n, rng)
        sets = rng.integers(0, n_sets, size=n).astype(np.int32)
        tags, realised = _native.native_realise(sets, target, n_sets, STACK_DEPTH)
        ref_tags, ref_realised = realise_loop(sets, target, n_sets)
        _assert_same(tags, ref_tags)
        _assert_same(realised, ref_realised)

    @pytest.mark.skipif(not _native.available(), reason="no C compiler")
    def test_native_realise_rejects_out_of_range_sets(self):
        with pytest.raises(ValueError):
            _native.native_realise(
                np.array([0, 4], dtype=np.int32), np.array([1, 0]), 4, STACK_DEPTH
            )
