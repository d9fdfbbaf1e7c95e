"""Extension-experiment tests: hardware-budget sensitivity of the MLP-ATD."""

from collections import Counter

import numpy as np
import pytest

from repro.atd.mlp import MLPCounterArray
from repro.experiments import ext_sensitivity
from repro.experiments.ext_sensitivity import (
    PROBE_APPS,
    _heuristic_lm,
    lm_error_for_window,
    lm_undercount_for_counter_bits,
    run,
)
from repro.experiments.common import ExperimentConfig
from repro.trace.stream import FRESH


def _per_access_lm(stream, index_window):
    """Reference: the Fig. 4 counters driven one access at a time."""
    counters = MLPCounterArray(index_window=index_window)
    for k in stream.in_arrival_order():
        r = int(stream.recency[k])
        miss_ways = counters.max_ways if r == FRESH else r - 1
        if miss_ways > 0:
            counters.observe(int(stream.inst_index[k]), miss_ways)
    return counters.snapshot().leading_misses


class TestSensitivityPrimitives:
    def test_error_nonnegative(self, cs_trace):
        assert lm_error_for_window(cs_trace.stream, 1024) >= 0.0

    def test_tight_window_hurts_chains(self, chain_trace):
        """Chain-heavy code relies on distance splits: 1x ROB degrades."""
        wide = lm_error_for_window(chain_trace.stream, 1024)
        tight = lm_error_for_window(chain_trace.stream, 256)
        assert tight > wide

    def test_saturation_monotone_in_bits(self, streaming_trace):
        scale = streaming_trace.sample_scale
        unders = [
            lm_undercount_for_counter_bits(streaming_trace.stream, b, scale)
            for b in (27, 18, 12)
        ]
        assert unders[0] <= unders[1] <= unders[2]
        assert unders[0] == 0.0  # the paper's budget never saturates

    def test_zero_scale_no_saturation(self, cs_trace):
        assert lm_undercount_for_counter_bits(cs_trace.stream, 12, 0.0) == 0.0

    @pytest.mark.parametrize("window", [1024, 512, 256])
    @pytest.mark.parametrize("trace_name", ["cs_trace", "chain_trace"])
    def test_batched_matches_per_access(self, request, trace_name, window):
        stream = request.getfixturevalue(trace_name).stream
        assert np.array_equal(
            _heuristic_lm(stream, window), _per_access_lm(stream, window)
        )


class TestSensitivityRender:
    def test_each_analysis_runs_once(self, monkeypatch):
        """One oracle per probe stream, one counter pass per window."""
        calls = {"oracle": Counter(), "heuristic": Counter()}

        def counting(kind, fn):
            def wrapper(stream, *args, **kwargs):
                calls[kind][id(stream)] += 1
                return fn(stream, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ext_sensitivity,
            "leading_miss_matrix",
            counting("oracle", ext_sensitivity.leading_miss_matrix),
        )
        monkeypatch.setattr(
            ext_sensitivity,
            "_heuristic_lm",
            counting("heuristic", ext_sensitivity._heuristic_lm),
        )
        res = ext_sensitivity.render(ExperimentConfig(quick=True), None)
        assert len(res.rows) == 8
        assert sorted(calls["oracle"].values()) == [1] * len(PROBE_APPS)
        assert sorted(calls["heuristic"].values()) == [3] * len(PROBE_APPS)


@pytest.mark.slow
class TestSensitivityExperiment:
    def test_run_shape(self, full_db):
        res = run(ExperimentConfig(quick=True))
        assert len(res.rows) == 8  # 3 window rows + 5 counter rows
        # paper budget row: zero saturation everywhere
        assert all(v == 0.0 for v in res.data["counter"][27].values())
        # the 4x window is a usable budget for every probe app
        assert all(v < 0.25 for v in res.data["index"][4].values())
