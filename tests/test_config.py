"""Configuration (Table I) invariants."""

import math

import pytest

from repro.config import (
    CORE_PARAMS,
    CacheConfig,
    CoreSize,
    DVFSConfig,
    ScaleConfig,
    Setting,
    SystemConfig,
    default_system,
)


class TestCoreParams:
    def test_table1_values(self):
        assert CORE_PARAMS[CoreSize.L].issue_width == 8
        assert CORE_PARAMS[CoreSize.M].issue_width == 4
        assert CORE_PARAMS[CoreSize.S].issue_width == 2
        assert CORE_PARAMS[CoreSize.L].rob == 256
        assert CORE_PARAMS[CoreSize.M].rob == 128
        assert CORE_PARAMS[CoreSize.S].rob == 64
        assert CORE_PARAMS[CoreSize.S].rs == 16
        assert CORE_PARAMS[CoreSize.S].lsq == 10

    def test_sizes_strictly_ordered(self):
        sizes = CoreSize.all()
        for small, big in zip(sizes, sizes[1:]):
            assert CORE_PARAMS[small].rob < CORE_PARAMS[big].rob
            assert CORE_PARAMS[small].issue_width < CORE_PARAMS[big].issue_width

    def test_size_ordering_enum(self):
        assert CoreSize.S < CoreSize.M < CoreSize.L
        assert CoreSize.M.label == "M"


class TestDVFS:
    def test_ladder_covers_table1_range(self):
        d = DVFSConfig()
        ladder = d.frequencies_ghz()
        assert ladder[0] == pytest.approx(1.0)
        assert ladder[-1] == pytest.approx(3.25)
        assert len(ladder) == 10
        assert 2.0 in ladder

    def test_voltage_endpoints(self):
        d = DVFSConfig()
        assert d.voltage(1.0) == pytest.approx(0.8)
        assert d.voltage(3.25) == pytest.approx(1.25)
        assert d.voltage(2.0) == pytest.approx(d.v_base)

    def test_voltage_monotone(self):
        d = DVFSConfig()
        volts = [d.voltage(f) for f in d.frequencies_ghz()]
        assert all(a < b for a, b in zip(volts, volts[1:]))

    def test_voltage_out_of_range_rejected(self):
        d = DVFSConfig()
        with pytest.raises(ValueError):
            d.voltage(0.5)
        with pytest.raises(ValueError):
            d.voltage(4.0)

    def test_index_of_requires_exact_match(self):
        d = DVFSConfig()
        assert d.index_of(2.0) == 4
        with pytest.raises(ValueError):
            d.index_of(2.1)


class TestCacheConfig:
    def test_total_ways_scale_with_cores(self):
        c = CacheConfig()
        assert c.total_ways(2) == 16
        assert c.total_ways(4) == 32
        assert c.total_ways(8) == 64

    def test_way_capacity(self):
        assert CacheConfig().way_kb() == 256

    def test_feasible_partitions(self):
        c = CacheConfig()
        assert c.feasible([8, 8], 2)
        assert c.feasible([2, 14], 2)
        assert not c.feasible([1, 15], 2)  # below w_min
        assert not c.feasible([8, 9], 2)  # exceeds budget
        assert not c.feasible([8, 8, 8], 2)  # wrong arity

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            CacheConfig().total_ways(0)


class TestSystemConfig:
    def test_baseline_setting(self):
        s = default_system(4)
        base = s.baseline_setting()
        assert base.core is CoreSize.M
        assert base.f_ghz == pytest.approx(2.0)
        assert base.ways == 8

    def test_candidate_ways(self):
        s = default_system(4)
        ways = s.candidate_ways()
        assert ways[0] == 2 and ways[-1] == 16 and len(ways) == 15

    def test_rejects_bad_core_count(self):
        with pytest.raises(ValueError):
            SystemConfig(n_cores=0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            SystemConfig(n_cores=2, qos_alpha=0.0)


class TestSetting:
    def test_replace(self):
        s = Setting(CoreSize.M, 2.0, 8)
        s2 = s.replace(ways=12)
        assert s2.ways == 12 and s2.core is CoreSize.M and s.ways == 8

    def test_equality_by_value(self):
        assert Setting(CoreSize.L, 1.5, 4) == Setting(CoreSize.L, 1.5, 4)
        assert Setting(CoreSize.L, 1.5, 4) != Setting(CoreSize.L, 1.5, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Setting(CoreSize.M, -1.0, 8)
        with pytest.raises(ValueError):
            Setting(CoreSize.M, 2.0, 0)


class TestScaleConfig:
    def test_trace_scale_converts_to_nominal(self):
        sc = ScaleConfig(sample_llc_accesses=1000, interval_instructions=10_000_000)
        # 20 APKI over 10M instructions = 200K accesses; sample 1000 -> x200
        assert sc.trace_scale(20.0) == pytest.approx(200.0)

    def test_trace_scale_zero_density(self):
        assert ScaleConfig().trace_scale(0.0) == 0.0

    @pytest.mark.parametrize(
        "field", ["sample_llc_accesses", "interval_instructions"]
    )
    def test_empty_sample_or_interval_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            ScaleConfig(**{field: 0})

    def test_nominal_interval_is_100m(self):
        assert ScaleConfig().interval_instructions == 100_000_000
        assert math.isclose(ScaleConfig().trace_scale(10.0) * ScaleConfig().sample_llc_accesses, 1_000_000)
