"""Database tests: record consistency, builder, disk cache."""

import numpy as np
import pytest

from repro.cache import _native
from repro.cache.replay import clear_replay_memo
from repro.config import CoreSize, Setting
from repro.database.builder import (
    SimDatabase,
    baseline_feasibility_check,
    build_database,
)
from repro.database.store import (
    database_fingerprint,
    load_cached_database,
    records_fingerprint,
    save_database_cache,
)

from repro.testing import mini_suite


class TestPhaseRecord:
    def test_shapes(self, mini_db):
        for _spec, _i, _w, rec in mini_db.iter_phase_records():
            n_sizes, n_freqs, n_ways = rec.shape_check()
            assert (n_sizes, n_freqs, n_ways) == (3, 10, 16)

    def test_time_lookup_matches_grid(self, mini_db, system2):
        rec = mini_db.record("mini_csps", 0)
        s = Setting(CoreSize.L, 1.5, 12)
        fi = system2.dvfs.index_of(1.5)
        assert rec.time_at(s) == rec.time_grid[2, fi, 11]

    def test_tpi(self, mini_db, system2):
        rec = mini_db.record("mini_csps", 0)
        base = system2.baseline_setting()
        assert rec.tpi_at(base) == pytest.approx(rec.time_at(base) / rec.n_instructions)

    def test_energy_grid_matches_scalar(self, mini_db, system2):
        rec = mini_db.record("mini_cips", 0)
        grid = rec.energy_grid()
        for s in (
            system2.baseline_setting(),
            Setting(CoreSize.S, 1.0, 2),
            Setting(CoreSize.L, 3.25, 16),
        ):
            fi = system2.dvfs.index_of(s.f_ghz)
            assert rec.energy_at(s) == pytest.approx(
                float(grid[int(s.core), fi, s.ways - 1])
            )

    def test_counters_reconstruct_eq1_terms(self, mini_db, system2):
        """T0 + T1 + Tmem must reassemble the measured time exactly."""
        rec = mini_db.record("mini_csps", 1)
        for s in (system2.baseline_setting(), Setting(CoreSize.L, 1.25, 4)):
            c = rec.counters_at(s)
            f_hz = s.f_ghz * 1e9
            reassembled = (c.t0_cycles + c.t1_cycles) / f_hz + c.mem_time_s
            assert reassembled == pytest.approx(c.time_s, rel=1e-9)

    def test_measured_mlp_reasonable(self, mini_db, system2):
        rec = mini_db.record("mini_cips", 0)
        c = rec.counters_at(system2.baseline_setting())
        assert 1.0 <= c.measured_mlp <= 64.0

    def test_effective_latency_fallback(self, mini_db, system2):
        rec = mini_db.record("mini_cipi", 0)
        c = rec.counters_at(system2.baseline_setting())
        assert c.effective_memory_latency_s(123.0) > 0
        # a zero-LM counter set falls back
        from dataclasses import replace

        c0 = replace(c, lm_current=0.0)
        assert c0.effective_memory_latency_s(123.0) == 123.0

    def test_atd_report_consistent(self, mini_db):
        rec = mini_db.record("mini_csps", 0)
        report = rec.atd_report()
        assert report.miss_curve.shape == (16,)
        assert report.mlp.leading_misses.shape == (3, 16)
        assert np.all(report.mlp.leading_misses <= report.miss_curve[None, :] + 1e-9)

    def test_mpki_mlp_helpers(self, mini_db):
        rec = mini_db.record("mini_csps", 0)
        assert rec.mpki_at(8) == pytest.approx(rec.misses_at(8) / 1e5 * 1e3 / 1e3)
        assert rec.mlp_at(CoreSize.L, 8) >= rec.mlp_at(CoreSize.S, 8) - 1e-9

    def test_f_index_validation(self, mini_db):
        rec = mini_db.record("mini_csps", 0)
        with pytest.raises(ValueError):
            rec.f_index(2.1)
        with pytest.raises(ValueError):
            rec.w_index(0)


class TestBuilder:
    def test_all_apps_built(self, mini_db):
        assert set(mini_db.app_names()) == {
            "mini_cipi", "mini_cips", "mini_cspi", "mini_csps",
        }
        assert len(mini_db.records["mini_csps"]) == 2

    def test_record_for_interval_follows_pattern(self, mini_db):
        spec = mini_db.apps["mini_csps"]
        for i in range(10):
            rec = mini_db.record_for_interval("mini_csps", i)
            assert rec.phase == spec.phases[spec.phase_of_interval(i)].name

    def test_phase_weights_in_iteration(self, mini_db):
        weights = [w for _s, _i, w, _r in mini_db.iter_phase_records()]
        # per-app weights sum to 1 -> total equals the app count
        assert sum(weights) == pytest.approx(len(mini_db.apps))

    def test_baseline_always_on_grid(self, mini_db):
        baseline_feasibility_check(mini_db)

    def test_duplicate_names_rejected(self, system2):
        suite = mini_suite()
        with pytest.raises(ValueError):
            build_database([suite[0], suite[0]], system2, use_cache=False)

    def test_deterministic_build(self, system2, mini_db):
        db2 = build_database(mini_suite(), system2, seed=7, use_cache=False)
        a = mini_db.record("mini_csps", 0)
        b = db2.record("mini_csps", 0)
        assert np.array_equal(a.time_grid, b.time_grid)
        assert np.array_equal(a.lm_heur, b.lm_heur)

    def test_parallel_build_bit_identical(self, system2, mini_db):
        """Same seed => identical database regardless of worker count."""
        db2 = build_database(
            mini_suite(), system2, seed=7, use_cache=False, n_workers=2
        )
        for (_s1, _i1, _w1, a), (_s2, _i2, _w2, b) in zip(
            mini_db.iter_phase_records(), db2.iter_phase_records(),
            strict=True,
        ):
            assert a.app == b.app and a.phase == b.phase
            assert np.array_equal(a.time_grid, b.time_grid)
            assert np.array_equal(a.lm_heur, b.lm_heur)
            assert np.array_equal(a.atd_miss_curve, b.atd_miss_curve)
            assert np.array_equal(a.miss_curve, b.miss_curve)
            assert np.array_equal(a.mem_energy_curve, b.mem_energy_curve)

    def test_worker_resolution(self, system2, monkeypatch):
        from repro.database import builder
        from repro.database.builder import resolve_build_workers

        # explicit argument wins; clamped to the task count
        assert resolve_build_workers(3, 10, system2) == 3
        assert resolve_build_workers(16, 2, system2) == 2
        # auto: small (test-scale) builds stay serial
        assert resolve_build_workers(None, 5, system2) == 1

        # REPRO_BUILD_WORKERS reaches the build's worker choice when no
        # count is passed (pool and fabric workers rely on =1 to stop
        # nested build pools); an explicit count still wins.
        seen = []

        def record(requested, n_tasks, system):
            seen.append(requested)
            return 1

        monkeypatch.setattr(builder, "resolve_build_workers", record)
        monkeypatch.setenv("REPRO_BUILD_WORKERS", "5")
        build_database(mini_suite(), system2, seed=7, use_cache=False)
        build_database(
            mini_suite(), system2, seed=7, use_cache=False, n_workers=2
        )
        monkeypatch.delenv("REPRO_BUILD_WORKERS")
        build_database(mini_suite(), system2, seed=7, use_cache=False)
        assert seen == [5, 2, None]


class TestStore:
    def test_fingerprint_sensitivity(self, system2):
        suite = mini_suite()
        base = database_fingerprint(suite, system2, 7)
        assert base == database_fingerprint(mini_suite(), system2, 7)
        assert base != database_fingerprint(suite, system2, 8)
        assert base != database_fingerprint(suite[:3], system2, 7)

    def test_roundtrip(self, mini_db, system2, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        path = save_database_cache(mini_db, mini_suite(), 7)
        assert path is not None and path.exists()
        loaded = load_cached_database(mini_suite(), system2, 7)
        assert loaded is not None
        assert loaded.content_fingerprint == mini_db.content_fingerprint

    def test_records_file_is_shared_across_core_counts(
        self, mini_db, system2, system4, tmp_path, monkeypatch
    ):
        """Records do not depend on the core count: one file, keyed
        without it, loads bound to whichever system asks for it."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert records_fingerprint(mini_suite(), system2, 7) == records_fingerprint(
            mini_suite(), system4, 7
        )
        assert records_fingerprint(mini_suite(), system2, 7) != records_fingerprint(
            mini_suite(), system2, 8
        )
        # the build identity (folded into result fingerprints) still differs
        assert database_fingerprint(mini_suite(), system2, 7) != database_fingerprint(
            mini_suite(), system4, 7
        )
        path = save_database_cache(mini_db, mini_suite(), 7)
        assert path.name.startswith("records-")
        loaded = load_cached_database(mini_suite(), system4, 7)
        assert loaded.system == system4
        assert loaded.records.keys() == mini_db.records.keys()
        for app, records in mini_db.records.items():
            assert [r.fingerprint for r in loaded.records[app]] == [
                r.fingerprint for r in records
            ]

    def test_miss_returns_none(self, system2, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert load_cached_database(mini_suite(), system2, 99) is None

    def test_disable_env(self, mini_db, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert save_database_cache(mini_db, mini_suite(), 7) is None

    def test_cli_cache_reports_and_prunes_orphans(
        self, mini_db, tmp_path, monkeypatch, capsys
    ):
        """Per-core files from before records were keyed per seed are
        orphans: ``repro cache`` counts them, ``--prune`` deletes them and
        nothing else (records, quarantine, a save's temporary, a user's
        own ``.npz``)."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        monkeypatch.delenv("REPRO_LOCAL_MEMO", raising=False)
        records = save_database_cache(mini_db, mini_suite(), 7)
        orphans = [tmp_path / f"{c * 32}.npz" for c in "ab"]
        for orphan in orphans:
            orphan.write_bytes(b"x" * 1024 * 1024)
        quarantined = tmp_path / "quarantine" / f"{'c' * 32}.npz"
        quarantined.parent.mkdir()
        quarantined.write_bytes(b"x")
        # neither a records file nor an orphan: never counted or deleted
        bystanders = [
            tmp_path / "user-data.npz",
            tmp_path / f"records-{'d' * 32}.tmp12345.npz",
        ]
        for bystander in bystanders:
            bystander.write_bytes(b"x")

        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "1 records files, 2 orphaned files (2.0 MiB)\n" in out
        assert all(orphan.exists() for orphan in orphans)
        assert main(["cache", "--prune"]) == 0
        out = capsys.readouterr().out
        assert "1 records files, 2 orphaned files (2.0 MiB) removed" in out
        assert records.exists() and quarantined.exists()
        assert all(bystander.exists() for bystander in bystanders)
        assert not any(orphan.exists() for orphan in orphans)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda b: b[: len(b) // 2], id="truncated"),
            pytest.param(lambda b: b"", id="empty"),
            pytest.param(lambda b: b"not a zip file" * 64, id="garbage"),
        ],
    )
    def test_corrupt_file_is_quarantined_and_rebuilt(
        self, mini_db, system2, tmp_path, monkeypatch, damage
    ):
        """A damaged cache file is a miss, not a wedge: the build
        quarantines it, rebuilds and re-caches a loadable file."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        path = save_database_cache(mini_db, mini_suite(), 7)
        path.write_bytes(damage(path.read_bytes()))

        rebuilt = build_database(mini_suite(), system2, seed=7)
        assert rebuilt.content_fingerprint == mini_db.content_fingerprint
        assert (tmp_path / "quarantine" / path.name).exists()
        reloaded = load_cached_database(mini_suite(), system2, 7)
        assert reloaded is not None
        assert reloaded.content_fingerprint == mini_db.content_fingerprint


class TestCanonicalBuild:
    """The paper-scale database, pinned bit for bit (4 cores)."""

    def test_seed_2020(self, full_db):
        assert full_db.content_fingerprint == "137afeb2e3c5104230ec902645e59849"

    def test_seed_7(self):
        from repro.config import default_system
        from repro.workloads.suite import spec_suite

        db = build_database(spec_suite(), default_system(4), seed=7)
        assert db.content_fingerprint == "935db924b4b7d763a8cde94a8f6451e4"


@pytest.mark.skipif(not _native.available(), reason="no C compiler")
def test_no_native_build_has_same_content_fingerprint(
    system2, mini_db, monkeypatch
):
    """The compiled trace kernels and the REPRO_NO_NATIVE Python loops
    build the same database, bit for bit."""
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_lib_failed", False)
    clear_replay_memo()
    fallback = build_database(mini_suite(), system2, seed=7, use_cache=False)
    assert not _native.available()
    assert fallback.content_fingerprint == mini_db.content_fingerprint
