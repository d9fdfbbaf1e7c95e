"""Native run engine tests: the one-call compiled event loop.

The contract under test:

* ``wave="native"`` is bit-identical to every other loop mode
  (``scalar``/``step``) on full runs — settings history,
  energies, violations and the operation accounting
  (``rm_invocations``/``rm_instructions``/``rate_refreshes``) — across
  RMs x models x overheads x reduction/local modes, including all-tied
  boundaries and the forced no-compiler fallback;
* :func:`repro.simulator.batch.run_many` returns exactly the per-run
  results, for homogeneous native batches and mixed batches alike;
* the campaign executor's opt-in same-shape batching and the
  ``RunSpec.wave="native"`` plumbing (validation, fingerprint
  exclusion, journaled resume) never change results;
* the incremental per-leaf path-operations vector that prices native
  replays matches the tree's per-index walk after every update;
* concurrent native-kernel builders publish one usable artifact.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import _native_opt
from repro.core.energy_curve import EnergyCurve
from repro.core.global_opt import ReductionTree
from repro.core.managers import make_rm
from repro.core.perf_models import Model1, Model3, PerfectModel
from repro.simulator.batch import run_many
from repro.simulator.rmsim import WAVE_MODES, MulticoreRMSimulator
from repro.util import nativebuild

MODELS = {"Model1": Model1, "Model3": Model3, "Perfect": PerfectModel}

APPS4 = ["mini_csps", "mini_cips", "mini_csps", "mini_cipi"]


def _make(db, kind, model, wave, charge=True, collect=True, **kw):
    if kind == "idle":
        rm = make_rm("idle", db.system)
    else:
        rm = make_rm(kind, db.system, MODELS[model](), **kw)
    return MulticoreRMSimulator(
        db, rm, charge_overheads=charge, collect_history=collect, wave=wave
    )


def _run(db, kind, model, wave, apps, horizon=10, **kw):
    sim = _make(db, kind, model, wave, **kw)
    return sim.run(apps, horizon_intervals=horizon)


def test_native_is_a_wave_mode():
    assert "native" in WAVE_MODES


# ---------------------------------------------------------------------------
# full-run differential: native vs every other loop mode
# ---------------------------------------------------------------------------
class TestNativeDifferential:
    @pytest.mark.parametrize(
        "kind,model",
        [
            ("idle", None),
            ("rm1", "Model1"),
            ("rm2", "Model1"),
            ("rm3", "Model3"),
            ("rm3", "Perfect"),
        ],
    )
    @pytest.mark.parametrize("charge", [True, False])
    def test_matrix(self, mini_db4, kind, model, charge):
        native = _run(mini_db4, kind, model, "native", APPS4, charge=charge)
        for wave in ("scalar", "step"):
            other = _run(mini_db4, kind, model, wave, APPS4, charge=charge)
            assert native == other, f"{kind}/{model} native != {wave}"

    @pytest.mark.parametrize("reduction", ["incremental", "full_rebuild"])
    @pytest.mark.parametrize("local_mode", ["memoized", "always_recompute"])
    def test_reduction_and_local_modes(self, mini_db4, reduction, local_mode):
        kw = dict(reduction=reduction, local_mode=local_mode)
        native = _run(mini_db4, "rm3", "Model3", "native", APPS4, **kw)
        step = _run(mini_db4, "rm3", "Model3", "step", APPS4, **kw)
        assert native == step

    def test_all_tied_boundaries(self, mini_db4):
        """Identical apps: every core's boundary coincides each event."""
        apps = ["mini_csps"] * 4
        native = _run(mini_db4, "rm3", "Model3", "native", apps)
        for wave in ("scalar", "step"):
            assert native == _run(mini_db4, "rm3", "Model3", wave, apps)

    def test_two_core_db(self, mini_db):
        apps = ["mini_csps", "mini_cips"]
        native = _run(mini_db, "rm3", "Model3", "native", apps)
        assert native == _run(mini_db, "rm3", "Model3", "scalar", apps)

    def test_no_compiler_fallback(self, mini_db4, monkeypatch):
        """Without the compiled engine the mode degrades to the wave
        loop outright — still bit-identical, never an error."""
        step = _run(mini_db4, "rm3", "Model3", "step", APPS4)
        monkeypatch.setattr(_native_opt, "_lib", None)
        monkeypatch.setattr(_native_opt, "_lib_failed", True)
        native = _run(mini_db4, "rm3", "Model3", "native", APPS4)
        assert native == step

    def test_accounting_mode_invariant(self, mini_db4):
        """The charged operation totals are identical in all modes."""
        results = {
            wave: _run(mini_db4, "rm3", "Model3", wave, APPS4)
            for wave in WAVE_MODES
        }
        base = results["scalar"]
        for wave, res in results.items():
            assert res.rm_invocations == base.rm_invocations, wave
            assert res.rm_instructions == base.rm_instructions, wave
            assert res.intervals_completed == base.intervals_completed, wave

    def test_rate_refreshes_invariant(self, mini_db4):
        """Native replays must refresh exactly as many per-core rates
        as the wave loop (boundary core only on identity replays)."""
        import repro.simulator.rmsim as rmsim_mod

        states = []
        orig = rmsim_mod._CoreStates

        class Probe(orig):
            def __init__(self, n):
                super().__init__(n)
                states.append(self)

        rmsim_mod._CoreStates = Probe
        try:
            for wave in ("step", "native"):
                _run(mini_db4, "rm3", "Model3", wave, APPS4)
        finally:
            rmsim_mod._CoreStates = orig
        step_st, native_st = states
        assert native_st.rate_refreshes == step_st.rate_refreshes


# ---------------------------------------------------------------------------
# multi-run batching
# ---------------------------------------------------------------------------
class TestRunMany:
    def _triples(self, db, wave, n=3):
        shifts = [APPS4, APPS4[::-1], ["mini_cips"] * 4]
        kinds = [("rm3", "Model3"), ("rm1", "Model1"), ("idle", None)]
        return [
            (_make(db, kind, model, wave), apps, 8)
            for (kind, model), apps in zip(kinds[:n], shifts[:n])
        ]

    def test_batched_matches_individual(self, mini_db4):
        batched = run_many(self._triples(mini_db4, "native"))
        for (sim, apps, h), got in zip(
            self._triples(mini_db4, "native"), batched
        ):
            assert got == sim.run(apps, horizon_intervals=h)

    def test_mixed_waves_fall_back_serially(self, mini_db4):
        triples = self._triples(mini_db4, "native")
        mixed = self._triples(mini_db4, "step")
        got = run_many([triples[0], mixed[1], triples[2]])
        want = run_many([triples[0]]) + run_many([mixed[1]]) + run_many(
            [triples[2]]
        )
        assert got == want

    def test_single_run_takes_serial_path(self, mini_db4):
        (triple,) = self._triples(mini_db4, "native", n=1)
        assert run_many([triple])[0] == triple[0].run(
            triple[1], horizon_intervals=triple[2]
        )

    def test_shared_simulator_rejected(self, mini_db4):
        sim = _make(mini_db4, "rm3", "Model3", "native")
        with pytest.raises(ValueError, match="own simulator"):
            run_many([(sim, APPS4, 4), (sim, APPS4, 4)])

    def test_no_compiler_batch_falls_back(self, mini_db4, monkeypatch):
        want = [
            sim.run(apps, horizon_intervals=h)
            for sim, apps, h in self._triples(mini_db4, "native")
        ]
        monkeypatch.setattr(_native_opt, "_lib", None)
        monkeypatch.setattr(_native_opt, "_lib_failed", True)
        got = run_many(self._triples(mini_db4, "native"))
        assert got == want


# ---------------------------------------------------------------------------
# periodic replay: multi-entry cycles, forced premise breaks
# ---------------------------------------------------------------------------
#: Workload mixes that settle into short decision cycles: the mixed set
#: arms full phase orbits (6-entry tables over mini_csps's 6-interval
#: pattern), the phase-heavy set adds period-2 tables, and the uniform
#: set degenerates to fixed points (single-entry tables, no rebinds).
OSC_MIXES = {
    "mixed": APPS4,
    "phase_heavy": ["mini_csps", "mini_csps", "mini_cips", "mini_csps"],
}

OSC_KINDS = [("rm1", "Model1"), ("rm2", "Model1"), ("rm3", "Model3")]


class TestOscillationMatrix:
    """Periodic decisions must replay natively — and bit-identically.

    Result equality covers violations, energies, the settings history
    and the charged ``local_evaluations``/``dp_operations`` bills
    (``rm_instructions``); the stats assertions prove the run actually
    exercised multi-entry replay rather than falling back to callbacks.
    """

    @pytest.mark.parametrize("mix", sorted(OSC_MIXES))
    @pytest.mark.parametrize("kind,model", OSC_KINDS)
    def test_cycles_bit_identical_and_replayed(self, mini_db4, kind, model, mix):
        apps = OSC_MIXES[mix]
        native = _run(mini_db4, kind, model, "native", apps, horizon=24)
        scalar = _run(mini_db4, kind, model, "scalar", apps, horizon=24)
        assert native == scalar, f"{kind}/{model}/{mix}"
        if _native_opt.available():
            stats = native.native_stats
            assert stats["rebind_replays"] > 0, f"{kind}/{model}/{mix}"
            assert stats["callbacks"]["phase"] == 0  # online models replay crossings

    def test_multi_entry_tables_arm(self, mini_db4):
        """The arm walk closes true cycles, folded to distinct rows: a
        6-interval phase orbit arms one entry per distinct
        (setting, phase) pair — multi-entry tables alongside plain
        fixed points — and never more rows than the phase alphabet and
        setting cycle can produce."""
        if not _native_opt.available():
            pytest.skip("no compiled engine")
        from repro.core.managers import ResourceManager

        lens = []
        orig = ResourceManager.native_replay_table

        def spy(self, core_id, applied, inputs_for, max_entries=8, phases=(0,)):
            out = orig(
                self, core_id, applied, inputs_for,
                max_entries=max_entries, phases=phases,
            )
            if out is not None and out[0]:
                lens.append((len(out[0]), len(set(phases))))
            return out

        ResourceManager.native_replay_table = spy
        try:
            _run(
                mini_db4, "rm1", "Model1", "native",
                OSC_MIXES["phase_heavy"], horizon=24,
            )
        finally:
            ResourceManager.native_replay_table = orig
        assert any(n == 1 for n, _ in lens)
        assert any(n == 2 for n, _ in lens)
        # The dedup fold: a steady setting on the 6-slot mini_csps
        # pattern arms exactly its 2 distinct phases, never 6 rows.
        assert all(n <= 2 * alphabet for n, alphabet in lens)

    def test_capacity_one_memo_eviction_mid_cycle(self, mini_db4):
        """A capacity-1 memo evicts cycle entries between observes: the
        broken premise must surface as table misses, conservatively
        repaired, with results still bit-identical."""
        kw = dict(horizon=24, local_memo_capacity=1)
        native = _run(mini_db4, "rm3", "Model3", "native", APPS4, **kw)
        scalar = _run(mini_db4, "rm3", "Model3", "scalar", APPS4, **kw)
        assert native == scalar
        if _native_opt.available():
            assert native.native_stats["callbacks"]["miss"] > 0

    def test_phase_sensitivity_routes_crossings(self, mini_db4):
        """Oracle models read the entering record, so their crossings
        must take the callback path; online models replay through."""
        if not _native_opt.available():
            pytest.skip("no compiled engine")
        oracle = _run(mini_db4, "rm3", "Perfect", "native", APPS4, horizon=24)
        assert oracle.native_stats["callbacks"]["phase"] > 0
        assert oracle == _run(
            mini_db4, "rm3", "Perfect", "scalar", APPS4, horizon=24
        )


# ---------------------------------------------------------------------------
# batch failure isolation: a failing run must not take the batch down
# ---------------------------------------------------------------------------
class TestBatchFailureIsolation:
    @staticmethod
    def _inject(rm, fail_at, once=True):
        """Make ``rm.observe`` raise on its ``fail_at``-th call."""
        orig = rm.observe
        calls = [0]

        def observe(core_id, inputs):
            calls[0] += 1
            hit = calls[0] == fail_at if once else calls[0] >= fail_at
            if hit:
                raise RuntimeError("injected mid-run failure")
            return orig(core_id, inputs)

        rm.observe = observe

    def test_drive_flushes_failing_buffers(self, mini_db4):
        """drive() parks the failure after draining the failing run's
        native-side violation buffer (an exact event-order prefix of
        the oracle's list) and sweeps the healthy runs to completion."""
        if not _native_opt.available():
            pytest.skip("no compiled engine")
        from repro.simulator.native_loop import NativeRunDriver, drive

        scalar = _run(mini_db4, "rm3", "Model3", "scalar", APPS4, horizon=12)
        healthy_solo = _run(
            mini_db4, "rm1", "Model1", "native", APPS4[::-1], horizon=12
        )

        sims = [
            _make(mini_db4, "rm3", "Model3", "native"),
            _make(mini_db4, "rm1", "Model1", "native"),
        ]
        prepared = []
        drivers = []
        for sim, apps in zip(sims, [APPS4, APPS4[::-1]]):
            st, horizon, baseline, history = sim._prepare_run(apps, 12)
            driver = NativeRunDriver(
                sim, st, horizon, baseline, 1_000_000, history
            )
            prepared.append((sim, apps, st, horizon, history, driver))
            drivers.append(driver)
        self._inject(sims[0].rm, 5)
        drive(drivers, raise_on_failure=False)

        assert isinstance(drivers[0].failure, RuntimeError)
        assert drivers[1].failure is None
        sim, apps, st, horizon, history, driver = prepared[1]
        got = sim._finish_run(apps, st, horizon, driver.totals(), history)
        assert got == healthy_solo
        partial = drivers[0].violations
        assert partial == scalar.violations[: len(partial)]

    def test_run_many_demotes_transient_failure(self, mini_db4):
        """A once-only failure costs the affected run a serial re-run,
        nothing else: every result still matches its solo run."""
        if not _native_opt.available():
            pytest.skip("no compiled engine")
        want = [
            _run(mini_db4, "rm3", "Model3", "native", APPS4, horizon=12),
            _run(mini_db4, "rm1", "Model1", "native", APPS4[::-1], horizon=12),
        ]
        sims = [
            _make(mini_db4, "rm3", "Model3", "native"),
            _make(mini_db4, "rm1", "Model1", "native"),
        ]
        self._inject(sims[0].rm, 5, once=True)
        got = run_many(
            [(sims[0], APPS4, 12), (sims[1], APPS4[::-1], 12)]
        )
        assert got == want

    def test_run_many_deterministic_failure_raises(self, mini_db4):
        """A failure that recurs on the serial re-run propagates with
        the single-run loop's own semantics."""
        if not _native_opt.available():
            pytest.skip("no compiled engine")
        sims = [
            _make(mini_db4, "rm3", "Model3", "native"),
            _make(mini_db4, "rm1", "Model1", "native"),
        ]
        self._inject(sims[0].rm, 5, once=False)
        with pytest.raises(RuntimeError, match="injected"):
            run_many([(sims[0], APPS4, 12), (sims[1], APPS4[::-1], 12)])


# ---------------------------------------------------------------------------
# replay observability: per-run stats, campaign aggregation
# ---------------------------------------------------------------------------
class TestNativeStats:
    def test_present_on_native_null_elsewhere(self, mini_db4, monkeypatch):
        native = _run(mini_db4, "rm3", "Model3", "native", APPS4)
        step = _run(mini_db4, "rm3", "Model3", "step", APPS4)
        assert step.native_stats is None
        if _native_opt.available():
            stats = native.native_stats
            assert 0.0 <= stats["native_replay_fraction"] <= 1.0
            assert (
                stats["replayed"]
                + sum(stats["callbacks"].values())
                == stats["rm_invocations"]
            )
        # Observability never enters result equality.
        assert native == step
        # The forced no-compiler fallback keeps the field present-but-null.
        monkeypatch.setattr(_native_opt, "_lib", None)
        monkeypatch.setattr(_native_opt, "_lib_failed", True)
        fallback = _run(mini_db4, "rm3", "Model3", "native", APPS4)
        assert fallback.native_stats is None
        assert fallback == step

    def test_store_roundtrip_drops_stats(self, mini_db4):
        """The on-disk result store persists results, not observability:
        a cache hit is bit-identical with ``native_stats`` null."""
        from repro.campaign.results import result_from_json, result_to_json

        native = _run(mini_db4, "rm3", "Model3", "native", APPS4)
        back = result_from_json(result_to_json(native))
        assert back.native_stats is None
        assert back == native

    def test_campaign_aggregation(self, mini_db4, monkeypatch):
        from repro.campaign.executor import (
            aggregate_native_stats,
            format_native_stats_table,
            native_stats_enabled,
        )

        r_rm3 = _run(mini_db4, "rm3", "Model3", "native", APPS4)
        r_rm1 = _run(mini_db4, "rm1", "Model1", "native", APPS4)
        r_cached = _run(mini_db4, "rm1", "Model1", "scalar", APPS4)
        agg = aggregate_native_stats([r_rm3, r_rm1, r_cached])
        row = agg[r_rm1.rm_name]
        assert row["runs"] == 2
        # Without a compiler the native runs degrade to the wave loop
        # and report no counters either.
        assert row["runs_without_stats"] == (
            1 if _native_opt.available() else 2
        )
        if _native_opt.available():
            assert (
                agg[r_rm3.rm_name]["native_replay_fraction"]
                == r_rm3.native_stats["native_replay_fraction"]
            )
        table = format_native_stats_table(agg)
        assert r_rm3.rm_name in table and "fraction=" in table

        monkeypatch.delenv("REPRO_NATIVE_STATS", raising=False)
        assert not native_stats_enabled()
        monkeypatch.setenv("REPRO_NATIVE_STATS", "1")
        assert native_stats_enabled()
        monkeypatch.setenv("REPRO_NATIVE_STATS", "0")
        assert not native_stats_enabled()


# ---------------------------------------------------------------------------
# campaign plumbing: spec validation, fingerprints, batching, resume
# ---------------------------------------------------------------------------
class TestCampaignNative:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        from repro.campaign import clear_result_memo

        clear_result_memo()
        yield
        clear_result_memo()

    def _spec(self, **kw):
        from repro.campaign import RunSpec

        base = dict(
            seed=2020, n_cores=4, rm_kind="rm3", model="Model3",
            apps=("mcf", "omnetpp", "libquantum", "xalancbmk"),
            horizon_intervals=4, wave="native",
        )
        base.update(kw)
        return RunSpec(**base)

    def test_wave_native_validates(self):
        assert self._spec().wave == "native"
        with pytest.raises(ValueError, match="wave"):
            self._spec(wave="warp")

    def test_wave_excluded_from_fingerprint(self):
        fps = {
            self._spec(wave=wave).fingerprint
            for wave in (None, "scalar", "step", "native")
        }
        assert len(fps) == 1

    def _three_specs(self):
        return [
            self._spec(),
            self._spec(apps=("gamess", "sjeng", "perlbench", "dealII")),
            self._spec(apps=("omnetpp", "mcf", "xalancbmk", "libquantum")),
        ]

    def test_batched_campaign_matches_serial(self, full_db, monkeypatch):
        from dataclasses import replace

        from repro.campaign import clear_result_memo, run_campaign
        from repro.campaign.executor import run_batch

        specs = self._three_specs()
        serial = run_campaign(
            [replace(s, wave="step") for s in specs], n_workers=1
        )
        clear_result_memo()
        batched = run_batch(specs)
        assert batched.stats.simulated == 3
        for spec in specs:
            assert batched[spec] == serial[spec], spec.label()

    def test_journaled_resume_preserves_native_mode(
        self, full_db, monkeypatch, tmp_path
    ):
        """After an interrupt, the resumed campaign still executes the
        remaining specs in native mode (and batching still engages)."""
        from repro.campaign import clear_result_memo, run_campaign
        from repro.campaign import executor as campaign_executor
        from repro.util import faults

        specs = self._three_specs()
        oracle = run_campaign(specs, n_workers=1)
        clear_result_memo()

        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        monkeypatch.setenv(campaign_executor.BATCH_RUNS_ENV, "1")
        waves = []
        orig_make = campaign_executor._make_sim

        def probe(spec):
            sim = orig_make(spec)
            waves.append(sim.wave)
            return sim

        monkeypatch.setattr(campaign_executor, "_make_sim", probe)
        os.environ[faults.PLAN_ENV] = "interrupt:after=1"
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(specs, n_workers=1)
            clear_result_memo()
            waves.clear()
            resumed = run_campaign(specs, n_workers=1)
        finally:
            os.environ.pop(faults.PLAN_ENV, None)
            faults.reset()
        assert resumed.stats.simulated + resumed.stats.cached == 3
        assert waves and all(w == "native" for w in waves)
        for spec in specs:
            assert resumed[spec] == oracle[spec], spec.label()


# ---------------------------------------------------------------------------
# the incremental path-operations vector behind native replay pricing
# ---------------------------------------------------------------------------
class TestPathOperationsAll:
    def test_matches_per_index_walk_under_updates(self):
        rng = np.random.default_rng(11)
        n, width = 6, 9
        curves = [
            EnergyCurve(np.arange(2, 2 + width), rng.random(width) * 5.0)
            for _ in range(n)
        ]
        tree = ReductionTree(curves)
        for step in range(24):
            i = int(rng.integers(n))
            w = int(rng.integers(5, 12))
            tree.update(
                i, EnergyCurve(np.arange(2, 2 + w), rng.random(w) * 5.0)
            )
            got = tree.path_operations_all()
            want = [tree.path_operations(j) for j in range(n)]
            assert got.tolist() == want, f"step {step}"


# ---------------------------------------------------------------------------
# concurrent native-kernel builds (the shared compile cache)
# ---------------------------------------------------------------------------
class TestConcurrentBuild:
    SOURCE = (
        "#include <stdint.h>\n"
        "int64_t forty_two(void) { return 42; }\n"
    )

    def test_racing_builders_publish_one_artifact(self, tmp_path):
        if nativebuild.find_compiler() is None:
            pytest.skip("no C compiler available")
        with ThreadPoolExecutor(max_workers=4) as pool:
            paths = list(
                pool.map(
                    lambda _: nativebuild.build_shared(
                        self.SOURCE, tmp_path, "racetest"
                    ),
                    range(4),
                )
            )
        assert all(p is not None for p in paths)
        assert len({str(p) for p in paths}) == 1
        assert paths[0].exists()
        # No half-written temporaries survive under the cache dir.
        leftovers = [
            p for p in tmp_path.iterdir() if p.suffix not in (".so",)
        ]
        assert leftovers == []

    def test_failed_build_returns_published_artifact(
        self, tmp_path, monkeypatch
    ):
        """A loser whose own build fails still uses the winner's .so."""
        if nativebuild.find_compiler() is None:
            pytest.skip("no C compiler available")
        digest = nativebuild.build_digest(self.SOURCE, (("-O3",),))
        final = tmp_path / f"racetest_{digest}.so"

        def winner_then_crash(*a, **kw):
            # A concurrent winner publishes while our own build dies.
            final.write_bytes(b"winner artifact")
            raise OSError("compiler crashed")

        monkeypatch.setattr(nativebuild.subprocess, "run", winner_then_crash)
        got = nativebuild.build_shared(self.SOURCE, tmp_path, "racetest")
        assert got == final
        assert got.read_bytes() == b"winner artifact"
