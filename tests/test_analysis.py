"""Analysis tests: trade-off matrix and the QoS-violation study."""

import numpy as np
import pytest

from repro.analysis import stats
from repro.analysis.stats import (
    _prediction_matrix,
    _SettingGrid,
    qos_violation_study,
)
from repro.analysis.tradeoffs import tradeoff_matrix
from repro.database.builder import SimDatabase
from repro.workloads.categories import Category

MODELS = ("Model1", "Model2", "Model3")


def paper_counts():
    return {
        Category.CS_PS: 5,
        Category.CS_PI: 7,
        Category.CI_PS: 7,
        Category.CI_PI: 8,
    }


class TestTradeoffMatrix:
    def test_ten_cells(self):
        cells = tradeoff_matrix(paper_counts())
        assert len(cells) == 10

    def test_sorted_by_probability(self):
        cells = tradeoff_matrix(paper_counts())
        probs = [c.probability for c in cells]
        assert probs == sorted(probs, reverse=True)
        assert cells[0].label == "CI-PI x CI-PI"

    def test_rm3_extends_rm2_in_12_of_16_ordered_mixes(self):
        """The paper: RM3 is more effective in 12 of 16 (ordered) mixes.

        In unordered-cell terms: every cell except the four pure
        RM2-equivalent ones shows a different RM3 action.
        """
        cells = tradeoff_matrix(paper_counts())
        extended = [c for c in cells if c.rm3_helps_over_rm2]
        ordered_count = sum(2 if len(c.pair) == 2 else 1 for c in extended)
        assert ordered_count == 12

    def test_scenarios_assigned(self):
        cells = tradeoff_matrix(paper_counts())
        by_scenario = {}
        for c in cells:
            by_scenario.setdefault(c.scenario, []).append(c)
        assert len(by_scenario[1]) == 5
        assert len(by_scenario[2]) == 2
        assert len(by_scenario[3]) == 2
        assert len(by_scenario[4]) == 1


class TestQoSStudy:
    @pytest.fixture(scope="class")
    def studies(self, mini_db):
        return {
            m: qos_violation_study(mini_db, m)
            for m in ("Model1", "Model2", "Model3")
        }

    def test_probabilities_valid(self, studies):
        for r in studies.values():
            assert 0.0 <= r.probability <= 1.0
            assert r.expected_value >= 0.0
            assert r.std >= 0.0

    def test_model3_fewest_violations(self, studies):
        assert studies["Model3"].probability < studies["Model2"].probability
        assert studies["Model2"].probability < studies["Model1"].probability

    def test_model3_smaller_expected_violation(self, studies):
        assert (
            studies["Model3"].expected_value <= studies["Model2"].expected_value
        )

    def test_histogram_consistent(self, mini_db):
        # Bins spanning every magnitude must hold the whole violation mass.
        for m in MODELS:
            peak = max(
                float(p.mag[p.counts > 0].max(initial=0.0))
                for phases in stats._model_sweep(mini_db, m).phases.values()
                for p in phases
            )
            r = qos_violation_study(mini_db, m, bins=[0.0, peak / 2, peak])
            assert r.weighted_violations > 0
            assert float(r.histogram.counts.sum()) == pytest.approx(
                r.weighted_violations, rel=1e-12
            )

    def test_weighted_cases_is_app_count_normalised(self, studies):
        for r in studies.values():
            assert r.weighted_cases == pytest.approx(1.0)

    def test_custom_bins(self, mini_db):
        r = qos_violation_study(mini_db, "Model3", bins=[0.0, 0.1, 0.2])
        assert r.histogram.counts.shape == (2,)

    def test_app_subset(self, mini_db):
        r = qos_violation_study(mini_db, "Model2", apps=["mini_cips"])
        assert r.weighted_cases == pytest.approx(1.0)

    def test_unknown_model_rejected(self, mini_db, monkeypatch):
        """Rejected before any phase is visited."""

        def visit(*args):
            raise AssertionError("phase visited")

        monkeypatch.setattr(stats, "_SWEEPS", {})
        monkeypatch.setattr(stats, "_phase_summary", visit)
        with pytest.raises(ValueError, match="Model9"):
            qos_violation_study(mini_db, "Model9")

    def test_empty_app_subset_rejected(self, mini_db):
        with pytest.raises(ValueError, match="empty subset"):
            qos_violation_study(mini_db, "Model3", apps=[])

    def test_normalised_histogram(self, studies):
        r = studies["Model1"]
        peak = max(float(s.histogram.counts.max()) for s in studies.values())
        if peak > 0:
            norm = r.histogram.normalised_to(peak)
            assert np.all(norm <= 1.0 + 1e-12)
        with pytest.raises(ValueError):
            r.histogram.normalised_to(0.0)


def reference_prediction(rec, grid, model_name):
    """Eq. 1 as one dense (current x target) float matrix per phase."""
    cc, ff, wi, lat = grid.cc, grid.ff, grid.wi, grid.lat
    t1 = rec.branch_cycles + rec.cache_stall_curve[wi] + rec.dep_stall_cycles[cc]
    tmem = rec.mem_time_grid[cc, wi]
    t0 = np.clip(rec.time_grid[cc, ff, wi] * grid.f_hz - t1 - tmem * grid.f_hz, 0.0, None)
    lm = rec.lm_true[cc, wi]
    mlp = np.where(lm > 0, np.maximum(rec.miss_curve[wi] / np.maximum(lm, 1e-12), 1.0), 1.0)
    lat_eff = np.where((lm > 0) & (tmem > 0), tmem / np.maximum(lm, 1e-12), lat)
    atd, heur = rec.atd_miss_curve, rec.lm_heur
    mem, base_mem = {
        "Model1": (np.broadcast_to(atd[wi] * lat, (cc.size, cc.size)), atd[grid.wb] * lat),
        "Model2": (atd[wi][None, :] * (lat_eff / mlp)[:, None], atd[grid.wb] * lat_eff / mlp),
        "Model3": (heur[cc, wi][None, :] * lat_eff[:, None], heur[grid.cb, grid.wb] * lat_eff),
    }[model_name]
    d = grid.width
    cycles = t0[:, None] * (d[:, None] / d[None, :]) + t1[:, None]
    pred = cycles / grid.f_hz[None, :] + mem
    f_base = grid.freq_hz_axis[grid.fb]
    pred_base = (t0 * (d / grid.width_axis[grid.cb]) + t1) / f_base + base_mem
    return pred, pred_base


def reference_study(db, model_name, bins=None, apps=None):
    """The full (current x target) loop over every pair of every phase."""
    grid = _SettingGrid.of(db.system)
    edges = np.asarray(np.arange(0.0, 0.525, 0.025) if bins is None else bins, dtype=float)
    names = list(apps) if apps is not None else db.app_names()
    app_w = 1.0 / len(names)
    cases = viols = s1 = s2 = 0.0
    hist = np.zeros(edges.size - 1)
    for name in names:
        for rec, phase_w in zip(db.records[name], db.apps[name].phase_weights()):
            weight = app_w * phase_w
            t_act = rec.time_grid[grid.cc, grid.ff, grid.wi]
            t_base = float(rec.time_grid[grid.cb, grid.fb, grid.wb])
            pred, pred_base = reference_prediction(rec, grid, model_name)
            viol = (pred <= pred_base[:, None] * (1.0 + 1e-9)) & (
                t_act[None, :] > t_base * (1.0 + 1e-9)
            )
            pair_w = weight / viol.size
            cases += weight
            n_viol = int(np.count_nonzero(viol))
            if n_viol:
                mags = (t_act[None, :] - t_base) / t_base
                mags = np.broadcast_to(mags, viol.shape)[viol]
                viols += pair_w * n_viol
                s1 += pair_w * float(mags.sum())
                s2 += pair_w * float((mags**2).sum())
                hist += np.histogram(mags, bins=edges)[0] * pair_w
    ev = s1 / viols if viols > 0 else 0.0
    std = float(np.sqrt(max(s2 / viols - ev * ev, 0.0))) if viols > 0 else 0.0
    return {
        "probability": viols / cases,
        "expected_value": ev,
        "std": std,
        "counts": hist,
        "weighted_cases": cases,
        "weighted_violations": viols,
    }


def assert_same_study(r, ref):
    assert r.probability == ref["probability"]
    assert r.expected_value == ref["expected_value"]
    assert r.std == ref["std"]
    assert np.array_equal(r.histogram.counts, ref["counts"])
    assert r.weighted_cases == ref["weighted_cases"]
    assert r.weighted_violations == ref["weighted_violations"]


class TestSweepMatchesFullLoop:
    """The per-target sweep is bit-identical to the full pairwise loop."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize(
        "bins",
        [None, np.arange(0, 0.525, 0.05), [0.0, 0.1, 0.2]],
        ids=["default", "fig8", "custom"],
    )
    def test_exact(self, mini_db, model, bins):
        r = qos_violation_study(mini_db, model, bins=bins)
        assert r.weighted_violations > 0
        assert_same_study(r, reference_study(mini_db, model, bins=bins))

    @pytest.mark.parametrize("model", MODELS)
    def test_prediction_bits(self, mini_db, model):
        grid = _SettingGrid.of(mini_db.system)
        some = np.arange(0, grid.size, 7)
        for _spec, _idx, _w, rec in mini_db.iter_phase_records():
            ref, ref_base = reference_prediction(rec, grid, model)
            for targets in (np.arange(grid.size), some):
                pred, pred_base = _prediction_matrix(rec, grid, model, targets)
                assert np.array_equal(pred, ref[:, targets])
                assert np.array_equal(pred_base, ref_base)

    @pytest.mark.parametrize("model", MODELS)
    def test_exact_app_subset(self, mini_db, model):
        r = qos_violation_study(mini_db, model, apps=["mini_cips"])
        assert_same_study(r, reference_study(mini_db, model, apps=["mini_cips"]))


class TestSweepSharing:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        """Empty memo; returns the list of (db, model) sweeps run."""
        calls = []
        sweep = stats._sweep

        def counted(db, model_name):
            calls.append((db, model_name))
            return sweep(db, model_name)

        monkeypatch.setattr(stats, "_SWEEPS", {})
        monkeypatch.setattr(stats, "_sweep", counted)
        return calls

    def test_fig7_then_fig8_sweep_each_model_once(self, mini_db, monkeypatch, sweeps):
        from repro.experiments import fig7_qos, fig8_violation_dist
        from repro.experiments.common import ExperimentConfig

        for module in (fig7_qos, fig8_violation_dist):
            monkeypatch.setattr(module, "get_database", lambda n, seed: mini_db)
            module.render(ExperimentConfig(quick=True), None)
        assert sorted(m for _db, m in sweeps) == list(MODELS)

    def test_rebinding_does_not_reuse_sweep(self, mini_db4, system2, sweeps):
        # Same records, another system: the sweep is keyed on the database
        # object, so the 2-core binding sweeps its own grid and baseline.
        rebound = SimDatabase(system=system2, apps=mini_db4.apps, records=mini_db4.records)
        qos_violation_study(mini_db4, "Model3")
        qos_violation_study(mini_db4, "Model3", bins=[0.0, 0.1])
        again = qos_violation_study(rebound, "Model3")
        assert [db for db, _m in sweeps] == [mini_db4, rebound]
        assert_same_study(again, reference_study(rebound, "Model3"))
