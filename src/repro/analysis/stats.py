"""QoS-violation statistics (Figs. 7 and 8 of the paper).

The Section IV-D2 study iterates over every phase of every application
(weighted by the SimPoint phase weights), every possible *current* setting
of interval ``i`` and every possible *target* setting for interval ``i+1``,
all with equal probability, and flags a violation when

1. actually ``T_act(target) > T_act(base)``  — the target really is slower,
2. but the model predicted ``T_hat(target) <= T_hat(base)`` — the RM would
   have considered it QoS-safe (and could therefore select it).

Violation magnitudes follow Eq. 6 and depend on the target alone, so each
phase's (current x target) violation mask reduces to one count per
actually-slower target: how many currents predict it QoS-safe.  Targets
that are not slower cannot violate and are never evaluated; the
prediction (a vectorised mirror of Eq. 1, verified against the model
classes in the test suite) is built for the slower-target columns only.

One sweep per (database, model) keeps those per-phase summaries and is
memoised for the process.  :func:`qos_violation_study` folds them in phase
order into Fig. 7's probability, mean and std and Fig. 8's histogram for
any bins, so the two figures share three sweeps.  The fold repeats the
full (current x target) loop's float operations in the same order, so
every result is bit-identical to it (differential test in
``tests/test_analysis.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.config import CORE_PARAMS, CoreSize, SystemConfig
from repro.database.builder import SimDatabase
from repro.database.records import PhaseRecord

__all__ = ["ViolationHistogram", "QoSStudyResult", "qos_violation_study"]

_RTOL = 1e-9
_MODELS = ("Model1", "Model2", "Model3")


@dataclass(frozen=True)
class ViolationHistogram:
    """Weighted histogram of violation magnitudes (Fig. 8)."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def normalised_to(self, peak: float) -> np.ndarray:
        """Counts scaled so the maximum across models maps to 1 (Fig. 8's
        y-axis is normalised to the max violation count across models)."""
        if peak <= 0:
            raise ValueError("peak must be positive")
        return self.counts / peak


@dataclass(frozen=True)
class QoSStudyResult:
    """Violation statistics for one performance model."""

    model_name: str
    probability: float
    expected_value: float
    std: float
    histogram: ViolationHistogram
    weighted_cases: float
    weighted_violations: float


@dataclass(frozen=True)
class _SettingGrid:
    """Per-system constants of the sweep, hoisted out of the phase loop:
    every candidate setting as flat (core, frequency, ways) index arrays
    with each setting's frequency and issue width, the per-axis
    frequencies and widths, and the baseline's indices."""

    cc: np.ndarray  # core size
    ff: np.ndarray  # frequency index
    wi: np.ndarray  # way index (ways - 1)
    f_hz: np.ndarray
    width: np.ndarray
    freq_hz_axis: np.ndarray  # per frequency index
    width_axis: np.ndarray  # per core size
    lat: float  # nominal memory latency
    cb: int
    fb: int
    wb: int

    @classmethod
    def of(cls, system: SystemConfig) -> "_SettingGrid":
        freq_hz = np.array(system.candidate_frequencies()) * 1e9
        widths = np.array(
            [CORE_PARAMS[c].issue_width for c in CoreSize.all()], dtype=float
        )
        cc, ff, wi = (
            a.ravel()
            for a in np.meshgrid(
                np.array([int(c) for c in CoreSize.all()]),
                np.arange(freq_hz.size),
                np.array(system.candidate_ways()) - 1,
                indexing="ij",
            )
        )
        base = system.baseline_setting()
        return cls(
            cc=cc,
            ff=ff,
            wi=wi,
            f_hz=freq_hz[ff],
            width=widths[cc],
            freq_hz_axis=freq_hz,
            width_axis=widths,
            lat=system.memory.base_latency_s,
            cb=int(base.core),
            fb=system.dvfs.index_of(base.f_ghz),
            wb=base.ways - 1,
        )

    @property
    def size(self) -> int:
        return int(self.cc.size)


def _prediction_matrix(
    record: PhaseRecord,
    grid: _SettingGrid,
    model_name: str,
    targets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """(predictions[cur, k], predicted_base[cur]) for one phase record,
    where column ``k`` is the flat target setting ``targets[k]``.

    Vectorised Eq. 1 over every current and the given targets; the three
    models differ only in the memory term:

    * Model1: ``misses_ATD(w_tgt) * L_nominal``
    * Model2: ``misses_ATD(w_tgt) * L_eff(current) / MLP(current)``
    * Model3: ``LM_heur(c_tgt, w_tgt) * L_eff(current)``

    where ``L_eff(current)`` is the measured per-leading-miss latency of the
    past interval (see ``IntervalCounters.effective_memory_latency_s``).
    A target enters the compute term only through its (core, frequency)
    and the memory term only through its (core, ways), so each term is
    evaluated once per such pair and every current; a column gathers its
    two terms and adds them.  Every entry thus takes the same elementwise
    float operations whichever targets are evaluated alongside it.  The
    predictions come back as a transposed view of a target-major array.
    """
    cc, wi, lat = grid.cc, grid.wi, grid.lat

    # --- current-side statistics (vector over settings) -----------------
    t_act = record.time_grid[cc, grid.ff, wi]
    t1 = (
        record.branch_cycles
        + record.cache_stall_curve[wi]
        + record.dep_stall_cycles[cc]
    )
    tmem_cur = record.mem_time_grid[cc, wi]
    t0 = np.clip(t_act * grid.f_hz - t1 - tmem_cur * grid.f_hz, 0.0, None)
    d_cur = grid.width
    misses_cur = record.miss_curve[wi]
    lm_cur = record.lm_true[cc, wi]
    mlp_cur = np.where(lm_cur > 0, np.maximum(misses_cur / np.maximum(lm_cur, 1e-12), 1.0), 1.0)
    lat_eff = np.where(
        (lm_cur > 0) & (tmem_cur > 0), tmem_cur / np.maximum(lm_cur, 1e-12), lat
    )

    # --- target side: [core, frequency | ways, current] term tables -----
    compute_cycles = (
        t0[None, :] * (d_cur[None, :] / grid.width_axis[:, None]) + t1[None, :]
    )
    compute_time = compute_cycles[:, None, :] / grid.freq_hz_axis[None, :, None]
    if model_name == "Model1":
        mem = (record.atd_miss_curve * lat)[None, :, None]
    elif model_name == "Model2":
        mem = record.atd_miss_curve[None, :, None] * (lat_eff / mlp_cur)[None, None, :]
    elif model_name == "Model3":
        mem = record.lm_heur[:, :, None] * lat_eff[None, None, :]
    else:
        raise ValueError(f"unknown model {model_name!r}")
    mem = np.broadcast_to(mem, record.lm_heur.shape + (cc.size,))
    c_tgt, f_tgt, w_tgt = cc[targets], grid.ff[targets], wi[targets]
    pred = compute_time[c_tgt, f_tgt] + mem[c_tgt, w_tgt]

    # --- predicted baseline (per current) --------------------------------
    cb, wb = grid.cb, grid.wb
    base_compute = (t0 * (d_cur / grid.width_axis[cb]) + t1) / grid.freq_hz_axis[grid.fb]
    if model_name == "Model1":
        base_mem = record.atd_miss_curve[wb] * lat
    elif model_name == "Model2":
        base_mem = record.atd_miss_curve[wb] * lat_eff / mlp_cur
    else:
        base_mem = record.lm_heur[cb, wb] * lat_eff
    pred_base = base_compute + base_mem
    return pred.T, pred_base


@dataclass(frozen=True)
class _PhaseSummary:
    """One phase's share of the sweep: everything the fold needs."""

    phase_w: float
    n_viol: int
    sum_mag: float  # Eq. 6 magnitudes of the violating pairs, current-major
    sum_mag2: float
    mag: np.ndarray  # Eq. 6 magnitude of each actually-slower target
    counts: np.ndarray  # currents that predict that target QoS-safe


@dataclass(frozen=True)
class _Sweep:
    """One model's violation sweep over every phase of one database."""

    n_pairs: int  # (current, target) pairs per phase
    phases: Dict[str, Tuple[_PhaseSummary, ...]]


def _phase_summary(
    rec: PhaseRecord, grid: _SettingGrid, model_name: str, phase_w: float
) -> _PhaseSummary:
    t_act = rec.time_grid[grid.cc, grid.ff, grid.wi]  # per target
    t_act_base = float(rec.time_grid[grid.cb, grid.fb, grid.wb])
    bad = np.flatnonzero(t_act > t_act_base * (1.0 + 1e-9))
    mag = (t_act[bad] - t_act_base) / t_act_base
    pred, pred_base = _prediction_matrix(rec, grid, model_name, bad)
    predicted_ok = pred <= pred_base[:, None] * (1.0 + _RTOL)
    counts = predicted_ok.sum(axis=0)
    mags = np.broadcast_to(mag, predicted_ok.shape)[predicted_ok]  # current-major
    return _PhaseSummary(
        phase_w=phase_w,
        n_viol=int(counts.sum()),
        sum_mag=float(mags.sum()),
        sum_mag2=float((mags**2).sum()),
        mag=mag,
        counts=counts,
    )


def _sweep(db: SimDatabase, model_name: str) -> _Sweep:
    """The Section IV-D2 sweep of one model over every phase of ``db``."""
    grid = _SettingGrid.of(db.system)
    phases = {
        name: tuple(
            _phase_summary(rec, grid, model_name, phase_w)
            for rec, phase_w in zip(db.records[name], db.apps[name].phase_weights())
        )
        for name in db.app_names()
    }
    return _Sweep(n_pairs=grid.size * grid.size, phases=phases)


#: (id(db), model) -> (db, sweep), oldest first.  Databases are unhashable
#: and keyed by identity, never by seed or records: a core-count rebinding
#: shares its records, but its system defines the setting grid and
#: baseline.  Holding the database keeps its id from being reused while
#: the entry lives.
_SWEEPS: Dict[Tuple[int, str], Tuple[SimDatabase, _Sweep]] = {}
_MAX_SWEEPS = 6


def _model_sweep(db: SimDatabase, model_name: str) -> _Sweep:
    """The memoised sweep of ``model_name`` over ``db`` (built databases are
    never mutated, as their content fingerprints already assume)."""
    key = (id(db), model_name)
    hit = _SWEEPS.get(key)
    if hit is not None and hit[0] is db:
        return hit[1]
    sweep = _sweep(db, model_name)
    _SWEEPS[key] = (db, sweep)
    while len(_SWEEPS) > _MAX_SWEEPS:
        del _SWEEPS[next(iter(_SWEEPS))]
    return sweep


def qos_violation_study(
    db: SimDatabase,
    model_name: str,
    bins: Optional[Sequence[float]] = None,
    apps: Optional[Sequence[str]] = None,
) -> QoSStudyResult:
    """Violation statistics of one model from its Section IV-D2 sweep.

    Parameters
    ----------
    db:
        Simulation database.
    model_name:
        "Model1", "Model2" or "Model3".
    bins:
        Violation-magnitude histogram edges (defaults to 2.5% steps up to
        50%).
    apps:
        Restrict to a subset of applications (defaults to all).
    """
    if model_name not in _MODELS:
        raise ValueError(f"unknown model {model_name!r}")
    names = list(apps) if apps is not None else db.app_names()
    if not names:
        raise ValueError("apps is an empty subset: no application to study")
    if bins is None:
        bins = np.arange(0.0, 0.525, 0.025)
    edges = np.asarray(bins, dtype=float)

    sweep = _model_sweep(db, model_name)
    app_w = 1.0 / len(names)

    weighted_cases = 0.0
    weighted_violations = 0.0
    sum_mag = 0.0
    sum_mag2 = 0.0
    hist = np.zeros(edges.size - 1)

    for name in names:
        for phase in sweep.phases[name]:
            weight = app_w * phase.phase_w
            pair_w = weight / sweep.n_pairs
            weighted_cases += weight
            if phase.n_viol:
                weighted_violations += pair_w * phase.n_viol
                sum_mag += pair_w * phase.sum_mag
                sum_mag2 += pair_w * phase.sum_mag2
                # Integer weights: exactly the per-pair histogram.
                h, _ = np.histogram(phase.mag, bins=edges, weights=phase.counts)
                hist += h * pair_w

    probability = weighted_violations / weighted_cases if weighted_cases else 0.0
    if weighted_violations > 0:
        ev = sum_mag / weighted_violations
        var = max(sum_mag2 / weighted_violations - ev * ev, 0.0)
        std = float(np.sqrt(var))
    else:
        ev, std = 0.0, 0.0
    return QoSStudyResult(
        model_name=model_name,
        probability=float(probability),
        expected_value=float(ev),
        std=std,
        histogram=ViolationHistogram(bin_edges=edges, counts=hist),
        weighted_cases=weighted_cases,
        weighted_violations=weighted_violations,
    )
