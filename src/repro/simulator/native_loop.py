"""Driver for the one-call native run engine (``wave="native"``).

The compiled event loop (``run_native`` in :mod:`repro.core._native_opt`)
advances a run through every *steady-state* event — boundary pick,
zero-alloc advance, QoS check, interval rollover, the replayed RM
decision and its overhead charge — entirely in C over the same
struct-of-arrays state the wave loop uses, and returns to Python only
when an event needs work no replay-table entry can prove:

* ``CALLBACK`` — the boundary core's decision is not replayable (a
  phase transition is crossing, the core holds no table, no entry
  matches the applied premise, the live hysteresis gate failed — a real
  re-partition — or an unfinished core would reach the horizon this
  event).  Nothing has been mutated:
  :meth:`NativeRunDriver.handle_callback` re-derives the boundary with
  the wave loop's own arithmetic and runs the wave-loop event body
  verbatim — speculation, ``advance_cores_wave``, QoS, rollover,
  ``rm.observe``, overhead charge and the settings diff.
* ``VIOBUF`` / ``HISTFULL`` — a fixed-size buffer filled up; Python
  drains it (both buffers are drained after *every* native return,
  before any callback handling, so the violations list and the settings
  history keep exact event order).
* ``DONE`` / ``MAXEVENTS`` — terminal.

The periodic replay protocol
----------------------------

Each core carries a small table of replay entries keyed on
``(applied-setting id, phase)`` — the premise under which the core's
next decision is provable.  The table is armed (wholesale) after every
callback for the boundary core by
:meth:`repro.core.managers.ResourceManager.native_replay_table`, which
walks the core's decision chain through side-effect-free local-memo
probes: starting from the applied setting, each link proves the result
the next observe would replay, its curve's exact leaf-domain match, a
keep-gate that holds today, and the decided follow-up setting — so a
period-p oscillation (DVFS ping-pong at a fixed way count) arms p
entries and replays natively forever.

Entries are *not* certificates: the decisive premise — the hysteresis
keep-gate over every core's current energy — moves whenever any other
core's curve moves.  The C engine therefore re-evaluates the gate live
at every fire: an entry whose curve is the installed leaf replays the
manager's unchanged path against the maintained root total; any other
entry is recombined leaf-to-root *in place* through the reduction
tree's own staged output buffers (descriptors staged per
:attr:`~repro.core.global_opt.ReductionTree.stage_epoch`), the root
re-evaluated at the fixed budget, and the gate checked with the entry's
energy substituted.  A failing gate reverts the trial recombine and
returns the event to Python untouched.

Conservative maintenance mirrors the flag protocol it replaces:

* a core's table is dropped whenever its *way count* changes (entries
  bake the allocation into their energies and decided settings);
* every table is re-billed — or dropped — through
  :meth:`~repro.core.managers.ResourceManager.native_table_rebill`
  whenever :attr:`~repro.core.managers.ResourceManager.state_epoch`
  moved across a Python observe;
* staged descriptors are re-staged whenever the tree's
  ``stage_epoch`` moved, and cores that cannot stage lose their tables.

After any segment of native rebind fires, the manager is fast-forwarded
in one step (:meth:`_sync_install` →
:meth:`~repro.core.managers.ResourceManager.native_replay_install`)
before the next Python observe: leaf objects are rebound to the fired
entries' curves (the combined path values are already committed), the
applied settings map is rebuilt from interned setting ids, and the
per-core keep energies are installed — link for link the state the
Python path would have left.

Shared accumulator slots (wall-clock ``t``, ``rm_instructions``, the
event counters) live in the per-run control blocks and are added to by
C and Python in strict event order, so float accumulation — hence the
final result, including the decision bills — is bit-identical to the
wave loop (differentially tested across RMs × models × overheads ×
oscillation shapes in ``tests/test_native_loop.py``).

:func:`drive` advances any number of runs through one shared
``run_native`` call per sweep — the multi-run batching surface used by
:mod:`repro.simulator.batch`.  A run whose callback raises is isolated:
its buffers are drained, the failure is parked on the driver, and every
other run keeps advancing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import Setting
from repro.core import _native_opt
from repro.core.perf_models import ModelInputs
from repro.simulator.metrics import SettingChange

__all__ = ["NativeRunDriver", "drive"]

#: Status codes of the C loop (see the kernel source).
DONE, CALLBACK, VIOBUF, MAXEVENTS, HISTFULL = 1, 2, 3, 4, 5

#: Violation buffer capacity per run; a full buffer just costs one extra
#: FFI round-trip, so modest is fine.
_VIO_CAPACITY = 4096

#: Settings-history ring capacity per run (records per drain).
_HIST_CAPACITY = 4096

#: Replay-table entries per core — covers any oscillation period the
#: decision chain can prove, with room to spare (observed cycles are
#: period 1–3).
_TABLE_K = 8


class NativeRunDriver:
    """Owns one run's control blocks and its Python-side event handling.

    Built on the simulator's prepared ``_CoreStates`` (the C loop
    mutates those arrays in place); :meth:`totals` returns the same
    tuple the wave loop returns, for :meth:`MulticoreRMSimulator._finish_run`.
    """

    def __init__(self, sim, st, horizon: float, baseline: Setting, max_events: int, history):
        from repro.simulator.rmsim import (
            _VIOLATION_EPS,
            advance_cores_wave_unscratched,
        )

        self._vio_eps = _VIOLATION_EPS
        self._advance = advance_cores_wave_unscratched
        rm = sim.rm
        n = st.n
        # The wave loop's entry validation.
        if st.stall_s.min() < 0 or st.tpi_s.min() <= 0:
            raise ValueError("invalid progress state")

        self.sim = sim
        self.st = st
        self.rm = rm
        self.horizon = float(horizon)
        self.baseline = baseline
        self.history = history
        self.violations: List[float] = []
        self.applied_settings: Optional[Dict[int, Setting]] = None
        #: Parked exception of a failed callback (multi-run isolation).
        self.failure: Optional[BaseException] = None

        # Wave-loop hoisted constants.
        self.charge = sim.charge_overheads
        self.cost_model = sim.cost_model
        self.mem_latency_s = sim.system.memory.base_latency_s
        self.mem_access_j = sim.system.memory.access_energy_nj * 1e-9
        self.alphas = [sim._alpha_for(i) for i in range(n)]
        self.speculate = bool(getattr(rm, "wants_wave_precompute", False))
        self.base_time_of: Dict[int, float] = {}
        self.spec_mark = [-1] * n
        self.gate_checked = bool(getattr(rm, "native_gate_checked", False))
        # An oracle model reads the *entering* record, so its memo key
        # moves at every phase crossing: crossings must take the
        # callback path.  Online models key on the completed interval
        # only — their decisions replay straight through crossings.
        self.phase_sensitive = bool(
            getattr(
                getattr(rm, "perf_model", None), "uses_next_record", False
            )
        )

        # Per-core phase patterns as plain int tuples (AppSpec's own
        # representation) for the callback side, flattened for C.
        pats = [sim.db.apps[name].phase_pattern for name in st.apps]
        self.pats = pats
        self._pat_len = np.array([len(p) for p in pats], dtype=np.int64)
        self._pat_off = np.zeros(n, dtype=np.int64)
        off = 0
        flat: List[int] = []
        for i, p in enumerate(pats):
            self._pat_off[i] = off
            flat.extend(p)
            off += len(p)
        self._pat_flat = np.array(flat, dtype=np.int64)

        # Per-phase record singletons and their QoS base times, staged
        # up front: a native fire that crosses phases installs the
        # entering phase's rates and base time from these.
        P = self._P = (int(self._pat_flat.max()) + 1) if flat else 1
        self._phase_records: List[Dict[int, object]] = []
        self._bt_phase = np.zeros(n * P)
        for i in range(n):
            by_phase: Dict[int, object] = {}
            for k, p in enumerate(pats[i]):
                if p not in by_phase:
                    rec_p = sim.db.record_for_interval(st.apps[i], k)
                    by_phase[p] = rec_p
                    self._bt_phase[i * P + p] = self._base_time(rec_p)
            self._phase_records.append(by_phase)

        # Setting interning: the C engine tracks applied settings and
        # table premises as small integer ids; interning is BY VALUE, so
        # object rebinds (cleared per-way memos and the like) can never
        # split an id.
        self._sids: Dict[Setting, int] = {}
        self._settings_by_id: List[Setting] = []

        # Replay tables, flat [core * K + entry].
        K = self._K = _TABLE_K
        self.cur_sid = np.zeros(n, dtype=np.int64)
        for i in range(n):
            self.cur_sid[i] = self._sid_of(st.settings[i])
        self.tab_count = np.zeros(n, dtype=np.int64)
        self.t_sid = np.zeros(n * K, dtype=np.int64)
        self.t_phase = np.zeros(n * K, dtype=np.int64)
        self.t_post = np.zeros(n * K, dtype=np.int64)
        self.t_le = np.zeros(n * K)
        self.t_kc = np.zeros(n * K)
        self.t_caddr = np.zeros(n * K, dtype=np.uint64)
        self.t_rates = np.zeros(n * K * P * 8)
        self.t_trans = np.zeros(n * K * 2)
        self.dp_bill = np.zeros(n)
        self.kc = np.full(n, np.nan)
        self.leaf_addr = np.zeros(n, dtype=np.uint64)
        #: Per-core curve whose address ``leaf_addr`` holds: curves are
        #: frozen, so an unchanged object identity means an unchanged
        #: address — the refresh loop skips the (costly) ctypes hop.
        #: Holding the reference also pins the object, so a freed
        #: curve's address can never be recycled into a false identity.
        self._leaf_objs: List[Optional[object]] = [None] * n
        self.leaf_n = np.zeros(n, dtype=np.int64)
        self.leaf_wmin = np.zeros(n, dtype=np.int64)
        #: Entry metadata per core — (premise, post, result, curve,
        #: kc_b, evaluations, phase) tuples; keeps every staged buffer
        #: alive.
        self._entry_meta: List[Optional[list]] = [None] * n

        # Staged path descriptors (filled by _restage).
        self._d_off = np.zeros(n, dtype=np.int64)
        self._d_len = np.zeros(n, dtype=np.int64)
        self._d_sib_core = np.zeros(0, dtype=np.int64)
        self._d_sib_addr = np.zeros(0, dtype=np.uint64)
        self._d_sib_n = np.zeros(0, dtype=np.int64)
        self._d_sib_left = np.zeros(0, dtype=np.int64)
        self._d_w0 = np.zeros(0, dtype=np.int64)
        self._d_w1 = np.zeros(0, dtype=np.int64)
        self._d_out_addr = np.zeros(0, dtype=np.uint64)
        self._r_other_core = np.zeros(n, dtype=np.int64)
        self._r_other_addr = np.zeros(n, dtype=np.uint64)
        self._r_other_n = np.zeros(n, dtype=np.int64)
        self._r_other_wmin = np.zeros(n, dtype=np.int64)
        self._r_path_left = np.zeros(n, dtype=np.int64)
        self._r_top_wmin = np.zeros(n, dtype=np.int64)
        self._r_top_n = np.zeros(n, dtype=np.int64)
        self._pscratch = np.zeros(1)
        self._staged_epoch: Optional[int] = None
        self._stageable = np.zeros(n, dtype=bool)
        #: Interval each core's ``st.records`` binding reflects: native
        #: fires advance ``st.intervals`` entirely in C, and only the
        #: cores whose counters moved need their completed-interval
        #: record re-derived at the next callback.
        self._rec_iv = np.full(n, -1, dtype=np.int64)
        #: Per-core stage epoch: the tree epoch each core's staged
        #: descriptor reflects.  Tables only stand on a handful of
        #: cores when the epoch moves, so staleness is repaired
        #: per-core (the tree topology is fixed, so every core's level
        #: count — and its slot span in the flat arrays — never moves
        #: after the first full staging).
        self._core_epoch = np.full(n, -1, dtype=np.int64)

        # Observability / sync.
        self.stats = np.zeros(7, dtype=np.int64)
        self.fired = np.full(n, -1, dtype=np.int64)
        self._hist_buf = np.zeros(3 * _HIST_CAPACITY)
        self._n_rebilled = 0
        self._n_disarmed = 0

        # Native-only scratch.
        self._dscr = np.empty(n)
        self._alphas_arr = np.array(self.alphas, dtype=float)
        self._vio_buf = np.empty(_VIO_CAPACITY)

        # QoS base times, kept current for C (same memoized
        # ``record.time_at(baseline)`` values the wave loop derives).
        self.cur_base_time = np.empty(n)
        for i in range(n):
            self.cur_base_time[i] = self._base_time(st.records[i])

        cm = self.cost_model
        fctl = np.zeros(12)
        fctl[0] = self.horizon
        fctl[1] = 0.0  # t
        fctl[2] = 0.0  # rm_instructions
        # Exactly the left-assoc head of RMCostModel.instructions:
        # (fixed + per_core*n) is its first evaluated subexpression.
        fctl[3] = cm.fixed + cm.per_core * n
        fctl[4] = cm.per_eval
        fctl[5] = cm.per_dp
        fctl[6] = cm.min_instructions
        fctl[7] = _VIOLATION_EPS
        fctl[8] = (
            float(getattr(rm, "switch_threshold", 0.0))
            if self.gate_checked
            else 0.0
        )
        fctl[9] = np.nan  # current root total: unknown until synced
        self.fctl = fctl

        ictl = np.zeros(20, dtype=np.int64)
        ictl[0] = n
        ictl[1] = 1 if self.charge else 0
        ictl[2] = max_events
        ictl[8] = _VIO_CAPACITY
        ictl[11] = n - int(st.finished.sum())
        ictl[12] = 1 if self.gate_checked else 0
        ictl[13] = K
        ictl[14] = sim.system.total_ways
        ictl[15] = _HIST_CAPACITY if history is not None else 0
        ictl[18] = 1 if self.phase_sensitive else 0
        ictl[19] = P
        self.ictl = ictl

        pptrs = np.zeros(64, dtype=np.uint64)
        for slot, arr in enumerate(
            (
                st.stall_s,
                st.tpi_s,
                st.instr_done,
                st.total_instr,
                st.interval_elapsed_s,
                st.n_instructions,
                st.epi_j,
                st.work_j_per_inst,
                st.static_w,
                st.core_dynamic_j,
                st.core_static_j,
                st.memory_j,
                st.overhead_j,
                st.ipc,
                st.set_f,
                self._alphas_arr,
                self.cur_base_time,
                self._vio_buf,
                st._active,
                st.finished,
                st.intervals,
                self._pat_off,
                self._pat_len,
                self._pat_flat,
            )
        ):
            pptrs[slot] = arr.ctypes.data
        pptrs[24] = self._bt_phase.ctypes.data
        pptrs[28] = self._dscr.ctypes.data
        pptrs[29] = self.cur_sid.ctypes.data
        pptrs[30] = self.tab_count.ctypes.data
        pptrs[31] = self.t_sid.ctypes.data
        pptrs[32] = self.t_phase.ctypes.data
        pptrs[33] = self.t_post.ctypes.data
        pptrs[34] = self.t_le.ctypes.data
        pptrs[35] = self.t_kc.ctypes.data
        pptrs[36] = self.t_caddr.ctypes.data
        pptrs[37] = self.t_rates.ctypes.data
        pptrs[38] = self.t_trans.ctypes.data
        pptrs[39] = self.dp_bill.ctypes.data
        pptrs[40] = self.kc.ctypes.data
        pptrs[41] = self.leaf_addr.ctypes.data
        pptrs[42] = self.leaf_n.ctypes.data
        pptrs[43] = self.leaf_wmin.ctypes.data
        pptrs[53] = self._r_other_core.ctypes.data
        pptrs[54] = self._r_other_addr.ctypes.data
        pptrs[55] = self._r_other_n.ctypes.data
        pptrs[56] = self._r_other_wmin.ctypes.data
        pptrs[57] = self._r_path_left.ctypes.data
        pptrs[58] = self._r_top_wmin.ctypes.data
        pptrs[59] = self._r_top_n.ctypes.data
        pptrs[60] = self.stats.ctypes.data
        pptrs[61] = self._hist_buf.ctypes.data
        pptrs[62] = self.fired.ctypes.data
        pptrs[63] = self._pscratch.ctypes.data
        self.pptrs = pptrs
        self._write_descriptor_ptrs()

    # ------------------------------------------------------------------
    def _sid_of(self, s: Setting) -> int:
        sid = self._sids.get(s)
        if sid is None:
            sid = len(self._settings_by_id)
            self._sids[s] = sid
            self._settings_by_id.append(s)
        return sid

    def _base_time(self, record) -> float:
        rid = id(record)
        bt = self.base_time_of.get(rid)
        if bt is None:
            bt = record.time_at(self.baseline)
            self.base_time_of[rid] = bt
        return bt

    def _write_descriptor_ptrs(self) -> None:
        pp = self.pptrs
        pp[44] = self._d_off.ctypes.data
        pp[45] = self._d_len.ctypes.data
        pp[46] = self._d_sib_core.ctypes.data
        pp[47] = self._d_sib_addr.ctypes.data
        pp[48] = self._d_sib_n.ctypes.data
        pp[49] = self._d_sib_left.ctypes.data
        pp[50] = self._d_w0.ctypes.data
        pp[51] = self._d_w1.ctypes.data
        pp[52] = self._d_out_addr.ctypes.data
        pp[63] = self._pscratch.ctypes.data

    def drain_violations(self) -> None:
        """Flush C-buffered violations (they precede any pending event)."""
        count = int(self.ictl[7])
        if count:
            self.violations.extend(float(v) for v in self._vio_buf[:count])
            self.ictl[7] = 0

    def drain_history(self) -> None:
        """Flush C-buffered setting changes into the history list."""
        count = int(self.ictl[16])
        if count:
            if self.history is not None:
                buf = self._hist_buf
                by_id = self._settings_by_id
                append = self.history.append
                for k in range(count):
                    append(
                        SettingChange(
                            float(buf[3 * k]),
                            int(buf[3 * k + 1]),
                            by_id[int(buf[3 * k + 2])],
                        )
                    )
            self.ictl[16] = 0

    # ------------------------------------------------------------------
    def _sync_install(self) -> None:
        """Fast-forward Python state past a segment of native fires.

        Runs at callback start whenever any rebind fire committed since
        the last sync (``fire_seq`` moved).  Settings are rebuilt from
        the interned applied-setting ids (fixing the struct-of-arrays
        mirrors before any Python diff can read them), the fired
        entries' (result, curve) bindings and the C-maintained keep
        energies are installed into the manager in one step, and the
        resulting map becomes the applied identity the next decision's
        ``settings is last`` check replays.
        """
        st = self.st
        n = st.n
        by_id = self._settings_by_id
        cur_sid = self.cur_sid
        settings_map: Dict[int, Setting] = {}
        for i in range(n):
            s = by_id[int(cur_sid[i])]
            settings_map[i] = s
            if st.settings[i] is not s:
                changed = st.settings[i] != s
                st.settings[i] = s
                if changed:
                    st.sync_setting_arrays(i)
        bindings: Dict[int, tuple] = {}
        fired = self.fired
        for i in range(n):
            e = int(fired[i])
            if e >= 0:
                meta = self._entry_meta[i][e]
                bindings[i] = (meta[2], meta[3])
        # NaN-means-unknown decode without per-element numpy scalars.
        energies = [
            None if v != v else v for v in self.kc.tolist()
        ]
        self.rm.native_replay_install(bindings, settings_map, energies)
        self.applied_settings = settings_map
        fired[:] = -1
        self.ictl[17] = 0

    # ------------------------------------------------------------------
    def handle_callback(self) -> None:
        """Process one boundary event: the wave-loop body verbatim.

        The C loop mutated nothing for this event; the boundary is
        re-derived with the wave loop's own NumPy arithmetic (which also
        fills the ``st._remaining`` scratch the advance kernel's NumPy
        fallback consumes), then the exact `_loop_wave` sequence runs —
        plus the replay-table maintenance that feeds the native loop.
        """
        ictl = self.ictl
        if ictl[17]:
            self._sync_install()

        sim = self.sim
        st = self.st
        rm = self.rm
        db = sim.db
        n_cores = st.n
        horizon = self.horizon
        charge = self.charge
        cost_model = self.cost_model
        alphas = self.alphas
        fctl = self.fctl

        stall_s = st.stall_s
        tpi_s = st.tpi_s
        instr_done = st.instr_done
        n_instructions = st.n_instructions
        finished = st.finished
        records = st.records
        settings_list = st.settings
        intervals = st.intervals
        interval_elapsed = st.interval_elapsed_s
        apps_list = st.apps
        record_for_interval = db.record_for_interval

        # Native fires advance ``intervals`` (and, at crossings, the
        # phase) entirely in C; the Python-side record list is only
        # rebound here.  Re-derive it from the shared interval counters
        # before anything reads a completed-interval record — identity
        # fires don't bump the fire counter, so this cannot be gated on
        # the install-pending flag.  Only cores whose counters moved
        # since the last callback need the lookup.
        rec_iv = self._rec_iv
        if not np.array_equal(rec_iv, intervals):
            for i in np.nonzero(rec_iv != intervals)[0].tolist():
                if not finished[i]:
                    records[i] = record_for_interval(
                        apps_list[i], int(intervals[i])
                    )
            rec_iv[:] = intervals

        # The C loop already picked the boundary (its pick arithmetic is
        # the same float64 expression as the wave loop's vectorized one,
        # compiled with contraction off), so re-derive only the scalar dt.
        b = int(ictl[10])
        rem_b = float(n_instructions[b]) - float(instr_done[b])
        if rem_b < 0.0:
            rem_b = 0.0
        dt = rem_b * float(tpi_s[b]) + float(stall_s[b])

        if self.speculate:
            dts = st._dts
            rem = st._remaining
            np.subtract(n_instructions, instr_done, out=rem)
            np.maximum(rem, 0.0, out=rem)
            np.multiply(rem, tpi_s, out=dts)
            dts += stall_s
            spec_mark = self.spec_mark
            wave_mask = dts <= dt
            if int(wave_mask.sum()) > 1:
                members = np.nonzero(wave_mask)[0]
                wave_inputs = []
                for i in members.tolist():
                    iv = intervals[i]
                    if spec_mark[i] == iv:
                        continue
                    spec_mark[i] = iv
                    rec = records[i]
                    wave_inputs.append(
                        (
                            i,
                            ModelInputs(
                                counters=rec.counters_at(settings_list[i]),
                                atd=rec.atd_report(),
                                next_record=record_for_interval(
                                    apps_list[i], iv + 1
                                ),
                            ),
                        )
                    )
                if wave_inputs:
                    rm.precompute_wave(wave_inputs)

        self._advance(st, dt, horizon)
        fctl[1] += dt

        elapsed = float(interval_elapsed[b])
        record = records[b]
        setting = settings_list[b]
        base_time = self._base_time(record)
        if not finished[b]:
            ictl[4] += 1
            rel = (elapsed - base_time * alphas[b]) / base_time
            if rel > self._vio_eps:
                self.violations.append(rel)
        ictl[3] += 1

        counters = record.counters_at(setting)
        atd = record.atd_report()
        intervals[b] += 1
        instr_done[b] = 0.0
        interval_elapsed[b] = 0.0
        records[b] = record_for_interval(apps_list[b], intervals[b])
        self._rec_iv[b] = intervals[b]
        self.cur_base_time[b] = self._base_time(records[b])

        inputs = ModelInputs(
            counters=counters, atd=atd, next_record=records[b]
        )
        epoch_before = rm.state_epoch
        decision = rm.observe(b, inputs)
        ictl[5] += 1

        if charge and (
            decision.local_evaluations or decision.dp_operations
        ):
            instr = cost_model.instructions(
                n_cores,
                decision.local_evaluations,
                decision.dp_operations,
            )
            fctl[2] += instr
            stall_s[b] += cost_model.time_overhead_s(
                instr, float(st.ipc[b]), setting.f_ghz
            )
            if not finished[b]:
                st.overhead_j[b] += instr * float(st.epi_j[b])

        dropped: List[int] = []
        if decision.settings is self.applied_settings:
            st.refresh_rates_memo(b)
        else:
            self.applied_settings = decision.settings
            changed = st.diff_settings(self.applied_settings)
            history = self.history
            for i in changed:
                new_setting = self.applied_settings[i]
                old_setting = settings_list[i]
                if charge:
                    cost = sim.dvfs.transition_cost(
                        old_setting, new_setting
                    )
                    stall_add_s, energy_j = sim.repartition.cost(
                        new_setting.ways - old_setting.ways,
                        self.mem_latency_s,
                        self.mem_access_j,
                    )
                    stall_s[i] += cost.time_s + stall_add_s
                    if not finished[i]:
                        st.overhead_j[i] += cost.energy_j + energy_j
                settings_list[i] = new_setting
                st.sync_setting_arrays(i)
                if history is not None:
                    history.append(
                        SettingChange(float(fctl[1]), i, new_setting)
                    )
                # Table entries bake the way count into their energies
                # and decided settings; a moved allocation invalidates
                # the core's whole table.  (c, f)-only moves keep it —
                # the premise id tracks the applied setting.
                if new_setting.ways != old_setting.ways:
                    self.tab_count[i] = 0
                    dropped.append(i)
                self.cur_sid[i] = self._sid_of(new_setting)
                if i != b:
                    st.refresh_rates_memo(i)
            st.refresh_rates_memo(b)

        if rm.state_epoch != epoch_before:
            self._repair_tables()
        self._arm_table(b)
        # A re-partition drops every reallocated core's table; re-arm
        # them here rather than waiting out a cold callback each — the
        # arm walk starts from their in-progress interval's schedule.
        for i in dropped:
            if i != b and not finished[i]:
                self._arm_table(i)
        self._post_sync()
        ictl[11] = n_cores - int(finished.sum())
        ictl[2] -= 1

    # ------------------------------------------------------------------
    def _arm_table(self, b: int) -> None:
        """Replace one core's replay table for its upcoming boundaries.

        The walk follows the core's actual upcoming phase schedule (the
        pattern rotated to its in-progress interval), so the armed
        entries cover the mixed-phase decision orbit — each entry keyed
        by the phase of the interval it completes.  A phase-sensitive
        model collapses the schedule to the next phase only: its
        crossings take the callback path regardless.
        """
        self.tab_count[b] = 0
        self._entry_meta[b] = None
        rm = self.rm
        walk = getattr(rm, "native_replay_table", None)
        if walk is None or self.applied_settings is None:
            return
        pat = self.pats[b]
        L = len(pat)
        iv0 = int(self.st.intervals[b])
        if self.phase_sensitive:
            phases = [pat[iv0 % L]]
        else:
            phases = [pat[(iv0 + j) % L] for j in range(L)]
        n_ph = len(phases)
        precs = self._phase_records[b]

        def inputs_for(s: Setting, k: int) -> ModelInputs:
            # The k-th upcoming boundary completes an interval of phase
            # ``phases[k % n_ph]``; its per-phase record singleton
            # supplies the decision inputs.  The next_record premise
            # (same record) only feeds the memo key for phase-sensitive
            # models, whose schedule is the single current phase.
            rec_k = precs[phases[k % n_ph]]
            return ModelInputs(
                counters=rec_k.counters_at(s),
                atd=rec_k.atd_report(),
                next_record=rec_k,
            )

        out = walk(
            b,
            self.applied_settings,
            inputs_for,
            max_entries=self._K,
            phases=phases,
        )
        if out is None:
            return
        entries, dp = out
        K = self._K
        P = self._P
        base = b * K
        rates = self.t_rates
        trans = self.t_trans
        charge = self.charge
        meta = []
        for (premise, post, result, curve, kc_b, evals, phase) in entries:
            sid = self._sid_of(premise)
            idx = base + len(meta)
            self.t_sid[idx] = sid
            self.t_phase[idx] = phase
            self.t_post[idx] = self._sid_of(post)
            self.t_le[idx] = float(evals)
            self.t_kc[idx] = np.nan if kc_b is None else kc_b
            self.t_caddr[idx] = (
                0 if curve is None else curve.energy.ctypes.data
            )
            # Post-rollover rates for every phase the entered interval
            # can have (the C loop indexes by the live entering phase).
            for q, rec_q in precs.items():
                r8 = 8 * (idx * P + q)
                (
                    rates[r8],
                    rates[r8 + 1],
                    rates[r8 + 2],
                    rates[r8 + 3],
                    rates[r8 + 4],
                    rates[r8 + 5],
                ) = rec_q.rates_at(post)
                rates[r8 + 6] = post.f_ghz
            r2 = 2 * idx
            if charge and post != premise:
                # The exact Python float expressions of the diff loop's
                # transition charge, pre-added at arm time.
                cost = self.sim.dvfs.transition_cost(premise, post)
                stall_add_s, energy_j = self.sim.repartition.cost(
                    post.ways - premise.ways,
                    self.mem_latency_s,
                    self.mem_access_j,
                )
                trans[r2] = cost.time_s + stall_add_s
                trans[r2 + 1] = cost.energy_j + energy_j
            else:
                trans[r2] = 0.0
                trans[r2 + 1] = 0.0
            meta.append((premise, post, result, curve, kc_b, evals, phase))
        self.dp_bill[b] = float(dp)
        self._entry_meta[b] = meta
        self.tab_count[b] = len(meta)

    def _repair_tables(self) -> None:
        """Re-bill every standing table after a manager state change.

        Curve rebinds, re-partitions and settings-map rebinds all move
        ``state_epoch``; any of them can shift a standing entry's DP
        bill (tree widths and the root window move with leaf domains).
        The gate itself needs no repair — it is re-evaluated live in C
        at every fire.  An unprovable premise drops every table.
        """
        if not self.tab_count.any():
            return
        out = None
        if self.applied_settings is not None:
            rebill = getattr(self.rm, "native_table_rebill", None)
            if rebill is not None:
                out = rebill(self.applied_settings)
        if out is None:
            self.tab_count[:] = 0
            self._n_disarmed += 1
            return
        eval_ops, path_ops = out
        np.add(
            np.asarray(path_ops, dtype=float),
            float(eval_ops),
            out=self.dp_bill,
        )
        self._n_rebilled += 1

    def _post_sync(self) -> None:
        """Refresh the C gate's live inputs at every callback end.

        Keeps the staged descriptors (``stage_epoch``), the per-core
        leaf addresses, the per-core keep energies and the maintained
        root total current so the next native fire evaluates the gate
        over exactly the state a Python observe would see.
        """
        if not self.gate_checked or not self.tab_count.any():
            return
        rm = self.rm
        tree = getattr(rm, "_tree", None)
        if tree is None:
            self.tab_count[:] = 0
            return
        epoch = int(tree.stage_epoch)
        if self._staged_epoch is None:
            self._restage(tree)
        else:
            # Epoch moves invalidate staged descriptors, but only
            # table-holding cores need fresh ones *now* — everyone else
            # is repaired here the moment a later arm gives them a
            # table (their per-core epoch stays stale until then).
            stale = np.nonzero(
                (self.tab_count > 0) & (self._core_epoch != epoch)
            )[0]
            if stale.size:
                need = tree.w_max_total + 1
                if self._pscratch.size < need:
                    self._pscratch = np.empty(need)
                    self._write_descriptor_ptrs()
                for i in stale.tolist():
                    if not self._restage_core(tree, i, epoch):
                        self._restage(tree)
                        break
            self._staged_epoch = epoch
        if not self._stageable.all():
            self.tab_count[~self._stageable] = 0
        leaf_addr = self.leaf_addr
        leaf_objs = self._leaf_objs
        leaf_curve = tree.leaf_curve
        for i in range(self.st.n):
            c = leaf_curve(i)
            if leaf_objs[i] is not c:
                leaf_objs[i] = c
                leaf_addr[i] = c.energy.ctypes.data
        self.kc[:] = [
            np.nan if v is None else v for v in rm._energy_at_current
        ]
        total = rm.native_current_total()
        self.fctl[9] = np.nan if total is None else total

    def _restage(self, tree) -> None:
        """Re-stage every core's path descriptor from the tree.

        Staged addresses and windows are valid exactly while the tree's
        ``stage_epoch`` holds still; cores the tree cannot describe
        (single leaf, unallocated buffers) are marked unstageable and
        their tables dropped by :meth:`_post_sync`.
        """
        n = self.st.n
        d_off = self._d_off
        d_len = self._d_len
        stageable = np.zeros(n, dtype=bool)
        sib_core: List[int] = []
        sib_addr: List[int] = []
        sib_n: List[int] = []
        sib_left: List[int] = []
        w0s: List[int] = []
        w1s: List[int] = []
        out_addr: List[int] = []
        for i in range(n):
            d = tree.native_path_descriptor(i)
            if d is None:
                d_len[i] = 0
                d_off[i] = 0
                continue
            stageable[i] = True
            d_off[i] = len(sib_core)
            for (sc, sa, sn, sl, w0, w1, oa) in d["levels"]:
                sib_core.append(sc)
                sib_addr.append(sa)
                sib_n.append(sn)
                sib_left.append(sl)
                w0s.append(w0)
                w1s.append(w1)
                out_addr.append(oa)
            d_len[i] = len(d["levels"])
            self._r_path_left[i] = d["path_is_left"]
            self._r_other_core[i] = d["other_core"]
            self._r_other_addr[i] = d["other_addr"]
            self._r_other_n[i] = d["other_n"]
            self._r_other_wmin[i] = d["other_wmin"]
            self._r_top_wmin[i] = d["top_wmin"]
            self._r_top_n[i] = d["top_n"]
            curve = tree.leaf_curve(i)
            self.leaf_n[i] = curve.energy.size
            self.leaf_wmin[i] = curve.w_min
        self._d_sib_core = np.array(sib_core, dtype=np.int64)
        self._d_sib_addr = np.array(sib_addr, dtype=np.uint64)
        self._d_sib_n = np.array(sib_n, dtype=np.int64)
        self._d_sib_left = np.array(sib_left, dtype=np.int64)
        self._d_w0 = np.array(w0s, dtype=np.int64)
        self._d_w1 = np.array(w1s, dtype=np.int64)
        self._d_out_addr = np.array(out_addr, dtype=np.uint64)
        need = tree.w_max_total + 1
        if self._pscratch.size < need:
            self._pscratch = np.empty(need)
        self._write_descriptor_ptrs()
        self._stageable = stageable
        self._staged_epoch = int(tree.stage_epoch)
        self._core_epoch[:] = self._staged_epoch

    def _restage_core(self, tree, i: int, epoch: int) -> bool:
        """Overwrite one core's staged descriptor slots in place.

        Valid because the tree topology is frozen: a core's path level
        count (and therefore its slot span from the last full staging)
        cannot change.  Returns False when the flat layout cannot hold
        the fresh descriptor — a core staged as descriptor-less coming
        back to life — which demands a full :meth:`_restage`.
        """
        d = tree.native_path_descriptor(i)
        if d is None:
            self._stageable[i] = False
            self._core_epoch[i] = epoch
            return True
        levels = d["levels"]
        if len(levels) != int(self._d_len[i]):
            return False
        off = int(self._d_off[i])
        for j, (sc, sa, sn, sl, w0, w1, oa) in enumerate(levels):
            k = off + j
            self._d_sib_core[k] = sc
            self._d_sib_addr[k] = sa
            self._d_sib_n[k] = sn
            self._d_sib_left[k] = sl
            self._d_w0[k] = w0
            self._d_w1[k] = w1
            self._d_out_addr[k] = oa
        self._r_path_left[i] = d["path_is_left"]
        self._r_other_core[i] = d["other_core"]
        self._r_other_addr[i] = d["other_addr"]
        self._r_other_n[i] = d["other_n"]
        self._r_other_wmin[i] = d["other_wmin"]
        self._r_top_wmin[i] = d["top_wmin"]
        self._r_top_n[i] = d["top_n"]
        curve = tree.leaf_curve(i)
        self.leaf_n[i] = curve.energy.size
        self.leaf_wmin[i] = curve.w_min
        self._stageable[i] = True
        self._core_epoch[i] = epoch
        return True

    # ------------------------------------------------------------------
    def native_stats(self) -> dict:
        """Per-run replay counters (observability; never fingerprinted)."""
        s = self.stats
        ident, rebind = int(s[0]), int(s[1])
        replayed = ident + rebind
        invocations = int(self.ictl[5])
        return {
            "rm_invocations": invocations,
            "replayed": replayed,
            "ident_replays": ident,
            "rebind_replays": rebind,
            "native_replay_fraction": (
                replayed / invocations if invocations else None
            ),
            "callbacks": {
                "cold": int(s[2]),
                "phase": int(s[3]),
                "miss": int(s[4]),
                "gate": int(s[5]),
                "other": int(s[6]),
            },
            "repairs_rebilled": self._n_rebilled,
            "repairs_disarmed": self._n_disarmed,
        }

    # ------------------------------------------------------------------
    def totals(self):
        """The wave loop's return tuple (folds the C-side counters)."""
        st = self.st
        ictl = self.ictl
        st.rate_refreshes += int(ictl[6])
        ictl[6] = 0
        return (
            float(self.fctl[1]),
            int(ictl[3]),
            int(ictl[4]),
            self.violations,
            int(ictl[5]),
            float(self.fctl[2]),
        )


def drive(
    drivers: Sequence[NativeRunDriver], raise_on_failure: bool = True
) -> None:
    """Advance every run to completion through the shared native loop.

    One ``run_native`` call per sweep moves *all* still-pending runs
    forward until each blocks (callback / buffer drain / done); Python
    then services the blocked runs and re-enters.

    A run whose callback raises — or which exhausts its event budget —
    is isolated, not fatal to the batch: its C-buffered violations and
    history are drained first (the conservative-repair path, so nothing
    recorded before the failure is lost), the exception is parked on
    ``driver.failure``, and the run is excluded from further sweeps
    while every other run completes.  With ``raise_on_failure`` (the
    default) the first parked failure is re-raised at the end — the
    single-run semantics; batch callers pass False and re-run failures
    from scratch.
    """
    lib = _native_opt.raw_lib()
    if lib is None:
        raise RuntimeError("native run engine unavailable")
    nruns = len(drivers)
    blocks = np.empty(3 * nruns, dtype=np.uint64)
    for r, d in enumerate(drivers):
        blocks[3 * r] = d.pptrs.ctypes.data
        blocks[3 * r + 1] = d.fctl.ctypes.data
        blocks[3 * r + 2] = d.ictl.ctypes.data
    statuses = np.zeros(nruns, dtype=np.int64)
    run_native = lib.run_native
    blocks_addr = blocks.ctypes.data
    statuses_addr = statuses.ctypes.data
    while True:
        run_native(nruns, blocks_addr, statuses_addr)
        pending = False
        for r, d in enumerate(drivers):
            s = int(statuses[r])
            if s == 0 or d.failure is not None:
                continue
            # Buffered violations/history precede whatever blocked the
            # run — drain before anything can fail.
            d.drain_violations()
            d.drain_history()
            if s == DONE:
                continue
            if s == MAXEVENTS:
                d.failure = RuntimeError(
                    "simulation exceeded max_events; check inputs"
                )
                continue
            if s == CALLBACK:
                try:
                    d.handle_callback()
                except BaseException as exc:  # noqa: BLE001 — isolated per run
                    d.failure = exc
                    continue
            statuses[r] = 0
            pending = True
        if not pending:
            break
    if raise_on_failure:
        for d in drivers:
            if d.failure is not None:
                raise d.failure
