"""One measured process: run the repro CLI (or the set-up) in-process.

Usage::

    python3 perfbench/shim.py RECORD [--trace-dir DIR] cli -- ARGS...
    python3 perfbench/shim.py RECORD [--trace-dir DIR] setup SEED

``cli`` calls :func:`repro.cli.main` with ``ARGS``; ``setup`` builds the
database for ``SEED`` at every core count the workloads use and compiles
(or loads) the native kernels.  RECORD receives a small JSON summary:
the import time, what every ``Campaign.run`` did and took, and the
model-level figures the end-to-end metrics report.  With ``--trace-dir``
every layer's entry points are wrapped (:mod:`layers`) and spans are
written there; without it only ``Campaign.run`` is wrapped, which runs
once per command.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

#: Core counts the workloads simulate or render at; set-up binds them all
#: so a measured command never writes a database rebinding.
SETUP_CORES = (2, 4, 8, 16, 32, 64)


class Probe:
    """Captures what every ``Campaign.run`` planned, returned and took."""

    def __init__(self):
        self.campaigns = []

    def install(self) -> None:
        from repro.campaign.executor import Campaign

        run = Campaign.run
        probe = self

        def probed_run(campaign, *args, **kwargs):
            t0 = perf_counter()
            results = run(campaign, *args, **kwargs)
            probe.campaigns.append((campaign, results, perf_counter() - t0))
            return results

        Campaign.run = probed_run

    def summary(self) -> dict:
        campaign = {
            "runs": len(self.campaigns),
            "run_s": 0.0,
            "planned": 0,
            "unique": 0,
            "simulated": 0,
            "cached": 0,
            "retries": 0,
            "pool_failures": 0,
            "intervals": 0,
        }
        for plan, results, seconds in self.campaigns:
            campaign["run_s"] += seconds
            for key in ("planned", "unique", "simulated", "cached", "retries", "pool_failures"):
                campaign[key] += getattr(results.stats, key)
            campaign["intervals"] += sum(
                results[spec].intervals_completed for spec in plan.unique_specs
            )
        return {"campaign": campaign, "model": self._model()}

    def _model(self) -> dict:
        """RM3/Model3 against Idle, pooled over every such pair of runs.

        Pairs are the RM3/Model3 runs at the default QoS alpha with
        overheads charged whose Idle twin (same workload, cores, seed and
        horizon) the campaign also ran.  The saving is the share of the
        Idle runs' total energy that the RM3 runs save; the violation
        figure the share of the RM3 runs' QoS checks that failed.
        """
        idle_j = rm3_j = 0.0
        checks = violations = pairs = 0
        for plan, results, _seconds in self.campaigns:
            for spec in plan.unique_specs:
                if not (
                    spec.rm_kind == "rm3"
                    and spec.model == "Model3"
                    and spec.alpha is None
                    and spec.charge_overheads
                ):
                    continue
                twin = replace(spec, rm_kind="idle", model=None)
                if twin not in results:
                    continue
                rm3, idle = results[spec], results[twin]
                pairs += 1
                idle_j += idle.total_energy_j
                rm3_j += rm3.total_energy_j
                checks += rm3.qos_checks
                violations += len(rm3.violations)
        if not pairs:
            return {}
        return {
            "energy_saving_pct": 100.0 * (idle_j - rm3_j) / idle_j,
            "qos_violation_pct": 100.0 * violations / checks,
            "pairs": pairs,
        }


def _setup(seed: int) -> int:
    from repro.cache import _native
    from repro.campaign import get_database
    from repro.core import _native_opt

    _native.available()
    _native_opt.available()
    for n_cores in SETUP_CORES:
        get_database(n_cores, seed)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", type=Path)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("mode", choices=["cli", "setup"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest

    sys.path.insert(0, str(ROOT / "src"))
    rec = None
    if args.trace_dir is not None:
        from spans import Recorder

        rec = Recorder(args.trace_dir)
    t0 = perf_counter()
    import repro.cli

    t1 = perf_counter()
    record = {"import_s": t1 - t0}
    probe = Probe()
    try:
        probe.install()
        if rec is not None:
            import layers

            rec.record("import", t0, t1)
            t2 = perf_counter()
            layers.install(rec)
            rec.record("trace.install", t2, perf_counter())
        if args.mode == "setup":
            code = _setup(int(rest[0]))
        else:
            code = repro.cli.main(rest)
        record.update(probe.summary())
        record["exit"] = code
    finally:
        if rec is not None:
            rec.flush()
    args.record.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
