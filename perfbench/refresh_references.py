"""Regenerate ``perfbench/references.json``.

Run from the root of a source checkout, as a change of its own, when a
change is meant to alter results::

    python3 perfbench/refresh_references.py

For the default seed and the held-out seed it sets up once, runs every
workload's command and records the CSV digests.  CSV headers and
campaign sizes must agree across the seeds: the benchmark checks them on
every seed it is given.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import REFERENCES, WORKLOADS, Run, csv_digests, csv_headers

DEFAULT_SEED = 2020
HELD_OUT_SEED = 7


def main() -> int:
    root = Path.cwd()
    workloads = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        setup = Run(root, WORKLOADS["quick-cold"], seed, 0, {})
        try:
            setup.setup()
            for name, workload in WORKLOADS.items():
                run = Run(root, workload, seed, 0, {})
                run.work = setup.work / name
                run.db = setup.db
                m, d = run.command("cold")
                if m.exit != 0:
                    print(f"{name} seed {seed} failed:", file=sys.stderr)
                    print((d / "log.txt").read_text()[-4000:], file=sys.stderr)
                    return 1
                entry = workloads.setdefault(name, {"digests": {}})
                shape = {
                    "headers": csv_headers(d / "csv"),
                    "planned": m.record["campaign"]["planned"],
                    "unique": m.record["campaign"]["unique"],
                }
                for key, value in shape.items():
                    if entry.setdefault(key, value) != value:
                        print(f"{name}: {key} differs between seeds", file=sys.stderr)
                        return 1
                entry["digests"][str(seed)] = csv_digests(d / "csv")
        finally:
            shutil.rmtree(setup.work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(
        {
            "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
            "workloads": workloads,
        },
        indent=1,
        sort_keys=True,
    ) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
