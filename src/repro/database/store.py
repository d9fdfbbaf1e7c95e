"""Disk cache for simulation databases.

Database builds are deterministic but cost a second or more for the full
27-application suite, so their records are cached under ``.cache/repro-db``
as one ``records-<key>.npz`` per (suite, seed).  Phase records do not
depend on the core count, so the key (:func:`records_fingerprint`) hashes
the *content* of the specs, the seed and the system with ``n_cores`` left
out: any change to a phase parameter, a power constant or the seed produces
a new key, while every core count loads the same file and binds its own
system to the records.

:func:`database_fingerprint` keeps identifying one (suite, system, seed)
build, core count included; campaign result fingerprints fold it in.

A top-level ``<32 hex digits>.npz`` in the cache root is an *orphan* —
a per-core-count file written before records were keyed per seed.
Nothing reads them; :func:`database_cache_report` (``repro cache
--prune``) deletes them and no other file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zipfile
import zlib
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.database.records import PhaseRecord
from repro.settings import Settings
from repro.trace.spec import AppSpec
from repro.util.diskcache import quarantine_entry

__all__ = [
    "database_cache_report",
    "database_fingerprint",
    "load_cached_database",
    "records_fingerprint",
    "save_database_cache",
]

#: Bump whenever trace-generation or model semantics change, so stale
#: cached databases can never leak across code revisions.
CODE_VERSION = 4

#: Array fields of PhaseRecord, in serialisation order.
_ARRAY_FIELDS = (
    "ipc_by_size",
    "dep_stall_cycles",
    "cache_stall_curve",
    "miss_curve",
    "lm_true",
    "atd_miss_curve",
    "lm_heur",
    "time_grid",
    "mem_time_grid",
    "core_dyn_grid",
    "core_static_power_grid",
    "mem_energy_curve",
    "frequencies_ghz",
)
_SCALAR_FIELDS = ("n_instructions", "branch_cycles", "llc_accesses")


_RECORDS_NAME = re.compile(r"records-[0-9a-f]{32}\.npz")
_ORPHAN_NAME = re.compile(r"[0-9a-f]{32}\.npz")


def database_cache_report(prune: bool = False) -> Dict[str, float]:
    """Records-file count plus the orphans' count and MiB.

    With ``prune`` the orphans are deleted and the counts are of what was
    removed.  Only the two known name shapes are counted; any other file
    (a save's temporary, a user's own ``.npz``) and the sub-directories
    (``native/``, ``quarantine/``) are never touched.
    """
    files = [f for f in Settings.from_env().cache_dir.glob("*.npz") if f.is_file()]
    records = [f for f in files if _RECORDS_NAME.fullmatch(f.name)]
    orphans = sorted(f for f in files if _ORPHAN_NAME.fullmatch(f.name))
    count = size = 0
    for file in orphans:
        try:
            nbytes = file.stat().st_size
            if prune:
                file.unlink()
        except OSError:
            continue
        count += 1
        size += nbytes
    return {
        "records": len(records),
        "orphans": count,
        "orphan_mb": size / (1024 * 1024),
    }


def _stable_json(obj) -> str:
    """Deterministic JSON for fingerprinting nested dataclasses."""

    def default(o):
        if is_dataclass(o) and not isinstance(o, type):
            return asdict(o)
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if hasattr(o, "name") and hasattr(o, "value"):  # IntEnum keys/values
            return f"{type(o).__name__}.{o.name}"
        if isinstance(o, tuple):
            return list(o)
        raise TypeError(f"cannot fingerprint {type(o)!r}")

    def normalise(o):
        if isinstance(o, dict):
            return {str(k): normalise(v) for k, v in sorted(o.items(), key=lambda kv: str(kv[0]))}
        if isinstance(o, (list, tuple)):
            return [normalise(v) for v in o]
        return o

    try:
        raw = json.loads(json.dumps(obj, default=default))
    except TypeError:
        raw = repr(obj)
    return json.dumps(normalise(raw), sort_keys=True)


def _content_hash(tag: str, system, suite: Sequence[AppSpec], seed: int) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(tag.encode())
    h.update(_stable_json(system).encode())
    h.update(str(seed).encode())
    for spec in suite:
        h.update(_stable_json(spec).encode())
    return h.hexdigest()


def database_fingerprint(
    suite: Sequence[AppSpec], system: SystemConfig, seed: int
) -> str:
    """Content hash identifying one database build."""
    return _content_hash(f"v{CODE_VERSION}", system, suite, seed)


def records_fingerprint(
    suite: Sequence[AppSpec], system: SystemConfig, seed: int
) -> str:
    """Content hash of the records one build produces, for any core count.

    :func:`database_fingerprint` with ``n_cores`` left out of the system.
    """
    unbound = {k: v for k, v in asdict(system).items() if k != "n_cores"}
    return _content_hash(f"records-v{CODE_VERSION}", unbound, suite, seed)


def _records_file(suite: Sequence[AppSpec], system: SystemConfig, seed: int) -> Path:
    key = records_fingerprint(suite, system, seed)
    return Settings.from_env().cache_dir / f"records-{key}.npz"


def save_database_cache(db, suite: Sequence[AppSpec], seed: int) -> Optional[Path]:
    """Persist all records of a database; returns the file path or None."""
    if Settings.from_env().no_cache:
        return None
    file = _records_file(suite, db.system, seed)
    try:
        file.parent.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    payload = {}
    meta = {}
    for app, records in db.records.items():
        meta[app] = len(records)
        for idx, rec in enumerate(records):
            prefix = f"{app}/{idx}/"
            for fname in _ARRAY_FIELDS:
                payload[prefix + fname] = getattr(rec, fname)
            payload[prefix + "scalars"] = np.array(
                [getattr(rec, s) for s in _SCALAR_FIELDS], dtype=float
            )
            payload[prefix + "phase"] = np.array(rec.phase)
    payload["__meta__"] = np.array(json.dumps(meta))
    # Per-process tmp name: concurrent writers (e.g. campaign pool
    # workers racing a cold cache) must not interleave on one inode.
    tmp = file.with_suffix(f".tmp{os.getpid()}.npz")
    try:
        np.savez_compressed(tmp, **payload)
        os.replace(tmp, file)
    except OSError:
        return None
    return file


def load_cached_database(
    suite: Sequence[AppSpec], system: SystemConfig, seed: int
):
    """Load the cached records bound to ``system``; None on any miss or error.

    A damaged file (truncated, not a zip, bad CRC or missing fields) is
    moved to ``<cache>/quarantine/`` so the caller's rebuild replaces it
    and the damage is never re-read.
    """
    if Settings.from_env().no_cache:
        return None
    from repro.database.builder import SimDatabase

    file = _records_file(suite, system, seed)
    if not file.exists():
        return None
    try:
        with np.load(file, allow_pickle=False) as data:
            meta = json.loads(str(data["__meta__"]))
            apps = {spec.name: spec for spec in suite}
            if set(meta) != set(apps):
                return None
            db = SimDatabase(system=system, apps=apps)
            for app, count in meta.items():
                records = []
                for idx in range(count):
                    prefix = f"{app}/{idx}/"
                    scalars = data[prefix + "scalars"]
                    kwargs = {
                        fname: data[prefix + fname] for fname in _ARRAY_FIELDS
                    }
                    kwargs.update(
                        dict(zip(_SCALAR_FIELDS, (float(x) for x in scalars)))
                    )
                    records.append(
                        PhaseRecord(
                            app=app, phase=str(data[prefix + "phase"]), **kwargs
                        )
                    )
                db.records[app] = records
            return db
    except (
        zipfile.BadZipFile,
        zlib.error,
        EOFError,
        KeyError,
        ValueError,  # includes json.JSONDecodeError
    ):
        quarantine_entry(file, file.parent)
        return None
    except OSError:
        return None
