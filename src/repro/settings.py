"""Every ``REPRO_*`` environment knob, parsed in one place.

No knob changes a result: CSVs and result fingerprints are bit-identical
whatever these say.  They choose where state lives (stores, caches), how
work is scheduled (workers, timeouts, the distributed fabric) and which
implementation runs (compiled kernels, the simulator's event loop).

:meth:`Settings.from_env` is the only reader of ``REPRO_*`` variables in
the package.  Each field is parsed by one helper per type; a malformed
value raises :class:`ValueError` naming the variable, so a campaign that
resolves its settings up front fails before it simulates anything.

Variables stay the transport to child processes: pool workers and
fabric workers inherit the environment, and the few places that hand a
value to a child (``--remote``/``--wave`` on the CLI, pool and fabric
worker start-up, the fault plan's re-export) write ``os.environ``
directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

__all__ = ["DEFAULT_CACHE_DIR", "Settings"]

#: Database cache root when ``REPRO_CACHE_DIR`` is unset.
DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[2] / ".cache" / "repro-db"


def _number(name: str, raw: str, default, lo: Optional[float] = None):
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    return value if lo is None else max(lo, value)


def _integer(name: str, raw: str, default, lo: Optional[int] = None):
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    return value if lo is None else max(lo, value)


def _cap(name: str, raw: str, default) -> Optional[float]:
    """A positive number; unset, empty or non-positive means off (None)."""
    value = _number(name, raw, None)
    return value if value is not None and value > 0 else None


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _flag(name: str, raw: str, default: bool) -> bool:
    word = (raw or "").strip().lower()
    if not word:
        return default
    if word in _TRUE:
        return True
    if word in _FALSE:
        return False
    raise ValueError(
        f"{name} must be one of {'/'.join(_TRUE + _FALSE)}, got {raw!r}"
    )


def _path(name: str, raw: str, default) -> Optional[Path]:
    """A directory path; naming an existing non-directory is malformed."""
    if not raw:
        return default
    path = Path(raw)
    if path.exists() and not path.is_dir():
        raise ValueError(f"{name} must name a directory, got file {raw!r}")
    return path


def _text(name: str, raw: str, default) -> Optional[str]:
    return raw or default


def _knob(env: str, parse: Callable, default=None, **bounds):
    return field(
        default=default, metadata={"env": env, "parse": parse, "bounds": bounds}
    )


@dataclass(frozen=True)
class Settings:
    """One value per ``REPRO_*`` knob (field metadata names the variable)."""

    # -- stores ------------------------------------------------------------
    #: On-disk result store; None keeps results in the process memo only.
    result_cache: Optional[Path] = _knob("REPRO_RESULT_CACHE", _path)
    #: LRU size cap of the result store in MiB (None = unbounded).
    result_cache_max_mb: Optional[float] = _knob(
        "REPRO_RESULT_CACHE_MAX_MB", _cap
    )
    #: Verify every disk read against its attestation digest.
    verify_reads: bool = _knob("REPRO_VERIFY_READS", _flag, True)
    #: Persistent local-decision memo directory (None = off).
    local_memo: Optional[Path] = _knob("REPRO_LOCAL_MEMO", _path)
    #: LRU size cap of the local memo in MiB (None = unbounded).
    local_memo_max_mb: Optional[float] = _knob("REPRO_LOCAL_MEMO_MAX_MB", _cap)
    #: Database and compiled-kernel cache root.
    cache_dir: Path = _knob("REPRO_CACHE_DIR", _path, DEFAULT_CACHE_DIR)
    #: Skip the on-disk database cache (always rebuild).
    no_cache: bool = _knob("REPRO_NO_CACHE", _flag, False)

    # -- implementations ---------------------------------------------------
    #: Never compile the C kernels; run the Python loops.
    no_native: bool = _knob("REPRO_NO_NATIVE", _flag, False)
    #: Default simulator event-loop mode (validated by the simulator).
    sim_wave: str = _knob("REPRO_SIM_WAVE", _text, "step")

    # -- scheduling --------------------------------------------------------
    #: Campaign worker processes (None = automatic).
    campaign_workers: Optional[int] = _knob("REPRO_CAMPAIGN_WORKERS", _integer)
    #: Database build worker processes (None = automatic).
    build_workers: Optional[int] = _knob("REPRO_BUILD_WORKERS", _integer)
    #: Per-spec wall-clock timeout in seconds (None = none).
    spec_timeout: Optional[float] = _knob("REPRO_SPEC_TIMEOUT", _cap)

    # -- distributed fabric ------------------------------------------------
    #: Dispatch campaigns through the lease-based fabric.
    remote: bool = _knob("REPRO_REMOTE", _flag, False)
    #: Local fabric workers to spawn (None = the campaign worker count).
    remote_workers: Optional[int] = _knob(
        "REPRO_REMOTE_WORKERS", _integer, lo=0
    )
    #: Seconds a lease may outlive its worker's last heartbeat.
    lease_ttl: float = _knob("REPRO_LEASE_TTL", _number, 30.0, lo=0.1)
    #: Fingerprints a worker claims per round.
    lease_batch: int = _knob("REPRO_LEASE_BATCH", _integer, 4, lo=1)
    #: Seconds without progress before the coordinator executes specs.
    remote_grace: float = _knob("REPRO_REMOTE_GRACE", _number, 5.0, lo=0.0)
    #: Coordinator and worker polling interval in seconds.
    remote_tick: float = _knob("REPRO_REMOTE_TICK", _number, 0.2, lo=0.01)
    #: This process's fabric worker id (set for spawned workers).
    worker_id: Optional[str] = _knob("REPRO_WORKER_ID", _text)

    # -- fault injection (see repro.util.faults) ---------------------------
    #: Deterministic fault schedule (None = no faults).
    fault_plan: Optional[str] = _knob("REPRO_FAULT_PLAN", _text)
    #: Directory counting fault fires across processes.
    fault_ledger: Optional[Path] = _knob("REPRO_FAULT_LEDGER", _path)

    @classmethod
    def from_env(cls) -> "Settings":
        """Parse every knob from ``os.environ``.

        Memoised on the raw values, so calling it on a hot path costs one
        environment lookup per knob; a change to any variable is seen by
        the next call.
        """
        return _parse(tuple(map(os.environ.get, _ENV_NAMES)))


_ENV_NAMES = tuple(f.metadata["env"] for f in fields(Settings))


@lru_cache(maxsize=32)
def _parse(raw: tuple) -> Settings:
    return Settings(
        **{
            f.name: f.metadata["parse"](
                f.metadata["env"], value, f.default, **f.metadata["bounds"]
            )
            for f, value in zip(fields(Settings), raw)
        }
    )
