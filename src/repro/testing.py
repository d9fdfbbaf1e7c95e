"""Shared test/benchmark fixtures as an importable module.

Both ``tests/`` and ``benchmarks/`` need the same reduced-scale phase
specs and the mini application suite.  Keeping them in the package (rather
than in a ``conftest.py``) makes the imports unambiguous: under rootdir
collection, ``from conftest import ...`` resolves to whichever conftest
pytest inserted first on ``sys.path``, which is exactly the seed-state
collection failure this module fixes.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

from repro.config import ScaleConfig
from repro.trace.reuse import cliff_profile, small_ws_profile, streaming_profile
from repro.trace.spec import AppSpec, PhaseSpec, uniform_ipc

__all__ = [
    "native_trace_kernels_off",
    "small_scale",
    "make_phase",
    "mini_suite",
    "serial_oracle",
    "write_entry_many",
]


def small_scale() -> ScaleConfig:
    """Reduced sample sizes so the suite exercises the full pipeline fast."""
    return ScaleConfig(sample_llc_accesses=2048, app_intervals=8)


def make_phase(
    name: str = "p0",
    reuse=None,
    apki: float = 20.0,
    chain: float = 0.05,
    burst: float = 10.0,
    intra: float = 0.3,
    ipc=None,
    **kw,
) -> PhaseSpec:
    """A phase spec with reasonable defaults, all knobs overridable."""
    return PhaseSpec(
        name=name,
        reuse=reuse or cliff_profile(9.0, 2.5, 0.1),
        llc_apki=apki,
        chain_frac=chain,
        burst_len=burst,
        intra_gap_frac=intra,
        ipc=ipc or uniform_ipc(1.2, 1.7, 2.2),
        **kw,
    )


def mini_suite() -> List[AppSpec]:
    """Four small applications, one per category archetype."""
    cs_ps = AppSpec(
        name="mini_csps",
        phases=(
            make_phase("a", cliff_profile(9.0, 2.5, 0.1), apki=25.0),
            make_phase("b", cliff_profile(8.0, 2.5, 0.12), apki=18.0),
        ),
        phase_pattern=(0, 0, 0, 1, 1, 0),
        n_intervals=8,
    )
    ci_ps = AppSpec(
        name="mini_cips",
        phases=(
            make_phase(
                "a", streaming_profile(0.93), apki=26.0, burst=12.0,
                intra=0.35, ipc=uniform_ipc(1.0, 1.45, 2.1),
            ),
        ),
        phase_pattern=(0,),
        n_intervals=6,
    )
    cs_pi = AppSpec(
        name="mini_cspi",
        phases=(
            make_phase(
                "a", cliff_profile(7.0, 2.0, 0.08), apki=12.0, chain=0.65,
                burst=3.0, intra=0.5, ipc=uniform_ipc(1.4, 1.9, 2.25),
                branch_mpki=5.0,
            ),
        ),
        phase_pattern=(0,),
        n_intervals=7,
    )
    ci_pi = AppSpec(
        name="mini_cipi",
        phases=(
            make_phase(
                "a", small_ws_profile(3, 0.1), apki=3.0, chain=0.4,
                burst=2.5, intra=0.5, ipc=uniform_ipc(1.5, 2.2, 2.8),
                branch_mpki=5.0,
            ),
        ),
        phase_pattern=(0,),
        n_intervals=5,
    )
    return [cs_ps, ci_ps, cs_pi, ci_pi]


def serial_oracle(specs) -> Dict[str, object]:
    """Fault-free reference results by fingerprint, bypassing every store.

    The differential fault tests compare any faulted campaign against
    this: plain serial simulation, no result cache, no journal, no fault
    hooks — the executor's bit-identical contract says every failure
    pattern must merge to exactly these results.
    """
    from repro.campaign.executor import _simulate

    return {spec.fingerprint: _simulate(spec) for spec in specs}


def write_entry_many(root, fingerprint: str, text: str, n: int) -> None:
    """Atomically write one store entry ``n`` times (module-level so the
    concurrent-writer test can run it from several processes at once)."""
    from repro.util.diskcache import atomic_write_text

    path = Path(root) / f"{fingerprint}.json"
    for _ in range(n):
        atomic_write_text(path, text)


@contextmanager
def native_trace_kernels_off() -> Iterator[None]:
    """Run the trace-kernel entry points on their no-compiler paths.

    Inside the block :func:`repro.cache._native.available` is ``False``, so
    ``leading_miss_matrix`` and ``MLPCounterArray.observe_many`` take their
    Python loops and the ``auto`` replay engine the ``LRUStack`` oracle,
    exactly as under ``REPRO_NO_NATIVE=1``.  The differential tests and the
    fallback benchmarks use it to time and compare both paths in one
    process.
    """
    from repro.cache import _native

    saved = _native._lib, _native._lib_failed
    _native._lib, _native._lib_failed = None, True
    try:
        yield
    finally:
        _native._lib, _native._lib_failed = saved
