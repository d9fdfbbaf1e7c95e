"""Which public entry points the traced run wraps, and under which layer.

Wrappers are installed from outside the program: every ``repro`` module
that bound the original function by name (``from x import f``) gets the
wrapper too, and pool workers forked afterwards inherit them.  Nothing
under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from typing import Callable, Iterable, Optional

from spans import Recorder

__all__ = ["LAYERS", "install", "layer_of"]

#: Span name prefix -> layer.  A span named ``render.fig6`` belongs to
#: layer ``render``; ``results.write`` and ``results.read`` stay apart.
LAYERS = (
    "import",
    "trace.install",
    "database.build",
    "database.load",
    "database",
    "plan",
    "campaign",
    "simulator",
    "managers",
    "global_opt",
    "local_opt",
    "results.write",
    "results.read",
    "attest.write",
    "attest.read",
    "stats.qos_study",
    "render",
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise KeyError(name)


def _replace_function(module_name: str, attr: str, make: Callable) -> None:
    """Swap ``module.attr`` for ``make(original)`` in every repro module
    that holds the original under that name."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapped = make(original)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if (name == "repro" or name.startswith("repro.")) and (
            mod.__dict__.get(attr) is original
        ):
            setattr(mod, attr, wrapped)


def _replace_method(cls: type, attr: str, make: Callable) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def _subclasses(cls: type) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points (call once, before ``main``)."""
    from repro.atd.mlp import MLPCounterArray
    from repro.campaign import executor
    from repro.campaign.executor import Campaign
    from repro.campaign.results import result_cache_dir
    from repro.core.global_opt import ReductionTree
    from repro.core.local_opt import LocalOptKernel
    from repro.core.managers import ResourceManager
    from repro.experiments import runner
    from repro.simulator.rmsim import MulticoreRMSimulator

    def span(name: str, tag: Optional[Callable] = None) -> Callable:
        return lambda fn: rec.wrap(name, fn, tag)

    _replace_function("repro.campaign.database", "get_database", span("database"))
    _replace_function("repro.database.builder", "build_database", span("database.build"))
    _replace_function("repro.database.store", "load_cached_database", span("database.load"))

    _replace_function("repro.experiments.runner", "plan_all", span("plan"))
    _replace_method(Campaign, "add", span("plan"))
    _replace_method(Campaign, "run", span("campaign"))

    _replace_method(
        MulticoreRMSimulator,
        "run",
        span("simulator", lambda sim, *a, **k: f"c{sim.db.system.n_cores}"),
    )
    for cls in _subclasses(ResourceManager):
        if "observe" in cls.__dict__:
            _replace_method(cls, "observe", span("managers"))
    _replace_method(ReductionTree, "update", span("global_opt"))
    _replace_method(ReductionTree, "solve", span("global_opt"))
    _replace_function("repro.core.global_opt", "partition_ways", span("global_opt"))
    _replace_function("repro.core.local_opt", "optimize_local", span("local_opt"))
    _replace_function("repro.core.local_opt", "optimize_local_batch", span("local_opt"))
    _replace_method(LocalOptKernel, "run", span("local_opt"))

    def store_with_bytes(fn: Callable) -> Callable:
        def store_result(fingerprint, result, spec=None):
            out = fn(fingerprint, result, spec=spec)
            root = result_cache_dir()
            if root is not None:
                path = Path(root) / f"{fingerprint}.json"
                if path.exists():
                    rec.add("results.bytes_written", path.stat().st_size)
            return out

        return rec.wrap("results.write", store_result)

    def read_with_hits(fn: Callable) -> Callable:
        def cached_result(fingerprint):
            hit = fn(fingerprint)
            if hit is not None:
                rec.add("results.read_hits")
            return hit

        return rec.wrap("results.read", cached_result)

    _replace_function("repro.campaign.results", "store_result", store_with_bytes)
    _replace_function("repro.campaign.results", "cached_result", read_with_hits)
    _replace_function("repro.campaign.attest", "write_attestation", span("attest.write"))
    _replace_function("repro.campaign.attest", "read_attestation", span("attest.read"))

    for name, module in runner._registry().items():
        module.render = rec.wrap(f"render.{name}", module.render)
        module.specs = rec.wrap("plan", module.specs)

    _replace_method(MLPCounterArray, "observe", lambda fn: rec.count("atd.observe_calls", fn))
    _replace_method(
        MLPCounterArray, "observe_many", lambda fn: rec.count("atd.observe_many_calls", fn)
    )
    _replace_function(
        "repro.microarch.leading",
        "leading_miss_matrix",
        lambda fn: rec.count("leading.matrix_calls", fn),
    )
    _replace_function("repro.analysis.stats", "qos_violation_study", span("stats.qos_study"))

    # Pool workers are forked with these wrappers in place; each flushes
    # its spans after every task it finishes.
    task = executor._execute_task

    def _execute_task(spec):
        try:
            return task(spec)
        finally:
            rec.flush()

    _execute_task.__qualname__ = task.__qualname__
    _execute_task.__module__ = task.__module__
    executor._execute_task = _execute_task
