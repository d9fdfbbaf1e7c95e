"""System configuration: Table I of the paper, plus reproduction scaling knobs.

This module is the single source of truth for the architectural parameters
used across the whole library.  Everything is expressed with frozen
dataclasses so a configuration can be hashed, compared and safely shared
between the database builder, the resource managers and the simulator.

Paper reference (Table I, "Baseline configuration"):

===========  =====================================================
Core         out-of-order, Pentium-M-style branch predictor
             issue width 8/4/2, ROB 256/128/64, RS 128/64/16,
             LSQ 64/32/10 for sizes L/M/S
Cache        64 B blocks, LRU; L1-I/D 32 KB 4-way private,
             L2 256 KB 8-way private, L3 shared 2 MB x cores,
             8-way x cores, per-core allocation 2..16 ways
DRAM         100 ns base latency, 5 GB/s per core
DVFS         per-core domain, baseline 2 GHz / 1 V,
             range 1.0-3.25 GHz / 0.8-1.25 V; global uncore 2 GHz
===========  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from typing import Mapping, Sequence, Tuple

__all__ = [
    "CoreSize",
    "CoreParams",
    "CORE_PARAMS",
    "DVFSConfig",
    "CacheConfig",
    "MemoryConfig",
    "PowerConfig",
    "ScaleConfig",
    "SystemConfig",
    "BaselineSetting",
    "Setting",
    "default_system",
]


class CoreSize(IntEnum):
    """The three micro-architectural core sizes of the paper (Section III).

    The integer values order the sizes by capability; ``CoreSize.M`` is the
    baseline configuration.  The paper's adaptive core deactivates sections of
    the issue queue, ROB, LSQ and functional units to move between sizes.
    """

    S = 0
    M = 1
    L = 2

    @property
    def label(self) -> str:
        return self.name

    @classmethod
    def all(cls) -> Tuple["CoreSize", ...]:
        return (cls.S, cls.M, cls.L)


@dataclass(frozen=True, slots=True)
class CoreParams:
    """Micro-architectural parameters for one core size (Table I).

    Attributes
    ----------
    issue_width:
        Maximum instructions dispatched per cycle (``D(c)`` in Eq. 1).
    rob:
        Re-order buffer entries; the instruction window used by the
        MLP estimation heuristic (Fig. 4).
    rs:
        Reservation-station entries.
    lsq:
        Load/store queue entries.
    """

    size: CoreSize
    issue_width: int
    rob: int
    rs: int
    lsq: int

    def __post_init__(self) -> None:
        if self.issue_width <= 0 or self.rob <= 0 or self.rs <= 0 or self.lsq <= 0:
            raise ValueError("core parameters must be positive")


#: Table I core size parameters, keyed by :class:`CoreSize`.
CORE_PARAMS: Mapping[CoreSize, CoreParams] = {
    CoreSize.S: CoreParams(CoreSize.S, issue_width=2, rob=64, rs=16, lsq=10),
    CoreSize.M: CoreParams(CoreSize.M, issue_width=4, rob=128, rs=64, lsq=32),
    CoreSize.L: CoreParams(CoreSize.L, issue_width=8, rob=256, rs=128, lsq=64),
}


@dataclass(frozen=True)
class DVFSConfig:
    """Per-core DVFS domain: the discrete frequency ladder and the V(f) map.

    Table I gives a 1.0-3.25 GHz range at 0.8-1.25 V with a 2 GHz / 1 V
    baseline.  We use a uniform frequency ladder and a linear V(f) relation
    that passes through the published endpoints; this mirrors the
    voltage/frequency tables of commercial parts closely enough for the
    quadratic-energy argument of the paper to hold.
    """

    f_min_ghz: float = 1.0
    f_max_ghz: float = 3.25
    f_step_ghz: float = 0.25
    v_min: float = 0.8
    v_max: float = 1.25
    f_base_ghz: float = 2.0
    #: DVFS transition cost, from Park et al. (Samsung Exynos 4210)
    #: as cited in Section III-E of the paper.
    transition_time_s: float = 15e-6
    transition_energy_j: float = 3e-6

    @lru_cache(maxsize=None)
    def frequencies_ghz(self) -> Tuple[float, ...]:
        """The discrete ladder, ascending, inclusive of both endpoints.

        Memoised on the (frozen, hashable) config — the optimiser hot
        paths rebuild this ladder on every invocation otherwise.
        """
        n = int(round((self.f_max_ghz - self.f_min_ghz) / self.f_step_ghz)) + 1
        return tuple(round(self.f_min_ghz + i * self.f_step_ghz, 6) for i in range(n))

    def voltage(self, f_ghz: float) -> float:
        """Linear V(f) interpolation through the Table I endpoints.

        Frequencies outside the ladder raise ``ValueError`` so silent
        extrapolation cannot skew the quadratic-energy trade-off.
        """
        if not (self.f_min_ghz - 1e-9 <= f_ghz <= self.f_max_ghz + 1e-9):
            raise ValueError(
                f"frequency {f_ghz} GHz outside DVFS range "
                f"[{self.f_min_ghz}, {self.f_max_ghz}]"
            )
        t = (f_ghz - self.f_min_ghz) / (self.f_max_ghz - self.f_min_ghz)
        return self.v_min + t * (self.v_max - self.v_min)

    @property
    def v_base(self) -> float:
        return self.voltage(self.f_base_ghz)

    @lru_cache(maxsize=None)
    def index_of(self, f_ghz: float) -> int:
        """Position of ``f_ghz`` on the ladder (exact match required)."""
        ladder = self.frequencies_ghz()
        for i, f in enumerate(ladder):
            if math.isclose(f, f_ghz, rel_tol=0.0, abs_tol=1e-9):
                return i
        raise ValueError(f"{f_ghz} GHz is not on the DVFS ladder {ladder}")


@dataclass(frozen=True)
class CacheConfig:
    """Shared-LLC geometry and partitioning limits (Table I).

    The LLC scales with the core count: 2 MB and 8 ways per core.  The
    resource manager may assign each core between ``w_min`` and ``w_max``
    ways; the ATD monitors all ``w_max`` candidate allocations.
    """

    block_bytes: int = 64
    l1_kb: int = 32
    l1_assoc: int = 4
    l2_kb: int = 256
    l2_assoc: int = 8
    llc_mb_per_core: int = 2
    llc_ways_per_core: int = 8
    w_min: int = 2
    w_max: int = 16
    #: ATD samples one in ``atd_sample`` sets (UCP-style dynamic set sampling).
    atd_sample: int = 32

    def total_ways(self, n_cores: int) -> int:
        """Total LLC associativity ``A`` for an ``n_cores`` system."""
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        return self.llc_ways_per_core * n_cores

    def baseline_ways(self, n_cores: int) -> int:
        """Per-core baseline allocation: the even split (8 ways)."""
        del n_cores  # even split is per-core constant in the paper
        return self.llc_ways_per_core

    def way_kb(self) -> int:
        """Capacity of a single way in KiB (256 KB in Table I terms)."""
        return self.llc_mb_per_core * 1024 // self.llc_ways_per_core

    def feasible(self, ways: Sequence[int], n_cores: int) -> bool:
        """Whether a partition vector satisfies the budget and bounds."""
        if len(ways) != n_cores:
            return False
        if sum(ways) != self.total_ways(n_cores):
            return False
        return all(self.w_min <= w <= self.w_max for w in ways)


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM timing and energy (Table I plus Section III-D constants)."""

    base_latency_ns: float = 100.0
    bandwidth_gbps_per_core: float = 5.0
    #: Energy of one DRAM access (row of Eq. 5); a typical DDR figure.
    access_energy_nj: float = 20.0

    @property
    def base_latency_s(self) -> float:
        return self.base_latency_ns * 1e-9


@dataclass(frozen=True)
class PowerConfig:
    """Parametric McPAT-like power model constants (Section III-D).

    The model separates core power into a dynamic part, proportional to
    ``V^2 * f`` and to per-instruction switched capacitance that grows with
    core size, and a static part that grows with both core size (more
    powered-on structures) and voltage.  The size factors express the
    paper's argument: core-size energy cost is roughly linear, while DVFS
    cost is quadratic in V.

    ``dyn_epi_nj`` is dynamic energy per instruction at the baseline
    voltage/frequency for core size M; ``dyn_size_factor`` scales it per
    size.  ``static_w`` is static power at 1 V for size M.
    """

    dyn_epi_nj: float = 0.9
    dyn_size_factor: Mapping[CoreSize, float] = field(
        default_factory=lambda: {CoreSize.S: 0.88, CoreSize.M: 1.0, CoreSize.L: 1.10}
    )
    static_w: float = 0.45
    static_size_factor: Mapping[CoreSize, float] = field(
        default_factory=lambda: {CoreSize.S: 0.65, CoreSize.M: 1.0, CoreSize.L: 1.50}
    )
    #: Static power voltage exponent (leakage rises superlinearly with V).
    static_v_exp: float = 1.8
    #: Uncore (LLC + NoC) power per core slice at the global 2 GHz domain.
    uncore_w_per_core: float = 0.45
    #: Dynamic LLC energy per access.
    llc_access_energy_nj: float = 1.1


@dataclass(frozen=True)
class ScaleConfig:
    """Reproduction scaling constants (Section 5 of DESIGN.md).

    The paper uses 100M-instruction intervals and a 4146B-instruction
    horizon.  We keep the *nominal* interval at 100M instructions so every
    overhead ratio (0.1% RM instructions, 0.06% DVFS switch) is identical,
    but represent each interval by a sampled synthetic trace.  The
    ``trace_scale`` factor converts sampled event counts back to nominal.
    """

    interval_instructions: int = 100_000_000
    #: Number of LLC accesses synthesised per interval trace sample.
    sample_llc_accesses: int = 16_384
    #: Default number of intervals per application (before phase repetition).
    app_intervals: int = 32

    def __post_init__(self) -> None:
        if self.interval_instructions < 1:
            raise ValueError("interval_instructions must be >= 1")
        if self.sample_llc_accesses < 1:
            raise ValueError("sample_llc_accesses must be >= 1")

    def trace_scale(self, llc_apki: float) -> float:
        """Events-per-sample -> events-per-interval multiplier.

        Parameters
        ----------
        llc_apki:
            LLC accesses per kilo-instruction of the phase being sampled.
        """
        nominal_accesses = self.interval_instructions * llc_apki / 1000.0
        if nominal_accesses <= 0:
            return 0.0
        return nominal_accesses / float(self.sample_llc_accesses)


@dataclass(frozen=True)
class SystemConfig:
    """Complete system description used by every subsystem."""

    n_cores: int = 4
    dvfs: DVFSConfig = field(default_factory=DVFSConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    scale: ScaleConfig = field(default_factory=ScaleConfig)
    #: QoS relaxation parameter alpha of Eq. 3 (fixed to 1 in the paper).
    qos_alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if self.qos_alpha <= 0:
            raise ValueError("qos_alpha must be positive")

    @property
    def total_ways(self) -> int:
        return self.cache.total_ways(self.n_cores)

    def baseline_setting(self) -> "Setting":
        """The paper's fixed baseline: M core, 2 GHz, even LLC split."""
        return Setting(
            core=CoreSize.M,
            f_ghz=self.dvfs.f_base_ghz,
            ways=self.cache.baseline_ways(self.n_cores),
        )

    def candidate_ways(self) -> Tuple[int, ...]:
        """Way counts a single core may be assigned by the RM."""
        return tuple(range(self.cache.w_min, self.cache.w_max + 1))

    def candidate_frequencies(self) -> Tuple[float, ...]:
        return self.dvfs.frequencies_ghz()


@dataclass(frozen=True, slots=True)
class Setting:
    """A per-core resource setting: the (c, f, w) triple of the paper."""

    core: CoreSize
    f_ghz: float
    ways: int

    def __post_init__(self) -> None:
        if self.f_ghz <= 0:
            raise ValueError("frequency must be positive")
        if self.ways < 1:
            raise ValueError("ways must be >= 1")

    def replace(self, **kwargs) -> "Setting":
        data = {"core": self.core, "f_ghz": self.f_ghz, "ways": self.ways}
        data.update(kwargs)
        return Setting(**data)


#: Convenience alias used in docs: the baseline (c_b, f_b, w_b) of Eq. 3.
BaselineSetting = Setting


def default_system(n_cores: int = 4) -> SystemConfig:
    """A :class:`SystemConfig` with all Table I defaults."""
    return SystemConfig(n_cores=n_cores)
