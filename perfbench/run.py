"""End-to-end benchmark of the repro CLI, with a traced per-layer breakdown.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload quick-cold --seed 2020 --seconds 40 --trace 0
    python3 perfbench/run.py --workload scaling-full --seed 7 --seconds 40 --trace 1

Every command runs in a fresh process through ``perfbench/shim.py``, in a
hermetic environment under ``.bench_build/perfbench/``.  ``--trace 0``
prints the end-to-end metrics of untraced commands; ``--trace 1`` prints
the per-layer metrics of one traced command and its overhead against an
untraced twin.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from spans import check_metric_name, coverage, layer_totals, load_spans, percentile

BENCH = Path(__file__).resolve().parent
REFERENCES = BENCH / "references.json"

#: Every run ends within this many seconds of starting.
RUN_BUDGET_S = 170.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: CLI arguments; ``--seed`` and ``--csv-dir`` are appended per command.
    argv: Tuple[str, ...]
    #: Give every command an empty result store and local memo of its own;
    #: without, the command runs with neither (the default environment).
    store: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quick-cold", ("all", "--quick", "--workers", "1"), False),
        Workload("scaling-full", ("ext-scaling", "--workers", "2"), True),
    )
}

#: (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("model.energy_saving_pct", "%", "higher"),
    ("model.qos_violation_pct", "%", "lower"),
)

EXPERIMENT_NAMES = (
    "table1", "table2", "fig1", "fig2", "fig6", "fig7", "fig8", "fig9",
    "overheads", "ext-sensitivity", "ext-alpha", "ext-scaling",
    "ext-alpha-scaling",
)
SIM_CORES = (4, 8, 16, 32, 64)
#: Tail percentile of per-run simulation time.  The rule (highest
#: percentile with at least ten samples beyond it) gives p75 for the
#: smallest simulating workload, scaling-full's 80 runs; one name serves
#: every workload so their figures stay comparable.
SPEC_TAIL = 75.0

#: (name, unit, better)
PER_LAYER = (
    ("import.s", "s", "lower"),
    ("database.build_s", "s", "lower"),
    ("database.load_s", "s", "lower"),
    ("database.calls", "count", "lower"),
    ("plan.s", "s", "lower"),
    ("plan.specs_planned", "count", "lower"),
    ("plan.specs_unique", "count", "lower"),
    ("plan.dedupe_ratio", "ratio", "lower"),
    ("campaign.run_s", "s", "lower"),
    ("campaign.self_s", "s", "lower"),
    ("campaign.simulated", "count", "lower"),
    ("campaign.cached", "count", "higher"),
    ("campaign.hit_ratio", "ratio", "higher"),
    ("campaign.retries", "count", "lower"),
    ("campaign.pool_failures", "count", "lower"),
    ("sim_runs_per_s", "1/s", "higher"),
    ("sim_intervals_per_s", "1/s", "higher"),
    ("simulator.busy_s", "s", "lower"),
    ("simulator.self_s", "s", "lower"),
    ("simulator.runs", "count", "lower"),
    ("simulator.spec_ms.p50", "ms", "lower"),
    ("simulator.spec_ms.p75", "ms", "lower"),
    *((f"simulator.busy_s.c{n}", "s", "lower") for n in SIM_CORES),
    ("managers.observe_calls", "count", "lower"),
    ("managers.observe_s", "s", "lower"),
    ("global_opt.calls", "count", "lower"),
    ("global_opt.s", "s", "lower"),
    ("local_opt.calls", "count", "lower"),
    ("local_opt.s", "s", "lower"),
    ("results.writes", "count", "lower"),
    ("results.write_s", "s", "lower"),
    ("results.bytes_written", "B", "lower"),
    ("results.reads", "count", "lower"),
    ("results.read_s", "s", "lower"),
    ("results.read_hit_ratio", "ratio", "higher"),
    ("attest.writes", "count", "lower"),
    ("attest.write_s", "s", "lower"),
    ("attest.reads", "count", "lower"),
    ("attest.read_s", "s", "lower"),
    ("render.s", "s", "lower"),
    *((f"render.{name}_s", "s", "lower") for name in EXPERIMENT_NAMES),
    ("atd.observe_calls", "count", "lower"),
    ("atd.observe_many_calls", "count", "lower"),
    ("leading.matrix_calls", "count", "lower"),
    ("stats.qos_study_calls", "count", "lower"),
    ("stats.qos_study_s", "s", "lower"),
    ("other_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
)


# ---------------------------------------------------------------- processes


@dataclass
class Measured:
    exit: int
    wall_s: float
    rss_mb: float
    record: dict


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_shim(
    root: Path, shim_args: List[str], env: Dict[str, str], d: Path, timeout: float
) -> Measured:
    """Run ``shim.py`` in a fresh process in a session of its own.

    Wall time spans process creation to reaping.  ``ru_maxrss`` from
    ``wait4`` is that of the largest process in the tree the command
    waited for, its pool workers included.  On timeout, or on any error
    here, the whole session is killed.  Output goes to ``d/log.txt``.
    """
    if timeout <= 0:
        raise TimeoutError("run budget exhausted")
    record = d / "record.json"
    with open(d / "log.txt", "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "shim.py"), str(record), *shim_args],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Anything the command left running in its session goes too.
    _kill_group(proc.pid)
    data = json.loads(record.read_text()) if record.exists() else {}
    return Measured(proc.returncode, wall, usage.ru_maxrss / 1024.0, data)


def hermetic_env(**repro_vars: Path) -> Dict[str, str]:
    """The caller's environment without any ``REPRO_*`` knob, plus ours."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env.update({k: str(v) for k, v in repro_vars.items()})
    return env


# ---------------------------------------------------------------- checking


def csv_digests(csv_dir: Path) -> Dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(csv_dir.glob("*.csv"))
    }


def csv_headers(csv_dir: Path) -> Dict[str, str]:
    return {
        p.name: p.read_text().split("\n", 1)[0]
        for p in sorted(csv_dir.glob("*.csv"))
    }


def check_output(
    seed: int,
    measured: Measured,
    csv_dir: Path,
    ref: dict,
    twin: Optional[Tuple[Dict[str, str], dict]] = None,
) -> List[str]:
    """Problems with one command's outputs (empty when correct).

    ``ref`` is the workload's entry in ``references.json``: CSV headers
    and campaign sizes, which hold for every seed, and full CSV digests
    for the recorded seeds.  ``twin`` holds the CSV digests and model
    figures of an earlier correct command of the same run, which must
    repeat exactly.
    """
    if measured.exit != 0 or measured.record.get("exit") != 0:
        return [f"exit status {measured.exit}"]
    problems = []
    if csv_headers(csv_dir) != ref["headers"]:
        problems.append("CSV set or headers differ from the reference")
    campaign = measured.record["campaign"]
    for key in ("planned", "unique"):
        if campaign[key] != ref[key]:
            problems.append(f"campaign {key} {campaign[key]} != {ref[key]}")
    if campaign["simulated"] != campaign["unique"]:
        problems.append(
            f"{campaign['simulated']} of {campaign['unique']} runs simulated"
        )
    digests = csv_digests(csv_dir)
    recorded = ref["digests"].get(str(seed))
    if recorded is not None and digests != recorded:
        bad = sorted(k for k in recorded if digests.get(k) != recorded[k])
        problems.append(f"CSV digests differ from the reference: {bad}")
    if twin is not None:
        if digests != twin[0]:
            problems.append("CSVs differ from an earlier command of this run")
        if measured.record["model"] != twin[1]:
            problems.append("model figures differ from an earlier command")
    return problems


# ----------------------------------------------------------------- metrics


def end_to_end(setups: List[float], reps: List[Measured]) -> Dict[str, float]:
    def med(fn) -> float:
        return statistics.median(fn(m) for m in reps)

    model = reps[0].record["model"]
    return {
        "wall_s": med(lambda m: m.wall_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": med(lambda m: m.rss_mb),
        "model.energy_saving_pct": model["energy_saving_pct"],
        "model.qos_violation_pct": model["qos_violation_pct"],
    }


def _layer_sums(trace_dir: Path):
    """Per-layer (calls, time, self time) summed over processes, plus the
    raw spans, counters and the main process's pid."""
    from layers import layer_of

    by_pid, counts, main_pid = load_spans(trace_dir)
    totals: Dict[str, List[float]] = {}
    for spans in by_pid.values():
        for layer, values in layer_totals(spans, layer_of).items():
            acc = totals.setdefault(layer, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
    return totals, by_pid, counts, main_pid


def per_layer(
    traced: Measured,
    untraced: Measured,
    trace_dir: Path,
    setup_trace_dir: Path,
    failed_frac: float,
) -> Dict[str, float]:
    totals, by_pid, counts, main_pid = _layer_sums(trace_dir)
    setup_totals = _layer_sums(setup_trace_dir)[0]

    def calls(layer: str) -> int:
        return int(totals.get(layer, (0, 0.0, 0.0))[0])

    def seconds(layer: str) -> float:
        return totals.get(layer, (0, 0.0, 0.0))[1]

    def own(layer: str) -> float:
        return totals.get(layer, (0, 0.0, 0.0))[2]

    all_spans = [s for spans in by_pid.values() for s in spans]
    sim_ms = [1000.0 * (s[5] - s[4]) for s in all_spans if s[2] == "simulator"]
    by_cores = {f"c{n}": 0.0 for n in SIM_CORES}
    render = {n: 0.0 for n in EXPERIMENT_NAMES}
    for _sid, _parent, name, tag, t0, t1 in all_spans:
        if name == "simulator" and tag in by_cores:
            by_cores[tag] += t1 - t0
        elif name.startswith("render."):
            render[name[len("render."):]] += t1 - t0
    top_level = [(s[4], s[5]) for s in by_pid.get(main_pid, []) if s[1] == -1]

    campaign = traced.record["campaign"]
    # Throughput comes from the untraced twin: spans inside the
    # simulation would slow the traced Campaign.run.
    plain = untraced.record["campaign"]
    reads = calls("results.read")
    return {
        "import.s": traced.record["import_s"],
        # The measured command only loads the database set-up built; the
        # build itself is timed in the traced set-up.
        "database.build_s": setup_totals.get("database.build", (0, 0.0, 0.0))[2],
        "database.load_s": seconds("database.load"),
        "database.calls": calls("database"),
        "plan.s": seconds("plan"),
        "plan.specs_planned": campaign["planned"],
        "plan.specs_unique": campaign["unique"],
        "plan.dedupe_ratio": campaign["unique"] / campaign["planned"],
        "campaign.run_s": seconds("campaign"),
        "campaign.self_s": own("campaign"),
        "campaign.simulated": campaign["simulated"],
        "campaign.cached": campaign["cached"],
        "campaign.hit_ratio": campaign["cached"] / campaign["unique"],
        "campaign.retries": campaign["retries"],
        "campaign.pool_failures": campaign["pool_failures"],
        "sim_runs_per_s": plain["simulated"] / plain["run_s"],
        "sim_intervals_per_s": plain["intervals"] / plain["run_s"],
        "simulator.busy_s": seconds("simulator"),
        "simulator.self_s": own("simulator"),
        "simulator.runs": calls("simulator"),
        "simulator.spec_ms.p50": percentile(sim_ms, 50.0) if sim_ms else 0.0,
        "simulator.spec_ms.p75": percentile(sim_ms, SPEC_TAIL) if sim_ms else 0.0,
        **{f"simulator.busy_s.{tag}": v for tag, v in by_cores.items()},
        "managers.observe_calls": calls("managers"),
        "managers.observe_s": seconds("managers"),
        "global_opt.calls": calls("global_opt"),
        "global_opt.s": seconds("global_opt"),
        "local_opt.calls": calls("local_opt"),
        "local_opt.s": seconds("local_opt"),
        "results.writes": calls("results.write"),
        "results.write_s": seconds("results.write"),
        "results.bytes_written": counts.get("results.bytes_written", 0),
        "results.reads": reads,
        "results.read_s": seconds("results.read"),
        "results.read_hit_ratio": (
            counts.get("results.read_hits", 0) / reads if reads else 0.0
        ),
        "attest.writes": calls("attest.write"),
        "attest.write_s": seconds("attest.write"),
        "attest.reads": calls("attest.read"),
        "attest.read_s": seconds("attest.read"),
        "render.s": seconds("render"),
        **{f"render.{n}_s": v for n, v in render.items()},
        "atd.observe_calls": counts.get("atd.observe_calls", 0),
        "atd.observe_many_calls": counts.get("atd.observe_many_calls", 0),
        "leading.matrix_calls": counts.get("leading.matrix_calls", 0),
        "stats.qos_study_calls": calls("stats.qos_study"),
        "stats.qos_study_s": seconds("stats.qos_study"),
        "other_s": traced.wall_s - coverage(top_level),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "failed_frac": failed_frac,
    }


# -------------------------------------------------------------------- runs


def context(root: Path, workload: Workload, env_set: Dict[str, str]) -> dict:
    """What a result was measured on, printed beside every result."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            src.update(str(path.relative_to(root)).encode())
            src.update(path.read_bytes())
    return {
        "workload": workload.name,
        "command": ["python", "-m", "repro", *workload.argv],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "event_loop": "step",
        "env_set": env_set,
    }


class Run:
    """One benchmark invocation: set-up, commands, checks and metrics."""

    def __init__(
        self, root: Path, workload: Workload, seed: int, seconds: float, ref: dict
    ):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.ref = ref
        self.t_start = perf_counter()
        self.work = (
            root / ".bench_build" / "perfbench"
            / f"{workload.name}-{seed}-{os.getpid()}"
        )
        self.db: Optional[Path] = None
        self.n_dirs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (perf_counter() - self.t_start)

    def _dir(self, kind: str) -> Path:
        self.n_dirs += 1
        path = self.work / f"{self.n_dirs:02d}-{kind}"
        path.mkdir(parents=True)
        return path

    def setup(self, trace: bool = False) -> Tuple[float, Path]:
        """One set-up into a fresh, empty database directory."""
        d = self._dir("setup")
        args = ["--trace-dir", str(d / "trace")] if trace else []
        m = run_shim(
            self.root, [*args, "setup", str(self.seed)],
            hermetic_env(REPRO_CACHE_DIR=d / "db"), d, self.remaining(),
        )
        if m.exit != 0:
            log = (d / "log.txt").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"set-up failed (exit {m.exit}):\n{log}")
        self.db = d / "db"
        return m.wall_s, d

    def command(self, kind: str, trace: bool = False) -> Tuple[Measured, Path]:
        d = self._dir(kind)
        env = {"REPRO_CACHE_DIR": self.db}
        if self.workload.store:
            env["REPRO_RESULT_CACHE"] = d / "results"
            env["REPRO_LOCAL_MEMO"] = d / "memo"
        args = ["--trace-dir", str(d / "trace")] if trace else []
        m = run_shim(
            self.root,
            [*args, "cli", "--", *self.workload.argv,
             "--seed", str(self.seed), "--csv-dir", str(d / "csv")],
            hermetic_env(**env), d, self.remaining(),
        )
        return m, d

    def checked(
        self,
        m: Measured,
        d: Path,
        twin: Optional[Tuple[Dict[str, str], dict]] = None,
    ) -> bool:
        """Check one measured command; a failure is counted, never timed."""
        self.attempted += 1
        problems = check_output(self.seed, m, d / "csv", self.ref, twin)
        if problems:
            if m.exit != 0:
                # The work directory goes when the run ends: keep the tail.
                problems.append((d / "log.txt").read_text(errors="replace")[-2000:])
            self.failed += 1
            self.problems.extend(f"{d.name}: {p}" for p in problems)
        return not problems

    def untraced(self) -> Dict[str, float]:
        setups = [self.setup()[0] for _ in range(SETUP_REPS)]
        good: List[Measured] = []
        walls: List[float] = []
        twin = None
        deadline = perf_counter() + self.seconds
        # Commands follow one another until the next one would end more
        # than half a command past the deadline, or past the run budget.
        while not walls or (
            perf_counter() + 0.5 * statistics.mean(walls) < deadline
            and self.remaining() > 2.0 * max(walls)
        ):
            m, d = self.command("rep")
            walls.append(m.wall_s)
            if self.checked(m, d, twin):
                good.append(m)
                twin = twin or (csv_digests(d / "csv"), m.record["model"])
        return end_to_end(setups, good) if good else {}

    def traced(self) -> Dict[str, float]:
        _wall, setup_dir = self.setup(trace=True)
        m0, d0 = self.command("untraced")
        if not self.checked(m0, d0):
            return {}
        twin = (csv_digests(d0 / "csv"), m0.record["model"])
        m1, d1 = self.command("traced", trace=True)
        if not self.checked(m1, d1, twin):
            return {}
        return per_layer(
            m1, m0, d1 / "trace", setup_dir / "trace", self.failed / self.attempted
        )


def load_references(workload: str) -> dict:
    return json.loads(REFERENCES.read_text())["workloads"][workload]


def print_result(run: Run, metrics: Dict[str, float], spec) -> None:
    """A readable table, then the result line."""
    for name, unit, better in spec:
        check_metric_name(name)
        if name in metrics:
            print(f"{name:34s} {metrics[name]:>16.6g} {unit:6s} {better} is better")
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _better in spec
            if name in metrics
        },
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running command's session is
    # killed and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: run this from the root of a repro source checkout "
              "(src/repro/cli.py not found)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]
    run = Run(root, workload, args.seed, args.seconds, load_references(workload.name))
    env_set = {"REPRO_CACHE_DIR": "<work>/<n>-setup/db"}
    if workload.store:
        env_set["REPRO_RESULT_CACHE"] = "<work>/<n>-rep/results"
        env_set["REPRO_LOCAL_MEMO"] = "<work>/<n>-rep/memo"
    print(json.dumps({"context": context(root, workload, env_set)}))
    spec = PER_LAYER if args.trace else END_TO_END
    metrics: Dict[str, float] = {}
    try:
        metrics = run.traced() if args.trace else run.untraced()
    except (RuntimeError, TimeoutError) as exc:
        # A set-up or priming failure, or a command that outlived the
        # run budget: the run is reported as incorrect, not as a crash.
        run.attempted += 1
        run.failed += 1
        run.problems.append(str(exc))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print_result(run, metrics, spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
