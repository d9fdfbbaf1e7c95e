"""The one settings object: defaults, parsers, clamps, fail-fast
resolution, and the guard that keeps every ``REPRO_*`` read in it."""

from __future__ import annotations

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.campaign import executor as campaign_executor
from repro.campaign.executor import run_campaign
from repro.campaign.spec import RunSpec
from repro.settings import DEFAULT_CACHE_DIR, Settings

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

ENV = {f.name: f.metadata["env"] for f in fields(Settings)}

#: Knobs that became module constants; no variable of these names exists.
RETIRED = (
    "REPRO_SPEC_RETRIES",
    "REPRO_RETRY_BACKOFF",
    "REPRO_POOL_FAILURES",
    "REPRO_STRAGGLER_FACTOR",
    "REPRO_SUSPECT_STRIKES",
)


@pytest.fixture
def clean_env(monkeypatch):
    for name in ENV.values():
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_defaults(clean_env):
    assert Settings.from_env() == Settings(
        result_cache=None,
        result_cache_max_mb=None,
        verify_reads=True,
        local_memo=None,
        local_memo_max_mb=None,
        cache_dir=DEFAULT_CACHE_DIR,
        no_cache=False,
        no_native=False,
        sim_wave="step",
        campaign_workers=None,
        build_workers=None,
        spec_timeout=None,
        remote=False,
        remote_workers=None,
        lease_ttl=30.0,
        lease_batch=4,
        remote_grace=5.0,
        remote_tick=0.2,
        worker_id=None,
        fault_plan=None,
        fault_ledger=None,
    )
    assert DEFAULT_CACHE_DIR == ROOT / ".cache" / "repro-db"


def test_every_field_has_a_distinct_variable():
    names = list(ENV.values())
    assert len(set(names)) == len(names)
    assert all(name.startswith("REPRO_") for name in names)
    assert not set(names) & set(RETIRED)


@pytest.mark.parametrize(
    "field, raw",
    [
        ("lease_ttl", "soon"),  # number
        ("lease_batch", "2.5"),  # integer
        ("campaign_workers", "many"),  # optional integer
        ("result_cache_max_mb", "256MB"),  # MiB cap
        ("spec_timeout", "forever"),  # MiB-cap parser reused: off when <= 0
        ("remote", "maybe"),  # flag
        ("no_native", "2"),  # flag
    ],
)
def test_malformed_value_names_the_variable(clean_env, field, raw):
    clean_env.setenv(ENV[field], raw)
    with pytest.raises(ValueError, match=ENV[field]):
        Settings.from_env()
    clean_env.delenv(ENV[field])
    Settings.from_env()  # errors are not memoised


def test_malformed_path_names_the_variable(clean_env, tmp_path):
    file = tmp_path / "not-a-dir"
    file.write_text("x")
    clean_env.setenv("REPRO_RESULT_CACHE", str(file))
    with pytest.raises(ValueError, match="REPRO_RESULT_CACHE"):
        Settings.from_env()
    clean_env.setenv("REPRO_RESULT_CACHE", str(tmp_path / "fresh"))
    assert Settings.from_env().result_cache == tmp_path / "fresh"


@pytest.mark.parametrize(
    "field, raw, expected",
    [
        ("lease_ttl", "0", 0.1),
        ("lease_ttl", "-4", 0.1),
        ("lease_batch", "0", 1),
        ("remote_tick", "0.001", 0.01),
        ("remote_grace", "-1", 0.0),
        ("remote_workers", "-3", 0),
        ("spec_timeout", "0", None),
        ("spec_timeout", "-2", None),
        ("result_cache_max_mb", "0", None),
        ("local_memo_max_mb", "-1", None),
        # Values inside the bounds pass through unchanged.
        ("lease_ttl", "2.5", 2.5),
        ("remote_workers", "0", 0),
        ("spec_timeout", "20", 20.0),
    ],
)
def test_clamps(clean_env, field, raw, expected):
    clean_env.setenv(ENV[field], raw)
    assert getattr(Settings.from_env(), field) == expected


@pytest.mark.parametrize(
    "raw, expected",
    [("1", True), ("TRUE", True), (" yes ", True), ("on", True),
     ("0", False), ("false", False), ("No", False), ("off", False),
     ("", True)],
)
def test_flag_words(clean_env, raw, expected):
    clean_env.setenv("REPRO_VERIFY_READS", raw)
    assert Settings.from_env().verify_reads is expected


def test_changes_are_seen_by_the_next_call(clean_env, tmp_path):
    assert Settings.from_env().local_memo is None
    clean_env.setenv("REPRO_LOCAL_MEMO", str(tmp_path))
    assert Settings.from_env().local_memo == tmp_path


def test_malformed_lease_ttl_fails_before_simulating(clean_env):
    """Every knob resolves at the top of ``Campaign.run``, so a fabric
    knob fails a campaign even when the fabric is not in use."""
    clean_env.setenv("REPRO_LEASE_TTL", "soon")
    simulated = []
    clean_env.setattr(
        campaign_executor, "_simulate", lambda spec: simulated.append(spec)
    )
    spec = RunSpec(
        n_cores=2, seed=7, rm_kind="idle", model=None,
        apps=("mcf", "gamess"), horizon_intervals=4,
    )
    with pytest.raises(ValueError, match="REPRO_LEASE_TTL"):
        run_campaign([spec])
    assert simulated == []


# ---------------------------------------------------------------------------
# Guard: only repro/settings.py reads REPRO_* variables.
# ---------------------------------------------------------------------------

#: (module, function) pairs allowed to read a ``REPRO_*`` variable: the
#: benchmark's save-and-restore of the local memo around its timed runs.
_EXEMPT = {("bench.py", "measure_simloop")}


def _is_environ(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _constants() -> dict:
    """Module-level ``NAME = "REPRO_..."`` constants across the package."""
    found = {}
    for path in SRC.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        found[target.id] = node.value.value
    return found


def _names_repro(key: ast.AST, constants: dict) -> bool:
    """Whether a key expression may name a ``REPRO_*`` variable (keys
    the scan cannot resolve count as reads, to stay conservative)."""
    if isinstance(key, ast.Constant):
        return str(key.value).startswith("REPRO_")
    name = key.id if isinstance(key, ast.Name) else getattr(key, "attr", None)
    if name in constants:
        return constants[name].startswith("REPRO_")
    return True


def _env_reads(tree: ast.AST, constants: dict):
    """Yield (line, function) for every read of a REPRO_* variable."""
    parents = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent

    def function_of(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return None

    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and _is_environ(func.value)
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr == "getenv"
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            ):
                key = node.args[0]
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            if any(_is_environ(c) for c in node.comparators):
                key = node.left
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and _is_environ(node.value)
        ):
            key = node.slice
        if key is not None and _names_repro(key, constants):
            yield node.lineno, function_of(node)


def test_only_settings_reads_repro_variables():
    constants = _constants()
    offenders = []
    exempted = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "settings.py":
            continue
        for line, func in _env_reads(ast.parse(path.read_text()), constants):
            if (rel, func) in _EXEMPT:
                exempted.add((rel, func))
            else:
                offenders.append(f"{rel}:{line} ({func})")
    assert offenders == []
    assert exempted == _EXEMPT  # a stale exemption must be dropped


def test_guard_catches_each_read_form():
    constants = {"PLAN_ENV": "REPRO_FAULT_PLAN", "HOME_ENV": "HOME"}
    source = (
        "import os\n"
        "def f(k):\n"
        "    os.environ.get('REPRO_X')\n"
        "    os.getenv('REPRO_Y')\n"
        "    'REPRO_Z' in os.environ\n"
        "    os.environ[PLAN_ENV]\n"
        "    os.environ[k]\n"
        "    os.environ['REPRO_W'] = '1'\n"
        "    os.environ.get(HOME_ENV)\n"
        "    os.environ.get('PATH')\n"
    )
    lines = [line for line, _ in _env_reads(ast.parse(source), constants)]
    assert sorted(lines) == [3, 4, 5, 6, 7]


def test_readme_knob_table_matches_settings():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Settings (every `REPRO_*` knob)", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {
        m.group(1): m.group(2)
        for m in re.finditer(r"^\| `(\w+)` \| `(REPRO_\w+)` \|", section, re.M)
    }
    assert rows == ENV
    for name in RETIRED:
        assert name not in readme
