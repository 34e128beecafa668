"""Tests for the content-addressed result cache and the cache key."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.exec.cache import ResultCache, config_cache_key
from repro.registry import CONFIG_FIELD_KINDS, REGISTRIES
from repro.stats.latency import LatencySummary


def make_result(config=None, latency=42.0):
    config = config if config is not None else SimulationConfig.tiny()
    summary = LatencySummary(
        created=120,
        delivered=120,
        measured=100,
        avg_total_latency=latency,
        avg_network_latency=latency - 3.0,
        std_total_latency=4.5,
        max_total_latency=latency * 2,
        avg_hops=5.25,
        throughput=0.11,
        cycles=4000,
        completion_ratio=1.0,
        saturated=False,
    )
    return SimulationResult(
        config=config, summary=summary, zero_load_latency=29.5, cycles=4000
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_miss_on_empty_cache(cache):
    assert cache.get(SimulationConfig.tiny()) is None
    assert cache.misses == 1 and cache.hits == 0


def test_put_then_get_round_trips_the_result(cache):
    config = SimulationConfig.tiny()
    result = make_result(config)
    path = cache.put(config, result)
    assert path.exists()
    loaded = cache.get(config)
    assert loaded == result
    assert cache.hits == 1 and cache.stores == 1
    assert len(cache) == 1


def test_different_configs_use_different_slots(cache):
    config = SimulationConfig.tiny()
    other = config.variant(normalized_load=0.35)
    assert config_cache_key(config) != config_cache_key(other)
    cache.put(config, make_result(config))
    assert cache.get(other) is None


def test_equal_configs_share_a_key():
    assert config_cache_key(SimulationConfig.tiny()) == config_cache_key(
        SimulationConfig.tiny()
    )


def test_numerically_equal_int_and_float_fields_share_a_key():
    as_int = SimulationConfig.tiny(normalized_load=1, drain_factor=4)
    as_float = SimulationConfig.tiny(normalized_load=1.0, drain_factor=4.0)
    assert as_int == as_float
    assert config_cache_key(as_int) == config_cache_key(as_float)


def test_a_failed_write_leaves_no_temp_file(cache, monkeypatch):
    config = SimulationConfig.tiny()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cache.put(config, make_result(config))
    assert cache.stores == 0
    assert not list(cache.cache_dir.iterdir())


def test_corrupted_file_is_a_miss_and_is_discarded(cache):
    config = SimulationConfig.tiny()
    cache.put(config, make_result(config))
    cache.path_for(config).write_text("{ not json", encoding="utf-8")
    assert cache.get(config) is None
    assert not cache.path_for(config).exists()
    # The slot is usable again afterwards.
    cache.put(config, make_result(config))
    assert cache.get(config) is not None


def test_schema_mismatch_is_a_miss(cache):
    config = SimulationConfig.tiny()
    cache.path_for(config).write_text(json.dumps({"config": {}}), encoding="utf-8")
    assert cache.get(config) is None


def test_stale_entry_for_another_config_is_a_miss(cache):
    config = SimulationConfig.tiny()
    other = config.variant(seed=999)
    # Simulate a corrupted/renamed entry: other config's result under our key.
    cache.path_for(config).write_text(make_result(other).to_json(), encoding="utf-8")
    assert cache.get(config) is None


def test_entry_whose_config_has_an_unknown_key_is_a_miss_and_is_discarded(cache):
    config = SimulationConfig.tiny()
    data = json.loads(make_result(config).to_json())
    data["config"]["retired_knob"] = True
    cache.path_for(config).write_text(json.dumps(data), encoding="utf-8")
    assert cache.get(config) is None
    assert cache.misses == 1 and cache.hits == 0
    assert not cache.path_for(config).exists()


def test_cache_key_changes_with_the_package_version(monkeypatch):
    before = config_cache_key(SimulationConfig.tiny())
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert config_cache_key(SimulationConfig.tiny()) != before


def test_cache_key_is_stable_across_processes():
    """The key must not depend on PYTHONHASHSEED (unlike builtin hash())."""
    config = SimulationConfig.tiny(normalized_load=0.25, seed=7)
    local_key = config_cache_key(config)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    script = (
        "from repro.core.config import SimulationConfig\n"
        "from repro.exec.cache import config_cache_key\n"
        "print(config_cache_key(SimulationConfig.tiny(normalized_load=0.25, seed=7)))\n"
    )
    for hash_seed in ("0", "12345"):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        env["PYTHONHASHSEED"] = hash_seed
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == local_key


# -- format v3+: component provenance in the key -------------------------------------


def test_cache_format_is_v11():
    # v3 added component provenance; v4 added the switch_mode config
    # field and its schedule provenance; v5 added link_mode; v6 added
    # core_mode and its schedule provenance; v7 added the closed-loop
    # workload fields, the drain result block and the flat core default;
    # v8 added the topology and link_delays fields (torus/torus3d
    # support); v9 added replications/seed_stride, the streaming p50/p99
    # summary fields and the replicates result block; v10 removed
    # switch_mode and link_mode again; v11 dropped the core_mode
    # provenance (see CACHE_FORMAT_VERSION docs).
    from repro.exec.cache import CACHE_FORMAT_VERSION

    assert CACHE_FORMAT_VERSION == 11


#: Base of the key-surface tests: a tiny mesh with four VCs, so the
#: torus alternative below is a valid configuration too.
_KEY_BASE = SimulationConfig.tiny()

#: A valid value other than ``_KEY_BASE``'s for every SimulationConfig
#: field.
_KEY_ALTERNATIVES = {
    "mesh_dims": (4, 3),
    "topology": "torus",
    "link_delays": (1, 2),
    "vcs_per_port": 3,
    "buffer_depth": 2,
    "pipeline": "proud",
    "link_delay": 2,
    "credit_delay": 2,
    # The two cores are bit-identical, but their results live in
    # distinct slots so pinned-core studies never serve each other's
    # entries.
    "core_mode": "objects",
    "routing": "dimension-order",
    "table": "full",
    "selector": "lru",
    "traffic": "transpose",
    "normalized_load": 0.3,
    "message_length": 8,
    "injection": "bernoulli",
    "workload": "allreduce",
    "workload_iters": 2,
    "workload_window": 3,
    "workload_layers": 3,
    "workload_hidden": 32,
    "workload_group": 2,
    "workload_compute": 1,
    "workload_trace": "dag.json",
    "warmup_messages": 10,
    "measure_messages": 100,
    "max_cycles": 5_000,
    "drain_factor": 2.0,
    "seed": 2,
    "replications": 2,
    "seed_stride": 2,
}


@pytest.mark.parametrize("field", [spec.name for spec in fields(SimulationConfig)])
def test_every_config_field_feeds_the_key(field):
    # The key hashes the whole configuration, so a field added, removed
    # or re-defaulted moves every affected key without a format bump.
    assert field in _KEY_ALTERNATIVES, f"no alternative value for {field!r}"
    changed = _KEY_BASE.variant(**{field: _KEY_ALTERNATIVES[field]})
    assert getattr(changed, field) != getattr(_KEY_BASE, field)
    assert config_cache_key(changed) != config_cache_key(_KEY_BASE)


@pytest.mark.parametrize("field", sorted(CONFIG_FIELD_KINDS))
def test_every_named_component_feeds_the_key(field, monkeypatch):
    # A plugin registered under a built-in's name computes different
    # results, so the named component's provenance is part of the key.
    config = _KEY_BASE.variant(workload="allreduce")
    before = config_cache_key(config)
    entry = REGISTRIES[CONFIG_FIELD_KINDS[field]].entry(getattr(config, field))
    monkeypatch.setattr(entry, "provenance", "plugin:Replacement")
    assert config_cache_key(config) != before


def _v5_style_key(config):
    """The pre-v6 key derivation: no ``core_mode`` field or provenance."""
    import hashlib

    from repro.registry import config_component_provenance

    config_dict = {
        key: value for key, value in config.to_dict().items() if key != "core_mode"
    }
    components = {
        key: value
        for key, value in config_component_provenance(config).items()
        if key != "core_mode"
    }
    payload = json.dumps(
        {
            "format": 5,
            "version": repro.__version__,
            "config": config_dict,
            "components": components,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_v5_format_entries_are_ignored_not_misread(cache):
    # An entry stored under the v5 key derivation (before configurations
    # had a core_mode) must be invisible to the v6 code: a clean miss,
    # never a misread -- the point is re-simulated under the v6 key.
    config = SimulationConfig.tiny()
    stale = make_result(config, latency=888.0)
    old_path = cache.cache_dir / f"{_v5_style_key(config)}.json"
    old_path.write_text(stale.to_json(), encoding="utf-8")
    assert cache.get(config) is None
    assert cache.misses == 1
    assert old_path.exists()  # never looked at, merely orphaned
    fresh = make_result(config, latency=30.0)
    cache.put(config, fresh)
    assert cache.get(config) == fresh
    assert config_cache_key(config) != _v5_style_key(config)


def _v2_style_key(config):
    """The pre-v3 key derivation: no component provenance in the payload."""
    import hashlib

    payload = json.dumps(
        {"format": 2, "version": repro.__version__, "config": config.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_old_format_entries_are_ignored_not_misread(cache):
    # A valid result stored under the old (v2) key derivation must be
    # invisible to the new code: the lookup is a miss (so the point is
    # re-simulated and stored under the v3 key), never a misread.
    config = SimulationConfig.tiny()
    stale = make_result(config, latency=999.0)
    old_path = cache.cache_dir / f"{_v2_style_key(config)}.json"
    old_path.write_text(stale.to_json(), encoding="utf-8")
    assert cache.get(config) is None
    assert cache.misses == 1
    # The stale file is simply never looked at (different file name).
    assert old_path.exists()
    fresh = make_result(config, latency=31.0)
    cache.put(config, fresh)
    assert cache.get(config) == fresh
    assert config_cache_key(config) != _v2_style_key(config)


def _v4_style_key(config):
    """The pre-v5 key derivation: no ``link_mode`` field or provenance."""
    import hashlib

    from repro.registry import config_component_provenance

    config_dict = {
        key: value for key, value in config.to_dict().items() if key != "link_mode"
    }
    components = {
        key: value
        for key, value in config_component_provenance(config).items()
        if key != "link_mode"
    }
    payload = json.dumps(
        {
            "format": 4,
            "version": repro.__version__,
            "config": config_dict,
            "components": components,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_v4_format_entries_are_ignored_not_misread(cache):
    # An entry stored under the v4 key derivation (before configurations
    # had a link_mode) must be invisible to the v5 code: a clean miss,
    # never a misread -- the point is re-simulated under the v5 key.
    config = SimulationConfig.tiny()
    stale = make_result(config, latency=777.0)
    old_path = cache.cache_dir / f"{_v4_style_key(config)}.json"
    old_path.write_text(stale.to_json(), encoding="utf-8")
    assert cache.get(config) is None
    assert cache.misses == 1
    assert old_path.exists()  # never looked at, merely orphaned
    fresh = make_result(config, latency=30.0)
    cache.put(config, fresh)
    assert cache.get(config) == fresh
    assert config_cache_key(config) != _v4_style_key(config)


def test_component_provenance_feeds_the_key():
    from repro import registry
    from repro.traffic.patterns import TrafficPattern

    config_uniform = SimulationConfig.tiny()

    class FirstImpl(TrafficPattern):
        """Plugin pattern, first implementation."""

        name = "golden-spike"

        def destination(self, source, rng):
            return None

    class SecondImpl(TrafficPattern):
        """Plugin pattern, different implementation under the same name."""

        name = "golden-spike"

        def destination(self, source, rng):
            return 0

    registry.register("traffic", obj=FirstImpl)
    try:
        config = SimulationConfig.tiny(traffic="golden-spike")
        first_key = config_cache_key(config)
        registry.register("traffic", obj=SecondImpl, replace=True)
        second_key = config_cache_key(config)
    finally:
        registry.TRAFFIC_PATTERNS.unregister("golden-spike")
    # Same config dict, different implementations: the keys must differ,
    # and neither may collide with a builtin-only config.
    assert first_key != second_key
    assert config_cache_key(config_uniform) not in (first_key, second_key)


def test_builtin_keys_are_stable_across_processes(tmp_path):
    # PYTHONHASHSEED already covered above; this pins that the component
    # provenance folded into v3 is deterministic too.
    config = SimulationConfig.tiny()
    key_here = config_cache_key(config)
    script = (
        "import sys; sys.path.insert(0, 'src');"
        "from repro.core.config import SimulationConfig;"
        "from repro.exec.cache import config_cache_key;"
        "print(config_cache_key(SimulationConfig.tiny()))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={"PYTHONHASHSEED": "31337", "PATH": os.environ.get("PATH", "")},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == key_here
