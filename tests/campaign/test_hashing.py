"""Tests for repro.campaign.hashing — content-addressed cache keys."""

import subprocess
import sys

import pytest

from repro.campaign.hashing import (
    alone_key,
    canonicalize,
    config_fingerprint,
    point_key,
    stable_hash,
)
from repro.config import SimConfig
from repro.config import TCMParams
from repro.workloads.mixes import Workload
from repro.workloads.spec import benchmark

CFG = SimConfig(run_cycles=50_000)


def workload(name="w"):
    return Workload(name=name, benchmark_names=("mcf", "povray"))


class TestStableHash:
    def test_deterministic(self):
        obj = {"b": [1, 2.5, "x"], "a": {"nested": True}}
        assert stable_hash(obj) == stable_hash(obj)

    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_tuple_list_equivalent(self):
        assert stable_hash((1, 2)) == stable_hash([1, 2])

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    def test_stable_across_processes(self):
        """The key must not depend on per-process hash salting."""
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.campaign.hashing import alone_key, point_key\n"
            "from repro.config import SimConfig\n"
            "from repro.workloads.mixes import Workload\n"
            "from repro.workloads.spec import benchmark\n"
            "cfg = SimConfig(run_cycles=50_000)\n"
            "w = Workload(name='w', benchmark_names=('mcf', 'povray'))\n"
            "print(alone_key(benchmark('mcf'), cfg, 3))\n"
            "print(point_key(w, 'tcm', cfg, 3))\n"
        )

        def run_once():
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True, cwd=".",
            )
            return out.stdout.strip().splitlines()

        first, second = run_once(), run_once()
        assert first == second
        assert first[0] == alone_key(benchmark("mcf"), CFG, 3)
        assert first[1] == point_key(workload(), "tcm", CFG, 3)


class TestAloneKey:
    def test_ignores_num_threads_and_config_seed(self):
        """Core-count sweeps share one alone run per benchmark."""
        spec = benchmark("mcf")
        base = alone_key(spec, CFG, 0)
        assert alone_key(spec, CFG.with_(num_threads=8), 0) == base
        assert alone_key(spec, CFG.with_(seed=99), 0) == base

    def test_sensitive_to_run_seed(self):
        spec = benchmark("mcf")
        assert alone_key(spec, CFG, 0) != alone_key(spec, CFG, 1)

    def test_sensitive_to_other_config_fields(self):
        spec = benchmark("mcf")
        base = alone_key(spec, CFG, 0)
        assert alone_key(spec, CFG.with_(num_channels=2), 0) != base
        assert alone_key(spec, CFG.with_(run_cycles=60_000), 0) != base

    def test_sensitive_to_spec(self):
        assert alone_key(benchmark("mcf"), CFG, 0) != alone_key(
            benchmark("povray"), CFG, 0
        )


class TestPointKey:
    def test_workload_name_irrelevant(self):
        """Same specs under a different mix name: same simulation."""
        assert point_key(workload("a"), "tcm", CFG, 0) == point_key(
            workload("b"), "tcm", CFG, 0
        )

    def test_scheduler_params_config_seed_matter(self):
        base = point_key(workload(), "tcm", CFG, 0)
        assert point_key(workload(), "atlas", CFG, 0) != base
        assert point_key(workload(), "tcm", CFG.with_(num_channels=2), 0) != base
        assert point_key(workload(), "tcm", CFG, 1) != base
        assert (
            point_key(workload(), "tcm", CFG, 0,
                      TCMParams(cluster_thresh=0.1))
            != base
        )

    def test_spec_content_matters(self):
        other = Workload(name="w", benchmark_names=("mcf", "libquantum"))
        assert point_key(workload(), "tcm", CFG, 0) != point_key(
            other, "tcm", CFG, 0
        )


class TestCacheKeyCompleteness:
    """SimConfig.cache_key covers every field automatically."""

    def test_every_simconfig_field_changes_the_key(self):
        import dataclasses

        base = SimConfig()
        for f in dataclasses.fields(SimConfig):
            if f.name == "timings":
                changed = base.with_(
                    timings=dataclasses.replace(base.timings, t_rcd=999)
                )
            elif f.name == "model_writes":
                changed = base.with_(model_writes=not base.model_writes)
            else:
                value = getattr(base, f.name)
                changed = base.with_(**{f.name: value + 1})
            assert changed.cache_key() != base.cache_key(), f.name

    def test_default_keys_are_pinned(self):
        # content hashes address every store and alone-run cache
        # entry: a change to these values orphans every existing store
        assert stable_hash(config_fingerprint(SimConfig())) == \
            "3e35ae9c46baddabf0a7"
        assert point_key(
            Workload(name="w", benchmark_names=("mcf", "gcc")), "tcm",
            SimConfig(), 0,
        ) == "218cb51bbd5ed3fef401"

    def test_cache_key_is_hashable(self):
        assert hash(SimConfig().cache_key()) == hash(SimConfig().cache_key())
