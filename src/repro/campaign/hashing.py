"""Stable, cross-process content hashing of campaign work units.

Every artifact in the campaign store is addressed by a hash of the
inputs that fully determine it: the simulation configuration, the
workload, the scheduler (and its parameters) and the seed.  The hash
must be

* **stable across processes** — Python's builtin ``hash`` is salted
  per interpreter, so keys are built from a SHA-256 of a canonical
  JSON encoding instead;
* **field-complete** — dataclasses are fingerprinted via
  :func:`dataclasses.fields`, so adding a field to ``SimConfig`` (or a
  params dataclass) automatically changes the key and can never
  silently alias old cache entries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Optional

from repro.config import SimConfig
from repro.workloads.mixes import Workload, workload_to_dict
from repro.workloads.spec import BenchmarkSpec

#: Hex digits kept from the SHA-256 digest; 20 hex chars = 80 bits,
#: collision-safe for any campaign size this repo will ever run.
KEY_LENGTH = 20


def canonicalize(obj):
    """Reduce ``obj`` to plain JSON-encodable data, deterministically.

    Dataclasses are expanded field-by-field (recursively), mappings are
    key-sorted by :func:`json.dumps` at encoding time, and tuples decay
    to lists.  Floats rely on ``repr`` round-tripping (shortest
    representation), which is identical across CPython processes.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def stable_hash(obj) -> str:
    """Hex digest of the canonical JSON encoding of ``obj``."""
    payload = json.dumps(
        canonicalize(obj), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:KEY_LENGTH]


def config_fingerprint(config: SimConfig) -> Dict:
    """Field-complete JSON fingerprint of a configuration."""
    return canonicalize(config)


def spec_fingerprint(spec: BenchmarkSpec) -> Dict:
    """Field-complete JSON fingerprint of a benchmark spec."""
    return canonicalize(spec)


def params_fingerprint(params: Optional[object]) -> Optional[Dict]:
    """Fingerprint of a scheduler params dataclass (type + fields)."""
    if params is None:
        return None
    return {"type": type(params).__name__, "fields": canonicalize(params)}


def _alone_config(config: SimConfig) -> SimConfig:
    """Normalise a config for alone-run keying.

    An alone run simulates exactly one thread, so ``num_threads`` is
    irrelevant (``System`` sizes everything off the workload) and the
    explicit seed argument overrides ``config.seed``.  Normalising both
    lets e.g. a core-count sweep (Table 8) share one alone run per
    benchmark instead of recomputing it per core count.
    """
    return config.with_(num_threads=1, seed=0)


def alone_key(spec: BenchmarkSpec, config: SimConfig, seed: int) -> str:
    """Store key of one benchmark's alone-run IPC artifact."""
    return stable_hash(
        {
            "kind": "alone",
            "spec": spec_fingerprint(spec),
            "config": config_fingerprint(_alone_config(config)),
            "seed": seed,
        }
    )


def point_key(
    workload: Workload,
    scheduler: str,
    config: SimConfig,
    seed: int,
    params: Optional[object] = None,
) -> str:
    """Store key of one (workload, scheduler, config, params, seed) point.

    The workload is fingerprinted by its *resolved specs* — two
    workloads listing the same benchmarks (even under different mix
    names) with the same weights are the same simulation.
    """
    data = workload_to_dict(workload)
    data["custom_specs"] = [canonicalize(s) for s in workload.specs]
    data.pop("name", None)
    return stable_hash(
        {
            "kind": "point",
            "workload": data,
            "scheduler": scheduler,
            "params": params_fingerprint(params),
            "config": config_fingerprint(config),
            "seed": seed,
        }
    )
