"""Content-addressed on-disk result store for campaigns.

Layout (one directory per store)::

    <root>/
        results.jsonl   append-only record log (source of truth)
        index.json      sidecar: {"file_size": N, "offsets": {key: off}}

Every record is one JSON line::

    {"key": "<hash>", "kind": "point"|"alone"|"failure",
     "payload": {...}, "meta": {...}}

The JSONL file is the source of truth; the sidecar index merely
accelerates reopening.  On open, if the recorded ``file_size`` matches
the actual log size the offsets are trusted; otherwise (crash mid-
write, sidecar missing, log appended by an older process) the log is
rescanned and the index rebuilt.  For one key the **last** record wins,
so a retried point can overwrite its earlier failure record.

Only one process may write a store at a time (the campaign engine);
workers never touch it — they receive cache hints in their task
payloads and return new artifacts for the engine to persist.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, Optional

#: Record kinds understood by the tooling.
KIND_POINT = "point"
KIND_ALONE = "alone"
KIND_FAILURE = "failure"
KIND_SUMMARY = "summary"


class StoreError(RuntimeError):
    """Raised on malformed store contents."""


class CampaignStore:
    """Append-only JSONL store with an in-memory key -> offset index."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.log_path = self.root / "results.jsonl"
        self.index_path = self.root / "index.json"
        self._offsets: Dict[str, int] = {}
        self._kinds: Dict[str, str] = {}
        self._cache: Dict[str, dict] = {}
        self._appender = None
        self._load_index()

    # ------------------------------------------------------------------
    # open/close
    # ------------------------------------------------------------------

    def _load_index(self) -> None:
        size = self.log_path.stat().st_size if self.log_path.exists() else 0
        if self.index_path.exists():
            try:
                data = json.loads(self.index_path.read_text())
                if data.get("file_size") == size:
                    self._offsets = {
                        k: int(v) for k, v in data["offsets"].items()
                    }
                    self._kinds = dict(data.get("kinds", {}))
                    if self._kinds.keys() == self._offsets.keys():
                        return
            except (ValueError, KeyError, TypeError):
                pass  # stale or corrupt sidecar: fall through to rescan
        self._rescan()

    def _rescan(self) -> None:
        self._offsets.clear()
        self._kinds.clear()
        self._cache.clear()
        if not self.log_path.exists():
            return
        with self.log_path.open("rb") as f:
            offset = 0
            for line in f:
                stripped = line.strip()
                if stripped:
                    try:
                        record = json.loads(stripped)
                        key = record["key"]
                    except (ValueError, KeyError) as exc:
                        raise StoreError(
                            f"{self.log_path}: bad record at byte {offset}: "
                            f"{exc}"
                        ) from exc
                    self._offsets[key] = offset
                    self._kinds[key] = record.get("kind", KIND_POINT)
                offset += len(line)
        self.flush_index()

    def flush_index(self) -> None:
        """Write the sidecar index (atomically via rename)."""
        size = self.log_path.stat().st_size if self.log_path.exists() else 0
        tmp = self.index_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(
                {
                    "file_size": size,
                    "offsets": self._offsets,
                    "kinds": self._kinds,
                }
            )
        )
        os.replace(tmp, self.index_path)

    def close(self) -> None:
        if self._appender is not None:
            self._appender.close()
            self._appender = None
        self.flush_index()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._offsets

    def __len__(self) -> int:
        return len(self._offsets)

    def kind(self, key: str) -> Optional[str]:
        """Kind of the latest record under ``key`` (None if absent)."""
        return self._kinds.get(key)

    def get(self, key: str) -> Optional[dict]:
        """Latest record stored under ``key`` (None if absent)."""
        if key in self._cache:
            return self._cache[key]
        offset = self._offsets.get(key)
        if offset is None:
            return None
        if self._appender is not None:
            self._appender.flush()
        with self.log_path.open("rb") as f:
            f.seek(offset)
            record = json.loads(f.readline())
        self._cache[key] = record
        return record

    def keys(self, kind: Optional[str] = None) -> Iterator[str]:
        """All stored keys, optionally restricted to one record kind."""
        for key, k in self._kinds.items():
            if kind is None or k == kind:
                yield key

    def records(self, kind: Optional[str] = None) -> Iterator[dict]:
        """All latest-version records, optionally of one kind."""
        for key in list(self.keys(kind)):
            yield self.get(key)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def put(self, key: str, kind: str, payload: dict,
            meta: Optional[dict] = None) -> None:
        """Append one record and update the in-memory index."""
        record = {"key": key, "kind": kind, "payload": payload,
                  "meta": meta or {}}
        line = json.dumps(record, separators=(",", ":")) + "\n"
        if self._appender is None:
            self._appender = self.log_path.open("a", encoding="utf-8")
        self._appender.seek(0, os.SEEK_END)
        offset = self._appender.tell()
        self._appender.write(line)
        self._appender.flush()
        self._offsets[key] = offset
        self._kinds[key] = kind
        self._cache[key] = record

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite the log keeping only the latest record per key.

        Superseded records (a retried point overwriting its failure, a
        re-run summary, a forced re-run) accumulate as dead lines in the
        append-only log; long-lived stores grow without bound.
        Compaction rewrites the log with each key's winning record, in
        original append order, via a temp file and atomic
        ``os.replace`` — a crash mid-compaction leaves the old log
        intact.  Returns a stats dict.
        """
        if not self.log_path.exists():
            return {
                "records_before": 0, "records_after": 0,
                "superseded": 0, "bytes_before": 0, "bytes_after": 0,
                "bytes_reclaimed": 0,
            }
        if self._appender is not None:
            self._appender.close()
            self._appender = None
        bytes_before = self.log_path.stat().st_size

        records_before = 0
        with self.log_path.open("rb") as f:
            for line in f:
                if line.strip():
                    records_before += 1

        new_offsets: Dict[str, int] = {}
        tmp = self.log_path.with_suffix(".jsonl.tmp")
        with self.log_path.open("rb") as src, tmp.open("wb") as out:
            for key, offset in sorted(self._offsets.items(),
                                      key=lambda kv: kv[1]):
                src.seek(offset)
                line = src.readline()
                if not line.endswith(b"\n"):
                    line += b"\n"
                new_offsets[key] = out.tell()
                out.write(line)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, self.log_path)

        self._offsets = new_offsets
        self._cache.clear()
        self.flush_index()
        bytes_after = self.log_path.stat().st_size
        return {
            "records_before": records_before,
            "records_after": len(new_offsets),
            "superseded": records_before - len(new_offsets),
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "bytes_reclaimed": bytes_before - bytes_after,
        }
