"""Content-addressed artifact cache for pipeline stage outputs.

The fleet orchestrator re-runs the Seagull pipeline over many (region,
week) extracts on every scheduling cycle, but most extracts do not change
between cycles.  The artifact store persists the expensive stage outputs
(extracted features, fitted-model predictions, accuracy evaluations, whole
unit outcomes) keyed by a *content hash* of the stage inputs, so a re-run
on identical input skips the computation entirely.

Keys are ``sha256(stage || input content hash || canonical parameter
JSON)``: any change to the extract content or to a parameter that feeds
the stage produces a different key, i.e. cache invalidation is structural
rather than time-based.  Entries carry a checksum over their payload;
entries that fail to decode or whose checksum mismatches (partial writes,
bit rot, manual edits) are treated as misses, evicted and recomputed --
the cache can never poison a run.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.storage.documentdb import DocumentStore

#: Default container name artifacts live in inside the document store.
ARTIFACTS_CONTAINER = "seagull_artifacts"

#: Version of the cache entry envelope; bump to invalidate all entries.
_ENVELOPE_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` deterministically (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def content_digest(data: bytes | str) -> str:
    """Hex sha256 digest of raw content."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def artifact_key(stage: str, input_hash: str, params: Mapping[str, Any]) -> str:
    """Build the cache key for one stage invocation.

    ``input_hash`` is the content hash of the stage's data input (for
    pipeline stages, :meth:`repro.timeseries.frame.LoadFrame.content_hash`;
    for unit outcomes, the raw extract fingerprint) and ``params`` are the
    configuration values the stage's output depends on.
    """
    material = canonical_json(
        {"stage": stage, "input": input_hash, "params": dict(params), "v": _ENVELOPE_VERSION}
    )
    return f"{stage}-{content_digest(material)}"


def open_backing_store(path: str | Path) -> DocumentStore:
    """Open the document store an artifact cache persists to at ``path``.

    An unreadable file (truncated write, manual edit) is moved aside and
    the store starts empty: a corrupt cache means recomputation, never a
    crash.  Opening writes nothing, so a caller can build its
    :class:`ArtifactStore` inside :meth:`DocumentStore.batch` and have the
    container create share the batch's single write.
    """
    path = Path(path)
    try:
        return DocumentStore(path)
    except (ValueError, OSError, KeyError, TypeError):
        quarantined = path.with_suffix(path.suffix + ".corrupt")
        try:
            path.replace(quarantined)
        except OSError:
            path.unlink(missing_ok=True)
        return DocumentStore(path)


@dataclass
class ArtifactCacheStats:
    """Hit/miss counters of one :class:`ArtifactStore`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt_entries: int = 0
    failed_evictions: int = 0
    hits_by_stage: dict[str, int] = field(default_factory=dict)
    misses_by_stage: dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt_entries": self.corrupt_entries,
            "failed_evictions": self.failed_evictions,
            "hit_rate": self.hit_rate,
            "hits_by_stage": dict(self.hits_by_stage),
            "misses_by_stage": dict(self.misses_by_stage),
        }


class ArtifactStore:
    """Keyed artifact cache backed by a :class:`DocumentStore`.

    Parameters
    ----------
    store:
        Backing document store; in-memory by default, file-persisted when
        the store was opened with a path (which is what makes warm re-runs
        across processes possible).
    container:
        Container name to keep artifacts in.
    """

    def __init__(
        self,
        store: DocumentStore | None = None,
        container: str = ARTIFACTS_CONTAINER,
    ) -> None:
        self._store = store if store is not None else DocumentStore()
        self._container = container
        self._store.create_container(container)
        self._stats = ArtifactCacheStats()

    @classmethod
    def at(cls, path: str | Path, container: str = ARTIFACTS_CONTAINER) -> "ArtifactStore":
        """Open a file-persisted artifact store at ``path`` (see
        :func:`open_backing_store` for what happens to an unreadable file)."""
        return cls(open_backing_store(path), container)

    @property
    def stats(self) -> ArtifactCacheStats:
        return self._stats

    # ------------------------------------------------------------------ #
    # Lookup / insert
    # ------------------------------------------------------------------ #

    @staticmethod
    def _stage_of(key: str) -> str:
        return key.rsplit("-", 1)[0]

    def get(self, key: str) -> dict[str, Any] | None:
        """Return the cached payload for ``key``, or ``None`` on a miss.

        Undecodable or checksum-mismatching entries count as misses (and
        are evicted) so a corrupt cache degrades to recomputation instead
        of crashing or silently returning bad data.
        """
        stage = self._stage_of(key)
        try:
            document = self._store.try_get(self._container, key)
        except Exception:
            document = None
        if document is None:
            self._miss(stage)
            return None
        payload = self._decode(document.body)
        if payload is None:
            self._stats.corrupt_entries += 1
            try:
                self._store.delete(self._container, key)
            except Exception:
                # The entry stays corrupt on disk; record that eviction
                # failed so the degradation is observable in stats.
                self._stats.failed_evictions += 1
            self._miss(stage)
            return None
        self._stats.hits += 1
        self._stats.hits_by_stage[stage] = self._stats.hits_by_stage.get(stage, 0) + 1
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store ``payload`` under ``key`` with an integrity checksum."""
        body = {
            "v": _ENVELOPE_VERSION,
            "checksum": content_digest(canonical_json(dict(payload))),
            "payload": dict(payload),
        }
        self._store.upsert(self._container, key, body)
        self._stats.puts += 1

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        return self._store.delete(self._container, key)

    def clear(self) -> None:
        """Drop every cached artifact (stats are kept)."""
        self._store.drop_container(self._container)
        self._store.create_container(self._container)

    def __len__(self) -> int:
        return self._store.count(self._container)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _miss(self, stage: str) -> None:
        self._stats.misses += 1
        self._stats.misses_by_stage[stage] = self._stats.misses_by_stage.get(stage, 0) + 1

    @staticmethod
    def _decode(body: Mapping[str, Any]) -> dict[str, Any] | None:
        try:
            if int(body["v"]) != _ENVELOPE_VERSION:
                return None
            payload = body["payload"]
            checksum = body["checksum"]
            if not isinstance(payload, Mapping):
                return None
            payload = dict(payload)
            if content_digest(canonical_json(payload)) != checksum:
                return None
            return payload
        except Exception:
            return None
