"""Keyed JSON document store standing in for Cosmos DB.

The Seagull pipeline stores prediction results, accuracy evaluations, model
records and scheduling decisions in Cosmos DB (Section 2.2).  This module
provides a small document database with named containers, upserts, point
reads, predicate queries and optional file persistence -- the subset of
Cosmos DB behaviour the pipeline actually depends on.

A file-backed store rewrites its whole file on every mutation, atomically
(tmp file + ``os.replace``: a crash mid-write leaves the previous file,
never torn JSON).  :meth:`DocumentStore.batch` groups mutations into one
such write.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


class ContainerNotFoundError(KeyError):
    """Raised when an operation references a container that was never created."""


class DocumentNotFoundError(KeyError):
    """Raised on a point read of a document id that does not exist."""


class DocumentConflictError(ValueError):
    """Raised when inserting a document whose id already exists (without upsert)."""


@dataclass(frozen=True)
class Document:
    """A stored document: an id, a body and a monotonically increasing version."""

    id: str
    body: Mapping[str, Any]
    version: int = 1

    def as_dict(self) -> dict[str, Any]:
        return {"id": self.id, "version": self.version, "body": dict(self.body)}


@dataclass
class _Container:
    name: str
    documents: dict[str, Document] = field(default_factory=dict)


class DocumentStore:
    """An in-process document database with optional JSON-file persistence."""

    def __init__(self, path: str | Path | None = None) -> None:
        self._containers: dict[str, _Container] = {}
        self._path = Path(path) if path is not None else None
        self._batch_depth = 0
        self._dirty = False
        if self._path is not None and self._path.exists():
            self._load()

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group mutations into one write.

        Inside the block mutations only mark the store dirty; the
        outermost block's exit persists once -- on the exception path
        too, so whatever was put before the error is kept.  Re-entrant.
        Outside any batch every mutation persists at once.
        """
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._dirty:
                self._persist()

    # ------------------------------------------------------------------ #
    # Container management
    # ------------------------------------------------------------------ #

    def create_container(self, name: str, exist_ok: bool = True) -> None:
        """Create a named container."""
        if name in self._containers:
            if exist_ok:
                return
            raise DocumentConflictError(f"container {name!r} already exists")
        self._containers[name] = _Container(name)
        self._changed()

    def list_containers(self) -> list[str]:
        """Return the names of all containers."""
        return sorted(self._containers)

    def drop_container(self, name: str) -> None:
        """Remove a container and all of its documents."""
        self._containers.pop(name, None)
        self._changed()

    def _container(self, name: str) -> _Container:
        try:
            return self._containers[name]
        except KeyError as exc:
            raise ContainerNotFoundError(f"container {name!r} does not exist") from exc

    # ------------------------------------------------------------------ #
    # Document operations
    # ------------------------------------------------------------------ #

    def insert(self, container: str, doc_id: str, body: Mapping[str, Any]) -> Document:
        """Insert a new document; fails if the id already exists."""
        cont = self._container(container)
        if doc_id in cont.documents:
            raise DocumentConflictError(
                f"document {doc_id!r} already exists in container {container!r}"
            )
        document = Document(id=doc_id, body=dict(body), version=1)
        cont.documents[doc_id] = document
        self._changed()
        return document

    def upsert(self, container: str, doc_id: str, body: Mapping[str, Any]) -> Document:
        """Insert or replace a document, bumping its version on replace."""
        cont = self._container(container)
        existing = cont.documents.get(doc_id)
        version = 1 if existing is None else existing.version + 1
        document = Document(id=doc_id, body=dict(body), version=version)
        cont.documents[doc_id] = document
        self._changed()
        return document

    def get(self, container: str, doc_id: str) -> Document:
        """Point-read a document; raises :class:`DocumentNotFoundError`."""
        cont = self._container(container)
        try:
            return cont.documents[doc_id]
        except KeyError as exc:
            raise DocumentNotFoundError(
                f"document {doc_id!r} not found in container {container!r}"
            ) from exc

    def try_get(self, container: str, doc_id: str) -> Document | None:
        """Point-read returning ``None`` instead of raising when absent."""
        cont = self._container(container)
        return cont.documents.get(doc_id)

    def delete(self, container: str, doc_id: str) -> bool:
        """Delete a document; returns whether it existed."""
        cont = self._container(container)
        existed = cont.documents.pop(doc_id, None) is not None
        self._changed()
        return existed

    def query(
        self,
        container: str,
        predicate: Callable[[Mapping[str, Any]], bool] | None = None,
    ) -> Iterator[Document]:
        """Yield documents whose body satisfies ``predicate`` (all when ``None``)."""
        cont = self._container(container)
        for document in cont.documents.values():
            if predicate is None or predicate(document.body):
                yield document

    def count(self, container: str) -> int:
        """Number of documents in a container."""
        return len(self._container(container).documents)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def _changed(self) -> None:
        if self._batch_depth:
            self._dirty = True
        else:
            self._persist()

    def _persist(self) -> None:
        self._dirty = False
        if self._path is None:
            return
        payload = {
            name: {doc_id: doc.as_dict() for doc_id, doc in cont.documents.items()}
            for name, cont in self._containers.items()
        }
        # Compact separators keep json on its C encoder (indent= forces
        # the pure-Python one, ~3x slower on a full cache file).
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True, default=str)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        # Per-process tmp name: two processes persisting the same path
        # never write into each other's tmp file.
        tmp = self._path.with_name(f"{self._path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, self._path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _load(self) -> None:
        assert self._path is not None
        payload = json.loads(self._path.read_text())
        for name, docs in payload.items():
            container = _Container(name)
            for doc_id, doc in docs.items():
                container.documents[doc_id] = Document(
                    id=doc["id"], body=doc["body"], version=int(doc["version"])
                )
            self._containers[name] = container
