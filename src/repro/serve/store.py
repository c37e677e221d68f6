"""The versioned snapshot store: publish/subscribe between train and serve.

A :class:`SnapshotStore` is a directory of
:class:`~repro.serve.snapshot.ModelSnapshot` artifacts plus one strict-JSON
manifest (``store.json``). A training trainer *publishes* snapshots into it
(monotonic integer version ids, stamped with the simulated publish time);
a running :class:`~repro.serve.engine.ServingEngine` *polls* it between
batches and hot-swaps to newer versions without dropping a request.

Layout::

    store/
      store.json              <- the manifest (format tag, next id, entries)
      v000001.snapshot.json   <- per-version header (meta carries the id)
      v000001.snapshot.npz
      v000002.snapshot.json
      ...

The manifest is the index other tooling reads; every entry repeats the
integrity essentials (``n_params``, L2 norm) so a registry can audit the
store without opening the bulk files. Publishing is atomic at the manifest
level: artifacts are written first, then the manifest is replaced via a
temp-file rename, so a reader never observes an entry whose files are
missing. :meth:`SnapshotStore.load` cross-checks the version id recorded in
the snapshot header's ``meta`` against the manifest entry — the *version
skew* guard that catches store directories whose files were shuffled or
restored inconsistently — and every failure raises a typed
:class:`~repro.exceptions.SnapshotError`.

Publish times live on the simulated clock: :meth:`SnapshotStore.poll`
filters on ``published_s <= now``, so a serving run replays the training
session's publish schedule — a snapshot published at sim second 0.03 lands
mid-serve in a run whose arrivals span that window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.exceptions import DataFormatError, SnapshotError
from repro.serve.snapshot import ModelSnapshot
from repro.utils.serialization import load_json, save_json

__all__ = ["SnapshotStore", "StoreEntry", "STORE_FORMAT", "STORE_VERSION"]

STORE_FORMAT = "repro-snapshot-store"
STORE_VERSION = 1

#: The manifest file name inside a store directory.
MANIFEST_NAME = "store.json"


@dataclass
class StoreEntry:
    """One published version, as the manifest records it."""

    version: int
    stem: str
    #: Simulated publish time (the trainer's clock).
    published_s: float
    n_params: int
    l2_norm: float
    meta: dict = field(default_factory=dict)


class SnapshotStore:
    """Directory-backed versioned snapshot channel (publish / poll / load)."""

    def __init__(self, root: Union[str, Path], *, create: bool = True) -> None:
        self.root = Path(root)
        manifest = self.root / MANIFEST_NAME
        if manifest.exists():
            self._read_manifest()
        elif create:
            self._next_version = 1
            self._entries: List[StoreEntry] = []
            self._write_manifest()
        else:
            raise SnapshotError(f"no snapshot store at {self.root}")

    # -- manifest I/O --------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _read_manifest(self) -> None:
        try:
            raw = load_json(self.manifest_path)
        except DataFormatError as exc:
            raise SnapshotError(str(exc)) from exc
        if not isinstance(raw, dict) or raw.get("format") != STORE_FORMAT:
            raise SnapshotError(
                f"{self.manifest_path} is not a {STORE_FORMAT} manifest"
            )
        if raw.get("version") != STORE_VERSION:
            raise SnapshotError(
                f"{self.manifest_path} has store version "
                f"{raw.get('version')!r}; this library reads {STORE_VERSION}"
            )
        try:
            entries = [
                StoreEntry(
                    version=int(e["version"]),
                    stem=str(e["stem"]),
                    published_s=float(e["published_s"]),
                    n_params=int(e["n_params"]),
                    l2_norm=float(e["l2_norm"]),
                    meta=dict(e.get("meta", {})),
                )
                for e in raw.get("entries", [])
            ]
            next_version = int(raw["next_version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"{self.manifest_path} is malformed: {exc}"
            ) from exc
        versions = [e.version for e in entries]
        if versions != sorted(versions) or len(set(versions)) != len(versions):
            raise SnapshotError(
                f"{self.manifest_path} entries are not strictly ascending: "
                f"{versions}"
            )
        if versions and next_version <= versions[-1]:
            raise SnapshotError(
                f"{self.manifest_path} next_version {next_version} does not "
                f"exceed the newest entry {versions[-1]}"
            )
        self._entries = entries
        self._next_version = next_version

    def _write_manifest(self) -> None:
        save_json(self.manifest_path, {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "next_version": self._next_version,
            "entries": self._entries,
        })

    def refresh(self) -> None:
        """Re-read the manifest (pick up entries published by another handle)."""
        self._read_manifest()

    # -- publishing ----------------------------------------------------------
    def publish(
        self, snapshot: ModelSnapshot, *, published_s: float = 0.0
    ) -> int:
        """Version ``snapshot`` into the store; returns the new version id.

        Ids are monotonic even across deletions (``next_version`` persists
        in the manifest). The snapshot header's ``meta`` gains a
        ``store_version`` field — the skew check :meth:`load` verifies.
        """
        if not (published_s >= 0.0):
            raise SnapshotError(
                f"published_s must be >= 0, got {published_s}"
            )
        last = self._entries[-1].published_s if self._entries else 0.0
        if published_s < last:
            raise SnapshotError(
                f"publish time {published_s} precedes the newest entry's "
                f"{last} — the store replays publishes in time order"
            )
        version = self._next_version
        stem = f"v{version:06d}"
        stamped = ModelSnapshot(
            arch=snapshot.arch,
            state=snapshot.state,
            meta={
                **snapshot.meta,
                "store_version": version,
                "published_s": published_s,
            },
        )
        stamped.save(self.root / stem)
        self._entries.append(StoreEntry(
            version=version,
            stem=stem,
            published_s=float(published_s),
            n_params=stamped.n_params,
            l2_norm=stamped.state.l2_norm(),
            meta={
                k: stamped.meta[k]
                for k in ("algorithm", "dataset")
                if k in stamped.meta
            },
        ))
        self._next_version = version + 1
        self._write_manifest()
        return version

    # -- reading -------------------------------------------------------------
    @property
    def entries(self) -> List[StoreEntry]:
        """Manifest entries, oldest first (a copy)."""
        return list(self._entries)

    def versions(self) -> List[int]:
        """All published version ids, ascending."""
        return [e.version for e in self._entries]

    def latest_version(self) -> Optional[int]:
        """The newest published version id (``None`` for an empty store)."""
        return self._entries[-1].version if self._entries else None

    def entry(self, version: int) -> StoreEntry:
        """The manifest entry for ``version``."""
        for e in self._entries:
            if e.version == version:
                return e
        raise SnapshotError(
            f"store {self.root} has no version {version}; "
            f"published: {self.versions()}"
        )

    def load(self, version: int) -> ModelSnapshot:
        """Load + validate one published version.

        On top of :meth:`ModelSnapshot.load`'s own checks (format, spec,
        checksum — a corrupted npz surfaces here), cross-validates the
        header's recorded ``store_version`` and parameter count against the
        manifest entry, so index/file skew cannot serve the wrong weights.
        """
        entry = self.entry(version)
        snapshot = ModelSnapshot.load(self.root / entry.stem)
        recorded = snapshot.meta.get("store_version")
        if recorded != entry.version:
            raise SnapshotError(
                f"version skew in {self.root}: manifest entry {entry.version} "
                f"points at {entry.stem}, whose header records store_version "
                f"{recorded!r}"
            )
        if snapshot.n_params != entry.n_params:
            raise SnapshotError(
                f"version {version} holds {snapshot.n_params} parameters but "
                f"the manifest recorded {entry.n_params}"
            )
        return snapshot

    def version_at(self, now: float) -> Optional[int]:
        """The version a subscriber starting at sim time ``now`` should run:
        the newest one already published (``published_s <= now``), falling
        back to the oldest version for a subscriber predating every publish.
        """
        if not self._entries:
            return None
        eligible = [e.version for e in self._entries if e.published_s <= now]
        return eligible[-1] if eligible else self._entries[0].version

    def poll(self, *, after: int, now: float) -> Optional[int]:
        """The newest version ``> after`` already published at sim ``now``.

        Re-reads the manifest first, so publishes from another store handle
        (or process) become visible. Returns ``None`` when there is nothing
        newer to swap to yet.
        """
        self.refresh()
        eligible = [
            e.version
            for e in self._entries
            if e.version > after and e.published_s <= now
        ]
        return eligible[-1] if eligible else None
