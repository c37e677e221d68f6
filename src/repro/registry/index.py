"""The SQLite cross-run index: schema, queries, and gc.

One database file (``runs.db``) sits at the registry root next to the
per-run directories (``runs/<run_id>/``). Every row is a registered run;
the full manifest rides along as a JSON column so ``runs show`` needs no
directory read, while headline metrics are flattened into a queryable
``metrics`` table for history/baseline queries.

The schema is stamped with ``PRAGMA user_version`` and created on open: a
fresh or zero-table database (``user_version`` 0) gets the current layout
(:data:`SCHEMA_VERSION`, the only one ever written — ``runs`` with a
``status`` column that drives baseline eligibility, ``metrics``, and
``tags``: a bench run carries ``bench:<name>``), and an index
stamped by a newer checkout is refused.

Concurrency: every operation opens its own short-lived connection with a
busy timeout, and registration is a DELETE+INSERT of the run's rows inside
one transaction — two processes registering the same run_id are
last-writer-safe, and registering distinct runs never conflicts.

Registration is opt-in: :func:`default_registry` resolves an explicit
``--registry`` path, then the ``REPRO_REGISTRY`` environment variable, and
otherwise returns ``None`` (the ``repro runs`` verbs additionally fall
back to ``.repro-runs`` so a bare ``repro runs ls`` works in a directory
where runs were registered with defaults).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sqlite3
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import ENV_REGISTRY
from repro.exceptions import ConfigurationError, DataFormatError

__all__ = [
    "SCHEMA_VERSION", "DB_NAME", "RUNS_DIRNAME", "DEFAULT_REGISTRY_ROOT",
    "RunRecord", "RunRegistry", "default_registry",
]

#: Current ``PRAGMA user_version``; a layout change bumps it and adds the
#: upgrade step to ``RunRegistry._ensure_schema``.
SCHEMA_VERSION = 2

DB_NAME = "runs.db"
RUNS_DIRNAME = "runs"

#: Where the ``repro runs`` verbs look when neither flag nor env is set.
DEFAULT_REGISTRY_ROOT = ".repro-runs"

#: Seconds a connection waits out another process's lock: then "locked".
BUSY_TIMEOUT_S = 30.0

_NEWEST_FIRST = " ORDER BY runs.created_s DESC, runs.run_id DESC LIMIT ?"


def _sql_limit(limit: Optional[int]) -> int:
    """``LIMIT`` operand: SQLite reads a negative one as "no limit"."""
    return -1 if limit is None else int(limit)


@dataclass
class RunRecord:
    """One indexed run: the ``runs`` row plus its tags and metrics."""

    run_id: str
    kind: str
    algorithm: str = ""
    dataset: str = ""
    n_devices: int = 0
    seed: int = 0
    status: str = "green"
    created_s: float = 0.0
    sim_duration_s: float = 0.0
    path: str = ""
    trace_path: str = ""
    git_commit: str = ""
    git_dirty: bool = False
    manifest: Dict = field(default_factory=dict)
    tags: Tuple[str, ...] = ()
    metrics: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            **{name: getattr(self, name) for name in RUN_COLUMNS},
            "tags": sorted(self.tags),
            "metrics": dict(sorted(self.metrics.items())),
            "manifest": self.manifest,
        }


#: The scalar columns of the ``runs`` table are the scalar fields of
#: :class:`RunRecord`; the table's one column more is the manifest as JSON.
RUN_COLUMNS = tuple(
    f.name for f in fields(RunRecord)
    if f.name not in ("manifest", "tags", "metrics")
)


def _create_schema(conn: sqlite3.Connection) -> None:
    conn.executescript(
        """
        CREATE TABLE IF NOT EXISTS runs (
            run_id TEXT PRIMARY KEY,
            kind TEXT NOT NULL,
            algorithm TEXT NOT NULL DEFAULT '',
            dataset TEXT NOT NULL DEFAULT '',
            n_devices INTEGER NOT NULL DEFAULT 0,
            seed INTEGER NOT NULL DEFAULT 0,
            created_s REAL NOT NULL DEFAULT 0.0,
            sim_duration_s REAL NOT NULL DEFAULT 0.0,
            path TEXT NOT NULL DEFAULT '',
            trace_path TEXT NOT NULL DEFAULT '',
            git_commit TEXT NOT NULL DEFAULT '',
            git_dirty INTEGER NOT NULL DEFAULT 0,
            manifest TEXT NOT NULL DEFAULT '{}',
            status TEXT NOT NULL DEFAULT 'green'
        );
        CREATE TABLE IF NOT EXISTS metrics (
            run_id TEXT NOT NULL,
            name TEXT NOT NULL,
            value REAL NOT NULL,
            PRIMARY KEY (run_id, name)
        );
        CREATE TABLE IF NOT EXISTS tags (
            run_id TEXT NOT NULL,
            tag TEXT NOT NULL,
            PRIMARY KEY (run_id, tag)
        );
        CREATE INDEX IF NOT EXISTS idx_runs_kind ON runs (kind, created_s);
        CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics (name);
        CREATE INDEX IF NOT EXISTS idx_tags_tag ON tags (tag);
        """
    )


class RunRegistry:
    """Per-run artifact directories plus the SQLite cross-run index.

    ``root`` holds ``runs.db`` and ``runs/<run_id>/`` directories. Opening
    a registry creates the schema if the index has none; ``create=False``
    raises if the root has no index yet (used by read-only CLI verbs so a
    typo'd path fails loudly instead of minting an empty database).
    """

    def __init__(self, root, *, create: bool = True) -> None:
        self.root = Path(root)
        self.db_path = self.root / DB_NAME
        if not create and not self.db_path.exists():
            raise ConfigurationError(
                f"no run registry at {self.root} (missing {DB_NAME}); "
                f"register a run first or pass the right --registry"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / RUNS_DIRNAME).mkdir(exist_ok=True)
        with self._connect() as conn:
            self._ensure_schema(conn)

    # -- connection / schema -------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.db_path, timeout=BUSY_TIMEOUT_S)
        conn.row_factory = sqlite3.Row
        return conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        try:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version > SCHEMA_VERSION:
                raise DataFormatError(
                    f"runs.db schema v{version} is newer than this checkout's"
                    f" v{SCHEMA_VERSION}; upgrade the repo to read it"
                )
            if version < SCHEMA_VERSION:
                _create_schema(conn)
                conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            conn.commit()
        except sqlite3.DatabaseError as exc:  # truncated, or not SQLite
            raise DataFormatError(f"{self.db_path}: {exc}") from exc

    def schema_version(self) -> int:
        with self._connect() as conn:
            return conn.execute("PRAGMA user_version").fetchone()[0]

    # -- paths ---------------------------------------------------------------

    def run_dir(self, run_id: str) -> Path:
        """The artifact directory for ``run_id`` (created by the caller)."""
        return self.root / RUNS_DIRNAME / run_id

    # -- write side ----------------------------------------------------------

    def register(
        self,
        manifest: Mapping,
        metrics: Optional[Mapping[str, float]] = None,
        *,
        status: str = "green",
        tags: Iterable[str] = (),
    ) -> str:
        """Index a run. ``manifest`` must carry ``run_id`` and ``kind``.

        Re-registering an existing ``run_id`` replaces its row, metrics,
        and tags atomically (last writer wins). Non-finite metric values
        are rejected — they would poison baseline medians downstream.
        """
        run_id = str(manifest.get("run_id", "")).strip()
        kind = str(manifest.get("kind", "")).strip()
        if not run_id or not kind:
            raise ConfigurationError(
                "manifest must carry non-empty 'run_id' and 'kind'"
            )
        if status not in ("green", "red"):
            raise ConfigurationError(
                f"run status must be 'green' or 'red', got {status!r}"
            )
        clean_metrics: Dict[str, float] = {}
        for name, value in dict(metrics or {}).items():
            value = float(value)
            if not math.isfinite(value):
                raise DataFormatError(
                    f"metric {name!r} for run {run_id} is non-finite ({value!r})"
                )
            clean_metrics[str(name)] = value
        tag_list = sorted({str(t) for t in tags if str(t)})
        manifest_json = json.dumps(
            dict(manifest), sort_keys=True, allow_nan=False
        )
        # Each column takes the type of its RunRecord default; an absent or
        # null manifest value takes the default itself.
        blank = RunRecord(run_id, kind, status=status)
        given = {**manifest, "run_id": run_id, "kind": kind, "status": status}
        row = []
        for name in RUN_COLUMNS:
            default = getattr(blank, name)
            row.append(type(default)(given.get(name) or default))
        try:
            with self._connect() as conn:
                conn.execute("BEGIN IMMEDIATE")
                conn.execute("DELETE FROM metrics WHERE run_id = ?", (run_id,))
                conn.execute("DELETE FROM tags WHERE run_id = ?", (run_id,))
                conn.execute(
                    f"INSERT OR REPLACE INTO runs ({', '.join(RUN_COLUMNS)}, manifest)"
                    f" VALUES ({', '.join('?' * len(RUN_COLUMNS))}, ?)",
                    (*row, manifest_json),
                )
                conn.executemany(
                    "INSERT INTO metrics (run_id, name, value) VALUES (?, ?, ?)",
                    [(run_id, n, v) for n, v in sorted(clean_metrics.items())],
                )
                conn.executemany(
                    "INSERT INTO tags (run_id, tag) VALUES (?, ?)",
                    [(run_id, t) for t in tag_list],
                )
                conn.commit()
        except sqlite3.OperationalError as exc:  # locked past the timeout
            raise DataFormatError(f"{self.db_path}: {exc}") from exc
        return run_id

    # -- read side -----------------------------------------------------------

    def contains(self, run_id: str) -> bool:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        return row is not None

    def _record(self, conn: sqlite3.Connection, row: sqlite3.Row) -> RunRecord:
        run_id = row["run_id"]
        tags = tuple(
            r[0]
            for r in conn.execute(
                "SELECT tag FROM tags WHERE run_id = ? ORDER BY tag", (run_id,)
            )
        )
        metrics = {
            r[0]: r[1]
            for r in conn.execute(
                "SELECT name, value FROM metrics WHERE run_id = ? ORDER BY name",
                (run_id,),
            )
        }
        try:
            manifest = json.loads(row["manifest"])
        except (TypeError, ValueError):
            manifest = {}
        columns = {name: row[name] for name in RUN_COLUMNS}
        columns["git_dirty"] = bool(columns["git_dirty"])
        return RunRecord(
            **columns, manifest=manifest, tags=tags, metrics=metrics
        )

    def get(self, run_id: str) -> RunRecord:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
            if row is None:
                raise ConfigurationError(
                    f"unknown run_id {run_id!r} in registry {self.root}"
                )
            return self._record(conn, row)

    @staticmethod
    def _run_filter(
        anchor: str,
        kind: Optional[str] = None,
        tag: Optional[str] = None,
        status: Optional[str] = None,
        where: Sequence[str] = (),
        params: Sequence = (),
    ) -> Tuple[str, List]:
        """The ``JOIN … WHERE …`` tail (and its parameters) keeping the rows
        of table ``anchor`` whose run has this ``kind`` / ``tag`` /
        ``status``, on top of the caller's own ``where`` conditions."""
        joins, where, params = "", [*where], [*params]
        if anchor != "runs" and (kind is not None or status is not None):
            joins += f" JOIN runs ON runs.run_id = {anchor}.run_id"
        if tag is not None:
            joins += f" JOIN tags ON tags.run_id = {anchor}.run_id"
            where.append("tags.tag = ?")
            params.append(tag)
        for column, value in (("kind", kind), ("status", status)):
            if value is not None:
                where.append(f"runs.{column} = ?")
                params.append(value)
        if where:
            joins += " WHERE " + " AND ".join(where)
        return joins, params

    def list(
        self,
        *,
        kind: Optional[str] = None,
        tag: Optional[str] = None,
        status: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Indexed runs, newest-first, optionally filtered."""
        tail, params = self._run_filter("runs", kind, tag, status)
        sql = "SELECT runs.* FROM runs" + tail + _NEWEST_FIRST
        with self._connect() as conn:
            rows = conn.execute(sql, [*params, _sql_limit(limit)]).fetchall()
            return [self._record(conn, row) for row in rows]

    def metric_history(
        self,
        name: str,
        *,
        kind: Optional[str] = None,
        tag: Optional[str] = None,
        status: Optional[str] = "green",
        limit: Optional[int] = None,
    ) -> List[Tuple[str, float]]:
        """``(run_id, value)`` pairs for metric ``name``, oldest → newest.

        Defaults to green runs only — red runs are excluded from baselines.
        ``limit`` keeps the *newest* ``limit`` entries (still returned in
        chronological order, ready for sparklines and medians).
        """
        tail, params = self._run_filter(
            "runs", kind, tag, status, ["metrics.name = ?"], [name]
        )
        sql = (
            "SELECT runs.run_id, metrics.value FROM metrics"
            " JOIN runs ON runs.run_id = metrics.run_id" + tail + _NEWEST_FIRST
        )
        with self._connect() as conn:
            rows = conn.execute(sql, [*params, _sql_limit(limit)]).fetchall()
        return [(row[0], row[1]) for row in reversed(rows)]

    def metric_names(self, *, tag: Optional[str] = None) -> List[str]:
        tail, params = self._run_filter("metrics", tag=tag)
        sql = (
            "SELECT DISTINCT metrics.name FROM metrics" + tail
            + " ORDER BY metrics.name"
        )
        with self._connect() as conn:
            return [row[0] for row in conn.execute(sql, params)]

    def resolve_trace(self, run_id: str) -> Path:
        """Absolute path of the telemetry trace indexed for ``run_id``."""
        record = self.get(run_id)
        if not record.trace_path:
            raise ConfigurationError(
                f"run {run_id} has no telemetry trace indexed"
            )
        path = Path(record.trace_path)
        if not path.is_absolute():
            path = self.root / path
        if not path.exists():
            raise DataFormatError(
                f"run {run_id} points at missing trace {path}"
            )
        return path

    # -- gc ------------------------------------------------------------------

    def _trace_owner(self, trace_path: str) -> Optional[str]:
        """The run_id whose directory holds ``trace_path``, if any.

        Grid experiments and multi-mode serve registrations archive one
        shared telemetry file into the *first* sibling's directory; every
        other sibling's ``trace_path`` points into it.
        """
        if not trace_path:
            return None
        path = Path(trace_path)
        if not path.is_absolute():
            path = self.root / path
        try:
            rel = path.resolve().relative_to(
                (self.root / RUNS_DIRNAME).resolve()
            )
        except ValueError:
            return None
        return rel.parts[0] if rel.parts else None

    def gc(self, *, keep: int = 20, dry_run: bool = False) -> List[str]:
        """Delete old runs, keeping the newest ``keep`` per kind.

        Never deletes a run that could be referenced as a CI baseline: per
        ``bench:<name>`` tag, the newest ``BASELINE_WINDOW`` *green* runs of
        every indexed metric (section-filtered bench invocations mean the
        runs carrying one metric's history can be older than the tag's
        newest runs; the gates take their median per metric, so protection
        matches). A run whose directory holds the telemetry archive a
        surviving sibling's ``trace_path`` points into survives too. Returns
        the deleted (or, with ``dry_run``, deletable) run_ids, oldest first.
        """
        if keep < 0:
            raise ConfigurationError(f"gc keep must be >= 0, got {keep}")
        from repro.registry.baseline import BASELINE_WINDOW

        protected = set()
        with self._connect() as conn:
            bench_tags = [
                row[0]
                for row in conn.execute(
                    "SELECT DISTINCT tag FROM tags WHERE tag LIKE 'bench:%'"
                )
            ]
        for tag in bench_tags:
            recent = self.list(tag=tag, status="green", limit=BASELINE_WINDOW)
            protected.update(r.run_id for r in recent)
            for name in self.metric_names(tag=tag):
                protected.update(
                    run_id
                    for run_id, _ in self.metric_history(
                        name, tag=tag, status="green", limit=BASELINE_WINDOW
                    )
                )

        all_records = self.list()
        doomed: List[RunRecord] = []
        by_kind: Dict[str, List[RunRecord]] = {}
        for record in all_records:
            by_kind.setdefault(record.kind, []).append(record)
        for records in by_kind.values():  # newest-first within each kind
            for record in records[keep:]:
                if record.run_id not in protected:
                    doomed.append(record)

        # A survivor's telemetry archive may live in a doomed sibling's
        # directory (shared-archive registration stores it once, in the
        # first sibling); un-doom archive owners until stable — a rescued
        # run's own trace_path may chain to another doomed owner.
        doomed_ids = {r.run_id for r in doomed}
        changed = True
        while changed:
            changed = False
            for record in all_records:
                if record.run_id in doomed_ids:
                    continue
                owner = self._trace_owner(record.trace_path)
                if owner and owner != record.run_id and owner in doomed_ids:
                    doomed_ids.discard(owner)
                    changed = True
        doomed = [r for r in doomed if r.run_id in doomed_ids]
        doomed.sort(key=lambda r: (r.created_s, r.run_id))
        if dry_run:
            return [r.run_id for r in doomed]
        with self._connect() as conn:
            for table in ("metrics", "tags", "runs"):
                conn.executemany(
                    f"DELETE FROM {table} WHERE run_id = ?",
                    [(record.run_id,) for record in doomed],
                )
            conn.commit()
        for record in doomed:
            run_dir = self.run_dir(record.run_id)
            if run_dir.is_dir():
                shutil.rmtree(run_dir, ignore_errors=True)
        return [r.run_id for r in doomed]


def default_registry(
    path=None, *, create: bool = True, fallback: bool = False
) -> Optional[RunRegistry]:
    """Resolve the registry: explicit ``path`` → ``$REPRO_REGISTRY`` → None.

    With ``fallback=True`` (the read-side ``repro runs`` verbs), an unset
    environment falls through to ``.repro-runs`` instead of ``None`` so
    the default write-side root is also the default read-side root. An
    empty ``path`` (``--registry ''``) is unset, not the current directory.
    """
    path = path or os.environ.get(ENV_REGISTRY) or None
    if path is None and fallback:
        path = DEFAULT_REGISTRY_ROOT
    if path is None:
        return None
    return RunRegistry(path, create=create)
