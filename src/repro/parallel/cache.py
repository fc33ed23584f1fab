"""Content-addressed result cache for experiment cells.

A cell's result is fully determined by its inputs: the
:class:`~repro.manycore.config.SystemConfig` (including technology
constants), the workload's phase content, the controller construction
recipe, the seed, the epoch count, the simulation options, and the code
version.  Hashing all of those into one stable key lets repeated
experiment invocations skip already-computed cells.

Key stability rules
-------------------
* Floats hash by ``float.hex()`` — exact bit patterns, no repr rounding.
* Dataclasses hash field-by-field under their qualified class name, so
  two config types with coincidentally equal fields cannot collide.
* Workloads hash by *content* (every phase's duration/intensities per
  core sequence), not by name — regenerating a workload from the same
  seed yields the same key, while any phase perturbation changes it.
* Controller factories must be *fingerprintable*: a ``functools.partial``
  over a module-level function (what
  :func:`repro.sim.runner.standard_controllers` returns) or a plain
  module-level function.  Closures and lambdas have no stable identity
  across processes and raise :class:`CacheKeyError`.
* :data:`CACHE_SALT` folds the cache format / simulation-code version
  into every key.  Bump it whenever a change makes previously cached
  trajectories stale (simulator physics, controller algorithms, result
  format); stale entries then simply stop being addressed.

Persistence uses :mod:`repro.sim.result_io` (one ``.npz`` per cell,
written atomically via rename), so cached cells are ordinary result files
that can be loaded, diffed, and re-rendered with the standard tooling.

Integrity
---------
The cache trusts nothing it reads off disk.  Every ``put`` records the
entry's SHA-256 content checksum in a sidecar file; every ``get``
re-verifies it (and the entry's loadability) before serving.  An entry
that fails verification — torn write, bit rot, chaos injection — is
*quarantined*: moved to ``<root>/quarantine/`` with ``cache.corrupt`` /
``cache.quarantined`` counters ticked and the miss recomputed, so a
corrupt entry is never silently mis-served and never fatal.  The
``repro cache`` CLI (``stats`` / ``verify`` / ``gc``) audits and prunes
the store offline.

Concurrent writers
------------------
The entry and its checksum sidecar are two separate atomic renames, so
two processes publishing the *same* key concurrently could interleave
them — ``np.savez`` embeds archive metadata, making each writer's bytes
distinct, and entry A + sidecar B reads as a checksum mismatch
(quarantine false positive) even though both writers held a correct
result.  ``put`` therefore takes a per-key lockfile
(``O_CREAT | O_EXCL``): the losing writer skips its write entirely —
results are content-addressed and deterministic, so the winner's bytes
serve every caller (``cache.put_contended`` counts the skips).  Readers
treat a mismatch observed while the key's lock is held as a plain miss
(publication in progress), and re-verify once before quarantining
otherwise, so the get/put window can never false-positive either.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import os
import time
from pathlib import Path
from typing import Any, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.obs.metrics import CounterRegistry
from repro.parallel.cells import RunCell
from repro.sim.results import SimulationResult
from repro.workloads.phases import Workload

from repro.parallel.chaos import ChaosPolicy

__all__ = [
    "CACHE_SALT",
    "CacheKeyError",
    "stable_hash",
    "workload_token",
    "controller_fingerprint",
    "option_token",
    "cell_key",
    "CacheStats",
    "CacheAuditReport",
    "ResultCache",
]

#: Code-version salt folded into every cell key.  Bump the suffix whenever
#: simulator physics, controller algorithms, or the result format change in
#: a way that invalidates previously cached trajectories.
CACHE_SALT = "repro-cell-cache-v1"


class CacheKeyError(TypeError):
    """An object cannot be folded into a stable cache key."""


def _update(h: "hashlib._Hash", obj: Any) -> None:
    """Fold ``obj`` into hasher ``h`` with an unambiguous type-tagged encoding."""
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):  # before int: bool is an int subclass
        h.update(b"b1;" if obj else b"b0;")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()};".encode())
    elif isinstance(obj, str):
        raw = obj.encode()
        h.update(f"s{len(raw)}:".encode())
        h.update(raw)
        h.update(b";")
    elif isinstance(obj, bytes):
        h.update(f"y{len(obj)}:".encode())
        h.update(obj)
        h.update(b";")
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"a{arr.dtype.str}{arr.shape};".encode())
        h.update(arr.tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        h.update(f"d{cls.__module__}.{cls.__qualname__}(".encode())
        for f in dataclasses.fields(obj):
            _update(h, f.name)
            _update(h, getattr(obj, f.name))
        h.update(b");")
    elif isinstance(obj, Mapping):
        h.update(f"m{len(obj)}(".encode())
        try:
            items = sorted(obj.items())
        except TypeError as exc:
            raise CacheKeyError(
                f"mapping keys must be sortable for a stable key: {exc}"
            ) from exc
        for key, value in items:
            _update(h, key)
            _update(h, value)
        h.update(b");")
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}(".encode())
        for item in obj:
            _update(h, item)
        h.update(b");")
    elif isinstance(obj, (set, frozenset)):
        h.update(f"S{len(obj)}(".encode())
        inner = sorted(stable_hash(item) for item in obj)
        for digest in inner:
            _update(h, digest)
        h.update(b");")
    else:
        raise CacheKeyError(
            f"cannot build a stable cache key from {type(obj).__module__}."
            f"{type(obj).__qualname__}; supported: scalars, str/bytes, "
            "ndarray, dataclasses, mappings, sequences, sets"
        )


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of ``obj`` under a canonical, type-tagged encoding.

    Equal values (including structurally equal dataclasses and arrays)
    hash equal across processes and interpreter runs; any field
    perturbation — a different float bit pattern, a reordered tuple, a
    changed dataclass type — produces a different digest.
    """
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()


def workload_token(workload: Workload) -> Tuple[Any, ...]:
    """Content token of a workload: name plus every phase of every sequence."""
    return (
        "workload",
        workload.name,
        tuple(
            tuple(
                (p.duration, p.mem_intensity, p.compute_intensity)
                for p in seq.phases
            )
            for seq in workload.sequences
        ),
    )


def controller_fingerprint(factory: Any) -> Tuple[Any, ...]:
    """Stable identity of a controller factory, for cache keys.

    Supported shapes:

    * ``functools.partial`` over a module-level function — fingerprinted by
      the function's qualified name plus bound args/kwargs (the shape
      :func:`repro.sim.runner.standard_controllers` produces);
    * a plain module-level function with no closure.

    Raises
    ------
    CacheKeyError
        For lambdas, closures, bound methods and other callables whose
        behaviour is not recoverable from a stable name.
    """
    if isinstance(factory, functools.partial):
        fp = controller_fingerprint(factory.func)
        return (
            "partial",
            fp,
            tuple(factory.args),
            tuple(sorted(factory.keywords.items())),
        )
    if inspect.isfunction(factory):
        qualname = factory.__qualname__
        if "<lambda>" in qualname or "<locals>" in qualname or factory.__closure__:
            raise CacheKeyError(
                f"controller factory {qualname!r} is a lambda/closure and has "
                "no stable cross-process identity; use functools.partial over "
                "a module-level function (as standard_controllers does) to "
                "enable result caching"
            )
        return ("function", factory.__module__, qualname)
    raise CacheKeyError(
        f"cannot fingerprint controller factory of type "
        f"{type(factory).__qualname__}; use functools.partial over a "
        "module-level function to enable result caching"
    )


def option_token(value: Any) -> Any:
    """A stable-hashable stand-in for one simulation option value.

    :class:`~repro.manycore.hetero.HeterogeneousMap` is a plain class
    (not a dataclass), so :func:`stable_hash` cannot key it directly; its
    per-core scale arrays carry its full identity, so they stand in for
    it.  Every other value is its own token.
    """
    if isinstance(value, HeterogeneousMap):
        return (
            "hetero-map",
            value.freq_scale,
            value.ceff_scale,
            value.cpi_scale,
            value.leak_scale,
        )
    return value


def cell_key(
    cell: RunCell,
    cfg: SystemConfig,
    workload: Workload,
    factory: Any,
    sim_kwargs: Optional[Mapping[str, Any]] = None,
    salt: str = CACHE_SALT,
) -> str:
    """The content-addressed key of one run cell.

    ``cfg`` must already carry the cell's effective budget (the engine
    applies :attr:`RunCell.budget` before keying).  The key covers: the
    full system config (with technology constants), the workload's phase
    content, the controller fingerprint, the cell's seed/epochs, the
    simulation options (each through :func:`option_token`, so a
    heterogeneous map keys by its scale arrays), and the code-version
    ``salt``.

    Raises
    ------
    CacheKeyError
        For inputs with no stable key: lambda or closure factories, and
        options that neither :func:`stable_hash` nor :func:`option_token`
        can encode.  A :class:`~repro.manycore.sensors.SensorSuite` is one
        (its RNG streams have no value identity), so a cell with a sensor
        suite cannot run with a result cache.
    """
    options = {k: option_token(v) for k, v in sorted(dict(sim_kwargs or {}).items())}
    return stable_hash(
        (
            salt,
            cell,
            cfg,
            workload_token(workload),
            controller_fingerprint(factory),
            options,
        )
    )


def _sha256_file(path: Path) -> str:
    """SHA-256 hex digest of a file's bytes (streamed)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Point-in-time inventory of a cache directory."""

    entries: int
    total_bytes: int
    quarantined_entries: int
    hits: int
    misses: int
    corrupt: int
    quarantined: int


@dataclasses.dataclass(frozen=True)
class CacheAuditReport:
    """Outcome of :meth:`ResultCache.verify` over every entry."""

    checked: int
    ok: int
    quarantined: Tuple[str, ...]
    healed: int

    @property
    def clean(self) -> bool:
        return not self.quarantined


class ResultCache:
    """Directory of cached cell results, addressed by :func:`cell_key`.

    Entries are ``.npz`` files written by
    :func:`repro.sim.result_io.save_result` under a two-level fan-out
    (``root/ab/abcdef….npz``) with a ``.sha256`` content-checksum sidecar.
    Writes are atomic (temp file + rename) so concurrent workers and
    interrupted runs can never leave a torn entry under the final name;
    reads verify the checksum and loadability before serving, and any
    entry failing verification is moved to ``<root>/quarantine/`` — never
    silently mis-served, never deleted without trace, never fatal.

    Parameters
    ----------
    root:
        Cache directory (created if absent).
    metrics:
        Optional shared :class:`~repro.obs.metrics.CounterRegistry`; the
        cache tracks ``cache.hits`` / ``cache.misses`` / ``cache.corrupt``
        / ``cache.quarantined`` / ``cache.put_errors`` in it.
    chaos:
        Optional :class:`~repro.parallel.chaos.ChaosPolicy` injecting
        disk-full and corruption faults into this cache's writes (test
        and soak harness use only).
    """

    #: Subdirectory (under ``root``) quarantined entries are moved to.
    QUARANTINE_DIR = "quarantine"

    #: Age (seconds) past which another writer's put lock is presumed
    #: abandoned (its process died mid-publish) and broken.  Far above any
    #: real publish duration — a put writes one ``.npz`` and one sidecar.
    PUT_LOCK_STALE_SECONDS: float = 300.0

    def __init__(
        self,
        root: Union[str, Path],
        metrics: "CounterRegistry | None" = None,
        chaos: Optional[ChaosPolicy] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else CounterRegistry()
        self.chaos = chaos
        #: ``(key, reason)`` records of quarantines performed by this
        #: instance, in occurrence order.  The engine drains it to emit
        #: ``cache_quarantine`` events; the CLI renders it after a verify.
        self.quarantine_log: List[Tuple[str, str]] = []
        self.metrics.set_gauge("cache.hits", 0)
        self.metrics.set_gauge("cache.misses", 0)
        self.metrics.set_gauge("cache.corrupt", 0)
        self.metrics.set_gauge("cache.quarantined", 0)
        self.metrics.set_gauge("cache.put_errors", 0)
        self.metrics.set_gauge("cache.put_contended", 0)

    @classmethod
    def coerce(
        cls, cache: "ResultCache | str | Path | None"
    ) -> "Optional[ResultCache]":
        """``cache`` as a store: an instance passes through, a directory
        path opens one there, ``None`` stays ``None`` (caching off)."""
        if cache is None or isinstance(cache, ResultCache):
            return cache
        return cls(cache)

    @property
    def hits(self) -> int:
        """Lookups served from disk (compatibility view over ``metrics``)."""
        return int(self.metrics.get("cache.hits"))

    @property
    def misses(self) -> int:
        """Lookups that found no (valid) entry."""
        return int(self.metrics.get("cache.misses"))

    @property
    def corrupt(self) -> int:
        """Entries that failed integrity verification."""
        return int(self.metrics.get("cache.corrupt"))

    @property
    def quarantined(self) -> int:
        """Entries moved to the quarantine directory."""
        return int(self.metrics.get("cache.quarantined"))

    @property
    def put_errors(self) -> int:
        """Writes absorbed by :meth:`put_safe` (disk full etc.)."""
        return int(self.metrics.get("cache.put_errors"))

    @property
    def put_contended(self) -> int:
        """Puts skipped because another writer held the key's lock."""
        return int(self.metrics.get("cache.put_contended"))

    def path_for(self, key: str) -> Path:
        """Filesystem path the entry for ``key`` lives at."""
        return self.root / key[:2] / f"{key}.npz"

    def checksum_path(self, key: str) -> Path:
        """Sidecar path holding the entry's SHA-256 content checksum."""
        return self.root / key[:2] / f"{key}.sha256"

    def lock_path(self, key: str) -> Path:
        """Lockfile path serializing writers of ``key`` (see :meth:`put`)."""
        return self.root / key[:2] / f".{key}.lock"

    @property
    def quarantine_root(self) -> Path:
        return self.root / self.QUARANTINE_DIR

    def iter_entries(self) -> List[Path]:
        """Live entry paths (quarantine excluded), sorted for determinism."""
        return sorted(
            p for p in self.root.glob("??/*.npz") if not p.name.startswith(".")
        )

    # -- integrity ---------------------------------------------------------
    def _quarantine(self, key: str, reason: str) -> None:
        """Move a failed entry (and its sidecar) out of the addressable
        store; counted, logged, and recoverable for post-mortems."""
        self.quarantine_root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        try:
            os.replace(path, self.quarantine_root / path.name)
        except OSError:
            # Renaming across a sick filesystem may itself fail; removal
            # is the fallback that still un-addresses the bad bytes.
            path.unlink(missing_ok=True)
        self.checksum_path(key).unlink(missing_ok=True)
        self.metrics.inc("cache.corrupt")
        self.metrics.inc("cache.quarantined")
        self.quarantine_log.append((key, reason))

    def _verify_entry(self, key: str) -> Optional[str]:
        """Why the entry for ``key`` is invalid, or ``None`` if it serves.

        Checks the checksum sidecar (when present) and loadability.  Does
        not quarantine — callers decide.
        """
        from repro.sim.result_io import load_result

        path = self.path_for(key)
        digest_path = self.checksum_path(key)
        if digest_path.exists():
            try:
                expected = digest_path.read_text(encoding="utf-8").strip()
            except OSError:
                expected = ""
            if _sha256_file(path) != expected:
                return "checksum-mismatch"
        try:
            load_result(path)
        except Exception:
            # Unreadable/truncated/stale-format: quantified by the caller,
            # never re-raised — a sick entry must cost a recompute, not
            # the run.
            return "unreadable"
        return None

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or ``None`` on a miss.

        A present-but-invalid entry (checksum mismatch, unreadable file)
        is quarantined and reported as a miss: ``cache.corrupt`` and
        ``cache.quarantined`` tick, the bad bytes move to
        ``quarantine/``, and the caller recomputes the cell.
        """
        # Imported lazily: result_io is cheap, but keeping the dependency
        # out of module import keeps cache-key helpers usable standalone.
        from repro.sim.result_io import load_result

        path = self.path_for(key)
        if not path.exists():
            self.metrics.inc("cache.misses")
            return None
        digest_path = self.checksum_path(key)
        if digest_path.exists():
            try:
                expected = digest_path.read_text(encoding="utf-8").strip()
            except OSError:
                expected = ""
            if _sha256_file(path) != expected:
                if self.put_in_progress(key):
                    # A writer is republishing this key right now; the
                    # transient entry/sidecar skew is publication in
                    # progress, not corruption.  Plain miss — the caller
                    # recomputes (or retries) and nothing is quarantined.
                    self.metrics.inc("cache.misses")
                    return None
                # Re-verify once with fresh reads: a writer may have
                # completed between our entry hash and sidecar read.
                # Only a *stable* mismatch is corruption.
                try:
                    expected = digest_path.read_text(encoding="utf-8").strip()
                except OSError:
                    expected = ""
                if not path.exists() or _sha256_file(path) != expected:
                    self._quarantine(key, "checksum-mismatch")
                    self.metrics.inc("cache.misses")
                    return None
        try:
            result = load_result(path)
        except Exception:
            # Torn write or stale format that still checksummed (legacy
            # entries have no sidecar): quarantined, counted, recomputed —
            # never served, never fatal.
            self._quarantine(key, "unreadable")
            self.metrics.inc("cache.misses")
            return None
        self.metrics.inc("cache.hits")
        return result

    # -- writes ------------------------------------------------------------
    def _lock_age(self, key: str) -> Optional[float]:
        """Seconds since the key's put lock was created, or ``None`` when
        no lock exists (or it vanished under us)."""
        try:
            created = self.lock_path(key).stat().st_mtime
        except OSError:
            return None
        # Wall clock by necessity: lockfile mtimes are wall-clock stamps
        # shared across processes, which time.monotonic() cannot compare
        # against.  Operational metadata only — never timing measurement,
        # never part of a cache key.
        return time.time() - created  # noqa: REPRO006

    def _acquire_put_lock(self, key: str) -> Optional[int]:
        """Try to become the key's sole writer; ``None`` when another
        writer holds a live lock.  A lock older than
        :attr:`PUT_LOCK_STALE_SECONDS` is presumed abandoned and broken.
        """
        lock = self.lock_path(key)
        for _ in range(2):
            try:
                return os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                age = self._lock_age(key)
                if age is None:
                    # The holder released between our open and stat;
                    # retry once.
                    continue
                if age <= self.PUT_LOCK_STALE_SECONDS:
                    return None
                # Abandoned lock (writer died mid-publish): break it and
                # retry the exclusive create.
                lock.unlink(missing_ok=True)
        return None

    def put_in_progress(self, key: str) -> bool:
        """Whether another writer currently holds the key's put lock."""
        age = self._lock_age(key)
        return age is not None and age <= self.PUT_LOCK_STALE_SECONDS

    def put(self, key: str, result: SimulationResult) -> Path:
        """Persist ``result`` under ``key`` (atomic), returning its path.

        Exactly one concurrent writer per key: the entry and its checksum
        sidecar are two separate renames, so unserialized same-key
        writers could interleave them into a mismatched (quarantine
        false-positive) pair.  The loser of the per-key lockfile race
        skips its write — results are content-addressed, so the winner's
        bytes are equally correct for every caller — and the skip is
        counted in ``cache.put_contended``.

        Raises ``OSError`` on write failure (disk full, permissions);
        callers that must survive storage faults use :meth:`put_safe`.
        """
        from repro.sim.result_io import save_result

        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock_fd = self._acquire_put_lock(key)
        if lock_fd is None:
            self.metrics.inc("cache.put_contended")
            return path
        try:
            if self.chaos is not None:
                self.chaos.before_cache_put(key)
            # The temp name keeps the .npz suffix: numpy's savez would
            # otherwise append one and the rename source would not exist.
            tmp = path.parent / f".{path.stem}.{os.getpid()}.tmp.npz"
            try:
                save_result(result, tmp)
                digest = _sha256_file(tmp)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
            self._write_checksum(key, digest)
            if self.chaos is not None:
                self.chaos.corrupt_cache_entry(key, path)
        finally:
            os.close(lock_fd)
            self.lock_path(key).unlink(missing_ok=True)
        return path

    def _write_checksum(self, key: str, digest: str) -> None:
        digest_path = self.checksum_path(key)
        tmp = digest_path.parent / f".{digest_path.stem}.{os.getpid()}.tmp.sha256"
        try:
            tmp.write_text(digest + "\n", encoding="utf-8")
            os.replace(tmp, digest_path)
        finally:
            tmp.unlink(missing_ok=True)

    def put_safe(self, key: str, result: SimulationResult) -> Optional[Path]:
        """Best-effort :meth:`put`: storage faults are counted
        (``cache.put_errors``) and absorbed, never raised.  A failed cache
        write costs a recompute on the next invocation — not the run."""
        try:
            return self.put(key, result)
        except OSError:
            self.metrics.inc("cache.put_errors")
            return None

    # -- audit / maintenance ----------------------------------------------
    def stats(self) -> CacheStats:
        """Inventory of the store (walks the directory)."""
        entries = self.iter_entries()
        return CacheStats(
            entries=len(entries),
            total_bytes=sum(p.stat().st_size for p in entries),
            quarantined_entries=(
                sum(1 for _ in self.quarantine_root.glob("*.npz"))
                if self.quarantine_root.is_dir()
                else 0
            ),
            hits=self.hits,
            misses=self.misses,
            corrupt=self.corrupt,
            quarantined=self.quarantined,
        )

    def verify(self, heal: bool = True) -> CacheAuditReport:
        """Re-checksum and load-check every entry; quarantine failures.

        Entries predating the checksum sidecar (legacy stores) are
        verified by loadability alone; with ``heal=True`` a sidecar is
        written for them so future verification is byte-exact.
        """
        checked = ok = healed = 0
        bad: List[str] = []
        for path in self.iter_entries():
            key = path.stem
            checked += 1
            reason = self._verify_entry(key)
            if reason is not None:
                self._quarantine(key, reason)
                bad.append(key)
                continue
            ok += 1
            if heal and not self.checksum_path(key).exists():
                self._write_checksum(key, _sha256_file(path))
                healed += 1
        return CacheAuditReport(
            checked=checked, ok=ok, quarantined=tuple(bad), healed=healed
        )

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        purge_quarantine: bool = False,
    ) -> Tuple[int, int]:
        """Prune the store to the given limits, oldest entries first.

        Returns ``(entries_removed, bytes_freed)`` (quarantine purges
        included).  With no limits and ``purge_quarantine=False`` this is
        a no-op.
        """
        removed = freed = 0
        if purge_quarantine and self.quarantine_root.is_dir():
            for path in sorted(self.quarantine_root.iterdir()):
                if path.is_file():
                    freed += path.stat().st_size
                    removed += 1
                    path.unlink()
        if max_entries is None and max_bytes is None:
            return removed, freed
        entries = self.iter_entries()
        # Oldest first: mtime is operational metadata (never part of a
        # cache key), so using it to order eviction is DET004-safe.
        entries.sort(key=lambda p: (p.stat().st_mtime, p.name))
        total = sum(p.stat().st_size for p in entries)
        count = len(entries)
        for path in entries:
            over_entries = max_entries is not None and count > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not over_entries and not over_bytes:
                break
            size = path.stat().st_size
            path.unlink()
            self.checksum_path(path.stem).unlink(missing_ok=True)
            total -= size
            count -= 1
            removed += 1
            freed += size
        return removed, freed

    def __len__(self) -> int:
        return len(self.iter_entries())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(root={str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"quarantined={self.quarantined})"
        )
