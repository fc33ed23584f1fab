"""Seeded, deterministic *infrastructure* fault injection.

:mod:`repro.faults` (PR 2) breaks the simulated chip — dead cores, stuck
actuators, telemetry blackouts — and the control stack degrades
gracefully.  This module applies the same discipline one layer up, to the
execution infrastructure that now carries every experiment: worker
processes, the IPC path, and the on-disk result cache.  A
:class:`ChaosPolicy` injects the faults a long-running experiment service
meets in production:

* **worker crash** — the worker process dies mid-cell (``os._exit``),
  breaking the process pool exactly like an OOM kill or segfault;
* **hang** — the worker stalls for :attr:`hang_seconds` before
  continuing, turning the cell into a straggler for the engine's
  soft-deadline watchdog;
* **transient error** — a :class:`ChaosTransientError` raised at cell
  start, modelling a transient pickling/IPC failure that a retry clears;
* **cache corruption** — a just-written cache entry has bytes flipped or
  is truncated (a torn write), which the cache's integrity verification
  must quarantine rather than serve;
* **disk full** — a cache write fails with ``OSError`` before the atomic
  rename, which the engine must absorb (a failed cache write may cost a
  recompute later, never the run).

Two invariants make chaos runs provable rather than merely exciting:

**Determinism.**  Every injection decision is a pure SHA-256 hash of
``(seed, fault kind, site identity, attempt)`` — independent of call
order, process, and wall clock — so the same policy injects the same
faults at the same sites in every run.  No numpy/random stream is
consumed (DET001-clean), and the policy pickles across the spawn boundary
unchanged.

**Termination.**  Worker-side faults (crash, hang, transient) are only
injected on attempts up to :attr:`max_attempt`; with a retry budget of at
least ``max_attempt``, every cell eventually gets a clean attempt.  Cache
faults cannot loop either: a corrupted entry is quarantined on the next
read, recomputed once, and the recomputed in-memory result is used
directly.

Chaos never touches the *simulation*: faults strike before or around
``run_controller``, so a cell that ultimately succeeds — however many
crashes, hangs and corruptions preceded it — produces a result
bit-identical to a clean run.  That is the contract the chaos soak test
(``tools/chaos_soak.py``, ``make chaos``) enforces.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "CHAOS_CRASH_EXIT_CODE",
    "ChaosTransientError",
    "ChaosPolicy",
]

#: Exit status of a chaos-killed worker, distinguishable from interpreter
#: errors in worker logs (mirrors the test helpers' sentinel code idiom).
CHAOS_CRASH_EXIT_CODE = 44


class ChaosTransientError(RuntimeError):
    """Injected transient infrastructure error (IPC/pickling-style).

    Classified transient by :class:`repro.parallel.retry.RetryPolicy`, so
    the engine retries the cell with backoff instead of failing it.
    """


def _decision(seed: int, kind: str, key: str, attempt: int) -> float:
    """Deterministic uniform in ``[0, 1)`` for one injection site."""
    digest = hashlib.sha256(
        f"chaos;{seed};{kind};{key};{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass
class ChaosPolicy:
    """Deterministic infrastructure fault schedule, keyed by site identity.

    Rates are independent per-fault probabilities in ``[0, 1]``; a site's
    draw for each fault kind is a pure function of
    ``(seed, kind, site, attempt)``.  The policy is mutable only in its
    :attr:`counts` tally (injections observed *in this process* — worker
    processes keep their own copies, so parent-side counts cover exactly
    the parent-side faults: cache corruption and disk-full).

    Attributes
    ----------
    seed:
        Chaos schedule seed.  Same seed, same faults, every run.
    crash_rate, hang_rate, transient_rate:
        Worker-side fault probabilities, evaluated once per (cell,
        attempt) at cell start, in that precedence order (at most one
        fires per attempt).
    cache_corrupt_rate, cache_truncate_rate:
        Probability that a just-written cache entry is corrupted (one
        byte flipped) or truncated (torn write), evaluated per entry key.
    disk_full_rate:
        Probability that a cache write raises ``OSError`` before the
        atomic rename, evaluated per entry key and put-attempt.
    hang_seconds:
        Stall duration of an injected hang.  Keep it above the engine's
        soft deadline to exercise the watchdog, or below to exercise
        straggler tolerance.
    max_attempt:
        Worker-side faults are never injected on attempts beyond this,
        guaranteeing termination when the retry budget reaches it.
    """

    seed: int
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    transient_rate: float = 0.0
    cache_corrupt_rate: float = 0.0
    cache_truncate_rate: float = 0.0
    disk_full_rate: float = 0.0
    hang_seconds: float = 1.0
    max_attempt: int = 2
    counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in (
            "crash_rate",
            "hang_rate",
            "transient_rate",
            "cache_corrupt_rate",
            "cache_truncate_rate",
            "disk_full_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.hang_seconds < 0:
            raise ValueError(
                f"hang_seconds must be >= 0, got {self.hang_seconds}"
            )
        if self.max_attempt < 1:
            raise ValueError(f"max_attempt must be >= 1, got {self.max_attempt}")

    @classmethod
    def storm(
        cls, seed: int, rate: float = 0.2, hang_seconds: float = 0.0
    ) -> "ChaosPolicy":
        """Every fault class armed at the same ``rate`` (soak-test shape)."""
        return cls(
            seed=seed,
            crash_rate=rate,
            hang_rate=rate if hang_seconds > 0 else 0.0,
            transient_rate=rate,
            cache_corrupt_rate=rate,
            cache_truncate_rate=rate,
            disk_full_rate=rate,
            hang_seconds=hang_seconds,
        )

    # -- decision helpers -------------------------------------------------
    def should(self, kind: str, key: str, attempt: int = 0) -> bool:
        """Would fault ``kind`` fire at site ``key`` on ``attempt``?

        Pure and side-effect free — callable from tests and from both
        sides of the spawn boundary with identical answers.
        """
        rate = getattr(self, f"{kind}_rate")
        if rate <= 0.0:
            return False
        return _decision(self.seed, kind, key, attempt) < rate

    def _note(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    # -- worker-side injection -------------------------------------------
    def at_cell_start(self, label: str, attempt: int) -> None:
        """Apply at most one worker-side fault before a cell simulates.

        Called by the worker entry point with the cell's label and
        1-based attempt number (cells running in-process use
        :meth:`inline_cell_start` instead).  Beyond
        :attr:`max_attempt` this is a no-op, so retries converge.
        """
        if attempt > self.max_attempt:
            return
        if self.should("crash", label, attempt):
            # A crash cannot be tallied or reported from this process;
            # the parent observes it as WorkerCrash and counts the retry.
            os._exit(CHAOS_CRASH_EXIT_CODE)
        if self.should("hang", label, attempt):
            self._note("hang")
            time.sleep(self.hang_seconds)
            return
        if self.should("transient", label, attempt):
            self._note("transient")
            raise ChaosTransientError(
                f"injected transient IPC fault (cell {label}, attempt {attempt})"
            )

    def inline_cell_start(self, label: str, attempt: int) -> None:
        """Inline (``jobs=1``) variant: only the faults that are safe in
        the calling process — a crash would kill the parent and a hang has
        no watchdog, so only transient errors fire."""
        if attempt > self.max_attempt:
            return
        if self.should("transient", label, attempt):
            self._note("transient")
            raise ChaosTransientError(
                f"injected transient fault (cell {label}, attempt {attempt})"
            )

    # -- cache-side injection --------------------------------------------
    def before_cache_put(self, key: str, attempt: int = 1) -> None:
        """Raise ``OSError`` (disk full) for a doomed write, else no-op."""
        if self.should("disk_full", key, attempt):
            self._note("disk_full")
            raise OSError(f"injected disk-full fault (cache entry {key[:12]})")

    def corrupt_cache_entry(self, key: str, path: "os.PathLike[str]") -> Optional[str]:
        """Corrupt or truncate the just-written entry at ``path``.

        Returns the injected fault kind (``"cache_corrupt"`` /
        ``"cache_truncate"``) or ``None``.  Corruption flips one byte in
        the middle of the file; truncation halves it — both torn-write
        shapes the cache's checksum verification must catch.
        """
        kind: Optional[str] = None
        if self.should("cache_corrupt", key):
            kind = "cache_corrupt"
        elif self.should("cache_truncate", key):
            kind = "cache_truncate"
        if kind is None:
            return None
        size = os.path.getsize(path)
        if size == 0:
            return None
        with open(path, "r+b") as fh:
            if kind == "cache_corrupt":
                fh.seek(size // 2)
                byte = fh.read(1)
                fh.seek(size // 2)
                fh.write(bytes([byte[0] ^ 0xFF]) if byte else b"\xff")
            else:
                fh.truncate(max(1, size // 2))
        self._note(kind)
        return kind

    def cache_injections(self) -> int:
        """Parent-side cache faults injected so far (corrupt + truncate).

        The chaos soak compares this against the cache's ``quarantined``
        counter: equality proves zero quarantine false positives.
        """
        return self.counts.get("cache_corrupt", 0) + self.counts.get(
            "cache_truncate", 0
        )
