"""Content-addressed artifact cache for per-job sweep setup.

Design points that share a program pay the same setup bill per job —
compile the C source, assemble the assembly — because crash isolation
keeps jobs stateless.  The cache removes that waste without giving up
statelessness: artifacts are addressed purely by the *content* of their
inputs (SHA-256 of source + every layout-relevant parameter), so a hit
is byte-for-byte the artifact a cold build would have produced and
records stay bit-identical whether the cache was warm or cold.

Two tiers:

* **memory** — per-process LRU maps.  Holds compiled assembly *and*
  assembled :class:`repro.asm.program.Program` objects (a ``Program`` is
  immutable-once-assembled by the decode-cache contract, so sharing one
  instance across jobs in a process is safe; every ``Cpu`` copies the
  data segment before running).  This is the tier a remote sweep worker
  keeps per server.
* **disk** — an optional content-addressed directory holding the
  JSON-safe artifacts only (compiled assembly).  Worker *processes* of
  one host all point at the same directory, so a process-pool sweep
  compiles each distinct (C source, opt level) exactly once per host,
  not once per worker.  Writes are atomic (temp file + ``os.replace``)
  and any I/O failure silently degrades to the memory tier — the cache
  is an accelerator, never a correctness dependency.

A remote or fleet sweep compiles on its dispatcher, not on its workers:
:class:`repro.explore.backend.RemoteBackend` turns each C program into
its assembly through one cache (the server's for a fleet sweep, the
process default for ``--backend remote``) just before the job goes out.
:meth:`ArtifactCache.compiled_assembly` is single-flighted, so the sweep
compiles each (C source, opt level) once however many of its serve
threads ask.

``repro.explore.runner`` consults the process-default cache (see
:func:`default_cache`) for every job, on every execution backend.  The
default disk directory is per-host/per-user under the system temp dir
and can be redirected with ``REPRO_ARTIFACT_DIR=/path`` or disabled
entirely with ``REPRO_ARTIFACT_DIR=off``.

The disk tier is **size-bounded**: a long-lived host compiles
thousands of distinct programs, and a content-addressed store never
invalidates on its own.  Writes trigger an LRU garbage collection by
file mtime (reads touch the mtime, so recently-served artifacts
survive) whenever the tier exceeds ``max_disk_bytes`` — default
:data:`DEFAULT_MAX_DISK_BYTES`, overridable with
``REPRO_ARTIFACT_MAX_BYTES`` (``0``/``unlimited`` disables the GC).
Hit/miss/size stats are surfaced on the worker's ``/worker/status``
endpoint via :meth:`ArtifactCache.stats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.obs.metrics import default_registry

__all__ = ["ArtifactCache", "default_cache", "reset_default_cache",
           "ARTIFACT_DIR_ENV", "ARTIFACT_MAX_BYTES_ENV",
           "DEFAULT_MAX_DISK_BYTES"]

# this module sits inside the runner's deterministic closure, so the
# instrumentation is counter bumps only (repro.obs.metrics is clock- and
# environment-free by contract)
_CACHE_REQUESTS = default_registry().counter(
    "repro_artifact_cache_requests_total",
    "Artifact cache lookups, by tier and outcome")

#: environment override for the disk tier ("off"/"none"/"0" disables it)
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: environment override for the disk-tier size budget in bytes
#: ("0"/"unlimited" disables garbage collection)
ARTIFACT_MAX_BYTES_ENV = "REPRO_ARTIFACT_MAX_BYTES"

#: default disk-tier budget: generous for a laptop, tight enough that a
#: fleet worker's tmp dir cannot grow without bound
DEFAULT_MAX_DISK_BYTES = 256 * 1024 * 1024

_DISABLED = ("off", "none", "0", "")


def _max_bytes_from_env() -> Optional[int]:
    env = os.environ.get(ARTIFACT_MAX_BYTES_ENV)
    if env is None:
        return DEFAULT_MAX_DISK_BYTES
    text = env.strip().lower()
    if text in ("", "0", "off", "none", "unlimited"):
        return None
    try:
        value = int(text)
    except ValueError:
        return DEFAULT_MAX_DISK_BYTES
    return value if value > 0 else None


def _default_directory() -> Optional[str]:
    env = os.environ.get(ARTIFACT_DIR_ENV)
    if env is not None:
        return None if env.strip().lower() in _DISABLED else env
    uid = getattr(os, "getuid", lambda: "any")()
    return os.path.join(tempfile.gettempdir(), f"repro-artifacts-{uid}")


_toolchain_tag: Optional[str] = None


def _toolchain_fingerprint() -> str:
    """Fingerprint of the code that *produces* artifacts.

    The disk tier outlives the process — and the repo checkout — so a
    content address must cover the toolchain, not just its inputs: an
    artifact compiled by yesterday's code generator is not the artifact
    today's would produce, and serving it would silently break the
    byte-identity pin between backends with differently-warmed caches.
    Hashing (path, size, mtime) of every ``repro.asm`` / ``repro.compiler``
    source file is cheap (one stat per file, once per process) and
    over-invalidates at worst (a touched file drops cache hits, never
    correctness)."""
    global _toolchain_tag
    if _toolchain_tag is None:
        import repro.asm
        import repro.compiler
        hasher = hashlib.sha256()
        for package in (repro.asm, repro.compiler):
            root = os.path.dirname(package.__file__)
            for name in sorted(os.listdir(root)):
                if not name.endswith(".py"):
                    continue
                try:
                    info = os.stat(os.path.join(root, name))
                    hasher.update(f"{name}:{info.st_size}:"
                                  f"{info.st_mtime_ns}".encode())
                except OSError:  # pragma: no cover - zip imports etc.
                    hasher.update(name.encode())
        _toolchain_tag = hasher.hexdigest()[:16]
    return _toolchain_tag


def _digest(*parts: object) -> str:
    """Stable content address of the given parts (JSON-canonicalized),
    qualified by the toolchain fingerprint."""
    hasher = hashlib.sha256()
    hasher.update(_toolchain_fingerprint().encode())
    for part in parts:
        hasher.update(json.dumps(part, sort_keys=True,
                                 ensure_ascii=False).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


class _LruMap:
    """Tiny bounded LRU dict (thread-unsafe; callers hold the cache lock)."""

    __slots__ = ("max_entries", "_map")

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._map: "OrderedDict[str, object]" = OrderedDict()

    def get(self, key: str):
        value = self._map.get(key)
        if value is not None:
            self._map.move_to_end(key)
        return value

    def put(self, key: str, value: object) -> None:
        self._map[key] = value
        self._map.move_to_end(key)
        while len(self._map) > self.max_entries:
            self._map.popitem(last=False)

    def __len__(self) -> int:
        return len(self._map)

    def clear(self) -> None:
        self._map.clear()


class ArtifactCache:
    """Content-addressed cache of compile / assemble artifacts.

    Parameters
    ----------
    directory:
        Disk-tier root for JSON-safe artifacts, shared across processes
        of one host.  ``None`` keeps the cache memory-only (the remote
        sweep worker's per-server mode).
    max_entries:
        Per-kind memory-tier capacity (LRU-evicted).
    max_disk_bytes:
        Disk-tier size budget; exceeding it on a write garbage-collects
        the least-recently-used artifacts (by file mtime — reads touch
        it) until the tier fits.  ``None`` disables the GC.
    """

    def __init__(self, directory: Optional[str] = None,
                 max_entries: int = 64,
                 max_disk_bytes: Optional[int] = DEFAULT_MAX_DISK_BYTES):
        self.directory = directory
        self.max_disk_bytes = max_disk_bytes
        self._lock = threading.Lock()
        self._compiled = _LruMap(max_entries)
        self._programs = _LruMap(max_entries)
        #: single-flight: cold keys being built right now -> the Event
        #: their waiters block on (builder crash included: the finally
        #: always signals, and waiters re-check the tiers)
        self._flights: Dict[str, threading.Event] = {}
        self._hits = {"compile": 0, "assemble": 0}
        self._misses = {"compile": 0, "assemble": 0}
        self._disk_hits = 0
        self._disk_evicted = 0
        #: incrementally-maintained (files, bytes) of the disk tier —
        #: scanned once lazily, then updated per write/eviction, so the
        #: hot paths (/worker/execute replies carry stats()) never pay
        #: an O(files) directory scan.  Other processes sharing the
        #: directory can drift these; every GC pass re-syncs them from
        #: its authoritative scan.
        self._disk_files: Optional[int] = None
        self._disk_bytes = 0

    @staticmethod
    def from_env() -> "ArtifactCache":
        """Cache with the per-host default (or env-configured) disk tier."""
        return ArtifactCache(directory=_default_directory(),
                             max_disk_bytes=_max_bytes_from_env())

    # -- disk tier -----------------------------------------------------
    def _disk_read_locked(self, key: str) -> Optional[dict]:
        if self.directory is None:
            return None
        try:
            path = os.path.join(self.directory, f"{key}.json")
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        try:
            # LRU touch: a served artifact should outlive cold ones when
            # the size-bounded GC picks eviction victims by mtime
            os.utime(path, None)
        except OSError:
            pass
        return data if isinstance(data, dict) else None

    def _disk_write_locked(self, key: str, payload: dict) -> None:
        if self.directory is None:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            target = os.path.join(self.directory, f"{key}.json")
            try:
                previous_size = os.path.getsize(target)
            except OSError:
                previous_size = None
            fd, temp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                size = os.path.getsize(temp)
                os.replace(temp, target)
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise
            if self._disk_files is not None:
                if previous_size is None:
                    self._disk_files += 1
                    self._disk_bytes += size
                else:
                    self._disk_bytes += size - previous_size
            if self.max_disk_bytes is not None \
                    and self._disk_usage_locked()[1] > self.max_disk_bytes:
                self._disk_gc_locked()
        except OSError:
            # read-only tmp, disk full, ...: degrade to the memory tier
            self.directory = None

    def _disk_entries(self) -> List[tuple]:
        """``(mtime_ns, size, path)`` of every artifact on disk."""
        entries = []
        with os.scandir(self.directory) as scan:
            for entry in scan:
                if not entry.name.endswith(".json"):
                    continue
                try:
                    info = entry.stat()
                except OSError:
                    continue
                entries.append((info.st_mtime_ns, info.st_size,
                                entry.path))
        return entries

    def _disk_usage_locked(self) -> tuple:
        """``(files, bytes)`` of the disk tier — scanned lazily once,
        incrementally maintained afterwards (callers hold the lock)."""
        if self._disk_files is None:
            try:
                entries = self._disk_entries()
            except OSError:
                return 0, 0
            self._disk_files = len(entries)
            self._disk_bytes = sum(size for _m, size, _p in entries)
        return self._disk_files, self._disk_bytes

    def _disk_gc_locked(self) -> None:
        """Evict least-recently-used artifacts until the tier fits.

        Only runs when the (incrementally-tracked) usage exceeds the
        budget, and its scan is authoritative: the counters are re-synced
        from it, so drift from other processes sharing the directory
        self-corrects here.  Never raises: eviction is an
        accelerator-maintenance action, and a GC that cannot stat or
        unlink simply leaves the file for the next pass."""
        if self.max_disk_bytes is None or self.directory is None:
            return
        try:
            entries = self._disk_entries()
        except OSError:
            return
        total = sum(size for _mtime, size, _path in entries)
        files = len(entries)
        entries.sort()                     # oldest mtime first
        for _mtime, size, path in entries:
            if total <= self.max_disk_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            self._disk_evicted += 1
            total -= size
            files -= 1
        self._disk_files = files
        self._disk_bytes = total

    # -- artifacts -----------------------------------------------------
    def compiled_assembly(self, c_source: str, opt_level: int) -> str:
        """C source -> assembly, keyed by (source hash, opt level).

        Tier order on a cold key: memory -> disk -> compile.  Concurrent
        requests for one cold key are single-flighted: the first caller
        compiles while the rest wait on it and then take the memory
        tier, so a miss storm costs one compile, not N.

        Only successful compilations are cached; a failing translation
        unit raises :class:`repro.explore.runner.JobError` with the same
        message a cold compile produces, so failure records are
        identical warm or cold.
        """
        from repro.explore.runner import JobError
        level = int(opt_level)
        key = _digest("compile", c_source, level)
        while True:
            with self._lock:
                cached = self._compiled.get(key)
                if cached is not None:
                    self._hits["compile"] += 1
                    _CACHE_REQUESTS.inc(tier="compile", outcome="hit")
                    return cached
                disk = self._disk_read_locked(key)
                if disk is not None \
                        and isinstance(disk.get("assembly"), str):
                    self._hits["compile"] += 1
                    self._disk_hits += 1
                    _CACHE_REQUESTS.inc(tier="compile", outcome="diskHit")
                    self._compiled.put(key, disk["assembly"])
                    return disk["assembly"]
                flight = self._flights.get(key)
                if flight is None:
                    self._flights[key] = threading.Event()
                    self._misses["compile"] += 1
                    _CACHE_REQUESTS.inc(tier="compile", outcome="miss")
                    break                    # this thread is the builder
            # another thread is building this key: wait (bounded, so a
            # lost signal cannot hang callers) and re-check the tiers —
            # if the builder failed, one waiter becomes the next builder
            flight.wait(5.0)
        try:
            from repro.compiler.driver import compile_c
            result = compile_c(c_source, level)
            if not result.success:
                raise JobError(f"C compilation failed at O{level}: "
                               f"{result.errors}")
            with self._lock:
                self._compiled.put(key, result.assembly)
                self._disk_write_locked(key, {"assembly": result.assembly})
            return result.assembly
        finally:
            with self._lock:
                event = self._flights.pop(key, None)
            if event is not None:
                event.set()

    def assembled_program(self, source: str, stack_size: int,
                          entry: Optional[object],
                          memory_locations: List[dict]):
        """Assembly source -> assembled ``Program``, keyed by everything
        that shapes the memory layout (stack size, entry, data spec).

        Memory tier only: ``Program`` carries compiled expression code,
        which is not JSON-serializable — but it *is* safely shareable
        across jobs of one process (assembled programs are immutable by
        the decode-cache contract; the initial memory image is copied
        per ``Cpu``)."""
        key = _digest("assemble", source, int(stack_size), entry,
                      list(memory_locations))
        with self._lock:
            cached = self._programs.get(key)
            if cached is not None:
                self._hits["assemble"] += 1
                _CACHE_REQUESTS.inc(tier="assemble", outcome="hit")
                return cached
            self._misses["assemble"] += 1
            _CACHE_REQUESTS.inc(tier="assemble", outcome="miss")
        from repro.asm.parser import Assembler
        from repro.memory.layout import MemoryLocation
        program = Assembler().assemble(
            source, entry=entry,
            memory_locations=[MemoryLocation.from_json(d)
                              for d in memory_locations],
            stack_size=stack_size)
        with self._lock:
            self._programs.put(key, program)
        return program

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            data = {
                "compile": {"hits": self._hits["compile"],
                            "misses": self._misses["compile"],
                            "entries": len(self._compiled)},
                "assemble": {"hits": self._hits["assemble"],
                             "misses": self._misses["assemble"],
                             "entries": len(self._programs)},
                "diskHits": self._disk_hits,
                "directory": self.directory,
            }
            disk = {"maxBytes": self.max_disk_bytes,
                    "evicted": self._disk_evicted}
            if self.directory is not None:
                files, size = self._disk_usage_locked()
                disk["files"] = files
                disk["bytes"] = size
            data["disk"] = disk
            return data

    def clear(self) -> None:
        """Drop the memory tier (the disk tier is content-addressed and
        never needs invalidation)."""
        with self._lock:
            self._compiled.clear()
            self._programs.clear()


_default: Optional[ArtifactCache] = None
_default_lock = threading.Lock()


def default_cache() -> ArtifactCache:
    """The process-wide cache sweep runners consult (lazily built from
    the environment; worker processes each build their own on first job,
    all pointing at the same per-host disk directory)."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = ArtifactCache.from_env()
    return _default


def reset_default_cache() -> None:
    """Forget the process-default cache (tests re-point the disk tier
    via ``REPRO_ARTIFACT_DIR`` and need the lazy singleton rebuilt)."""
    global _default
    with _default_lock:
        _default = None
