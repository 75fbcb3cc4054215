"""Versioned component state: the simulator's incremental state engine.

Every stateful component of the processor model (register files, rename
file, main memory, caches, branch predictor, the pipeline structures owned
by :class:`repro.core.pipeline.Cpu`) participates in one small protocol:

``save_state() -> object``
    Return a self-contained, immutable-by-convention snapshot of the
    component's mutable state.  The snapshot must not alias live state:
    restoring it later — possibly after arbitrary further simulation — has
    to reproduce the component bit-exactly.

``restore_state(state) -> None``
    Reinstall a previously saved snapshot *in place* (object identity of
    the component is preserved, so cross-component references — the cache's
    pointer to main memory, the rename file's pointer to the architectural
    registers — never need rewiring).

``version`` (an ``int`` or any equality-comparable token)
    A dirty counter, bumped on every observable mutation and on every
    restore.  Consumers cache derived artifacts (JSON payloads, rendered
    views) keyed by version and rebuild only when the version moved.
    Versions are monotonic per process and are deliberately *not* part of
    the saved state: a restore bumps the version so stale caches are
    invalidated, and a version value therefore never refers to two
    different contents.

On top of the protocol this module provides the three generic pieces the
snapshot/seek/serve stack is built from:

* :class:`SnapshotCache` — per-section payload caching keyed by version,
  used by ``Cpu.section_json`` (and the dict ``Cpu.snapshot()``) to patch
  the processor-view payload from dirty components only instead of
  rebuilding every section each cycle.
* :class:`CheckpointRing` — a bounded, LRU-evicted ring of full-state
  checkpoints taken every K cycles, used by ``Simulation`` to turn
  ``step_back``/``seek`` from an O(t) re-run into restore-nearest +
  replay-at-most-K (the checkpoint at cycle 0 is pinned so time travel to
  any cycle always has a base).
* :func:`apply_snapshot_delta` — client-side patching of a full snapshot
  with a delta produced by ``Simulation.snapshot_delta_json``, so the wire
  payload scales with what changed, not with machine size.

State has one encoder on the wire: ``Simulation.snapshot_json`` (full)
and ``Simulation.snapshot_delta_json`` (a delta, or the same full text
when there is no valid base) splice the cached section and instruction
fragments with ``json.dumps``'s own separators, and the server embeds the
text as :class:`RawJson`.  A reply's bytes therefore equal ``json.dumps``
of the dict form, ``Simulation.snapshot()``, which stays only as the
library API and, through ``snapshot_cold()``, the tests' oracle.

Determinism (Sec. III-B of the paper) is what makes checkpoint replay
sound: restoring the nearest checkpoint and re-running the remaining cycles
is bit-identical to a re-run from cycle 0, which the golden determinism
suite pins.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

#: Version of the snapshot/delta wire shape served by the session API.
#: Bump when the section list or the delta envelope changes incompatibly.
#: v3: every instruction-list section delta-serves at entry level —
#: ``fetch`` (scalars + buffer ids) and ``storeBuffer`` (entries carry an
#: ``id``) joined rob/issueWindows/loadQueue.
SNAPSHOT_SCHEMA_VERSION = 3

#: Section names of the processor-view payload (``Cpu.snapshot()`` keys
#: that are cached / delta-served; scalars cycle/pc/halted ride alongside).
SNAPSHOT_SECTIONS = (
    "fetch", "rob", "issueWindows", "functionalUnits", "memoryUnits",
    "loadQueue", "storeBuffer", "registers", "rename", "cache", "l2Cache",
)


class SnapshotCache:
    """Caches per-section payloads keyed by an opaque version token.

    ``section(name, version, build)`` returns the cached payload when the
    version matches the one it was built at, otherwise calls *build* and
    caches the result.  Payloads are returned by reference — callers must
    treat them as immutable (the snapshot path only ever serializes them).
    """

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: Dict[str, Tuple[object, object]] = {}

    def section(self, name: str, version: object,
                build: Callable[[], object]) -> object:
        hit = self._cache.get(name)
        if hit is not None and hit[0] == version:
            return hit[1]
        payload = build()
        self._cache[name] = (version, payload)
        return payload

    def clear(self) -> None:
        self._cache.clear()


class Checkpoint:
    """One full-simulation checkpoint: the cycle it was taken at plus the
    opaque state blob produced by ``Cpu.save_state``."""

    __slots__ = ("cycle", "state")

    def __init__(self, cycle: int, state: object):
        self.cycle = cycle
        self.state = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Checkpoint(cycle={self.cycle})"


class CheckpointRing:
    """Every-K-cycles checkpoint store with LRU-bounded memory.

    * ``due(cycle)`` — True when a checkpoint should be captured at *cycle*
      (the cycle is a multiple of the interval and not already stored).
    * ``put(cycle, state)`` — store a checkpoint; evicts the least recently
      used one when over capacity, then — when a ``max_bytes`` budget is
      set — keeps evicting LRU-first while :meth:`bytes_retained` exceeds
      the budget (never below the pinned cycle-0 base plus one more, so
      time travel always has a restore base and the freshest checkpoint
      survives its own put).  The cycle-0 checkpoint is pinned: time
      travel to any target always has a restore base, and restoring it is
      the in-place equivalent of rebuilding the CPU from scratch.
    * ``nearest(target)`` — the stored checkpoint with the greatest cycle
      ``<= target`` (and marks it recently used).

    Determinism makes *future* checkpoints reusable too: a checkpoint taken
    at cycle 500 remains a valid restore base for ``seek(600)`` even after
    stepping back to cycle 100, because the trajectory is unique.
    """

    def __init__(self, interval: int = 128, capacity: int = 24,
                 max_bytes: Optional[int] = None):
        if interval < 0:
            raise ValueError("checkpoint interval must be >= 0 (0 disables)")
        if capacity < 2:
            # cycle 0 is pinned, so capacity 1 could never retain any other
            # checkpoint: every put() would evict the entry it just added
            raise ValueError("checkpoint capacity must be >= 2")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("checkpoint max_bytes must be > 0 (or None)")
        self.interval = interval
        self.capacity = capacity
        self.max_bytes = max_bytes
        #: cycle -> Checkpoint, in LRU order (front = least recently used)
        self._ring: "OrderedDict[int, Checkpoint]" = OrderedDict()
        #: content generation: bumped whenever the stored set changes, so
        #: the bytes_retained() walk is amortized across the steps between
        #: checkpoints (the hot session/step path reads the gauge per
        #: request, but checkpoints only land every `interval` cycles)
        self._generation = 0
        self._retained_cache: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    def due(self, cycle: int) -> bool:
        return (self.interval > 0 and cycle % self.interval == 0
                and cycle not in self._ring)

    def put(self, cycle: int, state: object) -> Checkpoint:
        checkpoint = Checkpoint(cycle, state)
        self._ring[cycle] = checkpoint
        self._ring.move_to_end(cycle)
        while len(self._ring) > self.capacity:
            for victim in self._ring:          # front = LRU
                if victim != 0:                # cycle 0 is pinned
                    del self._ring[victim]
                    break
            else:  # pragma: no cover - capacity >= 2 keeps cycle 0
                break
        self._generation += 1
        if self.max_bytes is not None:
            # byte budget: page-compressed states share clean-page blobs,
            # so each eviction's real savings only show in the next
            # deduplicated walk — re-measure after every victim
            while (len(self._ring) > 2
                   and self.bytes_retained() > self.max_bytes):
                for victim in self._ring:      # front = LRU
                    if victim != 0:            # cycle 0 is pinned
                        del self._ring[victim]
                        self._generation += 1
                        break
                else:  # pragma: no cover - len > 2 keeps non-zero entries
                    break
        return checkpoint

    def nearest(self, target: int) -> Optional[Checkpoint]:
        best: Optional[int] = None
        for cycle in self._ring:
            if cycle <= target and (best is None or cycle > best):
                best = cycle
        if best is None:
            return None
        self._ring.move_to_end(best)
        return self._ring[best]

    def cycles(self) -> List[int]:
        """Stored checkpoint cycles, sorted (introspection / tests)."""
        return sorted(self._ring)

    def bytes_retained(self) -> int:
        """Estimated bytes the stored checkpoints actually retain.

        Page-compressed checkpoints (``MainMemory.save_state``) share
        clean-page blobs *by reference* across checkpoints, so the ring's
        real footprint is workload-dependent — summing per-checkpoint
        sizes would count a shared 1 KiB page once per checkpoint that
        references it.  This walk deduplicates by object identity:
        every reachable container/blob is measured exactly once no matter
        how many checkpoints share it, which is precisely the number a
        server needs to size ``checkpoint_capacity`` per session.

        The walk is cached per ring generation (put/clear bump it), so
        between checkpoints the gauge is a dictionary lookup.  Sizes come
        from ``sys.getsizeof`` — shallow for exotic leaf objects, exact
        for the bytes/tuples/dicts/lists checkpoints are made of.
        """
        cached = self._retained_cache
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        import sys
        seen = set()
        total = 0
        stack: List[object] = [cp.state for cp in self._ring.values()]
        while stack:
            node = stack.pop()
            marker = id(node)
            if marker in seen:
                continue
            seen.add(marker)
            total += sys.getsizeof(node)
            if isinstance(node, dict):
                stack.extend(node.keys())
                stack.extend(node.values())
            elif isinstance(node, (list, tuple, set, frozenset)):
                stack.extend(node)
        self._retained_cache = (self._generation, total)
        return total

    def clear(self) -> None:
        self._ring.clear()
        self._generation += 1

    def __len__(self) -> int:
        return len(self._ring)


class RawJson(str):
    """A pre-serialized JSON fragment.

    :func:`dumps_raw` splices instances verbatim into the output instead of
    re-encoding them, so payload fragments cached by the state engine (per
    dirty version, per in-flight instruction) are serialized exactly once
    per content change — the answer to the paper's Sec. IV-A finding that
    JSON work dominates request handling.  Over HTTP the spliced body is
    byte-identical to a plain ``json.dumps`` of the equivalent dict.
    """

    __slots__ = ()


def _json_key(key: object) -> str:
    """Encode a dict key exactly the way ``json.dumps`` coerces it."""
    if isinstance(key, str):
        return json.dumps(key)
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, (int, float)):
        return f'"{json.dumps(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def dumps_raw(payload: object) -> str:
    """``json.dumps`` with :class:`RawJson` splicing.

    Dicts are walked so embedded fragments surface (non-string keys are
    coerced exactly as ``json.dumps`` would); every other value — including
    arbitrarily large plain sub-trees — is handed to the C encoder in one
    call.  Fragments must therefore only be reachable through chains of
    dicts (which is how the protocol layer embeds them).
    """
    if isinstance(payload, RawJson):
        return str(payload)
    if type(payload) is dict:
        parts = []
        for key, value in payload.items():
            parts.append(f"{_json_key(key)}: {dumps_raw(value)}")
        return "{" + ", ".join(parts) + "}"
    return json.dumps(payload)


def _base_entry_pool(base: dict) -> Dict[int, dict]:
    """All instruction payloads of a full snapshot, keyed by id.

    Every instruction-list section draws from the same per-instruction
    payload dicts, so an entry referenced by id in a delta can be resolved
    from whichever section of the base last carried it.
    """
    pool: Dict[int, dict] = {}
    for entry in base.get("rob") or []:
        pool[entry["id"]] = entry
    for entry in base.get("loadQueue") or []:
        pool[entry["id"]] = entry
    for window in (base.get("issueWindows") or {}).values():
        for entry in window:
            pool[entry["id"]] = entry
    for entry in (base.get("fetch") or {}).get("buffer", []):
        pool[entry["id"]] = entry
    return pool


def _resolve_entries(ids, changed: dict, pool: dict) -> list:
    return [changed[str(uid)] if str(uid) in changed else pool[uid]
            for uid in ids]


def _storeb_pool(base: dict) -> Dict[int, dict]:
    """Store-buffer payloads of a full snapshot, keyed by id.

    Kept separate from the instruction pool: store-buffer entries render
    drain state, not instruction JSON, so ids must resolve against the
    base's own storeBuffer section."""
    return {entry["id"]: entry
            for entry in base.get("storeBuffer") or []
            if "id" in entry}


def apply_snapshot_delta(base: dict, delta: dict) -> dict:
    """Patch full snapshot *base* with *delta* into the next full snapshot.

    The inverse of ``Simulation.snapshot_delta_json``: applying the delta a
    server produced against the client's previous full state yields exactly
    what ``Simulation.snapshot()`` would have returned.  Instruction-list
    sections may arrive as entry-level deltas (``{"__entryDelta": true,
    "ids": [...], "changed": {...}}``); unchanged entries are resolved from
    the base.  Returns a new dict; *base* is not modified.
    """
    if delta.get("format") == "full":
        return dict(delta["state"])
    if delta.get("baseCycle") != base.get("cycle"):
        # e.g. a lost response advanced the server's view past this base;
        # merging would silently corrupt the view — resync with a full state
        raise ValueError(
            f"delta base mismatch: delta was computed against cycle "
            f"{delta.get('baseCycle')}, client holds cycle "
            f"{base.get('cycle')} (request a full state to resync)")
    out = dict(base)
    out["cycle"] = delta["cycle"]
    out["pc"] = delta["pc"]
    out["halted"] = delta["halted"]
    pool: Optional[Dict[int, dict]] = None
    for name, payload in delta.get("sections", {}).items():
        if isinstance(payload, dict) and payload.get("__entryDelta"):
            changed = payload["changed"]
            if name == "storeBuffer":
                out[name] = _resolve_entries(payload["ids"], changed,
                                             _storeb_pool(base))
                continue
            if pool is None:
                pool = _base_entry_pool(base)
            if name == "issueWindows":
                out[name] = {
                    window: _resolve_entries(ids, changed, pool)
                    for window, ids in payload["windows"].items()}
            elif name == "fetch":
                out[name] = {
                    "pc": payload["pc"],
                    "stalledUntil": payload["stalledUntil"],
                    "buffer": _resolve_entries(payload["ids"], changed,
                                               pool)}
            else:
                out[name] = _resolve_entries(payload["ids"], changed, pool)
        else:
            out[name] = payload
    if "statistics" in delta:
        out["statistics"] = delta["statistics"]
    if "log" in delta:
        out["log"] = base.get("log", [])[:delta["logStart"]] + delta["log"]
    return out
