"""Simulation step manager (the paper's ``BlockScheduleTask``).

Drives the :class:`repro.core.pipeline.Cpu` clock cycle by clock cycle
(step-by-step) or continuously to completion, collects runtime statistics,
and implements **backward simulation** exactly as the paper does
(Sec. III-B): *"implemented as a forward simulation with t-1 clock cycles.
While this approach significantly simplifies the implementation, it
requires the simulation to be deterministic."*  All sources of randomness
(Random cache replacement, random array fills) are seeded, so re-running is
bit-exact.

Observability boundary
----------------------

This module (and everything below it — :mod:`repro.core.pipeline`,
:mod:`repro.core.tracegen`) is *outside* the telemetry plane: it never
imports :mod:`repro.obs`, reads no wall clock, and emits no metrics.
Profiling is attach-from-outside only — :class:`repro.obs.profile`
wraps stage methods as instance attributes and removes them on detach,
so an unprofiled ``Simulation.run()`` executes the exact same code as
a build that has never heard of the profiler (pinned by
``tests/obs/test_profile.py::TestLayering`` and the throughput ratio
in ``benchmarks/test_obs_overhead.py``).  Telemetry for sweeps happens
one layer up, in the explore backends, keyed off the deterministic
:class:`SimulationResult` this module returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.asm.parser import Assembler
from repro.asm.program import Program
from repro.core.config import CpuConfig
from repro.core.pipeline import Cpu
from repro.isa.isa import InstructionSet
from repro.sim.state import SNAPSHOT_SCHEMA_VERSION, CheckpointRing
from repro.sim.statistics import RuntimeStatistics

#: cycles simulated between cooperative cancel-token checks in
#: :meth:`Simulation.run`.  The documented worst case: once a token
#: fires, at most this many more cycles execute before the run halts
#: (one check interval; ~tens of milliseconds of wall time at the
#: simulator's measured cycle throughput).  Pinned by
#: ``tests/fleet/test_cancel.py``.
DEFAULT_CANCEL_STRIDE = 5_000

#: instruction-list sections that delta-serve at entry level
_ENTRY_SECTIONS = ("fetch", "rob", "issueWindows", "loadQueue",
                   "storeBuffer")

#: halt reason of a run stopped by a cancel token — deterministic (no
#: reason text embedded) so cancelled records stay comparable
CANCELLED_HALT_REASON = "cancelled"


@dataclass
class SimulationResult:
    """Summary of a finished run (CLI / server payload)."""

    halt_reason: str
    cycles: int
    committed: int
    statistics: dict

    def to_json(self) -> dict:
        return {
            "haltReason": self.halt_reason,
            "cycles": self.cycles,
            "committedInstructions": self.committed,
            "statistics": self.statistics,
        }


class Simulation:
    """Forward/backward-steppable simulation of one program on one config.

    Parameters
    ----------
    program:
        An assembled :class:`Program`.
    config:
        The processor architecture.  The assembler must have used the same
        call-stack size (use :meth:`from_source` to guarantee this).
    """

    def __init__(self, program: Program, config: Optional[CpuConfig] = None,
                 checkpoint_interval: int = 128,
                 checkpoint_capacity: int = 24,
                 checkpoint_max_bytes: Optional[int] = None):
        self.program = program
        self.config = config or CpuConfig()
        self.cpu = Cpu(program, self.config)
        self.stats = RuntimeStatistics(self.cpu)
        #: observers notified after every step (the paper's observer pattern)
        self.observers: List[Callable[[Cpu], None]] = []
        #: every-K-cycles checkpoint store for O(K) time travel; the cycle-0
        #: checkpoint is captured eagerly so any target has a restore base
        self.checkpoints = CheckpointRing(checkpoint_interval,
                                          checkpoint_capacity,
                                          max_bytes=checkpoint_max_bytes)
        self.checkpoints.put(0, self.cpu.save_state())
        #: cycles re-executed by the most recent backward step / seek
        #: (0 = resolved without replay); pinned by the O(K) benchmarks
        self.last_replay_cycles = 0
        #: cycles covered by the uninstrumented fast-forward leg of the
        #: most recent seek / step_back (0 = the move was stepped)
        self.last_fast_forward = 0
        #: (cycle, section versions, log length, per-instruction versions,
        #: per-store-buffer-entry versions) of the last snapshot served —
        #: the base the next snapshot_delta() is computed against
        self._view_mark: Optional[Tuple[int, dict, int, dict, dict]] = None
        #: incremental rendering of the cycle-stamped log
        self._log_render: Optional[Tuple[list, list]] = None

    # ------------------------------------------------------------------
    @staticmethod
    def from_source(source: str, config: Optional[CpuConfig] = None,
                    entry: Optional[object] = None,
                    memory_locations: Sequence[object] = (),
                    instruction_set: Optional[InstructionSet] = None,
                    checkpoint_interval: int = 128,
                    checkpoint_capacity: int = 24,
                    checkpoint_max_bytes: Optional[int] = None
                    ) -> "Simulation":
        """Assemble *source* and build a simulation with a consistent layout."""
        config = config or CpuConfig()
        assembler = Assembler(instruction_set)
        program = assembler.assemble(
            source, entry=entry, memory_locations=memory_locations,
            stack_size=config.memory.call_stack_size)
        return Simulation(program, config,
                          checkpoint_interval=checkpoint_interval,
                          checkpoint_capacity=checkpoint_capacity,
                          checkpoint_max_bytes=checkpoint_max_bytes)

    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.cpu.cycle

    @property
    def halted(self) -> Optional[str]:
        return self.cpu.halted

    def subscribe(self, observer: Callable[[Cpu], None]) -> None:
        """Register a state-change observer (GUI blocks in the paper)."""
        self.observers.append(observer)

    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by *cycles* clock cycles.

        Every ``checkpoint_interval`` cycles the complete processor state is
        checkpointed (see :class:`repro.sim.state.CheckpointRing`), so later
        backward steps and seeks restore the nearest checkpoint and replay
        at most one interval instead of re-running from cycle 0."""
        cpu = self.cpu
        checkpoints = self.checkpoints
        for _ in range(cycles):
            if cpu.halted:
                return
            cpu.step()
            for observer in self.observers:
                observer(cpu)
            if checkpoints.due(cpu.cycle):
                checkpoints.put(cpu.cycle, cpu.save_state())

    def step_back(self, cycles: int = 1) -> None:
        """Backward simulation: deterministic re-run to ``t - cycles``.

        Implemented as restore-nearest-checkpoint + forward replay of at
        most ``checkpoint_interval`` cycles (the paper's from-zero re-run,
        Sec. III-B, remains the degenerate case when no checkpoint covers
        the target — e.g. the pinned cycle-0 checkpoint).
        """
        self._travel_to(max(0, self.cpu.cycle - cycles))

    def seek(self, cycle: int) -> None:
        """Jump to an absolute cycle (log-message navigation, Sec. II-A).

        Backward (and far-forward) jumps restore the nearest stored
        checkpoint ``<= cycle`` — determinism makes checkpoints *ahead* of
        the current position just as valid a base as ones behind it."""
        self._travel_to(max(0, cycle))

    def _travel_to(self, target: int) -> None:
        current = self.cpu.cycle
        self.last_fast_forward = 0
        if target == current:
            self.last_replay_cycles = 0
            return
        checkpoint = self.checkpoints.nearest(target)
        if target > current and (checkpoint is None
                                 or checkpoint.cycle <= current):
            # plain forward stepping from where we stand is the best base
            self.last_replay_cycles = 0
            self._advance(target)
            return
        if checkpoint is None:
            # the ring was cleared externally: degrade gracefully to the
            # paper's from-zero re-run (and re-pin the cycle-0 base)
            self.reset()
            self.checkpoints.put(0, self.cpu.save_state())
            self.last_replay_cycles = target
            self._advance(target)
            return
        self.cpu.restore_state(checkpoint.state)
        self.last_replay_cycles = target - checkpoint.cycle
        self._advance(target)

    def _advance(self, target: int) -> None:
        """Forward move to absolute cycle *target* from where we stand.

        With no observers and a gap worth more than two checkpoint
        intervals, the bulk of the move runs **uninstrumented**
        (:meth:`Cpu.run` — the config-specialized step loop when enabled)
        to the last interval boundary below the target, drops the
        checkpoint the stepped path would have left there, and only the
        tail interval is stepped.  Determinism makes the two paths land in bit-identical
        state, so instrumented stepping resumes seamlessly afterwards."""
        cpu = self.cpu
        interval = self.checkpoints.interval or 256
        gap = target - cpu.cycle
        if not self.observers and cpu.halted is None and gap > 2 * interval:
            boundary = target - target % interval
            if boundary > cpu.cycle:
                before = cpu.cycle
                cpu.run(boundary)
                self.last_fast_forward = cpu.cycle - before
                if self.checkpoints.due(cpu.cycle):
                    self.checkpoints.put(cpu.cycle, cpu.save_state())
        self.step(target - cpu.cycle)

    def reset(self) -> None:
        """Rebuild all processor state at cycle 0.

        Checkpoints survive a reset: they describe cycles of the unique
        deterministic trajectory of (program, config), which a rebuilt CPU
        follows identically."""
        self.cpu = Cpu(self.program, self.config)
        self.stats = RuntimeStatistics(self.cpu)
        self._view_mark = None

    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None,
            cancel: Optional[object] = None,
            cancel_stride: Optional[int] = None) -> SimulationResult:
        """Run continuously until the program ends (or a cycle budget).

        With no registered observers this takes the uninstrumented fast
        path (:meth:`repro.core.pipeline.Cpu.run`): no per-cycle observer
        dispatch, no snapshots — run-to-completion simulations only pay for
        the pipeline blocks themselves.

        *cancel* (any object with a ``cancelled() -> bool`` method,
        canonically :class:`repro.fleet.cancel.CancelToken`) makes the
        run cooperatively cancellable: the token is checked every
        *cancel_stride* cycles (default :data:`DEFAULT_CANCEL_STRIDE`),
        so a fired token halts the run — ``halt_reason`` becomes
        :data:`CANCELLED_HALT_REASON` — within **one stride** instead of
        burning the rest of the budget.  A pre-fired token halts before
        the first cycle.  Without a token the fast path is unchanged
        (zero per-cycle overhead)."""
        budget = max_cycles if max_cycles is not None else self.config.max_cycles
        cpu = self.cpu
        if cancel is None:
            if not self.observers:
                cpu.run(budget)
            else:
                while not cpu.halted and cpu.cycle < budget:
                    cpu.step()
                    for observer in self.observers:
                        observer(cpu)
        else:
            stride = cancel_stride if cancel_stride is not None \
                else DEFAULT_CANCEL_STRIDE
            if stride < 1:
                raise ValueError("cancel_stride must be >= 1")
            cancelled = cancel.cancelled
            while not cpu.halted and cpu.cycle < budget:
                if cancelled():
                    cpu.halted = CANCELLED_HALT_REASON
                    break
                chunk = min(budget, cpu.cycle + stride)
                if not self.observers:
                    cpu.run(chunk)
                else:
                    while not cpu.halted and cpu.cycle < chunk:
                        cpu.step()
                        for observer in self.observers:
                            observer(cpu)
        if not cpu.halted:
            cpu.halted = f"cycle budget reached ({budget})"
        return SimulationResult(
            halt_reason=self.cpu.halted,
            cycles=self.cpu.cycle,
            committed=self.cpu.committed,
            statistics=self.stats.to_json(),
        )

    # ------------------------------------------------------------------
    def _rendered_log(self) -> list:
        """Cycle-stamped log entries, rendered incrementally.

        The rendered list is extended with new entries while the CPU log is
        append-only; a restore replaces the log object, which forces a full
        re-render.  Callers receive a fresh list (entries are shared)."""
        log = self.cpu.log
        cached = self._log_render
        if cached is not None and cached[0] is log                 and len(cached[1]) <= len(log):
            rendered = cached[1]
            for cycle, message in log[len(rendered):]:
                rendered.append({"cycle": cycle, "message": message})
        else:
            rendered = [{"cycle": cycle, "message": message}
                        for cycle, message in log]
            self._log_render = (log, rendered)
        return list(rendered)

    def _entry_versions(self) -> dict:
        """Per-instruction state versions of everything in flight (all
        instruction-list payloads draw from the fetch buffer and the ROB).

        ``SimCode.sver`` counts mutations, and mutation counts are
        deterministic, so these tokens stay comparable across checkpoint
        restores and replays."""
        cpu = self.cpu
        versions = {}
        for simcode in cpu.fetch_buffer:
            versions[simcode.id] = simcode.sver
        for simcode in cpu.rob:
            versions[simcode.id] = simcode.sver
        return versions

    def _storeb_versions(self) -> dict:
        """Per-entry version tokens of the store buffer.

        Store-buffer payload entries are not instruction JSON (they render
        address/committed/drain state), so their version token is that
        visible state itself — equality-comparable, deterministic, and
        exactly as fine-grained as the payload it guards."""
        return {e.simcode.id: (e.address, e.committed, e.drain_until)
                for e in self.cpu.store_buffer}

    def _mark_view(self) -> None:
        self._view_mark = (self.cpu.cycle, self.cpu.section_versions(),
                           len(self.cpu.log), self._entry_versions(),
                           self._storeb_versions())

    def _entry_delta(self, name: str, known: dict,
                     known_storeb: dict) -> Optional[str]:
        """Entry-level delta of instruction-list section *name* as JSON
        text, or None when it would not be smaller than the section.

        Entries still at the version the client's base was served at
        (*known*: instruction id -> ``SimCode.sver``; *known_storeb*: a
        store-buffer entry's visible drain state) are referenced by id
        only and resolved from the base by ``apply_snapshot_delta``; the
        others ride along, encoded in one call (each moved since the last
        serve, so no cached fragment of theirs is current).  The fetch
        section's pc / stalledUntil scalars always ride along."""
        cpu = self.cpu
        if name == "storeBuffer":
            entries = cpu.store_buffer
            ids = [e.simcode.id for e in entries]
            changed = {str(e.simcode.id): cpu.storeb_entry(e)
                       for e in entries
                       if known_storeb.get(e.simcode.id)
                       != (e.address, e.committed, e.drain_until)}
        else:
            if name == "issueWindows":
                simcodes = [s for window in cpu.windows.values()
                            for s in window]
            else:
                simcodes = {"fetch": cpu.fetch_buffer, "rob": cpu.rob,
                            "loadQueue": cpu.load_queue}[name]
            ids = [s.id for s in simcodes]
            changed = {str(s.id): s.to_json() for s in simcodes
                       if known.get(s.id) != s.sver}
        if len(changed) >= len(ids):
            return None
        if name == "issueWindows":
            layout = '"windows": {' + ", ".join(
                f"{json.dumps(window)}: {json.dumps([s.id for s in queue])}"
                for window, queue in cpu.windows.items()) + "}"
        else:
            layout = f'"ids": {json.dumps(ids)}'
        if name == "fetch":
            layout = (f'"pc": {cpu.pc}, '
                      f'"stalledUntil": {cpu.fetch_stall_until}, {layout}')
        return (f'{{"__entryDelta": true, {layout}, '
                f'"changed": {json.dumps(changed)}}}')

    def snapshot_cold(self) -> dict:
        """Cache-bypassing full snapshot: ground truth for tests and the
        pre-state-engine baseline in benchmarks.

        Invalidates every payload cache (sections, per-instruction dicts
        and fragments, rendered log) before rebuilding, so a missed
        dirty-marking site cannot hide behind two warm caches agreeing."""
        cpu = self.cpu
        for simcode in list(cpu.fetch_buffer) + list(cpu.rob):
            simcode.sver += 1
        cpu._snap_cache.clear()
        self._log_render = None
        return self.snapshot()

    def snapshot(self) -> dict:
        """Full processor-state payload as a dict: the library form of
        :meth:`snapshot_json` (which the server sends), and the oracle
        :meth:`snapshot_cold` builds from empty caches.

        Also records the view mark that :meth:`snapshot_delta_json`
        patches against, so a full snapshot is always a valid delta
        base."""
        data = self.cpu.snapshot()
        data["statistics"] = self.stats.panel(expanded=True)
        data["log"] = self._rendered_log()
        self._mark_view()
        return data

    def snapshot_json(self) -> str:
        """Full processor state as JSON text: the bytes ``json.dumps``
        writes for :meth:`snapshot`, spliced from the state engine's
        fragment caches (``Cpu.section_json`` / ``SimCode.to_json_str``),
        so unchanged instructions and sections are never re-encoded.
        Records the delta base like :meth:`snapshot`.  Wrap the text in
        :class:`repro.sim.state.RawJson` to splice it into a reply."""
        cpu = self.cpu
        parts = [f'"cycle": {cpu.cycle}', f'"pc": {cpu.pc}',
                 f'"halted": {json.dumps(cpu.halted)}']
        for name, version in cpu.section_versions().items():
            parts.append(f'"{name}": {cpu.section_json(name, version)}')
        parts.append(f'"statistics": '
                     f'{json.dumps(self.stats.panel(expanded=True))}')
        parts.append(f'"log": {json.dumps(self._rendered_log())}')
        self._mark_view()
        return "{" + ", ".join(parts) + "}"

    def snapshot_delta_json(self, since_cycle: Optional[int] = None) -> str:
        """Delta against the view served at *since_cycle*, as JSON text.

        ``{"format": "delta", ...}`` holds only the sections whose dirty
        version moved (instruction lists shrink further to entry-level
        deltas), the new log entries and the always-fresh statistics
        panel; apply it with :func:`repro.sim.state.apply_snapshot_delta`.
        Falls back to ``{"format": "full", "state": <snapshot_json>}``
        when *since_cycle* is not the last served view or time moved
        backwards (a rewound log cannot be expressed as an append)."""
        mark = self._view_mark
        cpu = self.cpu
        if (mark is None or since_cycle is None or mark[0] != since_cycle
                or cpu.cycle < mark[0] or len(cpu.log) < mark[2]):
            return (f'{{"format": "full", '
                    f'"schema": {SNAPSHOT_SCHEMA_VERSION}, '
                    f'"state": {self.snapshot_json()}}}')
        base_cycle, served, log_len, known, known_storeb = mark
        sections = []
        for name, version in cpu.section_versions().items():
            if served[name] != version:
                text = (name in _ENTRY_SECTIONS
                        and self._entry_delta(name, known, known_storeb)
                        or cpu.section_json(name, version))
                sections.append(f'"{name}": {text}')
        log = json.dumps([{"cycle": cycle, "message": message}
                          for cycle, message in cpu.log[log_len:]])
        statistics = json.dumps(self.stats.panel(expanded=True))
        self._mark_view()
        return (f'{{"format": "delta", '
                f'"schema": {SNAPSHOT_SCHEMA_VERSION}, '
                f'"baseCycle": {base_cycle}, "cycle": {cpu.cycle}, '
                f'"pc": {cpu.pc}, "halted": {json.dumps(cpu.halted)}, '
                f'"sections": {{{", ".join(sections)}}}, '
                f'"logStart": {log_len}, "log": {log}, '
                f'"statistics": {statistics}}}')

    def snapshot_delta(self, since_cycle: Optional[int] = None) -> dict:
        """:meth:`snapshot_delta_json` decoded, for library callers."""
        return json.loads(self.snapshot_delta_json(since_cycle))

    def register_value(self, name: str):
        """Committed architectural value of a register (tests, CLI)."""
        from repro.isa.registers import parse_register
        return self.cpu.arch_regs.read(parse_register(name))

    def memory_bytes(self, address: int, size: int) -> bytes:
        return self.cpu.memory.read_bytes(address, size)

    def memory_word(self, address: int, signed: bool = True) -> int:
        return self.cpu.memory.read_int(address, 4, signed)

    def symbol_address(self, name: str) -> int:
        if name not in self.program.labels:
            raise KeyError(f"no such label/symbol: {name}")
        return self.program.labels[name]


def run_program(source: str, config: Optional[CpuConfig] = None,
                entry: Optional[object] = None,
                memory_locations: Sequence[object] = ()) -> Tuple[Simulation, SimulationResult]:
    """One-call convenience: assemble, run to completion, return both the
    simulation (for state inspection) and the result summary."""
    sim = Simulation.from_source(source, config, entry, memory_locations)
    result = sim.run()
    return sim, result
