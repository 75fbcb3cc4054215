"""Breakpoints and watchpoints (the paper's future-work debugging features).

Sec. V: *"improving the code development and simulation environment by
adding breakpoints, watches"*.

* A **breakpoint** fires when an instruction at a given PC (or label)
  *commits* — architectural state is then exactly the program state before
  any later instruction, which is what a source-level debugger shows.
* A **register watch** fires when a committed architectural register
  changes value; a **memory watch** fires when a watched byte range
  changes.

`DebugSession.run()` advances the underlying :class:`Simulation` until the
next debug event (or program end), so stepping, backward stepping and state
inspection keep working through the normal API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Union

from repro.isa.registers import parse_register
from repro.sim.simulation import Simulation


@dataclass
class DebugEvent:
    """One debugger stop."""

    kind: str     # 'breakpoint' | 'register' | 'memory' | 'halt' | 'seek'
    cycle: int
    pc: Optional[int] = None
    register: Optional[str] = None
    address: Optional[int] = None
    old_value: object = None
    new_value: object = None

    def __str__(self) -> str:
        if self.kind == "breakpoint":
            return f"breakpoint at pc={self.pc:#x} (cycle {self.cycle})"
        if self.kind == "register":
            return (f"watch {self.register}: {self.old_value} -> "
                    f"{self.new_value} (cycle {self.cycle})")
        if self.kind == "memory":
            return (f"watch [{self.address:#x}]: {self.old_value!r} -> "
                    f"{self.new_value!r} (cycle {self.cycle})")
        if self.kind == "seek":
            return f"seeked to cycle {self.cycle}"
        return f"halted (cycle {self.cycle})"


class DebugSession:
    """Breakpoint/watch layer over a :class:`Simulation`."""

    def __init__(self, simulation: Simulation):
        self.simulation = simulation
        self._breakpoints: Set[int] = set()
        self._reg_watches: Dict[str, object] = {}
        self._mem_watches: Dict[int, bytes] = {}   # address -> last bytes
        self._mem_sizes: Dict[int, int] = {}
        self.events: List[DebugEvent] = []

    # -- breakpoint management -------------------------------------------
    def add_breakpoint(self, where: Union[int, str]) -> int:
        """Break when the instruction at *where* (pc or label) commits."""
        pc = where if isinstance(where, int) \
            else self.simulation.symbol_address(str(where))
        self._breakpoints.add(pc)
        return pc

    def remove_breakpoint(self, where: Union[int, str]) -> bool:
        pc = where if isinstance(where, int) \
            else self.simulation.symbol_address(str(where))
        if pc in self._breakpoints:
            self._breakpoints.remove(pc)
            return True
        return False

    def breakpoints(self) -> List[int]:
        return sorted(self._breakpoints)

    # -- watches -----------------------------------------------------------
    def watch_register(self, name: str) -> None:
        reg = parse_register(name)
        self._reg_watches[reg] = self.simulation.cpu.arch_regs.read(reg)

    def watch_memory(self, address: int, size: int = 4) -> None:
        self._mem_watches[address] = \
            self.simulation.memory_bytes(address, size)
        self._mem_sizes[address] = size

    def unwatch_register(self, name: str) -> None:
        self._reg_watches.pop(parse_register(name), None)

    def unwatch_memory(self, address: int) -> None:
        self._mem_watches.pop(address, None)
        self._mem_sizes.pop(address, None)

    # -- execution -----------------------------------------------------------
    def run(self, max_cycles: int = 1_000_000) -> DebugEvent:
        """Run until the next debug event (or halt); returns the event."""
        sim = self.simulation
        hit: List[DebugEvent] = []

        def observer(cpu) -> None:
            # breakpoint detection: an instruction at a watched PC committed
            # in the step that just ran
            for simcode in getattr(cpu, "_debug_committed", []):
                if simcode.pc in self._breakpoints:
                    hit.append(DebugEvent(kind="breakpoint", cycle=cpu.cycle,
                                          pc=simcode.pc))

        # lightweight commit hook: register the per-commit observer once
        cpu = sim.cpu
        if not hasattr(cpu, "_debug_committed"):
            cpu._debug_committed = []
            cpu.commit_hook = cpu._debug_committed.append

        steps = 0
        while steps < max_cycles:
            if sim.cpu.halted:
                event = DebugEvent(kind="halt", cycle=sim.cpu.cycle)
                self.events.append(event)
                return event
            sim.cpu._debug_committed.clear()
            sim.step(1)
            steps += 1
            observer(sim.cpu)
            # register watches
            for reg, old in list(self._reg_watches.items()):
                new = sim.cpu.arch_regs.read(reg)
                if new != old:
                    self._reg_watches[reg] = new
                    hit.append(DebugEvent(kind="register",
                                          cycle=sim.cpu.cycle, register=reg,
                                          old_value=old, new_value=new))
            # memory watches
            for address, old in list(self._mem_watches.items()):
                size = self._mem_sizes[address]
                new = sim.memory_bytes(address, size)
                if new != old:
                    self._mem_watches[address] = new
                    hit.append(DebugEvent(kind="memory",
                                          cycle=sim.cpu.cycle,
                                          address=address, old_value=old,
                                          new_value=new))
            if hit:
                event = hit[0]
                self.events.append(event)
                return event
        event = DebugEvent(kind="halt", cycle=sim.cpu.cycle)
        self.events.append(event)
        return event

    def continue_(self, max_cycles: int = 1_000_000) -> DebugEvent:
        """Alias for :meth:`run` (gdb-style naming)."""
        return self.run(max_cycles)

    def run_to(self, target_cycle: int) -> DebugEvent:
        """Jump to an absolute *target_cycle* (checkpoint-seeded).

        With no breakpoints or watches installed there is nothing to
        probe along the way: the commit hook is lifted so the move runs
        on the uninstrumented fast path (the config-specialized step loop
        via :meth:`Simulation.seek` — checkpoint-seeded fast-forward), and
        the hook is reinstalled before instrumented stepping resumes.
        Determinism makes the fast-forwarded state bit-identical to the
        stepped one, so breakpoints added afterwards behave as if every
        cycle had been stepped.

        With debug state installed, falls back to the instrumented loop
        so events along the way still fire; the returned event is then
        whatever stopped the run first."""
        sim = self.simulation
        cpu = sim.cpu
        if (not self._breakpoints and not self._reg_watches
                and not self._mem_watches):
            hook = cpu.commit_hook
            cpu.commit_hook = None
            try:
                sim.seek(target_cycle)
            finally:
                cpu = sim.cpu          # seek may rebuild the CPU (reset)
                cpu.commit_hook = hook
            kind = "halt" if cpu.halted else "seek"
            event = DebugEvent(kind=kind, cycle=cpu.cycle)
            self.events.append(event)
            return event
        if target_cycle <= cpu.cycle:
            # backward targets cannot re-fire events deterministically
            # already delivered: plain seek, keep the probes installed
            sim.seek(target_cycle)
            event = DebugEvent(kind="seek", cycle=sim.cpu.cycle)
            self.events.append(event)
            return event
        while sim.cpu.cycle < target_cycle and not sim.cpu.halted:
            event = self.run(max_cycles=target_cycle - sim.cpu.cycle)
            if event.kind != "halt" or sim.cpu.halted:
                return event
            # budget-exhausted pseudo-halt: the target was reached with
            # no event on the way — replace it with the seek event below
            self.events.pop()
        event = DebugEvent(kind="seek", cycle=sim.cpu.cycle)
        self.events.append(event)
        return event
