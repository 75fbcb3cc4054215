"""Opt-in sampled profiler for the simulation hot loop.

Two instruments, both attached from the *outside* so the uninstrumented
fast path is byte-for-byte untouched:

* :class:`PipelineProfiler` — per-stage cycle attribution for the
  interpreter path.  ``Cpu.step()`` and its stage methods are generated
  from the stage emitters of :mod:`repro.core.tracegen` and installed on
  the class; ``step`` calls each stage through ``cpu._commit`` etc., so
  Python's instance-attribute shadowing lets us install timing wrappers
  on one ``Cpu`` *instance* without touching the class: a detached CPU
  pays nothing, not even a branch.  Timing is stride-sampled (clock
  reads on every N-th call per stage) so the attached overhead stays
  small and the *relative* shares stay honest.
* :class:`ResidencyProfiler` — chunked throughput timeline for
  uninstrumented runs: drives ``cpu.run`` in cycle slices and records
  cycles/instructions/wall time per slice plus which tier served it
  (the config-specialized step loop, where the same stages are inlined,
  or the interpreter).

Clocks are injected (``time_fn=``) for deterministic tests.  This
module is never imported by ``explore/runner.py``'s closure, by
``repro.core.pipeline``, or by ``repro.sim.simulation`` — the layering
test pins that — so profiling can never perturb sweep records.
"""

from __future__ import annotations

# wall-clock justification: stage timings are host-side diagnostics and
# never enter records; this module sits outside the determinism closure
# (see module docstring and the layering test in tests/obs/).
import time
from typing import Callable, Dict, List, Optional

from repro.core.tracegen import STAGE_METHODS

__all__ = ["PipelineProfiler", "ResidencyProfiler", "PIPELINE_STAGES"]

#: the six per-cycle stage methods of ``Cpu.step``, reverse pipeline
#: order (commit first), exactly as the interpreter calls them
PIPELINE_STAGES = STAGE_METHODS


class PipelineProfiler:
    """Stride-sampled per-stage wall-time attribution for one ``Cpu``.

    Usage::

        profiler = PipelineProfiler(cpu, stride=64)
        profiler.attach()
        simulation.run(budget)
        profiler.detach()
        report = profiler.report()

    ``attach`` is only meaningful on the interpreter path (a commit
    hook, or ``trace=False``, forces it); trace-tier runs bypass
    ``step()`` entirely — use :class:`ResidencyProfiler` there.
    """

    def __init__(self, cpu, stride: int = 64,
                 time_fn: Callable[[], float] = time.perf_counter):
        self.cpu = cpu
        self.stride = max(1, stride)
        self._time = time_fn
        # name -> [calls, sampled, seconds]
        self._cells: Dict[str, List[float]] = {
            name: [0, 0, 0.0] for name in PIPELINE_STAGES}
        self._attached = False

    # ------------------------------------------------------------------
    def attach(self) -> None:
        if self._attached:
            return
        for name in PIPELINE_STAGES:
            inner = getattr(self.cpu, name)   # bound class method
            setattr(self.cpu, name, self._wrap(name, inner))
        self._attached = True

    def detach(self) -> None:
        """Remove the wrappers; the instance falls back to the class
        methods and the CPU is indistinguishable from an unprofiled one."""
        if not self._attached:
            return
        for name in PIPELINE_STAGES:
            if name in self.cpu.__dict__:
                delattr(self.cpu, name)
        self._attached = False

    def __enter__(self) -> "PipelineProfiler":
        self.attach()
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def _wrap(self, name: str, inner):
        stride = self.stride
        time_fn = self._time
        cell = self._cells[name]

        def wrapper():
            cell[0] += 1
            if cell[0] % stride:
                return inner()
            t0 = time_fn()
            try:
                return inner()
            finally:
                cell[2] += time_fn() - t0
                cell[1] += 1

        return wrapper

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Per-stage attribution: sampled seconds and share of the total
        sampled time (the honest number — strides cancel out)."""
        total = sum(cell[2] for cell in self._cells.values())
        stages = []
        for name in PIPELINE_STAGES:
            calls, sampled, seconds = self._cells[name]
            stages.append({
                "stage": name.lstrip("_"),
                "calls": int(calls),
                "sampled": int(sampled),
                "sampledS": round(seconds, 6),
                "share": round(seconds / total, 4) if total else 0.0,
            })
        return {"stride": self.stride, "totalSampledS": round(total, 6),
                "stages": stages}


class ResidencyProfiler:
    """Chunked throughput timeline of an uninstrumented run.

    Drives ``cpu.run`` in fixed cycle slices and records, per slice,
    the cycle/instruction deltas, wall seconds, cycles/sec and the
    ``mode`` that served it: ``"traced"`` when the CPU runs its
    config-specialized step loop (``cpu._step_loop``), ``"interpreter"``
    otherwise.  The loop is compiled at most once per configuration,
    inside the first slice that needs it, so later slices are steady
    state."""

    def __init__(self, cpu, chunk_cycles: int = 50_000,
                 time_fn: Callable[[], float] = time.perf_counter):
        self.cpu = cpu
        self.chunk_cycles = max(1, chunk_cycles)
        self._time = time_fn
        self.chunks: List[dict] = []

    # ------------------------------------------------------------------
    def run(self, budget: int) -> None:
        """Run to halt or *budget* total cycles, recording one chunk
        entry per slice."""
        cpu = self.cpu
        while cpu.halted is None and cpu.cycle < budget:
            target = min(cpu.cycle + self.chunk_cycles, budget)
            cycles0 = cpu.cycle
            insns0 = cpu.committed
            t0 = self._time()
            cpu.run(target)
            wall = self._time() - t0
            cycles = cpu.cycle - cycles0
            self.chunks.append({
                "cycles": cycles,
                "instructions": cpu.committed - insns0,
                "wallS": round(wall, 6),
                "cps": round(cycles / wall, 1) if wall > 0 else None,
                "mode": ("traced" if cpu._step_loop is not None
                         else "interpreter"),
            })

    # ------------------------------------------------------------------
    def report(self) -> dict:
        total_cycles = sum(chunk["cycles"] for chunk in self.chunks)
        total_wall = sum(chunk["wallS"] for chunk in self.chunks)
        return {
            "chunkCycles": self.chunk_cycles,
            "chunks": self.chunks,
            "totalCycles": total_cycles,
            "totalWallS": round(total_wall, 6),
            "meanCps": (round(total_cycles / total_wall, 1)
                        if total_wall > 0 else None),
        }
