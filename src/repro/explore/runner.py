"""Worker-side job execution: one payload in, one statistics record out.

``execute_payload`` is the :class:`repro.explore.pool.ProcessWorkerPool`
task (referenced as ``"repro.explore.runner:execute_payload"`` so spawned
workers import it instead of unpickling a closure).  It is also called
directly by the serial execution path and by the remote sweep worker's
``/worker/execute`` endpoint, which is what makes all execution backends
bit-identical: the exact same function produces the record everywhere,
and the record deliberately contains **no host-side timing** — only
simulated quantities, which are deterministic for a (program, config)
pair.

Per-job setup (C compile, assembly) goes through a content-addressed
:class:`repro.explore.artifacts.ArtifactCache`, so design points that
share a program skip re-compiling/re-assembling it.  Cache hits are
byte-identical to cold builds by construction (artifacts are addressed
by the content of every input), so the determinism pin holds warm or
cold.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.core.config import CpuConfig
from repro.errors import ReproError
from repro.explore.artifacts import ArtifactCache, default_cache
from repro.sim.energy import estimate_area, estimate_energy
from repro.sim.simulation import CANCELLED_HALT_REASON, Simulation

__all__ = ["execute_payload", "build_simulation", "program_assembly",
           "JobError", "JobCancelled"]


class JobError(ReproError):
    """A sweep job failed for a reportable, per-job reason."""


class JobCancelled(ReproError):
    """The job's cancel token fired mid-run (cooperative cancellation).

    Raised by :func:`execute_payload` — never by a cold simulation — so
    callers (the serial backend, the ``/worker/execute`` endpoint) can
    map it to a ``kind="cancelled"`` record distinct from job errors.
    """


class _NullTracer:
    """Default no-op tracer: ``execute_payload`` runs the same code path
    traced or not, and this module never imports :mod:`repro.obs.trace`
    (tracers cross in duck-typed), so the deterministic closure stays
    clock-free."""

    @contextmanager
    def span(self, name, **tags):
        yield


_NULL_TRACER = _NullTracer()


def program_assembly(payload: dict, cache: ArtifactCache) -> str:
    """The job's program as assembly: its ``source``, or its ``c``
    compiled through *cache* at the job's level (the payload's
    ``optimizeLevel`` axis override, else the program's)."""
    program_spec = payload.get("program") or {}
    source: Optional[str] = program_spec.get("source")
    if source is not None:
        return source
    c_source = program_spec.get("c")
    if c_source is None:
        raise JobError(f"program '{program_spec.get('name', '?')}' "
                       f"carries neither assembly nor C source")
    level = int(payload.get("optimizeLevel",
                            program_spec.get("optimizeLevel", 1)))
    return cache.compiled_assembly(c_source, level)


def build_simulation(payload: dict,
                     cache: Optional[ArtifactCache] = None) -> Simulation:
    """Per-job setup: payload -> ready-to-run :class:`Simulation`.

    All the work a cache hit elides lives here (compile, assemble); the
    benchmark suite times this function cold vs warm.  *cache* defaults
    to the process-wide cache (:func:`repro.explore.artifacts.default_cache`).
    """
    if cache is None:
        cache = default_cache()
    program_spec = payload.get("program") or {}
    source = program_assembly(payload, cache)
    config = CpuConfig.from_json(payload["config"])
    if payload.get("maxCycles") is not None:
        config.max_cycles = int(payload["maxCycles"])
    entry = payload.get("entry", program_spec.get("entry"))
    program = cache.assembled_program(
        source, stack_size=config.memory.call_stack_size, entry=entry,
        memory_locations=program_spec.get("memory", []))
    return Simulation(program, config)


def execute_payload(payload: dict,
                    cache: Optional[ArtifactCache] = None,
                    cancel: Optional[object] = None,
                    cancel_stride: Optional[int] = None,
                    tracer: Optional[object] = None) -> dict:
    """Run one planned job; return its per-run statistics record body.

    The summary covers every metric the paper's evaluation compares —
    cycles, IPC, branch-predictor accuracy, cache hit/miss rates, memory
    traffic, energy — plus the committed integer register file, so
    correctness-across-configs assertions (the ablation suites) can run
    off the record alone.  ``collect: "full"`` additionally embeds the
    complete statistics page.

    *cancel* (a token with ``cancelled()``) makes the simulation
    cooperatively cancellable at *cancel_stride* cycles; a run halted by
    the token raises :class:`JobCancelled` instead of returning a
    half-simulated record.

    *tracer* (anything with a ``span(name, **tags)`` context manager,
    canonically :class:`repro.obs.trace.JobTracer`) times the compile /
    simulate / record phases; timings stay on the tracer, never in the
    returned record.
    """
    if tracer is None:
        tracer = _NULL_TRACER
    with tracer.span("compile"):
        simulation = build_simulation(payload, cache)
    with tracer.span("simulate"):
        result = simulation.run(cancel=cancel, cancel_stride=cancel_stride)
    if result.halt_reason == CANCELLED_HALT_REASON:
        raise JobCancelled("job cancelled")
    with tracer.span("record"):
        cpu = simulation.cpu
        stats = result.statistics
        predictor = stats["branchPredictor"]
        summary = {
            "haltReason": result.halt_reason,
            "cycles": result.cycles,
            "committedInstructions": result.committed,
            "ipc": stats["ipc"],
            "branchAccuracy": predictor["accuracy"],
            "branchPredictions": predictor["predictions"],
            "robFlushes": stats["robFlushes"],
            "flopsTotal": stats["flopsTotal"],
            "dynamicMix": stats["dynamicMix"],
            "memory": stats["memory"],
            "intRegisters": cpu.arch_regs.snapshot()["int"],
        }
        for level in ("cache", "l2Cache"):
            if level in stats:
                cache = stats[level]
                summary[level] = {
                    "hitRatio": cache["hitRatio"],
                    "missRatio": cache["missRatio"],
                    "accesses": cache["accesses"],
                    "bytesWritten": cache["bytesWritten"],
                }
        energy = estimate_energy(cpu)
        summary["energy"] = {
            "totalPj": round(energy.total_pj, 2),
            "dynamicPj": round(energy.dynamic_total_pj, 2),
            "staticPj": round(energy.static_pj, 2),
        }
        summary["areaKGE"] = round(estimate_area(cpu.config).total, 3)
        record = {"stats": summary}
        if payload.get("collect") == "full":
            record["statistics"] = stats
    return record
