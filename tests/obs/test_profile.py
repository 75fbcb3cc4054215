"""Hot-loop profiling hooks: instance-attribute wrapping, stride
sampling, residency chunking — and the layering pin that keeps the
profiler out of the deterministic closure entirely."""

import ast

from repro import Simulation
from repro.obs.profile import (PIPELINE_STAGES, PipelineProfiler,
                               ResidencyProfiler)

LOOP = """
    li a0, 0
    li t0, 1
    li t1, 400
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""


def interpreter_sim():
    sim = Simulation.from_source(LOOP)
    # pin the interpreter path: PipelineProfiler wraps the per-cycle
    # stage methods, which the trace tier bypasses
    sim.cpu._trace_wanted = False
    return sim


class TestPipelineProfiler:
    def test_attach_profiles_every_stage(self):
        sim = interpreter_sim()
        profiler = PipelineProfiler(sim.cpu, stride=4)
        profiler.attach()
        sim.run(5_000)
        profiler.detach()
        report = profiler.report()
        assert [stage["stage"] for stage in report["stages"]] \
            == [name.lstrip("_") for name in PIPELINE_STAGES]
        for stage in report["stages"]:
            assert stage["calls"] > 0
            # stride sampling: roughly calls/stride timed samples
            assert stage["sampled"] == stage["calls"] // 4
        assert report["totalSampledS"] >= 0
        shares = [stage["share"] for stage in report["stages"]]
        assert abs(sum(shares) - 1.0) < 0.01 or sum(shares) == 0.0

    def test_detach_restores_class_methods(self):
        sim = interpreter_sim()
        cpu = sim.cpu
        baseline = {name: getattr(cpu, name) for name in PIPELINE_STAGES}
        with PipelineProfiler(cpu, stride=2):
            assert any(name in cpu.__dict__ for name in PIPELINE_STAGES)
        # instance dict is clean again: attribute lookup falls back to
        # the class, so an unprofiled CPU is byte-for-byte untouched
        assert not any(name in cpu.__dict__ for name in PIPELINE_STAGES)
        for name in PIPELINE_STAGES:
            assert getattr(cpu, name).__func__ is baseline[name].__func__

    def test_results_unchanged_by_profiling(self):
        plain = interpreter_sim()
        result_plain = plain.run(20_000)
        profiled = interpreter_sim()
        with PipelineProfiler(profiled.cpu, stride=8):
            result_profiled = profiled.run(20_000)
        assert result_plain.cycles == result_profiled.cycles
        assert result_plain.committed == result_profiled.committed

    def test_injected_clock(self):
        sim = interpreter_sim()
        ticks = iter(float(i) for i in range(100_000))
        profiler = PipelineProfiler(sim.cpu, stride=1,
                                    time_fn=ticks.__next__)
        with profiler:
            sim.run(50)
        report = profiler.report()
        assert report["totalSampledS"] > 0


class TestResidencyProfiler:
    def test_chunks_cover_the_run(self):
        sim = Simulation.from_source(LOOP)
        profiler = ResidencyProfiler(sim.cpu, chunk_cycles=500)
        profiler.run(100_000)
        report = profiler.report()
        assert sim.cpu.halted is not None
        assert report["totalCycles"] == sim.cpu.cycle
        assert len(report["chunks"]) >= 2
        assert all(chunk["cycles"] > 0 for chunk in report["chunks"])
        # the step loop engages inside the first slice, so every chunk
        # reports traced mode
        assert {chunk["mode"] for chunk in report["chunks"]} == {"traced"}

    def test_interpreter_mode_reported_without_tier(self):
        sim = interpreter_sim()
        profiler = ResidencyProfiler(sim.cpu, chunk_cycles=1_000)
        profiler.run(100_000)
        assert {chunk["mode"] for chunk in profiler.chunks} \
            == {"interpreter"}


def module_imports(path):
    tree = ast.parse(open(path).read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
    return found


class TestLayering:
    def test_hot_loop_never_imports_the_profiler(self):
        """The profiler attaches from outside; the simulated machine and
        the deterministic job closure must not know it exists."""
        import repro.core.pipeline
        import repro.core.tracegen
        import repro.explore.runner
        import repro.sim.simulation
        for module in (repro.core.pipeline, repro.core.tracegen,
                       repro.sim.simulation, repro.explore.runner):
            imports = module_imports(module.__file__)
            assert not any(name.startswith("repro.obs.profile")
                           or name.startswith("repro.obs.trace")
                           for name in imports), module.__name__

    def test_runner_closure_has_no_clock(self):
        """execute_payload's tracer is duck-typed (_NullTracer default):
        runner.py itself must stay free of time imports so sweep records
        cannot depend on a wall clock."""
        import repro.explore.runner
        imports = module_imports(repro.explore.runner.__file__)
        assert "time" not in imports
