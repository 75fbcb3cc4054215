"""Shared test helpers."""

from __future__ import annotations

from typing import Optional, Sequence

import pytest
from hypothesis import settings

from repro import CpuConfig, Simulation

# Tier-1 keeps hypothesis' default (bounded) example budget; the "ci"
# profile is the long run of the generated-program properties:
#   pytest tests/integration/test_differential.py --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000, deadline=None)


def run_asm(source: str, entry: Optional[object] = None,
            config: Optional[CpuConfig] = None,
            memory_locations: Sequence[object] = (),
            max_cycles: int = 200_000) -> Simulation:
    """Assemble, run to completion, return the finished simulation."""
    sim = Simulation.from_source(source, config=config, entry=entry,
                                 memory_locations=memory_locations)
    sim.run(max_cycles)
    return sim


def run_c(source: str, opt_level: int = 1, entry: str = "main",
          config: Optional[CpuConfig] = None,
          memory_locations: Sequence[object] = ()) -> Simulation:
    """Compile C, simulate, return the finished simulation."""
    from repro.compiler import compile_c
    result = compile_c(source, opt_level)
    assert result.success, f"compile failed: {result.errors}"
    if config is None:
        config = CpuConfig()
        config.memory.call_stack_size = 4096
    return run_asm(result.assembly, entry=entry, config=config,
                   memory_locations=memory_locations)


@pytest.fixture
def default_config() -> CpuConfig:
    return CpuConfig()


@pytest.fixture
def big_stack_config() -> CpuConfig:
    config = CpuConfig()
    config.memory.call_stack_size = 4096
    return config
