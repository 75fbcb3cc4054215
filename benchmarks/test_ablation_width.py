"""Ablation: superscalar width (fetch/commit width, ROB size) vs IPC.

The paper's Buffers tab exists precisely so students can watch this curve.
Since PR 3 the sweep itself runs on the experiment engine
(:mod:`repro.explore`): the hand-rolled serial loop became a declarative
grid spec, and every assertion reads the engine's per-run records — the
same records a pooled (parallel) run would produce bit-identically.
"""

import pytest

from repro import BufferConfig, FuSpec
from repro.explore import SweepSpec, run_sweep

#: ILP-rich kernel: 8 independent accumulation chains
KERNEL = "\n".join(
    f"    addi x{5 + (i % 8)}, x{5 + (i % 8)}, {i % 7 + 1}"
    for i in range(160)
) + "\n    ebreak"


def width_assignments(width: int, rob: int) -> dict:
    """Coupled config moves for one sweep point (a dict-valued axis)."""
    buffers = BufferConfig(rob_size=rob, fetch_width=width,
                           commit_width=width,
                           issue_window_size=max(8, 2 * width))
    fus = [FuSpec("FX", f"FX{i}").to_json()
           for i in range(1, width + 1)] + [
        FuSpec("LS", "LS1").to_json(), FuSpec("Branch", "BR1").to_json(),
        FuSpec("Memory", "MEM").to_json()]
    return {"config.buffers": buffers.to_json(),
            "config.functionalUnits": fus}


SPEC = {
    "name": "width-ablation",
    "programs": [{"name": "ilp", "source": KERNEL}],
    "axes": [{
        "name": "width",
        "values": [width_assignments(1, 64), width_assignments(2, 64),
                   width_assignments(4, 64), width_assignments(4, 4)],
        "labels": ["w1", "w2", "w4", "w4-rob4"],
    }],
}


@pytest.fixture(scope="module")
def width_run():
    run = run_sweep(SweepSpec.from_json(SPEC), workers=0)
    assert not run.failures, run.failures
    return run


@pytest.fixture(scope="module")
def width_sweep(width_run):
    by_width = {r["point"]["width"]: r["stats"] for r in width_run.records}
    print("\nwidth sweep (ILP-rich kernel, repro.explore engine):")
    for label, stats in by_width.items():
        print(f"  {label:<8} cycles={stats['cycles']:<6} "
              f"IPC={stats['ipc']:.3f}")
    return by_width


class TestWidthAblation:
    def test_ipc_increases_with_width(self, width_sweep):
        assert width_sweep["w1"]["ipc"] < width_sweep["w2"]["ipc"] \
            < width_sweep["w4"]["ipc"]

    def test_width1_bounded_by_one(self, width_sweep):
        assert width_sweep["w1"]["ipc"] <= 1.0

    def test_wide_machine_exceeds_ipc_2(self, width_sweep):
        assert width_sweep["w4"]["ipc"] > 2.0

    def test_results_independent_of_width(self, width_sweep):
        finals = {tuple(stats["intRegisters"])
                  for stats in width_sweep.values()}
        assert len(finals) == 1

    def test_tiny_rob_throttles_wide_machine(self, width_sweep):
        assert width_sweep["w4-rob4"]["ipc"] < width_sweep["w4"]["ipc"]

    def test_report_ranks_the_wide_machine_best(self, width_run):
        ranking = width_run.report(metric="ipc").ranking()
        assert ranking[0]["label"] == "program=ilp/width=w4"


def test_width4_benchmark():
    spec = dict(SPEC, axes=[{
        "name": "width", "values": [width_assignments(4, 64)],
        "labels": ["w4"]}])
    run = run_sweep(SweepSpec.from_json(spec), workers=0)
    assert run.records[0]["stats"]["ipc"] > 2.0
