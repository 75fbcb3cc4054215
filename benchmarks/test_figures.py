"""Regeneration benches for every GUI figure in the paper.

Each test rebuilds the *content* of one figure from live simulator state
and checks it.  Figure 11 is just QR codes linking to
the repository and demo — documented in the README, nothing to regenerate.
"""

import json

import pytest

from benchmarks.conftest import big_stack
from repro import CpuConfig, MemoryLocation, Simulation
from repro.compiler import compile_c
from repro.core.simcode import Phase
from repro.memory.layout import export_csv, import_csv
from repro.viz import (render_block, render_instruction_popup,
                       render_memory_popup, render_processor,
                       render_statistics)

PROGRAM = """
    .data
arr: .word 9, 8, 7, 6
    .text
main:
    la   t0, arr
    lw   a0, 0(t0)
    lw   a1, 4(t0)
    add  a2, a0, a1
    sw   a2, 8(t0)
    li   t1, 3
loop:
    addi t1, t1, -1
    bnez t1, loop
    ebreak
"""


@pytest.fixture(scope="module")
def midflight():
    sim = Simulation.from_source(PROGRAM, entry="main")
    sim.step(5)
    return sim


def test_fig1_fetch_block(midflight):
    """Fig. 1: fetch block panel with name, info line, active instrs."""
    text = render_block(midflight.cpu, "fetch")
    assert "[Fetch]" in text and "pc=" in text


def test_fig2_memory_popup(midflight):
    """Fig. 2: allocated arrays, starting addresses, memory dump."""
    text = render_memory_popup(midflight.cpu)
    assert "arr" in text
    assert "memory dump" in text
    assert f"{midflight.symbol_address('arr'):>#10x}" in text


def test_fig3_instruction_popup():
    """Fig. 3: instruction state, parameters, renaming, timestamps."""
    sim = Simulation.from_source(PROGRAM, entry="main")
    captured = {}

    def spy(cpu):
        for s in list(cpu.rob):
            captured.setdefault(s.mnemonic, s)
    sim.subscribe(spy)
    sim.run()
    add = captured["add"]
    text = render_instruction_popup(add)
    assert "phase timestamps:" in text
    assert add.stamped(Phase.COMMIT) is not None


def test_fig4to7_editor_payloads():
    """Figs. 4-7: code editor data — compiled C + asm with line links
    (Figs. 4-5) and positioned error diagnostics (Figs. 6-7)."""
    c_source = """
int main(void) {
    int total = 0;
    for (int i = 0; i < 8; i++)
        total += i;
    return total;
}
"""
    result = compile_c(c_source, 1)
    assert result.success
    # Fig. 5: C<->assembly links — the loop body line maps to instructions
    assert any(line == 5 for line in result.line_map.values())
    # Fig. 6: C syntax error with position
    bad_c = compile_c("int main(void) {\n  int x = ;\n}", 0)
    assert not bad_c.success and bad_c.errors[0]["line"] == 2
    # Fig. 7: assembly syntax error with position
    from repro.errors import AsmSyntaxError
    from repro.asm.parser import assemble
    try:
        assemble("nop\n  frob x1, x2")
    except AsmSyntaxError as exc:
        assert exc.line == 2
    else:  # pragma: no cover
        pytest.fail("expected AsmSyntaxError")


def test_fig8_memory_editor():
    """Fig. 8: typed arrays with alignment and fill modes; CSV/binary
    import-export of memory dumps."""
    locations = [
        MemoryLocation(name="weights", dtype="float", alignment=16,
                       values=[0.5, 1.5, 2.5]),
        MemoryLocation(name="zeros", dtype="word", repeat_value=0,
                       count=8),
        MemoryLocation(name="noise", dtype="byte", random_count=16,
                       random_seed=3),
    ]
    sim = Simulation.from_source("nop\nebreak", memory_locations=locations)
    names = {s.name for s in sim.program.symbols}
    assert {"weights", "zeros", "noise"} <= names
    assert sim.symbol_address("weights") % 16 == 0
    dump = export_csv(bytes(sim.cpu.memory.data[:128]))
    assert bytes(import_csv(dump)) == bytes(sim.cpu.memory.data[:128])


def test_fig9_arch_settings():
    """Fig. 9: full architecture configuration round-trips through JSON
    (the window's import/export feature), covering every tab."""
    config = CpuConfig.preset("wide")
    config.cache.replacement_policy = "Random"
    config.predictor.use_global_history = True
    config.memory.load_latency = 20
    clone = CpuConfig.from_json_str(config.to_json_str())
    assert clone == config
    exported = json.loads(config.to_json_str())
    for tab in ("buffers", "functionalUnits", "cache", "memory",
                "branchPredictor"):
        assert tab in exported


def test_fig10_statistics_page():
    """Fig. 10: the full runtime-statistics page from a quicksort run."""
    from benchmarks.conftest import QUICKSORT_C, compile_ok
    asm = compile_ok(QUICKSORT_C, 2)
    data = MemoryLocation(name="data", dtype="word",
                          values=[5, 3, 8, 1, 9, 2, 7, 4, 6, 0, 11, 13, 12,
                                  15, 14, 10])
    sim = Simulation.from_source(asm, config=big_stack(), entry="main",
                                 memory_locations=[data])
    sim.run()
    text = render_statistics(sim.stats)
    for section in ("total cycles", "IPC", "instruction mix",
                    "functional unit busy cycles", "cache statistics"):
        assert section in text


def test_fig12_main_window(midflight):
    """Fig. 12: the complete processor view with every component."""
    text = render_processor(midflight.cpu)
    for component in ("[Fetch]", "Reorder buffer", "issue window",
                      "Unit FX1", "Registers", "L1 cache", "status:"):
        assert component in text
